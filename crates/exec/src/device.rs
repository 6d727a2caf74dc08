//! Device descriptors and the host's thread count.

/// Hardware threads this process should assume, honoring the
/// `DEEPLENS_THREADS` environment variable.
///
/// Containers and CI runners frequently advertise a core count that has
/// nothing to do with the quota the process actually gets, and the test
/// suite needs to run under pinned thread shapes (the CI matrix exercises a
/// 1-thread and a many-thread configuration). `DEEPLENS_THREADS=<n>` (n ≥ 1)
/// overrides auto-detection everywhere a zero/auto thread count resolves:
/// [`Device::resolved_threads`] and `WorkerPool::new(0)`. Unset, empty, or
/// unparsable values fall back to [`std::thread::available_parallelism`].
pub fn configured_threads() -> usize {
    match std::env::var("DEEPLENS_THREADS") {
        Ok(raw) => parse_thread_override(&raw).unwrap_or_else(available_threads),
        Err(_) => available_threads(),
    }
}

/// Parse a `DEEPLENS_THREADS` value: a positive integer, or `None` to fall
/// back to auto-detection.
fn parse_thread_override(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// An execution backend for DeepLens kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Device {
    /// Vanilla scalar CPU implementation (the paper's "CPU").
    Cpu,
    /// Vectorized single-core implementation (the paper's "AVX").
    Avx,
    /// Multi-core CPU: the vectorized kernels sharded over a morsel-driven
    /// scoped-thread pool. The payload is the worker count; `0` means one
    /// worker per available hardware thread.
    ParallelCpu(usize),
}

impl Device {
    /// The worker count a [`Device::ParallelCpu`] resolves to on this host
    /// (`0` → hardware threads, see [`configured_threads`]); `1` for the
    /// single-core backends.
    pub fn resolved_threads(&self) -> usize {
        match self {
            Device::ParallelCpu(0) => configured_threads(),
            Device::ParallelCpu(t) => *t,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_cpu_resolves_threads() {
        assert_eq!(Device::ParallelCpu(6).resolved_threads(), 6);
        assert!(Device::ParallelCpu(0).resolved_threads() >= 1);
        assert_eq!(Device::Cpu.resolved_threads(), 1);
        assert_eq!(Device::Avx.resolved_threads(), 1);
    }

    #[test]
    fn thread_override_parsing() {
        // The pure parser behind DEEPLENS_THREADS (the env read itself is
        // not exercised here: the test harness runs tests concurrently and
        // process-global env mutation would race).
        assert_eq!(parse_thread_override("4"), Some(4));
        assert_eq!(parse_thread_override(" 16 "), Some(16));
        assert_eq!(parse_thread_override("1"), Some(1));
        assert_eq!(parse_thread_override("0"), None, "zero means auto");
        assert_eq!(parse_thread_override(""), None);
        assert_eq!(parse_thread_override("lots"), None);
        assert_eq!(parse_thread_override("-2"), None);
        assert!(configured_threads() >= 1);
    }
}
