//! Device descriptors and the offload cost model.

use std::time::Duration;

/// Hardware threads this process should assume, honoring the
/// `DEEPLENS_THREADS` environment variable.
///
/// Containers and CI runners frequently advertise a core count that has
/// nothing to do with the quota the process actually gets, and the test
/// suite needs to run under pinned thread shapes (the CI matrix exercises a
/// 1-thread and a many-thread configuration). `DEEPLENS_THREADS=<n>` (n ≥ 1)
/// overrides auto-detection everywhere a zero/auto thread count resolves:
/// [`Device::resolved_threads`], `WorkerPool::new(0)`, and the simulated
/// GPU's default worker count. Unset, empty, or unparsable values fall back
/// to [`std::thread::available_parallelism`].
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
    /// Simulated GPU: data-parallel workers plus launch/transfer overhead
    /// (the paper's "GPU").
    GpuSim,
}

impl Device {
    /// The paper's three devices, in the order its Fig. 8 reports them.
    pub fn all() -> [Device; 3] {
        [Device::Cpu, Device::Avx, Device::GpuSim]
    }

    /// Label used by the benchmark harnesses.
    pub fn label(&self) -> &'static str {
        match self {
            Device::Cpu => "CPU",
            Device::Avx => "AVX",
            Device::ParallelCpu(_) => "PAR",
            Device::GpuSim => "GPU",
        }
    }

    /// The worker count a [`Device::ParallelCpu`] resolves to on this host
    /// (`0` → hardware threads, see [`configured_threads`]); `1` for the
    /// single-core backends and the simulated GPU's host side.
    pub fn resolved_threads(&self) -> usize {
        match self {
            Device::ParallelCpu(0) => configured_threads(),
            Device::ParallelCpu(t) => *t,
            _ => 1,
        }
    }

    /// Parse a device from its command-line spelling, case-insensitively:
    /// `cpu`, `avx`, `gpu`, `parallel` (auto thread count), or
    /// `parallel:<n>` for an explicit worker count. `None` for anything
    /// else — callers print their own usage message.
    pub fn parse(spec: &str) -> Option<Device> {
        let spec = spec.trim().to_ascii_lowercase();
        match spec.as_str() {
            "cpu" => Some(Device::Cpu),
            "avx" => Some(Device::Avx),
            "gpu" | "gpusim" => Some(Device::GpuSim),
            "parallel" | "par" => Some(Device::ParallelCpu(0)),
            _ => {
                let n = spec
                    .strip_prefix("parallel:")
                    .or(spec.strip_prefix("par:"))?;
                n.parse::<usize>().ok().map(Device::ParallelCpu)
            }
        }
    }
}

/// Overhead model of the simulated GPU.
///
/// Every kernel launch pays [`GpuProfile::launch_overhead`] once, plus
/// transfer time for all input/output bytes at
/// [`GpuProfile::bandwidth_gib_s`]. Compute itself runs on
/// [`GpuProfile::workers`] threads. These three parameters reproduce the
/// crossover in the paper's Fig. 8: small workloads lose to the overhead,
/// large workloads amortize it.
#[derive(Debug, Clone, Copy)]
pub struct GpuProfile {
    /// Fixed cost per kernel launch.
    pub launch_overhead: Duration,
    /// Host↔device transfer bandwidth in GiB/s.
    pub bandwidth_gib_s: f64,
    /// Data-parallel worker threads ("SM occupancy").
    pub workers: usize,
}

impl Default for GpuProfile {
    fn default() -> Self {
        GpuProfile {
            launch_overhead: Duration::from_micros(250),
            bandwidth_gib_s: 8.0,
            workers: configured_threads(),
        }
    }
}

impl GpuProfile {
    /// Time to move `bytes` across the simulated PCIe link.
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        let secs = bytes as f64 / (self.bandwidth_gib_s * 1024.0 * 1024.0 * 1024.0);
        Duration::from_secs_f64(secs)
    }

    /// Total offload overhead for a kernel moving `bytes` in + out.
    pub fn offload_overhead(&self, bytes: usize) -> Duration {
        self.launch_overhead + self.transfer_time(bytes)
    }

    /// Busy-wait for the overhead duration. Sleeping is too coarse for
    /// sub-millisecond overheads on most schedulers, so we spin — the point
    /// is that wall-clock measurements include the cost.
    pub fn pay_overhead(&self, bytes: usize) {
        let d = self.offload_overhead(bytes);
        let start = std::time::Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_order() {
        assert_eq!(Device::all().map(|d| d.label()), ["CPU", "AVX", "GPU"]);
        assert_eq!(Device::ParallelCpu(0).label(), "PAR");
    }

    #[test]
    fn parse_covers_the_cli_spellings() {
        assert_eq!(Device::parse("cpu"), Some(Device::Cpu));
        assert_eq!(Device::parse(" AVX "), Some(Device::Avx));
        assert_eq!(Device::parse("gpu"), Some(Device::GpuSim));
        assert_eq!(Device::parse("parallel"), Some(Device::ParallelCpu(0)));
        assert_eq!(Device::parse("parallel:6"), Some(Device::ParallelCpu(6)));
        assert_eq!(Device::parse("par:2"), Some(Device::ParallelCpu(2)));
        assert_eq!(Device::parse("tpu"), None);
        assert_eq!(Device::parse("parallel:x"), None);
    }

    #[test]
    fn parallel_cpu_resolves_threads() {
        assert_eq!(Device::ParallelCpu(6).resolved_threads(), 6);
        assert!(Device::ParallelCpu(0).resolved_threads() >= 1);
        assert_eq!(Device::Cpu.resolved_threads(), 1);
        assert_eq!(Device::GpuSim.resolved_threads(), 1);
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

    #[test]
    fn transfer_time_scales_linearly() {
        let p = GpuProfile {
            bandwidth_gib_s: 1.0,
            ..Default::default()
        };
        let t1 = p.transfer_time(1024 * 1024 * 1024);
        assert!((t1.as_secs_f64() - 1.0).abs() < 1e-9);
        let t2 = p.transfer_time(2 * 1024 * 1024 * 1024);
        assert!((t2.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_includes_launch() {
        let p = GpuProfile {
            launch_overhead: Duration::from_micros(100),
            bandwidth_gib_s: 8.0,
            workers: 2,
        };
        assert!(p.offload_overhead(0) >= Duration::from_micros(100));
    }

    #[test]
    fn pay_overhead_takes_wallclock_time() {
        let p = GpuProfile {
            launch_overhead: Duration::from_micros(500),
            bandwidth_gib_s: 8.0,
            workers: 2,
        };
        let start = std::time::Instant::now();
        p.pay_overhead(0);
        assert!(start.elapsed() >= Duration::from_micros(500));
    }
}
