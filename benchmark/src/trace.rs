//! Outside-in spans: the harness opens a span around each public engine
//! call of a replayed operation, keeps them in memory, and writes them out
//! when the run ends. Spans *inside* the engine are a later change; what
//! the outside view cannot attribute is reported as coverage below 1.

use std::time::Instant;

/// One recorded interval. `parent` indexes the span that caused this one;
/// spans of one operation share `op_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: the `crate.module` prefix of its name
    /// (`serve.protocol.request_encode` → `serve.protocol`).
    pub fn layer(&self) -> &'static str {
        match self.name.match_indices('.').nth(1) {
            Some((i, _)) => &self.name[..i],
            None => self.name,
        }
    }
}

/// Records spans when enabled; when disabled every call is a branch, which
/// is what the untraced replay (the overhead baseline) runs with.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op_id: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op_id);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// children cover. Children may nest or overlap each other (two clients'
/// calls under one parent); the covered part is the union of their
/// intervals clipped to the parent, so no nanosecond is subtracted twice.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per operation, the self time each layer's spans add up to, in
/// nanoseconds: `(op_id, layer) → ns`, in first-seen order of layers.
/// Root spans (no parent) are the operations themselves and belong to no
/// layer; their self time is what the layers leave unattributed.
pub fn layer_self_ns_per_op(spans: &[Span]) -> Vec<(&'static str, Vec<u64>)> {
    let selfs = self_times_ns(spans);
    let ops = spans.iter().map(|s| s.op_id).max().map_or(0, |m| m + 1) as usize;
    let mut layers: Vec<(&'static str, Vec<u64>)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.parent.is_none() {
            continue;
        }
        let layer = s.layer();
        let slot = match layers.iter().position(|(l, _)| *l == layer) {
            Some(i) => i,
            None => {
                layers.push((layer, vec![0; ops]));
                layers.len() - 1
            }
        };
        layers[slot].1[s.op_id as usize] += self_ns;
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "core.batch.run",
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child 10..60 with its own child 20..30; child 70..90.
        let spans = vec![
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
            span(70, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn self_time_counts_overlapping_children_as_their_union() {
        // children 10..50 and 30..80 overlap by 20; 40..45 lies inside both.
        let spans = vec![
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 80, Some(0)),
            span(40, 45, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn self_time_clips_a_child_that_outlives_its_parent() {
        let spans = vec![span(10, 50, None), span(40, 70, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![30, 30]);
    }

    #[test]
    fn layers_come_from_the_span_name() {
        let mut t = Tracer::new(true);
        let root = t.open("op", None, 0);
        t.span("serve.protocol.request_encode", root, 0, || ());
        t.span("serve.protocol.request_decode", root, 0, || ());
        t.span("core.batch.run", root, 0, || ());
        t.close(root);
        let layers = layer_self_ns_per_op(t.spans());
        let names: Vec<&str> = layers.iter().map(|(l, _)| *l).collect();
        assert_eq!(names, vec!["serve.protocol", "core.batch"]);
        assert!(layers.iter().all(|(_, per_op)| per_op.len() == 1));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.open("op", None, 0);
        assert_eq!(t.span("core.batch.run", root, 0, || 7), 7);
        t.close(root);
        assert!(t.spans().is_empty());
    }
}
