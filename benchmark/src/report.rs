//! The metric catalogue and the result's wire form.
//!
//! `BENCHMARK.json` at the repository root declares these same names, units
//! and bounds; a unit test holds the two to each other, so neither can
//! drift. JSON is written and read by hand — the package depends on nothing
//! but the engine.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses for this direction.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression; per-layer metrics carry none.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees, on every workload. The timing bounds are
/// the widest the contract allows: the reference host's own speed moves by
/// a fifth between runs of one build (README, "Repeatability"), and a bound
/// inside that noise would reject changes that changed nothing.
pub const END_TO_END: [MetricDef; 5] = [
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("ops_per_s", "1/s", Better::Higher, 0.25),
    gated("op_p50_ms", "ms", Better::Lower, 0.25),
    gated("slow_op_p50_ms", "ms", Better::Lower, 0.25),
    gated("peak_rss_mb", "MiB", Better::Lower, 0.1),
];

use Better::{Higher, Lower};

/// Single layers, from the traced run: client-side diagnostics and engine
/// counters of the measured phase, the span replay, and the layer probes.
pub const PER_LAYER: [MetricDef; 66] = [
    // Measured phase, seen from the client.
    layer("client.op_p95_ms", "ms", Lower),
    layer("client.op_tail_ms", "ms", Lower),
    layer("client.op_tail_pct", "%", Higher),
    layer("client.op_tail_n", "count", Higher),
    layer("client.segments", "count", Higher),
    layer("client.segment_spread", "ratio", Lower),
    // Measured phase, engine counters.
    layer("core.cache.hit_ratio", "ratio", Higher),
    layer("core.cache.evictions_per_op", "count", Lower),
    layer("core.shared.delta_merges_per_op", "count", Lower),
    layer("serve.admission.shed", "count", Lower),
    layer("core.scan.rows_materialized_per_op", "count", Lower),
    layer("codec.video.frames_decoded_per_op", "count", Lower),
    // Span replay of the workload's own operations.
    layer("trace.ops", "count", Higher),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.share.serve.protocol", "ratio", Lower),
    layer("trace.share.serve.admission", "ratio", Lower),
    layer("trace.share.core.shared", "ratio", Lower),
    layer("trace.share.core.cache", "ratio", Lower),
    layer("trace.share.core.batch", "ratio", Lower),
    layer("trace.share.core.scan", "ratio", Lower),
    layer("trace.share.codec.video", "ratio", Lower),
    layer("trace.share.core.etl", "ratio", Lower),
    // Layer probes.
    layer("serve.protocol.request_encode_us", "us", Lower),
    layer("serve.protocol.request_decode_us", "us", Lower),
    layer("serve.protocol.response_encode_us", "us", Lower),
    layer("serve.protocol.response_decode_us", "us", Lower),
    layer("serve.protocol.request_bytes", "B", Lower),
    layer("serve.protocol.response_bytes", "B", Lower),
    layer("serve.protocol.write_encode_us", "us", Lower),
    layer("serve.protocol.write_decode_us", "us", Lower),
    layer("serve.admission.admit_us", "us", Lower),
    layer("serve.server.ping_rtt_us", "us", Lower),
    layer("serve.server.overhead_us", "us", Lower),
    layer("core.shared.snapshot_us", "us", Lower),
    layer("core.shared.materialize_ms", "ms", Lower),
    layer("core.cache.get_us", "us", Lower),
    layer("core.cache.insert_us", "us", Lower),
    layer("core.batch.run_ms", "ms", Lower),
    layer("core.batch.join_ms", "ms", Lower),
    layer("core.batch.dedup_ms", "ms", Lower),
    layer("core.batch.probe_us", "us", Lower),
    layer("storage.columnar.build_ms", "ms", Lower),
    layer("core.scan.count_us", "us", Lower),
    layer("core.scan.chunks_pruned_ratio", "ratio", Higher),
    layer("core.scan.full_us_per_row", "us", Lower),
    layer("core.scan.packed_us_per_chunk", "us", Lower),
    layer("storage.columnar.decode_packed_us", "us", Lower),
    layer("storage.columnar.feature_bytes_per_row", "B", Lower),
    layer("storage.columnar.int_decode_us", "us", Lower),
    layer("exec.packed.join_ns_per_pair", "ns", Lower),
    layer("exec.pool.dispatch_us", "us", Lower),
    layer("index.balltree.build_ms", "ms", Lower),
    layer("index.balltree.range_query_us", "us", Lower),
    layer("index.balltree.dist_evals_per_query", "count", Lower),
    layer("index.delta.range_query_us", "us", Lower),
    layer("codec.video.decode_ms_per_frame", "ms", Lower),
    layer("codec.video.bytes_per_frame", "B", Lower),
    layer("core.etl.pipeline_ms_per_frame", "ms", Lower),
    layer("core.etl.patches_per_frame", "count", Higher),
    layer("core.etl.batch_run_ms", "ms", Lower),
    // The measured phase's own end-to-end values, repeated so a traced
    // result can be read without its untraced twin.
    layer("run.setup_s", "s", Lower),
    layer("run.ops_per_s", "1/s", Higher),
    layer("run.op_p50_ms", "ms", Lower),
    layer("run.slow_op_p50_ms", "ms", Lower),
    layer("run.peak_rss_mb", "MiB", Lower),
];

pub const WORKLOADS: [&str; 4] = [
    "serve_cold",
    "serve_mixed_rw",
    "ingest_video",
    "scan_analytics",
];

/// One measured value under its declared name.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What one run of one workload reports on its last line of output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Values in declaration order of `defs`; panics if one is missing,
    /// which a unit test rules out for both catalogues.
    pub fn from_values(
        defs: &[MetricDef],
        values: &[(&str, f64)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> RunResult {
        let metrics = defs
            .iter()
            .map(|d| {
                let value = values
                    .iter()
                    .find(|(n, _)| *n == d.name)
                    .unwrap_or_else(|| panic!("no value measured for metric '{}'", d.name))
                    .1;
                Metric {
                    name: d.name.to_string(),
                    value,
                    unit: d.unit.to_string(),
                }
            })
            .collect();
        RunResult {
            correct,
            attempted,
            failed,
            metrics,
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON object the contract asks for.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        )
        .expect("write to a string");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                Json::quote(&m.name),
                Json::number(m.value),
                Json::quote(&m.unit)
            )
            .expect("write to a string");
        }
        s.push_str("}}");
        s
    }

    pub fn from_json(text: &str) -> Result<RunResult, String> {
        let root = Json::parse(text)?;
        let metrics = root
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("result has no 'metrics' object")?
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    value: m
                        .get("value")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("metric '{name}' has no numeric value"))?,
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("metric '{name}' has no unit"))?
                        .to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let count = |key: &str| {
            root.get(key)
                .and_then(Json::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("result has no '{key}' count"))
        };
        Ok(RunResult {
            correct: matches!(root.get("correct"), Some(Json::Bool(true))),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// A JSON value; objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// A finite number with all the digits `f64` carries; JSON has no word
    /// for the others, so they become `null` and fail the reader loudly.
    pub fn number(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    pub fn quote(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write"),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("unknown literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    members.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Object(members));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Number)
                    .ok_or_else(|| format!("malformed number at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let escaped = *self.bytes.get(self.pos + 1).ok_or("unterminated escape")?;
                    self.pos += 2;
                    match escaped {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("malformed \\u escape")?;
                            self.pos += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                Some(b) => {
                    out.push(*b);
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(defs: &[MetricDef]) -> RunResult {
        let values: Vec<(&str, f64)> = defs
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name, 0.1 + i as f64 * 1.000_000_1))
            .collect();
        RunResult::from_values(defs, &values, true, 1_234, 0)
    }

    #[test]
    fn emitted_json_parses_back_with_every_declared_metric() {
        for defs in [&END_TO_END[..], &PER_LAYER[..]] {
            let result = sample(defs);
            let line = result.to_json();
            assert!(!line.contains('\n'), "the result is one line");
            let parsed = RunResult::from_json(&line).expect("own output parses");
            assert_eq!(parsed, result, "values keep all their digits");
            for d in defs {
                assert!(parsed.value(d.name).is_some(), "{} missing", d.name);
            }
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(d.name), "bad name {}", d.name);
            assert!(ok_unit(d.unit), "bad unit {}", d.unit);
            assert!(seen.insert(d.name), "{} declared twice", d.name);
        }
        for w in WORKLOADS {
            assert!(ok_name(w) && seen.insert(w));
        }
    }

    /// A span the replays open under a layer `trace.share.*` does not list
    /// would be measured and then dropped from the result.
    #[test]
    fn every_span_layer_has_a_share_metric() {
        for span in [
            "serve.protocol.request_encode",
            "serve.admission.admit",
            "core.shared.snapshot",
            "core.cache.peek",
            "core.batch.run",
            "core.scan.columnar_scan",
            "codec.video.decode",
            "core.etl.pipeline_run",
        ] {
            let s = crate::trace::Span {
                name: span,
                start_ns: 0,
                end_ns: 1,
                parent: None,
                op_id: 0,
            };
            let name = format!("trace.share.{}", s.layer());
            assert!(PER_LAYER.iter().any(|d| d.name == name), "{name} missing");
        }
    }

    /// `BENCHMARK.json` is the contract other tools read; this catalogue is
    /// what the program emits. They must say the same thing.
    #[test]
    fn benchmark_json_declares_exactly_this_catalogue() {
        let declared =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<Json> {
            declared
                .get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no '{key}' list"))
                .to_vec()
        };
        let workloads: Vec<String> = names("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = names(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, d) in listed.iter().zip(defs) {
                let field = |f: &str| entry.get(f).and_then(Json::as_str).unwrap().to_string();
                assert_eq!(field("name"), d.name);
                assert_eq!(field("unit"), d.unit, "{}", d.name);
                assert_eq!(field("better"), d.better.as_str(), "{}", d.name);
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    d.bound,
                    "{}",
                    d.name
                );
            }
        }
    }

    #[test]
    fn parser_rejects_what_is_not_json() {
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert_eq!(
            Json::parse(" {\"a\": [1.5e3, true, null, \"x\\\"y\"]} ").unwrap(),
            Json::Object(vec![(
                "a".into(),
                Json::Array(vec![
                    Json::Number(1500.0),
                    Json::Bool(true),
                    Json::Null,
                    Json::String("x\"y".into())
                ])
            )])
        );
    }
}
