//! Metric tables, order statistics, and the per-layer numbers derived
//! from one traced repetition.
//!
//! The two tables below are the benchmark's metric contract: the
//! untraced run prints every [`END_TO_END`] metric and the traced run
//! every [`PER_LAYER`] metric, and a test checks both tables against
//! `BENCHMARK.json`.

use std::collections::{BTreeMap, HashSet};

use crate::trace::Span;

/// `(name, unit)` of every end-to-end metric (untraced run).
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("shots_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric (traced run).
pub const PER_LAYER: [(&str, &str); 37] = [
    ("surface.circuit_build_s", "s"),
    ("circuit.noise_window_s", "s"),
    ("decoder.graph_build_s", "s"),
    ("decoder.graph_edges", "count"),
    ("decoder.build_s", "s"),
    ("qec.prepare_s", "s"),
    ("qec.prepare_p50_s", "s"),
    ("qec.prepare_tail_s", "s"),
    ("qec.prepare_points", "count"),
    ("qec.prepares_per_topology", "ratio"),
    ("decoder.mwpm_decode_s", "s"),
    ("decoder.mwpm_batch_p50_s", "s"),
    ("decoder.mwpm_batch_tail_s", "s"),
    ("decoder.mwpm_batches", "count"),
    ("decoder.uf_decode_s", "s"),
    ("circuit.sample_s", "s"),
    ("circuit.extract_s", "s"),
    ("decoder.defects_per_lane", "count"),
    ("qec.batches", "count"),
    ("vlq.compile_s", "s"),
    ("vlq.frame_prepare_s", "s"),
    ("vlq.frame_replay_s", "s"),
    ("vlq.block_exposures", "count"),
    ("vlq.replay_us_per_exposure", "us"),
    ("tenancy.schedule_s", "s"),
    ("sweep.worker_busy_s", "s"),
    ("sweep.idle_s", "s"),
    ("sweep.parallel_efficiency", "frac"),
    ("sweep.chunks", "count"),
    ("sweep.sink_s", "s"),
    ("sweep.artifact_bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage_frac", "frac"),
    ("trace.prepare_share", "frac"),
    ("trace.decode_share", "frac"),
    ("trace.replay_share", "frac"),
];

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest nearest-rank percentile with at least ten samples above
/// it, as `(percentile, value)`; the maximum (percentile 100) when there
/// are fewer than eleven samples, and `(0, 0)` when there are none.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0),
        n if n < 11 => (100.0, v[n - 1]),
        n => (100.0 * (n - 10) as f64 / n as f64, v[n - 11]),
    }
}

/// Everything one traced repetition measured.
#[derive(Clone, Debug, Default)]
pub struct LayerSample {
    pub spans: Vec<Span>,
    pub lanes: u64,
    pub defects: u64,
    pub graph_edges: u64,
    pub block_exposures: u64,
    /// Seconds inside `SweepEngine::run_opts`, summed over grids.
    pub engine_wall_s: f64,
    pub workers: usize,
    /// Distinct (setup, d, k, basis, boundary, rounds, program) tuples.
    pub topologies: usize,
    pub artifact_bytes: u64,
    /// The traced repetition's `wall_s`.
    pub wall_s: f64,
}

impl LayerSample {
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    fn total(&self, name: &str) -> f64 {
        // A fold from +0.0: an empty f64 `sum()` is -0.0.
        self.durations(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Worker-busy seconds: time inside the executor's `prepare` and
    /// `run_chunk` calls.
    fn busy(&self) -> f64 {
        self.total("executor.prepare") + self.total("executor.chunk")
    }

    /// Seconds of worker-busy time covered by named layer spans (the
    /// direct children of the executor spans).
    fn covered(&self) -> f64 {
        let roots: HashSet<u64> = self
            .spans
            .iter()
            .filter(|s| s.name.starts_with("executor."))
            .map(|s| s.id)
            .collect();
        self.spans
            .iter()
            .filter(|s| roots.contains(&s.parent))
            .map(Span::seconds)
            .sum()
    }

    /// Every per-layer metric except `trace.overhead_frac`, which needs
    /// the untraced runs too.
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let busy = self.busy();
        let prepares = self.durations("executor.prepare");
        let mwpm = self.durations("decoder.mwpm_decode");
        let decode = self.total("decoder.mwpm_decode") + self.total("decoder.uf_decode");
        let replay = self.total("vlq.frame_replay");
        let capacity = self.workers as f64 * self.engine_wall_s;
        let values = [
            (
                "surface.circuit_build_s",
                self.total("surface.circuit_build"),
            ),
            ("circuit.noise_window_s", self.total("circuit.noise_window")),
            ("decoder.graph_build_s", self.total("decoder.graph_build")),
            ("decoder.graph_edges", self.graph_edges as f64),
            ("decoder.build_s", self.total("decoder.build")),
            ("qec.prepare_s", self.total("executor.prepare")),
            ("qec.prepare_p50_s", median(&prepares)),
            ("qec.prepare_tail_s", tail(&prepares).1),
            ("qec.prepare_points", prepares.len() as f64),
            (
                "qec.prepares_per_topology",
                ratio(prepares.len() as f64, self.topologies as f64),
            ),
            ("decoder.mwpm_decode_s", self.total("decoder.mwpm_decode")),
            ("decoder.mwpm_batch_p50_s", median(&mwpm)),
            ("decoder.mwpm_batch_tail_s", tail(&mwpm).1),
            ("decoder.mwpm_batches", mwpm.len() as f64),
            ("decoder.uf_decode_s", self.total("decoder.uf_decode")),
            ("circuit.sample_s", self.total("circuit.sample")),
            ("circuit.extract_s", self.total("circuit.extract")),
            (
                "decoder.defects_per_lane",
                ratio(self.defects as f64, self.lanes as f64),
            ),
            ("qec.batches", self.durations("circuit.sample").len() as f64),
            ("vlq.compile_s", self.total("vlq.compile")),
            ("vlq.frame_prepare_s", self.total("vlq.frame_prepare")),
            ("vlq.frame_replay_s", replay),
            ("vlq.block_exposures", self.block_exposures as f64),
            (
                "vlq.replay_us_per_exposure",
                ratio(replay * 1e6, self.block_exposures as f64),
            ),
            ("tenancy.schedule_s", self.total("tenancy.schedule")),
            ("sweep.worker_busy_s", busy),
            ("sweep.idle_s", capacity - busy),
            ("sweep.parallel_efficiency", ratio(busy, capacity)),
            (
                "sweep.chunks",
                self.durations("executor.chunk").len() as f64,
            ),
            ("sweep.sink_s", self.total("sweep.sink")),
            ("sweep.artifact_bytes", self.artifact_bytes as f64),
            ("trace.wall_s", self.wall_s),
            ("trace.coverage_frac", ratio(self.covered(), busy)),
            (
                "trace.prepare_share",
                ratio(self.total("executor.prepare"), busy),
            ),
            ("trace.decode_share", ratio(decode, busy)),
            ("trace.replay_share", ratio(replay, busy)),
        ];
        values.into_iter().collect()
    }

    /// Human-readable lines on the tails: which percentile each tail
    /// metric is, over how many samples.
    pub fn tail_notes(&self) -> Vec<String> {
        [
            ("qec.prepare_tail_s", "executor.prepare", "points"),
            (
                "decoder.mwpm_batch_tail_s",
                "decoder.mwpm_decode",
                "batches",
            ),
        ]
        .into_iter()
        .map(|(metric, span, what)| {
            let d = self.durations(span);
            let (pct, value) = tail(&d);
            format!(
                "tail {metric} = p{pct:.1} over {} {what}: {value:.6} s",
                d.len()
            )
        })
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        assert_eq!(tail(&v[..11]), (100.0 * 1.0 / 11.0, 1.0));
        assert_eq!(tail(&v[..5]), (100.0, 5.0));
        assert_eq!(tail(&[]), (0.0, 0.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn every_per_layer_metric_is_computed() {
        let computed = LayerSample::default().metrics();
        for (name, _) in PER_LAYER {
            assert!(
                name == "trace.overhead_frac" || computed.contains_key(name),
                "{name} is never computed"
            );
        }
        assert_eq!(computed.len(), PER_LAYER.len() - 1);
    }

    /// Every metric in `BENCHMARK.json` is one the runner prints, with
    /// the same unit, under a valid name, and the runner prints no
    /// metric the file does not declare.
    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (section, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String)> = doc
                .get(section)
                .and_then(json::Value::as_array)
                .unwrap_or_else(|| panic!("{section} is an array"))
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(json::Value::as_str)
                            .unwrap_or_else(|| panic!("{section} entry lacks {k}"))
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let printed: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(
                declared, printed,
                "{section} differs from the runner's table"
            );
            for (name, unit) in &declared {
                let first = name.chars().next().expect("non-empty name");
                assert!(first.is_ascii_alphanumeric(), "{name}");
                assert!(name.len() <= 64, "{name}");
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{name}"
                );
                assert!(unit.len() <= 16, "{unit}");
                assert!(
                    unit.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                    "{unit}"
                );
            }
        }
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let unique: HashSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "metric names are unique");
    }

    /// Just enough JSON to read `BENCHMARK.json` in the test above.
    mod json {
        use std::collections::BTreeMap;

        #[derive(Debug)]
        pub enum Value {
            Object(BTreeMap<String, Value>),
            Array(Vec<Value>),
            Str(String),
            Other,
        }

        impl Value {
            pub fn get(&self, key: &str) -> Option<&Value> {
                match self {
                    Value::Object(m) => m.get(key),
                    _ => None,
                }
            }
            pub fn as_array(&self) -> Option<&Vec<Value>> {
                match self {
                    Value::Array(v) => Some(v),
                    _ => None,
                }
            }
            pub fn as_str(&self) -> Option<&str> {
                match self {
                    Value::Str(s) => Some(s),
                    _ => None,
                }
            }
        }

        pub fn parse(text: &str) -> Option<Value> {
            let mut p = Parser {
                s: text.as_bytes(),
                i: 0,
            };
            let v = p.value()?;
            p.ws();
            (p.i == p.s.len()).then_some(v)
        }

        struct Parser<'a> {
            s: &'a [u8],
            i: usize,
        }

        impl Parser<'_> {
            fn ws(&mut self) {
                while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
                    self.i += 1;
                }
            }

            fn eat(&mut self, c: u8) -> bool {
                self.ws();
                let hit = self.s.get(self.i) == Some(&c);
                self.i += usize::from(hit);
                hit
            }

            fn string(&mut self) -> Option<String> {
                if !self.eat(b'"') {
                    return None;
                }
                let start = self.i;
                while *self.s.get(self.i)? != b'"' {
                    // The file needs no escapes; refuse them.
                    if self.s[self.i] == b'\\' {
                        return None;
                    }
                    self.i += 1;
                }
                self.i += 1;
                String::from_utf8(self.s[start..self.i - 1].to_vec()).ok()
            }

            fn value(&mut self) -> Option<Value> {
                self.ws();
                match *self.s.get(self.i)? {
                    b'{' => {
                        self.i += 1;
                        let mut m = BTreeMap::new();
                        if self.eat(b'}') {
                            return Some(Value::Object(m));
                        }
                        loop {
                            let k = self.string()?;
                            if !self.eat(b':') {
                                return None;
                            }
                            m.insert(k, self.value()?);
                            if self.eat(b'}') {
                                return Some(Value::Object(m));
                            }
                            if !self.eat(b',') {
                                return None;
                            }
                        }
                    }
                    b'[' => {
                        self.i += 1;
                        let mut v = Vec::new();
                        if self.eat(b']') {
                            return Some(Value::Array(v));
                        }
                        loop {
                            v.push(self.value()?);
                            if self.eat(b']') {
                                return Some(Value::Array(v));
                            }
                            if !self.eat(b',') {
                                return None;
                            }
                        }
                    }
                    b'"' => self.string().map(Value::Str),
                    _ => {
                        let start = self.i;
                        while self
                            .s
                            .get(self.i)
                            .is_some_and(|c| c.is_ascii_alphanumeric() || b"+-.".contains(c))
                        {
                            self.i += 1;
                        }
                        (self.i > start).then_some(Value::Other)
                    }
                }
            }
        }
    }
}
