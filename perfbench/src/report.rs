//! What a run reports: the metric tables, the human-readable summary,
//! the stored run record, and the final JSON line.

use crate::host::HostFacts;
use crate::stats::{median, relative_iqr, Tail};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics (untraced run), name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("gcups", "GCUPS"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run), name and unit. Every traced run
/// reports all of them; a layer the workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("db.load_s", "s"),
    ("planner.plan_s", "s"),
    ("planner.padding_frac", "frac"),
    ("planner.lane_groups", "count"),
    ("kernels.packed_linear_gcups", "GCUPS"),
    ("kernels.packed_affine_gcups", "GCUPS"),
    ("kernels.striped_affine_gcups", "GCUPS"),
    ("kernels.profile_build_frac", "frac"),
    ("kernels.band_gcups", "GCUPS"),
    ("core.scalar_gcups", "GCUPS"),
    ("scheduler.jobs", "count"),
    ("scheduler.busy_frac", "frac"),
    ("scheduler.merge_s", "s"),
    ("scheduler.speedup_2w", "x"),
    ("index.build_s", "s"),
    ("index.bound_s", "s"),
    ("prefilter.pruned_frac", "frac"),
    ("prefilter.dp_launches", "count"),
    ("prefilter.dp_s", "s"),
    ("prefilter.unfiltered_gcups", "GCUPS"),
    ("proto.encode_us", "us"),
    ("proto.decode_us", "us"),
    ("proto.wire_bytes_per_req", "bytes"),
    ("proto.hex_expansion", "x"),
    ("cache.hit_frac", "frac"),
    ("cache.evicted", "count"),
    ("cache.stale_purged", "count"),
    ("cache.get_us", "us"),
    ("cache.insert_us", "us"),
    ("admission.high_water", "count"),
    ("admission.rejected", "count"),
    ("epoch.reload_ms", "ms"),
    ("serve.engine_ms", "ms"),
    ("serve.first_answer_ms", "ms"),
    ("strategies.heuristic_s", "s"),
    ("strategies.blocked_s", "s"),
    ("strategies.preprocess_s", "s"),
    ("strategies.phase2_s", "s"),
    ("dsm.msgs_sent", "count"),
    ("dsm.bytes_sent", "bytes"),
    ("dsm.page_fetches", "count"),
    ("dsm.diffs_sent", "count"),
    ("dsm.invalidations", "count"),
    ("dsm.era_lock_cv_s", "s"),
    ("dsm.era_barrier_s", "s"),
    ("dsm.era_comm_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.uncovered_frac", "frac"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is in no table"))
}

/// One per-layer value with how it varied across the operations it was
/// measured on: a count that repeats exactly is marked `exact`; anything
/// else carries its relative interquartile spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerValue {
    pub value: f64,
    pub exact: bool,
    pub spread: f64,
    pub samples: usize,
}

impl LayerValue {
    /// The median of per-operation samples.
    pub fn of(samples: &[f64]) -> Self {
        let exact = samples.windows(2).all(|w| w[0] == w[1]);
        Self {
            value: median(samples),
            exact,
            spread: if exact { 0.0 } else { relative_iqr(samples) },
            samples: samples.len(),
        }
    }

    /// A single derived figure (a ratio over the whole run).
    pub fn single(value: f64) -> Self {
        Self::of(&[value])
    }
}

/// Everything a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness gates and whether each held.
    pub checks: Vec<(String, bool)>,
    /// End-to-end values by name (untraced run).
    pub e2e: BTreeMap<&'static str, f64>,
    /// The latency tail behind `latency_p99_ms`.
    pub tail: Option<Tail>,
    /// Minimum, quartiles and maximum of the operation latencies (ms).
    pub latency_spread: Option<[f64; 5]>,
    /// Per-layer values by name (traced run).
    pub layers: BTreeMap<&'static str, LayerValue>,
    /// Per layer: (spans, summed duration s, summed self time s).
    pub self_times: BTreeMap<&'static str, (usize, f64, f64)>,
    /// Workload facts: input sizes, configuration.
    pub facts: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn fact(&mut self, name: &'static str, value: impl ToString) {
        self.facts.push((name, value.to_string()));
    }

    pub fn layer(&mut self, name: &'static str, value: LayerValue) {
        unit_of(name);
        self.layers.insert(name, value);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.1)
    }

    /// The metric set the mode reports: every end-to-end metric, or every
    /// per-layer metric (bypassed layers read 0).
    fn metrics(&self, traced: bool) -> Vec<(&'static str, f64)> {
        if traced {
            PER_LAYER
                .iter()
                .map(|&(n, _)| (n, self.layers.get(n).map_or(0.0, |v| v.value)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, _)| {
                    let v = self.e2e.get(n).copied();
                    (
                        n,
                        v.unwrap_or_else(|| panic!("end-to-end metric {n} not measured")),
                    )
                })
                .collect()
        }
    }

    /// Human-readable summary lines (each starts with `#`).
    pub fn summary(&self, workload: &str, traced: bool, host: &HostFacts) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# workload {workload} ({})", mode(traced));
        let host_line: Vec<String> = host
            .pairs()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let _ = writeln!(out, "# host: {}", host_line.join(" "));
        let facts: Vec<String> = self.facts.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(out, "# inputs: {}", facts.join(" "));
        for (name, ok) in &self.checks {
            let _ = writeln!(out, "# check {}: {name}", if *ok { "ok" } else { "FAILED" });
        }
        let _ = writeln!(
            out,
            "# operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        if let Some(t) = self.tail {
            let _ = writeln!(
                out,
                "# latency_p99_ms is the p{} of {} samples (highest percentile with >= 10 beyond)",
                t.percentile, t.samples
            );
        }
        if traced {
            let _ = writeln!(out, "# layer self time (s): spans, summed duration, self");
            for (layer, (n, dur, own)) in &self.self_times {
                let _ = writeln!(out, "#   {layer:<12} {n:>8} {dur:>12.6} {own:>12.6}");
            }
        }
        for (name, value) in self.metrics(traced) {
            let detail = match self.layers.get(name) {
                Some(v) if traced && v.samples == 1 => " (one figure per run)".to_string(),
                Some(v) if traced && v.exact => format!(" (exact over {})", v.samples),
                Some(v) if traced => format!(" (IQR {:.1}% over {})", 100.0 * v.spread, v.samples),
                _ if traced => " (layer bypassed)".to_string(),
                _ => String::new(),
            };
            let _ = writeln!(out, "# {name} = {value} {}{detail}", unit_of(name));
        }
        out
    }

    /// The contract's last stdout line.
    pub fn json_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .metrics(traced)
            .into_iter()
            .map(|(n, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    q(n),
                    num(v),
                    q(unit_of(n))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The stored run record: the result line plus host facts, inputs,
    /// checks and layer self times.
    pub fn record(&self, workload: &str, seed: u64, traced: bool, host: &HostFacts) -> String {
        let obj = |pairs: &[(&str, String)]| -> String {
            let items: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{}: {}", q(k), v))
                .collect();
            format!("{{{}}}", items.join(", "))
        };
        let host_pairs: Vec<(&str, String)> =
            host.pairs().into_iter().map(|(k, v)| (k, q(&v))).collect();
        let facts: Vec<(&str, String)> = self.facts.iter().map(|(k, v)| (*k, q(v))).collect();
        let checks: Vec<(&str, String)> = self
            .checks
            .iter()
            .map(|(k, ok)| (k.as_str(), ok.to_string()))
            .collect();
        let selfs: Vec<(&str, String)> = self
            .self_times
            .iter()
            .map(|(k, (n, d, s))| (*k, format!("[{n}, {}, {}]", num(*d), num(*s))))
            .collect();
        let mut top = vec![
            ("workload", q(workload)),
            ("seed", seed.to_string()),
            ("mode", q(mode(traced))),
            ("host", obj(&host_pairs)),
            ("inputs", obj(&facts)),
            ("checks", obj(&checks)),
            ("result", self.json_line(traced)),
        ];
        if let Some(t) = self.tail {
            top.push((
                "latency_tail",
                format!(
                    "{{\"percentile\": {}, \"samples\": {}}}",
                    t.percentile, t.samples
                ),
            ));
        }
        if let Some([min, q1, med, q3, max]) = self.latency_spread {
            top.push((
                "latency_ms",
                format!(
                    "{{\"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}}}",
                    num(min),
                    num(q1),
                    num(med),
                    num(q3),
                    num(max)
                ),
            ));
        }
        if traced {
            top.push(("layer_self_s", obj(&selfs)));
        }
        obj(&top)
    }
}

fn mode(traced: bool) -> &'static str {
    if traced {
        "traced"
    } else {
        "untraced"
    }
}

fn q(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number with every digit Rust's shortest round-trip form keeps.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v:?}")
}

/// Writes the run record under `dir`, named by workload, seed and mode.
pub fn store(
    dir: &Path,
    workload: &str,
    seed: u64,
    traced: bool,
    record: &str,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{workload}-seed{seed}-{}.json", mode(traced)));
    std::fs::write(path, format!("{record}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(text: &str) -> Vec<String> {
        text.match_indices("\"name\": \"")
            .map(|(i, m)| {
                let rest = &text[i + m.len()..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    /// BENCHMARK.json and the catalog describe exactly the metrics this
    /// binary emits, with the same units.
    #[test]
    fn benchmark_json_and_catalog_match_the_metric_tables() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let bench =
            std::fs::read_to_string(root.join("../BENCHMARK.json")).expect("BENCHMARK.json");
        let catalog = std::fs::read_to_string(root.join("catalog.json")).expect("catalog.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(bench.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let expected: Vec<String> = crate::WORKLOADS
            .iter()
            .chain(END_TO_END.iter().map(|m| &m.0))
            .chain(PER_LAYER.iter().map(|m| &m.0))
            .map(|s| s.to_string())
            .collect();
        let mut want = expected.clone();
        want.sort();
        for text in [&bench, &catalog] {
            let mut got = names_in(text);
            got.sort();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn json_line_has_the_contract_shape() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (n, _) in END_TO_END {
            o.e2e.insert(n, 1.5);
        }
        let line = o.json_line(false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"latency_p99_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        let traced = o.json_line(true);
        assert!(traced.contains("\"dsm.era_comm_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert_eq!(q("a\"b"), "\"a\\\"b\"");
    }

    #[test]
    fn layer_values_mark_exact_counts() {
        let v = LayerValue::of(&[4.0, 4.0, 4.0]);
        assert!(v.exact && v.value == 4.0 && v.spread == 0.0);
        let w = LayerValue::of(&[1.0, 2.0, 3.0, 4.0]);
        assert!(!w.exact && w.value == 2.5 && w.spread > 0.0);
    }
}
