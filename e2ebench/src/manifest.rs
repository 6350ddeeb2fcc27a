//! The benchmark's definition — workloads, metrics, units, directions
//! and regression bounds — and its rendering as `BENCHMARK.json`.
//!
//! The committed `BENCHMARK.json` at the repository root is generated
//! from this module (`e2ebench --write-manifest BENCHMARK.json`), and a
//! test checks that the file still equals the rendering, so the names
//! the benchmark prints and the names the manifest declares cannot
//! drift apart.

use std::fmt::Write as _;

/// Seconds one run measures (passed to each run as `--seconds`).
pub const RUN_SECONDS: u64 = 25;

/// The command that runs the benchmark from the repository root.
pub const COMMAND: [&str; 2] = ["bash", "e2ebench/run.sh"];

/// The directories holding the benchmark.
pub const PATHS: [&str; 1] = ["e2ebench"];

/// A named workload and why it is in the benchmark.
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// One line: what it stresses.
    pub why: &'static str,
}

/// The workloads, in the order they are documented.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sweep_dynamics",
        why: "side 256, w=8 paper sweep in-process on 2 threads: flip dynamics are ~97% of \
              replica time, so kernel work shows here",
    },
    Workload {
        name: "sweep_small_journaled",
        why: "many small 64-side replicas of 3 variants with journal and stream: setup, \
              observers, encoding and I/O dominate",
    },
    Workload {
        name: "serve_mixed",
        why: "in-process HTTP server, 2 closed-loop clients mixing fresh jobs, cache-hit \
              resubmits and row re-streams",
    },
    Workload {
        name: "shard_local",
        why: "segsim shard with 2 worker processes: the only path through seg_shard \
              partitioning and the journal merge",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    /// Larger is better (rates, hit ratios).
    Higher,
    /// Smaller is better (times, memory, bytes).
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric the benchmark reports.
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change is a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
/// The bounds are set against the run-to-run spread of the same code on
/// a shared 2-vCPU host, whose speed drifts by a fifth within minutes:
/// every timed figure gets the widest bound the format allows, memory
/// (which does not drift) a tighter one.
pub const END_TO_END: [Metric; 9] = [
    e2e("replicas_per_s", "1/s", Higher, 0.25),
    e2e("jobs_per_s", "1/s", Higher, 0.25),
    e2e("time_to_last_row_p50_ms", "ms", Lower, 0.25),
    e2e("time_to_last_row_p90_ms", "ms", Lower, 0.25),
    e2e("cache_hit_p50_ms", "ms", Lower, 0.25),
    e2e("cache_hit_p90_ms", "ms", Lower, 0.25),
    e2e("restream_rows_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A
/// layer the workload does not run reads 0.
pub const PER_LAYER: [Metric; 33] = [
    layer("grid.field_sample_s", "s", Lower),
    layer("core.build_s", "s", Lower),
    layer("core.dynamics_s", "s", Lower),
    layer("core.flips", "count", Lower),
    layer("core.flips_per_s", "1/s", Higher),
    layer("core.dynamics_share", "ratio", Lower),
    layer("observe.terminal_stats_s", "s", Lower),
    layer("checkpoint.encode_s", "s", Lower),
    layer("checkpoint.append_s", "s", Lower),
    layer("checkpoint.bytes", "B", Lower),
    layer("sink.append_s", "s", Lower),
    layer("sink.bytes", "B", Lower),
    layer("engine.pool_busy_ratio", "ratio", Higher),
    layer("engine.replica_p50_ms", "ms", Lower),
    layer("engine.replica_p90_ms", "ms", Lower),
    layer("serve.submit_p50_ms", "ms", Lower),
    layer("serve.first_row_p50_ms", "ms", Lower),
    layer("serve.overhead_p50_ms", "ms", Lower),
    layer("serve.restream_p50_ms", "ms", Lower),
    layer("serve.bytes_streamed", "B", Lower),
    layer("serve.cache_hit_ratio", "ratio", Higher),
    layer("serve.rejected", "count", Lower),
    layer("serve.http_errors", "count", Lower),
    layer("shard.worker_max_s", "s", Lower),
    layer("shard.worker_min_s", "s", Lower),
    layer("shard.merge_s", "s", Lower),
    layer("shard.coordination_s", "s", Lower),
    layer("shard.journal_bytes", "B", Lower),
    layer("trace.unattributed_ratio", "ratio", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.wall_s", "s", Lower),
    layer("trace.traced_replica_s", "s", Lower),
    layer("trace.untraced_replica_s", "s", Lower),
];

fn quoted(s: &str) -> String {
    seg_serve::json::escape_str(s)
}

fn metric_lines(metrics: &[Metric]) -> String {
    let lines: Vec<String> = metrics
        .iter()
        .map(|m| {
            let mut line = format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.as_str())
            );
            if let Some(b) = m.bound {
                let _ = write!(line, ", \"bound\": {b}");
            }
            line.push('}');
            line
        })
        .collect();
    lines.join(",\n")
}

/// The `BENCHMARK.json` text for this definition.
pub fn render() -> String {
    let list = |xs: &[&str]| xs.iter().map(|s| quoted(s)).collect::<Vec<_>>().join(", ");
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(w.why)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(&COMMAND),
        list(&PATHS),
        workloads.join(",\n"),
        metric_lines(&END_TO_END),
        metric_lines(&PER_LAYER),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_serve::Json;

    fn committed() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn committed_manifest_equals_the_rendering() {
        assert_eq!(
            committed(),
            render(),
            "BENCHMARK.json is stale: regenerate it with `e2ebench --write-manifest BENCHMARK.json`"
        );
    }

    #[test]
    fn rendering_round_trips_through_a_json_parser() {
        let json = Json::parse(&render()).expect("valid JSON");
        let strs = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|v| v.as_str().expect("string").to_string())
                .collect()
        };
        assert_eq!(strs("command"), COMMAND);
        assert_eq!(strs("paths"), PATHS);
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_u64),
            Some(RUN_SECONDS)
        );
        let workloads = json.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (parsed, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(parsed.get("name").and_then(Json::as_str), Some(w.name));
            assert_eq!(parsed.get("why").and_then(Json::as_str), Some(w.why));
        }
        for (key, metrics) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let parsed = json.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(parsed.len(), metrics.len(), "{key}");
            for (p, m) in parsed.iter().zip(metrics) {
                assert_eq!(p.get("name").and_then(Json::as_str), Some(m.name));
                assert_eq!(p.get("unit").and_then(Json::as_str), Some(m.unit));
                assert_eq!(
                    p.get("better").and_then(Json::as_str),
                    Some(m.better.as_str())
                );
                assert_eq!(p.get("bound").and_then(Json::as_f64), m.bound);
                let keys = match p {
                    Json::Obj(pairs) => pairs.len(),
                    _ => panic!("metric is not an object"),
                };
                assert_eq!(keys, if m.bound.is_some() { 4 } else { 3 });
            }
        }
    }

    #[test]
    fn manifest_stays_inside_the_contract() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "names must be used once");
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(render().len() <= 64 * 1024);
    }
}
