//! Operation accounting, end-to-end samples and the printed result.

use crate::manifest::{END_TO_END, PER_LAYER};
use crate::stats::{median, tail, Tail};
use seg_serve::json::{escape_str, format_f64};

/// Operations attempted and failed. Operations are replicas, HTTP
/// requests and output checks; a refused request counts as failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Why each failure failed (the first few are printed).
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts `n` operations, of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Counts one check; `why` explains a failure.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
        ok
    }

    /// Counts one operation that failed with `why`.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(why);
    }

    /// Folds another tally (from a client thread) into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// The raw samples the end-to-end metrics are medians and tails of.
/// Every workload runs the same closed-loop cycle through its own entry
/// point: one fresh job followed to its last row, cache-answered
/// resubmits of finished jobs, and full re-streams of finished rows.
#[derive(Debug, Default)]
pub struct Samples {
    /// Seconds until the workload could run its first replica.
    pub setup_s: Vec<f64>,
    /// Per fresh job: seconds from submit to its last row.
    pub ttlr_s: Vec<f64>,
    /// Per fresh job: replicas over its time to last row.
    pub replicas_per_s: Vec<f64>,
    /// Per cycle: clients over the cycle's wall time.
    pub jobs_per_s: Vec<f64>,
    /// Per resubmit of a finished job: seconds to the cached answer.
    pub cache_hit_s: Vec<f64>,
    /// Per re-stream of a finished job: rows over seconds.
    pub restream_rows_per_s: Vec<f64>,
}

impl Samples {
    /// Appends another client's samples.
    pub fn absorb(&mut self, other: Samples) {
        self.setup_s.extend(other.setup_s);
        self.ttlr_s.extend(other.ttlr_s);
        self.replicas_per_s.extend(other.replicas_per_s);
        self.jobs_per_s.extend(other.jobs_per_s);
        self.cache_hit_s.extend(other.cache_hit_s);
        self.restream_rows_per_s.extend(other.restream_rows_per_s);
    }
}

/// A metric value as printed.
#[derive(Clone, Debug)]
pub struct Value {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// How it was taken (sample count, percentile), for the report.
    pub basis: String,
}

fn med(name: &'static str, xs: &[f64], scale: f64, tally: &mut Tally) -> Value {
    match median(xs) {
        Some(v) => Value {
            name,
            value: v * scale,
            basis: format!("p50 of n={}", xs.len()),
        },
        None => {
            tally.fail(format!("{name}: no samples"));
            Value {
                name,
                value: f64::NAN,
                basis: "n=0".into(),
            }
        }
    }
}

fn tail90(name: &'static str, xs: &[f64], scale: f64, tally: &mut Tally) -> Value {
    match tail(xs, 0.9) {
        Some(Tail { q, value, n }) => Value {
            name,
            value: value * scale,
            basis: format!("p{:.0} of n={n} (>= 10 beyond)", q * 100.0),
        },
        // under 20 samples no rank from the median up has ten beyond
        // it: the median stands in, and the basis says so
        None => Value {
            basis: format!("no tail with n={} < 20, p50 reported", xs.len()),
            ..med(name, xs, scale, tally)
        },
    }
}

/// The end-to-end metrics of a run, in manifest order.
pub fn end_to_end(s: &Samples, peak_rss_mb: f64, tally: &mut Tally) -> Vec<Value> {
    let values = vec![
        med("replicas_per_s", &s.replicas_per_s, 1.0, tally),
        med("jobs_per_s", &s.jobs_per_s, 1.0, tally),
        med("time_to_last_row_p50_ms", &s.ttlr_s, 1e3, tally),
        tail90("time_to_last_row_p90_ms", &s.ttlr_s, 1e3, tally),
        med("cache_hit_p50_ms", &s.cache_hit_s, 1e3, tally),
        tail90("cache_hit_p90_ms", &s.cache_hit_s, 1e3, tally),
        med("restream_rows_per_s", &s.restream_rows_per_s, 1.0, tally),
        Value {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            basis: "ru_maxrss".into(),
        },
        med("setup_s", &s.setup_s, 1.0, tally),
    ];
    debug_assert!(values
        .iter()
        .map(|v| v.name)
        .eq(END_TO_END.iter().map(|m| m.name)));
    values
}

/// Per-layer values of a traced run, keyed by manifest name; layers the
/// workload does not run are filled with 0 in manifest order.
#[derive(Debug, Default)]
pub struct Layers {
    values: Vec<(&'static str, f64)>,
    bases: Vec<(&'static str, String)>,
}

impl Layers {
    /// Sets one per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name the manifest does not declare (a bug here).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "undeclared per-layer metric {name}"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Records what a ratio was divided by, for the report.
    pub fn describe(&mut self, name: &'static str, basis: String) {
        self.bases.retain(|(n, _)| *n != name);
        self.bases.push((name, basis));
    }

    /// Every per-layer metric in manifest order.
    pub fn in_manifest_order(&self) -> Vec<Value> {
        PER_LAYER
            .iter()
            .map(|m| {
                let found = self.values.iter().find(|(n, _)| *n == m.name);
                let basis = self.bases.iter().find(|(n, _)| *n == m.name);
                Value {
                    name: m.name,
                    value: found.map_or(0.0, |(_, v)| *v),
                    basis: match (found, basis) {
                        (None, _) => "layer not run by this workload".into(),
                        (Some(_), Some((_, b))) => b.clone(),
                        (Some(_), None) => "measured".into(),
                    },
                }
            })
            .collect()
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// The result line: one JSON object with exactly `correct`,
/// `attempted` (at least 1), `failed` and `metrics`, each metric with
/// its `value` (all digits; `null` when unmeasured) and `unit`.
pub fn result_line(values: &[Value], tally: &Tally) -> String {
    let correct = tally.failed == 0 && values.iter().all(|v| v.value.is_finite());
    let metrics: Vec<String> = values
        .iter()
        .map(|v| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                escape_str(v.name),
                format_f64(v.value),
                escape_str(unit_of(v.name))
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.join(",")
    )
}

/// Prints the human-readable table, the report line and, last, the
/// result line.
pub fn print(header: &[(&str, String)], values: &[Value], tally: &Tally) {
    for v in values {
        println!(
            "{:<28} {:>16} {:<6} {}",
            v.name,
            format!("{:.6}", v.value),
            unit_of(v.name),
            v.basis
        );
    }
    println!(
        "{:<28} {:>16} {:<6} failed {} of {} operations",
        "error_rate",
        format!(
            "{:.6}",
            crate::stats::error_rate(tally.failed, tally.attempted)
        ),
        "ratio",
        tally.failed,
        tally.attempted
    );
    for why in tally.failures.iter().take(10) {
        println!("FAILED: {why}");
    }
    let mut report: Vec<String> = header
        .iter()
        .map(|(k, v)| format!("{}:{}", escape_str(k), escape_str(v)))
        .collect();
    let bases: Vec<String> = values
        .iter()
        .map(|v| format!("{}:{}", escape_str(v.name), escape_str(&v.basis)))
        .collect();
    report.push(format!("\"basis\":{{{}}}", bases.join(",")));
    println!("{{\"report\":{{{}}}}}", report.join(","));
    println!("{}", result_line(values, tally));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_follows_the_manifest_and_scales_to_ms() {
        let mut s = Samples::default();
        for i in 1..=20 {
            let x = f64::from(i);
            s.setup_s.push(x);
            s.ttlr_s.push(x / 1e3);
            s.replicas_per_s.push(x);
            s.jobs_per_s.push(x);
            s.cache_hit_s.push(x / 1e3);
            s.restream_rows_per_s.push(x);
        }
        let mut tally = Tally::default();
        let v = end_to_end(&s, 12.5, &mut tally);
        assert_eq!(tally.failed, 0);
        let get = |n: &str| v.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("time_to_last_row_p50_ms"), 10.0);
        // 20 samples: the tail is rank 10, the highest with ten beyond
        assert_eq!(get("time_to_last_row_p90_ms"), 10.0);
        assert_eq!(get("peak_rss_mb"), 12.5);
        assert_eq!(get("setup_s"), 10.0);
    }

    #[test]
    fn few_samples_report_the_median_as_the_tail() {
        let s = Samples {
            ttlr_s: vec![0.003, 0.001, 0.002],
            ..Samples::default()
        };
        let mut tally = Tally::default();
        let v = end_to_end(&s, 1.0, &mut tally);
        let tail = v
            .iter()
            .find(|x| x.name == "time_to_last_row_p90_ms")
            .unwrap();
        assert_eq!(tail.value, 2.0);
        assert!(tail.basis.starts_with("no tail"));
    }

    #[test]
    fn missing_samples_fail_the_run() {
        let mut tally = Tally::default();
        let v = end_to_end(&Samples::default(), 1.0, &mut tally);
        assert!(tally.failed > 0);
        assert!(v.iter().any(|x| x.value.is_nan()));
    }

    #[test]
    fn layers_fill_unrun_layers_with_zero() {
        let mut l = Layers::default();
        l.set("core.flips", 7.0);
        l.set("core.flips", 8.0);
        let all = l.in_manifest_order();
        assert_eq!(all.len(), PER_LAYER.len());
        assert_eq!(
            all.iter().find(|v| v.name == "core.flips").unwrap().value,
            8.0
        );
        assert_eq!(
            all.iter()
                .find(|v| v.name == "shard.merge_s")
                .unwrap()
                .value,
            0.0
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        use seg_serve::Json;
        let mut s = Samples::default();
        for i in 1..=12 {
            let x = f64::from(i);
            for v in [
                &mut s.setup_s,
                &mut s.ttlr_s,
                &mut s.replicas_per_s,
                &mut s.jobs_per_s,
                &mut s.cache_hit_s,
                &mut s.restream_rows_per_s,
            ] {
                v.push(x / 7.0);
            }
        }
        let mut tally = Tally::default();
        tally.ops(3, 0);
        let values = end_to_end(&s, 3.25, &mut tally);
        let json = Json::parse(&result_line(&values, &tally)).expect("valid JSON");
        let keys: Vec<&str> = match &json {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(3));
        let metrics = json.get("metrics").unwrap();
        for m in &END_TO_END {
            let got = metrics.get(m.name).unwrap_or_else(|| panic!("{}", m.name));
            assert_eq!(got.get("unit").and_then(Json::as_str), Some(m.unit));
            assert!(got.get("value").and_then(Json::as_f64).is_some());
        }
        // every digit survives: 1/7 is printed in full, not rounded
        let p50 = metrics
            .get("setup_s")
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(p50, Some(6.0 / 7.0));
        // a failure makes the run incorrect, and attempted never reads 0
        let failed = Tally {
            failed: 1,
            ..Tally::default()
        };
        let json = Json::parse(&result_line(&values, &failed)).unwrap();
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn tally_counts_checks_and_failures() {
        let mut t = Tally::default();
        assert!(t.check(true, || unreachable!()));
        assert!(!t.check(false, || "bad".into()));
        t.ops(5, 1);
        let mut other = Tally::default();
        other.fail("worse".into());
        t.absorb(other);
        assert_eq!((t.attempted, t.failed), (8, 3));
        assert_eq!(t.failures, vec!["bad".to_string(), "worse".to_string()]);
    }
}
