//! `benchmark compare A.json B.json`: applies the bounds in
//! `BENCHMARK.json` to every (workload, end-to-end metric) pair of two
//! result files, and flags Table 1 layer counters that should have
//! repeated exactly but did not.

use crate::json::Json;
use crate::report::DETERMINISTIC_TABLE1;
use crate::stats::{median, quartiles};

/// How B reads against A for one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// Better by more than the bound, or every B run beats every A run.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, so no call is made.
    Unresolved,
}

/// Relative change (positive = worse), spread and verdict of `b` against
/// `a`. The spread is the wider side's interquartile range over its
/// median; when it exceeds the bound the metric is unresolved unless every
/// B value beats every A value.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let change = if lower_is_better {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    let spread = |v: &[f64], m: f64| {
        let (q1, _, q3) = quartiles(v);
        (q3 - q1) / m
    };
    let spread = spread(a, ma).max(spread(b, mb));
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let all_better = if lower_is_better {
        max(b) < min(a)
    } else {
        min(b) > max(a)
    };
    let v = if spread > bound {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (change, spread, v)
}

/// The runs of a result file.
fn runs(file: &Json) -> &[Json] {
    file.get("runs").and_then(Json::as_array).unwrap_or(&[])
}

fn run_matches(run: &Json, workload: &str, trace: bool) -> bool {
    run.get("workload").and_then(Json::as_str) == Some(workload)
        && run.get("trace").and_then(Json::as_f64) == Some(f64::from(u8::from(trace)))
}

/// Values of `metric` for `workload` in one file: one per untraced run,
/// or a single run's per-rep values when the file holds only one.
pub fn values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    let matching: Vec<&Json> = runs(file)
        .iter()
        .filter(|r| run_matches(r, workload, false))
        .collect();
    let metric_of = |r: &Json| r.get("metrics").and_then(|m| m.get(metric)).cloned();
    match matching.as_slice() {
        [one] => metric_of(one)
            .and_then(|m| m.get("reps").cloned())
            .and_then(|r| {
                r.as_array()
                    .map(|a| a.iter().filter_map(Json::as_f64).collect())
            })
            .unwrap_or_default(),
        many => many
            .iter()
            .filter_map(|r| metric_of(r)?.get("value")?.as_f64())
            .collect(),
    }
}

/// Distinct values of a per-layer counter across both files' traced runs
/// of `workload`.
fn counter_values(files: [&Json; 2], workload: &str, counter: &str) -> Vec<f64> {
    let mut seen: Vec<f64> = Vec::new();
    for file in files {
        for r in runs(file).iter().filter(|r| run_matches(r, workload, true)) {
            if let Some(v) = r
                .get("metrics")
                .and_then(|m| m.get(counter))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
            {
                if !seen.contains(&v) {
                    seen.push(v);
                }
            }
        }
    }
    seen
}

/// Prints one row per (workload, end-to-end metric) and one line per
/// flagged counter. Returns `true` when nothing got worse and no counter
/// moved.
///
/// # Errors
///
/// When `BENCHMARK.json` lacks its workloads or metrics.
pub fn compare(spec: &Json, a: &Json, b: &Json) -> Result<bool, String> {
    let list = |key: &str| {
        spec.get(key)
            .and_then(Json::as_array)
            .ok_or(format!("BENCHMARK.json has no `{key}` list"))
    };
    let mut clean = true;
    println!(
        "{:<11} {:<15} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    for w in list("workloads")? {
        let workload = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("unnamed workload")?;
        for m in list("end_to_end")? {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("unnamed metric")?;
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let (va, vb) = (values(a, workload, name), values(b, workload, name));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<11} {name:<15} (not in both files)");
                continue;
            }
            let (change, spread, v) = verdict(&va, &vb, lower, bound);
            clean &= v != Verdict::Worse;
            println!(
                "{workload:<11} {name:<15} {:>12.5} {:>12.5} {:>+7.1}% {:>7.1}% {:>5.1}%  {}",
                median(&va),
                median(&vb),
                change * 100.0,
                spread * 100.0,
                bound * 100.0,
                format!("{v:?}").to_lowercase()
            );
        }
        if workload.starts_with("table1-") {
            for counter in DETERMINISTIC_TABLE1 {
                let seen = counter_values([a, b], workload, counter);
                if seen.len() > 1 {
                    clean = false;
                    println!("FLAG {workload} {counter} did not repeat: {seen:?}");
                }
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn verdicts_on_hand_made_inputs() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Lower is better: 5 % slower under a 10 % bound is the same.
        assert_eq!(
            verdict(&a, &[10.5, 10.5, 10.6], true, 0.10).2,
            Verdict::Same
        );
        assert_eq!(
            verdict(&a, &[12.0, 12.1, 11.9], true, 0.10).2,
            Verdict::Worse
        );
        assert_eq!(verdict(&a, &[8.0, 8.1, 7.9], true, 0.10).2, Verdict::Better);
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            verdict(&a, &[12.0, 12.1, 11.9], false, 0.10).2,
            Verdict::Better
        );
        // A spread wider than the bound: unresolved, unless B wins every
        // pairing.
        let noisy = [5.0, 15.0, 8.0, 12.0];
        assert_eq!(verdict(&a, &noisy, true, 0.10).2, Verdict::Unresolved);
        assert_eq!(
            verdict(&noisy, &[1.0, 1.5, 2.0], true, 0.10).2,
            Verdict::Better
        );
        let (change, spread, _) = verdict(&[10.0], &[11.0], true, 0.25);
        assert!((change - 0.1).abs() < 1e-12);
        assert_eq!(spread, 0.0);
    }

    fn file(workload: &str, trace: u8, metric: &str, value: f64) -> String {
        format!(
            r#"{{"workload": "{workload}", "trace": {trace}, "metrics": {{"{metric}": {{"value": {value}, "reps": [{value}]}}}}}}"#
        )
    }

    #[test]
    fn values_use_runs_or_a_single_runs_reps() {
        let two = parse(&format!(
            r#"{{"runs": [{}, {}]}}"#,
            file("rev3-batch", 0, "jobs_per_s", 200.0),
            file("rev3-batch", 0, "jobs_per_s", 210.0)
        ))
        .unwrap();
        assert_eq!(values(&two, "rev3-batch", "jobs_per_s"), vec![200.0, 210.0]);
        let one = parse(
            r#"{"runs": [{"workload": "serve-mix", "trace": 0, "metrics":
                {"setup_s": {"value": 1.0, "reps": [0.9, 1.0, 1.2]}}}]}"#,
        )
        .unwrap();
        assert_eq!(values(&one, "serve-mix", "setup_s"), vec![0.9, 1.0, 1.2]);
        assert!(values(&one, "table1-bdd", "setup_s").is_empty());
    }

    #[test]
    fn moved_table1_counters_are_flagged() {
        let spec = parse(
            r#"{"workloads": [{"name": "table1-bdd"}],
                "end_to_end": [{"name": "jobs_per_s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let side = |classes: f64| {
            parse(&format!(
                r#"{{"runs": [{}, {}]}}"#,
                file("table1-bdd", 0, "jobs_per_s", 1.0),
                file("table1-bdd", 1, "core.permuted.classes", classes)
            ))
            .unwrap()
        };
        assert_eq!(compare(&spec, &side(29.0), &side(29.0)), Ok(true));
        assert_eq!(compare(&spec, &side(29.0), &side(30.0)), Ok(false));
    }
}
