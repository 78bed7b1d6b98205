//! Metric names, the per-run outcome every workload returns, and the
//! process facts recorded with each result.

use crate::stats::median;
use qsyn::synth::permuted::PermutedSearchStats;
use qsyn::synth::SessionStats;

/// End-to-end metrics (`--trace 0`), reported by every workload: name and
/// unit. Kept equal to `BENCHMARK.json` by a test.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_ms_geomean", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), reported by every workload; a layer a
/// workload does not exercise reads 0. Kept equal to `BENCHMARK.json` by a
/// test.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("portfolio.canonicalize_us_p50", "us"),
    ("portfolio.cache_hit_frac", "frac"),
    ("portfolio.scheduler_busy_frac", "frac"),
    ("core.permuted.classes", "count"),
    ("core.permuted.engines_built", "count"),
    ("core.permuted.probes_run", "count"),
    ("core.permuted.floor_skips", "count"),
    ("core.permuted.search_ms", "ms"),
    ("core.bdd_engine.setup_ms", "ms"),
    ("core.bdd_engine.unsat_depths_ms", "ms"),
    ("core.bdd_engine.sat_depth_ms", "ms"),
    ("bdd.peak_live_nodes", "count"),
    ("bdd.cache_hit_frac", "frac"),
    ("bdd.cache_evictions", "count"),
    ("bdd.gc_runs", "count"),
    ("bdd.gc_freed", "count"),
    ("bdd.manager_resets", "count"),
    ("core.encode.ms", "ms"),
    ("core.encode.clauses", "count"),
    ("core.sat_engine.unsat_depths_ms", "ms"),
    ("core.sat_engine.sat_depth_ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.clauses_added", "count"),
    ("sat.clauses_retained", "count"),
    ("sat.learnt_reused", "count"),
    ("store.put_us_p50", "us"),
    ("store.put_us_p99", "us"),
    ("store.get_us_p50", "us"),
    ("store.open_ms", "ms"),
    ("store.bytes_per_record", "B"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.hit_ms_p99", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.miss_ms_p90", "ms"),
    ("serve.hit_server_us_mean", "us"),
    ("serve.miss_server_ms_p50", "ms"),
    ("serve.wire_ms_p50", "ms"),
    ("serve.wire_ms_p99", "ms"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.engine_invocations", "count"),
    ("serve.rejected", "count"),
    ("serve.errors", "count"),
    ("trace.overhead_frac", "frac"),
];

/// Per-layer counters that repeat exactly on the Table 1 workloads (one
/// fresh session per job, single-threaded search): `compare` flags any
/// difference between two result files.
pub const DETERMINISTIC_TABLE1: [&str; 15] = [
    "core.permuted.classes",
    "core.permuted.engines_built",
    "core.permuted.probes_run",
    "core.permuted.floor_skips",
    "core.encode.clauses",
    "bdd.peak_live_nodes",
    "bdd.cache_hit_frac",
    "bdd.cache_evictions",
    "bdd.gc_runs",
    "bdd.gc_freed",
    "bdd.manager_resets",
    "sat.conflicts",
    "sat.clauses_added",
    "sat.clauses_retained",
    "sat.learnt_reused",
];

/// One reported metric: its per-rep values (the reported value is their
/// median) and the number of samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit, as in the tables above.
    pub unit: &'static str,
    /// One value per repetition (pass, batch or daemon session).
    pub reps: Vec<f64>,
    /// Samples the value rests on (jobs, requests, setups, …).
    pub n: usize,
}

impl Metric {
    /// The reported value: the median over reps.
    pub fn value(&self) -> f64 {
        median(&self.reps)
    }
}

/// End-to-end metrics gathered rep by rep.
#[derive(Default)]
pub struct Reps {
    setup_s: Vec<f64>,
    jobs_per_s: Vec<f64>,
    job_ms_geomean: Vec<f64>,
    setups: usize,
    jobs: usize,
}

impl Reps {
    /// Records one set-up.
    pub fn setup(&mut self, seconds: f64) {
        self.setup_s.push(seconds);
        self.setups += 1;
    }

    /// Records one rep: jobs finished in `wall_s` with these per-job
    /// latencies.
    pub fn rep(&mut self, wall_s: f64, latencies_ms: &[f64]) {
        self.jobs_per_s.push(latencies_ms.len() as f64 / wall_s);
        self.job_ms_geomean
            .push(crate::stats::geomean(latencies_ms));
        self.jobs += latencies_ms.len();
    }

    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub fn metrics(self) -> Vec<Metric> {
        let [setup, jps, geo, rss] = END_TO_END;
        let m = |(name, unit): (&'static str, &'static str), reps, n| Metric {
            name,
            unit,
            reps,
            n,
        };
        vec![
            m(setup, self.setup_s, self.setups),
            m(jps, self.jobs_per_s, self.jobs),
            m(geo, self.job_ms_geomean, self.jobs),
            m(rss, vec![peak_rss_mib()], 1),
        ]
    }
}

/// Per-layer metrics of one traced run, all [`PER_LAYER`] names present.
pub struct Layers(Vec<Metric>);

impl Layers {
    /// Every per-layer metric at 0 (layer not exercised).
    pub fn new() -> Layers {
        Layers(
            PER_LAYER
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    unit,
                    reps: vec![0.0],
                    n: 0,
                })
                .collect(),
        )
    }

    /// Sets metric `name` from `n` samples.
    ///
    /// # Panics
    ///
    /// When `name` is not in [`PER_LAYER`] (a bug in this benchmark).
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let m = self
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        m.reps = vec![value];
        m.n = n;
    }

    /// Sets `name` to the nearest-rank percentile `p` of `samples`; left at
    /// 0 when too few samples lie beyond it.
    pub fn set_percentile(&mut self, name: &str, samples: &[f64], p: f64) {
        if let Some(v) = crate::stats::percentile(samples, p) {
            self.set(name, v, samples.len());
        }
    }

    /// `core.permuted.*` and `sat.*`, summed over output-permutation
    /// searches given as (wall ms, counters).
    pub fn set_searches(&mut self, searches: &[(f64, PermutedSearchStats)]) {
        let n = searches.len();
        let sum = |f: fn(&PermutedSearchStats) -> u64| {
            searches.iter().map(|(_, s)| f(s) as f64).sum::<f64>()
        };
        self.set("core.permuted.classes", sum(|s| s.classes), n);
        self.set("core.permuted.engines_built", sum(|s| s.engines_built), n);
        self.set("core.permuted.probes_run", sum(|s| s.probes_run), n);
        self.set("core.permuted.floor_skips", sum(|s| s.depth_floor_skips), n);
        let ms = searches.iter().map(|(ms, _)| ms).sum::<f64>();
        self.set("core.permuted.search_ms", ms, n);
        self.set("sat.conflicts", sum(|s| s.incremental.conflicts), n);
        self.set("sat.clauses_added", sum(|s| s.incremental.clauses_added), n);
        self.set(
            "sat.clauses_retained",
            sum(|s| s.incremental.clauses_retained),
            n,
        );
        self.set("sat.learnt_reused", sum(|s| s.incremental.learnt_reused), n);
    }

    /// `bdd.*` from session counters merged over `n` searches.
    pub fn set_sessions(&mut self, s: &SessionStats, n: usize) {
        self.set("bdd.peak_live_nodes", s.peak_live as f64, n);
        let lookups = s.cache_hits + s.cache_misses;
        if lookups > 0 {
            self.set(
                "bdd.cache_hit_frac",
                s.cache_hits as f64 / lookups as f64,
                n,
            );
        }
        self.set("bdd.cache_evictions", s.cache_evictions as f64, n);
        self.set("bdd.gc_runs", s.gc_runs as f64, n);
        self.set("bdd.gc_freed", s.gc_freed as f64, n);
        self.set("bdd.manager_resets", s.resets as f64, n);
    }

    /// The metrics, in [`PER_LAYER`] order.
    pub fn metrics(self) -> Vec<Metric> {
        self.0
    }
}

/// One Table 1 row as the paper prints it, from the untraced passes.
#[derive(Clone, Debug, PartialEq)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Minimal gate count.
    pub depth: u32,
    /// Solution count as printed (`"≥1"` for SAT).
    pub solutions: String,
    /// Median wall of the `bench` call over passes, in seconds.
    pub wall_s: f64,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Jobs or requests attempted in the measured part.
    pub attempted: u64,
    /// Of those, errors, timeouts and refusals.
    pub failed: u64,
    /// Wrong answers; any entry makes the run incorrect.
    pub mismatches: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Table 1 rows (Table 1 workloads only).
    pub table1_rows: Vec<Table1Row>,
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".to_string()
        } else {
            head.to_string()
        };
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version`, or `"unknown"`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}
