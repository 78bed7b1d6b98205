//! `rev3-batch`: many small jobs through `qsyn batch <dir> --jobs 1`, each
//! batch a directory of seeded three-line `.spec` files with the same
//! class-minimum depth mix and the same number of class-cache hits.

use crate::oracle::{class_representatives, realizes, relabel, spec_of, Map3, Oracle, RELABELINGS};
use crate::parse::{parse_batch_row, parse_batch_summary};
use crate::report::{Layers, Outcome, Reps};
use crate::Rng;
use qsyn::cli::{self, Command};
use qsyn::portfolio::{canonicalize, run_batch, BatchConfig, JobStatus, SpecCache};
use qsyn::revlogic::spec_format;
use qsyn::synth::permuted::synthesize_with_output_permutation_in;
use qsyn::synth::SynthesisOptions;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Batch shape and worker count.
pub struct Plan {
    /// Spec files per batch.
    pub jobs_per_batch: usize,
    /// Of those, further members of a class already in the batch: with one
    /// worker taking jobs in order, exactly this many class-cache hits.
    pub repeats: usize,
    /// `--jobs`.
    pub workers: usize,
}

/// The output-relabeling classes of one class-minimum depth, dealt out in
/// a seeded order, so a run draws every class of the depth before it draws
/// any twice.
struct Deck {
    classes: Vec<Map3>,
    dealt: usize,
}

impl Deck {
    /// The next `n` classes, all distinct; reshuffles when fewer are left.
    fn deal(&mut self, n: usize, rng: &mut Rng) -> &[Map3] {
        if self.dealt + n > self.classes.len() {
            rng.shuffle(&mut self.classes);
            self.dealt = 0;
        }
        self.dealt += n;
        &self.classes[self.dealt - n..self.dealt]
    }
}

/// One deck per class-minimum depth (index = depth), each shuffled at its
/// first deal.
fn decks(oracle: &Oracle) -> Vec<Deck> {
    let mut decks: Vec<Deck> = Vec::new();
    for rep in class_representatives() {
        let depth = oracle.class_min(&rep) as usize;
        while decks.len() <= depth {
            decks.push(Deck {
                classes: Vec::new(),
                dealt: 0,
            });
        }
        decks[depth].classes.push(rep);
    }
    for deck in &mut decks {
        deck.dealt = deck.classes.len();
    }
    decks
}

/// Splits `n` draws over the decks in proportion to their sizes, by
/// largest remainder.
fn quotas(decks: &[Deck], n: usize) -> Vec<usize> {
    let sizes: Vec<usize> = decks.iter().map(|d| d.classes.len()).collect();
    let total: usize = sizes.iter().sum();
    let mut quotas: Vec<usize> = sizes.iter().map(|s| s * n / total).collect();
    let mut by_remainder: Vec<usize> = (0..sizes.len()).collect();
    by_remainder.sort_by_key(|&d| std::cmp::Reverse(sizes[d] * n % total));
    let short = n - quotas.iter().sum::<usize>();
    for &d in &by_remainder[..short] {
        quotas[d] += 1;
    }
    quotas
}

/// One batch: `jobs_per_batch - repeats` functions from distinct classes,
/// each depth's quota dealt from that depth's deck, plus one more member
/// of `repeats` of those classes; every function under a random output
/// relabeling, in random order. A uniform draw lets one seed's batch be
/// harder than another's (its depth mix, its hardest classes and its count
/// of repeated classes vary); this one does not.
fn draw_batch(plan: &Plan, decks: &mut [Deck], rng: &mut Rng) -> Vec<Map3> {
    let quotas = quotas(decks, plan.jobs_per_batch - plan.repeats);
    let mut classes = Vec::with_capacity(plan.jobs_per_batch);
    for (deck, quota) in decks.iter_mut().zip(quotas) {
        classes.extend_from_slice(deck.deal(quota, rng));
    }
    rng.shuffle(&mut classes);
    classes.extend_from_within(..plan.repeats);
    let mut maps: Vec<Map3> = classes
        .iter()
        .map(|c| relabel(c, &RELABELINGS[rng.below(RELABELINGS.len())]))
        .collect();
    rng.shuffle(&mut maps);
    maps
}

/// Writes one batch directory; `j00000.spec`, … so the table comes back in
/// draw order.
fn write_batch(dir: &Path, maps: &[Map3]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for (i, map) in maps.iter().enumerate() {
        let path = dir.join(format!("j{i:05}.spec"));
        std::fs::write(&path, spec_format::write_spec(&spec_of(map)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Set-up: `qsyn batch` over a two-line list naming one built-in 3-line
/// row twice (one synthesis, one class-cache hit), timed a few times
/// before the measured batches.
const SETUP_LIST: &str = "3_17\n3_17\n";
const SETUP_REPS: usize = 11;

/// One `qsyn batch <target> --jobs <workers>`: wall seconds and output.
fn batch_cli(target: &Path, workers: usize) -> Result<(f64, String), String> {
    let workers = workers.to_string();
    let cmd = Command::parse(["batch", &target.to_string_lossy(), "--jobs", &workers])?;
    let mut text = Vec::new();
    let t = Instant::now();
    cli::run(&cmd, &mut text).map_err(|e| e.to_string())?;
    Ok((
        t.elapsed().as_secs_f64(),
        String::from_utf8_lossy(&text).into_owned(),
    ))
}

/// Runs batches until the next one would overrun `budget` (at least one),
/// then, when traced, replays the first batch through the scheduler with
/// spans around each layer call.
///
/// # Errors
///
/// When the scratch directory cannot be written or the batch output is
/// unreadable.
pub fn run(
    plan: &Plan,
    oracle: &Oracle,
    seed: u64,
    budget: Duration,
    trace: bool,
    scratch: &Path,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut decks = decks(oracle);
    let mut rng = Rng::new(seed);
    let mut out = Outcome::default();
    let mut reps = Reps::default();
    std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;
    let list = scratch.join("setup.list");
    std::fs::write(&list, SETUP_LIST).map_err(|e| e.to_string())?;
    for _ in 0..SETUP_REPS {
        let (wall, text) = batch_cli(&list, plan.workers)?;
        match text.lines().find_map(parse_batch_summary) {
            Some(s) if s.failed == 0 => reps.setup(wall),
            _ => return Err(format!("set-up batch failed: {text}")),
        }
    }
    let mut first: Option<(Vec<Map3>, f64)> = None;
    for b in 0.. {
        let batch_started = Instant::now();
        let maps = draw_batch(plan, &mut decks, &mut rng);
        let dir = scratch.join(format!("batch{b}"));
        write_batch(&dir, &maps)?;
        let (wall, text) = batch_cli(&dir, plan.workers)?;
        let _ = std::fs::remove_dir_all(&dir);

        out.attempted += maps.len() as u64;
        let rows: Vec<_> = text.lines().filter_map(parse_batch_row).collect();
        let summary = text
            .lines()
            .find_map(parse_batch_summary)
            .ok_or("batch printed no summary line")?;
        if rows.len() != maps.len() || summary.jobs != maps.len() {
            return Err(format!(
                "batch printed {} rows for {} jobs",
                rows.len(),
                maps.len()
            ));
        }
        let mut latencies = Vec::with_capacity(rows.len());
        for (map, row) in maps.iter().zip(&rows) {
            let Some((depth, _, permutation)) = &row.answer else {
                out.failed += 1;
                continue;
            };
            latencies.push(row.elapsed_ms);
            let want = oracle.class_min(map);
            let mut sorted = permutation.clone();
            sorted.sort_unstable();
            if *depth != want || sorted != [0, 1, 2] {
                out.mismatches.push(format!(
                    "{}: depth {depth} permutation {permutation:?}, class minimum {want}",
                    row.name
                ));
            }
        }
        reps.rep(wall, &latencies);
        if b == 0 {
            first = Some((maps, wall));
        }
        if trace || started.elapsed() + batch_started.elapsed() > budget {
            break;
        }
    }
    out.metrics = match (trace, first) {
        (true, Some((maps, wall))) => {
            let options = crate::options_of(&Command::parse(["batch", "suite"])?)?;
            replay(plan, oracle, &options, &maps, wall, &mut out).metrics()
        }
        _ => reps.metrics(),
    };
    Ok(out)
}

/// The traced batch: what `qsyn batch` does per job — class cache over the
/// output-permutation search on the worker's session — driven through
/// `run_batch` with timers around canonicalization and the search.
fn replay(
    plan: &Plan,
    oracle: &Oracle,
    options: &SynthesisOptions,
    maps: &[Map3],
    untraced_s: f64,
    out: &mut Outcome,
) -> Layers {
    let jobs: Vec<(String, qsyn::revlogic::Spec)> = maps
        .iter()
        .enumerate()
        .map(|(i, m)| (format!("j{i:05}"), spec_of(m)))
        .collect();
    let cache = SpecCache::new();
    let canonicalize_us = Mutex::new(Vec::with_capacity(jobs.len()));
    let searches = Mutex::new(Vec::new());
    let config = BatchConfig {
        workers: plan.workers,
        ..BatchConfig::default()
    };
    let started = Instant::now();
    let outcome = run_batch(jobs.clone(), &config, None, |spec, token, session, _| {
        let options = options.clone().with_cancel_token(token.clone());
        let t = Instant::now();
        std::hint::black_box(canonicalize(spec));
        let us = t.elapsed().as_secs_f64() * 1e6;
        canonicalize_us.lock().expect("span lock").push(us);
        cache.get_or_compute(spec, |canonical| {
            let t = Instant::now();
            let r = synthesize_with_output_permutation_in(canonical, &options, session);
            if let Ok(p) = &r {
                let ms = t.elapsed().as_secs_f64() * 1e3;
                searches.lock().expect("span lock").push((ms, p.stats));
            }
            r
        })
    });
    let wall = started.elapsed().as_secs_f64();

    let mut busy_s = 0.0;
    for ((map, (_, spec)), report) in maps.iter().zip(&jobs).zip(&outcome.reports) {
        busy_s += report.elapsed.as_secs_f64();
        let JobStatus::Done(p) = &report.status else {
            out.failed += 1;
            continue;
        };
        let (depth, want) = (p.result.depth(), oracle.class_min(map));
        let circuits = p.result.solutions().circuits();
        if depth != want
            || !circuits
                .iter()
                .all(|c| realizes(spec, c, &p.permutation, depth))
        {
            out.mismatches.push(format!(
                "traced {}: depth {depth} (class minimum {want}) or a circuit that misses the spec",
                report.name
            ));
        }
    }
    let mut l = Layers::new();
    let canon = canonicalize_us.into_inner().expect("span lock");
    l.set(
        "portfolio.canonicalize_us_p50",
        crate::stats::median(&canon),
        canon.len(),
    );
    let (hits, misses) = cache.stats();
    l.set(
        "portfolio.cache_hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
        (hits + misses) as usize,
    );
    l.set(
        "portfolio.scheduler_busy_frac",
        busy_s / (plan.workers as f64 * wall),
        jobs.len(),
    );
    let searches = searches.into_inner().expect("span lock");
    l.set_searches(&searches);
    l.set_sessions(&outcome.session_stats, searches.len());
    l.set("trace.overhead_frac", wall / untraced_s - 1.0, jobs.len());
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: Plan = Plan {
        jobs_per_batch: 24,
        repeats: 2,
        workers: 1,
    };

    #[test]
    fn batches_share_depth_mix_and_repeat_count() {
        let oracle = Oracle::build();
        let plan = Plan {
            jobs_per_batch: 300,
            repeats: 12,
            workers: 1,
        };
        // Class-minimum depths of the batch's distinct classes.
        let mix = |maps: &[Map3]| {
            let mut classes: Vec<(usize, u32)> = maps
                .iter()
                .map(|m| (crate::oracle::class_id(m), oracle.class_min(m)))
                .collect();
            classes.sort_unstable();
            classes.dedup();
            let mut depths: Vec<u32> = classes.iter().map(|c| c.1).collect();
            depths.sort_unstable();
            depths
        };
        let a = draw_batch(&plan, &mut decks(&oracle), &mut Rng::new(1));
        let b = draw_batch(&plan, &mut decks(&oracle), &mut Rng::new(2));
        assert_ne!(a, b);
        assert_eq!(a.len(), 300);
        assert_eq!(mix(&a).len(), 288);
        assert_eq!(mix(&a), mix(&b));
        assert_eq!(quotas(&decks(&oracle), 288).iter().sum::<usize>(), 288);
    }

    #[test]
    fn a_deck_deals_every_class_before_any_twice() {
        let oracle = Oracle::build();
        let mut decks = decks(&oracle);
        let sizes: Vec<usize> = decks.iter().map(|d| d.classes.len()).collect();
        assert_eq!(sizes, [1, 12, 96, 493, 1550, 2863, 1685, 20]);
        let mut rng = Rng::new(4);
        let mut dealt: Vec<Map3> = (0..20).map(|_| decks[7].deal(1, &mut rng)[0]).collect();
        dealt.sort_unstable();
        dealt.dedup();
        assert_eq!(dealt.len(), 20);
        // Too few left for the next deal: a reshuffle, never a short deal.
        assert_eq!(decks[6].deal(1000, &mut rng).len(), 1000);
        assert_eq!(decks[6].deal(1000, &mut rng).len(), 1000);
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("target/test-scratch/batch-{tag}"))
    }

    #[test]
    fn miniature_batch_untraced_and_traced() {
        let oracle = Oracle::build();
        for trace in [false, true] {
            let dir = scratch(&trace.to_string());
            let out = run(&MINI, &oracle, 3, Duration::ZERO, trace, &dir).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            assert!(out.mismatches.is_empty(), "{:?}", out.mismatches);
            assert_eq!((out.attempted, out.failed), (24, 0));
            let get = |n: &str| out.metrics.iter().find(|m| m.name == n).unwrap().value();
            if trace {
                assert!(get("core.permuted.search_ms") > 0.0);
                assert!(get("portfolio.scheduler_busy_frac") > 0.0);
                assert_eq!(get("portfolio.cache_hit_frac"), 2.0 / 24.0);
                assert_eq!(get("serve.hits"), 0.0);
            } else {
                assert!(get("jobs_per_s") > 0.0);
                assert!(get("setup_s") > 0.0);
            }
        }
    }
}
