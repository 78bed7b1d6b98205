//! Workspace-level portfolio tests: canonical-spec cache properties and
//! batch-scheduler determinism.

use proptest::prelude::*;
use qsyn::cli::{run, Command};
use qsyn::portfolio::cache::{canonicalize, SpecCache};
use qsyn::portfolio::race::race_engines_permuted;
use qsyn::portfolio::read_journal;
use qsyn::portfolio::scheduler::{run_batch, BatchConfig, JobStatus};
use qsyn::revlogic::benchmarks::{random_incomplete_spec, random_permutation};
use qsyn::revlogic::{spec_format, GateLibrary, Spec};
use qsyn::synth::permuted::{permute_spec, synthesize_with_output_permutation};
use qsyn::synth::{Attempt, CancelToken, Engine, RetryPolicy, SynthesisOptions, SynthesisSession};

fn opts() -> SynthesisOptions {
    SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd).with_max_depth(10)
}

/// All 6 permutations of 3 lines.
fn perms3() -> [[u32; 3]; 6] {
    [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ]
}

/// The cached circuit must reproduce the *requested* spec through the
/// returned output permutation, on every cared bit.
fn realizes_via_permutation(
    spec: &Spec,
    r: &qsyn::synth::permuted::PermutedSynthesisResult,
) -> bool {
    let c = &r.result.solutions().circuits()[0];
    (0..spec.num_rows() as u32).all(|row| {
        let out = c.simulate(row);
        let sr = spec.row(row);
        r.permutation
            .iter()
            .enumerate()
            .all(|(j, &p)| sr.care & (1 << j) == 0 || (out >> p) & 1 == (sr.value >> j) & 1)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite property: a cache hit simulates to the original spec. A
    /// random 3-line function is synthesized once, then every output
    /// permutation of it is answered from the cache — and each answer must
    /// realize the permuted request, at the same minimal depth.
    fn cache_hit_simulates_to_original_spec(seed in any::<u64>(), pidx in 0usize..6) {
        let spec = Spec::from_permutation(&random_permutation(3, seed));
        let cache = SpecCache::new();
        let first = cache.synthesize(&spec, &opts()).unwrap();
        prop_assert!(realizes_via_permutation(&spec, &first));
        let moved = permute_spec(&spec, &perms3()[pidx]).unwrap();
        let answer = cache.synthesize(&moved, &opts()).unwrap();
        let (hits, misses) = cache.stats();
        prop_assert_eq!((hits, misses), (1, 1));
        prop_assert!(realizes_via_permutation(&moved, &answer));
        prop_assert_eq!(answer.result.depth(), first.result.depth());
    }

    /// Satellite property: the cache key never conflates inequivalent
    /// specs. Two random specs (complete or not) share a canonical form iff
    /// one is an output permutation of the other.
    #[allow(clippy::needless_pass_by_value)]
    fn cache_key_never_conflates_inequivalent_specs(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        care in 400u32..1000,
    ) {
        let a = random_incomplete_spec(3, seed_a, care);
        let b = random_incomplete_spec(3, seed_b, 1000 - care + 400);
        let equivalent = perms3()
            .iter()
            .any(|p| permute_spec(&a, p).unwrap().rows() == b.rows());
        let same_key = canonicalize(&a).spec.rows() == canonicalize(&b).spec.rows();
        prop_assert_eq!(equivalent, same_key);
    }
}

/// Acceptance check: a parallel batch is identical to a sequential one.
#[test]
fn batch_with_four_workers_matches_sequential() {
    let jobs = || -> Vec<(String, Spec)> {
        (0..8u64)
            .map(|seed| {
                (
                    format!("rand{seed}"),
                    Spec::from_permutation(&random_permutation(3, seed * 11 + 3)),
                )
            })
            .collect()
    };
    let options = opts();
    let run_one =
        |spec: &Spec, token: &CancelToken, session: &mut SynthesisSession, _attempt: &Attempt| {
            let o = options.clone().with_cancel_token(token.clone());
            qsyn::synth::permuted::synthesize_with_output_permutation_in(spec, &o, session)
        };
    let digest = |workers: usize| -> Vec<(String, u32, u128, Vec<u32>)> {
        let config = BatchConfig {
            workers,
            per_job_timeout: None,
            retry: RetryPolicy::none(),
        };
        run_batch(jobs(), &config, None, run_one)
            .reports
            .into_iter()
            .map(|r| match r.status {
                JobStatus::Done(p) => (
                    r.name,
                    p.result.depth(),
                    p.result.solutions().count(),
                    p.permutation,
                ),
                other => panic!("{}: {other:?}", r.name),
            })
            .collect()
    };
    assert_eq!(digest(1), digest(4));
}

/// How many jobs a batch run sent through the resolve path: the hits plus
/// the misses of its `cache H hits / M misses` summary.
fn resolved_jobs(batch_output: &str) -> usize {
    let counts: Vec<usize> = batch_output
        .split("cache ")
        .nth(1)
        .and_then(|tail| tail.split(')').next())
        .expect("batch summary reports the cache")
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|n| n.parse().ok())
        .collect();
    counts.iter().sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Killing a journaled batch at any point and resuming yields a
    /// bit-identical merged result set. The kill is simulated by cutting
    /// the journal's **bytes** at every offset in turn — inside the magic,
    /// on each frame boundary and mid-frame — after each of which
    /// `--resume` must re-run exactly the lost jobs, end with exactly
    /// three records, and reproduce every digest the uninterrupted run
    /// recorded. The jobs are two-line functions so that the ~500 resumes
    /// stay cheap.
    fn resume_after_kill_is_bit_identical(seed in any::<u64>()) {
        let dir = std::env::temp_dir().join(format!(
            "qsyn-resume-prop-{}-{seed}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut list_text = String::new();
        for i in 0..3u64 {
            let spec = Spec::from_permutation(&random_permutation(2, seed ^ (i * 0x9e37)));
            let path = dir.join(format!("job{i}.spec"));
            std::fs::write(&path, spec_format::write_spec(&spec)).unwrap();
            list_text.push_str(&format!("{}\n", path.display()));
        }
        let list = dir.join("jobs.txt");
        std::fs::write(&list, list_text).unwrap();
        let journal = dir.join("runs.journal");
        let _ = std::fs::remove_file(&journal);

        let batch = |resume: bool| -> String {
            let mut args = vec![
                "batch".to_string(),
                list.to_str().unwrap().to_string(),
                "--journal".to_string(),
                journal.to_str().unwrap().to_string(),
            ];
            if resume {
                args.push("--resume".to_string());
            }
            let cmd = Command::parse(args).unwrap();
            let mut buf = Vec::new();
            assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
            String::from_utf8(buf).unwrap()
        };

        batch(false);
        let full = read_journal(&journal).unwrap();
        prop_assert_eq!(full.len(), 3);
        let bytes = std::fs::read(&journal).unwrap();

        for cut in 0..=bytes.len() {
            // Kill: keep the first `cut` bytes of the journal.
            std::fs::write(&journal, &bytes[..cut]).unwrap();
            let survivors = read_journal(&journal).unwrap();
            prop_assert_eq!(&survivors[..], &full[..survivors.len()], "cut at {}", cut);

            let resumed_out = batch(true);
            prop_assert!(resumed_out.contains("3 jobs, 3 ok, 0 failed"), "{}", resumed_out);
            // Exactly the lost jobs re-ran: each went through the resolve
            // path once, as a hit or a miss.
            prop_assert_eq!(resolved_jobs(&resumed_out), 3 - survivors.len(), "cut at {}", cut);
            let resumed = read_journal(&journal).unwrap();
            prop_assert_eq!(resumed.len(), 3, "cut at {}: {} survived", cut, survivors.len());
            prop_assert_eq!(&resumed[..survivors.len()], &survivors[..]);
            for (r, f) in resumed.iter().zip(&full) {
                prop_assert_eq!(&r.key, &f.key);
                prop_assert_eq!(
                    &r.digest,
                    &f.digest,
                    "job {} must reproduce its digest after a cut at {}",
                    &f.name,
                    cut
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The race composes with the cache: racing on a class representative and
/// replaying the hit yields the same depth as direct synthesis.
#[test]
fn raced_batch_through_the_cache_is_consistent() {
    let cache = SpecCache::new();
    let spec = Spec::from_permutation(&random_permutation(3, 42));
    let options = opts();
    let compute = |s: &Spec| {
        race_engines_permuted(s, &options)
            .map(|r| r.winner)
            .map_err(|e| e.into_synthesis_error())
    };
    let raced = cache.get_or_compute(&spec, compute).unwrap();
    let direct = synthesize_with_output_permutation(&spec, &options).unwrap();
    assert_eq!(raced.result.depth(), direct.result.depth());
    assert!(realizes_via_permutation(&spec, &raced));
    let moved = permute_spec(&spec, &[2, 0, 1]).unwrap();
    let hit = cache
        .get_or_compute(&moved, |_| panic!("must be a cache hit"))
        .unwrap();
    assert!(realizes_via_permutation(&moved, &hit));
    assert_eq!(cache.stats(), (1, 1));
}
