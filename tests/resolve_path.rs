//! One resolve path across callers: the records `qsyn batch --store`
//! writes answer the daemon, and the records the daemon's `--preload`
//! writes answer `qsyn batch --store`. Both go through the same record
//! derivation and permutation composition, so either side replays the
//! other's records without an engine.

use qsyn::cli::{run, Command};
use qsyn::revlogic::{benchmarks, real, Spec};
use qsyn::serve::{ServeConfig, ServeCore, Source};
use qsyn::store::Store;
use qsyn::synth::permuted::permute_spec;
use std::path::{Path, PathBuf};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qsyn-resolve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn batch_with_store(list: &Path, db: &Path) -> String {
    let cmd = Command::parse([
        "batch",
        list.to_str().unwrap(),
        "--store",
        db.to_str().unwrap(),
    ])
    .unwrap();
    let mut buf = Vec::new();
    assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
    String::from_utf8(buf).unwrap()
}

fn daemon_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_depth: 8,
        ..ServeConfig::default()
    }
}

fn bench(name: &str) -> Spec {
    benchmarks::by_name(name).unwrap().spec
}

/// The circuit, read through the permutation, reproduces `spec` on every
/// cared bit.
fn realizes(spec: &Spec, circuit: &str, permutation: &[u32]) -> bool {
    let circuit = real::parse_real(circuit).unwrap();
    (0..spec.num_rows() as u32).all(|row| {
        let out = circuit.simulate(row);
        let sr = spec.row(row);
        permutation
            .iter()
            .enumerate()
            .all(|(j, &p)| sr.care & (1 << j) == 0 || (out >> p) & 1 == (sr.value >> j) & 1)
    })
}

#[test]
fn batch_store_answers_the_daemon_for_every_class_member() {
    let dir = fresh_dir("batch-to-serve");
    let db = dir.join("circuits.store");
    let list = dir.join("jobs.txt");
    std::fs::write(&list, "3_17\n").unwrap();
    let text = batch_with_store(&list, &db);
    assert!(
        text.contains("store 0 hits / 1 misses (1 records)"),
        "{text}"
    );

    let core = ServeCore::start(&daemon_config(), Some(Store::open(&db).unwrap()));
    let spec = bench("3_17");
    let relabelings: [[u32; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for p in relabelings {
        let member = permute_spec(&spec, &p).unwrap();
        let served = core.request("member", &member).unwrap();
        assert_eq!(served.source, Source::Store, "relabeling {p:?}");
        assert_eq!(served.record.depth, 5, "relabeling {p:?}");
        assert!(
            realizes(&member, &served.record.circuit, &served.permutation),
            "relabeling {p:?}"
        );
    }
    assert_eq!(core.stop().engine_invocations, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_preload_answers_batch_store_with_all_store_hits() {
    let dir = fresh_dir("serve-to-batch");
    let db = dir.join("circuits.store");
    let names = ["3_17", "rd32-v0"];
    let jobs: Vec<(String, Spec)> = names.iter().map(|n| (n.to_string(), bench(n))).collect();
    let core = ServeCore::start(&daemon_config(), Some(Store::open(&db).unwrap()));
    assert_eq!(core.preload(&jobs), (2, 0));
    let depths: Vec<u32> = jobs
        .iter()
        .map(|(name, spec)| core.request(name, spec).unwrap().record.depth)
        .collect();
    core.stop();

    let list = dir.join("jobs.txt");
    std::fs::write(&list, format!("{}\n", names.join("\n"))).unwrap();
    let text = batch_with_store(&list, &db);
    assert!(text.contains("2 jobs, 2 ok, 0 failed"), "{text}");
    assert!(
        text.contains("store 2 hits / 0 misses (2 records)"),
        "{text}"
    );
    // Each row reports the depth the daemon stored.
    for (name, depth) in names.iter().zip(depths) {
        let row = text.lines().find(|l| l.starts_with(name)).unwrap();
        assert_eq!(
            row.split_whitespace().nth(1),
            Some(depth.to_string().as_str()),
            "{row}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
