//! Seeded fault injection at the `store.append` site.
//!
//! Built only with `--features faults` (a separate test binary so arming
//! the process-global fault plane cannot race the crate's unit tests).
//! The contract `cargo xtask chaos` relies on: a faulted write surfaces
//! as a **retryable** error before any byte reaches the log, a retry
//! succeeds, and the store stays fully consistent.

#![cfg(feature = "faults")]

use qsyn_faults::FaultPlane;
use qsyn_revlogic::{Permutation, Spec};
use qsyn_store::{PutOutcome, Store, StoreError, StoredCircuit};
use std::sync::{Mutex, MutexGuard};

/// The plane is process-global and the test harness runs these tests on
/// parallel threads; serialize the tests that arm it.
static PLANE_TESTS: Mutex<()> = Mutex::new(());

fn plane_lock() -> MutexGuard<'static, ()> {
    PLANE_TESTS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Three distinct single-gate functions, each with its realizing circuit.
const JOBS: [(&[u32; 4], &str); 3] = [
    (&[0, 3, 2, 1], "t2 x1 x2"), // CNOT, control x1
    (&[0, 1, 3, 2], "t2 x2 x1"), // CNOT, control x2
    (&[1, 0, 3, 2], "t1 x1"),    // NOT x1
];

fn record(job: usize, name: &str) -> StoredCircuit {
    let (map, gate) = JOBS[job];
    let spec = Spec::from_permutation(&Permutation::from_map(2, map.to_vec()));
    StoredCircuit::for_spec(
        &spec,
        "MCT",
        name,
        1,
        1,
        1,
        true,
        vec![0, 1],
        format!(".numvars 2\n.variables x1 x2\n.begin\n{gate}\n.end\n"),
    )
}

#[test]
fn injected_append_fault_is_retryable_and_never_corrupts() {
    let _plane = plane_lock();
    let path =
        std::env::temp_dir().join(format!("qsyn-store-faults-{}.qstore", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let mut injected = 0usize;
    for seed in 1..=32u64 {
        let _ = std::fs::remove_file(&path);
        let mut store = Store::open(&path).expect("open fresh store");
        FaultPlane::arm(seed);
        for i in 0..JOBS.len() {
            let r = record(i, &format!("job-{i}"));
            let bytes_before = store.file_bytes();
            match store.put(r.clone()) {
                Ok(PutOutcome::Inserted) => {}
                Ok(out) => panic!("fresh record reported {out:?}"),
                Err(e) => {
                    assert!(
                        matches!(e, StoreError::Injected),
                        "seed {seed}: unexpected error {e}"
                    );
                    assert!(e.is_retryable(), "injected fault must be retryable");
                    // Nothing was written: the log is byte-for-byte where
                    // it was, and one retry lands the record.
                    assert_eq!(store.file_bytes(), bytes_before);
                    injected += 1;
                    assert_eq!(
                        store.put(r).expect("retry after injected fault"),
                        PutOutcome::Inserted
                    );
                }
            }
        }
        FaultPlane::disarm();
        store.verify().expect("store consistent after injection");
        assert_eq!(store.len(), 3);
        drop(store);
        // And a reopen sees a clean, whole log.
        let store = Store::open(&path).expect("reopen");
        assert_eq!(store.truncated_tail_bytes(), 0);
        assert_eq!(store.len(), 3);
        store.verify().expect("store consistent after reopen");
    }
    assert!(
        injected > 0,
        "no seed in 1..=32 fired the store.append site — trigger window drifted?"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn injected_compaction_fault_is_retryable_and_loses_nothing() {
    let _plane = plane_lock();
    let path = std::env::temp_dir().join(format!(
        "qsyn-store-faults-compact-{}.qstore",
        std::process::id()
    ));
    let mut injected = 0usize;
    for seed in 1..=32u64 {
        let _ = std::fs::remove_file(&path);
        let mut store = Store::open(&path).expect("open fresh store");
        // Build a log where every class was superseded once, then arm
        // the plane and compact: an injected fault must surface before
        // any byte moves, with a retry reclaiming the dead bytes.
        for i in 0..JOBS.len() {
            store.put(record(i, "cold")).expect("cold put");
            store
                .put_superseding(record(i, "warm"))
                .expect("superseding put");
        }
        let dead = store.dead_bytes();
        assert!(dead > 0);
        let bytes_before = store.file_bytes();
        FaultPlane::arm(seed);
        let report = match store.compact() {
            Ok(report) => report,
            Err(e) => {
                assert!(
                    matches!(e, StoreError::Injected),
                    "seed {seed}: unexpected error {e}"
                );
                assert!(e.is_retryable(), "injected compaction fault must retry");
                // The log and the index are untouched: same bytes, same
                // dead count, and the retry reclaims them.
                assert_eq!(store.file_bytes(), bytes_before);
                assert_eq!(store.dead_bytes(), dead);
                injected += 1;
                store.compact().expect("retry after injected fault")
            }
        };
        FaultPlane::disarm();
        assert_eq!(report.reclaimed(), dead);
        assert_eq!(store.dead_bytes(), 0);
        store.verify().expect("store consistent after compaction");
        for i in 0..JOBS.len() {
            let r = record(i, "warm");
            let spec = r.spec().expect("stored rows form a spec");
            assert_eq!(
                store.get(&spec, "MCT").expect("get after compact"),
                Some(&r),
                "seed {seed}: superseding record must survive compaction"
            );
        }
        drop(store);
        let store = Store::open(&path).expect("reopen");
        assert_eq!(store.truncated_tail_bytes(), 0);
        assert_eq!(store.dead_bytes(), 0);
        assert_eq!(store.len(), 3);
        store.verify().expect("store consistent after reopen");
    }
    assert!(
        injected > 0,
        "no seed in 1..=32 fired the store.compact site — trigger window drifted?"
    );
    let _ = std::fs::remove_file(&path);
}
