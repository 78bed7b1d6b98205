//! A daemon worker that panics mid-job answers that one request with
//! `WorkerPanicked` and keeps serving.
//!
//! A separate integration-test binary on purpose: the fault plane is
//! process-global, so arming it here cannot perturb any other test.

#![cfg(feature = "faults")]

use qsyn::revlogic::benchmarks;
use qsyn::serve::{ServeConfig, ServeCore, ServeError, Source};
use qsyn_faults::{FaultKind, FaultPlane, Site};

/// A schedule whose first fault is the `session.checkout` panic, fired
/// by the first miss's worker as it checks out a BDD manager.
const SEED: u64 = 7;

#[test]
fn serve_keeps_serving_after_a_worker_panic() {
    let spec = |name: &str| benchmarks::by_name(name).expect("built-in").spec;
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let core = ServeCore::start(&config, None);

    FaultPlane::arm(SEED);
    let first = core.request("rd32-v0", &spec("rd32-v0"));
    let fired = FaultPlane::fired();
    // The schedule's other one-shot faults (the BDD allocation site fires
    // on every seed) would fail the next miss for reasons of their own.
    FaultPlane::disarm();
    assert!(
        matches!(first, Err(ServeError::WorkerPanicked)),
        "{first:?}"
    );
    assert_eq!(fired, vec![(Site::SessionCheckout, FaultKind::Panic)]);

    // The same worker, with the same session, synthesizes the next miss.
    let next = core.request("3_17", &spec("3_17")).expect("the next miss");
    assert_eq!(next.source, Source::Engine);
    assert_eq!(
        next.record.depth, 5,
        "3_17's class minimum under output permutation"
    );
    // And the panicked class is not poisoned: asking again runs the engine.
    let retried = core
        .request("rd32-v0", &spec("rd32-v0"))
        .expect("a fresh run");
    assert_eq!(retried.record.depth, 4);

    let stats = core.stop();
    assert_eq!(stats.engine_invocations, 3);
}
