//! `serve-mix`: the daemon under a closed loop of two clients.
//!
//! Each session starts `qsyn serve 127.0.0.1:0 --store <fresh> --jobs 1
//! --preload <dir> --preload-permute --stats` in-process through
//! `cli::run`, then two client threads send requests over
//! `qsyn_serve::roundtrip` — the transport `qsyn query` uses, one fresh
//! connection per request — each waiting for its reply before the next.
//! Every `Plan::miss_every`-th request asks for a function from an
//! output-relabeling class no one asked for before (a miss: queue, engine,
//! fsync'd store append); the rest ask for a preloaded function under a
//! seeded output relabeling (a hit: wire, accept loop, canonicalize,
//! index). The session ends with the `stats` and `shutdown` verbs.

use crate::oracle::{class_representatives, realizes, relabel, spec_of, Map3, Oracle, RELABELINGS};
use crate::report::{Layers, Outcome, Reps};
use crate::Rng;
use qsyn::cli::{self, Command};
use qsyn::portfolio::canonicalize;
use qsyn::revlogic::{real, spec_format};
use qsyn::serve::metrics::MetricsSnapshot;
use qsyn::serve::protocol;
use qsyn::serve::roundtrip;
use qsyn::store::{Store, StoredCircuit};
use qsyn::synth::permuted::synthesize_with_output_permutation_in;
use qsyn::synth::{CancelToken, SessionStats, SynthesisOptions, SynthesisSession};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Session count and traffic shape.
pub struct Plan {
    /// Daemon sessions per run; set-up time is their median.
    pub sessions: usize,
    /// Functions preloaded per session, each from its own class.
    pub preload: usize,
    /// Every `miss_every`-th request of a client is a miss.
    pub miss_every: usize,
    /// Per-client request cap per session (the session's time slice ends
    /// it first in a full run).
    pub max_requests: usize,
}

/// Closed-loop clients, the most the load may open at once.
const CLIENTS: usize = 2;
/// A session's clients run at least this long, even when set-up ate the
/// session's share of the budget.
const MIN_LOAD: Duration = Duration::from_secs(1);
/// The daemon must be listening within this long.
const LISTEN_TIMEOUT: Duration = Duration::from_secs(120);
/// Store puts timed in the traced run, so `store.put_us_p99` has ten
/// samples beyond it.
const MIN_PUTS: usize = 1000;

/// A `Write` sink that hands the daemon's output to the benchmark line by
/// line, so it can see `listening on <addr>` while `cli::run` blocks.
struct LineSender {
    tx: mpsc::Sender<String>,
    buf: Vec<u8>,
}

impl std::io::Write for LineSender {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(bytes);
        while let Some(i) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=i).collect();
            // The receiver may be gone after shutdown; output is advisory.
            let _ = self
                .tx
                .send(String::from_utf8_lossy(&line).trim_end().to_string());
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One answered request.
struct Sample {
    hit: bool,
    map: Map3,
    rtt_ms: f64,
    server_us: f64,
}

/// What one daemon session produced.
struct Session {
    setup_s: f64,
    load_s: f64,
    samples: Vec<Sample>,
    stats: MetricsSnapshot,
    store: PathBuf,
}

/// A client's request stream: hits are preloaded functions under a random
/// relabeling, misses walk the client's own pool of unseen classes.
fn request(
    rng: &mut Rng,
    k: usize,
    plan: &Plan,
    preload: &[Map3],
    misses: &[Map3],
) -> Option<(bool, Map3)> {
    let sigma = &RELABELINGS[rng.below(RELABELINGS.len())];
    if (k + 1).is_multiple_of(plan.miss_every) {
        let rep = misses.get(k / plan.miss_every)?;
        Some((false, relabel(rep, sigma)))
    } else {
        Some((true, relabel(&preload[rng.below(preload.len())], sigma)))
    }
}

/// Checks one reply against the oracle; `Err` is a failed request,
/// `Ok(Some(_))` a wrong answer.
fn check_reply(
    oracle: &Oracle,
    hit: bool,
    map: &Map3,
    reply: &str,
) -> Result<(f64, Option<String>), String> {
    let Some(r) = protocol::parse_synth_reply(reply) else {
        return Err(format!("request failed: {reply}"));
    };
    let want = oracle.class_min(map);
    let source = if hit { "store" } else { "engine" };
    let circuit = real::parse_real(&r.circuit).map_err(|e| e.to_string());
    let wrong = if r.source != source {
        Some(format!(
            "{map:?}: answered from {}, expected {source}",
            r.source
        ))
    } else if r.depth != want {
        Some(format!("{map:?}: depth {}, class minimum {want}", r.depth))
    } else if !circuit.is_ok_and(|c| realizes(&spec_of(map), &c, &r.permutation, want)) {
        Some(format!(
            "{map:?}: returned circuit does not realize the request"
        ))
    } else {
        None
    };
    Ok((r.elapsed_us as f64, wrong))
}

/// Runs one daemon session until `end` (at least [`MIN_LOAD`] of load).
fn session(
    plan: &Plan,
    oracle: &Oracle,
    rng: &mut Rng,
    classes: &[Map3],
    dir: &Path,
    end: Instant,
    out: &mut Outcome,
) -> Result<Session, String> {
    // Inputs: preloaded classes, then disjoint miss pools per client.
    let mut picks: Vec<usize> = (0..classes.len()).collect();
    rng.shuffle(&mut picks);
    let member =
        |rng: &mut Rng, i: usize| relabel(&classes[i], &RELABELINGS[rng.below(RELABELINGS.len())]);
    let preload: Vec<Map3> = picks[..plan.preload]
        .iter()
        .map(|&i| member(rng, i))
        .collect();
    let pools: Vec<Vec<Map3>> = (0..CLIENTS)
        .map(|c| {
            picks[plan.preload..]
                .iter()
                .skip(c)
                .step_by(CLIENTS)
                .map(|&i| classes[i])
                .collect()
        })
        .collect();
    let preload_dir = dir.join("preload");
    std::fs::create_dir_all(&preload_dir).map_err(|e| e.to_string())?;
    for (i, map) in preload.iter().enumerate() {
        std::fs::write(
            preload_dir.join(format!("p{i:04}.spec")),
            spec_format::write_spec(&spec_of(map)),
        )
        .map_err(|e| e.to_string())?;
    }
    let store = dir.join("circuits.store");
    let cmd = Command::parse([
        "serve",
        "127.0.0.1:0",
        "--store",
        &store.to_string_lossy(),
        "--jobs",
        "1",
        "--preload",
        &preload_dir.to_string_lossy(),
        "--preload-permute",
        "--stats",
    ])?;

    // Set-up: from cli::run(serve) to the `listening on` line.
    let (tx, rx) = mpsc::channel();
    let started = Instant::now();
    let server = std::thread::spawn(move || {
        let mut sink = LineSender {
            tx,
            buf: Vec::new(),
        };
        cli::run(&cmd, &mut sink)
    });
    let mut preloaded = None;
    let addr = loop {
        match rx.recv_timeout(LISTEN_TIMEOUT) {
            Ok(line) => {
                if let Some(a) = line.strip_prefix("listening on ") {
                    break a.to_string();
                }
                if line.starts_with("preloaded ") {
                    preloaded = Some(line);
                }
            }
            Err(e) => return Err(format!("daemon never listened ({e})")),
        }
    };
    let setup_s = started.elapsed().as_secs_f64();
    let want = format!("preloaded {} jobs (0 failed)", plan.preload);
    if preloaded.as_deref() != Some(want.as_str()) {
        out.mismatches
            .push(format!("preload reported {preloaded:?}, expected `{want}`"));
    }

    let end = end.max(Instant::now() + MIN_LOAD);
    let seeds: Vec<u64> = (0..CLIENTS).map(|_| rng.next_u64()).collect();
    let load_started = Instant::now();
    let results: Vec<(Vec<Sample>, u64, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, preload, pool) = (&addr, &preload, &pools[c]);
                let seed = seeds[c];
                scope.spawn(move || {
                    let mut rng = Rng::new(seed);
                    let (mut samples, mut failed, mut wrong) = (Vec::new(), 0u64, Vec::new());
                    for k in 0..plan.max_requests {
                        if k > 0 && Instant::now() >= end {
                            break;
                        }
                        let Some((hit, map)) = request(&mut rng, k, plan, preload, pool) else {
                            break;
                        };
                        let text = spec_format::write_spec(&spec_of(&map));
                        let line = protocol::render_synth_request(
                            Some(&format!("c{c}-{k}")),
                            Some(&text),
                            None,
                        );
                        let t = Instant::now();
                        let reply = roundtrip(addr, &line);
                        let rtt_ms = t.elapsed().as_secs_f64() * 1e3;
                        match reply
                            .map_err(|e| e.to_string())
                            .and_then(|r| check_reply(oracle, hit, &map, &r))
                        {
                            Ok((server_us, verdict)) => {
                                wrong.extend(verdict);
                                samples.push(Sample {
                                    hit,
                                    map,
                                    rtt_ms,
                                    server_us,
                                });
                            }
                            Err(e) => {
                                eprintln!("failed: {e}");
                                failed += 1;
                            }
                        }
                    }
                    (samples, failed, wrong)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let load_s = load_started.elapsed().as_secs_f64();

    let stats = roundtrip(&addr, &protocol::render_verb_request("stats"))
        .ok()
        .and_then(|l| protocol::parse_stats(&l))
        .ok_or("daemon did not answer `stats`")?;
    let closing = roundtrip(&addr, &protocol::render_verb_request("shutdown"))
        .map_err(|e| format!("shutdown: {e}"))?;
    if closing != protocol::render_closing() {
        return Err(format!("shutdown answered `{closing}`"));
    }
    match server.join() {
        Ok(Ok(0)) => {}
        other => return Err(format!("daemon exited with {other:?}")),
    }
    let mut samples = Vec::new();
    for (s, failed, wrong) in results {
        out.attempted += s.len() as u64 + failed;
        out.failed += failed;
        out.mismatches.extend(wrong);
        samples.extend(s);
    }
    Ok(Session {
        setup_s,
        load_s,
        samples,
        stats,
        store,
    })
}

/// Runs `plan.sessions` daemon sessions, each with an equal share of
/// `budget`; when traced, then times the store, canonicalization and the
/// miss searches from here.
///
/// # Errors
///
/// When a daemon cannot be started, answered or stopped.
pub fn run(
    plan: &Plan,
    oracle: &Oracle,
    seed: u64,
    budget: Duration,
    trace: bool,
    scratch: &Path,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let classes = class_representatives();
    let mut rng = Rng::new(seed);
    let mut out = Outcome::default();
    let mut reps = Reps::default();
    let mut sessions = Vec::new();
    for k in 0..plan.sessions {
        let end = started + budget.mul_f64((k + 1) as f64 / plan.sessions as f64);
        let dir = scratch.join(format!("session{k}"));
        let s = session(plan, oracle, &mut rng, &classes, &dir, end, &mut out)?;
        reps.setup(s.setup_s);
        let rtts: Vec<f64> = s.samples.iter().map(|x| x.rtt_ms).collect();
        reps.rep(s.load_s, &rtts);
        sessions.push(s);
    }
    out.metrics = if trace {
        let options = crate::options_of(&Command::parse(["serve", "127.0.0.1:0"])?)?;
        layers(&sessions, oracle, &options, scratch, &mut out)?.metrics()
    } else {
        reps.metrics()
    };
    Ok(out)
}

/// Per-layer metrics: the wire/server split from every reply's
/// `elapsed_us`, the daemon's own counters, then store, canonicalize and
/// search timings taken from here after the sessions.
fn layers(
    sessions: &[Session],
    oracle: &Oracle,
    options: &SynthesisOptions,
    scratch: &Path,
    out: &mut Outcome,
) -> Result<Layers, String> {
    let mut l = Layers::new();
    let samples: Vec<&Sample> = sessions.iter().flat_map(|s| &s.samples).collect();
    let pick = |hit: bool, f: fn(&Sample) -> f64| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.hit == hit)
            .map(|s| f(s))
            .collect()
    };
    let hit_rtt = pick(true, |s| s.rtt_ms);
    let miss_rtt = pick(false, |s| s.rtt_ms);
    l.set(
        "serve.hit_ms_p50",
        crate::stats::median(&hit_rtt),
        hit_rtt.len(),
    );
    l.set_percentile("serve.hit_ms_p99", &hit_rtt, 99.0);
    l.set(
        "serve.miss_ms_p50",
        crate::stats::median(&miss_rtt),
        miss_rtt.len(),
    );
    l.set_percentile("serve.miss_ms_p90", &miss_rtt, 90.0);
    let hit_server = pick(true, |s| s.server_us);
    let miss_server_ms: Vec<f64> = pick(false, |s| s.server_us / 1e3);
    // Replies carry whole microseconds and a hit takes a few, so the
    // median would read the same integer on every run: use the mean.
    let mean = hit_server.iter().sum::<f64>() / hit_server.len().max(1) as f64;
    l.set("serve.hit_server_us_mean", mean, hit_server.len());
    l.set(
        "serve.miss_server_ms_p50",
        crate::stats::median(&miss_server_ms),
        miss_server_ms.len(),
    );
    let wire: Vec<f64> = samples
        .iter()
        .map(|s| s.rtt_ms - s.server_us / 1e3)
        .collect();
    l.set("serve.wire_ms_p50", crate::stats::median(&wire), wire.len());
    l.set_percentile("serve.wire_ms_p99", &wire, 99.0);
    let n = sessions.len();
    let total =
        |f: fn(&MetricsSnapshot) -> u64| sessions.iter().map(|s| f(&s.stats)).sum::<u64>() as f64;
    l.set("serve.hits", total(|s| s.hits), n);
    l.set("serve.misses", total(|s| s.misses), n);
    l.set(
        "serve.engine_invocations",
        total(|s| s.engine_invocations),
        n,
    );
    l.set("serve.rejected", total(|s| s.rejected), n);
    l.set("serve.errors", total(|s| s.errors), n);

    let untraced_s: f64 = sessions.iter().map(|s| s.setup_s + s.load_s).sum();
    let probes_started = Instant::now();

    let mut canon_us = Vec::with_capacity(samples.len());
    for s in &samples {
        let spec = spec_of(&s.map);
        let t = Instant::now();
        std::hint::black_box(canonicalize(&spec));
        canon_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    l.set(
        "portfolio.canonicalize_us_p50",
        crate::stats::median(&canon_us),
        canon_us.len(),
    );

    // Store: open every session's final file, look every record up, then
    // append the run's records into scratch stores.
    let mut open_ms = Vec::new();
    let mut get_us = Vec::new();
    let mut records: Vec<StoredCircuit> = Vec::new();
    let (mut bytes, mut count) = (0u64, 0usize);
    for s in sessions {
        let t = Instant::now();
        let store = Store::open(&s.store).map_err(|e| e.to_string())?;
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        bytes += store.file_bytes();
        count += store.len();
        for r in store.records() {
            let spec = r.spec().map_err(|e| e.to_string())?;
            let t = Instant::now();
            let found = store.get(&spec, &r.config).map_err(|e| e.to_string())?;
            get_us.push(t.elapsed().as_secs_f64() * 1e6);
            if found.is_none() {
                out.mismatches
                    .push(format!("store lost record {:016x}", r.digest));
            }
            records.push(r.clone());
        }
    }
    l.set(
        "store.open_ms",
        crate::stats::median(&open_ms),
        open_ms.len(),
    );
    l.set(
        "store.get_us_p50",
        crate::stats::median(&get_us),
        get_us.len(),
    );
    if count > 0 {
        l.set("store.bytes_per_record", bytes as f64 / count as f64, count);
        let mut put_us = Vec::new();
        for round in 0..MIN_PUTS.div_ceil(records.len()) {
            let path = scratch.join(format!("puts{round}.store"));
            let mut store = Store::open(&path).map_err(|e| e.to_string())?;
            for r in &records {
                let t = Instant::now();
                store.put(r.clone()).map_err(|e| e.to_string())?;
                put_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        l.set(
            "store.put_us_p50",
            crate::stats::median(&put_us),
            put_us.len(),
        );
        l.set_percentile("store.put_us_p99", &put_us, 99.0);
    }

    // The miss path's search, once per miss, each in a fresh session.
    let mut searches = Vec::new();
    let mut merged = SessionStats::default();
    for s in samples.iter().filter(|s| !s.hit) {
        let canonical = canonicalize(&spec_of(&s.map)).spec;
        let mut session = SynthesisSession::new();
        let options = options.clone().with_cancel_token(CancelToken::new());
        let t = Instant::now();
        let p = synthesize_with_output_permutation_in(&canonical, &options, &mut session)
            .map_err(|e| e.to_string())?;
        searches.push((t.elapsed().as_secs_f64() * 1e3, p.stats));
        merged.merge(&session.stats());
        if p.result.depth() != oracle.class_min(&s.map) {
            out.mismatches
                .push(format!("traced search on {:?}: wrong depth", s.map));
        }
    }
    l.set_searches(&searches);
    l.set_sessions(&merged, searches.len());
    let probes_s = probes_started.elapsed().as_secs_f64();
    l.set("trace.overhead_frac", probes_s / untraced_s, samples.len());
    Ok(l)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two short sessions: a handful of preloaded classes, twenty requests
    /// per client, every fifth a miss.
    const MINI: Plan = Plan {
        sessions: 2,
        preload: 4,
        miss_every: 5,
        max_requests: 20,
    };

    #[test]
    fn miniature_sessions_untraced_and_traced() {
        let oracle = Oracle::build();
        for trace in [false, true] {
            let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join(format!("target/test-scratch/serve-{trace}"));
            let _ = std::fs::remove_dir_all(&dir);
            // A generous budget: the request cap, not the clock, ends it.
            let budget = Duration::from_secs(600);
            let out = run(&MINI, &oracle, 11, budget, trace, &dir).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            assert!(out.mismatches.is_empty(), "{:?}", out.mismatches);
            assert_eq!((out.attempted, out.failed), (80, 0));
            let get = |n: &str| out.metrics.iter().find(|m| m.name == n).unwrap().value();
            if trace {
                // The daemon counts its preload fills as misses too.
                assert_eq!(get("serve.hits"), 64.0);
                assert_eq!(get("serve.misses"), 16.0 + 8.0);
                assert_eq!(get("serve.engine_invocations"), 16.0 + 8.0);
                assert!(get("store.put_us_p50") > 0.0);
                assert!(get("store.put_us_p99") > 0.0);
                assert!(get("serve.wire_ms_p50") > 0.0);
            } else {
                assert!(get("setup_s") > 0.0);
                assert!(get("jobs_per_s") > 0.0);
            }
        }
    }
}
