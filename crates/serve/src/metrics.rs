//! Serving-path observability: request counters and latency histograms.
//!
//! Counters are lock-free (`Relaxed` atomics — they are statistics, no
//! other memory depends on their order) so the hot hit path never takes a
//! metrics lock. Latencies go into a log-linear histogram: each power of
//! two is split into 16 equal sub-buckets, so a reported percentile is
//! within 1/16 of the sample it stands for, the array is fixed-size, and
//! a sample is recorded with one atomic increment.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power of two, as a bit count: `2^SUB_BITS = 16`.
const SUB_BITS: u32 = 4;
/// Sub-buckets per power of two.
const SUB: usize = 1 << SUB_BITS;
/// Samples of `2^MAX_BITS` µs (~12 days, far beyond any request
/// deadline) and more share the last bucket.
const MAX_BITS: u32 = 40;
/// Values below `SUB` get one exact bucket each; every octave
/// `[2^e, 2^(e+1))` for `SUB_BITS <= e < MAX_BITS` gets `SUB` more.
const BUCKETS: usize = SUB * (MAX_BITS - SUB_BITS + 1) as usize;

/// The bucket holding a sample of `micros`.
fn bucket_of(micros: u64) -> usize {
    if micros < SUB as u64 {
        return micros as usize;
    }
    let octave = 63 - micros.leading_zeros();
    if octave >= MAX_BITS {
        return BUCKETS - 1;
    }
    // The top SUB_BITS + 1 bits: the leading 1, then the sub-bucket.
    let top = (micros >> (octave - SUB_BITS)) as usize;
    (octave - SUB_BITS + 1) as usize * SUB + (top - SUB)
}

/// The largest sample (µs) that lands in bucket `idx`.
fn bucket_max(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let shift = (idx / SUB - 1) as u32;
    let lower = ((SUB + idx % SUB) as u64) << shift;
    lower + (1u64 << shift) - 1
}

/// A log-linear latency histogram over microseconds: exact below 16 µs,
/// then 16 sub-buckets per power of two.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// A histogram with every bucket empty.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one sample of `micros` microseconds.
    pub fn record(&self, micros: u64) {
        self.buckets[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The largest value (in microseconds) of the bucket holding the
    /// `p`-th percentile sample by nearest rank, or 0 when the histogram
    /// is empty. At least that sample and at most 1/16 above it. `p` is
    /// in `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_max(i);
            }
        }
        bucket_max(BUCKETS - 1)
    }
}

/// All serving-path counters. One instance lives for the daemon's
/// lifetime; snapshots are taken for the `STATS` verb and `--stats`.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Synthesis requests received (any outcome).
    pub requests: AtomicU64,
    /// Requests answered from the in-memory/store index without
    /// scheduling work.
    pub hits: AtomicU64,
    /// Requests that scheduled a cold synthesis job.
    pub misses: AtomicU64,
    /// Requests that found their class already being synthesized and
    /// joined the in-flight job instead of scheduling a duplicate.
    pub inflight_dedup: AtomicU64,
    /// Times a worker actually constructed and ran a synthesis engine.
    /// The acceptance criterion for store-served repeats: this stays flat
    /// while hits climb.
    pub engine_invocations: AtomicU64,
    /// Requests bounced by admission control (work queue full).
    pub rejected: AtomicU64,
    /// Requests that ended in an error (synthesis failure, worker panic),
    /// plus store write-through failures that survived their retry.
    pub errors: AtomicU64,
    /// Connections reaped because a socket read or write hit its
    /// configured timeout (slow-loris, dead or idle clients).
    pub socket_timeouts: AtomicU64,
    /// Connections refused at accept because the concurrent-connection
    /// cap was reached (the client gets a retryable `overloaded` line).
    pub connections_refused: AtomicU64,
    /// Store compactions completed via the `compact` verb.
    pub compactions: AtomicU64,
    /// Total bytes reclaimed by those compactions.
    pub reclaimed_bytes: AtomicU64,
    /// Requests that carried a `retry` header ≥ 1 — client-observed
    /// retries, as reported by `qsyn query`'s backoff loop.
    pub client_retries: AtomicU64,
    /// Per-request wall-clock latency.
    pub latency: Histogram,
}

/// A point-in-time copy of [`Metrics`], plus store gauges, for rendering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// See [`Metrics::requests`].
    pub requests: u64,
    /// See [`Metrics::hits`].
    pub hits: u64,
    /// See [`Metrics::misses`].
    pub misses: u64,
    /// See [`Metrics::inflight_dedup`].
    pub inflight_dedup: u64,
    /// See [`Metrics::engine_invocations`].
    pub engine_invocations: u64,
    /// See [`Metrics::rejected`].
    pub rejected: u64,
    /// See [`Metrics::errors`].
    pub errors: u64,
    /// See [`Metrics::socket_timeouts`].
    pub socket_timeouts: u64,
    /// See [`Metrics::connections_refused`].
    pub connections_refused: u64,
    /// See [`Metrics::compactions`].
    pub compactions: u64,
    /// See [`Metrics::reclaimed_bytes`].
    pub reclaimed_bytes: u64,
    /// See [`Metrics::client_retries`].
    pub client_retries: u64,
    /// Records in the circuit database (memory index size when no disk
    /// store is attached).
    pub store_records: u64,
    /// Committed bytes of the store file (0 without a disk store).
    pub store_bytes: u64,
    /// Median request latency (µs; see [`Histogram::percentile`]).
    pub p50_us: u64,
    /// 90th-percentile request latency (µs).
    pub p90_us: u64,
    /// 99th-percentile request latency (µs).
    pub p99_us: u64,
}

impl Metrics {
    /// A fresh, all-zero metrics block.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Snapshots every counter, attaching the caller-supplied store
    /// gauges.
    pub fn snapshot(&self, store_records: u64, store_bytes: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inflight_dedup: self.inflight_dedup.load(Ordering::Relaxed),
            engine_invocations: self.engine_invocations.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            socket_timeouts: self.socket_timeouts.load(Ordering::Relaxed),
            connections_refused: self.connections_refused.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            reclaimed_bytes: self.reclaimed_bytes.load(Ordering::Relaxed),
            client_retries: self.client_retries.load(Ordering::Relaxed),
            store_records,
            store_bytes,
            p50_us: self.latency.percentile(50.0),
            p90_us: self.latency.percentile(90.0),
            p99_us: self.latency.percentile(99.0),
        }
    }

    /// Bumps a counter by one (`Relaxed`; statistics only).
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Bumps a counter by `n` (`Relaxed`; statistics only) — byte totals
    /// like reclaimed-bytes gauges.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests: {} ({} hits, {} misses, {} deduped in-flight, {} rejected, {} errors)",
            self.requests, self.hits, self.misses, self.inflight_dedup, self.rejected, self.errors
        )?;
        writeln!(f, "engine invocations: {}", self.engine_invocations)?;
        writeln!(
            f,
            "connections: {} timed out, {} refused at the cap; {} client retries observed",
            self.socket_timeouts, self.connections_refused, self.client_retries
        )?;
        writeln!(
            f,
            "store: {} records, {} bytes; {} compactions reclaimed {} bytes",
            self.store_records, self.store_bytes, self.compactions, self.reclaimed_bytes
        )?;
        write!(
            f,
            "latency: p50 ≤ {}µs, p90 ≤ {}µs, p99 ≤ {}µs",
            self.p50_us, self.p90_us, self.p99_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.percentile(99.0), 0);
    }

    #[test]
    fn percentiles_walk_the_buckets() {
        let h = Histogram::new();
        // 90 fast samples (8µs), 10 slow (1030µs, bucket [1024, 1088)).
        for _ in 0..90 {
            h.record(8);
        }
        for _ in 0..10 {
            h.record(1030);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(50.0), 8); // exact below 16µs
        assert_eq!(h.percentile(90.0), 8);
        assert_eq!(h.percentile(99.0), 1087); // bucket [1024, 1088)
    }

    #[test]
    fn zero_latency_lands_in_the_first_bucket() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.percentile(100.0), 1);
    }

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        assert_eq!(bucket_of(0), 0);
        for idx in 1..BUCKETS {
            let first = bucket_max(idx - 1) + 1;
            assert_eq!(bucket_of(first), idx, "first value of bucket {idx}");
            assert_eq!(
                bucket_of(bucket_max(idx)),
                idx,
                "last value of bucket {idx}"
            );
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_are_within_a_sixteenth_of_the_nearest_rank_sample() {
        let mut state = 0x5eed_u64;
        let mut next = || crate::splitmix64(&mut state);
        for round in 0..50 {
            // Log-uniform samples from 0 µs to ~17 min: every octave the
            // daemon can see, hits and misses alike.
            let n = 1 + (next() % 500) as usize;
            let mut samples: Vec<u64> = (0..n)
                .map(|_| {
                    let bits = next() % 31;
                    next() % (1u64 << bits).max(2)
                })
                .collect();
            let h = Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            samples.sort_unstable();
            for p in [50.0, 90.0, 99.0, 100.0] {
                let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
                let sample = samples[rank - 1];
                let reported = h.percentile(p);
                assert!(
                    reported >= sample && (reported - sample) * 16 <= sample,
                    "round {round} p{p}: reported {reported} for sample {sample}"
                );
            }
        }
    }

    #[test]
    fn snapshot_copies_counters_and_gauges() {
        let m = Metrics::new();
        Metrics::inc(&m.requests);
        Metrics::inc(&m.requests);
        Metrics::inc(&m.hits);
        m.latency.record(5);
        let s = m.snapshot(7, 4096);
        assert_eq!(s.requests, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.store_records, 7);
        assert_eq!(s.store_bytes, 4096);
        assert!(s.p50_us > 0);
        let text = s.to_string();
        assert!(text.contains("2 ("), "{text}");
        assert!(text.contains("7 records"), "{text}");
    }
}
