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

/// Declares the daemon's counters and gauges once. From that one list it
/// emits [`Metrics`] (a named `AtomicU64` per counter), [`MetricsSnapshot`]
/// (every counter, then every gauge, in wire order),
/// [`Metrics::snapshot`], the snapshot's field walk that the `STATS` codec
/// renders and parses, and its text: one `name: value` line per field,
/// with the name's underscores read as spaces. Each gauge names how
/// `snapshot` reads it from the metrics block and its own arguments.
macro_rules! serve_metrics {
    (
        counters {
            $($(#[$counter_meta:meta])* $counter:ident,)*
        }
        gauges($metrics:ident, $($arg:ident),*) {
            $($(#[$gauge_meta:meta])* $gauge:ident = $read:expr,)*
        }
    ) => {
        /// All serving-path counters. One instance lives for the daemon's
        /// lifetime; snapshots are taken for the `STATS` verb and
        /// `--stats`.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $($(#[$counter_meta])* pub $counter: AtomicU64,)*
            /// Per-request wall-clock latency.
            pub latency: Histogram,
        }

        /// A point-in-time copy of [`Metrics`], plus store and latency
        /// gauges, for rendering.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[$counter_meta])* pub $counter: u64,)*
            $($(#[$gauge_meta])* pub $gauge: u64,)*
        }

        impl Metrics {
            /// Snapshots every counter and reads every gauge, the store's
            /// from the caller-supplied values.
            pub fn snapshot(&self, $($arg: u64),*) -> MetricsSnapshot {
                let $metrics = self;
                MetricsSnapshot {
                    $($counter: $metrics.$counter.load(Ordering::Relaxed),)*
                    $($gauge: $read,)*
                }
            }
        }

        impl MetricsSnapshot {
            /// Every field as `(name, value)`, in wire order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [
                    $((stringify!($counter), self.$counter),)*
                    $((stringify!($gauge), self.$gauge),)*
                ]
                .into_iter()
            }

            /// Rebuilds a snapshot from `read`, which answers each field's
            /// value by name; `None` when any field is missing.
            pub fn from_fields(
                mut read: impl FnMut(&str) -> Option<u64>,
            ) -> Option<MetricsSnapshot> {
                Some(MetricsSnapshot {
                    $($counter: read(stringify!($counter))?,)*
                    $($gauge: read(stringify!($gauge))?,)*
                })
            }
        }
    };
}

serve_metrics! {
    counters {
        /// Synthesis requests received (any outcome).
        requests,
        /// Requests answered from the in-memory/store index without
        /// scheduling work.
        hits,
        /// Requests that scheduled a cold synthesis job.
        misses,
        /// Requests that found their class already being synthesized and
        /// joined the in-flight job instead of scheduling a duplicate.
        inflight_dedup,
        /// Times a worker actually constructed and ran a synthesis engine.
        /// The acceptance criterion for store-served repeats: this stays
        /// flat while hits climb.
        engine_invocations,
        /// Requests bounced by admission control (work queue full).
        rejected,
        /// Requests that ended in an error (synthesis failure, worker
        /// panic), plus store write-through failures that survived their
        /// retry.
        errors,
        /// Connections reaped because a socket read or write hit its
        /// configured timeout (slow-loris, dead or idle clients).
        socket_timeouts,
        /// Connections refused at accept because the concurrent-connection
        /// cap was reached (the client gets a retryable `overloaded` line).
        connections_refused,
        /// Store compactions completed via the `compact` verb.
        compactions,
        /// Total bytes reclaimed by those compactions.
        reclaimed_bytes,
        /// Requests that carried a `retry` header ≥ 1 — client-observed
        /// retries, as reported by `qsyn query`'s backoff loop.
        client_retries,
    }
    gauges(metrics, store_records, store_bytes) {
        /// Records in the circuit database (memory index size when no disk
        /// store is attached).
        store_records = store_records,
        /// Committed bytes of the store file (0 without a disk store).
        store_bytes = store_bytes,
        /// Median request latency (µs; see [`Histogram::percentile`]).
        p50_us = metrics.latency.percentile(50.0),
        /// 90th-percentile request latency (µs).
        p90_us = metrics.latency.percentile(90.0),
        /// 99th-percentile request latency (µs).
        p99_us = metrics.latency.percentile(99.0),
    }
}

impl Metrics {
    /// A fresh, all-zero metrics block.
    pub fn new() -> Metrics {
        Metrics::default()
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
        let mut sep = "";
        for (name, value) in self.fields() {
            write!(f, "{sep}{}: {value}", name.replace('_', " "))?;
            sep = "\n";
        }
        Ok(())
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
        assert!(text.lines().any(|l| l == "requests: 2"), "{text}");
        assert!(text.lines().any(|l| l == "store records: 7"), "{text}");
    }
}
