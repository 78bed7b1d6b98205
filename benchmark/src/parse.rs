//! Parsers for the human-readable output of `qsyn bench` and `qsyn batch`.
//! The benchmark reads the program's answers exactly as a user sees them.

/// The first line of `qsyn bench <f> --output-permutation`:
/// `minimal gates: 5 (output permutation [2, 0, 1]), 3 solutions, 14.7ms`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchSummary {
    /// Minimal gate count.
    pub depth: u32,
    /// Circuit output line driving each spec line.
    pub permutation: Vec<u32>,
    /// Solution count as printed (`"N"`, or `"≥N"` for a lower bound).
    pub solutions: String,
}

/// Parses a `[a, b, c]` permutation list.
fn parse_list(s: &str) -> Option<Vec<u32>> {
    let inner = s.trim().strip_prefix('[')?.strip_suffix(']')?;
    inner
        .split(',')
        .filter(|t| !t.trim().is_empty())
        .map(|t| t.trim().parse().ok())
        .collect()
}

/// Parses the `bench` summary line; `None` when it is not one.
pub fn parse_bench_summary(line: &str) -> Option<BenchSummary> {
    let rest = line.strip_prefix("minimal gates: ")?;
    let (depth, rest) = rest.split_once(" (output permutation ")?;
    let (perm, rest) = rest.split_once("), ")?;
    let (solutions, _) = rest.split_once(" solutions")?;
    Some(BenchSummary {
        depth: depth.parse().ok()?,
        permutation: parse_list(perm)?,
        solutions: solutions.to_string(),
    })
}

/// A `Duration` printed with `{:.1?}` (`26.4ms`, `350.0µs`, `1.2s`), in
/// milliseconds.
pub fn parse_duration_ms(s: &str) -> Option<f64> {
    let (number, scale) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1e-6)
    } else if let Some(n) = s.strip_suffix("µs") {
        (n, 1e-3)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1.0)
    } else {
        (s.strip_suffix('s')?, 1e3)
    };
    number.parse::<f64>().ok().map(|v| v * scale)
}

/// One job row of the `batch` table.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchRow {
    /// Job name (the spec file stem).
    pub name: String,
    /// `(depth, solutions, permutation)`; `None` for a failed job.
    pub answer: Option<(u32, String, Vec<u32>)>,
    /// Time the job spent in its worker.
    pub elapsed_ms: f64,
}

/// Parses one `batch` table row
/// (`j00001           5         2 [2, 0, 1]        24.2ms  ok`);
/// `None` for the header, the summary and warnings.
pub fn parse_batch_row(line: &str) -> Option<BatchRow> {
    let mut tokens = line.split_whitespace();
    let name = tokens.next()?.to_string();
    let depth = tokens.next()?;
    if depth == "-" {
        // Failed row: `name - - - time  error: …`.
        let rest: Vec<&str> = tokens.collect();
        if rest.len() < 4 || rest[0] != "-" || rest[1] != "-" {
            return None;
        }
        return Some(BatchRow {
            name,
            answer: None,
            elapsed_ms: parse_duration_ms(rest[2])?,
        });
    }
    let depth: u32 = depth.parse().ok()?;
    let solutions = tokens.next()?.to_string();
    let open = line.find('[')?;
    let close = line.find(']')?;
    let permutation = parse_list(&line[open..=close])?;
    let mut tail = line[close + 1..].split_whitespace();
    let elapsed_ms = parse_duration_ms(tail.next()?)?;
    if tail.next()? != "ok" {
        return None;
    }
    Some(BatchRow {
        name,
        answer: Some((depth, solutions, permutation)),
        elapsed_ms,
    })
}

/// The `batch` summary line's counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchSummary {
    /// Jobs in the batch.
    pub jobs: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Class-cache hits and misses (zero when the cache is off).
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
}

/// Parses `1500 jobs, 1500 ok, 0 failed in 5.8s (BDD engine, 2 workers,
/// cache 149 hits / 1351 misses)`.
pub fn parse_batch_summary(line: &str) -> Option<BatchSummary> {
    let (jobs, rest) = line.split_once(" jobs, ")?;
    let (_, rest) = rest.split_once(" ok, ")?;
    let (failed, rest) = rest.split_once(" failed in ")?;
    let (cache_hits, cache_misses) = match rest.split_once("cache ") {
        Some((_, c)) => {
            let (hits, c) = c.split_once(" hits / ")?;
            let (misses, _) = c.split_once(" misses")?;
            (hits.parse().ok()?, misses.parse().ok()?)
        }
        None => (0, 0),
    };
    Some(BatchSummary {
        jobs: jobs.parse().ok()?,
        failed: failed.parse().ok()?,
        cache_hits,
        cache_misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_summary_lines() {
        assert_eq!(
            parse_bench_summary(
                "minimal gates: 5 (output permutation [2, 0, 1]), 3 solutions, 14.738407ms"
            ),
            Some(BenchSummary {
                depth: 5,
                permutation: vec![2, 0, 1],
                solutions: "3".to_string(),
            })
        );
        let sat = parse_bench_summary(
            "minimal gates: 4 (output permutation [0, 1, 3, 2]), ≥1 solutions, 78.6ms",
        )
        .unwrap();
        assert_eq!(sat.solutions, "≥1");
        assert_eq!(sat.permutation, vec![0, 1, 3, 2]);
        assert_eq!(parse_bench_summary(".numvars 3"), None);
    }

    #[test]
    fn durations_in_every_unit() {
        assert_eq!(parse_duration_ms("26.4ms"), Some(26.4));
        assert_eq!(parse_duration_ms("1.5s"), Some(1500.0));
        assert!((parse_duration_ms("350.0µs").unwrap() - 0.35).abs() < 1e-12);
        assert!((parse_duration_ms("500.0ns").unwrap() - 0.0005).abs() < 1e-12);
        assert_eq!(parse_duration_ms("fast"), None);
    }

    #[test]
    fn batch_rows_and_summary() {
        let ok =
            parse_batch_row("j00001           5         2 [2, 0, 1]        24.2ms  ok").unwrap();
        assert_eq!(ok.name, "j00001");
        assert_eq!(ok.answer, Some((5, "2".to_string(), vec![2, 0, 1])));
        assert_eq!(ok.elapsed_ms, 24.2);
        let failed =
            parse_batch_row("j00002           -         - -                 1.0s  error: budget")
                .unwrap();
        assert_eq!(failed.answer, None);
        assert_eq!(failed.elapsed_ms, 1000.0);
        assert_eq!(
            parse_batch_row("name         gates solutions permutation         time  status"),
            None
        );
        let summary = "1500 jobs, 1500 ok, 0 failed in 5.8s (BDD engine, 2 workers, \
                       cache 149 hits / 1351 misses)";
        assert_eq!(parse_batch_row(summary), None);
        assert_eq!(
            parse_batch_summary(summary),
            Some(BatchSummary {
                jobs: 1500,
                failed: 0,
                cache_hits: 149,
                cache_misses: 1351,
            })
        );
    }
}
