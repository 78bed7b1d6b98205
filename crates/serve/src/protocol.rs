//! The wire protocol: newline-delimited JSON, one object per line.
//!
//! # Grammar
//!
//! Requests (client → daemon), discriminated by the `verb` field:
//!
//! ```text
//! {"verb":"synth","name":NAME?,"spec":SPEC_TEXT}   synthesize a .spec body
//! {"verb":"synth","bench":BENCH_NAME}              synthesize a Table 1 benchmark
//! {"verb":"stats"}                                 counters + latency percentiles
//! {"verb":"ping"}                                  liveness probe
//! {"verb":"compact"}                               compact the attached store
//! {"verb":"shutdown"}                              stop accepting, drain, exit
//! ```
//!
//! Any request may carry `"retry":N` (N ≥ 1) when it is the N-th retry
//! of an earlier attempt; the daemon counts these in its
//! `client_retries` metric. Unknown fields are ignored, so old daemons
//! tolerate new clients.
//!
//! Responses (daemon → client), one line per request, `ok` first:
//!
//! ```text
//! {"ok":true,"source":"store"|"engine","name":...,"depth":D,
//!  "solutions":"N"|"≥N","quantum_cost":QC,"permutation":"[r0, r1, …]",
//!  "circuit":REAL_TEXT,"elapsed_us":T}
//! {"ok":true,"requests":…,…,"p99_us":…}            (stats)
//! {"ok":true,"pong":1}                             (ping)
//! {"ok":true,"compacted":1,"bytes_before":…,"bytes_after":…,
//!  "reclaimed":…,"records":…}                      (compact)
//! {"ok":true,"closing":1}                          (shutdown acknowledge)
//! {"ok":false,"error":MESSAGE,"retryable":0|1}
//! ```
//!
//! Both sides use the batch journal's strict JSON codec
//! ([`qsyn_portfolio::json`]), and no JSON dependency: a request may be
//! spaced as any encoder likes, and a line that is not one object gets a
//! non-retryable error. The `permutation` is rendered in the journal's
//! `"[0, 1]"` debug form so journal and serve outputs are directly
//! comparable.

use crate::metrics::MetricsSnapshot;
use qsyn_portfolio::json::{Object, Value, Writer};

/// A parsed client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Synthesize a specification, given inline (`spec`, `.spec` format)
    /// or by Table 1 benchmark name (`bench`).
    Synth {
        /// Job label for replies and store records; defaults to the bench
        /// name or `"spec"`.
        name: Option<String>,
        /// Inline `.spec` text (mutually exclusive with `bench`).
        spec: Option<String>,
        /// Benchmark-suite name (mutually exclusive with `spec`).
        bench: Option<String>,
    },
    /// Report counters and latency percentiles.
    Stats,
    /// Liveness probe.
    Ping,
    /// Compact the attached circuit store, reclaiming superseded frames.
    Compact,
    /// Drain and stop the daemon.
    Shutdown,
}

/// The `"retry":N` header on `line`, if any: `Some(n)` with `n ≥ 1` when
/// the request declares itself the n-th retry of an earlier attempt.
pub fn retry_header(line: &str) -> Option<u64> {
    Object::parse(line)
        .ok()?
        .number("retry")
        .filter(|&n| n >= 1)
}

/// Appends a `"retry":N` header to an already-rendered request line (the
/// object's closing brace is spliced). The daemon counts these in its
/// `client_retries` metric; everything else about the request is
/// unchanged.
pub fn with_retry_header(line: &str, attempt: u64) -> String {
    match line.trim_end().strip_suffix('}') {
        Some(body) => format!("{body},\"retry\":{attempt}}}"),
        None => line.to_string(),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable message (rendered back over the wire with
/// [`render_error`]) when the line is not one JSON object, the verb is
/// missing or unknown, a known field has the wrong type, or `synth`
/// names neither a spec nor a benchmark.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let request = Object::parse(line)?;
    let string = |key: &str| match request.get(key) {
        None => Ok(None),
        Some(Value::String(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("\"{key}\" must be a string")),
    };
    let verb = string("verb")?.ok_or("missing \"verb\" field")?;
    match verb.as_str() {
        "synth" => {
            let spec = string("spec")?;
            let bench = string("bench")?;
            if spec.is_none() && bench.is_none() {
                return Err("synth needs a \"spec\" or a \"bench\" field".to_string());
            }
            if spec.is_some() && bench.is_some() {
                return Err("synth takes \"spec\" or \"bench\", not both".to_string());
            }
            Ok(Request::Synth {
                name: string("name")?,
                spec,
                bench,
            })
        }
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "compact" => Ok(Request::Compact),
        "shutdown" => Ok(Request::Shutdown),
        v => Err(format!("unknown verb {v:?}")),
    }
}

/// Renders a synth request line (the client side of [`parse_request`]).
pub fn render_synth_request(name: Option<&str>, spec: Option<&str>, bench: Option<&str>) -> String {
    let mut w = Writer::new().string("verb", "synth");
    for (key, value) in [("name", name), ("spec", spec), ("bench", bench)] {
        if let Some(value) = value {
            w = w.string(key, value);
        }
    }
    w.finish()
}

/// Renders a bare-verb request line (`stats`, `ping`, `shutdown`).
pub fn render_verb_request(verb: &str) -> String {
    Writer::new().string("verb", verb).finish()
}

/// A successful synthesis answer, wire-ready.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SynthReply {
    /// `"store"` when answered from the circuit database without any
    /// engine work this request, `"engine"` when synthesis ran (or was
    /// joined in flight).
    pub source: String,
    /// Job label.
    pub name: String,
    /// Minimal gate count.
    pub depth: u32,
    /// Solution count, `count_display` form (`"N"` or `"≥N"`).
    pub solutions: String,
    /// Quantum cost of the returned circuit.
    pub quantum_cost: u64,
    /// Output permutation for the *requested* spec: entry `j` is the
    /// circuit output line driving spec line `j`.
    pub permutation: Vec<u32>,
    /// The circuit, RevLib `.real` text.
    pub circuit: String,
    /// Request wall-clock latency in microseconds.
    pub elapsed_us: u64,
}

/// Renders a [`SynthReply`] as its response line.
pub fn render_synth_reply(r: &SynthReply) -> String {
    Writer::new()
        .bool("ok", true)
        .string("source", &r.source)
        .string("name", &r.name)
        .number("depth", r.depth)
        .string("solutions", &r.solutions)
        .number("quantum_cost", r.quantum_cost)
        .string("permutation", &format!("{:?}", r.permutation))
        .string("circuit", &r.circuit)
        .number("elapsed_us", r.elapsed_us)
        .finish()
}

/// Parses `line` as a reply whose `ok` field is `ok`.
fn reply(line: &str, ok: bool) -> Option<Object> {
    Object::parse(line)
        .ok()
        .filter(|r| r.get("ok") == Some(&Value::Bool(ok)))
}

/// Parses a synth response line (the client side of
/// [`render_synth_reply`]); `None` when the line is not a well-formed
/// success reply.
pub fn parse_synth_reply(line: &str) -> Option<SynthReply> {
    let r = reply(line, true)?;
    let permutation: Vec<u32> = r
        .str("permutation")?
        .trim_start_matches('[')
        .trim_end_matches(']')
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse().ok())
        .collect::<Option<_>>()?;
    Some(SynthReply {
        source: r.str("source")?.to_string(),
        name: r.str("name")?.to_string(),
        depth: r.number("depth")?,
        solutions: r.str("solutions")?.to_string(),
        quantum_cost: r.number("quantum_cost")?,
        permutation,
        circuit: r.str("circuit")?.to_string(),
        elapsed_us: r.number("elapsed_us")?,
    })
}

/// Renders an error response line.
pub fn render_error(message: &str, retryable: bool) -> String {
    Writer::new()
        .bool("ok", false)
        .string("error", message)
        .number("retryable", u8::from(retryable))
        .finish()
}

/// Parses an error response: `Some((message, retryable))`.
pub fn parse_error(line: &str) -> Option<(String, bool)> {
    let r = reply(line, false)?;
    Some((
        r.str("error")?.to_string(),
        r.number::<u64>("retryable")? != 0,
    ))
}

/// Renders the `stats` response line: every snapshot field, in wire order.
pub fn render_stats(s: &MetricsSnapshot) -> String {
    s.fields()
        .fold(Writer::new().bool("ok", true), |w, (name, value)| {
            w.number(name, value)
        })
        .finish()
}

/// Parses a `stats` response line back into a snapshot.
pub fn parse_stats(line: &str) -> Option<MetricsSnapshot> {
    let r = reply(line, true)?;
    MetricsSnapshot::from_fields(|name| r.number(name))
}

/// The `ping` acknowledgement line.
pub fn render_pong() -> String {
    Writer::new().bool("ok", true).number("pong", 1).finish()
}

/// Renders the `compact` acknowledgement line from a compaction report.
pub fn render_compacted(r: &qsyn_store::CompactionReport) -> String {
    Writer::new()
        .bool("ok", true)
        .number("compacted", 1)
        .number("bytes_before", r.bytes_before)
        .number("bytes_after", r.bytes_after)
        .number("reclaimed", r.reclaimed())
        .number("records", r.records)
        .finish()
}

/// Parses a `compact` acknowledgement back into a report.
pub fn parse_compacted(line: &str) -> Option<qsyn_store::CompactionReport> {
    let r = reply(line, true).filter(|r| r.number::<u64>("compacted") == Some(1))?;
    Some(qsyn_store::CompactionReport {
        bytes_before: r.number("bytes_before")?,
        bytes_after: r.number("bytes_after")?,
        records: r.number("records")?,
    })
}

/// The `shutdown` acknowledgement line.
pub fn render_closing() -> String {
    Writer::new().bool("ok", true).number("closing", 1).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qsyn_portfolio::json;

    #[test]
    fn requests_round_trip() {
        let line = render_synth_request(Some("job1"), Some(".numvars 2\nrows\n"), None);
        assert_eq!(
            parse_request(&line).unwrap(),
            Request::Synth {
                name: Some("job1".to_string()),
                spec: Some(".numvars 2\nrows\n".to_string()),
                bench: None,
            }
        );
        let line = render_synth_request(None, None, Some("3_17"));
        assert_eq!(
            parse_request(&line).unwrap(),
            Request::Synth {
                name: None,
                spec: None,
                bench: Some("3_17".to_string()),
            }
        );
        for verb in ["stats", "ping", "compact", "shutdown"] {
            let parsed = parse_request(&render_verb_request(verb)).unwrap();
            let expect = match verb {
                "stats" => Request::Stats,
                "ping" => Request::Ping,
                "compact" => Request::Compact,
                _ => Request::Shutdown,
            };
            assert_eq!(parsed, expect);
        }
    }

    #[test]
    fn retry_headers_splice_and_parse() {
        let line = render_synth_request(Some("job"), None, Some("3_17"));
        assert_eq!(retry_header(&line), None);
        let retried = with_retry_header(&line, 2);
        assert_eq!(retry_header(&retried), Some(2));
        // The spliced line still parses as the same request.
        assert_eq!(parse_request(&retried), parse_request(&line));
        // Verb-only requests splice too, and a zero header is not a retry.
        assert_eq!(
            retry_header(&with_retry_header(&render_verb_request("ping"), 1)),
            Some(1)
        );
        assert_eq!(
            retry_header(&with_retry_header(&render_verb_request("ping"), 0)),
            None
        );
    }

    #[test]
    fn compact_replies_round_trip() {
        let report = qsyn_store::CompactionReport {
            bytes_before: 4096,
            bytes_after: 1024,
            records: 7,
        };
        let line = render_compacted(&report);
        assert_eq!(parse_compacted(&line), Some(report));
        assert_eq!(parse_compacted(&render_pong()), None);
        assert_eq!(parse_synth_reply(&line), None);
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        assert!(parse_request("{}").unwrap_err().contains("verb"));
        assert!(parse_request("{\"verb\":\"nope\"}")
            .unwrap_err()
            .contains("nope"));
        assert!(parse_request("{\"verb\":\"synth\"}")
            .unwrap_err()
            .contains("spec"));
        assert!(
            parse_request("{\"verb\":\"synth\",\"spec\":\"x\",\"bench\":\"y\"}")
                .unwrap_err()
                .contains("not both")
        );
        for (line, reason) in [
            (r#""verb":"ping""#, "expected `{`"),
            (r#"{"verb":"ping"} garbage"#, "trailing bytes"),
            (
                r#"{"verb":"synth","bench":"3_17","bench":"rd32-v0"}"#,
                "duplicate key \"bench\"",
            ),
            (
                r#"{"verb":"synth","bench":"3_17","name":"\ud83d"}"#,
                "high surrogate",
            ),
            (
                r#"{"verb":"synth","bench":17}"#,
                "\"bench\" must be a string",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(reason), "{line}: {err:?} lacks {reason:?}");
        }
    }

    #[test]
    fn requests_from_other_json_encoders_parse() {
        assert_eq!(parse_request(r#"{"verb": "ping"}"#), Ok(Request::Ping));
        let bench = |name: Option<&str>| Request::Synth {
            name: name.map(str::to_string),
            spec: None,
            bench: Some("3_17".to_string()),
        };
        assert_eq!(
            parse_request(r#"{ "verb" : "synth", "bench" : "3_17" }"#),
            Ok(bench(None))
        );
        assert_eq!(
            parse_request(r#"{"verb":"synth","bench":"3_17","name":"\ud83d\ude00"}"#),
            Ok(bench(Some("😀")))
        );
        // Unknown scalar fields are ignored.
        assert_eq!(
            parse_request(r#"{"verb":"ping","client":"py","n":1.5,"x":false}"#),
            Ok(Request::Ping)
        );
        assert_eq!(retry_header(r#"{ "verb": "ping", "retry": 3 }"#), Some(3));
    }

    #[test]
    fn synth_replies_round_trip_with_escaped_text() {
        let reply = SynthReply {
            source: "store".to_string(),
            name: "rd32-v0".to_string(),
            depth: 4,
            solutions: "≥1".to_string(),
            quantum_cost: 12,
            permutation: vec![2, 0, 1],
            circuit: ".numvars 3\n.begin\nt2 x1 x2\n.end\n".to_string(),
            elapsed_us: 137,
        };
        let line = render_synth_reply(&reply);
        assert!(!line.contains('\n'), "one line per reply: {line}");
        assert_eq!(parse_synth_reply(&line), Some(reply));
        assert_eq!(parse_error(&line), None);
        // A depth past u32 is refused, not truncated to its low bits.
        let wide = line.replace("\"depth\":4,", "\"depth\":4294967301,");
        assert_ne!(wide, line);
        assert_eq!(parse_synth_reply(&wide), None);
    }

    #[test]
    fn errors_round_trip() {
        let line = render_error("queue full: 8 jobs pending", true);
        assert_eq!(
            parse_error(&line),
            Some(("queue full: 8 jobs pending".to_string(), true))
        );
        assert_eq!(parse_synth_reply(&line), None);
        let (_, retryable) = parse_error(&render_error("bad spec", false)).unwrap();
        assert!(!retryable);
    }

    #[test]
    fn stats_round_trip() {
        let snapshot = MetricsSnapshot {
            requests: 10,
            hits: 6,
            misses: 3,
            inflight_dedup: 1,
            engine_invocations: 3,
            rejected: 0,
            errors: 0,
            socket_timeouts: 2,
            connections_refused: 1,
            compactions: 1,
            reclaimed_bytes: 512,
            client_retries: 4,
            store_records: 3,
            store_bytes: 999,
            p50_us: 16,
            p90_us: 32,
            p99_us: 4096,
        };
        assert_eq!(parse_stats(&render_stats(&snapshot)), Some(snapshot));
    }

    /// One line of every shape the journal and the daemon write, pinned
    /// byte for byte: resumed journals and old clients read these.
    #[test]
    fn rendered_lines_are_pinned_byte_for_byte() {
        let record = qsyn_portfolio::JournalRecord {
            key: "3:rd32-v0:00c0ffee00c0ffee".to_string(),
            name: "we\"ird\\na\tme\u{1}".to_string(),
            depth: 4,
            solutions: "≥24".to_string(),
            permutation: "[2, 0, 1]".to_string(),
            elapsed_ns: 10_731_042,
            digest: "9f0a5b3c2d1e4f60".to_string(),
        };
        let synth = render_synth_request(Some("job\t1"), Some(".numvars 2\n.begin\n.end\n"), None);
        let reply = SynthReply {
            source: "engine".to_string(),
            name: "rd32-v0".to_string(),
            depth: 4,
            solutions: "≥1".to_string(),
            quantum_cost: 12,
            permutation: vec![2, 0, 1],
            circuit: ".numvars 3\n.variables a b c\n.begin\nt2 a b\nt3 a b c\n.end\n".to_string(),
            elapsed_us: 137,
        };
        let snapshot = MetricsSnapshot {
            requests: 10,
            hits: 6,
            misses: 3,
            inflight_dedup: 1,
            engine_invocations: 3,
            rejected: 0,
            errors: 2,
            socket_timeouts: 5,
            connections_refused: 1,
            compactions: 1,
            reclaimed_bytes: 512,
            client_retries: 4,
            store_records: 3,
            store_bytes: 999,
            p50_us: 16,
            p90_us: 32,
            p99_us: 4096,
        };
        let compacted = qsyn_store::CompactionReport {
            bytes_before: 4096,
            bytes_after: 1024,
            records: 7,
        };
        let bench = render_synth_request(None, None, Some("3_17"));
        let cases = [
            (
                qsyn_portfolio::journal::render_record(&record),
                r#"{"key":"3:rd32-v0:00c0ffee00c0ffee","name":"we\"ird\\na\tme\u0001","depth":4,"solutions":"≥24","permutation":"[2, 0, 1]","elapsed_ns":10731042,"digest":"9f0a5b3c2d1e4f60"}"#,
            ),
            (
                synth,
                r#"{"verb":"synth","name":"job\t1","spec":".numvars 2\n.begin\n.end\n"}"#,
            ),
            (bench.clone(), r#"{"verb":"synth","bench":"3_17"}"#),
            (render_verb_request("stats"), r#"{"verb":"stats"}"#),
            (
                with_retry_header(&bench, 2),
                r#"{"verb":"synth","bench":"3_17","retry":2}"#,
            ),
            (
                render_synth_reply(&reply),
                r#"{"ok":true,"source":"engine","name":"rd32-v0","depth":4,"solutions":"≥1","quantum_cost":12,"permutation":"[2, 0, 1]","circuit":".numvars 3\n.variables a b c\n.begin\nt2 a b\nt3 a b c\n.end\n","elapsed_us":137}"#,
            ),
            (
                render_error("bad spec: line 2: \"x\"", false),
                r#"{"ok":false,"error":"bad spec: line 2: \"x\"","retryable":0}"#,
            ),
            (
                render_stats(&snapshot),
                r#"{"ok":true,"requests":10,"hits":6,"misses":3,"inflight_dedup":1,"engine_invocations":3,"rejected":0,"errors":2,"socket_timeouts":5,"connections_refused":1,"compactions":1,"reclaimed_bytes":512,"client_retries":4,"store_records":3,"store_bytes":999,"p50_us":16,"p90_us":32,"p99_us":4096}"#,
            ),
            (render_pong(), r#"{"ok":true,"pong":1}"#),
            (
                render_compacted(&compacted),
                r#"{"ok":true,"compacted":1,"bytes_before":4096,"bytes_after":1024,"reclaimed":3072,"records":7}"#,
            ),
            (render_closing(), r#"{"ok":true,"closing":1}"#),
        ];
        for (rendered, pinned) in cases {
            assert_eq!(rendered, pinned);
        }
    }

    /// Strings biased toward what escaping must get right: control
    /// characters, quotes, backslashes and characters outside the BMP.
    fn awkward_string() -> impl Strategy<Value = String> {
        let code = prop_oneof![
            0u32..0x20,
            Just(u32::from('"')),
            Just(u32::from('\\')),
            0x20u32..0x7f,
            0x7fu32..0xd800,
            0xe000u32..0x10000,
            0x10000u32..0x110000,
        ];
        collection::vec(code, 0..24)
            .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
    }

    /// Text built from JSON fragments, so random inputs reach deep into
    /// the grammar instead of failing at the first byte.
    fn json_like_text() -> impl Strategy<Value = String> {
        const FRAGMENTS: &[&str] = &[
            "{",
            "}",
            "\"",
            ":",
            ",",
            " ",
            "\n",
            "\\",
            "\\u",
            "d83d",
            "\\ude00",
            "dc00",
            "0",
            "17",
            "-",
            ".",
            "e",
            "+",
            "true",
            "false",
            "null",
            "[",
            "]",
            "\"verb\"",
            "\"ping\"",
            "\"synth\"",
            "\"bench\"",
            "\"3_17\"",
            "😀",
            "\u{1}",
            "x",
        ];
        collection::vec(0..FRAGMENTS.len(), 0..40)
            .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any string and any `u64` survive render then parse exactly,
        /// in request and reply position alike.
        fn strings_and_integers_round_trip(
            text in awkward_string(),
            key in awkward_string(),
            n in any::<u64>(),
        ) {
            let line = json::Writer::new()
                .string("s", &text)
                .number("n", n)
                .object("o", json::Writer::new().string(&key, &text))
                .finish();
            prop_assert!(!line.contains('\n'), "one line: {}", line);
            let parsed = json::Object::parse(&line).unwrap();
            prop_assert_eq!(parsed.str("s"), Some(text.as_str()));
            prop_assert_eq!(parsed.number::<u64>("n"), Some(n));
            let Some(json::Value::Object(inner)) = parsed.get("o") else {
                panic!("nested object lost: {line}");
            };
            prop_assert_eq!(inner.str(&key), Some(text.as_str()));
            let request = render_synth_request(Some(&text), None, Some(&key));
            prop_assert_eq!(
                parse_request(&request),
                Ok(Request::Synth { name: Some(text.clone()), spec: None, bench: Some(key.clone()) })
            );
        }

        /// Parsing arbitrary text returns, never panics: the daemon
        /// parses client input on its connection threads.
        fn parsing_arbitrary_text_never_panics(
            fragments in json_like_text(),
            bytes in collection::vec(any::<u8>(), 0..64),
            cut in 0usize..64,
        ) {
            let raw = String::from_utf8_lossy(&bytes).into_owned();
            // A valid request with the fragments spliced in at `cut`.
            let valid = r#"{"verb":"synth","bench":"3_17","name":"\ud83d\ude00 \n","retry":2}"#;
            let spliced = format!("{}{fragments}{}", &valid[..cut], &valid[cut..]);
            for text in [fragments.as_str(), raw.as_str(), spliced.as_str()] {
                let _ = json::Object::parse(text);
                let _ = parse_request(text);
                let _ = retry_header(text);
                let _ = with_retry_header(text, 1);
                let _ = parse_synth_reply(text);
                let _ = parse_error(text);
                let _ = parse_stats(text);
                let _ = parse_compacted(text);
            }
        }
    }
}
