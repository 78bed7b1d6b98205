//! Crash-safe batch journaling.
//!
//! `qsyn batch --journal path` appends one record per **completed** job —
//! its key, the displayed result fields, and an FNV-1a digest of the
//! result — to a [`qsyn_store::log::Log`], the circuit store's framed,
//! checksummed, fsync'd log, under the magic [`MAGIC`]. A later run with
//! `--resume` replays the journal, skips every job whose key is present,
//! and reprints the stored row bit-identically (elapsed time included).
//!
//! # Format
//!
//! Each frame's payload is one JSON object written by [`render_record`]
//! and parsed by [`parse_record`] through the crate's JSON codec:
//!
//! ```json
//! {"key":"0:ham3:5bd5…","name":"ham3","depth":5,"solutions":"24",
//!  "permutation":"[0, 1, 2]","elapsed_ns":10731042,"digest":"9f0a…"}
//! ```
//!
//! Torn writes are the log's business: [`open_journal`] truncates from
//! the first frame that is torn, fails its checksum or does not parse,
//! and that job re-runs. The last record for a key wins. A file without
//! [`MAGIC`], such as an old JSONL journal, is refused and left untouched.
//!
//! # Key
//!
//! `index:name:digest`: the job's input position and name pin the row (a
//! batch can list the same benchmark twice), and the digest is
//! [`qsyn_store::spec_digest`] of the spec **as given** under the run's
//! configuration, the [`qsyn_store::library_config`] tag plus the engine
//! and the permute mode. A row's permutation depends on the spec's output
//! labeling, its depth on the library and the permute mode, and its
//! solution count on the engine (exact for BDD, a `≥1` bound for SAT and
//! QBF), so resuming against an edited spec or job list, or under another
//! configuration, re-runs the job instead of replaying a row computed for
//! something else.

use crate::json::{Object, Writer};
use qsyn_revlogic::Spec;
use qsyn_store::log::{self, Log};
use std::path::Path;

/// First bytes of every journal file.
pub const MAGIC: &[u8; 8] = b"QSYNJRN1";

/// One completed job, as journaled; carries everything the batch table
/// needs to reprint the row without re-running the job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalRecord {
    /// `index:name:digest`; see the module docs.
    pub key: String,
    /// The job's name, as supplied to the batch.
    pub name: String,
    /// Minimal gate count found.
    pub depth: u32,
    /// The solution count, in its display form (may exceed `u64`).
    pub solutions: String,
    /// The output permutation, in its display form (e.g. `[0, 2, 1]`).
    pub permutation: String,
    /// Wall-clock time of the original run, in nanoseconds.
    pub elapsed_ns: u64,
    /// FNV-1a digest over the result's semantic content (depth, solution
    /// count, permutation, best circuit), hex-encoded. The chaos harness
    /// compares these across fault schedules.
    pub digest: String,
}

/// The journal key for job `index` named `name` over `spec` (as given)
/// in a run whose configuration tag is `config`; see the module docs.
pub fn job_key(index: usize, name: &str, spec: &Spec, config: &str) -> String {
    let digest = qsyn_store::spec_digest(spec, config);
    format!("{index}:{name}:{digest:016x}")
}

/// Opens (creating if absent) the journal at `path` as [`Log::open`]
/// does, errors included: the log to append [`render_record`] payloads
/// to, and the records it holds.
pub fn open_journal(path: &Path) -> std::io::Result<(Log, Vec<JournalRecord>)> {
    Log::open(path, MAGIC, parse_record)
}

/// The records of the journal at `path`, read as [`log::read`] does
/// (errors included): the file is untouched, a missing one is empty.
pub fn read_journal(path: &Path) -> std::io::Result<Vec<JournalRecord>> {
    log::read(path, MAGIC, parse_record)
}

/// Serializes `record` as one JSON object on one line: a journal frame's
/// payload.
pub fn render_record(r: &JournalRecord) -> String {
    Writer::new()
        .string("key", &r.key)
        .string("name", &r.name)
        .number("depth", r.depth)
        .string("solutions", &r.solutions)
        .string("permutation", &r.permutation)
        .number("elapsed_ns", r.elapsed_ns)
        .string("digest", &r.digest)
        .finish()
}

/// Parses one payload written by [`render_record`]; `None` on any
/// malformation (invalid UTF-8, truncation, bad escapes, missing or
/// mistyped fields). Fields the record does not know are ignored.
pub fn parse_record(payload: &[u8]) -> Option<JournalRecord> {
    let o = Object::parse(std::str::from_utf8(payload).ok()?).ok()?;
    let string = |key| o.str(key).map(str::to_string);
    Some(JournalRecord {
        key: string("key")?,
        name: string("name")?,
        depth: o.number("depth")?,
        solutions: string("solutions")?,
        permutation: string("permutation")?,
        elapsed_ns: o.number("elapsed_ns")?,
        digest: string("digest")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_revlogic::Permutation;
    use std::path::PathBuf;

    fn record(i: u64) -> JournalRecord {
        JournalRecord {
            key: format!("{i}:job{i}:00000000deadbeef"),
            name: format!("job{i}"),
            depth: 4 + i as u32,
            solutions: "24".to_string(),
            permutation: "[0, 2, 1]".to_string(),
            elapsed_ns: 1_000_000 + i,
            digest: format!("{i:016x}"),
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("qsyn-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// A journal file holding `records`, framed the way the log writes them.
    fn journal_bytes(records: &[JournalRecord]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        for r in records {
            log::frame(&mut bytes, render_record(r).as_bytes());
        }
        bytes
    }

    #[test]
    fn records_round_trip() {
        for i in 0..5 {
            let r = record(i);
            assert_eq!(parse_record(render_record(&r).as_bytes()), Some(r));
        }
        // Escaping round-trips too.
        let odd = JournalRecord {
            name: "we\"ird\\na\tme".to_string(),
            ..record(0)
        };
        assert_eq!(parse_record(render_record(&odd).as_bytes()), Some(odd));
    }

    #[test]
    fn appends_replay_in_order_across_reopens() {
        let path = temp_path("roundtrip");
        {
            let (mut log, records) = open_journal(&path).unwrap();
            assert!(records.is_empty());
            for i in 0..3 {
                log.append_synced(render_record(&record(i)).as_bytes())
                    .unwrap();
            }
        }
        // A second opening replays, then appends rather than truncates.
        let (mut log, records) = open_journal(&path).unwrap();
        assert_eq!(records, (0..3).map(record).collect::<Vec<_>>());
        log.append_synced(render_record(&record(3)).as_bytes())
            .unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            journal_bytes(&[record(0), record(1), record(2), record(3)])
        );
        let back = read_journal(&path).unwrap();
        assert_eq!(back, (0..4).map(record).collect::<Vec<_>>());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_torn_final_record_is_dropped_and_the_next_append_follows_the_last_whole_one() {
        let whole = journal_bytes(&[record(0)]);
        let full = journal_bytes(&[record(0), record(1)]);
        for cut in [
            whole.len() + 1,
            (whole.len() + full.len()) / 2,
            full.len() - 1,
        ] {
            let path = temp_path(&format!("torn-{cut}"));
            std::fs::write(&path, &full[..cut]).unwrap();
            assert_eq!(
                read_journal(&path).unwrap(),
                vec![record(0)],
                "cut at {cut}"
            );
            let (mut log, records) = open_journal(&path).unwrap();
            assert_eq!(records, vec![record(0)], "cut at {cut}");
            assert_eq!(std::fs::read(&path).unwrap(), whole, "torn tail truncated");
            log.append_synced(render_record(&record(2)).as_bytes())
                .unwrap();
            assert_eq!(read_journal(&path).unwrap(), vec![record(0), record(2)]);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn a_frame_that_is_not_a_record_ends_the_journal() {
        // The log rolls back failed appends and truncates torn tails, so
        // a bad frame is never followed by a good one the writer meant to
        // keep: replay stops there and open cuts the rest away.
        let path = temp_path("bad-frame");
        let mut bytes = journal_bytes(&[record(0)]);
        let kept = bytes.len();
        log::frame(&mut bytes, b"this is not json");
        log::frame(&mut bytes, render_record(&record(2)).as_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_journal(&path).unwrap(), vec![record(0)]);
        let (_, records) = open_journal(&path).unwrap();
        assert_eq!(records, vec![record(0)]);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), kept as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_jsonl_journal_is_refused_and_left_untouched() {
        let path = temp_path("jsonl");
        let jsonl = format!(
            "{}\n{}\n",
            render_record(&record(0)),
            render_record(&record(1))
        );
        std::fs::write(&path, &jsonl).unwrap();
        let err = open_journal(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad magic"), "{err}");
        assert_eq!(read_journal(&path).unwrap_err().kind(), err.kind());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), jsonl);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_journal_is_empty() {
        let path = temp_path("missing");
        assert_eq!(read_journal(&path).unwrap(), Vec::new());
        assert!(!path.exists(), "reading creates nothing");
    }

    #[test]
    fn job_key_pins_index_name_labeling_and_config() {
        let spec = Spec::from_permutation(&Permutation::from_map(2, vec![1, 0, 3, 2]));
        let other = Spec::from_permutation(&Permutation::from_map(2, vec![3, 0, 1, 2]));
        // `spec` with its two output columns swapped: the same output-
        // permutation class, but a different permutation column.
        let swapped = Spec::from_permutation(&Permutation::from_map(2, vec![2, 0, 3, 1]));
        let k = job_key(0, "a", &spec, "MCT");
        assert_eq!(k, job_key(0, "a", &spec, "MCT"), "deterministic");
        assert_ne!(k, job_key(1, "a", &spec, "MCT"), "index matters");
        assert_ne!(k, job_key(0, "b", &spec, "MCT"), "name matters");
        assert_ne!(k, job_key(0, "a", &other, "MCT"), "function matters");
        assert_ne!(
            k,
            job_key(0, "a", &swapped, "MCT"),
            "output labeling matters"
        );
        assert_ne!(
            k,
            job_key(0, "a", &spec, "MCT+MCF"),
            "configuration matters"
        );
    }
}
