//! Crash-safe batch journaling.
//!
//! `qsyn batch --journal path` appends one JSONL record per **completed**
//! job — its canonical-spec key, the displayed result fields, and an
//! FNV-1a digest of the result — fsync'd (`File::sync_data`) per record,
//! so a killed batch loses at most the record being written. A later run
//! with `--resume` reads the journal back, skips every job whose key is
//! present, and replays the stored row into the merged report
//! bit-identically (including the recorded elapsed time).
//!
//! # Format
//!
//! One JSON object per line, written by [`render_record`] and parsed by
//! [`parse_record`] through the crate's one JSON codec
//! ([`crate::json`]):
//!
//! ```json
//! {"key":"0:ham3:5bd5…","name":"ham3","depth":5,"solutions":"24",
//!  "permutation":"[0, 1, 2]","elapsed_ns":10731042,"digest":"9f0a…"}
//! ```
//!
//! The reader is **torn-write tolerant**: a malformed line — anything
//! the strict parser refuses; the usual cause is the crash interrupting
//! an append mid-line — is skipped and
//! every well-formed line stands — including records a resumed run
//! appended *after* the torn one, which [`JournalWriter::open`] places on
//! a fresh line by repairing the missing newline. A job dropped this way
//! is simply re-run — correctness never depends on the journal being
//! complete. Keys repeat when a journal accumulates several runs; the
//! last record for a key wins.
//!
//! The key is `index:name:spec-digest` — the job's input position and
//! name pin the row (a batch can list the same benchmark twice), and the
//! canonical-spec digest guards against resuming against an *edited* job
//! list where index `i` now means a different function.

use crate::cache::canonicalize;
use crate::json::{Object, Writer};
use qsyn_revlogic::Spec;
use qsyn_store::Fnv1a;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

/// One completed job, as journaled; carries everything the batch table
/// needs to reprint the row without re-running the job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalRecord {
    /// `index:name:spec-digest`; see the module docs.
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

/// The journal key for job `index` named `name` over `spec`.
///
/// Uses the **canonical** spec (the output-permutation class
/// representative), so the key is stable under cosmetic relabelings of
/// the input file.
pub fn job_key(index: usize, name: &str, spec: &Spec) -> String {
    let canonical = canonicalize(spec);
    let mut h = Fnv1a::new();
    for row in canonical.spec.rows() {
        h.write_u32(row.value);
        h.write_u32(row.care);
    }
    format!("{index}:{name}:{:016x}", h.finish())
}

/// Append-only journal writer; every [`append`](Self::append) is flushed
/// and fsync'd before returning, so a completed job survives a crash
/// immediately after its report lands.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Opens (creating if absent) `path` for appending. A journal whose
    /// last append was torn by a crash (no trailing newline) is repaired
    /// with a newline first, so the next record starts on its own line
    /// instead of merging with the torn bytes.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn open(path: &Path) -> std::io::Result<JournalWriter> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        if file.metadata()?.len() > 0 {
            let mut last = [0u8; 1];
            file.seek(SeekFrom::End(-1))?;
            file.read_exact(&mut last)?;
            if last[0] != b'\n' {
                // Append mode: the write lands at the end regardless of
                // the read position.
                file.write_all(b"\n")?;
            }
        }
        Ok(JournalWriter { file })
    }

    /// Appends one record and syncs it to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error (the record may be partially
    /// written, which a later reader tolerates).
    pub fn append(&mut self, record: &JournalRecord) -> std::io::Result<()> {
        let mut line = render_record(record);
        line.push('\n');
        // One write call for the whole line keeps torn records to crash
        // windows only, not interleaving (appends are serialized by the
        // caller's lock anyway).
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }
}

/// Reads every well-formed record from `path`, skipping malformed lines
/// (see the module docs); a missing file is an empty journal.
///
/// # Errors
///
/// Propagates I/O errors other than the file not existing.
pub fn read_journal(path: &Path) -> std::io::Result<Vec<JournalRecord>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut records = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        // A torn append (or any corruption) invalidates that line only:
        // its job simply re-runs. Records appended by a resumed run land
        // *after* the torn line ([`JournalWriter::open`] repairs the
        // missing newline), so they must still be read.
        if let Some(r) = parse_record(line) {
            records.push(r);
        }
    }
    Ok(records)
}

/// Serializes `record` as one JSON line (no trailing newline).
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

/// Parses one line written by [`render_record`]; `None` on any
/// malformation (truncation, bad escapes, missing or mistyped fields).
/// Fields the record does not know are ignored.
pub fn parse_record(line: &str) -> Option<JournalRecord> {
    let o = Object::parse(line).ok()?;
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

    #[test]
    fn records_round_trip() {
        for i in 0..5 {
            let r = record(i);
            assert_eq!(parse_record(&render_record(&r)), Some(r));
        }
        // Escaping round-trips too.
        let odd = JournalRecord {
            name: "we\"ird\\na\tme".to_string(),
            ..record(0)
        };
        assert_eq!(parse_record(&render_record(&odd)), Some(odd));
    }

    #[test]
    fn writer_appends_and_reader_replays_in_order() {
        let dir = std::env::temp_dir().join(format!("qsyn-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::open(&path).unwrap();
            for i in 0..3 {
                w.append(&record(i)).unwrap();
            }
        }
        // A second opening appends, not truncates.
        JournalWriter::open(&path)
            .unwrap()
            .append(&record(3))
            .unwrap();
        let back = read_journal(&path).unwrap();
        assert_eq!(back, (0..4).map(record).collect::<Vec<_>>());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_final_record_is_ignored_not_fatal() {
        let full = render_record(&record(0));
        let torn = render_record(&record(1));
        for cut in [1, torn.len() / 2, torn.len() - 1] {
            let text = format!("{full}\n{}", &torn[..cut]);
            let dir = std::env::temp_dir();
            let path = dir.join(format!(
                "qsyn-journal-torn-{}-{cut}.jsonl",
                std::process::id()
            ));
            std::fs::write(&path, text).unwrap();
            let back = read_journal(&path).unwrap();
            assert_eq!(back, vec![record(0)], "cut at {cut}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn corrupt_middle_line_drops_only_that_record() {
        let text = format!(
            "{}\nthis is not json\n{}\n",
            render_record(&record(0)),
            render_record(&record(2))
        );
        let path =
            std::env::temp_dir().join(format!("qsyn-journal-mid-{}.jsonl", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let back = read_journal(&path).unwrap();
        assert_eq!(
            back,
            vec![record(0), record(2)],
            "well-formed records around the corruption survive"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appends_after_a_torn_record_start_on_a_fresh_line() {
        let path = std::env::temp_dir().join(format!(
            "qsyn-journal-torn-append-{}.jsonl",
            std::process::id()
        ));
        let torn = render_record(&record(1));
        // A crash mid-append leaves a record with no trailing newline.
        std::fs::write(
            &path,
            format!("{}\n{}", render_record(&record(0)), &torn[..torn.len() / 2]),
        )
        .unwrap();
        JournalWriter::open(&path)
            .unwrap()
            .append(&record(2))
            .unwrap();
        let back = read_journal(&path).unwrap();
        assert_eq!(
            back,
            vec![record(0), record(2)],
            "torn line skipped, append read"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_journal_is_empty() {
        let path = std::env::temp_dir().join("qsyn-journal-definitely-missing.jsonl");
        let _ = std::fs::remove_file(&path);
        assert_eq!(read_journal(&path).unwrap(), Vec::new());
    }

    #[test]
    fn job_key_pins_index_name_and_function() {
        let spec = Spec::from_permutation(&Permutation::from_map(2, vec![1, 0, 3, 2]));
        let other = Spec::from_permutation(&Permutation::from_map(2, vec![3, 0, 1, 2]));
        let k = job_key(0, "a", &spec);
        assert_eq!(k, job_key(0, "a", &spec), "deterministic");
        assert_ne!(k, job_key(1, "a", &spec), "index matters");
        assert_ne!(k, job_key(0, "b", &spec), "name matters");
        assert_ne!(k, job_key(0, "a", &other), "function matters");
    }
}
