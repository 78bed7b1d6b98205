//! Disk-backed circuit database.
//!
//! Exact synthesis is expensive per call but its results are small,
//! canonical and eternally reusable, so `qsyn` persists them: one
//! [`Store`] is an **append-only record log** plus an in-memory index
//! keyed by the FNV-1a digest of the *canonical* specification (the
//! output-permutation class representative computed by
//! `qsyn_portfolio::cache::canonicalize`) **and** the synthesis
//! configuration tag (the gate library the minimum was computed under —
//! see [`library_config`]). Each [`StoredCircuit`] record carries the
//! canonical truth table, the configuration tag, the minimal circuit
//! (RevLib `.real` text), its gate count, quantum cost,
//! exact-or-lower-bound solution count and the output permutation under
//! which the circuit realizes the canonical spec — everything a cache hit
//! needs to answer a synthesis request without touching an engine. Keying
//! by `(spec, config)` is what lets one store file serve runs with
//! different gate libraries: an `MCT` minimum is a different fact from an
//! `MCT+MCF` minimum, and the two records coexist.
//!
//! # Durability
//!
//! Every [`put`](Store::put) appends one length-prefixed, checksummed
//! record in a single `write` call and `fsync`s (`File::sync_data`)
//! before returning, so a record either survives a crash whole or not at
//! all. [`open`](Store::open) replays the log and **truncates the torn
//! tail**: the first record whose length prefix, checksum or payload does
//! not decode marks the end of the valid log, the file is cut back to the
//! last good byte, and the lost record's job simply re-synthesizes. This
//! is the same kill-at-any-byte contract the batch journal established
//! (PR 5) — the store adds checksums and physical truncation because its
//! records, unlike journal rows, are served back to users.
//!
//! # Compaction
//!
//! The log only appends, so superseded records
//! ([`put_superseding`](Store::put_superseding) replacing a record's
//! circuit/metadata, or crash-duplicated frames)
//! accumulate as dead bytes. [`compact`](Store::compact) reclaims them
//! with the classic temp-log protocol: every **live** record is rewritten
//! in insertion order to `<path>.compact.tmp`, the temp file is fsync'd,
//! then atomically **renamed over** the old log and the parent directory
//! fsync'd. A crash at any point leaves a usable store:
//!
//! * before the rename — the old log is untouched; the (possibly torn)
//!   temp file is ignored by [`open`](Store::open) and reported by
//!   [`orphan_temp_bytes`](Store::orphan_temp_bytes) (`qsyn store verify`
//!   surfaces it; the next compaction overwrites it),
//! * after the rename — the new log is complete (it was fsync'd before
//!   the rename) and the temp name is gone.
//!
//! Should the main log ever vanish while a complete temp file survives
//! (a torn non-atomic sequence outside this module's control),
//! [`open`](Store::open) promotes the temp file into place rather than
//! starting empty.
//!
//! # Record format
//!
//! ```text
//! file   := magic record*            magic  = "QSYNSTO2" (8 bytes)
//! record := len payload checksum     len    = u32 LE, payload byte count
//!                                    checksum = u64 LE FNV-1a of payload
//! ```
//!
//! Payload layout (all integers little-endian): digest `u64`, lines
//! `u32`, row count `u32` then `(value, care)` `u32` pairs, depth `u32`,
//! quantum cost `u64`, solution count `u128`, exact-count flag `u8`,
//! permutation length `u32` then entries `u32`, then length-prefixed
//! UTF-8 config tag, name and `.real` circuit text. The trailing magic
//! digit versions this layout: `QSYNSTO1` files (no config tag) are
//! rejected at open with a bad-magic error rather than misparsed.
//!
//! # Collisions
//!
//! The 64-bit digest is an index key, not an identity: every record
//! stores its full canonical truth table and config tag, and both
//! [`get`](Store::get) and [`put`](Store::put) compare them on a digest
//! match. Two distinct `(function, config)` pairs landing on one digest
//! is surfaced as [`StoreError::DigestCollision`] — never a silently
//! wrong circuit.
//!
//! # Fault injection
//!
//! With the `faults` feature, [`put`](Store::put) polls the
//! `store.append` site **before any byte is written**; an injected fault
//! surfaces as the retryable [`StoreError::Injected`] with the log
//! untouched, which `cargo xtask chaos` exercises per seed.

#![warn(missing_docs)]

use qsyn_revlogic::{cost, real, Spec, SpecRow};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// First bytes of every store file; the trailing digit versions the
/// record layout.
pub const MAGIC: &[u8; 8] = b"QSYNSTO2";

/// Suffix of the temporary log [`Store::compact`] writes before its
/// atomic rename; see [`temp_compaction_path`].
pub const TEMP_SUFFIX: &str = ".compact.tmp";

/// The temp-log path `compact` uses for the store at `path`
/// (`<path>.compact.tmp`, same directory so the rename stays atomic).
pub fn temp_compaction_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(TEMP_SUFFIX);
    path.with_file_name(name)
}

/// Environment variable naming a [`Store::compact`] stage at which the
/// process calls `abort()` — the deterministic kill-point hook the
/// crash-recovery smoke tests use. Recognized stages, in protocol order:
/// `before-tmp`, `tmp-torn` (half the temp log written, mid-frame),
/// `tmp-synced` (temp complete and fsync'd, rename not issued),
/// `renamed` (rename issued, directory not yet fsync'd). Unset in
/// production; any other value never fires.
pub const COMPACT_CRASH_ENV: &str = "QSYN_STORE_COMPACT_CRASH";

/// `true` when [`COMPACT_CRASH_ENV`] names `stage`.
fn crash_stage_armed(stage: &str) -> bool {
    std::env::var(COMPACT_CRASH_ENV).as_deref() == Ok(stage)
}

/// Aborts the process (SIGABRT — no destructors, no stream flushing, a
/// faithful crash) when [`COMPACT_CRASH_ENV`] names `stage`.
fn crash_stage(stage: &str) {
    if crash_stage_armed(stage) {
        std::process::abort();
    }
}

/// fsyncs the directory containing `path`, making a just-completed
/// rename durable: POSIX orders the rename's durability with the
/// directory's, not the renamed file's.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

/// Records larger than this are rejected at decode time; a length prefix
/// beyond it is treated as torn-tail garbage, not an allocation request.
const MAX_RECORD_BYTES: u32 = 1 << 24;

/// Incremental 64-bit FNV-1a — the workspace's one content hasher: store
/// record checksums and spec digests here, batch journal keys and result
/// digests in `qsyn-portfolio`.
#[derive(Clone, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// The digest of `bytes` in one call.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write(bytes);
        h.finish()
    }

    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u32` (little-endian) into the digest.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// The store key of a specification under a synthesis configuration:
/// FNV-1a over the spec's line count, its `(value, care)` rows and the
/// config tag's bytes. Callers must pass the **canonical** spec (the
/// output-permutation class representative) so equivalent requests share
/// one record, and the tag from [`library_config`] so minima computed
/// under different gate libraries never answer for each other.
pub fn spec_digest(spec: &Spec, config: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u32(spec.lines());
    for row in spec.rows() {
        h.write_u32(row.value);
        h.write_u32(row.care);
    }
    h.write(config.as_bytes());
    h.finish()
}

/// The canonical config tag for a gate library: its display label plus a
/// marker for Fredkin-slot deduplication, which changes solution counts
/// (Theorem 1's ordered enumeration counts every controlled swap twice).
/// Everything else a run can vary — engine, encoding, variable order —
/// leaves the minimal depth and the realizing circuits unchanged, so it
/// stays out of the key on purpose: a BDD-computed record answers a SAT
/// run's request.
pub fn library_config(library: qsyn_revlogic::GateLibrary) -> String {
    let mut tag = library.label();
    if library.has_dedup_fredkin() {
        tag.push_str("+dedupF");
    }
    tag
}

/// One persisted synthesis result; see the module docs for the on-disk
/// layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredCircuit {
    /// [`spec_digest`] of the canonical spec and config tag — the index
    /// key.
    pub digest: u64,
    /// Synthesis configuration tag (see [`library_config`]): the gate
    /// library this minimum holds under. Part of the record's identity —
    /// lookups with a different tag miss rather than replay a wrong
    /// minimum.
    pub config: String,
    /// Informational name (benchmark name or file stem of the first
    /// request that synthesized the class).
    pub name: String,
    /// Line count of the canonical spec and the circuit.
    pub lines: u32,
    /// `(value, care)` rows of the canonical spec, in row order.
    pub rows: Vec<(u32, u32)>,
    /// Minimal gate count.
    pub depth: u32,
    /// Quantum cost of the stored circuit.
    pub quantum_cost: u64,
    /// Number of minimal networks (exact or a lower bound, per
    /// [`count_is_exact`](Self::count_is_exact)).
    pub solution_count: u128,
    /// `true` when `solution_count` is exact (BDD model counting);
    /// `false` when it is a first-model lower bound.
    pub count_is_exact: bool,
    /// Output permutation `q`: the stored circuit realizes
    /// `permute_spec(canonical, q)`, i.e. circuit output `q[j]` drives
    /// canonical spec line `j`.
    pub permutation: Vec<u32>,
    /// The minimal circuit, as RevLib `.real` text.
    pub circuit: String,
}

impl StoredCircuit {
    /// Builds a record for `canonical` under `config` (digest and rows
    /// derived from them).
    #[allow(clippy::too_many_arguments)]
    pub fn for_spec(
        canonical: &Spec,
        config: &str,
        name: &str,
        depth: u32,
        quantum_cost: u64,
        solution_count: u128,
        count_is_exact: bool,
        permutation: Vec<u32>,
        circuit: String,
    ) -> StoredCircuit {
        StoredCircuit {
            digest: spec_digest(canonical, config),
            config: config.to_string(),
            name: name.to_string(),
            lines: canonical.lines(),
            rows: canonical.rows().iter().map(|r| (r.value, r.care)).collect(),
            depth,
            quantum_cost,
            solution_count,
            count_is_exact,
            permutation,
            circuit,
        }
    }

    /// `true` when this record's truth table equals `spec`'s and its
    /// config tag equals `config`.
    pub fn matches_spec(&self, spec: &Spec, config: &str) -> bool {
        self.config == config
            && self.lines == spec.lines()
            && self.rows.len() == spec.num_rows()
            && self
                .rows
                .iter()
                .zip(spec.rows())
                .all(|(&(v, c), row)| v == row.value && c == row.care)
    }

    /// Reconstructs the canonical spec this record answers.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the stored rows do not form a valid
    /// (realizable) specification.
    pub fn spec(&self) -> Result<Spec, StoreError> {
        let rows = self
            .rows
            .iter()
            .map(|&(value, care)| SpecRow { value, care })
            .collect();
        Spec::new_incomplete(self.lines, rows).map_err(|e| StoreError::Corrupt {
            offset: 0,
            detail: format!("record {:016x}: invalid spec rows: {e}", self.digest),
        })
    }

    /// Rendered `count_display` form (`"N"` exact, `"≥N"` lower bound),
    /// matching `SolutionSet::count_display`.
    pub fn count_display(&self) -> String {
        if self.count_is_exact {
            self.solution_count.to_string()
        } else {
            format!("≥{}", self.solution_count)
        }
    }
}

/// Store failure modes.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem error. Retryable: the log is rolled back
    /// to its last committed record before this is returned.
    Io(std::io::Error),
    /// The log is unusable beyond torn-tail repair (bad magic, or two
    /// committed records disagree about one digest).
    Corrupt {
        /// Byte offset of the offending data (0 when not file-positional).
        offset: u64,
        /// Human-readable description.
        detail: String,
    },
    /// Two distinct truth tables landed on one 64-bit digest.
    DigestCollision {
        /// The shared digest.
        digest: u64,
    },
    /// A seeded fault fired at the `store.append` site before any byte
    /// was written. Retryable by contract (each site fires once per
    /// arming).
    Injected,
}

impl StoreError {
    /// `true` for transient failures a caller should retry (I/O errors
    /// after rollback, injected write faults); `false` for corruption and
    /// collisions, which retrying cannot fix.
    pub fn is_retryable(&self) -> bool {
        matches!(self, StoreError::Io(_) | StoreError::Injected)
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt { offset, detail } => {
                write!(f, "store corrupt at byte {offset}: {detail}")
            }
            StoreError::DigestCollision { digest } => write!(
                f,
                "digest collision on {digest:016x}: two distinct functions share one key"
            ),
            StoreError::Injected => write!(f, "injected store write fault (retryable)"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// Outcome of a [`Store::put`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PutOutcome {
    /// The record was appended and fsync'd.
    Inserted,
    /// An identical-spec record already existed; nothing was written
    /// (results are write-once — both answers are minimal).
    AlreadyPresent,
    /// A [`Store::put_superseding`] replaced the class's previous record;
    /// the new record was appended and the old frame became dead bytes
    /// awaiting [`Store::compact`].
    Superseded,
}

/// What one [`Store::compact`] run did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactionReport {
    /// Committed log size before the rewrite, in bytes (magic included).
    pub bytes_before: u64,
    /// Log size after the rewrite.
    pub bytes_after: u64,
    /// Live records rewritten into the new log.
    pub records: usize,
}

impl CompactionReport {
    /// Bytes the rewrite reclaimed (`bytes_before − bytes_after`).
    pub fn reclaimed(&self) -> u64 {
        self.bytes_before.saturating_sub(self.bytes_after)
    }
}

/// Serializes `record` into its payload bytes (no length prefix or
/// checksum). Public so tests can round-trip and corrupt records.
pub fn encode_record(r: &StoredCircuit) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + r.rows.len() * 8 + r.name.len() + r.circuit.len());
    out.extend_from_slice(&r.digest.to_le_bytes());
    out.extend_from_slice(&r.lines.to_le_bytes());
    out.extend_from_slice(&(r.rows.len() as u32).to_le_bytes());
    for &(value, care) in &r.rows {
        out.extend_from_slice(&value.to_le_bytes());
        out.extend_from_slice(&care.to_le_bytes());
    }
    out.extend_from_slice(&r.depth.to_le_bytes());
    out.extend_from_slice(&r.quantum_cost.to_le_bytes());
    out.extend_from_slice(&r.solution_count.to_le_bytes());
    out.push(u8::from(r.count_is_exact));
    out.extend_from_slice(&(r.permutation.len() as u32).to_le_bytes());
    for &p in &r.permutation {
        out.extend_from_slice(&p.to_le_bytes());
    }
    out.extend_from_slice(&(r.config.len() as u32).to_le_bytes());
    out.extend_from_slice(r.config.as_bytes());
    out.extend_from_slice(&(r.name.len() as u32).to_le_bytes());
    out.extend_from_slice(r.name.as_bytes());
    out.extend_from_slice(&(r.circuit.len() as u32).to_le_bytes());
    out.extend_from_slice(r.circuit.as_bytes());
    out
}

/// Cursor-based field readers for [`decode_record`].
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte slice converts to [u8; 4]")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice converts to [u8; 8]")))
    }

    fn u128(&mut self) -> Option<u128> {
        self.take(16)
            .map(|b| u128::from_le_bytes(b.try_into().expect("16-byte slice converts to [u8; 16]")))
    }

    fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

/// Parses one payload written by [`encode_record`]; `None` on any
/// malformation (truncation, length overrun, invalid UTF-8, trailing
/// garbage).
pub fn decode_record(payload: &[u8]) -> Option<StoredCircuit> {
    let mut c = Cursor {
        bytes: payload,
        pos: 0,
    };
    let digest = c.u64()?;
    let lines = c.u32()?;
    let num_rows = c.u32()? as usize;
    // A row table never exceeds 2^lines ≤ 2^32 entries, but a torn length
    // field could claim anything; bound by the payload that actually exists.
    if num_rows > payload.len() / 8 + 1 {
        return None;
    }
    let mut rows = Vec::with_capacity(num_rows);
    for _ in 0..num_rows {
        rows.push((c.u32()?, c.u32()?));
    }
    let depth = c.u32()?;
    let quantum_cost = c.u64()?;
    let solution_count = c.u128()?;
    let count_is_exact = match c.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let perm_len = c.u32()? as usize;
    if perm_len > payload.len() / 4 + 1 {
        return None;
    }
    let mut permutation = Vec::with_capacity(perm_len);
    for _ in 0..perm_len {
        permutation.push(c.u32()?);
    }
    let config = c.string()?;
    let name = c.string()?;
    let circuit = c.string()?;
    if c.pos != payload.len() {
        return None;
    }
    Some(StoredCircuit {
        digest,
        config,
        name,
        lines,
        rows,
        depth,
        quantum_cost,
        solution_count,
        count_is_exact,
        permutation,
        circuit,
    })
}

/// The disk-backed circuit database; see the module docs.
///
/// Not internally synchronized: wrap in a `Mutex` for concurrent access
/// (the serve layer does). Reads after [`open`](Store::open) are pure
/// index lookups; only [`put`](Store::put) touches the file.
#[derive(Debug)]
pub struct Store {
    file: File,
    path: PathBuf,
    index: HashMap<u64, StoredCircuit>,
    /// Insertion order of digests, for deterministic iteration.
    order: Vec<u64>,
    /// Committed end of the log (everything before this offset is valid).
    end: u64,
    /// Bytes dropped by torn-tail repair at open (0 for a clean log).
    truncated: u64,
    /// Bytes of superseded or duplicated frames a `compact` would
    /// reclaim.
    dead: u64,
}

impl Store {
    /// Opens (creating if absent) the store at `path`, replaying the log
    /// into the in-memory index and truncating any torn tail (see the
    /// module docs).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures, [`StoreError::Corrupt`]
    /// when the magic is wrong or two committed records disagree about a
    /// digest.
    pub fn open(path: &Path) -> Result<Store, StoreError> {
        promote_orphan_temp(path)?;
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            file.write_all(MAGIC)?;
            file.sync_data()?;
            return Ok(Store {
                file,
                path: path.to_path_buf(),
                index: HashMap::new(),
                order: Vec::new(),
                end: MAGIC.len() as u64,
                truncated: 0,
                dead: 0,
            });
        }
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(StoreError::Corrupt {
                offset: 0,
                detail: format!("bad magic (want {:?})", String::from_utf8_lossy(MAGIC)),
            });
        }
        let mut index: HashMap<u64, StoredCircuit> = HashMap::new();
        let mut order: Vec<u64> = Vec::new();
        let mut frame_len: HashMap<u64, u64> = HashMap::new();
        let mut dead = 0u64;
        let mut pos = MAGIC.len();
        // Scan records; the first malformed one marks the torn tail.
        let end = loop {
            if pos == bytes.len() {
                break pos;
            }
            let record = read_record_at(&bytes, pos);
            let Some((record, next)) = record else {
                break pos;
            };
            match index.get(&record.digest) {
                Some(existing)
                    if existing.rows != record.rows || existing.config != record.config =>
                {
                    // Two *committed* records disagree: not a torn tail
                    // (the checksum held) but a genuine inconsistency.
                    return Err(StoreError::DigestCollision {
                        digest: record.digest,
                    });
                }
                Some(_) => {
                    // A later frame for the same class — a put_superseding,
                    // or a crash-duplicated append — makes the earlier
                    // frame dead bytes; the replay is last-wins, matching
                    // the in-memory state the writer had.
                    dead += frame_len.get(&record.digest).copied().unwrap_or(0);
                }
                None => order.push(record.digest),
            }
            frame_len.insert(record.digest, (next - pos) as u64);
            index.insert(record.digest, record);
            pos = next;
        };
        let truncated = (bytes.len() - end) as u64;
        if truncated > 0 {
            file.set_len(end as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok(Store {
            file,
            path: path.to_path_buf(),
            index,
            order,
            end: end as u64,
            truncated,
            dead,
        })
    }

    /// The record for `canonical` under `config`, or `None` when the
    /// class has not been synthesized under that configuration yet.
    ///
    /// # Errors
    ///
    /// [`StoreError::DigestCollision`] when a record shares the digest
    /// but stores a different truth table or config tag.
    pub fn get(
        &self,
        canonical: &Spec,
        config: &str,
    ) -> Result<Option<&StoredCircuit>, StoreError> {
        let digest = spec_digest(canonical, config);
        match self.index.get(&digest) {
            None => Ok(None),
            Some(r) if r.matches_spec(canonical, config) => Ok(Some(r)),
            Some(_) => Err(StoreError::DigestCollision { digest }),
        }
    }

    /// Appends `record`, fsync'd, and indexes it. Results are write-once:
    /// an identical-spec record already present is left alone
    /// ([`PutOutcome::AlreadyPresent`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::DigestCollision`] when a different truth table
    /// already owns the digest; [`StoreError::Injected`] when the seeded
    /// `store.append` fault fires (retryable, nothing written);
    /// [`StoreError::Io`] on filesystem failures (the log is rolled back
    /// to its last committed record first, so a failed put never leaves
    /// partial bytes behind).
    ///
    /// This is the append+fsync sink every `concheck` blocking-under-lock
    /// reason chain terminates in (`put → write_all`): callers either
    /// keep the store behind its own leaf-level mutex (the waived
    /// serialization-point pattern) or call it with no other lock held.
    pub fn put(&mut self, record: StoredCircuit) -> Result<PutOutcome, StoreError> {
        if qsyn_faults::hit(qsyn_faults::Site::StoreAppend).is_some() {
            return Err(StoreError::Injected);
        }
        match self.index.get(&record.digest) {
            Some(existing) if existing.rows == record.rows && existing.config == record.config => {
                return Ok(PutOutcome::AlreadyPresent)
            }
            Some(_) => {
                return Err(StoreError::DigestCollision {
                    digest: record.digest,
                })
            }
            None => {}
        }
        self.append_frame(&record)?;
        self.order.push(record.digest);
        self.index.insert(record.digest, record);
        Ok(PutOutcome::Inserted)
    }

    /// Appends `record` even when the class already has a record, making
    /// the new record the live one (last-wins, matching `open`'s replay)
    /// and the old frame dead bytes for [`compact`](Store::compact). The
    /// spec identity must still match — superseding refreshes a class's
    /// circuit or metadata (say, an exact count replacing a lower bound),
    /// never answers for a different function. A byte-identical record
    /// short-circuits as [`PutOutcome::AlreadyPresent`] without writing.
    ///
    /// # Errors
    ///
    /// As [`put`](Store::put): [`StoreError::DigestCollision`] when the
    /// digest's record stores different rows or config,
    /// [`StoreError::Injected`] on a seeded `store.append` fault,
    /// [`StoreError::Io`] after rollback.
    pub fn put_superseding(&mut self, record: StoredCircuit) -> Result<PutOutcome, StoreError> {
        if qsyn_faults::hit(qsyn_faults::Site::StoreAppend).is_some() {
            return Err(StoreError::Injected);
        }
        let superseded_frame = match self.index.get(&record.digest) {
            Some(existing) if existing.rows == record.rows && existing.config == record.config => {
                if *existing == record {
                    return Ok(PutOutcome::AlreadyPresent);
                }
                Some(encode_record(existing).len() as u64 + 12)
            }
            Some(_) => {
                return Err(StoreError::DigestCollision {
                    digest: record.digest,
                })
            }
            None => None,
        };
        self.append_frame(&record)?;
        let outcome = if let Some(old_frame) = superseded_frame {
            self.dead += old_frame;
            PutOutcome::Superseded
        } else {
            self.order.push(record.digest);
            PutOutcome::Inserted
        };
        self.index.insert(record.digest, record);
        Ok(outcome)
    }

    /// Frames `record` (length prefix + payload + checksum) and appends
    /// it with one write plus fsync, rolling the log back to its last
    /// committed byte on failure. Callers update the index afterwards.
    fn append_frame(&mut self, record: &StoredCircuit) -> Result<(), StoreError> {
        let payload = encode_record(record);
        let mut framed = Vec::with_capacity(payload.len() + 12);
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&payload);
        framed.extend_from_slice(&Fnv1a::hash(&payload).to_le_bytes());
        // One write call for the whole frame: a crash window tears at most
        // this record, which open() then truncates away.
        let written = self
            .file
            .write_all(&framed)
            .and_then(|()| self.file.sync_data());
        if let Err(e) = written {
            // Roll back any partial bytes so the in-memory view and the
            // log stay consistent; if even that fails the next open()'s
            // torn-tail repair handles it.
            let _ = self.file.set_len(self.end);
            let _ = self.file.seek(SeekFrom::End(0));
            return Err(StoreError::Io(e));
        }
        self.end += framed.len() as u64;
        Ok(())
    }

    /// Rewrites the log to hold only live records (insertion order
    /// preserved) via the crash-safe temp-log protocol described in the
    /// module docs: write `<path>.compact.tmp` whole, fsync it, rename it
    /// over the log, fsync the directory. The handle then points at the
    /// new log with [`dead_bytes`](Store::dead_bytes) zero. Runs even
    /// when nothing is dead — the rewrite is then a no-op byte-wise but
    /// still exercises the protocol (and consumes any orphaned temp
    /// file by overwriting its name).
    ///
    /// # Errors
    ///
    /// [`StoreError::Injected`] when the seeded `store.compact` fault
    /// fires (retryable — polled before any byte is written, the log and
    /// the index are untouched); [`StoreError::Io`] on filesystem
    /// failures, in which case the original log is still the live one
    /// (the rename either happened whole or not at all) and the handle
    /// keeps writing to it.
    pub fn compact(&mut self) -> Result<CompactionReport, StoreError> {
        if qsyn_faults::hit(qsyn_faults::Site::StoreCompact).is_some() {
            return Err(StoreError::Injected);
        }
        crash_stage("before-tmp");
        let bytes_before = self.end;
        let mut out = Vec::with_capacity(self.end as usize);
        out.extend_from_slice(MAGIC);
        for r in self.records() {
            let payload = encode_record(r);
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&payload);
            out.extend_from_slice(&Fnv1a::hash(&payload).to_le_bytes());
        }
        let tmp = temp_compaction_path(&self.path);
        {
            let mut tmp_file = OpenOptions::new()
                .create(true)
                .truncate(true)
                .write(true)
                .open(&tmp)?;
            if crash_stage_armed("tmp-torn") {
                // Half the log, deliberately mid-frame: the hardest
                // leftover a recovery can face.
                let _ = tmp_file.write_all(&out[..out.len() / 2]);
                let _ = tmp_file.sync_data();
                std::process::abort();
            }
            tmp_file.write_all(&out)?;
            tmp_file.sync_data()?;
        }
        crash_stage("tmp-synced");
        std::fs::rename(&tmp, &self.path)?;
        crash_stage("renamed");
        sync_parent_dir(&self.path)?;
        // Swap the handle onto the new log; the old descriptor points at
        // the now-unlinked inode.
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.end = out.len() as u64;
        self.dead = 0;
        Ok(CompactionReport {
            bytes_before,
            bytes_after: self.end,
            records: self.order.len(),
        })
    }

    /// Number of stored equivalence classes.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when no record is stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Committed size of the log in bytes (magic included).
    pub fn file_bytes(&self) -> u64 {
        self.end
    }

    /// Bytes dropped by torn-tail repair when this handle opened the
    /// store (0 for a clean log).
    pub fn truncated_tail_bytes(&self) -> u64 {
        self.truncated
    }

    /// Bytes of superseded or duplicated frames a
    /// [`compact`](Store::compact) would reclaim.
    pub fn dead_bytes(&self) -> u64 {
        self.dead
    }

    /// Size in bytes of an orphaned temp-compaction log sitting next to
    /// this store, or `None` when there is none. A leftover
    /// `<path>.compact.tmp` means a compaction died before its rename;
    /// the main log is authoritative and the orphan is only reported
    /// (`qsyn store verify` surfaces it), never deleted here — the next
    /// successful compaction overwrites the name.
    pub fn orphan_temp_bytes(&self) -> Option<u64> {
        std::fs::metadata(temp_compaction_path(&self.path))
            .ok()
            .map(|m| m.len())
    }

    /// The store's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Every record, in insertion (log) order.
    pub fn records(&self) -> impl Iterator<Item = &StoredCircuit> {
        self.order.iter().filter_map(|d| self.index.get(d))
    }

    /// Deep-verifies every record: the `.real` text parses, the circuit's
    /// line count, gate count and quantum cost match the stored metadata,
    /// and simulating the circuit through the stored permutation
    /// reproduces the canonical truth table on every cared bit.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] naming the first record that fails.
    pub fn verify(&self) -> Result<(), StoreError> {
        for r in self.records() {
            let bad = |detail: String| StoreError::Corrupt { offset: 0, detail };
            let circuit = real::parse_real(&r.circuit)
                .map_err(|e| bad(format!("record {} ({:016x}): {e}", r.name, r.digest)))?;
            if circuit.lines() != r.lines {
                return Err(bad(format!(
                    "record {}: circuit has {} lines, spec {}",
                    r.name,
                    circuit.lines(),
                    r.lines
                )));
            }
            if circuit.len() as u32 != r.depth {
                return Err(bad(format!(
                    "record {}: circuit has {} gates, metadata says {}",
                    r.name,
                    circuit.len(),
                    r.depth
                )));
            }
            if cost::circuit_cost(&circuit) != r.quantum_cost {
                return Err(bad(format!(
                    "record {}: quantum cost {} != stored {}",
                    r.name,
                    cost::circuit_cost(&circuit),
                    r.quantum_cost
                )));
            }
            if r.permutation.len() != r.lines as usize {
                return Err(bad(format!(
                    "record {}: permutation length {} != {} lines",
                    r.name,
                    r.permutation.len(),
                    r.lines
                )));
            }
            let spec = r.spec()?;
            if spec_digest(&spec, &r.config) != r.digest {
                return Err(bad(format!(
                    "record {}: stored digest {:016x} != digest of stored rows and config",
                    r.name, r.digest
                )));
            }
            for row in 0..spec.num_rows() as u32 {
                let out = circuit.simulate(row);
                let sr = spec.row(row);
                for (j, &p) in r.permutation.iter().enumerate() {
                    let bit = 1u32 << j;
                    if sr.care & bit != 0 && (out >> p) & 1 != (sr.value >> j) & 1 {
                        return Err(bad(format!(
                            "record {}: circuit does not realize its spec (row {row}, line {j})",
                            r.name
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Crash recovery for a vanished main log: when `path` is missing but a
/// plausible temp log (good magic) survives, rename it into place before
/// opening — its torn tail, if any, is then repaired by the normal open
/// path. A temp file **next to an existing log** is a compaction that
/// died before its rename; the main log is authoritative and the temp
/// file is left alone. A temp file with bad magic is likewise left for
/// inspection and the open proceeds (creating a fresh log).
fn promote_orphan_temp(path: &Path) -> Result<(), StoreError> {
    let tmp = temp_compaction_path(path);
    if path.exists() || !tmp.exists() {
        return Ok(());
    }
    let mut magic = [0u8; 8];
    let plausible = File::open(&tmp)
        .and_then(|mut f| f.read_exact(&mut magic))
        .map(|()| &magic == MAGIC)
        .unwrap_or(false);
    if plausible {
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)?;
    }
    Ok(())
}

/// Reads the record framed at `pos`; `Some((record, next_pos))` when the
/// frame is whole and valid, `None` when it is torn or corrupt.
fn read_record_at(bytes: &[u8], pos: usize) -> Option<(StoredCircuit, usize)> {
    let len_bytes = bytes.get(pos..pos + 4)?;
    let len = u32::from_le_bytes(len_bytes.try_into().expect("4-byte slice")) as usize;
    if len as u32 > MAX_RECORD_BYTES {
        return None;
    }
    let payload = bytes.get(pos + 4..pos + 4 + len)?;
    let checksum_bytes = bytes.get(pos + 4 + len..pos + 12 + len)?;
    let checksum = u64::from_le_bytes(checksum_bytes.try_into().expect("8-byte slice"));
    if Fnv1a::hash(payload) != checksum {
        return None;
    }
    let record = decode_record(payload)?;
    Some((record, pos + 12 + len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qsyn_revlogic::Permutation;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("qsyn-store-{tag}-{}.qstore", std::process::id()))
    }

    /// A CNOT record over the x2 ^= x1 spec, with a tweakable name.
    fn cnot_record(name: &str) -> StoredCircuit {
        let spec = Spec::from_permutation(&Permutation::from_map(2, vec![0, 3, 2, 1]));
        StoredCircuit::for_spec(
            &spec,
            "MCT",
            name,
            1,
            1,
            1,
            true,
            vec![0, 1],
            ".numvars 2\n.variables x1 x2\n.begin\nt2 x1 x2\n.end\n".to_string(),
        )
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A structurally arbitrary record (not semantically valid — exactly
    /// what serialization must round-trip regardless).
    fn random_record(seed: u64) -> StoredCircuit {
        let mut s = seed;
        let rows = (0..(splitmix(&mut s) % 16))
            .map(|_| (splitmix(&mut s) as u32, splitmix(&mut s) as u32))
            .collect();
        let permutation = (0..(splitmix(&mut s) % 8)).map(|i| i as u32).collect();
        StoredCircuit {
            digest: splitmix(&mut s),
            config: ["MCT", "MCT+MCF", "MPMCT+P+dedupF", ""][(splitmix(&mut s) % 4) as usize]
                .to_string(),
            name: format!("job-{}\"\\‖\n", splitmix(&mut s) % 100),
            lines: (splitmix(&mut s) % 9) as u32,
            rows,
            depth: (splitmix(&mut s) % 40) as u32,
            quantum_cost: splitmix(&mut s),
            solution_count: u128::from(splitmix(&mut s)) << 64 | u128::from(splitmix(&mut s)),
            count_is_exact: splitmix(&mut s) & 1 == 0,
            permutation,
            circuit: format!(".numvars 2\n# {}\n.begin\n.end\n", splitmix(&mut s)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Record serialization round-trips bit-exactly for arbitrary
        /// field contents, including non-ASCII names and wide counts.
        fn record_serialization_round_trips(seed in any::<u64>()) {
            let r = random_record(seed);
            let payload = encode_record(&r);
            prop_assert_eq!(decode_record(&payload), Some(r));
        }

        /// Any strict prefix of a payload fails to decode — a torn record
        /// can never be mistaken for a shorter valid one.
        fn truncated_payloads_never_decode(seed in any::<u64>(), cut_permille in 0u32..1000) {
            let r = random_record(seed);
            let payload = encode_record(&r);
            let cut = payload.len() * cut_permille as usize / 1000;
            prop_assert!(cut < payload.len());
            prop_assert_eq!(decode_record(&payload[..cut]), None);
        }

        /// Kill-at-any-byte: truncating the store file at a random byte
        /// and reopening recovers exactly the records whose frames fully
        /// survive, physically truncates the torn tail, and leaves the
        /// store appendable.
        fn torn_tail_recovery(seed in any::<u64>(), cut_permille in 0u32..1000) {
            let path = temp_path(&format!("torn-{seed}-{cut_permille}"));
            let _ = std::fs::remove_file(&path);
            let mut frame_ends = vec![MAGIC.len() as u64];
            {
                let mut store = Store::open(&path).unwrap();
                for i in 0..3u64 {
                    let mut r = random_record(seed ^ (i.wrapping_mul(0x9e37)));
                    r.digest = i; // distinct digests, no accidental dedup
                    store.put(r).unwrap();
                    frame_ends.push(store.file_bytes());
                }
            }
            let full = std::fs::read(&path).unwrap();
            let cut = MAGIC.len()
                + (full.len() - MAGIC.len()) * cut_permille as usize / 1000;
            std::fs::write(&path, &full[..cut]).unwrap();

            let mut store = Store::open(&path).unwrap();
            let survivors = frame_ends
                .iter()
                .filter(|&&end| end > MAGIC.len() as u64 && end <= cut as u64)
                .count();
            prop_assert_eq!(store.len(), survivors, "cut at byte {}", cut);
            // The torn tail is physically gone: the file now ends at the
            // last whole frame.
            let consistent_end = frame_ends
                .iter()
                .filter(|&&end| end <= cut as u64)
                .max()
                .copied()
                .unwrap();
            prop_assert_eq!(store.file_bytes(), consistent_end);
            prop_assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                consistent_end
            );
            // And the log is appendable: a fresh record lands cleanly and
            // survives another reopen.
            let mut fresh = random_record(!seed);
            fresh.digest = 99;
            store.put(fresh.clone()).unwrap();
            drop(store);
            let store = Store::open(&path).unwrap();
            prop_assert_eq!(store.truncated_tail_bytes(), 0);
            prop_assert_eq!(store.len(), survivors + 1);
            prop_assert_eq!(store.records().last(), Some(&fresh));
            let _ = std::fs::remove_file(&path);
        }

        /// A compacted store answers every digest bit-identically to the
        /// uncompacted one, whatever mix of inserts and supersedes built
        /// the log, and a reopen of the compacted file agrees too.
        fn compaction_preserves_every_answer(seed in any::<u64>(), ops in 1usize..24) {
            let path = temp_path(&format!("compact-id-{seed}-{ops}"));
            let _ = std::fs::remove_file(&path);
            let mut store = Store::open(&path).unwrap();
            let mut s = seed;
            for i in 0..ops {
                let mut r = random_record(seed ^ (i as u64) << 8);
                r.digest = splitmix(&mut s) % 6; // few digests → many supersedes
                let live = store
                    .records()
                    .find(|l| l.digest == r.digest)
                    .map(|l| (l.rows.clone(), l.config.clone()));
                if let Some((rows, config)) = live {
                    // Keep the class identity; only metadata changes.
                    r.rows = rows;
                    r.config = config;
                    store.put_superseding(r).unwrap();
                } else {
                    store.put(r).unwrap();
                }
            }
            let before: Vec<StoredCircuit> = store.records().cloned().collect();
            let dead = store.dead_bytes();
            let report = store.compact().unwrap();
            prop_assert_eq!(report.reclaimed(), dead);
            let after: Vec<StoredCircuit> = store.records().cloned().collect();
            prop_assert_eq!(&before, &after);
            prop_assert_eq!(store.dead_bytes(), 0);
            drop(store);
            let reopened = Store::open(&path).unwrap();
            prop_assert_eq!(reopened.truncated_tail_bytes(), 0);
            prop_assert_eq!(reopened.dead_bytes(), 0);
            let replayed: Vec<StoredCircuit> = reopened.records().cloned().collect();
            prop_assert_eq!(&before, &replayed);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x8594_4171_f739_67e8);
        // Incremental writes equal one-shot hashing of the concatenation;
        // `write_u32` folds little-endian bytes.
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), Fnv1a::hash(b"foobar"));
        let mut h = Fnv1a::new();
        h.write_u32(u32::from_le_bytes(*b"abcd"));
        assert_eq!(h.finish(), Fnv1a::hash(b"abcd"));
        // The key layout (line count, then `(value, care)` per row, then the
        // tag, integers little-endian) is pinned so existing stores keep
        // their keys.
        let cnot = Spec::from_permutation(&Permutation::from_map(2, vec![0, 3, 2, 1]));
        assert_eq!(spec_digest(&cnot, "MCT"), 0x63cd_47c4_5549_17b9);
    }

    #[test]
    fn open_put_get_survives_reopen() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let record = cnot_record("cnot");
        let spec = record.spec().unwrap();
        {
            let mut store = Store::open(&path).unwrap();
            assert!(store.is_empty());
            assert_eq!(store.put(record.clone()).unwrap(), PutOutcome::Inserted);
            assert_eq!(store.get(&spec, "MCT").unwrap(), Some(&record));
        }
        let store = Store::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.truncated_tail_bytes(), 0);
        assert_eq!(store.get(&spec, "MCT").unwrap(), Some(&record));
        // A different config tag is a clean miss, not a collision: the
        // MCT minimum must never answer an MCT+MCF request.
        assert_eq!(store.get(&spec, "MCT+MCF").unwrap(), None);
        store.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn results_are_write_once() {
        let path = temp_path("write-once");
        let _ = std::fs::remove_file(&path);
        let mut store = Store::open(&path).unwrap();
        store.put(cnot_record("first")).unwrap();
        let bytes = store.file_bytes();
        // Same class again (even under a different name): nothing written.
        assert_eq!(
            store.put(cnot_record("second")).unwrap(),
            PutOutcome::AlreadyPresent
        );
        assert_eq!(store.file_bytes(), bytes);
        assert_eq!(store.len(), 1);
        assert_eq!(store.records().next().unwrap().name, "first");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn digest_collisions_are_rejected_not_conflated() {
        let path = temp_path("collision");
        let _ = std::fs::remove_file(&path);
        let mut store = Store::open(&path).unwrap();
        let record = cnot_record("cnot");
        store.put(record.clone()).unwrap();
        // A *different* function forced onto the same digest: put refuses.
        let swap = Spec::from_permutation(&Permutation::from_map(2, vec![0, 2, 1, 3]));
        let mut forged = StoredCircuit::for_spec(
            &swap,
            "MCT",
            "forged",
            3,
            3,
            1,
            true,
            vec![0, 1],
            record.circuit.clone(),
        );
        forged.digest = record.digest;
        assert!(matches!(
            store.put(forged),
            Err(StoreError::DigestCollision { .. })
        ));
        // And a lookup whose spec disagrees with the stored rows refuses
        // too, instead of serving the wrong circuit. Simulate by editing
        // the indexed record's rows through a crafted log.
        drop(store);
        let mut tampered = record.clone();
        tampered.rows[1].0 ^= 1; // rows no longer match the digest's spec
        let payload = encode_record(&tampered);
        let mut framed = Vec::new();
        framed.extend_from_slice(MAGIC);
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&payload);
        framed.extend_from_slice(&Fnv1a::hash(&payload).to_le_bytes());
        std::fs::write(&path, framed).unwrap();
        let store = Store::open(&path).unwrap();
        assert!(matches!(
            store.get(&record.spec().unwrap(), "MCT"),
            Err(StoreError::DigestCollision { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn same_spec_different_configs_coexist() {
        let path = temp_path("per-config");
        let _ = std::fs::remove_file(&path);
        let mct = cnot_record("cnot");
        let spec = mct.spec().unwrap();
        // The same class synthesized under a richer library: a distinct
        // record with its own key, not a write-once duplicate.
        let peres = StoredCircuit::for_spec(
            &spec,
            "MCT+P",
            "cnot",
            1,
            1,
            2,
            true,
            vec![0, 1],
            mct.circuit.clone(),
        );
        assert_ne!(mct.digest, peres.digest);
        let mut store = Store::open(&path).unwrap();
        assert_eq!(store.put(mct.clone()).unwrap(), PutOutcome::Inserted);
        assert_eq!(store.put(peres.clone()).unwrap(), PutOutcome::Inserted);
        assert_eq!(store.len(), 2);
        drop(store);
        let store = Store::open(&path).unwrap();
        assert_eq!(store.get(&spec, "MCT").unwrap(), Some(&mct));
        assert_eq!(store.get(&spec, "MCT+P").unwrap(), Some(&peres));
        store.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn library_config_tags_distinguish_dedup_fredkin() {
        use qsyn_revlogic::GateLibrary;
        assert_eq!(library_config(GateLibrary::mct()), "MCT");
        assert_eq!(library_config(GateLibrary::mct_mcf()), "MCT+MCF");
        assert_eq!(
            library_config(GateLibrary::mct_mcf().with_dedup_fredkin()),
            "MCT+MCF+dedupF"
        );
        assert_eq!(
            library_config(GateLibrary::all().with_mixed_polarity()),
            "MPMCT+MCF+P"
        );
    }

    #[test]
    fn committed_records_disagreeing_fail_open() {
        let path = temp_path("disagree");
        let _ = std::fs::remove_file(&path);
        let a = cnot_record("a");
        let mut b = a.clone();
        b.rows[0].0 ^= 2; // same digest field, different truth table
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        for r in [&a, &b] {
            let payload = encode_record(r);
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&payload);
            bytes.extend_from_slice(&Fnv1a::hash(&payload).to_le_bytes());
        }
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(
            Store::open(&path),
            Err(StoreError::DigestCollision { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_magic_is_corrupt_not_truncated() {
        let path = temp_path("magic");
        std::fs::write(&path, b"NOTQSYN0rest").unwrap();
        assert!(matches!(
            Store::open(&path),
            Err(StoreError::Corrupt { offset: 0, .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn verify_flags_tampered_records() {
        let path = temp_path("verify");
        let _ = std::fs::remove_file(&path);
        let mut bad = cnot_record("bad");
        bad.depth = 7; // metadata no longer matches the circuit
        let payload = encode_record(&bad);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&Fnv1a::hash(&payload).to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        let store = Store::open(&path).unwrap();
        let err = store.verify().unwrap_err();
        assert!(err.to_string().contains("gates"), "{err}");
        assert!(!err.is_retryable());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn superseding_put_replaces_and_compact_reclaims() {
        let path = temp_path("supersede");
        let _ = std::fs::remove_file(&path);
        let mut store = Store::open(&path).unwrap();
        let original = cnot_record("first");
        let spec = original.spec().unwrap();
        store.put(original.clone()).unwrap();
        assert_eq!(store.dead_bytes(), 0);
        // Identical record: still write-once, no bytes spent.
        assert_eq!(
            store.put_superseding(original.clone()).unwrap(),
            PutOutcome::AlreadyPresent
        );
        assert_eq!(store.dead_bytes(), 0);
        // Refreshed metadata (a lower bound upgraded to an exact count):
        // last-wins, the old frame becomes dead bytes.
        let mut refreshed = original.clone();
        refreshed.name = "refreshed".to_string();
        refreshed.solution_count = 2;
        assert_eq!(
            store.put_superseding(refreshed.clone()).unwrap(),
            PutOutcome::Superseded
        );
        assert!(store.dead_bytes() > 0);
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(&spec, "MCT").unwrap(), Some(&refreshed));
        // A reopen replays to the same view and the same dead-byte count.
        let dead = store.dead_bytes();
        drop(store);
        let mut store = Store::open(&path).unwrap();
        assert_eq!(store.dead_bytes(), dead);
        assert_eq!(store.get(&spec, "MCT").unwrap(), Some(&refreshed));
        // Compaction reclaims exactly the dead bytes and survives reopen.
        let report = store.compact().unwrap();
        assert_eq!(report.reclaimed(), dead);
        assert_eq!(report.records, 1);
        assert_eq!(store.dead_bytes(), 0);
        assert_eq!(store.file_bytes(), report.bytes_after);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), report.bytes_after);
        // The handle is still writable post-compact.
        let other = {
            let swap = Spec::from_permutation(&Permutation::from_map(2, vec![0, 2, 1, 3]));
            StoredCircuit::for_spec(
                &swap,
                "MCT",
                "swap",
                3,
                3,
                1,
                true,
                vec![0, 1],
                ".numvars 2\n.variables x1 x2\n.begin\nt2 x1 x2\nt2 x2 x1\nt2 x1 x2\n.end\n"
                    .to_string(),
            )
        };
        store.put(other.clone()).unwrap();
        drop(store);
        let store = Store::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.dead_bytes(), 0);
        assert_eq!(store.get(&spec, "MCT").unwrap(), Some(&refreshed));
        store.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mostly_superseded_store_shrinks_by_more_than_half() {
        // The acceptance bar: ≥50% superseded records must shrink the
        // file. Supersede every record once, so over half the log's
        // record bytes are dead.
        let path = temp_path("shrink");
        let _ = std::fs::remove_file(&path);
        let mut store = Store::open(&path).unwrap();
        for seed in 0..8u64 {
            let mut r = random_record(seed);
            r.digest = seed;
            store.put(r.clone()).unwrap();
            // Same frame size (the count field is fixed-width), so dead
            // bytes are exactly half the record bytes.
            r.solution_count ^= 1;
            store.put_superseding(r).unwrap();
        }
        let before = store.file_bytes();
        let report = store.compact().unwrap();
        assert_eq!(report.bytes_before, before);
        assert!(
            report.bytes_after < before / 2 + MAGIC.len() as u64,
            "compaction left {} of {} bytes",
            report.bytes_after,
            before
        );
        assert_eq!(store.len(), 8);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn orphan_temp_is_reported_next_to_live_log_and_consumed_by_compact() {
        let path = temp_path("orphan");
        let tmp = temp_compaction_path(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&tmp);
        let mut store = Store::open(&path).unwrap();
        store.put(cnot_record("live")).unwrap();
        assert_eq!(store.orphan_temp_bytes(), None);
        // A compaction that died pre-rename leaves a torn temp file; the
        // live log stays authoritative and the orphan is reported.
        std::fs::write(&tmp, b"QSYNSTO2torn-frame").unwrap();
        assert_eq!(store.orphan_temp_bytes(), Some(18));
        drop(store);
        let store = Store::open(&path).unwrap();
        assert_eq!(store.len(), 1, "orphan next to a live log must be ignored");
        assert_eq!(store.orphan_temp_bytes(), Some(18));
        drop(store);
        let mut store = Store::open(&path).unwrap();
        store.compact().unwrap();
        assert_eq!(
            store.orphan_temp_bytes(),
            None,
            "a successful compact consumes the temp name"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_log_with_complete_temp_is_promoted() {
        let path = temp_path("promote");
        let tmp = temp_compaction_path(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&tmp);
        let record = cnot_record("promoted");
        {
            let mut store = Store::open(&path).unwrap();
            store.put(record.clone()).unwrap();
        }
        // Simulate the torn no-man's-land outside the atomic protocol:
        // the finished temp log exists, the main log vanished.
        std::fs::rename(&path, &tmp).unwrap();
        let store = Store::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.records().next(), Some(&record));
        assert_eq!(store.orphan_temp_bytes(), None, "promotion consumed tmp");
        store.verify().unwrap();
        // A temp file with bad magic is NOT promoted: fresh empty log,
        // orphan left for inspection.
        drop(store);
        let _ = std::fs::remove_file(&path);
        std::fs::write(&tmp, b"NOTAMAGIC").unwrap();
        let store = Store::open(&path).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.orphan_temp_bytes(), Some(9));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&tmp);
    }

    #[test]
    fn count_display_matches_solution_set_convention() {
        let mut r = cnot_record("c");
        r.solution_count = 24;
        r.count_is_exact = true;
        assert_eq!(r.count_display(), "24");
        r.count_is_exact = false;
        r.solution_count = 1;
        assert_eq!(r.count_display(), "≥1");
    }
}
