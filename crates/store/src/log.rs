//! The append-only record log under the circuit store (magic `QSYNSTO2`)
//! and the batch journal (`QSYNJRN1`): `magic frame*`, each frame a `u32`
//! LE payload length, the payload and its `u64` LE FNV-1a checksum.
//!
//! [`Log::append_synced`] writes a whole frame in one `write` call and
//! `fsync`s it, cutting the file back to its committed end on failure.
//! [`Log::open`] replays the frames and **truncates the torn tail** from
//! the first frame that is short, fails its checksum or that the caller's
//! decoder refuses. So a valid frame never follows a bad one, and a crash
//! at any byte costs at most the record being written. A strict prefix of
//! the magic (a crash while the log was created) opens as an empty log.
//!
//! std only: `cargo xtask chaos` compiles this file in by path.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Bytes a frame adds around its payload: length prefix and checksum.
pub const FRAME_OVERHEAD: u64 = 12;

/// Incremental 64-bit FNV-1a — the workspace's one content hasher (frame
/// checksums, spec digests, batch result digests).
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

/// Appends the frame holding `payload` to `out`.
pub fn frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&Fnv1a::hash(payload).to_le_bytes());
}

/// The payload framed at `bytes[pos..]`; `None` when the frame is torn
/// or fails its checksum (a garbage length only bounds a slice).
fn payload_at(bytes: &[u8], pos: usize) -> Option<&[u8]> {
    let len = u32::from_le_bytes(bytes.get(pos..pos + 4)?.try_into().ok()?) as usize;
    let rest = &bytes[pos + 4..];
    let payload = rest.get(..len)?;
    let checksum = rest.get(len..len + 8)?;
    (Fnv1a::hash(payload).to_le_bytes() == checksum).then_some(payload)
}

/// Every decoded record of a whole log file, and the end of the last
/// valid frame (0 for an empty file or a torn magic).
fn replay<T>(
    bytes: &[u8],
    magic: &[u8; 8],
    mut decode: impl FnMut(&[u8]) -> Option<T>,
) -> io::Result<(Vec<T>, usize)> {
    if bytes.len() < magic.len() && magic.starts_with(bytes) {
        return Ok((Vec::new(), 0));
    }
    if !bytes.starts_with(magic) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad magic (want {:?})", String::from_utf8_lossy(magic)),
        ));
    }
    let mut records = Vec::new();
    let mut pos = magic.len();
    while let Some(payload) = payload_at(bytes, pos) {
        let Some(record) = decode(payload) else { break };
        records.push(record);
        pos += payload.len() + FRAME_OVERHEAD as usize;
    }
    Ok((records, pos))
}

/// Replays the log at `path` as [`Log::open`] does, errors included, but
/// without touching the file; a missing file reads as an empty log.
pub fn read<T>(
    path: &Path,
    magic: &[u8; 8],
    decode: impl FnMut(&[u8]) -> Option<T>,
) -> io::Result<Vec<T>> {
    let bytes = match std::fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        read => read?,
    };
    Ok(replay(&bytes, magic, decode)?.0)
}

/// An open log, positioned at its committed end; see the module docs.
#[derive(Debug)]
pub struct Log {
    file: File,
    /// Committed end of the log (everything before this offset is valid).
    end: u64,
    /// Bytes cut off by torn-tail repair at open (0 for a clean log).
    truncated: u64,
}

impl Log {
    /// Opens (creating if absent) the log at `path` and returns every
    /// record `decode` accepts up to the first bad frame, in log order,
    /// after truncating the tail from there (a new file gets `magic`).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] when the file does not start with
    /// `magic` (it is left untouched); otherwise the underlying I/O error.
    pub fn open<T>(
        path: &Path,
        magic: &[u8; 8],
        decode: impl FnMut(&[u8]) -> Option<T>,
    ) -> io::Result<(Log, Vec<T>)> {
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid) = replay(&bytes, magic, decode)?;
        if valid < bytes.len() || valid == 0 {
            file.set_len(valid as u64)?;
            file.seek(SeekFrom::Start(valid as u64))?;
            if valid == 0 {
                file.write_all(magic)?;
            }
            file.sync_data()?;
        }
        let log = Log {
            file,
            end: valid.max(magic.len()) as u64,
            truncated: (bytes.len() - valid) as u64,
        };
        Ok((log, records))
    }

    /// Takes over `file`, a log of `end` bytes its caller wrote whole,
    /// synced and left positioned at its end (the store's compaction).
    pub fn adopt(file: File, end: u64) -> Log {
        Log {
            file,
            end,
            truncated: 0,
        }
    }

    /// Appends one frame holding `payload` with a single write and syncs
    /// it. An I/O error is returned after the file is cut back to its
    /// committed end (if even that fails, the next open truncates it).
    pub fn append_synced(&mut self, payload: &[u8]) -> io::Result<()> {
        let mut framed = Vec::with_capacity(payload.len() + FRAME_OVERHEAD as usize);
        frame(&mut framed, payload);
        let written = self
            .file
            .write_all(&framed)
            .and_then(|()| self.file.sync_data());
        if let Err(e) = written {
            let _ = self.file.set_len(self.end);
            let _ = self.file.seek(SeekFrom::Start(self.end));
            return Err(e);
        }
        self.end += framed.len() as u64;
        Ok(())
    }

    /// Committed size of the log in bytes (magic included).
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Bytes cut off by torn-tail repair when this log was opened.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"TESTLOG1";

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("qsyn-log-{tag}-{}", std::process::id()))
    }

    fn utf8(payload: &[u8]) -> Option<String> {
        String::from_utf8(payload.to_vec()).ok()
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
    }

    #[test]
    fn frames_are_length_payload_checksum() {
        let mut out = Vec::new();
        frame(&mut out, b"ab");
        let mut want = vec![2, 0, 0, 0, b'a', b'b'];
        want.extend_from_slice(&Fnv1a::hash(b"ab").to_le_bytes());
        assert_eq!(out, want);
        assert_eq!(out.len() as u64, 2 + FRAME_OVERHEAD);
    }

    /// Kill-at-any-byte: cutting a three-frame log at every offset and
    /// reopening keeps exactly the whole frames, cuts the file back to
    /// the last of them, and leaves it appendable.
    #[test]
    fn open_truncates_a_cut_at_every_byte_to_the_whole_frames() {
        let path = temp_path("every-byte");
        let _ = std::fs::remove_file(&path);
        let payloads = ["first", "second record", "third"];
        let mut ends = vec![MAGIC.len() as u64];
        {
            let (mut log, records) = Log::open(&path, MAGIC, utf8).unwrap();
            assert!(records.is_empty());
            for p in payloads {
                log.append_synced(p.as_bytes()).unwrap();
                ends.push(log.end());
            }
        }
        let full = std::fs::read(&path).unwrap();
        assert_eq!(full.len() as u64, ends[3]);
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let whole = ends[1..].iter().filter(|&&e| e <= cut as u64).count();
            assert_eq!(read(&path, MAGIC, utf8).unwrap(), payloads[..whole]);
            let (mut log, records) = Log::open(&path, MAGIC, utf8).unwrap();
            assert_eq!(records, payloads[..whole], "cut at {cut}");
            assert_eq!(log.end(), ends[whole], "cut at {cut}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), ends[whole]);
            // A torn magic is dropped whole and rewritten.
            let torn = if cut < MAGIC.len() { 0 } else { ends[whole] };
            assert_eq!(log.truncated(), cut as u64 - torn, "cut at {cut}");
            for p in &payloads[whole..] {
                log.append_synced(p.as_bytes()).unwrap();
            }
            drop(log);
            assert_eq!(std::fs::read(&path).unwrap(), full, "cut at {cut}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_stops_at_the_first_frame_that_does_not_decode() {
        let path = temp_path("refused");
        let mut bytes = MAGIC.to_vec();
        for p in [&b"ok"[..], &[0xff][..], b"after"] {
            frame(&mut bytes, p);
        }
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read(&path, MAGIC, utf8).unwrap(), ["ok"]);
        let (log, records) = Log::open(&path, MAGIC, utf8).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(log.end(), MAGIC.len() as u64 + 2 + FRAME_OVERHEAD);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_is_refused_and_the_file_left_untouched() {
        let path = temp_path("magic");
        let old = b"{\"key\":\"0:a:00\"}\n";
        std::fs::write(&path, old).unwrap();
        let err = Log::open(&path, MAGIC, utf8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad magic"), "{err}");
        assert_eq!(read(&path, MAGIC, utf8).unwrap_err().kind(), err.kind());
        assert_eq!(std::fs::read(&path).unwrap(), old);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_reads_empty_and_is_not_created() {
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        assert!(read(&path, MAGIC, utf8).unwrap().is_empty());
        assert!(!path.exists());
    }
}
