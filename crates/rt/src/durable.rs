//! Crash-safe on-disk primitives for long-running campaigns.
//!
//! The checker spends its life proving that *other* software survives a
//! crash at any point; this module applies the same discipline to the
//! checker's own state, with one primitive: [`RecordLog`], an
//! append-only, checksummed, length-prefixed record log. Every record is
//! `[len: u32 LE][crc32: u32 LE][payload]` behind a 16-byte magic header,
//! fsynced per append. [`RecordLog::open`] validates the file
//! sequentially and **truncates the torn tail**: the first short or
//! CRC-corrupt record and everything after it is cut, exactly the
//! recovery a crash mid-append requires. The log is the whole durable
//! state of a campaign: a resume is a replay of it.
//!
//! Every write goes through a *durability point* — an instant where a
//! real power cut would bite: the header write (`durable:header`) and
//! each record append (`durable:append`). They are [`crate::inject`]
//! points whose argument is a tear length: a test that arms
//! `durable:` at hit N gets the first `arg` bytes of the N-th write
//! written and synced — a torn record — and then the crash.

use crate::inject;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// 16-byte file header identifying a `pc-durable` record log, version 1.
pub const MAGIC: [u8; 16] = *b"pc-durable-log1\n";

/// Per-record header: `[len: u32 LE][crc32: u32 LE]`.
pub const RECORD_HEADER: usize = 8;

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected) — table-driven, std-only.
// ---------------------------------------------------------------------------

fn crc32_table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        let mut i = 0usize;
        while i < 256 {
            let mut c = i as u32;
            let mut bit = 0;
            while bit < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                bit += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    })
}

/// CRC32 (IEEE 802.3, reflected) of `bytes` — the per-record checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Write `bytes` to `file` through the durability point `label`: a crash
/// armed here leaves a torn prefix of `bytes` behind, synced, so the
/// tear is what a reopen observes.
fn write_with_tear_point(file: &mut File, bytes: &[u8], label: &str) -> io::Result<()> {
    inject::point(label, |tear| {
        let keep = (bytes.len() as u64).min(tear) as usize;
        let _ = file.write_all(&bytes[..keep]);
        let _ = file.sync_data();
    });
    file.write_all(bytes)?;
    file.sync_data()
}

// ---------------------------------------------------------------------------
// Filesystem helpers.
// ---------------------------------------------------------------------------

/// Create the parent directory of `path` (and ancestors) if missing.
/// A bare filename (no parent) is a no-op.
pub fn ensure_parent_dir(path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    Ok(())
}

fn fsync_parent(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    File::open(parent)?.sync_all()
}

// ---------------------------------------------------------------------------
// The record log.
// ---------------------------------------------------------------------------

/// An append-only, CRC-checked, length-prefixed record log (see the
/// module docs for the on-disk format and recovery rules).
#[derive(Debug)]
pub struct RecordLog {
    file: File,
    path: PathBuf,
}

impl RecordLog {
    /// Open (or create) the log at `path`, validate it sequentially,
    /// truncate any torn tail, and return the intact records in append
    /// order. The returned log is positioned for appending.
    ///
    /// A file that exists but does not start with [`MAGIC`] (beyond a
    /// torn prefix of it, which a crash during creation can leave) is
    /// refused with `InvalidData` rather than silently clobbered.
    ///
    /// Creating the log fsyncs its directory after the header, so the
    /// file — and every record later `sync_data`-ed into it — survives
    /// a power loss (creat without a directory fsync is the paper's own
    /// CR/ARVR pattern). No test holds this: a lost directory entry is
    /// not observable in-process, and it adds no durability point.
    pub fn open(path: &Path) -> io::Result<(RecordLog, Vec<Vec<u8>>)> {
        ensure_parent_dir(path)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        if buf.len() < MAGIC.len() {
            // Empty, or a torn prefix of the header from a crash during
            // creation: (re)write the header.
            if !MAGIC.starts_with(&buf[..]) {
                return Err(not_a_log(path));
            }
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            write_with_tear_point(&mut file, &MAGIC, "durable:header")?;
            fsync_parent(path)?;
            let log = RecordLog {
                file,
                path: path.to_path_buf(),
            };
            return Ok((log, Vec::new()));
        }
        if buf[..MAGIC.len()] != MAGIC {
            return Err(not_a_log(path));
        }
        let mut records = Vec::new();
        let mut valid = MAGIC.len();
        loop {
            let rest = &buf[valid..];
            if rest.len() < RECORD_HEADER {
                break; // clean end, or a torn record header
            }
            let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
            let Some(payload) = rest.get(RECORD_HEADER..RECORD_HEADER + len) else {
                break; // torn payload
            };
            if crc32(payload) != crc {
                break; // corrupt record: cut it and everything after
            }
            records.push(payload.to_vec());
            valid += RECORD_HEADER + len;
        }
        if valid < buf.len() {
            file.set_len(valid as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid as u64))?;
        let log = RecordLog {
            file,
            path: path.to_path_buf(),
        };
        Ok((log, records))
    }

    /// Append one record and fsync it (one durability point; an armed
    /// tear leaves a short prefix of the framed record behind).
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let mut framed = Vec::with_capacity(RECORD_HEADER + payload.len());
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&crc32(payload).to_le_bytes());
        framed.extend_from_slice(payload);
        write_with_tear_point(&mut self.file, &framed, "durable:append")
    }

    /// The path this log lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn not_a_log(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{} is not a pc-durable record log", path.display()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proptest::{run, Config};
    use crate::{prop_assert, prop_assert_eq};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Every write here passes a durability point, and the armed
    /// injection target is process-global: serialize the tests (and
    /// give each its own scratch dir).
    fn lock_tests() -> std::sync::MutexGuard<'static, ()> {
        crate::lock(&inject::TEST_LOCK)
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pc-durable-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed),
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn log_roundtrips_and_reopens() {
        let _g = lock_tests();
        let dir = scratch_dir("roundtrip");
        let path = dir.join("corpus.log");
        {
            let (mut log, records) = RecordLog::open(&path).unwrap();
            assert!(records.is_empty());
            log.append(b"alpha").unwrap();
            log.append(b"").unwrap();
            log.append(b"gamma gamma").unwrap();
        }
        let (mut log, records) = RecordLog::open(&path).unwrap();
        assert_eq!(
            records,
            vec![b"alpha".to_vec(), Vec::new(), b"gamma gamma".to_vec()]
        );
        log.append(b"delta").unwrap();
        let (_, records) = RecordLog::open(&path).unwrap();
        assert_eq!(records.len(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// What a crash leaves of the file: a cut at a byte offset, or one
    /// bit flipped in one byte past the header.
    #[derive(Debug)]
    enum Maul {
        Truncate(u64),
        Flip(u64, u8),
    }

    /// Recovery is exactly the longest committed prefix. After a cut
    /// anywhere or a flipped bit anywhere past the header, a reopen
    /// returns every record wholly before the damage, byte for byte, and
    /// nothing at or after it, truncates the file to them, and the log
    /// then stays appendable.
    #[test]
    fn recovery_keeps_exactly_the_records_before_the_damage() {
        let _g = lock_tests();
        run(
            "recovery_keeps_exactly_the_records_before_the_damage",
            &Config::with_cases(64).max_size(200),
            |rng, size| {
                let records = 1 + rng.gen_range(0..=size.min(11) as u64);
                let payloads: Vec<Vec<u8>> = (0..records)
                    .map(|_| {
                        let len = rng.gen_range(0..=size as u64);
                        (0..len).map(|_| rng.next_u32() as u8).collect()
                    })
                    .collect();
                let lo = MAGIC.len() as u64;
                let end = payloads
                    .iter()
                    .fold(lo, |end, p| end + (RECORD_HEADER + p.len()) as u64);
                let maul = if rng.next_u32() % 2 == 0 {
                    Maul::Truncate(rng.gen_range(lo..=end))
                } else {
                    Maul::Flip(rng.gen_range(lo..end), rng.gen_range(0..8u64) as u8)
                };
                (payloads, maul)
            },
            |(payloads, maul)| {
                let dir = scratch_dir("recovery");
                let path = dir.join("corpus.log");
                let (mut log, _) = RecordLog::open(&path).unwrap();
                // ends[i]: the length of the file holding the first i records.
                let mut ends = vec![MAGIC.len() as u64];
                for payload in payloads {
                    log.append(payload).unwrap();
                    ends.push(ends[ends.len() - 1] + (RECORD_HEADER + payload.len()) as u64);
                }
                drop(log);
                let damage_at = match *maul {
                    Maul::Truncate(at) => {
                        let file = OpenOptions::new().write(true).open(&path).unwrap();
                        file.set_len(at).unwrap();
                        at
                    }
                    Maul::Flip(at, bit) => {
                        let mut bytes = fs::read(&path).unwrap();
                        bytes[at as usize] ^= 1 << bit;
                        fs::write(&path, &bytes).unwrap();
                        at
                    }
                };
                // A cut at a record boundary keeps that record; a flip
                // there damages the next one (its first header byte).
                let survivors = ends[1..].iter().filter(|&&e| e <= damage_at).count();
                let (mut log, recovered) = RecordLog::open(&path).unwrap();
                prop_assert_eq!(recovered.as_slice(), &payloads[..survivors]);
                prop_assert_eq!(fs::metadata(&path).unwrap().len(), ends[survivors]);
                log.append(b"post-recovery").unwrap();
                drop(log);
                let (_, after) = RecordLog::open(&path).unwrap();
                fs::remove_dir_all(&dir).unwrap();
                prop_assert!(
                    after.len() == survivors + 1 && after[survivors] == b"post-recovery",
                    "the append after recovery is not read back"
                );
                Ok(())
            },
        );
    }

    #[test]
    fn refuses_a_foreign_file() {
        let _g = lock_tests();
        let dir = scratch_dir("foreign");
        let path = dir.join("notalog.bin");
        fs::write(&path, b"definitely not a record log header").unwrap();
        let err = RecordLog::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_tear_crash_recovers_to_prefix() {
        let _g = lock_tests();
        let dir = scratch_dir("inject");
        let path = dir.join("corpus.log");
        {
            let (mut log, _) = RecordLog::open(&path).unwrap();
            log.append(b"one").unwrap();
            log.append(b"two").unwrap();
        }
        // Reopen is not a durability point; the next two appends are.
        // Crash on the second with a 6-byte tear (header torn mid-way).
        inject::arm("durable:", 2, 6);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (mut log, _) = RecordLog::open(&path).unwrap();
            log.append(b"three").unwrap();
            log.append(b"four").unwrap();
            unreachable!("the armed crash must fire before this");
        }));
        inject::disarm();
        assert!(crashed.is_err(), "armed crash must unwind");
        let (_, records) = RecordLog::open(&path).unwrap();
        assert_eq!(
            records,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()],
            "crash on the fourth append: its tear must be truncated away"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_unreached_target_counts_the_durability_points() {
        let _g = lock_tests();
        let dir = scratch_dir("points");
        let path = dir.join("corpus.log");
        inject::arm("durable:", u64::MAX, 0);
        let (mut log, _) = RecordLog::open(&path).unwrap(); // header write: 1 point
        log.append(b"a").unwrap(); // 2
        log.append(b"b").unwrap(); // 3
        drop(log);
        RecordLog::open(&path).unwrap(); // a reopen is not a point
        assert_eq!(inject::disarm(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }
}
