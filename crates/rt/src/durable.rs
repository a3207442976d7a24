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
//! # Self-crash-testing (`PC_DURABLE_CRASH`)
//!
//! The log threads every write through *durability points* — the
//! instants where a real power cut would bite. The `PC_DURABLE_CRASH`
//! environment variable (or [`arm_crash`] programmatically) injects a
//! crash at the N-th point of the process:
//!
//! ```text
//! PC_DURABLE_CRASH=at=N[,tear=K][,mode=exit|panic]
//! ```
//!
//! * `at=N` — fire at the N-th durability point (1-based).
//! * `tear=K` — before crashing, write only the first `K` bytes of the
//!   pending buffer (a short write / torn record). Omitted: write nothing.
//! * `mode=exit` (default) — `std::process::exit(137)`, mimicking
//!   SIGKILL for end-to-end kill-resume gates; `mode=panic` unwinds so
//!   in-process tests can catch the "crash" and resume in the same
//!   process.
//!
//! [`points_seen`] / [`reset_points`] let a harness count the durability
//! points of an uninterrupted run and then replay it with a crash armed
//! at every single one.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

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

// ---------------------------------------------------------------------------
// Crash injection.
// ---------------------------------------------------------------------------

/// How an injected crash takes the process down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashMode {
    /// `std::process::exit(137)` — indistinguishable from SIGKILL to a
    /// parent shell; the mode end-to-end gates use.
    Exit,
    /// `panic!` — unwinds, so an in-process test can `catch_unwind` the
    /// "crash", then reopen the log and prove recovery, all in one
    /// process.
    Panic,
}

/// A parsed `PC_DURABLE_CRASH` spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// Fire at this durability point (1-based).
    pub at: u64,
    /// Short-write this many bytes of the pending buffer before
    /// crashing; `None` writes nothing.
    pub tear: Option<usize>,
    /// Exit or panic.
    pub mode: CrashMode,
}

impl CrashSpec {
    /// Parse `at=N[,tear=K][,mode=exit|panic]`. Returns `None` on any
    /// malformed field (a misspelt injection spec must not silently run
    /// the campaign un-injected — callers should treat `None` on a
    /// non-empty string as a usage error).
    pub fn parse(spec: &str) -> Option<CrashSpec> {
        let mut at = None;
        let mut tear = None;
        let mut mode = CrashMode::Exit;
        for field in spec.split(',') {
            let (key, value) = field.split_once('=')?;
            match key.trim() {
                "at" => at = Some(value.trim().parse::<u64>().ok()?),
                "tear" => tear = Some(value.trim().parse::<usize>().ok()?),
                "mode" => {
                    mode = match value.trim() {
                        "exit" => CrashMode::Exit,
                        "panic" => CrashMode::Panic,
                        _ => return None,
                    }
                }
                _ => return None,
            }
        }
        let at = at?;
        if at == 0 {
            return None;
        }
        Some(CrashSpec { at, tear, mode })
    }
}

struct CrashState {
    armed: Option<CrashSpec>,
    seen: u64,
}

fn crash_state() -> &'static Mutex<CrashState> {
    static STATE: OnceLock<Mutex<CrashState>> = OnceLock::new();
    STATE.get_or_init(|| {
        let armed = crate::env::get(crate::env::DURABLE_CRASH)
            .filter(|s| !s.is_empty())
            .and_then(|s| CrashSpec::parse(&s));
        Mutex::new(CrashState { armed, seen: 0 })
    })
}

fn lock_state() -> std::sync::MutexGuard<'static, CrashState> {
    // A panic-mode injection never panics while holding the lock, but
    // recover from poisoning anyway: the state stays meaningful.
    crate::lock(crash_state())
}

/// Arm a crash programmatically (overrides any `PC_DURABLE_CRASH` env
/// spec). Pair with [`reset_points`] so `at` counts from now.
pub fn arm_crash(spec: CrashSpec) {
    lock_state().armed = Some(spec);
}

/// Disarm crash injection for the rest of the process.
pub fn disarm_crash() {
    lock_state().armed = None;
}

/// Durability points seen so far in this process (monotonic, counted
/// whether or not a crash is armed).
pub fn points_seen() -> u64 {
    lock_state().seen
}

/// Reset the durability-point counter to zero (test harnesses only).
pub fn reset_points() {
    lock_state().seen = 0;
}

/// Note one durability point; returns the injection to perform now, if
/// this is the armed point.
fn fire_check() -> Option<CrashSpec> {
    let mut state = lock_state();
    state.seen += 1;
    match state.armed {
        Some(spec) if state.seen == spec.at => Some(spec),
        _ => None,
    }
}

fn crash_now(spec: CrashSpec, what: &str) -> ! {
    match spec.mode {
        CrashMode::Exit => {
            eprintln!(
                "pc-durable: injected crash at durability point {} ({what})",
                spec.at
            );
            std::process::exit(137);
        }
        CrashMode::Panic => panic!(
            "pc-durable: injected crash at durability point {} ({what})",
            spec.at
        ),
    }
}

/// Write `bytes` to `file` through a durability point: an armed crash
/// here leaves at most a torn prefix of `bytes` behind (synced, so the
/// tear is what a reopen actually observes).
fn write_with_tear_point(file: &mut File, bytes: &[u8], what: &str) -> io::Result<()> {
    if let Some(spec) = fire_check() {
        let keep = spec.tear.unwrap_or(0).min(bytes.len());
        let _ = file.write_all(&bytes[..keep]);
        let _ = file.sync_data();
        crash_now(spec, what);
    }
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
            write_with_tear_point(&mut file, &MAGIC, "log header write")?;
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
        write_with_tear_point(&mut self.file, &framed, "record append")
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
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Crash-injection state is process-global; serialize the tests
    /// that touch it (and give each test its own scratch dir).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock_tests() -> std::sync::MutexGuard<'static, ()> {
        crate::lock(&TEST_LOCK)
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
    fn spec_parsing() {
        assert_eq!(
            CrashSpec::parse("at=3"),
            Some(CrashSpec {
                at: 3,
                tear: None,
                mode: CrashMode::Exit
            })
        );
        assert_eq!(
            CrashSpec::parse("at=7,tear=5,mode=panic"),
            Some(CrashSpec {
                at: 7,
                tear: Some(5),
                mode: CrashMode::Panic
            })
        );
        assert!(CrashSpec::parse("at=0").is_none());
        assert!(CrashSpec::parse("tear=5").is_none());
        assert!(CrashSpec::parse("at=1,mode=sigkill").is_none());
        assert!(CrashSpec::parse("").is_none());
    }

    #[test]
    fn log_roundtrips_and_reopens() {
        let _g = lock_tests();
        disarm_crash();
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

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let _g = lock_tests();
        disarm_crash();
        let dir = scratch_dir("torn");
        let path = dir.join("corpus.log");
        {
            let (mut log, _) = RecordLog::open(&path).unwrap();
            log.append(b"keep me").unwrap();
        }
        // Simulate a crash mid-append: a record header promising more
        // payload than exists.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&100u32.to_le_bytes()).unwrap();
            f.write_all(&0u32.to_le_bytes()).unwrap();
            f.write_all(b"short").unwrap();
        }
        let before = fs::metadata(&path).unwrap().len();
        let (mut log, records) = RecordLog::open(&path).unwrap();
        assert_eq!(records, vec![b"keep me".to_vec()]);
        assert!(fs::metadata(&path).unwrap().len() < before);
        log.append(b"after recovery").unwrap();
        let (_, records) = RecordLog::open(&path).unwrap();
        assert_eq!(
            records,
            vec![b"keep me".to_vec(), b"after recovery".to_vec()]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_cuts_the_tail_from_there() {
        let _g = lock_tests();
        disarm_crash();
        let dir = scratch_dir("corrupt");
        let path = dir.join("corpus.log");
        {
            let (mut log, _) = RecordLog::open(&path).unwrap();
            log.append(b"first").unwrap();
            log.append(b"second").unwrap();
            log.append(b"third").unwrap();
        }
        // Flip one payload byte of the second record.
        let mut bytes = fs::read(&path).unwrap();
        let second_payload = MAGIC.len() + RECORD_HEADER + 5 + RECORD_HEADER;
        bytes[second_payload] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let (_, records) = RecordLog::open(&path).unwrap();
        assert_eq!(records, vec![b"first".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refuses_a_foreign_file() {
        let _g = lock_tests();
        disarm_crash();
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
        reset_points();
        arm_crash(CrashSpec {
            at: 2,
            tear: Some(6),
            mode: CrashMode::Panic,
        });
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (mut log, _) = RecordLog::open(&path).unwrap();
            log.append(b"three").unwrap();
            log.append(b"four").unwrap();
            unreachable!("the armed crash must fire before this");
        }));
        disarm_crash();
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
    fn points_are_counted_while_disarmed() {
        let _g = lock_tests();
        disarm_crash();
        let dir = scratch_dir("points");
        let path = dir.join("corpus.log");
        reset_points();
        let (mut log, _) = RecordLog::open(&path).unwrap(); // header write: 1 point
        log.append(b"a").unwrap(); // 2
        log.append(b"b").unwrap(); // 3
        drop(log);
        RecordLog::open(&path).unwrap(); // a reopen is not a point
        assert_eq!(points_seen(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }
}
