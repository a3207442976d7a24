//! Trace-identity fence: the PFS models must emit *exactly* the same
//! event stream, call for call.
//!
//! `canonical_report()` and the pinned corpus only see verdicts, so a
//! reordered pair of events, a changed RPC label or a moved parent edge
//! that happens not to move a verdict would pass every other gate. This
//! suite pins, per cell, the test-phase event count, an FNV-1a digest
//! of every event's `id`, `parent` and `Event::render()` line, and the
//! `live()` / `baseline()` cluster digests, in
//! `tests/expected_trace_identity.txt`.
//!
//! Cells: the Table 3 matrix (every program × file system × placement
//! variant at `Params::quick()`), one armed fault-plane seed per
//! networked file system, the non-default journaling modes, a POSIX
//! script that issues every `PfsCall` variant on a 3 + 3 cluster with
//! 16-byte stripes (clean and under chaos), and the whole bound-2
//! generated corpus folded into one line per file system.
//!
//! Regenerate (only for an *intended* model change) with
//! `cargo test --test trace_identity -- --ignored bless`.

use paracrash_suite::paracrash::Stack;
use paracrash_suite::simfs::JournalMode;
use paracrash_suite::simnet::FaultConfig;
use pc_rt::hash::{fnv1a_extend, FNV_OFFSET_BASIS};
use pfs::PfsCall;
use std::fmt::Write;
use workloads::{generated, FsKind, Params, Program};

const PINS: &str = "tests/expected_trace_identity.txt";

/// `(events, trace digest, live digest, baseline digest)` of one run.
fn fingerprint(stack: &Stack) -> (usize, u64, u64, u64) {
    let mut h = FNV_OFFSET_BASIS;
    for e in stack.rec.events() {
        let line = format!("{} {:?} {}\n", e.id, e.parent, e.render());
        h = fnv1a_extend(h, line.as_bytes());
    }
    (
        stack.rec.len(),
        h,
        stack.pfs.live().digest(),
        stack.pfs.baseline().digest(),
    )
}

fn cell(out: &mut String, label: &str, stack: &Stack) {
    let (events, trace, live, baseline) = fingerprint(stack);
    writeln!(
        out,
        "{label} events={events} trace={trace:016x} live={live:016x} baseline={baseline:016x}"
    )
    .unwrap();
}

fn all_programs() -> Vec<Program> {
    let mut programs = Program::paper_eleven().to_vec();
    programs.push(Program::CdfRename);
    programs
}

/// Every `PfsCall` variant, overwrites and extensions that straddle
/// stripes, same- and cross-directory renames with and without an
/// overwritten target, a directory rename, and two clients.
fn every_call(fs: FsKind, params: &Params) -> Stack {
    let mut s = Stack::new(fs.build(params));
    let path = |p: &str| p.to_string();
    let pwrite = |p: &str, offset: u64, len: usize, fill: u8| PfsCall::Pwrite {
        path: p.into(),
        offset,
        data: (0..len).map(|i| fill.wrapping_add(i as u8)).collect(),
    };
    s.posix(0, PfsCall::Mkdir { path: path("/A") });
    s.posix(0, PfsCall::Mkdir { path: path("/B") });
    s.posix(0, PfsCall::Creat { path: path("/A/f") });
    s.posix(0, pwrite("/A/f", 0, 40, b'a'));
    s.posix(0, PfsCall::Creat { path: path("/g") });
    s.posix(0, pwrite("/g", 0, 10, b'g'));
    s.posix(0, PfsCall::Close { path: path("/A/f") });
    s.seal_preamble();
    s.posix(0, pwrite("/A/f", 5, 20, b'A'));
    s.posix(0, pwrite("/A/f", 40, 30, b'B'));
    s.posix(0, PfsCall::Fsync { path: path("/A/f") });
    s.posix(0, PfsCall::Creat { path: path("/A/t") });
    s.posix(0, pwrite("/A/t", 0, 33, b't'));
    s.posix(0, PfsCall::Close { path: path("/A/t") });
    s.posix(
        0,
        PfsCall::Rename {
            src: path("/A/t"),
            dst: path("/A/f"),
        },
    );
    s.posix(
        0,
        PfsCall::Rename {
            src: path("/A/f"),
            dst: path("/B/f"),
        },
    );
    s.posix(1, PfsCall::Creat { path: path("/h") });
    s.posix(1, pwrite("/h", 3, 18, b'h'));
    s.posix(
        1,
        PfsCall::Rename {
            src: path("/h"),
            dst: path("/B/f"),
        },
    );
    s.posix(0, PfsCall::Mkdir { path: path("/C") });
    s.posix(
        0,
        PfsCall::Rename {
            src: path("/C"),
            dst: path("/D"),
        },
    );
    s.posix(0, PfsCall::Creat { path: path("/D/x") });
    s.posix(0, pwrite("/D/x", 0, 17, b'x'));
    s.posix(0, PfsCall::Unlink { path: path("/D/x") });
    s.posix(0, PfsCall::Rmdir { path: path("/D") });
    s.posix(1, PfsCall::Fsync { path: path("/g") });
    s.posix(1, PfsCall::Unlink { path: path("/B/f") });
    s
}

fn actual() -> String {
    let mut out = String::new();
    let quick = Params::quick();

    // The Table 3 matrix.
    for program in all_programs() {
        for fs in FsKind::all() {
            for (pname, placement) in program.placements() {
                let params = quick.clone().with_placement(placement);
                let label = format!("{} {} {pname}", program.name(), fs.name());
                cell(&mut out, &label, &program.run(fs, &params));
            }
        }
    }

    // One armed fault plane per networked file system.
    for (i, fs) in FsKind::parallel().into_iter().enumerate() {
        let seed = 0xC0FF_EE00 + i as u64;
        let params = quick.clone().with_faults(FaultConfig::chaos(seed));
        for program in [Program::Arvr, Program::H5Create] {
            let label = format!("{} {} chaos={seed:#x}", program.name(), fs.name());
            cell(&mut out, &label, &program.run(fs, &params));
        }
    }

    // Non-default journaling modes (GPFS journals at the block layer).
    for journal in [
        JournalMode::Ordered,
        JournalMode::Writeback,
        JournalMode::None,
    ] {
        for fs in FsKind::all() {
            if fs == FsKind::Gpfs {
                continue;
            }
            let params = quick.clone().with_journal(journal);
            let label = format!("WAL {} journal={journal:?}", fs.name());
            cell(&mut out, &label, &Program::Wal.run(fs, &params));
        }
    }

    // Every call variant on a wider cluster with tiny stripes.
    let wide = quick.clone().with_servers(3, 3).with_stripe(16);
    for fs in FsKind::all() {
        let label = format!("every-call {} 3+3 stripe=16", fs.name());
        cell(&mut out, &label, &every_call(fs, &wide));
        if fs != FsKind::Ext4 {
            let faulty = wide.clone().with_faults(FaultConfig::chaos(7));
            cell(
                &mut out,
                &format!("{label} chaos=0x7"),
                &every_call(fs, &faulty),
            );
        }
    }

    // The bound-2 generated corpus, folded per file system.
    let corpus = generated::corpus(2);
    for fs in FsKind::all() {
        let (mut events, mut h) = (0usize, FNV_OFFSET_BASIS);
        for w in &corpus {
            let (n, trace, live, baseline) = fingerprint(&w.run(fs, &quick));
            events += n;
            for word in [trace, live, baseline] {
                h = fnv1a_extend(h, &word.to_le_bytes());
            }
        }
        writeln!(
            out,
            "corpus(2) {} cells={} events={events} fold={h:016x}",
            fs.name(),
            corpus.len()
        )
        .unwrap();
    }
    out
}

fn pins_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(PINS)
}

#[test]
fn every_model_emits_the_pinned_event_stream() {
    let expected = std::fs::read_to_string(pins_path()).expect("pin file is committed");
    let actual = actual();
    let moved: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .map(|(e, a)| format!("- {e}\n+ {a}"))
        .collect();
    assert!(
        moved.is_empty() && expected.lines().count() == actual.lines().count(),
        "{} of {} cells moved (a model emits an event differently):\n{}",
        moved.len(),
        expected.lines().count(),
        moved.join("\n")
    );
}

/// Rewrites the pin file from the current models.
#[test]
#[ignore = "regenerates tests/expected_trace_identity.txt"]
fn bless() {
    std::fs::write(pins_path(), actual()).expect("pin file is writable");
}
