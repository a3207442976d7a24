//! Torn-write regressions, one per journaling mode: what survives of a
//! multi-byte data write whose transaction was cut by a crash, and
//! whether the surviving state still passes the structural checker.

use paracrash_suite::{check_with, paracrash::CheckConfig, signatures, simfs};
use simfs::{torn_write, FsOp, FsState, Fsck, JournalMode};
use workloads::{FsKind, Params, Program};

fn victim() -> FsOp {
    FsOp::Pwrite {
        path: "/f".into(),
        offset: 0,
        data: b"ABCDEFGH".to_vec(),
    }
}

/// Apply a torn victim (if anything survives) to a fresh state holding
/// `/f`, and fsck the result.
fn tear_and_fsck(mode: JournalMode, keep: usize) -> (FsState, Option<FsOp>) {
    let mut fs = FsState::new();
    fs.creat("/f").unwrap();
    let torn = torn_write(mode, &victim(), keep);
    if let Some(op) = &torn {
        fs.apply(op).unwrap();
    }
    assert!(
        Fsck::check(&fs).is_empty(),
        "a torn data write must not corrupt FS structure under {mode:?}"
    );
    (fs, torn)
}

#[test]
fn data_journaling_discards_the_whole_torn_write() {
    // The torn transaction's commit record fails its checksum, so
    // recovery rolls the write back entirely: the file stays empty.
    let (fs, torn) = tear_and_fsck(JournalMode::Data, 3);
    assert_eq!(torn, None);
    assert_eq!(&fs.read("/f").unwrap()[..], b"");
}

#[test]
fn ordered_writeback_and_none_persist_the_prefix() {
    for mode in [
        JournalMode::Ordered,
        JournalMode::Writeback,
        JournalMode::None,
    ] {
        let (fs, torn) = tear_and_fsck(mode, 3);
        assert!(torn.is_some(), "{mode:?} must keep the surviving prefix");
        assert_eq!(
            &fs.read("/f").unwrap()[..],
            b"ABC",
            "{mode:?}: exactly the first `keep` bytes persist"
        );
    }
}

#[test]
fn metadata_ops_never_tear() {
    // Single-block metadata updates are atomic on every mode.
    let op = FsOp::Creat { path: "/g".into() };
    for mode in [
        JournalMode::Data,
        JournalMode::Ordered,
        JournalMode::Writeback,
        JournalMode::None,
    ] {
        assert_eq!(torn_write(mode, &op, 1), None);
    }
}

#[test]
fn commit_record_checksum_rejects_torn_records() {
    let rec = simfs::CommitRecord::new(7, b"journaled payload");
    let bytes = rec.encode();
    assert_eq!(simfs::CommitRecord::decode(&bytes), Some(rec));
    assert!(rec.validates(b"journaled payload"));
    // A torn payload, a torn record (short read) and a bit-flipped
    // record all fail the recovery-time replay gate.
    assert!(!rec.validates(b"journaled pay"));
    assert_eq!(simfs::CommitRecord::decode(&bytes[..bytes.len() - 1]), None);
    let mut flipped = bytes;
    flipped[0] ^= 1;
    let decoded = simfs::CommitRecord::decode(&flipped).unwrap();
    assert!(!decoded.is_intact());
}

#[test]
fn torn_faults_on_data_journaled_ext4_stay_clean() {
    // End to end: ext4 journals data, so even with torn-write injection
    // enabled the checker's verdicts match the fault-free control.
    let clean = check_with(
        Program::Arvr,
        FsKind::Ext4,
        &Params::quick(),
        &CheckConfig::paper_default(),
    );
    let torn = check_with(
        Program::Arvr,
        FsKind::Ext4,
        &Params::quick(),
        &torn_cfg(0x7042),
    );
    assert_eq!(signatures(&clean), signatures(&torn));
}

/// The paper's checker with torn-write widening drawn from `seed`.
fn torn_cfg(seed: u64) -> CheckConfig {
    CheckConfig {
        torn_seed: Some(seed),
        ..CheckConfig::paper_default()
    }
}

#[test]
fn same_seed_produces_bit_identical_reports() {
    let cfg = torn_cfg(0xC0FF_EE00);
    let check = || check_with(Program::Arvr, FsKind::BeeGfs, &Params::quick(), &cfg);
    assert_eq!(
        check().canonical_report(),
        check().canonical_report(),
        "identical torn seed must reproduce the report byte for byte"
    );
}
