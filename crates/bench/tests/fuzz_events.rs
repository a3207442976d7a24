//! Campaign-level event-stream tests: enabling the stream must not
//! perturb the deterministic fold, the stream's canonical projection
//! must itself be deterministic, and the file holds the drivers' events
//! and nothing else.
//!
//! These live in `pc-bench` (not the root test package) because they
//! drive [`run_campaign`]; the stream and the armed injection target are
//! process-global, so the tests serialize on a lock and restore the
//! disabled default.

use paracrash::dashboard::render_dashboard;
use pc_bench::campaign::{run_campaign, FuzzOptions, SNAPSHOT_EVERY};
use pc_rt::obs::stream::{self, read_stream, Event, EventKind};
use std::sync::Mutex;
use workloads::FsKind;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn small_opts() -> FuzzOptions {
    FuzzOptions {
        sample: Some(8),
        file_systems: vec![FsKind::BeeGfs],
        ..FuzzOptions::pr_tier()
    }
}

/// Run a small campaign with the stream sinking to `path`; returns the
/// canonical report and the sink file's text.
fn run_streamed(path: &std::path::Path) -> (String, String) {
    let path_str = path.to_str().unwrap();
    stream::set_sink(path_str).expect("sink opens");
    let report = run_campaign(&small_opts())
        .expect("campaign runs")
        .corpus
        .canonical_report();
    stream::close();
    stream::set_enabled(false);
    pc_rt::obs::set_enabled(false);
    pc_rt::obs::reset();
    let text = std::fs::read_to_string(path).expect("stream file exists");
    std::fs::remove_file(path).ok();
    (report, text)
}

#[test]
fn streamed_campaign_reports_identically_and_projects_deterministically() {
    let _guard = TEST_LOCK.lock().unwrap();

    // Baseline: no stream.
    let plain = run_campaign(&small_opts())
        .expect("campaign runs")
        .corpus
        .canonical_report();

    let dir = std::env::temp_dir();
    let (report_a, stream_a) = run_streamed(&dir.join("pc-fuzz-events-a.jsonl"));
    let (report_b, stream_b) = run_streamed(&dir.join("pc-fuzz-events-b.jsonl"));

    // The stream observes the fold; it must never change it.
    assert_eq!(plain, report_a, "events sink must not perturb the report");
    assert_eq!(report_a, report_b);

    // The raw streams differ (timestamps, seqs); the canonical
    // projection must not.
    let canon_a = read_stream(&stream_a)
        .expect("stream a reads")
        .canonical_lines();
    let canon_b = read_stream(&stream_b)
        .expect("stream b reads")
        .canonical_lines();
    assert!(!canon_a.is_empty(), "campaign produced finding/cell events");
    assert_eq!(
        canon_a, canon_b,
        "canonical projection must be run-invariant"
    );
}

/// The events of `kind` in a stream.
fn of_kind(events: &[Event], kind: EventKind) -> Vec<&Event> {
    events.iter().filter(|e| e.kind == kind).collect()
}

#[test]
fn stream_carries_one_cell_event_per_campaign_cell() {
    let _guard = TEST_LOCK.lock().unwrap();
    let dir = std::env::temp_dir();
    let (report, text) = run_streamed(&dir.join("pc-fuzz-events-cells.jsonl"));
    let stream = read_stream(&text).expect("stream reads back");
    let events = &stream.events;
    let opts = small_opts();
    let expected_cells = 8 * opts.file_systems.len() * opts.modes.len();
    let cells = of_kind(events, EventKind::Cell);
    assert_eq!(
        cells.len(),
        expected_cells,
        "one cell event per campaign cell"
    );
    // Every cell event carries a nonzero causal trace id, and ids are
    // distinct across cells (one flow per check).
    let mut ids: Vec<u64> = cells.iter().map(|e| e.trace_id).collect();
    assert!(ids.iter().all(|&id| id > 0), "cells must be trace-tagged");
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), expected_cells, "trace ids are per-cell unique");
    // One finding event per finding of the report, one snapshot per
    // `SNAPSHOT_EVERY` cells plus the closing one — and nothing else:
    // no span, no counter, no per-check line.
    let findings = report.lines().find_map(|l| {
        let (_, rest) = l.split_once("findings=")?;
        rest.split_whitespace().next()?.parse::<usize>().ok()
    });
    assert_eq!(
        Some(of_kind(events, EventKind::Finding).len()),
        findings,
        "{report}"
    );
    let snapshots = expected_cells.div_ceil(SNAPSHOT_EVERY);
    assert_eq!(of_kind(events, EventKind::Snapshot).len(), snapshots);
    assert_eq!(
        events.len(),
        expected_cells + findings.unwrap() + snapshots,
        "a kind other than cell/finding/snapshot is in the stream"
    );
    assert_eq!(stream.published, Some(events.len() as u64));
}

/// One injected panic: the quarantine shows in the last snapshot's
/// running totals, and there is no retry anywhere — not in the report,
/// not on the dashboard — the cell is quarantined on its first panic.
#[test]
fn robustness_totals_ride_the_snapshot_into_the_dashboard() {
    let _guard = TEST_LOCK.lock().unwrap();
    let dir = std::env::temp_dir();
    let (_, clean) = run_streamed(&dir.join("pc-fuzz-events-clean.jsonl"));
    let events = read_stream(&clean).unwrap().events;
    let victim = of_kind(&events, EventKind::Cell)[0].name.clone();
    let clean_html = render_dashboard(&events, None);
    assert!(!clean_html.contains("campaign-robustness"));

    pc_rt::inject::arm(&victim, 1, 0);
    let (report, poisoned) = run_streamed(&dir.join("pc-fuzz-events-poisoned.jsonl"));
    pc_rt::inject::disarm();
    assert!(report.contains(&format!(
        "quarantined: panicked: injected crash at {victim}"
    )));

    // The caught panic wrote no line of its own: the stream closed with
    // every event counted.
    let stream = read_stream(&poisoned).unwrap();
    let events = stream.events;
    assert_eq!(stream.published, Some(events.len() as u64));
    let last = of_kind(&events, EventKind::Snapshot)
        .pop()
        .expect("a closing snapshot");
    assert!(
        last.detail.ends_with("resumed=0 quarantined=1"),
        "{}",
        last.detail
    );
    let html = render_dashboard(&events, None);
    assert!(!html.contains("retries"));
    // The quarantined cell publishes no `cell` event; the others do.
    assert_eq!(of_kind(&events, EventKind::Cell).len(), 7);
}
