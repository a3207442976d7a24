//! Campaign-level event-stream tests: enabling the flight recorder must
//! not perturb the deterministic fold, and the stream's canonical
//! projection must itself be deterministic.
//!
//! These live in `pc-bench` (not the root test package) because they
//! drive [`run_campaign`]; the recorder is process-global, so the
//! tests serialize on a lock and restore the disabled default.

use paracrash::telemetry::{canonical_event_lines, parse_event_stream};
use pc_bench::campaign::{run_campaign, CampaignOptions, FuzzOptions};
use pc_rt::json::Json;
use pc_rt::obs::stream;
use std::sync::Mutex;
use workloads::FsKind;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn small_opts() -> CampaignOptions {
    let fuzz = FuzzOptions {
        sample: Some(8),
        file_systems: vec![FsKind::BeeGfs],
        ..FuzzOptions::pr_tier()
    };
    CampaignOptions::new(fuzz, None)
}

/// Run a small campaign with the stream sinking to `path`; returns the
/// canonical report and the sink file's text.
fn run_streamed(path: &std::path::Path) -> (String, String) {
    let path_str = path.to_str().unwrap();
    stream::set_capacity(4096);
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

    // The recorder observes the fold; it must never change it.
    assert_eq!(plain, report_a, "events sink must not perturb the report");
    assert_eq!(report_a, report_b);

    // The raw streams differ (timestamps, seqs); the canonical
    // projection must not.
    let canon_a = canonical_event_lines(&stream_a).expect("stream a projects");
    let canon_b = canonical_event_lines(&stream_b).expect("stream b projects");
    assert!(!canon_a.is_empty(), "campaign produced finding/cell events");
    assert_eq!(
        canon_a, canon_b,
        "canonical projection must be run-invariant"
    );
}

#[test]
fn stream_carries_one_cell_event_per_campaign_cell() {
    let _guard = TEST_LOCK.lock().unwrap();
    let dir = std::env::temp_dir();
    let (_, text) = run_streamed(&dir.join("pc-fuzz-events-cells.jsonl"));
    let events = parse_event_stream(&text).expect("stream re-parses").events;
    let opts = small_opts().fuzz;
    let expected_cells = 8 * opts.file_systems.len() * opts.modes.len();
    let cells = events
        .iter()
        .filter(|e| e.get("kind").and_then(Json::as_str) == Some("cell"))
        .count();
    assert_eq!(cells, expected_cells, "one cell event per campaign cell");
    // Every cell event carries a nonzero causal trace id, and ids are
    // distinct across cells (one flow per check).
    let mut ids: Vec<u64> = events
        .iter()
        .filter(|e| e.get("kind").and_then(Json::as_str) == Some("cell"))
        .map(|e| e.get("trace_id").and_then(Json::as_int).unwrap())
        .collect();
    assert!(ids.iter().all(|&id| id > 0), "cells must be trace-tagged");
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), expected_cells, "trace ids are per-cell unique");
    // The driver stamped at least one Good–Turing snapshot.
    assert!(
        events
            .iter()
            .any(|e| e.get("kind").and_then(Json::as_str) == Some("snapshot")),
        "campaign end emits a saturation snapshot"
    );
}
