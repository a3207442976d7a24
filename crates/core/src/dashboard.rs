//! `paracrash report` — a self-contained HTML dashboard for a campaign.
//!
//! The renderer is the read side of the observability plane: it takes
//! what a run leaves behind — the events of a `--events-out` stream, an
//! optional `--telemetry-out` trace, an optional `--profile-out` profile,
//! each already read by the module that writes it
//! (`pc_rt::obs::stream::read_stream`, [`crate::telemetry::read_trace`],
//! `pc_rt::obs::prof::parse_folded`) — and emits **one** HTML file with
//! inline CSS and inline SVG: no scripts, no external fonts, no network.
//! Open it from disk, attach it to a bug report, archive it next to the
//! corpus.
//!
//! Sections, in reading order:
//!
//! * **stat tiles** — cells checked, distinct findings, behavior
//!   classes, coverage saturation, throughput;
//! * **coverage curve** — behavior classes and findings discovered as a
//!   function of cells checked (the "is discovery still growing?"
//!   picture both Pathfinder-style dedup and B3-style bounded fuzzing
//!   steer by), with a plain-table fallback view;
//! * **stage-time breakdown** — total wall time per telemetry span
//!   name, from the `--telemetry` trace (the stream carries no spans;
//!   without a trace the section says so);
//! * **finding heatmap** — findings per file system × journal mode, a
//!   table shaded on a single-hue sequential ramp;
//! * **flame view** — a no-script SVG icicle of a `--profile-out`
//!   `.folded` profile (exact self time by span stack) over its sorted
//!   stack table;
//! * **allocation attribution** — per-span alloc count / bytes / peak
//!   tiles and table from the counting allocator, when the trace
//!   recorded any allocation.
//!
//! Every metric element carries a `data-metric` attribute; the
//! observability verify gate requires the full set in a rendered sweep
//! report, so a dashboard that silently lost a section fails CI.

use crate::telemetry::Trace;
use pc_rt::obs::prof::fmt_bytes;
use pc_rt::obs::stream::{Event, EventKind};
use pc_rt::obs::{fmt_ns, span_totals, SpanTotal};

/// One `cell` event: the campaign's per-cell fold state.
struct CellPoint<'a> {
    name: &'a str,
    behaviors: u64,
    findings: u64,
    wall_ns: u64,
}

/// Pull `key=value` out of an event detail string.
fn detail_field(detail: &str, key: &str) -> Option<u64> {
    detail.split_whitespace().find_map(|tok| {
        tok.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix('='))
            .and_then(|v| v.parse().ok())
    })
}

/// Escape text for an HTML/SVG text node or attribute value.
fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// One row of stat tiles in a `tag` element: `(data-metric, label,
/// value)` each.
fn render_tiles(b: &mut String, tag: &str, tiles: &[(&str, &str, String)]) {
    b.push_str(&format!("<{tag} class=\"tiles\">\n"));
    for (metric, label, value) in tiles {
        b.push_str(&format!(
            "<div class=\"tile\" data-metric=\"{metric}\"><div class=\"tile-value\">{value}</div><div class=\"tile-label\">{label}</div></div>\n",
        ));
    }
    b.push_str(&format!("</{tag}>\n"));
}

/// Render the dashboard of a run: the `events` of its stream, its
/// telemetry `trace` if there is one (stage bars, allocation panel), and
/// its `profile` rows if there are (flame view).
pub fn render_dashboard(
    events: &[Event],
    trace: Option<&Trace>,
    profile: Option<&[(Vec<String>, u64)]>,
) -> String {
    let mut cells: Vec<CellPoint> = Vec::new();
    let mut heat: Vec<(&str, &str, u64)> = Vec::new(); // fs, journal, findings
    for e in events {
        match e.kind {
            EventKind::Cell => cells.push(CellPoint {
                name: &e.name,
                behaviors: detail_field(&e.detail, "behaviors").unwrap_or(0),
                findings: detail_field(&e.detail, "findings").unwrap_or(0),
                wall_ns: e.value,
            }),
            EventKind::Finding => {
                let (fs, journal) = e.name.split_once('/').unwrap_or((&e.name, "?"));
                match heat.iter_mut().find(|(f, j, _)| *f == fs && *j == journal) {
                    Some((_, _, n)) => *n += 1,
                    None => heat.push((fs, journal, 1)),
                }
            }
            EventKind::Snapshot => {}
        }
    }
    // A `cell` event is stamped when its cell ends, `value` ns after the
    // cell began: the run's wall time starts with its first cell, which
    // may have begun before the telemetry epoch its stamps count from.
    let began = |e: &Event| match e.kind {
        EventKind::Cell => i128::from(e.ts_ns) - i128::from(e.value),
        _ => i128::from(e.ts_ns),
    };
    let start = events.iter().map(began).min();
    let end = events.iter().map(|e| i128::from(e.ts_ns)).max();
    let wall_ns = end
        .zip(start)
        .map_or(0, |(end, start)| (end - start) as u64);

    // Stage times come from the exit snapshot: it holds every span.
    let mut stages = trace.map_or(Vec::new(), |t| {
        span_totals(
            t.spans
                .iter()
                .map(|(name, dur_ns)| (name.as_str(), *dur_ns)),
        )
    });
    stages.truncate(12);

    let n_cells = cells.len();
    let behaviors = cells.last().map_or(0, |c| c.behaviors);
    let findings = cells.last().map_or(0, |c| c.findings);
    // The driver's last snapshot carries what only it knows: Good–Turing
    // saturation over the whole corpus and the robustness totals.
    let last_snapshot = (events.iter().rev())
        .find(|e| e.kind == EventKind::Snapshot)
        .map_or("", |e| e.detail.as_str());
    let saturation = detail_field(last_snapshot, "saturation_pct");
    let throughput = if wall_ns > 0 && n_cells > 0 {
        n_cells as f64 / (wall_ns as f64 / 1e9)
    } else {
        0.0
    };

    // -- Assemble the page ----------------------------------------------------
    let mut b = String::with_capacity(32 * 1024);
    b.push_str(HEAD);

    b.push_str("<main class=\"viz-root\">\n<h1>ParaCrash campaign report</h1>\n");
    b.push_str(&format!(
        "<p class=\"sub\">{} events · wall {}</p>\n",
        events.len(),
        fmt_ns(wall_ns as f64),
    ));

    render_tiles(
        &mut b,
        "section",
        &[
            ("cells", "cells checked", n_cells.to_string()),
            ("findings", "distinct findings", findings.to_string()),
            ("behaviors", "behavior classes", behaviors.to_string()),
            (
                "saturation",
                "coverage saturation",
                saturation.map_or("–".to_string(), |s| format!("{s}%")),
            ),
            ("throughput", "cells / s", format!("{throughput:.1}")),
        ],
    );

    render_campaign_robustness(&mut b, last_snapshot);
    render_coverage_curve(&mut b, &cells);
    render_stage_breakdown(&mut b, &stages, trace.map_or(0, |t| t.dropped_spans));
    render_heatmap(&mut b, &heat);
    if let Some(rows) = profile {
        render_flame(&mut b, rows);
    }
    if let Some(trace) = trace.filter(|t| t.alloc_total.count > 0) {
        render_alloc(&mut b, trace);
    }

    b.push_str("</main>\n</body>\n</html>\n");
    b
}

/// Campaign robustness tiles — cells recovered from the durable log,
/// quarantined cells — from the totals the sweep driver writes into its
/// snapshots. Rendered only when one of them is nonzero: an uneventful
/// sweep omits the section entirely.
fn render_campaign_robustness(b: &mut String, snapshot_detail: &str) {
    let total = |key| detail_field(snapshot_detail, key).unwrap_or(0);
    let (resumed, quarantined) = (total("resumed"), total("quarantined"));
    if resumed + quarantined == 0 {
        return;
    }
    b.push_str("<section data-metric=\"campaign-robustness\">\n<h2>Campaign robustness</h2>\n");
    render_tiles(
        b,
        "div",
        &[
            (
                "resumed-cells",
                "cells resumed from log",
                resumed.to_string(),
            ),
            ("quarantined", "quarantined cells", quarantined.to_string()),
        ],
    );
    b.push_str("</section>\n");
}

/// Coverage curve: behavior classes (series 1) and findings (series 2)
/// against cells checked, plus the table fallback view.
fn render_coverage_curve(b: &mut String, cells: &[CellPoint]) {
    b.push_str("<section data-metric=\"coverage-curve\">\n<h2>Coverage curve</h2>\n");
    if cells.is_empty() {
        b.push_str("<p class=\"sub\">no cell events in the stream</p>\n</section>\n");
        return;
    }
    const W: f64 = 640.0;
    const H: f64 = 220.0;
    const ML: f64 = 44.0; // left margin for y labels
    const MB: f64 = 28.0;
    const MT: f64 = 10.0;
    let n = cells.len();
    let ymax = cells
        .iter()
        .map(|c| c.behaviors.max(c.findings))
        .max()
        .unwrap_or(1)
        .max(1);
    let x = |i: usize| ML + (W - ML - 8.0) * (i as f64 / (n.max(2) - 1) as f64);
    let y = |v: u64| H - MB - (H - MB - MT) * (v as f64 / ymax as f64);
    let poly = |f: &dyn Fn(&CellPoint) -> u64| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:.1},{:.1}", x(i), y(f(c))))
            .collect::<Vec<_>>()
            .join(" ")
    };
    b.push_str(&format!(
        "<svg viewBox=\"0 0 {W} {H}\" role=\"img\" aria-label=\"behavior classes and findings vs cells checked\">\n"
    ));
    // Baseline + y gridline at max, muted.
    b.push_str(&format!(
        "<line class=\"axis\" x1=\"{ML}\" y1=\"{0:.1}\" x2=\"{1}\" y2=\"{0:.1}\"/>\n",
        H - MB,
        W - 8.0
    ));
    b.push_str(&format!(
        "<line class=\"grid\" x1=\"{ML}\" y1=\"{0:.1}\" x2=\"{1}\" y2=\"{0:.1}\"/>\n",
        y(ymax),
        W - 8.0
    ));
    b.push_str(&format!(
        "<text class=\"lbl\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{}</text>\n",
        ML - 6.0,
        y(ymax) + 4.0,
        ymax
    ));
    b.push_str(&format!(
        "<text class=\"lbl\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">0</text>\n",
        ML - 6.0,
        H - MB + 4.0
    ));
    b.push_str(&format!(
        "<text class=\"lbl\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\">cells → {n}</text>\n",
        (ML + W) / 2.0,
        H - 8.0
    ));
    b.push_str(&format!(
        "<polyline class=\"s1\" points=\"{}\"><title>behavior classes</title></polyline>\n",
        poly(&|c| c.behaviors)
    ));
    b.push_str(&format!(
        "<polyline class=\"s2\" points=\"{}\"><title>findings</title></polyline>\n",
        poly(&|c| c.findings)
    ));
    // Direct labels at the line ends (identity never rides color alone).
    let last = &cells[n - 1];
    b.push_str(&format!(
        "<text class=\"lbl s1t\" x=\"{:.1}\" y=\"{:.1}\">behaviors {}</text>\n",
        x(n - 1) - 4.0,
        y(last.behaviors) - 6.0,
        last.behaviors
    ));
    b.push_str(&format!(
        "<text class=\"lbl s2t\" x=\"{:.1}\" y=\"{:.1}\">findings {}</text>\n",
        x(n - 1) - 4.0,
        y(last.findings) + 14.0,
        last.findings
    ));
    b.push_str("</svg>\n");
    b.push_str(
        "<p class=\"legend\"><span class=\"swatch sw1\"></span>behavior classes\
         <span class=\"swatch sw2\"></span>findings</p>\n",
    );

    // Table fallback: every cell row, capped sensibly for huge runs.
    b.push_str(
        "<details><summary>table view</summary><table data-metric=\"coverage-table\">\
        <tr><th>#</th><th>cell</th><th>behaviors</th><th>findings</th><th>wall</th></tr>\n",
    );
    let step = (n / 200).max(1);
    for (i, c) in cells.iter().enumerate() {
        if i % step != 0 && i != n - 1 {
            continue;
        }
        b.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
            i + 1,
            html_escape(c.name),
            c.behaviors,
            c.findings,
            fmt_ns(c.wall_ns as f64),
        ));
    }
    b.push_str("</table></details>\n</section>\n");
}

/// Stage-time breakdown: horizontal bars, one per span name.
/// `dropped_spans` is how many spans the registry counted past its
/// storage cap: their time is missing from the bars.
fn render_stage_breakdown(b: &mut String, stages: &[SpanTotal<&str>], dropped_spans: u64) {
    b.push_str("<section data-metric=\"stage-breakdown\">\n<h2>Stage time</h2>\n");
    if dropped_spans > 0 {
        b.push_str(&format!(
            "<p class=\"sub\">incomplete: {dropped_spans} spans past the registry's cap were not stored</p>\n"
        ));
    }
    if stages.is_empty() {
        b.push_str("<p class=\"sub\">no span data (pass the run's --telemetry-out file as --telemetry)</p>\n</section>\n");
        return;
    }
    const W: f64 = 640.0;
    const ROW: f64 = 24.0;
    const ML: f64 = 190.0;
    let h = ROW * stages.len() as f64 + 8.0;
    let max = stages.iter().map(|t| t.total_ns).max().unwrap_or(1).max(1);
    b.push_str(&format!(
        "<svg viewBox=\"0 0 {W} {h:.0}\" role=\"img\" aria-label=\"total wall time per stage\">\n"
    ));
    for (i, stage) in stages.iter().enumerate() {
        let (name, total, calls) = (stage.name, stage.total_ns, stage.calls);
        let yy = 4.0 + ROW * i as f64;
        let ww = (W - ML - 110.0) * (total as f64 / max as f64);
        b.push_str(&format!(
            "<text class=\"lbl\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{}</text>\n",
            ML - 8.0,
            yy + 15.0,
            html_escape(name)
        ));
        b.push_str(&format!(
            "<rect class=\"bar\" x=\"{ML}\" y=\"{yy:.1}\" width=\"{:.1}\" height=\"16\" rx=\"4\"><title>{} over {} calls</title></rect>\n",
            ww.max(1.5),
            fmt_ns(total as f64),
            calls
        ));
        b.push_str(&format!(
            "<text class=\"lbl\" x=\"{:.1}\" y=\"{:.1}\">{} · {} calls</text>\n",
            ML + ww.max(1.5) + 8.0,
            yy + 15.0,
            fmt_ns(total as f64),
            calls
        ));
    }
    b.push_str("</svg>\n</section>\n");
}

/// Finding heatmap: file system × journal mode, shaded table.
fn render_heatmap(b: &mut String, heat: &[(&str, &str, u64)]) {
    b.push_str(
        "<section data-metric=\"heatmap\">\n<h2>Findings by file system × journal mode</h2>\n",
    );
    if heat.is_empty() {
        b.push_str("<p class=\"sub\">no findings in this run</p>\n</section>\n");
        return;
    }
    let mut fss: Vec<&str> = heat.iter().map(|&(f, ..)| f).collect();
    fss.sort();
    fss.dedup();
    let mut modes: Vec<&str> = heat.iter().map(|&(_, j, _)| j).collect();
    modes.sort();
    modes.dedup();
    let max = heat.iter().map(|&(.., n)| n).max().unwrap_or(1).max(1);
    b.push_str("<table class=\"heat\"><tr><th></th>");
    for m in &modes {
        b.push_str(&format!("<th>{}</th>", html_escape(m)));
    }
    b.push_str("</tr>\n");
    for fs in &fss {
        b.push_str(&format!("<tr><th>{}</th>", html_escape(fs)));
        for m in &modes {
            let n = heat
                .iter()
                .find(|(f, j, _)| f == fs && j == m)
                .map_or(0, |&(.., n)| n);
            let level = if n == 0 {
                0
            } else {
                (5 * n).div_ceil(max).clamp(1, 5)
            };
            b.push_str(&format!(
                "<td class=\"heat-{level}\" title=\"{fs} × {m}: {n} findings\">{n}</td>",
                fs = html_escape(fs),
                m = html_escape(m),
            ));
        }
        b.push_str("</tr>\n");
    }
    b.push_str("</table>\n</section>\n");
}

/// One node of the flame tree built from folded stacks: inclusive
/// nanoseconds, children keyed (and sorted) by frame name.
struct FlameNode {
    name: String,
    count: u64,
    children: Vec<FlameNode>,
}

impl FlameNode {
    fn child(&mut self, name: &str) -> &mut FlameNode {
        if let Some(i) = self.children.iter().position(|c| c.name == name) {
            return &mut self.children[i];
        }
        let at = self
            .children
            .iter()
            .position(|c| c.name.as_str() > name)
            .unwrap_or(self.children.len());
        self.children.insert(
            at,
            FlameNode {
                name: name.to_string(),
                count: 0,
                children: Vec::new(),
            },
        );
        &mut self.children[at]
    }

    fn depth(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(FlameNode::depth)
            .max()
            .unwrap_or(0)
    }
}

/// Flame view of the rows of a `--profile-out` `.folded` profile: a
/// no-script SVG icicle (root at the top, children sorted by name so the
/// layout is deterministic) over the sorted stack table, the
/// copy-pasteable form.
fn render_flame(b: &mut String, rows: &[(Vec<String>, u64)]) {
    b.push_str("<section data-metric=\"flame\">\n<h2>Span-stack profile (self time)</h2>\n");
    if rows.is_empty() {
        b.push_str("<p class=\"sub\">no stacks in the profile</p>\n</section>\n");
        return;
    }
    let total: u64 = rows.iter().map(|(_, c)| c).sum();
    let mut root = FlameNode {
        name: String::new(),
        count: total,
        children: Vec::new(),
    };
    for (frames, count) in rows {
        let mut node = &mut root;
        for f in frames {
            node = node.child(f);
            node.count += count;
        }
    }

    const W: f64 = 640.0;
    const ROW: f64 = 22.0;
    let h = ROW * (root.depth() - 1).max(1) as f64 + 4.0;
    b.push_str(&format!(
        "<svg viewBox=\"0 0 {W} {h:.0}\" role=\"img\" aria-label=\"span stacks, width proportional to time\">\n"
    ));
    // Iterative pre-order walk carrying (node index path) is more
    // code than it saves; span stacks are ≤32 deep, so recurse.
    fn emit(b: &mut String, node: &FlameNode, x: f64, w: f64, depth: usize, total: u64) {
        let yy = 2.0 + 22.0 * depth as f64;
        let pct = 100.0 * node.count as f64 / total.max(1) as f64;
        b.push_str(&format!(
            "<rect class=\"flame flame-d{}\" x=\"{x:.1}\" y=\"{yy:.1}\" width=\"{:.1}\" height=\"20\" rx=\"2\"><title>{}: {} ({pct:.1}%)</title></rect>\n",
            depth % 4,
            w.max(1.0),
            html_escape(&node.name),
            fmt_ns(node.count as f64),
        ));
        if w >= 60.0 {
            b.push_str(&format!(
                "<text class=\"lbl flame-lbl\" x=\"{:.1}\" y=\"{:.1}\">{}</text>\n",
                x + 4.0,
                yy + 14.0,
                html_escape(&node.name),
            ));
        }
        let mut cx = x;
        for c in &node.children {
            let cw = w * c.count as f64 / node.count.max(1) as f64;
            emit(b, c, cx, cw, depth + 1, total);
            cx += cw;
        }
    }
    let mut cx = 0.0;
    for c in &root.children {
        let cw = W * c.count as f64 / total.max(1) as f64;
        emit(b, c, cx, cw, 0, total);
        cx += cw;
    }
    b.push_str("</svg>\n");

    let mut sorted: Vec<&(Vec<String>, u64)> = rows.iter().collect();
    sorted.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    b.push_str(
        "<details><summary>stack table</summary><table data-metric=\"flame-table\">\
         <tr><th>stack</th><th>self time</th><th>share</th></tr>\n",
    );
    for (frames, count) in sorted.iter().take(40) {
        b.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{:.1}%</td></tr>\n",
            html_escape(&frames.join(";")),
            fmt_ns(*count as f64),
            100.0 * *count as f64 / total.max(1) as f64,
        ));
    }
    b.push_str("</table></details>\n</section>\n");
}

/// Allocation attribution from the trace: total tiles plus a per-span
/// table, bytes-descending. The caller omits it (like campaign
/// robustness) when accounting never recorded anything.
fn render_alloc(b: &mut String, trace: &Trace) {
    let total = &trace.alloc_total;
    let fmt_b = |v: u64| fmt_bytes(v as f64);
    b.push_str("<section data-metric=\"alloc\">\n<h2>Allocation attribution</h2>\n");
    render_tiles(
        b,
        "div",
        &[
            ("alloc-count", "allocations", total.count.to_string()),
            ("alloc-bytes", "bytes allocated", fmt_b(total.bytes)),
            ("alloc-peak", "peak live bytes", fmt_b(total.peak_bytes)),
        ],
    );
    if !trace.allocs.is_empty() {
        let mut rows: Vec<_> = trace.allocs.iter().collect();
        rows.sort_by(|a, b| b.1.bytes.cmp(&a.1.bytes).then(a.0.cmp(&b.0)));
        b.push_str(
            "<table data-metric=\"alloc-table\">\
             <tr><th>span</th><th>count</th><th>bytes</th><th>peak</th></tr>\n",
        );
        for (name, s) in rows.iter().take(16) {
            b.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
                html_escape(name),
                s.count,
                fmt_b(s.bytes),
                fmt_b(s.peak_bytes),
            ));
        }
        b.push_str("</table>\n");
    }
    b.push_str("</section>\n");
}

/// Document head: inline CSS only. Light/dark palettes are the
/// validated reference palette (series 1 blue, series 2 orange, a
/// single-hue sequential blue ramp for the heatmap); dark mode is its
/// own stepped set, not an automatic flip, and follows the OS setting.
const HEAD: &str = r##"<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>ParaCrash campaign report</title>
<style>
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --baseline: #c3c2b7;
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --heat-1: #cde2fb; --heat-2: #9ec5f4; --heat-3: #5598e7;
  --heat-4: #256abf; --heat-5: #0d366b;
  --heat-hi-ink: #ffffff;
  --flame-1: #eb6834; --flame-2: #f2924e; --flame-3: #d95926;
  --flame-4: #f8b878;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --muted: #898781;
    --grid: #2c2c2a;
    --baseline: #383835;
    --series-1: #3987e5;
    --series-2: #d95926;
    --heat-1: #184f95; --heat-2: #256abf; --heat-3: #3987e5;
    --heat-4: #6da7ec; --heat-5: #b7d3f6;
    --heat-hi-ink: #0b0b0b;
    --flame-1: #b24a1e; --flame-2: #c96a31; --flame-3: #9c3c15;
    --flame-4: #d98b4f;
  }
}
body { margin: 0; background: var(--page); }
.viz-root {
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  color: var(--text-primary);
  background: var(--page);
  max-width: 720px; margin: 0 auto; padding: 24px 16px 48px;
}
h1 { font-size: 22px; margin: 0 0 2px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
h3 { font-size: 13px; margin: 14px 0 6px; color: var(--text-secondary); }
.sub { color: var(--text-secondary); font-size: 12px; margin: 0 0 12px; }
section { background: var(--surface-1); border: 1px solid var(--grid);
  border-radius: 8px; padding: 12px 14px; margin: 12px 0; }
.tiles { display: flex; flex-wrap: wrap; gap: 8px; background: none;
  border: none; padding: 0; }
.tile { background: var(--surface-1); border: 1px solid var(--grid);
  border-radius: 8px; padding: 10px 14px; flex: 1 1 110px; }
.tile-value { font-size: 24px; }
.tile-label { font-size: 11px; color: var(--text-secondary); }
svg { width: 100%; height: auto; display: block; }
svg .axis { stroke: var(--baseline); stroke-width: 1; }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .lbl { fill: var(--muted); font-size: 11px;
  font-family: system-ui, sans-serif; }
svg .s1 { fill: none; stroke: var(--series-1); stroke-width: 2; }
svg .s2 { fill: none; stroke: var(--series-2); stroke-width: 2; }
svg .s1t { fill: var(--text-secondary); text-anchor: end; }
svg .s2t { fill: var(--text-secondary); text-anchor: end; }
svg .bar { fill: var(--series-1); }
svg .flame { stroke: var(--surface-1); stroke-width: 0.5; }
svg .flame-d0 { fill: var(--flame-1); }
svg .flame-d1 { fill: var(--flame-2); }
svg .flame-d2 { fill: var(--flame-3); }
svg .flame-d3 { fill: var(--flame-4); }
svg .flame-lbl { fill: var(--heat-hi-ink); font-size: 10px; }
.legend { font-size: 12px; color: var(--text-secondary); margin: 6px 0 0; }
.swatch { display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin: 0 6px 0 14px; }
.swatch:first-child { margin-left: 0; }
.sw1 { background: var(--series-1); }
.sw2 { background: var(--series-2); }
table { border-collapse: collapse; font-size: 12px;
  font-variant-numeric: tabular-nums; }
th, td { border: 1px solid var(--grid); padding: 4px 8px; text-align: right; }
th { color: var(--text-secondary); font-weight: 500; }
td:first-child, th:first-child { text-align: left; }
details { margin-top: 8px; font-size: 12px; }
summary { color: var(--text-secondary); cursor: pointer; }
.heat td { text-align: center; min-width: 48px; }
.heat-0 { color: var(--muted); }
.heat-1 { background: var(--heat-1); }
.heat-2 { background: var(--heat-2); }
.heat-3 { background: var(--heat-3); }
.heat-4 { background: var(--heat-4); color: var(--heat-hi-ink); }
.heat-5 { background: var(--heat-5); color: var(--heat-hi-ink); }
</style>
</head>
<body>
"##;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{chrome_trace, read_trace};
    use pc_rt::obs::prof::{parse_folded, render_folded};
    use pc_rt::obs::{AllocStat, SpanRec, TelemetrySnapshot};
    use EventKind::{Cell, Finding, Snapshot};

    fn event(seq: u64, ts_ns: u64, kind: EventKind, name: &str, value: u64, detail: &str) -> Event {
        let (name, detail) = (name.to_string(), detail.to_string());
        let trace_id = seq;
        Event {
            seq,
            ts_ns,
            kind,
            name,
            value,
            detail,
            trace_id,
        }
    }

    /// Six cells, a finding, and the closing campaign snapshot.
    fn events() -> Vec<Event> {
        let cell = |i: u64| {
            let detail = format!("behaviors={} findings={} buggy=0", i + 1, i / 2);
            let name = format!("wl{i}@OrangeFS/ordered");
            event(i * 3, 1000 + i * 500, Cell, &name, 1500, &detail)
        };
        let mut events: Vec<Event> = (0..6).map(cell).collect();
        events.push(event(100, 9000, Finding, "BeeGFS/writeback", 1, "sig"));
        let totals = "cells=6 saturation_pct=66 resumed=0 quarantined=0";
        events.push(event(102, 9200, Snapshot, "campaign", 6, totals));
        events
    }

    /// A run's registry: two `check_stack` spans, one span's allocations,
    /// three self-time stacks.
    fn snapshot() -> TelemetrySnapshot {
        let span = |dur_ns| SpanRec {
            name: "check_stack",
            cat: "check",
            tid: 1,
            depth: 0,
            start_ns: 0,
            dur_ns,
            trace_id: 0,
        };
        let (count, bytes, peak_bytes) = (12, 4096, 2048);
        let stat = AllocStat {
            count,
            bytes,
            peak_bytes,
        };
        TelemetrySnapshot {
            spans: vec![span(5000), span(1000)],
            allocs: vec![("check.enumerate".into(), stat)],
            alloc_total: stat,
            self_times: vec![
                (vec!["cli.run", "snapshot.materialize"], 6000),
                (vec!["cli.run", "recover/BeeGFS"], 3000),
                (vec!["cli.run"], 1000),
            ],
            ..Default::default()
        }
    }

    /// What `report` reads from the trace and the profile a run with
    /// this registry writes.
    fn files(snap: &TelemetrySnapshot) -> (Trace, Vec<(Vec<String>, u64)>) {
        let trace = read_trace(&chrome_trace(snap).pretty()).unwrap();
        (trace, parse_folded(&render_folded(snap)).unwrap())
    }

    /// `html` carries each whitespace-separated `data-metric` of `metrics`.
    fn has_metrics(html: &str, metrics: &str) -> bool {
        (metrics.split_whitespace()).all(|m| html.contains(&format!("data-metric=\"{m}\"")))
    }

    #[test]
    fn dashboard_renders_all_sections_and_escapes_names() {
        let mut evs = events();
        evs[0].name = "a<b>&\"c@OrangeFS/ordered".into();
        let html = render_dashboard(&evs, None, None);
        let metrics = "cells findings behaviors saturation throughput heatmap";
        assert!(
            has_metrics(&html, metrics) && has_metrics(&html, "coverage-curve stage-breakdown")
        );
        assert!(html.contains("<svg") && html.contains("polyline"));
        assert!(html.contains("66%") && html.contains("BeeGFS"));
        assert!(html.contains("a&lt;b&gt;&amp;&quot;c@") && !html.contains("a<b>&\"c@"));
        // Self-contained: no scripts, no external references.
        assert!(!html.contains("<script"));
        assert!(!html.contains("http://") && !html.contains("https://"));
    }

    /// A cell event is stamped when its cell ends: the wall time starts
    /// `value` earlier — before the telemetry epoch, when the cell's own
    /// first span started the clock — so a one-cell sweep is not the
    /// 9.12 µs between its finding and its cell event.
    #[test]
    fn wall_time_and_throughput_count_the_first_cell() {
        let one = [
            event(0, 1_000_000, Finding, "BeeGFS/data", 1, "sig [Pfs]"),
            event(1, 1_009_120, Cell, "wl@BeeGFS/data", 1_540_000, ""),
        ];
        let html = render_dashboard(&one, None, None);
        assert!(html.contains("2 events · wall 1.54 ms"), "{html}");
        assert!(html.contains("<div class=\"tile-value\">649.4</div>"));
        // Six 1.5 µs cells, the first begun at 500 ns before the epoch.
        let html = render_dashboard(&events(), None, None);
        assert!(html.contains("8 events · wall 9.70 µs"), "{html}");
    }

    #[test]
    fn robustness_totals_of_the_last_snapshot_render_their_own_tiles() {
        // An uneventful sweep: no campaign section at all.
        let html = render_dashboard(&events(), None, None);
        assert!(!html.contains("campaign-robustness"));
        // The last snapshot's totals are the tiles (not a sum over
        // snapshots: each one carries the running total).
        let mut evs = events();
        evs.last_mut().unwrap().detail = "cells=6 resumed=4 quarantined=1".into();
        evs.push(event(
            103,
            9300,
            Snapshot,
            "c",
            6,
            "resumed=5 quarantined=2",
        ));
        let html = render_dashboard(&evs, None, None);
        assert!(has_metrics(&html, "campaign-robustness"));
        for (metric, value) in [("resumed-cells", 5), ("quarantined", 2)] {
            let tile = format!("data-metric=\"{metric}\"><div class=\"tile-value\">{value}<");
            assert!(html.contains(&tile), "{metric}");
        }
    }

    #[test]
    fn stage_bars_come_from_the_trace_or_say_there_is_none() {
        let html = render_dashboard(&events(), None, None);
        assert!(html.contains("no span data"), "{html}");
        let (trace, _) = files(&snapshot());
        let html = render_dashboard(&events(), Some(&trace), None);
        assert!(html.contains("check_stack") && html.contains("2 calls"));
        assert!(!html.contains("no span data") && !html.contains("incomplete"));
        // Spans the registry counted but could not store are named.
        let mut snap = snapshot();
        snap.dropped_spans = 83;
        let (trace, _) = files(&snap);
        let html = render_dashboard(&events(), Some(&trace), None);
        assert!(html.contains("incomplete: 83 spans"), "{html}");
    }

    #[test]
    fn flame_view_renders_self_time() {
        // Nested stacks: icicle SVG plus the table, weights in ns.
        let (_, rows) = files(&snapshot());
        let html = render_dashboard(&events(), None, Some(&rows));
        assert!(has_metrics(&html, "flame flame-table"));
        assert!(html.contains("class=\"flame flame-d0\""), "{html}");
        assert!(html.contains("class=\"flame flame-d1\""));
        assert!(html.contains("snapshot.materialize"));
        let root = "cli.run: 10.00 µs (100.0%)";
        assert!(html.contains(root), "root weight sums children");
        // An empty profile says so; no profile, no section.
        let html = render_dashboard(&events(), None, Some(&[]));
        assert!(html.contains("no stacks in the profile"));
        let html = render_dashboard(&events(), None, None);
        assert!(!has_metrics(&html, "flame"));
    }

    #[test]
    fn alloc_tiles_render_from_the_trace_and_respect_dark_mode() {
        let (trace, _) = files(&snapshot());
        let html = render_dashboard(&events(), Some(&trace), None);
        assert!(has_metrics(
            &html,
            "alloc alloc-count alloc-bytes alloc-peak alloc-table"
        ));
        assert!(html.contains("check.enumerate"));
        // Accounting never recorded anything: no section.
        let mut snap = snapshot();
        (snap.allocs, snap.alloc_total) = (Vec::new(), AllocStat::default());
        let (trace, _) = files(&snap);
        let html = render_dashboard(&events(), Some(&trace), None);
        assert!(!has_metrics(&html, "alloc"));
        // Dark-mode styling: the flame palette is defined in both the
        // light block and the dark block, like the heat ramp.
        assert_eq!(html.matches("--flame-1:").count(), 2, "light + dark");
        assert_eq!(html.matches("--flame-4:").count(), 2);
        assert_eq!(html.matches("prefers-color-scheme: dark").count(), 1);
    }
}
