//! `paracrash report` — a self-contained HTML dashboard for a campaign.
//!
//! The renderer is the read side of the observability plane: it takes
//! what a run leaves behind — the events of a `--events-out` stream and
//! an optional `--telemetry-out` trace, each already read by the module
//! that writes it (`pc_rt::obs::stream::read_stream`,
//! [`crate::telemetry::read_trace`]) — and emits **one** HTML file with
//! inline CSS and inline SVG: no scripts, no external fonts, no network.
//! Open it from disk, attach it to a bug report, archive it next to the
//! corpus.
//!
//! Sections, in reading order:
//!
//! * **coverage curve** — behavior classes and findings discovered as a
//!   function of cells checked (the "is discovery still growing?"
//!   picture both Pathfinder-style dedup and B3-style bounded fuzzing
//!   steer by), its line ends labelled with the final counts;
//! * **finding heatmap** — findings per file system × journal mode, a
//!   table shaded on a single-hue sequential ramp;
//! * **flame view** — a no-script SVG icicle of the trace's exact self
//!   time by span stack, when the run's `--telemetry-out` file is given.
//!
//! A number a run already prints as text — `fuzz` stdout, the
//! `PC_TRACE=summary` table, the `PC_LOG=info` progress line, a stream
//! event — gets no panel here (EXPERIMENTS.md, "Watching a campaign
//! live", lists where each one is). Every panel carries a `data-metric`
//! attribute; the observability verify gate requires exactly this set in
//! a rendered sweep report, so a dashboard that lost or grew a section
//! fails CI.

use crate::telemetry::Trace;
use pc_rt::obs::fmt_ns;
use pc_rt::obs::stream::{Event, EventKind};

/// One `cell` event: the campaign's running totals after it.
struct CellPoint {
    behaviors: u64,
    findings: u64,
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

/// Render the dashboard of a run: the `events` of its stream and its
/// telemetry `trace` if there is one (the flame view).
pub fn render_dashboard(events: &[Event], trace: Option<&Trace>) -> String {
    let mut cells: Vec<CellPoint> = Vec::new();
    let mut heat: Vec<(&str, &str, u64)> = Vec::new(); // fs, journal, findings
    for e in events {
        match e.kind {
            EventKind::Cell => cells.push(CellPoint {
                behaviors: detail_field(&e.detail, "behaviors").unwrap_or(0),
                findings: detail_field(&e.detail, "findings").unwrap_or(0),
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

    // -- Assemble the page ----------------------------------------------------
    let mut b = String::with_capacity(32 * 1024);
    b.push_str(HEAD);

    b.push_str("<main class=\"viz-root\">\n<h1>ParaCrash campaign report</h1>\n");
    b.push_str(&format!(
        "<p class=\"sub\">{} events · wall {}</p>\n",
        events.len(),
        fmt_ns(wall_ns as f64),
    ));

    render_coverage_curve(&mut b, &cells);
    render_heatmap(&mut b, &heat);
    if let Some(trace) = trace {
        render_flame(&mut b, &trace.stacks);
    }

    b.push_str("</main>\n</body>\n</html>\n");
    b
}

/// Coverage curve: behavior classes (series 1) and findings (series 2)
/// against cells checked.
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
         <span class=\"swatch sw2\"></span>findings</p>\n</section>\n",
    );
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

/// One node of the flame tree built from the trace's stacks: inclusive
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

/// Flame view of the trace's self time per span stack: a
/// no-script SVG icicle (root at the top, children sorted by name so the
/// layout is deterministic); the copy-pasteable form is the trace's own
/// `otherData.stacks`.
fn render_flame(b: &mut String, rows: &[(Vec<String>, u64)]) {
    b.push_str("<section data-metric=\"flame\">\n<h2>Span-stack profile (self time)</h2>\n");
    if rows.is_empty() {
        b.push_str("<p class=\"sub\">no stacks in the trace</p>\n</section>\n");
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
    b.push_str("</svg>\n</section>\n");
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
.sub { color: var(--text-secondary); font-size: 12px; margin: 0 0 12px; }
section { background: var(--surface-1); border: 1px solid var(--grid);
  border-radius: 8px; padding: 12px 14px; margin: 12px 0; }
svg { width: 100%; height: auto; display: block; }
svg .axis { stroke: var(--baseline); stroke-width: 1; }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .lbl { fill: var(--muted); font-size: 11px;
  font-family: system-ui, sans-serif; }
svg .s1 { fill: none; stroke: var(--series-1); stroke-width: 2; }
svg .s2 { fill: none; stroke: var(--series-2); stroke-width: 2; }
svg .s1t { fill: var(--text-secondary); text-anchor: end; }
svg .s2t { fill: var(--text-secondary); text-anchor: end; }
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
th:first-child { text-align: left; }
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
    use pc_rt::obs::{SpanRec, TelemetrySnapshot};
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

    /// A run's registry: one `check_stack` span, three self-time stacks.
    fn snapshot() -> TelemetrySnapshot {
        let span = SpanRec {
            name: "check_stack",
            cat: "check",
            tid: 1,
            depth: 0,
            start_ns: 0,
            dur_ns: 5000,
            trace_id: 0,
        };
        TelemetrySnapshot {
            spans: vec![span],
            self_times: vec![
                (vec!["cli.run", "snapshot.materialize"], 6000),
                (vec!["cli.run", "recover/BeeGFS"], 3000),
                (vec!["cli.run"], 1000),
            ],
            ..Default::default()
        }
    }

    /// What `report` reads from the trace a run with this registry
    /// writes.
    fn files(snap: &TelemetrySnapshot) -> Trace {
        read_trace(&chrome_trace(snap).pretty()).unwrap()
    }

    /// The sorted, de-duplicated `data-metric` names of `html`.
    fn metrics(html: &str) -> Vec<&str> {
        let mut names: Vec<&str> = (html.split("data-metric=\"").skip(1))
            .map(|rest| rest.split('"').next().unwrap())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    #[test]
    fn dashboard_renders_all_sections_and_escapes_names() {
        let mut evs = events();
        evs[6].name = "a<b>&\"c/writeback".into();
        let html = render_dashboard(&evs, Some(&files(&snapshot())));
        // Exactly the panels that draw what no text output prints.
        assert_eq!(metrics(&html), ["coverage-curve", "flame", "heatmap"]);
        assert!(html.contains("<svg") && html.contains("polyline"));
        // The curve's line ends carry the final counts.
        assert!(html.contains(">behaviors 6<") && html.contains(">findings 2<"));
        assert!(html.contains("cells → 6"));
        assert!(html.contains("a&lt;b&gt;&amp;&quot;c") && !html.contains("a<b>&\"c"));
        // Self-contained: no scripts, no external references.
        assert!(!html.contains("<script"));
        assert!(!html.contains("http://") && !html.contains("https://"));
    }

    /// A cell event is stamped when its cell ends: the wall time starts
    /// `value` earlier — before the telemetry epoch, when the cell's own
    /// first span started the clock — so a one-cell sweep is not the
    /// 9.12 µs between its finding and its cell event.
    #[test]
    fn wall_time_counts_the_first_cell() {
        let one = [
            event(0, 1_000_000, Finding, "BeeGFS/data", 1, "sig [Pfs]"),
            event(1, 1_009_120, Cell, "wl@BeeGFS/data", 1_540_000, ""),
        ];
        let html = render_dashboard(&one, None);
        assert!(html.contains("2 events · wall 1.54 ms"), "{html}");
        // Six 1.5 µs cells, the first begun at 500 ns before the epoch.
        let html = render_dashboard(&events(), None);
        assert!(html.contains("8 events · wall 9.70 µs"), "{html}");
    }

    #[test]
    fn flame_view_renders_self_time() {
        // Nested stacks: an icicle SVG, weights in ns.
        let trace = files(&snapshot());
        let html = render_dashboard(&events(), Some(&trace));
        assert!(html.contains("class=\"flame flame-d0\""), "{html}");
        assert!(html.contains("class=\"flame flame-d1\""));
        assert!(html.contains("snapshot.materialize"));
        let root = "cli.run: 10.00 µs (100.0%)";
        assert!(html.contains(root), "root weight sums children");
        // Dark-mode styling: the flame palette is defined in both the
        // light block and the dark block, like the heat ramp.
        assert_eq!(html.matches("--flame-1:").count(), 2, "light + dark");
        assert_eq!(html.matches("--flame-4:").count(), 2);
        assert_eq!(html.matches("prefers-color-scheme: dark").count(), 1);
        // A trace without stacks says so; no trace, no section.
        let mut snap = snapshot();
        snap.self_times.clear();
        let html = render_dashboard(&events(), Some(&files(&snap)));
        assert!(html.contains("no stacks in the trace"));
        let html = render_dashboard(&events(), None);
        assert_eq!(metrics(&html), ["coverage-curve", "heatmap"]);
    }
}
