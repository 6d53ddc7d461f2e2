//! Rendering sweep results as aligned text and CSV, plus the
//! shared buffered cell writers every tabular renderer in the workspace
//! builds on.
//!
//! Before PR 5 the sweep CSV, the conformance CSV and the CLI's
//! multi-figure CSV assembly each had their own copy of the cell/row
//! emission code, and both stdout tables re-entered the `format!`
//! machinery once per cell. [`CsvWriter`] and [`TextWriter`] centralize
//! that: one growing buffer per artifact, cells appended in place
//! (`core::fmt::Write` straight into the buffer — no intermediate
//! `String` per cell), CSV quoting in exactly one place. Output bytes are
//! unchanged — the writers reproduce the previous `format!` patterns
//! exactly, which the unit tests assert.

use crate::acceptance::SweepResult;
use core::fmt::Write as _;

/// Buffered CSV emitter: comma separation, RFC-4180-style quoting for
/// string cells that need it, fixed-precision floats written directly
/// into the buffer.
#[derive(Debug, Default)]
pub struct CsvWriter {
    buf: String,
    row_has_cells: bool,
}

impl CsvWriter {
    /// An empty writer.
    pub fn new() -> Self {
        CsvWriter::default()
    }

    /// An empty writer with a pre-sized buffer.
    pub fn with_capacity(capacity: usize) -> Self {
        CsvWriter { buf: String::with_capacity(capacity), row_has_cells: false }
    }

    fn sep(&mut self) {
        if self.row_has_cells {
            self.buf.push(',');
        }
        self.row_has_cells = true;
    }

    /// Append a string cell, quoting it when it contains a comma, quote
    /// or line break (none of the workspace's series names do today, so
    /// existing artifacts are byte-stable).
    pub fn str_cell(&mut self, s: &str) {
        self.sep();
        if s.contains([',', '"', '\n', '\r']) {
            self.buf.push('"');
            for c in s.chars() {
                if c == '"' {
                    self.buf.push('"');
                }
                self.buf.push(c);
            }
            self.buf.push('"');
        } else {
            self.buf.push_str(s);
        }
    }

    /// Append an unsigned integer cell.
    pub fn usize_cell(&mut self, v: usize) {
        self.sep();
        let _ = write!(self.buf, "{v}");
    }

    /// Append a float cell with `prec` decimals (`{v:.prec$}`).
    pub fn f64_cell(&mut self, v: f64, prec: usize) {
        self.sep();
        let _ = write!(self.buf, "{v:.prec$}");
    }

    /// Terminate the current row.
    pub fn end_row(&mut self) {
        self.buf.push('\n');
        self.row_has_cells = false;
    }

    /// Append one header row from field names.
    pub fn header<'a>(&mut self, fields: impl IntoIterator<Item = &'a str>) {
        for f in fields {
            self.str_cell(f);
        }
        self.end_row();
    }

    /// Append a pre-rendered chunk of rows verbatim (multi-report
    /// concatenation).
    pub fn raw_rows(&mut self, rows: &str) {
        debug_assert!(!self.row_has_cells, "raw rows inside an open row");
        self.buf.push_str(rows);
    }

    /// The finished artifact.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Buffered aligned-text emitter for the stdout tables: right-aligned
/// cells of fixed width, written directly into one buffer.
#[derive(Debug, Default)]
pub struct TextWriter {
    buf: String,
}

impl TextWriter {
    /// An empty writer.
    pub fn new() -> Self {
        TextWriter::default()
    }

    /// Append raw text (captions, separators, summary lines).
    pub fn raw(&mut self, s: &str) {
        self.buf.push_str(s);
    }

    /// Append raw text via format arguments (one call site instead of a
    /// `let _ = write!` at every caller).
    pub fn rawf(&mut self, args: core::fmt::Arguments<'_>) {
        let _ = self.buf.write_fmt(args);
    }

    /// Append `s` right-aligned in `width` columns (`{s:>width$}`).
    pub fn right_str(&mut self, width: usize, s: &str) {
        let _ = write!(self.buf, "{s:>width$}");
    }

    /// Append an integer right-aligned in `width` columns.
    pub fn right_usize(&mut self, width: usize, v: usize) {
        let _ = write!(self.buf, "{v:>width$}");
    }

    /// Append a float right-aligned in `width` columns with `prec`
    /// decimals (`{v:>width$.prec$}`).
    pub fn right_f64(&mut self, width: usize, prec: usize, v: f64) {
        let _ = write!(self.buf, "{v:>width$.prec$}");
    }

    /// Terminate the current line.
    pub fn newline(&mut self) {
        self.buf.push('\n');
    }

    /// The finished artifact.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Render an aligned plain-text table: one row per utilization bin, one
/// column per series — the same rows the paper's figures plot.
pub fn render_text(result: &SweepResult) -> String {
    let mut out = TextWriter::new();
    out.rawf(format_args!("{}: {}\n", result.workload_id, result.caption));
    out.right_str(6, "US/A");
    out.raw(" ");
    out.right_str(8, "samples");
    for s in &result.series {
        out.raw(" ");
        out.right_str(9, &s.name);
    }
    out.newline();
    let n = result.series.first().map(|s| s.points.len()).unwrap_or(0);
    for i in 0..n {
        let p0 = &result.series[0].points[i];
        out.right_f64(6, 3, p0.utilization);
        out.raw(" ");
        out.right_usize(8, p0.samples);
        for s in &result.series {
            out.raw(" ");
            out.right_f64(9, 3, s.points[i].ratio());
        }
        out.newline();
    }
    out.finish()
}

/// Render CSV with header `utilization,samples,<series...>`.
pub fn render_csv(result: &SweepResult) -> String {
    let mut out = CsvWriter::new();
    out.header(
        ["utilization", "samples"].into_iter().chain(result.series.iter().map(|s| s.name.as_str())),
    );
    let n = result.series.first().map(|s| s.points.len()).unwrap_or(0);
    for i in 0..n {
        let p0 = &result.series[0].points[i];
        out.f64_cell(p0.utilization, 6);
        out.usize_cell(p0.samples);
        for s in &result.series {
            out.f64_cell(s.points[i].ratio(), 6);
        }
        out.end_row();
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acceptance::{AcceptanceSeries, SeriesPoint};

    fn sample_result() -> SweepResult {
        SweepResult {
            workload_id: "fig3a".into(),
            caption: "4 tasks".into(),
            series: vec![
                AcceptanceSeries {
                    name: "DP".into(),
                    points: vec![
                        SeriesPoint { utilization: 0.25, samples: 10, accepted: 9 },
                        SeriesPoint { utilization: 0.75, samples: 10, accepted: 1 },
                    ],
                },
                AcceptanceSeries {
                    name: "SIM-NF".into(),
                    points: vec![
                        SeriesPoint { utilization: 0.25, samples: 10, accepted: 10 },
                        SeriesPoint { utilization: 0.75, samples: 10, accepted: 6 },
                    ],
                },
            ],
        }
    }

    #[test]
    fn text_contains_all_series() {
        let s = render_text(&sample_result());
        assert!(s.contains("DP"));
        assert!(s.contains("SIM-NF"));
        assert!(s.contains("0.900"));
        assert_eq!(s.lines().count(), 4);
    }

    /// The writers reproduce the pre-PR-5 `format!` rendering byte for
    /// byte (golden artifacts must not churn).
    #[test]
    fn writers_are_byte_compatible_with_format() {
        let r = sample_result();
        let text = render_text(&r);
        let mut reference = String::new();
        let _ = writeln!(reference, "{}: {}", r.workload_id, r.caption);
        let _ = write!(reference, "{:>6} {:>8}", "US/A", "samples");
        for s in &r.series {
            let _ = write!(reference, " {:>9}", s.name);
        }
        reference.push('\n');
        for i in 0..2 {
            let p0 = &r.series[0].points[i];
            let _ = write!(reference, "{:>6.3} {:>8}", p0.utilization, p0.samples);
            for s in &r.series {
                let _ = write!(reference, " {:>9.3}", s.points[i].ratio());
            }
            reference.push('\n');
        }
        assert_eq!(text, reference);

        let csv = render_csv(&r);
        let mut reference = String::new();
        let _ = write!(reference, "utilization,samples");
        for s in &r.series {
            let _ = write!(reference, ",{}", s.name);
        }
        reference.push('\n');
        for i in 0..2 {
            let p0 = &r.series[0].points[i];
            let _ = write!(reference, "{:.6},{}", p0.utilization, p0.samples);
            for s in &r.series {
                let _ = write!(reference, ",{:.6}", s.points[i].ratio());
            }
            reference.push('\n');
        }
        assert_eq!(csv, reference);
    }

    #[test]
    fn csv_writer_quotes_only_when_needed() {
        let mut w = CsvWriter::new();
        w.str_cell("plain");
        w.str_cell("with,comma");
        w.str_cell("with\"quote");
        w.usize_cell(7);
        w.f64_cell(0.5, 4);
        w.end_row();
        assert_eq!(w.finish(), "plain,\"with,comma\",\"with\"\"quote\",7,0.5000\n");
    }

    #[test]
    fn csv_round_numbers() {
        let s = render_csv(&sample_result());
        let mut lines = s.lines();
        assert_eq!(lines.next().unwrap(), "utilization,samples,DP,SIM-NF");
        assert!(lines.next().unwrap().starts_with("0.250000,10,0.900000,1.000000"));
    }
}
