//! Minimal markdown-style table rendering for the experiment harness,
//! and the one renderer that turns a [`RunSet`] into a table: a [`Rows`]
//! source and a list of [`Column`]s. Every table drawn from a sweep — the
//! extension drivers' [`crate::experiments::SweepTable`]s and `ccq
//! sweep`'s own tables — is such a list, so how a run-set field becomes a
//! cell is decided here and in the column lists, never in a loop.

use crate::plan::{CaseResult, GroupSummary, RunSet};
use crate::report::ClassMetrics;
use fmt_util::{f2, int, tick};
use serde::Serialize;
use std::fmt;

/// A titled table of strings.
#[derive(Clone, Debug, Serialize)]
pub struct Table {
    /// Table title (experiment id + paper item).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows (each the same length as `headers`).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// New empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the row width does not match the headers.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Column widths for alignment.
    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.chars().count());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "### {}", self.title)?;
        writeln!(f)?;
        let w = self.widths();
        let line = |cells: &[String], f: &mut fmt::Formatter<'_>| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {:<width$} |", c, width = w[i])?;
            }
            writeln!(f)
        };
        line(&self.headers, f)?;
        write!(f, "|")?;
        for wi in &w {
            write!(f, "{:-<width$}|", "", width = wi + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(row, f)?;
        }
        for n in &self.notes {
            writeln!(f, "> {n}")?;
        }
        Ok(())
    }
}

/// A table column: its header, and how one row becomes its cell.
pub type Column = (&'static str, fn(&Row) -> String);

/// Which rows a table draws from a [`RunSet`]: one per case, one per
/// priority class of each case, or one per group summary.
#[derive(Clone, Copy)]
pub enum Rows {
    Cases,
    Classes,
    Summaries,
}

/// One row a [`Column`] reads: a case, one priority class of a case, or a
/// group summary with the set whose cases it summarizes. The accessors
/// panic on a row of another kind, which only a column list drawn from
/// the wrong [`Rows`] can reach.
pub enum Row<'a> {
    Case(&'a CaseResult),
    Class(&'a CaseResult, &'a ClassMetrics),
    Summary(&'a GroupSummary, &'a RunSet),
}

impl<'a> Row<'a> {
    /// The case of a case or class row.
    pub fn case(&self) -> &'a CaseResult {
        let (Row::Case(c) | Row::Class(c, _)) = *self else { panic!("a summary row has no case") };
        c
    }

    /// The class of a class row.
    pub fn class(&self) -> &'a ClassMetrics {
        let Row::Class(_, m) = *self else { panic!("only a class row has a class") };
        m
    }

    /// The summary of a summary row.
    pub fn summary(&self) -> &'a GroupSummary {
        let Row::Summary(s, _) = *self else { panic!("only a summary row has a summary") };
        s
    }
}

impl Rows {
    /// Draw `set`'s rows of this kind under `columns`.
    pub fn draw(self, set: &RunSet, title: &str, columns: &[Column]) -> Table {
        let rows: Vec<Row> = match self {
            Rows::Cases => set.cases.iter().map(Row::Case).collect(),
            Rows::Classes => set
                .cases
                .iter()
                .flat_map(|c| c.classes.iter().flatten().map(move |m| Row::Class(c, m)))
                .collect(),
            Rows::Summaries => set.summaries.iter().map(|s| Row::Summary(s, set)).collect(),
        };
        Table {
            title: title.to_string(),
            headers: columns.iter().map(|c| c.0.to_string()).collect(),
            rows: rows.iter().map(|r| columns.iter().map(|c| (c.1)(r)).collect()).collect(),
            notes: Vec::new(),
        }
    }
}

// The columns several tables share.

/// The topology's display name.
pub(crate) const TOPOLOGY: Column = ("topology", |r| r.case().topology.clone());
/// The protocol's display name.
pub(crate) const PROTOCOL: Column = ("protocol", |r| r.case().protocol.clone());
/// Queuing, counting or relaxed.
pub(crate) const KIND: Column = ("kind", |r| r.case().kind.label().into());
/// The arrival process's display name.
pub(crate) const ARRIVAL: Column = ("arrival", |r| r.case().arrival.clone());
/// The admission policy's display name.
pub(crate) const ADMISSION: Column = ("admission", |r| r.case().admission.clone());
/// The shard plan's display name.
pub(crate) const SHARDS: Column = ("shards", |r| r.case().shards.clone());
/// Whether the case ran and verified.
pub(crate) const OK: Column = ("ok", |r| tick(r.case().ok));
/// Completions per round.
pub(crate) const THROUGHPUT: Column = ("thr/round", |r| f2(r.case().throughput));
/// Throughput net of shed load.
pub(crate) const GOODPUT: Column = ("goodput", |r| f2(r.case().goodput));
/// Median completion latency.
pub(crate) const P50: Column = ("p50", |r| int(r.case().latency_p50));
/// 95th-percentile completion latency.
pub(crate) const P95: Column = ("p95", |r| int(r.case().latency_p95));
/// 99th-percentile completion latency.
pub(crate) const P99: Column = ("p99", |r| int(r.case().latency_p99));
/// The backlog high-water mark.
pub(crate) const BACKLOG: Column = ("backlog", |r| int(r.case().backlog as u64));
/// The paper's metric, Σ per-operation delays.
pub(crate) const TOTAL: Column = ("total delay", |r| int(r.case().total_delay));
/// Messages sent.
pub(crate) const MESSAGES: Column = ("messages", |r| int(r.case().messages));
/// Messages ferried across shards.
pub(crate) const X_SHARD: Column = ("x-shard", |r| int(r.case().cross_shard_messages));
/// Arrivals shed by admission control.
pub(crate) const DROPPED: Column = ("dropped", |r| int(r.case().dropped));
/// Largest QQC rank displacement.
pub(crate) const QQC_MAX: Column = ("qqc_max", |r| int(r.case().qqc_max));
/// Mean QQC rank displacement.
pub(crate) const QQC_MEAN: Column = ("qqc_mean", |r| f2(r.case().qqc_mean));
/// Median QQC rank displacement.
pub(crate) const QQC_P50: Column = ("qqc_p50", |r| int(r.case().qqc_p50));
/// 95th-percentile QQC rank displacement.
pub(crate) const QQC_P95: Column = ("qqc_p95", |r| int(r.case().qqc_p95));
/// 99th-percentile QQC rank displacement.
pub(crate) const QQC_P99: Column = ("qqc_p99", |r| int(r.case().qqc_p99));
/// A summary's `C_C / C_Q`, the paper's gap.
pub(crate) const GAP: Column = ("gap C_C/C_Q", |r| r.summary().gap.map(f2).unwrap_or_default());
/// Whether queuing strictly won a summary's cell.
pub(crate) const WINS: Column =
    ("queuing wins", |r| r.summary().queuing_wins.map(tick).unwrap_or_default());

/// Format helpers shared by the experiment drivers.
pub mod fmt_util {
    /// Thousands-separated integer.
    pub fn int(v: u64) -> String {
        let s = v.to_string();
        let mut out = String::with_capacity(s.len() + s.len() / 3);
        for (i, c) in s.chars().enumerate() {
            if i > 0 && (s.len() - i).is_multiple_of(3) {
                out.push('_');
            }
            out.push(c);
        }
        out
    }

    /// Fixed two-decimal float.
    pub fn f2(v: f64) -> String {
        format!("{v:.2}")
    }

    /// Check-mark / cross for booleans.
    pub fn tick(b: bool) -> String {
        if b {
            "yes".into()
        } else {
            "NO".into()
        }
    }

    /// A number read back out of a cell (`int`'s `_` separators dropped).
    #[cfg(test)]
    pub(crate) fn parse<T: std::str::FromStr>(cell: &str) -> T {
        cell.replace('_', "").parse().unwrap_or_else(|_| panic!("not a number: `{cell}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_basic() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.note("hello");
        let s = t.to_string();
        assert!(s.contains("### demo"));
        assert!(s.contains("| a | bb |"));
        assert!(s.contains("| 1 | 2  |"));
        assert!(s.contains("> hello"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("demo", &["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_util::int(1234567), "1_234_567");
        assert_eq!(fmt_util::int(42), "42");
        assert_eq!(fmt_util::f2(1.234), "1.23");
        assert_eq!(fmt_util::tick(true), "yes");
        assert_eq!(fmt_util::tick(false), "NO");
    }
}
