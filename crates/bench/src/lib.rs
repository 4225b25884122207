//! # pf-bench — the experiment harness
//!
//! One function per paper experiment (see DESIGN.md §6 for the index);
//! each returns [`Table`]s that the `pf-bench <table> [ci]` binary
//! (`src/bin/pf-bench.rs`) prints. The integration tests smoke-run every
//! experiment at reduced sizes, so the harness itself is covered by
//! `cargo test`.
//!
//! What the experiments share sits beside them: seeded input generators
//! ([`workloads`]), each `pf_algs::start` starter in a simulation of its
//! own ([`sim`]), the τ/ρ timestamp checkers and cell walkers
//! ([`analysis`]), and the wall-clock drivers of E13/E16/E18
//! ([`baselines`]). Every other wall-clock number is pf-perf's (`perf/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod baselines;
pub mod exp_linear;
pub mod exp_machine;
pub mod exp_model;
pub mod exp_rt;
pub mod sim;
pub mod workloads;

/// A printable result table (plain aligned text, CSV-friendly content).
#[derive(Debug, Clone)]
pub struct Table {
    /// Table caption: experiment id + what it shows + the paper's claim.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row values, one `Vec<String>` per row.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table from string-ish headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row/header mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&line(r, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Format a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a u64.
pub fn u(x: u64) -> String {
    x.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["n", "depth"]);
        t.row(vec!["8".into(), "12".into()]);
        t.row(vec!["1024".into(), "120".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("1024"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row/header mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
