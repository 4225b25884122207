//! E11 — the §4 linearity restriction (Figure 12): every algorithm in the
//! suite touches each future cell at most once, so the single-waiter EREW
//! implementation applies; and the linearization (copying scalars like
//! keys and splitters) does not change work or depth — in this
//! implementation keys are value types, so the copies are already there
//! and the costs are by construction those of the linearized code.

use pf_algs::Mode;

use crate::sim::{
    run_diff, run_insert_many, run_merge, run_pipeline, run_quicksort, run_rebalance, run_union,
};
use crate::workloads::{diff_entries, interleaved_pair, shuffled_keys, sorted_keys, union_entries};
use crate::{f2, u, Table};

/// Run every algorithm and report the linearity statistics.
pub fn e11_linearity(lg_n: u32) -> Table {
    let n = 1usize << lg_n;
    let mut t = Table::new(
        "E11 §4 linearity: max touches per future cell (must be ≤ 1), cells, touches",
        &[
            "algorithm",
            "cells",
            "touches",
            "max reads/cell",
            "linear",
            "touches/cell",
        ],
    );
    let mut push = |name: &str, c: pf_core::CostReport| {
        t.row(vec![
            name.to_string(),
            u(c.cells),
            u(c.touches),
            u(c.max_reads_per_cell as u64),
            if c.is_linear() { "yes" } else { "NO" }.to_string(),
            f2(c.touches as f64 / c.cells.max(1) as f64),
        ]);
    };

    let (a, b) = interleaved_pair(n, n);
    push("merge", run_merge(&a, &b, Mode::Pipelined).1);
    let (ea, eb) = union_entries(n, n, 21);
    push("union", run_union(&ea, &eb, Mode::Pipelined).1);
    let (da, db) = diff_entries(n, n / 2, 22);
    push("diff", run_diff(&da, &db, Mode::Pipelined).1);
    let initial = sorted_keys(n, 2);
    let newk: Vec<i64> = (0..(n / 8).max(2) as i64).map(|i| 2 * i + 1).collect();
    push(
        "2-6 insert",
        run_insert_many(&initial, &newk, Mode::Pipelined).1,
    );
    push(
        "rebalance",
        run_rebalance(&shuffled_keys(n, 23), Mode::Pipelined).1,
    );
    push(
        "quicksort",
        run_quicksort(&shuffled_keys(n.min(2000), 24), Mode::Pipelined).1,
    );
    push("pipeline", run_pipeline(n as u64, Mode::Pipelined).1);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_algorithms_are_linear() {
        let t = e11_linearity(6);
        assert_eq!(t.rows.len(), 7);
        for r in &t.rows {
            assert_eq!(r[4], "yes", "{} is not linear", r[0]);
        }
    }
}
