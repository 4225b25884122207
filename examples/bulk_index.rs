//! bulk_index: database-style bulk loading of a sorted index with 2-6
//! trees (§3.4) — the PVW workload, pipelined implicitly.
//!
//! A search index over document ids is maintained as a 2-6 tree. New
//! document batches arrive sorted; each batch of m keys is inserted in
//! lg m pipelined waves, costing O(lg n + lg m) depth. The example loads
//! an index from scratch in batches, validates every intermediate tree,
//! and shows the pipelined-vs-strict depth gap per batch.
//!
//! Run with: `cargo run --release -p pf-examples --bin bulk_index`

use std::collections::BTreeSet;

use pf_algs::Mode;
use pf_bench::sim::run_insert_many;
use pf_examples::banner;
use rand::prelude::*;
use rand::rngs::SmallRng;

fn main() {
    let mut rng = SmallRng::seed_from_u64(7);
    // Document-id batches: disjoint, each sorted.
    let mut all: Vec<i64> = (0..40_000).collect();
    all.shuffle(&mut rng);
    let batches: Vec<Vec<i64>> = all
        .chunks(5_000)
        .map(|c| {
            let mut v = c.to_vec();
            v.sort_unstable();
            v
        })
        .collect();

    banner("bulk-loading a 2-6 tree index, one pipelined bulk insert per batch");
    let mut oracle: BTreeSet<i64> = BTreeSet::new();
    let mut keys_so_far: Vec<i64> = Vec::new();

    for (i, batch) in batches.iter().enumerate() {
        oracle.extend(batch.iter().copied());

        // Cost model: measure this batch's insert in isolation, pipelined
        // and strict, against the index built so far.
        let run = |mode| run_insert_many(&keys_so_far, batch, mode);
        let (root_p, cost_p) = run(Mode::Pipelined);
        let (_, cost_s) = run(Mode::Strict);

        let tree = root_p.get();
        tree.validate().expect("2-6 invariants");
        keys_so_far = tree.to_sorted_vec();
        assert_eq!(keys_so_far, oracle.iter().copied().collect::<Vec<_>>());

        println!(
            "batch {i}: +{} keys -> index {:>6} keys, height {}, depth {:>4} (strict {:>5}, {:.1}x), work {}",
            batch.len(),
            keys_so_far.len(),
            tree.height(),
            cost_p.depth,
            cost_s.depth,
            cost_s.depth as f64 / cost_p.depth as f64,
            cost_p.work,
        );
    }

    println!(
        "\nindex loaded: {} keys, all 2-6 tree invariants verified after every batch.",
        keys_so_far.len()
    );
}
