//! Each family on all three engines at once: `Seq`, the simulator and
//! pf-rt at every pool width, on the inputs the starters build.

mod tests {
    use pf_algs::Seq;
    use pf_bench::workloads::shuffled_keys;
    use pf_core::Ctx;
    use pf_rt::Worker;

    use crate::*;

    #[test]
    fn treap_starters_build_the_plain_oracles_treap_on_every_engine() {
        let a = entries((0..300).map(|i| 3 * i));
        let ops = SetOps::new(&a, &entries((0..300).map(|i| 2 * i)));
        ops.check::<Seq>(&SET_OPS, &BOTH_SIZED);
        ops.check::<Ctx>(&SET_OPS, &BOTH_SIZED);
        ops.check::<Worker>(&SET_OPS, &BOTH_SIZED);
    }

    #[test]
    fn tree_starters_agree_with_the_sorted_vec_on_every_engine() {
        let (a, b, keys) = (evens(300), odds(200), shuffled_keys(257, 3));
        check_merge::<Seq, i64>(&a, &b);
        check_merge::<Ctx, i64>(&a, &b);
        check_merge::<Worker, i64>(&a, &b);
        check_rebalance::<Seq, i64>(&keys);
        check_rebalance::<Ctx, i64>(&keys);
        check_rebalance::<Worker, i64>(&keys);
        for balanced in [false, true] {
            check_msort::<Seq, i64>(&keys, balanced);
            check_msort::<Ctx, i64>(&keys, balanced);
            check_msort::<Worker, i64>(&keys, balanced);
        }
    }

    #[test]
    fn two_six_starter_agrees_with_btreeset_on_every_engine() {
        let (initial, keys) = (evens(400), (0..100).map(|i| 8 * i + 1).collect::<Vec<_>>());
        check_insert26::<Seq>(&initial, &keys);
        check_insert26::<Ctx>(&initial, &keys);
        check_insert26::<Worker>(&initial, &keys);
    }
}
