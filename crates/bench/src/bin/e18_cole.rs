//! E18 — Cole's cascading mergesort (hand pipeline) vs futures mergesort:
//! stages-vs-depth on the cost model, then wall-clock: the futures
//! mergesort on the real runtime against the cascade run serially.
//!
//! `e18_cole ci` runs the small-n smoke configuration used by CI.
fn main() {
    let ci = std::env::args().nth(1).as_deref() == Some("ci");
    if ci {
        pf_bench::exp_model::e18_cole(&[8, 9], &[1]).print();
        pf_bench::exp_rt::e18_cole_wallclock(9, &[1, 4, 8], 1).print();
    } else {
        pf_bench::exp_model::e18_cole(&[8, 9, 10, 11, 12, 13], &[1, 2, 3]).print();
        pf_bench::exp_rt::e18_cole_wallclock(14, &[1, 4, 8], 3).print();
    }
}
