//! E16 — implicit (futures) vs explicit (PVW-style synchronous)
//! pipelining: depth-vs-rounds on the cost model, then wall-clock: the
//! futures insert on the real runtime against the PVW rounds run serially.
//!
//! `e16_pvw ci` runs the small-n smoke configuration used by CI.
fn main() {
    let ci = std::env::args().nth(1).as_deref() == Some("ci");
    if ci {
        pf_bench::exp_machine::e16_pvw(&[10, 11], 5).print();
        pf_bench::exp_rt::e16_pvw_wallclock(10, 5, &[1, 4, 8], 1).print();
    } else {
        pf_bench::exp_machine::e16_pvw(&[10, 11, 12, 13, 14, 15], 8).print();
        pf_bench::exp_rt::e16_pvw_wallclock(16, 10, &[1, 4, 8], 3).print();
    }
}
