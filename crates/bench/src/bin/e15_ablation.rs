//! E15 — ablations: cost-constant sensitivity; suspension-accounting
//! policy in the machine simulator. (The future cell's round trip, once
//! E15b, is pf-perf's `rt.cell.write_touch_ns` / `rt.cell.touch_write_ns`.)
fn main() {
    pf_bench::exp_rt::e15_cost_constants(12, &[1, 2, 3, 4]).print();
    pf_bench::exp_machine::e15_suspension(10, &[4, 64, pf_machine::INFINITE_P]).print();
}
