//! E15 — ablations: cost-constant sensitivity; the future cell's round
//! trip; suspension-accounting policy in the machine simulator.
fn main() {
    pf_bench::exp_rt::e15_cost_constants(12, &[1, 2, 3, 4]).print();
    pf_bench::exp_rt::e15_cells(20, 20_000).print();
    pf_bench::exp_machine::e15_suspension(10, &[4, 64, pf_machine::INFINITE_P]).print();
}
