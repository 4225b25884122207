//! # pf-perf — the repo's benchmark
//!
//! One harness for the claim the paper makes, a time bound: the four §3
//! algorithms on pf-rt against the same code on the sequential engine,
//! and pf-service under bulk, paced and read traffic. It measures every
//! layer from outside, through public functions of pf-rt, pf-backend,
//! pf-algs, pf-core and pf-service; nothing under `crates/` knows it
//! exists. `README.md` next to this crate says what each workload and
//! metric is for; [`spec`] holds their names.

pub mod algs;
pub mod gen;
pub mod host;
pub mod probes;
pub mod span;
pub mod spec;
pub mod stats;
pub mod svc;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use span::Recorder;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Input sizes. `FULL` is what `BENCHMARK.json` measures; `SMOKE` only
/// shows that every path runs and every name is printed.
pub struct Scale {
    /// Keys per operand of the §3 algorithms.
    pub n: usize,
    /// Keys preloaded into `svc-paced` and `svc-read`.
    pub preload: usize,
    /// Requests per `svc-bulk` drive.
    pub bulk_requests: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Operations per batch of a unit-cost probe.
    pub probe_ops: usize,
    /// Reps of each plain (engine-free) oracle in the traced pass.
    pub plain_reps: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        n: 1 << 16,
        preload: 1 << 19,
        bulk_requests: 2500,
        setups: 3,
        probe_ops: 1 << 16,
        plain_reps: 5,
    };
    pub const SMOKE: Scale = Scale {
        n: 1 << 10,
        preload: 1 << 13,
        bulk_requests: 200,
        setups: 1,
        probe_ops: 1 << 10,
        plain_reps: 1,
    };
}

/// What one timed pass of a workload measured.
pub struct RunData {
    /// Operations whose result was checked, and how many were wrong,
    /// degraded or shed.
    pub attempted: u64,
    pub failed: u64,
    pub keys_per_s: f64,
    pub x_seq: f64,
    /// Median request latency over the oracle's mean time per request.
    pub req_p50_x_seq: f64,
    /// 95th over 50th percentile of request latency.
    pub req_p95_x_p50: f64,
    /// Request latency in milliseconds; reported per layer only, because
    /// the host's speed drifts by tens of percent over minutes and an
    /// absolute time does not repeat from run to run.
    pub req_ms: stats::Tail,
    /// Requests behind the percentiles.
    pub samples: u64,
    /// Measured time per unit of the workload's own work, in a unit of
    /// the workload's choosing; only its ratio between the traced and
    /// the untraced pass is used.
    pub unit_cost: f64,
    pub wall: Duration,
    /// Per-layer metrics the pass itself produced.
    pub layer: Layers,
}

pub trait Workload {
    /// Measure for about `seconds`, recording spans on `rec`.
    fn run(&mut self, seconds: f64, rec: &Recorder) -> RunData;
    /// Traced pass only: per-layer metrics that need work beside the
    /// timed pass (denominators, cost model, stage probes), given the
    /// traced pass and the pool's unit costs; and lines to print.
    fn extras(&mut self, rec: &Recorder, run: &RunData, unit: &Layers) -> (Layers, Vec<String>);
    /// Workers of the workload's pf-rt pool.
    fn workers(&self) -> usize;
}

fn setup(workload: &str, scale: &Scale, seed: u64, rec: &Recorder) -> Box<dyn Workload> {
    match workload {
        "algs-t1" => Box::new(algs::Algs::setup(1, scale, seed, rec)),
        "algs-t2" => Box::new(algs::Algs::setup(2, scale, seed, rec)),
        "svc-bulk" => Box::new(svc::Bulk::setup(scale, seed, rec)),
        "svc-paced" => Box::new(svc::PacedWrites::setup(scale, seed, rec)),
        "svc-read" => Box::new(svc::Reads::setup(scale, seed, rec)),
        other => panic!("unknown workload {other}"),
    }
}

/// The result of one run of one workload, as the driver reads it.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Name, unit, value: every end-to-end metric (untraced run) or every
    /// per-layer metric (traced run), in `spec` order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable lines (`# ...`) to print before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The driver's result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run one workload once: set up [`Scale::setups`] times, then measure.
///
/// Untraced, the whole of `seconds` is one pass and the end-to-end metrics
/// come from it. Traced, the first half is an untraced pass and the second
/// half repeats it with the span recorder on; per-layer metrics come from
/// the traced half, the unit-cost probes and the workload's extras, and
/// the two halves' difference is `bench.trace_overhead_share`.
pub fn run_workload(
    workload: &str,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Outcome {
    // Pinned first, so that only the vCPU in use is kept awake: a thread
    // yielding on the other one would share the core's resources with it.
    let _pinned = (workload == "svc-paced").then(host::Pinned::to_first_cpu);
    let _awake = host::KeepAwake::start();
    let began = Instant::now();
    let rec = Recorder::new(trace, began, 0);
    let off = Recorder::off();
    let root = rec.span("bench:workload", seed);

    let mut setup_s = Vec::new();
    let mut built = None;
    for i in 0..scale.setups {
        // One set-up's product at a time, or peak RSS would count three.
        drop(built.take());
        let last = i + 1 == scale.setups;
        let _s = rec.span("bench:setup", i as u64);
        let t = Instant::now();
        built = Some(setup(workload, scale, seed, if last { &rec } else { &off }));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = built.expect("at least one set-up");

    if !trace {
        let run = w.run(seconds, &off);
        let setup = stats::median(&setup_s);
        let value = |name: &str| match name {
            "x_seq" => run.x_seq,
            "req_p50_x_seq" => run.req_p50_x_seq,
            "req_p95_x_p50" => run.req_p95_x_p50,
            "setup_s" => setup,
            other => panic!("no value for end-to-end metric {other}"),
        };
        return Outcome {
            attempted: run.attempted,
            failed: run.failed,
            metrics: spec::END_TO_END
                .iter()
                .map(|m| (m.name, m.unit, value(m.name)))
                .collect(),
            notes: vec![
                format!(
                    "# {} requests behind req_p50_x_seq/req_p95_x_p50, {} set-ups behind setup_s, measured {:.3} s",
                    run.samples,
                    setup_s.len(),
                    run.wall.as_secs_f64()
                ),
                format!(
                    "# absolute, drifting with the host (per layer in a traced run): {:.0} keys/s, request p50 {:.6} ms p95 {:.6} ms p99 {:.6} ms, peak RSS {:.1} MB",
                    run.keys_per_s,
                    run.req_ms.p50,
                    run.req_ms.p95,
                    run.req_ms.p99,
                    stats::peak_rss_mb()
                ),
            ],
        };
    }

    let untraced = {
        let _s = rec.span("bench:untraced_pass", 0);
        w.run(seconds / 2.0, &off)
    };
    let traced = w.run(seconds / 2.0, &rec);
    let probe_rt = {
        let _s = rec.span("rt:Runtime::new", 1);
        pf_rt::Runtime::new(w.workers())
    };
    let unit = probes::unit_costs(&probe_rt, scale.probe_ops, &rec);
    drop(probe_rt);
    let (extras, mut notes) = w.extras(&rec, &traced, &unit);
    drop(w);
    drop(root);

    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;
    let mut layer = traced.layer;
    layer.extend(unit);
    layer.extend(extras);
    layer.insert("bench.keys_per_s", traced.keys_per_s);
    layer.insert("bench.req_p50_ms", traced.req_ms.p50);
    layer.insert("bench.req_p95_ms", traced.req_ms.p95);
    layer.insert("bench.req_p99_ms", traced.req_ms.p99);
    layer.insert("bench.peak_rss_mb", stats::peak_rss_mb());
    layer.insert("bench.fail_share", failed as f64 / attempted as f64);
    layer.insert(
        "bench.trace_overhead_share",
        traced.unit_cost / untraced.unit_cost - 1.0,
    );
    for name in layer.keys() {
        assert!(
            spec::PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not in spec::PER_LAYER"
        );
    }

    notes.extend(span::self_time_table(
        &rec,
        began.elapsed().as_nanos() as u64,
    ));
    // Under the crate's own directory wherever the run started from.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("out/{workload}-seed{seed}.trace.json"));
    match span::write_chrome_trace(&path, rec) {
        Ok(n) => notes.push(format!("# {n} spans written to {}", path.display())),
        Err(e) => notes.push(format!("# span file {} not written: {e}", path.display())),
    }
    Outcome {
        attempted,
        failed,
        metrics: spec::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, layer.get(m.name).copied().unwrap_or(0.0)))
            .collect(),
        notes,
    }
}
