//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repo root is generated from these tables (`pf-perf --emit-spec`) and
//! the crate's test fails when the file and the tables disagree, so the
//! names later performance work refers to live in exactly one place.

/// How long one timed run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 20;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "algs-t1",
        why: "four section-3 algorithms on a 1-worker pf-rt vs the Seq engine: per-node scheduler, cell and allocation cost, zero steals, so deque or steal changes must not move it",
    },
    Workload {
        name: "algs-t2",
        why: "same inputs and code on 2 workers: real steals, cross-thread cell hand-off and deque contention; against algs-t1 it is the overlap measurement",
    },
    Workload {
        name: "svc-bulk",
        why: "backlogged bulk ingest through SetService::drive, windows chained 8 deep: pf-algs, pf-rt and cross-wave pipelining dominate, session overhead is negligible",
    },
    Workload {
        name: "svc-paced",
        why: "open loop at 2500 requests/s of 1-8 keys via submit+pump: coalesce, split, batch-treap build, snapshot and session open/close dominate, per-node cost is small",
    },
    Workload {
        name: "svc-read",
        why: "closed-loop contains/range reader on committed snapshots beside a 200 requests/s writer: peek-walks over the treap/cell layout, no sessions on the read path",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every workload reports every one of these (the driver's contract), each
/// from its own primary measurement; `perf/README.md` has the table of
/// what a name means on which workload.
///
/// All six bounds are the contract's maximum. A bound holds for a metric
/// on every workload, and on the 2-vCPU authoring VM the noisiest workload
/// of each metric spreads by 8-13 % of its median over ten runs (the
/// host's own speed drifts by tens of percent over minutes), so a tighter
/// bound would reject unchanged code.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "x_seq",
        unit: "x",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "req_p50_x_seq",
        unit: "x",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "req_p95_x_p50",
        unit: "x",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// `<crate>.<module>.<metric>`. Counts come from `RunStats`/`DrainReport`,
/// unit costs from probes that call only public functions. A metric a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[Layer] = &[
    // pf-rt
    lo("rt.deque.push_pop_ns", "ns"),
    lo("rt.deque.steal_ns", "ns"),
    lo("rt.scheduler.spawn_exec_ns", "ns"),
    lo("rt.scheduler.tasks", "count"),
    lo("rt.scheduler.spawns", "count"),
    lo("rt.scheduler.steals", "count"),
    lo("rt.scheduler.steals_per_ktask", "count"),
    lo("rt.cell.write_touch_ns", "ns"),
    lo("rt.cell.touch_write_ns", "ns"),
    lo("rt.cell.pipeline_ns_per_item", "ns"),
    lo("rt.cell.suspensions", "count"),
    lo("rt.cell.suspensions_per_ktask", "count"),
    lo("rt.pool.session_noop_us", "us"),
    lo("rt.pool.sessions", "count"),
    hi("rt.pool.session_busy_share", "share"),
    // the denominators
    lo("backend.seq.union_ms", "ms"),
    lo("backend.seq.diff_ms", "ms"),
    lo("backend.seq.insert26_ms", "ms"),
    lo("backend.seq.merge_ms", "ms"),
    lo("algs.plain.union_ms", "ms"),
    lo("algs.plain.diff_ms", "ms"),
    lo("algs.plain.insert26_btreeset_ms", "ms"),
    // pf-algs on pf-rt
    lo("algs.treap.union_rt_ms", "ms"),
    lo("algs.treap.diff_rt_ms", "ms"),
    lo("algs.two_six.insert26_rt_ms", "ms"),
    lo("algs.merge.merge_rt_ms", "ms"),
    lo("algs.treap.union_x_seq", "x"),
    lo("algs.treap.diff_x_seq", "x"),
    lo("algs.two_six.insert26_x_seq", "x"),
    lo("algs.merge.merge_x_seq", "x"),
    lo("algs.treap.union_ledger_ms", "ms"),
    lo("algs.treap.union_residual_share", "share"),
    lo("algs.two_six.insert26_ledger_ms", "ms"),
    lo("algs.two_six.insert26_residual_share", "share"),
    // pf-core's exact cost model on the same inputs
    lo("core.cost.union_work", "count"),
    lo("core.cost.union_depth", "count"),
    lo("core.cost.union_ns_per_work", "ns"),
    lo("core.cost.diff_work", "count"),
    lo("core.cost.diff_depth", "count"),
    lo("core.cost.diff_ns_per_work", "ns"),
    lo("core.cost.insert26_work", "count"),
    lo("core.cost.insert26_depth", "count"),
    lo("core.cost.insert26_ns_per_work", "ns"),
    lo("core.cost.merge_work", "count"),
    lo("core.cost.merge_depth", "count"),
    lo("core.cost.merge_ns_per_work", "ns"),
    // pf-service
    lo("service.coalesce.ns_per_key", "ns"),
    lo("service.coalesce.waves", "count"),
    hi("service.coalesce.keys_per_wave", "count"),
    hi("service.coalesce.dedup_share", "share"),
    lo("service.shard.route_ns_per_key", "ns"),
    lo("service.service.submit_ns_per_req", "ns"),
    lo("service.service.build_ns_per_key", "ns"),
    lo("service.service.pump_p50_ms", "ms"),
    hi("service.service.waves_per_session", "count"),
    lo("service.service.retries", "count"),
    lo("service.service.degraded", "count"),
    lo("service.service.shed", "count"),
    lo("service.service.replayed", "count"),
    lo("service.service.snapshot_ns", "ns"),
    lo("service.service.contains_ns", "ns"),
    lo("service.service.range_ns_per_key", "ns"),
    hi("service.service.barriered_keys_per_s", "1/s"),
    hi("service.service.pipelining_gain", "x"),
    hi("service.service.reads_per_s", "1/s"),
    lo("service.service.read_p99_us", "us"),
    lo("service.service.writer_p50_ms", "ms"),
    lo("service.service.writer_p99_ms", "ms"),
    // the harness itself
    hi("bench.offered_keys_per_s", "1/s"),
    lo("bench.gen_late_p99_ms", "ms"),
    lo("bench.backlog_end_reqs", "count"),
    hi("bench.keys_per_s", "1/s"),
    lo("bench.req_p50_ms", "ms"),
    lo("bench.req_p95_ms", "ms"),
    lo("bench.req_p99_ms", "ms"),
    lo("bench.peak_rss_mb", "MB"),
    lo("bench.fail_share", "share"),
    lo("bench.trace_overhead_share", "share"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"perf\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
