//! `pf-perf`: run the benchmark's workloads and print every metric.
//!
//! ```text
//! pf-perf [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke]
//! pf-perf --sets N [--workload W] [--seed S] [--seconds N]
//! pf-perf --emit-spec | --capacity
//! ```
//!
//! Every metric is printed as `workload name unit value`; the last line
//! of a workload's output is the driver's JSON result. The exit code is
//! non-zero when any checked result was wrong.

use std::process::ExitCode;

use pf_perf::spec::{Better, END_TO_END, RUN_SECONDS, WORKLOADS};
use pf_perf::{run_workload, stats, svc, Scale};

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    sets: usize,
}

fn usage(problem: &str) -> ! {
    eprintln!("pf-perf: {problem}");
    eprintln!("usage: pf-perf [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--sets N] [--emit-spec] [--capacity]");
    eprintln!("workloads: {}", WORKLOADS.map(|w| w.name).join(", "));
    std::process::exit(2);
}

fn parse() -> Args {
    let mut args = Args {
        workloads: WORKLOADS.iter().map(|w| w.name).collect(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        smoke: false,
        sets: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name");
                let known = WORKLOADS.iter().find(|w| w.name == name);
                args.workloads = vec![
                    known
                        .unwrap_or_else(|| usage(&format!("unknown workload {name}")))
                        .name,
                ];
            }
            "--seed" => {
                args.seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs a whole number"))
            }
            "--seconds" => {
                args.seconds = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds needs a number"));
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace needs 0 or 1"),
                }
            }
            "--sets" => {
                args.sets = value("a count")
                    .parse()
                    .unwrap_or_else(|_| usage("--sets needs a whole number"))
            }
            "--smoke" => args.smoke = true,
            "--emit-spec" => {
                print!("{}", pf_perf::spec::benchmark_json());
                std::process::exit(0);
            }
            "--capacity" => {
                let rate = svc::closed_loop_capacity(&Scale::FULL, args.seed, 5.0);
                println!(
                    "svc-paced closed-loop capacity {rate:.0} requests/s; PACED_RATE is {}",
                    svc::PACED_RATE
                );
                std::process::exit(0);
            }
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    if args.seconds == 0.0 {
        args.seconds = if args.smoke {
            1.0
        } else {
            f64::from(RUN_SECONDS)
        };
    }
    args
}

/// One workload, once, in this process.
fn run_one(workload: &str, args: &Args) -> bool {
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    println!(
        "# pf-perf workload={workload} seed={} seconds={} trace={} scale={}",
        args.seed,
        args.seconds,
        args.trace as u8,
        if args.smoke { "smoke" } else { "full" }
    );
    let print: Vec<String> = stats::fingerprint()
        .iter()
        .map(|(k, v)| format!("{k}={v:?}"))
        .collect();
    println!("# {}", print.join(" "));
    let out = run_workload(workload, &scale, args.seed, args.seconds, args.trace);
    for line in &out.notes {
        println!("{line}");
    }
    for (name, unit, value) in &out.metrics {
        println!("{workload} {name} {unit} {value}");
    }
    println!("{}", out.json());
    out.correct()
}

/// `--sets N`: N untraced runs of each workload, each a fresh process
/// with its own seed as the driver makes them, then each end-to-end
/// metric's median, quartiles and spread against its bound.
fn run_sets(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own path");
    let mut ok = true;
    for workload in &args.workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for set in 0..args.sets {
            let out = std::process::Command::new(&exe)
                .args(["--workload", workload, "--trace", "0"])
                .args(["--seed", &(args.seed + set as u64).to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(args.smoke.then_some("--smoke"))
                .output()
                .expect("run a set");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let json = stdout.lines().last().unwrap_or_default();
            if !out.status.success() {
                eprintln!("{workload} set {set} failed: {json}");
                ok = false;
            }
            for (m, vs) in END_TO_END.iter().zip(&mut values) {
                let key = format!("\"{}\": {{\"value\": ", m.name);
                let value = json
                    .split_once(&key)
                    .and_then(|(_, rest)| rest.split(',').next()?.parse::<f64>().ok());
                vs.push(value.unwrap_or_else(|| {
                    panic!("{workload} set {set} printed no {}: {json}", m.name)
                }));
            }
            eprintln!("{workload} set {set} done");
        }
        for (m, vs) in END_TO_END.iter().zip(&values) {
            let med = stats::median(vs);
            let (min, max) = vs
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            // The driver's spread is the interquartile range over the
            // median; under four sets only the full range exists.
            let (q1, q3) = if vs.len() >= 4 {
                stats::quartiles(vs)
            } else {
                (min, max)
            };
            let spread = (q3 - q1) / med;
            let verdict = if spread <= m.bound {
                "ok"
            } else if m.name == "setup_s" {
                "wide (setup_s is judged on its median only)"
            } else {
                ok = false;
                "EXCEEDS BOUND"
            };
            println!(
                "{workload} {} {} median {med} q1 {q1} q3 {q3} min {min} max {max} spread {spread:.4} bound {} {} {verdict}",
                m.name,
                m.unit,
                m.bound,
                if m.better == Better::Lower { "lower-is-better" } else { "higher-is-better" },
            );
            println!("# {workload} {} values {vs:?}", m.name);
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = parse();
    // The Seq engine and the cost model evaluate forks inline, one native
    // frame per fork on the critical path; give them room.
    let work = move || {
        if args.sets > 0 {
            run_sets(&args)
        } else {
            let results: Vec<bool> = args.workloads.iter().map(|w| run_one(w, &args)).collect();
            results.into_iter().all(|ok| ok)
        }
    };
    let ok = std::thread::Builder::new()
        .stack_size(1 << 30)
        .spawn(work)
        .expect("spawn the harness thread")
        .join()
        .expect("the harness panicked");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
