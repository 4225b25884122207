//! The smoke run: every workload, untraced and traced, at `--smoke` size,
//! must print exactly the metric names `BENCHMARK.json` lists; and
//! `BENCHMARK.json` must be what `spec` generates and fit the driver's
//! limits.

use std::process::Command;

use pf_perf::spec::{benchmark_json, END_TO_END, PER_LAYER, WORKLOADS};

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_is_generated_from_spec_and_within_limits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        on_disk,
        benchmark_json(),
        "regenerate it: pf-perf --emit-spec > BENCHMARK.json"
    );
    assert!(on_disk.len() <= 64 * 1024);

    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    for w in &WORKLOADS {
        assert!(is_name(w.name), "{}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains(['\n', '"']),
            "{}: {}",
            w.name,
            w.why.len()
        );
    }
    for m in &END_TO_END {
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    for m in PER_LAYER {
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
    }
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(distinct.len(), names.len(), "a name is used twice");
}

#[test]
fn smoke_run_prints_exactly_the_listed_metrics() {
    for w in &WORKLOADS {
        for (trace, want) in [
            (
                "0",
                END_TO_END
                    .iter()
                    .map(|m| (m.name, m.unit))
                    .collect::<Vec<_>>(),
            ),
            (
                "1",
                PER_LAYER
                    .iter()
                    .map(|m| (m.name, m.unit))
                    .collect::<Vec<_>>(),
            ),
        ] {
            let out = Command::new(env!("CARGO_BIN_EXE_pf-perf"))
                .args([
                    "--smoke",
                    "--workload",
                    w.name,
                    "--seed",
                    "7",
                    "--trace",
                    trace,
                ])
                .output()
                .expect("run pf-perf");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            assert!(
                out.status.success(),
                "{} --trace {trace} failed:\n{stdout}",
                w.name
            );

            let printed: Vec<(&str, &str)> = stdout
                .lines()
                .filter_map(|l| l.strip_prefix(w.name)?.strip_prefix(' '))
                .map(|l| {
                    let mut f = l.split(' ');
                    let (name, unit, value) =
                        (f.next().unwrap(), f.next().unwrap(), f.next().unwrap());
                    assert!(is_name(name), "{name}");
                    assert!(
                        value.parse::<f64>().is_ok_and(f64::is_finite),
                        "{name} = {value}"
                    );
                    (name, unit)
                })
                .collect();
            assert_eq!(printed, want, "{} --trace {trace}", w.name);

            let json = stdout.lines().last().expect("a result line");
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
            for (name, unit) in &want {
                assert!(
                    json.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name} missing from {json}"
                );
                assert!(json.contains(&format!("\"unit\": \"{unit}\"}}")));
            }
            assert_eq!(json.matches("\"value\"").count(), want.len());
            if trace == "1" {
                let file = format!(
                    "{}/out/{}-seed7.trace.json",
                    env!("CARGO_MANIFEST_DIR"),
                    w.name
                );
                let spans = std::fs::read_to_string(&file).expect("the span file");
                assert!(
                    spans.starts_with("{\"traceEvents\":[") && spans.contains("\"ph\":\"X\""),
                    "{file}"
                );
            }
        }
    }
}
