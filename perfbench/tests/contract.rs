//! The benchmark's own checks, at the tiny scale: every metric listed in
//! `BENCHMARK.json` is emitted with its unit, exact counts repeat across
//! runs of one seed, and a corrupted reference value fails the run.

use std::process::Command;
use std::sync::Mutex;

const BIN: &str = env!("CARGO_BIN_EXE_abp-perfbench");
const SPEC: &str = include_str!("../../BENCHMARK.json");
const WORKLOADS: [&str; 2] = ["figs-ideal", "figs-noise"];

/// Runs are timing-sensitive; keep them from competing for the cores.
static SERIAL: Mutex<()> = Mutex::new(());

struct Run {
    code: Option<i32>,
    result: String,
}

fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Run {
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "tiny"])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    Run {
        code: out.status.code(),
        result: stdout.lines().last().unwrap_or_default().to_string(),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn spec_metrics(section: &str) -> Vec<(String, String)> {
    let start = SPEC
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &SPEC[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').expect("name closes")].to_string();
            let unit_at = entry.find("\"unit\": \"").expect("unit present") + 9;
            let unit =
                entry[unit_at..][..entry[unit_at..].find('"').expect("unit closes")].to_string();
            (name, unit)
        })
        .collect()
}

/// The value and unit of `name` in a result line.
fn metric(result: &str, name: &str) -> Option<(f64, String)> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &result[result.find(&key)? + key.len()..];
    let value = rest[..rest.find(',')?].parse().ok()?;
    let unit_at = rest.find("\"unit\": \"")? + 9;
    let unit = rest[unit_at..][..rest[unit_at..].find('"')?].to_string();
    Some((value, unit))
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let wanted = spec_metrics(section);
        assert!(!wanted.is_empty(), "{section} lists metrics");
        for workload in WORKLOADS {
            let r = run(workload, 5, trace, &[]);
            assert_eq!(r.code, Some(0), "{workload} trace={trace}: {}", r.result);
            assert!(r.result.starts_with("{\"correct\": true, "), "{}", r.result);
            for (name, unit) in &wanted {
                let (value, got_unit) = metric(&r.result, name)
                    .unwrap_or_else(|| panic!("{workload} trace={trace}: {name} missing"));
                assert_eq!(&got_unit, unit, "{workload}: unit of {name}");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
            }
        }
    }
}

#[test]
fn traced_counts_repeat_exactly() {
    const EXACT: [&str; 8] = [
        "radio.links_tested",
        "placement.candidates_scanned",
        "sim.threads_spawned",
        "sim.allocs_per_trial",
        "serve.requests",
        "serve.errors",
        "serve.applies",
        "serve.final_epoch",
    ];
    for workload in ["figs-ideal", "figs-noise"] {
        let a = run(workload, 9, true, &[]);
        let b = run(workload, 9, true, &[]);
        assert_eq!(
            (a.code, b.code),
            (Some(0), Some(0)),
            "{}\n{}",
            a.result,
            b.result
        );
        for name in EXACT {
            let x = metric(&a.result, name).expect("first run has it").0;
            let y = metric(&b.result, name).expect("second run has it").0;
            assert_eq!(x.to_bits(), y.to_bits(), "{workload}: {name} {x} vs {y}");
        }
        assert!(metric(&a.result, "radio.links_tested").expect("present").0 > 0.0);
    }
}

#[test]
fn corrupted_reference_fails_the_run() {
    let r = run("figs-ideal", 3, false, &["--corrupt-reference"]);
    assert_eq!(r.code, Some(1), "{}", r.result);
    assert!(
        r.result.starts_with("{\"correct\": false, "),
        "{}",
        r.result
    );
    let failed = r.result.split("\"failed\": ").nth(1).expect("failed key");
    assert_ne!(&failed[..failed.find(',').expect("comma")], "0");
}
