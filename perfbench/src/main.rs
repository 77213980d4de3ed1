//! The repository benchmark: regenerates a fixed slice of the paper's
//! figures and drives an in-process serving daemon open loop, checks both
//! against reference computations, and prints every metric by name.
//!
//! ```text
//! perfbench --workload <figs-ideal|figs-noise> --seed <n>
//!           --seconds <s> --trace <0|1> [--scale tiny] [--corrupt-reference]
//! ```
//!
//! The last stdout line is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`); with `--trace 0` it carries the end-to-end
//! metrics, with `--trace 1` the per-layer ones. The exit code is 0 only
//! when every check passed. See `README.md` for what each workload and
//! metric is for.

mod alloc;
mod batch;
mod host;
mod report;
mod serve;

use batch::Slice;
use report::{median, Report};
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Metrics of a `--trace 0` run.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "figures_s",
    "peak_rss_mb",
    "serve_p50_us",
    "publish_p50_ms",
];

/// Metrics of a `--trace 1` run.
const PER_LAYER: [&str; 41] = [
    "survey.sweep_ms",
    "survey.sweep_share",
    "radio.links_tested",
    "survey.add_beacon_us",
    "survey.map_clone_us",
    "survey.median_us",
    "placement.grid_ms",
    "placement.max_us",
    "placement.random_us",
    "placement.grid_share",
    "placement.candidates_scanned",
    "field.generate_us",
    "sim.density_error.trial_p50_ms",
    "sim.density_error.trial_p99_ms",
    "sim.improvement.trial_p50_ms",
    "sim.improvement.trial_p99_ms",
    "sim.busy_frac",
    "sim.threads_spawned",
    "sim.allocs_per_trial",
    "sim.unattributed_frac",
    "serve.codec_ns",
    "serve.localize_ns",
    "serve.snapshot_load_ns",
    "serve.rebuild_ms",
    "serve.rebuild_sweep_ms",
    "serve.rebuild_index_ms",
    "serve.rebuild_max_ms",
    "serve.rebuild_grid_ms",
    "serve.rebuild_unattributed_frac",
    "serve_p90_us",
    "serve_p99_us",
    "serve.requests",
    "serve.errors",
    "serve.applies",
    "serve.final_epoch",
    "loadgen.late_p99_us",
    "loadgen.achieved_rps",
    "trace.overhead_frac",
    "setup.batch_s",
    "setup.serve_s",
    "failed_frac",
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// Share of `--seconds` spent on the figure slice; the rest serves.
const FIGURES_SHARE: f64 = 0.5;

struct Workload {
    name: &'static str,
    slice: Slice,
    /// Trials per density of the figure slice.
    trials: usize,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "figs-ideal",
        slice: Slice::Ideal,
        trials: 8,
    },
    Workload {
        name: "figs-noise",
        slice: Slice::Noise,
        trials: 2,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut corrupt = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or(format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--scale" => {
                tiny = match value()?.as_str() {
                    "paper" => false,
                    "tiny" => true,
                    other => return Err(format!("--scale must be paper or tiny, not {other}")),
                }
            }
            "--corrupt-reference" => corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        corrupt,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let trials = if args.tiny { 8 } else { w.trials };
    println!("{}", provenance(&args, trials));

    let mut report = Report::default();
    let total = Duration::from_secs_f64(args.seconds);
    let figures_budget = total.mul_f64(FIGURES_SHARE);
    let serve_duration = total - figures_budget;

    let batch_setups: Vec<f64> = (0..SETUPS)
        .map(|_| batch::setup(args.tiny, trials, args.seed).as_secs_f64())
        .collect();
    let cfg = batch::config(args.tiny, trials, args.seed);
    if args.trace {
        batch::traced(&cfg, w.slice, figures_budget, args.seed, &mut report);
    } else {
        batch::timed(
            &cfg,
            w.slice,
            figures_budget,
            args.seed,
            args.corrupt,
            &mut report,
        );
    }

    let serve_cfg = serve::config(args.tiny, args.seed);
    let serve_setups = match serve::setup(&serve_cfg, SETUPS) {
        Ok((session, times)) => {
            serve::run(session, serve_duration, args.seed, args.trace, &mut report);
            times.iter().map(Duration::as_secs_f64).collect()
        }
        Err(e) => {
            report.check(false, || format!("daemon failed to start: {e}"));
            vec![f64::NAN]
        }
    };

    let (setup_batch, setup_serve) = (median(&batch_setups), median(&serve_setups));
    report.put("setup_s", setup_batch + setup_serve, "s", SETUPS);
    report.put("setup.batch_s", setup_batch, "s", SETUPS);
    report.put("setup.serve_s", setup_serve, "s", SETUPS);
    report.put("peak_rss_mb", report::peak_rss_mb(), "MiB", 1);
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.put(
        "failed_frac",
        failed_frac,
        "frac",
        report.attempted as usize,
    );

    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for name in wanted {
        let value = report.get(name);
        report.check(value.is_some_and(f64::is_finite), || {
            format!("metric {name} was not measured")
        });
    }
    print!("{}", report.lines());
    for f in &report.failures {
        println!("FAILED: {f}");
    }
    println!("{}", report.json(wanted));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One line recording where and how the numbers were made.
fn provenance(args: &Args, trials: usize) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "provenance {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"scale\": \"{}\", \
         \"host_cores\": {cores}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"git_commit\": \"{}\", \
         \"threads\": {}, \"trials_per_density\": {trials}, \"serve_read_rps\": {}, \"serve_write_rps\": {}}}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.tiny { "tiny" } else { "paper" },
        cpu.replace('"', "'"),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_COMMIT"),
        batch::THREADS,
        serve::READ_RPS,
        1.0 / serve::WRITE_EVERY.as_secs_f64(),
    )
}
