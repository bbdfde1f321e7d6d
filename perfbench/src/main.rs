//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot|tune|train --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run sets up its inputs from the seed (several times, reporting the
//! median set-up time), measures its workload for about `--seconds`, checks
//! the outputs, and prints two JSON lines: a full report (every metric with
//! unit, clock and sample count, the machine, every check) and, last, the
//! result object whose metric names are listed in `BENCHMARK.json`. With
//! `--trace 1` the run also records spans around the calls into each layer,
//! writes them to `perfbench/out/`, and reports the per-layer metrics
//! instead of the end-to-end ones. `perfbench/LAYERS.md` maps each per-layer
//! metric to the end-to-end metric it should move.

// A benchmark aborts on a broken internal condition rather than carry on.
#![allow(clippy::disallowed_methods)]

mod report;
mod serve_hot;
mod setup;
mod stats;
mod train;
mod tune;

use report::{peak_rss_mib, report_line, result_line, Clock, Machine, Metric, RunInfo};
use std::path::PathBuf;

const USAGE: &str =
    "usage: perfbench --workload serve_hot|tune|train [--seed N] [--seconds S] [--trace 0|1]";

/// What every workload is told: its seed, how long to measure, and whether
/// this is the traced run.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    ServeHot,
    Tune,
    Train,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "serve_hot" => Some(Workload::ServeHot),
            "tune" => Some(Workload::Tune),
            "train" => Some(Workload::Train),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::Tune => "tune",
            Workload::Train => "train",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad --seconds {value} (1..=600)"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
    })
}

/// The end-to-end metrics of `BENCHMARK.json`: each workload reports all of
/// them, reading "operation" as a scoring request (serve_hot), a tuning
/// round (tune) or a training step (train). `peak_rss_mb` is reported but
/// not listed there: per-thread malloc arenas move it by 7-17% between
/// runs, too much for a regression bound.
const END_TO_END: [&str; 3] = ["setup_s", "throughput_per_s", "op_p50_ms"];

/// The per-layer metrics of `BENCHMARK.json`, in order, with units. A layer
/// a workload bypasses reports 0.
const PER_LAYER: [(&str, &str); 27] = [
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p99", "us"),
    ("serve.engine_us.p50", "us"),
    ("serve.path_us.p50", "us"),
    ("serve.jobs_per_batch.mean", "count"),
    ("router.failovers", "count"),
    ("router.route_ns", "ns"),
    ("engine.hit_ratio", "ratio"),
    ("verify.us_per_schedule", "us"),
    ("tune.predict_ms_per_round", "ms"),
    ("tune.other_ms_per_round", "ms"),
    ("tune.scored_per_round", "count"),
    ("engine.miss_cand_per_s", "1/s"),
    ("features.cand_per_s", "1/s"),
    ("nn.infer_cand_per_s", "1/s"),
    ("hwsim.measure_us_per_program", "us"),
    ("autotuner.sketch_us_per_candidate", "us"),
    ("train.step_ms", "ms"),
    ("nn.forward_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("nn.adam_ms", "ms"),
    ("trainer.other_ms_per_step", "ms"),
    ("setup.dataset_s", "s"),
    ("setup.model_train_s", "s"),
    ("setup.fleet_start_s", "s"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

fn main() {
    std::process::exit(run(std::env::args().skip(1)));
}

fn run(args: impl Iterator<Item = String>) -> i32 {
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    let machine = Machine::detect();
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
    };
    let out = match args.workload {
        Workload::ServeHot => serve_hot::run(&cfg),
        Workload::Tune => tune::run(&cfg),
        Workload::Train => train::run(&cfg),
    };
    let peak_rss = peak_rss_mib();
    let op_p50 = stats::percentile(&out.op_ms, 50.0);

    let mut checks = out.checks.clone();
    if !args.trace {
        // The traced run measures each pass for half as long and reports
        // no end-to-end metric.
        checks.push(report::Check::new(
            "op_p50_has_ten_samples_beyond",
            op_p50.is_some(),
            format!("{} operations", out.op_ms.len()),
        ));
    }
    let ops = out.op_ms.len() as u64;
    let contract_e2e = vec![
        Metric::new(
            "setup_s",
            out.setup_s(),
            "s",
            Clock::Wall,
            out.setups.len() as u64,
        ),
        Metric::new(
            "throughput_per_s",
            out.throughput_per_s,
            "1/s",
            Clock::Wall,
            ops,
        ),
        Metric::new(
            "op_p50_ms",
            op_p50.unwrap_or(f64::NAN),
            "ms",
            Clock::Wall,
            ops,
        ),
    ];
    debug_assert!(contract_e2e.iter().map(|m| m.name).eq(END_TO_END));
    let mut e2e = contract_e2e.clone();
    e2e.push(Metric::new("peak_rss_mb", peak_rss, "MiB", Clock::Wall, 1));
    e2e.push(Metric::new(
        "failed_frac",
        if out.attempted == 0 {
            f64::NAN
        } else {
            out.failed as f64 / out.attempted as f64
        },
        "ratio",
        Clock::None,
        out.attempted,
    ));
    e2e.extend(out.end_to_end.iter().cloned());

    let per_layer: Vec<Metric> = if args.trace {
        let mut measured = out.per_layer.clone();
        measured.extend(out.setup_layers());
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                measured
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| Metric::new(name, 0.0, unit, Clock::None, 0))
            })
            .collect()
    } else {
        Vec::new()
    };

    let trace_file = if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "trace-{}-{}.jsonl",
                args.workload.name(),
                args.seed
            ));
        match stats::write_spans(&path, &out.spans) {
            Ok(()) => Some(path.display().to_string()),
            Err(e) => {
                checks.push(report::Check::new("trace_written", false, e.to_string()));
                None
            }
        }
    } else {
        None
    };

    let shown = if args.trace {
        &per_layer
    } else {
        &contract_e2e
    };
    let correct = checks.iter().all(|c| c.ok) && shown.iter().all(|m| m.value.is_finite());
    for c in checks.iter().filter(|c| !c.ok) {
        eprintln!("perfbench: check {} FAILED: {}", c.name, c.detail);
    }
    println!(
        "{}",
        report_line(
            &RunInfo {
                workload: args.workload.name(),
                seed: args.seed,
                seconds: args.seconds,
                machine: &machine,
            },
            &e2e,
            &per_layer,
            &checks,
            trace_file.as_deref(),
        )
    );
    println!(
        "{}",
        result_line(correct, out.attempted.max(1), out.failed, shown)
    );
    if correct {
        0
    } else {
        1
    }
}

/// Runs `f` over each setup repetition, feeding back the previous state so
/// a workload can tear it down before building the next one.
pub fn repeat_setup<S>(
    mut f: impl FnMut(Option<S>) -> (S, setup::SetupTimes),
) -> (S, Vec<setup::SetupTimes>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        let (s, t) = f(state.take());
        times.push(t);
        state = Some(s);
    }
    (state.expect("at least one set-up"), times)
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "tune",
            "--seed",
            "7",
            "--seconds",
            "5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::Tune);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 5, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "train", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "train", "--seconds", "0"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_names_match_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = |key: &str, next: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..]
                .find(&format!("\"{next}\""))
                .map_or(text.len(), |e| start + e);
            text[start..end]
                .split("\"name\":")
                .skip(1)
                .map(|s| {
                    s.trim()
                        .trim_start_matches('"')
                        .split('"')
                        .next()
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        let e2e = section("end_to_end", "per_layer");
        let layers = section("per_layer", "\u{0}");
        assert_eq!(e2e, END_TO_END.to_vec());
        assert_eq!(
            layers,
            PER_LAYER
                .iter()
                .map(|(n, _)| n.to_string())
                .collect::<Vec<_>>()
        );
    }
}
