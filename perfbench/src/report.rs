//! Metric records, the machine description, and the two JSON output lines.

use crate::setup::SetupTimes;
use crate::stats::{median, Span};

/// Which clock a metric was read from. Times are `Wall` (real elapsed time)
/// or `Simulated` (the hardware simulator's clock); counts, ratios and
/// losses involve no clock and are `None`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Wall,
    Simulated,
    None,
}

impl Clock {
    fn as_str(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Simulated => "simulated",
            Clock::None => "none",
        }
    }
}

/// One named measurement with its unit, clock and sample base.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
    /// Samples (or, for a ratio, the base count) the value was computed from.
    pub samples: u64,
}

impl Metric {
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        clock: Clock,
        samples: u64,
    ) -> Self {
        Metric {
            name,
            value,
            unit,
            clock,
            samples,
        }
    }
}

/// A named output check; any failed check makes the run incorrect.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Self {
        Check {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// What one workload run measured.
pub struct Outcome {
    /// One entry per repeated set-up; the median total is `setup_s`.
    pub setups: Vec<SetupTimes>,
    /// Wall time of each operation (request, round or step), ms.
    pub op_ms: Vec<f64>,
    /// Completed units of work per wall second (requests, rounds, samples):
    /// the median rate over the run's intervals (serve_hot: 0.5 s windows;
    /// tune: tuning calls; train: epochs).
    pub throughput_per_s: f64,
    /// The workload's own end-to-end metrics, by their descriptive names.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Operations attempted and failed, the base of `failed_frac`.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Spans of the traced pass (empty when untraced).
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn setup_s(&self) -> f64 {
        median(
            &self
                .setups
                .iter()
                .map(SetupTimes::total_s)
                .collect::<Vec<_>>(),
        )
    }

    /// Median set-up parts, as per-layer metrics.
    pub fn setup_layers(&self) -> Vec<Metric> {
        let n = self.setups.len() as u64;
        let part =
            |f: fn(&SetupTimes) -> f64| median(&self.setups.iter().map(f).collect::<Vec<_>>());
        vec![
            Metric::new(
                "setup.dataset_s",
                part(|s| s.dataset_s),
                "s",
                Clock::Wall,
                n,
            ),
            Metric::new(
                "setup.model_train_s",
                part(|s| s.model_train_s),
                "s",
                Clock::Wall,
                n,
            ),
            Metric::new(
                "setup.fleet_start_s",
                part(|s| s.fleet_start_s),
                "s",
                Clock::Wall,
                n,
            ),
        ]
    }
}

/// Peak resident set of this process, MiB (`VmHWM` in `/proc/self/status`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The machine a result was measured on.
pub struct Machine {
    pub nproc: String,
    pub available_parallelism: usize,
    pub cpu_model: String,
}

impl Machine {
    pub fn detect() -> Self {
        let nproc = std::process::Command::new("nproc")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Machine {
            nproc,
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
        }
    }
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number; non-finite values (which JSON cannot hold) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metric_list(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{{\"name\":{},\"value\":{},\"unit\":{},\"clock\":{},\"samples\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit),
                json_str(m.clock.as_str()),
                m.samples
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Which run a report describes, and where it ran.
pub struct RunInfo<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub machine: &'a Machine,
}

/// The full report: every metric with unit, clock and sample count, the
/// machine, and every check.
pub fn report_line(
    run: &RunInfo<'_>,
    end_to_end: &[Metric],
    per_layer: &[Metric],
    checks: &[Check],
    trace_file: Option<&str>,
) -> String {
    let checks: Vec<String> = checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                json_str(c.name),
                c.ok,
                json_str(&c.detail)
            )
        })
        .collect();
    format!(
        "{{\"report\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"machine\":{{\"nproc\":{},\"available_parallelism\":{},\"cpu_model\":{}}},\"end_to_end\":{},\"per_layer\":{},\"checks\":[{}],\"trace_file\":{}}}}}",
        json_str(run.workload),
        run.seed,
        run.seconds,
        json_str(&run.machine.nproc),
        run.machine.available_parallelism,
        json_str(&run.machine.cpu_model),
        metric_list(end_to_end),
        metric_list(per_layer),
        checks.join(","),
        trace_file.map_or("null".to_string(), json_str),
    )
}

/// The last output line: correctness, operation counts, and the metrics
/// named in `BENCHMARK.json` for this mode.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        items.join(",")
    )
}
