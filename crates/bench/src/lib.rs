//! Shared support for the paper-table/figure benchmark harness.
//!
//! Each bench target under `benches/` regenerates one table or figure from
//! the TLP paper (see DESIGN.md §4 for the index), prints the rows, and
//! writes a JSON record under `target/tlp-results/` for EXPERIMENTS.md.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use serde::Serialize;
use std::path::PathBuf;
use tlp::experiments::Scale;

pub mod search_runs;

/// Directory where bench results are persisted: `target/tlp-results` at the
/// *workspace* root (bench binaries run with the package directory as cwd,
/// so a relative path would land inside `crates/bench`).
pub fn results_dir() -> PathBuf {
    let dir = match std::env::var("CARGO_TARGET_DIR") {
        Ok(t) => PathBuf::from(t),
        Err(_) => PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
            .join("target"),
    }
    .join("tlp-results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a JSON result file (pretty-printed).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let body = serde_json::to_string_pretty(value).expect("serialize result");
    std::fs::write(&path, body).expect("write result");
    println!("\n[results written to {}]", path.display());
}

/// Best-of-`reps` wall time of `f`, seconds. The minimum over repeats is the
/// least noise-sensitive statistic for a short deterministic pass.
pub fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Median and interquartile range over repeated measurements (linear
/// interpolation between closest ranks).
#[derive(Serialize)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub iqr: f64,
}

impl Spread {
    /// The spread of `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Spread {
        let mut v: Vec<f64> = values.into_iter().collect();
        assert!(!v.is_empty(), "spread of no values");
        v.sort_by(f64::total_cmp);
        let q = |p: f64| {
            let x = p * (v.len() - 1) as f64;
            let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
        };
        let (q1, q3) = (q(0.25), q(0.75));
        Spread {
            median: q(0.5),
            q1,
            q3,
            iqr: q3 - q1,
        }
    }
}

/// Reads back a previously written JSON result, if present.
pub fn read_json<T: serde::de::DeserializeOwned>(name: &str) -> Option<T> {
    let path = results_dir().join(format!("{name}.json"));
    let body = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&body).ok()
}

/// Prints a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:<w$}  ",
                c,
                w = widths.get(i).copied().unwrap_or(8)
            ));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Announces the bench and returns the configured scale.
pub fn bench_scale(name: &str) -> Scale {
    let scale = Scale::from_env();
    println!("[{name}] scale: {scale:?} (set TLP_SCALE=test|small|medium|paper)");
    scale
}
