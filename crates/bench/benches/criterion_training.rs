//! Training-throughput benchmark for the data-parallel `Trainer`
//! (`criterion_inference`'s sibling): samples/sec at 1, 2, and 8 workers
//! with a fixed `grad_accum`, against the legacy-equivalent sequential loop
//! (1 worker, per-batch stepping). Writes `BENCH_training.json`.
//!
//! Each of [`REPEATS`] repeats trains every row back to back for at least
//! [`MIN_SECONDS`] of wall clock (one epoch takes under 0.1 s); the record
//! keeps each repeat plus the median and IQR. The hard gate is that every
//! worker count trains bitwise-identical parameters.
//!
//! Run with `cargo bench -p tlp-bench --bench criterion_training`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use serde::Serialize;
use std::time::Instant;
use tlp::train::{train_tlp_with, GroupData, TrainData};
use tlp::{TlpConfig, TlpModel, TrainOptions};
use tlp_bench::Spread;
use tlp_nn::ParamStore;

/// Deterministic synthetic task-grouped data (feature extraction is not
/// what this bench measures).
fn synth_data(cfg: &TlpConfig, groups: usize, per_group: usize) -> TrainData {
    let fs = cfg.seq_len * cfg.emb_size;
    let mut state = 0x5eedu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u64 << 24) as f32
    };
    let groups = (0..groups)
        .map(|_| {
            let mut features = Vec::with_capacity(per_group * fs);
            let mut labels = Vec::with_capacity(per_group);
            for _ in 0..per_group {
                for _ in 0..fs {
                    features.push(next() - 0.5);
                }
                labels.push(next().clamp(1e-3, 1.0));
            }
            GroupData { features, labels }
        })
        .collect();
    TrainData {
        feature_size: fs,
        groups,
    }
}

/// Independent repeats of every row; the record keeps median and IQR.
const REPEATS: usize = 5;
/// Minimum timed wall-clock seconds per row per repeat.
const MIN_SECONDS: f64 = 1.0;
const GRAD_ACCUM: usize = 8;

#[derive(Serialize)]
struct TrainingRow {
    workers: usize,
    grad_accum: usize,
    samples_per_s: Spread,
    /// Ratio of the `samples_per_s` medians against the 1-worker row.
    speedup_vs_1_worker: f64,
    /// Samples/s of each repeat, in run order.
    runs: Vec<f64>,
}

#[derive(Serialize)]
struct TrainingSummary {
    available_parallelism: usize,
    samples_per_epoch: usize,
    epochs: usize,
    batch_size: usize,
    hidden: usize,
    repeats: usize,
    min_seconds: f64,
    /// The seed's per-batch sequential loop (workers 1, grad_accum 1).
    legacy_baseline: TrainingRow,
    /// Whether every worker count produced bitwise-identical parameters.
    deterministic_across_workers: bool,
    rows: Vec<TrainingRow>,
}

fn main() {
    let cfg = TlpConfig {
        hidden: 32,
        heads: 4,
        res_blocks: 1,
        epochs: 1,
        batch_size: 8,
        ..TlpConfig::default()
    };
    let data = synth_data(&cfg, 8, 32);
    let samples = data.num_samples();

    println!("\n=== training throughput (samples/sec) ===");

    // (workers, grad_accum); the first is the legacy-equivalent baseline,
    // one optimizer step per batch.
    let setups = [
        (1usize, 1usize),
        (1, GRAD_ACCUM),
        (2, GRAD_ACCUM),
        (8, GRAD_ACCUM),
    ];
    let mut runs = vec![Vec::with_capacity(REPEATS); setups.len()];
    let mut stores: Vec<Option<ParamStore>> = setups.iter().map(|_| None).collect();
    // Repeat-major order, so slow drift on the machine hits every row alike.
    for repeat in 1..=REPEATS {
        for (i, &(workers, grad_accum)) in setups.iter().enumerate() {
            let opts = TrainOptions::from_config(&cfg)
                .with_seed(1)
                .with_workers(workers)
                .with_grad_accum(grad_accum);
            let start = Instant::now();
            let mut epochs = 0;
            while epochs == 0 || start.elapsed().as_secs_f64() < MIN_SECONDS {
                let mut model = TlpModel::new(cfg.clone());
                train_tlp_with(&mut model, &data, &opts);
                stores[i] = Some(model.store);
                epochs += 1;
            }
            let rate = (epochs * samples) as f64 / start.elapsed().as_secs_f64();
            println!(
                "repeat {repeat}/{REPEATS} workers {workers} (accum {grad_accum}): {rate:>8.0} samples/s"
            );
            runs[i].push(rate);
        }
    }

    // The worker rows (all but the legacy baseline) must agree bit for bit.
    let stores: Vec<ParamStore> = stores
        .into_iter()
        .skip(1)
        .map(|s| s.expect("every setup ran"))
        .collect();
    let deterministic = stores.iter().all(|s| {
        s.ids()
            .zip(stores[0].ids())
            .all(|(a, b)| s.value(a).data() == stores[0].value(b).data())
    });
    assert!(deterministic, "worker count changed the trained parameters");

    let one_worker = Spread::of(runs[1].iter().copied()).median;
    let mut rows: Vec<TrainingRow> = setups
        .iter()
        .zip(runs)
        .map(|(&(workers, grad_accum), runs)| {
            let samples_per_s = Spread::of(runs.iter().copied());
            println!(
                "median workers {workers:>2} (accum {grad_accum}): {:>8.0} samples/s (IQR {:.0})",
                samples_per_s.median, samples_per_s.iqr
            );
            TrainingRow {
                workers,
                grad_accum,
                speedup_vs_1_worker: samples_per_s.median / one_worker,
                samples_per_s,
                runs,
            }
        })
        .collect();
    let legacy_baseline = rows.remove(0);

    let summary = TrainingSummary {
        available_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        samples_per_epoch: samples,
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        hidden: cfg.hidden,
        repeats: REPEATS,
        min_seconds: MIN_SECONDS,
        legacy_baseline,
        deterministic_across_workers: deterministic,
        rows,
    };
    tlp_bench::write_json("BENCH_training", &summary);
    // Also drop a copy at the repo root so the acceptance record travels
    // with the source tree, not just the target directory.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_training.json");
    let body = serde_json::to_string_pretty(&summary).expect("serialize summary");
    std::fs::write(&root, body).expect("write BENCH_training.json");
}
