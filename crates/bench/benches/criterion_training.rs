//! Training-throughput benchmark for the data-parallel `Trainer`
//! (`criterion_inference`'s sibling): samples/sec at 1, 2, and 8 workers
//! with a fixed `grad_accum`, against the legacy-equivalent sequential loop
//! (1 worker, per-batch stepping). Writes `BENCH_training.json`.
//!
//! Run with `cargo bench -p tlp-bench --bench criterion_training`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use serde::Serialize;
use tlp::train::{train_tlp_with, GroupData, TrainData};
use tlp::{TlpConfig, TlpModel, TrainOptions};
use tlp_bench::time_best;
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

#[derive(Serialize)]
struct TrainingRow {
    workers: usize,
    grad_accum: usize,
    reps: usize,
    wall_s: f64,
    samples_per_s: f64,
    speedup_vs_1_worker: f64,
}

#[derive(Serialize)]
struct TrainingSummary {
    available_parallelism: usize,
    samples_per_epoch: usize,
    epochs: usize,
    batch_size: usize,
    hidden: usize,
    /// The seed's per-batch sequential loop (workers 1, grad_accum 1).
    legacy_baseline_samples_per_s: f64,
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
    let reps = 3usize;
    const GRAD_ACCUM: usize = 8;

    println!("\n=== training throughput (samples/sec) ===");

    // Legacy-equivalent baseline: 1 worker, one optimizer step per batch.
    let base_opts = TrainOptions::from_config(&cfg)
        .with_seed(1)
        .with_workers(1)
        .with_grad_accum(1);
    let legacy_s = time_best(reps, || {
        let mut model = TlpModel::new(cfg.clone());
        train_tlp_with(&mut model, &data, &base_opts);
    });
    let legacy_rate = samples as f64 / legacy_s;
    println!("legacy loop (1 worker, accum 1): {legacy_rate:>8.0} samples/s");

    let mut rows = Vec::new();
    let mut one_worker_s = f64::NAN;
    let mut stores: Vec<ParamStore> = Vec::new();
    for &workers in &[1usize, 2, 8] {
        let opts = TrainOptions::from_config(&cfg)
            .with_seed(1)
            .with_workers(workers)
            .with_grad_accum(GRAD_ACCUM);
        let mut last_store = None;
        let wall_s = time_best(reps, || {
            let mut model = TlpModel::new(cfg.clone());
            train_tlp_with(&mut model, &data, &opts);
            last_store = Some(model.store);
        });
        stores.push(last_store.expect("at least one rep ran"));
        if workers == 1 {
            one_worker_s = wall_s;
        }
        let row = TrainingRow {
            workers,
            grad_accum: GRAD_ACCUM,
            reps,
            wall_s,
            samples_per_s: samples as f64 / wall_s,
            speedup_vs_1_worker: one_worker_s / wall_s,
        };
        println!(
            "workers {:>2} (accum {GRAD_ACCUM}): {:>8.0} samples/s ({:>4.2}x vs 1 worker)",
            row.workers, row.samples_per_s, row.speedup_vs_1_worker
        );
        rows.push(row);
    }

    let deterministic = stores.iter().all(|s| {
        s.ids()
            .zip(stores[0].ids())
            .all(|(a, b)| s.value(a).data() == stores[0].value(b).data())
    });
    assert!(deterministic, "worker count changed the trained parameters");

    let summary = TrainingSummary {
        available_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        samples_per_epoch: samples,
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        hidden: cfg.hidden,
        legacy_baseline_samples_per_s: legacy_rate,
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
