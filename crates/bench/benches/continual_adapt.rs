//! Continual cross-hardware adaptation (ISSUE 8 acceptance).
//!
//! Four arms over one dataset (two known CPUs + the held-out Ryzen target):
//!
//! 1. **From-scratch baseline**: a fresh TLP trained on the target's *full*
//!    training collection — the paper's "collect a new dataset" cost.
//! 2. **Continual arm**: a 2-head MTL model trained only on the old CPUs,
//!    grown a third head, adapted online from fault-injected measurements
//!    capped at ≤ 10 % of the baseline's sample count, rehearsing old
//!    platforms from a stratified replay buffer.
//! 3. **Hot-swap arm**: the same loop publishing canary-gated snapshots
//!    into a live registry while reader threads score continuously — counts
//!    request failures (must be zero).
//! 4. **Reproducibility arm**: the continual loop re-run from the same
//!    seeds; parameters and report must match bitwise.
//!
//! Run with `cargo bench -p tlp-bench --bench continual_adapt`.
//! Writes `BENCH_continual.json`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers library crates (see clippy.toml)

use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tlp::experiments::{eval_mtl_head, eval_tlp};
use tlp::{
    train_mtl_with, train_tlp, FeatureExtractor, MtlTlp, TlpConfig, TlpModel, TrainData,
    TrainOptions,
};
use tlp_bench::{print_table, write_json};
use tlp_continual::{
    run_continual, AdaptConfig, AdaptReport, CanarySet, ContinualConfig, PublishPolicy,
    ReplayBuffer, SnapshotPublisher,
};
use tlp_dataset::{generate_dataset_for, Dataset, DatasetConfig};
use tlp_hwsim::{FaultRates, Platform};
use tlp_serve::ModelRegistry;
use tlp_workload::bert_tiny;

const HOT_SWAP_READERS: usize = 2;
const FAULT_RATE: f64 = 0.05;

#[derive(Serialize)]
struct ContinualSummary {
    scratch_top1: f64,
    scratch_top5: f64,
    scratch_samples: usize,
    zero_shot_top1: f64,
    adapted_top1: f64,
    adapted_top5: f64,
    sample_efficiency_ratio: f64,
    measurements_used: u64,
    measurement_fraction: f64,
    measurements_failed: u64,
    retries: u64,
    forgetting_points: f64,
    baseline_old_top1: Vec<f64>,
    final_old_top1: Vec<f64>,
    publishes: usize,
    rollbacks: usize,
    hot_swap_batches: u64,
    hot_swap_failures: u64,
    bit_reproducible: bool,
    fault_rate: f64,
}

fn dataset() -> Dataset {
    generate_dataset_for(
        &[bert_tiny(1, 64)],
        &[bert_tiny(1, 128)],
        &[
            Platform::i7_10510u(),
            Platform::e5_2673(),
            Platform::ryzen_3950x(),
        ],
        &DatasetConfig {
            programs_per_task: 96,
            refined_fraction: 0.25,
            seed: 0xC0A7,
            ..DatasetConfig::default()
        },
    )
}

fn model_config() -> TlpConfig {
    TlpConfig {
        epochs: 6,
        ..TlpConfig::test_scale()
    }
}

/// Trains the 2-head base model on the old platforms and grows the target
/// head warm-started from the e5-2673 head (the nearest known CPU) — the
/// starting point of every continual arm.
fn grown_model(ds: &Dataset, ex: &FeatureExtractor, cfg: &TlpConfig) -> MtlTlp {
    let mut base = MtlTlp::new(cfg.clone(), 2);
    let data = [
        TrainData::from_dataset(ds, ex, 0),
        TrainData::from_dataset(ds, ex, 1),
    ];
    train_mtl_with(
        &mut base,
        &data,
        &TrainOptions::from_config(cfg).with_seed(0x0B),
    );
    base.grow_head_from(1)
}

fn replay_from(ds: &Dataset, ex: &FeatureExtractor) -> ReplayBuffer {
    let mut replay = ReplayBuffer::stratified(3, 17);
    replay.ingest_data(0, &TrainData::from_dataset(ds, ex, 0));
    replay.ingest_data(1, &TrainData::from_dataset(ds, ex, 1));
    replay
}

/// Loop config sized so the measurement budget stays ≤ 10 % of
/// `scratch_samples` by construction.
fn loop_config(cfg: &TlpConfig, scratch_samples: usize) -> ContinualConfig {
    let rounds = 4;
    let max_tasks = 3;
    let budget = scratch_samples / 10;
    let per_task_candidates = (budget / (rounds * max_tasks)).max(1);
    ContinualConfig {
        rounds,
        per_task_candidates,
        max_tasks,
        fault_rates: FaultRates::uniform(FAULT_RATE),
        measure: Default::default(),
        adapt: AdaptConfig::frozen(
            TrainOptions::from_config(cfg)
                .with_epochs(4)
                .with_batch_size(16)
                // Fine-tune gently: the head is warm-started, not cold.
                .with_learning_rate(1e-3)
                .with_seed(0x5EED),
        ),
        seed: 0xADA7,
    }
}

fn store_bits(model: &MtlTlp) -> Vec<u32> {
    model
        .store
        .ids()
        .flat_map(|id| model.store.value(id).data().iter().map(|v| v.to_bits()))
        .collect()
}

/// Runs the continual loop with live hot-swap publishing and concurrent
/// readers; returns the report plus (batches, failures) the readers saw.
fn hot_swap_arm(
    ds: &Dataset,
    ex: &FeatureExtractor,
    cfg: &TlpConfig,
    config: &ContinualConfig,
) -> (AdaptReport, MtlTlp, u64, u64) {
    let registry = Arc::new(ModelRegistry::default());
    let canaries = CanarySet::from_dataset(ds, 2, 0);
    let pool = canaries.first().expect("canary tasks exist").clone();
    let mut publisher = SnapshotPublisher::new(
        registry.clone(),
        "ryzen-3950x",
        2,
        PublishPolicy::default(),
        canaries,
    );
    let mut model = grown_model(ds, ex, cfg);
    let replay = replay_from(ds, ex);

    let done = AtomicBool::new(false);
    let batches = AtomicU64::new(0);
    let failures = AtomicU64::new(0);
    let report = std::thread::scope(|s| {
        let mut readers = Vec::new();
        for _ in 0..HOT_SWAP_READERS {
            let registry = Arc::clone(&registry);
            let (pool, done, batches, failures) = (&pool, &done, &batches, &failures);
            readers.push(s.spawn(move || {
                // The name appears after the first publish; only failures
                // *after* that count against the zero-failure requirement.
                let mut seen_installed = false;
                loop {
                    let stop = done.load(Ordering::SeqCst);
                    match registry.resolve_required("ryzen-3950x") {
                        Ok(version) => {
                            seen_installed = true;
                            let (scores, _) = version.score(&pool.task, &pool.schedules);
                            batches.fetch_add(1, Ordering::Relaxed);
                            if scores.iter().all(|sc| sc.is_none()) {
                                failures.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) if seen_installed => {
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {}
                    }
                    if stop {
                        break;
                    }
                }
            }));
        }
        let report = run_continual(&mut model, ex, ds, &replay, config, Some(&mut publisher))
            .expect("continual loop");
        done.store(true, Ordering::SeqCst);
        for r in readers {
            r.join().expect("reader");
        }
        report
    });
    (
        report,
        model,
        batches.load(Ordering::Relaxed),
        failures.load(Ordering::Relaxed),
    )
}

fn main() {
    let ds = dataset();
    let cfg = model_config();
    let ex = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);

    // Arm 1: from-scratch baseline on the target's full collection.
    let scratch_data = TrainData::from_dataset(&ds, &ex, 2);
    let scratch_samples = scratch_data.num_samples();
    let mut scratch = TlpModel::new(cfg.clone());
    train_tlp(&mut scratch, &scratch_data);
    let (scratch_top1, scratch_top5) = eval_tlp(&scratch, &ex, &ds, 2);

    // Zero-shot transfer: the warm-started head before any measurement.
    let warm = grown_model(&ds, &ex, &cfg);
    let (zero_shot_top1, _) = eval_mtl_head(&warm, &ex, &ds, 2, 2);
    drop(warm);

    // Arms 2 + 3: continual adaptation with live hot-swap publishing.
    let config = loop_config(&cfg, scratch_samples);
    let (report, model, hot_swap_batches, hot_swap_failures) =
        hot_swap_arm(&ds, &ex, &cfg, &config);
    let (adapted_top1, adapted_top5) = eval_mtl_head(&model, &ex, &ds, 2, 2);

    // Arm 4: bit-reproducibility of the loop (publisher-free replays).
    let rerun = |_: usize| {
        let mut m = grown_model(&ds, &ex, &cfg);
        let replay = replay_from(&ds, &ex);
        let rep = run_continual(&mut m, &ex, &ds, &replay, &config, None).expect("replay loop");
        (
            store_bits(&m),
            serde_json::to_string(&rep).expect("serialize"),
        )
    };
    let (bits_a, rep_a) = rerun(0);
    let (bits_b, rep_b) = rerun(1);
    let bit_reproducible = bits_a == bits_b && rep_a == rep_b;

    let summary = ContinualSummary {
        scratch_top1,
        scratch_top5,
        scratch_samples,
        zero_shot_top1,
        adapted_top1,
        adapted_top5,
        sample_efficiency_ratio: adapted_top1 / scratch_top1.max(1e-9),
        measurements_used: report.measurements,
        measurement_fraction: report.measurements as f64 / scratch_samples.max(1) as f64,
        measurements_failed: report.measurements_failed,
        retries: report.retries,
        forgetting_points: report.forgetting_points,
        baseline_old_top1: report.baseline_old_top1.clone(),
        final_old_top1: report.final_old_top1.clone(),
        publishes: report.published,
        rollbacks: report.rolled_back,
        hot_swap_batches,
        hot_swap_failures,
        bit_reproducible,
        fault_rate: FAULT_RATE,
    };

    print_table(
        "continual adaptation vs from-scratch (target: ryzen-3950x)",
        &["metric", "value"],
        &[
            vec![
                "scratch top-1 (full data)".into(),
                format!("{scratch_top1:.3} ({scratch_samples} samples)"),
            ],
            vec![
                "zero-shot top-1 (warm start)".into(),
                format!("{zero_shot_top1:.3} (0 measurements)"),
            ],
            vec![
                "adapted top-1 (continual)".into(),
                format!(
                    "{adapted_top1:.3} ({} measurements, {:.1}% of scratch)",
                    summary.measurements_used,
                    summary.measurement_fraction * 100.0
                ),
            ],
            vec![
                "sample-efficiency ratio".into(),
                format!("{:.3}", summary.sample_efficiency_ratio),
            ],
            vec![
                "forgetting (points)".into(),
                format!("{:.3}", summary.forgetting_points),
            ],
            vec![
                "publishes / rollbacks".into(),
                format!("{} / {}", summary.publishes, summary.rollbacks),
            ],
            vec![
                "hot-swap batches / failures".into(),
                format!("{hot_swap_batches} / {hot_swap_failures}"),
            ],
            vec!["bit-reproducible".into(), format!("{bit_reproducible}")],
        ],
    );

    assert!(
        summary.measurement_fraction <= 0.101,
        "measurement budget exceeded: {:.3}",
        summary.measurement_fraction
    );
    assert_eq!(hot_swap_failures, 0, "hot swap surfaced request failures");
    assert!(bit_reproducible, "continual loop is not bit-reproducible");

    write_json("BENCH_continual", &summary);
}
