//! Correctness guarantees of the data-parallel training engine:
//! parallel == sequential gradients, bitwise determinism across worker
//! counts, and the `TrainReport`/early-stopping contract.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use tlp::mtl::{train_mtl_with, MtlTlp};
use tlp::train::{resume_tlp, train_tlp_checkpointed, train_tlp_with, GroupData, TrainData};
use tlp::{PersistError, StopReason, TlpConfig, TlpModel, TrainCheckpoint, TrainOptions};
use tlp_nn::ParamStore;

/// Deterministic synthetic task-grouped data (no dataset generation).
fn synth_data(cfg: &TlpConfig, groups: usize, per_group: usize, seed: u64) -> TrainData {
    let fs = cfg.seq_len * cfg.emb_size;
    let mut state = seed | 1;
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

fn tiny_config() -> TlpConfig {
    TlpConfig {
        epochs: 2,
        batch_size: 4,
        ..TlpConfig::test_scale()
    }
}

fn max_param_diff(a: &ParamStore, b: &ParamStore) -> f32 {
    assert_eq!(a.len(), b.len());
    let mut worst = 0.0f32;
    for id in a.ids() {
        for (x, y) in a.value(id).data().iter().zip(b.value(id).data()) {
            worst = worst.max((x - y).abs());
        }
    }
    worst
}

fn options(cfg: &TlpConfig, workers: usize) -> TrainOptions {
    TrainOptions::from_config(cfg)
        .with_seed(42)
        .with_workers(workers)
        .with_grad_accum(4)
}

#[test]
fn parallel_matches_sequential_tlp() {
    let cfg = tiny_config();
    let data = synth_data(&cfg, 5, 10, 7);

    let mut sequential = TlpModel::new(cfg.clone());
    let seq_report = train_tlp_with(&mut sequential, &data, &options(&cfg, 1));
    let mut parallel = TlpModel::new(cfg.clone());
    let par_report = train_tlp_with(&mut parallel, &data, &options(&cfg, 4));

    assert_eq!(seq_report.epoch_losses(), par_report.epoch_losses());
    let diff = max_param_diff(&sequential.store, &parallel.store);
    assert!(
        diff <= 1e-5,
        "parallel training diverged from sequential: max param diff {diff}"
    );
}

#[test]
fn parallel_matches_sequential_mtl() {
    let cfg = tiny_config();
    let target = synth_data(&cfg, 3, 8, 11);
    let aux = synth_data(&cfg, 4, 8, 13);

    let mut sequential = MtlTlp::new(cfg.clone(), 2);
    train_mtl_with(
        &mut sequential,
        &[target.clone(), aux.clone()],
        &options(&cfg, 1),
    );
    let mut parallel = MtlTlp::new(cfg.clone(), 2);
    train_mtl_with(&mut parallel, &[target, aux], &options(&cfg, 4));

    let diff = max_param_diff(&sequential.store, &parallel.store);
    assert!(
        diff <= 1e-5,
        "parallel MTL training diverged from sequential: max param diff {diff}"
    );
}

#[test]
fn fixed_seed_is_bitwise_deterministic_across_worker_counts() {
    let cfg = tiny_config();
    let data = synth_data(&cfg, 4, 9, 23);
    let mut stores: Vec<ParamStore> = Vec::new();
    for workers in [1usize, 2, 3] {
        let mut model = TlpModel::new(cfg.clone());
        train_tlp_with(&mut model, &data, &options(&cfg, workers));
        stores.push(model.store);
    }
    for other in &stores[1..] {
        // Bitwise: the ordered all-reduce makes worker count a pure
        // throughput knob.
        assert_eq!(max_param_diff(&stores[0], other), 0.0);
    }
}

#[test]
fn report_shape_and_early_stopping() {
    let cfg = tiny_config();
    let data = synth_data(&cfg, 6, 10, 31);
    // A zero learning rate can never improve the validation loss after the
    // first epoch, so patience=1 must fire deterministically at epoch 1.
    let opts = TrainOptions::from_config(&cfg)
        .with_seed(5)
        .with_learning_rate(0.0)
        .with_epochs(50)
        .with_patience(1)
        .with_valid_frac(0.34);
    let mut model = TlpModel::new(cfg.clone());
    let report = train_tlp_with(&mut model, &data, &opts);

    assert_eq!(report.stop, StopReason::EarlyStopped);
    assert_eq!(report.epochs.len(), 2, "stopped after one bad epoch");
    assert_eq!(report.best_epoch, Some(0));
    for e in &report.epochs {
        assert_eq!(e.learning_rate, 0.0);
        assert!(e.train_loss.is_finite());
        assert!(e.valid_loss.expect("split active").is_finite());
        assert!(e.grad_norm.is_finite());
        assert!(e.steps > 0);
        assert!(e.samples > 0);
        assert!(e.wall_s >= 0.0);
    }
    assert!(report.wall_s > 0.0);
    assert!(report.samples > 0);
    assert!(report.samples_per_s() > 0.0);

    // Weight restore: with lr 0 the weights never move, so the restored
    // best-epoch parameters equal a fresh model's.
    let fresh = TlpModel::new(cfg);
    assert_eq!(max_param_diff(&model.store, &fresh.store), 0.0);
}

#[test]
fn resumed_training_is_bitwise_identical_to_uninterrupted() {
    let cfg = tiny_config();
    let data = synth_data(&cfg, 5, 10, 17);
    let opts = options(&cfg, 2).with_epochs(6);
    let path = std::env::temp_dir().join("tlp_trainer_resume_test.json");
    let _ = std::fs::remove_file(&path);

    // Straight-through run: 6 epochs, no interruption.
    let mut straight = TlpModel::new(cfg.clone());
    let straight_report = train_tlp_with(&mut straight, &data, &opts);

    // Interrupted run: 3 epochs with checkpointing, then a fresh model +
    // resume carries it to 6. The fresh model simulates a process restart
    // (all in-memory state lost; only the checkpoint file survives).
    let mut interrupted = TlpModel::new(cfg.clone());
    let partial = train_tlp_checkpointed(
        &mut interrupted,
        &data,
        &opts.clone().with_epochs(3),
        &path,
        3,
    );
    assert!(partial.checkpoints_written >= 1, "spill must have happened");
    let ckpt = TrainCheckpoint::load(&path).expect("checkpoint readable");
    assert_eq!(ckpt.epochs_done, 3);

    let mut resumed_model = TlpModel::new(cfg.clone());
    let resumed = resume_tlp(&mut resumed_model, &data, &opts, &path, 3).expect("resume");

    // Bitwise-identical parameters (ParamStore has no PartialEq; tensors do).
    assert_eq!(max_param_diff(&straight.store, &resumed_model.store), 0.0);
    // Same per-epoch losses over all 6 epochs, first 3 from the checkpoint.
    assert_eq!(resumed.epochs.len(), 6);
    assert_eq!(straight_report.epoch_losses(), resumed.epoch_losses());
    assert_eq!(resumed.stop, StopReason::Completed);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_rejects_seed_mismatch_and_missing_checkpoint() {
    let cfg = tiny_config();
    let data = synth_data(&cfg, 3, 8, 29);
    let path = std::env::temp_dir().join("tlp_trainer_seed_mismatch_test.json");
    let _ = std::fs::remove_file(&path);

    // Missing checkpoint -> Io error.
    let mut model = TlpModel::new(cfg.clone());
    assert!(matches!(
        resume_tlp(&mut model, &data, &options(&cfg, 1), &path, 1),
        Err(PersistError::Io(_))
    ));

    // Checkpoint written with seed 42, resume configured with seed 43.
    let mut model = TlpModel::new(cfg.clone());
    train_tlp_checkpointed(
        &mut model,
        &data,
        &options(&cfg, 1).with_epochs(1),
        &path,
        1,
    );
    let mut other = TlpModel::new(cfg.clone());
    assert!(matches!(
        resume_tlp(&mut other, &data, &options(&cfg, 1).with_seed(43), &path, 1),
        Err(PersistError::SeedMismatch {
            found: 42,
            expected: 43
        })
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn train_report_serializes() {
    let cfg = tiny_config();
    let data = synth_data(&cfg, 2, 6, 3);
    let mut model = TlpModel::new(cfg.clone());
    let report = train_tlp_with(&mut model, &data, &options(&cfg, 1).with_epochs(1));
    let json = serde_json::to_string(&report).expect("report is serde data");
    assert!(json.contains("train_loss"));
    assert!(json.contains("Completed"));
}

/// FNV-1a over every parameter's `to_bits()`, in parameter-id order.
fn param_fingerprint(store: &ParamStore) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for id in store.ids() {
        for &x in store.value(id).data() {
            for byte in x.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Trains `TlpConfig::test_scale()` (with `backbone`) for 2 epochs on 2
/// workers; returns the final-loss bits and the parameter fingerprint.
fn golden_run(backbone: tlp::Backbone) -> (u32, u64) {
    let cfg = TlpConfig {
        epochs: 2,
        backbone,
        ..TlpConfig::test_scale()
    };
    let data = synth_data(&cfg, 4, 12, 99);
    let mut model = TlpModel::new(cfg.clone());
    let report = train_tlp_with(&mut model, &data, &options(&cfg, 2));
    (
        report.final_loss().to_bits(),
        param_fingerprint(&model.store),
    )
}

/// Golden training fingerprint. The constants were recorded with the
/// naive triple-loop backward products, before the transposed matmuls
/// moved onto `kernels::gemm`; they pin every backward kernel (matmul,
/// Bmm, LayerNorm) to those bits, so a kernel rewrite must be
/// bit-identical to the historical loops, not merely self-consistent.
#[test]
fn training_matches_golden_fingerprint() {
    let attention = golden_run(tlp::Backbone::Attention);
    let transformer = golden_run(tlp::Backbone::Transformer);
    assert_eq!(
        attention,
        (0x3de6_f0ec, 0x1170_682e_adde_db60),
        "attention backbone drifted"
    );
    assert_eq!(
        transformer,
        (0x3ea5_21b4, 0xe967_9539_9f5a_d526),
        "transformer backbone drifted"
    );
}
