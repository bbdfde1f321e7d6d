//! End-to-end tests of the continual-learning loop: measured adaptation
//! under fault injection, zero-forgetting frozen mode, canary rollback, and
//! bit-reproducibility.

#![allow(clippy::disallowed_methods)]

use std::sync::Arc;
use tlp::experiments::eval_mtl_head;
use tlp::persist::PersistError;
use tlp::{train_mtl_with, FeatureExtractor, MtlTlp, TlpConfig, TrainData, TrainOptions};
use tlp_continual::{
    run_continual, AdaptConfig, CanarySet, ContinualConfig, PublishOutcome, PublishPolicy,
    ReplayBuffer, SnapshotPublisher,
};
use tlp_dataset::{generate_dataset_for, Dataset, DatasetConfig};
use tlp_hwsim::{FaultRates, Platform};
use tlp_serve::ModelRegistry;
use tlp_workload::bert_tiny;

/// A small dataset over two old CPUs plus the continual target as the last
/// platform column.
fn continual_dataset() -> Dataset {
    generate_dataset_for(
        &[bert_tiny(1, 64)],
        &[bert_tiny(1, 128)],
        &[
            Platform::i7_10510u(),
            Platform::e5_2673(),
            Platform::ryzen_3950x(),
        ],
        &DatasetConfig {
            programs_per_task: 16,
            refined_fraction: 0.25,
            seed: 41,
            ..DatasetConfig::default()
        },
    )
}

/// Trains a 2-head MTL model on the old platforms, then grows the new head.
fn grown_model(ds: &Dataset, ex: &FeatureExtractor) -> MtlTlp {
    let cfg = TlpConfig {
        epochs: 4,
        ..TlpConfig::test_scale()
    };
    let mut base = MtlTlp::new(cfg.clone(), 2);
    let data = [
        TrainData::from_dataset(ds, ex, 0),
        TrainData::from_dataset(ds, ex, 1),
    ];
    let options = TrainOptions::from_config(&cfg).with_seed(77);
    train_mtl_with(&mut base, &data, &options);
    base.grow_head()
}

fn replay_from(ds: &Dataset, ex: &FeatureExtractor) -> ReplayBuffer {
    let mut replay = ReplayBuffer::stratified(2, 13);
    replay.ingest_data(0, &TrainData::from_dataset(ds, ex, 0));
    replay.ingest_data(1, &TrainData::from_dataset(ds, ex, 1));
    replay
}

fn loop_config(trunk_frozen: bool) -> ContinualConfig {
    let cfg = TlpConfig::test_scale();
    let train = TrainOptions::from_config(&cfg)
        .with_epochs(2)
        .with_batch_size(8)
        .with_seed(5);
    ContinualConfig {
        rounds: 3,
        per_task_candidates: 4,
        max_tasks: 3,
        fault_rates: FaultRates::uniform(0.05),
        measure: Default::default(),
        adapt: if trunk_frozen {
            AdaptConfig::frozen(train)
        } else {
            AdaptConfig::low_lr(train, 0.1)
        },
        seed: 99,
    }
}

fn store_bits(model: &MtlTlp) -> Vec<u32> {
    model
        .store
        .ids()
        .flat_map(|id| model.store.value(id).data().iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn frozen_loop_learns_without_forgetting_and_publishes() {
    let ds = continual_dataset();
    let cfg = TlpConfig::test_scale();
    let ex = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
    let mut model = grown_model(&ds, &ex);
    let replay = replay_from(&ds, &ex);
    let config = loop_config(true);

    let registry = Arc::new(ModelRegistry::default());
    let canaries = CanarySet::from_dataset(&ds, 2, 2);
    assert!(!canaries.is_empty(), "dataset has canary tasks");
    let mut publisher = SnapshotPublisher::new(
        registry.clone(),
        "ryzen-3950x",
        2,
        PublishPolicy::default(),
        canaries,
    );

    let baseline: Vec<f64> = (0..2)
        .map(|i| eval_mtl_head(&model, &ex, &ds, i, i).0)
        .collect();
    let report = run_continual(&mut model, &ex, &ds, &replay, &config, Some(&mut publisher))
        .expect("loop runs");

    assert_eq!(report.rounds.len(), 3);
    assert!(report.measurements > 0, "loop measured something");
    assert!(
        report.measurements_ok > 0,
        "some measurements survived chaos: {report:?}"
    );
    assert_eq!(
        report.measurements_ok + report.measurements_failed,
        report.measurements
    );
    // Frozen trunk: old platforms are bitwise untouched, so measured
    // forgetting is exactly zero.
    assert_eq!(report.forgetting_points, 0.0, "{report:?}");
    assert_eq!(report.baseline_old_top1, baseline);
    assert_eq!(report.final_old_top1, baseline);
    // Publishing happened every round and nothing needed rolling back.
    assert_eq!(report.published, 3);
    assert_eq!(report.rolled_back, 0);
    // The registry serves the adapted model and scoring works end to end.
    let version = registry.resolve("ryzen-3950x").expect("model installed");
    let canary = &CanarySet::from_dataset(&ds, 2, 1)[0];
    let (scores, _) = version.score(&canary.task, &canary.schedules);
    assert!(scores.iter().any(|s| s.is_some()), "served scores flow");
}

#[test]
fn low_lr_loop_bounds_forgetting_with_replay() {
    let ds = continual_dataset();
    let cfg = TlpConfig::test_scale();
    let ex = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
    let mut model = grown_model(&ds, &ex);
    let replay = replay_from(&ds, &ex);
    let config = loop_config(false);
    let report = run_continual(&mut model, &ex, &ds, &replay, &config, None).expect("loop runs");
    // The trunk moved, so old scores may drift — but replay keeps the drift
    // small on this tiny problem.
    assert!(
        report.forgetting_points <= 10.0,
        "excessive forgetting: {report:?}"
    );
    assert!(report.new_top1 >= 0.0 && report.new_top1 <= 1.0);
}

#[test]
fn continual_loop_is_bit_reproducible() {
    let ds = continual_dataset();
    let cfg = TlpConfig::test_scale();
    let ex = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
    let config = loop_config(true);
    let run = || {
        let mut model = grown_model(&ds, &ex);
        let replay = replay_from(&ds, &ex);
        let report =
            run_continual(&mut model, &ex, &ds, &replay, &config, None).expect("loop runs");
        (store_bits(&model), report)
    };
    let (bits_a, report_a) = run();
    let (bits_b, report_b) = run();
    assert_eq!(bits_a, bits_b, "parameters diverged across identical runs");
    assert_eq!(
        serde_json::to_string(&report_a).expect("serialize"),
        serde_json::to_string(&report_b).expect("serialize"),
        "report diverged across identical runs"
    );
}

#[test]
fn canary_gate_rolls_back_a_regressed_candidate() {
    let ds = continual_dataset();
    let cfg = TlpConfig::test_scale();
    let ex = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
    let mut model = grown_model(&ds, &ex);
    let replay = replay_from(&ds, &ex);
    let config = loop_config(true);
    // Adapt once so the published model actually ranks canaries.
    run_continual(&mut model, &ex, &ds, &replay, &config, None).expect("loop runs");

    let registry = Arc::new(ModelRegistry::default());
    let canaries = CanarySet::from_dataset(&ds, 2, 0);
    let mut publisher = SnapshotPublisher::new(
        registry.clone(),
        "gate",
        2,
        PublishPolicy {
            every_rounds: 1,
            canary_tolerance: 0.01,
        },
        canaries,
    );
    let good = publisher
        .maybe_publish(0, &model, &ex)
        .expect("publish good");
    let PublishOutcome::Published {
        version: good_version,
        accuracy: good_acc,
    } = good
    else {
        panic!("first publish must be accepted, got {good:?}");
    };

    // Sabotage the served head: negating its final linear layer negates
    // every score, inverting every ranking — a guaranteed canary
    // regression.
    let mut bad = model.grow_head();
    for id in bad.head_param_ids(2) {
        if bad.store.name(id).contains("out2") {
            bad.store.value_mut(id).scale_assign(-1.0);
        }
    }
    let outcome = publisher.maybe_publish(1, &bad, &ex).expect("gate runs");
    let PublishOutcome::RolledBack {
        rejected_accuracy,
        restored_version,
        good_accuracy,
    } = outcome
    else {
        panic!("regressed candidate must roll back, got {outcome:?}");
    };
    assert!(rejected_accuracy < good_acc, "negation regressed accuracy");
    assert_eq!(good_accuracy, good_acc);
    assert!(restored_version > good_version, "rollback reinstalls anew");
    // The registry serves the restored good model: canary accuracy through
    // the live version matches the good snapshot's score.
    let version = registry.resolve("gate").expect("still installed");
    assert_eq!(version.version(), restored_version);
    assert_eq!(publisher.published(), 1);
    assert_eq!(publisher.rolled_back(), 1);
}

#[test]
fn entry_audit_rejects_nan_grown_model() {
    let ds = continual_dataset();
    let cfg = TlpConfig::test_scale();
    let ex = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
    let mut model = grown_model(&ds, &ex);
    // Corrupt one trunk weight: the M3xx numeric pass must catch it before
    // the loop spends any measurement budget.
    let id = model
        .store
        .ids()
        .find(|&id| model.store.name(id).starts_with("backbone."))
        .expect("trunk param");
    model.store.value_mut(id).data_mut()[0] = f32::NAN;

    let replay = replay_from(&ds, &ex);
    let config = loop_config(true);
    let err = run_continual(&mut model, &ex, &ds, &replay, &config, None)
        .expect_err("NaN model must be rejected at entry");
    let PersistError::Invalid { diagnostics } = err else {
        panic!("expected Invalid, got {err:?}");
    };
    assert!(
        diagnostics.iter().any(|d| d.code.as_str() == "M301"),
        "expected M301 NonFiniteValue, got {diagnostics:?}"
    );
}

#[test]
fn publisher_rejects_invalid_candidate_before_canary() {
    let ds = continual_dataset();
    let cfg = TlpConfig::test_scale();
    let ex = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
    let mut model = grown_model(&ds, &ex);
    let id = model
        .store
        .ids()
        .find(|&id| model.store.name(id).starts_with("head2."))
        .expect("new-head param");
    model.store.value_mut(id).data_mut()[0] = f32::INFINITY;

    let registry = Arc::new(ModelRegistry::default());
    let mut publisher = SnapshotPublisher::new(
        registry.clone(),
        "gate",
        2,
        PublishPolicy::default(),
        CanarySet::from_dataset(&ds, 2, 0),
    );
    let outcome = publisher
        .maybe_publish(0, &model, &ex)
        .expect("gate itself cannot fail");
    let PublishOutcome::RejectedInvalid { codes } = outcome else {
        panic!("expected RejectedInvalid, got {outcome:?}");
    };
    assert!(codes.contains(&"M301".to_string()), "codes: {codes:?}");
    assert_eq!(publisher.rejected_invalid(), 1);
    assert_eq!(publisher.published(), 0);
    // The broken candidate never reached the registry.
    assert!(registry.resolve("gate").is_none());
}
