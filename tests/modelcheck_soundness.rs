//! Soundness of the `tlp-modelcheck` model-graph analyzer, both directions:
//!
//! 1. **No false rejects**: every model the code can legitimately produce —
//!    fresh, trained, grown — audits with zero error-severity diagnostics,
//!    and the always-on gates (persist restore, trainer coverage check)
//!    are bit-neutral: passing through them changes no parameter.
//! 2. **No false accepts**: targeted corruptions of golden snapshots —
//!    random bit flips, NaN injection, tensor truncation, head-count
//!    forgery — are each caught with the M-code the pass is specified to
//!    emit, and the gated restore refuses them.
//!
//! The corruptions run under proptest so the flipped bit / poisoned element
//! ranges over the whole store, not a hand-picked coordinate.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers lib code, not tests (see clippy.toml)

use proptest::prelude::*;
use tlp::persist::{snapshot_mtl, snapshot_tlp, PersistError, SavedTlp};
use tlp::train::{train_tlp_with, GroupData, TrainData};
use tlp::{MtlTlp, TlpConfig, TlpModel, TrainOptions};
use tlp_modelcheck::{audit_store, check_coverage, Code, CoverageSpec};
use tlp_nn::Tensor;

fn cfg_with_seed(seed: u64) -> TlpConfig {
    TlpConfig {
        seed,
        ..TlpConfig::test_scale()
    }
}

fn golden_tlp(seed: u64) -> SavedTlp {
    let cfg = cfg_with_seed(seed);
    let ex = tlp::features::FeatureExtractor::with_vocab(
        tlp_schedule::Vocabulary::builder().build(),
        cfg.seq_len,
        cfg.emb_size,
    );
    snapshot_tlp(&TlpModel::new(cfg), &ex)
}

fn golden_mtl(seed: u64, heads: usize) -> SavedTlp {
    let cfg = cfg_with_seed(seed);
    let ex = tlp::features::FeatureExtractor::with_vocab(
        tlp_schedule::Vocabulary::builder().build(),
        cfg.seq_len,
        cfg.emb_size,
    );
    snapshot_mtl(&MtlTlp::new(cfg, heads), &ex)
}

/// Flat (param, element) coordinates of the store, for mapping a fuzzed
/// index onto a concrete f32.
fn coords(snap: &SavedTlp) -> Vec<(tlp_nn::ParamId, usize)> {
    let store = snap.store();
    store
        .ids()
        .map(|id| (id, store.value(id).data().len()))
        .collect()
}

fn poke(snap: &mut SavedTlp, flat: usize, f: impl Fn(f32) -> f32) {
    let layout = coords(snap);
    let total: usize = layout.iter().map(|(_, n)| n).sum();
    let mut target = flat % total;
    for (id, n) in layout {
        if target < n {
            let v = &mut snap.store_mut().value_mut(id).data_mut()[target];
            *v = f(*v);
            return;
        }
        target -= n;
    }
    unreachable!("flat index within total");
}

fn param_bits(store: &tlp_nn::ParamStore) -> Vec<u32> {
    store
        .ids()
        .flat_map(|id| store.value(id).data().iter().map(|v| v.to_bits()))
        .collect()
}

fn store_bits(snap: &SavedTlp) -> Vec<u32> {
    param_bits(snap.store())
}

fn model_bits(model: &TlpModel) -> Vec<u32> {
    param_bits(&model.store)
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Direction 1: freshly constructed models of any seed audit clean and
    /// the gated restore is byte-for-byte the snapshotted store.
    #[test]
    fn fresh_models_never_false_reject(seed in 0u64..1_000_000, heads in 2usize..5) {
        let tlp = golden_tlp(seed);
        let report = tlp.audit();
        prop_assert!(!report.has_errors(), "false reject on fresh TLP: {report}");
        let (checked, _) = tlp.restore_tlp().expect("gate passes valid model");
        prop_assert_eq!(model_bits(&checked), store_bits(&tlp), "gate perturbed parameters");

        let mtl = golden_mtl(seed, heads);
        prop_assert!(!mtl.audit().has_errors(), "false reject on fresh MTL-{heads}");
        mtl.restore_mtl().expect("gate passes valid MTL model");
    }

    /// Direction 2, bit flips: flipping any single bit anywhere in the
    /// store trips the checksum pass (M106) and the gated restore refuses
    /// the snapshot.
    #[test]
    fn any_bit_flip_is_caught(flat in 0usize..usize::MAX, bit in 0u32..32) {
        let mut snap = golden_tlp(7);
        poke(&mut snap, flat, |v| f32::from_bits(v.to_bits() ^ (1 << bit)));
        let report = snap.audit();
        prop_assert!(
            report.has_code(Code::ChecksumMismatch),
            "bit flip escaped the checksum: {report}"
        );
        prop_assert!(report.has_errors());
        match snap.restore_tlp() {
            Err(PersistError::Invalid { diagnostics }) => {
                prop_assert!(!diagnostics.is_empty());
            }
            other => prop_assert!(false, "gate admitted a flipped store: {other:?}"),
        }
    }

    /// Direction 2, NaN injection: the numeric pass (M301) flags a poisoned
    /// value wherever it lands, independently of the checksum.
    #[test]
    fn any_nan_injection_is_caught(flat in 0usize..usize::MAX, kind in 0usize..3) {
        let mut snap = golden_tlp(11);
        let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][kind];
        poke(&mut snap, flat, |_| poison);
        let report = snap.audit();
        prop_assert!(
            report.has_code(Code::NonFiniteValue),
            "non-finite value escaped the numeric pass: {report}"
        );
        prop_assert!(snap.restore_tlp().is_err());
    }

    /// Direction 2, shape tears: resizing any tensor away from its spec
    /// shape trips the shape pass (M103).
    #[test]
    fn any_tensor_resize_is_caught(idx in 0usize..usize::MAX, grow in 0usize..2) {
        let mut snap = golden_tlp(13);
        let layout = coords(&snap);
        let (id, len) = layout[idx % layout.len()];
        let new_len = if grow == 1 { len + 1 } else { len.max(2) - 1 };
        *snap.store_mut().value_mut(id) = Tensor::zeros(&[new_len.max(1)]);
        let report = snap.audit();
        prop_assert!(
            report.has_code(Code::ShapeMismatch),
            "resized tensor escaped the shape pass: {report}"
        );
        prop_assert!(snap.restore_tlp().is_err());
    }
}

/// Head-count forgery leaves the store bytes intact, so the checksum stays
/// valid — the M2xx partition pass and the M1xx shape pass are what catch
/// the lie, in both directions.
#[test]
fn head_count_forgery_is_caught_without_checksum_help() {
    // Claim fewer heads than the store holds: head2.* become orphans.
    let mut snap = golden_mtl(3, 3);
    snap.set_heads(2);
    let report = snap.audit();
    assert!(report.has_errors());
    assert!(
        !report.has_code(Code::ChecksumMismatch),
        "forgery must be caught structurally, not via checksum: {report}"
    );
    assert!(
        report.has_code(Code::OrphanParam) || report.has_code(Code::HeadIndexOutOfRange),
        "expected M102/M202, got: {report}"
    );
    assert!(matches!(
        snap.restore_mtl(),
        Err(PersistError::Invalid { .. })
    ));

    // Claim more heads than the store holds: head3.* are missing.
    let mut snap = golden_mtl(3, 3);
    snap.set_heads(4);
    let report = snap.audit();
    assert!(report.has_errors());
    assert!(
        report.has_code(Code::MissingParam),
        "expected M101 for the phantom head, got: {report}"
    );
}

/// Non-finite gradient residue is a warning (M304), not an error: it cannot
/// corrupt a snapshot (gradients are not persisted) but it is worth
/// surfacing. The report must still pass.
#[test]
fn nan_gradients_warn_but_do_not_fail() {
    let cfg = cfg_with_seed(5);
    let mut model = TlpModel::new(cfg.clone());
    let id = model.store.ids().next().expect("params");
    model.store.grad_mut(id).data_mut()[0] = f32::NAN;
    let spec = tlp::audit::tlp_spec(&cfg);
    let report = audit_store(&spec, &model.store);
    assert!(
        report.has_code(Code::NonFiniteGradient),
        "expected M304, got: {report}"
    );
    assert!(report.passes(), "gradient residue must not gate: {report}");
}

/// Trainer-produced models audit clean, and the always-on coverage gate is
/// read-only: running it over a trained store passes and changes no bit.
#[test]
fn trained_models_audit_clean_and_coverage_gate_is_bit_neutral() {
    let cfg = TlpConfig {
        epochs: 2,
        ..cfg_with_seed(21)
    };
    let data = synth_data(&cfg, 4, 6, 0xFEED);
    let mut gated = TlpModel::new(cfg.clone());
    let options = TrainOptions::from_config(&cfg).with_seed(9);
    train_tlp_with(&mut gated, &data, &options);
    let before = model_bits(&gated);
    let coverage = check_coverage(&gated.store, &CoverageSpec::full(vec!["head.".into()]));
    assert!(
        coverage.passes(),
        "trained objective false-rejected: {coverage}"
    );
    assert_eq!(
        model_bits(&gated),
        before,
        "coverage gate perturbed the store"
    );

    let ex = tlp::features::FeatureExtractor::with_vocab(
        tlp_schedule::Vocabulary::builder().build(),
        cfg.seq_len,
        cfg.emb_size,
    );
    let snap = snapshot_tlp(&gated, &ex);
    let report = snap.audit();
    assert!(
        !report.has_errors(),
        "trained model false-rejected: {report}"
    );
    // And the full persist round trip stays bit-identical under the gate.
    let (restored, _) = snap.restore_tlp().expect("trained snapshot restores");
    let resnap = snapshot_tlp(&restored, &ex);
    assert_eq!(store_bits(&snap), store_bits(&resnap));
}

/// The audit must be cheap enough to gate every install: ≥1M params/s on
/// the full four-pass sweep (tier-1 runs with `profile.test` optimization).
#[test]
fn audit_throughput_exceeds_floor() {
    let snap = golden_mtl(1, 3);
    let params: usize = coords(&snap).iter().map(|(_, n)| n).sum();
    // Warm up once, then time a few sweeps.
    std::hint::black_box(snap.audit());
    let iters = 5u32;
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(snap.audit());
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let params_per_s = params as f64 * f64::from(iters) / elapsed;
    assert!(
        params_per_s >= 1_000_000.0,
        "audit too slow to gate installs: {params_per_s:.0} params/s over {params} params"
    );
}
