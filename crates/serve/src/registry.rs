//! Named, versioned cost models, hot-swappable under live traffic.
//!
//! The registry maps model names to [`ModelVersion`]s — an immutable bundle
//! of (restored scorer, private [`InferenceEngine`], monotonic version tag)
//! behind an `Arc`. Lookups clone the `Arc`, so a batch that resolved a
//! model keeps scoring on exactly that version even if an
//! [`ModelRegistry::install`] swaps the name mid-flight; the old version is
//! freed when its last in-flight batch drops it. Each version owns its own
//! engine (and score cache), so a swap can never serve version-N scores to
//! version-N+1 requests; the displaced engine is additionally
//! [`InferenceEngine::invalidate`]d at swap time so its cache memory is
//! released immediately rather than when the last straggler finishes.

use crate::error::ServeError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use tlp::engine::{EngineConfig, InferenceEngine, ScheduleScorer};
use tlp::persist::{reject_errors, PersistError, SavedTlp};
use tlp::search::{FeatureScratch, MtlTlpScorer, TlpScorer, TLP_PIPELINE_COST};
use tlp::FeatureExtractor;
use tlp::{MtlTlp, TlpModel};
use tlp_autotuner::{BatchStats, PipelineCost, SearchTask};
use tlp_modelcheck::audit_store;
use tlp_schedule::ScheduleSequence;

/// A scorer restored from a [`SavedTlp`] snapshot: single-task TLP or the
/// target head of an MTL model.
#[derive(Debug)]
pub enum LoadedScorer {
    /// Single-task TLP.
    Tlp(TlpScorer),
    /// MTL-TLP scored through head 0 (the target platform).
    Mtl(MtlTlpScorer),
}

impl ScheduleScorer for LoadedScorer {
    type Scratch = FeatureScratch;

    fn name(&self) -> &str {
        match self {
            LoadedScorer::Tlp(s) => s.name(),
            LoadedScorer::Mtl(s) => s.name(),
        }
    }

    fn pipeline_cost(&self) -> PipelineCost {
        TLP_PIPELINE_COST
    }

    fn score_micro_batch_into(
        &self,
        scratch: &mut FeatureScratch,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        idx: &[usize],
        out: &mut Vec<Option<f32>>,
    ) {
        match self {
            LoadedScorer::Tlp(s) => s.score_micro_batch_into(scratch, task, schedules, idx, out),
            LoadedScorer::Mtl(s) => s.score_micro_batch_into(scratch, task, schedules, idx, out),
        }
    }
}

/// One immutable installed model: scorer + private engine + version tag.
#[derive(Debug)]
pub struct ModelVersion {
    name: String,
    version: u64,
    scorer: LoadedScorer,
    engine: InferenceEngine,
}

impl ModelVersion {
    /// Registry name this version is (or was) installed under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Monotonic version tag, unique across the registry's lifetime.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// This version's engine (for stats snapshots).
    pub fn engine(&self) -> &InferenceEngine {
        &self.engine
    }

    /// Scores `schedules` for `task` through this version's engine
    /// (batched, cached, parallel — identical semantics to direct
    /// [`InferenceEngine::score`] calls).
    pub fn score(
        &self,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
    ) -> (Vec<Option<f32>>, BatchStats) {
        self.engine.score(&self.scorer, task, schedules)
    }

    /// Like [`ModelVersion::score`] but writing into a caller-owned buffer,
    /// so the serving batcher can reuse one output vector across batches.
    pub fn score_into(
        &self,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        out: &mut Vec<Option<f32>>,
    ) -> BatchStats {
        self.engine.score_into(&self.scorer, task, schedules, out)
    }
}

/// Thread-safe name → current-[`ModelVersion`] map.
///
/// Installs are **audited**, always: every model entering the registry —
/// from a snapshot or in-memory — is run through the `tlp-modelcheck`
/// static analyzer first, and a model with error-severity diagnostics is
/// rejected with [`PersistError::Invalid`] instead of ever becoming
/// resolvable. There is no escape hatch, and no public install path skips
/// the audit. The registry counts rejections
/// ([`ModelRegistry::rejected_installs`]) for the serving stats snapshot.
#[derive(Debug)]
pub struct ModelRegistry {
    models: RwLock<BTreeMap<String, Arc<ModelVersion>>>,
    next_version: AtomicU64,
    engine_config: EngineConfig,
    rejected_installs: AtomicU64,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        ModelRegistry::new(EngineConfig::default())
    }
}

impl ModelRegistry {
    /// An empty registry; every installed version gets an engine sized by
    /// `engine_config`.
    pub fn new(engine_config: EngineConfig) -> Self {
        ModelRegistry {
            models: RwLock::new(BTreeMap::new()),
            next_version: AtomicU64::new(1),
            engine_config,
            rejected_installs: AtomicU64::new(0),
        }
    }

    /// How many installs the audit gate has rejected over the registry's
    /// lifetime.
    pub fn rejected_installs(&self) -> u64 {
        self.rejected_installs.load(Ordering::Relaxed)
    }

    /// Passes an audited result through, counting a
    /// [`PersistError::Invalid`] rejection.
    fn counted<T>(&self, audited: Result<T, PersistError>) -> Result<T, PersistError> {
        if let Err(PersistError::Invalid { .. }) = &audited {
            self.rejected_installs.fetch_add(1, Ordering::Relaxed);
        }
        audited
    }

    /// Installs (or hot-swaps) a model restored from a snapshot. Single-task
    /// snapshots load as TLP, multi-head snapshots as MTL-TLP (target head).
    /// The audited restore ([`SavedTlp::restore_tlp`] /
    /// [`SavedTlp::restore_mtl`]: structure, numerics, checksum) must pass.
    ///
    /// Returns the new version tag.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Invalid`] when the audit rejects the
    /// snapshot; propagates other [`PersistError`]s from the restore
    /// (zero-head snapshots).
    pub fn install(&self, name: &str, snapshot: &SavedTlp) -> Result<u64, PersistError> {
        let scorer = if snapshot.heads() == 1 {
            let (model, extractor) = self.counted(snapshot.restore_tlp())?;
            LoadedScorer::Tlp(TlpScorer { model, extractor })
        } else {
            let (model, extractor) = self.counted(snapshot.restore_mtl())?;
            LoadedScorer::Mtl(MtlTlpScorer::new(model, extractor))
        };
        Ok(self.install_scorer(name, scorer))
    }

    /// Installs (or hot-swaps) an in-memory single-task model, auditing its
    /// store against the layout its config declares.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Invalid`] when the audit rejects the model.
    pub fn install_tlp(
        &self,
        name: &str,
        model: TlpModel,
        extractor: FeatureExtractor,
    ) -> Result<u64, PersistError> {
        let spec = tlp::audit::tlp_spec(&model.config);
        self.counted(reject_errors(&audit_store(&spec, &model.store)))?;
        Ok(self.install_scorer(name, LoadedScorer::Tlp(TlpScorer { model, extractor })))
    }

    /// Installs (or hot-swaps) an in-memory MTL model (scored via head 0),
    /// auditing its store.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Invalid`] when the audit rejects the model.
    pub fn install_mtl(
        &self,
        name: &str,
        model: MtlTlp,
        extractor: FeatureExtractor,
    ) -> Result<u64, PersistError> {
        self.install_mtl_head(name, model, extractor, 0)
    }

    /// Installs (or hot-swaps) an in-memory MTL model scored through head
    /// `head` (continual adaptation serves a newly grown platform head this
    /// way without disturbing the other heads), auditing its store.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Invalid`] when the audit rejects the model.
    ///
    /// # Panics
    ///
    /// Panics if `head` is out of range for the model.
    pub fn install_mtl_head(
        &self,
        name: &str,
        model: MtlTlp,
        extractor: FeatureExtractor,
        head: usize,
    ) -> Result<u64, PersistError> {
        assert!(head < model.num_tasks(), "serving head out of range");
        let spec = tlp::audit::mtl_spec(&model.config, model.num_tasks());
        self.counted(reject_errors(&audit_store(&spec, &model.store)))?;
        Ok(self.install_scorer(
            name,
            LoadedScorer::Mtl(MtlTlpScorer::for_head(model, extractor, head)),
        ))
    }

    /// Installs an audited scorer under `name`, atomically replacing any
    /// previous version. In-flight batches holding the old `Arc` finish on
    /// the old version; its cache is invalidated immediately so the
    /// displaced entries stop occupying memory. Private: every public
    /// install path audits first and then lands here.
    fn install_scorer(&self, name: &str, scorer: LoadedScorer) -> u64 {
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(ModelVersion {
            name: name.to_string(),
            version,
            scorer,
            engine: InferenceEngine::new(self.engine_config),
        });
        let old = self
            .models
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), entry);
        if let Some(old) = old {
            old.engine.invalidate();
        }
        version
    }

    /// The current version under `name`, if any.
    pub fn resolve(&self, name: &str) -> Option<Arc<ModelVersion>> {
        self.models
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    /// Like [`ModelRegistry::resolve`] but with the serving-layer error.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] when `name` is not installed.
    pub fn resolve_required(&self, name: &str) -> Result<Arc<ModelVersion>, ServeError> {
        self.resolve(name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))
    }

    /// Uninstalls `name`. In-flight batches on the removed version finish
    /// normally.
    pub fn remove(&self, name: &str) -> bool {
        self.models
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(name)
            .is_some()
    }

    /// Installed model names, sorted (the map iterates in key order).
    pub fn names(&self) -> Vec<String> {
        self.models
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect()
    }

    /// Current (name, version, engine-stats) rows for stats snapshots,
    /// sorted by name (the map iterates in key order).
    pub fn stats(&self) -> Vec<crate::stats::ModelStatsSnapshot> {
        self.models
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(|m| crate::stats::ModelStatsSnapshot {
                name: m.name.clone(),
                version: m.version,
                engine: m.engine.stats(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use tlp::persist::snapshot_tlp;
    use tlp::TlpConfig;
    use tlp_schedule::Vocabulary;

    fn model_and_extractor() -> (TlpModel, FeatureExtractor) {
        let cfg = TlpConfig::test_scale();
        let ex =
            FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
        (TlpModel::new(cfg), ex)
    }

    #[test]
    fn install_resolve_remove_roundtrip() {
        let reg = ModelRegistry::default();
        assert!(reg.resolve("m").is_none());
        assert_eq!(
            reg.resolve_required("m").err(),
            Some(ServeError::UnknownModel("m".to_string())),
        );
        let (model, ex) = model_and_extractor();
        let v1 = reg.install_tlp("m", model, ex).expect("valid model");
        let resolved = reg.resolve("m").expect("installed");
        assert_eq!(resolved.version(), v1);
        assert_eq!(resolved.name(), "m");
        assert_eq!(reg.names(), vec!["m".to_string()]);
        assert!(reg.remove("m"));
        assert!(!reg.remove("m"));
        assert!(reg.resolve("m").is_none());
    }

    #[test]
    fn hot_swap_bumps_version_and_keeps_old_arc_alive() {
        let reg = ModelRegistry::default();
        let (m1, e1) = model_and_extractor();
        let (m2, e2) = model_and_extractor();
        let v1 = reg.install_tlp("m", m1, e1).expect("valid model");
        let held = reg.resolve("m").expect("v1");
        let v2 = reg.install_tlp("m", m2, e2).expect("valid model");
        assert!(v2 > v1);
        // The held Arc still answers as the old version.
        assert_eq!(held.version(), v1);
        assert_eq!(reg.resolve("m").expect("v2").version(), v2);
        // Swap invalidated the displaced engine.
        assert_eq!(held.engine().stats().invalidations, 1);
    }

    #[test]
    fn snapshot_install_picks_model_family() {
        let reg = ModelRegistry::default();
        let (model, ex) = model_and_extractor();
        let snap = snapshot_tlp(&model, &ex);
        let v = reg.install("from-disk", &snap).expect("install");
        let resolved = reg.resolve("from-disk").expect("installed");
        assert_eq!(resolved.version(), v);
        let rows = reg.stats();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "from-disk");
    }

    #[test]
    fn audit_gate_rejects_nan_model_and_counts_it() {
        let reg = ModelRegistry::default();
        let (mut model, ex) = model_and_extractor();
        let id = model.store.ids().next().expect("store has params");
        model.store.value_mut(id).data_mut()[0] = f32::NAN;

        match reg.install_tlp("bad", model, ex) {
            Err(PersistError::Invalid { diagnostics }) => {
                assert!(!diagnostics.is_empty());
            }
            other => panic!("expected Invalid, got {other:?}", other = other.err()),
        }
        assert_eq!(reg.rejected_installs(), 1);
        assert!(
            reg.resolve("bad").is_none(),
            "rejected model must not serve"
        );
    }

    #[test]
    fn snapshot_install_rejects_corrupt_snapshot() {
        let reg = ModelRegistry::default();
        let (model, ex) = model_and_extractor();
        let mut snap = snapshot_tlp(&model, &ex);
        let id = snap.store().ids().next().expect("store has params");
        let bits = snap.store().value(id).data()[0].to_bits() ^ 1;
        snap.store_mut().value_mut(id).data_mut()[0] = f32::from_bits(bits);
        assert!(matches!(
            reg.install("bad", &snap),
            Err(PersistError::Invalid { .. })
        ));
        assert_eq!(reg.rejected_installs(), 1);
    }
}
