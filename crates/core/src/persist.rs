//! Saving and loading trained cost models.
//!
//! A trained TLP model is `(config, vocabulary, weights)`. All three are
//! plain serde data, so models can be cached to JSON, shipped next to a
//! compiler install, and reloaded without retraining — the deployment mode
//! an offline cost model exists for.
//!
//! Restores are **audited**: [`SavedTlp::restore_tlp`] and
//! [`SavedTlp::restore_mtl`] run the `tlp-modelcheck` static analyzer
//! (shape/arity, trunk/head partition, numeric sanity, store checksum)
//! against the snapshot before handing a model back, rejecting corrupt or
//! inconsistent snapshots with [`PersistError::Invalid`]. The audit is
//! always on; there is no unaudited restore. On a valid snapshot it is
//! read-only and RNG-neutral, so the restored model is bit-identical to the
//! one that was snapshotted.

use crate::config::TlpConfig;
use crate::features::FeatureExtractor;
use crate::model::TlpModel;
use crate::mtl::MtlTlp;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use tlp_modelcheck::{AuditReport, Code, Diagnostic, ModelSpec, Severity};
use tlp_nn::ParamStore;
use tlp_schedule::Vocabulary;

/// The snapshot format this build writes and accepts.
///
/// Bumped whenever the serialized layout of [`SavedTlp`] changes
/// incompatibly. Snapshots written before the field existed probe as
/// version 0 and are rejected with [`PersistError::Version`] — a model
/// server must never hot-swap in a snapshot it may silently misinterpret.
///
/// History: 1 = initial versioned layout; 2 = added the `checksum` field
/// over the parameter store (names, shapes, and value bit patterns).
pub const SAVED_TLP_FORMAT_VERSION: u32 = 2;

/// A serializable snapshot of a trained TLP model + its feature extractor.
#[derive(Debug, Serialize, Deserialize)]
pub struct SavedTlp {
    /// Snapshot format tag; see [`SAVED_TLP_FORMAT_VERSION`].
    format_version: u32,
    config: TlpConfig,
    vocab: Vocabulary,
    seq_len: usize,
    emb_size: usize,
    store: ParamStore,
    /// Number of MTL heads (1 = single-task model).
    heads: usize,
    /// Integrity checksum over the store; see [`store_checksum`].
    checksum: u64,
}

/// Error loading or saving a model snapshot.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed snapshot.
    Format(serde_json::Error),
    /// A snapshot file that failed to decode, with as much locus as the
    /// decoder could recover: the byte offset where parsing stopped and
    /// the name of the nearest preceding parameter (the likely victim of
    /// a torn write or bit rot).
    Corrupt {
        /// Byte offset where the decoder gave up, when known.
        offset: Option<usize>,
        /// Last parameter name seen before the failure point, when the
        /// failure landed inside the parameter store.
        param: Option<String>,
        /// The underlying decode error.
        detail: String,
    },
    /// The snapshot decoded but failed the model audit: the store
    /// contradicts the architecture its config declares (missing/extra/
    /// misshapen parameters, broken head partition, non-finite values, or
    /// a checksum mismatch). Carries every error-severity diagnostic.
    Invalid {
        /// The audit's error-severity diagnostics (M-codes).
        diagnostics: Vec<Diagnostic>,
    },
    /// The snapshot's format version does not match this build's.
    Version {
        /// Version tag found in the snapshot (0 when absent — a pre-version
        /// or foreign file).
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The snapshot's head count does not fit the requested model shape.
    HeadCount {
        /// Heads recorded in the snapshot.
        found: usize,
        /// Minimum (MTL) or exact (single-task) head count required.
        expected: usize,
    },
    /// A training checkpoint's recorded shuffle seed differs from the
    /// resuming trainer's options, which would silently break the
    /// bit-identical-resume guarantee.
    SeedMismatch {
        /// Seed recorded in the checkpoint.
        found: u64,
        /// Seed the resuming trainer is configured with.
        expected: u64,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "model snapshot io error: {e}"),
            PersistError::Format(e) => write!(f, "model snapshot format error: {e}"),
            PersistError::Corrupt {
                offset,
                param,
                detail,
            } => {
                write!(f, "model snapshot corrupt: {detail}")?;
                if let Some(off) = offset {
                    write!(f, " (byte {off}")?;
                    if let Some(p) = param {
                        write!(f, ", near param \"{p}\"")?;
                    }
                    write!(f, ")")?;
                } else if let Some(p) = param {
                    write!(f, " (near param \"{p}\")")?;
                }
                Ok(())
            }
            PersistError::Invalid { diagnostics } => {
                let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
                for d in diagnostics {
                    *counts.entry(d.code.as_str()).or_insert(0) += 1;
                }
                write!(f, "model snapshot failed audit:")?;
                for (code, n) in counts {
                    write!(f, " {code}\u{d7}{n}")?;
                }
                Ok(())
            }
            PersistError::Version { found, expected } => write!(
                f,
                "model snapshot format version {found} (this build reads {expected})"
            ),
            PersistError::HeadCount { found, expected } => {
                write!(f, "model snapshot has {found} head(s), expected {expected}")
            }
            PersistError::SeedMismatch { found, expected } => write!(
                f,
                "training checkpoint seed {found} does not match trainer seed {expected}"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

/// Turns an audit report into the boundary verdict every audited layer
/// shares: [`PersistError::Invalid`] carrying the error-severity
/// diagnostics if there are any, `Ok` otherwise (warnings and lints never
/// reject).
///
/// # Errors
///
/// Returns [`PersistError::Invalid`] when `report` has errors.
pub fn reject_errors(report: &AuditReport) -> Result<(), PersistError> {
    if report.has_errors() {
        return Err(PersistError::Invalid {
            diagnostics: report.errors().cloned().collect(),
        });
    }
    Ok(())
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Format(e)
    }
}

/// One step of the checksum chain: a splitmix64-style finalizer over a
/// running xor-multiply fold. Not cryptographic — it exists to catch torn
/// writes, bit rot, and careless hand edits, not adversaries.
fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Order-sensitive checksum of a parameter store: every parameter's name
/// bytes, shape dims, and value **bit patterns** (`f32::to_bits`, so
/// `-0.0`/`0.0` and NaN payloads are distinguished), folded in registration
/// order. Any single-bit flip in any value changes the result.
pub fn store_checksum(store: &ParamStore) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3; // pi, for nothing-up-my-sleeve
    for id in store.ids() {
        for b in store.name(id).bytes() {
            h = mix(h, u64::from(b));
        }
        let t = store.value(id);
        for &d in t.shape() {
            h = mix(h, d as u64);
        }
        for &x in t.data() {
            h = mix(h, u64::from(x.to_bits()));
        }
    }
    h
}

/// Writes `body` to `path` via a sibling tempfile + atomic rename, so a
/// crash mid-write can never leave a torn file at `path`: readers see
/// either the old complete content or the new complete content.
pub(crate) fn atomic_write(path: &Path, body: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, path)
}

/// Recovers decode locus from a parse failure: the byte offset embedded in
/// the parser's message (vendored serde_json reports `… at byte N`) and the
/// last `"name":"…"` key preceding that offset — which, in a [`SavedTlp`]
/// body, is the parameter the corruption landed in or immediately after.
fn decode_context(body: &str, detail: String) -> PersistError {
    let offset = detail
        .rfind(" at byte ")
        .and_then(|i| {
            let digits: String = detail[i + " at byte ".len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse::<usize>().ok()
        })
        .map(|off| off.min(body.len()));
    let prefix = &body[..offset.unwrap_or(body.len())];
    let param = prefix.rfind("\"name\":\"").and_then(|i| {
        let rest = &prefix[i + "\"name\":\"".len()..];
        // Param names never contain escapes, so the next quote ends it;
        // a name torn mid-string simply yields the surviving prefix.
        let end = rest.find('"').unwrap_or(rest.len());
        let name = &rest[..end];
        if name.is_empty() {
            None
        } else {
            Some(name.to_string())
        }
    });
    PersistError::Corrupt {
        offset,
        param,
        detail,
    }
}

/// An in-memory snapshot of just the learnable parameters.
///
/// The training engine captures one of these at each best-so-far epoch and
/// restores it when early stopping fires, so the model ends with the weights
/// of its best validation epoch rather than its last one. The same
/// serde-plain `ParamStore` clone that backs [`SavedTlp`] on disk backs this
/// in memory.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ParamCheckpoint {
    store: ParamStore,
    /// 0-based epoch the checkpoint was captured after.
    pub epoch: usize,
    /// The early-stopping metric (validation or training loss) at capture.
    pub metric: f32,
}

impl ParamCheckpoint {
    /// Clones the store's current parameters into a checkpoint.
    pub fn capture(store: &ParamStore, epoch: usize, metric: f32) -> Self {
        ParamCheckpoint {
            store: store.clone(),
            epoch,
            metric,
        }
    }

    /// Writes the checkpointed parameters back into `store`.
    pub fn restore(&self, store: &mut ParamStore) {
        store.clone_from(&self.store);
    }
}

/// Snapshots a single-task model.
pub fn snapshot_tlp(model: &TlpModel, extractor: &FeatureExtractor) -> SavedTlp {
    SavedTlp {
        format_version: SAVED_TLP_FORMAT_VERSION,
        config: model.config.clone(),
        vocab: extractor.vocab().clone(),
        seq_len: extractor.seq_len,
        emb_size: extractor.emb_size,
        checksum: store_checksum(&model.store),
        store: model.store.clone(),
        heads: 1,
    }
}

/// Snapshots an MTL model (all heads included; head 0 is the target).
pub fn snapshot_mtl(model: &MtlTlp, extractor: &FeatureExtractor) -> SavedTlp {
    SavedTlp {
        format_version: SAVED_TLP_FORMAT_VERSION,
        config: model.config.clone(),
        vocab: extractor.vocab().clone(),
        seq_len: extractor.seq_len,
        emb_size: extractor.emb_size,
        checksum: store_checksum(&model.store),
        store: model.store.clone(),
        heads: model.num_tasks(),
    }
}

impl SavedTlp {
    /// Writes the snapshot as JSON via a sibling tempfile + atomic rename,
    /// so a crash mid-save can never leave a torn snapshot that
    /// [`SavedTlp::load`] reports as a confusing decode error.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on filesystem or serialization failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let body = serde_json::to_string(self)?;
        atomic_write(path.as_ref(), &body)?;
        Ok(())
    }

    /// Reads a snapshot from JSON.
    ///
    /// The format version is probed on the parsed value tree *before* the
    /// full decode, so a stale or foreign file fails with the typed
    /// [`PersistError::Version`] instead of a field-by-field deserialize
    /// error deep inside the parameter store. Decode failures surface as
    /// [`PersistError::Corrupt`] carrying the byte offset where parsing
    /// stopped and the nearest preceding parameter name.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on filesystem failure, version mismatch, or
    /// deserialization failure.
    pub fn load(path: impl AsRef<Path>) -> Result<SavedTlp, PersistError> {
        let body = std::fs::read_to_string(path)?;
        let tree: serde::Value = match serde_json::from_str(&body) {
            Ok(tree) => tree,
            Err(e) => return Err(decode_context(&body, e.to_string())),
        };
        let found = tree
            .get("format_version")
            .and_then(serde::Value::as_u64)
            .unwrap_or(0) as u32;
        if found != SAVED_TLP_FORMAT_VERSION {
            return Err(PersistError::Version {
                found,
                expected: SAVED_TLP_FORMAT_VERSION,
            });
        }
        serde::Deserialize::deserialize_value(&tree)
            .map_err(|e| decode_context(&body, e.to_string()))
    }

    /// The snapshot's format version tag.
    pub fn format_version(&self) -> u32 {
        self.format_version
    }

    /// Number of MTL heads the snapshot carries (1 = single-task model).
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// The snapshot's parameter store.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable access to the snapshot's parameter store.
    ///
    /// The recorded checksum is **not** recomputed — that is the point:
    /// this is the corruption-injection hook the `tlp-modelcheck`
    /// soundness suite and `tlp-cli audit-model` use to forge snapshots a
    /// gated restore must reject.
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Overrides the recorded head count without touching the store — a
    /// head-partition corruption the audit's M2xx pass must catch (the
    /// checksum stays valid, since the store itself is untouched).
    pub fn set_heads(&mut self, heads: usize) {
        self.heads = heads;
    }

    /// The expected parameter layout for this snapshot's config and head
    /// count (single-task for `heads <= 1`, MTL otherwise).
    fn spec(&self) -> ModelSpec {
        if self.heads <= 1 {
            crate::audit::tlp_spec(&self.config)
        } else {
            crate::audit::mtl_spec(&self.config, self.heads)
        }
    }

    /// Audits the snapshot against `spec`: the analyzer's structural passes
    /// plus the store-checksum verification (M106).
    fn audit_against(&self, spec: &ModelSpec) -> AuditReport {
        let report = tlp_modelcheck::audit_store(spec, &self.store);
        let computed = store_checksum(&self.store);
        if computed == self.checksum {
            report
        } else {
            report.merge(AuditReport::new(vec![Diagnostic::global(
                Code::ChecksumMismatch,
                Severity::Error,
                format!(
                    "store checksum {computed:#018x} does not match recorded {:#018x}",
                    self.checksum
                ),
            )]))
        }
    }

    /// Runs the full `tlp-modelcheck` audit of this snapshot: shape/arity,
    /// trunk/head partition, numeric sanity, and checksum verification,
    /// against the parameter layout its own config declares.
    pub fn audit(&self) -> AuditReport {
        self.audit_against(&self.spec())
    }

    /// Rebuilds the single-task model and extractor, auditing the snapshot
    /// first. The audit reuses the freshly initialized model as the layout
    /// ground truth, so the gate costs one read-only sweep over the store
    /// and nothing else. The audit always runs; there is no unaudited
    /// restore.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::HeadCount`] if the snapshot was taken from an
    /// MTL model (use [`SavedTlp::restore_mtl`]), or
    /// [`PersistError::Invalid`] if the audit finds errors.
    pub fn restore_tlp(&self) -> Result<(TlpModel, FeatureExtractor), PersistError> {
        if self.heads != 1 {
            return Err(PersistError::HeadCount {
                found: self.heads,
                expected: 1,
            });
        }
        let mut model = TlpModel::new(self.config.clone());
        let spec = ModelSpec::from_store(&model.store, vec!["head.".to_string()], None);
        reject_errors(&self.audit_against(&spec))?;
        model.store = self.store.clone();
        let extractor =
            FeatureExtractor::with_vocab(self.vocab.clone(), self.seq_len, self.emb_size);
        Ok((model, extractor))
    }

    /// Rebuilds an MTL model and extractor, auditing the snapshot first
    /// (same always-on gate as [`SavedTlp::restore_tlp`]).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::HeadCount`] if the snapshot records no heads
    /// at all (a corrupt or hand-edited file), or
    /// [`PersistError::Invalid`] if the audit finds errors.
    pub fn restore_mtl(&self) -> Result<(MtlTlp, FeatureExtractor), PersistError> {
        if self.heads == 0 {
            return Err(PersistError::HeadCount {
                found: 0,
                expected: 1,
            });
        }
        let mut model = MtlTlp::new(self.config.clone(), self.heads);
        let prefixes = (0..self.heads).map(|i| format!("head{i}.")).collect();
        let spec = ModelSpec::from_store(&model.store, prefixes, Some("head".to_string()));
        reject_errors(&self.audit_against(&spec))?;
        model.store = self.store.clone();
        let extractor =
            FeatureExtractor::with_vocab(self.vocab.clone(), self.seq_len, self.emb_size);
        Ok((model, extractor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_schedule::{ConcretePrimitive, PrimitiveKind, ScheduleSequence};

    fn sample_features(ex: &FeatureExtractor) -> Vec<f32> {
        let seq: ScheduleSequence = [ConcretePrimitive::new(PrimitiveKind::Split, "dense")
            .with_loops(["i"])
            .with_ints([64, 8])]
        .into_iter()
        .collect();
        let mut buf = crate::features::FeatureBuf::new();
        ex.extract_batch_into(std::slice::from_ref(&seq), &mut buf);
        buf.data().to_vec()
    }

    #[test]
    fn tlp_snapshot_roundtrip_preserves_predictions() {
        let cfg = TlpConfig::test_scale();
        let model = TlpModel::new(cfg.clone());
        let mut vb = Vocabulary::builder();
        vb.observe("dense");
        vb.observe("i");
        let ex = FeatureExtractor::with_vocab(vb.build(), cfg.seq_len, cfg.emb_size);
        let feats = sample_features(&ex);
        let before = model.predict(&feats);

        let dir = std::env::temp_dir().join("tlp_snapshot_test.json");
        snapshot_tlp(&model, &ex).save(&dir).expect("save");
        let loaded = SavedTlp::load(&dir).expect("load");
        assert_eq!(loaded.format_version(), SAVED_TLP_FORMAT_VERSION);
        assert_eq!(loaded.heads(), 1);
        let (model2, ex2) = loaded.restore_tlp().expect("single-task snapshot");
        let after = model2.predict(&sample_features(&ex2));
        assert_eq!(before, after);
        let _ = std::fs::remove_file(dir);
    }

    #[test]
    fn mtl_snapshot_roundtrip() {
        let cfg = TlpConfig::test_scale();
        let model = MtlTlp::new(cfg.clone(), 3);
        let ex =
            FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
        let snap = snapshot_mtl(&model, &ex);
        let json = serde_json::to_string(&snap).unwrap();
        let back: SavedTlp = serde_json::from_str(&json).unwrap();
        let (model2, _) = back.restore_mtl().expect("mtl snapshot");
        assert_eq!(model2.num_tasks(), 3);
        let feats = sample_features(&ex);
        for head in 0..3 {
            assert_eq!(
                model.predict_task(&feats, head),
                model2.predict_task(&feats, head)
            );
        }
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(matches!(
            SavedTlp::load("/nonexistent/path/model.json"),
            Err(PersistError::Io(_))
        ));
    }

    #[test]
    fn load_rejects_unversioned_snapshot() {
        // A pre-versioning or foreign JSON file probes as version 0 and must
        // fail with the typed error, not a deep deserialize failure.
        let path = std::env::temp_dir().join("tlp_snapshot_unversioned.json");
        std::fs::write(&path, r#"{"config": {}, "heads": 1}"#).unwrap();
        match SavedTlp::load(&path) {
            Err(PersistError::Version { found, expected }) => {
                assert_eq!(found, 0);
                assert_eq!(expected, SAVED_TLP_FORMAT_VERSION);
            }
            other => panic!(
                "expected Version error, got {:?}",
                other.map(|s| s.format_version())
            ),
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn load_rejects_future_version() {
        let cfg = TlpConfig::test_scale();
        let model = TlpModel::new(cfg.clone());
        let ex =
            FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
        let mut snap = snapshot_tlp(&model, &ex);
        snap.format_version = SAVED_TLP_FORMAT_VERSION + 1;
        let path = std::env::temp_dir().join("tlp_snapshot_future.json");
        snap.save(&path).expect("save");
        assert!(matches!(
            SavedTlp::load(&path),
            Err(PersistError::Version { found, .. }) if found == SAVED_TLP_FORMAT_VERSION + 1
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn restore_tlp_rejects_mtl_snapshot() {
        let cfg = TlpConfig::test_scale();
        let model = MtlTlp::new(cfg.clone(), 3);
        let ex =
            FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
        let snap = snapshot_mtl(&model, &ex);
        match snap.restore_tlp() {
            Err(PersistError::HeadCount { found, expected }) => {
                assert_eq!(found, 3);
                assert_eq!(expected, 1);
            }
            Ok(_) => panic!("restoring an MTL snapshot as single-task must fail"),
            Err(other) => panic!("expected HeadCount error, got {other:?}"),
        }
        // The same snapshot restores fine through the MTL path.
        assert!(snap.restore_mtl().is_ok());
    }

    #[test]
    fn restore_mtl_rejects_zero_heads() {
        let cfg = TlpConfig::test_scale();
        let model = TlpModel::new(cfg.clone());
        let ex =
            FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
        let mut snap = snapshot_tlp(&model, &ex);
        snap.heads = 0;
        assert!(matches!(
            snap.restore_mtl(),
            Err(PersistError::HeadCount { found: 0, .. })
        ));
    }

    #[test]
    fn load_reports_truncation_offset_and_nearest_param() {
        // Simulates the torn write that atomic_write prevents: a valid
        // snapshot cut off mid-JSON must surface as a typed Corrupt error
        // carrying the failure offset and the nearest parameter name.
        let cfg = TlpConfig::test_scale();
        let model = TlpModel::new(cfg.clone());
        let ex =
            FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
        let path = std::env::temp_dir().join("tlp_snapshot_truncated.json");
        snapshot_tlp(&model, &ex).save(&path).expect("save");
        let body = std::fs::read_to_string(&path).expect("read back");
        std::fs::write(&path, &body[..body.len() / 2]).expect("truncate");
        match SavedTlp::load(&path) {
            Err(PersistError::Corrupt { offset, param, .. }) => {
                assert!(offset.is_some(), "parser must report the failure offset");
                // Half of a snapshot body is deep inside the store, so the
                // context scan must find a parameter name before the cut.
                let p = param.expect("failure inside the store names a param");
                assert!(
                    p.starts_with("backbone.") || p.starts_with("head."),
                    "unexpected param locus {p:?}"
                );
            }
            other => panic!("expected Corrupt, got {other:?}", other = other.err()),
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn load_rejects_corrupted_bytes_without_panicking() {
        // Arbitrary text garbage must fail as a typed Corrupt error with no
        // param locus (the garbage has no store to point into).
        let path = std::env::temp_dir().join("tlp_snapshot_corrupt.json");
        std::fs::write(&path, "garbage: definitely [not json").expect("write");
        assert!(matches!(
            SavedTlp::load(&path),
            Err(PersistError::Corrupt { param: None, .. })
        ));
        // Binary garbage (invalid UTF-8) fails at the read as a typed Io
        // error — still no panic.
        std::fs::write(&path, b"\x00\xffnot utf8\x13\x37").expect("write");
        assert!(matches!(SavedTlp::load(&path), Err(PersistError::Io(_))));
        // Valid JSON of the wrong shape (version probe passes, field decode
        // fails) is a Corrupt error too, never a panic.
        std::fs::write(
            &path,
            format!("{{\"format_version\": {SAVED_TLP_FORMAT_VERSION}}}"),
        )
        .expect("write");
        assert!(matches!(
            SavedTlp::load(&path),
            Err(PersistError::Corrupt { .. })
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn atomic_save_leaves_no_tempfile_and_overwrites_in_place() {
        let cfg = TlpConfig::test_scale();
        let model = TlpModel::new(cfg.clone());
        let ex =
            FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
        let path = std::env::temp_dir().join("tlp_snapshot_atomic.json");
        let snap = snapshot_tlp(&model, &ex);
        snap.save(&path).expect("first save");
        snap.save(&path).expect("overwrite save");
        let tmp = std::env::temp_dir().join("tlp_snapshot_atomic.json.tmp");
        assert!(!tmp.exists(), "rename must consume the tempfile");
        assert!(SavedTlp::load(&path).is_ok());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn checksum_is_bit_sensitive() {
        let cfg = TlpConfig::test_scale();
        let model = TlpModel::new(cfg);
        let before = store_checksum(&model.store);
        let mut store = model.store.clone();
        let id = store.ids().next().expect("store has params");
        // Flip the lowest mantissa bit of one value: numerically invisible,
        // checksum-visible.
        let bits = store.value(id).data()[0].to_bits() ^ 1;
        store.value_mut(id).data_mut()[0] = f32::from_bits(bits);
        assert_ne!(before, store_checksum(&store));
    }

    #[test]
    fn restore_rejects_bit_flipped_store() {
        let cfg = TlpConfig::test_scale();
        let model = TlpModel::new(cfg.clone());
        let ex =
            FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
        let mut snap = snapshot_tlp(&model, &ex);
        let id = snap.store().ids().next().expect("store has params");
        let bits = snap.store().value(id).data()[0].to_bits() ^ 1;
        snap.store_mut().value_mut(id).data_mut()[0] = f32::from_bits(bits);

        let report = snap.audit();
        assert!(report.has_code(Code::ChecksumMismatch), "audit: {report}");
        match snap.restore_tlp() {
            Err(PersistError::Invalid { diagnostics }) => {
                assert!(diagnostics.iter().any(|d| d.code == Code::ChecksumMismatch));
            }
            other => panic!("expected Invalid, got {other:?}", other = other.err()),
        }
    }

    #[test]
    fn restore_rejects_nan_injected_store() {
        let cfg = TlpConfig::test_scale();
        let model = MtlTlp::new(cfg.clone(), 2);
        let ex =
            FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
        let mut snap = snapshot_mtl(&model, &ex);
        let id = snap.store().ids().next().expect("store has params");
        snap.store_mut().value_mut(id).data_mut()[0] = f32::NAN;

        let report = snap.audit();
        assert!(report.has_code(Code::NonFiniteValue), "audit: {report}");
        assert!(matches!(
            snap.restore_mtl(),
            Err(PersistError::Invalid { .. })
        ));
    }

    #[test]
    fn restore_rejects_head_count_forgery() {
        // set_heads leaves the store (and checksum) untouched, so the
        // partition pass — not the checksum — must catch the lie.
        let cfg = TlpConfig::test_scale();
        let model = MtlTlp::new(cfg.clone(), 3);
        let ex =
            FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
        let mut snap = snapshot_mtl(&model, &ex);
        snap.set_heads(2);
        let report = snap.audit();
        assert!(report.has_errors(), "audit must flag the forged head count");
        assert!(!report.has_code(Code::ChecksumMismatch));
        assert!(matches!(
            snap.restore_mtl(),
            Err(PersistError::Invalid { .. })
        ));
    }

    #[test]
    fn gated_restore_is_bit_identical_to_source() {
        let cfg = TlpConfig::test_scale();
        let model = MtlTlp::new(cfg.clone(), 2);
        let mut vb = Vocabulary::builder();
        vb.observe("dense");
        vb.observe("i");
        let ex = FeatureExtractor::with_vocab(vb.build(), cfg.seq_len, cfg.emb_size);
        let snap = snapshot_mtl(&model, &ex);
        let (gated, _) = snap.restore_mtl().expect("valid snapshot");
        assert_eq!(store_checksum(&gated.store), store_checksum(&model.store));
        let feats = sample_features(&ex);
        for head in 0..2 {
            assert_eq!(
                gated.predict_task(&feats, head),
                model.predict_task(&feats, head),
                "the audit gate must not perturb a valid model"
            );
        }
    }
}
