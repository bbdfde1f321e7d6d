//! Set-up shared by the workloads: a seeded i7-10510U dataset generated from
//! training networks only, the feature extractor fitted on it, and a TLP
//! model trained on its features. All of it happens before timing starts and
//! is reported as `setup_s` and its `setup.*` parts.

use std::time::Instant;
use tlp::train::{train_tlp_with, TrainData};
use tlp::trainer::TrainOptions;
use tlp::{FeatureExtractor, TlpConfig, TlpModel};
use tlp_dataset::{generate_dataset_for, DatasetConfig};
use tlp_hwsim::Platform;
use tlp_workload::training_networks;

/// Training networks the dataset is generated from (a prefix of the pool,
/// which spans the ResNet and transformer families).
const DATASET_NETWORKS: usize = 2;
/// Programs sampled per subgraph.
const PROGRAMS_PER_TASK: usize = 16;
/// Epochs of the model trained during set-up.
const SETUP_EPOCHS: usize = 1;
/// Worker threads everywhere a thread count is asked for (≤ nproc = 2).
pub const THREADS: usize = 2;

/// The one model shape every workload uses.
pub fn model_config() -> TlpConfig {
    TlpConfig::default()
}

/// The extractor and extracted training features of one set-up.
pub struct Corpus {
    /// Extractor fitted on the dataset's vocabulary.
    pub extractor: FeatureExtractor,
    /// Task-grouped features and labels of the dataset.
    pub data: TrainData,
}

/// Wall-clock parts of one set-up, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Dataset generation, extractor fit and feature extraction.
    pub dataset_s: f64,
    /// Training the serving / tuning model.
    pub model_train_s: f64,
    /// Fleet start and model install.
    pub fleet_start_s: f64,
}

impl SetupTimes {
    /// Whole set-up time.
    pub fn total_s(&self) -> f64 {
        self.dataset_s + self.model_train_s + self.fleet_start_s
    }
}

/// Generates the seeded corpus, returning it with its wall time.
pub fn corpus(seed: u64) -> (Corpus, f64) {
    let t0 = Instant::now();
    let config = DatasetConfig {
        programs_per_task: PROGRAMS_PER_TASK,
        seed,
        ..DatasetConfig::default()
    };
    let nets = training_networks();
    let mut dataset = generate_dataset_for(
        &nets[..DATASET_NETWORKS],
        &[],
        &[Platform::i7_10510u()],
        &config,
    );
    dataset.retain_measured();
    let cfg = model_config();
    let extractor = FeatureExtractor::fit(&dataset, cfg.seq_len, cfg.emb_size);
    let data = TrainData::from_dataset(&dataset, &extractor, 0);
    let corpus = Corpus { extractor, data };
    (corpus, t0.elapsed().as_secs_f64())
}

/// Training options with pinned workers; `epochs` and `seed` vary by caller.
pub fn train_options(epochs: usize, seed: u64) -> TrainOptions {
    TrainOptions::from_config(&model_config())
        .with_epochs(epochs)
        .with_workers(THREADS)
        .with_grad_accum(THREADS)
        .with_seed(seed)
}

/// Trains the model the serving and tuning workloads score with.
pub fn trained_model(data: &TrainData, seed: u64) -> (TlpModel, f64) {
    let t0 = Instant::now();
    let mut model = TlpModel::new(model_config());
    let report = train_tlp_with(&mut model, data, &train_options(SETUP_EPOCHS, seed));
    assert!(
        report.final_loss().is_finite(),
        "set-up training diverged: loss {}",
        report.final_loss()
    );
    (model, t0.elapsed().as_secs_f64())
}
