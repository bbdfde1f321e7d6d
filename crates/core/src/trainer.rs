//! The synchronous data-parallel training engine behind every training loop.
//!
//! PR 1 made inference batched and parallel; this module does the same for
//! training. The four historical loops (`train_tlp`, `train_mtl`,
//! [`crate::pretrain::PretrainedLm::pretrain`] and `fine_tune`) were
//! single-threaded near-duplicates that allocated a fresh autograd
//! [`tlp_nn::Graph`] per mini-batch. They now all delegate to one generic
//! [`Trainer`] driven by a [`Trainable`] batch provider, so the learning-rate
//! schedule, gradient clipping, shuffling, early stopping, and epoch
//! accounting live in exactly one place.
//!
//! # Data-parallel step
//!
//! Each optimizer step covers `grad_accum` micro-batches. Scoped worker
//! threads (sized from [`std::thread::available_parallelism`], the same
//! policy as the PR 1 `InferenceEngine`) claim contiguous runs of those
//! micro-batches; every worker reuses its own [`Workspace`] — the tape and
//! parameter-leaf binding are reset, not reallocated, between micro-batches —
//! and harvests backward-pass gradients into a per-micro-batch
//! [`GradBuffer`]. The trainer then all-reduces the buffers into the shared
//! [`ParamStore`] **in micro-batch index order**, averages, records the
//! pre-clip gradient norm, clips, and applies one Adam step.
//!
//! Because each micro-batch's gradient is computed by the same instruction
//! sequence regardless of which thread runs it, and the reduction order is
//! fixed, a fixed seed produces **bitwise-identical** parameters for *any*
//! worker count. Worker count is therefore a pure throughput knob;
//! [`TrainOptions::grad_accum`] (not `workers`) is what changes optimizer
//! semantics.
//!
//! With `grad_accum == 1` the engine degenerates to the historical
//! sequential loop: same batch stream, same RNG consumption, same updates.

use crate::config::LossKind;
use crate::persist::{atomic_write, ParamCheckpoint, PersistError};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tlp_modelcheck::CoverageSpec;
use tlp_nn::{
    lambda_rank_loss, mse_loss, Adam, GradBuffer, Graph, LrSchedule, Optimizer, ParamStore, Var,
    Workspace,
};

use crate::config::TlpConfig;

/// Shared training knobs consumed by [`Trainer`].
///
/// The legacy entry points (`train_tlp` etc.) derive their options from the
/// model's [`TlpConfig`] via [`TrainOptions::from_config`]; the `*_with`
/// variants accept explicit options.
///
/// No option turns off the startup gradient-coverage audit: every run
/// checks the task's [`Trainable::coverage`] objective before the first
/// epoch. The audit is always on; there is no escape hatch.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrainOptions {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Micro-batch size (rank loss groups micro-batches by task).
    pub batch_size: usize,
    /// Base Adam learning rate.
    pub learning_rate: f32,
    /// Per-epoch learning-rate schedule applied to the base rate.
    pub lr_schedule: LrSchedule,
    /// Global gradient-norm clip applied before each optimizer step.
    pub grad_clip: f32,
    /// Worker threads for the data-parallel step; `0` sizes from
    /// [`std::thread::available_parallelism`]. Pure throughput knob — does
    /// not change results.
    pub workers: usize,
    /// Micro-batches accumulated (averaged) per optimizer step; `0` follows
    /// the effective worker count. This is the knob that changes optimizer
    /// semantics; `1` reproduces the historical per-batch stepping.
    pub grad_accum: usize,
    /// Early stopping: stop after this many consecutive epochs without
    /// validation-loss improvement and restore the best epoch's weights.
    /// `0` disables early stopping.
    pub patience: usize,
    /// Fraction of task groups held out for validation (`0.0` disables the
    /// split; early stopping then watches the training loss).
    pub valid_frac: f64,
    /// Seed for the batch-shuffling RNG (weight init is the model's own
    /// seed; the legacy wrappers salt this exactly like the loops they
    /// replaced, preserving historical batch streams).
    pub seed: u64,
}

impl TrainOptions {
    /// Options equivalent to the historical `train_tlp` loop for `config`:
    /// per-batch stepping (`grad_accum == 1`), exponential LR decay, no
    /// early stopping.
    pub fn from_config(config: &TlpConfig) -> Self {
        TrainOptions {
            epochs: config.epochs,
            batch_size: config.batch_size,
            learning_rate: config.learning_rate,
            lr_schedule: LrSchedule::paper_decay(),
            grad_clip: 5.0,
            workers: 0,
            grad_accum: 1,
            patience: 0,
            valid_frac: 0.0,
            seed: config.seed,
        }
    }

    /// Sets the epoch count.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the micro-batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the worker-thread count (`0` = auto).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets micro-batches per optimizer step (`0` = follow workers).
    pub fn with_grad_accum(mut self, grad_accum: usize) -> Self {
        self.grad_accum = grad_accum;
        self
    }

    /// Enables early stopping with the given patience.
    pub fn with_patience(mut self, patience: usize) -> Self {
        self.patience = patience;
        self
    }

    /// Holds out a fraction of task groups for validation.
    pub fn with_valid_frac(mut self, valid_frac: f64) -> Self {
        self.valid_frac = valid_frac;
        self
    }

    /// Sets the shuffling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the base learning rate.
    pub fn with_learning_rate(mut self, learning_rate: f32) -> Self {
        self.learning_rate = learning_rate;
        self
    }

    /// Worker count after resolving `0` to the machine's parallelism.
    pub fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.workers
        }
    }

    /// Micro-batches per step after resolving `0` to the worker count.
    pub fn effective_grad_accum(&self) -> usize {
        if self.grad_accum == 0 {
            self.effective_workers()
        } else {
            self.grad_accum
        }
    }
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions::from_config(&TlpConfig::default())
    }
}

/// Why a training run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// Every configured epoch ran.
    Completed,
    /// The early-stopping metric failed to improve for `patience`
    /// consecutive epochs; weights were restored to the best epoch.
    EarlyStopped,
    /// The batch provider produced no trainable micro-batches.
    NoData,
}

/// Per-epoch training statistics.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EpochReport {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean loss over the epoch's micro-batches.
    pub train_loss: f32,
    /// Mean loss over held-out validation batches, when a split is active.
    pub valid_loss: Option<f32>,
    /// Learning rate the schedule chose for this epoch.
    pub learning_rate: f32,
    /// Mean pre-clip global gradient norm over the epoch's optimizer steps.
    pub grad_norm: f32,
    /// Wall-clock seconds spent in the epoch.
    pub wall_s: f64,
    /// Optimizer steps taken.
    pub steps: usize,
    /// Training samples consumed.
    pub samples: usize,
}

/// The structured result of a training run — what `train_tlp`, `train_mtl`,
/// `pretrain`, and `fine_tune` return instead of a bare `Vec<f32>`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainReport {
    /// One entry per completed epoch.
    pub epochs: Vec<EpochReport>,
    /// Why the run ended.
    pub stop: StopReason,
    /// Epoch whose weights the model ended with (set when early stopping
    /// tracked a best checkpoint).
    pub best_epoch: Option<usize>,
    /// Effective worker-thread count used for the run.
    pub workers: usize,
    /// Effective micro-batches per optimizer step.
    pub grad_accum: usize,
    /// Total wall-clock seconds.
    pub wall_s: f64,
    /// Total training samples consumed across all epochs.
    pub samples: usize,
    /// Checkpoints spilled to disk during the run (0 unless
    /// [`Trainer::with_checkpointing`] is configured).
    pub checkpoints_written: usize,
}

impl TrainReport {
    /// Per-epoch mean training losses (the legacy `Vec<f32>` view).
    pub fn epoch_losses(&self) -> Vec<f32> {
        self.epochs.iter().map(|e| e.train_loss).collect()
    }

    /// The final epoch's mean training loss (`0.0` for an empty run).
    pub fn final_loss(&self) -> f32 {
        self.epochs.last().map_or(0.0, |e| e.train_loss)
    }

    /// Training throughput over the whole run.
    pub fn samples_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.samples as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// A training task the generic [`Trainer`] can drive: a batch provider plus
/// a loss. Implementations exist for single-task TLP, MTL-TLP interleaved
/// slots, LM pretraining corpora, and rank fine-tuning.
///
/// `Sync` is required because worker threads share `&self` while computing
/// micro-batch gradients.
pub trait Trainable: Sync {
    /// One self-contained micro-batch, shareable across worker threads.
    type Batch: Send + Sync;

    /// The parameters being trained.
    fn store(&self) -> &ParamStore;

    /// Mutable access for the all-reduce and optimizer step.
    fn store_mut(&mut self) -> &mut ParamStore;

    /// Builds the epoch's shuffled micro-batch stream. Implementations must
    /// draw shuffles from `rng` exactly like the loop they replaced so
    /// fixed-seed runs reproduce historical batch streams.
    fn epoch_batches(&self, epoch: usize, rng: &mut SmallRng) -> Vec<Self::Batch>;

    /// Sample count of a micro-batch (throughput accounting).
    fn batch_samples(&self, batch: &Self::Batch) -> usize;

    /// Builds the loss node for one micro-batch on a reset workspace.
    fn loss(&self, ws: &mut Workspace, batch: &Self::Batch) -> Var;

    /// Held-out validation micro-batches, in a deterministic order (no
    /// shuffling). Empty when no validation split is active.
    fn valid_batches(&self) -> Vec<Self::Batch> {
        Vec::new()
    }

    /// Hook invoked once per optimizer step, after the ordered all-reduce
    /// and gradient averaging but before the norm is recorded, clipping is
    /// applied, and Adam steps. The default does nothing — the historical
    /// training loops are bitwise unaffected.
    ///
    /// Implementations may zero or rescale per-parameter gradients through
    /// [`tlp_nn::ParamStore::grad_mut`]. Continual adaptation uses this to
    /// freeze the shared trunk (zeroing a gradient every step keeps Adam's
    /// moments at zero, so the frozen parameter is bitwise unchanged) or to
    /// run the trunk at a reduced effective learning rate.
    fn postprocess_grads(&mut self) {}

    /// Declares the task's training objective for the `tlp-modelcheck`
    /// gradient-coverage pass (M4xx): which heads the loss reaches and
    /// which parameters `postprocess_grads` freezes. [`Trainer`] checks it
    /// before the first epoch of every run and panics on errors — a mask
    /// that silently trains nothing or strands a trainable parameter is a
    /// bug, not a run to complete. The check is read-only and RNG-neutral.
    /// `None` (the default) declares no objective, for tasks whose stores
    /// don't follow the TLP trunk/head naming scheme.
    fn coverage(&self) -> Option<CoverageSpec> {
        None
    }
}

/// Format tag written into every [`TrainCheckpoint`] file.
pub const TRAIN_CHECKPOINT_FORMAT_VERSION: u32 = 1;

/// A crash-safe snapshot of a [`Trainer::fit`] run after a whole number of
/// epochs: parameters, Adam moments, early-stopping state, and epoch
/// reports. Written periodically by [`Trainer::with_checkpointing`] via a
/// sibling tempfile + atomic rename (a crash mid-spill can never corrupt
/// the previous checkpoint), and consumed by [`Trainer::resume_from`].
///
/// The shuffling RNG is *not* serialized: `SmallRng` exposes no state
/// accessors. Resume instead replays [`Trainable::epoch_batches`] for the
/// completed epochs, which consumes the stream identically — so a resumed
/// run draws exactly the batches the uninterrupted run would have, and
/// finishes with bitwise-identical parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainCheckpoint {
    /// Snapshot format tag; see [`TRAIN_CHECKPOINT_FORMAT_VERSION`].
    format_version: u32,
    /// Epochs fully completed when the snapshot was taken.
    pub epochs_done: usize,
    /// Shuffling seed of the interrupted run; [`Trainer::resume_from`]
    /// refuses a checkpoint whose seed differs from its own options.
    pub seed: u64,
    /// The trained parameters after `epochs_done` epochs.
    pub store: ParamStore,
    /// Optimizer state (Adam moments and step count).
    pub optimizer: Adam,
    /// Best early-stopping checkpoint captured so far, if any.
    pub best: Option<ParamCheckpoint>,
    /// Consecutive epochs without metric improvement at snapshot time.
    pub bad_epochs: usize,
    /// Per-epoch reports for the completed epochs.
    pub reports: Vec<EpochReport>,
    /// Optimizer steps taken so far.
    pub total_steps: usize,
    /// Training samples consumed so far.
    pub total_samples: usize,
}

impl TrainCheckpoint {
    /// Writes the checkpoint as JSON via tempfile + atomic rename.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on filesystem or serialization failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let body = serde_json::to_string(self)?;
        atomic_write(path.as_ref(), &body)?;
        Ok(())
    }

    /// Reads and version-checks a checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on filesystem failure, version mismatch, or
    /// deserialization failure (e.g. a truncated or corrupted file).
    pub fn load(path: impl AsRef<Path>) -> Result<TrainCheckpoint, PersistError> {
        let body = std::fs::read_to_string(path)?;
        let tree: serde::Value = serde_json::from_str(&body)?;
        let found = tree
            .get("format_version")
            .and_then(serde::Value::as_u64)
            .unwrap_or(0) as u32;
        if found != TRAIN_CHECKPOINT_FORMAT_VERSION {
            return Err(PersistError::Version {
                found,
                expected: TRAIN_CHECKPOINT_FORMAT_VERSION,
            });
        }
        serde::Deserialize::deserialize_value(&tree)
            .map_err(|e| PersistError::Format(serde_json::Error::from(e)))
    }

    /// The checkpoint's format version tag.
    pub fn format_version(&self) -> u32 {
        self.format_version
    }
}

/// The generic synchronous data-parallel training engine. See the module
/// docs for the execution model and determinism guarantees.
#[derive(Clone, Debug)]
pub struct Trainer {
    options: TrainOptions,
    checkpoint_path: Option<PathBuf>,
    checkpoint_every: usize,
}

impl Trainer {
    /// Creates a trainer with the given options.
    pub fn new(options: TrainOptions) -> Self {
        Trainer {
            options,
            checkpoint_path: None,
            checkpoint_every: 1,
        }
    }

    /// The trainer's options.
    pub fn options(&self) -> &TrainOptions {
        &self.options
    }

    /// Enables periodic checkpoint spills: after every `every_epochs`
    /// completed epochs (and after the final one) a [`TrainCheckpoint`] is
    /// written to `path` atomically. A spill failure is reported on stderr
    /// and training continues — crash safety must not break training.
    pub fn with_checkpointing(mut self, path: impl Into<PathBuf>, every_epochs: usize) -> Self {
        self.checkpoint_path = Some(path.into());
        self.checkpoint_every = every_epochs.max(1);
        self
    }

    /// Resumes an interrupted run from a [`TrainCheckpoint`] and trains to
    /// this trainer's configured epoch count. Parameters, optimizer
    /// moments, early-stopping state, and the shuffle RNG stream are all
    /// restored, so the continued run is bitwise-identical to one that was
    /// never interrupted (same options required).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] if the checkpoint cannot be read or its
    /// recorded seed differs from this trainer's options (which would
    /// silently break the bit-identical-resume guarantee).
    pub fn resume_from<T: Trainable>(
        &self,
        task: &mut T,
        path: impl AsRef<Path>,
    ) -> Result<TrainReport, PersistError> {
        let ckpt = TrainCheckpoint::load(path)?;
        if ckpt.seed != self.options.seed {
            return Err(PersistError::SeedMismatch {
                found: ckpt.seed,
                expected: self.options.seed,
            });
        }
        Ok(self.fit_inner(task, Some(ckpt)))
    }

    /// Trains `task` in place and reports per-epoch statistics.
    pub fn fit<T: Trainable>(&self, task: &mut T) -> TrainReport {
        self.fit_inner(task, None)
    }

    /// The shared training loop: a fresh run when `resume` is `None`,
    /// otherwise a continuation that first restores the checkpoint's state.
    fn fit_inner<T: Trainable>(
        &self,
        task: &mut T,
        resume: Option<TrainCheckpoint>,
    ) -> TrainReport {
        let o = &self.options;
        if let Some(cov) = task.coverage() {
            let report = tlp_modelcheck::check_coverage(task.store(), &cov);
            assert!(
                !report.has_errors(),
                "training objective fails gradient-coverage audit:\n{report}"
            );
        }
        let workers = o.effective_workers();
        let accum = o.effective_grad_accum().max(1);
        let mut opt = Adam::new(o.learning_rate);
        let mut rng = SmallRng::seed_from_u64(o.seed);
        let t0 = Instant::now();

        let mut workspaces: Vec<Workspace> =
            (0..workers.max(1)).map(|_| Workspace::new()).collect();
        let mut buffers: Vec<GradBuffer> = (0..accum).map(|_| GradBuffer::new()).collect();
        let mut losses = vec![0.0f32; accum];
        let valid = task.valid_batches();

        let mut epochs: Vec<EpochReport> = Vec::with_capacity(o.epochs);
        let mut stop = StopReason::Completed;
        let mut best: Option<(f32, usize, ParamCheckpoint)> = None;
        let mut bad_epochs = 0usize;
        let mut total_steps = 0usize;
        let mut total_samples = 0usize;
        let mut start_epoch = 0usize;
        let mut checkpoints_written = 0usize;

        if let Some(ckpt) = resume {
            start_epoch = ckpt.epochs_done.min(o.epochs);
            *task.store_mut() = ckpt.store;
            opt = ckpt.optimizer;
            best = ckpt.best.map(|c| (c.metric, c.epoch, c));
            bad_epochs = ckpt.bad_epochs;
            total_steps = ckpt.total_steps;
            total_samples = ckpt.total_samples;
            epochs = ckpt.reports;
            // Replay the shuffle stream for the completed epochs so the
            // continuation draws exactly the batches an uninterrupted run
            // would have (SmallRng state itself is not serializable).
            for e in 0..start_epoch {
                let _ = task.epoch_batches(e, &mut rng);
            }
        }

        for epoch in start_epoch..o.epochs {
            let e0 = Instant::now();
            let lr = o.lr_schedule.lr_at(o.learning_rate, epoch);
            opt.set_learning_rate(lr);
            let batches = task.epoch_batches(epoch, &mut rng);

            let mut loss_sum = 0.0f64;
            let mut norm_sum = 0.0f64;
            let mut micro = 0usize;
            let mut steps = 0usize;
            let mut samples = 0usize;
            for step in batches.chunks(accum) {
                let k = step.len();
                run_step(
                    task,
                    step,
                    &mut workspaces,
                    &mut buffers[..k],
                    &mut losses[..k],
                    workers,
                );
                // Ordered all-reduce: micro-batch index order, never thread
                // completion order — this is what makes the step bitwise
                // worker-count-invariant.
                for buf in &buffers[..k] {
                    buf.reduce_into(task.store_mut());
                }
                if k > 1 {
                    task.store_mut().scale_grads(1.0 / k as f32);
                }
                task.postprocess_grads();
                norm_sum += task.store().grad_norm() as f64;
                task.store_mut().clip_grad_norm(o.grad_clip);
                opt.step(task.store_mut());
                for (b, &l) in step.iter().zip(losses.iter()) {
                    loss_sum += l as f64;
                    samples += task.batch_samples(b);
                }
                micro += k;
                steps += 1;
            }
            total_steps += steps;
            total_samples += samples;

            let train_loss = if micro > 0 {
                (loss_sum / micro as f64) as f32
            } else {
                0.0
            };
            let valid_loss = eval_batches(task, &mut workspaces[0], &valid);
            epochs.push(EpochReport {
                epoch,
                train_loss,
                valid_loss,
                learning_rate: lr,
                grad_norm: if steps > 0 {
                    (norm_sum / steps as f64) as f32
                } else {
                    0.0
                },
                wall_s: e0.elapsed().as_secs_f64(),
                steps,
                samples,
            });

            if o.patience > 0 {
                let metric = valid_loss.unwrap_or(train_loss);
                if best.as_ref().is_none_or(|(m, _, _)| metric < *m) {
                    best = Some((
                        metric,
                        epoch,
                        ParamCheckpoint::capture(task.store(), epoch, metric),
                    ));
                    bad_epochs = 0;
                } else {
                    bad_epochs += 1;
                    if bad_epochs >= o.patience {
                        stop = StopReason::EarlyStopped;
                        break;
                    }
                }
            }

            if let Some(path) = &self.checkpoint_path {
                let done = epoch + 1;
                if done % self.checkpoint_every == 0 || done == o.epochs {
                    let ckpt = TrainCheckpoint {
                        format_version: TRAIN_CHECKPOINT_FORMAT_VERSION,
                        epochs_done: done,
                        seed: o.seed,
                        store: task.store().clone(),
                        optimizer: opt.clone(),
                        best: best.as_ref().map(|(_, _, c)| c.clone()),
                        bad_epochs,
                        reports: epochs.clone(),
                        total_steps,
                        total_samples,
                    };
                    match ckpt.save(path) {
                        Ok(()) => checkpoints_written += 1,
                        Err(e) => eprintln!(
                            "trainer: checkpoint spill to {} failed: {e}",
                            path.display()
                        ),
                    }
                }
            }
        }

        let mut best_epoch = None;
        if let Some((_, be, ckpt)) = best {
            ckpt.restore(task.store_mut());
            best_epoch = Some(be);
        }
        if total_steps == 0 {
            stop = StopReason::NoData;
        }
        TrainReport {
            epochs,
            stop,
            best_epoch,
            workers,
            grad_accum: accum,
            wall_s: t0.elapsed().as_secs_f64(),
            samples: total_samples,
            checkpoints_written,
        }
    }
}

/// Computes one step's per-micro-batch gradients into `buffers` (and losses
/// into `losses`), spreading the micro-batches over scoped worker threads.
fn run_step<T: Trainable>(
    task: &T,
    step: &[T::Batch],
    workspaces: &mut [Workspace],
    buffers: &mut [GradBuffer],
    losses: &mut [f32],
    workers: usize,
) {
    let k = step.len();
    for buf in buffers.iter_mut() {
        buf.reset_for(task.store());
    }
    let n_workers = workers.min(k).max(1);
    if n_workers <= 1 {
        let ws = &mut workspaces[0];
        for ((b, buf), loss) in step.iter().zip(buffers.iter_mut()).zip(losses.iter_mut()) {
            *loss = grad_one(task, ws, b, buf);
        }
        return;
    }
    // Contiguous assignment: worker w takes micro-batches
    // [w·per, (w+1)·per). Assignment affects only which thread fills which
    // buffer, never the buffer contents.
    let per = k.div_ceil(n_workers);
    std::thread::scope(|scope| {
        let mut bats = step;
        let mut bufs = &mut buffers[..];
        let mut lss = &mut losses[..];
        for ws in workspaces.iter_mut().take(n_workers) {
            let take = per.min(bats.len());
            if take == 0 {
                break;
            }
            let (b_now, b_rest) = bats.split_at(take);
            let (g_now, g_rest) = bufs.split_at_mut(take);
            let (l_now, l_rest) = lss.split_at_mut(take);
            bats = b_rest;
            bufs = g_rest;
            lss = l_rest;
            scope.spawn(move || {
                for ((b, buf), loss) in b_now.iter().zip(g_now.iter_mut()).zip(l_now.iter_mut()) {
                    *loss = grad_one(task, ws, b, buf);
                }
            });
        }
    });
}

/// Forward + backward for one micro-batch on a reusable workspace; gradients
/// land in `buf`, the loss value is returned.
fn grad_one<T: Trainable>(
    task: &T,
    ws: &mut Workspace,
    batch: &T::Batch,
    buf: &mut GradBuffer,
) -> f32 {
    ws.reset();
    let loss = task.loss(ws, batch);
    ws.graph.backward(loss);
    ws.bind.harvest_into(&ws.graph, buf);
    ws.graph.value(loss).item()
}

/// Mean loss over a deterministic batch list without touching gradients
/// (validation evaluation). `None` when the list is empty.
fn eval_batches<T: Trainable>(task: &T, ws: &mut Workspace, batches: &[T::Batch]) -> Option<f32> {
    if batches.is_empty() {
        return None;
    }
    let mut sum = 0.0f64;
    for b in batches {
        ws.reset();
        let loss = task.loss(ws, b);
        sum += ws.graph.value(loss).item() as f64;
    }
    Some((sum / batches.len() as f64) as f32)
}

/// The TLP training loss over a scored micro-batch: LambdaRank, or
/// sigmoid-squashed MSE (monotone, so prediction-time rankings are
/// unaffected). Public so out-of-crate [`Trainable`] implementations (the
/// continual-adaptation task) build the exact same loss the in-crate loops
/// use.
pub fn scored_loss(
    g: &mut Graph,
    scores: Var,
    labels: &[f32],
    loss: LossKind,
    seq_len: usize,
) -> Var {
    match loss {
        LossKind::Rank => lambda_rank_loss(g, scores, labels),
        LossKind::Mse => {
            let scaled = g.scale(scores, 1.0 / seq_len as f32);
            let squashed = g.sigmoid(scaled);
            mse_loss(g, squashed, labels)
        }
    }
}

/// Copies the rows of `idx` out of a row-major feature/label group.
pub fn gather_rows(
    features: &[f32],
    labels: &[f32],
    fs: usize,
    idx: &[usize],
) -> (Vec<f32>, Vec<f32>) {
    let mut f = Vec::with_capacity(idx.len() * fs);
    let mut l = Vec::with_capacity(idx.len());
    for &i in idx {
        f.extend_from_slice(&features[i * fs..(i + 1) * fs]);
        l.push(labels[i]);
    }
    (f, l)
}

/// Splits group indices `0..n_groups` into (train, valid) index sets, both
/// ascending. Uses its own RNG (salted from `seed`) so enabling a split
/// leaves the training shuffle stream untouched.
pub fn split_group_indices(
    n_groups: usize,
    valid_frac: f64,
    seed: u64,
) -> (Vec<usize>, Vec<usize>) {
    if valid_frac <= 0.0 {
        return ((0..n_groups).collect(), Vec::new());
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5a17);
    let mut idx: Vec<usize> = (0..n_groups).collect();
    idx.shuffle(&mut rng);
    let n_valid = ((n_groups as f64) * valid_frac).round() as usize;
    // Never hold out everything: training needs at least one group.
    let n_valid = n_valid.min(n_groups.saturating_sub(1));
    let mut valid: Vec<usize> = idx[..n_valid].to_vec();
    let mut train: Vec<usize> = idx[n_valid..].to_vec();
    valid.sort_unstable();
    train.sort_unstable();
    (train, valid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_resolve_auto_knobs() {
        let o = TrainOptions::default().with_workers(0).with_grad_accum(0);
        assert!(o.effective_workers() >= 1);
        assert_eq!(o.effective_grad_accum(), o.effective_workers());
        let o = o.with_workers(3).with_grad_accum(5);
        assert_eq!(o.effective_workers(), 3);
        assert_eq!(o.effective_grad_accum(), 5);
    }

    #[test]
    fn checkpoint_load_rejects_corrupt_and_misversioned_files() {
        let path = std::env::temp_dir().join("tlp_train_ckpt_corrupt.json");
        std::fs::write(&path, "{\"format_ver").expect("write");
        assert!(matches!(
            TrainCheckpoint::load(&path),
            Err(PersistError::Format(_))
        ));
        std::fs::write(&path, "{\"format_version\": 9999}").expect("write");
        assert!(matches!(
            TrainCheckpoint::load(&path),
            Err(PersistError::Version { found: 9999, .. })
        ));
        assert!(matches!(
            TrainCheckpoint::load("/nonexistent/ckpt.json"),
            Err(PersistError::Io(_))
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn split_group_indices_is_disjoint_and_salted() {
        let (tr, va) = split_group_indices(10, 0.3, 7);
        assert_eq!(tr.len(), 7);
        assert_eq!(va.len(), 3);
        let mut all: Vec<usize> = tr.iter().chain(&va).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        // No split leaves every group in training.
        let (tr, va) = split_group_indices(4, 0.0, 7);
        assert_eq!(tr, vec![0, 1, 2, 3]);
        assert!(va.is_empty());
        // A full split still keeps one training group.
        let (tr, _) = split_group_indices(4, 1.0, 7);
        assert_eq!(tr.len(), 1);
    }
}
