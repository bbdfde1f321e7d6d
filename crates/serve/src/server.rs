//! The serving front end: bounded admission queue, dynamic batcher threads,
//! and the client handle.
//!
//! Clients submit `(model name, task, candidates)` jobs through a
//! [`ServeClient`]. Admission is bounded: a full queue rejects with
//! [`ServeError::Overloaded`] *before* enqueueing, so rejected load costs
//! O(1) and server memory never grows with it. Batcher threads pull the
//! oldest job, then coalesce every queued job for the same `(model, task)`
//! into one engine batch, up to [`BatchPolicy::max_batch`] candidates, so
//! many small tuner requests amortize into the engine's micro-batched
//! parallel path. A batch is whatever is queued for its key when a batcher
//! picks it; nothing waits. Each batch scores on the [`ModelVersion`]
//! resolved at execution time and carries that version tag back to the
//! client; a hot-swap between two batches is invisible to in-flight work.
//!
//! Shutdown is graceful: new submissions fail with
//! [`ServeError::ShuttingDown`] while batchers keep flushing until the queue
//! is empty, so every admitted request gets an answer.

use crate::error::ServeError;
use crate::registry::ModelRegistry;
use crate::stats::{ServeSnapshot, ServeStats};
use crate::tenant::{TenantPolicy, TenantTable, DEFAULT_TENANT};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tlp::engine::task_fingerprint;
use tlp_autotuner::{BatchStats, SearchTask};
use tlp_schedule::ScheduleSequence;

/// Dynamic-batching policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Stop coalescing once a batch holds this many candidates. Not a hard
    /// split: a single oversized job still runs whole (the engine
    /// micro-batches internally).
    pub max_batch: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy { max_batch: 512 }
    }
}

/// Server sizing knobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Admission-queue capacity; submission `capacity + 1` while the queue
    /// is full gets [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Batcher threads. `0` starts a paused server that admits but never
    /// executes jobs — useful for tests exercising admission control;
    /// [`Server::shutdown`] then answers leftovers with
    /// [`ServeError::ShuttingDown`].
    pub batchers: usize,
    /// Coalescing policy.
    pub policy: BatchPolicy,
    /// Statically verify every submitted schedule at admission
    /// ([`tlp_verify::verify`]) and reject requests whose schedules carry
    /// verifier *errors* with [`ServeError::InvalidSchedule`]. Warnings and
    /// lints never reject. On by default: an invalid schedule would waste a
    /// batcher slot scoring a program the lowerer rejects anyway.
    pub validate_admission: bool,
    /// Per-tenant QoS: weighted admission shares and fair-share dispatch.
    /// The default policy has a single auto-registered tenant class, which
    /// reduces to plain FIFO + global capacity — identical to pre-tenant
    /// behavior.
    pub tenants: TenantPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 1024,
            batchers: 2,
            policy: BatchPolicy::default(),
            validate_admission: true,
            tenants: TenantPolicy::default(),
        }
    }
}

/// A completed score request.
#[derive(Clone, Debug)]
pub struct ScoreReply {
    /// Per-candidate optional scores, parallel to the submitted schedules
    /// (`None` = unscoreable candidate).
    pub scores: Vec<Option<f32>>,
    /// The model version that produced the scores.
    pub model_version: u64,
    /// Engine accounting for the *coalesced* batch this job rode in (shared
    /// by all jobs in the batch).
    pub stats: BatchStats,
    /// Time this job spent queued before its batch executed, µs.
    pub queue_us: u64,
    /// Number of client jobs coalesced into the engine batch.
    pub batch_jobs: usize,
}

struct Job {
    tenant: String,
    model: String,
    task_fp: u64,
    task: SearchTask,
    schedules: Vec<ScheduleSequence>,
    deadline: Option<Instant>,
    enqueued: Instant,
    reply: mpsc::Sender<Result<ScoreReply, ServeError>>,
}

struct QueueState {
    queue: VecDeque<Job>,
    tenants: TenantTable,
    shutdown: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    cv: Condvar,
    capacity: usize,
    validate_admission: bool,
    stats: ServeStats,
    registry: Arc<ModelRegistry>,
}

impl Shared {
    /// Locks the queue state, recovering from poisoning: a batcher that
    /// panicked mid-batch leaves the queue structurally intact (jobs are
    /// popped before scoring), so continuing with the inner state is safe
    /// and keeps the other batchers and clients alive.
    fn lock_state(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn snapshot(&self) -> ServeSnapshot {
        let (depth, tenants) = {
            let st = self.lock_state();
            (st.queue.len(), st.tenants.snapshot())
        };
        self.stats.snapshot(
            depth,
            self.registry.rejected_installs(),
            self.registry.stats(),
            tenants,
        )
    }
}

/// The serving layer: owns the queue and the batcher threads.
///
/// Create with [`Server::start`], hand out [`ServeClient`]s via
/// [`Server::client`], and stop with [`Server::shutdown`] (dropping the
/// server shuts it down too).
pub struct Server {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts `config.batchers` batcher threads over `registry`.
    pub fn start(registry: Arc<ModelRegistry>, config: ServeConfig) -> Server {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::with_capacity(config.queue_capacity.min(1 << 16)),
                tenants: TenantTable::new(&config.tenants),
                shutdown: false,
            }),
            cv: Condvar::new(),
            capacity: config.queue_capacity,
            validate_admission: config.validate_admission,
            stats: ServeStats::default(),
            registry,
        });
        let handles = (0..config.batchers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let policy = config.policy;
                std::thread::Builder::new()
                    .name(format!("tlp-serve-batcher-{i}"))
                    .spawn(move || batcher_loop(&shared, policy))
                    .unwrap_or_else(|e| panic!("spawn batcher thread: {e}"))
            })
            .collect();
        Server { shared, handles }
    }

    /// A cloneable client handle for this server.
    pub fn client(&self) -> ServeClient {
        ServeClient {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The registry this server scores through.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// Point-in-time serving stats (counters, queue depth, latency
    /// percentiles, per-model engine stats).
    pub fn stats(&self) -> ServeSnapshot {
        self.shared.snapshot()
    }

    /// Graceful shutdown: stops admitting, lets batchers drain every queued
    /// job, joins them, and returns the final stats snapshot. With zero
    /// batchers, leftover jobs are answered [`ServeError::ShuttingDown`].
    pub fn shutdown(mut self) -> ServeSnapshot {
        self.stop();
        self.shared.snapshot()
    }

    fn stop(&mut self) {
        {
            let mut st = self.shared.lock_state();
            st.shutdown = true;
        }
        self.shared.cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // Only reachable with zero batchers: nobody will drain the queue.
        let leftovers: Vec<Job> = {
            let mut st = self.shared.lock_state();
            st.queue.drain(..).collect()
        };
        for job in leftovers {
            let _ = job.reply.send(Err(ServeError::ShuttingDown));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A cheap, cloneable handle submitting score requests to a [`Server`].
#[derive(Clone)]
pub struct ServeClient {
    shared: Arc<Shared>,
}

impl ServeClient {
    /// Scores `schedules` for `task` on the model named `model`, blocking
    /// until the reply arrives.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`]: unknown model, full queue, shutdown, or a dropped
    /// reply channel.
    pub fn score(
        &self,
        model: &str,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
    ) -> Result<ScoreReply, ServeError> {
        self.submit(model, task, schedules, None)?.wait()
    }

    /// Like [`ServeClient::score`] but attributed to `tenant` for QoS
    /// accounting (weighted admission share, fair-share dispatch). Tenancy
    /// never affects scores or cache keys — only scheduling.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`], including [`ServeError::TenantOverQuota`] when
    /// the tenant is at its admission share.
    pub fn score_as(
        &self,
        tenant: &str,
        model: &str,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        deadline: Option<Duration>,
    ) -> Result<ScoreReply, ServeError> {
        self.submit_as(tenant, model, task, schedules, deadline)?
            .wait()
    }

    /// Like [`ServeClient::score`] with a deadline: the request fails with
    /// [`ServeError::DeadlineExceeded`] if scoring has not completed within
    /// `deadline` of submission (checked both server-side before scoring and
    /// client-side while waiting).
    ///
    /// # Errors
    ///
    /// Any [`ServeError`].
    pub fn score_with_deadline(
        &self,
        model: &str,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        deadline: Duration,
    ) -> Result<ScoreReply, ServeError> {
        self.submit(model, task, schedules, Some(deadline))?.wait()
    }

    /// Submits without waiting, returning a [`PendingScore`] to collect
    /// later. Lets one client pipeline several requests.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`], [`ServeError::Overloaded`], or
    /// [`ServeError::ShuttingDown`] — all admission-time failures.
    pub fn submit(
        &self,
        model: &str,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        deadline: Option<Duration>,
    ) -> Result<PendingScore, ServeError> {
        self.submit_as(DEFAULT_TENANT, model, task, schedules, deadline)
    }

    /// Like [`ServeClient::submit`] but attributed to `tenant`.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`], [`ServeError::Overloaded`],
    /// [`ServeError::TenantOverQuota`], or [`ServeError::ShuttingDown`] —
    /// all admission-time failures.
    pub fn submit_as(
        &self,
        tenant: &str,
        model: &str,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        deadline: Option<Duration>,
    ) -> Result<PendingScore, ServeError> {
        // Fast-fail before paying for the clone: an unknown model can never
        // become scoreable by queueing (installs race admission either way).
        if self.shared.registry.resolve(model).is_none() {
            ServeStats::bump(&self.shared.stats.unknown_model);
            return Err(ServeError::UnknownModel(model.to_string()));
        }
        // Static verification gate: reject before cloning or enqueueing, so
        // an invalid schedule costs O(verify) and never reaches a batcher.
        if self.shared.validate_admission {
            let opts = tlp_verify::VerifyOptions {
                gpu: Some(task.platform.is_gpu()),
                ..tlp_verify::VerifyOptions::default()
            };
            for (index, schedule) in schedules.iter().enumerate() {
                let report = tlp_verify::verify_with(&task.subgraph, schedule, &opts);
                if report.has_errors() {
                    ServeStats::bump(&self.shared.stats.rejected_invalid);
                    return Err(ServeError::InvalidSchedule {
                        index,
                        diagnostics: report.diagnostics,
                    });
                }
            }
        }
        let now = Instant::now();
        let (tx, rx) = mpsc::channel();
        let job = Job {
            tenant: tenant.to_string(),
            model: model.to_string(),
            task_fp: task_fingerprint(task),
            task: task.clone(),
            schedules: schedules.to_vec(),
            deadline: deadline.map(|d| now + d),
            enqueued: now,
            reply: tx,
        };
        {
            let mut st = self.shared.lock_state();
            if st.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if st.queue.len() >= self.shared.capacity {
                ServeStats::bump(&self.shared.stats.rejected_overload);
                return Err(ServeError::Overloaded {
                    capacity: self.shared.capacity,
                });
            }
            if let Err(share) = st.tenants.admit(tenant, self.shared.capacity) {
                ServeStats::bump(&self.shared.stats.rejected_quota);
                return Err(ServeError::TenantOverQuota {
                    tenant: tenant.to_string(),
                    share,
                });
            }
            st.queue.push_back(job);
        }
        ServeStats::bump(&self.shared.stats.submitted);
        self.shared.cv.notify_one();
        Ok(PendingScore {
            rx,
            deadline: deadline.map(|d| now + d),
        })
    }

    /// Current serving stats.
    pub fn stats(&self) -> ServeSnapshot {
        self.shared.snapshot()
    }
}

/// An in-flight request; consume with [`PendingScore::wait`].
pub struct PendingScore {
    rx: mpsc::Receiver<Result<ScoreReply, ServeError>>,
    deadline: Option<Instant>,
}

impl PendingScore {
    /// Blocks until the reply arrives (or the deadline passes).
    ///
    /// # Errors
    ///
    /// The server's reply error, [`ServeError::DeadlineExceeded`] if the
    /// deadline passes first, or [`ServeError::Disconnected`] if the server
    /// was torn down without answering.
    pub fn wait(self) -> Result<ScoreReply, ServeError> {
        match self.deadline {
            None => self.rx.recv().unwrap_or(Err(ServeError::Disconnected)),
            Some(deadline) => {
                let timeout = deadline.saturating_duration_since(Instant::now());
                match self.rx.recv_timeout(timeout) {
                    Ok(reply) => reply,
                    Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::DeadlineExceeded),
                    Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::Disconnected),
                }
            }
        }
    }
}

/// One coalesced unit of work: jobs sharing a `(model, task)` key.
struct Group {
    model: String,
    task_fp: u64,
    jobs: Vec<Job>,
    candidates: usize,
}

impl Group {
    fn seed(job: Job) -> Group {
        Group {
            model: job.model.clone(),
            task_fp: job.task_fp,
            candidates: job.schedules.len(),
            jobs: vec![job],
        }
    }

    /// Moves matching queued jobs into the group until `max_batch`, charging
    /// each move to its tenant. Coalescing crosses tenant boundaries on
    /// purpose: replies are split per job, so sharing a batch shares compute
    /// without sharing scores, and every coalesced job still advances its
    /// own tenant's pass.
    fn top_up(&mut self, queue: &mut VecDeque<Job>, tenants: &mut TenantTable, max_batch: usize) {
        let mut i = 0;
        while i < queue.len() && self.candidates < max_batch {
            if queue[i].model == self.model && queue[i].task_fp == self.task_fp {
                if let Some(job) = queue.remove(i) {
                    tenants.on_dispatch(&job.tenant, job.schedules.len());
                    self.candidates += job.schedules.len();
                    self.jobs.push(job);
                }
            } else {
                i += 1;
            }
        }
    }
}

/// Pops the queued job whose tenant currently has the lowest virtual pass
/// (stride scheduling; FIFO within a tenant since the scan prefers the
/// earliest index on ties), charging the dispatch to the tenant table. With
/// one tenant this degenerates to `pop_front`.
fn pick_fair(st: &mut QueueState) -> Option<Job> {
    let mut best: Option<(u64, usize)> = None;
    for (i, job) in st.queue.iter().enumerate() {
        let pass = st.tenants.pass_of(&job.tenant);
        if best.is_none_or(|(bp, _)| pass < bp) {
            best = Some((pass, i));
        }
    }
    let (_, idx) = best?;
    let job = st.queue.remove(idx)?;
    st.tenants.on_dispatch(&job.tenant, job.schedules.len());
    Some(job)
}

/// Per-batcher-thread scratch reused across executed batches: the gathered
/// schedule slice for multi-job groups and the engine output buffer. Both
/// warm up once and then serve every subsequent batch without reallocating.
#[derive(Default)]
struct ExecScratch {
    all: Vec<ScheduleSequence>,
    scores: Vec<Option<f32>>,
}

fn batcher_loop(shared: &Shared, policy: BatchPolicy) {
    let mut scratch = ExecScratch::default();
    loop {
        let mut st = shared.lock_state();
        // Sleep until there is work (or we are told to exit).
        loop {
            if !st.queue.is_empty() {
                break;
            }
            if st.shutdown {
                return;
            }
            st = shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        let Some(first) = pick_fair(&mut st) else {
            continue; // Unreachable: the wait loop guarantees a non-empty queue.
        };
        // The batch is whatever is queued for this key right now;
        // nothing waits for more jobs to arrive.
        let mut group = Group::seed(first);
        let QueueState { queue, tenants, .. } = &mut *st;
        group.top_up(queue, tenants, policy.max_batch);
        drop(st);
        execute(shared, group, &mut scratch);
    }
}

fn execute(shared: &Shared, group: Group, scratch: &mut ExecScratch) {
    let model = match shared.registry.resolve(&group.model) {
        Some(m) => m,
        None => {
            // Uninstalled between admission and execution.
            for job in group.jobs {
                ServeStats::bump(&shared.stats.unknown_model);
                let _ = job
                    .reply
                    .send(Err(ServeError::UnknownModel(group.model.clone())));
            }
            return;
        }
    };
    let now = Instant::now();
    let mut live: Vec<Job> = Vec::with_capacity(group.jobs.len());
    for job in group.jobs {
        if job.deadline.is_some_and(|d| now >= d) {
            ServeStats::bump(&shared.stats.expired);
            let _ = job.reply.send(Err(ServeError::DeadlineExceeded));
        } else {
            live.push(job);
        }
    }
    if live.is_empty() {
        return;
    }
    // Single-job groups (the common case under light load) score their
    // schedules in place; only multi-job groups gather into the reused
    // scratch slice. Either way the engine writes into the pooled output
    // buffer — no per-batch score vector.
    let n_candidates;
    let stats;
    if live.len() == 1 {
        n_candidates = live[0].schedules.len();
        stats = model.score_into(&live[0].task, &live[0].schedules, &mut scratch.scores);
    } else {
        scratch.all.clear();
        scratch
            .all
            .extend(live.iter().flat_map(|j| j.schedules.iter().cloned()));
        n_candidates = scratch.all.len();
        stats = model.score_into(&live[0].task, &scratch.all, &mut scratch.scores);
    }
    let scores = &scratch.scores;
    let done = Instant::now();
    let batch_jobs = live.len();
    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .coalesced_jobs
        .fetch_add(batch_jobs as u64, Ordering::Relaxed);
    shared
        .stats
        .candidates
        .fetch_add(n_candidates as u64, Ordering::Relaxed);
    let mut offset = 0;
    for job in live {
        let n = job.schedules.len();
        let queue_us = done
            .saturating_duration_since(job.enqueued)
            .as_micros()
            .min(u64::MAX as u128) as u64;
        let reply = ScoreReply {
            scores: scores[offset..offset + n].to_vec(),
            model_version: model.version(),
            stats,
            queue_us,
            batch_jobs,
        };
        offset += n;
        ServeStats::bump(&shared.stats.completed);
        shared.stats.latency.record(done - job.enqueued);
        let _ = job.reply.send(Ok(reply));
    }
}
