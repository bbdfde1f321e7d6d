//! Serving-layer load benchmark: closed-loop multi-client throughput
//! through `tlp-serve` vs a single unbatched client scoring directly on the
//! cost model, writing `BENCH_serving.json`.
//!
//! Each of [`REPEATS`] repeats times both sides for at least
//! [`MIN_SECONDS`] of wall clock: the unbatched baseline (one candidate
//! scored per call, private model, no coalescing, no cache reuse across
//! clients) cycles over the pool, and 8 closed-loop clients run rounds
//! against a fresh, warmed server. The record keeps every repeat plus the
//! median and IQR of baseline cand/s, serving cand/s, speedup and client
//! jobs per engine batch. Zero failed requests is the hard gate.
//!
//! A batch is whatever is queued for its key when a batcher picks it;
//! nothing waits. So `mean_jobs_per_batch` counts the client jobs that were
//! already queued together when a batcher came back for more work.
//!
//! The speedup is a recorded metric, warned on below 1.0 rather than
//! hard-asserted. Over a window this long both sides mostly re-score the
//! 256-candidate pool from a warm score cache, so the ratio sets a direct
//! cache-hit call against the serve request path (admission, queue hop,
//! reply channel), and the request path costs more. The fleet bench
//! (`serving_fleet`) measures multi-shard scaling in simulated time.
//!
//! Run with `cargo bench -p tlp-bench --bench serving_load`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;
use tlp::engine::EngineConfig;
use tlp::features::FeatureExtractor;
use tlp::search::TlpScorer;
use tlp::{FeatureModel, TlpConfig, TlpModel};
use tlp_autotuner::{CostModel, ScoreRequest, SearchTask};
use tlp_bench::{write_json, Spread};
use tlp_hwsim::Platform;
use tlp_schedule::{ScheduleSequence, Vocabulary};
use tlp_serve::{
    random_pool, run_closed_loop, HistogramSnapshot, LoadReport, LoadgenOptions, ModelRegistry,
    ServeConfig, ServeSnapshot, Server,
};
use tlp_workload::{AnchorOp, Subgraph};

const CLIENTS: usize = 8;
/// Requests each client issues per closed-loop round; rounds repeat until
/// the timed window is filled.
const REQUESTS_PER_ROUND: usize = 50;
const WARMUP_REQUESTS_PER_CLIENT: usize = 5;
const BATCH: usize = 16;
const POOL: usize = 256;
/// Independent repeats of both sides; the record keeps median and IQR.
const REPEATS: usize = 5;
/// Minimum timed wall-clock seconds per side per repeat.
const MIN_SECONDS: f64 = 1.0;

fn task() -> SearchTask {
    SearchTask::new(
        Subgraph::new(
            "d",
            AnchorOp::Dense {
                m: 128,
                n: 128,
                k: 128,
            },
        ),
        Platform::i7_10510u(),
    )
}

fn model_and_extractor() -> (TlpModel, FeatureExtractor) {
    let cfg = TlpConfig::test_scale();
    let ex = FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
    (TlpModel::new(cfg), ex)
}

/// Single client, no serving layer, no batching: one candidate per
/// `predict` call against a private engine-backed model, cycling over the
/// pool for at least [`MIN_SECONDS`]. Returns `(candidates, wall_s)`.
///
/// Starts *cold* — a fresh model with no warmup. The baseline models what
/// a tuning farm without a serving layer actually runs: every tuner is a
/// fresh process with a fresh model, so it pays first-touch costs and one
/// cache miss per pool candidate; the rest of the window re-scores the pool
/// from its own cache. The long-lived server pays first-touch costs once
/// at install, which is why the serving side warms up first.
fn unbatched_baseline(t: &SearchTask, pool: &[ScheduleSequence]) -> (usize, f64) {
    let (model, ex) = model_and_extractor();
    let local = FeatureModel::with_engine(
        TlpScorer {
            model,
            extractor: ex,
        },
        EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
    );
    let start = Instant::now();
    let mut scored = 0usize;
    while start.elapsed().as_secs_f64() < MIN_SECONDS {
        for _ in 0..BATCH {
            let one = std::slice::from_ref(&pool[scored % pool.len()]);
            scored += local.predict(ScoreRequest::new(t, one)).len();
        }
    }
    (scored, start.elapsed().as_secs_f64())
}

/// A fresh server, warmed on a distinct task, then closed-loop rounds over
/// `pool` until at least [`MIN_SECONDS`] of timed wall clock. Returns
/// `(requests, wall_s, mean_jobs_per_batch, last round)`, with jobs per
/// batch counted over the timed rounds only.
fn serving_run(t: &SearchTask, pool: &[ScheduleSequence]) -> (u64, f64, f64, LoadReport) {
    let registry = Arc::new(ModelRegistry::new(EngineConfig::default()));
    let (model, ex) = model_and_extractor();
    registry
        .install_tlp("tlp", model, ex)
        .expect("fresh model passes audit");
    let server = Server::start(registry, ServeConfig::default());
    let client = server.client();
    let opts = |requests_per_client| LoadgenOptions {
        clients: CLIENTS,
        requests_per_client,
        batch: BATCH,
        deadline: None,
    };

    // Warmup pass over a *different task*: spins up batcher threads,
    // faults in engine buffers, and exercises the queue before the
    // measured loop. The task is part of the score-cache key, so this
    // cannot pre-fill any entry the measured pool will hit — the
    // measured run's cache behavior stays exactly as cold as the
    // baseline's.
    let warm_task = SearchTask::new(
        Subgraph::new(
            "warm",
            AnchorOp::Dense {
                m: 160,
                n: 96,
                k: 96,
            },
        ),
        Platform::i7_10510u(),
    );
    let warm_pool = random_pool(&warm_task, WARMUP_REQUESTS_PER_CLIENT * BATCH, 0x3A9D_11C4);
    let warm = run_closed_loop(
        &client,
        "tlp",
        &warm_task,
        &warm_pool,
        &opts(WARMUP_REQUESTS_PER_CLIENT),
    );
    assert_eq!(warm.errors, 0, "warmup must not fail requests");

    let before = client.stats();
    let (mut requests, mut wall_s) = (0, 0.0);
    loop {
        let round = run_closed_loop(&client, "tlp", t, pool, &opts(REQUESTS_PER_ROUND));
        assert_eq!(round.errors, 0, "serving under load must not fail requests");
        requests += round.ok;
        wall_s += round.wall_s;
        if wall_s >= MIN_SECONDS {
            let after = &round.server;
            let jobs_per_batch = (after.coalesced_jobs - before.coalesced_jobs) as f64
                / (after.batches - before.batches) as f64;
            return (requests, wall_s, jobs_per_batch, round);
        }
    }
}

/// One repeat of both sides.
#[derive(Serialize)]
struct Repeat {
    baseline_candidates: usize,
    baseline_wall_s: f64,
    baseline_candidates_per_s: f64,
    serving_requests: u64,
    serving_wall_s: f64,
    serving_candidates_per_s: f64,
    mean_jobs_per_batch: f64,
    speedup: f64,
    /// Client-observed request latency over the final timed round.
    client_latency_us: HistogramSnapshot,
}

#[derive(Serialize)]
struct ServingSummary {
    clients: usize,
    batch: usize,
    pool: usize,
    requests_per_round: usize,
    repeats: usize,
    min_seconds: f64,
    baseline_candidates_per_s: Spread,
    serving_candidates_per_s: Spread,
    speedup: Spread,
    mean_jobs_per_batch: Spread,
    /// Median of `speedup`, under the name the CI warn step reads.
    speedup_vs_unbatched_single_client: f64,
    runs: Vec<Repeat>,
    /// The last repeat's server snapshot (counters include its warmup).
    server: ServeSnapshot,
}

fn main() {
    let t = task();
    let pool = random_pool(&t, POOL, 0xBE7C);

    let mut runs = Vec::with_capacity(REPEATS);
    let mut server = None;
    for repeat in 1..=REPEATS {
        let (baseline_candidates, baseline_wall_s) = unbatched_baseline(&t, &pool);
        let (serving_requests, serving_wall_s, mean_jobs_per_batch, last_round) =
            serving_run(&t, &pool);
        let baseline_candidates_per_s = baseline_candidates as f64 / baseline_wall_s;
        let serving_candidates_per_s = (serving_requests * BATCH as u64) as f64 / serving_wall_s;
        let speedup = serving_candidates_per_s / baseline_candidates_per_s;
        println!(
            "repeat {repeat}/{REPEATS}: baseline {baseline_candidates_per_s:.0} cand/s | \
             serving {serving_candidates_per_s:.0} cand/s ({speedup:.2}x) | \
             {mean_jobs_per_batch:.2} jobs/batch",
        );
        runs.push(Repeat {
            baseline_candidates,
            baseline_wall_s,
            baseline_candidates_per_s,
            serving_requests,
            serving_wall_s,
            serving_candidates_per_s,
            mean_jobs_per_batch,
            speedup,
            client_latency_us: last_round.client_latency_us,
        });
        server = Some(last_round.server);
    }

    let speedup = Spread::of(runs.iter().map(|r| r.speedup));
    let summary = ServingSummary {
        clients: CLIENTS,
        batch: BATCH,
        pool: POOL,
        requests_per_round: REQUESTS_PER_ROUND,
        repeats: REPEATS,
        min_seconds: MIN_SECONDS,
        baseline_candidates_per_s: Spread::of(runs.iter().map(|r| r.baseline_candidates_per_s)),
        serving_candidates_per_s: Spread::of(runs.iter().map(|r| r.serving_candidates_per_s)),
        mean_jobs_per_batch: Spread::of(runs.iter().map(|r| r.mean_jobs_per_batch)),
        speedup_vs_unbatched_single_client: speedup.median,
        speedup,
        runs,
        server: server.expect("at least one repeat"),
    };
    let (b, s) = (
        summary.baseline_candidates_per_s.median,
        summary.serving_candidates_per_s.median,
    );
    println!(
        "median over {REPEATS}: speedup {:.2}x (IQR {:.2}), {:.2} jobs/batch (IQR {:.2})",
        summary.speedup.median,
        summary.speedup.iqr,
        summary.mean_jobs_per_batch.median,
        summary.mean_jobs_per_batch.iqr,
    );
    if summary.speedup.median < 1.0 {
        println!(
            "warning: batched serving ({s:.0}/s) below the single-client unbatched baseline \
             ({b:.0}/s) — expected on a one-core container with a test-scale model (see module doc)",
        );
    }

    write_json("BENCH_serving", &summary);
    // Also drop a copy at the repo root so the acceptance record travels
    // with the source tree, not just the target directory.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serving.json");
    let body = serde_json::to_string_pretty(&summary).expect("serialize summary");
    std::fs::write(&root, body).expect("write BENCH_serving.json");
}
