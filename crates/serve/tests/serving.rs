//! Serving-layer integration suite: concurrent equivalence with the direct
//! engine path, hot-swap under load, admission control, deadlines,
//! graceful shutdown, and the autotuner backend adapter.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tlp::engine::{EngineConfig, InferenceEngine};
use tlp::features::FeatureExtractor;
use tlp::search::TlpScorer;
use tlp::{TlpConfig, TlpModel};
use tlp_autotuner::{
    tune_network, Candidate, CostModel, EvolutionConfig, ScoreRequest, SearchTask, SketchPolicy,
    TuningOptions,
};
use tlp_hwsim::Platform;
use tlp_schedule::{ScheduleSequence, Vocabulary};
use tlp_serve::{BatchPolicy, ModelRegistry, RemoteCostModel, ServeConfig, ServeError, Server};
use tlp_workload::{bert_tiny, AnchorOp, Subgraph};

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

fn candidates(n: usize, seed: u64) -> Vec<ScheduleSequence> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let t = task();
    (0..n)
        .map(|_| Candidate::random(&SketchPolicy::cpu(), &t.subgraph, &mut rng).sequence)
        .collect()
}

fn scorer(seed: u64) -> (TlpModel, FeatureExtractor) {
    let cfg = TlpConfig {
        seed,
        ..TlpConfig::test_scale()
    };
    let ex = FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
    (TlpModel::new(cfg), ex)
}

fn serving_registry(seed: u64) -> Arc<ModelRegistry> {
    let reg = Arc::new(ModelRegistry::new(EngineConfig::default()));
    let (model, ex) = scorer(seed);
    reg.install_tlp("m", model, ex).expect("valid model");
    reg
}

#[test]
fn concurrent_clients_match_direct_engine_bit_for_bit() {
    let t = task();
    let (model, ex) = scorer(7);
    // Direct path: private engine, single thread.
    let direct_engine = InferenceEngine::new(EngineConfig::default());
    let direct_scorer = TlpScorer {
        model,
        extractor: ex,
    };
    let server = Server::start(serving_registry(7), ServeConfig::default());

    const CLIENTS: usize = 8;
    let per_client: Vec<Vec<ScheduleSequence>> = (0..CLIENTS)
        .map(|c| candidates(12, 100 + c as u64))
        .collect();
    let expected: Vec<Vec<Option<f32>>> = per_client
        .iter()
        .map(|batch| direct_engine.score(&direct_scorer, &t, batch).0)
        .collect();

    let got: Vec<Vec<Option<f32>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_client
            .iter()
            .map(|batch| {
                let client = server.client();
                let t = &t;
                scope.spawn(move || client.score("m", t, batch).expect("score").scores)
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (c, (exp, act)) in expected.iter().zip(&got).enumerate() {
        assert_eq!(exp, act, "client {c} diverged from the direct engine");
    }
    let snap = server.shutdown();
    assert_eq!(snap.completed, CLIENTS as u64);
    assert_eq!(snap.queue_depth, 0);
}

#[test]
fn coalesced_jobs_share_engine_batches() {
    // One batcher, kept busy scoring a large cold job for another task.
    // The small jobs queued behind it share one key, so the batcher takes
    // them together when it comes back: fewer engine batches than jobs,
    // with every job's scores still bit-equal to the direct engine.
    let server = Server::start(
        serving_registry(3),
        ServeConfig {
            batchers: 1,
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    // Same subgraph on another platform: a different task, cold in cache.
    let busy_task = SearchTask::new(task().subgraph, Platform::epyc_7452());
    let busy_pool = candidates(4096, 9);
    let busy = client
        .submit("m", &busy_task, &busy_pool, None)
        .expect("admit busy job");

    const JOBS: usize = 6;
    let t = task();
    let pools: Vec<Vec<ScheduleSequence>> =
        (0..JOBS).map(|j| candidates(4, 50 + j as u64)).collect();
    let pending: Vec<_> = pools
        .iter()
        .map(|pool| client.submit("m", &t, pool, None).expect("admit"))
        .collect();
    let replies: Vec<_> = pending
        .into_iter()
        .map(|p| p.wait().expect("coalesced reply"))
        .collect();
    assert_eq!(busy.wait().expect("busy reply").batch_jobs, 1);

    let (model, ex) = scorer(3);
    let direct_engine = InferenceEngine::new(EngineConfig::default());
    let direct_scorer = TlpScorer {
        model,
        extractor: ex,
    };
    for (j, (reply, pool)) in replies.iter().zip(&pools).enumerate() {
        assert!(reply.batch_jobs > 1, "job {j} ran alone");
        assert_eq!(
            reply.scores,
            direct_engine.score(&direct_scorer, &t, pool).0,
            "job {j} diverged from the direct engine"
        );
    }
    let snap = server.shutdown();
    let small_batches = snap.batches - 1;
    assert!(
        small_batches < JOBS as u64,
        "{JOBS} jobs took {small_batches} engine batches"
    );
}

#[test]
fn hot_swap_under_load_fails_zero_requests() {
    let reg = serving_registry(1);
    let server = Server::start(
        Arc::clone(&reg),
        ServeConfig {
            queue_capacity: 4096,
            ..ServeConfig::default()
        },
    );
    let t = task();
    let pool = candidates(10, 11);

    // Ground truth from both versions, computed on private engines.
    let truth = |seed: u64| {
        let (model, ex) = scorer(seed);
        let engine = InferenceEngine::new(EngineConfig::default());
        let s = TlpScorer {
            model,
            extractor: ex,
        };
        engine.score(&s, &t, &pool).0
    };
    let v1_scores = truth(1);
    let v2_scores = truth(2);
    assert_ne!(
        v1_scores, v2_scores,
        "seeds must give distinguishable models"
    );

    let stop = AtomicBool::new(false);
    let (oks, v2_seen) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..8)
            .map(|_| {
                let client = server.client();
                let (t, pool, stop) = (&t, &pool, &stop);
                let (v1, v2) = (&v1_scores, &v2_scores);
                scope.spawn(move || {
                    let mut oks = 0u64;
                    let mut saw_v2 = false;
                    while !stop.load(Ordering::Relaxed) {
                        let reply = client
                            .score("m", t, pool)
                            .expect("hot-swap broke a request");
                        // Every reply is exactly one of the two versions,
                        // never a mixture.
                        assert!(
                            reply.scores == *v1 || reply.scores == *v2,
                            "scores mixed across versions"
                        );
                        saw_v2 |= reply.scores == *v2;
                        oks += 1;
                    }
                    (oks, saw_v2)
                })
            })
            .collect();
        // Swap in the middle of the storm.
        std::thread::sleep(Duration::from_millis(20));
        let (m2, e2) = scorer(2);
        reg.install_tlp("m", m2, e2).expect("valid model");
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::Relaxed);
        clients
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0u64, false), |(a, b), (oks, saw)| (a + oks, b || saw))
    });
    assert!(oks > 0);
    // After the swap settles, new requests see the new version.
    let reply = server
        .client()
        .score("m", &t, &pool)
        .expect("post-swap score");
    assert_eq!(reply.scores, v2_scores);
    assert!(v2_seen || reply.scores == v2_scores);
    let snap = server.shutdown();
    assert_eq!(snap.expired, 0);
    assert_eq!(snap.rejected_overload, 0);
}

#[test]
fn overload_is_typed_bounded_and_immediate() {
    const CAPACITY: usize = 4;
    // Paused server (no batchers): the queue can only fill.
    let server = Server::start(
        serving_registry(9),
        ServeConfig {
            queue_capacity: CAPACITY,
            batchers: 0,
            ..ServeConfig::default()
        },
    );
    let t = task();
    let pool = candidates(2, 13);
    let client = server.client();
    let mut pending = Vec::new();
    for _ in 0..CAPACITY {
        pending.push(client.submit("m", &t, &pool, None).expect("under capacity"));
    }
    // Client K+1 is rejected instantly with the typed error — it never
    // blocks and never grows the queue.
    for _ in 0..3 {
        assert_eq!(
            client.submit("m", &t, &pool, None).err(),
            Some(ServeError::Overloaded { capacity: CAPACITY }),
        );
    }
    let snap = client.stats();
    assert_eq!(snap.queue_depth, CAPACITY, "rejected work must not enqueue");
    assert_eq!(snap.rejected_overload, 3);
    assert_eq!(snap.submitted, CAPACITY as u64);
    drop(server);
    for p in pending {
        assert!(p.wait().is_err());
    }
}

#[test]
fn unknown_model_fails_fast() {
    let server = Server::start(serving_registry(2), ServeConfig::default());
    let t = task();
    let pool = candidates(1, 17);
    assert_eq!(
        server.client().score("nope", &t, &pool).err(),
        Some(ServeError::UnknownModel("nope".to_string())),
    );
    assert_eq!(server.shutdown().unknown_model, 1);
}

#[test]
fn expired_deadline_is_dropped_server_side() {
    // A zero deadline is already expired when the batcher picks the job up,
    // so the server must answer DeadlineExceeded without scoring it.
    let server = Server::start(serving_registry(4), ServeConfig::default());
    let t = task();
    let pool = candidates(2, 19);
    let err = server
        .client()
        .score_with_deadline("m", &t, &pool, Duration::ZERO)
        .err();
    assert_eq!(err, Some(ServeError::DeadlineExceeded));
    let snap = server.shutdown();
    assert_eq!(snap.expired, 1);
    assert_eq!(snap.completed, 0);
}

#[test]
fn deadline_expires_client_side_when_server_is_stalled() {
    // Paused server: the job sits queued forever; the client must time out
    // on its own rather than hang.
    let server = Server::start(
        serving_registry(5),
        ServeConfig {
            queue_capacity: 8,
            batchers: 0,
            ..ServeConfig::default()
        },
    );
    let t = task();
    let pool = candidates(1, 23);
    let err = server
        .client()
        .score_with_deadline("m", &t, &pool, Duration::from_millis(10))
        .err();
    assert_eq!(err, Some(ServeError::DeadlineExceeded));
}

#[test]
fn graceful_shutdown_drains_admitted_work() {
    let server = Server::start(
        serving_registry(6),
        ServeConfig {
            queue_capacity: 1024,
            batchers: 1,
            policy: BatchPolicy { max_batch: 8 },
            ..ServeConfig::default()
        },
    );
    let t = task();
    let pool = candidates(3, 29);
    let client = server.client();
    let pending: Vec<_> = (0..32)
        .map(|_| client.submit("m", &t, &pool, None).expect("admit"))
        .collect();
    let snap = server.shutdown();
    // Every admitted request was answered with scores, none abandoned.
    for p in pending {
        let reply = p.wait().expect("drained reply");
        assert_eq!(reply.scores.len(), pool.len());
    }
    assert_eq!(snap.completed, 32);
    assert_eq!(snap.queue_depth, 0);
    // Submissions after shutdown fail typed.
    assert_eq!(
        client.submit("m", &t, &pool, None).err(),
        Some(ServeError::ShuttingDown),
    );
}

#[test]
fn remote_cost_model_matches_local_scorer_and_tunes() {
    let t = task();
    let pool = candidates(8, 31);
    let server = Server::start(serving_registry(8), ServeConfig::default());
    let remote = RemoteCostModel::new(server.client(), "m");

    // predict() through the server == predict() through the local adapter.
    let (model, ex) = scorer(8);
    let local = tlp::FeatureModel::with_engine(
        TlpScorer {
            model,
            extractor: ex,
        },
        EngineConfig::default(),
    );
    let want = local.predict(ScoreRequest::new(&t, &pool));
    let got = remote.predict(ScoreRequest::new(&t, &pool));
    assert!(want.scores().eq(got.scores()));
    assert_eq!(want.valid, got.valid);
    assert_eq!(remote.name(), "serve:m");
    assert_eq!(remote.errors(), 0);

    // The adapter drives a full (tiny) tuning run through the server.
    let net = bert_tiny(1, 32);
    let mut remote: Box<dyn CostModel> = Box::new(remote);
    let report = tune_network(
        &net,
        &Platform::i7_10510u(),
        &mut remote,
        &TuningOptions {
            rounds: net.num_tasks(),
            programs_per_round: 2,
            evolution: EvolutionConfig {
                population: 8,
                generations: 1,
                ..EvolutionConfig::default()
            },
            nominal_pool: 100,
            seed: 37,
            ..TuningOptions::default()
        },
    );
    assert_eq!(report.rounds.len(), net.num_tasks());
    let snap = server.shutdown();
    assert!(snap.completed > 0);
    assert_eq!(snap.queue_depth, 0);
}

#[test]
fn remote_cost_model_degrades_on_serve_errors() {
    // Paused zero-capacity server: every request is rejected Overloaded;
    // the adapter must yield all-invalid batches, not panic.
    let server = Server::start(
        serving_registry(10),
        ServeConfig {
            queue_capacity: 0,
            batchers: 0,
            ..ServeConfig::default()
        },
    );
    let t = task();
    let pool = candidates(4, 41);
    let remote = RemoteCostModel::new(server.client(), "m").with_deadline(Duration::from_millis(5));
    let batch = remote.predict(ScoreRequest::new(&t, &pool));
    assert_eq!(batch.len(), pool.len());
    assert_eq!(batch.num_invalid(), pool.len());
    assert_eq!(remote.errors(), 1);
}

#[test]
fn invalid_schedule_is_rejected_at_admission() {
    use tlp_schedule::{ConcretePrimitive, PrimitiveKind};

    let server = Server::start(serving_registry(12), ServeConfig::default());
    let t = task();
    let mut pool = candidates(3, 43);
    // Corrupt the middle candidate: reference a loop var that never existed.
    pool[1].push(
        ConcretePrimitive::new(PrimitiveKind::Annotation, "d")
            .with_loops(["ghost"])
            .with_extras(["parallel"]),
    );
    let err = server.client().score("m", &t, &pool).unwrap_err();
    match err {
        ServeError::InvalidSchedule { index, diagnostics } => {
            assert_eq!(index, 1);
            assert!(!diagnostics.is_empty());
        }
        other => panic!("expected InvalidSchedule, got {other:?}"),
    }
    let snap = server.shutdown();
    assert_eq!(snap.rejected_invalid, 1);
    assert_eq!(snap.completed, 0, "invalid request must never be scored");
}

#[test]
fn admission_validation_can_be_disabled() {
    // With the gate off, the same corrupted schedule is admitted (a paused
    // server just queues it — execution would mask it as unscoreable).
    let server = Server::start(
        serving_registry(14),
        ServeConfig {
            batchers: 0,
            validate_admission: false,
            ..ServeConfig::default()
        },
    );
    let t = task();
    let mut pool = candidates(1, 47);
    pool[0].push(
        tlp_schedule::ConcretePrimitive::new(tlp_schedule::PrimitiveKind::Fuse, "d")
            .with_loops(["ghost_a", "ghost_b"]),
    );
    let pending = server
        .client()
        .submit("m", &t, &pool, None)
        .expect("admitted");
    assert_eq!(server.client().stats().queue_depth, 1);
    drop(server);
    assert_eq!(pending.wait().err(), Some(ServeError::ShuttingDown));
}
