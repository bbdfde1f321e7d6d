//! `serve_hot`: a closed loop of scoring requests against a warm fleet.
//!
//! Two client threads each send a 16-candidate request through
//! `FleetClient::score_detailed` and wait for the reply before sending the
//! next. The target is a 2-shard `ServingFleet` (1 batcher and a 1-thread
//! engine per shard, default `BatchPolicy`, admission verification on)
//! serving the set-up model. Requests draw from the 7 bert-tiny subgraph tasks
//! × 256-candidate pools in rotating, overlapping windows, and an untimed
//! warm-up fills the score cache first. Tuners that share tasks mostly hit
//! the cache, so the engine does little and the request path (router,
//! admission verify, queue, batcher wake-up, reply channel) does most of
//! the work.

use crate::report::{Check, Clock, Metric, Outcome};
use crate::setup::{self, SetupTimes};
use crate::stats::{mean, median, percentile, window_rates, Trace};
use crate::{repeat_setup, RunConfig};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use tlp::engine::EngineConfig;
use tlp::features::FeatureBuf;
use tlp::{FeatureExtractor, TlpModel};
use tlp_autotuner::SearchTask;
use tlp_hwsim::Platform;
use tlp_nn::Workspace;
use tlp_schedule::ScheduleSequence;
use tlp_serve::{
    random_pool, BatchPolicy, FleetClient, FleetConfig, ServeConfig, ServingFleet, DEFAULT_TENANT,
};
use tlp_workload::bert_tiny;

const MODEL: &str = "tlp";
const CLIENTS: usize = 2;
const SHARDS: usize = 2;
/// Every subgraph task of bert-tiny (it has seven).
const TASKS: usize = 7;
const POOL: usize = 256;
const BATCH: usize = 16;
/// Consecutive windows start this many candidates apart, so each overlaps
/// the next by half.
const STRIDE: usize = 8;
const WINDOWS: usize = POOL / STRIDE;
/// Closed-loop warm-up after the cache is filled, discarded.
const WARMUP: Duration = Duration::from_millis(300);
/// Standalone `route_order` calls timed for `router.route_ns`.
const ROUTE_PROBES: usize = 20_000;
/// Window of the per-window request rates whose median is
/// `throughput_per_s`.
const RATE_WINDOW_S: f64 = 0.5;

/// One completed request, as the client saw it.
struct Sample {
    /// Completion, seconds since the pass started.
    done_s: f64,
    latency_us: f64,
    queue_us: f64,
    engine_us: f64,
    batch_jobs: usize,
    failovers: u32,
    task: usize,
    window: usize,
    scores: Vec<Option<f32>>,
}

#[derive(Default)]
struct Pass {
    samples: Vec<Sample>,
    errors: u64,
    wall_s: f64,
    hits: u64,
    misses: u64,
    trace: Option<Trace>,
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        shards: SHARDS,
        serve: ServeConfig {
            batchers: 1,
            policy: BatchPolicy::default(),
            validate_admission: true,
            ..ServeConfig::default()
        },
        engine: EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
        ..FleetConfig::default()
    }
}

struct Served {
    fleet: ServingFleet,
    model: TlpModel,
    extractor: FeatureExtractor,
}

fn set_up(seed: u64, previous: Option<Served>) -> (Served, SetupTimes) {
    if let Some(prev) = previous {
        prev.fleet.shutdown();
    }
    let (corpus, dataset_s) = setup::corpus(seed);
    let (model, model_train_s) = setup::trained_model(&corpus.data, seed);
    let t0 = Instant::now();
    let fleet = ServingFleet::start(fleet_config());
    fleet
        .install_tlp(MODEL, &model, &corpus.extractor)
        .expect("the set-up model passes the install audit");
    let fleet_start_s = t0.elapsed().as_secs_f64();
    let served = Served {
        fleet,
        model,
        extractor: corpus.extractor,
    };
    let times = SetupTimes {
        dataset_s,
        model_train_s,
        fleet_start_s,
    };
    (served, times)
}

/// The request schedule: client `c`'s `k`-th request goes to task
/// `(k + c) mod 7` and takes the window `(3·(k / 7) + 7·c + offset) mod 32`
/// of that task's pool.
fn request_at(c: usize, k: usize, offset: usize) -> (usize, usize) {
    (
        (k + c) % TASKS,
        (3 * (k / TASKS) + 7 * c + offset) % WINDOWS,
    )
}

fn cache_counters(fleet: &ServingFleet) -> (u64, u64) {
    (0..fleet.shard_count())
        .flat_map(|s| fleet.registry(s).stats())
        .fold((0, 0), |(h, m), s| {
            (h + s.engine.cache_hits, m + s.engine.cache_misses)
        })
}

fn closed_loop(
    fleet: &ServingFleet,
    tasks: &[SearchTask],
    windows: &[Vec<Vec<ScheduleSequence>>],
    offset: usize,
    seconds: f64,
    trace: Option<Instant>,
) -> Pass {
    let client = fleet.client();
    let (h0, m0) = cache_counters(fleet);
    let barrier = Barrier::new(CLIENTS);
    let traced = trace.is_some();
    let origin = trace.unwrap_or_else(Instant::now);
    let pass_start = Instant::now();
    let results: Vec<(Vec<Sample>, u64, Instant, Instant, Trace)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (client, barrier) = (client.clone(), &barrier);
                s.spawn(move || {
                    let mut trace = Trace::new(origin, traced);
                    let mut samples = Vec::new();
                    let mut errors = 0u64;
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + Duration::from_secs_f64(seconds);
                    let mut k = 0usize;
                    while Instant::now() < deadline {
                        let (ti, wi) = request_at(c, k, offset);
                        let id = ((c as u64) << 32) | k as u64;
                        trace.begin("serve.request", id);
                        let t0 = Instant::now();
                        let reply = client.score_detailed(
                            DEFAULT_TENANT,
                            MODEL,
                            &tasks[ti],
                            &windows[ti][wi],
                            None,
                        );
                        let done = Instant::now();
                        let latency_us = (done - t0).as_secs_f64() * 1e6;
                        trace.end();
                        match reply {
                            Ok(r) => samples.push(Sample {
                                done_s: (done - pass_start).as_secs_f64(),
                                latency_us,
                                queue_us: r.reply.queue_us as f64,
                                engine_us: r.reply.stats.wall_s * 1e6,
                                batch_jobs: r.reply.batch_jobs,
                                failovers: r.failovers,
                                task: ti,
                                window: wi,
                                scores: r.reply.scores,
                            }),
                            Err(_) => errors += 1,
                        }
                        k += 1;
                    }
                    (samples, errors, start, Instant::now(), trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let (h1, m1) = cache_counters(fleet);
    let start = results.iter().map(|r| r.2).min().expect("clients ran");
    let end = results.iter().map(|r| r.3).max().expect("clients ran");
    let mut pass = Pass {
        wall_s: (end - start).as_secs_f64(),
        hits: h1 - h0,
        misses: m1 - m0,
        ..Pass::default()
    };
    let mut trace = Trace::new(origin, traced);
    for (samples, errors, _, _, t) in results {
        pass.samples.extend(samples);
        pass.errors += errors;
        trace.absorb(t);
    }
    pass.trace = traced.then_some(trace);
    pass
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let origin = Instant::now();
    let (served, setups) = repeat_setup(|prev| set_up(cfg.seed, prev));
    let platform = Platform::i7_10510u();
    let tasks: Vec<SearchTask> = SearchTask::from_network(&bert_tiny(1, 64), &platform)
        .into_iter()
        .take(TASKS)
        .collect();
    assert_eq!(tasks.len(), TASKS, "bert-tiny has {TASKS} subgraph tasks");
    let pools: Vec<Vec<ScheduleSequence>> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| random_pool(t, POOL, cfg.seed.wrapping_mul(0x9E37_79B9) ^ i as u64))
        .collect();
    let windows: Vec<Vec<Vec<ScheduleSequence>>> = pools
        .iter()
        .map(|pool| {
            (0..WINDOWS)
                .map(|w| {
                    (0..BATCH)
                        .map(|j| pool[(w * STRIDE + j) % POOL].clone())
                        .collect()
                })
                .collect()
        })
        .collect();
    let offset = (cfg.seed % WINDOWS as u64) as usize;

    // Untimed warm-up: every window once (fills the cache with every pool
    // candidate), then a short closed loop.
    let client = served.fleet.client();
    for (ti, task) in tasks.iter().enumerate() {
        for w in &windows[ti] {
            client
                .score_detailed(DEFAULT_TENANT, MODEL, task, w, None)
                .expect("warm-up request succeeds");
        }
    }
    closed_loop(
        &served.fleet,
        &tasks,
        &windows,
        offset,
        WARMUP.as_secs_f64(),
        None,
    );

    let measure_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let plain = closed_loop(&served.fleet, &tasks, &windows, offset, measure_s, None);
    let traced = cfg.trace.then(|| {
        closed_loop(
            &served.fleet,
            &tasks,
            &windows,
            offset,
            measure_s,
            Some(origin),
        )
    });

    let reference = dense_reference(&served.model, &served.extractor, &pools);
    let mut checks = vec![score_check(&plain, &reference)];
    if let Some(t) = &traced {
        checks.push(score_check(t, &reference));
    }

    let lat: Vec<f64> = plain.samples.iter().map(|s| s.latency_us).collect();
    let n = lat.len() as u64;
    let rps = plain.samples.len() as f64 / plain.wall_s;
    let done: Vec<f64> = plain.samples.iter().map(|s| s.done_s).collect();
    let window_rps = median(&window_rates(&done, RATE_WINDOW_S, plain.wall_s));
    let p50 = percentile(&lat, 50.0);
    let p99 = percentile(&lat, 99.0);
    checks.push(Check::new(
        "serve_p99_has_ten_samples_beyond",
        p99.is_some(),
        format!("{n} requests"),
    ));
    let end_to_end = vec![
        Metric::new("serve_requests_per_s", rps, "req/s", Clock::Wall, n),
        Metric::new(
            "serve_latency_p50_us",
            p50.unwrap_or(f64::NAN),
            "us",
            Clock::Wall,
            n,
        ),
        Metric::new(
            "serve_latency_p99_us",
            p99.unwrap_or(f64::NAN),
            "us",
            Clock::Wall,
            n,
        ),
    ];

    let mut per_layer = Vec::new();
    let mut spans = Vec::new();
    if let Some(mut t) = traced {
        let mut probe = Trace::new(origin, true);
        per_layer = layers(
            &t,
            &plain,
            &served.fleet.client(),
            &tasks,
            &pools,
            &mut probe,
        );
        let mut trace = t.trace.take().expect("traced pass keeps its trace");
        trace.absorb(probe);
        spans = trace.spans().to_vec();
    }

    served.fleet.shutdown();
    Outcome {
        setups,
        op_ms: lat.iter().map(|us| us / 1e3).collect(),
        throughput_per_s: window_rps,
        end_to_end,
        per_layer,
        attempted: plain.samples.len() as u64 + plain.errors,
        failed: plain.errors,
        checks,
        spans,
    }
}

/// Scores every pool candidate on the dense tape path
/// (`TlpModel::predict_with`), independent of the engine, its cache and
/// the fused inference kernel the fleet uses.
fn dense_reference(
    model: &TlpModel,
    extractor: &FeatureExtractor,
    pools: &[Vec<ScheduleSequence>],
) -> Vec<Vec<f32>> {
    let mut ws = Workspace::new();
    let mut buf = FeatureBuf::new();
    pools
        .iter()
        .map(|pool| {
            extractor.extract_batch_into(pool.iter(), &mut buf);
            model.predict_with(&mut ws, buf.data())
        })
        .collect()
}

fn score_check(pass: &Pass, reference: &[Vec<f32>]) -> Check {
    let mut mismatched = 0usize;
    for s in &pass.samples {
        for (j, got) in s.scores.iter().enumerate() {
            let want = reference[s.task][(s.window * STRIDE + j) % POOL];
            if got.map(f32::to_bits) != Some(want.to_bits()) {
                mismatched += 1;
            }
        }
    }
    let total = pass.samples.len() * BATCH;
    Check::new(
        "serve_scores_bit_equal_dense_predict_with",
        mismatched == 0 && total > 0,
        format!("{mismatched} of {total} scores differ"),
    )
}

fn layers(
    traced: &Pass,
    plain: &Pass,
    client: &FleetClient,
    tasks: &[SearchTask],
    pools: &[Vec<ScheduleSequence>],
    probe: &mut Trace,
) -> Vec<Metric> {
    let s = &traced.samples;
    let n = s.len() as u64;
    let pct = |xs: Vec<f64>, p: f64| percentile(&xs, p).unwrap_or(f64::NAN);
    let queue: Vec<f64> = s.iter().map(|x| x.queue_us).collect();
    let path: Vec<f64> = s
        .iter()
        .map(|x| x.latency_us - x.queue_us - x.engine_us)
        .collect();

    // Standalone router calls.
    let route_ns = probe.span("router.route_order", 0, || {
        let t0 = Instant::now();
        for i in 0..ROUTE_PROBES {
            black_box(client.route_order(MODEL, &tasks[i % tasks.len()]));
        }
        t0.elapsed().as_nanos() as f64 / ROUTE_PROBES as f64
    });
    // Standalone admission verification of every pool candidate.
    let mut verify_ns = 0u128;
    let mut verified = 0u64;
    for (task, pool) in tasks.iter().zip(pools) {
        for (i, seq) in pool.iter().enumerate() {
            let t0 = Instant::now();
            probe.span("verify.verify", i as u64, || {
                black_box(tlp_verify::verify(&task.subgraph, seq).has_errors())
            });
            verify_ns += t0.elapsed().as_nanos();
            verified += 1;
        }
    }
    let verify_us = verify_ns as f64 / 1e3 / verified as f64;

    // What no measured layer explains: latency − queue − engine − routing −
    // admission verification of the request's candidates.
    let lat_sum: f64 = s.iter().map(|x| x.latency_us).sum();
    let explained: f64 = s
        .iter()
        .map(|x| x.queue_us + x.engine_us + route_ns / 1e3 + BATCH as f64 * verify_us)
        .sum();
    let unattributed = ((lat_sum - explained) / lat_sum).max(0.0);
    let rps = |p: &Pass| p.samples.len() as f64 / p.wall_s;
    let overhead = rps(plain) / rps(traced) - 1.0;

    vec![
        Metric::new(
            "serve.queue_wait_us.p50",
            pct(queue.clone(), 50.0),
            "us",
            Clock::Wall,
            n,
        ),
        Metric::new(
            "serve.queue_wait_us.p99",
            pct(queue, 99.0),
            "us",
            Clock::Wall,
            n,
        ),
        Metric::new(
            "serve.engine_us.p50",
            pct(s.iter().map(|x| x.engine_us).collect(), 50.0),
            "us",
            Clock::Wall,
            n,
        ),
        Metric::new("serve.path_us.p50", pct(path, 50.0), "us", Clock::Wall, n),
        Metric::new(
            "serve.jobs_per_batch.mean",
            mean(&s.iter().map(|x| x.batch_jobs as f64).collect::<Vec<_>>()),
            "count",
            Clock::None,
            n,
        ),
        Metric::new(
            "router.failovers",
            s.iter().map(|x| x.failovers as f64).sum(),
            "count",
            Clock::None,
            n,
        ),
        Metric::new(
            "router.route_ns",
            route_ns,
            "ns",
            Clock::Wall,
            ROUTE_PROBES as u64,
        ),
        Metric::new(
            "engine.hit_ratio",
            traced.hits as f64 / (traced.hits + traced.misses).max(1) as f64,
            "ratio",
            Clock::None,
            traced.hits + traced.misses,
        ),
        Metric::new(
            "verify.us_per_schedule",
            verify_us,
            "us",
            Clock::Wall,
            verified,
        ),
        Metric::new(
            "trace.unattributed_frac",
            unattributed,
            "ratio",
            Clock::Wall,
            n,
        ),
        Metric::new("trace.overhead_frac", overhead, "ratio", Clock::Wall, n),
    ]
}
