//! `train`: `train_tlp_with` on the features of the seeded i7-10510U
//! set-up dataset (training networks only), with 2 pinned workers, 2
//! micro-batches per step and a fixed epoch count.
//!
//! This is the only workload that runs the tape forward, backward and Adam;
//! inference and serving sit idle. Each repetition trains a fresh model, so
//! every repetition must end on the same loss, bit for bit.

use crate::report::{Check, Clock, Metric, Outcome};
use crate::setup::{self, SetupTimes, THREADS};
use crate::stats::{median, self_times_ns, total_by_name, Trace};
use crate::{repeat_setup, RunConfig};
use std::time::Instant;
use tlp::train::{train_tlp_with, TrainData};
use tlp::trainer::{scored_loss, EpochReport};
use tlp::TlpModel;
use tlp_nn::{Adam, GradBuffer, Optimizer, Workspace};

/// Epochs per `train_tlp_with` call.
const EPOCHS: usize = 4;

struct Rep {
    epochs: Vec<EpochReport>,
    final_loss: f32,
}

fn train_once(data: &TrainData, seed: u64, trace: &mut Trace, id: u64) -> Rep {
    let mut model = TlpModel::new(setup::model_config());
    let report = trace.span("train.train_tlp_with", id, || {
        train_tlp_with(&mut model, data, &setup::train_options(EPOCHS, seed))
    });
    Rep {
        final_loss: report.final_loss(),
        epochs: report.epochs,
    }
}

/// Repeats `train_once` until `seconds` have passed (at least twice, so
/// repetitions can be compared).
fn train_for(data: &TrainData, seed: u64, seconds: f64, trace: &mut Trace) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let id = reps.len() as u64;
        reps.push(train_once(data, seed, trace, id));
    }
    reps
}

fn step_ms(e: &EpochReport) -> f64 {
    e.wall_s * 1e3 / e.steps.max(1) as f64
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let origin = Instant::now();
    let (data, setups) = repeat_setup(|_| {
        let (corpus, dataset_s) = setup::corpus(cfg.seed);
        let times = SetupTimes {
            dataset_s,
            ..SetupTimes::default()
        };
        (corpus.data, times)
    });
    // Warm-up: worker threads, allocator, page faults.
    let mut off = Trace::new(origin, false);
    train_once(&data, cfg.seed ^ 0x5EED, &mut off, 0);

    let measure_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let plain = train_for(&data, cfg.seed, measure_s, &mut off);
    let mut trace = Trace::new(origin, cfg.trace);
    let traced = cfg
        .trace
        .then(|| train_for(&data, cfg.seed, measure_s, &mut trace));

    let epochs: Vec<&EpochReport> = plain.iter().flat_map(|r| r.epochs.iter()).collect();
    let samples: usize = epochs.iter().map(|e| e.samples).sum();
    let epoch_wall: f64 = epochs.iter().map(|e| e.wall_s).sum();
    let steps: u64 = epochs.iter().map(|e| e.steps as u64).sum();
    let failed: u64 = epochs
        .iter()
        .filter(|e| !e.train_loss.is_finite())
        .map(|e| e.steps as u64)
        .sum();
    let op_ms: Vec<f64> = epochs.iter().map(|e| step_ms(e)).collect();
    let losses: Vec<f32> = plain.iter().map(|r| r.final_loss).collect();

    let mut checks = vec![
        Check::new(
            "train_final_loss_finite",
            losses.iter().all(|l| l.is_finite()),
            format!("{losses:?}"),
        ),
        Check::new(
            "train_final_loss_identical_across_repetitions",
            losses.iter().all(|l| l.to_bits() == losses[0].to_bits()),
            format!("{} repetitions of seed {}", losses.len(), cfg.seed),
        ),
    ];
    if let Some(t) = &traced {
        checks.push(Check::new(
            "train_traced_matches_untraced",
            t.iter()
                .all(|r| r.final_loss.to_bits() == losses[0].to_bits()),
            "tracing does not change the trained result",
        ));
    }

    let throughput = samples as f64 / epoch_wall;
    let end_to_end = vec![
        Metric::new(
            "train_samples_per_s",
            throughput,
            "samples/s",
            Clock::Wall,
            samples as u64,
        ),
        Metric::new(
            "train_final_loss",
            losses[0] as f64,
            "loss",
            Clock::None,
            losses.len() as u64,
        ),
    ];

    let (per_layer, spans) = match traced {
        Some(t) => {
            let metrics = layers(&t, throughput, &data, cfg.seed, &mut trace);
            (metrics, trace.spans().to_vec())
        }
        None => (Vec::new(), Vec::new()),
    };
    Outcome {
        setups,
        op_ms,
        // Median over epochs of samples per second.
        throughput_per_s: median(
            &epochs
                .iter()
                .map(|e| e.samples as f64 / e.wall_s)
                .collect::<Vec<_>>(),
        ),
        end_to_end,
        per_layer,
        attempted: steps,
        failed,
        checks,
        spans,
    }
}

/// Replays the trainer's step through the public nn API so forward,
/// backward and Adam can each be timed: per step, one task group per worker
/// thread runs `TlpModel::forward` + loss + `Graph::backward`, then the
/// gradients are reduced and clipped and `Optimizer::step` runs.
fn layers(
    traced: &[Rep],
    plain_rate: f64,
    data: &TrainData,
    seed: u64,
    trace: &mut Trace,
) -> Vec<Metric> {
    let epochs: Vec<&EpochReport> = traced.iter().flat_map(|r| r.epochs.iter()).collect();
    let steps: usize = epochs.iter().map(|e| e.steps).sum();
    let wall: f64 = epochs.iter().map(|e| e.wall_s).sum();
    let step = wall * 1e3 / steps.max(1) as f64;
    let traced_rate = epochs.iter().map(|e| e.samples).sum::<usize>() as f64 / wall;

    let mut model = TlpModel::new(setup::model_config());
    let options = setup::train_options(1, seed);
    let mut opt = Adam::new(options.learning_rate);
    let mut workers: Vec<(Workspace, GradBuffer)> = (0..THREADS)
        .map(|_| (Workspace::new(), GradBuffer::new()))
        .collect();
    let fs = data.feature_size;
    let batches: Vec<(&[f32], &[f32])> = data
        .groups
        .iter()
        .filter(|g| g.labels.len() >= 2)
        .map(|g| {
            let n = g.labels.len().min(options.batch_size);
            (&g.features[..n * fs], &g.labels[..n])
        })
        .collect();
    let mut warm_up = Trace::new(Instant::now(), false);
    // The first pass, untraced, warms the tapes and buffers.
    for trace in [&mut warm_up, &mut *trace] {
        for (si, chunk) in batches.chunks(THREADS).enumerate() {
            let id = si as u64;
            trace.begin("trainer.step", id);
            let model_ref = &model;
            std::thread::scope(|s| {
                let handles: Vec<_> = chunk
                    .iter()
                    .zip(workers.iter_mut())
                    .map(|(&(feats, labels), (ws, buf))| {
                        s.spawn(move || {
                            buf.reset_for(&model_ref.store);
                            ws.reset();
                            let n = labels.len();
                            let t0 = Instant::now();
                            let scores = model_ref.forward(&mut ws.graph, &mut ws.bind, feats, n);
                            let t1 = Instant::now();
                            let cfg = &model_ref.config;
                            let loss =
                                scored_loss(&mut ws.graph, scores, labels, cfg.loss, cfg.seq_len);
                            let t2 = Instant::now();
                            ws.graph.backward(loss);
                            let t3 = Instant::now();
                            ws.bind.harvest_into(&ws.graph, buf);
                            [t0, t1, t2, t3]
                        })
                    })
                    .collect();
                for h in handles {
                    let [t0, t1, t2, t3] = h.join().expect("probe worker panicked");
                    trace.record("nn.forward", id, t0, t1);
                    trace.record("nn.backward", id, t2, t3);
                }
            });
            for (_, buf) in workers.iter().take(chunk.len()) {
                buf.reduce_into(&mut model.store);
            }
            if chunk.len() > 1 {
                model.store.scale_grads(1.0 / chunk.len() as f32);
            }
            model.store.clip_grad_norm(options.grad_clip);
            trace.span("nn.adam", id, || opt.step(&mut model.store));
            trace.end();
        }
    }
    let spans = trace.spans();
    let own = self_times_ns(spans);
    let mean_ms = |name: &str| {
        let (ns, _, count) = total_by_name(spans, &own, name);
        (ns as f64 / 1e6 / count.max(1) as f64, count as u64)
    };
    let (fwd, micro) = mean_ms("nn.forward");
    let (bwd, _) = mean_ms("nn.backward");
    let (adam, _) = mean_ms("nn.adam");
    // Per probe step, the time the nn calls cover (parallel workers'
    // intervals counted once); the rest of a trainer step is the trainer's.
    let (probe_step_ns, probe_self_ns, probe_steps) = total_by_name(spans, &own, "trainer.step");
    let covered = (probe_step_ns - probe_self_ns) as f64 / 1e6 / probe_steps.max(1) as f64;
    let other = step - covered;
    let steps = steps as u64;
    vec![
        Metric::new("train.step_ms", step, "ms", Clock::Wall, steps),
        Metric::new("nn.forward_ms", fwd, "ms", Clock::Wall, micro),
        Metric::new("nn.backward_ms", bwd, "ms", Clock::Wall, micro),
        Metric::new("nn.adam_ms", adam, "ms", Clock::Wall, probe_steps as u64),
        Metric::new("trainer.other_ms_per_step", other, "ms", Clock::Wall, steps),
        // The step time no timed nn call explains: the loss, batch
        // gathering, all-reduce, clipping and thread hand-off.
        Metric::new(
            "trace.unattributed_frac",
            (other / step).max(0.0),
            "ratio",
            Clock::Wall,
            steps,
        ),
        Metric::new(
            "trace.overhead_frac",
            plain_rate / traced_rate - 1.0,
            "ratio",
            Clock::Wall,
            steps,
        ),
    ]
}
