//! Micro-benchmarks of per-candidate cost-model pipelines: TLP's
//! primitive-sequence feature extraction + NN inference vs the TenSet-MLP
//! pipeline (program generation + feature extraction + MLP inference), plus
//! an [`InferenceEngine`] throughput section (candidates/sec at batch
//! 64/512/4096, cache-cold vs cache-warm vs the seed single-threaded
//! extract-then-predict path) that writes `BENCH_inference.json`.
//!
//! These support Figure 10's "execution speed" comparison with real
//! measurements on this machine. Each pipeline case reports the best-of-50
//! wall time of one 64-candidate pass, timed with [`tlp_bench::time_best`]
//! (the target keeps its historical name; it uses no external harness).
//!
//! Run with `cargo bench -p tlp-bench --bench criterion_inference`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;
use tlp::baselines::{program_features, TenSetMlp};
use tlp::engine::EngineConfig;
use tlp::features::{FeatureBuf, FeatureExtractor};
use tlp::search::TlpScorer;
use tlp::{FeatureModel, TlpConfig, TlpModel};
use tlp_autotuner::{Candidate, CostModel, ScoreRequest, SearchTask, SketchPolicy};
use tlp_bench::{time_best, write_json};
use tlp_hwsim::Platform;
use tlp_nn::Workspace;
use tlp_schedule::{ScheduleSequence, Vocabulary};
use tlp_workload::{AnchorOp, Subgraph};

fn conv_subgraph() -> Subgraph {
    Subgraph::new(
        "c",
        AnchorOp::Conv2d {
            n: 1,
            cin: 64,
            hw: 56,
            cout: 64,
            khw: 3,
            stride: 1,
            pad: 1,
            groups: 1,
        },
    )
}

fn candidates(sg: &Subgraph, n: usize) -> Vec<ScheduleSequence> {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let policy = SketchPolicy::cpu();
    (0..n)
        .map(|_| Candidate::random(&policy, sg, &mut rng).sequence)
        .collect()
}

fn subject() -> (Subgraph, Vec<ScheduleSequence>) {
    let sg = conv_subgraph();
    let seqs = candidates(&sg, 64);
    (sg, seqs)
}

fn extractor_for(seqs: &[ScheduleSequence]) -> FeatureExtractor {
    let mut vb = Vocabulary::builder();
    for s in seqs {
        for p in s.iter() {
            vb.observe(&p.stage);
            for v in &p.loop_vars {
                vb.observe(v);
            }
            for e in &p.extras {
                vb.observe(e);
            }
        }
    }
    FeatureExtractor::with_vocab(vb.build(), 25, 22)
}

/// Best-of-N wall time per pass over the 64-candidate subject, printed as
/// `per_candidate_scoring_64/<case>`.
fn bench_pipelines() {
    const REPS: usize = 50;
    let (sg, seqs) = subject();
    let extractor = extractor_for(&seqs);
    let cfg = TlpConfig::default();
    let tlp_model = TlpModel::new(cfg.clone());
    let tenset = TenSetMlp::new(cfg);
    let report = |case: &str, s: f64| {
        println!(
            "per_candidate_scoring_64/{case:<32} {:>10.2} us   (best of {REPS})",
            s * 1e6
        );
    };

    let mut buf = FeatureBuf::new();
    let mut ws = Workspace::new();
    let mut out = Vec::new();
    report(
        "tlp_extract_only",
        time_best(REPS, || {
            extractor.extract_batch_into(&seqs, &mut buf);
            black_box(buf.len());
        }),
    );
    report(
        "tlp_extract_and_infer",
        time_best(REPS, || {
            extractor.extract_batch_into(&seqs, &mut buf);
            tlp_model.predict_into(&mut ws, &buf, &mut out);
            black_box(out.len());
        }),
    );
    report(
        "tenset_program_gen_and_features",
        time_best(REPS, || {
            black_box(seqs.iter().filter_map(|s| program_features(&sg, s)).count());
        }),
    );
    report(
        "tenset_full_pipeline",
        time_best(REPS, || {
            let mut feats = Vec::new();
            for s in &seqs {
                if let Some(f) = program_features(&sg, s) {
                    feats.extend(f);
                }
            }
            black_box(tenset.predict(&feats));
        }),
    );
}

/// One engine-throughput measurement at a fixed batch size. Every row
/// records the engine thread count and micro-batch size it ran with, so a
/// single row read out of context still identifies its configuration.
#[derive(Serialize)]
struct ThroughputRow {
    batch: usize,
    reps: usize,
    /// Seed path: single-threaded dense feature extraction + tape forward.
    baseline_s: f64,
    baseline_cand_per_s: f64,
    /// Engine with an empty (invalidated) cache.
    cold_s: f64,
    cold_cand_per_s: f64,
    /// Engine with every candidate already cached.
    warm_s: f64,
    warm_cand_per_s: f64,
    cold_speedup_vs_baseline: f64,
    warm_speedup_vs_baseline: f64,
    engine_threads: u32,
    micro_batch: usize,
    cold_micro_batches: u32,
    warm_cache_hits: u32,
}

#[derive(Serialize)]
struct ThroughputSummary {
    available_parallelism: usize,
    micro_batch: usize,
    rows: Vec<ThroughputRow>,
}

fn engine_throughput() {
    let sg = conv_subgraph();
    let all = candidates(&sg, 4096);
    let extractor = extractor_for(&all);
    let cfg = TlpConfig::default();
    let model = TlpModel::new(cfg);
    let task = SearchTask::new(sg, Platform::i7_10510u());

    let engine_cfg = EngineConfig {
        micro_batch: 64,
        threads: 0, // auto-size from available_parallelism()
        cache_capacity: 1 << 13,
    };
    let cost_model = FeatureModel::with_engine(
        TlpScorer {
            model: model.clone(),
            extractor: extractor.clone(),
        },
        engine_cfg,
    );

    println!("\n=== engine throughput (candidates/sec) ===");
    let mut rows = Vec::new();
    let mut ws = Workspace::new();
    let mut buf = FeatureBuf::new();
    for &batch in &[64usize, 512, 4096] {
        let seqs = &all[..batch];
        // The tape baseline is seconds per pass at large batches — cap its
        // reps; the engine passes are milliseconds, so best-of-5 denoises
        // them for free.
        let baseline_reps = (512 / batch).max(1);
        let reps = baseline_reps.max(15);

        let baseline_s = time_best(baseline_reps, || {
            extractor.extract_batch_into(seqs, &mut buf);
            black_box(model.predict_with(&mut ws, buf.data()));
        });
        // Reference scores from the dense tape path, for the bit-equality
        // check below.
        extractor.extract_batch_into(seqs, &mut buf);
        let baseline_scores = model.predict_with(&mut ws, buf.data());

        // Cold: invalidate between reps so every pass misses the cache.
        let cold_s = time_best(reps, || {
            cost_model.engine().invalidate();
            black_box(cost_model.predict(ScoreRequest::new(&task, seqs)));
        });
        let cold_batch = {
            cost_model.engine().invalidate();
            cost_model.predict(ScoreRequest::new(&task, seqs))
        };
        // The fused zero-copy path must not change a single bit of any
        // score relative to the dense reference forward.
        assert_eq!(baseline_scores.len(), cold_batch.len());
        for (i, (b, c)) in baseline_scores.iter().zip(cold_batch.scores()).enumerate() {
            assert_eq!(
                b.to_bits(),
                c.to_bits(),
                "batch {batch} candidate {i}: cold score {c} != baseline {b}"
            );
        }

        // Warm: the pass above primed the cache; every pass now hits.
        let warm_s = time_best(reps.max(3), || {
            black_box(cost_model.predict(ScoreRequest::new(&task, seqs)));
        });
        let warm_batch = cost_model.predict(ScoreRequest::new(&task, seqs));
        assert_eq!(
            warm_batch.stats.cache_misses, 0,
            "warm pass must be all hits"
        );

        let row = ThroughputRow {
            batch,
            reps: baseline_reps,
            baseline_s,
            baseline_cand_per_s: batch as f64 / baseline_s,
            cold_s,
            cold_cand_per_s: batch as f64 / cold_s,
            warm_s,
            warm_cand_per_s: batch as f64 / warm_s,
            cold_speedup_vs_baseline: baseline_s / cold_s,
            warm_speedup_vs_baseline: baseline_s / warm_s,
            engine_threads: cold_batch.stats.threads,
            micro_batch: engine_cfg.micro_batch,
            cold_micro_batches: cold_batch.stats.micro_batches,
            warm_cache_hits: warm_batch.stats.cache_hits,
        };
        println!(
            "batch {:>4}: baseline {:>10.0}/s | cold {:>10.0}/s ({:>5.2}x) | warm {:>12.0}/s ({:>8.1}x) | threads {}",
            row.batch,
            row.baseline_cand_per_s,
            row.cold_cand_per_s,
            row.cold_speedup_vs_baseline,
            row.warm_cand_per_s,
            row.warm_speedup_vs_baseline,
            row.engine_threads,
        );
        rows.push(row);
    }

    let summary = ThroughputSummary {
        available_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        micro_batch: engine_cfg.micro_batch,
        rows,
    };
    write_json("BENCH_inference", &summary);
    // Also drop a copy at the repo root so the acceptance record travels
    // with the source tree, not just the target directory.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_inference.json");
    let body = serde_json::to_string_pretty(&summary).expect("serialize summary");
    std::fs::write(&root, body).expect("write BENCH_inference.json");
}

fn main() {
    bench_pipelines();
    engine_throughput();
}
