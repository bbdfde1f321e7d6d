//! `tlp-cli` — command-line front end for the TLP reproduction.
//!
//! ```text
//! tlp-cli stats                         dataset statistics (Fig. 6 / Table 1)
//! tlp-cli train <model.json>            train TLP and snapshot it
//! tlp-cli eval <model.json>             top-k of a snapshot on the test set
//! tlp-cli tune <network> [model.json]   tune a workload (random or TLP-guided)
//! tlp-cli serve-bench [c] [r] [b]       closed-loop load against tlp-serve
//! tlp-cli fleet-bench [s] [c] [r] [b]   simulated load against a sharded fleet
//! tlp-cli adapt [snapshot.json]         continual-adapt a head to ryzen-3950x
//! tlp-cli verify-corpus [out.json]      static-verifier sweep over the dataset
//! tlp-cli audit-model [out.json]        model-graph audit soundness suite (M-codes)
//! tlp-cli platforms                     list simulated platforms
//! ```
//!
//! Sizes follow `TLP_SCALE` (test|small|medium|paper; default small).
//!
//! Lives in the root package (not `crates/core`) because `serve-bench`
//! pulls in `tlp-serve`, which itself depends on the core crate.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)
#![allow(clippy::disallowed_types)] // keyed lookups only; determinism-critical crates opt in (clippy.toml)

use std::sync::Arc;
use tlp::engine::EngineConfig;
use tlp::experiments::{capped_train_tasks, eval_tlp, Scale};
use tlp::features::FeatureExtractor;
use tlp::persist::{snapshot_tlp, SavedTlp};
use tlp::search::TlpCostModel;
use tlp::train::{train_tlp, TrainData};
use tlp::{TlpConfig, TlpModel};
use tlp_autotuner::{tune_network, CostModel, EvolutionConfig, RandomModel, TuningOptions};
use tlp_hwsim::Platform;
use tlp_schedule::Vocabulary;
use tlp_serve::{
    random_pool, run_closed_loop, run_fleet_sim, FleetConfig, FleetLoadOptions, LoadgenOptions,
    ModelRegistry, ServeConfig, Server, ServingFleet, SimServiceModel,
};
use tlp_workload::{AnchorOp, Subgraph};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("stats") => cmd_stats(),
        Some("train") => cmd_train(args.get(1).map(String::as_str)),
        Some("eval") => cmd_eval(args.get(1).map(String::as_str)),
        Some("tune") => cmd_tune(
            args.get(1).map(String::as_str),
            args.get(2).map(String::as_str),
        ),
        Some("serve-bench") => cmd_serve_bench(&args[1..]),
        Some("fleet-bench") => cmd_fleet_bench(&args[1..]),
        Some("adapt") => cmd_adapt(args.get(1).map(String::as_str)),
        Some("verify-corpus") => cmd_verify_corpus(args.get(1).map(String::as_str)),
        Some("audit-model") => cmd_audit_model(args.get(1).map(String::as_str)),
        Some("platforms") => cmd_platforms(),
        _ => {
            eprintln!(
                "usage: tlp-cli <stats|train|eval|tune|serve-bench|fleet-bench|adapt|verify-corpus|audit-model|platforms> [args]\n\
                 \n\
                 stats                        dataset statistics\n\
                 train <model.json>           train TLP on the CPU dataset (i7 target)\n\
                 eval <model.json>            evaluate a snapshot's top-k\n\
                 tune <network> [model.json]  tune a workload (resnet-50, mobilenet-v2,\n\
                 \x20                            resnext-50, bert-tiny, bert-base)\n\
                 serve-bench [c] [r] [b]      drive c closed-loop clients (default 8),\n\
                 \x20                            r requests each (default 40) of b\n\
                 \x20                            candidates (default 16) against a\n\
                 \x20                            tlp-serve server; prints a JSON report\n\
                 fleet-bench [s] [c] [r] [b]  simulate c clients (default 64), r\n\
                 \x20                            requests each (default 8) of b\n\
                 \x20                            candidates (default 16) against an\n\
                 \x20                            s-shard fleet (default 4), healthy and\n\
                 \x20                            with one shard chaos-faulted at 0.2;\n\
                 \x20                            prints a JSON report\n\
                 adapt [snapshot.json]        continual-adapt a warm-started head to\n\
                 \x20                            ryzen-3950x from fault-injected\n\
                 \x20                            measurements, hot-swapping canaried\n\
                 \x20                            snapshots into a live registry; prints\n\
                 \x20                            the adaptation report as JSON\n\
                 verify-corpus [out.json]     run the static schedule verifier over a\n\
                 \x20                            generated dataset sample and print (or\n\
                 \x20                            write) a JSON diagnostics summary\n\
                 audit-model [out.json]       run the tlp-modelcheck soundness suite:\n\
                 \x20                            golden models must audit clean and\n\
                 \x20                            adversarial corruptions must be caught;\n\
                 \x20                            prints (or writes) a per-M-code JSON\n\
                 \x20                            summary plus audit throughput\n\
                 platforms                    list simulated platforms"
            );
            2
        }
    };
    std::process::exit(code);
}

fn cmd_platforms() -> i32 {
    println!(
        "{:<16} {:>6} {:>9} {:>12} {:>10}",
        "name", "cores", "GHz", "peak GF/s", "DRAM GB/s"
    );
    for p in Platform::all() {
        println!(
            "{:<16} {:>6} {:>9.2} {:>12.0} {:>10.0}",
            p.name,
            p.cores,
            p.freq_ghz,
            p.peak_gflops(),
            p.dram_gbps
        );
    }
    0
}

fn cmd_stats() -> i32 {
    let scale = Scale::from_env();
    let ds = scale.cpu_dataset();
    println!("tasks: {}  programs: {}", ds.tasks.len(), ds.num_programs());
    let u = tlp_dataset::uniqueness(&ds);
    println!(
        "distinct sequences: {} (repetition rate {:.3}%)",
        u.distinct,
        u.repetition_rate() * 100.0
    );
    println!(
        "max sequence length: {}",
        tlp_dataset::max_sequence_length(&ds)
    );
    for (k, s) in tlp_dataset::max_embedding_sizes(&ds) {
        println!("  {:<4} max embedding size {s}", k.abbrev());
    }
    0
}

fn cmd_train(path: Option<&str>) -> i32 {
    let Some(path) = path else {
        eprintln!("train: missing output path");
        return 2;
    };
    let scale = Scale::from_env();
    let ds = scale.cpu_dataset();
    let target = ds.platform_index("i7-10510u").expect("platform");
    let cfg = scale.tlp_config();
    let extractor = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);
    let data = TrainData::from_tasks(
        &capped_train_tasks(&ds, scale.max_train_tasks),
        &extractor,
        target,
    );
    println!("training on {} samples…", data.num_samples());
    let mut model = TlpModel::new(cfg);
    let report = train_tlp(&mut model, &data);
    println!("epoch losses: {:?}", report.epoch_losses());
    println!(
        "trained {} samples in {:.2}s ({:.0} samples/s, {} workers)",
        report.samples,
        report.wall_s,
        report.samples_per_s(),
        report.workers
    );
    let (t1, t5) = eval_tlp(&model, &extractor, &ds, target);
    println!("top-1 {t1:.4}  top-5 {t5:.4}");
    match snapshot_tlp(&model, &extractor).save(path) {
        Ok(()) => {
            println!("saved snapshot to {path}");
            0
        }
        Err(e) => {
            eprintln!("train: {e}");
            1
        }
    }
}

fn cmd_eval(path: Option<&str>) -> i32 {
    let Some(path) = path else {
        eprintln!("eval: missing model path");
        return 2;
    };
    let snap = match SavedTlp::load(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("eval: {e}");
            return 1;
        }
    };
    let (model, extractor) = match snap.restore_tlp() {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("eval: {e}");
            return 1;
        }
    };
    let scale = Scale::from_env();
    let ds = scale.cpu_dataset();
    let target = ds.platform_index("i7-10510u").expect("platform");
    let (t1, t5) = eval_tlp(&model, &extractor, &ds, target);
    println!("top-1 {t1:.4}  top-5 {t5:.4}");
    0
}

fn cmd_tune(network: Option<&str>, model_path: Option<&str>) -> i32 {
    let Some(name) = network else {
        eprintln!("tune: missing network name");
        return 2;
    };
    let Some(net) = tlp_workload::test_networks()
        .into_iter()
        .find(|n| n.name == name)
    else {
        eprintln!("tune: unknown network `{name}`");
        return 2;
    };
    let platform = Platform::i7_10510u();
    let opts = TuningOptions {
        rounds: net.num_tasks() * 2,
        programs_per_round: 10,
        evolution: EvolutionConfig {
            population: 24,
            generations: 2,
            ..EvolutionConfig::default()
        },
        ..TuningOptions::default()
    };
    let mut model: Box<dyn CostModel> = match model_path {
        Some(p) => match SavedTlp::load(p) {
            Ok(snap) => match snap.restore_tlp() {
                Ok((m, ex)) => {
                    println!("tuning with TLP snapshot {p}");
                    Box::new(TlpCostModel::new(m, ex))
                }
                Err(e) => {
                    eprintln!("tune: {e}");
                    return 1;
                }
            },
            Err(e) => {
                eprintln!("tune: {e}");
                return 1;
            }
        },
        None => {
            println!("tuning with the random baseline (pass a snapshot for TLP guidance)");
            Box::new(RandomModel::new(1))
        }
    };
    let report = tune_network(&net, &platform, model.as_mut(), &opts);
    println!(
        "{}: final workload latency {:.3} ms after {:.0} s simulated search ({} measurements)",
        net.name,
        report.final_latency_s() * 1e3,
        report.total_search_time_s(),
        report.measurements
    );
    println!(
        "static gate: {} candidates generated, {} pruned ({:.2}%)",
        report.search.generated,
        report.search.pruned,
        report.search.pruned_fraction() * 100.0
    );
    if report.search.draft_checked > 0 {
        println!(
            "speculation: {} full-model scores, {} draft scores, {:.1}% draft acceptance",
            report.search.full_scored,
            report.search.draft_scored,
            report.search.draft_acceptance() * 100.0
        );
    }
    0
}

fn cmd_adapt(snapshot_path: Option<&str>) -> i32 {
    use tlp::experiments::eval_mtl_head;
    use tlp::persist::snapshot_mtl;
    use tlp::{train_mtl_with, MtlTlp, TrainOptions};
    use tlp_continual::{
        run_continual, AdaptConfig, CanarySet, ContinualConfig, PublishPolicy, ReplayBuffer,
        SnapshotPublisher,
    };
    use tlp_hwsim::FaultRates;

    let cfg = TlpConfig {
        epochs: 6,
        ..TlpConfig::test_scale()
    };
    let ds = tlp_dataset::generate_dataset_for(
        &[tlp_workload::bert_tiny(1, 64)],
        &[tlp_workload::bert_tiny(1, 128)],
        &[
            Platform::i7_10510u(),
            Platform::e5_2673(),
            Platform::ryzen_3950x(),
        ],
        &tlp_dataset::DatasetConfig {
            programs_per_task: 48,
            refined_fraction: 0.25,
            seed: 0xC11,
            ..tlp_dataset::DatasetConfig::default()
        },
    );
    let extractor = FeatureExtractor::fit(&ds, cfg.seq_len, cfg.emb_size);

    println!("training base model on i7-10510u + e5-2673…");
    let mut base = MtlTlp::new(cfg.clone(), 2);
    let data = [
        TrainData::from_dataset(&ds, &extractor, 0),
        TrainData::from_dataset(&ds, &extractor, 1),
    ];
    train_mtl_with(
        &mut base,
        &data,
        &TrainOptions::from_config(&cfg).with_seed(0x0B),
    );
    let mut model = base.grow_head_from(1);
    let (zero_shot, _) = eval_mtl_head(&model, &extractor, &ds, 2, 2);
    println!("warm-started ryzen-3950x head from e5-2673 (zero-shot top-1 {zero_shot:.4})");

    let mut replay = ReplayBuffer::stratified(3, 17);
    replay.ingest_data(0, &data[0]);
    replay.ingest_data(1, &data[1]);

    let registry = Arc::new(ModelRegistry::new(EngineConfig::default()));
    let mut publisher = SnapshotPublisher::new(
        registry.clone(),
        "ryzen-3950x",
        2,
        PublishPolicy::default(),
        CanarySet::from_dataset(&ds, 2, 0),
    );
    let config = ContinualConfig {
        rounds: 4,
        per_task_candidates: 4,
        max_tasks: 3,
        fault_rates: FaultRates::uniform(0.05),
        measure: Default::default(),
        adapt: AdaptConfig::frozen(
            TrainOptions::from_config(&cfg)
                .with_epochs(4)
                .with_batch_size(16)
                .with_learning_rate(1e-3)
                .with_seed(0x5EED),
        ),
        seed: 0xADA7,
    };
    println!(
        "adapting: {} rounds x {} tasks x {} candidates at fault rate 0.05…",
        config.rounds, config.max_tasks, config.per_task_candidates
    );
    let report = match run_continual(
        &mut model,
        &extractor,
        &ds,
        &replay,
        &config,
        Some(&mut publisher),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("adapt: {e}");
            return 1;
        }
    };
    match serde_json::to_string_pretty(&report) {
        Ok(j) => println!("{j}"),
        Err(e) => {
            eprintln!("adapt: {e}");
            return 1;
        }
    }
    if let Some(path) = snapshot_path {
        if let Err(e) = snapshot_mtl(&model, &extractor).save(path) {
            eprintln!("adapt: {e}");
            return 1;
        }
        println!("saved adapted snapshot to {path}");
    }
    0
}

/// Per-code diagnostic count in the `verify-corpus` report.
#[derive(serde::Serialize)]
struct CodeCount {
    code: String,
    severity: String,
    count: u64,
}

/// JSON report emitted by `verify-corpus`.
#[derive(serde::Serialize)]
struct CorpusReport {
    scale: String,
    tasks: usize,
    programs: usize,
    validity: tlp_dataset::ValidityStats,
    codes: Vec<CodeCount>,
}

fn cmd_verify_corpus(out_path: Option<&str>) -> i32 {
    let scale = Scale::from_env();
    let ds = scale.cpu_dataset();
    let opts = tlp_verify::VerifyOptions {
        gpu: Some(false),
        ..tlp_verify::VerifyOptions::default()
    };
    let mut counts: std::collections::BTreeMap<tlp_verify::Code, u64> =
        std::collections::BTreeMap::new();
    let mut severities = std::collections::HashMap::new();
    for t in &ds.tasks {
        for r in &t.programs {
            let report = tlp_verify::verify_with(&t.subgraph, &r.schedule, &opts);
            for d in &report.diagnostics {
                *counts.entry(d.code).or_insert(0) += 1;
                severities.insert(d.code, d.severity);
            }
        }
    }
    let report = CorpusReport {
        scale: format!("{scale:?}"),
        tasks: ds.tasks.len(),
        programs: ds.num_programs(),
        validity: tlp_dataset::validity(&ds),
        codes: counts
            .into_iter()
            .map(|(code, count)| CodeCount {
                code: code.as_str().to_string(),
                severity: severities
                    .get(&code)
                    .map(|s| s.to_string())
                    .unwrap_or_default(),
                count,
            })
            .collect(),
    };
    let json = match serde_json::to_string_pretty(&report) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("verify-corpus: {e}");
            return 1;
        }
    };
    if report.validity.valid != report.validity.total {
        eprintln!(
            "verify-corpus: {} of {} generated programs carry verifier errors",
            report.validity.total - report.validity.valid,
            report.validity.total
        );
    }
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("verify-corpus: write {path}: {e}");
                return 1;
            }
            println!("wrote diagnostics summary to {path}");
        }
        None => println!("{json}"),
    }
    if report.validity.valid == report.validity.total {
        0
    } else {
        1
    }
}

/// One M-code's occurrence count in the `audit-model` JSON report.
#[derive(serde::Serialize)]
struct McodeCount {
    code: String,
    count: u32,
}

/// One golden model's audit outcome in the `audit-model` JSON report.
#[derive(serde::Serialize)]
struct ModelAudit {
    model: String,
    params: usize,
    errors: u32,
    warnings: u32,
    lints: u32,
    codes: Vec<McodeCount>,
}

/// One adversarial mutation's audit outcome.
#[derive(serde::Serialize)]
struct AdversarialAudit {
    case: String,
    caught: bool,
    codes: Vec<McodeCount>,
}

/// Renders [`AuditReport::code_counts`](tlp_modelcheck::AuditReport) rows.
fn mcode_counts(report: &tlp_modelcheck::AuditReport) -> Vec<McodeCount> {
    report
        .code_counts()
        .into_iter()
        .map(|(code, count)| McodeCount {
            code: code.to_string(),
            count,
        })
        .collect()
}

/// JSON report emitted by `audit-model`.
#[derive(serde::Serialize)]
struct AuditModelReport {
    golden: Vec<ModelAudit>,
    adversarial: Vec<AdversarialAudit>,
    params_per_s: f64,
    sound: bool,
}

fn cmd_audit_model(out_path: Option<&str>) -> i32 {
    use tlp::persist::{snapshot_mtl, SavedTlp};
    use tlp::MtlTlp;

    let cfg = TlpConfig::test_scale();
    let extractor =
        FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
    let param_count = |snap: &SavedTlp| -> usize {
        let store = snap.store();
        store.ids().map(|id| store.value(id).data().len()).sum()
    };
    let audit_one = |name: &str, snap: &SavedTlp| -> ModelAudit {
        let report = snap.audit();
        let s = report.summary();
        ModelAudit {
            model: name.to_string(),
            params: param_count(snap),
            errors: s.errors,
            warnings: s.warnings,
            lints: s.lints,
            codes: mcode_counts(&report),
        }
    };

    // Golden models: freshly constructed, so every pass must come back with
    // zero errors.
    let tlp_snap = snapshot_tlp(&TlpModel::new(cfg.clone()), &extractor);
    let mtl_snap = snapshot_mtl(&MtlTlp::new(cfg.clone(), 3), &extractor);
    let golden = vec![audit_one("tlp", &tlp_snap), audit_one("mtl-3", &mtl_snap)];

    // Adversarial mutations: each corrupts a fresh golden snapshot (model
    // construction is seeded, so rebuilding reproduces identical bytes) in a
    // way one of the passes is specified to catch. An escape here is a
    // soundness bug.
    let fresh_tlp = || snapshot_tlp(&TlpModel::new(cfg.clone()), &extractor);
    let fresh_mtl = || snapshot_mtl(&MtlTlp::new(cfg.clone(), 3), &extractor);
    let adversarial_one = |case: &str, snap: SavedTlp| -> AdversarialAudit {
        let report = snap.audit();
        AdversarialAudit {
            case: case.to_string(),
            caught: report.has_errors(),
            codes: mcode_counts(&report),
        }
    };
    let first_id = |snap: &SavedTlp| snap.store().ids().next().expect("non-empty store");
    let adversarial = vec![
        adversarial_one("bit-flip", {
            let mut s = fresh_tlp();
            let id = first_id(&s);
            let v = &mut s.store_mut().value_mut(id).data_mut()[0];
            *v = f32::from_bits(v.to_bits() ^ 1);
            s
        }),
        adversarial_one("nan-inject", {
            let mut s = fresh_tlp();
            let id = first_id(&s);
            s.store_mut().value_mut(id).data_mut()[0] = f32::NAN;
            s
        }),
        adversarial_one("tensor-truncate", {
            let mut s = fresh_tlp();
            let id = first_id(&s);
            *s.store_mut().value_mut(id) = tlp_nn::Tensor::zeros(&[1]);
            s
        }),
        adversarial_one("head-forgery", {
            let mut s = fresh_mtl();
            s.set_heads(2);
            s
        }),
    ];

    // Audit throughput over the golden MTL snapshot (all four passes plus
    // the checksum sweep — the same work the persist/serve gates do).
    let iters = 10u32;
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(mtl_snap.audit());
    }
    let elapsed = start.elapsed().as_secs_f64();
    let params_per_s = (param_count(&mtl_snap) as f64 * f64::from(iters)) / elapsed.max(1e-9);

    let sound = golden.iter().all(|g| g.errors == 0) && adversarial.iter().all(|a| a.caught);
    let report = AuditModelReport {
        golden,
        adversarial,
        params_per_s,
        sound,
    };
    let json = match serde_json::to_string_pretty(&report) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("audit-model: {e}");
            return 1;
        }
    };
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("audit-model: write {path}: {e}");
                return 1;
            }
            println!("wrote audit summary to {path}");
        }
        None => println!("{json}"),
    }
    println!("audit throughput: {params_per_s:.0} params/s");
    if report.sound {
        0
    } else {
        eprintln!("audit-model: soundness check FAILED (see report)");
        1
    }
}

fn cmd_serve_bench(args: &[String]) -> i32 {
    let parse = |i: usize, default: usize| -> Option<usize> {
        match args.get(i) {
            None => Some(default),
            Some(s) => s.parse().ok(),
        }
    };
    let (Some(clients), Some(requests), Some(batch)) = (parse(0, 8), parse(1, 40), parse(2, 16))
    else {
        eprintln!("serve-bench: arguments must be positive integers");
        return 2;
    };
    if clients == 0 || requests == 0 || batch == 0 {
        eprintln!("serve-bench: arguments must be positive integers");
        return 2;
    }

    let cfg = TlpConfig::test_scale();
    let extractor =
        FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
    let model = TlpModel::new(cfg);
    let registry = Arc::new(ModelRegistry::new(EngineConfig::default()));
    registry
        .install_tlp("tlp", model, extractor)
        .expect("fresh model passes audit");

    let task = tlp_autotuner::SearchTask::new(
        Subgraph::new(
            "d",
            AnchorOp::Dense {
                m: 128,
                n: 128,
                k: 128,
            },
        ),
        Platform::i7_10510u(),
    );
    let pool = random_pool(&task, 256, 0xBE7C);
    let server = Server::start(registry, ServeConfig::default());
    let report = run_closed_loop(
        &server.client(),
        "tlp",
        &task,
        &pool,
        &LoadgenOptions {
            clients,
            requests_per_client: requests,
            batch,
            deadline: None,
        },
    );
    server.shutdown();
    println!("{}", report.to_json());
    if report.errors == 0 {
        0
    } else {
        1
    }
}

fn cmd_fleet_bench(args: &[String]) -> i32 {
    let parse = |i: usize, default: usize| -> Option<usize> {
        match args.get(i) {
            None => Some(default),
            Some(s) => s.parse().ok(),
        }
    };
    let (Some(shards), Some(clients), Some(requests), Some(batch)) =
        (parse(0, 4), parse(1, 64), parse(2, 8), parse(3, 16))
    else {
        eprintln!("fleet-bench: arguments must be positive integers");
        return 2;
    };
    if shards == 0 || clients == 0 || requests == 0 || batch == 0 {
        eprintln!("fleet-bench: arguments must be positive integers");
        return 2;
    }

    // One distinct task per client so the ring has enough routing keys to
    // spread load; the scaling bottleneck is the most-loaded shard.
    let tasks: Vec<tlp_autotuner::SearchTask> = (0..clients as i64)
        .map(|i| {
            tlp_autotuner::SearchTask::new(
                Subgraph::new(
                    "d",
                    AnchorOp::Dense {
                        m: 32 + 8 * i,
                        n: 256 - 2 * i,
                        k: 32 + 4 * (i % 8),
                    },
                ),
                Platform::i7_10510u(),
            )
        })
        .collect();
    let pools: Vec<_> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| random_pool(t, 96, 0xF1EE_7000 + i as u64))
        .collect();
    let opts = FleetLoadOptions {
        clients,
        requests_per_client: requests,
        batch,
        tenants: Vec::new(),
    };
    let service = SimServiceModel::default();
    let start_fleet = || {
        let cfg = TlpConfig::test_scale();
        let extractor =
            FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
        let fleet = ServingFleet::start(FleetConfig {
            shards,
            serve: ServeConfig {
                batchers: 1,
                ..ServeConfig::default()
            },
            ..FleetConfig::default()
        });
        fleet
            .install_tlp("tlp", &TlpModel::new(cfg), &extractor)
            .expect("fresh model passes audit");
        fleet
    };

    let healthy_fleet = start_fleet();
    let healthy = run_fleet_sim(
        &healthy_fleet.client(),
        "tlp",
        &tasks,
        &pools,
        &opts,
        &service,
    );
    healthy_fleet.shutdown();

    let chaos_fleet = start_fleet();
    chaos_fleet.client().fault(shards - 1, 0.2);
    let chaos = run_fleet_sim(
        &chaos_fleet.client(),
        "tlp",
        &tasks,
        &pools,
        &opts,
        &service,
    );
    let fleet_snapshot = chaos_fleet.shutdown();

    #[derive(serde::Serialize)]
    struct FleetBenchReport {
        shards: usize,
        chaos_fault_rate: f64,
        chaos_p99_over_healthy: f64,
        healthy: tlp_serve::FleetLoadReport,
        chaos: tlp_serve::FleetLoadReport,
        fleet: tlp_serve::FleetSnapshot,
    }
    let report = FleetBenchReport {
        shards,
        chaos_fault_rate: 0.2,
        chaos_p99_over_healthy: chaos.latency_us.p99_us / healthy.latency_us.p99_us.max(1e-9),
        healthy,
        chaos,
        fleet: fleet_snapshot,
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("serialize fleet report")
    );
    if report.healthy.errors == 0 && report.chaos.errors == 0 {
        0
    } else {
        1
    }
}
