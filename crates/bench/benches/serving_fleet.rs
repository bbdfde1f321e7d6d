//! Sharded-serving fleet benchmark: throughput scaling across shard
//! counts, chaos-mode tail latency, and the zero-rate determinism
//! contract, writing `BENCH_fleet.json`.
//!
//! The container has one CPU core, so fleet scaling is measured with the
//! deterministic event-driven simulation from `tlp_serve::run_fleet_sim`:
//! routing, scoring, breakers, health gossip, and chaos injection all
//! execute for real, and only *time* is simulated (unit-capacity shards
//! under a calibrated service model). That makes every number here a pure
//! function of the configuration — reruns are bit-identical — so the
//! determinism checks and the scaling (≥ 3.0x at 4 shards) and chaos tail
//! (p99 ≤ 3.0x healthy) floors are all hard assertions.
//!
//! Sections:
//! 1. **Scaling sweep** — 64 closed-loop clients over 4 distinct tasks
//!    against 1/2/4/8-shard fleets; near-linear `scaling_x` expected once
//!    shards ≥ tasks spread across the ring.
//! 2. **Chaos** — one shard of a 4-shard fleet faulted at rate 0.2; every
//!    request must still complete via failover, and p99 is compared
//!    against the healthy run.
//! 3. **Zero-rate identity** — chaos wrappers forced to rate 0.0 must be
//!    bit-identical to an untouched fleet (score and latency digests).
//! 4. **Failover/failback** — a wedged shard (rate 1.0) trips its breaker,
//!    traffic fails over loss-free, and recovery closes the breaker.
//!
//! Run with `cargo bench -p tlp-bench --bench serving_fleet`.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use serde::Serialize;
use tlp::features::FeatureExtractor;
use tlp::{TlpConfig, TlpModel};
use tlp_autotuner::SearchTask;
use tlp_bench::write_json;
use tlp_hwsim::Platform;
use tlp_schedule::{ScheduleSequence, Vocabulary};
use tlp_serve::{
    random_pool, run_fleet_sim, BreakerState, FleetConfig, FleetLoadOptions, FleetLoadReport,
    ServeConfig, ServingFleet, SimLatencySummary, SimServiceModel, DEFAULT_TENANT,
};
use tlp_workload::{AnchorOp, Subgraph};

const CLIENTS: usize = 64;
const REQUESTS_PER_CLIENT: usize = 8;
const BATCH: usize = 16;
const POOL: usize = 96;
const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];
const CHAOS_SHARDS: usize = 4;
const CHAOS_RATE: f64 = 0.2;

fn dense_task(m: i64, n: i64, k: i64) -> SearchTask {
    SearchTask::new(
        Subgraph::new("d", AnchorOp::Dense { m, n, k }),
        Platform::i7_10510u(),
    )
}

/// One distinct task per client. The scaling bottleneck is the
/// most-loaded shard, and shard load is set by how many routing keys the
/// ring hands it — so the sweep needs keys ≫ shards for placement noise
/// to average out; with only a handful of keys, "scaling" would measure
/// where those few keys happened to land, not shard count.
fn tasks() -> Vec<SearchTask> {
    (0..CLIENTS as i64)
        .map(|i| dense_task(32 + 8 * i, 256 - 2 * i, 32 + 4 * (i % 8)))
        .collect()
}

fn pools(tasks: &[SearchTask]) -> Vec<Vec<ScheduleSequence>> {
    tasks
        .iter()
        .enumerate()
        .map(|(i, t)| random_pool(t, POOL, 0xF1EE_7000 + i as u64))
        .collect()
}

fn model_and_extractor() -> (TlpModel, FeatureExtractor) {
    let cfg = TlpConfig {
        seed: 7,
        ..TlpConfig::test_scale()
    };
    let ex = FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
    (TlpModel::new(cfg), ex)
}

/// One batcher per shard.
fn start_fleet(shards: usize) -> ServingFleet {
    let fleet = ServingFleet::start(FleetConfig {
        shards,
        serve: ServeConfig {
            batchers: 1,
            ..ServeConfig::default()
        },
        ..FleetConfig::default()
    });
    let (model, ex) = model_and_extractor();
    fleet.install_tlp("m", &model, &ex).expect("valid model");
    fleet
}

fn run(
    fleet: &ServingFleet,
    tasks: &[SearchTask],
    pools: &[Vec<ScheduleSequence>],
) -> FleetLoadReport {
    run_fleet_sim(
        &fleet.client(),
        "m",
        tasks,
        pools,
        &FleetLoadOptions {
            clients: CLIENTS,
            requests_per_client: REQUESTS_PER_CLIENT,
            batch: BATCH,
            tenants: Vec::new(),
        },
        &SimServiceModel::default(),
    )
}

#[derive(Serialize)]
struct ScaleRow {
    shards: usize,
    requests_per_s: f64,
    candidates_per_s: f64,
    sim_wall_s: f64,
    failovers: u64,
    latency_us: SimLatencySummary,
    /// Simulated throughput relative to the 1-shard fleet.
    scaling_x: f64,
}

#[derive(Serialize)]
struct ChaosReport {
    shards: usize,
    fault_rate: f64,
    faulted_shard: usize,
    ok: u64,
    errors: u64,
    failovers: u64,
    chaos_injected: u64,
    healthy_p99_us: f64,
    chaos_p99_us: f64,
    /// Chaos p99 over healthy p99 — CI warns above 3.0.
    p99_ratio: f64,
    zero_rate_bit_identical: bool,
}

#[derive(Serialize)]
struct FailoverReport {
    wedged_shard: usize,
    trips: u64,
    recoveries: u64,
    failovers_during_outage: u64,
    requests_lost: u64,
}

#[derive(Serialize)]
struct FleetBenchSummary {
    clients: usize,
    requests_per_client: usize,
    batch: usize,
    tasks: usize,
    scaling: Vec<ScaleRow>,
    /// 4-shard throughput over 1-shard — CI warns below 3.0.
    scaling_x_at_4_shards: f64,
    chaos: ChaosReport,
    failover: FailoverReport,
}

fn scaling_sweep(tasks: &[SearchTask], pools: &[Vec<ScheduleSequence>]) -> Vec<ScaleRow> {
    let mut rows: Vec<ScaleRow> = Vec::new();
    for &shards in &SHARD_SWEEP {
        let fleet = start_fleet(shards);
        let report = run(&fleet, tasks, pools);
        let total = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
        assert_eq!(
            report.ok, total,
            "{shards}-shard fleet completed all requests"
        );
        assert_eq!(report.errors, 0);
        let base = rows
            .first()
            .map_or(report.requests_per_s, |r: &ScaleRow| r.requests_per_s);
        rows.push(ScaleRow {
            shards,
            requests_per_s: report.requests_per_s,
            candidates_per_s: report.candidates_per_s,
            sim_wall_s: report.sim_wall_s,
            failovers: report.failovers,
            latency_us: report.latency_us,
            scaling_x: report.requests_per_s / base,
        });
        let row = rows.last().expect("just pushed");
        println!(
            "{shards} shard(s): {:.0} req/s ({:.2}x) | p50 {:.0}µs p99 {:.0}µs",
            row.requests_per_s, row.scaling_x, row.latency_us.p50_us, row.latency_us.p99_us
        );
        fleet.shutdown();
    }
    rows
}

fn chaos_section(
    tasks: &[SearchTask],
    pools: &[Vec<ScheduleSequence>],
    healthy: &ScaleRow,
) -> ChaosReport {
    // Zero-rate identity: forcing every chaos wrapper to rate 0.0 must be
    // bit-identical to never touching them.
    let untouched = start_fleet(CHAOS_SHARDS);
    let baseline = run(&untouched, tasks, pools);
    untouched.shutdown();
    let zeroed = start_fleet(CHAOS_SHARDS);
    for s in 0..CHAOS_SHARDS {
        zeroed.client().fault(s, 0.0);
    }
    let zero_run = run(&zeroed, tasks, pools);
    zeroed.shutdown();
    let identical = zero_run.score_digest == baseline.score_digest
        && zero_run.latency_digest == baseline.latency_digest;
    assert!(identical, "rate-0 chaos must be bit-identical to no chaos");

    // One shard faulted at CHAOS_RATE: every request still completes (the
    // router fails injected errors over to the next ring owner).
    let fleet = start_fleet(CHAOS_SHARDS);
    let faulted = 1usize;
    fleet.client().fault(faulted, CHAOS_RATE);
    let report = run(&fleet, tasks, pools);
    let total = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    assert_eq!(report.ok, total, "all requests complete under chaos");
    assert_eq!(report.errors, 0);
    assert!(
        report.failovers > 0,
        "chaos at {CHAOS_RATE} forces failovers"
    );
    let injected = fleet.client().injected(faulted);
    fleet.shutdown();

    let ratio = report.latency_us.p99_us / healthy.latency_us.p99_us.max(1e-9);
    println!(
        "chaos rate {CHAOS_RATE} on shard {faulted}: ok {}/{} | {} failovers | p99 {:.0}µs ({:.2}x healthy)",
        report.ok, total, report.failovers, report.latency_us.p99_us, ratio
    );
    ChaosReport {
        shards: CHAOS_SHARDS,
        fault_rate: CHAOS_RATE,
        faulted_shard: faulted,
        ok: report.ok,
        errors: report.errors,
        failovers: report.failovers,
        chaos_injected: injected,
        healthy_p99_us: healthy.latency_us.p99_us,
        chaos_p99_us: report.latency_us.p99_us,
        p99_ratio: ratio,
        zero_rate_bit_identical: identical,
    }
}

fn failover_section(tasks: &[SearchTask], pools: &[Vec<ScheduleSequence>]) -> FailoverReport {
    let fleet = start_fleet(2);
    let client = fleet.client();
    let task = &tasks[0];
    let owner = client.owner_of("m", task);
    let batch: Vec<ScheduleSequence> = pools[0][..BATCH].to_vec();

    // Wedge the owner completely: requests fail over, the router breaker
    // trips, and nothing is lost.
    client.fault(owner, 1.0);
    let mut lost = 0u64;
    for _ in 0..8 {
        let reply = client.score_detailed(DEFAULT_TENANT, "m", task, &batch, None);
        if reply.is_err() {
            lost += 1;
        }
    }
    let trips = client.breaker(owner).trips;
    assert_eq!(lost, 0, "failover keeps a wedged shard loss-free");
    assert!(trips >= 1, "router breaker tripped for the wedged shard");
    let failovers_during_outage = client.stats().failovers;

    // Heal and drive traffic until the half-open probe closes the breaker.
    client.fault(owner, 0.0);
    let mut recovered = false;
    for _ in 0..64 {
        let _ = client.score_detailed(DEFAULT_TENANT, "m", task, &batch, None);
        if client.breaker(owner).state == BreakerState::Closed {
            recovered = true;
            break;
        }
    }
    assert!(recovered, "breaker failed back after the fault cleared");
    let recoveries = client.breaker(owner).recoveries;
    fleet.shutdown();
    println!(
        "failover: shard {owner} wedged → {failovers_during_outage} failovers, {trips} trip(s), {recoveries} recovery(ies), 0 lost"
    );
    FailoverReport {
        wedged_shard: owner,
        trips,
        recoveries,
        failovers_during_outage,
        requests_lost: lost,
    }
}

fn main() {
    let tasks = tasks();
    let pools = pools(&tasks);

    println!(
        "fleet scaling sweep: {CLIENTS} clients, {} tasks…",
        tasks.len()
    );
    let scaling = scaling_sweep(&tasks, &pools);
    let four = scaling
        .iter()
        .find(|r| r.shards == 4)
        .expect("sweep includes 4 shards");
    let scaling_x_at_4_shards = four.scaling_x;

    println!("\nchaos: shard fault at rate {CHAOS_RATE}…");
    let chaos = chaos_section(&tasks, &pools, four);

    println!("\nfailover/failback…");
    let failover = failover_section(&tasks, &pools);

    let summary = FleetBenchSummary {
        clients: CLIENTS,
        requests_per_client: REQUESTS_PER_CLIENT,
        batch: BATCH,
        tasks: tasks.len(),
        scaling,
        scaling_x_at_4_shards,
        chaos,
        failover,
    };

    write_json("BENCH_fleet", &summary);
    // Also drop a copy at the repo root so the acceptance record travels
    // with the source tree, not just the target directory.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_fleet.json");
    let body = serde_json::to_string_pretty(&summary).expect("serialize summary");
    std::fs::write(&root, body).expect("write BENCH_fleet.json");

    // Hard floors, checked after the record is written so a failing run
    // still leaves its numbers behind. Both come from the simulated clock,
    // so they are deterministic and a miss is a regression, not noise.
    assert!(
        summary.scaling_x_at_4_shards >= 3.0,
        "4-shard scaling {:.2}x below the 3.0x floor",
        summary.scaling_x_at_4_shards
    );
    assert!(
        summary.chaos.p99_ratio <= 3.0,
        "chaos p99 {:.2}x healthy, above the 3.0x ceiling",
        summary.chaos.p99_ratio
    );
}
