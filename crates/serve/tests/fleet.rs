//! Fleet integration suite: consistent-hash routing, tenant-independent
//! keys, failover/failback through breakers and health gossip, quota
//! behavior at the router, fleet-wide aggregation, and the property test
//! that scores never mix across shards or tenants.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlp::features::FeatureExtractor;
use tlp::persist::{snapshot_tlp, PersistError};
use tlp::{TlpConfig, TlpModel};
use tlp_autotuner::{Candidate, SearchTask, SketchPolicy};
use tlp_hwsim::Platform;
use tlp_modelcheck::Code;
use tlp_schedule::{ScheduleSequence, Vocabulary};
use tlp_serve::{
    BreakerConfig, BreakerState, FleetConfig, FleetLoadOptions, HealthPolicy, RemoteCostModel,
    ServeConfig, ServeError, ServingFleet, SimServiceModel, TenantPolicy, TenantSpec,
};
use tlp_workload::{AnchorOp, Subgraph};

fn dense_task(m: i64, n: i64, k: i64) -> SearchTask {
    SearchTask::new(
        Subgraph::new("d", AnchorOp::Dense { m, n, k }),
        Platform::i7_10510u(),
    )
}

fn candidates(task: &SearchTask, n: usize, seed: u64) -> Vec<ScheduleSequence> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Candidate::random(&SketchPolicy::cpu(), &task.subgraph, &mut rng).sequence)
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

/// A fleet of `shards` with one batcher each.
fn fleet_config(shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        serve: ServeConfig {
            batchers: 1,
            ..ServeConfig::default()
        },
        ..FleetConfig::default()
    }
}

/// Starts a fleet with the *same* model (seed 7) on every shard.
fn uniform_fleet(shards: usize) -> ServingFleet {
    let f = ServingFleet::start(fleet_config(shards));
    let (model, ex) = scorer(7);
    f.install_tlp("m", &model, &ex).expect("valid model");
    f
}

/// Ground truth for one shard: score directly through that shard's own
/// registry engine, bypassing the router entirely.
fn shard_truth(
    fleet: &ServingFleet,
    shard: usize,
    task: &SearchTask,
    batch: &[ScheduleSequence],
) -> Vec<Option<f32>> {
    fleet
        .registry(shard)
        .resolve("m")
        .expect("installed")
        .score(task, batch)
        .0
}

#[test]
fn fleet_scores_match_single_shard_bit_for_bit() {
    let t = dense_task(128, 128, 128);
    let pool = candidates(&t, 8, 3);
    let single = uniform_fleet(1);
    let quad = uniform_fleet(4);
    let want = single
        .client()
        .score_detailed("a", "m", &t, &pool, None)
        .expect("single shard")
        .reply
        .scores;
    let got = quad
        .client()
        .score_detailed("b", "m", &t, &pool, None)
        .expect("quad fleet")
        .reply
        .scores;
    assert_eq!(want, got, "sharding and tenancy must not change scores");
    single.shutdown();
    quad.shutdown();
}

#[test]
fn routing_is_sticky_and_tenant_independent() {
    let fleet = uniform_fleet(4);
    let client = fleet.client();
    for (i, (m, n, k)) in [(64, 64, 64), (128, 64, 32), (256, 128, 64), (32, 32, 256)]
        .into_iter()
        .enumerate()
    {
        let t = dense_task(m, n, k);
        let pool = candidates(&t, 4, 100 + i as u64);
        let owner = client.owner_of("m", &t);
        for tenant in ["alice", "bob", "default"] {
            let r = client
                .score_detailed(tenant, "m", &t, &pool, None)
                .expect("healthy fleet");
            assert_eq!(r.shard, owner, "tenant `{tenant}` must not move the key");
            assert_eq!(r.failovers, 0);
        }
    }
    let snap = fleet.snapshot();
    assert_eq!(snap.router.routed, 12);
    assert_eq!(snap.router.failovers, 0);
    assert_eq!(snap.completed, 12);
    fleet.shutdown();
}

#[test]
fn failover_on_wedged_shard_then_failback_after_recovery() {
    let mut config = fleet_config(3);
    config.breaker = BreakerConfig {
        failure_threshold: 2,
        cooldown_calls: 3,
    };
    let fleet = ServingFleet::start(config);
    let (model, ex) = scorer(7);
    fleet.install_tlp("m", &model, &ex).expect("valid model");
    let client = fleet.client();
    let t = dense_task(96, 96, 96);
    let pool = candidates(&t, 4, 9);
    let order = client.route_order("m", &t);
    let (owner, backup) = (order[0], order[1]);

    // Wedge the owner: every request to it fails, so requests fail over to
    // the backup — none are lost.
    client.fault(owner, 1.0);
    for i in 0..8 {
        let r = client
            .score_detailed("alice", "m", &t, &pool, None)
            .unwrap_or_else(|e| panic!("request {i} lost under failover: {e}"));
        assert_eq!(r.shard, backup, "request {i} must serve from the backup");
        assert_eq!(r.failovers, 1, "request {i} pays exactly one hop");
    }

    // Satellite: per-endpoint breaker rows name the tripped shard.
    let remote = RemoteCostModel::new(client.clone(), "m");
    let rows = remote.endpoint_breakers();
    assert_eq!(rows[0].endpoint, "client");
    let owner_row = &rows[1 + owner];
    assert_eq!(owner_row.endpoint, format!("shard-{owner}"));
    assert_eq!(owner_row.breaker.state, BreakerState::Open);
    assert!(owner_row.breaker.trips >= 1);
    for (i, row) in rows.iter().enumerate().skip(1) {
        if i != 1 + owner {
            assert_eq!(
                row.breaker.state,
                BreakerState::Closed,
                "only the faulted shard may trip ({})",
                row.endpoint
            );
        }
    }

    // Recovery: clear the fault and keep driving; the call-count cooldown
    // lets a half-open probe through, it succeeds, and traffic fails back.
    client.fault(owner, 0.0);
    let mut failback_at = None;
    for i in 0..12 {
        let r = client
            .score_detailed("alice", "m", &t, &pool, None)
            .expect("request during recovery");
        if r.shard == owner {
            failback_at = Some(i);
            break;
        }
    }
    assert!(
        failback_at.is_some(),
        "traffic must fail back to the owner after recovery"
    );
    let snap = client.breaker(owner);
    assert_eq!(snap.state, BreakerState::Closed);
    assert!(snap.recoveries >= 1, "half-open probe recovery is counted");
    fleet.shutdown();
}

#[test]
fn health_gossip_trips_breaker_before_consecutive_failure_threshold() {
    let mut config = fleet_config(3);
    // The breaker's own threshold is unreachable in this test: only the
    // published health snapshot can trip it.
    config.breaker = BreakerConfig {
        failure_threshold: 1000,
        cooldown_calls: 1000,
    };
    config.health = HealthPolicy {
        publish_every: 6,
        min_window: 6,
        max_error_rate: 0.5,
    };
    let fleet = ServingFleet::start(config);
    let (model, ex) = scorer(7);
    fleet.install_tlp("m", &model, &ex).expect("valid model");
    let client = fleet.client();
    let t = dense_task(80, 80, 80);
    let pool = candidates(&t, 4, 21);
    let owner = client.owner_of("m", &t);

    client.fault(owner, 1.0);
    for _ in 0..8 {
        client
            .score_detailed("x", "m", &t, &pool, None)
            .expect("failover keeps requests alive");
    }
    assert_eq!(
        client.breaker(owner).state,
        BreakerState::Open,
        "published error rate 1.0 must trip the owner via gossip"
    );
    let stats = client.stats();
    assert!(stats.gossip_trips >= 1, "trip must be gossip-driven");
    let health = client.health();
    let h = health[owner].as_ref().expect("owner window published");
    assert!(h.sick);
    assert!(h.error_rate > 0.5);
    fleet.shutdown();
}

#[test]
fn tenant_over_quota_is_returned_not_failed_over() {
    let mut config = fleet_config(2);
    config.serve = ServeConfig {
        queue_capacity: 2,
        batchers: 0, // paused: queued jobs sit so quota state is observable
        tenants: TenantPolicy::with_classes(vec![
            TenantSpec::new("greedy", 1),
            TenantSpec::new("light", 1),
        ]),
        ..ServeConfig::default()
    };
    let fleet = ServingFleet::start(config);
    let (model, ex) = scorer(7);
    fleet.install_tlp("m", &model, &ex).expect("valid model");
    let client = fleet.client();
    let t = dense_task(72, 72, 72);
    let pool = candidates(&t, 2, 31);
    let owner = client.owner_of("m", &t);

    // Fill greedy's share (2 * 1/2 = 1 slot) on the owner shard directly.
    let _held = client
        .shard_client(owner)
        .submit_as("greedy", "m", &t, &pool, None)
        .expect("first job fits the share");
    let before = client.stats().failovers;
    let err = client
        .score_detailed("greedy", "m", &t, &pool, None)
        .expect_err("greedy is at its share");
    assert!(
        matches!(err, ServeError::TenantOverQuota { ref tenant, .. } if tenant == "greedy"),
        "got {err:?}"
    );
    assert_eq!(
        client.stats().failovers,
        before,
        "quota rejection must not spill load onto other shards"
    );
    // The other tenant's share is untouched.
    let _ok = client
        .shard_client(owner)
        .submit_as("light", "m", &t, &pool, None)
        .expect("light tenant admits within its own share");
    fleet.shutdown();
}

#[test]
fn fleet_snapshot_aggregates_shards_and_tenants() {
    let fleet = uniform_fleet(3);
    let client = fleet.client();
    let tasks: Vec<SearchTask> = [(64, 64, 64), (96, 64, 32), (128, 96, 48)]
        .into_iter()
        .map(|(m, n, k)| dense_task(m, n, k))
        .collect();
    for (i, t) in tasks.iter().enumerate() {
        let pool = candidates(t, 4, 200 + i as u64);
        for tenant in ["a", "b"] {
            client
                .score_detailed(tenant, "m", t, &pool, None)
                .expect("healthy fleet");
        }
    }
    let snap = fleet.snapshot();
    assert_eq!(snap.shards.len(), 3);
    assert_eq!(snap.router.routed, 6);
    assert_eq!(snap.completed, 6);
    assert_eq!(
        snap.shards.iter().map(|s| s.serve.completed).sum::<u64>(),
        6
    );
    let tenant_rows: Vec<&str> = snap
        .shards
        .iter()
        .flat_map(|s| s.serve.tenants.iter().map(|r| r.tenant.as_str()))
        .collect();
    assert!(tenant_rows.contains(&"a") && tenant_rows.contains(&"b"));
    let json = snap.to_json();
    assert!(json.contains("\"router\"") && json.contains("\"gossip_trips\""));
    fleet.shutdown();
}

#[test]
fn fleet_rejects_invalid_models_on_both_install_paths() {
    let fleet = ServingFleet::start(fleet_config(3));

    // In-memory path: a NaN weight fails the numeric pass (M301).
    let (mut model, ex) = scorer(7);
    let id = model.store.ids().next().expect("store has params");
    model.store.value_mut(id).data_mut()[0] = f32::NAN;
    match fleet.install_tlp("bad", &model, &ex) {
        Err(PersistError::Invalid { diagnostics }) => {
            assert!(diagnostics.iter().any(|d| d.code == Code::NonFiniteValue));
        }
        other => panic!("expected Invalid, got {other:?}"),
    }

    // Snapshot path: one flipped bit fails the store checksum (M106).
    let (model, ex) = scorer(7);
    let mut snap = snapshot_tlp(&model, &ex);
    let id = snap.store().ids().next().expect("store has params");
    let bits = snap.store().value(id).data()[0].to_bits() ^ 1;
    snap.store_mut().value_mut(id).data_mut()[0] = f32::from_bits(bits);
    match fleet.install("bad", &snap) {
        Err(PersistError::Invalid { diagnostics }) => {
            assert!(diagnostics.iter().any(|d| d.code == Code::ChecksumMismatch));
        }
        other => panic!("expected Invalid, got {other:?}"),
    }

    for shard in 0..fleet.shard_count() {
        assert!(
            fleet.registry(shard).resolve("bad").is_none(),
            "shard {shard} resolves a rejected model"
        );
    }
    let stats = fleet.snapshot();
    let rejected: u64 = stats.shards.iter().map(|s| s.serve.rejected_installs).sum();
    assert_eq!(rejected, 2, "each rejected fleet install is counted");
    fleet.shutdown();
}

#[test]
fn sim_completes_all_requests_under_chaos_and_rate_zero_is_bit_identical() {
    let t1 = dense_task(64, 64, 64);
    let t2 = dense_task(96, 96, 48);
    let tasks = vec![t1, t2];
    let pools: Vec<Vec<ScheduleSequence>> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| candidates(t, 24, 400 + i as u64))
        .collect();
    let opts = FleetLoadOptions {
        clients: 8,
        requests_per_client: 4,
        batch: 4,
        tenants: vec!["a".into(), "b".into()],
    };
    let service = SimServiceModel::default();
    let run = |fault: Option<(usize, f64)>| {
        let fleet = uniform_fleet(2);
        let client = fleet.client();
        if let Some((shard, rate)) = fault {
            client.fault(shard, rate);
        }
        let report = tlp_serve::run_fleet_sim(&client, "m", &tasks, &pools, &opts, &service);
        fleet.shutdown();
        report
    };
    let clean = run(None);
    let zero = run(Some((0, 0.0)));
    assert_eq!(
        clean.score_digest, zero.score_digest,
        "rate 0 must be inert"
    );
    assert_eq!(clean.latency_digest, zero.latency_digest);
    assert_eq!(clean.ok, 32);
    assert_eq!(clean.errors, 0);

    let chaotic = run(Some((0, 0.2)));
    assert_eq!(chaotic.ok, 32, "chaos at rate 0.2 must lose no jobs");
    assert_eq!(chaotic.errors, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The no-mixing property: for any task and any pair of tenants, the
    /// fleet's reply is bit-identical to scoring directly on the shard it
    /// reports — through a full fault → failover → recover → failback
    /// cycle. Shards deliberately hold *divergent* models (different init
    /// seeds), so any cross-shard blending or misrouting would change the
    /// score bits; tenancy must never change bits or routing at all.
    #[test]
    fn scores_never_mix_across_shards_or_tenants(
        dim_idx in 0usize..4,
        tenant_a in "[a-z]{1,8}",
        tenant_b in "[a-z]{1,8}",
        cand_seed in 0u64..1000,
    ) {
        let mut config = fleet_config(3);
        config.breaker = BreakerConfig { failure_threshold: 1, cooldown_calls: 2 };
        let fleet = ServingFleet::start(config);
        for shard in 0..3 {
            let (model, ex) = scorer(1000 + shard as u64);
            fleet
                .registry(shard)
                .install_tlp("m", model, ex)
                .expect("valid model");
        }
        let client = fleet.client();
        let dims = [(48i64, 48i64, 48i64), (64, 96, 32), (96, 64, 64), (128, 48, 96)][dim_idx];
        let t = dense_task(dims.0, dims.1, dims.2);
        let pool = candidates(&t, 4, cand_seed);
        let order = client.route_order("m", &t);
        let (owner, backup) = (order[0], order[1]);

        // Healthy: both tenants land on the owner, bits match its model.
        let truth_owner = shard_truth(&fleet, owner, &t, &pool);
        for tenant in [tenant_a.as_str(), tenant_b.as_str()] {
            let r = client.score_detailed(tenant, "m", &t, &pool, None).expect("healthy");
            prop_assert_eq!(r.shard, owner);
            prop_assert_eq!(&r.reply.scores, &truth_owner);
        }

        // Failover: replies now carry exactly the backup's model bits.
        client.fault(owner, 1.0);
        let truth_backup = shard_truth(&fleet, backup, &t, &pool);
        for tenant in [tenant_a.as_str(), tenant_b.as_str()] {
            let r = client.score_detailed(tenant, "m", &t, &pool, None).expect("failover");
            prop_assert_eq!(r.shard, backup);
            prop_assert_eq!(&r.reply.scores, &truth_backup);
        }

        // Failback: after recovery the owner serves its own bits again.
        client.fault(owner, 0.0);
        let mut failed_back = false;
        for _ in 0..8 {
            let r = client.score_detailed(tenant_a.as_str(), "m", &t, &pool, None).expect("recovery");
            let want = shard_truth(&fleet, r.shard, &t, &pool);
            prop_assert_eq!(&r.reply.scores, &want, "every reply matches its serving shard");
            if r.shard == owner {
                failed_back = true;
                break;
            }
        }
        prop_assert!(failed_back, "traffic must return to the owner");
        fleet.shutdown();
    }
}
