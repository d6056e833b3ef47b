//! Fault-injection integration suite: arbitrary churn interleavings
//! against the ground-truth oracle, message-accounting conservation under
//! seeded fault plans, fuzz-style graceful-degradation checks through
//! every query path, and the headline replication acceptance criterion
//! (r = 2 keeps recall within 5% of the no-churn baseline under 10%
//! abrupt failures, while r = 1 demonstrably loses buckets).
//!
//! The fixed seed honors `ARS_FAULT_SEED` (default 0) so CI can sweep a
//! small matrix of seeds over the same assertions.

use ars::prelude::*;
use ars::simnet::{ConstantLatency, Node, NodeCtx};
use proptest::prelude::*;
use std::time::Duration;

fn fault_seed() -> u64 {
    std::env::var("ARS_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Grow a converged dynamic ring of `n` nodes (same idiom as the churn
/// recovery suite).
fn grown(n: usize, seed: u64) -> DynamicNetwork {
    let mut rng = DetRng::new(seed);
    let first = Id(rng.next_u32());
    let mut net = DynamicNetwork::bootstrap(first, 8);
    while net.len() < n {
        let id = Id(rng.next_u32());
        if net.node_ids().contains(&id) {
            continue;
        }
        net.join(id, first).expect("join during growth");
        net.stabilize_all(32);
    }
    net.stabilize_until_consistent(64)
        .expect("growth converges");
    net
}

/// Distinct well-spread query ranges for cache warm/measure phases.
fn trace(n: usize) -> Vec<RangeSet> {
    (0..n as u32)
        .map(|i| {
            let lo = i * 523 % 40_000;
            RangeSet::interval(lo, lo + 60 + (i % 5) * 25)
        })
        .collect()
}

// ---------------------------------------------------------------------
// 1. Arbitrary join/leave/fail interleavings: after stabilization, every
//    live node resolves every key to the ground-truth owner.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_churn_interleaving_converges_to_correct_lookups(
        ops in prop::collection::vec((0u8..3, 0u32..u32::MAX), 1..12),
        key_seed in 0u64..1_000_000,
    ) {
        let mut net = grown(16, 7);
        for (op, val) in ops {
            match op {
                0 => {
                    let id = Id(val);
                    if !net.node_ids().contains(&id) {
                        let via = net.node_ids()[0];
                        net.join(id, via).expect("join into live ring");
                    }
                }
                _ => {
                    // Keep enough nodes alive that the 8-deep successor
                    // lists always span the damage.
                    if net.len() > 6 {
                        let ids = net.node_ids();
                        let victim = ids[val as usize % ids.len()];
                        if op == 1 {
                            net.leave(victim).expect("graceful leave");
                        } else {
                            net.fail(victim).expect("abrupt fail");
                        }
                    }
                }
            }
        }
        prop_assert!(
            net.stabilize_until_consistent(512).is_some(),
            "ring failed to re-converge after churn interleaving"
        );
        let mut rng = DetRng::new(key_seed);
        let ids = net.node_ids();
        for _ in 0..10 {
            let key = Id(rng.next_u32());
            let owner = net.true_owner(key);
            for &from in &ids {
                let (got, _) = net
                    .lookup(from, key)
                    .expect("lookup on converged ring succeeds");
                prop_assert_eq!(got, owner, "lookup disagreed with ground truth");
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. Message accounting: sent == delivered + dropped + queued, at every
//    point in a faulted run, and the queue fully drains.
// ---------------------------------------------------------------------

/// A node that forwards a decrementing counter around the ring.
struct Relay {
    n_nodes: usize,
}

impl Node<u32> for Relay {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_, u32>, _from: usize, msg: u32) {
        if msg > 0 {
            ctx.send((ctx.me + 1) % self.n_nodes, msg - 1);
        }
    }
}

fn relays(n: usize) -> Vec<Box<dyn Node<u32>>> {
    (0..n)
        .map(|_| Box::new(Relay { n_nodes: n }) as Box<dyn Node<u32>>)
        .collect()
}

#[test]
fn sim_accounting_invariant_holds_under_drops() {
    let n = 20;
    let mut sim = SimNet::new(relays(n), ConstantLatency(5));
    sim.set_faults(FaultPlan::none().with_drop(0.10), fault_seed());
    for i in 0..n {
        sim.inject(0, i, 40);
    }
    // Mid-flight: messages are queued, and the ledger already balances.
    assert!(sim.stats().queued > 0, "injections should be in flight");
    assert!(
        sim.stats().is_conserved(),
        "conservation violated mid-flight"
    );
    // Interleave stepping with conservation checks so a transient
    // imbalance cannot hide inside a single long run.
    while sim.step() {
        assert!(
            sim.stats().is_conserved(),
            "conservation violated during run"
        );
    }
    let stats = sim.stats();
    assert_eq!(stats.queued, 0, "queue must drain");
    assert!(
        stats.dropped > 0,
        "10% drop over hundreds of sends loses some"
    );
    assert!(stats.delivered > 0, "most messages still arrive");
    assert_eq!(stats.sent, stats.delivered + stats.dropped);
}

#[test]
fn threaded_net_reaches_quiescence_under_drops() {
    let n = 8;
    let nodes: Vec<Box<dyn Node<u32> + Send>> = (0..n)
        .map(|_| Box::new(Relay { n_nodes: n }) as Box<dyn Node<u32> + Send>)
        .collect();
    let net =
        ThreadedNet::spawn_with_faults(nodes, FaultPlan::none().with_drop(0.30), fault_seed());
    for i in 0..n {
        net.inject(0, i, 25);
    }
    assert!(
        net.await_quiescence(Duration::from_secs(10)),
        "drops must terminate the relay chains, not hang them"
    );
    assert_eq!(net.sent(), net.delivered() + net.dropped());
    assert!(net.dropped() > 0, "30% drop over ~200 sends loses some");
    net.shutdown();
}

// ---------------------------------------------------------------------
// 3. Fuzz: no query path panics under any fault plan; outcomes stay
//    well-formed however hostile the network.
// ---------------------------------------------------------------------

fn well_formed(out: &QueryOutcome, l: usize) {
    assert!(
        (0.0..=1.0).contains(&out.recall),
        "recall out of range: {}",
        out.recall
    );
    assert!(
        (0.0..=1.0).contains(&out.similarity),
        "similarity out of range: {}",
        out.similarity
    );
    assert!(out.hops.len() <= l, "more lookups than hash groups");
    assert!(
        out.identifiers.len() <= l,
        "more identifiers than hash groups"
    );
    assert!(
        out.attempts >= out.hops.len(),
        "attempts must cover every successful lookup"
    );
    if out.fell_back_to_source {
        assert!(out.best_match.is_none(), "fallback implies no cached match");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The message-protocol path under arbitrary seeded fault plans:
    /// drops, duplication, extra delay, crashes, pauses.
    #[test]
    fn proto_query_survives_arbitrary_fault_plans(
        drop_p in 0.0f64..0.8,
        dup_p in 0.0f64..0.5,
        delay_p in 0.0f64..0.5,
        crash in 0usize..12,
        pause in 0usize..12,
        seed in 0u64..1_000_000,
    ) {
        let plan = FaultPlan::none()
            .with_drop(drop_p)
            .with_duplicate(dup_p)
            .with_delay(delay_p, 1, 50)
            .with_crash(crash, 0)
            .with_pause(pause, 10, 500);
        let config = SystemConfig::default().with_kl(8, 2).with_seed(seed);
        let mut net = ProtoNetwork::new_faulty(12, config, plan, seed);
        for q in trace(6) {
            well_formed(&net.query(&q), 2);
            // A repeat of the same query must also stay graceful (the
            // first attempt may or may not have cached anything).
            well_formed(&net.query(&q), 2);
        }
    }

    /// The churn path: abrupt failures plus per-attempt lookup loss, with
    /// no stabilization before querying. `query_resilient` is infallible
    /// and must degrade gracefully; `run_trace` on the static network
    /// stays well-formed on the same trace.
    #[test]
    fn churn_and_static_queries_stay_graceful(
        victims in 0usize..6,
        loss in 0.0f64..0.9,
        replication in 1usize..3,
        seed in 0u64..1_000_000,
    ) {
        let config = SystemConfig::default()
            .with_kl(8, 2)
            .with_replication(replication)
            .with_seed(seed);
        let mut net = ChurnNetwork::new(16, config.clone())
            .expect("growth converges");
        net.fail_random(victims);
        // Deliberately no stabilization: the resilient path must cope
        // with stale fingers and dead successors on its own.
        net.set_lookup_loss(loss);
        for q in trace(8) {
            well_formed(&net.query_resilient(&q), 2);
        }
        let stats = net.resilience();
        prop_assert!(stats.lookups_attempted >= stats.retries);

        let mut fixed = RangeSelectNetwork::new(16, config);
        for out in fixed.run_trace(&trace(8)) {
            well_formed(&out, 2);
        }
    }

    /// Route-cache equivalence: twin churn networks — one with the Chord
    /// route cache at an arbitrary capacity — driven through the same
    /// failures, lookup loss, and resilient query stream produce
    /// identical outcomes in every field except hop counts, which the
    /// cache may only lower. The cache is cleared on every membership and
    /// stabilization event, so no interleaving can make it serve a stale
    /// owner or change the success/retry pattern.
    #[test]
    fn route_cached_queries_equal_uncached_under_arbitrary_churn(
        victims in 0usize..5,
        loss in 0.0f64..0.7,
        capacity in 1usize..200,
        seed in 0u64..1_000_000,
    ) {
        let base = SystemConfig::default().with_kl(8, 2).with_seed(seed);
        let mut plain = ChurnNetwork::new(14, base.clone()).expect("growth converges");
        let mut cached = ChurnNetwork::new(14, base.with_route_cache(capacity))
            .expect("growth converges");
        plain.fail_random(victims);
        cached.fail_random(victims);
        plain.set_lookup_loss(loss);
        cached.set_lookup_loss(loss);
        for (i, q) in trace(8).iter().enumerate() {
            let a = plain.query_resilient(q);
            let b = cached.query_resilient(q);
            prop_assert_eq!(&a.best_match, &b.best_match, "match diverged on query {}", i);
            prop_assert_eq!(&a.identifiers, &b.identifiers, "identifiers diverged on query {}", i);
            prop_assert_eq!(a.stored, b.stored, "stored diverged on query {}", i);
            prop_assert_eq!(a.exact, b.exact, "exact diverged on query {}", i);
            prop_assert_eq!(a.attempts, b.attempts, "attempts diverged on query {}", i);
            prop_assert_eq!(
                a.fell_back_to_source, b.fell_back_to_source,
                "fallback diverged on query {}", i
            );
            prop_assert_eq!(a.hops.len(), b.hops.len(), "lookup count diverged on query {}", i);
            for (ah, bh) in a.hops.iter().zip(&b.hops) {
                prop_assert!(bh <= ah, "cache increased hops on query {}", i);
            }
        }
        prop_assert_eq!(plain.total_partitions(), cached.total_partitions());
        let stats = cached.route_cache_stats();
        prop_assert!(stats.hits + stats.misses > 0, "cache was never consulted");
    }
}

// ---------------------------------------------------------------------
// 4. Acceptance: with r = 2, recall under 10% abrupt failures stays
//    within 5% of the no-churn baseline; with r = 1 buckets are lost.
// ---------------------------------------------------------------------

/// Warm a replicated network, measure baseline recall, crash 10% of the
/// peers, stabilize, and measure again. Returns (baseline recall,
/// faulted recall, partitions before, partitions after).
fn recall_under_failures(replication: usize, seed: u64) -> (f64, f64, usize, usize) {
    const N_PEERS: usize = 40;
    let queries = trace(60);
    // l = 1 so each partition lives at exactly one identifier — with
    // r = 1 a crashed owner loses the bucket, with r = 2 the successor
    // replica keeps it findable. The paper's l = 5 default would mask the
    // contrast behind its five natural copies.
    let config = SystemConfig::default()
        .with_kl(16, 1)
        .with_matching(MatchMeasure::Containment)
        .with_replication(replication)
        .with_seed(0xACCE55 ^ seed);
    let mut net = ChurnNetwork::new(N_PEERS, config).expect("growth converges");
    for q in &queries {
        net.query_resilient(q);
    }
    let mean_recall = |net: &mut ChurnNetwork| {
        let sum: f64 = queries.iter().map(|q| net.query_resilient(q).recall).sum();
        sum / queries.len() as f64
    };
    let baseline = mean_recall(&mut net);
    let before = net.total_partitions();
    net.fail_random(N_PEERS / 10);
    net.stabilize(256).expect("ring recovers");
    // Count survivors before re-querying: the measurement pass itself
    // re-caches lost partitions on miss (soft-state healing).
    let after = net.total_partitions();
    let faulted = mean_recall(&mut net);
    (baseline, faulted, before, after)
}

#[test]
fn replicated_recall_survives_ten_percent_failures() {
    let seed = fault_seed();
    let (baseline, faulted, _, _) = recall_under_failures(2, seed);
    assert!(
        baseline > 0.95,
        "warm replicated cache should answer its own trace (got {baseline:.3})"
    );
    assert!(
        faulted >= baseline - 0.05,
        "r=2 recall {faulted:.3} fell more than 5% below baseline {baseline:.3} (seed {seed})"
    );
}

// ---------------------------------------------------------------------
// 5. Trace artifact: a faulted run under a recording sink exports a
//    well-formed JSON trace; when `ARS_TRACE_OUT` is set (CI does this)
//    the trace is also written there for artifact upload.
// ---------------------------------------------------------------------

#[test]
fn faulted_run_exports_json_trace_artifact() {
    let seed = fault_seed();
    let config = SystemConfig::default()
        .with_kl(8, 2)
        .with_replication(2)
        .with_seed(seed);
    let mut net = ChurnNetwork::new(16, config).expect("growth converges");
    let tel = ars::telemetry::Telemetry::recording();
    net.set_telemetry(tel.clone());
    net.fail_random(3);
    net.set_lookup_loss(0.25);
    for q in trace(10) {
        net.query_resilient(&q);
    }
    let json = tel.to_json();
    // Spot-check the trace is substantive, not an empty shell: the
    // metric vocabulary is present and the ledger made it out intact.
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"resilient.queries\":10"));
    assert!(json.contains("\"resilient.attempts\""));
    assert!(json.contains("\"core.query\""));
    assert!(json.contains("\"events\":["));
    let stats = net.resilience();
    assert!(json.contains(&format!("\"resilient.retries\":{}", stats.retries)));
    if let Ok(path) = std::env::var("ARS_TRACE_OUT") {
        std::fs::write(&path, &json)
            .unwrap_or_else(|e| panic!("writing trace artifact to {path}: {e}"));
    }
}

#[test]
fn unreplicated_failures_demonstrably_lose_buckets() {
    let seed = fault_seed();
    let (baseline, faulted, before, after) = recall_under_failures(1, seed);
    assert!(
        after < before,
        "crashing 10% of peers must lose r=1 partitions ({before} -> {after}, seed {seed})"
    );
    assert!(
        faulted < baseline,
        "r=1 recall should drop below the {baseline:.3} baseline (got {faulted:.3}, seed {seed})"
    );
}
