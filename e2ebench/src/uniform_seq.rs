//! `uniform_seq`: the paper's §5.1 setup on the sequential path — 1000
//! peers, the default configuration, uniform ranges over [0, 1000], one
//! `RangeSelectNetwork::query` at a time.

use crate::common::{occupancy, Episode, InputProps, StaticReplay, TracedPass, WARMUP_FRACTION};
use crate::spans::Tracer;
use crate::stats::Fnv;
use ars::core::{RangeSelectNetwork, SystemConfig};
use ars::lsh::RangeSet;
use ars::workload::uniform_trace;
use std::time::Instant;

const PEERS: usize = 1000;
/// The paper's trace length.
const QUERIES: usize = 10_000;

struct Setup {
    net: RangeSelectNetwork,
    trace: Vec<RangeSet>,
    warm: usize,
    digest: Fnv,
}

fn setup(seed: u64) -> Setup {
    let trace = uniform_trace(QUERIES, 0, 1000, seed).queries().to_vec();
    let warm = (QUERIES as f64 * WARMUP_FRACTION) as usize;
    let net = RangeSelectNetwork::new(PEERS, SystemConfig::default());
    Setup {
        net,
        trace,
        warm,
        digest: Fnv::new(),
    }
}

/// Ledgers the sequential path keeps: one stats entry per query, one
/// cache probe per query, and the routed hops summing to the outcome hops.
fn check_ledgers(net: &RangeSelectNetwork, queries: u64, hops: u64) -> Result<(), String> {
    let stats = net.stats();
    let cache = net.identifier_cache();
    if stats.queries != queries || cache.hits() + cache.misses() != queries {
        return Err(format!(
            "uniform_seq ledger: {} queries, stats {}, cache {}+{}",
            queries,
            stats.queries,
            cache.hits(),
            cache.misses()
        ));
    }
    if stats.total_hops != hops {
        return Err(format!(
            "uniform_seq hop ledger: stats {} against outcomes {}",
            stats.total_hops, hops
        ));
    }
    Ok(())
}

fn props(net: &RangeSelectNetwork, trace: &[RangeSet], stored: u64) -> InputProps {
    let mut p = InputProps::of_trace(trace);
    let cache = net.identifier_cache();
    p.ident_cache_hit_rate = cache.hits() as f64 / (cache.hits() + cache.misses()) as f64;
    p.stored_share = stored as f64 / trace.len() as f64;
    let peers = net.ring().node_ids().iter().filter_map(|&id| net.peer(id));
    (p.live_partitions, p.bucket_occupancy_mean) = occupancy(peers);
    p
}

pub fn episode(seed: u64) -> Result<Episode, String> {
    let t0 = Instant::now();
    let mut s = setup(seed);
    let mut ep = Episode::default();
    let (mut all_hops, mut stored) = (0u64, 0u64);
    for q in &s.trace[..s.warm] {
        let o = s.net.query(q);
        all_hops += o.hops.iter().sum::<usize>() as u64;
        stored += o.stored as u64;
        s.digest.outcome(&o);
    }
    ep.setup_s = t0.elapsed().as_secs_f64();
    for q in &s.trace[s.warm..] {
        let o = ep.time(|| s.net.query(q));
        let hops = o.hops.iter().sum::<usize>() as u64;
        all_hops += hops;
        stored += o.stored as u64;
        ep.book(&o, hops);
        s.digest.outcome(&o);
    }
    check_ledgers(&s.net, s.trace.len() as u64, all_hops)?;
    ep.digest = s.digest.finish();
    ep.props = props(&s.net, &s.trace, stored);
    Ok(ep)
}

/// One traced pass: every `query` call is spanned, then replayed through
/// the layers on the benchmark's own peers.
pub fn traced(seed: u64, t: &mut Tracer) -> Result<TracedPass, String> {
    let mut s = setup(seed);
    let mut replay = StaticReplay::new(s.net.config(), s.net.ring(), s.net.groups(), true);
    for (i, q) in s.trace.iter().enumerate() {
        t.on = i >= s.warm;
        t.query = i as u64;
        let net = &mut s.net;
        let o = t.span("query", || net.query(q));
        let r = replay.query(t, q);
        r.check(&o)?;
        if r.distinct_owners() != o.peers_contacted {
            return Err(format!("replay of {q} reached other owners"));
        }
    }
    t.on = true;
    for id in s.net.ring().node_ids() {
        let real = s.net.peer(*id).map_or(0, |p| p.partition_count());
        let shadow = replay.peers()[&id.0].partition_count();
        if real != shadow {
            return Err(format!(
                "peer {id:?} holds {real} partitions, replay {shadow}"
            ));
        }
    }
    let stats = s.net.stats();
    let cache = s.net.identifier_cache();
    let c = &replay.counts;
    let values = vec![
        (
            "ident_cache.hit_rate",
            cache.hits() as f64 / (cache.hits() + cache.misses()) as f64,
        ),
        ("ident_cache.evictions", cache.evictions() as f64),
        ("ring.lookups", stats.lookups as f64),
        (
            "ring.hops_per_lookup",
            stats.total_hops as f64 / stats.lookups as f64,
        ),
        (
            "bucket.ranges_scanned_per_match",
            c.ranges_scanned as f64 / c.match_calls as f64,
        ),
        (
            "bucket.stores_per_query",
            c.stored_new as f64 / s.trace.len() as f64,
        ),
    ];
    Ok(TracedPass {
        queries: (s.trace.len() - s.warm) as u64,
        values,
    })
}
