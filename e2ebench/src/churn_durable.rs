//! `churn_durable`: writes beside reads on a churning ring — 128 peers
//! grown through the join protocol, replication 2, durable stores that
//! sync every append, 2% lookup loss, `query_timed` for every query and
//! one membership event every 500 queries.

use crate::common::{Episode, InputProps, ReplayCounts, Replayed, TracedPass, WARMUP_FRACTION};
use crate::spans::Tracer;
use crate::stats::Fnv;
use ars::chord::Id;
use ars::common::{DetRng, FxHashMap};
use ars::core::bucket::Match;
use ars::core::durable::encode_range;
use ars::core::{ChurnNetwork, DurabilityConfig, MatchMeasure, Peer, SystemConfig};
use ars::lsh::{HashGroups, RangeSet};
use ars::store::BucketStore;
use ars::workload::zipf_trace;
use std::time::Instant;

const PEERS: usize = 128;
const QUERIES: usize = 5_000;
/// Queries between membership events.
const EVENT_EVERY: usize = 500;
const LOOKUP_LOSS: f64 = 0.02;
const REPLAY_ORIGIN_SEED: u64 = 0xc4_0e1a;

fn config() -> SystemConfig {
    SystemConfig::default()
        .with_replication(2)
        .with_durability(DurabilityConfig::default())
}

fn trace(seed: u64) -> Vec<RangeSet> {
    zipf_trace(QUERIES, 0, 40_000, 256, 0.9, 2000, seed)
        .queries()
        .to_vec()
}

fn build() -> Result<ChurnNetwork, String> {
    let mut net =
        ChurnNetwork::new(PEERS, config()).map_err(|e| format!("ring growth failed: {e:?}"))?;
    net.set_lookup_loss(LOOKUP_LOSS);
    Ok(net)
}

/// One membership event: a permanent failure, a join, stabilization, and
/// a crash followed by the crashed peer's restart. Returns the calls
/// attempted and how many failed.
fn membership(net: &mut ChurnNetwork, t: &mut Tracer) -> (u64, u64) {
    let mut failed = 0;
    t.span("churn.fail", || net.fail_random(1));
    failed += t.span("churn.join", || net.join_random()).is_err() as u64;
    failed += t.span("churn.stabilize", || net.stabilize(64)).is_none() as u64;
    let downed = t.span("churn.crash", || net.crash_random(1));
    failed += downed.is_empty() as u64;
    for &id in &downed {
        failed += t.span("churn.restart", || net.restart(id)).is_err() as u64;
    }
    (4 + downed.len() as u64, failed)
}

/// Bucket ledger (`placed + recovered == live + lost`) and retry ledger
/// (every lookup attempt is a success, a failure or a retry).
fn check_ledgers(net: &ChurnNetwork, successes: u64, attempts: u64) -> Result<(), String> {
    let rs = net.resilience();
    let live = net.total_partitions() as u64;
    if rs.buckets_placed + rs.buckets_recovered != live + rs.buckets_lost {
        return Err(format!(
            "bucket ledger: placed {} + recovered {} != live {} + lost {}",
            rs.buckets_placed, rs.buckets_recovered, live, rs.buckets_lost
        ));
    }
    if rs.lookups_attempted != successes + rs.lookups_failed + rs.retries
        || rs.lookups_attempted != attempts
    {
        return Err(format!(
            "retry ledger: attempted {} (outcomes {}) != successes {} + failed {} + retries {}",
            rs.lookups_attempted, attempts, successes, rs.lookups_failed, rs.retries
        ));
    }
    Ok(())
}

pub fn episode(seed: u64) -> Result<Episode, String> {
    let t0 = Instant::now();
    let trace = trace(seed);
    let warm = (QUERIES as f64 * WARMUP_FRACTION) as usize;
    let mut net = build()?;
    let mut ep = Episode::default();
    let mut off = Tracer::disabled();
    let mut digest = Fnv::new();
    let (mut successes, mut attempts, mut stored) = (0u64, 0u64, 0u64);
    for (i, q) in trace.iter().enumerate() {
        if i == warm {
            ep.setup_s = t0.elapsed().as_secs_f64();
        }
        if i > 0 && i % EVENT_EVERY == 0 {
            let start = Instant::now();
            let (tried, failed) = membership(&mut net, &mut off);
            if i >= warm {
                ep.membership_ms.push(start.elapsed().as_secs_f64() * 1e3);
                ep.attempted += tried;
                ep.failed += failed;
            }
        }
        let (o, latency) = if i >= warm {
            let (o, latency) = ep.time(|| net.query_timed(q));
            ep.book(&o, o.hops.iter().sum::<usize>() as u64);
            ep.sim_latency.push(latency);
            (o, latency)
        } else {
            net.query_timed(q)
        };
        digest.outcome(&o);
        digest.u64(latency);
        successes += o.hops.len() as u64;
        attempts += o.attempts as u64;
        stored += o.stored as u64;
    }
    check_ledgers(&net, successes, attempts)?;
    // Hedges and probes are off in this workload; count them anyway so
    // the message total follows the telemetry definition.
    let rs = net.resilience();
    ep.messages += rs.hedge_hops + rs.probes_sent;
    ep.digest = digest.finish();
    let mut p = InputProps::of_trace(&trace);
    p.stored_share = stored as f64 / trace.len() as f64;
    let inventory = net.inventory();
    p.live_partitions = inventory.len() as u64;
    let mut buckets: Vec<(u32, u32)> = inventory.iter().map(|e| (e.0, e.1)).collect();
    buckets.dedup();
    p.bucket_occupancy_mean = inventory.len() as f64 / buckets.len().max(1) as f64;
    ep.props = p;
    Ok(ep)
}

/// The resilient query path driven through the layers' public calls on
/// peers and durable stores the benchmark holds itself. Membership events
/// re-replicate and recover inside the program, so after each one the
/// replay's peers are rebuilt from the program's inventory.
struct ChurnReplay {
    groups: HashGroups,
    peers: FxHashMap<u32, Peer>,
    stores: FxHashMap<u32, BucketStore>,
    durability: DurabilityConfig,
    matching: MatchMeasure,
    rng: DetRng,
    counts: ReplayCounts,
    syncs: u64,
}

impl ChurnReplay {
    fn new(net: &ChurnNetwork) -> ChurnReplay {
        // `freeze` hands out the network's own hash groups; taken while
        // storage is empty, the copy is cheap.
        let groups = net.freeze().groups().clone();
        let mut r = ChurnReplay {
            groups,
            peers: FxHashMap::default(),
            stores: FxHashMap::default(),
            durability: config().durability.expect("durable workload"),
            matching: config().matching,
            rng: DetRng::new(REPLAY_ORIGIN_SEED),
            counts: ReplayCounts::default(),
            syncs: 0,
        };
        r.resync(net);
        r
    }

    fn resync(&mut self, net: &ChurnNetwork) {
        self.peers = net
            .chord()
            .node_ids()
            .into_iter()
            .map(|id| (id.0, Peer::new(id)))
            .collect();
        for (pid, ident, intervals) in net.inventory() {
            if let Some(p) = self.peers.get_mut(&pid) {
                p.store(ident, RangeSet::from_intervals(intervals));
            }
        }
        let peers = &self.peers;
        self.stores.retain(|id, _| peers.contains_key(id));
        let seed = config().seed;
        for &id in self.peers.keys() {
            let d = &self.durability;
            self.stores
                .entry(id)
                .or_insert_with(|| BucketStore::new(d.store_config(), d.seed_for(seed, id)));
        }
    }

    fn shadow_partitions(&self) -> usize {
        self.peers.values().map(Peer::partition_count).sum()
    }

    /// Replay one query after the program ran it, in the real path's
    /// order: hash, then per identifier placement, lookup and bucket
    /// match, then stores at every replica owner with their durable
    /// appends.
    fn query(
        &mut self,
        t: &mut Tracer,
        net: &ChurnNetwork,
        q: &RangeSet,
    ) -> Result<Replayed, String> {
        t.begin("replay");
        let groups = &self.groups;
        let identifiers = t.span("lsh.identifiers", || groups.identifiers(q));
        self.counts.lsh_calls += 1;
        let chord = net.chord();
        let nodes = chord.node_ids();
        let origin = nodes[self.rng.gen_index(nodes.len())];
        let mut routed: Vec<(u32, Id, Option<Match>)> = Vec::with_capacity(identifiers.len());
        let mut best: Option<Match> = None;
        for &ident in &identifiers {
            let key = t.span("dynamic.place", || {
                Id(ars::chord::sha1::sha1_u32(&ident.to_be_bytes()))
            });
            let Ok((owner, _hops)) = t.span("dynamic.lookup", || chord.lookup(origin, key)) else {
                continue;
            };
            if owner != chord.true_owner(key) {
                t.end();
                return Err(format!(
                    "replay lookup of {key:?} reached {owner:?}, not the owner"
                ));
            }
            let peer = &self.peers[&owner.0];
            self.counts.ranges_scanned += peer.bucket(ident).map_or(0, |b| b.len()) as u64;
            let matching = self.matching;
            let m = t.span("bucket.match", || peer.best_in_bucket(ident, q, matching));
            self.counts.match_calls += 1;
            if let Some(m) = &m {
                if best.as_ref().is_none_or(|b| m.score > b.score) {
                    best = Some(m.clone());
                }
            }
            routed.push((ident, owner, m));
        }
        let exact = best.as_ref().is_some_and(|m| m.range == *q);
        let mut stored = false;
        if !exact {
            for &(ident, _, _) in &routed {
                for owner in net.replica_owners(ident) {
                    let peer = self
                        .peers
                        .get_mut(&owner.0)
                        .expect("replica owner is alive");
                    let new = t.span("bucket.store", || peer.store(ident, q.clone()));
                    if !new {
                        continue;
                    }
                    self.counts.stored_new += 1;
                    stored = true;
                    let store = self
                        .stores
                        .get_mut(&owner.0)
                        .expect("alive peer has a store");
                    let before = store.disk_stats().synced_bytes;
                    t.span("store.place", || store.place(ident, &encode_range(q)));
                    self.syncs += (store.disk_stats().synced_bytes > before) as u64;
                }
            }
        }
        t.end();
        Ok(Replayed {
            identifiers,
            routed,
            best,
            stored,
        })
    }
}

/// Time `BucketStore::recover` on a crashed copy of the largest durable
/// store. Returns (recover ns, records recovered).
fn recover_probe(net: &ChurnNetwork, t: &mut Tracer) -> (u64, u64) {
    let largest = net
        .chord()
        .node_ids()
        .into_iter()
        .filter_map(|id| net.log_of(id))
        .max_by_key(|s| (s.len(), s.records_appended()));
    let Some(store) = largest else {
        return (0, 0);
    };
    let mut copy = store.clone();
    copy.crash();
    let start = Instant::now();
    let report = t.span("store.recover", || copy.recover());
    (
        start.elapsed().as_nanos() as u64,
        report.entries.len() as u64,
    )
}

/// One traced pass: `query_timed` and every membership call are spanned;
/// each query is then replayed through the layers.
pub fn traced(seed: u64, t: &mut Tracer) -> Result<TracedPass, String> {
    let trace = trace(seed);
    let warm = (QUERIES as f64 * WARMUP_FRACTION) as usize;
    let mut net = build()?;
    let mut replay = ChurnReplay::new(&net);
    let (mut hops, mut successes, mut attempts) = (0u64, 0u64, 0u64);
    let (mut recover_ns, mut recovered) = (0u64, 0u64);
    for (i, q) in trace.iter().enumerate() {
        t.on = i >= warm;
        t.query = crate::spans::NO_QUERY;
        if i > 0 && i % EVENT_EVERY == 0 {
            if t.on {
                let (ns, n) = recover_probe(&net, t);
                recover_ns += ns;
                recovered += n;
            }
            membership(&mut net, t);
            replay.resync(&net);
        }
        t.query = i as u64;
        let (o, _) = t.span("query_timed", || net.query_timed(q));
        let r = replay.query(t, &net, q)?;
        successes += o.hops.len() as u64;
        hops += o.hops.iter().sum::<usize>() as u64;
        attempts += o.attempts as u64;
        if o.hops.len() == o.identifiers.len() {
            r.check_up_to_ties(&o)?;
        } else {
            // A lookup ran out of retries: the program stored at fewer
            // owners than the replay did.
            replay.resync(&net);
        }
    }
    t.on = true;
    check_ledgers(&net, successes, attempts)?;
    if replay.shadow_partitions() != net.total_partitions() {
        return Err(format!(
            "replay holds {} partitions, the program {}",
            replay.shadow_partitions(),
            net.total_partitions()
        ));
    }
    let rs = net.resilience();
    let (mut records, mut bytes) = (0u64, 0u64);
    for id in net.chord().node_ids() {
        if let Some(s) = net.log_of(id) {
            records += s.records_appended();
            bytes += s.disk_stats().appended_bytes;
        }
    }
    let c = &replay.counts;
    let n = trace.len() as f64;
    let values = vec![
        ("dynamic.lookups", rs.lookups_attempted as f64),
        ("dynamic.hops_per_lookup", hops as f64 / successes as f64),
        ("churn.live_partitions_end", net.total_partitions() as f64),
        ("churn.retries_per_query", rs.retries as f64 / n),
        ("churn.replicas_restored", rs.replicas_restored as f64),
        ("churn.buckets_lost", rs.buckets_lost as f64),
        ("store.records_appended", records as f64),
        (
            "store.bytes_written_per_record",
            bytes as f64 / records.max(1) as f64,
        ),
        ("store.syncs", replay.syncs as f64),
        (
            "store.recover_ns_per_record",
            recover_ns as f64 / recovered.max(1) as f64,
        ),
        (
            "bucket.ranges_scanned_per_match",
            c.ranges_scanned as f64 / c.match_calls as f64,
        ),
        ("bucket.stores_per_query", c.stored_new as f64 / n),
    ];
    Ok(TracedPass {
        queries: (trace.len() - warm) as u64,
        values,
    })
}
