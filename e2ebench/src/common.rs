//! What every workload shares: the episode record, the input-property
//! report, and the replay of the static query path through the layers'
//! public calls.

use crate::spans::Tracer;
use ars::chord::{Id, Ring};
use ars::common::{DetRng, FxHashMap};
use ars::core::bucket::Match;
use ars::core::{Peer, QueryOutcome, SystemConfig};
use ars::lsh::{HashGroups, RangeSet};
use std::time::Instant;

/// Share of each trace run untimed before measuring (the paper's method).
pub const WARMUP_FRACTION: f64 = 0.2;

/// Seed of the replay's own origin draws. Owners, matches and stores do
/// not depend on the origin; only hop counts do, and those are read from
/// the real path.
const REPLAY_ORIGIN_SEED: u64 = 0x5e_ed0f_0e1a;

/// What one untraced episode (set-up plus one pass over the trace)
/// measured.
#[derive(Debug, Default)]
pub struct Episode {
    pub setup_s: f64,
    /// Wall time spent inside query calls.
    pub query_s: f64,
    /// Per-query wall latency of the timed queries.
    pub latencies_ns: Vec<u64>,
    /// Wall time of each timed call: one query call, or on the engine one
    /// submit-to-drain window. Sums to `query_s`.
    pub calls_ns: Vec<u64>,
    pub queries: u64,
    /// Overlay messages of the timed queries.
    pub messages: u64,
    pub recall_sum: f64,
    /// Operations attempted and failed in the timed part (queries plus
    /// membership calls).
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a digest of every outcome, warm-up included.
    pub digest: u64,
    pub wire_bytes: u64,
    /// Virtual latency `query_timed` returned, per timed query.
    pub sim_latency: Vec<u64>,
    /// Wall time of each timed membership event.
    pub membership_ms: Vec<f64>,
    pub props: InputProps,
}

impl Episode {
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.query_s
    }

    /// Time one query call, recording its latency.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let d = t0.elapsed();
        self.latencies_ns.push(d.as_nanos() as u64);
        self.calls_ns.push(d.as_nanos() as u64);
        self.query_s += d.as_secs_f64();
        self.queries += 1;
        self.attempted += 1;
        r
    }

    /// Book a timed query's outcome.
    pub fn book(&mut self, o: &QueryOutcome, messages: u64) {
        self.messages += messages;
        self.recall_sum += o.recall;
        if o.fell_back_to_source {
            self.failed += 1;
        }
    }
}

/// The input properties a later change can cite: a change that helps
/// only inputs with some property names the measured share.
#[derive(Debug, Default, Clone)]
pub struct InputProps {
    pub width_mean: f64,
    pub width_max: u64,
    pub distinct_share: f64,
    pub ident_cache_hit_rate: f64,
    pub stored_share: f64,
    pub live_partitions: u64,
    pub bucket_occupancy_mean: f64,
}

impl InputProps {
    /// Width and repetition figures of a trace; the program-side figures
    /// are filled in by each workload.
    pub fn of_trace(queries: &[RangeSet]) -> InputProps {
        let widths: Vec<u64> = queries.iter().map(RangeSet::len).collect();
        let mut distinct: Vec<&RangeSet> = queries.iter().collect();
        distinct.sort_by(|a, b| a.intervals().cmp(b.intervals()));
        distinct.dedup();
        InputProps {
            width_mean: widths.iter().sum::<u64>() as f64 / widths.len().max(1) as f64,
            width_max: widths.iter().copied().max().unwrap_or(0),
            distinct_share: distinct.len() as f64 / queries.len().max(1) as f64,
            ..InputProps::default()
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"width_mean\": {:.2}, \"width_max\": {}, \"distinct_share\": {:.4}, \
             \"ident_cache_hit_rate\": {:.4}, \"stored_share\": {:.4}, \
             \"live_partitions\": {}, \"bucket_occupancy_mean\": {:.3}}}",
            self.width_mean,
            self.width_max,
            self.distinct_share,
            self.ident_cache_hit_rate,
            self.stored_share,
            self.live_partitions,
            self.bucket_occupancy_mean
        )
    }
}

/// Partitions per non-empty bucket over a set of peers.
pub fn occupancy<'a>(peers: impl Iterator<Item = &'a Peer>) -> (u64, f64) {
    let (mut parts, mut buckets) = (0usize, 0usize);
    for p in peers {
        parts += p.partition_count();
        buckets += p.bucket_count();
    }
    (parts as u64, parts as f64 / buckets.max(1) as f64)
}

/// Compare two outcome streams field by field, `hops` excepted when
/// `with_hops` is false, and `peers_contacted` excepted when
/// `with_peers` is false. Returns the first difference.
pub fn first_difference(
    a: &[QueryOutcome],
    b: &[QueryOutcome],
    with_hops: bool,
    with_peers: bool,
) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{} outcomes against {}", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let same = x.query == y.query
            && x.best_match == y.best_match
            && x.similarity == y.similarity
            && x.recall == y.recall
            && x.exact == y.exact
            && x.stored == y.stored
            && x.identifiers == y.identifiers
            && (!with_hops || x.hops == y.hops)
            && (!with_peers || x.peers_contacted == y.peers_contacted)
            && x.fell_back_to_source == y.fell_back_to_source;
        if !same {
            return Some(format!("query {i} ({}): {x:?} against {y:?}", x.query));
        }
    }
    None
}

/// What a traced pass returns besides its spans: the number of timed
/// queries and the per-layer values read from the program's own counters.
pub struct TracedPass {
    pub queries: u64,
    pub values: Vec<(&'static str, f64)>,
}

/// What the replay of one query found.
#[derive(Debug)]
pub struct Replayed {
    pub identifiers: Vec<u32>,
    /// Distinct identifiers in routing order, with their owner and the
    /// best match in that owner's bucket.
    pub routed: Vec<(u32, Id, Option<Match>)>,
    pub best: Option<Match>,
    pub stored: bool,
}

impl Replayed {
    pub fn distinct_owners(&self) -> usize {
        let mut owners: Vec<Id> = self.routed.iter().map(|r| r.1).collect();
        owners.sort_unstable();
        owners.dedup();
        owners.len()
    }

    /// The replay agrees with the real outcome on identifiers, match and
    /// whether the query stored.
    pub fn check(&self, o: &QueryOutcome) -> Result<(), String> {
        let best = self.best.as_ref().map(|m| &m.range);
        if self.identifiers != o.identifiers
            || best != o.best_match.as_ref()
            || self.stored != o.stored
        {
            return Err(format!(
                "replay of {} diverged: identifiers {:?} / {:?}, best {:?} / {:?}, stored {} / {}",
                o.query, self.identifiers, o.identifiers, best, o.best_match, self.stored, o.stored
            ));
        }
        Ok(())
    }

    /// Like [`Self::check`], but a different match of equal score passes:
    /// after the replay's peers are rebuilt from the program's inventory
    /// their buckets list ranges in another order, and a bucket returns
    /// the first of equally good ranges. Assumes Jaccard matching without
    /// padding, where the score is the outcome's similarity.
    pub fn check_up_to_ties(&self, o: &QueryOutcome) -> Result<(), String> {
        let score = self.best.as_ref().map(|m| m.score);
        if self.identifiers == o.identifiers
            && self.stored == o.stored
            && score == o.best_match.as_ref().map(|_| o.similarity)
        {
            return Ok(());
        }
        self.check(o)
    }
}

/// Counters the replay keeps at the layer boundaries.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    pub lsh_calls: u64,
    pub match_calls: u64,
    pub ranges_scanned: u64,
    pub stored_new: u64,
}

/// The static query path (`RangeSelectNetwork::query` and its engine and
/// message-passing renditions) driven through the layers' public calls on
/// peers the benchmark holds itself, in the order the real path makes
/// them: identifier cache probe, `HashGroups::identifiers` on a miss,
/// placement and `Ring::lookup` per distinct identifier,
/// `Peer::best_in_bucket` at each owner, then `Peer::store` at every
/// identifier's owner when no exact match was found.
pub struct StaticReplay {
    config: SystemConfig,
    ring: Ring,
    groups: HashGroups,
    peers: FxHashMap<u32, Peer>,
    /// The identifier cache's memo, or `None` on a path without one.
    memo: Option<FxHashMap<RangeSet, Vec<u32>>>,
    rng: DetRng,
    pub counts: ReplayCounts,
}

impl StaticReplay {
    pub fn new(
        config: &SystemConfig,
        ring: &Ring,
        groups: &HashGroups,
        cached: bool,
    ) -> StaticReplay {
        assert!(
            config.padding == 0.0 && !config.use_local_index && config.cache_on_miss,
            "the replay mirrors the default matching procedure"
        );
        StaticReplay {
            config: config.clone(),
            ring: ring.clone(),
            groups: groups.clone(),
            peers: ring
                .node_ids()
                .iter()
                .map(|&id| (id.0, Peer::new(id)))
                .collect(),
            memo: cached.then(FxHashMap::default),
            rng: DetRng::new(REPLAY_ORIGIN_SEED),
            counts: ReplayCounts::default(),
        }
    }

    pub fn peers(&self) -> &FxHashMap<u32, Peer> {
        &self.peers
    }

    pub fn query(&mut self, t: &mut Tracer, q: &RangeSet) -> Replayed {
        t.begin("replay");
        let cached = self.memo.as_ref().and_then(|m| m.get(q).cloned());
        let identifiers = match cached {
            Some(ids) => ids,
            None => {
                let groups = &self.groups;
                let ids = t.span("lsh.identifiers", || groups.identifiers(q));
                self.counts.lsh_calls += 1;
                if let Some(memo) = &mut self.memo {
                    memo.insert(q.clone(), ids.clone());
                }
                ids
            }
        };
        let nodes = self.ring.node_ids();
        let origin = nodes[self.rng.gen_index(nodes.len())];
        let mut routed: Vec<(u32, Id, Option<Match>)> = Vec::with_capacity(identifiers.len());
        let mut owners: Vec<Id> = Vec::with_capacity(identifiers.len());
        let mut best: Option<Match> = None;
        for &ident in &identifiers {
            if let Some(r) = routed.iter().find(|r| r.0 == ident) {
                owners.push(r.1);
                continue;
            }
            let key = t.span("ring.place", || {
                Id(ars::chord::sha1::sha1_u32(&ident.to_be_bytes()))
            });
            let ring = &self.ring;
            let (owner, _hops) = t.span("ring.lookup", || ring.lookup(origin, key));
            let peer = &self.peers[&owner.0];
            self.counts.ranges_scanned += peer.bucket(ident).map_or(0, |b| b.len()) as u64;
            let matching = self.config.matching;
            let m = t.span("bucket.match", || peer.best_in_bucket(ident, q, matching));
            self.counts.match_calls += 1;
            if let Some(m) = &m {
                if best.as_ref().is_none_or(|b| m.score > b.score) {
                    best = Some(m.clone());
                }
            }
            routed.push((ident, owner, m));
            owners.push(owner);
        }
        let exact = best.as_ref().is_some_and(|m| m.range == *q);
        let mut stored = false;
        if !exact {
            for (&ident, owner) in identifiers.iter().zip(&owners) {
                let peer = self.peers.get_mut(&owner.0).expect("owner is a ring node");
                let new = t.span("bucket.store", || peer.store(ident, q.clone()));
                self.counts.stored_new += new as u64;
                stored |= new;
            }
        }
        t.end();
        Replayed {
            identifiers,
            routed,
            best,
            stored,
        }
    }
}

/// The layer whose query-path work a span stands for. The rest (`replay`
/// glue, `codec.deframe`, which the simulator never calls, and the
/// membership spans `churn.*` and `store.recover`) are reported but not
/// counted as attributed query time.
pub fn attributed_layer(name: &str) -> Option<&'static str> {
    Some(match name {
        "lsh.identifiers" => "lsh",
        "ring.place" | "ring.lookup" => "ring",
        "dynamic.place" | "dynamic.lookup" => "dynamic",
        "bucket.match" | "bucket.store" => "bucket",
        "store.place" => "store",
        "codec.frame" => "codec",
        "engine.submit" => "engine",
        _ => return None,
    })
}
