//! The paper's system, end to end: hash → route → match → cache.
//!
//! [`RangeSelectNetwork`] wires the pieces together exactly as §4
//! describes. It is a *direct-call* simulation: Chord routing is computed
//! (with full hop accounting) but replies do not traverse a message queue
//! — see [`crate::proto`] for the message-passing rendition, which an
//! integration test holds equal to this one.
//!
//! A query is two steps. [`QueryPlan::build`] is pure: it routes the
//! lookups over the immutable ring and lists the peers to read, the
//! buckets to check at each and the store targets. [`commit`] then
//! reads, matches, caches on a miss and records stats through the
//! [`PeerAccess`]/[`StatsSink`] seam, so the sequential path and the
//! concurrent engine ([`crate::engine`]) run one body of code. Its tail,
//! [`finish`], is also where the churn network's resilient query ends.

use crate::bucket::Match;
use crate::config::{Placement, PlacementMode, SystemConfig};
use crate::peer::Peer;
use ars_chord::{arc_base, layered_position, Id, Ring};
use ars_common::{DetRng, FxHashMap};
use ars_lsh::{HashGroups, RangeSet};
use ars_telemetry::{SpanId, Telemetry};
use std::ops::Range;

/// The result of one range query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The original (unpadded) query range.
    pub query: RangeSet,
    /// The best-matching cached partition across the `l` replies, if any
    /// contacted bucket was non-empty.
    pub best_match: Option<RangeSet>,
    /// Jaccard similarity of `query` and the match (0 when none) — the
    /// x-axis of Figs. 6–7.
    pub similarity: f64,
    /// Recall `|Q∩R| / |Q|` of the match for the original query (0 when
    /// none) — the x-axis of Figs. 8–10.
    pub recall: f64,
    /// True if the match equals the (padded) hashed range exactly.
    pub exact: bool,
    /// True if this query's partition was newly cached at the identifier
    /// owners. The message renditions ([`crate::proto`]) report instead
    /// whether stores were *sent*: the origin cannot see whether an owner
    /// already held the range. The two differ only when a miss finds the
    /// range already stored at every owner, e.g. a non-exact containment
    /// hit under padding.
    pub stored: bool,
    /// Overlay hops of each routed lookup: one entry per *distinct*
    /// identifier under independent placement (duplicate identifiers
    /// within a query are deduplicated before routing), a single entry —
    /// the one arc lookup — under layered placement.
    pub hops: Vec<usize>,
    /// The `l` identifiers (diagnostics; shared identifiers across similar
    /// queries are the whole mechanism).
    pub identifiers: Vec<u32>,
    /// Number of distinct peers contacted.
    pub peers_contacted: usize,
    /// Total lookup attempts spent on this query, retries included. Equals
    /// the number of *distinct* identifiers on a healthy network under
    /// independent placement (duplicates are deduplicated before routing),
    /// `1` under layered placement (the single arc lookup); larger when
    /// the resilient query path
    /// ([`crate::ChurnNetwork::query_resilient`]) had to route around
    /// failures.
    pub attempts: usize,
    /// True if no identifier owner could be reached at all and the query
    /// degraded to fetching directly from the source relations — the
    /// paper's soft-state escape hatch, surfaced instead of an error.
    pub fell_back_to_source: bool,
    /// True if the query ran while the network was partitioned and at
    /// least one identifier's *global* owner was unreachable from the
    /// origin's island — the answer came from island-local replicas (or
    /// the source), so it may be stale until the partition heals and
    /// reconciliation runs. Only the partition-aware resilient path
    /// ([`crate::ChurnNetwork::query_resilient`]) sets this; every other
    /// query path reports `false`.
    pub partition_degraded: bool,
}

/// Memoized identifier computation, keyed by the (padded) hashed range.
///
/// Group identifiers depend only on the hash groups, which are fixed at
/// network construction, so entries never *invalidate*. Workload traces
/// repeat ranges heavily (Zipf-style popularity); the hit/miss counters
/// quantify the saving.
///
/// The cache may be *bounded* ([`SystemConfig::ident_cache_capacity`]),
/// in which case entries are evicted in FIFO insertion order. FIFO — not
/// LRU — is deliberate: hits never perturb the eviction order, so the
/// concurrent engine can split the cache into per-shard segments
/// ([`Self::split_segments`]) and fold them back ([`Self::absorb`]) with
/// the order inside each segment intact.
#[derive(Debug, Clone, Default)]
pub struct IdentifierCache {
    pub(crate) map: FxHashMap<RangeSet, Vec<u32>>,
    fifo: std::collections::VecDeque<RangeSet>,
    /// `0` = unbounded.
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl IdentifierCache {
    /// Cache lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache lookups that had to compute identifiers.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted to respect the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Configured capacity (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of distinct ranges cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// An empty cache with the given capacity (`0` = unbounded).
    pub(crate) fn with_capacity(capacity: usize) -> IdentifierCache {
        IdentifierCache {
            capacity,
            ..IdentifierCache::default()
        }
    }

    /// Append an entry at the FIFO tail unless it is already cached.
    fn push(&mut self, range: RangeSet, ids: Vec<u32>) {
        if self.map.insert(range.clone(), ids).is_none() {
            self.fifo.push_back(range);
        }
    }

    /// Evict FIFO-oldest entries until the capacity bound holds. Returns
    /// the number evicted.
    fn trim(&mut self) -> u64 {
        let mut evicted = 0;
        while self.capacity > 0 && self.map.len() > self.capacity {
            let oldest = self
                .fifo
                .pop_front()
                .expect("fifo tracks every cached range");
            self.map.remove(&oldest);
            evicted += 1;
        }
        self.evictions += evicted;
        evicted
    }

    /// Insert a freshly computed entry, evicting FIFO when over capacity.
    /// Returns the number of evictions performed (0 or 1).
    pub(crate) fn insert(&mut self, range: RangeSet, ids: Vec<u32>) -> u64 {
        self.push(range, ids);
        self.trim()
    }

    /// Look up with hit accounting; `None` leaves the miss for the caller
    /// to record once the identifiers are computed.
    pub(crate) fn get_hit(&mut self, range: &RangeSet) -> Option<Vec<u32>> {
        let ids = self.map.get(range)?;
        self.hits += 1;
        Some(ids.clone())
    }

    /// Record a miss (the caller computed identifiers itself).
    pub(crate) fn note_miss(&mut self) {
        self.misses += 1;
    }

    /// Partition the cached entries into `n` segments by `seg_of`,
    /// preserving FIFO order within each segment. Entries move out of
    /// `self`; the hit/miss/eviction counters stay behind (segments start
    /// at zero so their counts read as deltas to fold back via
    /// [`Self::absorb`]). Each segment gets capacity `ceil(capacity / n)`
    /// — so a single segment keeps the exact original bound, and `n`
    /// segments jointly bound the entry count by at most `n - 1` over the
    /// original (re-trimmed on absorb).
    pub(crate) fn split_segments(
        &mut self,
        n: usize,
        seg_of: impl Fn(&RangeSet) -> usize,
    ) -> Vec<IdentifierCache> {
        let per_seg = if self.capacity == 0 {
            0
        } else {
            self.capacity.div_ceil(n).max(1)
        };
        let mut segments: Vec<IdentifierCache> = (0..n)
            .map(|_| IdentifierCache::with_capacity(per_seg))
            .collect();
        for range in self.fifo.drain(..) {
            if let Some(ids) = self.map.remove(&range) {
                segments[seg_of(&range)].push(range, ids);
            }
        }
        segments
    }

    /// Fold a segment produced by [`Self::split_segments`] back in:
    /// entries re-append in the segment's FIFO order, counters add, and
    /// the merged cache re-trims to its own capacity (counting those
    /// trims as evictions).
    pub(crate) fn absorb(&mut self, mut segment: IdentifierCache) {
        self.hits += segment.hits;
        self.misses += segment.misses;
        self.evictions += segment.evictions;
        while let Some(range) = segment.fifo.pop_front() {
            if let Some(ids) = segment.map.remove(&range) {
                self.push(range, ids);
            }
        }
        self.trim();
    }
}

/// Aggregate statistics over a network's lifetime.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkStats {
    /// Queries executed.
    pub queries: u64,
    /// Queries that found some match.
    pub matched: u64,
    /// Queries whose match was exact.
    pub exact: u64,
    /// Queries that stored their partition.
    pub stored: u64,
    /// Total identifier lookups routed.
    pub lookups: u64,
    /// Total overlay hops across all lookups.
    pub total_hops: u64,
    /// Lookups *not* routed because the identifier repeated within a
    /// single query (two groups hashing a range to the same bucket) —
    /// each one a saved message.
    pub dedup_saved_lookups: u64,
    /// Successor-walk steps taken by layered-placement queries (one
    /// overlay message each; always zero under independent placement).
    pub walk_steps: u64,
    /// Multi-probe candidate buckets checked at already-visited peers
    /// (local work, not messages; always zero under independent
    /// placement).
    pub probe_checks: u64,
}

impl NetworkStats {
    /// Add another accumulator's counts into this one. Every field is a
    /// sum, so merging per-shard accumulators in any order yields the
    /// totals a single global accumulator would have collected — the
    /// conserved-ledger property the concurrent engine relies on.
    pub fn merge(&mut self, other: &NetworkStats) {
        self.queries += other.queries;
        self.matched += other.matched;
        self.exact += other.exact;
        self.stored += other.stored;
        self.lookups += other.lookups;
        self.total_hops += other.total_hops;
        self.dedup_saved_lookups += other.dedup_saved_lookups;
        self.walk_steps += other.walk_steps;
        self.probe_checks += other.probe_checks;
    }
}

/// Peer reads and cache stores by ring position — the seam that lets
/// [`commit`] and [`finish`] run against the network's global peer map,
/// the concurrent engine's locked shard views or the churn network's
/// ledgered store.
pub(crate) trait PeerAccess {
    /// The peer at `id`, if present.
    fn peer(&self, id: u32) -> Option<&Peer>;
    /// Cache `range` under `ident` at the peer at `owner`. True if newly
    /// stored; false if the peer is absent or already holds the range.
    fn store(&mut self, owner: u32, ident: u32, range: &RangeSet) -> bool;
}

impl PeerAccess for FxHashMap<u32, Peer> {
    fn peer(&self, id: u32) -> Option<&Peer> {
        self.get(&id)
    }
    fn store(&mut self, owner: u32, ident: u32, range: &RangeSet) -> bool {
        self.get_mut(&owner)
            .is_some_and(|p| p.store(ident, range.clone()))
    }
}

/// Where [`commit`] and [`finish`] record their counters — the global
/// [`NetworkStats`] on the sequential path, per-shard accumulators in the
/// concurrent engine.
/// Every update is an addition, so any sink placement that eventually
/// sums preserves the ledgers.
pub(crate) trait StatsSink {
    /// One identifier lookup routed in `hops` overlay hops to `owner`.
    fn on_lookup(&mut self, owner: Id, hops: usize);
    /// A plan's per-query counts: lookups skipped as repeats,
    /// successor-walk messages and local multi-probe checks.
    fn on_plan(&mut self, plan: &QueryPlan);
    /// One query finished.
    fn on_query(&mut self, matched: bool, exact: bool, stored: bool);
}

impl StatsSink for NetworkStats {
    fn on_lookup(&mut self, _owner: Id, hops: usize) {
        self.lookups += 1;
        self.total_hops += hops as u64;
    }
    fn on_plan(&mut self, plan: &QueryPlan) {
        self.dedup_saved_lookups += plan.dedup_saved as u64;
        self.walk_steps += plan.walk_steps as u64;
        self.probe_checks += plan.probe_checks as u64;
    }
    fn on_query(&mut self, matched: bool, exact: bool, stored: bool) {
        self.queries += 1;
        self.matched += matched as u64;
        self.exact += exact as u64;
        self.stored += stored as u64;
    }
}

/// Ring position of a partition identifier under `config`'s placement
/// policy. Pure; the one placement function of every query path —
/// sequential, engine, churn, multi-attribute and message-passing.
#[inline]
pub(crate) fn place_identifier(config: &SystemConfig, identifier: u32) -> Id {
    match config.placement {
        Placement::Uniformized => Id(ars_chord::sha1::sha1_u32(&identifier.to_be_bytes())),
        Placement::Direct => Id(identifier),
    }
}

/// §5.2 padding: the range a query hashes, matches and caches.
pub(crate) fn hashed_range(q: &RangeSet, padding: f64) -> RangeSet {
    if padding > 0.0 {
        q.pad(padding)
    } else {
        q.clone()
    }
}

/// A query's distinct identifiers in first-appearance order: a repeated
/// identifier would route to the same owner and search the same bucket.
pub(crate) fn distinct_identifiers(identifiers: &[u32]) -> Vec<u32> {
    let mut distinct = Vec::with_capacity(identifiers.len());
    for &ident in identifiers {
        if !distinct.contains(&ident) {
            distinct.push(ident);
        }
    }
    distinct
}

/// Keep `m` as the best match if it scores strictly higher, so ties go
/// to the match found first. Every query path picks its answer this way.
pub(crate) fn keep_better(best: &mut Option<Match>, m: Match) {
    if best.as_ref().is_none_or(|b| m.score > b.score) {
        *best = Some(m);
    }
}

/// Generate the anchor-sketch hash group for a config: one group of
/// `config.layers` min-hashes, from an RNG salted off the system seed.
/// The salt keeps the anchor draw out of the sequences the groups and
/// query path consume — constructing a network with layered placement
/// available must not move a single bit of the default paths.
pub(crate) fn anchor_groups(config: &SystemConfig) -> HashGroups {
    const ANCHOR_SALT: u64 = 0x6172_735F_6172_6373; // "ars_arcs"
    let mut rng = DetRng::new(config.seed ^ ANCHOR_SALT);
    HashGroups::generate(config.family, config.layers, 1, &mut rng)
}

/// The anchor sketch of a hashed range: the single coarse identifier
/// (`SystemConfig::layers` min-hashes XOR-folded) that keys the arc all
/// of the query's buckets live in under layered placement. Similar
/// ranges share it with probability ≈ `J^layers`.
fn layered_anchor(anchors: &HashGroups, hashed_range: &RangeSet) -> u32 {
    anchors.identifiers(hashed_range)[0]
}

/// A fully resolved query: what to route, read and store. Pure data —
/// built against the immutable ring by [`Self::build`], applied by
/// [`commit`], so the concurrent engine can plan on any worker and commit
/// under its shard locks.
#[derive(Debug, Clone)]
pub(crate) struct QueryPlan {
    /// The (padded) range the query hashes, matches and caches.
    pub(crate) hashed_range: RangeSet,
    /// The `l` group identifiers of `hashed_range`.
    pub(crate) identifiers: Vec<u32>,
    /// Routed lookups as `(owner, hops)`: one per distinct identifier
    /// under independent placement, the single arc lookup under layered.
    pub(crate) lookups: Vec<(Id, usize)>,
    /// Lookups skipped because their identifier repeated in the query.
    pub(crate) dedup_saved: usize,
    /// Successor-walk steps (layered placement; one message each).
    pub(crate) walk_steps: usize,
    /// Multi-probe buckets checked beyond the base identifiers.
    pub(crate) probe_checks: usize,
    /// Bucket identifiers the reads index into: the distinct base
    /// identifiers first, then ranked multi-probe candidates.
    pub(crate) buckets: Vec<u32>,
    /// Peers to read, each with the slice of `buckets` checked there:
    /// the owner of each distinct identifier with its own bucket
    /// (independent), or every walked peer with every bucket (layered).
    pub(crate) reads: Vec<(Id, Range<usize>)>,
    /// Cache-on-miss targets `(identifier, owner)`, one per distinct
    /// base identifier.
    pub(crate) store_targets: Vec<(u32, Id)>,
}

impl QueryPlan {
    /// Plan a query from `origin` under `config`'s placement mode. Pure
    /// (the ring is immutable); the only function that routes a query
    /// over the static ring.
    pub(crate) fn build(
        config: &SystemConfig,
        groups: &HashGroups,
        anchors: &HashGroups,
        ring: &Ring,
        origin: Id,
        hashed_range: RangeSet,
        identifiers: Vec<u32>,
    ) -> QueryPlan {
        let mut buckets = distinct_identifiers(&identifiers);
        let base = buckets.len();
        let mut plan = QueryPlan {
            hashed_range,
            identifiers,
            lookups: Vec::with_capacity(base),
            dedup_saved: 0,
            walk_steps: 0,
            probe_checks: 0,
            buckets: Vec::new(),
            reads: Vec::with_capacity(base),
            store_targets: Vec::with_capacity(base),
        };
        match config.placement_mode {
            PlacementMode::Independent => {
                // Route each distinct identifier once.
                plan.dedup_saved = plan.identifiers.len() - base;
                for (i, &ident) in buckets.iter().enumerate() {
                    let (owner, hops) = ring.lookup(origin, place_identifier(config, ident));
                    plan.lookups.push((owner, hops));
                    plan.reads.push((owner, i..i + 1));
                    plan.store_targets.push((ident, owner));
                }
            }
            PlacementMode::Layered => {
                // One arc lookup, a bounded successor walk, and every
                // candidate bucket checked at every walked peer.
                let anchor = layered_anchor(anchors, &plan.hashed_range);
                let route = ring.lookup(origin, arc_base(anchor));
                let visited = ring.successors_window(route.0, config.walk_window);
                plan.walk_steps = visited.len() - 1;
                if config.probes > 0 {
                    for c in groups.probe_candidates(&plan.hashed_range, config.probes) {
                        if !buckets.contains(&c.identifier) {
                            buckets.push(c.identifier);
                        }
                    }
                }
                plan.probe_checks = buckets.len() - base;
                plan.lookups = vec![route];
                plan.reads = visited.into_iter().map(|p| (p, 0..buckets.len())).collect();
                plan.store_targets = buckets[..base]
                    .iter()
                    .map(|&ident| (ident, ring.successor_of(layered_position(anchor, ident))))
                    .collect();
            }
        }
        plan.buckets = buckets;
        plan
    }

    /// Every peer the commit touches: the reads and the store targets.
    pub(crate) fn touched_peers(&self) -> impl Iterator<Item = Id> + '_ {
        let reads = self.reads.iter().map(|(peer, _)| *peer);
        reads.chain(self.store_targets.iter().map(|&(_, owner)| owner))
    }
}

/// The commit half of a static-ring query: lookup stats, the bucket
/// reads, then the shared [`finish`], against any
/// [`PeerAccess`]/[`StatsSink`] pair. The sequential path and the
/// engine's sharded commits both run it, so they replay the exact same
/// per-owner update order.
///
/// `emit_span` gates the per-query `core.query` span: the sequential path
/// emits it (trace tests pin the event order), the concurrent engine does
/// not (span begin/end interleaving across workers would make event logs
/// schedule-dependent; counters and histograms are order-free).
pub(crate) fn commit<P: PeerAccess, S: StatsSink>(
    config: &SystemConfig,
    telemetry: &Telemetry,
    peers: &mut P,
    stats: &mut S,
    q: &RangeSet,
    plan: QueryPlan,
    emit_span: bool,
) -> QueryOutcome {
    let span = if emit_span {
        telemetry.span("core.query", &[("l", plan.identifiers.len().into())])
    } else {
        SpanId::NONE
    };
    for &(owner, hops) in &plan.lookups {
        stats.on_lookup(owner, hops);
        telemetry.record("core.lookup.hops", hops as u64);
    }
    stats.on_plan(&plan);
    if plan.dedup_saved > 0 {
        // Two groups hashed the range to the same bucket: its second
        // lookup was never routed.
        telemetry.counter_add("core.dedup.saved_lookups", plan.dedup_saved as u64);
    }
    if plan.walk_steps > 0 {
        telemetry.counter_add("core.walk.steps", plan.walk_steps as u64);
    }
    if plan.probe_checks > 0 {
        telemetry.counter_add("core.probe.checks", plan.probe_checks as u64);
    }

    // Collect the best match over every read. A peer without storage
    // state is skipped rather than panicking; the outcome records whether
    // *any* peer was reachable.
    let mut reached = 0usize;
    let mut best: Option<Match> = None;
    for (peer_id, slice) in &plan.reads {
        let Some(peer) = peers.peer(peer_id.0) else {
            continue;
        };
        reached += 1;
        let (m, scanned) = peer.read(&plan.buckets[slice.clone()], &plan.hashed_range, config);
        telemetry.record("core.bucket.scan_len", scanned as u64);
        if let Some(m) = m {
            keep_better(&mut best, m);
        }
    }
    let answered = Answered {
        hashed_range: plan.hashed_range,
        identifiers: plan.identifiers,
        best,
        store_targets: plan.store_targets,
        hops: plan.lookups.iter().map(|&(_, h)| h).collect(),
        contacted: plan.reads.iter().map(|&(p, _)| p).collect(),
        attempts: plan.lookups.len(),
        fell_back_to_source: reached == 0,
        partition_degraded: false,
        span,
    };
    finish(config.cache_on_miss, telemetry, peers, stats, q, answered)
}

/// What a query path hands [`finish`] once its routing and reads are
/// done. The routing fields mean what they mean on [`QueryOutcome`].
pub(crate) struct Answered {
    /// The (padded) range the query hashed, matched and caches.
    pub(crate) hashed_range: RangeSet,
    pub(crate) identifiers: Vec<u32>,
    /// The best match over every read.
    pub(crate) best: Option<Match>,
    /// Cache-on-miss targets `(identifier, owner)`, stored in order.
    pub(crate) store_targets: Vec<(u32, Id)>,
    pub(crate) hops: Vec<usize>,
    /// Every peer contacted, repeats allowed ([`finish`] counts them once).
    pub(crate) contacted: Vec<Id>,
    pub(crate) attempts: usize,
    pub(crate) fell_back_to_source: bool,
    pub(crate) partition_degraded: bool,
    /// The path's `core.query` span, closed by [`finish`].
    pub(crate) span: SpanId,
}

/// The tail every query path shares once it knows its best match: the
/// exact check, the cache-on-miss stores, scoring against the original
/// query `q`, [`StatsSink::on_query`], the `core.queries`/`core.query.*`
/// telemetry, the close of the span (a no-op for [`SpanId::NONE`]) and
/// the [`QueryOutcome`]. The static ring, the engine and the churn network
/// all end here.
pub(crate) fn finish<P: PeerAccess, S: StatsSink>(
    cache_on_miss: bool,
    telemetry: &Telemetry,
    peers: &mut P,
    stats: &mut S,
    q: &RangeSet,
    a: Answered,
) -> QueryOutcome {
    let exact = a.best.as_ref().is_some_and(|m| m.range == a.hashed_range);
    let mut contacted = a.contacted;
    contacted.sort_unstable();
    contacted.dedup();

    // Cache on miss: store the (padded) partition at every target.
    let mut stored = false;
    if cache_on_miss && !exact {
        for &(ident, owner) in &a.store_targets {
            stored |= peers.store(owner.0, ident, &a.hashed_range);
        }
    }

    // Score the match against the *original* query: similarity for
    // Figs. 6–7, recall for Figs. 8–10.
    let best_match = a.best.map(|m| m.range);
    let (similarity, recall) = match &best_match {
        Some(m) => (q.jaccard(m), q.containment_in(m)),
        None => (0.0, 0.0),
    };

    stats.on_query(best_match.is_some(), exact, stored);
    telemetry.counter_add("core.queries", 1);
    if best_match.is_some() {
        // ×1000 fixed point: histograms store u64.
        telemetry.record("core.query.jaccard", (similarity * 1000.0) as u64);
        telemetry.record("core.query.recall", (recall * 1000.0) as u64);
    }
    telemetry.span_end(
        a.span,
        &[
            ("matched", best_match.is_some().into()),
            ("exact", exact.into()),
            ("stored", stored.into()),
            ("attempts", a.attempts.into()),
            ("fallback", a.fell_back_to_source.into()),
            ("degraded", a.partition_degraded.into()),
            ("similarity", similarity.into()),
            ("recall", recall.into()),
        ],
    );

    QueryOutcome {
        query: q.clone(),
        best_match,
        similarity,
        recall,
        exact,
        stored,
        hops: a.hops,
        identifiers: a.identifiers,
        peers_contacted: contacted.len(),
        attempts: a.attempts,
        fell_back_to_source: a.fell_back_to_source,
        partition_degraded: a.partition_degraded,
    }
}

/// The full simulated system.
#[derive(Debug, Clone)]
pub struct RangeSelectNetwork {
    pub(crate) config: SystemConfig,
    pub(crate) ring: Ring,
    pub(crate) peers: FxHashMap<u32, Peer>,
    pub(crate) groups: HashGroups,
    /// The anchor-sketch hash group (one group of `layers` min-hashes)
    /// layered placement keys arcs with. Drawn from a *salted* RNG, fully
    /// decoupled from `rng`/`groups`, so the default independent paths
    /// consume exactly the pre-layered random sequences (pinned by the
    /// placement goldens).
    pub(crate) anchors: HashGroups,
    pub(crate) rng: DetRng,
    pub(crate) stats: NetworkStats,
    pub(crate) ident_cache: IdentifierCache,
    pub(crate) telemetry: Telemetry,
}

impl RangeSelectNetwork {
    /// Build a network of `n_peers` (ids seeded from the config seed) with
    /// freshly drawn hash groups. The system starts with no cached
    /// partitions, as in §5.
    pub fn new(n_peers: usize, config: SystemConfig) -> RangeSelectNetwork {
        let mut rng = DetRng::new(config.seed);
        let mut group_rng = rng.fork();
        let ring_seed = rng.next_u64();
        let ring = Ring::from_seed(n_peers, ring_seed);
        Self::with_ring(ring, config, &mut group_rng, rng)
    }

    /// Build over peers identified by addresses (SHA-1 placement, §4).
    pub fn from_addresses<S: AsRef<str>, I: IntoIterator<Item = S>>(
        addrs: I,
        config: SystemConfig,
    ) -> RangeSelectNetwork {
        let mut rng = DetRng::new(config.seed);
        let mut group_rng = rng.fork();
        let ring = Ring::from_addresses(addrs);
        Self::with_ring(ring, config, &mut group_rng, rng)
    }

    fn with_ring(
        ring: Ring,
        config: SystemConfig,
        group_rng: &mut DetRng,
        rng: DetRng,
    ) -> RangeSelectNetwork {
        let groups = HashGroups::generate(config.family, config.k, config.l, group_rng);
        let peers = ring
            .node_ids()
            .iter()
            .map(|&id| (id.0, Peer::new(id)))
            .collect();
        Self::from_parts(config, ring, peers, groups, rng)
    }

    /// Assemble a network from pre-existing parts — used by
    /// [`crate::ChurnNetwork::freeze`] to wrap a ring snapshot and cloned
    /// storage into a static network that the concurrent engine can run.
    /// Stats and the identifier cache start empty; telemetry starts as a
    /// no-op (install one with [`Self::set_telemetry`]).
    pub(crate) fn from_parts(
        config: SystemConfig,
        ring: Ring,
        peers: FxHashMap<u32, Peer>,
        groups: HashGroups,
        rng: DetRng,
    ) -> RangeSelectNetwork {
        let ident_cache = IdentifierCache::with_capacity(config.ident_cache_capacity);
        let anchors = anchor_groups(&config);
        RangeSelectNetwork {
            config,
            ring,
            peers,
            groups,
            anchors,
            rng,
            stats: NetworkStats::default(),
            ident_cache,
            telemetry: Telemetry::noop(),
        }
    }

    /// A minimal throwaway network — the engine swaps one in while it
    /// temporarily owns the real network's state (see
    /// [`crate::engine::QueryEngine`]). Cheap to build: one peer, one
    /// hash function.
    pub(crate) fn placeholder() -> RangeSelectNetwork {
        RangeSelectNetwork::new(1, SystemConfig::default().with_kl(1, 1))
    }

    /// Install a telemetry sink. Queries emit `core.*` counters
    /// (`core.queries`, `core.ident_cache.hits`/`.misses`), histograms
    /// (`core.lookup.hops`, `core.bucket.scan_len`, `core.query.jaccard`,
    /// `core.query.recall` — the latter two ×1000 fixed point), and one
    /// `core.query` event per query.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The installed telemetry handle (no-op by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The configuration in force.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if the network has no peers (cannot be constructed).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The underlying Chord ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The hash groups (shared by all peers — the global schema of §2
    /// includes the hash functions).
    pub fn groups(&self) -> &HashGroups {
        &self.groups
    }

    /// Statistics so far.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Ring position of a partition identifier under the configured
    /// placement policy.
    pub fn place(&self, identifier: u32) -> Id {
        place_identifier(&self.config, identifier)
    }

    /// A peer's storage state.
    pub fn peer(&self, id: Id) -> Option<&Peer> {
        self.peers.get(&id.0)
    }

    /// Partition counts per peer, ring order (Fig. 11's metric).
    pub fn load_distribution(&self) -> Vec<usize> {
        self.ring
            .node_ids()
            .iter()
            .map(|id| self.peers[&id.0].partition_count())
            .collect()
    }

    /// Total partitions stored across all peers.
    pub fn total_partitions(&self) -> usize {
        self.peers.values().map(Peer::partition_count).sum()
    }

    /// Execute one range query through the full §4 procedure.
    pub fn query(&mut self, q: &RangeSet) -> QueryOutcome {
        let padding = self.config.padding;
        self.query_padded(q, padding)
    }

    /// Like [`Self::query`] but with an explicit padding fraction for this
    /// query, overriding the configured one — the hook the adaptive
    /// padding policy (paper §6 future work; [`crate::adaptive`]) uses.
    pub fn query_padded(&mut self, q: &RangeSet, padding: f64) -> QueryOutcome {
        assert!(!q.is_empty(), "cannot query an empty range");
        assert!(padding >= 0.0, "padding must be non-negative");
        let hashed_range = hashed_range(q, padding);
        let identifiers = self.cached_identifiers(&hashed_range);
        // Pick a random origin peer for routing (hop accounting) — the
        // one RNG draw a query makes.
        let origin = {
            let ids = self.ring.node_ids();
            ids[self.rng.gen_index(ids.len())]
        };
        let plan = QueryPlan::build(
            &self.config,
            &self.groups,
            &self.anchors,
            &self.ring,
            origin,
            hashed_range,
            identifiers,
        );
        let (peers, stats) = (&mut self.peers, &mut self.stats);
        commit(&self.config, &self.telemetry, peers, stats, q, plan, true)
    }

    /// Group identifiers for a hashed range, memoized in the
    /// [`IdentifierCache`].
    fn cached_identifiers(&mut self, hashed_range: &RangeSet) -> Vec<u32> {
        if let Some(ids) = self.ident_cache.get_hit(hashed_range) {
            self.telemetry.counter_add("core.ident_cache.hits", 1);
            return ids;
        }
        self.ident_cache.note_miss();
        self.telemetry.counter_add("core.ident_cache.misses", 1);
        let ids = self.groups.identifiers(hashed_range);
        let evicted = self.ident_cache.insert(hashed_range.clone(), ids.clone());
        if evicted > 0 {
            self.telemetry
                .counter_add("core.ident_cache.evictions", evicted);
        }
        self.telemetry
            .gauge_set("core.ident_cache.size", self.ident_cache.len() as u64);
        ids
    }

    /// Run a whole trace, returning per-query outcomes.
    pub fn run_trace<'a, I: IntoIterator<Item = &'a RangeSet>>(
        &mut self,
        queries: I,
    ) -> Vec<QueryOutcome> {
        queries.into_iter().map(|q| self.query(q)).collect()
    }

    /// Identifier-cache statistics (hits, misses, distinct entries).
    pub fn identifier_cache(&self) -> &IdentifierCache {
        &self.ident_cache
    }

    /// Store a partition range directly (bypassing the query path) — used
    /// by the load-balance experiments, which populate the table without
    /// measuring match quality. Returns the number of copies placed (an
    /// owner without storage state is skipped, never a panic).
    pub fn store_partition(&mut self, range: &RangeSet) -> usize {
        let identifiers = self.groups.identifiers(range);
        let anchor = match self.config.placement_mode {
            PlacementMode::Independent => None,
            PlacementMode::Layered => Some(layered_anchor(&self.anchors, range)),
        };
        let mut placed = 0;
        for ident in identifiers {
            let pos = match anchor {
                None => self.place(ident),
                Some(a) => layered_position(a, ident),
            };
            let owner = self.ring.successor_of(pos);
            if let Some(peer) = self.peers.get_mut(&owner.0) {
                placed += peer.store(ident, range.clone()) as usize;
            }
        }
        placed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatchMeasure;
    use ars_lsh::LshFamilyKind;

    fn r(lo: u32, hi: u32) -> RangeSet {
        RangeSet::interval(lo, hi)
    }

    fn net(n: usize) -> RangeSelectNetwork {
        RangeSelectNetwork::new(n, SystemConfig::default().with_seed(99))
    }

    #[test]
    fn first_query_misses_and_caches() {
        let mut n = net(50);
        let out = n.query(&r(30, 50));
        assert!(out.best_match.is_none());
        assert_eq!(out.similarity, 0.0);
        assert_eq!(out.recall, 0.0);
        assert!(!out.exact);
        assert!(out.stored);
        assert_eq!(out.hops.len(), 5);
        assert_eq!(out.identifiers.len(), 5);
        assert!(out.peers_contacted >= 1 && out.peers_contacted <= 5);
        assert_eq!(out.attempts, 5, "one attempt per identifier, no retries");
        assert!(!out.fell_back_to_source);
        assert!(n.total_partitions() >= 1);
    }

    #[test]
    fn identical_requery_is_exact() {
        let mut n = net(50);
        n.query(&r(30, 50));
        let out = n.query(&r(30, 50));
        assert!(out.exact);
        assert_eq!(out.recall, 1.0);
        assert_eq!(out.similarity, 1.0);
        assert_eq!(out.best_match, Some(r(30, 50)));
        // Exact hit: nothing new stored.
        assert!(!out.stored);
    }

    #[test]
    fn similar_query_usually_finds_neighbor() {
        // [30,50] cached; [30,49] has J ≈ 0.95 — with k=20, l=5 the match
        // probability is ~0.98 per the amplification curve. Use several
        // independent networks to avoid flakiness.
        let mut hits = 0;
        for seed in 0..10 {
            let mut n = RangeSelectNetwork::new(50, SystemConfig::default().with_seed(seed));
            n.query(&r(30, 50));
            let out = n.query(&r(30, 49));
            if out.best_match == Some(r(30, 50)) {
                hits += 1;
            }
        }
        assert!(hits >= 7, "only {hits}/10 near-identical queries matched");
    }

    #[test]
    fn dissimilar_query_does_not_match() {
        let mut n = net(50);
        n.query(&r(0, 20));
        let out = n.query(&r(500, 600));
        assert!(out.best_match.is_none() || out.similarity == 0.0);
    }

    #[test]
    fn cache_off_never_stores() {
        let mut n = RangeSelectNetwork::new(30, SystemConfig::default().with_cache_on_miss(false));
        n.query(&r(1, 10));
        n.query(&r(1, 10));
        assert_eq!(n.total_partitions(), 0);
        assert_eq!(n.stats().stored, 0);
    }

    #[test]
    fn padding_stores_padded_range() {
        let mut n =
            RangeSelectNetwork::new(30, SystemConfig::default().with_padding(0.2).with_seed(5));
        // [100,199] padded 20% → [80,219].
        n.query(&r(100, 199));
        let padded = r(80, 219);
        let found = n
            .ring()
            .node_ids()
            .iter()
            .any(|id| n.peer(*id).unwrap().contains_range(&padded));
        assert!(found, "padded partition not stored anywhere");
    }

    #[test]
    fn padded_requery_recall_exceeds_query() {
        // A query contained in a previously-padded partition gets full
        // recall even though it is not identical.
        let mut n = RangeSelectNetwork::new(
            30,
            SystemConfig::default()
                .with_padding(0.2)
                .with_matching(MatchMeasure::Containment)
                .with_seed(11),
        );
        n.query(&r(100, 199)); // stores [80, 219]
        let out = n.query(&r(100, 199));
        assert_eq!(out.recall, 1.0);
    }

    #[test]
    fn local_index_finds_matches_plain_bucket_misses() {
        // Store under one identifier set; query with a range similar enough
        // to land on the same *peer* in a tiny network but under different
        // identifiers. With few peers, every identifier maps to one of few
        // peers, so the local index sees everything stored there.
        let config = SystemConfig::default().with_seed(3);
        let mut plain = RangeSelectNetwork::new(2, config.clone());
        let mut indexed = RangeSelectNetwork::new(2, config.with_local_index(true));
        for n in [&mut plain, &mut indexed] {
            n.query(&r(200, 300));
        }
        let q = r(190, 310); // similar but likely different identifiers
        let out_plain = plain.query(&q);
        let out_indexed = indexed.query(&q);
        assert!(out_indexed.recall >= out_plain.recall);
        // With 2 peers the indexed system must at least see the partition.
        assert!(out_indexed.best_match.is_some());
    }

    #[test]
    fn stats_accumulate() {
        let mut n = net(20);
        n.query(&r(0, 10));
        n.query(&r(0, 10));
        let s = n.stats();
        assert_eq!(s.queries, 2);
        assert_eq!(s.exact, 1);
        // r(0,10) is narrow enough that all 5 groups hash it to one
        // identifier — the within-query dedup routes it once and books
        // the other 4 as saved lookups.
        assert_eq!(s.lookups, 2);
        assert_eq!(s.dedup_saved_lookups, 8);
        assert!(s.matched >= 1);
    }

    #[test]
    fn wide_query_still_routes_five_lookups() {
        let mut n = net(20);
        let out = n.query(&r(30, 50));
        assert_eq!(out.hops.len(), 5, "distinct identifiers all routed");
        assert_eq!(n.stats().lookups, 5);
        assert_eq!(n.stats().dedup_saved_lookups, 0);
    }

    #[test]
    fn store_partition_places_l_copies() {
        let mut n = net(100);
        n.store_partition(&r(5, 25));
        // l=5 identifiers; distinct owners may coincide, but the total
        // stored count equals the number of distinct (identifier, owner)
        // pairs — at most 5, at least 1.
        let total = n.total_partitions();
        assert!((1..=5).contains(&total), "stored {total} copies");
    }

    #[test]
    fn linear_family_finds_exact_match() {
        let mut n = RangeSelectNetwork::new(
            30,
            SystemConfig::default()
                .with_family(LshFamilyKind::Linear)
                .with_seed(8),
        );
        n.query(&r(30, 50));
        let out = n.query(&r(30, 50));
        assert!(out.exact, "linear permutations must find identical ranges");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_query_rejected() {
        net(5).query(&RangeSet::empty());
    }

    #[test]
    fn run_trace_collects_outcomes() {
        let mut n = net(20);
        let queries = [r(0, 5), r(10, 20), r(0, 5)];
        let outs = n.run_trace(queries.iter());
        assert_eq!(outs.len(), 3);
        assert!(outs[2].exact);
    }

    #[test]
    fn identifier_cache_counts_hits_and_misses() {
        let mut n = net(20);
        n.query(&r(0, 10));
        n.query(&r(0, 10));
        n.query(&r(5, 15));
        let c = n.identifier_cache();
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    /// A trace with repeats, overlaps, and multi-peer spread.
    fn batch_trace() -> Vec<RangeSet> {
        let mut qs = Vec::new();
        for i in 0..40u32 {
            let lo = (i * 37) % 900;
            qs.push(r(lo, lo + 10 + (i % 7) * 30));
            if i % 3 == 0 {
                qs.push(r(30, 50)); // popular repeat
            }
        }
        qs
    }

    #[test]
    fn telemetry_surfaces_cache_hit_rate_through_registry() {
        let mut n = net(30);
        let tel = ars_telemetry::Telemetry::recording();
        n.set_telemetry(tel.clone());
        let trace = batch_trace();
        n.run_trace(&trace);
        n.run_trace(&trace); // identical ranges: second pass is all hits
        let snap = tel.snapshot();
        let hits = snap.counter("core.ident_cache.hits");
        let misses = snap.counter("core.ident_cache.misses");
        assert!(hits > 0, "repeated traces must report a >0 hit rate");
        assert!(hits > misses, "second identical trace hits on every range");
        // The registry mirrors the cache's own counters exactly, and every
        // query does exactly one cache lookup.
        assert_eq!(hits, n.identifier_cache().hits());
        assert_eq!(misses, n.identifier_cache().misses());
        assert_eq!(hits + misses, snap.counter("core.queries"));
        // Per-query spans were recorded for both traces.
        let spans = tel
            .events()
            .iter()
            .filter(|e| e.kind == ars_telemetry::EventKind::SpanStart && e.name == "core.query")
            .count();
        assert_eq!(spans, 2 * trace.len());
    }

    #[test]
    fn bounded_cache_evicts_fifo_and_counts() {
        // Capacity 2 with a 4-distinct-range trace forces mid-run
        // evictions and a re-miss on an evicted range.
        let config = SystemConfig::default()
            .with_seed(17)
            .with_ident_cache_capacity(2);
        let mut n = RangeSelectNetwork::new(20, config);
        let trace = [r(0, 10), r(20, 30), r(40, 50), r(0, 10)];
        for q in &trace {
            n.query(q);
        }
        let c = n.identifier_cache();
        assert_eq!(c.capacity(), 2);
        assert!(c.len() <= 2);
        // r(0,10) was evicted by r(40,50) before its repeat: 4 misses.
        assert_eq!(c.misses(), 4);
        assert_eq!(c.hits(), 0);
        assert_eq!(c.evictions(), 2);
    }

    #[test]
    fn bounded_cache_exports_size_gauge_and_eviction_counter() {
        let config = SystemConfig::default()
            .with_seed(29)
            .with_ident_cache_capacity(2);
        let mut n = RangeSelectNetwork::new(20, config);
        let tel = ars_telemetry::Telemetry::recording();
        n.set_telemetry(tel.clone());
        n.run_trace(&[r(0, 10), r(20, 30), r(40, 50), r(0, 10)]);
        let snap = tel.snapshot();
        assert_eq!(snap.gauge("core.ident_cache.size"), Some(2));
        assert_eq!(
            snap.counter("core.ident_cache.evictions"),
            n.identifier_cache().evictions()
        );
        assert!(n.identifier_cache().evictions() > 0);
    }

    fn layered_config(seed: u64) -> SystemConfig {
        SystemConfig::default()
            .with_seed(seed)
            .with_placement_mode(PlacementMode::Layered)
            .with_probes(16)
    }

    #[test]
    fn layered_query_spends_one_lookup() {
        let mut n = RangeSelectNetwork::new(48, layered_config(3));
        let out = n.query(&r(30, 50));
        assert_eq!(out.hops.len(), 1, "layered = one arc lookup");
        assert_eq!(out.attempts, 1);
        assert!(out.peers_contacted <= n.config().walk_window);
        let s = n.stats();
        assert_eq!(s.lookups, 1);
        assert!((s.walk_steps as usize) < n.config().walk_window);
        assert!(s.probe_checks > 0, "probe budget 16 generates candidates");
        assert_eq!(s.dedup_saved_lookups, 0);
    }

    #[test]
    fn layered_exact_repeat_found_in_arc() {
        let mut n = RangeSelectNetwork::new(48, layered_config(5));
        n.query(&r(30, 50));
        let out = n.query(&r(30, 50));
        assert!(out.exact, "repeat query must find its own cached partition");
        assert_eq!(out.recall, 1.0);
    }

    #[test]
    fn layered_store_partition_found_by_query() {
        // Direct stores land at the layered positions, where queries look.
        let mut n = RangeSelectNetwork::new(48, layered_config(9).with_cache_on_miss(false));
        n.store_partition(&r(100, 200));
        let out = n.query(&r(100, 200));
        assert!(out.exact, "stored partition must be visible in its arc");
    }

    #[test]
    fn layered_usually_finds_jittered_neighbor() {
        // Same regime as similar_query_usually_finds_neighbor: [30,50]
        // cached, [30,49] queried (J ≈ 0.95). Layered adds the anchor
        // gate (≈ J at layers=1); multi-probe recovers base-identifier
        // misses at the visited peers.
        let mut hits = 0;
        for seed in 0..10 {
            let mut n = RangeSelectNetwork::new(48, layered_config(seed));
            n.query(&r(30, 50));
            let out = n.query(&r(30, 49));
            if out.best_match == Some(r(30, 50)) {
                hits += 1;
            }
        }
        assert!(
            hits >= 6,
            "only {hits}/10 near-identical layered queries matched"
        );
    }

    #[test]
    fn plan_routes_each_distinct_identifier_once() {
        // Two groups hashing to the same bucket: one lookup, one saved,
        // one store target per distinct identifier.
        let config = SystemConfig::default();
        let groups = HashGroups::generate(config.family, 1, 1, &mut DetRng::new(1));
        let ring = Ring::new(vec![Id(100), Id(200)]);
        let q = r(0, 10);
        let plan = QueryPlan::build(
            &config,
            &groups,
            &anchor_groups(&config),
            &ring,
            Id(100),
            q.clone(),
            vec![7, 7, 9],
        );
        assert_eq!(plan.buckets, vec![7, 9]);
        assert_eq!(plan.lookups.len(), 2, "duplicate identifier not re-routed");
        assert_eq!(plan.dedup_saved, 1);
        assert_eq!(plan.reads.len(), 2);
        assert_eq!(plan.store_targets.len(), 2);
        let (tel, mut peers) = (Telemetry::noop(), FxHashMap::default());
        for id in ring.node_ids() {
            peers.insert(id.0, Peer::new(*id));
        }
        let mut stats = NetworkStats::default();
        let out = commit(&config, &tel, &mut peers, &mut stats, &q, plan, false);
        assert_eq!(out.attempts, 2);
        assert_eq!(out.hops.len(), 2);
        assert_eq!(out.identifiers, vec![7, 7, 9]);
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.dedup_saved_lookups, 1);
        assert!(out.stored);
        assert_eq!(peers.values().map(Peer::partition_count).sum::<usize>(), 2);
    }
}
