//! The concurrent query engine: per-shard commit, per-shard RNG streams,
//! and a long-lived worker-peer runtime.
//!
//! The sequential path ([`RangeSelectNetwork::query`]) plans and commits
//! one query at a time on one core. The engine runs the same
//! [`QueryPlan`]/[`commit`] pair on a worker pool by partitioning the
//! network's mutable state into **shards**:
//!
//! * each shard owns a slice of the peers (by ring position), a segment
//!   of the [`IdentifierCache`], and its own [`NetworkStats`]
//!   accumulator, each behind its own lock;
//! * each shard has its own deterministic RNG stream, split off the
//!   network generator with [`DetRng::split_streams`] — stream 0
//!   continues the unsplit sequence exactly, so a one-shard engine
//!   reproduces the sequential path bit for bit;
//! * commits for queries touching disjoint shard sets run concurrently;
//!   commits that share a shard are ordered by a deterministic
//!   conflict scheduler (below), so the *outcomes* are identical across
//!   every worker count and schedule.
//!
//! # The equivalence contract
//!
//! The sequential path promises bit-identical replay. The engine relaxes
//! that to **equivalent modulo commutative reordering**:
//!
//! * **Outcomes are schedule-invariant** — in fact bitwise equal across
//!   worker counts at a fixed shard count, because the conflict scheduler
//!   commits any two queries that touch a common shard in submission
//!   order, and commits that reorder freely touch disjoint peers (so
//!   they commute). Changing the *shard count* changes which RNG stream
//!   draws each origin, so outcomes differ across shard counts only in
//!   origin-dependent fields (`hops`); identifiers, owners, matches, and
//!   recall are origin-independent.
//! * **Ledgers are conserved** — stats and cache counters are sums of
//!   commutative additions, so the merged totals are schedule-invariant:
//!   cache `hits + misses == queries`, `lookups == Σ attempts`, etc. The
//!   hit/miss *split* may differ from the sequential path when two
//!   workers race to first-compute the same range (both miss), which is
//!   exactly the relaxation; with one worker the split is sequential-
//!   exact (asserted in tests).
//!
//! # The conflict scheduler
//!
//! Prepared queries enroll in submission order; each shard keeps a FIFO
//! of enrolled queries that will touch it. A query commits when it is at
//! the head of *every* owner shard's FIFO — so two conflicting commits
//! always apply in submission order (making the outcome deterministic),
//! while disjoint commits proceed concurrently on different workers, and
//! a shard's locks are, by construction, never contended by two commits
//! at once.
//!
//! # The worker runtime
//!
//! [`QueryEngine`] spawns a pool of worker threads draining jobs from a
//! shared MPMC channel: `Prepare` jobs hash/route a query against the
//! immutable ring snapshot, `Commit` jobs apply scheduled commits.
//! [`QueryEngine::submit`] applies backpressure once
//! [`SystemConfig::engine_queue`] queries are in flight;
//! [`QueryEngine::drain`] waits the pipeline empty and returns outcomes
//! in submission order; [`QueryEngine::shutdown`] joins the workers and
//! merges the shards back into the donor network (peers union, stats and
//! cache-counter sums, cache segments re-concatenated and re-trimmed,
//! RNG advanced to stream 0's final state).

use crate::config::SystemConfig;
use crate::network::{
    commit, hashed_range, IdentifierCache, NetworkStats, PeerAccess, QueryOutcome, QueryPlan,
    RangeSelectNetwork, StatsSink,
};
use crate::peer::Peer;
use crate::resilient::BASE_SERVICE;
use ars_chord::{Id, Ring};
use ars_common::{DetRng, FxHashMap, FxHasher};
use ars_lsh::{HashGroups, RangeSet};
use ars_telemetry::Telemetry;
use parking_lot::{Mutex, MutexGuard};
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

/// Tuning knobs for one engine run, normally taken from
/// [`SystemConfig`] via [`EngineOptions::from_config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// State shards (≥ 1). Fixed per run; affects RNG stream assignment,
    /// so outcomes are comparable only at equal shard counts.
    pub shards: usize,
    /// Worker threads; `0` = one per available core. Never affects
    /// outcomes, only the schedule.
    pub workers: usize,
    /// In-flight query bound before [`QueryEngine::submit`] blocks.
    pub queue: usize,
}

impl EngineOptions {
    /// The engine knobs configured on `config`.
    pub fn from_config(config: &SystemConfig) -> EngineOptions {
        EngineOptions {
            shards: config.engine_shards,
            workers: config.engine_workers,
            queue: config.engine_queue,
        }
    }

    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Shard index owning ring position `peer` out of `nshards`.
/// Multiplicative hashing spreads the (already SHA-1-uniformized) ring
/// positions evenly regardless of shard count.
fn shard_of(peer: u32, nshards: usize) -> usize {
    (((peer as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % nshards as u64) as usize
}

/// Identifier-cache segment for a hashed range.
fn segment_of(range: &RangeSet, nshards: usize) -> usize {
    let mut h = FxHasher::default();
    range.hash(&mut h);
    (h.finish() % nshards as u64) as usize
}

/// Telemetry counter names for the first shards (counter names must be
/// `&'static str`); shards beyond the table still merge into the global
/// stats, they just don't get an individual counter.
const SHARD_QUERIES: [&str; 8] = [
    "engine.shard0.queries",
    "engine.shard1.queries",
    "engine.shard2.queries",
    "engine.shard3.queries",
    "engine.shard4.queries",
    "engine.shard5.queries",
    "engine.shard6.queries",
    "engine.shard7.queries",
];
const SHARD_CACHE_HITS: [&str; 8] = [
    "engine.shard0.cache.hits",
    "engine.shard1.cache.hits",
    "engine.shard2.cache.hits",
    "engine.shard3.cache.hits",
    "engine.shard4.cache.hits",
    "engine.shard5.cache.hits",
    "engine.shard6.cache.hits",
    "engine.shard7.cache.hits",
];
const SHARD_CACHE_MISSES: [&str; 8] = [
    "engine.shard0.cache.misses",
    "engine.shard1.cache.misses",
    "engine.shard2.cache.misses",
    "engine.shard3.cache.misses",
    "engine.shard4.cache.misses",
    "engine.shard5.cache.misses",
    "engine.shard6.cache.misses",
    "engine.shard7.cache.misses",
];
const SHARD_CACHE_EVICTIONS: [&str; 8] = [
    "engine.shard0.cache.evictions",
    "engine.shard1.cache.evictions",
    "engine.shard2.cache.evictions",
    "engine.shard3.cache.evictions",
    "engine.shard4.cache.evictions",
    "engine.shard5.cache.evictions",
    "engine.shard6.cache.evictions",
    "engine.shard7.cache.evictions",
];

/// The peers owned by one shard.
struct ShardCore {
    peers: FxHashMap<u32, Peer>,
}

/// One independently locked slice of the network's mutable state. The
/// three locks are separate on purpose: prepares touch only `cache`,
/// commits touch `core` (and `stats` transiently), so the two pipeline
/// stages never contend with each other.
struct Shard {
    core: Mutex<ShardCore>,
    cache: Mutex<IdentifierCache>,
    stats: Mutex<NetworkStats>,
}

/// Why the engine pipeline is poisoned. Returned by
/// [`QueryEngine::drain`] / [`QueryEngine::shutdown`] instead of
/// deadlocking when a worker panics mid-pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A worker panicked while processing the given query. The panic was
    /// caught at the job boundary: the worker thread survives, the
    /// conflict scheduler is released (a panicked prepare enrolls a
    /// tombstone so the submission-order watermark still advances; a
    /// panicked commit pops its shard FIFOs), and the first failure is
    /// latched until shutdown.
    WorkerPanicked {
        /// Sequence number of the poisoned query.
        seq: u64,
        /// Pipeline stage that panicked (`"prepare"` or `"commit"`).
        stage: &'static str,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::WorkerPanicked {
                seq,
                stage,
                message,
            } => {
                write!(
                    f,
                    "engine worker panicked in {stage} of query {seq}: {message}"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Why a non-blocking submission was refused at the door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The in-flight bound ([`EngineOptions::queue`]) is reached.
    /// [`QueryEngine::submit`] would have blocked; [`QueryEngine::try_submit`]
    /// refuses instead so the caller can shed load upstream.
    QueueFull,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "engine queue full"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What [`QueryEngine::submit_timed`] decided about a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted: the query will be served and appear in drain output.
    Accepted(u64),
    /// Doomed: the virtual queue could not start the query within its
    /// deadline, so the scheduler drops it at dequeue — it occupies no
    /// server time, produces no outcome, and is counted in
    /// [`AdmissionStats::shed`] (never silently).
    Shed(u64),
}

impl Admission {
    /// The sequence number assigned either way.
    pub fn seq(&self) -> u64 {
        match *self {
            Admission::Accepted(seq) | Admission::Shed(seq) => seq,
        }
    }

    /// True when the query was shed.
    pub fn is_shed(&self) -> bool {
        matches!(self, Admission::Shed(_))
    }
}

/// The admission-control ledger of one engine run. On a healthy run
/// (no worker panics) the books balance:
/// `submitted == completed + shed + queued`, with `rejected` counted
/// separately (a rejected query never entered the pipeline and holds no
/// sequence number).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Queries that entered the pipeline (sequence numbers assigned).
    pub submitted: u64,
    /// [`QueryEngine::try_submit`] refusals — never entered the pipeline.
    pub rejected: u64,
    /// Deadline-doomed queries dropped by the scheduler at dequeue.
    pub shed: u64,
    /// Queries that committed and produced an outcome.
    pub completed: u64,
    /// Queries still in flight.
    pub queued: u64,
}

/// Render a caught panic payload for [`EngineError::WorkerPanicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A query after its read-only phase: identifiers resolved through the
/// owning cache segment and the plan built against the immutable ring —
/// everything the commit needs, plus the sorted set of shards it locks.
struct Prepared {
    query: RangeSet,
    plan: QueryPlan,
    shards: Vec<usize>,
}

/// The shared immutable context plus the shard array.
struct EngineCore {
    config: SystemConfig,
    groups: HashGroups,
    /// Anchor-sketch group for layered placement (unused under the
    /// default independent mode).
    anchors: HashGroups,
    ring: Ring,
    telemetry: Telemetry,
    nshards: usize,
    shards: Vec<Shard>,
    /// Test-only fault hook: a query equal to the range panics at the
    /// named stage, exercising the worker supervision path.
    #[cfg(test)]
    poison: Mutex<Option<(RangeSet, &'static str)>>,
}

/// [`PeerAccess`] over the locked owner shards of one commit.
struct ShardedView<'a> {
    nshards: usize,
    guards: Vec<(usize, MutexGuard<'a, ShardCore>)>,
}

impl PeerAccess for ShardedView<'_> {
    fn peer(&self, id: u32) -> Option<&Peer> {
        let s = shard_of(id, self.nshards);
        let (_, guard) = self.guards.iter().find(|(i, _)| *i == s)?;
        guard.peers.get(&id)
    }
    fn peer_mut(&mut self, id: u32) -> Option<&mut Peer> {
        let s = shard_of(id, self.nshards);
        let (_, guard) = self.guards.iter_mut().find(|(i, _)| *i == s)?;
        guard.peers.get_mut(&id)
    }
}

/// [`StatsSink`] routing lookup counts to the owner's shard and query
/// counts to the query's home shard (`seq % nshards`). Each add takes
/// the target shard's stats lock transiently; adds commute, so placement
/// plus merge reproduces the global totals.
struct ShardStats<'a> {
    shards: &'a [Shard],
    nshards: usize,
    home: usize,
}

impl StatsSink for ShardStats<'_> {
    fn on_lookup(&mut self, owner: Id, hops: usize) {
        let mut stats = self.shards[shard_of(owner.0, self.nshards)].stats.lock();
        stats.lookups += 1;
        stats.total_hops += hops as u64;
    }
    fn on_dedup_saved(&mut self, count: usize) {
        self.shards[self.home].stats.lock().dedup_saved_lookups += count as u64;
    }
    fn on_walk(&mut self, steps: usize) {
        self.shards[self.home].stats.lock().walk_steps += steps as u64;
    }
    fn on_probes(&mut self, count: usize) {
        self.shards[self.home].stats.lock().probe_checks += count as u64;
    }
    fn on_query(&mut self, matched: bool, exact: bool, stored: bool) {
        self.shards[self.home]
            .stats
            .lock()
            .on_query(matched, exact, stored);
    }
}

impl EngineCore {
    /// Partition `net`'s mutable state (peers, identifier cache) into
    /// `nshards` shards, leaving the network hollow until
    /// [`Self::reassemble`] puts everything back.
    fn from_network(net: &mut RangeSelectNetwork, nshards: usize) -> EngineCore {
        let mut peer_maps: Vec<FxHashMap<u32, Peer>> =
            (0..nshards).map(|_| FxHashMap::default()).collect();
        for (id, peer) in net.peers.drain() {
            peer_maps[shard_of(id, nshards)].insert(id, peer);
        }
        let segments = net
            .ident_cache
            .split_segments(nshards, |r| segment_of(r, nshards));
        let shards = peer_maps
            .into_iter()
            .zip(segments)
            .map(|(peers, cache)| Shard {
                core: Mutex::new(ShardCore { peers }),
                cache: Mutex::new(cache),
                stats: Mutex::new(NetworkStats::default()),
            })
            .collect();
        EngineCore {
            config: net.config.clone(),
            groups: net.groups.clone(),
            anchors: net.anchors.clone(),
            ring: net.ring.clone(),
            telemetry: net.telemetry.clone(),
            nshards,
            shards,
            #[cfg(test)]
            poison: Mutex::new(None),
        }
    }

    /// Panic if the fault hook marks this query for the given stage.
    #[cfg(test)]
    fn check_poison(&self, q: &RangeSet, stage: &str) {
        if let Some((poisoned, at)) = self.poison.lock().as_ref() {
            if *at == stage && poisoned == q {
                panic!("poisoned query reached {stage}");
            }
        }
    }

    /// The read-only phase: pad, resolve identifiers through the owning
    /// cache segment, plan the query from `origin` against the immutable
    /// ring, and record which shards the commit will touch.
    fn prepare(&self, q: &RangeSet, origin: Id) -> Prepared {
        assert!(!q.is_empty(), "cannot query an empty range");
        #[cfg(test)]
        self.check_poison(q, "prepare");
        let hashed = hashed_range(q, self.config.padding);
        let segment = &self.shards[segment_of(&hashed, self.nshards)].cache;
        let cached = {
            let mut cache = segment.lock();
            let ids = cache.get_hit(&hashed);
            if ids.is_none() {
                cache.note_miss();
            }
            ids
        };
        let identifiers = match cached {
            Some(ids) => {
                self.telemetry.counter_add("core.ident_cache.hits", 1);
                ids
            }
            None => {
                self.telemetry.counter_add("core.ident_cache.misses", 1);
                // Hash outside the lock — the k·l min-hashes dominate the
                // prepare cost and are pure. Two workers racing on the
                // same fresh range both miss (the relaxation); `insert`
                // deduplicates the entry itself.
                let ids = self.groups.identifiers(&hashed);
                let evicted = segment.lock().insert(hashed.clone(), ids.clone());
                if evicted > 0 {
                    self.telemetry
                        .counter_add("core.ident_cache.evictions", evicted);
                }
                ids
            }
        };
        let plan = QueryPlan::build(
            &self.config,
            &self.groups,
            &self.anchors,
            &self.ring,
            origin,
            hashed,
            identifiers,
        );
        let mut shards: Vec<usize> = plan
            .touched_peers()
            .map(|id| shard_of(id.0, self.nshards))
            .collect();
        shards.sort_unstable();
        shards.dedup();
        Prepared {
            query: q.clone(),
            plan,
            shards,
        }
    }

    /// Apply one scheduled commit: lock the owner shards, replay the
    /// shared commit procedure against the sharded view. The conflict
    /// scheduler guarantees no other in-flight commit holds any of these
    /// shards, so the locks are uncontended by construction.
    fn commit(&self, seq: u64, prepared: Prepared) -> QueryOutcome {
        #[cfg(test)]
        self.check_poison(&prepared.query, "commit");
        let guards: Vec<(usize, MutexGuard<'_, ShardCore>)> = prepared
            .shards
            .iter()
            .map(|&s| (s, self.shards[s].core.lock()))
            .collect();
        let mut view = ShardedView {
            nshards: self.nshards,
            guards,
        };
        let mut stats = ShardStats {
            shards: &self.shards,
            nshards: self.nshards,
            home: (seq % self.nshards as u64) as usize,
        };
        let (config, telemetry) = (&self.config, &self.telemetry);
        commit(
            config,
            telemetry,
            &mut view,
            &mut stats,
            &prepared.query,
            prepared.plan,
            false,
        )
    }

    /// Merge the shards back into `net`: peers union, per-shard stats and
    /// cache counters summed (exported as `engine.shardN.*` telemetry
    /// counters for the first shards), cache segments re-concatenated in
    /// shard order and re-trimmed to the global capacity.
    fn reassemble(self, net: &mut RangeSelectNetwork) {
        for (i, shard) in self.shards.into_iter().enumerate() {
            let core = shard.core.into_inner();
            net.peers.extend(core.peers);
            let stats = shard.stats.into_inner();
            if stats.queries > 0 && i < SHARD_QUERIES.len() {
                self.telemetry.counter_add(SHARD_QUERIES[i], stats.queries);
            }
            net.stats.merge(&stats);
            let segment = shard.cache.into_inner();
            if i < SHARD_QUERIES.len() {
                if segment.hits() > 0 {
                    self.telemetry
                        .counter_add(SHARD_CACHE_HITS[i], segment.hits());
                }
                if segment.misses() > 0 {
                    self.telemetry
                        .counter_add(SHARD_CACHE_MISSES[i], segment.misses());
                }
                if segment.evictions() > 0 {
                    self.telemetry
                        .counter_add(SHARD_CACHE_EVICTIONS[i], segment.evictions());
                }
            }
            net.ident_cache.absorb(segment);
        }
        self.telemetry
            .gauge_set("core.ident_cache.size", net.ident_cache.len() as u64);
    }
}

/// The deterministic conflict scheduler. Queries enroll strictly in
/// submission order (`watermark`), joining the FIFO of every shard their
/// commit will touch; a query is dispatched for commit once it heads all
/// of its FIFOs, and on completion releases its successors.
struct Sched {
    /// Next sequence number to enroll; prepares finishing out of order
    /// park in `pending` until their turn. `None` marks a tombstone — a
    /// query whose prepare panicked; it advances the watermark without
    /// joining any shard FIFO, so its successors are not wedged.
    watermark: u64,
    pending: FxHashMap<u64, Option<Prepared>>,
    /// Enrolled but not yet committed.
    enrolled: FxHashMap<u64, Prepared>,
    /// Per-shard FIFOs of enrolled sequence numbers.
    queues: Vec<VecDeque<u64>>,
    /// Enrolled queries → number of owner FIFOs they do not yet head.
    blocked: FxHashMap<u64, usize>,
}

impl Sched {
    fn new(nshards: usize) -> Sched {
        Sched {
            watermark: 0,
            pending: FxHashMap::default(),
            enrolled: FxHashMap::default(),
            queues: (0..nshards).map(|_| VecDeque::new()).collect(),
            blocked: FxHashMap::default(),
        }
    }
}

/// Work items on the engine channel.
enum Job {
    /// Hash + route query `seq` from the given origin.
    Prepare(u64, RangeSet, Id),
    /// Apply the scheduled commit of query `seq`.
    Commit(u64),
    /// Query `seq` was admission-doomed: drop it here, at dequeue —
    /// counted, tombstoned through the scheduler so successors advance,
    /// never prepared or committed.
    Shed(u64),
    /// Worker shutdown (one per worker).
    Stop,
}

/// State shared between the controller and the workers.
struct Shared {
    core: EngineCore,
    sched: Mutex<Sched>,
    tx: crossbeam::channel::Sender<Job>,
    results: Mutex<FxHashMap<u64, QueryOutcome>>,
    /// In-flight query count, guarded by a std mutex so the controller
    /// can block on the condvar for backpressure and drain.
    flow: StdMutex<usize>,
    flow_cv: Condvar,
    queue_cap: usize,
    /// First worker panic, latched until shutdown. Once set, the engine
    /// is poisoned: `drain`/`shutdown` report it instead of outcomes.
    failure: Mutex<Option<EngineError>>,
    /// Sequence numbers shed at dequeue (drain skips them).
    shed_set: Mutex<HashSet<u64>>,
    /// Cumulative shed count (survives drains).
    shed_count: AtomicU64,
    /// Cumulative committed-outcome count (survives drains).
    completed: AtomicU64,
}

impl Shared {
    /// Enroll newly prepared queries in submission order and dispatch any
    /// that are immediately unblocked. A `None` entry is a tombstone for
    /// a query whose prepare panicked: the watermark moves past it so
    /// later queries still commit.
    fn enroll(&self, seq: u64, prepared: Option<Prepared>) {
        let mut sched = self.sched.lock();
        sched.pending.insert(seq, prepared);
        loop {
            let next = sched.watermark;
            let Some(slot) = sched.pending.remove(&next) else {
                break;
            };
            sched.watermark += 1;
            let Some(prepared) = slot else {
                continue;
            };
            let mut waits = 0usize;
            for &s in &prepared.shards {
                sched.queues[s].push_back(next);
                if sched.queues[s].len() > 1 {
                    waits += 1;
                }
            }
            sched.enrolled.insert(next, prepared);
            if waits == 0 {
                let _ = self.tx.send(Job::Commit(next));
            } else {
                sched.blocked.insert(next, waits);
            }
        }
    }

    /// Latch the first worker panic (later ones are dropped — the first
    /// is the root cause; the rest are usually collateral).
    fn record_failure(
        &self,
        seq: u64,
        stage: &'static str,
        payload: Box<dyn std::any::Any + Send>,
    ) {
        let mut failure = self.failure.lock();
        if failure.is_none() {
            *failure = Some(EngineError::WorkerPanicked {
                seq,
                stage,
                message: panic_message(payload.as_ref()),
            });
        }
        self.core.telemetry.counter_add("engine.worker_panics", 1);
    }

    /// Free one in-flight slot and wake the controller.
    fn finish_one(&self) {
        let mut inflight = self.flow.lock().unwrap_or_else(|e| e.into_inner());
        *inflight -= 1;
        drop(inflight);
        self.flow_cv.notify_all();
    }

    /// Pop `seq` from its owner FIFOs and dispatch any successor that
    /// now heads all of its own.
    fn release(&self, seq: u64, owner_shards: &[usize]) {
        let mut sched = self.sched.lock();
        for &s in owner_shards {
            let popped = sched.queues[s].pop_front();
            debug_assert_eq!(popped, Some(seq), "commit out of shard-FIFO order");
            if let Some(&next) = sched.queues[s].front() {
                let waits = sched
                    .blocked
                    .get_mut(&next)
                    .expect("waiting query has a blocked entry");
                *waits -= 1;
                if *waits == 0 {
                    sched.blocked.remove(&next);
                    let _ = self.tx.send(Job::Commit(next));
                }
            }
        }
    }
}

fn worker_loop(shared: &Shared, rx: &crossbeam::channel::Receiver<Job>) {
    loop {
        match rx.recv() {
            Err(_) | Ok(Job::Stop) => break,
            Ok(Job::Prepare(seq, query, origin)) => {
                // Supervise the job, not the thread: a panicking query
                // must not take a worker down (the pool would starve) or
                // wedge the watermark (successors would never enroll).
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    shared.core.prepare(&query, origin)
                }));
                match result {
                    Ok(prepared) => shared.enroll(seq, Some(prepared)),
                    Err(payload) => {
                        shared.record_failure(seq, "prepare", payload);
                        shared.enroll(seq, None);
                        shared.finish_one();
                    }
                }
            }
            Ok(Job::Commit(seq)) => {
                let prepared = shared
                    .sched
                    .lock()
                    .enrolled
                    .remove(&seq)
                    .expect("scheduled commit was enrolled");
                let owner_shards = prepared.shards.clone();
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    shared.core.commit(seq, prepared)
                }));
                // Release the shard FIFOs even on panic — successors
                // sharing a shard must not deadlock behind a dead commit.
                // (parking_lot mutexes do not poison; an unwound commit
                // may leave partial peer state, which the latched error
                // makes visible.)
                shared.release(seq, &owner_shards);
                match result {
                    Ok(outcome) => {
                        shared.results.lock().insert(seq, outcome);
                        shared.completed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(payload) => shared.record_failure(seq, "commit", payload),
                }
                shared.finish_one();
            }
            Ok(Job::Shed(seq)) => {
                // The shed is *executed* here, at dequeue — the slot it
                // held applied real backpressure until now — and counted
                // in three places (telemetry, the cumulative counter, the
                // drain skip-set), never silently.
                shared.core.telemetry.counter_add("engine.shed", 1);
                shared.shed_count.fetch_add(1, Ordering::Relaxed);
                shared.shed_set.lock().insert(seq);
                shared.enroll(seq, None);
                shared.finish_one();
            }
        }
    }
}

/// A long-lived concurrent query engine over a [`RangeSelectNetwork`].
///
/// [`Self::launch`] takes the network by value, partitions its state
/// into shards, and spawns the worker pool; [`Self::submit`] feeds
/// queries (blocking once the in-flight bound is hit);
/// [`Self::drain`] waits for quiescence and returns outcomes in
/// submission order; [`Self::shutdown`] merges everything back and
/// returns the network, which then behaves as if the engine's queries
/// had run through it directly (modulo the documented relaxations).
///
/// ```
/// use ars_core::engine::{EngineOptions, QueryEngine};
/// use ars_core::{RangeSelectNetwork, SystemConfig};
/// use ars_lsh::RangeSet;
///
/// let net = RangeSelectNetwork::new(50, SystemConfig::default());
/// let mut engine = QueryEngine::launch(
///     net,
///     EngineOptions { shards: 4, workers: 2, queue: 64 },
/// );
/// engine.submit(&RangeSet::interval(30, 50));
/// engine.submit(&RangeSet::interval(30, 50));
/// let (net, outcomes) = engine.shutdown();
/// let outcomes = outcomes.expect("no worker panicked");
/// assert_eq!(outcomes.len(), 2);
/// assert_eq!(net.stats().queries, 2);
/// ```
pub struct QueryEngine {
    shared: Arc<Shared>,
    donor: RangeSelectNetwork,
    streams: Vec<DetRng>,
    next_seq: u64,
    drained_upto: u64,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// [`Self::try_submit`] refusals.
    rejected: u64,
    /// Virtual instant the single-server queue model frees up — admission
    /// state for [`Self::submit_timed`].
    vclock_finish: u64,
    /// Last arrival passed to [`Self::submit_timed`] (must not decrease).
    last_arrival: u64,
    /// Virtual service cost per admitted query in the admission model.
    service_cost: u64,
}

impl QueryEngine {
    /// Partition `net` into shards and spawn the worker pool.
    ///
    /// # Panics
    /// Panics if `opts.shards` or `opts.queue` is zero.
    pub fn launch(mut net: RangeSelectNetwork, opts: EngineOptions) -> QueryEngine {
        assert!(opts.shards >= 1, "engine needs at least 1 shard");
        assert!(opts.queue >= 1, "engine queue must admit at least 1 query");
        let nworkers = opts.resolved_workers();
        let streams = net.rng.split_streams(opts.shards);
        let core = EngineCore::from_network(&mut net, opts.shards);
        let (tx, rx) = crossbeam::channel::unbounded();
        let shared = Arc::new(Shared {
            core,
            sched: Mutex::new(Sched::new(opts.shards)),
            tx,
            results: Mutex::new(FxHashMap::default()),
            flow: StdMutex::new(0),
            flow_cv: Condvar::new(),
            queue_cap: opts.queue,
            failure: Mutex::new(None),
            shed_set: Mutex::new(HashSet::new()),
            shed_count: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        });
        let workers = (0..nworkers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = rx.clone();
                std::thread::spawn(move || worker_loop(&shared, &rx))
            })
            .collect();
        QueryEngine {
            shared,
            donor: net,
            streams,
            next_seq: 0,
            drained_upto: 0,
            workers,
            rejected: 0,
            vclock_finish: 0,
            last_arrival: 0,
            service_cost: BASE_SERVICE,
        }
    }

    /// Submit a query, blocking while the in-flight bound is reached.
    /// Returns the query's sequence number (its index in drain order).
    /// The origin peer is drawn here, from the home shard's RNG stream,
    /// so draws happen in submission order regardless of schedule.
    ///
    /// # Panics
    /// Panics if `q` is empty.
    pub fn submit(&mut self, q: &RangeSet) -> u64 {
        assert!(!q.is_empty(), "cannot query an empty range");
        let seq = self.next_seq;
        self.next_seq += 1;
        let home = (seq % self.streams.len() as u64) as usize;
        let origin = {
            let node_ids = self.shared.core.ring.node_ids();
            node_ids[self.streams[home].gen_index(node_ids.len())]
        };
        {
            let mut inflight = self.shared.flow.lock().unwrap_or_else(|e| e.into_inner());
            while *inflight >= self.shared.queue_cap {
                inflight = self
                    .shared
                    .flow_cv
                    .wait(inflight)
                    .unwrap_or_else(|e| e.into_inner());
            }
            *inflight += 1;
        }
        self.shared
            .tx
            .send(Job::Prepare(seq, q.clone(), origin))
            .expect("engine workers alive");
        seq
    }

    /// Non-blocking [`Self::submit`]: refuses with
    /// [`SubmitError::QueueFull`] when the in-flight bound is reached,
    /// so an overloaded engine pushes back instead of queueing unbounded
    /// wait time. A refused query consumes no sequence number and no
    /// randomness — admitting the same queries later reproduces the same
    /// outcomes.
    ///
    /// # Panics
    /// Panics if `q` is empty.
    pub fn try_submit(&mut self, q: &RangeSet) -> Result<u64, SubmitError> {
        assert!(!q.is_empty(), "cannot query an empty range");
        {
            let mut inflight = self.shared.flow.lock().unwrap_or_else(|e| e.into_inner());
            if *inflight >= self.shared.queue_cap {
                drop(inflight);
                self.rejected += 1;
                self.shared.core.telemetry.counter_add("engine.rejected", 1);
                return Err(SubmitError::QueueFull);
            }
            *inflight += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let home = (seq % self.streams.len() as u64) as usize;
        let origin = {
            let node_ids = self.shared.core.ring.node_ids();
            node_ids[self.streams[home].gen_index(node_ids.len())]
        };
        self.shared
            .tx
            .send(Job::Prepare(seq, q.clone(), origin))
            .expect("engine workers alive");
        Ok(seq)
    }

    /// Deadline-aware submission: the query arrives at virtual time
    /// `arrival` and is worthless once its start would exceed
    /// `arrival + deadline`.
    ///
    /// Admission is judged against a deterministic single-server queue
    /// model: each admitted query occupies the virtual server for
    /// [`Self::set_service_cost`] units, so a query starts at
    /// `max(server-free instant, arrival)`. A query that cannot start in
    /// time is *doomed at admission* (deterministically — no thread
    /// schedule involved) and *shed at dequeue* by the scheduler: it
    /// holds an in-flight slot until a worker drops it (so doomed load
    /// still applies backpressure), then vanishes from drain output,
    /// counted in [`AdmissionStats::shed`] and the `engine.shed`
    /// telemetry counter. Shed queries consume no randomness: the
    /// admitted subsequence reproduces bit-identically.
    ///
    /// Blocks for an in-flight slot like [`Self::submit`].
    ///
    /// # Panics
    /// Panics if `q` is empty or `arrival` decreases between calls.
    pub fn submit_timed(&mut self, q: &RangeSet, arrival: u64, deadline: u64) -> Admission {
        assert!(!q.is_empty(), "cannot query an empty range");
        assert!(
            arrival >= self.last_arrival,
            "arrivals must be non-decreasing"
        );
        self.last_arrival = arrival;
        let seq = self.next_seq;
        self.next_seq += 1;
        let start = self.vclock_finish.max(arrival);
        let shed = start > arrival.saturating_add(deadline);
        if !shed {
            // Only served work occupies the virtual server; shedding is
            // what keeps the queue from collapsing under a burst.
            self.vclock_finish = start + self.service_cost;
        }
        {
            let mut inflight = self.shared.flow.lock().unwrap_or_else(|e| e.into_inner());
            while *inflight >= self.shared.queue_cap {
                inflight = self
                    .shared
                    .flow_cv
                    .wait(inflight)
                    .unwrap_or_else(|e| e.into_inner());
            }
            *inflight += 1;
        }
        if shed {
            self.shared
                .tx
                .send(Job::Shed(seq))
                .expect("engine workers alive");
            return Admission::Shed(seq);
        }
        let home = (seq % self.streams.len() as u64) as usize;
        let origin = {
            let node_ids = self.shared.core.ring.node_ids();
            node_ids[self.streams[home].gen_index(node_ids.len())]
        };
        self.shared
            .tx
            .send(Job::Prepare(seq, q.clone(), origin))
            .expect("engine workers alive");
        Admission::Accepted(seq)
    }

    /// Set the virtual service cost per query in the admission model
    /// (default [`BASE_SERVICE`]).
    ///
    /// # Panics
    /// Panics if `cost` is zero.
    pub fn set_service_cost(&mut self, cost: u64) {
        assert!(cost > 0, "service cost must be positive");
        self.service_cost = cost;
    }

    /// The admission-control ledger so far. On a healthy run,
    /// `submitted == completed + shed + queued`.
    pub fn admission(&self) -> AdmissionStats {
        AdmissionStats {
            submitted: self.next_seq,
            rejected: self.rejected,
            shed: self.shared.shed_count.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            queued: self.in_flight() as u64,
        }
    }

    /// Queries submitted but not yet committed.
    pub fn in_flight(&self) -> usize {
        *self.shared.flow.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arm the test-only fault hook: the next query equal to `q` panics
    /// at `stage` (`"prepare"` or `"commit"`).
    #[cfg(test)]
    fn poison(&self, q: RangeSet, stage: &'static str) {
        *self.shared.core.poison.lock() = Some((q, stage));
    }

    /// Wait until every submitted query has committed (or tombstoned, or
    /// been shed), then return their outcomes in submission order (only
    /// those not already drained; shed queries produce no outcome).
    ///
    /// The wait always terminates: a worker panic is caught at the job
    /// boundary, frees its in-flight slot, and latches an
    /// [`EngineError`], which this returns instead of the outcomes. Once
    /// poisoned, the engine stays poisoned — later drains (and
    /// [`Self::shutdown`]) keep reporting the first failure.
    pub fn drain(&mut self) -> Result<Vec<QueryOutcome>, EngineError> {
        {
            let mut inflight = self.shared.flow.lock().unwrap_or_else(|e| e.into_inner());
            while *inflight > 0 {
                inflight = self
                    .shared
                    .flow_cv
                    .wait(inflight)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
        let mut results = self.shared.results.lock();
        let mut shed = self.shared.shed_set.lock();
        if let Some(err) = self.shared.failure.lock().clone() {
            // Drop whatever partial results this window produced; the
            // batch is not trustworthy once a commit unwound mid-flight.
            for seq in self.drained_upto..self.next_seq {
                results.remove(&seq);
                shed.remove(&seq);
            }
            self.drained_upto = self.next_seq;
            return Err(err);
        }
        let outcomes = (self.drained_upto..self.next_seq)
            .filter_map(|seq| {
                if shed.remove(&seq) {
                    // Shed at dequeue: no outcome, by design — already
                    // counted in `AdmissionStats::shed`.
                    return None;
                }
                Some(results.remove(&seq).expect("committed query has a result"))
            })
            .collect();
        self.drained_upto = self.next_seq;
        Ok(outcomes)
    }

    /// Drain, stop the workers, and merge the shards back into the
    /// network. Returns the network and any outcomes not yet drained —
    /// or the latched [`EngineError`] if a worker panicked, in which case
    /// the merged network may contain a partially applied commit.
    pub fn shutdown(mut self) -> (RangeSelectNetwork, Result<Vec<QueryOutcome>, EngineError>) {
        let outcomes = self.drain();
        for _ in 0..self.workers.len() {
            let _ = self.shared.tx.send(Job::Stop);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        let shared = Arc::try_unwrap(self.shared)
            .ok()
            .expect("joined workers released the engine state");
        let mut net = self.donor;
        shared.core.reassemble(&mut net);
        // Advance the network generator to stream 0's final state: a
        // later plain `query` continues the deterministic sequence.
        net.rng = self.streams.swap_remove(0);
        (net, outcomes)
    }
}

impl RangeSelectNetwork {
    /// The engine's single-threaded inline reference: the same shard
    /// partitioning, per-shard RNG streams, cache segments, and commit
    /// procedure as [`Self::query_batch_concurrent_with`], executed one query
    /// at a time in submission order on the calling thread. This is the
    /// oracle the schedule-invariance suite compares the concurrent
    /// engine against; with `shards == 1` it reproduces [`Self::query`]
    /// run in a loop bit for bit (outcomes, stats, and cache accounting).
    pub fn query_trace_sharded(
        &mut self,
        queries: &[RangeSet],
        shards: usize,
    ) -> Vec<QueryOutcome> {
        assert!(shards >= 1, "engine needs at least 1 shard");
        let mut streams = self.rng.split_streams(shards);
        let core = EngineCore::from_network(self, shards);
        let mut outcomes = Vec::with_capacity(queries.len());
        for (seq, q) in queries.iter().enumerate() {
            let home = seq % shards;
            let origin = {
                let node_ids = core.ring.node_ids();
                node_ids[streams[home].gen_index(node_ids.len())]
            };
            let prepared = core.prepare(q, origin);
            outcomes.push(core.commit(seq as u64, prepared));
        }
        core.reassemble(self);
        self.rng = streams.swap_remove(0);
        outcomes
    }

    /// Run `queries` through the concurrent engine with a single worker —
    /// sharded state, pipelined prepare/commit, sequential-exact cache
    /// accounting. Outcomes are bitwise equal to
    /// [`Self::query_trace_sharded`] at the same shard count.
    pub fn query_batch_sharded(
        &mut self,
        queries: &[RangeSet],
        shards: usize,
    ) -> Vec<QueryOutcome> {
        let opts = EngineOptions {
            shards,
            workers: 1,
            queue: self.config.engine_queue,
        };
        self.query_batch_concurrent_with(queries, opts)
    }

    /// Run `queries` through the concurrent engine with `opts` (take the
    /// configured knobs with [`EngineOptions::from_config`]). Outcomes are
    /// schedule-invariant: bitwise equal across worker counts, equal to
    /// [`Self::query_trace_sharded`] at the same shard count.
    pub fn query_batch_concurrent_with(
        &mut self,
        queries: &[RangeSet],
        opts: EngineOptions,
    ) -> Vec<QueryOutcome> {
        let telemetry = self.telemetry.clone();
        let span = telemetry.span(
            "engine.batch",
            &[
                ("queries", queries.len().into()),
                ("shards", opts.shards.into()),
                ("workers", opts.resolved_workers().into()),
            ],
        );
        let net = std::mem::replace(self, RangeSelectNetwork::placeholder());
        let mut engine = QueryEngine::launch(net, opts);
        for q in queries {
            engine.submit(q);
        }
        let (net, outcomes) = engine.shutdown();
        *self = net;
        // The batch API has no error channel; a worker panic propagates
        // as a panic on the calling thread (previously it deadlocked or
        // aborted, so this is strictly more diagnosable).
        let outcomes = outcomes.expect("engine worker panicked");
        telemetry.span_end(span, &[("queries", outcomes.len().into())]);
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlacementMode;

    fn r(lo: u32, hi: u32) -> RangeSet {
        RangeSet::interval(lo, hi)
    }

    fn trace() -> Vec<RangeSet> {
        let mut qs = Vec::new();
        for i in 0..60u32 {
            let lo = (i * 41) % 900;
            qs.push(r(lo, lo + 12 + (i % 5) * 25));
            if i % 4 == 0 {
                qs.push(r(100, 160)); // popular repeat
            }
        }
        qs
    }

    #[test]
    fn shard_of_in_bounds_and_spread() {
        for nshards in [1usize, 2, 4, 7, 16] {
            let mut seen = vec![false; nshards];
            for p in 0..10_000u32 {
                let s = shard_of(p.wrapping_mul(2_654_435_761), nshards);
                assert!(s < nshards);
                seen[s] = true;
            }
            assert!(seen.iter().all(|&b| b), "{nshards} shards not all hit");
        }
    }

    #[test]
    fn single_shard_engine_reproduces_sequential_accounting() {
        // Satellite: one shard == the old global cache + global RNG,
        // exactly — outcomes (including hops), stats, and every cache
        // counter.
        for capacity in [0usize, 3] {
            let config = SystemConfig::default()
                .with_seed(77)
                .with_padding(0.1)
                .with_ident_cache_capacity(capacity);
            let mut seq = RangeSelectNetwork::new(40, config.clone());
            let mut eng = RangeSelectNetwork::new(40, config);
            let qs = trace();
            let out_seq: Vec<QueryOutcome> = qs.iter().map(|q| seq.query(q)).collect();
            let out_eng = eng.query_trace_sharded(&qs, 1);
            assert_eq!(out_seq, out_eng, "capacity {capacity}");
            assert_eq!(seq.stats(), eng.stats());
            let (sc, ec) = (seq.identifier_cache(), eng.identifier_cache());
            assert_eq!(sc.hits(), ec.hits());
            assert_eq!(sc.misses(), ec.misses());
            assert_eq!(sc.evictions(), ec.evictions());
            assert_eq!(sc.len(), ec.len());
            // And the engine-run network continues the same RNG stream.
            assert_eq!(seq.query(&r(5, 50)), eng.query(&r(5, 50)));
        }
    }

    #[test]
    fn single_worker_engine_matches_inline_reference() {
        for shards in [1usize, 2, 4, 7] {
            let config = SystemConfig::default().with_seed(21);
            let mut inline = RangeSelectNetwork::new(40, config.clone());
            let mut engine = RangeSelectNetwork::new(40, config);
            let qs = trace();
            let out_inline = inline.query_trace_sharded(&qs, shards);
            let out_engine = engine.query_batch_sharded(&qs, shards);
            assert_eq!(out_inline, out_engine, "shards {shards}");
            assert_eq!(inline.stats(), engine.stats());
            assert_eq!(
                inline.identifier_cache().hits(),
                engine.identifier_cache().hits(),
                "single worker prepares in submission order"
            );
            assert_eq!(
                inline.identifier_cache().misses(),
                engine.identifier_cache().misses()
            );
        }
    }

    #[test]
    fn layered_engine_matches_layered_sequential() {
        // One shard: the engine must reproduce the layered sequential
        // path bit for bit, same as the independent-mode guarantee.
        let layered = SystemConfig::default()
            .with_seed(61)
            .with_placement_mode(PlacementMode::Layered)
            .with_probes(8);
        let mut seq = RangeSelectNetwork::new(40, layered.clone());
        let mut eng = RangeSelectNetwork::new(40, layered.clone());
        let qs = trace();
        let out_seq: Vec<QueryOutcome> = qs.iter().map(|q| seq.query(q)).collect();
        let out_eng = eng.query_trace_sharded(&qs, 1);
        assert_eq!(out_seq, out_eng);
        assert_eq!(seq.stats(), eng.stats());
        assert!(
            seq.stats().walk_steps > 0,
            "layered queries walk successors"
        );

        // Multi-shard, real worker pool: invariant against the inline
        // sharded reference.
        let reference = {
            let mut net = RangeSelectNetwork::new(40, layered.clone());
            net.query_trace_sharded(&qs, 4)
        };
        for workers in [1usize, 4] {
            let mut net = RangeSelectNetwork::new(40, layered.clone());
            let opts = EngineOptions {
                shards: 4,
                workers,
                queue: 32,
            };
            let out = net.query_batch_concurrent_with(&qs, opts);
            assert_eq!(reference, out, "workers {workers}");
        }
    }

    #[test]
    fn concurrent_outcomes_invariant_across_worker_counts() {
        let shards = 4;
        let qs = trace();
        let reference = {
            let mut net = RangeSelectNetwork::new(40, SystemConfig::default().with_seed(33));
            net.query_trace_sharded(&qs, shards)
        };
        for workers in [1usize, 2, 3, 8] {
            let mut net = RangeSelectNetwork::new(40, SystemConfig::default().with_seed(33));
            let opts = EngineOptions {
                shards,
                workers,
                queue: 64,
            };
            let out = net.query_batch_concurrent_with(&qs, opts);
            assert_eq!(reference, out, "workers {workers}");
        }
    }

    #[test]
    fn concurrent_conserves_cache_ledger() {
        let qs = trace();
        let mut net = RangeSelectNetwork::new(40, SystemConfig::default().with_seed(9));
        let opts = EngineOptions {
            shards: 4,
            workers: 4,
            queue: 32,
        };
        let out = net.query_batch_concurrent_with(&qs, opts);
        assert_eq!(out.len(), qs.len());
        let cache = net.identifier_cache();
        assert_eq!(
            cache.hits() + cache.misses(),
            qs.len() as u64,
            "each query does exactly one cache lookup"
        );
        assert_eq!(net.stats().queries, qs.len() as u64);
        assert_eq!(
            net.stats().lookups,
            out.iter().map(|o| o.attempts as u64).sum::<u64>()
        );
    }

    #[test]
    fn streaming_submit_drain_shutdown() {
        let config = SystemConfig::default().with_seed(55);
        let net = RangeSelectNetwork::new(30, config.clone());
        let mut engine = QueryEngine::launch(
            net,
            EngineOptions {
                shards: 4,
                workers: 2,
                queue: 8,
            },
        );
        let qs = trace();
        let (head, tail) = qs.split_at(qs.len() / 2);
        for q in head {
            engine.submit(q);
        }
        let first = engine.drain().expect("no worker panicked");
        assert_eq!(first.len(), head.len());
        assert_eq!(engine.in_flight(), 0);
        for q in tail {
            engine.submit(q);
        }
        let (net, second) = engine.shutdown();
        let second = second.expect("no worker panicked");
        assert_eq!(second.len(), tail.len());
        assert_eq!(net.stats().queries, qs.len() as u64);

        // The streamed run equals one batched run of the whole trace.
        let mut batched = RangeSelectNetwork::new(30, config);
        let out = batched.query_batch_concurrent_with(
            &qs,
            EngineOptions {
                shards: 4,
                workers: 2,
                queue: 8,
            },
        );
        let streamed: Vec<QueryOutcome> = first.into_iter().chain(second).collect();
        assert_eq!(out, streamed);
        assert_eq!(batched.stats(), net.stats());
    }

    #[test]
    fn tiny_queue_backpressure_makes_progress() {
        let net = RangeSelectNetwork::new(20, SystemConfig::default().with_seed(3));
        let mut engine = QueryEngine::launch(
            net,
            EngineOptions {
                shards: 2,
                workers: 2,
                queue: 1,
            },
        );
        for q in trace() {
            engine.submit(&q);
            assert!(engine.in_flight() <= 1);
        }
        let (net, out) = engine.shutdown();
        let out = out.expect("no worker panicked");
        assert_eq!(out.len(), trace().len());
        assert_eq!(net.stats().queries, trace().len() as u64);
    }

    #[test]
    fn empty_batch_is_identity() {
        let config = SystemConfig::default().with_seed(13);
        let mut a = RangeSelectNetwork::new(25, config.clone());
        let mut b = RangeSelectNetwork::new(25, config);
        let out = a.query_batch_concurrent_with(
            &[],
            EngineOptions {
                shards: 8,
                workers: 2,
                queue: 4,
            },
        );
        assert!(out.is_empty());
        assert_eq!(a.stats().queries, 0);
        // State roundtrips: identical subsequent behaviour.
        assert_eq!(a.query(&r(1, 40)), b.query(&r(1, 40)));
    }

    #[test]
    fn network_usable_after_concurrent_batch() {
        // `query_batch_concurrent_with` swaps the network out and back in; a
        // plain query afterwards must see the cached partitions.
        let mut net = RangeSelectNetwork::new(30, SystemConfig::default().with_seed(71));
        net.query_batch_concurrent_with(
            &[r(200, 260), r(200, 260)],
            EngineOptions {
                shards: 4,
                workers: 2,
                queue: 16,
            },
        );
        let out = net.query(&r(200, 260));
        assert!(out.exact, "partition cached by the engine must be found");
    }

    #[test]
    fn per_shard_counters_sum_to_totals() {
        let mut net = RangeSelectNetwork::new(30, SystemConfig::default().with_seed(17));
        let tel = ars_telemetry::Telemetry::recording();
        net.set_telemetry(tel.clone());
        let qs = trace();
        net.query_batch_concurrent_with(
            &qs,
            EngineOptions {
                shards: 4,
                workers: 2,
                queue: 32,
            },
        );
        let snap = tel.snapshot();
        let per_shard: u64 = (0..4).map(|i| snap.counter(SHARD_QUERIES[i])).sum();
        assert_eq!(per_shard, qs.len() as u64);
        let hits: u64 = (0..4).map(|i| snap.counter(SHARD_CACHE_HITS[i])).sum();
        let misses: u64 = (0..4).map(|i| snap.counter(SHARD_CACHE_MISSES[i])).sum();
        assert_eq!(hits, net.identifier_cache().hits());
        assert_eq!(misses, net.identifier_cache().misses());
        assert_eq!(hits + misses, qs.len() as u64);
    }

    #[test]
    fn engine_emits_batch_span_not_query_spans() {
        let mut net = RangeSelectNetwork::new(20, SystemConfig::default().with_seed(5));
        let tel = ars_telemetry::Telemetry::recording();
        net.set_telemetry(tel.clone());
        net.query_batch_concurrent_with(
            &trace(),
            EngineOptions {
                shards: 2,
                workers: 2,
                queue: 16,
            },
        );
        let starts: Vec<_> = tel
            .events()
            .into_iter()
            .filter(|e| e.kind == ars_telemetry::EventKind::SpanStart)
            .collect();
        assert_eq!(starts.len(), 1, "one engine.batch span, no per-query spans");
        assert_eq!(starts[0].name, "engine.batch");
    }

    #[test]
    fn prepare_panic_latches_error_and_successors_still_commit() {
        let net = RangeSelectNetwork::new(30, SystemConfig::default().with_seed(19));
        let mut engine = QueryEngine::launch(
            net,
            EngineOptions {
                shards: 4,
                workers: 2,
                queue: 8,
            },
        );
        engine.poison(r(666, 700), "prepare");
        engine.submit(&r(10, 50));
        engine.submit(&r(666, 700)); // panics mid-prepare
                                     // Successors enroll past the tombstone — the watermark must not
                                     // wedge behind the dead query (the old deadlock).
        for i in 0..20u32 {
            engine.submit(&r(i * 30 + 1, i * 30 + 40));
        }
        let err = engine.drain().expect_err("poisoned batch must error");
        match &err {
            EngineError::WorkerPanicked {
                seq,
                stage,
                message,
            } => {
                assert_eq!(*seq, 1);
                assert_eq!(*stage, "prepare");
                assert!(message.contains("poisoned"), "got: {message}");
            }
        }
        // Poisoned stays poisoned; shutdown reports the same failure but
        // still hands the network back.
        let (net, outcomes) = engine.shutdown();
        assert_eq!(outcomes, Err(err));
        assert_eq!(net.len(), 30);
    }

    #[test]
    fn commit_panic_releases_conflicting_successors() {
        let net = RangeSelectNetwork::new(30, SystemConfig::default().with_seed(23));
        let mut engine = QueryEngine::launch(
            net,
            EngineOptions {
                shards: 2,
                workers: 2,
                queue: 16,
            },
        );
        engine.poison(r(400, 460), "commit");
        // Identical queries own the same shards, so every successor
        // queues in the panicking commit's FIFOs: the release on unwind
        // is what keeps this from deadlocking.
        for _ in 0..8 {
            engine.submit(&r(400, 460));
        }
        let err = engine.drain().expect_err("commit panic must latch");
        match err {
            EngineError::WorkerPanicked { stage, .. } => assert_eq!(stage, "commit"),
        }
        assert_eq!(engine.in_flight(), 0, "every slot freed despite panics");
    }

    #[test]
    fn try_submit_rejects_at_capacity_without_consuming_anything() {
        let config = SystemConfig::default().with_seed(41);
        let net = RangeSelectNetwork::new(30, config.clone());
        let mut engine = QueryEngine::launch(
            net,
            EngineOptions {
                shards: 2,
                workers: 2,
                queue: 4,
            },
        );
        // Force the full condition deterministically (workers drain real
        // submissions too fast to observe it reliably): pin the in-flight
        // gauge at capacity, which is exactly what try_submit consults.
        *engine.shared.flow.lock().unwrap() = 4;
        assert_eq!(engine.try_submit(&r(10, 60)), Err(SubmitError::QueueFull));
        assert_eq!(engine.try_submit(&r(10, 60)), Err(SubmitError::QueueFull));
        *engine.shared.flow.lock().unwrap() = 0;
        assert_eq!(engine.admission().rejected, 2);
        assert_eq!(engine.admission().submitted, 0, "no seq consumed");
        // A refusal consumed no RNG: the engine replays a twin that never
        // saw the refusals.
        let seq = engine.try_submit(&r(10, 60)).expect("capacity free again");
        assert_eq!(seq, 0);
        let (_, outcomes) = engine.shutdown();
        let outcomes = outcomes.expect("no worker panicked");

        let mut twin = RangeSelectNetwork::new(30, config);
        let expected = twin.query_batch_sharded(&[r(10, 60)], 2);
        assert_eq!(outcomes, expected);
    }

    #[test]
    fn submit_timed_sheds_doomed_queries_and_balances_ledger() {
        let config = SystemConfig::default().with_seed(47);
        let net = RangeSelectNetwork::new(30, config.clone());
        let mut engine = QueryEngine::launch(
            net,
            EngineOptions {
                shards: 2,
                workers: 2,
                queue: 64,
            },
        );
        engine.set_service_cost(100);
        let qs = trace();
        // Everything arrives at t=0 with a 250-unit deadline: the virtual
        // server fits exactly three 100-unit services before any further
        // query would start later than its deadline allows.
        let admitted: Vec<bool> = qs
            .iter()
            .map(|q| !engine.submit_timed(q, 0, 250).is_shed())
            .collect();
        assert_eq!(admitted.iter().filter(|&&a| a).count(), 3);
        assert!(admitted[..3].iter().all(|&a| a), "FIFO admits the head");
        let outcomes = engine.drain().expect("no worker panicked");
        assert_eq!(outcomes.len(), 3, "shed queries produce no outcome");
        let ledger = engine.admission();
        assert_eq!(ledger.submitted, qs.len() as u64);
        assert_eq!(ledger.shed, qs.len() as u64 - 3);
        assert_eq!(ledger.completed, 3);
        assert_eq!(ledger.queued, 0);
        assert_eq!(
            ledger.submitted,
            ledger.completed + ledger.shed + ledger.queued,
            "admission ledger must balance"
        );
        let (net, rest) = engine.shutdown();
        rest.expect("no worker panicked");
        assert_eq!(net.stats().queries, 3, "shed work never touched a shard");

        // Shed queries consume no randomness: a twin that only ever saw
        // the admitted prefix produces bit-identical outcomes.
        let mut twin = RangeSelectNetwork::new(30, config);
        let expected = twin.query_batch_sharded(&qs[..3], 2);
        assert_eq!(outcomes, expected);
    }

    #[test]
    fn submit_timed_with_slack_admits_everything() {
        let net = RangeSelectNetwork::new(30, SystemConfig::default().with_seed(53));
        let mut engine = QueryEngine::launch(
            net,
            EngineOptions {
                shards: 2,
                workers: 2,
                queue: 64,
            },
        );
        engine.set_service_cost(100);
        let qs = trace();
        for (i, q) in qs.iter().enumerate() {
            // Arrivals keep pace with the service rate: nothing is doomed.
            let adm = engine.submit_timed(q, i as u64 * 100, 250);
            assert!(!adm.is_shed(), "query {i} wrongly shed");
        }
        let outcomes = engine.drain().expect("no worker panicked");
        assert_eq!(outcomes.len(), qs.len());
        assert_eq!(engine.admission().shed, 0);
    }

    #[test]
    fn shed_telemetry_counts_match_ledger() {
        let mut net = RangeSelectNetwork::new(20, SystemConfig::default().with_seed(59));
        let tel = ars_telemetry::Telemetry::recording();
        net.set_telemetry(tel.clone());
        let mut engine = QueryEngine::launch(
            net,
            EngineOptions {
                shards: 2,
                workers: 2,
                queue: 32,
            },
        );
        for q in trace() {
            engine.submit_timed(&q, 0, 150);
        }
        engine.drain().expect("no worker panicked");
        let ledger = engine.admission();
        assert!(ledger.shed > 0, "overload scenario must shed");
        assert_eq!(tel.snapshot().counter("engine.shed"), ledger.shed);
        engine.shutdown().1.expect("no worker panicked");
    }

    #[test]
    #[should_panic(expected = "arrivals must be non-decreasing")]
    fn submit_timed_rejects_time_travel() {
        let net = RangeSelectNetwork::new(10, SystemConfig::default());
        let mut engine = QueryEngine::launch(
            net,
            EngineOptions {
                shards: 1,
                workers: 1,
                queue: 8,
            },
        );
        engine.submit_timed(&r(1, 30), 100, 500);
        engine.submit_timed(&r(1, 30), 99, 500);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn engine_rejects_empty_range() {
        let net = RangeSelectNetwork::new(5, SystemConfig::default());
        let mut engine = QueryEngine::launch(
            net,
            EngineOptions {
                shards: 2,
                workers: 1,
                queue: 4,
            },
        );
        engine.submit(&RangeSet::empty());
    }
}
