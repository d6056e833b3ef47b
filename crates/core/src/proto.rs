//! The protocol as explicit messages over `ars-simnet`.
//!
//! [`crate::RangeSelectNetwork`] computes routing outcomes directly; this
//! module runs the *same* §4 procedure as peer-to-peer messages — greedy
//! Chord forwarding of `Route` envelopes, bucket search at the owner, a
//! `MatchReply` back to the querying peer, and `Store` messages on a miss
//! — over the deterministic event simulator. A binary wire encoding
//! ([`ProtoMsg`] implements [`Wire`]) pins down what would actually cross
//! a TCP connection.
//!
//! The integration test `tests/proto_equivalence.rs` holds this rendition
//! equal, query for query, to the direct-call one.

use crate::bucket::Match;
use crate::config::{MatchMeasure, SystemConfig};
use crate::network::{
    distinct_identifiers, hashed_range, keep_better, place_identifier, QueryOutcome,
};
use crate::peer::Peer;
use ars_chord::{Id, Ring};
use ars_common::{DetRng, FxHashMap};
use ars_lsh::{HashGroups, RangeSet};
use ars_simnet::codec::{get_seq, get_u32, get_u64, get_u8, put_seq, CodecError, Wire};
use ars_simnet::{ConstantLatency, FaultPlan, Node, NodeCtx, SimNet, ThreadedNet};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::sync::{Arc, Mutex};

/// A serializable range (interval list).
type WireRange = Vec<(u32, u32)>;

fn to_wire(r: &RangeSet) -> WireRange {
    r.intervals().to_vec()
}

fn from_wire(w: &[(u32, u32)]) -> RangeSet {
    RangeSet::from_intervals(w.iter().copied())
}

/// Protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoMsg {
    /// An envelope being routed toward the owner of ring position `key`.
    Route {
        /// Ring position being located (the placed identifier).
        key: u32,
        /// The partition identifier (bucket name at the owner).
        ident: u32,
        /// Overlay hops taken so far.
        hops: u32,
        /// The request to execute at the owner.
        payload: Payload,
    },
    /// Owner → origin: result of a `FindMatch`.
    MatchReply {
        /// Request id this answers.
        request: u64,
        /// Identifier that was searched.
        identifier: u32,
        /// Hops the request took to reach the owner.
        hops: u32,
        /// Best match, if the bucket was non-empty.
        best: Option<(WireRange, f64)>,
    },
    /// Owner → origin: a `Store` was applied.
    StoreAck {
        /// Request id this answers.
        request: u64,
    },
}

/// What to do once the owner of the key is reached.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Search the identifier's bucket for the best match.
    FindMatch {
        /// Request id (echoed in the reply).
        request: u64,
        /// Peer index to reply to.
        origin: u32,
        /// The (already padded) query range.
        range: WireRange,
    },
    /// Cache a partition range under the identifier.
    Store {
        /// Request id (echoed in the ack).
        request: u64,
        /// Peer index to ack to.
        origin: u32,
        /// The partition range to store.
        range: WireRange,
    },
}

impl Wire for ProtoMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ProtoMsg::Route {
                key,
                ident,
                hops,
                payload,
            } => {
                buf.put_u8(0);
                buf.put_u32(*key);
                buf.put_u32(*ident);
                buf.put_u32(*hops);
                payload.encode(buf);
            }
            ProtoMsg::MatchReply {
                request,
                identifier,
                hops,
                best,
            } => {
                buf.put_u8(1);
                buf.put_u64(*request);
                buf.put_u32(*identifier);
                buf.put_u32(*hops);
                match best {
                    None => buf.put_u8(0),
                    Some((range, score)) => {
                        buf.put_u8(1);
                        put_seq(buf, range, |b, &(lo, hi)| {
                            b.put_u32(lo);
                            b.put_u32(hi);
                        });
                        buf.put_f64(*score);
                    }
                }
            }
            ProtoMsg::StoreAck { request } => {
                buf.put_u8(2);
                buf.put_u64(*request);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        match get_u8(buf)? {
            0 => Ok(ProtoMsg::Route {
                key: get_u32(buf)?,
                ident: get_u32(buf)?,
                hops: get_u32(buf)?,
                payload: Payload::decode(buf)?,
            }),
            1 => {
                let request = get_u64(buf)?;
                let identifier = get_u32(buf)?;
                let hops = get_u32(buf)?;
                let best = match get_u8(buf)? {
                    0 => None,
                    1 => {
                        let range = get_seq(buf, |b| Ok((get_u32(b)?, get_u32(b)?)))?;
                        if buf.remaining() < 8 {
                            return Err(CodecError::Truncated);
                        }
                        let score = buf.get_f64();
                        Some((range, score))
                    }
                    t => return Err(CodecError::BadTag(t)),
                };
                Ok(ProtoMsg::MatchReply {
                    request,
                    identifier,
                    hops,
                    best,
                })
            }
            2 => Ok(ProtoMsg::StoreAck {
                request: get_u64(buf)?,
            }),
            t => Err(CodecError::BadTag(t)),
        }
    }
}

impl Wire for Payload {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Payload::FindMatch {
                request,
                origin,
                range,
            } => {
                buf.put_u8(0);
                buf.put_u64(*request);
                buf.put_u32(*origin);
                put_seq(buf, range, |b, &(lo, hi)| {
                    b.put_u32(lo);
                    b.put_u32(hi);
                });
            }
            Payload::Store {
                request,
                origin,
                range,
            } => {
                buf.put_u8(1);
                buf.put_u64(*request);
                buf.put_u32(*origin);
                put_seq(buf, range, |b, &(lo, hi)| {
                    b.put_u32(lo);
                    b.put_u32(hi);
                });
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        let tag = get_u8(buf)?;
        let request = get_u64(buf)?;
        let origin = get_u32(buf)?;
        let range = get_seq(buf, |b| Ok((get_u32(b)?, get_u32(b)?)))?;
        match tag {
            0 => Ok(Payload::FindMatch {
                request,
                origin,
                range,
            }),
            1 => Ok(Payload::Store {
                request,
                origin,
                range,
            }),
            t => Err(CodecError::BadTag(t)),
        }
    }
}

/// Shared, immutable ring knowledge each peer node routes with.
#[derive(Debug)]
struct RingInfo {
    ring: Ring,
    /// Ring id → simnet peer index.
    index_of: FxHashMap<u32, usize>,
}

/// A reply collected at the querying peer, surfaced to the driver.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectedReply {
    /// Request id.
    pub request: u64,
    /// Identifier searched.
    pub identifier: u32,
    /// Routing hops to the owner.
    pub hops: u32,
    /// Best match found in the bucket, if any.
    pub best: Option<Match>,
}

type ReplySink = Arc<Mutex<Vec<CollectedReply>>>;

/// One peer as a simnet node.
struct PeerNode {
    id: Id,
    info: Arc<RingInfo>,
    storage: Peer,
    matching: MatchMeasure,
    use_local_index: bool,
    sink: ReplySink,
}

impl PeerNode {
    /// Forward a route envelope one hop, or handle it if we own the key.
    fn route(
        &mut self,
        ctx: &mut NodeCtx<'_, ProtoMsg>,
        key: u32,
        ident: u32,
        hops: u32,
        payload: Payload,
    ) {
        let key_id = Id(key);
        let owner = self.info.ring.successor_of(key_id);
        if owner == self.id {
            self.handle_owned(ctx, ident, hops, payload);
            return;
        }
        // Greedy Chord forwarding using this node's finger table.
        let table = self.info.ring.finger_table(self.id);
        let succ = table.successor();
        let next = if key_id.in_open_closed(self.id, succ) {
            succ
        } else {
            table.closest_preceding(key_id).unwrap_or(succ)
        };
        let next_idx = self.info.index_of[&next.0];
        ctx.send(
            next_idx,
            ProtoMsg::Route {
                key,
                ident,
                hops: hops + 1,
                payload,
            },
        );
    }

    fn handle_owned(
        &mut self,
        ctx: &mut NodeCtx<'_, ProtoMsg>,
        ident: u32,
        hops: u32,
        payload: Payload,
    ) {
        match payload {
            Payload::FindMatch {
                request,
                origin,
                range,
            } => {
                let q = from_wire(&range);
                let best = if self.use_local_index {
                    self.storage.best_across_buckets(&q, self.matching)
                } else {
                    self.storage.best_in_bucket(ident, &q, self.matching)
                };
                ctx.send(
                    origin as usize,
                    ProtoMsg::MatchReply {
                        request,
                        identifier: ident,
                        hops,
                        best: best.map(|m| (to_wire(&m.range), m.score)),
                    },
                );
            }
            Payload::Store {
                request,
                origin,
                range,
            } => {
                self.storage.store(ident, from_wire(&range));
                ctx.send(origin as usize, ProtoMsg::StoreAck { request });
            }
        }
    }
}

impl Node<ProtoMsg> for PeerNode {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_, ProtoMsg>, _from: usize, msg: ProtoMsg) {
        match msg {
            ProtoMsg::Route {
                key,
                ident,
                hops,
                payload,
            } => self.route(ctx, key, ident, hops, payload),
            ProtoMsg::MatchReply {
                request,
                identifier,
                hops,
                best,
            } => {
                self.sink
                    .lock()
                    .expect("sink poisoned")
                    .push(CollectedReply {
                        request,
                        identifier,
                        hops,
                        best: best.map(|(range, score)| Match {
                            range: from_wire(&range),
                            score,
                        }),
                    });
            }
            ProtoMsg::StoreAck { .. } => {}
        }
    }
}

/// The two operations a query needs from a message transport: hand a
/// message to a peer, and deliver until nothing is in flight. The event
/// simulator and the OS-thread runtime differ only here.
pub trait Transport {
    /// Deliver `msg` to peer `to` as if sent by peer `from`.
    fn inject(&mut self, from: usize, to: usize, msg: ProtoMsg);
    /// Run the protocol until no message is in flight.
    fn settle(&mut self);
}

impl Transport for SimNet<ProtoMsg, ConstantLatency> {
    fn inject(&mut self, from: usize, to: usize, msg: ProtoMsg) {
        SimNet::inject(self, from, to, msg);
    }
    fn settle(&mut self) {
        self.run(u64::MAX);
    }
}

impl Transport for ThreadedNet<ProtoMsg> {
    fn inject(&mut self, from: usize, to: usize, msg: ProtoMsg) {
        ThreadedNet::inject(self, from, to, msg);
    }
    /// # Panics
    /// Panics if the network fails to quiesce within 30 seconds (a wedged
    /// peer thread).
    fn settle(&mut self) {
        let quiet = self.await_quiescence(std::time::Duration::from_secs(30));
        assert!(quiet, "peer threads failed to quiesce");
    }
}

/// Driver running the full query procedure as messages over a
/// [`Transport`]: [`ProtoNetwork`] over the event simulator,
/// [`ThreadedProtoNetwork`] over OS threads.
pub struct ProtoDriver<T> {
    net: T,
    info: Arc<RingInfo>,
    groups: HashGroups,
    config: SystemConfig,
    sink: ReplySink,
    rng: DetRng,
    next_request: u64,
    /// True when a transport loss model is active: missing replies are then
    /// treated as timeouts (no match) instead of protocol violations.
    lossy: bool,
}

/// The protocol over the deterministic event simulator.
pub type ProtoNetwork = ProtoDriver<SimNet<ProtoMsg, ConstantLatency>>;

/// The protocol over OS threads: every peer is a thread exchanging
/// [`ProtoMsg`]s through crossbeam channels ([`ThreadedNet`]). Query
/// results are identical to [`ProtoNetwork`] and
/// [`crate::RangeSelectNetwork`] — concurrency changes delivery order, not
/// outcomes, because replies are keyed by request id.
pub type ThreadedProtoNetwork = ProtoDriver<ThreadedNet<ProtoMsg>>;

impl<T: Transport> ProtoDriver<T> {
    /// Build the peers with [`crate::RangeSelectNetwork::new`]'s seed
    /// handling, so the ring, the hash groups and the per-query origin
    /// choice line up exactly with the direct-call rendition, and hand
    /// them to `transport`.
    fn build(
        n_peers: usize,
        config: SystemConfig,
        transport: impl FnOnce(Vec<PeerNode>) -> T,
    ) -> Self {
        assert!(
            config.placement_mode == crate::config::PlacementMode::Independent,
            "the message-passing rendition models independent placement only"
        );
        let mut rng = DetRng::new(config.seed);
        let mut group_rng = rng.fork();
        let ring_seed = rng.next_u64();
        let ring = Ring::from_seed(n_peers, ring_seed);
        let groups = HashGroups::generate(config.family, config.k, config.l, &mut group_rng);
        let index_of: FxHashMap<u32, usize> = ring
            .node_ids()
            .iter()
            .enumerate()
            .map(|(i, id)| (id.0, i))
            .collect();
        let info = Arc::new(RingInfo { ring, index_of });
        let sink: ReplySink = Arc::new(Mutex::new(Vec::new()));
        let nodes = info
            .ring
            .node_ids()
            .iter()
            .map(|&id| PeerNode {
                id,
                info: info.clone(),
                storage: Peer::new(id),
                matching: config.matching,
                use_local_index: config.use_local_index,
                sink: sink.clone(),
            })
            .collect();
        ProtoDriver {
            net: transport(nodes),
            info,
            groups,
            config,
            sink,
            rng,
            next_request: 0,
            lossy: false,
        }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.info.ring.len()
    }

    /// True if the network has no peers.
    pub fn is_empty(&self) -> bool {
        self.info.ring.is_empty()
    }

    /// Route one `payload` per identifier from `origin`, with consecutive
    /// request ids, and settle the transport.
    fn send_all(&mut self, origin: usize, idents: &[u32], payload: impl Fn(u64) -> Payload) {
        for &ident in idents {
            let msg = ProtoMsg::Route {
                key: place_identifier(&self.config, ident).0,
                ident,
                hops: 0,
                payload: payload(self.next_request),
            };
            self.next_request += 1;
            self.net.inject(origin, origin, msg);
        }
        self.net.settle();
    }

    /// Execute one query through the message protocol. Semantically
    /// identical to [`crate::RangeSelectNetwork::query`].
    pub fn query(&mut self, q: &RangeSet) -> QueryOutcome {
        assert!(!q.is_empty(), "cannot query an empty range");
        let hashed_range = hashed_range(q, self.config.padding);
        let identifiers = self.groups.identifiers(&hashed_range);
        let origin_idx = self.rng.gen_index(self.info.ring.len());
        let range = to_wire(&hashed_range);
        let origin = origin_idx as u32;

        // Fire one FindMatch per *distinct* identifier — the direct
        // path's within-query dedup, mirrored: a duplicate would route
        // to the same owner and return the same reply.
        let base_request = self.next_request;
        let routed = distinct_identifiers(&identifiers);
        self.send_all(origin_idx, &routed, |request| Payload::FindMatch {
            request,
            origin,
            range: range.clone(),
        });

        // Collect this query's replies.
        let mut replies: Vec<CollectedReply> = {
            let mut sink = self.sink.lock().expect("sink poisoned");
            sink.drain(..)
                .filter(|r| r.request >= base_request)
                .collect()
        };
        replies.sort_by_key(|r| r.request);
        // A duplicating fault plan can deliver the same MatchReply twice;
        // request ids make the extra copies harmless.
        replies.dedup_by_key(|r| r.request);
        if !self.lossy {
            assert_eq!(
                replies.len(),
                routed.len(),
                "every FindMatch must be answered on a lossless transport"
            );
        }

        // Best across replies; ties resolve to the earliest identifier,
        // matching the direct-call network's iteration order.
        let mut best: Option<Match> = None;
        for m in replies.iter().filter_map(|r| r.best.clone()) {
            keep_better(&mut best, m);
        }
        let best_match = best.map(|m| m.range);
        let exact = best_match.as_ref() == Some(&hashed_range);

        // Store on miss, at every identifier's owner. The origin cannot
        // see whether an owner already held the range, so `stored` means
        // "stores were sent" (see `QueryOutcome::stored`).
        let stored = self.config.cache_on_miss && !exact;
        if stored {
            self.send_all(origin_idx, &identifiers, |request| Payload::Store {
                request,
                origin,
                range: range.clone(),
            });
        }

        let (similarity, recall) = match &best_match {
            Some(m) => (q.jaccard(m), q.containment_in(m)),
            None => (0.0, 0.0),
        };
        QueryOutcome {
            query: q.clone(),
            best_match,
            similarity,
            recall,
            exact,
            stored,
            hops: replies.iter().map(|r| r.hops as usize).collect(),
            identifiers,
            peers_contacted: 0, // not tracked in the message rendition
            attempts: routed.len(),
            // With every reply lost (possible only under faults), the
            // origin falls back to fetching from the source relations.
            fell_back_to_source: replies.is_empty(),
            partition_degraded: false,
        }
    }
}

impl ProtoNetwork {
    /// Build a message-passing network mirroring
    /// [`crate::RangeSelectNetwork::new`] — identical seed handling, so the
    /// ring, the hash groups and the per-query origin choice line up
    /// exactly with the direct-call rendition.
    pub fn new(n_peers: usize, config: SystemConfig) -> ProtoNetwork {
        ProtoDriver::build(n_peers, config, |nodes| {
            let nodes = nodes
                .into_iter()
                .map(|n| Box::new(n) as Box<dyn Node<ProtoMsg>>)
                .collect();
            let mut net = SimNet::new(nodes, ConstantLatency(50));
            // Meter wire bytes: the framed binary encoding is what a TCP
            // deployment would move.
            net.set_meter(|m: &ProtoMsg| ars_simnet::codec::frame(m).len() as u64);
            net
        })
    }

    /// Like [`ProtoNetwork::new`] but with a lossy transport: every message
    /// is independently dropped with probability `loss`. Dropped requests
    /// and replies surface as timed-out lookups (treated as "no match"),
    /// exactly as a lost TCP connection would.
    pub fn new_lossy(
        n_peers: usize,
        config: SystemConfig,
        loss: f64,
        loss_seed: u64,
    ) -> ProtoNetwork {
        let mut net = ProtoNetwork::new(n_peers, config);
        net.net.set_loss(loss, loss_seed);
        net.lossy = true;
        net
    }

    /// Like [`ProtoNetwork::new`] but with an arbitrary seeded
    /// [`FaultPlan`] — drops, duplication, extra delay, node crash and
    /// pause windows — executed by the simulator's fault injector. Under
    /// any plan, queries complete with well-formed (possibly degraded)
    /// outcomes: lost replies read as timeouts, duplicated replies are
    /// deduplicated by request id, and crashed peers simply never answer.
    pub fn new_faulty(
        n_peers: usize,
        config: SystemConfig,
        plan: FaultPlan,
        fault_seed: u64,
    ) -> ProtoNetwork {
        let mut net = ProtoNetwork::new(n_peers, config);
        let benign = plan.is_benign();
        net.net.set_faults(plan, fault_seed);
        net.lossy = !benign;
        net
    }

    /// Messages dropped by the loss model so far.
    pub fn messages_dropped(&self) -> u64 {
        self.net.stats().dropped
    }

    /// Wire bytes the protocol has moved so far (framed binary encoding).
    pub fn bytes_sent(&self) -> u64 {
        self.net.stats().bytes
    }

    /// Messages delivered so far (protocol overhead accounting).
    pub fn messages_delivered(&self) -> u64 {
        self.net.stats().delivered
    }
}

impl ThreadedProtoNetwork {
    /// Spawn one thread per peer, mirroring [`ProtoNetwork::new`]'s seed
    /// handling (same ring, groups, and origin choices).
    pub fn spawn(n_peers: usize, config: SystemConfig) -> ThreadedProtoNetwork {
        ProtoDriver::build(n_peers, config, |nodes| {
            ThreadedNet::spawn(
                nodes
                    .into_iter()
                    .map(|n| Box::new(n) as Box<dyn Node<ProtoMsg> + Send>)
                    .collect(),
            )
        })
    }

    /// Stop all peer threads.
    pub fn shutdown(self) {
        self.net.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_simnet::codec::{deframe, frame};

    fn r(lo: u32, hi: u32) -> RangeSet {
        RangeSet::interval(lo, hi)
    }

    #[test]
    fn wire_roundtrip_all_variants() {
        let msgs = vec![
            ProtoMsg::Route {
                key: 0xDEAD_BEEF,
                ident: 0xBEEF_DEAD,
                hops: 3,
                payload: Payload::FindMatch {
                    request: 42,
                    origin: 7,
                    range: vec![(30, 50), (60, 70)],
                },
            },
            ProtoMsg::Route {
                key: 1,
                ident: 2,
                hops: 0,
                payload: Payload::Store {
                    request: 9,
                    origin: 0,
                    range: vec![(0, 0)],
                },
            },
            ProtoMsg::MatchReply {
                request: 42,
                identifier: 5,
                hops: 2,
                best: Some((vec![(30, 50)], 0.75)),
            },
            ProtoMsg::MatchReply {
                request: 43,
                identifier: 6,
                hops: 1,
                best: None,
            },
            ProtoMsg::StoreAck { request: 9 },
        ];
        for m in msgs {
            let (decoded, rest) = deframe::<ProtoMsg>(frame(&m)).unwrap();
            assert_eq!(decoded, m);
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn wire_rejects_bad_tag() {
        let mut buf = BytesMut::new();
        buf.put_u8(99);
        let mut framed = BytesMut::new();
        framed.put_u32(buf.len() as u32);
        framed.extend_from_slice(&buf);
        assert!(matches!(
            deframe::<ProtoMsg>(framed.freeze()),
            Err(CodecError::BadTag(99))
        ));
    }

    #[test]
    fn first_query_misses_then_hits() {
        let mut net = ProtoNetwork::new(20, SystemConfig::default().with_seed(7));
        let out1 = net.query(&r(30, 50));
        assert!(out1.best_match.is_none());
        assert!(out1.stored);
        let out2 = net.query(&r(30, 50));
        assert!(out2.exact);
        assert_eq!(out2.recall, 1.0);
    }

    #[test]
    fn messages_flow_through_overlay() {
        let mut net = ProtoNetwork::new(30, SystemConfig::default().with_seed(3));
        net.query(&r(0, 10));
        // 5 FindMatch routes (multi-hop) + 5 replies + 5 Stores + 5 acks at
        // minimum.
        assert!(net.messages_delivered() >= 20);
        // Every message has a nonzero framed encoding; a query moves at
        // least ~30 bytes per message.
        assert!(net.bytes_sent() >= net.messages_delivered() * 15);
    }

    #[test]
    fn lossy_transport_degrades_gracefully() {
        let mut net = ProtoNetwork::new_lossy(30, SystemConfig::default().with_seed(21), 0.3, 99);
        let trace_queries: Vec<RangeSet> = (0..60)
            .map(|i| RangeSet::interval(i * 10, i * 10 + 40))
            .collect();
        let mut answered = 0;
        for q in &trace_queries {
            let out = net.query(q);
            if out.best_match.is_some() {
                answered += 1;
            }
        }
        // With 30% loss some messages vanish but the system never wedges.
        assert!(net.messages_dropped() > 0, "loss model must fire");
        // Re-queries can still hit when the store messages survived.
        let _ = answered;
        let q = RangeSet::interval(5, 45);
        net.query(&q);
        let again = net.query(&q);
        // No assertion on hit/miss — only that outcomes stay well-formed.
        assert!(again.recall >= 0.0 && again.recall <= 1.0);
    }

    #[test]
    fn lossless_equals_lossy_at_zero_probability() {
        let mut a = ProtoNetwork::new(15, SystemConfig::default().with_seed(4));
        let mut b = ProtoNetwork::new_lossy(15, SystemConfig::default().with_seed(4), 0.0, 1);
        for lo in [0u32, 50, 100] {
            let q = RangeSet::interval(lo, lo + 30);
            assert_eq!(a.query(&q).best_match, b.query(&q).best_match);
        }
    }

    #[test]
    fn hops_reported_per_identifier() {
        let mut net = ProtoNetwork::new(50, SystemConfig::default().with_seed(5));
        let out = net.query(&r(10, 20));
        assert_eq!(out.hops.len(), 5);
        for &h in &out.hops {
            assert!(h <= 32, "hop count {h} exceeds Chord bound");
        }
    }
}
