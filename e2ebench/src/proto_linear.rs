//! `proto_linear`: the message-passing rendition — 256 peers, the linear
//! hash family, clustered ranges (similar but not identical), every query
//! through `ProtoNetwork::query` over the event simulator.

use crate::common::{
    first_difference, occupancy, Episode, InputProps, Replayed, StaticReplay, TracedPass,
    WARMUP_FRACTION,
};
use crate::spans::Tracer;
use crate::stats::Fnv;
use ars::core::proto::{Payload, ProtoMsg};
use ars::core::{ProtoNetwork, QueryOutcome, RangeSelectNetwork, SystemConfig};
use ars::lsh::{LshFamilyKind, RangeSet};
use ars::simnet::codec::{deframe, frame};
use ars::workload::clustered_trace;
use std::time::Instant;

const PEERS: usize = 256;
const QUERIES: usize = 5_000;

fn config() -> SystemConfig {
    SystemConfig::default().with_family(LshFamilyKind::Linear)
}

fn trace(seed: u64) -> Vec<RangeSet> {
    clustered_trace(QUERIES, 0, 5000, 500, 20, seed)
        .queries()
        .to_vec()
}

fn warm_len() -> usize {
    (QUERIES as f64 * WARMUP_FRACTION) as usize
}

/// Hops per distinct identifier, in the order the query routed them.
fn hops_by_ident(o: &QueryOutcome) -> Vec<(u32, u64)> {
    let mut routed: Vec<(u32, u64)> = Vec::new();
    for &ident in &o.identifiers {
        if !routed.iter().any(|r| r.0 == ident) {
            let h = o.hops.get(routed.len()).copied().unwrap_or(0) as u64;
            routed.push((ident, h));
        }
    }
    routed
}

/// Messages the protocol sends for a query on a lossless transport: each
/// distinct identifier's request is injected at the origin, forwarded
/// once per hop and answered; on a miss every identifier (repeats too)
/// gets a store routed the same way and an acknowledgement.
fn expected_messages(o: &QueryOutcome) -> u64 {
    let routed = hops_by_ident(o);
    let hops_of = |ident: u32| routed.iter().find(|r| r.0 == ident).map_or(0, |r| r.1);
    let find: u64 = routed.iter().map(|r| r.1 + 2).sum();
    let store: u64 = if o.stored {
        o.identifiers.iter().map(|&i| hops_of(i) + 2).sum()
    } else {
        0
    };
    find + store
}

/// The simulator's message ledger `sent == delivered + dropped +
/// partitioned + queued`. The transport has no faults and every query runs
/// the simulator to quiescence, so nothing may be dropped, partitioned or
/// queued: every message the protocol sends must be delivered.
fn check_ledger(net: &ProtoNetwork, sent: u64) -> Result<(), String> {
    if net.messages_dropped() != 0 || net.messages_delivered() != sent {
        return Err(format!(
            "simnet ledger: sent {} != delivered {} + dropped {}",
            sent,
            net.messages_delivered(),
            net.messages_dropped()
        ));
    }
    Ok(())
}

/// `check` compares every outcome with `RangeSelectNetwork::query` under
/// the same configuration (the proto-equivalence contract).
pub fn episode(seed: u64, check: bool) -> Result<Episode, String> {
    let t0 = Instant::now();
    let trace = trace(seed);
    let warm = warm_len();
    let mut net = ProtoNetwork::new(PEERS, config());
    let mut ep = Episode::default();
    let mut outs = Vec::with_capacity(trace.len());
    let mut sent = 0u64;
    for q in &trace[..warm] {
        let o = net.query(q);
        sent += expected_messages(&o);
        outs.push(o);
    }
    ep.setup_s = t0.elapsed().as_secs_f64();
    for q in &trace[warm..] {
        let (m0, b0) = (net.messages_delivered(), net.bytes_sent());
        let o = ep.time(|| net.query(q));
        ep.book(&o, net.messages_delivered() - m0);
        ep.wire_bytes += net.bytes_sent() - b0;
        sent += expected_messages(&o);
        outs.push(o);
    }
    check_ledger(&net, sent)?;
    let mut digest = Fnv::new();
    for o in &outs {
        digest.outcome(o);
    }
    ep.digest = digest.finish();
    let mut p = InputProps::of_trace(&trace);
    p.stored_share = outs.iter().filter(|o| o.stored).count() as f64 / outs.len() as f64;
    drop(net);
    if check {
        let mut direct = RangeSelectNetwork::new(PEERS, config());
        let reference: Vec<QueryOutcome> = trace.iter().map(|q| direct.query(q)).collect();
        if let Some(d) = first_difference(&outs, &reference, true, false) {
            return Err(format!("proto_linear differs from the direct path: {d}"));
        }
        // Equal outcomes leave equal storage, so the direct network's
        // peers stand in for the simulator's.
        let peers = direct
            .ring()
            .node_ids()
            .iter()
            .filter_map(|&id| direct.peer(id));
        (p.live_partitions, p.bucket_occupancy_mean) = occupancy(peers);
    }
    ep.props = p;
    Ok(ep)
}

/// Frame and deframe one message; returns its wire length.
fn codec(t: &mut Tracer, msg: ProtoMsg) -> Result<u64, String> {
    let bytes = t.span("codec.frame", || frame(&msg));
    let len = bytes.len() as u64;
    match t.span("codec.deframe", || deframe::<ProtoMsg>(bytes)) {
        Ok((back, rest)) if back == msg && rest.is_empty() => Ok(len),
        other => Err(format!("codec round trip of {msg:?} gave {other:?}")),
    }
}

/// Encode every message the query sent, with the hop counts the real
/// query reported. Returns the bytes the simulator's wire meter counted.
fn replay_codec(
    t: &mut Tracer,
    q: &RangeSet,
    o: &QueryOutcome,
    r: &Replayed,
) -> Result<u64, String> {
    let range = q.intervals().to_vec();
    let place = |ident: u32| ars::chord::sha1::sha1_u32(&ident.to_be_bytes());
    let routed = hops_by_ident(o);
    let mut bytes = 0;
    for (k, &(ident, hops)) in routed.iter().enumerate() {
        let request = k as u64;
        for hop in 0..=hops {
            let payload = Payload::FindMatch {
                request,
                origin: 0,
                range: range.clone(),
            };
            bytes += codec(
                t,
                ProtoMsg::Route {
                    key: place(ident),
                    ident,
                    hops: hop as u32,
                    payload,
                },
            )?;
        }
        let best = r.routed[k]
            .2
            .as_ref()
            .map(|m| (m.range.intervals().to_vec(), m.score));
        bytes += codec(
            t,
            ProtoMsg::MatchReply {
                request,
                identifier: ident,
                hops: hops as u32,
                best,
            },
        )?;
    }
    if o.stored {
        for (k, &ident) in o.identifiers.iter().enumerate() {
            let request = (routed.len() + k) as u64;
            let hops = routed.iter().find(|x| x.0 == ident).map_or(0, |x| x.1);
            for hop in 0..=hops {
                let payload = Payload::Store {
                    request,
                    origin: 0,
                    range: range.clone(),
                };
                bytes += codec(
                    t,
                    ProtoMsg::Route {
                        key: place(ident),
                        ident,
                        hops: hop as u32,
                        payload,
                    },
                )?;
            }
            bytes += codec(t, ProtoMsg::StoreAck { request })?;
        }
    }
    Ok(bytes)
}

/// One traced pass: each `ProtoNetwork::query` is spanned, then replayed
/// through the layers — hashing, routing and bucket calls on the
/// benchmark's own peers, and the codec on every message the query sent.
pub fn traced(seed: u64, t: &mut Tracer) -> Result<TracedPass, String> {
    let trace = trace(seed);
    let warm = warm_len();
    let mut net = ProtoNetwork::new(PEERS, config());
    let direct = RangeSelectNetwork::new(PEERS, config());
    let mut replay = StaticReplay::new(direct.config(), direct.ring(), direct.groups(), false);
    drop(direct);
    let (mut sent, mut delivered, mut bytes, mut query_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut hops, mut lookups) = (0u64, 0u64);
    for (i, q) in trace.iter().enumerate() {
        t.on = i >= warm;
        t.query = i as u64;
        let (m0, b0) = (net.messages_delivered(), net.bytes_sent());
        let start = Instant::now();
        let o = t.span("proto.query", || net.query(q));
        let elapsed = start.elapsed().as_nanos() as u64;
        let r = replay.query(t, q);
        r.check(&o)?;
        sent += expected_messages(&o);
        let wire = replay_codec(t, q, &o, &r)?;
        if wire != net.bytes_sent() - b0 {
            return Err(format!(
                "replayed messages of {q} frame to {wire} bytes, the simulator metered {}",
                net.bytes_sent() - b0
            ));
        }
        if t.on {
            delivered += net.messages_delivered() - m0;
            bytes += wire;
            query_ns += elapsed;
            hops += o.hops.iter().sum::<usize>() as u64;
            lookups += o.hops.len() as u64;
        }
    }
    t.on = true;
    check_ledger(&net, sent)?;
    let c = &replay.counts;
    let timed = (trace.len() - warm) as f64;
    let values = vec![
        ("ring.lookups", lookups as f64),
        ("ring.hops_per_lookup", hops as f64 / lookups as f64),
        (
            "bucket.ranges_scanned_per_match",
            c.ranges_scanned as f64 / c.match_calls as f64,
        ),
        (
            "bucket.stores_per_query",
            c.stored_new as f64 / trace.len() as f64,
        ),
        ("simnet.messages_per_query", delivered as f64 / timed),
        ("simnet.ns_per_message", query_ns as f64 / delivered as f64),
        ("simnet.conserved", 1.0),
        ("codec.bytes_per_message", bytes as f64 / delivered as f64),
    ];
    Ok(TracedPass {
        queries: timed as u64,
        values,
    })
}
