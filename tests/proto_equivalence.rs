//! The message-passing rendition of the protocol (over `ars-simnet`) must
//! agree, query for query, with the direct-call simulation — same seeds,
//! same ring, same hash groups, same matches, same recall, same hops.

use ars::prelude::*;

/// Assert two outcomes agree on every field except `peers_contacted`
/// (the message rendition does not track it) and, when `skip_stored`,
/// `stored` (see [`QueryOutcome::stored`]: the origin of a message query
/// cannot see whether an owner already held the range).
fn assert_same_outcome(direct: &QueryOutcome, proto: &QueryOutcome, skip_stored: bool) {
    let mut proto = proto.clone();
    proto.peers_contacted = direct.peers_contacted;
    if skip_stored {
        proto.stored = direct.stored;
    }
    assert_eq!(direct, &proto, "outcomes diverged for {}", direct.query);
}

fn renditions_agree(config: SystemConfig, peers: usize, trace: Trace) {
    let mut direct = RangeSelectNetwork::new(peers, config.clone());
    let mut proto = ProtoNetwork::new(peers, config);
    for q in trace.queries() {
        assert_same_outcome(&direct.query(q), &proto.query(q), false);
    }
}

#[test]
fn direct_and_message_renditions_agree() {
    renditions_agree(
        SystemConfig::default().with_seed(424242),
        40,
        uniform_trace(400, 0, 1000, 7),
    );
    // The §5.3 local index: each owner searches all of its buckets.
    renditions_agree(
        SystemConfig::default()
            .with_local_index(true)
            .with_seed(4711),
        30,
        uniform_trace(400, 0, 1000, 13),
    );
}

#[test]
fn renditions_agree_under_containment_and_padding() {
    let config = SystemConfig::default()
        .with_matching(MatchMeasure::Containment)
        .with_padding(0.2)
        .with_seed(777);
    let mut direct = RangeSelectNetwork::new(25, config.clone());
    let mut proto = ProtoNetwork::new(25, config);
    let trace = uniform_trace(200, 0, 1000, 9);
    for q in trace.queries() {
        let a = direct.query(q);
        let b = proto.query(q);
        // Padded ranges can already sit at every owner after a containment
        // hit that is not exact: the direct path then stores nothing, while
        // the message origin still sends its stores. So `stored` is only
        // one-sided here.
        assert!(
            !a.stored || b.stored,
            "direct stored but proto did not for {q}"
        );
        assert_eq!(b.stored, !b.exact, "proto stores exactly on a miss for {q}");
        assert_same_outcome(&a, &b, true);
    }
}

#[test]
fn message_rendition_pays_routing_messages() {
    let mut proto = ProtoNetwork::new(100, SystemConfig::default().with_seed(5));
    let before = proto.messages_delivered();
    proto.query(&RangeSet::interval(100, 200));
    let spent = proto.messages_delivered() - before;
    // 5 FindMatch requests (several hops each) + 5 replies + 5 stores + 5
    // acks. In a 100-peer ring mean hops ≈ 3–4, so expect ≥ 20 messages.
    assert!(spent >= 20, "only {spent} messages for one query");
}
