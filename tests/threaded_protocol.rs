//! The protocol across real OS threads (crossbeam channels) must produce
//! the same query outcomes as the deterministic simulations — concurrency
//! reorders deliveries, not results.

use ars::core::ThreadedProtoNetwork;
use ars::prelude::*;

#[test]
fn threaded_equals_direct() {
    let config = SystemConfig::default().with_seed(31337);
    let mut direct = RangeSelectNetwork::new(16, config.clone());
    let mut threaded = ThreadedProtoNetwork::spawn(16, config);

    let trace = uniform_trace(150, 0, 1000, 3);
    for q in trace.queries() {
        let a = direct.query(q);
        // Every field but `peers_contacted`, which the message renditions
        // do not track.
        let mut b = threaded.query(q);
        b.peers_contacted = a.peers_contacted;
        assert_eq!(a, b, "outcomes diverged for {q}");
    }
    threaded.shutdown();
}

#[test]
fn threaded_equals_simnet_with_local_index() {
    let config = SystemConfig::default()
        .with_local_index(true)
        .with_padding(0.1)
        .with_seed(2718);
    let mut sim = ProtoNetwork::new(12, config.clone());
    let mut threaded = ThreadedProtoNetwork::spawn(12, config);
    let trace = uniform_trace(150, 0, 1000, 17);
    for q in trace.queries() {
        assert_eq!(sim.query(q), threaded.query(q), "outcomes diverged for {q}");
    }
    threaded.shutdown();
}

#[test]
fn threaded_handles_interleaved_exact_hits() {
    let mut threaded = ThreadedProtoNetwork::spawn(8, SystemConfig::default().with_seed(99));
    let q = RangeSet::interval(100, 300);
    let first = threaded.query(&q);
    assert!(!first.exact);
    for _ in 0..5 {
        let again = threaded.query(&q);
        assert!(again.exact, "repeat must hit the cached partition");
        assert_eq!(again.recall, 1.0);
    }
    threaded.shutdown();
}
