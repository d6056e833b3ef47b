//! `zipf_engine`: popular hot ranges through the concurrent engine — 1024
//! peers, the default configuration, windows of 64 `QueryEngine::submit`
//! calls each followed by one `drain`.

use crate::common::{
    first_difference, occupancy, Episode, InputProps, StaticReplay, TracedPass, WARMUP_FRACTION,
};
use crate::spans::Tracer;
use crate::stats::Fnv;
use ars::core::{EngineOptions, QueryEngine, QueryOutcome, RangeSelectNetwork, SystemConfig};
use ars::lsh::RangeSet;
use ars::telemetry::Telemetry;
use ars::workload::zipf_trace;
use std::time::Instant;

const PEERS: usize = 1024;
const QUERIES: usize = 32_000;
const WINDOW: usize = 64;

fn trace(seed: u64) -> Vec<RangeSet> {
    zipf_trace(QUERIES, 0, 40_000, 64, 1.1, 300, seed)
        .queries()
        .to_vec()
}

fn warm_len() -> usize {
    (QUERIES as f64 * WARMUP_FRACTION) as usize
}

/// The worker count the engine resolves to on this machine.
pub fn resolved_workers() -> usize {
    let opts = EngineOptions::from_config(&SystemConfig::default());
    if opts.workers > 0 {
        opts.workers
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

fn launch(telemetry: Option<Telemetry>) -> QueryEngine {
    let config = SystemConfig::default();
    let mut net = RangeSelectNetwork::new(PEERS, config.clone());
    if let Some(t) = telemetry {
        net.set_telemetry(t);
    }
    QueryEngine::launch(net, EngineOptions::from_config(&config))
}

fn drain(engine: &mut QueryEngine) -> Result<Vec<QueryOutcome>, String> {
    engine.drain().map_err(|e| format!("engine failed: {e:?}"))
}

/// One timed window: submit every query, then drain. Returns the
/// outcomes and each query's latency from its submit to the drain's
/// return.
fn window(
    engine: &mut QueryEngine,
    qs: &[RangeSet],
    ep: &mut Episode,
) -> Result<Vec<QueryOutcome>, String> {
    let mut starts = Vec::with_capacity(qs.len());
    for q in qs {
        starts.push(Instant::now());
        engine.submit(q);
    }
    let outs = drain(engine)?;
    let end = Instant::now();
    for s in &starts {
        ep.latencies_ns.push((end - *s).as_nanos() as u64);
    }
    ep.calls_ns.push((end - starts[0]).as_nanos() as u64);
    ep.query_s += (end - starts[0]).as_secs_f64();
    ep.queries += qs.len() as u64;
    ep.attempted += qs.len() as u64;
    Ok(outs)
}

/// Run the engine over the trace: warm-up windows untimed, the rest timed.
fn run(
    engine: &mut QueryEngine,
    trace: &[RangeSet],
    ep: &mut Episode,
    t0: Instant,
) -> Result<Vec<QueryOutcome>, String> {
    let warm = warm_len();
    let mut outs = Vec::with_capacity(trace.len());
    for qs in trace[..warm].chunks(WINDOW) {
        for q in qs {
            engine.submit(q);
        }
        outs.extend(drain(engine)?);
    }
    ep.setup_s = t0.elapsed().as_secs_f64();
    for qs in trace[warm..].chunks(WINDOW) {
        let window_outs = window(engine, qs, ep)?;
        for o in &window_outs {
            ep.book(o, o.hops.iter().sum::<usize>() as u64);
        }
        outs.extend(window_outs);
    }
    Ok(outs)
}

fn finish(engine: QueryEngine) -> Result<RangeSelectNetwork, String> {
    let (net, rest) = engine.shutdown();
    match rest {
        Ok(rest) if rest.is_empty() => Ok(net),
        Ok(rest) => Err(format!("{} outcomes left after the last drain", rest.len())),
        Err(e) => Err(format!("engine failed: {e:?}")),
    }
}

/// `check` compares the engine's outcomes with a sequential `query` loop
/// over the same trace (equal except for `hops`, the engine's contract).
pub fn episode(seed: u64, check: bool) -> Result<Episode, String> {
    let t0 = Instant::now();
    let trace = trace(seed);
    let mut engine = launch(None);
    let mut ep = Episode::default();
    let outs = run(&mut engine, &trace, &mut ep, t0)?;
    let net = finish(engine)?;
    if outs.len() != trace.len() || net.stats().queries != trace.len() as u64 {
        return Err(format!(
            "zipf_engine: {} outcomes, {} in stats, for {} queries",
            outs.len(),
            net.stats().queries,
            trace.len()
        ));
    }
    let mut digest = Fnv::new();
    for o in &outs {
        digest.outcome(o);
    }
    ep.digest = digest.finish();
    let mut p = InputProps::of_trace(&trace);
    let cache = net.identifier_cache();
    p.ident_cache_hit_rate = cache.hits() as f64 / (cache.hits() + cache.misses()) as f64;
    p.stored_share = outs.iter().filter(|o| o.stored).count() as f64 / outs.len() as f64;
    let peers = net.ring().node_ids().iter().filter_map(|&id| net.peer(id));
    (p.live_partitions, p.bucket_occupancy_mean) = occupancy(peers);
    ep.props = p;
    drop(net);
    if check {
        let mut seq = RangeSelectNetwork::new(PEERS, SystemConfig::default());
        let reference: Vec<QueryOutcome> = trace.iter().map(|q| seq.query(q)).collect();
        if let Some(d) = first_difference(&outs, &reference, false, true) {
            return Err(format!("zipf_engine differs from the sequential path: {d}"));
        }
    }
    Ok(ep)
}

/// Queries per second with a recording telemetry sink attached, for the
/// ratio against the untraced run.
pub fn recording_qps(seed: u64) -> Result<f64, String> {
    let trace = trace(seed);
    let mut engine = launch(Some(Telemetry::recording()));
    let mut ep = Episode::default();
    run(&mut engine, &trace, &mut ep, Instant::now())?;
    finish(engine)?;
    Ok(ep.qps())
}

/// One traced pass: each `submit` and `drain` is spanned; after each
/// drain the window's queries are replayed, in submission order, through
/// the layers on the benchmark's own peers.
pub fn traced(seed: u64, t: &mut Tracer) -> Result<TracedPass, String> {
    let trace = trace(seed);
    let warm = warm_len();
    let mut engine = launch(None);
    let probe = RangeSelectNetwork::new(PEERS, SystemConfig::default());
    let mut replay = StaticReplay::new(probe.config(), probe.ring(), probe.groups(), true);
    drop(probe);
    for (w, qs) in trace.chunks(WINDOW).enumerate() {
        let first = w * WINDOW;
        t.on = first >= warm;
        for (i, q) in qs.iter().enumerate() {
            t.query = (first + i) as u64;
            t.span("engine.submit", || engine.submit(q));
        }
        let outs = t.span("engine.drain", || drain(&mut engine))?;
        for (i, (q, o)) in qs.iter().zip(&outs).enumerate() {
            t.query = (first + i) as u64;
            let r = replay.query(t, q);
            r.check(o)?;
            if r.distinct_owners() != o.peers_contacted {
                return Err(format!("replay of {q} reached other owners"));
            }
        }
    }
    t.on = true;
    let net = finish(engine)?;
    for id in net.ring().node_ids() {
        let real = net.peer(*id).map_or(0, |p| p.partition_count());
        if real != replay.peers()[&id.0].partition_count() {
            return Err(format!(
                "peer {id:?}: engine and replay hold different partitions"
            ));
        }
    }
    let stats = net.stats();
    let cache = net.identifier_cache();
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
            c.stored_new as f64 / trace.len() as f64,
        ),
    ];
    Ok(TracedPass {
        queries: (trace.len() - warm) as u64,
        values,
    })
}
