//! One benchmark for the four query paths of the approximate range
//! selection system: sequential (`uniform_seq`), concurrent engine
//! (`zipf_engine`), churn-resilient with durable stores (`churn_durable`)
//! and message-passing (`proto_linear`).
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run repeats *episodes* until `--seconds` have passed (at least
//! sixteen): an episode generates the workload's trace from the seed, builds
//! the network, runs the first 20% of the trace untimed (set-up), then
//! times every remaining query call. The program sees only the generated
//! ranges. Output checks run before anything is printed; a failed check
//! exits with code 1 and no result line. Each workload's trace length is
//! fixed: state grows through an episode, so the length is part of the
//! workload.
//!
//! `--trace 0` reports the end-to-end metrics from untraced episodes (see
//! [`end_to_end`] for how timings are aggregated), the count metrics
//! (identical in every episode, which is checked), the set-up time and
//! the peak resident memory of the first episode with its checks. A
//! report line before the result carries the machine stamp (cores, build
//! profile, compiler, commit, engine workers), the outcome digest, the
//! input properties and the figures that exist on one workload only.
//!
//! `--trace 1` alternates untraced episodes with traced passes and reports
//! the per-layer metrics. A traced pass spans each real entry point
//! (`query`, `submit`/`drain`, `query_timed`, the membership calls,
//! `ProtoNetwork::query`) and then drives the same query through the
//! layers' public calls in the order the real path makes them
//! (`HashGroups::identifiers`, placement and `Ring::lookup` or
//! `DynamicNetwork::lookup`, `Peer::best_in_bucket`/`Peer::store` on peers
//! the benchmark holds itself, `BucketStore::place`, `codec::frame`),
//! checking that the replay reaches the same owners and the same match.
//! `unattributed_share` is one minus the layers' summed self time over the
//! real entry points' time; `trace_overhead` is how much slower the real
//! entry points run in the traced pass than in the untraced episodes.
//! Spans of the last traced pass are written as CSV under
//! `$CARGO_TARGET_DIR/e2ebench-spans/` (default `.bench_build`).
//!
//! # A worked reading
//!
//! Traced runs (`--seed 1 --seconds 20 --trace 1`) on a 2-core x86-64 VM,
//! release build, engine resolved to 2 workers. Shares are of the real
//! entry points' time; the placement/lookup split is from the span file.
//!
//! | layer (spans)                  | `uniform_seq` | `zipf_engine` |
//! |--------------------------------|--------------:|--------------:|
//! | entry time per query           |       19.4 µs | 16.8 µs (submit + drain) |
//! | lsh (`identifiers`)            |          8.4% |          2.9% |
//! | ring: placement (`sha1_u32`)   |           24% |           25% |
//! | ring: `Ring::lookup`           |           19% |           20% |
//! | bucket (`best_in_bucket` + `store`) |      45.4% |         19.9% |
//! | engine (`submit`)              |             — |           14% |
//! | unattributed                   |          6.0% |         15.5% |
//!
//! Routing is not "the 61% layer": `Ring::lookup` itself is a fifth of a
//! query on both paths (p50 590–670 ns per lookup, 5.9 hops), and hashing
//! each identifier onto the ring with SHA-1 costs more than the lookup.
//! The 61% came from batch stage clocks that include the routing phase's
//! thread fan-out. On `zipf_engine` the engine adds 5.3 µs per query over
//! the layers' own work (`engine.overhead_ns_per_query`): 0.36 µs per
//! `submit` (p50) and the rest in the drain wait that no layer covers.
//! On `uniform_seq` the cold identifier cache (0.9% hits) leaves bucket
//! matching and the cache-on-miss stores (4.9 new copies per query) as
//! the largest layer. Same seed, other workloads: `proto_linear` spends
//! 40% in linear-family hashing (38.9 µs per call) and 21% framing its
//! 68.6 messages; `churn_durable` leaves 43% unattributed, mostly the
//! stabilization round each lookup retry runs inside `query_timed`
//! (0.11 retries per query), which has no public call to span.

mod churn_durable;
mod common;
mod proto_linear;
mod spans;
mod stats;
mod uniform_seq;
mod zipf_engine;

use common::{attributed_layer, Episode, TracedPass};
use spans::Tracer;
use stats::{median, peak_rss_mib, quantile};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 4] = [
    "uniform_seq",
    "zipf_engine",
    "churn_durable",
    "proto_linear",
];
/// Episodes the timing estimator samples, spread evenly over the run (see
/// [`end_to_end`]).
const SAMPLED: usize = 16;
/// Fewest untraced episodes a run takes, whatever `--seconds` says.
const MIN_EPISODES: usize = SAMPLED;
/// Fewest traced passes a traced run takes.
const MIN_TRACED: usize = 2;

/// End-to-end metrics, in output order: (name, unit).
const END_TO_END: [(&str, &str); 7] = [
    ("query_qps", "queries/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("messages_per_query", "messages"),
    ("recall_mean", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, in output order: (name, unit). A layer a workload
/// bypasses reads 0 there.
const PER_LAYER: [(&str, &str); 48] = [
    ("lsh.calls", "count"),
    ("lsh.ns_per_call_p50", "ns"),
    ("lsh.self_share", "ratio"),
    ("ident_cache.hit_rate", "ratio"),
    ("ident_cache.evictions", "count"),
    ("ring.lookups", "count"),
    ("ring.ns_per_lookup_p50", "ns"),
    ("ring.hops_per_lookup", "hops"),
    ("ring.self_share", "ratio"),
    ("bucket.match_calls", "count"),
    ("bucket.match_ns_p50", "ns"),
    ("bucket.ranges_scanned_per_match", "ranges"),
    ("bucket.stores_per_query", "count"),
    ("bucket.store_ns_p50", "ns"),
    ("bucket.self_share", "ratio"),
    ("engine.submit_ns_p50", "ns"),
    ("engine.drain_wait_ns_per_query", "ns"),
    ("engine.overhead_ns_per_query", "ns"),
    ("engine.recording_qps_ratio", "ratio"),
    ("dynamic.lookups", "count"),
    ("dynamic.ns_per_lookup_p50", "ns"),
    ("dynamic.hops_per_lookup", "hops"),
    ("dynamic.stabilize_ms_p50", "ms"),
    ("churn.fail_ms_p50", "ms"),
    ("churn.join_ms_p50", "ms"),
    ("churn.restart_ms_p50", "ms"),
    ("churn.live_partitions_end", "count"),
    ("churn.retries_per_query", "count"),
    ("churn.replicas_restored", "count"),
    ("churn.buckets_lost", "count"),
    ("store.records_appended", "count"),
    ("store.bytes_written_per_record", "bytes"),
    ("store.syncs", "count"),
    ("store.place_ns_p50", "ns"),
    ("store.recover_ns_per_record", "ns"),
    ("simnet.messages_per_query", "messages"),
    ("simnet.ns_per_message", "ns"),
    ("simnet.conserved", "bool"),
    ("codec.bytes_per_message", "bytes"),
    ("codec.frame_ns_p50", "ns"),
    ("codec.deframe_ns_p50", "ns"),
    ("unattributed_share", "ratio"),
    ("trace_overhead", "ratio"),
    ("wire_bytes_per_query", "bytes"),
    ("failed_fraction", "ratio"),
    ("sim_latency_p50", "ticks"),
    ("sim_latency_p99", "ticks"),
    ("membership_op_ms_p50", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let num = |s: String, flag: &str| s.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
    let seed = num(get("--seed")?, "--seed")?;
    let seconds = num(get("--seconds")?, "--seconds")?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
    })
}

/// One untraced episode of `workload`; `first` adds the reference checks.
fn episode(workload: &str, seed: u64, first: bool) -> Result<Episode, String> {
    match workload {
        "uniform_seq" => uniform_seq::episode(seed),
        "zipf_engine" => zipf_engine::episode(seed, first),
        "churn_durable" => churn_durable::episode(seed),
        "proto_linear" => proto_linear::episode(seed, first),
        _ => unreachable!("workload names are checked at parse time"),
    }
}

fn traced_pass(workload: &str, seed: u64, t: &mut Tracer) -> Result<TracedPass, String> {
    match workload {
        "uniform_seq" => uniform_seq::traced(seed, t),
        "zipf_engine" => zipf_engine::traced(seed, t),
        "churn_durable" => churn_durable::traced(seed, t),
        "proto_linear" => proto_linear::traced(seed, t),
        _ => unreachable!("workload names are checked at parse time"),
    }
}

/// The real entry points whose time is the end-to-end query time.
fn entry_spans(workload: &str) -> &'static [&'static str] {
    match workload {
        "uniform_seq" => &["query"],
        "zipf_engine" => &["engine.submit", "engine.drain"],
        "churn_durable" => &["query_timed"],
        _ => &["proto.query"],
    }
}

/// Run one more untraced episode, checking it repeats the first exactly.
fn next_episode(args: &Args, eps: &mut Vec<Episode>) -> Result<(), String> {
    let ep = episode(&args.workload, args.seed, eps.is_empty())?;
    if let Some(first) = eps.first() {
        if ep.digest != first.digest || ep.messages != first.messages || ep.failed != first.failed {
            return Err(format!(
                "episode {} did not repeat the first: digest {:016x} against {:016x}",
                eps.len(),
                ep.digest,
                first.digest
            ));
        }
    }
    eps.push(ep);
    Ok(())
}

/// Each position's fastest sample across `eps`.
fn fastest(eps: &[&Episode], field: fn(&Episode) -> &[u64]) -> Vec<u64> {
    (0..field(eps[0]).len())
        .map(|i| eps.iter().map(|e| field(e)[i]).min().unwrap_or(0))
        .collect()
}

/// The end-to-end metrics of a run's untraced episodes.
///
/// Every episode replays the same inputs, so each call and each query is
/// timed once per episode. On a shared host the speed of memory-bound
/// code swings by up to 2x over seconds, and a median over episodes
/// follows those swings. So the run samples [`SAMPLED`] episodes spread
/// evenly over its length; each call and each query keeps its fastest
/// time among them, and queries/s, p50 and p99 are computed from those
/// (set-up likewise takes the fastest sampled set-up). A fixed sample
/// count keeps the estimate independent of how many episodes a faster
/// program fits into `--seconds`. Count metrics are identical in every
/// episode (checked).
fn end_to_end(eps: &[Episode], peak_rss_mb: f64) -> BTreeMap<&'static str, f64> {
    let n = eps.len();
    let sample: Vec<&Episode> = (0..SAMPLED).map(|i| &eps[i * n / SAMPLED]).collect();
    let calls = fastest(&sample, |e| &e.calls_ns);
    let latencies = fastest(&sample, |e| &e.latencies_ns);
    let first = &eps[0];
    let mut m = BTreeMap::new();
    m.insert(
        "query_qps",
        first.queries as f64 * 1e9 / calls.iter().sum::<u64>() as f64,
    );
    m.insert("query_p50_us", quantile(&latencies, 0.5) / 1e3);
    m.insert("query_p99_us", quantile(&latencies, 0.99) / 1e3);
    m.insert(
        "messages_per_query",
        first.messages as f64 / first.queries as f64,
    );
    m.insert("recall_mean", first.recall_sum / first.queries as f64);
    m.insert(
        "setup_s",
        sample
            .iter()
            .map(|e| e.setup_s)
            .fold(f64::INFINITY, f64::min),
    );
    m.insert("peak_rss_mb", peak_rss_mb);
    m
}

/// The end-to-end figures that exist on one workload only; reported with
/// the per-layer metrics (0 where the workload has no such figure).
fn workload_extras(eps: &[Episode]) -> BTreeMap<&'static str, f64> {
    let first = &eps[0];
    let mut m = BTreeMap::new();
    m.insert(
        "wire_bytes_per_query",
        first.wire_bytes as f64 / first.queries as f64,
    );
    m.insert(
        "failed_fraction",
        first.failed as f64 / first.attempted as f64,
    );
    m.insert("sim_latency_p50", quantile(&first.sim_latency, 0.5));
    m.insert("sim_latency_p99", quantile(&first.sim_latency, 0.99));
    let ms: Vec<f64> = eps
        .iter()
        .flat_map(|e| e.membership_ms.iter().copied())
        .collect();
    m.insert("membership_op_ms_p50", median(&ms));
    m
}

/// Per-layer metrics of one traced pass.
fn layer_metrics(workload: &str, t: &Tracer, pass: &TracedPass) -> BTreeMap<&'static str, f64> {
    let q = pass.queries as f64;
    let e2e: u64 = entry_spans(workload)
        .iter()
        .map(|n| t.durations(n).iter().sum::<u64>())
        .sum();
    let mut layer_self: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, ns) in t.self_by_name() {
        if let Some(layer) = attributed_layer(name) {
            *layer_self.entry(layer).or_insert(0) += ns;
        }
    }
    let share = |layer: &str| layer_self.get(layer).copied().unwrap_or(0) as f64 / e2e as f64;
    let p50 = |name: &str| quantile(&t.durations(name), 0.5);
    let total = |name: &str| t.durations(name).iter().sum::<u64>() as f64;
    let work: u64 = ["lsh", "ring", "bucket"]
        .iter()
        .map(|l| layer_self.get(l).copied().unwrap_or(0))
        .sum();
    let mut m = BTreeMap::new();
    m.insert("lsh.calls", t.durations("lsh.identifiers").len() as f64);
    m.insert("lsh.ns_per_call_p50", p50("lsh.identifiers"));
    m.insert("lsh.self_share", share("lsh"));
    m.insert("ring.ns_per_lookup_p50", p50("ring.lookup"));
    m.insert("ring.self_share", share("ring"));
    m.insert(
        "bucket.match_calls",
        t.durations("bucket.match").len() as f64,
    );
    m.insert("bucket.match_ns_p50", p50("bucket.match"));
    m.insert("bucket.store_ns_p50", p50("bucket.store"));
    m.insert("bucket.self_share", share("bucket"));
    if workload == "zipf_engine" {
        m.insert("engine.submit_ns_p50", p50("engine.submit"));
        m.insert("engine.drain_wait_ns_per_query", total("engine.drain") / q);
        m.insert(
            "engine.overhead_ns_per_query",
            (e2e as f64 - work as f64) / q,
        );
    }
    m.insert("dynamic.ns_per_lookup_p50", p50("dynamic.lookup"));
    m.insert("dynamic.stabilize_ms_p50", p50("churn.stabilize") / 1e6);
    m.insert("churn.fail_ms_p50", p50("churn.fail") / 1e6);
    m.insert("churn.join_ms_p50", p50("churn.join") / 1e6);
    m.insert("churn.restart_ms_p50", p50("churn.restart") / 1e6);
    m.insert("store.place_ns_p50", p50("store.place"));
    m.insert("codec.frame_ns_p50", p50("codec.frame"));
    m.insert("codec.deframe_ns_p50", p50("codec.deframe"));
    m.insert(
        "unattributed_share",
        1.0 - layer_self.values().sum::<u64>() as f64 / e2e as f64,
    );
    // Real-entry-point time per timed query, for `trace_overhead`.
    m.insert("e2e_ns_per_query", e2e as f64 / q);
    for &(k, v) in &pass.values {
        m.insert(k, v);
    }
    m
}

/// What produced the numbers: cores, build, compiler, commit, engine
/// workers.
fn machine_stamp() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"cores\": {}, \"profile\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \"engine_workers\": {}}}",
        cores,
        env!("E2EBENCH_PROFILE"),
        env!("E2EBENCH_RUSTC"),
        commit(),
        zipf_engine::resolved_workers()
    )
}

/// The checked-out commit, read from `.git` when the run starts inside a
/// git work tree; "unknown" elsewhere.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.len() == 40 && id.bytes().all(|b| b.is_ascii_hexdigit()) {
        id.to_string()
    } else {
        "unknown".into()
    }
}

fn metrics_json(values: &BTreeMap<&str, f64>, order: &[(&str, &str)]) -> String {
    let fields: Vec<String> = order
        .iter()
        .map(|&(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn run(args: &Args) -> Result<(), String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut eps: Vec<Episode> = Vec::new();
    let (metrics, order): (BTreeMap<&str, f64>, &[(&str, &str)]) = if args.trace {
        let mut passes: Vec<BTreeMap<&str, f64>> = Vec::new();
        let mut last = Tracer::disabled();
        while passes.len() < MIN_TRACED || start.elapsed() < budget {
            next_episode(args, &mut eps)?;
            let mut t = Tracer::new();
            let pass = traced_pass(&args.workload, args.seed, &mut t)?;
            passes.push(layer_metrics(&args.workload, &t, &pass));
            last = t;
        }
        let mut m: BTreeMap<&str, f64> = BTreeMap::new();
        for &(name, _) in PER_LAYER.iter() {
            let vals: Vec<f64> = passes.iter().filter_map(|p| p.get(name).copied()).collect();
            m.insert(name, median(&vals));
        }
        let traced_ns: Vec<f64> = passes.iter().map(|p| p["e2e_ns_per_query"]).collect();
        let untraced_ns: Vec<f64> = eps
            .iter()
            .map(|e| e.query_s * 1e9 / e.queries as f64)
            .collect();
        m.insert(
            "trace_overhead",
            median(&traced_ns) / median(&untraced_ns) - 1.0,
        );
        if args.workload == "zipf_engine" {
            let untraced_qps = median(&eps.iter().map(Episode::qps).collect::<Vec<_>>());
            let recording = zipf_engine::recording_qps(args.seed)?;
            m.insert("engine.recording_qps_ratio", recording / untraced_qps);
        }
        m.extend(workload_extras(&eps));
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
        let path = std::path::Path::new(&dir)
            .join("e2ebench-spans")
            .join(format!("{}.csv", args.workload));
        last.write_csv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "spans of the last traced pass: {} (clock floor {} ns per span)",
            path.display(),
            last.floor_ns
        );
        (m, &PER_LAYER)
    } else {
        next_episode(args, &mut eps)?;
        // Peak memory of one episode with its output checks; later
        // episodes only repeat it.
        let peak_rss = peak_rss_mib().unwrap_or(0.0);
        while eps.len() < MIN_EPISODES || start.elapsed() < budget {
            next_episode(args, &mut eps)?;
        }
        (end_to_end(&eps, peak_rss), &END_TO_END)
    };
    let first = &eps[0];
    let extras = workload_extras(&eps);
    let extras_json: Vec<String> = extras
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "{{\"report\": {{\"workload\": \"{}\", \"seed\": {}, \"episodes\": {}, \"digest\": \"{:016x}\", \
         \"machine\": {}, \"inputs\": {}, \"workload_figures\": {{{}}}}}}}",
        args.workload,
        args.seed,
        eps.len(),
        first.digest,
        machine_stamp(),
        first.props.to_json(),
        extras_json.join(", ")
    );
    for &(name, unit) in order {
        eprintln!(
            "{name:<34} {:>16.4} {unit}",
            metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    let attempted: u64 = eps.iter().map(|e| e.attempted).sum();
    let failed: u64 = eps.iter().map(|e| e.failed).sum();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics, order)
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n{e}",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("output check failed: {e}");
        std::process::exit(1);
    }
}
