//! End-to-end throughput benchmark for the sharded query engine, the
//! fused group-identifier kernels, and the Chord route cache, written to
//! `BENCH_throughput.json` at the repo root.
//!
//! Three sections:
//!
//! * **fused** — group-identifier computation (k = 20, l = 5) through the
//!   fused single-pass [`ars_lsh::CompiledGroup`] kernels vs the
//!   per-function compiled loop, per paper family. Floors asserted: ≥5×
//!   for the bit-shuffle families; for linear, whose per-function loop
//!   runs the same closed form (speedup ≈1×), fused linear within 6× of
//!   fused approx. min-wise in the same run.
//! * **engine** — queries/second over a Zipf trace through the
//!   one-at-a-time sequential path and the concurrent worker-peer engine
//!   swept over worker counts (`ARS_ENGINE_WORKERS`, default `1,2,4`).
//!   Floors asserted: the 1-worker engine ≥0.35× sequential in the same
//!   run, and — on ≥4 available cores — the best engine ≥2× sequential.
//!   Equivalence asserted before timing: the concurrent engine is
//!   schedule-invariant and equal to sequential modulo `hops`.
//! * **route_cache** — hit rates and mean hops on a live (churning)
//!   network across Zipf skews, cached vs uncached.
//!
//! Usage: `cargo run --release -p ars-bench --bin bench_throughput`

use ars_core::{ChurnNetwork, EngineOptions, RangeSelectNetwork, SystemConfig};
use ars_lsh::{HashGroups, LshFamilyKind, RangeSet};
use ars_workload::zipf_trace;
use std::time::Instant;

const SAMPLES: usize = 9;

/// Median of `SAMPLES` timings of `f` (seconds).
fn median_secs(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn fused_section(json: &mut String) {
    use ars_common::DetRng;
    let queries: Vec<RangeSet> = zipf_trace(64, 0, 40_000, 32, 1.1, 5_000, 11)
        .queries()
        .to_vec();
    let mut first = true;
    let mut fused_us = Vec::new();
    json.push_str("  \"fused_identifiers\": {\n");
    for kind in LshFamilyKind::PAPER_FAMILIES {
        let mut rng = DetRng::new(5);
        let groups = HashGroups::generate(kind, 20, 5, &mut rng);
        // Exactness before speed: both paths agree on the whole trace.
        for q in &queries {
            assert_eq!(
                groups.identifiers(q),
                groups.identifiers_per_function(q),
                "fused diverged from per-function loop on {q}"
            );
        }
        let mut buf = vec![0u32; 5];
        let fused = median_secs(|| {
            for q in &queries {
                groups.identifiers_into(q, &mut buf);
                std::hint::black_box(&buf);
            }
        });
        let per_fn = median_secs(|| {
            for q in &queries {
                std::hint::black_box(groups.identifiers_per_function(q));
            }
        });
        let speedup = per_fn / fused;
        let per_query_us = fused / queries.len() as f64 * 1e6;
        println!(
            "fused {:<28} {per_query_us:>8.2} us/query  speedup vs per-function {speedup:>6.1}x",
            kind.name()
        );
        if matches!(kind, LshFamilyKind::MinWise | LshFamilyKind::ApproxMinWise) {
            assert!(
                speedup >= 5.0,
                "{}: fused kernels must be ≥5x the per-function compiled loop, got {speedup:.1}x",
                kind.name()
            );
        }
        fused_us.push((kind, per_query_us));
        let sep = if first { "" } else { ",\n" };
        first = false;
        json.push_str(&format!(
            "{sep}    \"{}\": {{\"fused_us_per_query\": {per_query_us:.3}, \"speedup_vs_per_function\": {speedup:.2}}}",
            kind.name()
        ));
    }
    json.push_str("\n  },\n");
    // The linear family has no per-function baseline to beat (both loops
    // run the Euclidean closed form), so its floor is relative to the
    // cheapest family: one range-min per interval per function must stay
    // within 6× a fused approx. min-wise evaluation.
    let us_of = |k| fused_us.iter().find(|&&(kind, _)| kind == k).unwrap().1;
    let ratio = us_of(LshFamilyKind::Linear) / us_of(LshFamilyKind::ApproxMinWise);
    println!("fused linear / fused approx. min-wise: {ratio:.2}x");
    assert!(
        ratio <= 6.0,
        "fused linear must cost ≤6x fused approx. min-wise per query, got {ratio:.1}x"
    );
}

/// Worker counts for the concurrent scaling sweep; override with
/// `ARS_ENGINE_WORKERS=1,2,4,8`. One worker is always measured: the
/// overhead floor is asserted against it. CI uploads the sweep so
/// measured scaling at each runner's core count accumulates toward the
/// ROADMAP ≥8×-on-16-cores target.
fn sweep_workers() -> Vec<usize> {
    let mut workers: Vec<usize> = std::env::var("ARS_ENGINE_WORKERS")
        .map(|s| {
            s.split(',')
                .filter_map(|w| w.trim().parse().ok())
                .filter(|&w| w >= 1)
                .collect()
        })
        .unwrap_or_else(|_| vec![1, 2, 4]);
    if !workers.contains(&1) {
        workers.insert(0, 1);
    }
    workers
}

fn engine_section(json: &mut String) {
    const N_PEERS: usize = 1_024;
    const N_QUERIES: usize = 4_000;
    const SHARDS: usize = 16;
    let config = SystemConfig::default().with_seed(42); // paper k=20, l=5
    let queries: Vec<RangeSet> = zipf_trace(N_QUERIES, 0, 40_000, 64, 1.1, 300, 23)
        .queries()
        .to_vec();

    // Equivalence before speed: the concurrent engine is
    // schedule-invariant — the inline reference, the single-worker engine,
    // and a multi-worker engine all produce identical outcomes; vs the
    // sequential loop only `hops` (whose origins come from per-shard RNG
    // streams) may differ.
    let pristine = RangeSelectNetwork::new(N_PEERS, config);
    let mut seq = pristine.clone();
    let out_seq: Vec<_> = queries.iter().map(|q| seq.query(q)).collect();
    let out_ref = {
        let mut net = pristine.clone();
        net.query_trace_sharded(&queries, SHARDS)
    };
    for workers in [1usize, 4] {
        let mut net = pristine.clone();
        let opts = EngineOptions {
            shards: SHARDS,
            workers,
            queue: 1024,
        };
        let out = net.query_batch_concurrent_with(&queries, opts);
        assert_eq!(
            out_ref, out,
            "concurrent engine diverged at {workers} workers"
        );
    }
    for (a, b) in out_seq.iter().zip(&out_ref) {
        let (mut a, mut b) = (a.clone(), b.clone());
        a.hops.clear();
        b.hops.clear();
        assert_eq!(a, b, "engine diverged from sequential beyond hops");
    }

    // Throughput: each sample replays the whole trace on a clone of the
    // pristine network, so cold identifier caches and first-time
    // placements are always paid.
    let qps = |label: &str, run: &mut dyn FnMut(&mut RangeSelectNetwork)| {
        let secs = median_secs(|| {
            let mut net = pristine.clone();
            run(&mut net);
        });
        let qps = N_QUERIES as f64 / secs;
        println!("engine {label:<16} {qps:>12.0} q/s");
        qps
    };
    let seq_qps = qps("sequential", &mut |net| {
        for q in &queries {
            std::hint::black_box(net.query(q));
        }
    });
    // The concurrent engine: worker sweep at a fixed shard count.
    let workers_sweep = sweep_workers();
    let mut sweep_json = String::new();
    let mut conc_qps = Vec::new();
    for &workers in &workers_sweep {
        let w_qps = qps(&format!("concurrent_w{workers}"), &mut |net| {
            let opts = EngineOptions {
                shards: SHARDS,
                workers,
                queue: 1024,
            };
            std::hint::black_box(net.query_batch_concurrent_with(&queries, opts));
        });
        conc_qps.push((workers, w_qps));
        sweep_json.push_str(&format!(
            "{}\"workers_{workers}\": {w_qps:.0}",
            if sweep_json.is_empty() { "" } else { ", " }
        ));
    }

    let best_conc_qps = conc_qps.iter().map(|&(_, q)| q).fold(0f64, f64::max);
    let conc_vs_seq = best_conc_qps / seq_qps;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("engine concurrent vs sequential {conc_vs_seq:.2}x at {cores} cores");
    // The engine's fixed overhead (channel, locks, scheduler) measured
    // against the path it must eventually beat: one worker may cost at
    // most ~3× the sequential loop per query. The lowest recorded ratio
    // on a 2-core box is 0.44×.
    let one_vs_seq = conc_qps.iter().find(|&&(w, _)| w == 1).unwrap().1 / seq_qps;
    println!("engine 1 worker vs sequential {one_vs_seq:.2}x");
    assert!(
        one_vs_seq >= 0.35,
        "1-worker engine must be ≥0.35x sequential, got {one_vs_seq:.2}x"
    );
    // The headline floor: ≥2× sequential on ≥4 cores. Gated on available
    // parallelism — commit concurrency cannot manifest on a 1-core
    // runner; the JSON records the measured scaling either way.
    let scaling_gated = cores < 4;
    if !scaling_gated {
        assert!(
            conc_vs_seq >= 2.0,
            "concurrent engine must be ≥2x sequential on {cores} cores, got {conc_vs_seq:.2}x"
        );
    }
    json.push_str(&format!(
        "  \"engine\": {{\n    \"peers\": {N_PEERS}, \"queries\": {N_QUERIES}, \"shards\": {SHARDS},\n    \"sequential_qps\": {seq_qps:.0},\n    \"concurrent_qps\": {{{sweep_json}}},\n    \"one_worker_vs_sequential\": {one_vs_seq:.2},\n    \"concurrent_vs_sequential\": {conc_vs_seq:.2},\n    \"available_cores\": {cores},\n    \"scaling_assert_gated\": {scaling_gated}\n  }},\n"
    ));
}

fn route_cache_section(json: &mut String) {
    const N_PEERS: usize = 32;
    const N_QUERIES: usize = 800;
    json.push_str("  \"route_cache\": {\n");
    let mut first = true;
    for s in [0.8f64, 1.1, 1.4] {
        // Narrow widths make hot ranges repeat *exactly*, which is what
        // route memoization (keyed by origin and placed identifier) can
        // exploit; origins are still drawn at random per query, so hit
        // rates stay well below the per-range repeat rate.
        let queries: Vec<RangeSet> = zipf_trace(N_QUERIES, 0, 40_000, 8, s, 4, 31)
            .queries()
            .to_vec();
        let base = SystemConfig::default().with_seed(61);
        let mut plain = ChurnNetwork::new(N_PEERS, base.clone()).expect("growth converges");
        let mut cached =
            ChurnNetwork::new(N_PEERS, base.with_route_cache(4_096)).expect("growth converges");
        let mut hops = [0u64; 2];
        for (i, q) in queries.iter().enumerate() {
            if i % 199 == 13 {
                // A trickle of churn: the cache must keep earning its hit
                // rate through invalidation storms.
                plain.fail_random(1);
                cached.fail_random(1);
                plain.stabilize(64).expect("recovers");
                cached.stabilize(64).expect("recovers");
            }
            let a = plain.query(q).expect("stabilized network answers");
            let b = cached.query(q).expect("stabilized network answers");
            assert_eq!(a.best_match, b.best_match, "cache changed an answer");
            hops[0] += a.hops.iter().sum::<usize>() as u64;
            hops[1] += b.hops.iter().sum::<usize>() as u64;
        }
        let stats = cached.route_cache_stats();
        let hit_rate = stats.hits as f64 / (stats.hits + stats.misses) as f64;
        let mean = |h: u64| h as f64 / (N_QUERIES * 5) as f64;
        let reduction = 1.0 - mean(hops[1]) / mean(hops[0]);
        println!(
            "route_cache skew {s:.1}  hit rate {:>5.1}%  mean hops {:.2} -> {:.2} ({:.0}% fewer)",
            hit_rate * 100.0,
            mean(hops[0]),
            mean(hops[1]),
            reduction * 100.0
        );
        assert!(stats.hits > 0, "skew {s}: route cache never hit");
        assert!(
            hops[1] <= hops[0],
            "skew {s}: route cache increased total hops"
        );
        let sep = if first { "" } else { ",\n" };
        first = false;
        json.push_str(&format!(
            "{sep}    \"skew_{s:.1}\": {{\"hit_rate\": {hit_rate:.4}, \"mean_hops_uncached\": {:.3}, \"mean_hops_cached\": {:.3}, \"hop_reduction\": {reduction:.4}}}",
            mean(hops[0]),
            mean(hops[1])
        ));
    }
    json.push_str("\n  }\n");
}

fn main() {
    let mut json = String::from("{\n  \"benchmark\": \"throughput\",\n");
    fused_section(&mut json);
    engine_section(&mut json);
    route_cache_section(&mut json);
    json.push('}');
    json.push('\n');
    let path = ars_bench::experiments::repo_root().join("BENCH_throughput.json");
    std::fs::write(&path, &json).expect("write BENCH_throughput.json");
    println!("\nwrote {}", path.display());
}
