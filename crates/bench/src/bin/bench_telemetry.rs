//! Telemetry-overhead microbenchmark: the cost a no-op sink adds to the
//! query hot path, written to `BENCH_telemetry.json` at the repo root.
//!
//! The instrumented system makes a handful of telemetry calls *per
//! query* (one counter, a few histogram records, an event or span),
//! while each query computes `k × l` min-hashes. This harness times the
//! per-query identifier computation — the min-hash kernel's hot path —
//! and, separately, the per-query telemetry calls against a no-op sink
//! and (for information only) a recording sink. Timing the dispatch
//! directly instead of subtracting two kernel-scale measurements keeps
//! the comparison out of the noise floor: the quantities differ by
//! three orders of magnitude, and a subtraction of two ~10 µs medians
//! would swing by more than the entire effect being measured.
//!
//! Acceptance, asserted in-binary: the no-op sink's per-query dispatch
//! cost is **< 5%** of the per-query kernel cost for every hash family.
//! A regression here means telemetry dispatch grew from branch-on-None
//! to something that could slow the min-hash hot path.
//!
//! Usage: `cargo run --release -p ars-bench --bin bench_telemetry`

use ars_common::DetRng;
use ars_lsh::{HashGroups, LshFamilyKind, RangeSet};
use ars_telemetry::Telemetry;
use std::time::Instant;

const K: usize = 20;
const L: usize = 5;
const SAMPLES: usize = 15;
const MAX_NOOP_OVERHEAD_PCT: f64 = 5.0;

/// Median ns per call of `f`, over [`SAMPLES`] samples with an adaptively
/// calibrated batch size (~1 ms per sample).
fn median_ns(mut f: impl FnMut() -> u32) -> f64 {
    let mut batch: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        if start.elapsed().as_nanos() > 1_000_000 || batch >= 1 << 22 {
            break;
        }
        batch *= 2;
    }
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// One query's worth of kernel work: the `l` group identifiers of `q`.
fn identifiers_checksum(groups: &HashGroups, q: &RangeSet) -> u32 {
    groups.identifiers(q).iter().fold(0, |acc, &id| acc ^ id)
}

/// The per-query telemetry calls `network::commit` makes, against `tel`.
fn per_query_telemetry(tel: &Telemetry, checksum: u32) {
    tel.counter_add("core.queries", 1);
    tel.record("core.lookup.hops", u64::from(checksum % 7));
    tel.record("core.bucket.scan_len", u64::from(checksum % 13));
    tel.record("core.query.jaccard", u64::from(checksum % 1000));
}

struct Row {
    family: &'static str,
    path: &'static str,
    ns: f64,
}

fn main() {
    let mut rng = DetRng::new(29);
    let q = RangeSet::interval(5_000, 5_099);
    let mut rows: Vec<Row> = Vec::new();
    let mut overheads: Vec<(&'static str, f64)> = Vec::new();

    for kind in LshFamilyKind::PAPER_FAMILIES {
        let family = kind.name();
        let groups = HashGroups::generate(kind, K, L, &mut rng);
        let noop = Telemetry::noop();
        let recording = Telemetry::recording();

        let base_ns = median_ns(|| identifiers_checksum(&groups, &q));
        let mut i = 0u32;
        let noop_ns = median_ns(|| {
            i = i.wrapping_add(1);
            per_query_telemetry(&noop, i);
            i
        });
        let rec_ns = median_ns(|| {
            i = i.wrapping_add(1);
            per_query_telemetry(&recording, i);
            i
        });
        // Keep the recording sink's state from growing without bound
        // across calibration batches (histograms are fixed-size, but a
        // real sink would also carry events).
        recording.reset();

        let overhead = noop_ns / base_ns * 100.0;
        for (path, ns) in [
            ("kernel_per_query", base_ns),
            ("noop_dispatch", noop_ns),
            ("recording_dispatch", rec_ns),
        ] {
            println!("{family:<30} {path:<19} {ns:>12.1} ns/query");
            rows.push(Row { family, path, ns });
        }
        println!("{family:<30} noop overhead       {overhead:>11.3} %");
        overheads.push((family, overhead));
    }

    for (family, overhead) in &overheads {
        assert!(
            *overhead < MAX_NOOP_OVERHEAD_PCT,
            "{family}: no-op telemetry dispatch is {overhead:.3}% of the \
             query kernel (budget {MAX_NOOP_OVERHEAD_PCT}%)"
        );
    }

    let mut json = String::from(
        "{\n  \"benchmark\": \"telemetry_overhead\",\n  \"unit\": \"ns_per_query\",\n  \"results\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"family\": \"{}\", \"path\": \"{}\", \"median_ns\": {:.1}}}{sep}\n",
            r.family, r.path, r.ns
        ));
    }
    json.push_str("  ],\n  \"noop_overhead_percent\": {\n");
    for (i, (family, overhead)) in overheads.iter().enumerate() {
        let sep = if i + 1 == overheads.len() { "" } else { "," };
        json.push_str(&format!("    \"{family}\": {overhead:.3}{sep}\n"));
    }
    json.push_str(&format!(
        "  }},\n  \"budget_percent\": {MAX_NOOP_OVERHEAD_PCT:.1}\n}}\n"
    ));

    let path = ars_bench::experiments::repo_root().join("BENCH_telemetry.json");
    std::fs::write(&path, json).expect("write BENCH_telemetry.json");
    println!("\nwrote {}", path.display());
}
