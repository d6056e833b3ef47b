//! Pinned golden digests of the default query paths.
//!
//! `PlacementMode::Independent` (the default) must stay bit-identical to
//! the pre-layered-placement query paths: these digests were captured on
//! the commit *before* multi-probe and layered placement landed, over a
//! fixed trace at seeds 0–3, and fold every field of every
//! [`ars_core::QueryOutcome`] plus the final stats and cache counters.
//! Any change to the default path's outcomes — identifiers, routing,
//! matching, caching, stats — moves a digest and fails loudly here.
//!
//! Run with `ARS_PRINT_GOLDENS=1` to print freshly computed digests
//! (the capture procedure; see EXPERIMENTS.md).

use ars_core::config::MatchMeasure;
use ars_core::{RangeSelectNetwork, SystemConfig};
use ars_lsh::{LshFamilyKind, RangeSet};

/// FNV-1a over a byte slice, folded into `h`.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// The fixed golden trace: popular repeats, small jitters around them
/// (the regime LSH placement exists for), and cold singletons.
fn golden_trace() -> Vec<RangeSet> {
    let mut qs = Vec::new();
    for i in 0..60u32 {
        let lo = (i * 53) % 1200;
        qs.push(RangeSet::interval(lo, lo + 20 + (i % 5) * 40));
        if i % 3 == 0 {
            qs.push(RangeSet::interval(400, 520)); // popular repeat
        }
        if i % 4 == 0 {
            // Jittered neighbor of the popular range.
            qs.push(RangeSet::interval(400 + (i % 3), 520 + (i % 2)));
        }
        if i % 7 == 0 {
            qs.push(RangeSet::from_intervals([(30, 90), (2_000, 2_300)]));
        }
    }
    qs
}

/// Digest of the sequential path under `config`: every outcome's full
/// debug rendering, then the final stats and cache counters.
///
/// The digests predate the within-query identifier dedup, whose entire
/// observable effect on the default path is sharper lookup accounting: a
/// duplicate identifier no longer routes, so `hops` drops its entry and
/// `attempts`/`lookups`/`total_hops` shrink by exactly the duplicate's
/// share. Everything else — matching, caching, RNG draws, routing of the
/// first occurrence — must be untouched. We pin that by *reconstructing*
/// the pre-dedup rendering (each duplicate's hop equals its first
/// occurrence's hop, so the reconstruction is exact) and digesting that;
/// any deviation beyond pure dedup cannot reproduce the old digests.
fn digest(config: SystemConfig) -> u64 {
    let mut net = RangeSelectNetwork::new(48, config);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut saved_hops = 0u64;
    let mut saved_lookups = 0u64;
    for q in &golden_trace() {
        let out = net.query(q);
        // Re-expand hops to one entry per identifier (pre-dedup shape):
        // out.hops holds the distinct identifiers' hops in first-
        // appearance order.
        let mut hop_of: Vec<(u32, usize)> = Vec::new();
        {
            let mut it = out.hops.iter();
            for &ident in &out.identifiers {
                if !hop_of.iter().any(|&(i, _)| i == ident) {
                    hop_of.push((ident, *it.next().expect("one hop per distinct identifier")));
                }
            }
            assert!(it.next().is_none(), "more hops than distinct identifiers");
        }
        let full_hops: Vec<usize> = out
            .identifiers
            .iter()
            .map(|ident| hop_of.iter().find(|&&(i, _)| i == *ident).unwrap().1)
            .collect();
        saved_hops += (full_hops.iter().sum::<usize>() - out.hops.iter().sum::<usize>()) as u64;
        saved_lookups += (full_hops.len() - out.hops.len()) as u64;
        fnv(
            &mut h,
            format!(
                "QueryOutcome {{ query: {:?}, best_match: {:?}, similarity: {:?}, \
                 recall: {:?}, exact: {:?}, stored: {:?}, hops: {:?}, \
                 identifiers: {:?}, peers_contacted: {:?}, attempts: {:?}, \
                 fell_back_to_source: {:?}, partition_degraded: {:?} }}",
                out.query,
                out.best_match,
                out.similarity,
                out.recall,
                out.exact,
                out.stored,
                full_hops,
                out.identifiers,
                out.peers_contacted,
                out.identifiers.len(),
                out.fell_back_to_source,
                out.partition_degraded,
            )
            .as_bytes(),
        );
    }
    // The pre-layered `NetworkStats` debug rendering, reproduced field by
    // field: the digests were captured before the layered-placement
    // counters (dedup/walk/probe) existed, and those must all stay zero on
    // the default path anyway — asserted below so the rendering is
    // faithful, not just format-compatible.
    let s = net.stats();
    assert_eq!(
        s.dedup_saved_lookups, saved_lookups,
        "stats book exactly the per-outcome dedup savings"
    );
    assert_eq!(s.walk_steps, 0, "default path never walks successors");
    assert_eq!(s.probe_checks, 0, "default path never multi-probes");
    fnv(
        &mut h,
        format!(
            "NetworkStats {{ queries: {}, matched: {}, exact: {}, stored: {}, \
             lookups: {}, total_hops: {} }}",
            s.queries,
            s.matched,
            s.exact,
            s.stored,
            s.lookups + saved_lookups,
            s.total_hops + saved_hops
        )
        .as_bytes(),
    );
    fnv(&mut h, &net.identifier_cache().hits().to_le_bytes());
    fnv(&mut h, &net.identifier_cache().misses().to_le_bytes());
    fnv(&mut h, &(net.total_partitions() as u64).to_le_bytes());
    h
}

/// Pre-PR digests of the paper-default configuration at seeds 0–3.
const GOLDEN_DEFAULT: [u64; 4] = [
    0x4ad4_ed63_8600_1955,
    0xed24_04cc_8021_3a76,
    0xae65_0031_5d00_5943,
    0xc43e_fd60_44dd_74be,
];

/// Pre-PR digests of the padded + containment configuration (the other
/// commonly benched operating point) at seeds 0–3.
const GOLDEN_PADDED: [u64; 4] = [
    0x4c9e_2175_5ed1_28ef,
    0x3c5d_328b_d817_23cc,
    0x448d_cbf8_5cdf_ad4b,
    0x87c2_b0f9_9383_f71c,
];

#[test]
fn default_config_outcomes_match_pre_layered_goldens() {
    for seed in 0u64..4 {
        let d = digest(SystemConfig::default().with_seed(seed));
        if std::env::var("ARS_PRINT_GOLDENS").is_ok() {
            println!("default seed {seed}: 0x{d:016x}");
            continue;
        }
        assert_eq!(
            d, GOLDEN_DEFAULT[seed as usize],
            "default-path outcomes diverged from the pre-layered goldens at seed {seed}"
        );
    }
}

#[test]
fn padded_containment_outcomes_match_pre_layered_goldens() {
    for seed in 0u64..4 {
        let d = digest(
            SystemConfig::default()
                .with_seed(seed)
                .with_padding(0.2)
                .with_matching(MatchMeasure::Containment)
                .with_ident_cache_capacity(16),
        );
        if std::env::var("ARS_PRINT_GOLDENS").is_ok() {
            println!("padded seed {seed}: 0x{d:016x}");
            continue;
        }
        assert_eq!(
            d, GOLDEN_PADDED[seed as usize],
            "padded-path outcomes diverged from the pre-layered goldens at seed {seed}"
        );
    }
}

/// Digests of the linear family (`π(x) = a·x + b mod p`, hashed through
/// the closed-form range-min) at seeds 0–3, captured before the Euclidean
/// `min_affine_mod` and the one-block SHA-1 path landed: both kernels must
/// stay value-identical.
const GOLDEN_LINEAR: [u64; 4] = [
    0x0ee5_7de3_fa40_7a19,
    0x7082_79fa_8028_e5d8,
    0xa1f9_be26_66b0_6466,
    0x50f6_8936_9726_88ca,
];

#[test]
fn linear_family_outcomes_match_goldens() {
    for seed in 0u64..4 {
        let d = digest(
            SystemConfig::default()
                .with_seed(seed)
                .with_family(LshFamilyKind::Linear),
        );
        if std::env::var("ARS_PRINT_GOLDENS").is_ok() {
            println!("linear seed {seed}: 0x{d:016x}");
            continue;
        }
        assert_eq!(
            d, GOLDEN_LINEAR[seed as usize],
            "linear-family outcomes diverged from the goldens at seed {seed}"
        );
    }
}
