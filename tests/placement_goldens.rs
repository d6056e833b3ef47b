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

use ars_core::config::{MatchMeasure, PlacementMode};
use ars_core::{
    BreakerConfig, ChurnNetwork, DurabilityConfig, HedgePolicy, QueryOutcome, RangeSelectNetwork,
    SystemConfig,
};
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

/// Digest of a finished run: every outcome's full debug rendering, then
/// the final stats, the cache counters and the stored partition count.
/// Unlike [`digest`] it pins the outcomes as they are today, so it also
/// covers layered placement (one arc lookup per query) and the engine.
fn digest_run(net: &RangeSelectNetwork, outcomes: &[QueryOutcome]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for out in outcomes {
        fnv(&mut h, format!("{out:?}").as_bytes());
    }
    fnv(&mut h, format!("{:?}", net.stats()).as_bytes());
    let cache = net.identifier_cache();
    for n in [cache.hits(), cache.misses(), cache.evictions()] {
        fnv(&mut h, &n.to_le_bytes());
    }
    fnv(&mut h, &(net.total_partitions() as u64).to_le_bytes());
    h
}

/// Sequential run of the golden trace under `config`, digested.
fn digest_sequential(config: SystemConfig) -> u64 {
    let mut net = RangeSelectNetwork::new(48, config);
    let outcomes: Vec<QueryOutcome> = golden_trace().iter().map(|q| net.query(q)).collect();
    digest_run(&net, &outcomes)
}

/// Check (or, under `ARS_PRINT_GOLDENS`, print) one digest per seed.
fn check_goldens(name: &str, goldens: &[u64; 4], digest_of: impl Fn(u64) -> u64) {
    for seed in 0u64..4 {
        let d = digest_of(seed);
        if std::env::var("ARS_PRINT_GOLDENS").is_ok() {
            println!("{name} seed {seed}: 0x{d:016x}");
            continue;
        }
        assert_eq!(
            d, goldens[seed as usize],
            "{name} outcomes diverged from the goldens at seed {seed}"
        );
    }
}

/// Layered placement with a 16-probe budget at seeds 0–3, captured before
/// the layered and independent commits were folded into one.
const GOLDEN_LAYERED: [u64; 4] = [
    0x67b8_5242_cfc0_8318,
    0xed06_7096_00a5_f59d,
    0x0ae9_f56f_5948_0492,
    0x0bbe_31ba_2999_adb1,
];

#[test]
fn layered_probe_outcomes_match_goldens() {
    check_goldens("layered", &GOLDEN_LAYERED, |seed| {
        digest_sequential(
            SystemConfig::default()
                .with_seed(seed)
                .with_placement_mode(PlacementMode::Layered)
                .with_probes(16),
        )
    });
}

/// The §5.3 local index (every bucket at a contacted peer is searched) at
/// seeds 0–3, captured before the commits were folded into one.
const GOLDEN_LOCAL_INDEX: [u64; 4] = [
    0x6965_6db2_b4d5_5e5a,
    0x5f68_e71d_f5fe_9b07,
    0xad26_59b0_b78e_2298,
    0x6701_f8bb_3f26_57e0,
];

#[test]
fn local_index_outcomes_match_goldens() {
    check_goldens("local-index", &GOLDEN_LOCAL_INDEX, |seed| {
        digest_sequential(
            SystemConfig::default()
                .with_seed(seed)
                .with_local_index(true),
        )
    });
}

/// The 16-shard engine reference (`query_trace_sharded`) at seeds 0–3,
/// captured before the engine's prepare/commit moved onto the shared plan.
const GOLDEN_SHARDED: [u64; 4] = [
    0xc3f6_6bde_b99e_6a8d,
    0x69fb_3242_e61c_9b35,
    0x5307_d897_1dd3_e081,
    0x8e12_bad7_926a_1f35,
];

#[test]
fn sharded_engine_reference_matches_goldens() {
    check_goldens("sharded", &GOLDEN_SHARDED, |seed| {
        let mut net = RangeSelectNetwork::new(48, SystemConfig::default().with_seed(seed));
        let outcomes = net.query_trace_sharded(&golden_trace(), 16);
        digest_run(&net, &outcomes)
    });
}

/// One churn scenario over the golden trace, digested: every outcome's
/// full debug rendering, then the resilience counters, the storage
/// inventory and the virtual clock. The first third of the trace warms
/// the cache on a calm ring; `fault` then disturbs the network and the
/// rest of the trace runs through `query_resilient`; `after` runs once
/// the trace is done (e.g. a heal) and is followed by a final replay of
/// the warm third.
fn digest_churn(
    config: SystemConfig,
    fault: impl Fn(&mut ChurnNetwork),
    after: impl Fn(&mut ChurnNetwork),
) -> u64 {
    let mut net = ChurnNetwork::new(24, config).expect("growth converges");
    let trace = golden_trace();
    let (warm, rest) = trace.split_at(trace.len() / 3);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut run = |net: &mut ChurnNetwork, qs: &[RangeSet]| {
        for q in qs {
            fnv(&mut h, format!("{:?}", net.query_resilient(q)).as_bytes());
        }
    };
    run(&mut net, warm);
    fault(&mut net);
    run(&mut net, rest);
    after(&mut net);
    run(&mut net, warm);
    fnv(&mut h, format!("{:?}", net.resilience()).as_bytes());
    fnv(&mut h, format!("{:?}", net.inventory()).as_bytes());
    fnv(&mut h, &net.clock().to_le_bytes());
    h
}

/// Churn scenarios at seeds 0–3, captured before `ChurnNetwork::query`
/// was retired and the resilient path moved onto the shared commit tail.
const GOLDEN_CHURN: [(&str, [u64; 4]); 6] = [
    (
        "calm r=1",
        [
            0xdf50_2dec_a975_a806,
            0xecb7_dcbf_5681_139b,
            0xfbcc_fcf4_8336_ba62,
            0x511c_65da_53b5_0957,
        ],
    ),
    (
        "fail+loss r=2",
        [
            0xb512_703e_a4a9_75ec,
            0xf382_d45c_0ad5_cb9f,
            0x785c_e03b_656b_98f4,
            0x5529_3980_d498_82f1,
        ],
    ),
    (
        "partition+heal",
        [
            0x45fa_eac1_6157_9e09,
            0x9446_52f2_5ff6_07bf,
            0x6c58_ad92_339d_cce3,
            0x4e65_6ada_9051_acd8,
        ],
    ),
    (
        "slow+breakers+hedging",
        [
            0x8ae7_4ed7_84c9_ae90,
            0x2a42_34f8_cdbf_df18,
            0x71fb_7e49_6ad5_626a,
            0x4477_35b0_1e75_cd42,
        ],
    ),
    (
        "local-index+padding",
        [
            0xdfd3_7e7c_eb89_47e4,
            0x2c23_0af6_f930_692b,
            0xff35_b722_c5de_557c,
            0x8c8d_3512_2c96_79b1,
        ],
    ),
    (
        "durable crash+restart",
        [
            0x3014_119e_dbfe_aa0d,
            0x8d8a_2aa6_c4dd_1734,
            0xa422_4800_e903_18f2,
            0xe190_17a5_2df2_4275,
        ],
    ),
];

#[test]
fn churn_outcomes_match_goldens() {
    let base = |seed: u64| SystemConfig::default().with_seed(seed);
    let none = |_: &mut ChurnNetwork| {};
    for (name, goldens) in &GOLDEN_CHURN {
        check_goldens(name, goldens, |seed| match *name {
            "calm r=1" => digest_churn(base(seed), none, none),
            "fail+loss r=2" => digest_churn(
                base(seed).with_replication(2),
                |net| {
                    net.fail_random(3);
                    net.set_lookup_loss(0.2);
                },
                none,
            ),
            "partition+heal" => digest_churn(
                base(seed).with_replication(2),
                |net| {
                    let ids = net.chord().node_ids();
                    net.partition(&[ids[6..].to_vec(), ids[..6].to_vec()]);
                    net.stabilize(128);
                },
                |net| {
                    net.heal();
                    net.stabilize(128);
                    net.settle(2);
                },
            ),
            "slow+breakers+hedging" => digest_churn(
                base(seed).with_replication(2),
                |net| {
                    net.enable_breakers(BreakerConfig::default());
                    net.enable_hedging(HedgePolicy::default());
                    for _ in 0..3 {
                        net.probe_peers();
                    }
                    net.slow_fraction(0.2, 10);
                    for _ in 0..2 {
                        net.probe_peers();
                    }
                },
                none,
            ),
            "local-index+padding" => digest_churn(
                base(seed).with_local_index(true).with_padding(0.2),
                none,
                none,
            ),
            "durable crash+restart" => digest_churn(
                base(seed)
                    .with_replication(2)
                    .with_durability(DurabilityConfig::default()),
                |net| {
                    for id in net.crash_random(3) {
                        net.restart(id).expect("crashed peer restarts");
                    }
                },
                |net| {
                    net.repair_until_quiescent(16, 64);
                },
            ),
            other => unreachable!("unknown churn scenario {other}"),
        });
    }
}
