//! Fused structure-of-arrays evaluation of one hash group (DESIGN.md §6b).
//!
//! [`crate::HashGroups::identifiers`] needs the XOR of `k` min-hashes per
//! group. Evaluated function-by-function, every function re-walks the
//! query's interval decomposition and — for the bit-shuffle families —
//! re-enumerates every value of every narrow interval through its byte
//! tables (`≈ 4·width` lookups per function). [`CompiledGroup`] turns the
//! loop inside out: the decomposition is walked **once**, and for each
//! piece of it all `k` functions are advanced while the piece is hot in
//! cache.
//!
//! The bit families get an additional algorithmic win. A bit-position
//! permutation maps the low input byte and the high three input bytes to
//! *disjoint* output bit positions, so over a 256-aligned segment
//! `{base | b : b ∈ [b0, b1]}` (constant high bytes):
//!
//! ```text
//! min π(base | b) = π(base) | min t0[b]      (t0 = low-byte table)
//! ```
//!
//! and `min t0[b]` over any byte range is O(1) via a precomputed sparse
//! range-minimum table (9 levels × 256 entries per function). An interval
//! of any width ≤ [`FUSED_SEGMENT_MAX`]·256 therefore costs a handful of
//! table lookups per function instead of `4·width` — and wider intervals
//! fall back to the `O(32²)` greedy descent kernel, which is cheaper than
//! walking that many segments. Both paths are exact, so fused identifiers
//! are bit-identical to [`crate::HashGroups::identifiers_reference`]
//! (property-tested in `tests/property_invariants.rs`).
//!
//! The linear families already evaluate per interval in closed form; the
//! fused layout batches the `k` closed forms per interval and shares the
//! decomposition walk.

use crate::family::CompiledLshFunction;
use crate::grp::BitPerm;
use crate::linear::LinearPerm;
use crate::range::RangeSet;
use crate::rangeaware::RangeAwareBitPerm;

/// Groups up to this many functions evaluate with a stack-allocated
/// scratch buffer — the steady-state query path performs zero heap
/// allocations (the paper's `k = 20` is well inside). Larger groups still
/// work; they spill the scratch to the heap.
pub const FUSED_MAX_K: usize = 64;

/// Intervals spanning at most this many 256-aligned segments run the
/// fused segment walk (O(1) per segment per function); wider ones use the
/// `O(32²)` greedy-descent kernel instead. Both are exact, so the
/// threshold affects cost only, never values.
pub const FUSED_SEGMENT_MAX: u32 = 64;

/// One bit-shuffle function laid out for fused segment evaluation.
#[derive(Debug, Clone)]
struct FusedBitFn {
    /// Byte-table evaluator (shared with the per-function compiled path).
    tables: BitPerm,
    /// Greedy-descent evaluator for intervals too wide to walk by segment.
    kernel: RangeAwareBitPerm,
    /// Sparse range-minimum table over the low-byte table:
    /// `low_min[j][i] = min tables.permute(b) for b in [i, i + 2^j)`.
    low_min: Box<[[u32; 256]; 9]>,
}

impl FusedBitFn {
    fn build(tables: &BitPerm, kernel: &RangeAwareBitPerm) -> FusedBitFn {
        let mut low_min = Box::new([[0u32; 256]; 9]);
        for b in 0..256usize {
            // For b < 256 the three high-byte tables contribute nothing,
            // so permute(b) *is* the low-byte table entry t0[b].
            low_min[0][b] = tables.permute(b as u32);
        }
        for j in 1..9 {
            let half = 1usize << (j - 1);
            for i in 0..256usize {
                low_min[j][i] = if i + half < 256 {
                    low_min[j - 1][i].min(low_min[j - 1][i + half])
                } else {
                    low_min[j - 1][i]
                };
            }
        }
        FusedBitFn {
            tables: tables.clone(),
            kernel: kernel.clone(),
            low_min,
        }
    }

    /// `min t0[b] for b in [b0, b1]` (inclusive), O(1).
    #[inline]
    fn low_range_min(&self, b0: usize, b1: usize) -> u32 {
        debug_assert!(b0 <= b1 && b1 < 256);
        let len = b1 - b0 + 1;
        let j = (usize::BITS - 1 - len.leading_zeros()) as usize;
        self.low_min[j][b0].min(self.low_min[j][b1 + 1 - (1usize << j)])
    }
}

/// The `k` functions of one group, fused (see module docs).
#[derive(Debug, Clone)]
enum FusedFns {
    /// Bit-shuffle families: segment walk over shared decomposition.
    Bit(Vec<FusedBitFn>),
    /// Linear families: batched closed forms over shared decomposition.
    Linear(Vec<LinearPerm>),
    /// Mixed-family groups (never produced by
    /// [`crate::HashGroups::generate`]): per-function evaluation.
    Mixed(Vec<CompiledLshFunction>),
}

/// One hash group compiled structure-of-arrays for single-pass
/// evaluation. Built by [`CompiledGroup::new`] from the group's compiled
/// functions; [`CompiledGroup::identifier`] is bit-identical to XORing
/// the functions' individual min-hashes.
#[derive(Debug, Clone)]
pub struct CompiledGroup {
    fns: FusedFns,
}

impl CompiledGroup {
    /// Fuse a group of compiled functions. Homogeneous groups (all
    /// bit-shuffle or all linear — the only kind
    /// [`crate::HashGroups::generate`] produces) get the fused fast
    /// paths; a mixed group falls back to per-function evaluation.
    ///
    /// # Panics
    /// Panics if the group is empty.
    pub fn new(group: &[CompiledLshFunction]) -> CompiledGroup {
        assert!(!group.is_empty(), "cannot fuse an empty group");
        let all_bit = group
            .iter()
            .all(|f| matches!(f, CompiledLshFunction::Bit { .. }));
        let all_linear = group
            .iter()
            .all(|f| matches!(f, CompiledLshFunction::Linear(_)));
        let fns = if all_bit {
            FusedFns::Bit(
                group
                    .iter()
                    .map(|f| match f {
                        CompiledLshFunction::Bit { tables, kernel } => {
                            FusedBitFn::build(tables, kernel)
                        }
                        CompiledLshFunction::Linear(_) => unreachable!(),
                    })
                    .collect(),
            )
        } else if all_linear {
            FusedFns::Linear(
                group
                    .iter()
                    .map(|f| match f {
                        CompiledLshFunction::Linear(p) => *p,
                        CompiledLshFunction::Bit { .. } => unreachable!(),
                    })
                    .collect(),
            )
        } else {
            FusedFns::Mixed(group.to_vec())
        };
        CompiledGroup { fns }
    }

    /// Number of functions in the group (`k`).
    pub fn k(&self) -> usize {
        match &self.fns {
            FusedFns::Bit(v) => v.len(),
            FusedFns::Linear(v) => v.len(),
            FusedFns::Mixed(v) => v.len(),
        }
    }

    /// The group identifier of `q`: XOR of the `k` min-hashes, computed
    /// in a single pass over `q`'s interval decomposition. Bit-identical
    /// to the per-function evaluation.
    ///
    /// # Panics
    /// Panics if `q` is empty.
    pub fn identifier(&self, q: &RangeSet) -> u32 {
        assert!(!q.is_empty(), "identifier of an empty range set");
        let k = self.k();
        if k <= FUSED_MAX_K {
            let mut mins = [u32::MAX; FUSED_MAX_K];
            self.mins_into(q, &mut mins[..k]);
            mins[..k].iter().fold(0u32, |acc, &m| acc ^ m)
        } else {
            let mut mins = vec![u32::MAX; k];
            self.mins_into(q, &mut mins);
            mins.iter().fold(0u32, |acc, &m| acc ^ m)
        }
    }

    /// The per-function min-hash vector of `q` — the `k` coordinates whose
    /// XOR is [`CompiledGroup::identifier`]. Multi-probe candidate
    /// generation ([`crate::probe`]) compares these vectors across
    /// perturbed evaluations of the same range to find the least-stable
    /// coordinates.
    ///
    /// # Panics
    /// Panics if `q` is empty.
    pub fn mins(&self, q: &RangeSet) -> Vec<u32> {
        assert!(!q.is_empty(), "min-hashes of an empty range set");
        let mut mins = vec![u32::MAX; self.k()];
        self.mins_into(q, &mut mins);
        mins
    }

    /// Advance `mins[f] = min(mins[f], min-hash of fn f over q)` for all
    /// functions, walking the decomposition once.
    fn mins_into(&self, q: &RangeSet, mins: &mut [u32]) {
        match &self.fns {
            FusedFns::Bit(fns) => {
                for &(lo, hi) in q.intervals() {
                    let (seg_lo, seg_hi) = (lo >> 8, hi >> 8);
                    if seg_hi - seg_lo >= FUSED_SEGMENT_MAX {
                        for (f, m) in fns.iter().zip(mins.iter_mut()) {
                            *m = (*m).min(f.kernel.min_interval(lo, hi));
                        }
                        continue;
                    }
                    for seg in seg_lo..=seg_hi {
                        let base = seg << 8;
                        let b0 = if seg == seg_lo {
                            (lo & 0xFF) as usize
                        } else {
                            0
                        };
                        let b1 = if seg == seg_hi {
                            (hi & 0xFF) as usize
                        } else {
                            255
                        };
                        for (f, m) in fns.iter().zip(mins.iter_mut()) {
                            // permute(base) carries the high-byte
                            // contribution; the low byte's minimum over
                            // [b0, b1] ORs into disjoint bit positions.
                            let upper = f.tables.permute(base);
                            *m = (*m).min(upper | f.low_range_min(b0, b1));
                        }
                    }
                }
            }
            FusedFns::Linear(fns) => {
                for &(lo, hi) in q.intervals() {
                    for (p, m) in fns.iter().zip(mins.iter_mut()) {
                        *m = (*m).min(p.min_interval(lo, hi));
                    }
                }
            }
            FusedFns::Mixed(fns) => {
                for (f, m) in fns.iter().zip(mins.iter_mut()) {
                    *m = (*m).min(f.min_hash(q));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{LshFamilyKind, LshFunction};
    use ars_common::DetRng;

    fn compiled_group(kind: LshFamilyKind, k: usize, seed: u64) -> Vec<CompiledLshFunction> {
        let mut rng = DetRng::new(seed);
        (0..k)
            .map(|_| LshFunction::random(kind, &mut rng).compile())
            .collect()
    }

    fn reference(group: &[CompiledLshFunction], q: &RangeSet) -> u32 {
        group.iter().fold(0u32, |acc, f| acc ^ f.min_hash(q))
    }

    fn queries() -> Vec<RangeSet> {
        vec![
            RangeSet::interval(0, 0),
            RangeSet::interval(30, 50),
            RangeSet::interval(250, 260),   // crosses a segment edge
            RangeSet::interval(0, 255),     // exactly one segment
            RangeSet::interval(256, 511),   // aligned segment
            RangeSet::interval(100, 5_000), // many segments
            RangeSet::interval(0, 100_000), // kernel fallback
            RangeSet::from_intervals([(10, 40), (1_000, 3_000), (50_000, 50_005)]),
            RangeSet::from_intervals([(0, 16_383), (20_000, 90_000)]),
            RangeSet::interval(u32::MAX - 10, u32::MAX),
        ]
    }

    #[test]
    fn fused_matches_per_function_all_families() {
        for kind in [
            LshFamilyKind::MinWise,
            LshFamilyKind::ApproxMinWise,
            LshFamilyKind::Linear,
            LshFamilyKind::LinearClosedForm,
            LshFamilyKind::LinearDomain,
        ] {
            let group = compiled_group(kind, 8, 11);
            let fused = CompiledGroup::new(&group);
            assert_eq!(fused.k(), 8);
            for q in queries() {
                assert_eq!(
                    fused.identifier(&q),
                    reference(&group, &q),
                    "kind {kind} query {q}"
                );
            }
        }
    }

    #[test]
    fn oversized_group_spills_but_stays_exact() {
        let group = compiled_group(LshFamilyKind::ApproxMinWise, FUSED_MAX_K + 7, 3);
        let fused = CompiledGroup::new(&group);
        for q in queries() {
            assert_eq!(fused.identifier(&q), reference(&group, &q));
        }
    }

    #[test]
    fn mixed_group_falls_back_per_function() {
        let mut group = compiled_group(LshFamilyKind::MinWise, 3, 5);
        group.extend(compiled_group(LshFamilyKind::Linear, 3, 6));
        let fused = CompiledGroup::new(&group);
        for q in queries() {
            assert_eq!(fused.identifier(&q), reference(&group, &q));
        }
    }

    #[test]
    fn low_range_min_matches_brute_force() {
        let group = compiled_group(LshFamilyKind::MinWise, 1, 9);
        let CompiledLshFunction::Bit { tables, kernel } = &group[0] else {
            panic!("minwise compiles to Bit");
        };
        let f = FusedBitFn::build(tables, kernel);
        for (b0, b1) in [
            (0usize, 0usize),
            (0, 255),
            (7, 7),
            (3, 200),
            (128, 255),
            (17, 18),
        ] {
            let brute = (b0..=b1).map(|b| tables.permute(b as u32)).min().unwrap();
            assert_eq!(f.low_range_min(b0, b1), brute, "[{b0},{b1}]");
        }
    }

    #[test]
    #[should_panic(expected = "empty group")]
    fn empty_group_rejected() {
        CompiledGroup::new(&[]);
    }

    #[test]
    #[should_panic(expected = "empty range set")]
    fn empty_query_rejected() {
        let group = compiled_group(LshFamilyKind::Linear, 2, 1);
        CompiledGroup::new(&group).identifier(&RangeSet::empty());
    }
}
