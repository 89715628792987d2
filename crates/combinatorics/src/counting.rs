//! Capped counting and unranking for **constrained** canonical spaces.
//!
//! [`crate::enumerate_canonical`] walks the valid partitions of a
//! [`GeneralInstance`] — those whose blocks admit a system of distinct
//! representatives (SDR) — in lexicographic RGS order. For *unconstrained*
//! instances (every hole sees every variable) the space is plain
//! `Rgs(n, k)` and closed forms exist ([`crate::partitions_at_most`],
//! [`crate::rgs_unrank`]). This module supplies the same two operations —
//! count and unrank — for arbitrary visibility constraints, which is what
//! lets shards of a constrained canonical space jump straight to their
//! emission boundary without materializing any solution list.
//!
//! The engine is a memoized DP over RGS prefixes (`DESIGN.md §8`): a
//! prefix is summarized by `(position, multiset of block masks)`, where a
//! block's mask is the intersection of its member holes' allowed sets.
//! Two facts make this exact:
//!
//! 1. the number of valid completions of a prefix depends only on that
//!    summary (future holes see fixed masks, and blocks are
//!    interchangeable up to their masks), so states merge; and
//! 2. block masks only shrink and blocks are only added as a prefix
//!    grows, so an SDR failure at a prefix is *hereditary* — no
//!    completion can restore it — letting the DP close those subtrees
//!    with an exact count of zero (the SDR-pruning lemma).
//!
//! Counts saturate at a cap chosen by the caller: a state stops summing
//! its children once its sum reaches the cap, so the DP expands only
//! what a caller that needs at most `cap` solutions can reach.

use crate::canonical::has_sdr;
use crate::instance::GeneralInstance;
use std::collections::HashMap;

/// Capped counting and unranking over the *constrained* canonical space
/// of a [`GeneralInstance`]: the valid partitions of its holes in
/// lexicographic RGS order — the same sequence
/// [`crate::enumerate_canonical`] visits.
///
/// Every count is `min(exact, cap)`: exact below the cap given to
/// [`new`](Self::new), and equal to it once the exact count reaches it.
/// Every rank below [`total`](Self::total) unranks exactly. One value
/// owns the memoized prefix-count DP; every operation reuses (and grows)
/// that cache, so interleaving [`total`](Self::total) and
/// [`unrank`](Self::unrank) calls is cheap. On unconstrained instances
/// the results coincide with the closed forms
/// ([`crate::partitions_at_most`], [`crate::rgs_unrank`]), which the
/// unit tests assert.
///
/// # Examples
///
/// ```
/// use spe_combinatorics::{canonical_solutions, ConstrainedRgs, GeneralInstance};
///
/// // Holes 0 and 1 see only variable 0; hole 2 sees both variables.
/// // Any partition separating holes 0 and 1 leaves two blocks that both
/// // need variable 0, so only 000 and 001 are valid.
/// let inst = GeneralInstance {
///     allowed: vec![vec![0], vec![0], vec![0, 1]],
///     num_vars: 2,
/// };
/// let mut space = ConstrainedRgs::new(&inst, u64::MAX);
/// assert_eq!(space.total(), 2);
/// assert_eq!(space.unrank(1), vec![0, 0, 1]);
/// // The ranks follow exactly the enumerator's sequence.
/// let all: Vec<_> = (0..2).map(|i| space.unrank(i)).collect();
/// assert_eq!(all, canonical_solutions(&inst, usize::MAX).0);
/// // A cap below the exact count saturates it.
/// assert_eq!(ConstrainedRgs::new(&inst, 1).total(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ConstrainedRgs<'a> {
    inst: &'a GeneralInstance,
    /// `masks[i]` — allowed-variable bitmask of hole `i`.
    masks: Vec<u128>,
    /// Where counts saturate.
    cap: u64,
    /// DP cache, one map per prefix length: `memo[pos][sorted masks]`.
    memo: Vec<HashMap<Vec<u128>, u64>>,
    /// Number of memoized states across all positions.
    states: usize,
    /// Total space size, filled on first use.
    cached_total: Option<u64>,
}

impl<'a> ConstrainedRgs<'a> {
    /// Creates the counter and unranker for an instance, with counts
    /// saturating at `cap`. A caller that needs ranks below `c` passes
    /// at least `c`; with `u64::MAX` every count below `u64::MAX` is exact.
    ///
    /// # Panics
    ///
    /// Panics if the instance uses variable ids `>= 128` (the mask
    /// width); SPE type groups within the paper's 10K-variant budget are
    /// far smaller.
    pub fn new(inst: &'a GeneralInstance, cap: u64) -> ConstrainedRgs<'a> {
        let masks = (0..inst.num_holes()).map(|i| inst.mask(i)).collect();
        ConstrainedRgs {
            inst,
            masks,
            cap,
            memo: vec![HashMap::new(); inst.num_holes() + 1],
            states: 0,
            cached_total: None,
        }
    }

    /// [`total`](Self::total) with a hard ceiling on DP work: returns
    /// `None` (leaving the cache intact for a later retry or a coarser
    /// strategy) once more than `max_states` prefix summaries would be
    /// memoized. The number of summaries — the DP's true cost — grows
    /// with the distinct block-mask multisets the constraint structure
    /// can produce, up to where the cap stops the expansion. A `Some`
    /// result guarantees that *every* later [`unrank`](Self::unrank)
    /// call on this value stays within the same state bound: unranking
    /// reads only states the count already memoized (`DESIGN.md §8`).
    /// This is the gate test sharded enumeration runs before committing
    /// to the shard-native path.
    ///
    /// ```
    /// use spe_combinatorics::{ConstrainedRgs, FlatInstance};
    ///
    /// let inst = FlatInstance::unscoped(8, 4).to_general();
    /// let mut space = ConstrainedRgs::new(&inst, u64::MAX);
    /// assert_eq!(space.try_total_within(10_000), Some(2795));
    /// assert!(ConstrainedRgs::new(&inst, u64::MAX).try_total_within(2).is_none());
    /// // A small cap needs only a few states.
    /// assert_eq!(ConstrainedRgs::new(&inst, 10).try_total_within(20), Some(10));
    /// ```
    pub fn try_total_within(&mut self, max_states: usize) -> Option<u64> {
        if let Some(t) = self.cached_total {
            return Some(t);
        }
        let t = self.completions_within(0, &mut Vec::new(), max_states)?;
        self.cached_total = Some(t);
        Some(t)
    }

    /// Number of valid partitions of the instance, capped — the
    /// constrained generalization of [`crate::partitions_at_most`]`(n, k)`.
    ///
    /// ```
    /// use spe_combinatorics::{partitions_at_most, ConstrainedRgs, FlatInstance};
    ///
    /// // Unconstrained: the closed form.
    /// let free = FlatInstance::unscoped(6, 3).to_general();
    /// assert_eq!(
    ///     partitions_at_most(6, 3).to_u64(),
    ///     Some(ConstrainedRgs::new(&free, u64::MAX).total())
    /// );
    /// ```
    pub fn total(&mut self) -> u64 {
        self.try_total_within(usize::MAX)
            .expect("unlimited DP cannot bail")
    }

    /// Returns the solution of the given lexicographic rank, walking the
    /// index down the DP's cumulative digit weights in O(n·k) memoized
    /// lookups — no earlier solution is generated.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.total()`.
    ///
    /// ```
    /// use spe_combinatorics::{canonical_solutions, ConstrainedRgs, FlatInstance, FlatScope};
    ///
    /// // Figure 7 of the paper: a constrained two-scope instance.
    /// let inst = FlatInstance::new(vec![0, 1, 4], 2, vec![FlatScope { holes: vec![2, 3], vars: 2 }])
    ///     .to_general();
    /// let serial = canonical_solutions(&inst, usize::MAX).0;
    /// let mut space = ConstrainedRgs::new(&inst, 21);
    /// for (i, rgs) in serial.iter().take(21).enumerate() {
    ///     assert_eq!(&space.unrank(i as u64), rgs);
    /// }
    /// ```
    pub fn unrank(&mut self, index: u64) -> Vec<usize> {
        assert!(
            index < self.total(),
            "index out of range for the constrained space"
        );
        let n = self.inst.num_holes();
        let mut idx = index;
        let mut blocks: Vec<u128> = Vec::new();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let mut placed = false;
            for d in 0..=blocks.len() {
                let saved = match self.extend(&mut blocks, d, i) {
                    None => continue,
                    Some(saved) => saved,
                };
                let w = self.completions(i + 1, &mut blocks);
                if idx < w {
                    out.push(d);
                    placed = true;
                    break;
                }
                idx -= w;
                Self::retract(&mut blocks, d, saved);
            }
            assert!(placed, "index out of range at position {i}");
        }
        out
    }

    /// Applies digit `d` for hole `i` to the block stack. Returns the
    /// replaced mask (`Some(previous)` for a join, `Some(0)` for a newly
    /// opened block) or `None` when the move is infeasible (empty merge,
    /// or no block left to open).
    fn extend(&self, blocks: &mut Vec<u128>, d: usize, i: usize) -> Option<u128> {
        if d < blocks.len() {
            let merged = blocks[d] & self.masks[i];
            if merged == 0 {
                return None;
            }
            let saved = blocks[d];
            blocks[d] = merged;
            Some(saved)
        } else if d == blocks.len() && d < self.inst.num_vars {
            blocks.push(self.masks[i]);
            Some(0)
        } else {
            None
        }
    }

    /// Undoes [`extend`](Self::extend).
    fn retract(blocks: &mut Vec<u128>, d: usize, saved: u128) {
        if saved == 0 && d + 1 == blocks.len() {
            blocks.pop();
        } else {
            blocks[d] = saved;
        }
    }

    /// The DP: the capped number of valid completions of a prefix
    /// summarized by its position and block-mask stack. `blocks` is
    /// restored before returning. Memoized per position on the *sorted*
    /// mask vector — see the module docs for why the summary is sound.
    fn completions(&mut self, pos: usize, blocks: &mut Vec<u128>) -> u64 {
        self.completions_within(pos, blocks, usize::MAX)
            .expect("unlimited DP cannot bail")
    }

    /// [`completions`](Self::completions), bailing with `None` once the
    /// memo would exceed `max_states` entries. Already-cached states are
    /// always answered.
    fn completions_within(
        &mut self,
        pos: usize,
        blocks: &mut Vec<u128>,
        max_states: usize,
    ) -> Option<u64> {
        let mut key: Vec<u128> = blocks.clone();
        key.sort_unstable();
        if let Some(&hit) = self.memo[pos].get(&key) {
            return Some(hit);
        }
        if self.states >= max_states {
            return None;
        }
        let value = if blocks.contains(&0) || !has_sdr(blocks) {
            // SDR-pruning lemma: masks only shrink, so the failure is
            // hereditary and the whole subtree is invalid.
            0
        } else if pos == self.inst.num_holes() {
            self.cap.min(1)
        } else {
            let mut sum = 0u64;
            // Children past the one that brings the sum to the cap are
            // never expanded: no rank below the cap reaches them.
            for d in 0..=blocks.len() {
                if sum == self.cap {
                    break;
                }
                if let Some(saved) = self.extend(blocks, d, pos) {
                    let child = self.completions_within(pos + 1, blocks, max_states);
                    Self::retract(blocks, d, saved);
                    sum = sum.saturating_add(child?).min(self.cap);
                }
            }
            sum
        };
        self.states += 1;
        self.memo[pos].insert(key, value);
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{FlatInstance, FlatScope};
    use crate::{canonical_solutions, partitions_at_most, rgs_unrank};

    fn fig7() -> GeneralInstance {
        FlatInstance::new(
            vec![0, 1, 4],
            2,
            vec![FlatScope {
                holes: vec![2, 3],
                vars: 2,
            }],
        )
        .to_general()
    }

    fn two_pools() -> GeneralInstance {
        // Two type-disjoint pools plus one bridging hole.
        GeneralInstance {
            allowed: vec![vec![0, 1], vec![0, 1], vec![2, 3], vec![2, 3], vec![1, 2]],
            num_vars: 4,
        }
    }

    #[test]
    fn count_matches_enumeration_on_constrained_instances() {
        for inst in [fig7(), two_pools()] {
            let serial = canonical_solutions(&inst, usize::MAX).0;
            assert_eq!(
                ConstrainedRgs::new(&inst, u64::MAX).total(),
                serial.len() as u64
            );
        }
    }

    #[test]
    fn count_matches_closed_form_on_unconstrained_instances() {
        for n in 0..8usize {
            for k in 1..5usize {
                let inst = FlatInstance::unscoped(n, k).to_general();
                assert_eq!(
                    partitions_at_most(n as u32, k as u32).to_u64(),
                    Some(ConstrainedRgs::new(&inst, u64::MAX).total()),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn dead_prefixes_weigh_zero() {
        let inst = GeneralInstance {
            allowed: vec![vec![0], vec![0], vec![0, 1]],
            num_vars: 2,
        };
        let mut space = ConstrainedRgs::new(&inst, u64::MAX);
        // Splitting holes 0 and 1 leaves both blocks needing variable 0,
        // so no solution starts with the dead prefix [0, 1].
        assert_eq!(space.total(), 2);
        assert_eq!(space.unrank(0), vec![0, 0, 0]);
        assert_eq!(space.unrank(1), vec![0, 0, 1]);
    }

    #[test]
    fn unrank_inverts_canonical_enumeration() {
        for inst in [fig7(), two_pools()] {
            let serial = canonical_solutions(&inst, usize::MAX).0;
            let mut space = ConstrainedRgs::new(&inst, u64::MAX);
            for (i, rgs) in serial.iter().enumerate() {
                assert_eq!(&space.unrank(i as u64), rgs, "rank {i}");
            }
        }
    }

    #[test]
    fn unrank_matches_rgs_unrank_when_unconstrained() {
        let inst = FlatInstance::unscoped(7, 4).to_general();
        let mut space = ConstrainedRgs::new(&inst, u64::MAX);
        let total = space.total();
        for i in 0..total {
            assert_eq!(space.unrank(i), rgs_unrank(7, 4, i), "rank {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unrank_rejects_out_of_range_indices() {
        let inst = fig7();
        let mut space = ConstrainedRgs::new(&inst, u64::MAX);
        let total = space.total();
        let _ = space.unrank(total);
    }

    #[test]
    fn empty_and_degenerate_instances() {
        // No holes: exactly the empty partition.
        let empty = GeneralInstance {
            allowed: vec![],
            num_vars: 3,
        };
        assert_eq!(ConstrainedRgs::new(&empty, u64::MAX).total(), 1);
        // A hole with an empty allowed set: nothing.
        let dead = GeneralInstance {
            allowed: vec![vec![0], vec![]],
            num_vars: 2,
        };
        assert_eq!(ConstrainedRgs::new(&dead, u64::MAX).total(), 0);
        // No variables at all.
        let no_vars = GeneralInstance {
            allowed: vec![vec![]],
            num_vars: 0,
        };
        assert_eq!(ConstrainedRgs::new(&no_vars, u64::MAX).total(), 0);
    }
}
