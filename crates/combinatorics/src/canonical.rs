//! Canonical partition enumeration: exactly one representative per *valid
//! partition* of the holes.
//!
//! A partition of the holes is **valid** iff its blocks admit a *system of
//! distinct representatives* (SDR): an injective assignment of a variable
//! to each block such that the variable is allowed in every hole of the
//! block. Validity is exactly the condition under which a partition is
//! realizable as a program, and two fillings with the same partition have
//! identical control- and data-dependence structure (§3.2 of the paper).
//!
//! This enumerator is duplicate-free and exhaustive with respect to
//! partition equivalence; see `DESIGN.md` §2 for how it relates to the
//! paper's algorithm (Example 6: canonical = 35, paper = 36).
//!
//! Counting and unranking the same sequence — without enumerating it —
//! live in [`crate::ConstrainedRgs`]: a memoized, capped DP over RGS
//! prefixes whose pruning is exactly this module's SDR check (`DESIGN.md §8`
//! states the pruning lemma and the DP). [`enumerate_canonical_from`]
//! resumes the walk at an unranked solution, which is what lets a shard
//! of a canonical space start mid-space with nothing before it generated.

use crate::instance::GeneralInstance;
use spe_bignum::BigUint;
use std::ops::ControlFlow;

/// The mask width: variable ids, and with them the blocks of any SDR,
/// number at most 128.
const WIDTH: usize = 128;

/// The empty entry of [`Matching`]'s arrays. Block and variable ids stay
/// below [`WIDTH`], so they fit a `u8` beside it.
const NONE: u8 = u8::MAX;

/// A matching of blocks to variables on fixed [`WIDTH`]-entry arrays:
/// block `b` holds variable `var_of_block[b]` and variable `v` is held by
/// block `block_of_var[v]`, either being [`NONE`] when unmatched. It
/// holds no heap memory, so matching allocates nothing.
struct Matching {
    var_of_block: [u8; WIDTH],
    block_of_var: [u8; WIDTH],
}

impl Matching {
    fn new() -> Matching {
        Matching {
            var_of_block: [NONE; WIDTH],
            block_of_var: [NONE; WIDTH],
        }
    }

    /// Matches the blocks of `masks` from scratch, in index order, or
    /// returns `None` when they admit no SDR. More blocks than
    /// [`WIDTH`] never do: they would need more variables than a mask has.
    fn of(masks: &[u128]) -> Option<Matching> {
        if masks.len() > WIDTH {
            return None;
        }
        let mut m = Matching::new();
        (0..masks.len()).all(|b| m.augment(masks, b)).then_some(m)
    }

    /// One augmenting-path search from the unmatched block `b`. On
    /// failure the matching is left exactly as it was.
    fn augment(&mut self, masks: &[u128], b: usize) -> bool {
        self.search(masks, b, &mut 0)
    }

    fn search(&mut self, masks: &[u128], b: usize, visited: &mut u128) -> bool {
        let mut m = masks[b] & !*visited;
        while m != 0 {
            // Highest set bit first: prefer local variables.
            let v = 127 - m.leading_zeros() as usize;
            m &= !(1u128 << v);
            *visited |= 1u128 << v;
            let holder = self.block_of_var[v];
            if holder == NONE || self.search(masks, holder as usize, visited) {
                self.assign(b, v as u8);
                return true;
            }
        }
        false
    }

    fn assign(&mut self, b: usize, v: u8) {
        self.var_of_block[b] = v;
        self.block_of_var[v as usize] = b as u8;
    }

    /// Unmatches the matched block `b`, freeing its variable.
    fn release(&mut self, b: usize) {
        let v = std::mem::replace(&mut self.var_of_block[b], NONE);
        self.block_of_var[v as usize] = NONE;
    }
}

/// Returns `true` if the block constraint masks admit a system of distinct
/// representatives, via augmenting-path bipartite matching.
///
/// `masks[b]` has bit `v` set iff variable `v` may represent block `b`.
///
/// # Examples
///
/// ```
/// use spe_combinatorics::has_sdr;
/// assert!(has_sdr(&[0b01, 0b10]));
/// assert!(has_sdr(&[0b11, 0b11]));
/// assert!(!has_sdr(&[0b01, 0b01]));
/// assert!(!has_sdr(&[0b0]));
/// ```
pub fn has_sdr(masks: &[u128]) -> bool {
    Matching::of(masks).is_some()
}

/// Computes a system of distinct representatives for the block masks:
/// `result[b]` is the variable representing block `b`. Returns `None` when
/// no SDR exists.
///
/// Candidate variables are tried in *descending* id order so that local
/// variables (which receive the highest ids in
/// [`crate::FlatInstance::to_general`]) are preferred — producing the
/// "most local" realization the paper's examples use.
pub fn sdr_matching(masks: &[u128]) -> Option<Vec<usize>> {
    let m = Matching::of(masks)?;
    Some(
        m.var_of_block[..masks.len()]
            .iter()
            .map(|&v| v as usize)
            .collect(),
    )
}

/// Enumerates every valid partition of the instance's holes exactly once,
/// in lexicographic RGS order. `visit` receives the RGS; returning
/// [`ControlFlow::Break`] stops early.
///
/// # Examples
///
/// ```
/// use spe_combinatorics::{enumerate_canonical, FlatInstance, FlatScope};
/// use std::ops::ControlFlow;
///
/// let fig7 = FlatInstance::new(vec![0, 1, 4], 2, vec![FlatScope { holes: vec![2, 3], vars: 2 }]);
/// let mut n = 0;
/// enumerate_canonical(&fig7.to_general(), &mut |_rgs| { n += 1; ControlFlow::Continue(()) });
/// assert_eq!(n, 35);
/// ```
pub fn enumerate_canonical<F>(inst: &GeneralInstance, visit: &mut F) -> ControlFlow<()>
where
    F: FnMut(&[usize]) -> ControlFlow<()>,
{
    enumerate_canonical_from(inst, &[], visit)
}

/// [`enumerate_canonical`] from a lower bound: visits, in the same order,
/// only the valid partitions whose RGS is lexicographically `>= lower`
/// (a shorter `lower` bounds the leading elements only). Subtrees below
/// the bound are pruned before recursion, so the walk costs what it
/// visits, not the whole space before it.
///
/// With `lower` the solution of rank `i` — from
/// [`crate::ConstrainedRgs::unrank`] — this yields exactly the
/// canonical sequence from index `i` on: how a shard of a canonical
/// space starts mid-space.
///
/// # Examples
///
/// ```
/// use spe_combinatorics::{
///     canonical_solutions, enumerate_canonical_from, ConstrainedRgs, FlatInstance, FlatScope,
/// };
/// use std::ops::ControlFlow;
///
/// let inst = FlatInstance::new(vec![0, 1, 4], 2, vec![FlatScope { holes: vec![2, 3], vars: 2 }])
///     .to_general();
/// let serial = canonical_solutions(&inst, usize::MAX).0;
/// let lower = ConstrainedRgs::new(&inst, u64::MAX).unrank(20);
/// let mut tail = Vec::new();
/// enumerate_canonical_from(&inst, &lower, &mut |rgs| {
///     tail.push(rgs.to_vec());
///     ControlFlow::Continue(())
/// });
/// assert_eq!(tail, serial[20..]);
/// ```
pub fn enumerate_canonical_from<F>(
    inst: &GeneralInstance,
    lower: &[usize],
    visit: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(&[usize]) -> ControlFlow<()>,
{
    let n = inst.num_holes();
    let hole_masks: Vec<u128> = (0..n).map(|i| inst.mask(i)).collect();
    if hole_masks.contains(&0) {
        return ControlFlow::Continue(());
    }
    let mut rgs: Vec<usize> = Vec::with_capacity(n);
    let mut blocks: Vec<u128> = Vec::new();
    rec(
        &hole_masks,
        inst.num_vars.min(WIDTH),
        &mut rgs,
        &mut blocks,
        &mut Matching::new(),
        lower,
        visit,
    )
}

/// The pruned walk below the prefix `rgs`. `lower` is what is left of
/// the lower bound while the prefix still equals the bound's leading
/// elements, and empty once the prefix has moved above it (or the bound
/// is used up): only then may every block choice be taken.
///
/// `matching` saturates `blocks` on entry and exit, and is carried
/// across the recursion instead of re-matched at each node. A child
/// changes one block, so with every other block matched, one augmenting
/// search from that block decides whether the child still has an SDR
/// (Berge's theorem). Backtracking only widens masks, which keeps the
/// matching valid. Which SDR is held never changes a pruning decision,
/// so the visit sequence is that of a from-scratch [`has_sdr`] at every
/// node.
fn rec<F>(
    hole_masks: &[u128],
    num_vars: usize,
    rgs: &mut Vec<usize>,
    blocks: &mut Vec<u128>,
    matching: &mut Matching,
    lower: &[usize],
    visit: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(&[usize]) -> ControlFlow<()>,
{
    let i = rgs.len();
    if i == hole_masks.len() {
        return visit(rgs);
    }
    // The bound carries on into a child only along its own digit.
    let (low, rest) = lower
        .split_first()
        .map_or((0, &[][..]), |(&d, rest)| (d, rest));
    // Join an existing block.
    for b in low..blocks.len() {
        let merged = blocks[b] & hole_masks[i];
        if merged == 0 {
            continue;
        }
        let saved = blocks[b];
        blocks[b] = merged;
        let held = matching.var_of_block[b];
        let matched = merged & (1u128 << held) != 0 || {
            matching.release(b);
            matching.augment(blocks, b)
        };
        if matched {
            rgs.push(b);
            let bound = if b == low { rest } else { &[] };
            rec(hole_masks, num_vars, rgs, blocks, matching, bound, visit)?;
            rgs.pop();
        } else {
            matching.assign(b, held);
        }
        blocks[b] = saved;
    }
    // Open a new block.
    let b = blocks.len();
    if b < num_vars && b >= low {
        blocks.push(hole_masks[i]);
        if matching.augment(blocks, b) {
            rgs.push(b);
            let bound = if b == low { rest } else { &[] };
            rec(hole_masks, num_vars, rgs, blocks, matching, bound, visit)?;
            rgs.pop();
            matching.release(b);
        }
        blocks.pop();
    }
    ControlFlow::Continue(())
}

/// Collects up to `limit` canonical partitions; the boolean reports
/// truncation.
pub fn canonical_solutions(inst: &GeneralInstance, limit: usize) -> (Vec<Vec<usize>>, bool) {
    let mut out = Vec::new();
    let flow = enumerate_canonical(inst, &mut |rgs| {
        if out.len() >= limit {
            return ControlFlow::Break(());
        }
        out.push(rgs.to_vec());
        ControlFlow::Continue(())
    });
    (out, flow.is_break())
}

/// Number of valid partitions, computed by exhaustive (pruned)
/// enumeration. Intended for instances within the paper's per-file variant
/// budget; use [`crate::paper_count`] for closed-form magnitude estimates.
///
/// ```
/// use spe_combinatorics::{canonical_count, FlatInstance};
/// // Single scope: every partition is valid, so this is Bell(5) = 52.
/// assert_eq!(canonical_count(&FlatInstance::unscoped(5, 5).to_general()).to_u64(), Some(52));
/// ```
pub fn canonical_count(inst: &GeneralInstance) -> BigUint {
    let mut n = 0u64;
    let _ = enumerate_canonical(inst, &mut |_| {
        n += 1;
        ControlFlow::Continue(())
    });
    BigUint::from(n)
}

/// Computes the SDR-based variable assignment for a partition given as an
/// RGS over the instance's holes: `result[block]` is the chosen variable.
/// Returns `None` if the partition is not valid for the instance.
///
/// ```
/// use spe_combinatorics::{assignment_for_rgs, GeneralInstance};
///
/// let inst = GeneralInstance { allowed: vec![vec![0], vec![0, 1]], num_vars: 2 };
/// assert_eq!(assignment_for_rgs(&inst, &[0, 1]), Some(vec![0, 1]));
/// assert_eq!(assignment_for_rgs(&inst, &[0, 0]), Some(vec![0]));
/// ```
pub fn assignment_for_rgs(inst: &GeneralInstance, rgs: &[usize]) -> Option<Vec<usize>> {
    assert_eq!(rgs.len(), inst.num_holes(), "RGS length must match holes");
    let nblocks = crate::rgs_block_count(rgs);
    let all_vars: u128 = if inst.num_vars >= 128 {
        u128::MAX
    } else {
        (1u128 << inst.num_vars) - 1
    };
    let mut masks = vec![all_vars; nblocks];
    for (i, &b) in rgs.iter().enumerate() {
        masks[b] &= inst.mask(i);
    }
    sdr_matching(&masks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{FlatInstance, FlatScope};

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

    #[test]
    fn example6_canonical_is_35() {
        assert_eq!(canonical_count(&fig7()).to_u64(), Some(35));
    }

    #[test]
    fn single_scope_matches_bell() {
        for n in 0..7usize {
            let inst = FlatInstance::unscoped(n, n.max(1)).to_general();
            assert_eq!(canonical_count(&inst), crate::bell(n as u32), "n = {n}");
        }
    }

    #[test]
    fn bounded_blocks_match_stirling_sums() {
        let inst = FlatInstance::unscoped(6, 2).to_general();
        assert_eq!(canonical_count(&inst), crate::partitions_at_most(6, 2));
    }

    #[test]
    fn partitions_are_unique_and_lexicographic() {
        let (sols, truncated) = canonical_solutions(&fig7(), 10_000);
        assert!(!truncated);
        for w in sols.windows(2) {
            assert!(
                w[0] < w[1],
                "not strictly increasing: {:?} {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn all_emitted_partitions_have_sdr() {
        let inst = fig7();
        let (sols, _) = canonical_solutions(&inst, 10_000);
        for rgs in &sols {
            assert!(
                assignment_for_rgs(&inst, rgs).is_some(),
                "partition {rgs:?} has no SDR"
            );
        }
    }

    #[test]
    fn matches_brute_force_distinct_partitions() {
        let inst = fig7();
        assert_eq!(
            canonical_count(&inst).to_u64(),
            Some(crate::brute::count_distinct_partitions(&inst) as u64)
        );
    }

    #[test]
    fn empty_allowed_set_yields_nothing() {
        let inst = GeneralInstance {
            allowed: vec![vec![0], vec![]],
            num_vars: 2,
        };
        assert_eq!(canonical_count(&inst).to_u64(), Some(0));
    }

    #[test]
    fn sdr_prefers_local_variables() {
        // Block 0 may use {0, 3}; variable 3 (the "most local") wins.
        assert_eq!(sdr_matching(&[0b1001]), Some(vec![3]));
    }

    #[test]
    fn sdr_reassigns_via_augmenting_path() {
        // Block 0: {1}, block 1: {0, 1} — block 1 must cede variable 1.
        assert_eq!(sdr_matching(&[0b10, 0b11]), Some(vec![1, 0]));
    }

    #[test]
    fn disjoint_type_groups_multiply() {
        // Two type groups that cannot mix: holes 0,1 allow {0,1}, holes
        // 2,3 allow {2,3}. Valid partitions = B-like product: partitions
        // of each pair (2 each) = 4.
        let inst = GeneralInstance {
            allowed: vec![vec![0, 1], vec![0, 1], vec![2, 3], vec![2, 3]],
            num_vars: 4,
        };
        assert_eq!(canonical_count(&inst).to_u64(), Some(4));
    }

    #[test]
    fn assignment_respects_allowed_sets() {
        let inst = fig7();
        let (sols, _) = canonical_solutions(&inst, 10_000);
        for rgs in &sols {
            let assign = assignment_for_rgs(&inst, rgs).expect("valid partition");
            for (hole, &b) in rgs.iter().enumerate() {
                assert!(
                    inst.allowed[hole].contains(&assign[b]),
                    "hole {hole} got disallowed variable {} in {rgs:?}",
                    assign[b]
                );
            }
            // Injectivity.
            let mut seen = std::collections::HashSet::new();
            for &v in &assign {
                assert!(seen.insert(v), "variable {v} reused in {rgs:?}");
            }
        }
    }
}
