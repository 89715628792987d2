//! The paper's enumeration algorithm (Algorithm 1 + Procedure
//! `PartitionScope`), reproduced faithfully, together with its closed-form
//! counting counterpart.
//!
//! The algorithm enumerates scoped set partitions in two phases:
//!
//! 1. **All-global phase** (Algorithm 1 line 3): every hole is treated as
//!    fillable by a global variable, producing `PARTITIONS(H, |v^g|)` —
//!    all partitions of all holes into at most `|v^g|` blocks.
//! 2. **Promotion phase** (`PartitionScope`): for every scope, every
//!    proper subset of its local holes is *promoted* to the global pool
//!    (`COMBINATIONS`, line 3); the remaining local holes are partitioned
//!    into `j ∈ [1, |v^l|]` non-empty blocks (`PARTITIONS'`, line 8); and
//!    the promoted+global holes are finally partitioned into exactly
//!    `|v^g|` non-empty blocks (line 14, with the paper's `{n k} = {n n}`
//!    clamping convention for small sets).
//!
//! Reproduction note (see `DESIGN.md` §2): this decomposition is exactly
//! the paper's, including its arithmetic on Example 6 (16 + 7 + 7 + 6 =
//! 36). It can emit two representatives of the same underlying partition
//! when distinct promotion choices lead to singleton local blocks, and it
//! skips compact-α-classes whose partitions already appeared with a
//! different pool assignment; the `canonical` and `orbit` modules provide
//! the two mathematically tight alternatives.

use crate::instance::{FlatInstance, HoleId, PoolRef, ScopedSolution, SolutionBuf};
use crate::{partitions_at_most, stirling2_clamped, Combinations, ExactRgs, Rgs};
use spe_bignum::BigUint;
use std::ops::ControlFlow;

/// Enumerates the paper's solution set for `inst`, invoking `visit` for
/// each scoped solution. Returning [`ControlFlow::Break`] stops the
/// enumeration early (used to honor variant budgets).
///
/// # Examples
///
/// ```
/// use spe_combinatorics::{enumerate_paper, FlatInstance, FlatScope};
/// use std::ops::ControlFlow;
///
/// // Example 6 of the paper: 36 solutions.
/// let inst = FlatInstance::new(vec![0, 1, 4], 2, vec![FlatScope { holes: vec![2, 3], vars: 2 }]);
/// let mut n = 0;
/// enumerate_paper(&inst, &mut |_s| { n += 1; ControlFlow::Continue(()) });
/// assert_eq!(n, 36);
/// ```
pub fn enumerate_paper<F>(inst: &FlatInstance, visit: &mut F) -> ControlFlow<()>
where
    F: FnMut(&ScopedSolution) -> ControlFlow<()>,
{
    if inst.is_unsatisfiable() {
        return ControlFlow::Continue(());
    }
    let order = inst.normal_form();
    let kg = inst.global_vars();
    let mut buf = SolutionBuf::new();

    // Phase 1: S'_f — all holes, at most |v^g| blocks, all pools global.
    if kg > 0 || order.is_empty() {
        let mut rgs = Rgs::new(order.len(), kg.max(usize::from(order.is_empty())));
        while let Some(a) = rgs.next_in_place() {
            buf.clear();
            buf.push_blocks(a, &order);
            buf.pool_rest(PoolRef::Global);
            visit(&buf.sol)?;
        }
    }

    // Phase 2: PartitionScope over the local scopes.
    if inst.scopes().is_empty() {
        return ControlFlow::Continue(());
    }
    ScopeWalk {
        inst,
        global: inst.global_holes().to_vec(),
        locals: vec![(Vec::new(), Vec::new()); inst.scopes().len()],
        buf,
    }
    .partition_scope(0, visit)
}

/// The state of phase 2, in buffers reused across every solution.
struct ScopeWalk<'a> {
    inst: &'a FlatInstance,
    /// The global holes, then the holes promoted from the scopes so far.
    global: Vec<HoleId>,
    /// Per scope, once the walk has reached it: the holes it keeps local
    /// and their partition, as an RGS over them.
    locals: Vec<(Vec<HoleId>, Vec<usize>)>,
    buf: SolutionBuf,
}

impl ScopeWalk<'_> {
    fn partition_scope<F>(&mut self, scope_idx: usize, visit: &mut F) -> ControlFlow<()>
    where
        F: FnMut(&ScopedSolution) -> ControlFlow<()>,
    {
        let inst = self.inst;
        if scope_idx == inst.scopes().len() {
            return self.emit_with_globals(visit);
        }
        let scope = &inst.scopes()[scope_idx];
        let u = scope.holes.len();
        debug_assert!(u >= 1, "normalization removes empty scopes");
        // Paper line 2: k ∈ [0, u-1] — promote every *proper* subset.
        for p in 0..u {
            for combo in Combinations::new(u, p) {
                let promoted_from = self.global.len();
                self.global.extend(combo.iter().map(|&i| scope.holes[i]));
                let rest = &mut self.locals[scope_idx].0;
                rest.clear();
                rest.extend(
                    (0..u)
                        .filter(|i| !combo.contains(i))
                        .map(|i| scope.holes[i]),
                );
                let n_rest = rest.len();
                // Paper lines 7-8: j ∈ [1, v], PARTITIONS'(rest, j).
                for j in 1..=scope.vars.min(n_rest) {
                    let mut lrgs = ExactRgs::new(n_rest, j);
                    while let Some(a) = lrgs.next_in_place() {
                        let rgs = &mut self.locals[scope_idx].1;
                        rgs.clear();
                        rgs.extend_from_slice(a);
                        self.partition_scope(scope_idx + 1, visit)?;
                    }
                }
                self.global.truncate(promoted_from);
            }
        }
        ControlFlow::Continue(())
    }

    fn emit_with_globals<F>(&mut self, visit: &mut F) -> ControlFlow<()>
    where
        F: FnMut(&ScopedSolution) -> ControlFlow<()>,
    {
        let g = self.global.len();
        // Paper line 14: PARTITIONS'(G, |v^g|) with the clamping convention.
        let j = self.inst.global_vars().min(g);
        if g == 0 {
            // One empty global partition.
            return self.emit(&[], visit);
        }
        if j == 0 {
            return ControlFlow::Continue(());
        }
        let mut grgs = ExactRgs::new(g, j);
        while let Some(a) = grgs.next_in_place() {
            self.emit(a, visit)?;
        }
        ControlFlow::Continue(())
    }

    /// Emits the global blocks of `global_rgs`, then every scope's local
    /// blocks.
    fn emit<F>(&mut self, global_rgs: &[usize], visit: &mut F) -> ControlFlow<()>
    where
        F: FnMut(&ScopedSolution) -> ControlFlow<()>,
    {
        let buf = &mut self.buf;
        buf.clear();
        buf.push_blocks(global_rgs, &self.global);
        buf.pool_rest(PoolRef::Global);
        for (scope_idx, (rest, rgs)) in self.locals.iter().enumerate() {
            buf.push_blocks(rgs, rest);
            buf.pool_rest(PoolRef::Local(scope_idx));
        }
        visit(&buf.sol)
    }
}

/// Collects the paper enumeration into a vector, stopping after `limit`
/// solutions. Returns the solutions and whether the enumeration was
/// truncated.
///
/// ```
/// use spe_combinatorics::{paper_solutions, FlatInstance};
///
/// let (sols, truncated) = paper_solutions(&FlatInstance::unscoped(6, 2), 1000);
/// assert_eq!(sols.len(), 32); // {6 1} + {6 2}
/// assert!(!truncated);
/// ```
pub fn paper_solutions(inst: &FlatInstance, limit: usize) -> (Vec<ScopedSolution>, bool) {
    let mut out = Vec::new();
    let flow = enumerate_paper(inst, &mut |s| {
        if out.len() >= limit {
            return ControlFlow::Break(());
        }
        out.push(s.clone());
        ControlFlow::Continue(())
    });
    (out, flow.is_break())
}

/// Closed-form size of the paper enumeration for `inst` — the counting
/// counterpart of [`enumerate_paper`], exact in `BigUint` arithmetic.
///
/// The count is
/// `PARTITIONS(n, k_g) + Σ_m poly[m] · {g + m, k_g}↓` where `poly` is the
/// convolution over scopes of `C(u_s, p) · PARTITIONS(u_s - p, k_s)`
/// (`p < u_s`) and `↓` denotes the paper's clamping convention.
///
/// # Examples
///
/// ```
/// use spe_combinatorics::{paper_count, FlatInstance, FlatScope};
///
/// let fig7 = FlatInstance::new(vec![0, 1, 4], 2, vec![FlatScope { holes: vec![2, 3], vars: 2 }]);
/// assert_eq!(paper_count(&fig7).to_u64(), Some(36)); // Example 6
/// ```
pub fn paper_count(inst: &FlatInstance) -> BigUint {
    if inst.is_unsatisfiable() {
        return BigUint::zero();
    }
    let n = inst.num_holes();
    let kg = inst.global_vars();
    let mut total = if kg > 0 || n == 0 {
        partitions_at_most(n as u32, kg as u32)
    } else {
        BigUint::zero()
    };
    if inst.scopes().is_empty() {
        return total;
    }
    // poly[m] = Σ over per-scope promotions summing to m of the product of
    // per-scope (choose × local-partition) counts.
    let mut poly: Vec<BigUint> = vec![BigUint::one()];
    for s in inst.scopes() {
        let u = s.holes.len();
        let mut contrib: Vec<BigUint> = Vec::with_capacity(u);
        for p in 0..u {
            let choose = BigUint::from(crate::binomial(u as u64, p as u64));
            let local_ways = partitions_at_most((u - p) as u32, s.vars as u32);
            contrib.push(&choose * &local_ways);
        }
        let mut next: Vec<BigUint> = vec![BigUint::zero(); poly.len() + contrib.len() - 1];
        for (m, a) in poly.iter().enumerate() {
            for (p, b) in contrib.iter().enumerate() {
                next[m + p] += &(a * b);
            }
        }
        poly = next;
    }
    let g = inst.global_holes().len();
    for (m, coeff) in poly.iter().enumerate() {
        if coeff.is_zero() {
            continue;
        }
        let gm = (g + m) as u32;
        let globals_ways = if gm == 0 {
            BigUint::one()
        } else if kg == 0 {
            BigUint::zero()
        } else {
            stirling2_clamped(gm, kg as u32)
        };
        total += &(coeff * &globals_ways);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::FlatScope;

    fn fig7() -> FlatInstance {
        FlatInstance::new(
            vec![0, 1, 4],
            2,
            vec![FlatScope {
                holes: vec![2, 3],
                vars: 2,
            }],
        )
    }

    #[test]
    fn example6_count_is_36() {
        assert_eq!(paper_count(&fig7()).to_u64(), Some(36));
    }

    #[test]
    fn example6_enumeration_matches_count() {
        let (sols, truncated) = paper_solutions(&fig7(), 10_000);
        assert!(!truncated);
        assert_eq!(sols.len(), 36);
    }

    #[test]
    fn example6_phase_breakdown() {
        // The paper's breakdown: 16 all-global + 7 promote-3 + 7 promote-4
        // + 6 promote-neither.
        let (sols, _) = paper_solutions(&fig7(), 10_000);
        let all_global = sols
            .iter()
            .filter(|s| s.pools.iter().all(|p| *p == PoolRef::Global))
            .count();
        assert_eq!(all_global, 16);
        let with_local = sols.len() - all_global;
        assert_eq!(with_local, 20);
    }

    #[test]
    fn unscoped_counts_are_bell_sums() {
        // No scopes: the solution set is PARTITIONS(n, k).
        for (n, k, expect) in [(6usize, 2usize, 32u64), (5, 5, 52), (4, 2, 8), (1, 3, 1)] {
            let inst = FlatInstance::unscoped(n, k);
            assert_eq!(paper_count(&inst).to_u64(), Some(expect), "n={n} k={k}");
            let (sols, _) = paper_solutions(&inst, 100_000);
            assert_eq!(sols.len() as u64, expect, "enumeration n={n} k={k}");
        }
    }

    #[test]
    fn enumeration_matches_count_on_varied_instances() {
        let cases = vec![
            FlatInstance::new(
                vec![0],
                1,
                vec![FlatScope {
                    holes: vec![1, 2],
                    vars: 1,
                }],
            ),
            FlatInstance::new(
                vec![],
                2,
                vec![FlatScope {
                    holes: vec![0, 1, 2],
                    vars: 2,
                }],
            ),
            FlatInstance::new(
                vec![0, 1],
                2,
                vec![
                    FlatScope {
                        holes: vec![2, 3],
                        vars: 1,
                    },
                    FlatScope {
                        holes: vec![4],
                        vars: 2,
                    },
                ],
            ),
            FlatInstance::new(
                vec![0, 1, 2, 3],
                3,
                vec![FlatScope {
                    holes: vec![4, 5],
                    vars: 2,
                }],
            ),
        ];
        for inst in cases {
            let (sols, truncated) = paper_solutions(&inst, 1_000_000);
            assert!(!truncated);
            assert_eq!(
                BigUint::from(sols.len()),
                paper_count(&inst),
                "instance {inst:?}"
            );
        }
    }

    #[test]
    fn budget_truncation() {
        let (sols, truncated) = paper_solutions(&FlatInstance::unscoped(10, 10), 5);
        assert_eq!(sols.len(), 5);
        assert!(truncated);
    }

    #[test]
    fn unsatisfiable_instance_yields_nothing() {
        let inst = FlatInstance::unscoped(3, 0);
        assert_eq!(paper_count(&inst).to_u64(), Some(0));
        let (sols, _) = paper_solutions(&inst, 10);
        assert!(sols.is_empty());
    }

    #[test]
    fn empty_instance_yields_empty_program() {
        let inst = FlatInstance::unscoped(0, 3);
        assert_eq!(paper_count(&inst).to_u64(), Some(1));
        let (sols, _) = paper_solutions(&inst, 10);
        assert_eq!(sols.len(), 1);
        assert!(sols[0].blocks.is_empty());
    }

    #[test]
    fn solutions_cover_all_holes_exactly_once() {
        let inst = fig7();
        let (sols, _) = paper_solutions(&inst, 10_000);
        for s in &sols {
            let mut seen = [false; 5];
            for b in &s.blocks {
                for &h in b {
                    assert!(!seen[h], "hole {h} appears twice in {s:?}");
                    seen[h] = true;
                }
            }
            assert!(seen.iter().all(|&x| x), "missing hole in {s:?}");
        }
    }

    #[test]
    fn local_blocks_stay_within_scope_capacity() {
        let inst = fig7();
        let (sols, _) = paper_solutions(&inst, 10_000);
        for s in &sols {
            let locals = s
                .pools
                .iter()
                .filter(|p| matches!(p, PoolRef::Local(0)))
                .count();
            assert!(locals <= 2, "too many local blocks in {s:?}");
            let globals = s
                .pools
                .iter()
                .filter(|p| matches!(p, PoolRef::Global))
                .count();
            assert!(globals <= 2, "too many global blocks in {s:?}");
        }
    }
}
