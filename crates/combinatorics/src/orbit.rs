//! Orbit enumeration: exactly one representative per *compact-α-renaming*
//! equivalence class (Definition 2 extended with scopes, §3.2.2).
//!
//! A compact α-renaming permutes variables only within their own pool
//! (global pool, or one local scope's pool). Two fillings are equivalent
//! iff they induce the same partition of the holes *and* assign each block
//! a variable from the same pool. An orbit is therefore a pair
//! `(valid partition, feasible block→pool assignment)`; this module
//! enumerates those pairs for flat instances.
//!
//! Example 6 of the paper has 40 orbits, versus 36 solutions from the
//! paper's algorithm and 35 valid partitions; `tests/` cross-checks these
//! against brute force.

use crate::canonical::enumerate_canonical;
use crate::instance::{FlatInstance, HoleId, PoolRef, ScopedSolution, SolutionBuf};
use spe_bignum::BigUint;
use std::ops::ControlFlow;

/// Enumerates one representative per compact-α-equivalence class.
/// Returning [`ControlFlow::Break`] from `visit` stops early.
///
/// # Examples
///
/// ```
/// use spe_combinatorics::{enumerate_orbits, FlatInstance, FlatScope};
/// use std::ops::ControlFlow;
///
/// let fig7 = FlatInstance::new(vec![0, 1, 4], 2, vec![FlatScope { holes: vec![2, 3], vars: 2 }]);
/// let mut n = 0;
/// enumerate_orbits(&fig7, &mut |_s| { n += 1; ControlFlow::Continue(()) });
/// assert_eq!(n, 40);
/// ```
pub fn enumerate_orbits<F>(inst: &FlatInstance, visit: &mut F) -> ControlFlow<()>
where
    F: FnMut(&ScopedSolution) -> ControlFlow<()>,
{
    let general = inst.to_general();
    let holes: Vec<HoleId> = (0..general.num_holes()).collect();
    // Scope membership for pool feasibility: hole -> Some(scope index).
    let mut scope_of_hole: Vec<Option<usize>> = vec![None; general.num_holes()];
    for (si, s) in inst.scopes().iter().enumerate() {
        for &h in &s.holes {
            scope_of_hole[h] = Some(si);
        }
    }
    let global = (inst.global_vars() > 0).then_some(PoolRef::Global);
    let mut buf = SolutionBuf::new();
    // Feasible pools per block: the global pool, then the block's scope.
    let mut feasible: Vec<[Option<PoolRef>; 2]> = Vec::new();
    enumerate_canonical(&general, &mut |rgs| {
        buf.clear();
        buf.push_blocks(rgs, &holes);
        feasible.clear();
        feasible.extend(buf.sol.blocks.iter().map(|b| {
            let local = scope_of_hole[b[0]]
                .filter(|&si| b.iter().all(|&h| scope_of_hole[h] == Some(si)))
                .map(PoolRef::Local);
            [global, local]
        }));
        assign_pools(inst, &feasible, &mut buf.sol, visit)
    })
}

/// Chooses a pool for each block of `sol` past those it has, in every
/// feasible way, and visits each complete choice.
fn assign_pools<F>(
    inst: &FlatInstance,
    feasible: &[[Option<PoolRef>; 2]],
    sol: &mut ScopedSolution,
    visit: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(&ScopedSolution) -> ControlFlow<()>,
{
    let idx = sol.pools.len();
    if idx == sol.blocks.len() {
        return visit(sol);
    }
    for pool in feasible[idx].into_iter().flatten() {
        let capacity = match pool {
            PoolRef::Global => inst.global_vars(),
            PoolRef::Local(s) => inst.scopes()[s].vars,
        };
        let used = sol.pools.iter().filter(|&&p| p == pool).count();
        if used >= capacity {
            continue;
        }
        sol.pools.push(pool);
        assign_pools(inst, feasible, sol, visit)?;
        sol.pools.pop();
    }
    ControlFlow::Continue(())
}

/// Collects up to `limit` orbit representatives; the boolean reports
/// truncation.
pub fn orbit_solutions(inst: &FlatInstance, limit: usize) -> (Vec<ScopedSolution>, bool) {
    let mut out = Vec::new();
    let flow = enumerate_orbits(inst, &mut |s| {
        if out.len() >= limit {
            return ControlFlow::Break(());
        }
        out.push(s.clone());
        ControlFlow::Continue(())
    });
    (out, flow.is_break())
}

/// Number of compact-α-equivalence classes, by pruned enumeration.
///
/// ```
/// use spe_combinatorics::{orbit_count, FlatInstance};
/// // Single scope: orbits coincide with partitions (Bell numbers).
/// assert_eq!(orbit_count(&FlatInstance::unscoped(5, 5)).to_u64(), Some(52));
/// ```
pub fn orbit_count(inst: &FlatInstance) -> BigUint {
    let mut n = 0u64;
    let _ = enumerate_orbits(inst, &mut |_| {
        n += 1;
        ControlFlow::Continue(())
    });
    BigUint::from(n)
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
    fn example6_orbits_are_40() {
        assert_eq!(orbit_count(&fig7()).to_u64(), Some(40));
    }

    #[test]
    fn single_scope_orbits_match_bell() {
        for n in 0..6usize {
            let inst = FlatInstance::unscoped(n, n.max(1));
            assert_eq!(orbit_count(&inst), crate::bell(n as u32), "n = {n}");
        }
    }

    #[test]
    fn orbits_match_brute_force() {
        let cases = vec![
            fig7(),
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
                    holes: vec![0, 1],
                    vars: 2,
                }],
            ),
            FlatInstance::new(
                vec![0, 1],
                2,
                vec![
                    FlatScope {
                        holes: vec![2],
                        vars: 1,
                    },
                    FlatScope {
                        holes: vec![3],
                        vars: 1,
                    },
                ],
            ),
        ];
        for inst in cases {
            assert_eq!(
                orbit_count(&inst).to_u64(),
                Some(crate::brute::count_compact_orbits(&inst) as u64),
                "instance {inst:?}"
            );
        }
    }

    #[test]
    fn orbit_representatives_are_distinct() {
        let inst = fig7();
        let (sols, truncated) = orbit_solutions(&inst, 10_000);
        assert!(!truncated);
        let mut fingerprints = std::collections::HashSet::new();
        for s in &sols {
            assert!(
                fingerprints.insert(s.fingerprint(5)),
                "duplicate orbit representative {s:?}"
            );
        }
    }

    #[test]
    fn pool_capacities_respected() {
        let inst = fig7();
        let (sols, _) = orbit_solutions(&inst, 10_000);
        for s in &sols {
            let g = s
                .pools
                .iter()
                .filter(|p| matches!(p, PoolRef::Global))
                .count();
            let l = s
                .pools
                .iter()
                .filter(|p| matches!(p, PoolRef::Local(0)))
                .count();
            assert!(g <= 2 && l <= 2, "capacity violation in {s:?}");
        }
    }

    #[test]
    fn local_pool_only_for_scope_confined_blocks() {
        let inst = fig7();
        let (sols, _) = orbit_solutions(&inst, 10_000);
        let scope_holes = [2usize, 3];
        for s in &sols {
            for (b, pool) in s.blocks.iter().zip(&s.pools) {
                if let PoolRef::Local(0) = pool {
                    assert!(
                        b.iter().all(|h| scope_holes.contains(h)),
                        "non-scope hole got local pool: {s:?}"
                    );
                }
            }
        }
    }
}
