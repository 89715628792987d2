//! Property-based tests of the SPE combinatorics invariants.

use proptest::prelude::*;
use spe_bignum::BigUint;
use spe_combinatorics::{
    brute, canonical_count, canonical_solutions, enumerate_canonical, enumerate_canonical_from,
    labels_to_rgs, orbit_count, orbit_solutions, paper_count, paper_solutions, partitions_at_most,
    rgs_block_count, rgs_to_blocks, sdr_matching, Combinations, ConstrainedRgs, ExactRgs,
    FlatInstance, FlatScope, GeneralInstance, PoolRef, Rgs, ScopedSolution,
};
use std::collections::HashMap;
use std::ops::ControlFlow;

/// Strategy: a small flat instance (global holes/vars plus up to two
/// scopes) whose naive product stays brute-forceable.
fn small_instance() -> impl Strategy<Value = FlatInstance> {
    (
        0usize..4, // global holes
        1usize..4, // global vars
        proptest::collection::vec((1usize..3, 1usize..3), 0..3),
    )
        .prop_map(|(g, kg, scopes)| {
            let mut next = g;
            let scopes = scopes
                .into_iter()
                .map(|(holes, vars)| {
                    let hs = (next..next + holes).collect();
                    next += holes;
                    FlatScope { holes: hs, vars }
                })
                .collect();
            FlatInstance::new((0..g).collect(), kg, scopes)
        })
        .prop_filter("keep the naive product brute-forceable", |inst| {
            inst.naive_count() <= BigUint::from(4000u64)
        })
}

/// Strategy: a general instance — 1 to 6 variables, 0 to 9 holes, each
/// hole allowed an arbitrary (sometimes empty) subset of the variables.
/// Unlike scope-shaped flat instances, these include the
/// declaration-order prefixes of real type groups.
fn general_instance() -> impl Strategy<Value = GeneralInstance> {
    (
        1usize..7,
        proptest::collection::vec(0u64..64, 0..10),
        0usize..20, // the hole left with no variable, if it exists
    )
        .prop_map(|(num_vars, sets, dead)| {
            let full = (1u64 << num_vars) - 1;
            let allowed = sets
                .into_iter()
                .enumerate()
                .map(|(hole, set)| {
                    let set = if hole == dead { 0 } else { 1 + set % full };
                    (0..num_vars).filter(|v| set >> v & 1 == 1).collect()
                })
                .collect();
            GeneralInstance { allowed, num_vars }
        })
        .prop_filter("keep the naive product small", |inst| {
            inst.naive_count() <= BigUint::from(4000u64)
        })
}

/// The augmenting-path matcher as it was first written, on a `HashMap`:
/// blocks in index order, candidate variables from the highest id down.
/// The reference the allocation-free matcher must reproduce exactly.
fn reference_sdr_matching(masks: &[u128]) -> Option<Vec<usize>> {
    fn try_assign(
        b: usize,
        masks: &[u128],
        visited: &mut u128,
        var_of_block: &mut [Option<usize>],
        block_of_var: &mut HashMap<usize, usize>,
    ) -> bool {
        let mut m = masks[b] & !*visited;
        while m != 0 {
            let v = 127 - m.leading_zeros() as usize;
            m &= !(1u128 << v);
            *visited |= 1u128 << v;
            let displaced = block_of_var.get(&v).copied();
            let free = match displaced {
                None => true,
                Some(other) => try_assign(other, masks, visited, var_of_block, block_of_var),
            };
            if free {
                var_of_block[b] = Some(v);
                block_of_var.insert(v, b);
                return true;
            }
        }
        false
    }

    let mut var_of_block: Vec<Option<usize>> = vec![None; masks.len()];
    let mut block_of_var: HashMap<usize, usize> = HashMap::new();
    for b in 0..masks.len() {
        let mut visited = 0u128;
        if !try_assign(b, masks, &mut visited, &mut var_of_block, &mut block_of_var) {
            return None;
        }
    }
    Some(
        var_of_block
            .into_iter()
            .map(|v| v.expect("assigned"))
            .collect(),
    )
}

/// The paper's enumeration as first written: every solution's blocks
/// collected afresh from `rgs_to_blocks`, and every local block cloned
/// again on emission. The reference the buffer-reusing walk must
/// reproduce solution for solution.
fn reference_paper_solutions(inst: &FlatInstance) -> Vec<ScopedSolution> {
    fn blocks_over(rgs: &[usize], holes: &[usize]) -> Vec<Vec<usize>> {
        rgs_to_blocks(rgs)
            .into_iter()
            .map(|b| b.iter().map(|&i| holes[i]).collect())
            .collect()
    }
    fn emit(
        global_blocks: &[Vec<usize>],
        locals: &[(usize, Vec<Vec<usize>>)],
        out: &mut Vec<ScopedSolution>,
    ) {
        let mut blocks: Vec<Vec<usize>> = global_blocks.to_vec();
        let mut pools = vec![PoolRef::Global; blocks.len()];
        for (scope_idx, lblocks) in locals {
            for b in lblocks {
                blocks.push(b.clone());
                pools.push(PoolRef::Local(*scope_idx));
            }
        }
        out.push(ScopedSolution { blocks, pools });
    }
    fn partition_scope(
        inst: &FlatInstance,
        scope_idx: usize,
        promoted: &mut Vec<usize>,
        locals: &mut Vec<(usize, Vec<Vec<usize>>)>,
        out: &mut Vec<ScopedSolution>,
    ) {
        if scope_idx == inst.scopes().len() {
            let mut g: Vec<usize> = inst.global_holes().to_vec();
            g.extend_from_slice(promoted);
            let j = inst.global_vars().min(g.len());
            if g.is_empty() {
                emit(&[], locals, out);
            } else if j > 0 {
                for grgs in ExactRgs::new(g.len(), j) {
                    emit(&blocks_over(&grgs, &g), locals, out);
                }
            }
            return;
        }
        let scope = &inst.scopes()[scope_idx];
        let u = scope.holes.len();
        for p in 0..u {
            for combo in Combinations::new(u, p) {
                let chosen: Vec<usize> = combo.iter().map(|&i| scope.holes[i]).collect();
                let rest: Vec<usize> = (0..u)
                    .filter(|i| !combo.contains(i))
                    .map(|i| scope.holes[i])
                    .collect();
                promoted.extend_from_slice(&chosen);
                for j in 1..=scope.vars.min(rest.len()) {
                    for lrgs in ExactRgs::new(rest.len(), j) {
                        locals.push((scope_idx, blocks_over(&lrgs, &rest)));
                        partition_scope(inst, scope_idx + 1, promoted, locals, out);
                        locals.pop();
                    }
                }
                promoted.truncate(promoted.len() - chosen.len());
            }
        }
    }

    let mut out = Vec::new();
    if inst.is_unsatisfiable() {
        return out;
    }
    let order = inst.normal_form();
    let kg = inst.global_vars();
    if kg > 0 || order.is_empty() {
        for rgs in Rgs::new(order.len(), kg.max(usize::from(order.is_empty()))) {
            let blocks = blocks_over(&rgs, &order);
            let pools = vec![PoolRef::Global; blocks.len()];
            out.push(ScopedSolution { blocks, pools });
        }
    }
    if !inst.scopes().is_empty() {
        partition_scope(inst, 0, &mut Vec::new(), &mut Vec::new(), &mut out);
    }
    out
}

/// Orbit enumeration as first written: fresh blocks and feasible-pool
/// lists per partition, and every representative cloned at its leaf.
fn reference_orbit_solutions(inst: &FlatInstance) -> Vec<ScopedSolution> {
    fn assign_pools(
        inst: &FlatInstance,
        blocks: &[Vec<usize>],
        feasible: &[Vec<PoolRef>],
        chosen: &mut Vec<PoolRef>,
        out: &mut Vec<ScopedSolution>,
    ) {
        let idx = chosen.len();
        if idx == blocks.len() {
            out.push(ScopedSolution {
                blocks: blocks.to_vec(),
                pools: chosen.clone(),
            });
            return;
        }
        for &pool in &feasible[idx] {
            let capacity = match pool {
                PoolRef::Global => inst.global_vars(),
                PoolRef::Local(s) => inst.scopes()[s].vars,
            };
            if chosen.iter().filter(|&&p| p == pool).count() < capacity {
                chosen.push(pool);
                assign_pools(inst, blocks, feasible, chosen, out);
                chosen.pop();
            }
        }
    }

    let general = inst.to_general();
    let mut scope_of_hole: Vec<Option<usize>> = vec![None; general.num_holes()];
    for (si, s) in inst.scopes().iter().enumerate() {
        for &h in &s.holes {
            scope_of_hole[h] = Some(si);
        }
    }
    let mut out = Vec::new();
    let _ = enumerate_canonical(&general, &mut |rgs| {
        let blocks = rgs_to_blocks(rgs);
        let feasible: Vec<Vec<PoolRef>> = blocks
            .iter()
            .map(|b| {
                let mut pools = Vec::new();
                if inst.global_vars() > 0 {
                    pools.push(PoolRef::Global);
                }
                if let Some(si) = scope_of_hole[b[0]] {
                    if b.iter().all(|&h| scope_of_hole[h] == Some(si)) {
                        pools.push(PoolRef::Local(si));
                    }
                }
                pools
            })
            .collect();
        assign_pools(inst, &blocks, &feasible, &mut Vec::new(), &mut out);
        ControlFlow::Continue(())
    });
    out
}

/// The block masks of a partition: each block's allowed variables are
/// those every member hole allows.
fn block_masks(inst: &GeneralInstance, rgs: &[usize]) -> Vec<u128> {
    let mut masks = vec![u128::MAX; rgs_block_count(rgs)];
    for (hole, &b) in rgs.iter().enumerate() {
        masks[b] &= inst.mask(hole);
    }
    masks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rgs_count_matches_stirling_sum(n in 0usize..8, k in 1usize..6) {
        prop_assert_eq!(
            BigUint::from(Rgs::new(n, k).count()),
            partitions_at_most(n as u32, k as u32)
        );
    }

    #[test]
    fn rgs_canonicalization_is_idempotent(labels in proptest::collection::vec(0usize..5, 0..12)) {
        let rgs = labels_to_rgs(&labels);
        prop_assert_eq!(labels_to_rgs(&rgs), rgs.clone());
        // And it is a valid restricted growth string.
        let mut max_seen: Option<usize> = None;
        for &v in &rgs {
            match max_seen {
                None => prop_assert_eq!(v, 0),
                Some(m) => prop_assert!(v <= m + 1),
            }
            max_seen = Some(max_seen.map_or(v, |m| m.max(v)));
        }
        let _ = rgs_block_count(&rgs);
    }

    #[test]
    fn canonical_count_matches_brute_force(inst in small_instance()) {
        let general = inst.to_general();
        prop_assert_eq!(
            canonical_count(&general).to_u64().expect("small"),
            brute::count_distinct_partitions(&general) as u64
        );
    }

    #[test]
    fn orbit_count_matches_brute_force(inst in small_instance()) {
        prop_assert_eq!(
            orbit_count(&inst).to_u64().expect("small"),
            brute::count_compact_orbits(&inst) as u64
        );
    }

    #[test]
    fn algorithm_counts_are_ordered(inst in small_instance()) {
        // Provable orderings: canonical <= orbit <= naive (partitions,
        // orbits and fillings form a refinement chain) and paper <= orbit
        // (the paper's solutions are (partition, pool) pairs, a subset of
        // the orbit representatives). canonical and paper are
        // *incomparable* in general: Example 6 has paper 36 > canonical
        // 35, while small-global-pool instances drop valid partitions
        // (see DESIGN.md §2).
        let c = canonical_count(&inst.to_general());
        let p = paper_count(&inst);
        let o = orbit_count(&inst);
        let n = inst.naive_count();
        prop_assert!(c <= o, "canonical {c:?} <= orbit {o:?}");
        prop_assert!(o <= n, "orbit {o:?} <= naive {n:?}");
        prop_assert!(p <= o, "paper {p:?} <= orbit {o:?}");
    }

    #[test]
    fn paper_enumeration_matches_paper_count(inst in small_instance()) {
        let (sols, truncated) = paper_solutions(&inst, 100_000);
        prop_assert!(!truncated);
        prop_assert_eq!(BigUint::from(sols.len()), paper_count(&inst));
    }

    #[test]
    fn paper_solutions_cover_each_hole_once(inst in small_instance()) {
        let n = inst.num_holes();
        let (sols, _) = paper_solutions(&inst, 20_000);
        for s in sols {
            let mut seen = vec![false; n];
            for b in &s.blocks {
                for &h in b {
                    prop_assert!(!seen[h], "hole {h} twice");
                    seen[h] = true;
                }
            }
            prop_assert!(seen.iter().all(|&x| x));
        }
    }

    #[test]
    fn paper_count_is_bounded_by_the_brute_filling_count(inst in small_instance()) {
        // The paper's enumeration set sits between the closed-form bounds:
        // canonical ≤ paper would NOT hold in general (canonical and paper
        // are incomparable, see DESIGN.md §2 and the
        // `algorithm_counts_are_ordered` property above), but paper is
        // always bounded by the brute-force filling count, and every count
        // is bounded by the naive product that `brute::Fillings` walks.
        let fillings = brute::Fillings::new(&inst.to_general()).count();
        prop_assert_eq!(inst.naive_count().to_u64().expect("small"), fillings as u64);
        let p = paper_count(&inst);
        prop_assert!(p <= BigUint::from(fillings), "paper {p:?} <= fillings {fillings}");
        let c = canonical_count(&inst.to_general());
        prop_assert!(c <= BigUint::from(fillings), "canonical {c:?} <= fillings {fillings}");
    }

    #[test]
    fn unscoped_paper_count_matches_brute_filling_classes(n in 0usize..7, k in 1usize..5) {
        // With a single scope the paper's solution set is exactly one
        // representative per distinct partition of the fillings, so the
        // closed-form count equals the brute `Fillings` count after
        // partition dedup (and canonical ≤ paper ≤ naive holds with both
        // bounds provable).
        let inst = FlatInstance::unscoped(n, k);
        let general = inst.to_general();
        let classes = brute::count_distinct_partitions(&general) as u64;
        let p = paper_count(&inst);
        prop_assert_eq!(p.to_u64().expect("small"), classes);
        let c = canonical_count(&general);
        let naive = inst.naive_count();
        prop_assert!(c <= p.clone(), "canonical {c:?} <= paper {p:?}");
        prop_assert!(p <= naive.clone(), "paper {p:?} <= naive {naive:?}");
    }

    #[test]
    fn labels_to_rgs_roundtrips_through_blocks(labels in proptest::collection::vec(0usize..6, 0..12)) {
        // labels_to_rgs ∘ rgs_to_blocks is the identity on canonical RGSs:
        // rebuilding the string from its blocks and re-canonicalizing
        // changes nothing.
        let rgs = labels_to_rgs(&labels);
        let blocks = rgs_to_blocks(&rgs);
        let mut rebuilt = vec![usize::MAX; rgs.len()];
        for (b, members) in blocks.iter().enumerate() {
            prop_assert!(!members.is_empty(), "block {b} of {rgs:?} is empty");
            for &m in members {
                rebuilt[m] = b;
            }
        }
        prop_assert_eq!(&rebuilt, &rgs);
        prop_assert_eq!(labels_to_rgs(&rebuilt), rgs);
    }

    #[test]
    fn even_ranges_partition_the_index_space_exactly(total in 0usize..400, parts in 1usize..12) {
        // Brute-force coverage: every index of 0..total is owned by
        // exactly one range; ranges are in order, contiguous, and
        // near-even (lengths differ by at most one).
        use spe_combinatorics::even_ranges;
        let ranges = even_ranges(total, parts);
        prop_assert_eq!(ranges.len(), parts);
        let mut owners = vec![0usize; total];
        for r in &ranges {
            for i in r.clone() {
                owners[i] += 1;
            }
        }
        prop_assert!(owners.iter().all(|&c| c == 1), "each index owned exactly once");
        prop_assert_eq!(ranges.first().map(|r| r.start), Some(0));
        prop_assert_eq!(ranges.last().map(|r| r.end), Some(total));
        for w in ranges.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start, "contiguous, in order");
        }
        let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
        prop_assert!(max - min <= 1, "near-even: {lens:?}");
    }

    #[test]
    fn even_ranges_owner_is_stable_under_part_count_one(total in 0usize..64) {
        use spe_combinatorics::even_ranges;
        prop_assert_eq!(even_ranges(total, 1), vec![0..total]);
        // parts = 0 is clamped to one covering range, never a panic.
        prop_assert_eq!(even_ranges(total, 0), vec![0..total]);
    }

    #[test]
    fn single_scope_instances_agree_on_all_semantics(n in 0usize..7, k in 1usize..6) {
        let inst = FlatInstance::unscoped(n, k);
        let c = canonical_count(&inst.to_general());
        let p = paper_count(&inst);
        let o = orbit_count(&inst);
        prop_assert_eq!(&c, &p);
        prop_assert_eq!(&c, &o);
        prop_assert_eq!(c, partitions_at_most(n as u32, k as u32));
    }

    #[test]
    fn constrained_total_matches_brute_force(inst in small_instance()) {
        // The prefix-count DP agrees with both the pruned enumerator and
        // the exponential oracle on every small constrained instance.
        let general = inst.to_general();
        let brute = brute::count_distinct_partitions(&general) as u64;
        prop_assert_eq!(ConstrainedRgs::new(&general, u64::MAX).total(), brute);
        prop_assert_eq!(canonical_count(&general).to_u64(), Some(brute));
    }

    #[test]
    fn constrained_unrank_inverts_the_canonical_sequence(
        inst in small_instance(),
        general in general_instance(),
    ) {
        // At every cap the DP's total is `min(exact, cap)`, and every
        // rank below it unranks to the enumerator's solution of that rank.
        for general in [inst.to_general(), general] {
            let serial = canonical_solutions(&general, usize::MAX).0;
            let exact = serial.len() as u64;
            for cap in [1, 2, exact, exact + 1, u64::MAX] {
                let mut space = ConstrainedRgs::new(&general, cap);
                let total = space.total();
                prop_assert_eq!(total, exact.min(cap), "cap {}", cap);
                for i in 0..total {
                    prop_assert_eq!(&space.unrank(i), &serial[i as usize], "cap {}, rank {}", cap, i);
                }
            }
        }
    }

    #[test]
    fn canonical_walk_from_an_unranked_solution_is_the_serial_tail(
        inst in small_instance(),
        general in general_instance(),
    ) {
        // The step a shard of a canonical space starts with: unrank the
        // shard's first index, then walk on from that solution. For every
        // rank the walk must yield exactly the serial sequence's tail.
        for general in [inst.to_general(), general] {
            let serial = canonical_solutions(&general, usize::MAX).0;
            let mut space = ConstrainedRgs::new(&general, u64::MAX);
            for i in 0..serial.len() {
                let lower = space.unrank(i as u64);
                let mut tail: Vec<Vec<usize>> = Vec::new();
                let _ = enumerate_canonical_from(&general, &lower, &mut |rgs| {
                    tail.push(rgs.to_vec());
                    ControlFlow::Continue(())
                });
                prop_assert_eq!(&tail[..], &serial[i..], "resumed at rank {}", i);
            }
        }
    }

    #[test]
    fn sdr_matching_is_the_reference_matching(
        masks in proptest::collection::vec(0u128..64, 0..10),
        shift in 0u32..123,
    ) {
        // Six variables anywhere in the mask width, so zero masks and
        // more blocks than variables both occur.
        let masks: Vec<u128> = masks.into_iter().map(|m| m << shift).collect();
        prop_assert_eq!(sdr_matching(&masks), reference_sdr_matching(&masks));
    }

    #[test]
    fn paper_walk_reuses_buffers_without_changing_a_solution(inst in small_instance()) {
        let (sols, truncated) = paper_solutions(&inst, usize::MAX);
        prop_assert!(!truncated);
        prop_assert_eq!(sols, reference_paper_solutions(&inst));
    }

    #[test]
    fn orbit_walk_reuses_buffers_without_changing_a_solution(inst in small_instance()) {
        let (sols, truncated) = orbit_solutions(&inst, usize::MAX);
        prop_assert!(!truncated);
        prop_assert_eq!(sols, reference_orbit_solutions(&inst));
    }

    #[test]
    fn canonical_walk_is_the_rgs_space_filtered_by_the_reference(inst in general_instance()) {
        let expected: Vec<Vec<usize>> = Rgs::new(inst.num_holes(), inst.num_vars)
            .filter(|rgs| reference_sdr_matching(&block_masks(&inst, rgs)).is_some())
            .collect();
        prop_assert_eq!(canonical_solutions(&inst, usize::MAX).0, expected);
    }
}
