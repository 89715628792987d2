//! Cutting a variant space into contiguous emission-index ranges.
//!
//! Workers, fleet hosts and checkpoint resume all cut a skeleton's space
//! one way: [`even_ranges`] deals the emission indices `0..total` into
//! near-even contiguous ranges, and a range's first variant is reached by
//! exact unranking — [`rgs_unrank`] for an unconstrained type group (the
//! set-partition space `Rgs::new(n, k)` of §4.1.2 of the paper), and
//! [`crate::ConstrainedRgs::unrank`] for a constrained one. Nothing
//! before a range start is generated.

use spe_bignum::BigUint;

/// Unranks a lexicographic index into `Rgs::new(n, k)`: returns the
/// `index`-th restricted growth string (0-based) of length `n` with at
/// most `k` blocks, in O(n·k) big-integer work.
///
/// Each candidate digit is weighed by the number of completions of the
/// extended prefix: a prefix using `m` blocks with `r` positions left has
/// `C(r, m)` completions, where `C(0, m) = 1` and
/// `C(r, m) = m·C(r-1, m) + C(r-1, m+1)` (last term only while `m < k`) —
/// the triangular recurrence behind [`crate::stirling2`]. The index is
/// walked down the cumulative weights, so no earlier string is generated.
///
/// # Panics
///
/// Panics if `index >= partitions_at_most(n, k)` (the space size).
///
/// # Examples
///
/// ```
/// use spe_combinatorics::{rgs_unrank, Rgs};
///
/// let serial: Vec<Vec<usize>> = Rgs::new(5, 3).collect();
/// for (i, rgs) in serial.iter().enumerate() {
///     assert_eq!(&rgs_unrank(5, 3, i as u64), rgs);
/// }
/// ```
pub fn rgs_unrank(n: usize, k: usize, index: u64) -> Vec<usize> {
    let mut idx = BigUint::from(index);
    if n == 0 || k == 0 {
        assert!(
            n == 0 && idx.is_zero(),
            "index out of range for empty space"
        );
        return Vec::new();
    }
    // rows[r][m] = C(r, m): completions of a prefix with m blocks used and
    // r positions remaining.
    let mut rows: Vec<Vec<BigUint>> = vec![vec![BigUint::one(); k + 1]];
    for r in 1..n {
        let prev = &rows[r - 1];
        let mut next: Vec<BigUint> = Vec::with_capacity(k + 1);
        for m in 0..=k {
            let mut v = prev[m].clone();
            v.mul_word(m as u64);
            if m < k {
                v += &prev[m + 1];
            }
            next.push(v);
        }
        rows.push(next);
    }
    let mut out = Vec::with_capacity(n);
    let mut blocks_used = 0usize;
    for i in 0..n {
        let row = &rows[n - i - 1];
        let mut placed = false;
        for d in 0..=blocks_used.min(k - 1) {
            let used_after = blocks_used.max(d + 1);
            let weight = &row[used_after];
            match idx.checked_sub(weight) {
                None => {
                    out.push(d);
                    blocks_used = used_after;
                    placed = true;
                    break;
                }
                Some(rest) => idx = rest,
            }
        }
        assert!(placed, "index out of range at position {i}");
    }
    out
}

/// Deals `0..total` into exactly `parts.max(1)` contiguous, in-order,
/// near-even ranges (lengths differ by at most one) that cover the space
/// exactly. Range `i` is `[⌊i·total/parts⌋, ⌊(i+1)·total/parts⌋)`, so
/// the owner of any index — and the full slice of any part — is O(1)
/// arithmetic with nothing materialized.
///
/// This is the one cut of every index space in the workspace: a
/// skeleton's emission indices into per-worker shards
/// (`spe_core::ShardedEnumerator`), and the file-major (file × shard)
/// job space into per-host slices (`spe_harness::fleet`). A range start
/// is reached by exact unranking, so no worker or host touches work
/// outside its slice.
///
/// # Examples
///
/// ```
/// use spe_combinatorics::even_ranges;
///
/// let ranges = even_ranges(10, 3);
/// assert_eq!(ranges, vec![0..3, 3..6, 6..10]);
/// // Exact cover: every index in exactly one range.
/// assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
/// ```
pub fn even_ranges(total: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1);
    // u128 intermediates: `i * total` may overflow usize on 32-bit
    // targets (and pathological inputs on 64-bit).
    let cut = |i: usize| ((i as u128 * total as u128) / parts as u128) as usize;
    (0..parts).map(|i| cut(i)..cut(i + 1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rgs::Rgs;
    use crate::stirling::partitions_at_most;

    #[test]
    fn unrank_inverts_lexicographic_enumeration() {
        for (n, k) in [(1, 1), (4, 2), (5, 3), (6, 6), (7, 4)] {
            for (i, rgs) in Rgs::new(n, k).enumerate() {
                assert_eq!(rgs_unrank(n, k, i as u64), rgs, "n={n} k={k} i={i}");
            }
        }
    }

    #[test]
    fn unrank_of_zero_is_the_all_zero_string() {
        assert_eq!(rgs_unrank(6, 3, 0), vec![0; 6]);
        assert_eq!(rgs_unrank(0, 0, 0), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unrank_rejects_out_of_range_indices() {
        let total = partitions_at_most(5, 3).to_u64().expect("small");
        let _ = rgs_unrank(5, 3, total);
    }
}
