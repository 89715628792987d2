//! Stirling numbers of the second kind and Bell numbers, exact
//! (`BigUint`) and floating-point.
//!
//! The paper (§4.1.1) counts the SPE solution set without scopes as
//! `S = Σ_{i=1}^{k} {n i}` with the convention `{n k} = {n n}` for
//! `k > n`.

use spe_bignum::BigUint;
use std::collections::HashMap;
use std::sync::Mutex;
use std::sync::OnceLock;

fn stirling_cache() -> &'static Mutex<HashMap<(u32, u32), BigUint>> {
    static CACHE: OnceLock<Mutex<HashMap<(u32, u32), BigUint>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Exact Stirling number of the second kind `{n k}`: the number of ways to
/// partition `n` labeled elements into `k` non-empty unlabeled blocks.
///
/// Computed with the triangular recurrence
/// `{n k} = k · {n-1 k} + {n-1 k-1}` and memoized process-wide.
///
/// # Examples
///
/// ```
/// use spe_combinatorics::stirling2;
/// assert_eq!(stirling2(5, 2).to_u64(), Some(15));
/// assert_eq!(stirling2(4, 2).to_u64(), Some(7));
/// assert_eq!(stirling2(0, 0).to_u64(), Some(1));
/// assert_eq!(stirling2(3, 5).to_u64(), Some(0));
/// ```
pub fn stirling2(n: u32, k: u32) -> BigUint {
    if k > n {
        return BigUint::zero();
    }
    if n == 0 {
        return BigUint::one(); // n == 0 and k == 0
    }
    if k == 0 {
        return BigUint::zero();
    }
    if k == n || k == 1 {
        return BigUint::one();
    }
    if let Some(hit) = stirling_cache().lock().expect("cache lock").get(&(n, k)) {
        return hit.clone();
    }
    // Build the needed rows iteratively to avoid deep recursion.
    let mut row: Vec<BigUint> = vec![BigUint::one()]; // row for m = 1: {1 1}
    for m in 2..=n {
        let width = (m as usize).min(k as usize + 1);
        let mut next: Vec<BigUint> = Vec::with_capacity(width);
        for j in 1..=m.min(k) {
            let take_prev_same = if (j as usize) <= row.len() {
                let mut v = row[j as usize - 1].clone();
                v.mul_word(j as u64);
                v
            } else {
                BigUint::zero()
            };
            let take_prev_less = if j >= 2 && (j as usize - 1) <= row.len() {
                row[j as usize - 2].clone()
            } else {
                BigUint::zero()
            };
            next.push(&take_prev_same + &take_prev_less);
        }
        row = next;
    }
    let result = row
        .get(k as usize - 1)
        .cloned()
        .unwrap_or_else(BigUint::zero);
    stirling_cache()
        .lock()
        .expect("cache lock")
        .insert((n, k), result.clone());
    result
}

/// The paper's clamped Stirling number: `{n k}` with `{n k} = {n n}` for
/// `k > n` (§4.1.1, "we consider at most n partitions").
///
/// ```
/// use spe_combinatorics::stirling2_clamped;
/// assert_eq!(stirling2_clamped(3, 7).to_u64(), Some(1)); // {3 3}
/// ```
pub fn stirling2_clamped(n: u32, k: u32) -> BigUint {
    stirling2(n, k.min(n))
}

/// Number of partitions of `n` elements into **at most** `k` blocks:
/// `Σ_{i=1}^{min(n,k)} {n i}`, with the empty partition counting once when
/// `n == 0`. This is the paper's `PARTITIONS(Q, k)` cardinality and its
/// Equation (1).
///
/// ```
/// use spe_combinatorics::partitions_at_most;
/// assert_eq!(partitions_at_most(5, 2).to_u64(), Some(16)); // {5 1}+{5 2}
/// assert_eq!(partitions_at_most(5, 5).to_u64(), Some(52)); // Bell(5)
/// assert_eq!(partitions_at_most(0, 3).to_u64(), Some(1));
/// ```
pub fn partitions_at_most(n: u32, k: u32) -> BigUint {
    if n == 0 {
        return BigUint::one();
    }
    let mut acc = BigUint::zero();
    for i in 1..=k.min(n) {
        acc += &stirling2(n, i);
    }
    acc
}

/// Bell number `B(n)`: the number of partitions of an `n`-element set.
///
/// ```
/// use spe_combinatorics::bell;
/// assert_eq!(bell(5).to_u64(), Some(52));
/// assert_eq!(bell(0).to_u64(), Some(1));
/// ```
pub fn bell(n: u32) -> BigUint {
    partitions_at_most(n, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_stirling_values() {
        // Rows 1..6 of the Stirling triangle.
        let expect: &[(u32, u32, u64)] = &[
            (1, 1, 1),
            (2, 1, 1),
            (2, 2, 1),
            (3, 2, 3),
            (4, 2, 7),
            (4, 3, 6),
            (5, 2, 15),
            (5, 3, 25),
            (5, 4, 10),
            (6, 3, 90),
            (7, 4, 350),
            (10, 5, 42525),
        ];
        for &(n, k, v) in expect {
            assert_eq!(stirling2(n, k).to_u64(), Some(v), "{{{n} {k}}}");
        }
    }

    #[test]
    fn stirling_recurrence_holds() {
        for n in 2..12u32 {
            for k in 1..=n {
                let mut lhs = stirling2(n - 1, k);
                lhs.mul_word(k as u64);
                let rhs = &lhs + &stirling2(n - 1, k - 1);
                assert_eq!(stirling2(n, k), rhs, "recurrence at ({n},{k})");
            }
        }
    }

    #[test]
    fn bell_numbers() {
        let expect = [1u64, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975];
        for (n, &v) in expect.iter().enumerate() {
            assert_eq!(bell(n as u32).to_u64(), Some(v), "B({n})");
        }
    }

    #[test]
    fn figure2_reduction_is_bell_5() {
        // §2: the Figure 2 skeleton has 5 holes and 5 variables; naive
        // enumeration gives 3125 programs, SPE gives 52.
        assert_eq!(bell(5).to_u64(), Some(52));
        assert_eq!(5u64.pow(5), 3125);
    }

    #[test]
    fn clamping_convention() {
        assert_eq!(stirling2_clamped(4, 9), stirling2(4, 4));
        assert_eq!(partitions_at_most(3, 10), bell(3));
    }

    #[test]
    fn large_values_do_not_overflow() {
        // {100 50} is astronomically large; just sanity-check magnitude.
        let v = stirling2(100, 50);
        assert!(v.log10() > 80.0);
    }
}
