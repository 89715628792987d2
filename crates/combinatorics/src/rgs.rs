//! Restricted growth strings (RGS) and set-partition generation.
//!
//! A restricted growth string `a_1 a_2 … a_n` satisfies `a_1 = 0` and
//! `a_{i+1} ≤ 1 + max(a_1, …, a_i)` (§4.1.2 of the paper). RGSs of length
//! `n` with values `< k` are in bijection with partitions of an `n`-element
//! set into at most `k` unlabeled blocks, and are the canonical encoding of
//! a skeleton variant.

/// Iterator over all restricted growth strings of length `n` with at most
/// `k` distinct values, in lexicographic order.
///
/// Each item is the RGS as a `Vec<usize>`; element `i` names the block of
/// set element `i`.
///
/// # Examples
///
/// ```
/// use spe_combinatorics::Rgs;
///
/// // Partitions of {0,1,2} into at most 2 blocks.
/// let all: Vec<_> = Rgs::new(3, 2).collect();
/// assert_eq!(all, vec![
///     vec![0, 0, 0],
///     vec![0, 0, 1],
///     vec![0, 1, 0],
///     vec![0, 1, 1],
/// ]);
/// ```
#[derive(Debug, Clone)]
pub struct Rgs {
    a: Vec<usize>,
    /// `prefix_max[i]` = max of `a[0..=i]`.
    prefix_max: Vec<usize>,
    k: usize,
    started: bool,
    done: bool,
}

impl Rgs {
    /// Creates the iterator. `n == 0` yields exactly one empty string.
    /// `k == 0` with `n > 0` yields nothing (no block to put elements in).
    pub fn new(n: usize, k: usize) -> Self {
        let done = n > 0 && k == 0;
        Rgs {
            a: vec![0; n],
            prefix_max: vec![0; n],
            k,
            started: false,
            done,
        }
    }

    fn advance(&mut self) -> bool {
        let n = self.a.len();
        if n == 0 {
            return false;
        }
        // Find the rightmost position (never position 0) that can be
        // incremented while preserving the growth condition and the block
        // bound `k`.
        let mut i = n;
        while i > 1 {
            i -= 1;
            let prev_max = self.prefix_max[i - 1];
            if self.a[i] <= prev_max && self.a[i] + 1 < self.k {
                self.a[i] += 1;
                self.prefix_max[i] = prev_max.max(self.a[i]);
                for j in i + 1..n {
                    self.a[j] = 0;
                    self.prefix_max[j] = self.prefix_max[j - 1];
                }
                return true;
            }
        }
        false
    }

    /// Moves to the next string in place (the first call lands on the
    /// first string); `false` once exhausted.
    fn step(&mut self) -> bool {
        if self.done {
            return false;
        }
        if !self.started {
            self.started = true;
            return true;
        }
        if !self.advance() {
            self.done = true;
        }
        !self.done
    }

    /// Number of blocks the current string uses.
    fn blocks(&self) -> usize {
        self.prefix_max.last().map_or(0, |m| m + 1)
    }

    /// [`Iterator::next`] without the copy: advances in place and borrows
    /// the new string.
    pub(crate) fn next_in_place(&mut self) -> Option<&[usize]> {
        self.step().then_some(&self.a)
    }
}

impl Iterator for Rgs {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        self.next_in_place().map(<[usize]>::to_vec)
    }
}

/// Number of blocks used by an RGS (0 for the empty string).
///
/// ```
/// assert_eq!(spe_combinatorics::rgs_block_count(&[0, 1, 0, 2]), 3);
/// assert_eq!(spe_combinatorics::rgs_block_count(&[]), 0);
/// ```
pub fn rgs_block_count(rgs: &[usize]) -> usize {
    rgs.iter().copied().max().map_or(0, |m| m + 1)
}

/// Converts an RGS into explicit blocks of element indices.
///
/// ```
/// let blocks = spe_combinatorics::rgs_to_blocks(&[0, 1, 0]);
/// assert_eq!(blocks, vec![vec![0, 2], vec![1]]);
/// ```
pub fn rgs_to_blocks(rgs: &[usize]) -> Vec<Vec<usize>> {
    let mut blocks: Vec<Vec<usize>> = vec![Vec::new(); rgs_block_count(rgs)];
    for (i, &b) in rgs.iter().enumerate() {
        blocks[b].push(i);
    }
    blocks
}

/// Canonicalizes an arbitrary labeling (e.g. a filling of holes with
/// variable indices) into its RGS by renaming labels in order of first
/// occurrence.
///
/// ```
/// // The filling ⟨b, a, b, b, b, a⟩ of Example 5 has RGS 0 1 0 0 0 1.
/// assert_eq!(
///     spe_combinatorics::labels_to_rgs(&[1, 0, 1, 1, 1, 0]),
///     vec![0, 1, 0, 0, 0, 1]
/// );
/// ```
pub fn labels_to_rgs(labels: &[usize]) -> Vec<usize> {
    let mut map: Vec<Option<usize>> = Vec::new();
    let mut next = 0usize;
    let mut out = Vec::with_capacity(labels.len());
    for &l in labels {
        if l >= map.len() {
            map.resize(l + 1, None);
        }
        let id = *map[l].get_or_insert_with(|| {
            let id = next;
            next += 1;
            id
        });
        out.push(id);
    }
    out
}

/// Iterator over partitions of `{0..n}` into **exactly** `j` non-empty
/// blocks — the paper's `PARTITIONS'(Q, j)`.
///
/// Yields RGS encodings. `j > n` yields nothing; callers wanting the
/// paper's clamping convention (`{n k} = {n n}` for `k > n`) should clamp
/// `j` first.
///
/// # Examples
///
/// ```
/// use spe_combinatorics::ExactRgs;
/// // {3 2} = 3 partitions.
/// assert_eq!(ExactRgs::new(3, 2).count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct ExactRgs {
    inner: Rgs,
    j: usize,
}

impl ExactRgs {
    /// Creates the iterator over exactly-`j`-block partitions of `n`
    /// elements.
    pub fn new(n: usize, j: usize) -> Self {
        // Delegate to the at-most iterator and filter; instances in SPE
        // skeletons are small (the 10K-variant threshold bounds them).
        let inner = if j > n {
            // Nothing will match; an empty iterator via k = 0 on n > 0,
            // except n == 0, j == 0 which must yield the empty partition.
            Rgs::new(n.max(1), 0)
        } else {
            Rgs::new(n, j)
        };
        ExactRgs { inner, j }
    }

    /// [`Iterator::next`] without the copy: advances in place and borrows
    /// the new string.
    pub(crate) fn next_in_place(&mut self) -> Option<&[usize]> {
        while self.inner.step() {
            if self.inner.blocks() == self.j {
                return Some(&self.inner.a);
            }
        }
        None
    }
}

impl Iterator for ExactRgs {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        self.next_in_place().map(<[usize]>::to_vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rgs_counts_are_bell_numbers() {
        // Bell numbers 1, 1, 2, 5, 15, 52, 203 for n = 0..=6.
        let bell = [1usize, 1, 2, 5, 15, 52, 203];
        for (n, &expect) in bell.iter().enumerate() {
            assert_eq!(Rgs::new(n, n.max(1)).count(), expect, "n = {n}");
        }
    }

    #[test]
    fn rgs_respects_block_bound() {
        for rgs in Rgs::new(5, 3) {
            assert!(rgs_block_count(&rgs) <= 3);
        }
        // Sum of Stirling {5 1} + {5 2} + {5 3} = 1 + 15 + 25 = 41.
        assert_eq!(Rgs::new(5, 3).count(), 41);
    }

    #[test]
    fn rgs_lexicographic_order() {
        let all: Vec<_> = Rgs::new(4, 4).collect();
        for w in all.windows(2) {
            assert!(w[0] < w[1], "{:?} !< {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn rgs_growth_condition_holds() {
        for rgs in Rgs::new(6, 4) {
            assert_eq!(rgs[0], 0);
            let mut max = 0;
            for &v in &rgs {
                assert!(v <= max + 1);
                max = max.max(v);
            }
        }
    }

    #[test]
    fn rgs_zero_elements() {
        let all: Vec<_> = Rgs::new(0, 3).collect();
        assert_eq!(all, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn rgs_zero_blocks() {
        assert_eq!(Rgs::new(3, 0).count(), 0);
        assert_eq!(Rgs::new(0, 0).count(), 1);
    }

    #[test]
    fn exact_rgs_matches_stirling() {
        // {4 2} = 7, {4 3} = 6, {4 4} = 1.
        assert_eq!(ExactRgs::new(4, 2).count(), 7);
        assert_eq!(ExactRgs::new(4, 3).count(), 6);
        assert_eq!(ExactRgs::new(4, 4).count(), 1);
        assert_eq!(ExactRgs::new(4, 5).count(), 0);
    }

    #[test]
    fn exact_rgs_empty_set() {
        assert_eq!(ExactRgs::new(0, 0).count(), 1);
        assert_eq!(ExactRgs::new(0, 1).count(), 0);
    }

    #[test]
    fn blocks_roundtrip() {
        for rgs in Rgs::new(5, 5) {
            let blocks = rgs_to_blocks(&rgs);
            let mut rebuilt = vec![usize::MAX; rgs.len()];
            for (b, members) in blocks.iter().enumerate() {
                for &m in members {
                    rebuilt[m] = b;
                }
            }
            assert_eq!(rebuilt, rgs);
        }
    }

    #[test]
    fn labels_to_rgs_is_canonical() {
        assert_eq!(labels_to_rgs(&[7, 7, 3, 7, 3]), vec![0, 0, 1, 0, 1]);
        assert_eq!(labels_to_rgs(&[]), Vec::<usize>::new());
        // Example 5 of the paper: ⟨a,b,b,b,a,b⟩ has string 011101.
        assert_eq!(labels_to_rgs(&[0, 1, 1, 1, 0, 1]), vec![0, 1, 1, 1, 0, 1]);
    }

    #[test]
    fn paper_example_5_strings() {
        // sP = ⟨a, b, a, a, a, b⟩ -> "010001".
        assert_eq!(labels_to_rgs(&[0, 1, 0, 0, 0, 1]), vec![0, 1, 0, 0, 0, 1]);
    }
}
