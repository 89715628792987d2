//! Problem instances for scoped skeletal program enumeration.
//!
//! The paper's §4.2 normal form arranges a function's holes as
//! `⟨□g, …, □g, □1, …, □1, …, □t, …, □t⟩`: global holes first, then the
//! holes of each local scope. [`FlatInstance`] captures exactly that shape;
//! [`GeneralInstance`] captures the fully general "each hole has an allowed
//! variable set" formulation of §4.2.1 (which also covers nested scopes and
//! type constraints).

use spe_bignum::BigUint;

/// Identifier of a hole: its index in the skeleton's hole list.
pub type HoleId = usize;

/// The variable pool a partition block draws its representative from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolRef {
    /// The function-global pool `v^g`.
    Global,
    /// The pool `v^l` of local scope `l` (index into
    /// [`FlatInstance::scopes`]).
    Local(usize),
}

/// One local scope of a [`FlatInstance`]: the holes appearing in it and the
/// number of variables it declares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatScope {
    /// Holes whose allowed set is `v^g ∪ v^l`.
    pub holes: Vec<HoleId>,
    /// `|v^l|` — number of variables declared by this scope.
    pub vars: usize,
}

/// A scoped SPE instance in the paper's normal form: `global_vars` global
/// variables usable by every hole, plus flat local scopes whose holes may
/// additionally use that scope's own variables.
///
/// # Examples
///
/// Figure 7 of the paper: holes 1, 2, 5 are global, holes 3, 4 live in a
/// scope declaring two variables, and there are two globals:
///
/// ```
/// use spe_combinatorics::{FlatInstance, FlatScope};
///
/// let fig7 = FlatInstance::new(vec![0, 1, 4], 2, vec![FlatScope { holes: vec![2, 3], vars: 2 }]);
/// assert_eq!(fig7.naive_count().to_u64(), Some(128)); // 2^3 · 4^2
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatInstance {
    global_holes: Vec<HoleId>,
    global_vars: usize,
    scopes: Vec<FlatScope>,
}

impl FlatInstance {
    /// Builds a normalized instance.
    ///
    /// Normalization mirrors the assumptions of Algorithm 1: scopes
    /// declaring no variables contribute their holes to the global hole
    /// list (their holes can only be filled with globals anyway), and
    /// scopes without holes are dropped.
    pub fn new(
        global_holes: Vec<HoleId>,
        global_vars: usize,
        scopes: Vec<FlatScope>,
    ) -> FlatInstance {
        let mut g = global_holes;
        let mut kept = Vec::new();
        for s in scopes {
            if s.holes.is_empty() {
                continue;
            }
            if s.vars == 0 {
                g.extend(s.holes);
            } else {
                kept.push(s);
            }
        }
        FlatInstance {
            global_holes: g,
            global_vars,
            scopes: kept,
        }
    }

    /// An instance with a single (global) scope: `n` holes, `k` variables.
    ///
    /// ```
    /// use spe_combinatorics::FlatInstance;
    /// let i = FlatInstance::unscoped(6, 2);
    /// assert_eq!(i.naive_count().to_u64(), Some(64));
    /// ```
    pub fn unscoped(n: usize, k: usize) -> FlatInstance {
        FlatInstance::new((0..n).collect(), k, Vec::new())
    }

    /// Holes fillable only by global variables.
    pub fn global_holes(&self) -> &[HoleId] {
        &self.global_holes
    }

    /// Number of global variables `|v^g|`.
    pub fn global_vars(&self) -> usize {
        self.global_vars
    }

    /// The (normalized) local scopes.
    pub fn scopes(&self) -> &[FlatScope] {
        &self.scopes
    }

    /// Total number of holes.
    pub fn num_holes(&self) -> usize {
        self.global_holes.len() + self.scopes.iter().map(|s| s.holes.len()).sum::<usize>()
    }

    /// Returns `true` when some hole has an empty allowed variable set, in
    /// which case the instance has no solutions at all.
    pub fn is_unsatisfiable(&self) -> bool {
        self.global_vars == 0 && !self.global_holes.is_empty()
    }

    /// All holes in normal-form order: globals first, then each scope.
    pub fn normal_form(&self) -> Vec<HoleId> {
        let mut v = self.global_holes.clone();
        for s in &self.scopes {
            v.extend_from_slice(&s.holes);
        }
        v
    }

    /// The naive enumeration-set size `∏_i |v_i|` (§3.1).
    ///
    /// ```
    /// use spe_combinatorics::FlatInstance;
    /// // Figure 5: 6 holes, 2 globals -> 64.
    /// assert_eq!(FlatInstance::unscoped(6, 2).naive_count().to_u64(), Some(64));
    /// ```
    pub fn naive_count(&self) -> BigUint {
        let mut acc = BigUint::one();
        for _ in &self.global_holes {
            acc.mul_word(self.global_vars as u64);
        }
        for s in &self.scopes {
            for _ in &s.holes {
                acc.mul_word((self.global_vars + s.vars) as u64);
            }
        }
        acc
    }

    /// Converts to the general per-hole-allowed-set form. Global variables
    /// receive ids `0..global_vars`; each scope's variables follow in
    /// order.
    pub fn to_general(&self) -> GeneralInstance {
        let total_vars: usize =
            self.global_vars + self.scopes.iter().map(|s| s.vars).sum::<usize>();
        let num_holes = self.num_holes();
        let globals: Vec<usize> = (0..self.global_vars).collect();
        let mut allowed: Vec<Vec<usize>> = vec![Vec::new(); num_holes];
        for &h in &self.global_holes {
            allowed[h] = globals.clone();
        }
        let mut offset = self.global_vars;
        for s in &self.scopes {
            let mut set = globals.clone();
            set.extend(offset..offset + s.vars);
            for &h in &s.holes {
                allowed[h] = set.clone();
            }
            offset += s.vars;
        }
        GeneralInstance {
            allowed,
            num_vars: total_vars,
        }
    }

    /// The pool each variable id of [`Self::to_general`] belongs to.
    pub fn pool_of_var(&self, var: usize) -> PoolRef {
        if var < self.global_vars {
            return PoolRef::Global;
        }
        let mut offset = self.global_vars;
        for (i, s) in self.scopes.iter().enumerate() {
            if var < offset + s.vars {
                return PoolRef::Local(i);
            }
            offset += s.vars;
        }
        panic!("variable id {var} out of range");
    }
}

/// A partition of the holes together with the pool each block draws its
/// variable from. This is the output form of the scoped enumerators: a
/// canonical representative of a family of α-equivalent programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopedSolution {
    /// Blocks of hole ids; holes in one block are filled with the same
    /// variable.
    pub blocks: Vec<Vec<HoleId>>,
    /// Pool of the variable filling each block (parallel to `blocks`).
    pub pools: Vec<PoolRef>,
}

impl ScopedSolution {
    /// The RGS encoding of the underlying set partition over `n` holes
    /// (pools ignored). Blocks are renamed in order of first hole
    /// occurrence, making the encoding canonical.
    ///
    /// # Panics
    ///
    /// Panics if a hole id is `>= n` or a hole is missing from the blocks.
    pub fn rgs(&self, n: usize) -> Vec<usize> {
        let mut label = vec![usize::MAX; n];
        for (b, members) in self.blocks.iter().enumerate() {
            for &m in members {
                label[m] = b;
            }
        }
        assert!(
            label.iter().all(|&l| l != usize::MAX),
            "solution does not cover every hole"
        );
        crate::labels_to_rgs(&label)
    }

    /// A canonical fingerprint including the pool assignment: the RGS plus
    /// the pool of each hole's block. Two solutions with equal fingerprints
    /// realize compact-α-equivalent programs.
    pub fn fingerprint(&self, n: usize) -> (Vec<usize>, Vec<PoolRef>) {
        let mut pool = vec![PoolRef::Global; n];
        for (b, members) in self.blocks.iter().enumerate() {
            for &m in members {
                pool[m] = self.pools[b];
            }
        }
        (self.rgs(n), pool)
    }
}

/// A [`ScopedSolution`] rebuilt in place for every solution a walk emits.
/// Block buffers outlive the solutions that use them, so a walk
/// allocates only while its largest solution so far grows.
#[derive(Debug)]
pub(crate) struct SolutionBuf {
    /// The solution under construction, handed to visitors.
    pub(crate) sol: ScopedSolution,
    /// Cleared buffers of blocks the current solution does not use.
    spare: Vec<Vec<HoleId>>,
}

impl SolutionBuf {
    pub(crate) fn new() -> SolutionBuf {
        SolutionBuf {
            sol: ScopedSolution {
                blocks: Vec::new(),
                pools: Vec::new(),
            },
            spare: Vec::new(),
        }
    }

    /// Empties the solution, keeping its block buffers.
    pub(crate) fn clear(&mut self) {
        self.spare.extend(self.sol.blocks.drain(..).map(|mut b| {
            b.clear();
            b
        }));
        self.sol.pools.clear();
    }

    /// Appends the blocks of the RGS `rgs` over `holes` (`holes[i]` joins
    /// block `rgs[i]`), in block order, as [`crate::rgs_to_blocks`] lists
    /// them. Pools are the caller's to push.
    pub(crate) fn push_blocks(&mut self, rgs: &[usize], holes: &[HoleId]) {
        let first = self.sol.blocks.len();
        for (&b, &h) in rgs.iter().zip(holes) {
            // An RGS opens block `b` exactly when `b` equals the count so far.
            if first + b == self.sol.blocks.len() {
                self.sol.blocks.push(self.spare.pop().unwrap_or_default());
            }
            self.sol.blocks[first + b].push(h);
        }
    }

    /// Gives every block without a pool yet the pool `pool`.
    pub(crate) fn pool_rest(&mut self, pool: PoolRef) {
        self.sol.pools.resize(self.sol.blocks.len(), pool);
    }
}

/// The general SPE partition instance of §4.2.1: each hole has an explicit
/// allowed-variable set. This form also expresses nested scopes and
/// type-compatibility constraints.
///
/// # Examples
///
/// ```
/// use spe_combinatorics::GeneralInstance;
///
/// let inst = GeneralInstance {
///     allowed: vec![vec![0, 1], vec![0, 1], vec![0, 1, 2, 3]],
///     num_vars: 4,
/// };
/// assert_eq!(inst.naive_count().to_u64(), Some(16));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneralInstance {
    /// `allowed[i]` lists the variable ids usable in hole `i` (sorted,
    /// deduplicated).
    pub allowed: Vec<Vec<usize>>,
    /// Total number of distinct variables.
    pub num_vars: usize,
}

impl GeneralInstance {
    /// Number of holes.
    pub fn num_holes(&self) -> usize {
        self.allowed.len()
    }

    /// The naive enumeration-set size `∏_i |v_i|`.
    pub fn naive_count(&self) -> BigUint {
        let mut acc = BigUint::one();
        for a in &self.allowed {
            acc.mul_word(a.len() as u64);
        }
        acc
    }

    /// Bitmask of allowed variables for hole `i`.
    ///
    /// # Panics
    ///
    /// Panics if the instance has more than 128 variables; SPE skeletons
    /// within the paper's 10K-variant budget are far smaller.
    pub fn mask(&self, i: usize) -> u128 {
        let mut m = 0u128;
        for &v in &self.allowed[i] {
            assert!(v < 128, "GeneralInstance supports at most 128 variables");
            m |= 1 << v;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn naive_count_matches_paper_fig7() {
        assert_eq!(fig7().naive_count().to_u64(), Some(128));
    }

    #[test]
    fn naive_count_matches_paper_fig6() {
        // Figure 6: 5 global-position holes with 2 candidates, 5 scoped
        // holes with 4 candidates: 2^5 · 4^5 = 32768.
        let inst = FlatInstance::new(
            vec![0, 1, 2, 8, 9],
            2,
            vec![FlatScope {
                holes: vec![3, 4, 5, 6, 7],
                vars: 2,
            }],
        );
        assert_eq!(inst.naive_count().to_u64(), Some(32768));
    }

    #[test]
    fn normalization_merges_varless_scopes() {
        let inst = FlatInstance::new(
            vec![0],
            2,
            vec![
                FlatScope {
                    holes: vec![1],
                    vars: 0,
                },
                FlatScope {
                    holes: vec![],
                    vars: 3,
                },
                FlatScope {
                    holes: vec![2],
                    vars: 1,
                },
            ],
        );
        assert_eq!(inst.global_holes(), &[0, 1]);
        assert_eq!(inst.scopes().len(), 1);
        assert_eq!(inst.num_holes(), 3);
    }

    #[test]
    fn unsatisfiable_detection() {
        assert!(FlatInstance::unscoped(3, 0).is_unsatisfiable());
        assert!(!FlatInstance::unscoped(3, 1).is_unsatisfiable());
        assert!(!FlatInstance::unscoped(0, 0).is_unsatisfiable());
    }

    #[test]
    fn normal_form_order() {
        assert_eq!(fig7().normal_form(), vec![0, 1, 4, 2, 3]);
    }

    #[test]
    fn general_conversion() {
        let g = fig7().to_general();
        assert_eq!(g.num_vars, 4);
        assert_eq!(g.allowed[0], vec![0, 1]);
        assert_eq!(g.allowed[2], vec![0, 1, 2, 3]);
        assert_eq!(g.naive_count(), fig7().naive_count());
    }

    #[test]
    fn pool_of_var_mapping() {
        let inst = fig7();
        assert_eq!(inst.pool_of_var(0), PoolRef::Global);
        assert_eq!(inst.pool_of_var(1), PoolRef::Global);
        assert_eq!(inst.pool_of_var(2), PoolRef::Local(0));
        assert_eq!(inst.pool_of_var(3), PoolRef::Local(0));
    }

    #[test]
    fn solution_rgs_is_canonical() {
        let sol = ScopedSolution {
            blocks: vec![vec![1, 3], vec![0, 2]],
            pools: vec![PoolRef::Global, PoolRef::Global],
        };
        assert_eq!(sol.rgs(4), vec![0, 1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn solution_rgs_requires_coverage() {
        let sol = ScopedSolution {
            blocks: vec![vec![0]],
            pools: vec![PoolRef::Global],
        };
        let _ = sol.rgs(2);
    }
}
