//! Skeletal program enumeration — the core public API.
//!
//! This crate is the paper's primary contribution as a library: given a
//! program, enumerate (or count) all non-α-equivalent variable-usage
//! variants of its skeleton.
//!
//! * [`Enumerator`] drives enumeration over a [`Skeleton`] with a chosen
//!   [`Algorithm`], [`Granularity`] and per-skeleton variant budget (the
//!   paper uses a 10,000-variant threshold in §5.2.1);
//! * [`spe_count`] / [`naive_count`] are the closed-form counting
//!   counterparts used for the search-space-reduction results (Table 1);
//! * [`Variant`]s carry the use-site rename map and realize to compilable
//!   source on demand.
//!
//! # Quick start
//!
//! ```
//! use spe_core::{Enumerator, EnumeratorConfig, Algorithm, Granularity, Skeleton};
//!
//! let sk = Skeleton::from_source(
//!     "int main() { int a, b = 1; b = b - a; if (a) a = a - b; return 0; }",
//! )?;
//! // Figure 1: 2^7 = 128 naive fillings, 64 non-α-equivalent.
//! assert_eq!(spe_core::naive_count(&sk, Granularity::Intra).to_u64(), Some(128));
//! assert_eq!(spe_core::spe_count(&sk, Granularity::Intra).to_u64(), Some(64));
//!
//! let e = Enumerator::new(EnumeratorConfig::default());
//! let variants = e.collect_sources(&sk);
//! assert_eq!(variants.len(), 64);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use spe_bignum::BigUint;
use spe_combinatorics::{
    assignment_for_rgs, canonical_solutions, enumerate_canonical_from, enumerate_orbits,
    enumerate_paper, even_ranges, partitions_at_most, rgs_unrank, ConstrainedRgs, Fillings,
    GeneralInstance, ScopedSolution,
};
pub use spe_skeleton::{
    Granularity, Hole, NameId, NameTable, RenderTemplate, Skeleton, SkeletonError, TypeGroup, Unit,
};
use std::ops::ControlFlow;
use std::ops::Range;

/// Which enumeration semantics to use. See `DESIGN.md` §2 for the
/// relationship between the three non-naive variants (on the paper's
/// Example 6 they produce 36, 35 and 40 solutions respectively; they all
/// coincide with Bell-number enumeration when every variable is global).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// Algorithm 1 + `PartitionScope`, verbatim from the paper. Used for
    /// all experiment reproductions.
    #[default]
    Paper,
    /// One representative per *valid partition* — duplicate-free and
    /// exhaustive w.r.t. dependence structure.
    Canonical,
    /// One representative per strict compact-α-renaming class.
    Orbit,
    /// The full Cartesian product of fillings (§3.1) — the baseline.
    Naive,
}

/// Enumerator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumeratorConfig {
    /// Enumeration semantics.
    pub algorithm: Algorithm,
    /// Intra- or inter-procedural units (§4.3).
    pub granularity: Granularity,
    /// Maximum number of variants emitted per skeleton; the paper's
    /// threshold is 10,000.
    pub budget: usize,
}

impl Default for EnumeratorConfig {
    fn default() -> Self {
        EnumeratorConfig {
            algorithm: Algorithm::Paper,
            granularity: Granularity::Intra,
            budget: 10_000,
        }
    }
}

/// One enumerated variant: a use-site renaming of the skeleton as a flat
/// hole-indexed vector of interned names.
///
/// `names[h]` fills hole `h` of [`Skeleton::holes`] (merged across all
/// units and type groups). The enumerator reuses one `Variant` across the
/// whole stream — visitors receive `&Variant` and must copy
/// ([`Variant::clone`]) anything they keep past the callback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variant {
    /// Sequential index in emission order.
    pub index: u64,
    /// The chosen name of every hole, in [`Skeleton::holes`] order.
    pub names: Vec<NameId>,
}

impl Variant {
    /// Realizes the variant as source text via the skeleton's compiled
    /// render template.
    pub fn source(&self, sk: &Skeleton) -> String {
        sk.render(&self.names)
    }

    /// Renders the variant into a caller-provided reusable buffer
    /// (cleared first) — the allocation-free hot path.
    pub fn render_into(&self, sk: &Skeleton, out: &mut String) {
        sk.render_into(&self.names, out);
    }

    /// Collects into `out` (cleared first) the hole indices whose names
    /// differ between `prev` and this variant.
    ///
    /// Consecutive variants in emission order differ by a single
    /// odometer digit, so the delta is almost always one index — this
    /// is what lets an incremental oracle resplice only the changed
    /// bindings instead of reprocessing the whole program. A `prev` of
    /// different length (e.g. the first variant after a skeleton
    /// boundary) yields every hole index.
    pub fn changed_holes_into(&self, prev: &[NameId], out: &mut Vec<usize>) {
        out.clear();
        if prev.len() != self.names.len() {
            out.extend(0..self.names.len());
            return;
        }
        for (h, (&old, &new)) in prev.iter().zip(&self.names).enumerate() {
            if old != new {
                out.push(h);
            }
        }
    }
}

/// Outcome of an enumeration run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumerationOutcome {
    /// Variants emitted.
    pub emitted: u64,
    /// Whether the budget cut the enumeration short.
    pub truncated: bool,
}

/// The SPE enumerator.
#[derive(Debug, Clone, Default)]
pub struct Enumerator {
    config: EnumeratorConfig,
}

impl Enumerator {
    /// Creates an enumerator with the given configuration.
    pub fn new(config: EnumeratorConfig) -> Enumerator {
        Enumerator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EnumeratorConfig {
        &self.config
    }

    /// Enumerates variants of `sk`, calling `visit` for each until the
    /// budget is reached or the visitor breaks.
    pub fn enumerate<F>(&self, sk: &Skeleton, visit: &mut F) -> EnumerationOutcome
    where
        F: FnMut(&Variant) -> ControlFlow<()>,
    {
        let space = VariantSpace::listed(&self.config, sk, &sk.units(self.config.granularity));
        let mut truncated = space.truncated;
        let total = space.total_with(self.config.budget, &mut truncated);
        let (emitted, broke) = space.stream_range(0..total, visit);
        EnumerationOutcome {
            emitted,
            truncated: truncated || broke,
        }
    }

    /// Convenience: collects realized variant sources (within budget).
    pub fn collect_sources(&self, sk: &Skeleton) -> Vec<String> {
        let mut out = Vec::new();
        self.enumerate(sk, &mut |v| {
            out.push(v.source(sk));
            ControlFlow::Continue(())
        });
        out
    }
}

/// One type group's rename fragments (its solutions, renamed), stored
/// flat: solution `i` fills hole `holes[j]` with
/// `names[i * holes.len() + j]`. Fragments of different groups touch
/// disjoint holes, so applying one per group yields a full variant.
#[derive(Debug, Clone)]
struct Fragments {
    /// Hole index (into [`Skeleton::holes`]) of each group position.
    holes: Vec<u32>,
    names: Vec<NameId>,
    /// Number of solutions.
    len: usize,
}

impl Fragments {
    fn new(g: &TypeGroup) -> Fragments {
        Fragments {
            holes: g.holes.iter().map(|&h| h as u32).collect(),
            names: Vec::new(),
            len: 0,
        }
    }

    /// Appends a solution; `fill` writes its name for each group position.
    fn push(&mut self, fill: impl FnOnce(&mut [NameId])) {
        let at = self.names.len();
        self.names.resize(at + self.holes.len(), NameId::default());
        fill(&mut self.names[at..]);
        self.len += 1;
    }

    /// Solution `i`'s names, by group position.
    fn row(&self, i: usize) -> &[NameId] {
        let k = self.holes.len();
        &self.names[i * k..(i + 1) * k]
    }

    /// Overwrites solution `i`'s holes in a full rename vector.
    fn apply(&self, i: usize, names: &mut [NameId]) {
        for (&h, &n) in self.holes.iter().zip(self.row(i)) {
            names[h as usize] = n;
        }
    }
}

/// A group's solution list under `config`, renamed and capped by the
/// budget, and whether the budget cut it short.
fn group_fragments(config: &EnumeratorConfig, sk: &Skeleton, g: &TypeGroup) -> (Fragments, bool) {
    let budget = config.budget;
    let mut frags = Fragments::new(g);
    let truncated = match config.algorithm {
        Algorithm::Paper | Algorithm::Orbit => {
            // Rename each solution as the walk emits it; the walk reuses
            // its solution buffers, so nothing is copied but the names.
            let mut rename = |s: &ScopedSolution| {
                if frags.len >= budget {
                    return ControlFlow::Break(());
                }
                frags.push(|row| sk.solution_names_into(g, s, row));
                ControlFlow::Continue(())
            };
            let flow = if config.algorithm == Algorithm::Paper {
                enumerate_paper(&g.flat, &mut rename)
            } else {
                enumerate_orbits(&g.flat, &mut rename)
            };
            flow.is_break()
        }
        Algorithm::Canonical => {
            let (rgss, truncated) = canonical_solutions(&g.general, budget);
            for rename in rgss.iter().filter_map(|r| sk.rename_for_rgs(g, r)) {
                frags.push(|row| {
                    for (name, (_, n)) in row.iter_mut().zip(rename) {
                        *name = n;
                    }
                });
            }
            truncated
        }
        Algorithm::Naive => {
            let mut truncated = false;
            for filling in Fillings::new(&g.general) {
                if frags.len >= budget {
                    truncated = true;
                    break;
                }
                frags.push(|row| {
                    for (name, &var_idx) in row.iter_mut().zip(&filling) {
                        *name = sk.var_name(g.vars[var_idx]);
                    }
                });
            }
            truncated
        }
    };
    (frags, truncated)
}

/// Sharded enumeration over a skeleton's variant space.
///
/// The variant space is the lexicographic Cartesian product of per-group
/// solution lists, each of which is an RGS-ordered slice of constrained
/// set-partition space (§4.1.2 of the paper). [`ShardedEnumerator`] cuts
/// the product's emission-index space `[0, total)` into `K` contiguous,
/// disjoint, near-even shards with [`spe_combinatorics::even_ranges`],
/// the same cut fleet hosts use for their job slices. A caller
/// [`prepare`](Self::prepare)s a skeleton's space once and streams any
/// shard of it, from any thread, through
/// [`enumerate_shard_prepared`](Self::enumerate_shard_prepared) — the
/// campaign orchestrator (`spe_harness`) does exactly that, one job per
/// (file, shard).
///
/// A shard resumes mid-space through exact unranking of its first
/// emission index (mixed-radix over the groups, then closed-form or DP
/// RGS unranking within a group), so no shard ever touches another
/// shard's variants. Emission indices are globally stable: variant `i`
/// of a sharded run is byte-identical to variant `i` of a serial
/// [`Enumerator`] run, which makes the shards, concatenated in order,
/// exactly the serial sequence — no duplicates, no gaps — for every
/// [`Algorithm`] variant.
///
/// # Examples
///
/// ```
/// use spe_core::{Enumerator, EnumeratorConfig, ShardedEnumerator, Skeleton};
/// use std::ops::ControlFlow;
///
/// let sk = Skeleton::from_source(
///     "int main() { int a, b = 1; b = b - a; if (a) a = a - b; return 0; }",
/// )?;
/// let serial = Enumerator::new(EnumeratorConfig::default()).collect_sources(&sk);
/// let sharded = ShardedEnumerator::new(EnumeratorConfig::default(), 4);
/// let space = sharded.prepare(&sk);
/// let mut merged = Vec::new();
/// for shard in 0..sharded.shards() {
///     sharded.enumerate_shard_prepared(&space, shard, &mut |v| {
///         merged.push(v.source(&sk));
///         ControlFlow::Continue(())
///     });
/// }
/// assert_eq!(serial, merged);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShardedEnumerator {
    config: EnumeratorConfig,
    shards: usize,
}

/// A skeleton's variant space, produced by [`ShardedEnumerator::prepare`].
/// Building it is the expensive part of enumeration setup; one
/// `VariantSpace` can feed any number of shard streams, from any thread,
/// without repeating that work.
///
/// The space is the identity filling plus one solution space per type
/// group, and every stream runs one mixed-radix odometer over those
/// groups. A group space comes in two kinds:
///
/// * **listed** — the group's solution list, materialized and capped by
///   the budget. The paper, orbit and naive algorithms list every group,
///   and so does the serial [`Enumerator`];
/// * **shard-native** — for [`Algorithm::Canonical`], a group that
///   admits *cheap* budget-capped prefix counts (`num_vars <= 128` and
///   the counting DP, capped at `budget + 1`, within the crate-internal
///   state limit) is only sized: in closed form
///   ([`spe_combinatorics::partitions_at_most`]) when unconstrained,
///   through the capped prefix-count DP
///   ([`spe_combinatorics::ConstrainedRgs`], `DESIGN.md §8`) otherwise.
///   A stream lands on a solution by exact unranking and walks on from
///   there through [`spe_combinatorics::enumerate_canonical_from`], so
///   per-shard cost is proportional to the shard, not the whole space.
///
/// The choice is all-or-nothing: `prepare` makes every group of a
/// canonical space shard-native when every group qualifies —
/// constrained, multi-group skeletons included — and lists every group
/// otherwise.
#[derive(Debug, Clone)]
pub struct VariantSpace {
    /// The identity filling, also the scratch-vector prototype.
    base: Vec<NameId>,
    /// One space per type group, in unit order; the last group is the
    /// odometer's least significant digit.
    groups: Vec<GroupSpace>,
    truncated: bool,
    /// Whether `prepare`'s canonical gate engaged.
    native: bool,
}

/// One type group's solution space. Both kinds apply the same solutions
/// in the same order with the same names.
#[derive(Debug, Clone)]
enum GroupSpace {
    Listed(Fragments),
    Native(NativeGroup),
}

/// A shard-native canonical group: its budget-capped size plus
/// everything needed to turn an RGS into a rename vector without
/// consulting the skeleton.
#[derive(Debug, Clone)]
struct NativeGroup {
    general: GeneralInstance,
    /// The solution-list length the listed group would have: the exact
    /// size of the group's canonical space, capped by the budget at
    /// prepare time.
    size: u64,
    /// The count cap the gate sized a constrained group with
    /// (`budget + 1`). Stream unrankers use it too, so they visit only
    /// the DP states the gate's state bound already covered.
    cap: u64,
    /// Every hole sees the whole variable set: group-local indices
    /// unrank in closed form ([`rgs_unrank`]) and the SDR assignment is
    /// the top-`m`-ascending rule; otherwise the prefix-count DP
    /// ([`ConstrainedRgs`]) unranks and [`assignment_for_rgs`] assigns.
    unconstrained: bool,
    /// Hole index (into [`Skeleton::holes`]) of each instance position.
    holes: Vec<u32>,
    /// Interned names of the group's variables, in variable order.
    var_names: Vec<NameId>,
}

impl NativeGroup {
    /// Unranks a group-local solution index into its RGS, lazily
    /// creating the DP unranker for constrained groups.
    fn unrank<'a>(&'a self, dp: &mut Option<ConstrainedRgs<'a>>, index: u64) -> Vec<usize> {
        if self.unconstrained {
            rgs_unrank(self.general.num_holes(), self.general.num_vars, index)
        } else {
            dp.get_or_insert_with(|| ConstrainedRgs::new(&self.general, self.cap))
                .unrank(index)
        }
    }

    /// Overwrites this group's holes of a full rename vector with the
    /// realization of `rgs`, replicating the materialized path's SDR
    /// choice so outputs stay byte-identical: an unconstrained `m`-block
    /// partition takes the top `m` variables in ascending block order
    /// (what [`assignment_for_rgs`]'s augmenting-path matching settles
    /// on when every mask is full), and constrained partitions run the
    /// matching itself.
    fn apply(&self, rgs: &[usize], names: &mut [NameId]) {
        if self.unconstrained {
            let blocks = rgs.iter().copied().max().map_or(0, |b| b + 1);
            let k = self.general.num_vars;
            for (pos, &b) in rgs.iter().enumerate() {
                names[self.holes[pos] as usize] = self.var_names[k - blocks + b];
            }
        } else {
            let assign = assignment_for_rgs(&self.general, rgs)
                .expect("canonical solutions always admit an SDR");
            for (pos, &b) in rgs.iter().enumerate() {
                names[self.holes[pos] as usize] = self.var_names[assign[b]];
            }
        }
    }
}

impl GroupSpace {
    /// Number of solutions: this group's radix in the emission-index
    /// space.
    fn size(&self) -> u64 {
        match self {
            GroupSpace::Listed(list) => list.len as u64,
            GroupSpace::Native(group) => group.size,
        }
    }

    /// Lands this group's holes on solution `i`: a list lookup, or
    /// closed-form or DP unranking. `dp` is the stream's unranker slot
    /// for this group, which only a constrained native group fills.
    fn seek<'a>(&'a self, dp: &mut Option<ConstrainedRgs<'a>>, i: u64, names: &mut [NameId]) {
        match self {
            GroupSpace::Listed(list) => list.apply(i as usize, names),
            GroupSpace::Native(group) => group.apply(&group.unrank(dp, i), names),
        }
    }

    /// Applies solutions `from..size` to `variant` in order, calling
    /// `step` after each, and returns `Break` as soon as `step` does.
    /// A native group unranks `from` once and walks on from there.
    fn walk<'a, S>(
        &'a self,
        dp: &mut Option<ConstrainedRgs<'a>>,
        from: u64,
        variant: &mut Variant,
        step: &mut S,
    ) -> ControlFlow<()>
    where
        S: FnMut(&mut Variant) -> ControlFlow<()>,
    {
        match self {
            GroupSpace::Listed(list) => {
                for i in from as usize..list.len {
                    list.apply(i, &mut variant.names);
                    step(variant)?;
                }
                ControlFlow::Continue(())
            }
            GroupSpace::Native(group) => {
                let lower = if from == 0 {
                    Vec::new()
                } else {
                    group.unrank(dp, from)
                };
                let mut left = group.size - from;
                let mut flow = ControlFlow::Continue(());
                let _ = enumerate_canonical_from(&group.general, &lower, &mut |rgs| {
                    if left == 0 {
                        // The budget capped this group's list: skip the
                        // tail, exactly as the listed group does.
                        return ControlFlow::Break(());
                    }
                    left -= 1;
                    group.apply(rgs, &mut variant.names);
                    flow = step(variant);
                    flow
                });
                flow
            }
        }
    }
}

/// A stream's position in one group: its current solution and the
/// group's DP unranker, built on first use.
struct Cursor<'a> {
    digit: u64,
    dp: Option<ConstrainedRgs<'a>>,
}

impl VariantSpace {
    /// A space of `groups`, each paired with whether the budget cut its
    /// solutions short.
    fn new(
        sk: &Skeleton,
        groups: impl IntoIterator<Item = (GroupSpace, bool)>,
        native: bool,
    ) -> VariantSpace {
        let mut space = VariantSpace {
            // The identity filling: every hole keeps its variable's name.
            base: sk.holes().iter().map(|h| sk.var_name(h.var)).collect(),
            groups: Vec::new(),
            truncated: false,
            native,
        };
        for (group, truncated) in groups {
            space.groups.push(group);
            space.truncated |= truncated;
        }
        space
    }

    /// The all-listed space: every group's solution list materialized,
    /// each capped by the budget (if a single group exceeds it, the
    /// product does too).
    fn listed(config: &EnumeratorConfig, sk: &Skeleton, units: &[Unit]) -> VariantSpace {
        let groups = units.iter().flat_map(|u| &u.groups).map(|g| {
            let (list, truncated) = group_fragments(config, sk, g);
            (GroupSpace::Listed(list), truncated)
        });
        VariantSpace::new(sk, groups, false)
    }

    /// Number of variants that enumeration will emit under `budget`.
    pub fn total(&self, budget: usize) -> u64 {
        let mut truncated = self.truncated;
        self.total_with(budget, &mut truncated)
    }

    /// The product of the group sizes, capped by the budget (the cap sets
    /// `truncated`). A group with no solutions, which a well-formed
    /// skeleton never has since each hole's own variable is allowed,
    /// collapses the product to zero.
    fn total_with(&self, budget: usize, truncated: &mut bool) -> u64 {
        let product: u128 = self
            .groups
            .iter()
            .map(|g| g.size() as u128)
            .fold(1u128, u128::saturating_mul);
        if product > budget as u128 {
            *truncated = true;
        }
        product.min(budget as u128) as u64
    }

    /// Whether any group's solution list was cut short by the budget.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Whether the space uses the shard-native canonical representation —
    /// i.e. no per-group solution list was (or will be) materialized and
    /// shards index the space by exact counting alone.
    pub fn is_shard_native(&self) -> bool {
        self.native
    }

    /// Streams the variants with emission indices in `range` through
    /// `visit`, in index order, by one mixed-radix odometer over the
    /// groups, last group least significant. The digits of `range.start`
    /// seek every group to its solution, so a shard starts mid-space
    /// without touching earlier variants. The innermost group then walks
    /// its solutions; each time it wraps, the outer digits carry and only
    /// the groups whose digit changed seek again. One `Variant` is
    /// mutated in place across the whole stream. Returns the number of
    /// variants emitted and whether the visitor broke the stream.
    fn stream_range<F>(&self, range: Range<u64>, visit: &mut F) -> (u64, bool)
    where
        F: FnMut(&Variant) -> ControlFlow<()>,
    {
        if range.is_empty() {
            return (0, false);
        }
        let mut variant = Variant {
            index: range.start,
            names: self.base.clone(),
        };
        let Some((inner, outer)) = self.groups.split_last() else {
            // No holes: the space is exactly the identity variant.
            return (1, visit(&variant).is_break());
        };
        let mut cursors: Vec<Cursor> = (0..self.groups.len())
            .map(|_| Cursor { digit: 0, dp: None })
            .collect();
        // The start index's digits. A non-empty range lies inside the
        // product, so no group size is zero.
        let mut rest = range.start;
        for (group, at) in self.groups.iter().zip(&mut cursors).rev() {
            at.digit = rest % group.size();
            rest /= group.size();
        }
        let (inner_at, outer_at) = cursors.split_last_mut().expect("one cursor per group");
        for (group, at) in outer.iter().zip(outer_at.iter_mut()) {
            group.seek(&mut at.dp, at.digit, &mut variant.names);
        }
        let wanted = range.end - range.start;
        let mut emitted = 0u64;
        let mut broke = false;
        'odometer: loop {
            let flow = inner.walk(&mut inner_at.dp, inner_at.digit, &mut variant, &mut |v| {
                v.index = range.start + emitted;
                emitted += 1;
                broke = visit(v).is_break();
                if broke || emitted == wanted {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            if flow.is_break() {
                return (emitted, broke);
            }
            // The innermost group wrapped: carry into the outer digits.
            inner_at.digit = 0;
            for (group, at) in outer.iter().zip(outer_at.iter_mut()).rev() {
                at.digit = (at.digit + 1) % group.size();
                group.seek(&mut at.dp, at.digit, &mut variant.names);
                if at.digit != 0 {
                    continue 'odometer;
                }
            }
            // The whole product is exhausted; only reachable when the
            // range overshoots the space.
            return (emitted, false);
        }
    }
}

/// Per-group ceiling on constrained-counting DP states before
/// [`native_group`] gives up and `prepare` lists every group instead.
/// The DP counts up to `budget + 1` and expands no state past the point
/// where that cap is reached, so its state count tracks the distinct
/// block-mask multisets the constraint structure produces within the
/// budget's reach: small for the corpus, even for shapes such as dozens
/// of interleaved declaration-order prefixes whose exact count would
/// need far more states. A successful in-limit count also bounds every
/// later boundary unrank (unranking at the same cap reads only states
/// the count memoized), so the gate decision covers stream time too.
const NATIVE_COUNT_STATE_LIMIT: usize = 1 << 14;

/// Sizes one type group shard-natively when it admits *cheap* capped
/// prefix counts: its variables fit the 128-bit constraint masks and the
/// counting DP, capped at `budget + 1`, stays within
/// [`NATIVE_COUNT_STATE_LIMIT`] states. An unconstrained group (every
/// hole sees the whole variable set — the Bell-number regime) is sized
/// in closed form, a constrained one by the capped prefix-count DP
/// ([`ConstrainedRgs`]). The cap is one past the budget because a space
/// of exactly `budget` solutions is not truncated and a larger one is: a
/// count of `budget + 1` tells them apart, and nothing beyond it
/// matters. Returns the group and whether the budget cuts its solutions
/// short (the listed group's `truncated` flag), or `None` when the group
/// fails either condition. See `DESIGN.md §8` for the gate conditions
/// and the DP itself.
fn native_group(
    config: &EnumeratorConfig,
    sk: &Skeleton,
    g: &TypeGroup,
) -> Option<(NativeGroup, bool)> {
    let budget = config.budget as u64;
    let cap = budget.saturating_add(1);
    let k = g.general.num_vars;
    if k == 0 || k > 128 {
        return None;
    }
    let unconstrained = g.is_unconstrained();
    let count = if unconstrained {
        partitions_at_most(g.general.num_holes() as u32, k as u32)
            .to_u64()
            .map_or(cap, |c| c.min(cap))
    } else {
        ConstrainedRgs::new(&g.general, cap).try_total_within(NATIVE_COUNT_STATE_LIMIT)?
    };
    let group = NativeGroup {
        general: g.general.clone(),
        size: count.min(budget),
        cap,
        unconstrained,
        holes: g.holes.iter().map(|&h| h as u32).collect(),
        var_names: g.vars.iter().map(|&v| sk.var_name(v)).collect(),
    };
    Some((group, count > budget))
}

impl ShardedEnumerator {
    /// Creates a sharded enumerator cutting the space into `shards` parts.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(config: EnumeratorConfig, shards: usize) -> ShardedEnumerator {
        assert!(shards > 0, "at least one shard is required");
        ShardedEnumerator { config, shards }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EnumeratorConfig {
        &self.config
    }

    /// Number of shards the space is cut into.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The emission-index ranges of each shard of a prepared space:
    /// `shards()` contiguous, disjoint ranges exactly covering
    /// `[0, total)`, sized within one variant of each other
    /// ([`spe_combinatorics::even_ranges`]). Ranges can be empty when the
    /// space is smaller than the shard count.
    pub fn shard_ranges_prepared(&self, space: &VariantSpace) -> Vec<Range<u64>> {
        self.ranges_for_total(space.total(self.config.budget))
    }

    /// Builds the skeleton's variant space once, for repeated (or
    /// cross-thread) shard streaming without rebuilding it per shard —
    /// the worker-pool entry point: prepare per file, then stream any
    /// shard from any thread via
    /// [`ShardedEnumerator::enumerate_shard_prepared`].
    ///
    /// For [`Algorithm::Canonical`], each type group goes through the
    /// native gate (the 128-variable constraint-mask width and the
    /// counting-DP state limit). When every group passes — constrained and
    /// multi-group skeletons included — nothing is materialized: shards
    /// later walk their own slice natively, so preparation costs only the
    /// per-group counts, each capped one past the budget, never the space
    /// size. When any group fails, every group is listed, as for the other
    /// algorithms.
    pub fn prepare(&self, sk: &Skeleton) -> VariantSpace {
        let units = sk.units(self.config.granularity);
        if self.config.algorithm == Algorithm::Canonical {
            let native: Option<Vec<_>> = units
                .iter()
                .flat_map(|u| &u.groups)
                .map(|g| {
                    let (group, truncated) = native_group(&self.config, sk, g)?;
                    Some((GroupSpace::Native(group), truncated))
                })
                .collect();
            if let Some(groups) = native {
                return VariantSpace::new(sk, groups, true);
            }
        }
        VariantSpace::listed(&self.config, sk, &units)
    }

    /// Streams one shard of a prepared space serially through `visit`,
    /// in emission order. `emitted` counts this shard's variants;
    /// `truncated` reports the global budget cut or an early break,
    /// exactly as for [`Enumerator::enumerate`].
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shards()`.
    pub fn enumerate_shard_prepared<F>(
        &self,
        space: &VariantSpace,
        shard: usize,
        visit: &mut F,
    ) -> EnumerationOutcome
    where
        F: FnMut(&Variant) -> ControlFlow<()>,
    {
        self.enumerate_shard_resumed_prepared(space, shard, 0, visit)
    }

    /// Streams one shard of a prepared space **starting `skip` variants
    /// past the shard's lower boundary** — the checkpoint-resume entry
    /// point (`spe_harness::checkpoint`, `DESIGN.md` §9): a worker that
    /// recorded an emission-index high-water mark re-seeds the shard here
    /// via the same exact unranking shard starts use (mixed-radix
    /// odometer decomposition, closed-form or DP RGS unranking), so
    /// nothing before the mark is re-enumerated.
    ///
    /// Variants and their global emission indices are byte-identical to
    /// the tail of [`enumerate_shard_prepared`](Self::enumerate_shard_prepared)
    /// after its first `skip` variants; `skip >=` the shard size streams
    /// nothing. `emitted` counts only the variants streamed by this call.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shards()`.
    pub fn enumerate_shard_resumed_prepared<F>(
        &self,
        space: &VariantSpace,
        shard: usize,
        skip: u64,
        visit: &mut F,
    ) -> EnumerationOutcome
    where
        F: FnMut(&Variant) -> ControlFlow<()>,
    {
        assert!(shard < self.shards, "shard {shard} out of {}", self.shards);
        let mut truncated = space.truncated;
        let total = space.total_with(self.config.budget, &mut truncated);
        let range = self.ranges_for_total(total).swap_remove(shard);
        let start = range.start.saturating_add(skip).min(range.end);
        let (emitted, broke) = space.stream_range(start..range.end, visit);
        EnumerationOutcome {
            emitted,
            truncated: truncated || broke,
        }
    }

    /// The shard ranges of a space emitting `total` variants. `total`
    /// never exceeds the `usize` budget, so the conversions are exact.
    fn ranges_for_total(&self, total: u64) -> Vec<Range<u64>> {
        even_ranges(total as usize, self.shards)
            .into_iter()
            .map(|r| r.start as u64..r.end as u64)
            .collect()
    }
}

/// Closed-form count of the paper's enumeration for a whole skeleton: the
/// product of `paper_count` over all units and type groups.
///
/// ```
/// use spe_core::{spe_count, Granularity, Skeleton};
/// let sk = Skeleton::from_source("int a, b; void f() { a = b; b = a; a = a; }").unwrap();
/// // 6 holes over 2 global variables: {6 1} + {6 2} = 32.
/// assert_eq!(spe_count(&sk, Granularity::Intra).to_u64(), Some(32));
/// ```
pub fn spe_count(sk: &Skeleton, granularity: Granularity) -> BigUint {
    let mut acc = BigUint::one();
    for u in sk.units(granularity) {
        for g in &u.groups {
            acc *= &spe_combinatorics::paper_count(&g.flat);
        }
    }
    acc
}

/// Closed-form count of the naive enumeration (§3.1): `∏_i |v_i|` over all
/// holes.
///
/// ```
/// use spe_core::{naive_count, Granularity, Skeleton};
/// let sk = Skeleton::from_source("int a, b; void f() { a = b; }").unwrap();
/// assert_eq!(naive_count(&sk, Granularity::Intra).to_u64(), Some(4));
/// ```
pub fn naive_count(sk: &Skeleton, granularity: Granularity) -> BigUint {
    let mut acc = BigUint::one();
    for u in sk.units(granularity) {
        for g in &u.groups {
            acc *= &g.general.naive_count();
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1() -> Skeleton {
        Skeleton::from_source("int main() { int a, b = 1; b = b - a; if (a) a = a - b; return 0; }")
            .expect("builds")
    }

    #[test]
    fn figure1_counts() {
        let sk = fig1();
        assert_eq!(naive_count(&sk, Granularity::Intra).to_u64(), Some(128));
        assert_eq!(spe_count(&sk, Granularity::Intra).to_u64(), Some(64));
    }

    #[test]
    fn enumeration_matches_closed_form() {
        let sk = fig1();
        let e = Enumerator::new(EnumeratorConfig::default());
        let outcome = e.enumerate(&sk, &mut |_| ControlFlow::Continue(()));
        assert_eq!(outcome.emitted, 64);
        assert!(!outcome.truncated);
    }

    #[test]
    fn naive_enumeration_matches_naive_count() {
        let sk = fig1();
        let e = Enumerator::new(EnumeratorConfig {
            algorithm: Algorithm::Naive,
            ..Default::default()
        });
        let outcome = e.enumerate(&sk, &mut |_| ControlFlow::Continue(()));
        assert_eq!(outcome.emitted, 128);
    }

    #[test]
    fn all_variants_parse_and_are_distinct() {
        let sk = fig1();
        for algorithm in [
            Algorithm::Paper,
            Algorithm::Canonical,
            Algorithm::Orbit,
            Algorithm::Naive,
        ] {
            let e = Enumerator::new(EnumeratorConfig {
                algorithm,
                ..Default::default()
            });
            let sources = e.collect_sources(&sk);
            let mut seen = std::collections::HashSet::new();
            for s in &sources {
                Skeleton::from_source(s)
                    .unwrap_or_else(|err| panic!("{algorithm:?} emitted invalid code: {err}\n{s}"));
                assert!(seen.insert(s.clone()), "{algorithm:?} duplicate:\n{s}");
            }
        }
    }

    #[test]
    fn algorithm_ordering_on_single_scope() {
        // With a single (global) scope all three reduced enumerators
        // agree.
        let sk = fig1();
        let count = |a: Algorithm| {
            Enumerator::new(EnumeratorConfig {
                algorithm: a,
                ..Default::default()
            })
            .enumerate(&sk, &mut |_| ControlFlow::Continue(()))
            .emitted
        };
        assert_eq!(count(Algorithm::Paper), 64);
        assert_eq!(count(Algorithm::Canonical), 64);
        assert_eq!(count(Algorithm::Orbit), 64);
        assert_eq!(count(Algorithm::Naive), 128);
    }

    #[test]
    fn scoped_program_algorithm_relations() {
        // Figure 6-like program: canonical <= paper <= orbit <= naive.
        let sk = Skeleton::from_source(
            r#"
            int main() {
                int a = 1, b = 0;
                if (a) {
                    int c = 3, d = 5;
                    b = c + d;
                }
                printf("%d", a);
                printf("%d", b);
                return 0;
            }
            "#,
        )
        .expect("builds");
        let count = |a: Algorithm| {
            Enumerator::new(EnumeratorConfig {
                algorithm: a,
                budget: 1_000_000,
                ..Default::default()
            })
            .enumerate(&sk, &mut |_| ControlFlow::Continue(()))
            .emitted
        };
        let (c, p, o, n) = (
            count(Algorithm::Canonical),
            count(Algorithm::Paper),
            count(Algorithm::Orbit),
            count(Algorithm::Naive),
        );
        assert!(c <= p, "canonical {c} <= paper {p}");
        assert!(p <= o, "paper {p} <= orbit {o}");
        assert!(o <= n, "orbit {o} <= naive {n}");
        // Holes: a(if), b(lhs), c, d, a(printf), b(printf) with allowed
        // sizes 2, 4, 4, 4, 2, 2 -> naive = 2^3 · 4^3 = 512.
        assert_eq!(n, 512);
    }

    #[test]
    fn budget_truncates_product() {
        let sk = fig1();
        let e = Enumerator::new(EnumeratorConfig {
            budget: 10,
            ..Default::default()
        });
        let outcome = e.enumerate(&sk, &mut |_| ControlFlow::Continue(()));
        assert_eq!(outcome.emitted, 10);
        assert!(outcome.truncated);
    }

    #[test]
    fn visitor_break_stops_early() {
        let sk = fig1();
        let e = Enumerator::new(EnumeratorConfig::default());
        let mut n = 0;
        let outcome = e.enumerate(&sk, &mut |_| {
            n += 1;
            if n == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(outcome.emitted, 3);
        assert!(outcome.truncated);
    }

    #[test]
    fn multi_function_product() {
        let sk = Skeleton::from_source("int g, h; void f() { g = h; } void k() { h = g; }")
            .expect("builds");
        // Each function: 2 holes over 2 globals -> {2 1} + {2 2} = 2; the
        // intra product is 4.
        assert_eq!(spe_count(&sk, Granularity::Intra).to_u64(), Some(4));
        // Inter: all 4 holes in one unit -> {4 1} + {4 2} = 8.
        assert_eq!(spe_count(&sk, Granularity::Inter).to_u64(), Some(8));
        let e = Enumerator::new(EnumeratorConfig::default());
        assert_eq!(e.collect_sources(&sk).len(), 4);
    }

    #[test]
    fn multi_type_product() {
        let sk = Skeleton::from_source("int a, b; double x, y; void f() { a = b; x = y; }")
            .expect("builds");
        // Each type group: 2 holes over 2 vars -> 2; product 4.
        assert_eq!(spe_count(&sk, Granularity::Intra).to_u64(), Some(4));
    }

    #[test]
    fn original_program_is_among_naive_variants() {
        // The naive enumeration contains the identity filling verbatim.
        let sk = fig1();
        let original = sk.source();
        let e = Enumerator::new(EnumeratorConfig {
            algorithm: Algorithm::Naive,
            ..Default::default()
        });
        let sources = e.collect_sources(&sk);
        assert!(
            sources.contains(&original),
            "the identity filling must be enumerated"
        );
    }

    /// Serial reference: (index, source) pairs in emission order.
    fn serial_sequence(sk: &Skeleton, config: EnumeratorConfig) -> Vec<(u64, String)> {
        let mut out = Vec::new();
        Enumerator::new(config).enumerate(sk, &mut |v| {
            out.push((v.index, v.source(sk)));
            ControlFlow::Continue(())
        });
        out
    }

    /// Streams every shard of one prepared space in shard order, as the
    /// campaign orchestrator does: the concatenated sources plus the
    /// shards' summed outcome.
    fn sharded_sources(
        sharded: &ShardedEnumerator,
        sk: &Skeleton,
    ) -> (Vec<String>, EnumerationOutcome) {
        let space = sharded.prepare(sk);
        let mut sources = Vec::new();
        let mut outcome = EnumerationOutcome {
            emitted: 0,
            truncated: false,
        };
        for shard in 0..sharded.shards() {
            let o = sharded.enumerate_shard_prepared(&space, shard, &mut |v| {
                sources.push(v.source(sk));
                ControlFlow::Continue(())
            });
            outcome.emitted += o.emitted;
            outcome.truncated |= o.truncated;
        }
        (sources, outcome)
    }

    fn fig6() -> Skeleton {
        Skeleton::from_source(
            r#"
            int main() {
                int a = 1, b = 0;
                if (a) {
                    int c = 3, d = 5;
                    b = c + d;
                }
                printf("%d", a);
                printf("%d", b);
                return 0;
            }
            "#,
        )
        .expect("builds")
    }

    #[test]
    fn shard_union_is_exactly_the_serial_sequence_for_every_algorithm() {
        // The union of all shards must enumerate exactly the serial
        // sequence — no duplicates, no gaps — for every Algorithm variant
        // and several shard counts, on both a flat and a scoped skeleton.
        for sk in [fig1(), fig6()] {
            for algorithm in [
                Algorithm::Paper,
                Algorithm::Canonical,
                Algorithm::Orbit,
                Algorithm::Naive,
            ] {
                let config = EnumeratorConfig {
                    algorithm,
                    budget: 1_000_000,
                    ..Default::default()
                };
                let serial = serial_sequence(&sk, config);
                for shards in [1usize, 2, 3, 4, 7, 8] {
                    let sharded = ShardedEnumerator::new(config, shards);
                    let space = sharded.prepare(&sk);
                    let mut union: Vec<(u64, String)> = Vec::new();
                    for shard in 0..shards {
                        sharded.enumerate_shard_prepared(&space, shard, &mut |v| {
                            union.push((v.index, v.source(&sk)));
                            ControlFlow::Continue(())
                        });
                    }
                    assert_eq!(
                        union, serial,
                        "{algorithm:?} with {shards} shards diverged from serial"
                    );
                }
            }
        }
    }

    #[test]
    fn shard_ranges_cover_the_space_without_overlap() {
        let sk = fig1();
        for shards in 1..=9usize {
            let e = ShardedEnumerator::new(EnumeratorConfig::default(), shards);
            let ranges = e.shard_ranges_prepared(&e.prepare(&sk));
            assert_eq!(ranges.len(), shards);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[ranges.len() - 1].end, 64);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "gap or overlap at {w:?}");
            }
            // Near-even: sizes differ by at most one variant.
            let sizes: Vec<u64> = ranges.iter().map(|r| r.end - r.start).collect();
            let min = sizes.iter().min().expect("non-empty");
            let max = sizes.iter().max().expect("non-empty");
            assert!(max - min <= 1, "uneven shard sizes {sizes:?}");
        }
    }

    #[test]
    fn sharded_collect_sources_is_byte_identical_to_serial() {
        for sk in [fig1(), fig6()] {
            let serial = Enumerator::new(EnumeratorConfig::default()).collect_sources(&sk);
            for shards in [2usize, 4, 8] {
                let merged = sharded_sources(
                    &ShardedEnumerator::new(EnumeratorConfig::default(), shards),
                    &sk,
                )
                .0;
                assert_eq!(serial, merged, "{shards} shards");
            }
        }
    }

    #[test]
    fn sharded_budget_truncation_matches_serial() {
        let sk = fig1();
        let config = EnumeratorConfig {
            budget: 10,
            ..Default::default()
        };
        let serial = Enumerator::new(config).collect_sources(&sk);
        assert_eq!(serial.len(), 10);
        let (sources, outcome) = sharded_sources(&ShardedEnumerator::new(config, 4), &sk);
        assert_eq!(sources, serial);
        assert_eq!(outcome.emitted, 10);
        assert!(outcome.truncated);
    }

    #[test]
    fn canonical_native_shards_match_serial_on_a_bell_space() {
        // Five same-type function-top locals, every hole seeing all five:
        // the shard-native canonical path applies (single unconstrained
        // group, Bell-number space) and must be byte-identical to the
        // serial (fully materialized) enumerator, per shard and merged.
        let sk = Skeleton::from_source(
            "int main() { int a, b, c, d, e; a = b + c; d = e + a; b = c + d; e = a; return 0; }",
        )
        .expect("builds");
        let config = EnumeratorConfig {
            algorithm: Algorithm::Canonical,
            budget: 1_000_000,
            ..Default::default()
        };
        let serial = serial_sequence(&sk, config);
        assert!(serial.len() > 100, "space large enough to matter");
        for shards in [2usize, 3, 5, 8] {
            let sharded = ShardedEnumerator::new(config, shards);
            let space = sharded.prepare(&sk);
            let mut union: Vec<(u64, String)> = Vec::new();
            for shard in 0..shards {
                sharded.enumerate_shard_prepared(&space, shard, &mut |v| {
                    union.push((v.index, v.source(&sk)));
                    ControlFlow::Continue(())
                });
            }
            assert_eq!(union, serial, "{shards} shards diverged");
        }
    }

    #[test]
    fn canonical_native_budget_truncation_matches_serial() {
        // The native path must clamp to the budget exactly where the
        // materialized serial path does.
        let sk = fig1();
        for budget in [1usize, 7, 10, 63, 64, 100] {
            let config = EnumeratorConfig {
                algorithm: Algorithm::Canonical,
                budget,
                ..Default::default()
            };
            let serial = Enumerator::new(config).collect_sources(&sk);
            let sharded = ShardedEnumerator::new(config, 4);
            let (sources, outcome) = sharded_sources(&sharded, &sk);
            assert_eq!(sources, serial, "budget {budget}");
            assert_eq!(
                sharded.prepare(&sk).truncated(),
                budget < 64,
                "budget {budget}"
            );
            assert_eq!(outcome.emitted, serial.len() as u64);
            assert_eq!(outcome.truncated, budget < 64, "budget {budget}");
        }
    }

    /// A constrained, multi-group skeleton: two functions, two types,
    /// nested scopes and declaration-order effects — three type groups,
    /// two of them constrained. This is the regime the materialized
    /// fallback used to own.
    fn constrained_multi_group() -> Skeleton {
        Skeleton::from_source(
            r#"
            int g;
            int main() {
                int a = 1, b = 0;
                double x, y;
                if (a) {
                    int c;
                    c = a + b;
                    x = y;
                }
                g = b;
                return 0;
            }
            void helper() {
                int u, v;
                u = v + g;
            }
            "#,
        )
        .expect("builds")
    }

    #[test]
    fn constrained_multi_group_takes_the_native_path() {
        let sk = constrained_multi_group();
        let config = EnumeratorConfig {
            algorithm: Algorithm::Canonical,
            budget: 1_000_000,
            ..Default::default()
        };
        let space = ShardedEnumerator::new(config, 4).prepare(&sk);
        assert!(
            space.is_shard_native(),
            "the constrained gate must engage — no solution list materialized"
        );
        // Sanity: the skeleton really is constrained and multi-group.
        let units = sk.units(Granularity::Intra);
        let groups: Vec<_> = units.iter().flat_map(|u| u.groups.iter()).collect();
        assert!(groups.len() >= 3, "got {} groups", groups.len());
        assert!(
            groups.iter().any(|g| !g.is_unconstrained()),
            "at least one group must be constrained"
        );
    }

    #[test]
    fn constrained_native_shards_are_byte_identical_to_serial() {
        // The serial Enumerator is the materialized path, so this pins
        // the native walk against both the materialized product and
        // serial enumeration at once.
        let sk = constrained_multi_group();
        let config = EnumeratorConfig {
            algorithm: Algorithm::Canonical,
            budget: 1_000_000,
            ..Default::default()
        };
        let serial = serial_sequence(&sk, config);
        assert!(serial.len() > 100, "space large enough to matter");
        for shards in [1usize, 2, 4, 8, 16] {
            let sharded = ShardedEnumerator::new(config, shards);
            let space = sharded.prepare(&sk);
            assert!(space.is_shard_native());
            let mut union: Vec<(u64, String)> = Vec::new();
            for shard in 0..shards {
                sharded.enumerate_shard_prepared(&space, shard, &mut |v| {
                    union.push((v.index, v.source(&sk)));
                    ControlFlow::Continue(())
                });
            }
            assert_eq!(union, serial, "{shards} shards diverged");
        }
    }

    #[test]
    fn constrained_native_budget_truncation_matches_serial() {
        // Budgets below a single group's count (per-group truncation),
        // between group counts and product, and above the product must
        // all clamp the native walk exactly where the materialized
        // serial path clamps.
        let sk = constrained_multi_group();
        let full = Enumerator::new(EnumeratorConfig {
            algorithm: Algorithm::Canonical,
            budget: 1_000_000,
            ..Default::default()
        })
        .collect_sources(&sk)
        .len();
        assert!(full > 100 && full < 10_000, "untruncated space, got {full}");
        for budget in [1usize, 2, 5, 10, 33, 100, full - 1, full, full + 7] {
            let config = EnumeratorConfig {
                algorithm: Algorithm::Canonical,
                budget,
                ..Default::default()
            };
            let serial = Enumerator::new(config).collect_sources(&sk);
            for shards in [2usize, 4, 8] {
                let sharded = ShardedEnumerator::new(config, shards);
                assert!(sharded.prepare(&sk).is_shard_native());
                let (sources, outcome) = sharded_sources(&sharded, &sk);
                assert_eq!(sources, serial, "budget {budget}, {shards} shards");
                assert_eq!(outcome.emitted, serial.len() as u64, "budget {budget}");
                assert_eq!(outcome.truncated, budget < full, "budget {budget}");
            }
        }
    }

    #[test]
    fn pathological_constraint_structures_take_the_capped_native_path() {
        // Dozens of interleaved declaration-order prefixes give every
        // hole a distinct allowed set; the exact-counting DP's state
        // space explodes (past 16K states), while the DP capped one past
        // the budget needs about a hundred. The gate must size it that
        // way and take the native path — which must still be
        // byte-identical across shards.
        let mut body = String::new();
        for i in 0..24 {
            body.push_str(&format!("int v{i}; v{i} = {i};\n"));
        }
        for i in 1..24 {
            body.push_str(&format!("v{i} = v{i} + v{};\n", i - 1));
        }
        let sk = Skeleton::from_source(&format!("void f() {{\n{body}}}\n")).expect("builds");
        let config = EnumeratorConfig {
            algorithm: Algorithm::Canonical,
            budget: 200,
            ..Default::default()
        };
        let start = std::time::Instant::now();
        let sharded = ShardedEnumerator::new(config, 4);
        let space = sharded.prepare(&sk);
        assert!(
            space.is_shard_native(),
            "the capped count must stay within the gate's state limit"
        );
        let serial = Enumerator::new(config).collect_sources(&sk);
        assert_eq!(serial.len(), 200, "budget-capped");
        assert_eq!(sharded_sources(&sharded, &sk).0, serial);
        // Prepare and the shard walks must stay far from the uncapped
        // DP's runtime (tens of seconds).
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "fallback took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn single_constrained_group_truncates_exactly_at_the_cap_boundary() {
        // One type group, constrained by declaration order, so no
        // product cap can hide the group's truncation flag: only a count
        // capped one past the budget tells a space of exactly `budget`
        // variants from a larger one.
        let sk = Skeleton::from_source(
            "void f() { int a; a = 1; int b; b = a; a = b; int c; c = a + b; b = c; }",
        )
        .expect("builds");
        let units = sk.units(Granularity::Intra);
        let groups: Vec<_> = units.iter().flat_map(|u| u.groups.iter()).collect();
        assert_eq!(groups.len(), 1);
        assert!(!groups[0].is_unconstrained());
        let config = |budget| EnumeratorConfig {
            algorithm: Algorithm::Canonical,
            budget,
            ..Default::default()
        };
        let n = Enumerator::new(config(1_000_000))
            .collect_sources(&sk)
            .len();
        assert_eq!(n, 3767);
        for budget in [1, n - 1, n, n + 1] {
            let mut serial = Vec::new();
            let serial_outcome = Enumerator::new(config(budget)).enumerate(&sk, &mut |v| {
                serial.push(v.source(&sk));
                ControlFlow::Continue(())
            });
            assert_eq!(serial_outcome.truncated, budget < n, "budget {budget}");
            for shards in [1usize, 2] {
                let sharded = ShardedEnumerator::new(config(budget), shards);
                let space = sharded.prepare(&sk);
                assert!(space.is_shard_native());
                assert_eq!(
                    space.truncated(),
                    serial_outcome.truncated,
                    "budget {budget}"
                );
                let (sources, outcome) = sharded_sources(&sharded, &sk);
                assert_eq!(outcome, serial_outcome, "budget {budget}, {shards} shards");
                assert_eq!(sources, serial, "budget {budget}, {shards} shards");
            }
        }
    }

    #[test]
    fn resumed_shard_stream_is_the_tail_of_the_full_shard() {
        // The checkpoint-resume entry point must reproduce exactly the
        // serial tail of each shard — same names, same global emission
        // indices — at every shard count and every skip offset, on listed
        // and shard-native spaces alike. Resuming at every offset starts
        // the odometer at every position of the space, and the tails cross
        // every carry between outer groups of either kind.
        let cases = [
            (fig1(), Algorithm::Paper, 1_000_000),
            (fig6(), Algorithm::Naive, 1_000_000),
            (constrained_multi_group(), Algorithm::Paper, 1_000_000),
            (constrained_multi_group(), Algorithm::Canonical, 1_000_000),
            // Group sizes 2, 187 and 5: the budget cuts the product
            // partway through the middle and the innermost group.
            (constrained_multi_group(), Algorithm::Canonical, 503),
        ];
        for (sk, algorithm, budget) in cases {
            let config = EnumeratorConfig {
                algorithm,
                budget,
                ..Default::default()
            };
            let mut serial: Vec<Variant> = Vec::new();
            let serial_outcome = Enumerator::new(config).enumerate(&sk, &mut |v| {
                serial.push(v.clone());
                ControlFlow::Continue(())
            });
            assert_eq!(serial_outcome.truncated, budget == 503);
            for shards in 1..=8usize {
                let sharded = ShardedEnumerator::new(config, shards);
                let space = sharded.prepare(&sk);
                assert_eq!(space.is_shard_native(), algorithm == Algorithm::Canonical);
                let ranges = sharded.shard_ranges_prepared(&space);
                for (shard, range) in ranges.into_iter().enumerate() {
                    let len = range.end - range.start;
                    for skip in 0..=len + 1 {
                        // Compared in place: the tails hold millions of
                        // variants in all.
                        let mut next = (range.start + skip.min(len)) as usize;
                        let outcome = sharded.enumerate_shard_resumed_prepared(
                            &space,
                            shard,
                            skip,
                            &mut |v| {
                                assert_eq!(
                                    Some(v),
                                    serial[..range.end as usize].get(next),
                                    "{algorithm:?} budget {budget}: \
                                     shard {shard} of {shards}, skip {skip}"
                                );
                                next += 1;
                                ControlFlow::Continue(())
                            },
                        );
                        assert_eq!(next, range.end as usize, "{algorithm:?} skip {skip}");
                        assert_eq!(outcome.emitted, len - skip.min(len));
                        assert_eq!(outcome.truncated, serial_outcome.truncated);
                    }
                }
            }
        }
    }

    #[test]
    fn a_skeleton_without_holes_emits_its_identity_once() {
        // No holes means no type groups: the odometer has no digit, and
        // the space is the identity variant alone. Only the canonical
        // gate engages, as on any canonical space whose groups all pass.
        let sk = Skeleton::from_source("int main() { return 0; }").expect("builds");
        assert!(sk.holes().is_empty());
        let identity = vec![(0, sk.source())];
        for algorithm in [
            Algorithm::Paper,
            Algorithm::Canonical,
            Algorithm::Orbit,
            Algorithm::Naive,
        ] {
            let config = EnumeratorConfig {
                algorithm,
                ..Default::default()
            };
            assert_eq!(serial_sequence(&sk, config), identity, "{algorithm:?}");
            for shards in 1..=4 {
                let sharded = ShardedEnumerator::new(config, shards);
                let space = sharded.prepare(&sk);
                assert_eq!(
                    space.is_shard_native(),
                    algorithm == Algorithm::Canonical,
                    "{algorithm:?}"
                );
                let mut union: Vec<(u64, String)> = Vec::new();
                let mut emitted = 0;
                for shard in 0..shards {
                    let outcome = sharded.enumerate_shard_prepared(&space, shard, &mut |v| {
                        union.push((v.index, v.source(&sk)));
                        ControlFlow::Continue(())
                    });
                    assert!(!outcome.truncated);
                    emitted += outcome.emitted;
                }
                assert_eq!(union, identity, "{algorithm:?}, {shards} shards");
                assert_eq!(emitted, 1);
            }
        }
    }

    #[test]
    fn more_shards_than_variants_still_covers_exactly() {
        let sk = Skeleton::from_source("int a, b; void f() { a = b; }").expect("builds");
        let serial = Enumerator::new(EnumeratorConfig::default()).collect_sources(&sk);
        let sharded = ShardedEnumerator::new(EnumeratorConfig::default(), 16);
        assert_eq!(serial, sharded_sources(&sharded, &sk).0);
    }

    #[test]
    fn streamed_paper_and_orbit_fragments_match_the_collected_solutions() {
        // Renaming each solution inside the walk must give exactly the
        // fragments of the collected solution list, cut at the budget the
        // same way, on every group of a multi-group skeleton.
        use spe_combinatorics::{orbit_solutions, paper_solutions};
        let sk = constrained_multi_group();
        let units = sk.units(Granularity::Intra);
        let groups: Vec<&TypeGroup> = units.iter().flat_map(|u| &u.groups).collect();
        assert_eq!(groups.len(), 3);
        assert!(groups.iter().any(|g| !g.flat.scopes().is_empty()));
        for algorithm in [Algorithm::Paper, Algorithm::Orbit] {
            let collect = |g: &TypeGroup, budget| match algorithm {
                Algorithm::Paper => paper_solutions(&g.flat, budget),
                _ => orbit_solutions(&g.flat, budget),
            };
            for g in &groups {
                let n = collect(g, usize::MAX).0.len();
                assert!(n >= 2, "{algorithm:?}: a group of {n} solutions");
                for budget in [n - 1, n, n + 1] {
                    let config = EnumeratorConfig {
                        algorithm,
                        budget,
                        ..Default::default()
                    };
                    let (sols, truncated) = collect(g, budget);
                    assert_eq!(truncated, budget < n);
                    let renamed: Vec<Vec<(u32, NameId)>> =
                        sols.iter().map(|s| sk.rename_for_solution(g, s)).collect();
                    let (frags, streamed_truncated) = group_fragments(&config, &sk, g);
                    let streamed: Vec<Vec<(u32, NameId)>> = (0..frags.len)
                        .map(|i| {
                            frags
                                .holes
                                .iter()
                                .copied()
                                .zip(frags.row(i).to_vec())
                                .collect()
                        })
                        .collect();
                    assert_eq!(
                        (streamed, streamed_truncated),
                        (renamed, truncated),
                        "{algorithm:?} at budget {budget} of {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn original_alpha_class_is_among_paper_variants() {
        // The paper enumeration emits canonical representatives: the
        // original program appears up to α-renaming (same RGS over its
        // holes), not necessarily verbatim.
        let sk = fig1();
        let original_rgs = {
            let labels: Vec<usize> = sk.holes().iter().map(|h| h.var.0).collect();
            spe_combinatorics::labels_to_rgs(&labels)
        };
        let e = Enumerator::new(EnumeratorConfig::default());
        let mut found = false;
        e.enumerate(&sk, &mut |v| {
            let src = v.source(&sk);
            let re = Skeleton::from_source(&src).expect("variant parses");
            let labels: Vec<usize> = re.holes().iter().map(|h| h.var.0).collect();
            if spe_combinatorics::labels_to_rgs(&labels) == original_rgs {
                found = true;
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        assert!(found, "no variant is α-equivalent to the original");
    }
}
