//! The incremental oracle: splice-don't-reparse compilation.
//!
//! Consecutive SPE variants of one skeleton differ by a single odometer
//! digit — one hole bound to a different (already-declared) variable.
//! The round-trip oracle nevertheless pays print → lex → parse for every
//! variant, then rediscovers the program's structural facts once per
//! compiler configuration. This module caches one AST per skeleton and
//! *splices* each variant's name bindings into it, the way
//! `RenderTemplate` splices strings into a compiled template:
//!
//! * [`CachedOracle`] keeps one name state per variant: a job-local name
//!   id per hole, held by the fact plan. Observing a variant rebinds
//!   only the changed holes' ids (`O(changed)`). The cached AST is
//!   respelled from the bindings by one safe walk over its identifiers,
//!   and only when a reader needs the tree (the pass pipeline, or a
//!   reference-memo miss) and some hole changed since the last walk.
//! * Trigger facts are planned once per job, by one walk that mirrors
//!   [`scan_facts`](crate::bugs::scan_facts): the facts no name can
//!   change are constants, and every other fact reads a few name slots,
//!   evaluated per variant on the name ids ([`CachedOracle::facts`]).
//!   One evaluation serves the whole compiler matrix with no AST walk;
//!   the round-trip path scans the whole program once per compiler.
//! * Pass-pipeline results (optimize + lower) are memoized *within* a
//!   variant across configurations that share an optimization level and
//!   triggered wrong-code set: `passes::optimize` reads nothing else
//!   from the configuration, so gcc-sim `-O0` and clang-sim `-O0`
//!   usually collapse to one pipeline execution, and so do their
//!   differential VM runs.
//! * No pass runs at `-O0`, so a variant's `-O0` image is the job's
//!   image with each hole's address aimed at another object. The job
//!   lowers once, logging each hole site (`vm::lower_logged`), and per
//!   variant re-aims only the sites whose hole changed
//!   (`vm::SiteLog::patch`). A name that resolves nowhere makes the
//!   variant unsupported, as lowering would; a name whose object has
//!   another size lowers the variant in full.
//! * From `-O1` up the passes rewrite one tree the job owns. Before each
//!   run it is refreshed from the spelled tree by `clone_from`, which
//!   keeps every box, string and vector where the two trees have the
//!   same shape, instead of cloning and dropping a whole copy per run.
//! * Reference runs are memoized *across* the job's variants, filed in a
//!   decision tree under the name ids of the holes each run read
//!   ([`interp::run_logged`]): a variant that agrees with an earlier run
//!   on every hole that run read gets that run's result without
//!   running, and without reading the tree. The passes and the VM read
//!   the whole program, so only the reference is memoized this way.
//!
//! # Why splicing is identity-preserving
//!
//! `spe_minic::parse` performs no name resolution (sema is the separate
//! `analyze` pass, used only during skeleton extraction), so parse
//! *structure* depends only on token kinds and punctuation — never on
//! how an identifier is spelled. Two renders of the same skeleton
//! differ only in identifier tokens at hole slots, and the parser
//! assigns `OccId`/`ExprId` in source order, which those substitutions
//! cannot change. Hence `parse(render(variant))` equals the skeleton's
//! own program with the hole identifiers rewritten
//! (`tests/render_equivalence.rs` checks this on every variant it
//! renders) — exactly what [`CachedOracle::observe_variant`] computes
//! from a clone of that program. The
//! `tests/oracle_identity.rs` suite pins this end to end: campaign
//! reports through this path are byte-identical to the round-trip
//! oracle at every worker count, including kill/resume cycles.
//!
//! # Contract in compile-only mode
//!
//! With `check_wrong_code == false` the campaign harness only consumes
//! an observation's `ice` and `slow_compile` fields, so the oracle runs
//! the optimize + lower pipeline *lazily* — only when a performance
//! defect fired and lowerability decides whether it is reportable. For
//! variants with no triggered performance bug the returned observation
//! leaves `unsupported` and `miscompiled_by` at their defaults even
//! when a full [`Compiler::observe`] would set them; every field the
//! harness reads in that mode is exact. With `check_wrong_code == true`
//! observations are field-for-field equal to [`Compiler::observe`].

use crate::bugs::{BugSpec, FactPlan, Facts};
use crate::coverage::Coverage;
use crate::{
    divergence_from_image, interp, passes, reference_limits, triggered, vm, Compiler, Divergence,
    Observation,
};
use spe_minic::ast::{OccId, Program};

/// Cumulative cache-effectiveness counters of one [`CachedOracle`],
/// readable at any time via [`CachedOracle::stats`]. The campaign
/// harness turns per-variant deltas of these into the
/// `oracle_cache.*` telemetry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Variants bound through the delta path (only changed holes
    /// rebound).
    pub splice_delta: u64,
    /// Variants that paid a full rebinding of every hole: the first
    /// variant after construction, callers not supplying a delta, and
    /// post-panic self-heals.
    pub splice_full: u64,
    /// Pass-pipeline (optimize + lower) results served from the
    /// within-variant memo.
    pub pipeline_memo_hits: u64,
    /// Pass-pipeline executions that actually ran.
    pub pipeline_memo_misses: u64,
    /// Reference results served from the job's reference memo.
    pub reference_memo_hits: u64,
    /// Reference-interpreter runs that actually ran.
    pub reference_runs: u64,
    /// Of those, the runs that burned all their fuel
    /// ([`interp::Ub::FuelExhausted`]).
    pub reference_fuel_exhausted: u64,
    /// `-O0` pipeline runs the job's template answered by re-aiming its
    /// sites: an image, or `unsupported` for a name that resolves
    /// nowhere.
    pub o0_patched: u64,
    /// `-O0` pipeline runs that lowered the spelled program in full: the
    /// one that made the template (and each before it whose spelling did
    /// not lower), and every name the template cannot take: an object of
    /// another size, or an address a global initializer folds. A job whose
    /// program fails to lower whatever its holes spell lowers once and
    /// answers every later run `unsupported`, counted in neither field.
    pub o0_lowered: u64,
}

/// A parsed program whose holes are respelled on demand.
struct SplicedAst {
    program: Program,
    /// Occurrence-indexed hole numbers, [`interp::NOT_A_HOLE`] where an
    /// occurrence is no hole: the map the respelling walk and a logged
    /// reference run read.
    occ_hole: Vec<usize>,
    /// Some hole was rebound since the last whole walk, so the tree may
    /// spell an older variant. Only a finished walk clears it: a walk cut
    /// short by a panic leaves the tree stale for the next reader.
    stale: bool,
}

impl SplicedAst {
    /// Builds the spliceable AST; `hole_occs[h]` is the use-site
    /// occurrence filled by names`[h]`. Returns `None` when some hole
    /// occurrence has no identifier in the program (a caller bug).
    fn new(mut program: Program, hole_occs: &[OccId]) -> Option<SplicedAst> {
        let mut occ_hole = vec![interp::NOT_A_HOLE; program.max_occ as usize];
        for (h, occ) in hole_occs.iter().enumerate() {
            *occ_hole.get_mut(occ.0 as usize)? = h;
        }
        let mut found = 0;
        program.for_each_ident_mut(&mut |id| found += hole_at(&occ_hole, id.occ).map_or(0, |_| 1));
        (found == hole_occs.len()).then_some(SplicedAst {
            program,
            occ_hole,
            stale: false,
        })
    }

    /// The tree with hole `h` spelled `names[h]`, respelled by one walk
    /// when it is stale.
    fn spelled(&mut self, names: &[&str]) -> &SplicedAst {
        if self.stale {
            let occ_hole = &self.occ_hole;
            self.program.for_each_ident_mut(&mut |id| {
                if let Some(h) = hole_at(occ_hole, id.occ) {
                    names[h].clone_into(&mut id.name);
                }
            });
            self.stale = false;
        }
        self
    }
}

/// The hole filled at occurrence `occ`, if any.
fn hole_at(occ_hole: &[usize], occ: OccId) -> Option<usize> {
    occ_hole
        .get(occ.0 as usize)
        .copied()
        .filter(|&h| h != interp::NOT_A_HOLE)
}

/// Per-variant memo key: optimization level plus the ordered set of
/// triggered wrong-code defects — the only inputs `passes::optimize`
/// reads from a configuration.
type PipeKey = (u8, Vec<&'static BugSpec>);

/// Where a pipeline execution's image is.
enum Lowered {
    /// Lowering rejected the program (`CompileError::Unsupported`).
    Unsupported,
    /// The job's `-O0` template, aimed at this variant.
    Template,
    /// An image of its own: optimized, or `-O0` lowered in full.
    Image(vm::Image),
}

/// Memoized outcome of one optimize + lower pipeline execution.
struct PipeEntry {
    image: Lowered,
    miscompiled_by: Vec<&'static str>,
    /// Differential verdict against this variant's reference execution,
    /// filled on first use (`None` = not yet computed).
    divergence: Option<Option<Divergence>>,
}

/// Most nodes one job's [`ReferenceMemo`] keeps. Past it the memo stops
/// filing new runs, which costs speed and never changes a result.
const REFERENCE_MEMO_NODES: usize = 16_384;

/// The reference results of one job's variants, as a decision tree over
/// `(hole, name id)` in the order runs first read their holes.
///
/// Within a job, variants differ only in hole spellings, and the
/// interpreter is deterministic. So the first hole a run reads is the
/// same for every variant, the next one depends only on the name read
/// there, and so on: a run that read holes h1…hk takes the same steps
/// for every variant that agrees with it at h1…hk. Each root-to-leaf
/// path is one such run, and its leaf holds the run's result.
///
/// The vectors start empty, so a job that never runs the reference
/// (every compile-only job) allocates nothing here.
#[derive(Default)]
struct ReferenceMemo {
    /// The tree; node 0 is the root once a run is filed.
    nodes: Vec<MemoNode>,
    /// The holes the latest fresh run read.
    reads: interp::HoleReads,
}

enum MemoNode {
    /// Runs that reach this node read `hole` next; one edge per name id
    /// seen there, to the node of the runs that read that name.
    Read {
        hole: usize,
        edges: Vec<(u32, usize)>,
    },
    /// Runs that reach this node read no further hole and end so.
    Done(Result<interp::Execution, interp::Ub>),
}

impl ReferenceMemo {
    /// The reference result of the variant whose hole `h` holds name id
    /// `ids[h]` and is spelled `names[h]`: from the tree when an earlier
    /// run read only holes it agrees on, otherwise from a fresh logged
    /// run on the respelled `ast`, which is then filed.
    fn run(
        &mut self,
        ids: &[u32],
        ast: &mut SplicedAst,
        names: &[&str],
        limits: interp::Limits,
        stats: &mut CacheStats,
    ) -> Result<interp::Execution, interp::Ub> {
        if let Some(result) = self.lookup(ids) {
            stats.reference_memo_hits += 1;
            return result.clone();
        }
        stats.reference_runs += 1;
        let ast = ast.spelled(names);
        let result = interp::run_logged(&ast.program, limits, &ast.occ_hole, &mut self.reads);
        if result == Err(interp::Ub::FuelExhausted) {
            stats.reference_fuel_exhausted += 1;
        }
        self.file(ids, &result);
        result
    }

    fn lookup(&self, ids: &[u32]) -> Option<&Result<interp::Execution, interp::Ub>> {
        let mut at = 0;
        loop {
            match self.nodes.get(at)? {
                MemoNode::Done(result) => return Some(result),
                MemoNode::Read { hole, edges } => {
                    at = edges.iter().find(|&&(id, _)| id == ids[*hole])?.1;
                }
            }
        }
    }

    /// Files the fresh run just made on `ids`, whose reads are in
    /// `self.reads`: follows the path the tree already has for them and
    /// grows a new branch where it ends.
    fn file(&mut self, ids: &[u32], result: &Result<interp::Execution, interp::Ub>) {
        let order = self.reads.order();
        // The node whose read has no edge for this name yet (none for an
        // empty tree), and the reads after it.
        let (fork, rest) = if self.nodes.is_empty() {
            (None, order)
        } else {
            let mut at = 0;
            let mut reads = order.iter();
            loop {
                let MemoNode::Read { hole, edges } = &self.nodes[at] else {
                    return; // a filed run already ends here
                };
                if reads.next() != Some(hole) {
                    debug_assert!(false, "runs disagree on the hole read next");
                    return;
                }
                match edges.iter().find(|&&(id, _)| id == ids[*hole]) {
                    Some(&(_, next)) => at = next,
                    None => break (Some(at), reads.as_slice()),
                }
            }
        };
        if self.nodes.len() + rest.len() + 1 > REFERENCE_MEMO_NODES {
            return;
        }
        if let Some(at) = fork {
            let next = self.nodes.len();
            if let MemoNode::Read { hole, edges } = &mut self.nodes[at] {
                edges.push((ids[*hole], next));
            }
        }
        for &hole in rest {
            let next = self.nodes.len() + 1;
            self.nodes.push(MemoNode::Read {
                hole,
                edges: vec![(ids[hole], next)],
            });
        }
        self.nodes.push(MemoNode::Done(result.clone()));
    }
}

/// The job's `-O0` image, lowered once and re-aimed per variant.
struct O0Template {
    log: vm::SiteLog,
    image: vm::Image,
    /// The name id each site's hole held when the site was last aimed.
    aimed: Vec<u32>,
}

impl O0Template {
    /// Re-aims every site whose hole's name id is not the one it was
    /// last aimed at. A site is aimed or left as it was, never half, so a
    /// panic in between leaves `aimed` true to the image.
    fn aim(&mut self, names: &[&str], ids: &[u32]) -> Result<(), vm::PatchError> {
        for (site, hole) in self.log.holes().enumerate() {
            if self.aimed[site] != ids[hole] {
                self.log.patch(site, names[hole], &mut self.image)?;
                self.aimed[site] = ids[hole];
            }
        }
        Ok(())
    }
}

/// The `-O0` image of the variant whose hole `h` holds name id `ids[h]`
/// and is spelled `names[h]`: the job's template aimed at it, or `ast`
/// lowered in full when no template exists yet or a name needs another
/// shape. The first full lowering that succeeds becomes the template;
/// one that fails whatever the holes spell answers every later variant.
fn lower_o0(
    o0: &mut Result<O0Template, vm::Unlowered>,
    ast: &mut SplicedAst,
    names: &[&str],
    ids: &[u32],
    stats: &mut CacheStats,
) -> Lowered {
    match o0 {
        Err(vm::Unlowered::Program) => return Lowered::Unsupported,
        Err(vm::Unlowered::Spelling) => {}
        Ok(t) => match t.aim(names, ids) {
            Ok(()) => {
                stats.o0_patched += 1;
                return Lowered::Template;
            }
            Err(vm::PatchError::Unresolved) => {
                stats.o0_patched += 1;
                return Lowered::Unsupported;
            }
            Err(vm::PatchError::Relower) => {
                stats.o0_lowered += 1;
                return vm::lower(&ast.spelled(names).program)
                    .map_or(Lowered::Unsupported, Lowered::Image);
            }
        },
    }
    stats.o0_lowered += 1;
    let ast = ast.spelled(names);
    match vm::lower_logged(&ast.program, &ast.occ_hole) {
        Ok((image, log)) => {
            let aimed = log.holes().map(|h| ids[h]).collect();
            *o0 = Ok(O0Template { log, image, aimed });
            Lowered::Template
        }
        Err(why) => {
            *o0 = Err(why);
            Lowered::Unsupported
        }
    }
}

/// Optimizes the variant spelled `names` at `opt` (≥ 1) with the
/// `wrong_code` defects armed, on `tree` refreshed from `ast`, and
/// lowers it; returns the image and the ids of the defects that applied.
fn optimize_and_lower(
    tree: &mut Program,
    ast: &mut SplicedAst,
    names: &[&str],
    opt: u8,
    wrong_code: Vec<&'static BugSpec>,
) -> (Lowered, Vec<&'static str>) {
    tree.clone_from(&ast.spelled(names).program);
    let mut ctx = passes::PassCtx {
        opt,
        wrong_code,
        coverage: &mut Coverage::off(),
        miscompiled_by: Vec::new(),
    };
    passes::optimize_in_place(tree, &mut ctx);
    let image = vm::lower(tree).map_or(Lowered::Unsupported, Lowered::Image);
    (image, ctx.miscompiled_by)
}

/// One compiler configuration with its live-bug set resolved once.
struct CompilerSlot {
    compiler: Compiler,
    live: Vec<&'static BugSpec>,
}

/// The incremental oracle for one skeleton: a cached AST spliced per
/// variant plus within-variant pipeline memoization across the
/// compiler matrix.
///
/// The `-O0` template and the `-O1`+ tree are made at the job's first
/// pipeline run that needs them, so a compile-only job that fires no
/// performance defect never lowers or copies anything.
///
/// Intended lifecycle (what the campaign harness does): build one per
/// (file, shard) job from a clone of the skeleton's program, feed every
/// variant through [`CachedOracle::observe_variant`] with
/// the hole delta, and drop it at the job boundary — so work stealing,
/// checkpoint/resume and panic quarantine see exactly the state they
/// would under the round-trip oracle.
///
/// The oracle is panic-self-healing. If a previous call unwound while
/// it rebound holes (leaving some rebound and others not), the next
/// call detects it and rebinds every hole, ignoring the caller's delta.
/// If it unwound while respelling the tree, the tree stays stale and the
/// next reader walks it again.
pub struct CachedOracle {
    ast: SplicedAst,
    /// The trigger facts of the variant the holes are bound to, and the
    /// name id each hole holds.
    plan: FactPlan,
    compilers: Vec<CompilerSlot>,
    check_wrong_code: bool,
    fuel: u64,
    /// Reused observation buffer, one entry per configuration.
    obs: Vec<Observation>,
    /// Reused per-variant pipeline memo.
    pipeline: Vec<(PipeKey, PipeEntry)>,
    /// Reference results across the job's variants.
    reference_memo: ReferenceMemo,
    /// The job's `-O0` image once a spelling has lowered; until then, why
    /// the last spelling tried did not (`Spelling` before the first).
    o0: Result<O0Template, vm::Unlowered>,
    /// The tree the `-O1`+ passes rewrite, refreshed before each run;
    /// empty until the first.
    tree: Program,
    /// True while a call is binding or reading the variant; still true on
    /// entry means the previous call panicked partway.
    in_flight: bool,
    stats: CacheStats,
}

impl CachedOracle {
    /// Builds an incremental oracle over `program` — a skeleton's
    /// program, or the parse of one of its rendered variants, which
    /// differs only in hole spellings — whose hole `h` is the identifier
    /// at occurrence `hole_occs[h]`. The first observed variant
    /// rebinds every hole.
    ///
    /// Returns `None` if some hole occurrence is not an identifier use
    /// site of `program` (a skeleton's own hole occurrences always are).
    pub fn new(
        program: Program,
        hole_occs: &[OccId],
        compilers: &[Compiler],
        check_wrong_code: bool,
        fuel: u64,
    ) -> Option<CachedOracle> {
        let ast = SplicedAst::new(program, hole_occs)?;
        Some(CachedOracle {
            plan: FactPlan::new(&ast.program, &ast.occ_hole, hole_occs.len()),
            ast,
            compilers: compilers
                .iter()
                .map(|&compiler| CompilerSlot {
                    live: compiler.live().collect(),
                    compiler,
                })
                .collect(),
            check_wrong_code,
            fuel,
            obs: Vec::new(),
            pipeline: Vec::new(),
            reference_memo: ReferenceMemo::default(),
            o0: Err(vm::Unlowered::Spelling),
            tree: Program::default(),
            // The first variant rebinds every hole: there is no delta
            // baseline yet.
            in_flight: true,
            stats: CacheStats::default(),
        })
    }

    /// Number of holes the cached AST was built with; every
    /// [`CachedOracle::observe_variant`] call must supply exactly this
    /// many names.
    pub fn num_holes(&self) -> usize {
        self.plan.holes()
    }

    /// Cumulative cache-effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Observes one variant — `names[h]` is the spelling bound to hole
    /// `h` — and returns one [`Observation`] per configured compiler,
    /// in configuration order (the same shape
    /// `backend::CompilerBackend::observe_variant` returns).
    ///
    /// With `changed: Some(delta)` only the listed holes are rebound;
    /// the caller guarantees every other hole's binding is unchanged
    /// since the previous call (`spe_core::Variant::changed_holes_into`
    /// computes exactly this delta). `None` rebinds every hole.
    ///
    /// # Panics
    ///
    /// Panics if a delta index is out of range of `names`, or if `names`
    /// is shorter than [`CachedOracle::num_holes`] and the variant's tree
    /// is read; the oracle self-heals on the next call.
    pub fn observe_variant(&mut self, names: &[&str], changed: Option<&[usize]>) -> &[Observation] {
        self.splice(names, changed);
        self.obs.clear();
        self.pipeline.clear();
        // One plan evaluation serves every trigger of every compiler.
        let facts = self.plan.facts();
        // The reference executes lazily, at most once per variant — the
        // same schedule as the harness's round-trip path.
        let mut reference: Option<Result<interp::Execution, interp::Ub>> = None;
        for slot in &self.compilers {
            let (slow, wrong_code) = match triggered(slot.live.iter().copied(), &facts) {
                Ok(verdict) => verdict,
                Err(ice) => {
                    self.obs.push(Observation {
                        ice: Some(ice),
                        ..Observation::default()
                    });
                    continue;
                }
            };
            if !self.check_wrong_code && slow.is_empty() {
                // Nothing the compile-only harness reads can differ
                // from default — skip the pipeline entirely (the
                // crash-only fast path that buys the 10×).
                self.obs.push(Observation::default());
                continue;
            }
            let opt = slot.compiler.opt();
            let idx = match self.pipeline.iter().position(|((o, wc), _)| {
                *o == opt && wc.iter().map(|b| b.id).eq(wrong_code.iter().map(|b| b.id))
            }) {
                Some(i) => {
                    self.stats.pipeline_memo_hits += 1;
                    i
                }
                None => {
                    self.stats.pipeline_memo_misses += 1;
                    let (image, miscompiled_by) = if opt == 0 {
                        // No pass runs at -O0, so no defect applies.
                        let ids = self.plan.ids();
                        let image =
                            lower_o0(&mut self.o0, &mut self.ast, names, ids, &mut self.stats);
                        (image, Vec::new())
                    } else {
                        let wrong_code = wrong_code.clone();
                        optimize_and_lower(&mut self.tree, &mut self.ast, names, opt, wrong_code)
                    };
                    let entry = PipeEntry {
                        image,
                        miscompiled_by,
                        divergence: None,
                    };
                    self.pipeline.push(((opt, wrong_code), entry));
                    self.pipeline.len() - 1
                }
            };
            let entry = &mut self.pipeline[idx].1;
            let image = match &entry.image {
                Lowered::Unsupported => {
                    self.obs.push(Observation {
                        unsupported: true,
                        ..Observation::default()
                    });
                    continue;
                }
                Lowered::Template => &self.o0.as_ref().expect("a template was aimed").image,
                Lowered::Image(image) => image,
            };
            let mut obs = Observation {
                miscompiled_by: entry.miscompiled_by.clone(),
                slow_compile: slow,
                ..Observation::default()
            };
            if self.check_wrong_code {
                let reference = reference.get_or_insert_with(|| {
                    self.reference_memo.run(
                        self.plan.ids(),
                        &mut self.ast,
                        names,
                        reference_limits(self.fuel),
                        &mut self.stats,
                    )
                });
                match reference {
                    Err(_) => obs.reference_ub = true,
                    Ok(expected) => {
                        obs.divergence = *entry.divergence.get_or_insert_with(|| {
                            divergence_from_image(image, expected, self.fuel)
                        });
                    }
                }
            }
            self.obs.push(obs);
        }
        self.in_flight = false;
        &self.obs
    }

    /// The reference interpreter's result on the variant spelled
    /// `names`, bound as [`CachedOracle::observe_variant`] binds it:
    /// the verdict that oracle's wrong-code check starts from. It comes
    /// from the job's reference memo when an earlier run read only holes
    /// this variant agrees on.
    ///
    /// # Panics
    ///
    /// As [`CachedOracle::observe_variant`].
    pub fn reference(
        &mut self,
        names: &[&str],
        changed: Option<&[usize]>,
    ) -> Result<interp::Execution, interp::Ub> {
        self.splice(names, changed);
        let result = self.reference_memo.run(
            self.plan.ids(),
            &mut self.ast,
            names,
            reference_limits(self.fuel),
            &mut self.stats,
        );
        self.in_flight = false;
        result
    }

    /// The trigger facts of the variant spelled `names`, bound as
    /// [`CachedOracle::observe_variant`] binds it: what that oracle's
    /// triggers are matched against. They come from the job's fact plan,
    /// not from a scan of the program.
    ///
    /// # Panics
    ///
    /// As [`CachedOracle::observe_variant`].
    pub fn facts(&mut self, names: &[&str], changed: Option<&[usize]>) -> Facts {
        self.splice(names, changed);
        let facts = self.plan.facts();
        self.in_flight = false;
        facts
    }

    /// The `-O0` image of the variant spelled `names`, bound as
    /// [`CachedOracle::observe_variant`] binds it: the image that oracle
    /// runs for every `-O0` configuration, or `None` when lowering rejects
    /// the variant. It is the job's template aimed at this variant
    /// whenever the template can serve it.
    ///
    /// # Panics
    ///
    /// As [`CachedOracle::observe_variant`].
    pub fn o0_image(&mut self, names: &[&str], changed: Option<&[usize]>) -> Option<vm::Image> {
        self.splice(names, changed);
        let ids = self.plan.ids();
        let image = match lower_o0(&mut self.o0, &mut self.ast, names, ids, &mut self.stats) {
            Lowered::Unsupported => None,
            Lowered::Template => self.o0.as_ref().ok().map(|t| t.image.clone()),
            Lowered::Image(image) => Some(image),
        };
        self.in_flight = false;
        image
    }

    /// Binds the holes to `names` (only the `changed` ones when the
    /// previous call finished), marks the tree stale when a binding
    /// changed, and marks the oracle in flight; the caller clears that
    /// mark when it is done.
    fn splice(&mut self, names: &[&str], changed: Option<&[usize]>) {
        let must_full = self.in_flight;
        self.in_flight = true;
        match changed {
            Some(delta) if !must_full => {
                for &h in delta {
                    self.ast.stale |= self.plan.bind(h, names[h]);
                }
                self.stats.splice_delta += 1;
            }
            _ => {
                for (h, name) in names.iter().enumerate().take(self.plan.holes()) {
                    self.ast.stale |= self.plan.bind(h, name);
                }
                self.stats.splice_full += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::{self, Trigger};
    use crate::CompilerId;
    use spe_minic::parse;

    /// All identifier use-site occurrences of `p`, in walk order — the
    /// hole set a skeleton would extract when every use site is a hole.
    fn all_occs(p: &Program) -> Vec<OccId> {
        let mut occs = Vec::new();
        let mut q = p.clone();
        q.for_each_ident_mut(&mut |id| occs.push(id.occ));
        occs
    }

    /// Current hole spellings of `p`, in the same walk order.
    fn spellings(p: &Program) -> Vec<String> {
        let mut names = Vec::new();
        let mut q = p.clone();
        q.for_each_ident_mut(&mut |id| names.push(id.name.clone()));
        names
    }

    fn wc_compilers() -> Vec<Compiler> {
        vec![
            Compiler::new(CompilerId::gcc(485), 0),
            Compiler::new(CompilerId::gcc(485), 2),
            Compiler::new(CompilerId::clang(360), 0),
            Compiler::new(CompilerId::clang(360), 2),
        ]
    }

    /// Exhaustive cross-check on a pointerful skeleton: every hole
    /// respliced to every allowed name, one at a time and in pairs,
    /// must observe exactly what a fresh parse of the equivalent
    /// source observes (wrong-code mode — field-for-field equality).
    #[test]
    fn splice_matches_reparse_on_every_hole() {
        let base =
            "int a = 0, b = 0; int main() { int *p = &a, *q = &a; *p = 1; *q = 2; return a; }";
        let prog = parse(base).expect("parses");
        let holes = all_occs(&prog);
        let compilers = wc_compilers();
        let mut cache =
            CachedOracle::new(prog.clone(), &holes, &compilers, true, 50_000).expect("builds");
        let base_names = spellings(&prog);
        let pool = ["a", "b"];
        let fresh = |names: &[String]| -> Vec<Observation> {
            // Reference implementation: rewrite the AST by reparsing a
            // manually substituted source. Substitution by hole index
            // is exactly what the render template does.
            let mut q = parse(base).expect("parses");
            let mut i = 0;
            q.for_each_ident_mut(&mut |id| {
                id.name = names[i].clone();
                i += 1;
            });
            let printed = spe_minic::print_program(&q);
            let reparsed = parse(&printed).expect("reparses");
            compilers
                .iter()
                .map(|cc| cc.observe(&reparsed, Some(50_000)))
                .collect()
        };
        // One hole at a time, delta splice.
        let mut prev = base_names.clone();
        for h in 0..holes.len() {
            for cand in pool {
                let mut names = prev.clone();
                names[h] = cand.to_string();
                let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
                let changed: Vec<usize> =
                    (0..holes.len()).filter(|&i| names[i] != prev[i]).collect();
                let got = cache.observe_variant(&refs, Some(&changed)).to_vec();
                assert_eq!(got, fresh(&names), "hole {h} -> {cand}");
                prev = names;
            }
        }
        assert!(cache.stats().splice_delta > 0);
        assert!(
            cache.stats().pipeline_memo_hits > 0,
            "O0 pair must collapse"
        );
    }

    /// Replaying the same variant after unrelated observations yields
    /// identical results to the first visit and to a fresh oracle: no
    /// state leaks across `observe_variant` calls.
    #[test]
    fn observations_do_not_leak_across_variants() {
        let src = "int x, y, z, w, v; int main() { v = x + y * z - w + v; return 0; }";
        let prog = parse(src).expect("parses");
        let holes = all_occs(&prog);
        let compilers = wc_compilers();
        let mut cache =
            CachedOracle::new(prog.clone(), &holes, &compilers, true, 20_000).expect("builds");
        let n = holes.len();
        let v1: Vec<&str> = vec!["x"; n];
        let v2: Vec<&str> = vec!["v"; n];
        let first = cache.observe_variant(&v1, None).to_vec();
        let _ = cache.observe_variant(&v2, None).to_vec();
        let again = cache.observe_variant(&v1, None).to_vec();
        assert_eq!(first, again, "revisited variant diverged");
        let mut fresh = CachedOracle::new(prog, &holes, &compilers, true, 20_000).expect("builds");
        assert_eq!(fresh.observe_variant(&v1, None), &first[..]);
    }

    /// A panic while binding, while respelling the tree, or while
    /// re-aiming the `-O0` image self-heals on the next call. Both hole
    /// numberings run: along the walk, a walk that panics at the last
    /// hole has written every other one; against it, the walk panics at
    /// its first hole, before it writes any. The image's sites follow the
    /// walk, so re-aiming panics likewise after or before the others.
    #[test]
    fn poisoned_splice_self_heals() {
        let src = "int a, b, c; int main() { a = b + c; return a; }";
        let prog = parse(src).expect("parses");
        let compilers = wc_compilers();
        let along = all_occs(&prog);
        let against: Vec<OccId> = along.iter().rev().copied().collect();
        for holes in [along, against] {
            let oracle = || {
                CachedOracle::new(prog.clone(), &holes, &compilers, true, 20_000).expect("builds")
            };
            let mut cache = oracle();
            let n = holes.len();
            let good: Vec<&str> = vec!["b"; n];
            let expected = cache.observe_variant(&good, None).to_vec();
            let poison = |cache: &mut CachedOracle, delta: &[usize]| {
                let short: Vec<&str> = vec!["c"; n - 1];
                let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.observe_variant(&short, Some(delta));
                }));
                assert!(poisoned.is_err(), "short names slice must panic");
            };

            // Poison: mutate some bindings, then panic mid-splice.
            let all: Vec<usize> = (0..n).collect();
            poison(&mut cache, &all);

            // Self-heal: the caller's delta claims nothing changed since
            // `good`, which is a lie after the partial splice — the oracle
            // must ignore it and rebind everything.
            let healed = cache.observe_variant(&good, Some(&[])).to_vec();
            assert_eq!(healed, expected, "stale AST state leaked past a panic");

            // Poison the respelling walk instead: the delta names only
            // holes the short slice covers, so binding finishes and the
            // walk over the tree panics at the last hole.
            let in_range: Vec<usize> = (0..n - 1).collect();
            let bound = cache.stats().splice_delta;
            poison(&mut cache, &in_range);
            assert_eq!(cache.stats().splice_delta, bound + 1, "binding finished");
            let healed = cache.observe_variant(&good, Some(&[])).to_vec();
            assert_eq!(healed, expected, "a walk cut short left the tree fresh");
            assert_eq!(oracle().observe_variant(&good, None), &expected[..]);

            // Once more, healed with the names the cut-short call bound:
            // no binding changes, so only the stale flag makes the next
            // reader walk the tree.
            poison(&mut cache, &in_range);
            let mut same = vec!["c"; n - 1];
            same.push("b");
            let healed = cache.observe_variant(&same, Some(&[])).to_vec();
            let mut renamed = prog.clone();
            renamed.for_each_ident_mut(&mut |id| {
                let h = holes.iter().position(|&o| o == id.occ).expect("a hole");
                id.name = same[h].to_string();
            });
            assert_eq!(
                spe_minic::print_program(&cache.ast.program),
                spe_minic::print_program(&renamed)
            );
            assert_eq!(oracle().observe_variant(&same, None), &healed[..]);

            // Poison the re-aiming of the -O0 image. A last hole spelled
            // with no declaration leaves its site aimed at the name before;
            // the next variant binds the other holes from the short slice,
            // re-aims their sites, and reads the last hole's missing name.
            let mut undeclared = good.clone();
            undeclared[n - 1] = "zz";
            let unsupported = cache.observe_variant(&undeclared, None).to_vec();
            assert!(unsupported.iter().all(|o| o.unsupported));
            let before = cache.stats();
            poison(&mut cache, &in_range);
            let after = cache.stats();
            assert_eq!(
                after.splice_delta,
                before.splice_delta + 1,
                "binding finished"
            );
            assert_eq!(
                after.pipeline_memo_misses,
                before.pipeline_memo_misses + 1,
                "the panic came in the first pipeline run, at -O0"
            );
            assert_eq!(
                (after.o0_patched, after.o0_lowered),
                (before.o0_patched, before.o0_lowered),
                "the panic came while re-aiming"
            );
            let healed = cache.observe_variant(&good, Some(&[])).to_vec();
            assert_eq!(healed, expected, "a cut-short re-aim leaked into the image");
            let mut respelled = prog.clone();
            respelled.for_each_ident_mut(&mut |id| id.name = "b".into());
            assert_eq!(cache.o0_image(&good, Some(&[])), vm::lower(&respelled).ok());
        }
    }

    /// Compile-only mode: the fields the harness reads (`ice`,
    /// `slow_compile`, and `unsupported` whenever a performance defect
    /// fired) match `Compiler::observe` exactly.
    #[test]
    fn compile_only_mode_matches_observable_fields() {
        let srcs = [
            "int d, e, b, c; int main(void) { e ? (d==0 ? b : c) : (d==0 ? b : c); return 0; }",
            "int a; int main() { a = ((((((((a + 1) + 2) + 3) + 4) + 5) + 6) + 7) + 8); return 0; }",
            "int x, y; void f() { y = (x + 1) - (x + 1); }",
        ];
        let compilers = [
            Compiler::new(CompilerId::gcc(700), 0),
            Compiler::new(CompilerId::gcc(485), 1),
            Compiler::new(CompilerId::gcc(485), 3),
            Compiler::new(CompilerId::clang(390), 2),
        ];
        for src in srcs {
            let prog = parse(src).expect("parses");
            let holes = all_occs(&prog);
            let mut cache =
                CachedOracle::new(prog.clone(), &holes, &compilers, false, 10_000).expect("builds");
            let names = spellings(&prog);
            let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let got = cache.observe_variant(&refs, None).to_vec();
            for (cc, obs) in compilers.iter().zip(&got) {
                let full = cc.observe(&prog, None);
                assert_eq!(obs.ice, full.ice, "{src}");
                assert_eq!(obs.slow_compile, full.slow_compile, "{src}");
                if !full.slow_compile.is_empty() {
                    assert_eq!(obs.unsupported, full.unsupported, "{src}");
                }
                assert!(!obs.wrong_code() && !obs.reference_ub);
            }
        }
    }

    /// A skeleton makes every use site a hole, but the oracle takes any
    /// subset: a use site outside it keeps its spelling, and a hole
    /// spelled alike names the same variable. For every spelling of
    /// every hole, the planned facts match a scan of the renamed program.
    #[test]
    fn planned_facts_compare_holes_with_fixed_names_by_spelling() {
        let srcs = [
            "int x, y, g; void f() { int *p = &x, *q = &y; *p = x - x; *q = y / x; g = x ? y + y : y + x; }",
            "int a, b; void f() { int *p = &a, *q = &a; *p = 1; *q = 2; b = a; a = a + b + a; }",
            "int u[4], i, j; void f() { u[i + j] = i; int *r = &j; } int k;",
        ];
        let mut triggers: Vec<Trigger> = bugs::registry().iter().map(|b| b.trigger).collect();
        for n in 1..=6 {
            triggers.extend([Trigger::SameVarTimes(n), Trigger::DistinctVars(n)]);
        }
        for src in srcs {
            let prog = parse(src).expect("parses");
            // Every other use site is a hole.
            let holes: Vec<OccId> = all_occs(&prog).into_iter().step_by(2).collect();
            let spelled: Vec<String> = spellings(&prog);
            let mut pool = spelled.clone();
            pool.sort();
            pool.dedup();
            let base: Vec<String> = spelled.iter().step_by(2).cloned().collect();
            let mut cache =
                CachedOracle::new(prog.clone(), &holes, &wc_compilers(), false, 0).expect("builds");
            let mut prev = base.clone();
            for h in 0..holes.len() {
                for cand in &pool {
                    let mut names = base.clone();
                    names[h] = cand.clone();
                    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                    let changed: Vec<usize> =
                        (0..holes.len()).filter(|&i| names[i] != prev[i]).collect();
                    let planned = cache.facts(&refs, Some(&changed));
                    prev = names.clone();
                    let mut renamed = prog.clone();
                    renamed.for_each_ident_mut(&mut |id| {
                        if let Some(k) = holes.iter().position(|&o| o == id.occ) {
                            id.name = names[k].clone();
                        }
                    });
                    let scanned = bugs::scan_facts(&renamed);
                    for &t in &triggers {
                        assert_eq!(
                            planned.matches(t),
                            scanned.matches(t),
                            "{t:?} with hole {h} spelled {cand}: {}",
                            spe_minic::print_program(&renamed)
                        );
                    }
                }
            }
        }
    }
}
