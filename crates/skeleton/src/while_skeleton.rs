//! Skeletons over the WHILE language (§3 of the paper).
//!
//! WHILE has no lexical scoping, so a skeleton is just the unscoped
//! instance `PARTITIONS(n, k)` — the setting of the paper's Figure 5 and
//! Examples 1–5.
//!
//! Variant realization is template-compiled like the mini-C backend: the
//! program is printed once into static segments plus one slot per
//! occurrence ([`spe_while::print_template`]), every variable name is
//! interned into a [`NameTable`], and realizing a partition is a
//! segment/slot splice into a reusable buffer
//! ([`WhileSkeleton::render_rgs_into`]) — no per-variant occurrence map,
//! no AST rebuild. `tests/while_generality.rs` checks every rendered
//! variant against an AST rebuild, byte for byte.

use crate::render::{NameId, NameTable, RenderTemplate, TemplatePart};
use spe_combinatorics::{labels_to_rgs, FlatInstance};
use spe_while::{WOcc, WParseError, WPiece, WProgram};
use std::collections::HashMap;
use std::sync::OnceLock;

/// A WHILE program viewed as a skeleton.
#[derive(Debug, Clone)]
pub struct WhileSkeleton {
    program: WProgram,
    occs: Vec<WOcc>,
    names: Vec<String>,
    variables: Vec<String>,
    instance: FlatInstance,
    /// Interned variable names; `var_ids[j]` is variable `j`'s id.
    table: NameTable,
    var_ids: Vec<NameId>,
    /// Compiled render template, built lazily by one printer walk.
    template: OnceLock<RenderTemplate>,
}

impl WhileSkeleton {
    /// Parses WHILE source into a skeleton.
    ///
    /// # Errors
    ///
    /// Returns [`WParseError`] on malformed source.
    ///
    /// # Examples
    ///
    /// ```
    /// use spe_skeleton::WhileSkeleton;
    /// let w = WhileSkeleton::from_source("a := 10; b := 1; while a do a := a - b")?;
    /// assert_eq!(w.num_holes(), 6);
    /// # Ok::<(), spe_while::WParseError>(())
    /// ```
    pub fn from_source(src: &str) -> Result<WhileSkeleton, WParseError> {
        Ok(WhileSkeleton::from_program(spe_while::parse(src)?))
    }

    /// Builds a skeleton from a parsed WHILE program.
    pub fn from_program(program: WProgram) -> WhileSkeleton {
        let mut occs = Vec::new();
        let mut names = Vec::new();
        program.for_each_occ(&mut |name, occ| {
            occs.push(occ);
            names.push(name.to_string());
        });
        let variables = program.variables();
        let instance = FlatInstance::unscoped(occs.len(), variables.len());
        let mut table = NameTable::new();
        let var_ids = variables.iter().map(|v| table.intern(v)).collect();
        WhileSkeleton {
            program,
            occs,
            names,
            variables,
            instance,
            table,
            var_ids,
            template: OnceLock::new(),
        }
    }

    /// The underlying program.
    pub fn program(&self) -> &WProgram {
        &self.program
    }

    /// Number of holes (variable occurrences).
    pub fn num_holes(&self) -> usize {
        self.occs.len()
    }

    /// Distinct variable names, in order of first occurrence.
    pub fn variables(&self) -> &[String] {
        &self.variables
    }

    /// The unscoped enumeration instance.
    pub fn instance(&self) -> &FlatInstance {
        &self.instance
    }

    /// The interned candidate-name table.
    pub fn names(&self) -> &NameTable {
        &self.table
    }

    /// The compiled render template, built on first use by one printer
    /// walk ([`spe_while::print_template`]); every occurrence is a hole,
    /// hole `i` being the `i`-th occurrence in source order.
    pub fn template(&self) -> &RenderTemplate {
        self.template.get_or_init(|| {
            let hole_of_occ: HashMap<WOcc, u32> = self
                .occs
                .iter()
                .enumerate()
                .map(|(i, &o)| (o, i as u32))
                .collect();
            RenderTemplate::from_parts(spe_while::print_template(&self.program).into_iter().map(
                |piece| {
                    match piece {
                        WPiece::Text(t) => TemplatePart::Text(t),
                        WPiece::Occ { occ, name } => TemplatePart::Slot {
                            hole: hole_of_occ[&occ],
                            default: self
                                .table
                                .lookup(&name)
                                .expect("every occurrence names a known variable"),
                        },
                    }
                },
            ))
        })
    }

    /// The characteristic vector of the original program as an RGS — the
    /// paper's restricted growth string of Example 5.
    ///
    /// ```
    /// use spe_skeleton::WhileSkeleton;
    /// let w = WhileSkeleton::from_source("a := 10; b := 1; while a do a := a - b")?;
    /// assert_eq!(w.original_rgs(), vec![0, 1, 0, 0, 0, 1]); // "010001"
    /// # Ok::<(), spe_while::WParseError>(())
    /// ```
    pub fn original_rgs(&self) -> Vec<usize> {
        let labels: Vec<usize> = self
            .names
            .iter()
            .map(|n| {
                self.variables
                    .iter()
                    .position(|v| v == n)
                    .expect("name is a known variable")
            })
            .collect();
        labels_to_rgs(&labels)
    }

    /// Fills `names` with the hole-indexed name choices realizing `rgs`
    /// (block `j` takes the `j`-th variable).
    ///
    /// # Panics
    ///
    /// Panics if the RGS length differs from the hole count or uses more
    /// blocks than there are variables.
    pub fn rgs_names(&self, rgs: &[usize], names: &mut Vec<NameId>) {
        assert_eq!(rgs.len(), self.occs.len(), "RGS must cover all holes");
        names.clear();
        names.extend(rgs.iter().map(|&block| {
            *self
                .var_ids
                .get(block)
                .expect("no more blocks than variables")
        }));
    }

    /// Renders the variant realizing `rgs` into `out` (cleared first) via
    /// the compiled template — the hot path: with reused buffers this
    /// performs no per-variant allocation beyond the name vector refill.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`WhileSkeleton::rgs_names`].
    pub fn render_rgs_into(&self, rgs: &[usize], names: &mut Vec<NameId>, out: &mut String) {
        self.rgs_names(rgs, names);
        self.template().render_into(names, &self.table, out);
    }

    /// [`render_rgs_into`](Self::render_rgs_into) allocating fresh
    /// buffers.
    pub fn render_rgs(&self, rgs: &[usize]) -> String {
        let mut names = Vec::with_capacity(rgs.len());
        let mut out = String::new();
        self.render_rgs_into(rgs, &mut names, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_combinatorics::Rgs;
    use spe_while::{interpret, Outcome};

    fn fig5() -> WhileSkeleton {
        WhileSkeleton::from_source("a := 10; b := 1; while a do a := a - b").expect("parses")
    }

    #[test]
    fn figure5_shape() {
        let w = fig5();
        assert_eq!(w.num_holes(), 6);
        assert_eq!(w.variables(), &["a".to_string(), "b".to_string()]);
        assert_eq!(w.instance().naive_count().to_u64(), Some(64));
    }

    #[test]
    fn original_rgs_matches_example5() {
        assert_eq!(fig5().original_rgs(), vec![0, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn example2_p2_rgs() {
        // P2 = ⟨a, b, b, b, a, b⟩ -> "011101".
        let w =
            WhileSkeleton::from_source("a := 10; b := 1; while b do b := a - b").expect("parses");
        assert_eq!(w.original_rgs(), vec![0, 1, 1, 1, 0, 1]);
    }

    #[test]
    fn template_has_one_slot_per_hole() {
        let w = fig5();
        assert_eq!(w.template().num_slots(), w.num_holes());
    }

    #[test]
    fn render_all_variants_are_parseable_and_distinct() {
        let w = fig5();
        let mut seen = std::collections::HashSet::new();
        for rgs in Rgs::new(6, 2) {
            let src = w.render_rgs(&rgs);
            assert!(seen.insert(src.clone()), "duplicate variant: {src}");
            spe_while::parse(&src).unwrap_or_else(|e| panic!("{e}: {src}"));
        }
        assert_eq!(seen.len(), 32); // {6 1} + {6 2}
    }

    #[test]
    fn rendered_variants_run() {
        let w = fig5();
        for rgs in Rgs::new(6, 2) {
            let p = spe_while::parse(&w.render_rgs(&rgs)).expect("variant parses");
            // Every variant either terminates or times out; no crash.
            let _ = interpret(&p, 10_000).expect("interprets");
        }
    }

    #[test]
    fn identity_partition_reproduces_program_semantics() {
        let w = fig5();
        let original = interpret(w.program(), 10_000).expect("runs");
        let realized = spe_while::parse(&w.render_rgs(&w.original_rgs())).expect("parses");
        let again = interpret(&realized, 10_000).expect("runs");
        match (original, again) {
            (Outcome::Finished(a), Outcome::Finished(b)) => assert_eq!(a, b),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn render_buffers_are_reused_without_reallocating() {
        let w = fig5();
        let rgss: Vec<Vec<usize>> = Rgs::new(6, 2).collect();
        let mut names = Vec::new();
        let mut out = String::new();
        w.render_rgs_into(&rgss[0], &mut names, &mut out); // warm-up
        let name_cap = names.capacity();
        let out_cap = out.capacity();
        for rgs in &rgss {
            w.render_rgs_into(rgs, &mut names, &mut out);
        }
        assert_eq!(names.capacity(), name_cap, "name buffer reallocated");
        assert_eq!(out.capacity(), out_cap, "output buffer reallocated");
    }

    #[test]
    #[should_panic(expected = "RGS must cover all holes")]
    fn render_rejects_short_rgs() {
        let _ = fig5().render_rgs(&[0, 1]);
    }
}
