//! Template-compiled variant rendering.
//!
//! Realizing an enumerated variant used to re-walk the whole AST through
//! the printer and allocate an owned `String` per occurrence. This module
//! compiles the walk away: building a [`RenderTemplate`] runs the printer
//! **once per skeleton**, producing a flat sequence of static text
//! segments interleaved with hole slots; every candidate variable name is
//! interned into a [`NameTable`] of [`NameId`]s; and rendering one variant
//! is a segment/slot splice into a caller-provided reusable buffer
//! ([`RenderTemplate::render_into`]) — no AST traversal, no per-occurrence
//! `String` clones and no per-variant heap allocation.
//!
//! Output is byte-identical to printing the AST with the holes renamed
//! ([`print_program`](spe_minic::print_program)) by construction: the
//! template's text and sites come from the very same printer traversal.

use spe_minic::ast::OccId;
use spe_minic::PrintTemplate;
use std::collections::HashMap;

/// An interned variable name. The numeric value indexes the owning
/// [`NameTable`]; two equal ids always denote byte-identical names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NameId(pub u32);

/// Interning table for candidate variable names.
///
/// Built once per skeleton (every declared variable's name is interned at
/// construction), then shared read-only by any number of render workers.
///
/// # Examples
///
/// ```
/// use spe_skeleton::NameTable;
///
/// let mut t = NameTable::new();
/// let a = t.intern("a");
/// let b = t.intern("b");
/// assert_ne!(a, b);
/// assert_eq!(t.intern("a"), a); // duplicates collapse
/// assert_eq!(t.name(a), "a");
/// ```
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl NameTable {
    /// Creates an empty table.
    pub fn new() -> NameTable {
        NameTable::default()
    }

    /// Interns `name`, returning the existing id when already present.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(&i) = self.index.get(name) {
            return NameId(i);
        }
        let i = u32::try_from(self.names.len()).expect("fewer than 2^32 names");
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), i);
        NameId(i)
    }

    /// Looks up an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<NameId> {
        self.index.get(name).map(|&i| NameId(i))
    }

    /// The string of an interned id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn name(&self, id: NameId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// One input piece for [`RenderTemplate::from_parts`], the WHILE
/// template alphabet ([`spe_while::print_template`] lowers to it; mini-C
/// templates come from [`spe_minic::print_template`] in one buffer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplatePart {
    /// Literal text between holes (possibly empty).
    Text(String),
    /// A hole slot.
    Slot {
        /// Index of the hole (into the skeleton's source-ordered hole
        /// list) rendered at this position.
        hole: u32,
        /// The original program's (interned) name for this site.
        default: NameId,
    },
}

/// One hole slot of a compiled template.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Index of the hole (into the skeleton's source-ordered hole list)
    /// rendered at this position.
    hole: u32,
    /// The original program's name for this site — used when the rename
    /// vector is empty (identity rendering).
    default: NameId,
}

/// A skeleton's program compiled for repeated rendering: static text
/// segments interleaved with hole slots, in source order.
///
/// Layout: `segments.len() == slots.len() + 1`, and the rendered output is
/// `seg[0] name[0] seg[1] name[1] … seg[n]`. Static text is stored as byte
/// ranges into one flat buffer (which may also hold text between
/// segments, such as a slot's original name), so rendering touches
/// exactly two allocations total (the template and the caller's output
/// buffer) no matter how many variants are realized.
#[derive(Debug, Clone)]
pub struct RenderTemplate {
    /// All static text, concatenated.
    text: String,
    /// Byte ranges of the static segments within `text`.
    segments: Vec<(u32, u32)>,
    /// Hole slots between consecutive segments.
    slots: Vec<Slot>,
}

impl RenderTemplate {
    /// Compiles a template from backend-agnostic parts: static text
    /// interleaved with hole slots, in source order. Adjacent text parts
    /// merge; a slot with no preceding text gets an empty segment.
    pub fn from_parts(parts: impl IntoIterator<Item = TemplatePart>) -> RenderTemplate {
        let mut text = String::new();
        let mut segments = Vec::new();
        let mut slots = Vec::new();
        let mut seg_start = 0u32;
        for part in parts {
            match part {
                TemplatePart::Text(t) => text.push_str(&t),
                TemplatePart::Slot { hole, default } => {
                    let end = offset(text.len());
                    segments.push((seg_start, end));
                    seg_start = end;
                    slots.push(Slot { hole, default });
                }
            }
        }
        segments.push((seg_start, offset(text.len())));
        RenderTemplate {
            text,
            segments,
            slots,
        }
    }

    /// Compiles a template from a mini-C print template, keeping its text
    /// as the template's one buffer.
    ///
    /// `slot_of` gives a use site's hole index and original (interned)
    /// name; sites without a hole (never produced by well-formed
    /// skeletons) stay static text with their original names.
    pub(crate) fn from_print(
        printed: PrintTemplate,
        mut slot_of: impl FnMut(OccId) -> Option<(u32, NameId)>,
    ) -> RenderTemplate {
        let mut segments = Vec::with_capacity(printed.sites.len() + 1);
        let mut slots = Vec::with_capacity(printed.sites.len());
        let mut seg_start = 0u32;
        for (occ, range) in &printed.sites {
            if let Some((hole, default)) = slot_of(*occ) {
                segments.push((seg_start, offset(range.start)));
                slots.push(Slot { hole, default });
                seg_start = offset(range.end);
            }
        }
        segments.push((seg_start, offset(printed.text.len())));
        RenderTemplate {
            text: printed.text,
            segments,
            slots,
        }
    }

    /// Number of hole slots.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Renders one variant into `out` (clearing it first).
    ///
    /// `names[h]` is the name chosen for hole `h`; an **empty** slice
    /// renders the identity (every slot keeps its original name). `out` is
    /// reused across calls — after warm-up its capacity is stable and the
    /// render loop performs **zero heap allocation** per variant.
    ///
    /// # Panics
    ///
    /// Panics if `names` is non-empty but shorter than the skeleton's hole
    /// count, or if a name id is foreign to `table`.
    pub fn render_into(&self, names: &[NameId], table: &NameTable, out: &mut String) {
        out.clear();
        for (slot, &(s, e)) in self.slots.iter().zip(&self.segments) {
            out.push_str(&self.text[s as usize..e as usize]);
            let id = if names.is_empty() {
                slot.default
            } else {
                names[slot.hole as usize]
            };
            out.push_str(table.name(id));
        }
        let &(s, e) = self.segments.last().expect("segments = slots + 1");
        out.push_str(&self.text[s as usize..e as usize]);
    }

    /// Convenience wrapper allocating a fresh output string.
    pub fn render(&self, names: &[NameId], table: &NameTable) -> String {
        let mut out = String::with_capacity(self.text.len() + self.slots.len() * 4);
        self.render_into(names, table, &mut out);
        out
    }
}

/// A byte offset into a template's text.
fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("template under 4 GiB")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_deduplicating() {
        let mut t = NameTable::new();
        let ids: Vec<NameId> = ["x", "y", "x", "longer_name", "y"]
            .iter()
            .map(|n| t.intern(n))
            .collect();
        assert_eq!(ids[0], ids[2]);
        assert_eq!(ids[1], ids[4]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.name(ids[3]), "longer_name");
        assert_eq!(t.lookup("y"), Some(ids[1]));
        assert_eq!(t.lookup("absent"), None);
    }

    /// A print template over `parts`: literal text, or `(occ, name)` for
    /// a use site.
    fn printed(parts: &[Result<&str, (u32, &str)>]) -> PrintTemplate {
        let mut t = PrintTemplate {
            text: String::new(),
            sites: Vec::new(),
        };
        for part in parts {
            match *part {
                Ok(text) => t.text.push_str(text),
                Err((occ, name)) => {
                    let start = t.text.len();
                    t.text.push_str(name);
                    t.sites.push((OccId(occ), start..t.text.len()));
                }
            }
        }
        t
    }

    /// Compiles `t` with `holes[occ] = hole`, interning original names.
    fn compile(
        t: PrintTemplate,
        holes: &HashMap<OccId, u32>,
        table: &mut NameTable,
    ) -> RenderTemplate {
        let defaults: HashMap<OccId, NameId> = t
            .sites
            .iter()
            .map(|(occ, r)| (*occ, table.intern(&t.text[r.clone()])))
            .collect();
        RenderTemplate::from_print(t, |occ| holes.get(&occ).map(|&h| (h, defaults[&occ])))
    }

    #[test]
    fn template_splices_segments_and_slots() {
        let mut table = NameTable::new();
        let t = printed(&[
            Ok("int f() { return "),
            Err((0, "a")),
            Ok(" + "),
            Err((1, "b")),
            Ok("; }"),
        ]);
        let holes: HashMap<OccId, u32> = [(OccId(0), 0), (OccId(1), 1)].into();
        let tpl = compile(t, &holes, &mut table);
        assert_eq!(tpl.num_slots(), 2);
        let mut out = String::new();
        tpl.render_into(&[], &table, &mut out);
        assert_eq!(out, "int f() { return a + b; }");
        let b = table.lookup("b").expect("interned");
        let a = table.lookup("a").expect("interned");
        tpl.render_into(&[b, a], &table, &mut out);
        assert_eq!(out, "int f() { return b + a; }");
    }

    #[test]
    fn occ_without_hole_freezes_to_static_text() {
        let mut table = NameTable::new();
        let t = printed(&[Err((7, "ghost")), Ok(" = 0;")]);
        let tpl = compile(t, &HashMap::new(), &mut table);
        assert_eq!(tpl.num_slots(), 0);
        let mut out = String::from("stale");
        tpl.render_into(&[], &table, &mut out);
        assert_eq!(out, "ghost = 0;");
    }

    #[test]
    fn render_into_reuses_the_buffer_without_reallocating() {
        let mut table = NameTable::new();
        let long = table.intern("somewhat_long_variable");
        let short = table.intern("v");
        let t = printed(&[Ok("x = "), Err((0, "v")), Ok(";")]);
        let holes: HashMap<OccId, u32> = [(OccId(0), 0)].into();
        let tpl = compile(t, &holes, &mut table);
        let mut out = String::new();
        tpl.render_into(&[long], &table, &mut out); // warm-up sets capacity
        let cap = out.capacity();
        for _ in 0..100 {
            for id in [short, long] {
                tpl.render_into(&[id], &table, &mut out);
            }
        }
        assert_eq!(out.capacity(), cap, "buffer reallocated in the hot loop");
    }
}
