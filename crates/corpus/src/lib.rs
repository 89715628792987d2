//! Synthetic c-torture-like corpus for skeletal program enumeration.
//!
//! The paper's evaluation derives skeletons from GCC-4.8.5's regression
//! test-suite (~21K files, Table 2: avg 7.34 holes, 2.77 scopes, 1.85
//! functions, 3.46 candidate variables per hole). That suite is not
//! shippable here, so this crate generates a seeded, deterministic corpus
//! calibrated to the same statistics, plus the paper's own figure
//! programs as hand-written seeds. See `DESIGN.md` §3.
//!
//! # Examples
//!
//! ```
//! use spe_corpus::{generate, CorpusConfig};
//!
//! let files = generate(&CorpusConfig { files: 10, seed: 42 });
//! assert_eq!(files.len(), 10);
//! for f in &files {
//!     spe_minic::parse(&f.source).expect("corpus programs parse");
//! }
//! ```

#![forbid(unsafe_code)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub mod seeds;
pub mod stats;

/// Corpus generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusConfig {
    /// Number of files to generate.
    pub files: usize,
    /// RNG seed (generation is fully deterministic).
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            files: 2000,
            seed: 42,
        }
    }
}

/// One generated test file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestFile {
    /// Synthetic file name.
    pub name: String,
    /// Mini-C source.
    pub source: String,
}

/// Generates the corpus: mostly tiny c-torture-style programs, a minority
/// with pointers/arrays/gotos/structs, and a heavy tail of large
/// straight-line files that dominate the naive search space (as in the
/// paper's Table 1, where the naive total reaches 10^163).
pub fn generate(config: &CorpusConfig) -> Vec<TestFile> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    (0..config.files)
        .map(|i| {
            let source = gen_file(&mut rng, i);
            TestFile {
                name: format!("synthetic/t{i:05}.c"),
                source,
            }
        })
        .collect()
}

struct Gen {
    out: String,
    /// Visible integer variable names, per scope depth.
    scopes: Vec<Vec<String>>,
    next_var: usize,
    indent: usize,
}

impl Gen {
    fn new() -> Gen {
        Gen {
            out: String::new(),
            scopes: vec![Vec::new()],
            next_var: 0,
            indent: 0,
        }
    }

    fn fresh(&mut self) -> String {
        // Single letters first, then indexed names — like reduced test
        // cases in bug reports.
        const LETTERS: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
        let name = if self.next_var < LETTERS.len() {
            (LETTERS[self.next_var] as char).to_string()
        } else {
            format!("v{}", self.next_var)
        };
        self.next_var += 1;
        name
    }

    fn visible(&self) -> Vec<String> {
        self.scopes.iter().flatten().cloned().collect()
    }

    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn expr(&mut self, rng: &mut SmallRng, depth: usize) -> String {
        let vars = self.visible();
        if depth == 0 || vars.is_empty() || rng.gen_bool(0.3) {
            if !vars.is_empty() && rng.gen_bool(0.7) {
                return vars[rng.gen_range(0..vars.len())].clone();
            }
            return rng.gen_range(0..20i64).to_string();
        }
        let a = self.expr(rng, depth - 1);
        let b = self.expr(rng, depth - 1);
        let op = match rng.gen_range(0..10) {
            0..=3 => "+",
            4..=6 => "-",
            7..=8 => "*",
            _ => {
                // A ternary instead of an operator occasionally.
                let c = self.expr(rng, 0);
                return format!("({a} ? {b} : {c})");
            }
        };
        format!("({a} {op} {b})")
    }

    fn stmt(&mut self, rng: &mut SmallRng, depth: usize) {
        let vars = self.visible();
        if vars.is_empty() {
            let name = self.fresh();
            let init = rng.gen_range(0..10);
            self.line(&format!("int {name} = {init};"));
            self.scopes.last_mut().expect("scope").push(name);
            return;
        }
        match rng.gen_range(0..100) {
            // Plain assignment — the bread and butter of c-torture.
            0..=44 => {
                let target = vars[rng.gen_range(0..vars.len())].clone();
                let depth = rng.gen_range(1..3);
                let e = self.expr(rng, depth);
                self.line(&format!("{target} = {e};"));
            }
            45..=57 => {
                let target = vars[rng.gen_range(0..vars.len())].clone();
                let e = self.expr(rng, 1);
                let op = ["+=", "-=", "*="][rng.gen_range(0..3)];
                self.line(&format!("{target} {op} {e};"));
            }
            // New local declaration.
            58..=69 => {
                let name = self.fresh();
                let init = self.expr(rng, 1);
                self.line(&format!("int {name} = {init};"));
                self.scopes.last_mut().expect("scope").push(name);
            }
            // `if` with a block scope (the Figure 6 pattern).
            70..=84 if depth > 0 => {
                let cond = self.expr(rng, 1);
                self.line(&format!("if ({cond}) {{"));
                self.indent += 1;
                self.scopes.push(Vec::new());
                if rng.gen_bool(0.5) {
                    let name = self.fresh();
                    let init = self.expr(rng, 1);
                    self.line(&format!("int {name} = {init};"));
                    self.scopes.last_mut().expect("scope").push(name);
                }
                let inner = rng.gen_range(1..3);
                for _ in 0..inner {
                    self.stmt(rng, depth - 1);
                }
                self.scopes.pop();
                self.indent -= 1;
                self.line("}");
            }
            // Bounded for loop.
            85..=94 if depth > 0 => {
                let i = self.fresh();
                let bound = rng.gen_range(2..6);
                let target = vars[rng.gen_range(0..vars.len())].clone();
                self.line(&format!("for (int {i} = 0; {i} < {bound}; {i}++) {{"));
                self.indent += 1;
                self.scopes.push(vec![i.clone()]);
                let e = self.expr(rng, 1);
                self.line(&format!("{target} += {e};"));
                self.scopes.pop();
                self.indent -= 1;
                self.line("}");
            }
            _ => {
                let target = vars[rng.gen_range(0..vars.len())].clone();
                let e = self.expr(rng, 1);
                self.line(&format!("{target} = {e};"));
            }
        }
    }
}

fn gen_file(rng: &mut SmallRng, idx: usize) -> String {
    let profile = rng.gen_range(0..100);
    match profile {
        // 3%: struct-bearing files (exercise the C++-ish frontend bugs;
        // compile-only in campaigns).
        0..=2 => gen_struct_file(rng),
        // 6%: pointer/alias files (the Figure 2 population).
        3..=8 => gen_pointer_file(rng),
        // 6%: array/loop files (the Figure 12(b) population).
        9..=14 => gen_array_file(rng),
        // 4%: goto/label files (the Figure 11 population).
        15..=18 => gen_goto_file(rng),
        // 2%: heavy tail — large straight-line files dominating the
        // naive search space.
        19..=20 => gen_tail_file(rng, idx),
        // 20%: multi-type files — several independent type groups, the
        // structure behind the paper's six-orders-of-magnitude reduction
        // under the 10K threshold (naive multiplies over all holes, SPE
        // multiplies small per-group partition counts).
        21..=40 => gen_multitype_file(rng),
        // The rest: small arithmetic torture tests.
        _ => gen_plain_file(rng),
    }
}

fn gen_plain_file(rng: &mut SmallRng) -> String {
    let mut g = Gen::new();
    let nglobals = rng.gen_range(0..3);
    for _ in 0..nglobals {
        let name = g.fresh();
        let init = rng.gen_range(0..10);
        g.line(&format!("int {name} = {init};"));
        g.scopes[0].push(name);
    }
    let helpers = rng.gen_range(0..2);
    for h in 0..helpers {
        let p = g.fresh();
        g.line(&format!("int helper{h}(int {p}) {{"));
        g.indent += 1;
        g.scopes.push(vec![p]);
        let n = rng.gen_range(1..3);
        for _ in 0..n {
            g.stmt(rng, 1);
        }
        let ret = g.expr(rng, 1);
        g.line(&format!("return {ret};"));
        g.scopes.pop();
        g.indent -= 1;
        g.line("}");
    }
    g.line("int main() {");
    g.indent += 1;
    g.scopes.push(Vec::new());
    let nlocals = rng.gen_range(1..4);
    for _ in 0..nlocals {
        let name = g.fresh();
        let init = g.expr(rng, 1);
        g.line(&format!("int {name} = {init};"));
        g.scopes.last_mut().expect("scope").push(name);
    }
    let nstmts = rng.gen_range(2..7);
    for _ in 0..nstmts {
        g.stmt(rng, 2);
    }
    if helpers > 0 && rng.gen_bool(0.5) {
        let vars = g.visible();
        let target = vars[rng.gen_range(0..vars.len())].clone();
        let arg = g.expr(rng, 1);
        g.line(&format!("{target} = helper0({arg});"));
    }
    let ret = g.expr(rng, 1);
    g.line(&format!("return {ret};"));
    g.indent -= 1;
    g.line("}");
    g.out
}

fn gen_pointer_file(rng: &mut SmallRng) -> String {
    let mut g = Gen::new();
    let a = g.fresh();
    g.line(&format!("int {a} = 0;"));
    g.scopes[0].push(a.clone());
    let b = g.fresh();
    g.line(&format!("int {b} = 0;"));
    g.scopes[0].push(b.clone());
    g.line("int main() {");
    g.indent += 1;
    g.scopes.push(Vec::new());
    // Two pointers; whether they alias depends on enumeration.
    let t1 = if rng.gen_bool(0.5) {
        a.clone()
    } else {
        b.clone()
    };
    let t2 = if rng.gen_bool(0.5) {
        a.clone()
    } else {
        b.clone()
    };
    g.line(&format!("int *p = &{t1}, *q = &{t2};"));
    g.line(&format!("*p = {};", rng.gen_range(1..5)));
    g.line(&format!("*q = {};", rng.gen_range(5..9)));
    for _ in 0..rng.gen_range(0..3) {
        g.stmt(rng, 1);
    }
    let ret = if rng.gen_bool(0.5) { a } else { b };
    g.line(&format!("return {ret};"));
    g.indent -= 1;
    g.line("}");
    g.out
}

fn gen_array_file(rng: &mut SmallRng) -> String {
    let mut g = Gen::new();
    let n = rng.gen_range(4..10);
    g.line(&format!("int u[{n}];"));
    let a = g.fresh();
    let b = g.fresh();
    g.line(&format!("int {a} = 1, {b} = 2;"));
    g.scopes[0].push(a.clone());
    g.scopes[0].push(b.clone());
    g.line("int main() {");
    g.indent += 1;
    g.scopes.push(Vec::new());
    let i = g.fresh();
    g.line(&format!("for (int {i} = 0; {i} < {n}; {i}++) {{"));
    g.indent += 1;
    g.scopes.push(vec![i.clone()]);
    let e = g.expr(rng, 1);
    g.line(&format!("u[{i}] = {e};"));
    g.scopes.pop();
    g.indent -= 1;
    g.line("}");
    for _ in 0..rng.gen_range(1..4) {
        g.stmt(rng, 1);
    }
    g.line(&format!("return u[{}] + {a};", rng.gen_range(0..n)));
    g.indent -= 1;
    g.line("}");
    g.out
}

fn gen_goto_file(rng: &mut SmallRng) -> String {
    let mut g = Gen::new();
    g.line("int main() {");
    g.indent += 1;
    g.scopes.push(Vec::new());
    let i = g.fresh();
    let s = g.fresh();
    g.line(&format!("int {i} = 0, {s} = 0;"));
    g.scopes.last_mut().expect("scope").push(i.clone());
    g.scopes.last_mut().expect("scope").push(s.clone());
    g.line("again:");
    g.line(&format!("{i}++;"));
    let e = g.expr(rng, 1);
    g.line(&format!("{s} += {e};"));
    let bound = rng.gen_range(2..6);
    g.line(&format!("if ({i} < {bound}) goto again;"));
    for _ in 0..rng.gen_range(0..3) {
        g.stmt(rng, 1);
    }
    g.line(&format!("return {s};"));
    g.indent -= 1;
    g.line("}");
    g.out
}

fn gen_struct_file(rng: &mut SmallRng) -> String {
    let mut g = Gen::new();
    g.line("struct s {");
    g.line("    char c[1];");
    g.line("};");
    g.line("struct s a, b, c;");
    let d = g.fresh();
    let e = g.fresh();
    g.line(&format!("int {d} = 0; int {e} = 0;"));
    g.scopes[0].push(d.clone());
    g.scopes[0].push(e.clone());
    g.line("int main(void) {");
    g.indent += 1;
    g.scopes.push(Vec::new());
    // Nested conditional expressions over the int globals — the Figure 3
    // shape; which variables repeat is up to enumeration.
    let x = if rng.gen_bool(0.5) {
        d.clone()
    } else {
        e.clone()
    };
    let y = if rng.gen_bool(0.5) {
        d.clone()
    } else {
        e.clone()
    };
    g.line(&format!(
        "{d} = {x} ? ({y} == 0 ? 1 : 2) : ({x} == 0 ? 3 : 4);"
    ));
    g.line("return 0;");
    g.indent -= 1;
    g.line("}");
    g.out
}

fn gen_multitype_file(rng: &mut SmallRng) -> String {
    const TYPES: &[&str] = &["int", "unsigned", "long", "char", "double", "float"];
    let mut g = Gen::new();
    let ngroups = rng.gen_range(4..=TYPES.len() + 4);
    // Declare 2-3 variables per type group (pointer variants double the
    // group space); remember them per group.
    let mut groups: Vec<Vec<String>> = Vec::new();
    for gi in 0..ngroups {
        let ty = TYPES[gi % TYPES.len()];
        let star = if gi >= TYPES.len() { "*" } else { "" };
        // Few holes over many candidates per group: this is where the
        // (k-1)! reduction of Equation (2) bites hardest.
        let nvars = rng.gen_range(4..7);
        let mut names = Vec::new();
        let mut decl = format!("{ty} ");
        for v in 0..nvars {
            let name = g.fresh();
            if v > 0 {
                decl.push_str(", ");
            }
            decl.push_str(&format!("{star}{name}"));
            names.push(name);
        }
        decl.push(';');
        g.line(&decl);
        groups.push(names);
    }
    g.line("int main() {");
    g.indent += 1;
    // One or two holes' worth of uses per group, within the group's type.
    for (gi, names) in groups.iter().enumerate() {
        let is_ptr = gi >= TYPES.len();
        let a = &names[rng.gen_range(0..names.len())];
        let b = &names[rng.gen_range(0..names.len())];
        if is_ptr || rng.gen_bool(0.7) {
            g.line(&format!("{a} = {b};"));
        } else {
            let c = &names[rng.gen_range(0..names.len())];
            g.line(&format!("{a} = {b} + {c};"));
        }
    }
    g.line("return 0;");
    g.indent -= 1;
    g.line("}");
    g.out
}

fn gen_tail_file(rng: &mut SmallRng, idx: usize) -> String {
    let mut g = Gen::new();
    // Many variables, long straight-line body: the naive product
    // explodes while SPE stays Bell-bounded per block.
    let nvars = rng.gen_range(10..22);
    let nstmts = rng.gen_range(40..120) + (idx % 7) * 10;
    let mut decl = String::from("int ");
    for v in 0..nvars {
        let name = g.fresh();
        if v > 0 {
            decl.push_str(", ");
        }
        decl.push_str(&format!("{name} = {v}"));
        g.scopes[0].push(name);
    }
    decl.push(';');
    g.line(&decl);
    g.line("int main() {");
    g.indent += 1;
    g.scopes.push(Vec::new());
    for _ in 0..nstmts {
        let vars = g.visible();
        let t = vars[rng.gen_range(0..vars.len())].clone();
        let a = vars[rng.gen_range(0..vars.len())].clone();
        let b = vars[rng.gen_range(0..vars.len())].clone();
        let op = ["+", "-", "*"][rng.gen_range(0..3)];
        g.line(&format!("{t} = {a} {op} {b};"));
    }
    let ret = g.visible()[0].clone();
    g.line(&format!("return {ret};"));
    g.indent -= 1;
    g.line("}");
    g.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_skeleton::Skeleton;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&CorpusConfig { files: 25, seed: 7 });
        let b = generate(&CorpusConfig { files: 25, seed: 7 });
        assert_eq!(a, b);
        let c = generate(&CorpusConfig { files: 25, seed: 8 });
        assert_ne!(a, c);
    }

    #[test]
    fn all_files_parse_and_analyze() {
        let files = generate(&CorpusConfig {
            files: 300,
            seed: 42,
        });
        for f in &files {
            Skeleton::from_source(&f.source)
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", f.name, f.source));
        }
    }

    #[test]
    fn corpus_has_structural_diversity() {
        let files = generate(&CorpusConfig {
            files: 400,
            seed: 42,
        });
        let has = |needle: &str| files.iter().any(|f| f.source.contains(needle));
        assert!(has("struct s"), "struct files present");
        assert!(has("*p = "), "pointer files present");
        assert!(has("goto again"), "goto files present");
        assert!(has("u["), "array files present");
        assert!(has("for (int "), "loops present");
    }

    #[test]
    fn tail_files_have_many_holes() {
        let files = generate(&CorpusConfig {
            files: 400,
            seed: 42,
        });
        let max_holes = files
            .iter()
            .map(|f| {
                Skeleton::from_source(&f.source)
                    .map(|s| s.num_holes())
                    .unwrap_or(0)
            })
            .max()
            .expect("non-empty corpus");
        assert!(max_holes >= 80, "heavy tail missing: max holes {max_holes}");
    }

    #[test]
    fn most_files_are_small() {
        let files = generate(&CorpusConfig {
            files: 400,
            seed: 42,
        });
        let small = files
            .iter()
            .filter(|f| {
                Skeleton::from_source(&f.source)
                    .map(|s| s.num_holes() <= 30)
                    .unwrap_or(false)
            })
            .count();
        assert!(
            small * 10 >= files.len() * 7,
            "at least 70% of files should be small: {small}/{}",
            files.len()
        );
    }
}
