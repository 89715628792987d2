//! Orion-style program mutation baseline (the PM-X series of Figure 9).
//!
//! Orion deletes statements from unexecuted regions of a seed program.
//! This implementation approximates it by deleting randomly chosen
//! side-effect-only statements (expression statements), which always
//! preserves compilability; semantic preservation is irrelevant for the
//! coverage comparison the baseline is used in.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spe_minic::ast::{Item, Node, Program, Stmt};
use std::ops::ControlFlow;

/// Generates up to `n_variants` mutants of `src`, each deleting up to
/// `delete` expression statements. Returns fewer variants when the
/// program has no deletable statements.
///
/// # Examples
///
/// ```
/// let vs = spe_harness::mutation::pm_variants(
///     "int a; int main() { a = 1; a = 2; a = 3; return a; }", 1, 4, 7);
/// assert!(!vs.is_empty());
/// for v in &vs {
///     spe_minic::parse(v).expect("mutants stay parseable");
/// }
/// ```
pub fn pm_variants(src: &str, delete: usize, n_variants: usize, seed: u64) -> Vec<String> {
    let Ok(prog) = spe_minic::parse(src) else {
        return Vec::new();
    };
    let total = count_deletable(&prog);
    if total == 0 {
        return Vec::new();
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..n_variants * 3 {
        if out.len() >= n_variants {
            break;
        }
        let k = delete.min(total).max(1);
        let mut chosen: Vec<usize> = (0..total).collect();
        // Partial Fisher-Yates to pick k distinct statement indices.
        for i in 0..k {
            let j = rng.gen_range(i..total);
            chosen.swap(i, j);
        }
        let mut kill: Vec<usize> = chosen[..k].to_vec();
        kill.sort_unstable();
        let mutated = delete_statements(&prog, &kill);
        let text = spe_minic::print_program(&mutated);
        if seen.insert(text.clone()) {
            out.push(text);
        }
    }
    out
}

fn count_deletable(p: &Program) -> usize {
    let mut n = 0;
    for f in p.functions() {
        for s in &f.body {
            count_stmt(s, &mut n);
        }
    }
    n
}

fn count_stmt(s: &Stmt, n: &mut usize) {
    if let Stmt::Expr(_) = s {
        *n += 1;
    }
    let _ = s.children(|c| {
        if let Node::Stmt(c) = c {
            count_stmt(c, n);
        }
        ControlFlow::<()>::Continue(())
    });
}

fn delete_statements(p: &Program, kill: &[usize]) -> Program {
    let mut counter = 0usize;
    let mut prog = p.clone();
    for item in &mut prog.items {
        if let Item::Func(f) = item {
            f.body
                .iter_mut()
                .for_each(|s| rewrite(s, kill, &mut counter));
        }
    }
    prog
}

/// Empties the expression statements under `s` whose index (in the
/// order [`count_stmt`] counts them) is in `kill`.
fn rewrite(s: &mut Stmt, kill: &[usize], counter: &mut usize) {
    if let Stmt::Expr(_) = s {
        if kill.contains(counter) {
            *s = Stmt::Empty;
        }
        *counter += 1;
        return;
    }
    let _ = s.children_mut(|c| {
        if let Node::Stmt(c) = c {
            rewrite(c, kill, counter);
        }
        ControlFlow::<()>::Continue(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str =
        "int a, b; int main() { a = 1; b = 2; a = a + b; if (a) { b = 3; } return a; }";

    #[test]
    fn mutants_parse_and_differ() {
        let vs = pm_variants(SRC, 2, 5, 42);
        assert!(!vs.is_empty());
        let original = spe_minic::print_program(&spe_minic::parse(SRC).expect("parses"));
        for v in &vs {
            spe_minic::parse(v).expect("mutant parses");
            assert_ne!(*v, original, "mutant must differ");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(pm_variants(SRC, 2, 5, 1), pm_variants(SRC, 2, 5, 1));
    }

    #[test]
    fn no_deletable_statements_yields_nothing() {
        let vs = pm_variants("int main() { return 0; }", 3, 5, 1);
        assert!(vs.is_empty());
    }

    #[test]
    fn deeper_deletion_removes_more() {
        let one = pm_variants(SRC, 1, 1, 9);
        let many = pm_variants(SRC, 4, 1, 9);
        assert!(!one.is_empty() && !many.is_empty());
        assert!(many[0].matches(';').count() <= one[0].matches(';').count());
    }
}
