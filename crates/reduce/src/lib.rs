//! `spe-reduce` — hierarchical test-case reduction and structural witness
//! fingerprinting for campaign findings.
//!
//! The SPE paper reports bugs after deduplicating crash signatures
//! (Table 3); every production compiler-testing pipeline additionally
//! pairs generation with *reduction*, shrinking each reproducer to a
//! minimal witness before filing it, and dedups reports on the reduced
//! witness rather than on the raw symptom (see `DESIGN.md` §7). This
//! crate is that stage for the mini-C toolchain:
//!
//! 1. **Statement-level delta debugging** ([`stmts`]): ddmin over
//!    top-level items, then over every statement list of every block
//!    (outermost first), plus control-structure unwrapping (`if`/loops/
//!    labels collapse to their bodies) and declarator pruning;
//! 2. **Expression simplification** ([`exprs`]): each expression site is
//!    repeatedly replaced by one of its own sub-expressions (hoisting) or
//!    by a literal, top-down, keeping only changes the oracle accepts;
//! 3. **Skeleton-aware canonicalization** ([`canon`]): variables and
//!    labels are α-renamed into declaration-order normal form, so two
//!    witnesses of the same root cause that differ only in naming become
//!    byte-identical;
//! 4. **Structural fingerprinting** ([`fingerprint`]): a 64-bit FNV-1a
//!    hash of the canonicalized witness, the key of the campaign's second
//!    (ground-truth-free) dedup pass.
//!
//! The reducer is generic over the *oracle*: any `FnMut(&Program) -> bool`
//! deciding whether a candidate still reproduces the finding. The harness
//! instantiates it with "the same `simcc` configuration still observes the
//! same `FindingKind` + bug id" (see `spe_harness::reduction`). Candidates
//! must also re-parse and pass `spe_minic::sema` — the reducer enforces
//! both before ever consulting the oracle, so every accepted witness is a
//! well-formed program.
//!
//! Reduction is **deterministic**: the same input and oracle always
//! produce the same witness, which is what lets the harness fan reduction
//! jobs over a work-stealing pool and still emit byte-identical reports.
//!
//! # Quick start
//!
//! ```
//! use spe_reduce::{reduce, ReduceConfig};
//!
//! // Shrink a program while keeping its self-assignment intact.
//! let src = "int a, b, c;
//! int main() {
//!     b = 1;
//!     c = b + 2;
//!     a = a;
//!     return c;
//! }
//! ";
//! let reduction = reduce(src, &ReduceConfig::default(), &mut |p| {
//!     spe_minic::print_program(p).contains("a = a;")
//! })?;
//! assert!(reduction.reduced_bytes < reduction.original_bytes);
//! assert!(reduction.witness.contains("a = a;"));
//! # Ok::<(), spe_reduce::ReduceError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use spe_minic::ast::Program;
use std::fmt;

pub mod canon;
pub mod ddmin;
pub mod exprs;
pub mod fingerprint;
pub mod stmts;

pub use fingerprint::Fingerprint;

/// Reduction limits and switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceConfig {
    /// Upper bound on oracle invocations; when exhausted, reduction stops
    /// and returns the best witness found so far (still reproducing).
    pub max_oracle_calls: usize,
    /// Maximum number of full statement+expression pipeline rounds; the
    /// loop also stops as soon as a round fails to shrink the witness.
    pub max_rounds: usize,
    /// Whether to α-normalize variable and label names at the end
    /// (required for fingerprint-based dedup across findings).
    pub canonicalize: bool,
}

impl Default for ReduceConfig {
    fn default() -> Self {
        ReduceConfig {
            max_oracle_calls: 2048,
            max_rounds: 4,
            canonicalize: true,
        }
    }
}

/// Why reduction could not run at all.
#[derive(Debug, Clone, PartialEq)]
pub enum ReduceError {
    /// The input failed to parse.
    Parse(spe_minic::ParseError),
    /// The input failed scope analysis.
    Sema(spe_minic::SemaError),
    /// The oracle rejected the unmodified input: there is nothing to
    /// preserve while shrinking.
    NotReproducing,
}

impl fmt::Display for ReduceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReduceError::Parse(e) => write!(f, "reduce: {e}"),
            ReduceError::Sema(e) => write!(f, "reduce: {e}"),
            ReduceError::NotReproducing => {
                f.write_str("reduce: the oracle rejects the original input")
            }
        }
    }
}

impl std::error::Error for ReduceError {}

/// Outcome of a successful reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reduction {
    /// The reduced witness, still reproducing under the oracle. Never
    /// larger than the input source.
    pub witness: String,
    /// Structural fingerprint of the (canonicalized) witness.
    pub fingerprint: Fingerprint,
    /// Byte size of the input reproducer.
    pub original_bytes: usize,
    /// Byte size of [`Reduction::witness`].
    pub reduced_bytes: usize,
    /// Oracle invocations spent.
    pub oracle_calls: usize,
    /// Pipeline rounds run.
    pub rounds: usize,
}

impl Reduction {
    /// How many times smaller the witness is than the input (`>= 1.0`).
    pub fn shrink_ratio(&self) -> f64 {
        self.original_bytes as f64 / self.reduced_bytes.max(1) as f64
    }
}

/// The oracle plus its invocation budget; candidate programs additionally
/// must pass scope analysis before the oracle is consulted.
pub(crate) struct Shrinker<'a> {
    oracle: &'a mut dyn FnMut(&Program) -> bool,
    calls: usize,
    budget: usize,
}

impl<'a> Shrinker<'a> {
    pub(crate) fn new(oracle: &'a mut dyn FnMut(&Program) -> bool, budget: usize) -> Shrinker<'a> {
        Shrinker {
            oracle,
            calls: 0,
            budget,
        }
    }

    /// Whether the oracle budget is spent.
    pub(crate) fn exhausted(&self) -> bool {
        self.calls >= self.budget
    }

    pub(crate) fn calls(&self) -> usize {
        self.calls
    }

    /// Whether `p` is a well-formed program that still reproduces. The
    /// candidate is validated through a print → parse → sema roundtrip
    /// first — so every accepted edit is guaranteed to survive as source
    /// text, and the oracle always sees the normalized reparse (fresh
    /// occurrence ids) that the final witness will also produce. Costs one
    /// oracle call; rejects outright once the budget is exhausted so
    /// in-flight ddmin runs unwind quickly.
    pub(crate) fn accepts(&mut self, p: &Program) -> bool {
        if self.exhausted() {
            return false;
        }
        self.calls += 1;
        let src = spe_minic::print_program(p);
        let Ok(reparsed) = spe_minic::parse(&src) else {
            return false;
        };
        spe_minic::analyze(&reparsed).is_ok() && (self.oracle)(&reparsed)
    }
}

/// Printed size of a program — the measure every pass shrinks.
pub(crate) fn printed_len(p: &Program) -> usize {
    spe_minic::print_program(p).len()
}

/// Reduces `source` to a minimal witness still accepted by `oracle`.
///
/// The pipeline alternates statement-level ddmin and expression
/// simplification until a fixed point (or [`ReduceConfig::max_rounds`] /
/// the oracle budget), then canonicalizes names and fingerprints the
/// result. The returned witness always parses, passes scope analysis,
/// reproduces under `oracle`, and is never larger than `source`.
///
/// # Errors
///
/// [`ReduceError::Parse`] / [`ReduceError::Sema`] when the input is not a
/// well-formed program, [`ReduceError::NotReproducing`] when the oracle
/// rejects the unmodified input.
pub fn reduce(
    source: &str,
    config: &ReduceConfig,
    oracle: &mut dyn FnMut(&Program) -> bool,
) -> Result<Reduction, ReduceError> {
    let original = spe_minic::parse(source).map_err(ReduceError::Parse)?;
    spe_minic::analyze(&original).map_err(ReduceError::Sema)?;
    if !oracle(&original) {
        return Err(ReduceError::NotReproducing);
    }
    let mut sh = Shrinker::new(oracle, config.max_oracle_calls);
    let mut current = original;
    let mut rounds = 0;
    while rounds < config.max_rounds && !sh.exhausted() {
        rounds += 1;
        let before = printed_len(&current);
        stmts::reduce(&mut current, &mut sh);
        exprs::reduce(&mut current, &mut sh);
        if printed_len(&current) >= before {
            break;
        }
    }

    // Canonicalize for fingerprinting; adopt the canonical spelling as the
    // witness only when it still reproduces (α-renaming preserves every
    // structural trigger, so in practice it always does).
    let canonical = canon::canonicalize(&current);
    let fp = fingerprint::of_canonical(&canonical);
    let mut witness = spe_minic::print_program(&current);
    if config.canonicalize {
        let canonical_src = spe_minic::print_program(&canonical);
        if canonical_src.len() <= witness.len() && sh.accepts(&canonical) {
            witness = canonical_src;
        }
    }
    // The reducer only ever deletes or replaces-with-smaller, so the
    // witness cannot exceed the input; keep the guarantee airtight even
    // for inputs whose original spelling differs from the printer's.
    if witness.len() > source.len() {
        witness = source.to_string();
    }
    let reduction = Reduction {
        reduced_bytes: witness.len(),
        witness,
        fingerprint: fp,
        original_bytes: source.len(),
        oracle_calls: sh.calls(),
        rounds,
    };
    let telemetry = spe_telemetry::global();
    if telemetry.enabled() {
        use spe_telemetry::names;
        telemetry.histogram(names::REDUCE_ORACLE_CALLS, reduction.oracle_calls as u64);
        telemetry.histogram(names::REDUCE_ROUNDS, reduction.rounds as u64);
        telemetry.histogram(
            names::REDUCE_SHRINK_X100,
            (reduction.shrink_ratio() * 100.0) as u64,
        );
        telemetry.counter(names::REDUCE_REDUCED, 1);
    }
    Ok(reduction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_minic::print_program;

    fn contains_oracle(needle: &'static str) -> impl FnMut(&Program) -> bool {
        move |p: &Program| print_program(p).contains(needle)
    }

    #[test]
    fn rejects_non_reproducing_input() {
        let err = reduce(
            "int main() { return 0; }",
            &ReduceConfig::default(),
            &mut contains_oracle("nowhere"),
        )
        .unwrap_err();
        assert_eq!(err, ReduceError::NotReproducing);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(matches!(
            reduce("int main( {", &ReduceConfig::default(), &mut |_| true),
            Err(ReduceError::Parse(_))
        ));
    }

    #[test]
    fn shrinks_to_the_preserved_statement() {
        let src = "int a, b, c;
int main() {
    b = 1;
    c = b + 2;
    a = a;
    b = c - b;
    return c;
}
";
        let r = reduce(
            src,
            &ReduceConfig::default(),
            &mut contains_oracle("a = a;"),
        )
        .expect("reduces");
        assert!(r.witness.contains("a = a;"), "witness:\n{}", r.witness);
        assert!(!r.witness.contains("c - b"), "witness:\n{}", r.witness);
        assert!(r.reduced_bytes < r.original_bytes);
        assert!(r.shrink_ratio() > 1.5, "ratio {}", r.shrink_ratio());
        spe_minic::analyze(&spe_minic::parse(&r.witness).expect("parses")).expect("sema");
    }

    #[test]
    fn witness_is_never_larger_than_the_input() {
        // An already-minimal program cannot grow (canonicalization is
        // rejected when it would lengthen the witness).
        let src = "int z;\nint main() {\n    z = z;\n    return 0;\n}\n";
        let r = reduce(
            src,
            &ReduceConfig::default(),
            &mut contains_oracle("z = z;"),
        )
        .expect("reduces");
        assert!(r.reduced_bytes <= src.len());
        assert!(r.witness.contains("z = z;"));
    }

    #[test]
    fn reduction_is_deterministic() {
        let src = "int a, b, c, d;
int main() {
    a = b + c * d;
    d = a - b;
    c = c / (d + 1);
    a = a;
    return d;
}
";
        let one = reduce(
            src,
            &ReduceConfig::default(),
            &mut contains_oracle("a = a;"),
        )
        .expect("reduces");
        let two = reduce(
            src,
            &ReduceConfig::default(),
            &mut contains_oracle("a = a;"),
        )
        .expect("reduces");
        assert_eq!(one, two);
    }

    #[test]
    fn oracle_budget_still_returns_a_reproducing_witness() {
        let src = "int a, b;
int main() {
    b = 2;
    a = a;
    return b;
}
";
        let r = reduce(
            src,
            &ReduceConfig {
                max_oracle_calls: 3,
                ..ReduceConfig::default()
            },
            &mut contains_oracle("a = a;"),
        )
        .expect("reduces");
        assert!(r.witness.contains("a = a;"));
        assert!(
            r.oracle_calls <= 4,
            "budget respected, got {}",
            r.oracle_calls
        );
    }

    #[test]
    fn alpha_equivalent_inputs_share_a_fingerprint() {
        let a = "int x, y; int main() { x = x; y = x + 1; return y; }";
        let b = "int q, w; int main() { q = q; w = q + 1; return w; }";
        let config = ReduceConfig::default();
        let fa = reduce(a, &config, &mut |p| print_program(p).contains(" = "))
            .expect("reduces")
            .fingerprint;
        let fb = reduce(b, &config, &mut |p| print_program(p).contains(" = "))
            .expect("reduces")
            .fingerprint;
        assert_eq!(fa, fb, "α-equivalent witnesses must collide");
    }
}
