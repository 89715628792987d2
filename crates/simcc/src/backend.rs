//! Pluggable compiler backends behind the differential oracle.
//!
//! [`crate::Compiler::observe`] is the single oracle entry point the
//! campaign harness, the checkpointed driver and the test-case reducer
//! share: *"what does this compiler configuration do on this program?"*.
//! This module abstracts **who answers** that question behind the
//! [`CompilerBackend`] trait, so the same campaign machinery can drive
//!
//! * the in-process `simcc` simulator ([`SimccBackend`], the default —
//!   byte-identical to the direct [`crate::Compiler::observe`] path, as
//!   pinned by `tests/backend_identity.rs`), or
//! * **external compiler binaries** through the `spe-subproc` crate's
//!   subprocess backend (process pool, per-job timeouts, exit-code /
//!   signal / stderr triage, sandboxed scratch dirs — `DESIGN.md` §10).
//!
//! A backend is a value: construct it and hand it to a campaign.
//! Checkpoint journals record its stable [`CompilerBackend::id`]
//! together with [`CompilerBackend::config_hash`], so a resumed
//! campaign can *refuse* to continue under a different oracle instead
//! of silently diverging.
//!
//! # Verdicts vs. failures
//!
//! A backend answers with an [`Observation`] whenever the compiler under
//! test *answered* — even by crashing, hanging past a timeout, or
//! emitting garbage: those are **verdicts** (findings about the
//! compiler), triaged into the observation's ICE / divergence /
//! slow-compile classes. [`BackendError`] is reserved for failures of
//! the backend **machinery itself** (a binary that cannot be spawned, a
//! scratch directory that cannot be written): the campaign quarantines
//! the affected (file, shard) job as a `BackendDegraded` finding and
//! carries on, rather than wedging or panicking.

use crate::{Compiler, Observation};
use std::collections::HashSet;
use std::fmt;
use std::sync::Mutex;
use std::sync::OnceLock;

/// A failure of the backend machinery itself — *not* a compiler verdict.
///
/// See the [module docs](self) for the verdict/failure distinction; the
/// campaign maps persistent `BackendError`s onto quarantined
/// `BackendDegraded` findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendError {
    /// Human-readable description of what broke (spawn failure, scratch
    /// I/O error, configuration mismatch, …).
    pub what: String,
}

impl BackendError {
    /// Builds an error from anything displayable.
    pub fn new(what: impl fmt::Display) -> BackendError {
        BackendError {
            what: what.to_string(),
        }
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "backend failure: {}", self.what)
    }
}

impl std::error::Error for BackendError {}

/// The oracle abstraction: observes what compiler configurations do on
/// rendered program variants.
///
/// Implementations must be thread-safe — campaign workers call
/// [`CompilerBackend::observe_variant`] concurrently from the
/// work-stealing pool. A backend that shells out should bound its own
/// concurrency (see `spe-subproc`'s process pool).
pub trait CompilerBackend: Send + Sync {
    /// Stable identifier recorded in checkpoint-journal manifests
    /// (`"simcc"`, `"spe-subproc"`, …). Resume compares it and refuses a
    /// journal written under a different backend.
    fn id(&self) -> &str;

    /// FNV-1a hash of the backend-specific configuration (command lines,
    /// timeouts, execution mode, …). Recorded next to [`Self::id`] in
    /// journal manifests: two backends with the same id but different
    /// configurations would observe differently, so resume refuses a
    /// hash mismatch too. Must be stable across processes — hash only
    /// deterministic configuration, never addresses or times.
    fn config_hash(&self) -> u64;

    /// Observes one `(source, compiler configuration)` pair — the
    /// granularity of the reduction oracle's re-checks.
    ///
    /// With `wrong_code_fuel: Some(fuel)` the differential wrong-code
    /// fields of the [`Observation`] are filled (reference interpreter
    /// at `fuel`, compiled execution at `4 * fuel`, mirroring
    /// [`crate::Compiler::observe`]); with `None` only compile-time
    /// verdicts are observed.
    ///
    /// # Errors
    ///
    /// [`BackendError`] only for machinery failures; compiler crashes,
    /// hangs and garbage are verdicts, returned as observations.
    fn observe_config(
        &self,
        source: &str,
        cc: Compiler,
        wrong_code_fuel: Option<u64>,
    ) -> Result<Observation, BackendError>;

    /// Observes one rendered variant under every configuration in
    /// `compilers`, returning one [`Observation`] per configuration in
    /// order — or an **empty** vector when the variant is not a testable
    /// program for this backend (e.g. it does not parse), in which case
    /// the campaign skips it without counting it as tested.
    ///
    /// The default implementation loops [`Self::observe_config`];
    /// backends amortize per-variant work here (the in-process backend
    /// parses once and evaluates the reference interpreter once for all
    /// configurations).
    ///
    /// # Errors
    ///
    /// As [`Self::observe_config`].
    fn observe_variant(
        &self,
        source: &str,
        compilers: &[Compiler],
        wrong_code_fuel: Option<u64>,
    ) -> Result<Vec<Observation>, BackendError> {
        compilers
            .iter()
            .map(|cc| self.observe_config(source, *cc, wrong_code_fuel))
            .collect()
    }
}

/// The in-process `simcc` backend: [`crate::Compiler::observe`] behind
/// the trait, parsing every variant afresh — the round trip the
/// harness's incremental splice oracle is pinned byte-identical to by
/// `tests/backend_identity.rs` and `tests/oracle_identity.rs`, and the
/// identity its journals record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimccBackend;

/// The manifest backend id of [`SimccBackend`].
pub const SIMCC_BACKEND_ID: &str = "simcc";

/// The configuration hash of [`SimccBackend`] — the backend is a pure
/// function of the workspace build, so the hash is a constant (the
/// FNV-1a offset basis).
pub const SIMCC_CONFIG_HASH: u64 = 0xcbf2_9ce4_8422_2325;

impl CompilerBackend for SimccBackend {
    fn id(&self) -> &str {
        SIMCC_BACKEND_ID
    }

    fn config_hash(&self) -> u64 {
        SIMCC_CONFIG_HASH
    }

    fn observe_config(
        &self,
        source: &str,
        cc: Compiler,
        wrong_code_fuel: Option<u64>,
    ) -> Result<Observation, BackendError> {
        let telemetry = spe_telemetry::global();
        match spe_minic::parse(source) {
            Err(_) => {
                telemetry.counter(spe_telemetry::names::SIMCC_PARSE_REJECTS, 1);
                Ok(Observation {
                    unsupported: true,
                    ..Observation::default()
                })
            }
            Ok(p) => {
                telemetry.counter(spe_telemetry::names::SIMCC_OBSERVATIONS, 1);
                Ok(cc.observe(&p, wrong_code_fuel))
            }
        }
    }

    fn observe_variant(
        &self,
        source: &str,
        compilers: &[Compiler],
        wrong_code_fuel: Option<u64>,
    ) -> Result<Vec<Observation>, BackendError> {
        let telemetry = spe_telemetry::global();
        let Ok(prog) = spe_minic::parse(source) else {
            telemetry.counter(spe_telemetry::names::SIMCC_PARSE_REJECTS, 1);
            return Ok(Vec::new());
        };
        telemetry.counter(
            spe_telemetry::names::SIMCC_OBSERVATIONS,
            compilers.len() as u64,
        );
        // Parse once, evaluate the reference interpreter at most once —
        // and only for a configuration that compiled, so `reference_ub`
        // skip flags are set exactly where a compiled run is compared.
        let mut reference = None;
        Ok(compilers
            .iter()
            .map(|cc| cc.observe_with_reference(&prog, wrong_code_fuel, &mut reference))
            .collect())
    }
}

/// Interns a string, returning a `'static` reference that is pointer- and
/// content-stable for the life of the process.
///
/// External backends triage dynamic artifacts — crash signatures from
/// stderr, signal names, exit codes — into the `&'static str` slots of
/// [`crate::Ice`] and [`Observation`] that the in-process simulator
/// fills from its compile-time registry. Interning deduplicates, so the
/// leaked memory is bounded by the number of *distinct* triage strings
/// (small in practice: backends canonicalize before interning).
pub fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashSet::new()));
    let mut pool = pool.lock().expect("poisoned");
    match pool.get(s) {
        Some(known) => known,
        None => {
            let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
            pool.insert(leaked);
            leaked
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompilerId;

    #[test]
    fn simcc_backend_matches_direct_observe() {
        let srcs = [
            // Figure 3 crash on trunk gcc.
            "int d, e, b, c; int main(void) { e ? (d==0 ? b : c) : (d==0 ? b : c); return 0; }",
            // Figure 2 miscompile.
            "int a = 0; int main() { int *p = &a, *q = &a; *p = 1; *q = 2; return a; }",
            // UB variant.
            "int main() { int a = 0, b = 4; b = b / a; return b; }",
            // Clean program.
            "int main() { int a = 6, b = 7; return a * b; }",
        ];
        let backend = SimccBackend;
        let compilers = [
            Compiler::new(CompilerId::gcc(700), 0),
            Compiler::new(CompilerId::gcc(485), 2),
            Compiler::new(CompilerId::clang(390), 3),
        ];
        for src in srcs {
            for fuel in [None, Some(20_000)] {
                let p = spe_minic::parse(src).expect("parses");
                let direct: Vec<Observation> =
                    compilers.iter().map(|cc| cc.observe(&p, fuel)).collect();
                let batched = backend
                    .observe_variant(src, &compilers, fuel)
                    .expect("in-process backend never fails");
                assert_eq!(direct, batched, "{src} at fuel {fuel:?}");
                for (cc, want) in compilers.iter().zip(&direct) {
                    let got = backend.observe_config(src, *cc, fuel).expect("no failure");
                    assert_eq!(&got, want, "{src} under {}", cc.id());
                }
            }
        }
    }

    #[test]
    fn unparseable_variants_are_skipped_not_errors() {
        let backend = SimccBackend;
        let compilers = [Compiler::new(CompilerId::gcc(700), 2)];
        let obs = backend
            .observe_variant("int main( {", &compilers, None)
            .expect("skip, not a failure");
        assert!(obs.is_empty());
        let single = backend
            .observe_config("int main( {", compilers[0], None)
            .expect("skip, not a failure");
        assert!(single.unsupported);
    }

    #[test]
    fn intern_is_stable_and_deduplicating() {
        let a = intern("signal 11 (SIGSEGV)");
        let b = intern(String::from("signal 11 (SIGSEGV)").as_str());
        assert_eq!(a, b);
        assert!(std::ptr::eq(a, b), "same allocation");
        assert_ne!(intern("signal 6 (SIGABRT)"), a);
    }
}
