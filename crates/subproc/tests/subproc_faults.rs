//! Fault-injection suite for the hardened subprocess oracle.
//!
//! Every way an external compiler can misbehave — nonzero exits, death
//! by signal, hangs past the timeout, garbage or truncated protocol
//! stdout, flakiness that heals on retry, commands that cannot be
//! spawned at all — is injected through throwaway shell-script
//! "compilers" and asserted to land in exactly the triage class the
//! crate documents: verdicts for compiler behaviour, quarantine for
//! backend machinery, and never a hang or panic of the campaign.

use spe_core::Algorithm;
use spe_harness::checkpoint::{resume_campaign, CheckpointOptions};
use spe_harness::{Campaign, CampaignConfig, FindingKind, Oracle};
use spe_simcc::backend::CompilerBackend;
use spe_simcc::{Compiler, CompilerId, Divergence};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A throwaway directory under the target tmpdir, fresh per test.
fn fixture_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("fixture dir");
    dir
}

/// Writes an executable `/bin/sh` fixture compiler.
fn write_script(dir: &Path, name: &str, body: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, format!("#!/bin/sh\n{body}\n")).expect("write script");
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755))
            .expect("chmod script");
    }
    path.to_string_lossy().into_owned()
}

/// A backend over `command`, scratching under the fixture dir so the
/// suite never litters the system temp directory.
fn backend_in(
    dir: &Path,
    command: &str,
    tweak: impl FnOnce(&mut spe_subproc::SubprocConfig),
) -> spe_subproc::SubprocBackend {
    let mut config = spe_subproc::SubprocConfig::new(vec![command.to_string()]);
    config.scratch_root = Some(dir.join("scratch"));
    config.retries = 0;
    tweak(&mut config);
    spe_subproc::SubprocBackend::new(config).expect("backend")
}

fn cc() -> Compiler {
    Compiler::new(CompilerId::gcc(700), 2)
}

const TRIVIAL: &str = "int main() { return 0; }";

#[test]
fn crash_stderr_line_becomes_the_ice_signature() {
    let dir = fixture_dir("crash-stderr");
    let script = write_script(
        &dir,
        "cc",
        "echo 'cc1plus: internal compiler error: injected fault' >&2\nexit 4",
    );
    let backend = backend_in(&dir, &script, |_| {});
    let obs = backend.observe_config(TRIVIAL, cc(), None).expect("verdict");
    let ice = obs.ice.expect("abnormal exit is an ICE verdict");
    assert_eq!(ice.signature, "cc1plus: internal compiler error: injected fault");
    assert_eq!(ice.bug_id, ice.signature, "triage line doubles as dedup id");
    assert_eq!(
        backend.stats().preserved.len(),
        1,
        "faulted job's scratch dir is preserved for debugging"
    );
    assert!(backend.stats().preserved[0].exists());
}

#[test]
fn quiet_abnormal_exit_is_an_ice_keyed_on_the_exit_code() {
    let dir = fixture_dir("quiet-exit");
    let script = write_script(&dir, "cc", "exit 7");
    let backend = backend_in(&dir, &script, |_| {});
    let obs = backend.observe_config(TRIVIAL, cc(), None).expect("verdict");
    assert_eq!(obs.ice.expect("ICE").signature, "abnormal exit 7");
}

#[test]
fn exit_one_is_a_rejected_program_not_a_bug() {
    let dir = fixture_dir("rejected");
    let script = write_script(&dir, "cc", "echo 'unsupported construct' >&2\nexit 1");
    let backend = backend_in(&dir, &script, |_| {});
    let obs = backend.observe_config(TRIVIAL, cc(), None).expect("verdict");
    assert!(obs.unsupported);
    assert!(obs.ice.is_none());
    assert!(
        backend.stats().preserved.is_empty(),
        "a rejection is not a fault; scratch is cleaned up"
    );
}

#[cfg(unix)]
#[test]
fn signal_death_is_an_ice_naming_the_signal() {
    let dir = fixture_dir("sigsegv");
    let script = write_script(&dir, "cc", "kill -SEGV $$");
    let backend = backend_in(&dir, &script, |_| {});
    let obs = backend.observe_config(TRIVIAL, cc(), None).expect("verdict");
    assert_eq!(obs.ice.expect("ICE").signature, "signal 11 (SIGSEGV)");
}

#[test]
fn hang_is_killed_at_the_timeout_and_triaged_slow_compile() {
    let dir = fixture_dir("hang");
    // `exec` replaces the shell so the kill reaches the sleeper itself.
    let script = write_script(&dir, "cc", "exec sleep 60");
    let backend = backend_in(&dir, &script, |c| {
        c.timeout = Duration::from_millis(200);
    });
    let started = Instant::now();
    let obs = backend.observe_config(TRIVIAL, cc(), None).expect("verdict");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "child was not killed at the 200ms timeout"
    );
    assert!(obs.ice.is_none());
    assert_eq!(obs.slow_compile.len(), 1, "timeout is a slow-compile verdict");
    assert!(obs.slow_compile[0].contains("timeout"));
    let stats = backend.stats();
    assert_eq!(stats.timeouts, 1);
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.preserved.len(), 1, "timed-out job scratch preserved");
}

#[test]
fn garbage_and_truncated_stdout_are_ices() {
    let dir = fixture_dir("garbage");
    for (name, body) in [
        ("noise", "echo 'collect2: relocation chatter'"),
        ("truncated", "echo 'exit'"), // protocol keyword without a code
        ("empty", "true"),            // exit 0, nothing on stdout at all
    ] {
        let script = write_script(&dir, name, body);
        let backend = backend_in(&dir, &script, |_| {});
        let obs = backend.observe_config(TRIVIAL, cc(), None).expect("verdict");
        assert_eq!(
            obs.ice.expect("garbage is an ICE verdict").signature,
            "garbage stdout",
            "fixture {name}"
        );
    }
}

#[test]
fn protocol_divergences_map_onto_wrong_code_classes() {
    // Reference for TRIVIAL: exit 0, no output. Each lying compiler
    // must surface as wrong code with the precise divergence class the
    // in-process oracle would assign.
    let dir = fixture_dir("divergence");
    let cases = [
        ("exitcode", "echo 'exit 3'", Some(Divergence::ExitCode)),
        ("output", "printf 'exit 0\\nsurprise\\n'", Some(Divergence::Output)),
        ("trap", "echo 'trap'", Some(Divergence::Trap)),
        ("honest", "echo 'exit 0'", None),
    ];
    for (name, body, expected) in cases {
        let script = write_script(&dir, name, body);
        let backend = backend_in(&dir, &script, |_| {});
        let obs = backend
            .observe_config(TRIVIAL, cc(), Some(10_000))
            .expect("verdict");
        assert_eq!(obs.divergence, expected, "fixture {name}");
        assert_eq!(obs.wrong_code, expected.is_some(), "fixture {name}");
        assert!(obs.ice.is_none(), "fixture {name}");
    }
}

#[test]
fn flaky_hang_heals_within_the_retry_budget() {
    let dir = fixture_dir("flaky");
    let state = dir.join("state");
    std::fs::create_dir_all(&state).expect("state dir");
    // Hangs on the first invocation, then behaves: the bounded retry
    // policy must turn this into a clean verdict, not a timeout.
    let script = write_script(
        &dir,
        "cc",
        "if [ ! -e \"$FLAKY_STATE/mark\" ]; then : > \"$FLAKY_STATE/mark\"; exec sleep 60; fi\n\
         echo 'exit 0'",
    );
    let backend = backend_in(&dir, &script, |c| {
        c.timeout = Duration::from_millis(250);
        c.retries = 2;
        c.env = vec![(
            "FLAKY_STATE".to_string(),
            state.to_string_lossy().into_owned(),
        )];
    });
    let obs = backend
        .observe_config(TRIVIAL, cc(), Some(10_000))
        .expect("verdict");
    assert!(
        obs.slow_compile.is_empty() && obs.ice.is_none() && !obs.wrong_code,
        "retry should have produced the clean second-run verdict, got {obs:?}"
    );
    let stats = backend.stats();
    assert_eq!(stats.timeouts, 1, "first attempt timed out");
    assert!(stats.retries >= 1, "a retry happened");
    assert_eq!(stats.launches, 2, "exactly one retry was needed");
}

#[test]
fn successful_jobs_leave_no_scratch_behind() {
    let dir = fixture_dir("cleanup");
    let script = write_script(&dir, "cc", "echo 'exit 0'");
    let backend = backend_in(&dir, &script, |_| {});
    for _ in 0..5 {
        backend
            .observe_config(TRIVIAL, cc(), Some(10_000))
            .expect("verdict");
    }
    assert!(backend.stats().preserved.is_empty());
    let leftovers: Vec<_> = std::fs::read_dir(backend.scratch_base())
        .expect("scratch base")
        .collect();
    assert!(leftovers.is_empty(), "scratch dirs left behind: {leftovers:?}");
}

#[test]
fn unspawnable_command_is_a_backend_error_not_a_verdict() {
    let dir = fixture_dir("unspawnable");
    let backend = backend_in(&dir, "/nonexistent/spe-test-cc", |c| c.retries = 1);
    let err = backend
        .observe_config(TRIVIAL, cc(), None)
        .expect_err("spawn failure is backend machinery, not a verdict");
    assert!(err.what.contains("cannot launch"), "got: {}", err.what);
    assert!(
        backend.stats().retries >= 1,
        "spawn failures are retried before giving up"
    );
}

/// The headline hardening property: a campaign over a backend that
/// persistently fails must terminate with the affected jobs quarantined
/// as `BackendDegraded` findings — never hang, never panic, never
/// abort the rest of the run.
#[test]
fn flaky_backend_campaign_terminates_with_quarantined_jobs() {
    let dir = fixture_dir("quarantine-campaign");
    let files = spe_corpus::seeds::all();
    let config = CampaignConfig {
        compilers: vec![Compiler::new(CompilerId::gcc(700), 2)],
        budget: 40,
        algorithm: Algorithm::Paper,
        check_wrong_code: false,
        fuel: 10_000,
    };
    let backend = backend_in(&dir, "/nonexistent/spe-test-cc", |_| {});
    let on_backend = |workers| Campaign {
        oracle: Oracle::Backend(&backend),
        workers,
        ..Campaign::default()
    };
    let report = on_backend(4).run(&files, &config);
    assert!(!report.findings.is_empty(), "quarantine must be visible");
    for f in &report.findings {
        assert_eq!(f.kind, FindingKind::BackendDegraded);
        assert!(f.signature.contains("backend degraded"));
        assert!(f.signature.contains("cannot launch"));
        assert!(!f.reproducer.is_empty(), "failing variant is carried along");
    }

    // Checkpointed flavour: the quarantine is durable (the job is
    // recorded done), and the journal is pinned to this backend — a
    // plain in-process resume must be refused, not silently mixed.
    let journal = dir.join("campaign.journal");
    let status = on_backend(2)
        .run_journaled(&files, &config, &journal, &CheckpointOptions::default(), None)
        .expect("campaign completes despite the degraded backend");
    let report = status.into_report().expect("complete, not interrupted");
    assert!(report
        .findings
        .iter()
        .all(|f| f.kind == FindingKind::BackendDegraded));
    let refusal = resume_campaign(&journal, 2, &CheckpointOptions::default())
        .expect_err("in-process resume of a subproc journal must be refused");
    let message = refusal.to_string();
    assert!(
        message.contains("subproc") && message.contains("simcc"),
        "refusal names both backends: {message}"
    );
}
