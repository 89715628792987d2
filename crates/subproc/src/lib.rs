//! A hardened subprocess oracle: [`SubprocBackend`] implements
//! [`spe_simcc::backend::CompilerBackend`] by driving an **external
//! compiler binary** instead of the in-process simulator, so the whole
//! SPE pipeline — parallel campaigns, checkpoint/resume, reduction —
//! can fuzz a real compiler through a process boundary (`DESIGN.md`
//! §10; the paper's actual GCC/Clang campaigns, Table 2, ran this way).
//!
//! # Invocation contract
//!
//! For every `(variant, compiler configuration)` the backend runs
//!
//! ```text
//! <command...> -O<opt> <source-file>
//! ```
//!
//! in a fresh per-job scratch directory, with `SPE_FAMILY` /
//! `SPE_VERSION` in the environment naming the configuration. The
//! command must compile **and run** the program, then report on stdout:
//!
//! * first line `exit <n>` — the program ran and exited with `n`,
//!   remaining lines are the program's output; or
//! * first line `trap` — the compiled program crashed at runtime.
//!
//! Process exit status is the compile verdict: `0` success, `1` the
//! program was rejected (outside the tool's subset — not a bug), and
//! anything else a compiler failure.
//!
//! # Triage: verdicts, not errors
//!
//! Everything a flaky or crashing compiler can do is mapped onto the
//! [`spe_simcc::Observation`] verdict classes the harness already
//! triages — the campaign never panics or hangs because the compiler
//! under test did:
//!
//! | behaviour                   | verdict                                  |
//! |-----------------------------|------------------------------------------|
//! | exit 0, protocol stdout     | clean / wrong-code (differential)        |
//! | exit 0, garbage stdout      | ICE `garbage stdout`                     |
//! | exit 1                      | unsupported (no verdict)                 |
//! | exit ≥ 2                    | ICE (stderr crash line or `abnormal exit`)|
//! | killed by signal            | ICE `signal <n> (<name>)`                |
//! | wall-clock timeout (killed) | slow-compile (after bounded retries)     |
//!
//! Only backend **machinery** failures — the command cannot be spawned,
//! scratch I/O fails — surface as
//! [`spe_simcc::backend::BackendError`]; after bounded retries the
//! harness quarantines that (file, shard) job as a
//! `BackendDegraded` finding and the campaign continues.
//!
//! Wrong-code detection is differential against the same UB-free
//! reference interpretation ([`spe_simcc::interp`]) the in-process
//! campaigns use, so an external compiler's miscompilations surface
//! under the very signatures `spe-harness` deduplicates and reduces.
//!
//! # Hardening
//!
//! * **Process pool** — at most [`SubprocConfig::max_processes`]
//!   children run concurrently (size it to the campaign's worker
//!   count), enforced by a semaphore independent of caller threading.
//! * **Timeouts** — every child gets
//!   [`SubprocConfig::timeout`] of wall clock; on expiry it is killed
//!   and reaped, counted by [`SubprocStats::timeouts`].
//! * **Scratch isolation** — each job runs in its own directory,
//!   removed on clean verdicts and preserved (up to
//!   [`SubprocConfig::max_preserved`], each reported as a telemetry
//!   event) when the compiler faulted, so crash artifacts survive for
//!   debugging.
//! * **Bounded retries** — transient classes (spawn failure, timeout)
//!   are retried up to [`SubprocConfig::retries`] times; persistent
//!   timeout becomes a slow-compile verdict, persistent spawn failure a
//!   [`BackendError`] (and thus a quarantined job).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

use spe_simcc::backend::{intern, BackendError, CompilerBackend};
use spe_simcc::{Compiler, Divergence, Ice, Observation};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The manifest backend id of [`SubprocBackend`].
pub const SUBPROC_BACKEND_ID: &str = "subproc";

/// Configuration of a [`SubprocBackend`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubprocConfig {
    /// The external compiler command: executable plus fixed leading
    /// arguments. `-O<opt>` and the source path are appended per job.
    pub command: Vec<String>,
    /// Wall-clock budget per child process; on expiry the child is
    /// killed and reaped.
    pub timeout: Duration,
    /// How many times a transient failure (spawn error, timeout) is
    /// retried before it becomes a final outcome.
    pub retries: u32,
    /// Maximum concurrently running children. Size this to the
    /// campaign's worker count; more buys nothing, fewer throttles.
    pub max_processes: usize,
    /// Extra environment variables for every child.
    pub env: Vec<(String, String)>,
    /// Root under which per-job scratch directories are created;
    /// `None` uses the system temp directory.
    pub scratch_root: Option<PathBuf>,
    /// At most this many faulted-job scratch directories are preserved
    /// for debugging; further ones are removed like successes.
    pub max_preserved: usize,
}

impl SubprocConfig {
    /// A configuration with conservative defaults: 10 s timeout, one
    /// retry, pool sized to the machine's parallelism.
    pub fn new(command: Vec<String>) -> SubprocConfig {
        SubprocConfig {
            command,
            timeout: Duration::from_secs(10),
            retries: 1,
            max_processes: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
            env: Vec::new(),
            scratch_root: None,
            max_preserved: 16,
        }
    }
}

/// Counters a campaign or test can inspect after driving the backend.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SubprocStats {
    /// Child processes spawned (including retries).
    pub launches: u64,
    /// Transient-failure retries performed.
    pub retries: u64,
    /// Children killed at the wall-clock timeout.
    pub timeouts: u64,
    /// Scratch directories preserved after a compiler fault.
    pub preserved: Vec<PathBuf>,
}

/// A semaphore bounding concurrently running children.
struct Pool {
    free: Mutex<usize>,
    cv: Condvar,
}

struct PoolSlot<'a>(&'a Pool);

impl Pool {
    fn new(n: usize) -> Pool {
        Pool {
            free: Mutex::new(n.max(1)),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) -> PoolSlot<'_> {
        let mut free = self.free.lock().expect("poisoned");
        while *free == 0 {
            free = self.cv.wait(free).expect("poisoned");
        }
        *free -= 1;
        PoolSlot(self)
    }
}

impl Drop for PoolSlot<'_> {
    fn drop(&mut self) {
        *self.0.free.lock().expect("poisoned") += 1;
        self.0.cv.notify_one();
    }
}

/// The subprocess-dispatched [`CompilerBackend`]. See the crate docs
/// for the invocation contract, triage table and hardening guarantees.
pub struct SubprocBackend {
    config: SubprocConfig,
    base: PathBuf,
    seq: AtomicU64,
    pool: Pool,
    launches: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    preserved: Mutex<Vec<PathBuf>>,
}

/// One completed child process (possibly killed at the timeout).
struct Outcome {
    status: ExitStatus,
    timed_out: bool,
    stdout: String,
    stderr: String,
}

/// The run report parsed from protocol stdout.
enum RunReport {
    /// `exit <n>` plus output lines (joined with `\n`).
    Exited { code: i64, output: String },
    /// `trap`: the compiled program crashed at runtime.
    Trapped,
}

impl SubprocBackend {
    /// Creates the backend and its scratch base directory.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the command is empty or the scratch base
    /// cannot be created.
    pub fn new(config: SubprocConfig) -> Result<SubprocBackend, BackendError> {
        if config.command.is_empty() {
            return Err(BackendError::new("subproc backend needs a command"));
        }
        static INSTANCE: AtomicU64 = AtomicU64::new(0);
        let root = config
            .scratch_root
            .clone()
            .unwrap_or_else(std::env::temp_dir);
        let base = root.join(format!(
            "spe-subproc-{}-{}",
            std::process::id(),
            INSTANCE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&base)
            .map_err(|e| BackendError::new(format!("create scratch base {base:?}: {e}")))?;
        let pool = Pool::new(config.max_processes);
        Ok(SubprocBackend {
            config,
            base,
            seq: AtomicU64::new(0),
            pool,
            launches: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            preserved: Mutex::new(Vec::new()),
        })
    }

    /// The scratch base directory jobs run under (removed on drop when
    /// empty — i.e. when no faulted job was preserved).
    pub fn scratch_base(&self) -> &Path {
        &self.base
    }

    /// A snapshot of the hardening counters.
    pub fn stats(&self) -> SubprocStats {
        SubprocStats {
            launches: self.launches.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            preserved: self.preserved.lock().expect("poisoned").clone(),
        }
    }

    /// Spawns one attempt and waits for it, killing at the timeout.
    fn run_once(&self, cc: Compiler, source_path: &Path, job: &Path) -> std::io::Result<Outcome> {
        let telemetry = spe_telemetry::global();
        let run_timer = spe_telemetry::Timer::start(&*telemetry);
        let mut cmd = Command::new(&self.config.command[0]);
        cmd.args(&self.config.command[1..])
            .arg(format!("-O{}", cc.opt()))
            .arg(source_path)
            .current_dir(job)
            .env("SPE_FAMILY", cc.id().family)
            .env("SPE_VERSION", cc.id().version.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        for (k, v) in &self.config.env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn()?;
        self.launches.fetch_add(1, Ordering::Relaxed);
        telemetry.counter(spe_telemetry::names::SUBPROC_LAUNCHES, 1);
        // Reader threads keep both pipes drained so a chatty child can
        // never deadlock against a full pipe buffer. Bytes that are not
        // UTF-8 are replaced, not dropped: only the protocol's first line
        // decides "garbage stdout", and a crash line on stderr keeps its
        // text.
        let drain = |stream: Option<Box<dyn std::io::Read + Send>>| {
            std::thread::spawn(move || {
                let mut bytes = Vec::new();
                if let Some(mut r) = stream {
                    let _ = r.read_to_end(&mut bytes);
                }
                String::from_utf8_lossy(&bytes).into_owned()
            })
        };
        let out = drain(
            child
                .stdout
                .take()
                .map(|s| Box::new(s) as Box<dyn std::io::Read + Send>),
        );
        let err = drain(
            child
                .stderr
                .take()
                .map(|s| Box::new(s) as Box<dyn std::io::Read + Send>),
        );
        let deadline = Instant::now() + self.config.timeout;
        let (status, timed_out) = loop {
            match child.try_wait()? {
                Some(status) => break (status, false),
                None if Instant::now() >= deadline => {
                    // Kill and *reap*: no zombie, no orphaned child
                    // holding the pool slot.
                    let _ = child.kill();
                    let status = child.wait()?;
                    self.timeouts.fetch_add(1, Ordering::Relaxed);
                    telemetry.counter(spe_telemetry::names::SUBPROC_TIMEOUTS, 1);
                    break (status, true);
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        let stdout = out.join().unwrap_or_default();
        let stderr = err.join().unwrap_or_default();
        telemetry.histogram(spe_telemetry::names::SUBPROC_RUN_NS, run_timer.stop_nanos());
        Ok(Outcome {
            status,
            timed_out,
            stdout,
            stderr,
        })
    }

    /// Keeps a faulted job's scratch directory for debugging (bounded
    /// by `max_preserved`), reporting where it went as a
    /// [`SUBPROC_PRESERVED`](spe_telemetry::names::SUBPROC_PRESERVED)
    /// event.
    fn preserve(&self, job: &Path, why: &str) {
        let mut preserved = self.preserved.lock().expect("poisoned");
        if preserved.len() < self.config.max_preserved {
            spe_telemetry::global().event(
                spe_telemetry::names::SUBPROC_PRESERVED,
                &format!("{} ({why})", job.display()),
            );
            preserved.push(job.to_path_buf());
        } else {
            let _ = std::fs::remove_dir_all(job);
        }
    }

    /// Triage of a completed (non-timed-out) child. Every outcome is a
    /// verdict; see the crate-level table.
    fn triage(&self, source: &str, outcome: &Outcome, wrong_code_fuel: Option<u64>) -> Observation {
        if let Some(signal) = status_signal(&outcome.status) {
            return ice_observation(intern(&format!(
                "signal {signal} ({})",
                signal_name(signal)
            )));
        }
        match outcome.status.code() {
            Some(0) => self.triage_run(source, &outcome.stdout, wrong_code_fuel),
            Some(1) => Observation {
                unsupported: true,
                ..Observation::default()
            },
            Some(code) => ice_observation(crash_signature(code, &outcome.stderr)),
            // No exit code and no signal: nothing more specific to say.
            None => ice_observation(intern("unknown termination")),
        }
    }

    /// Triage of a successful compile+run: parse protocol stdout, then
    /// (when wrong-code checking is on) compare differentially against
    /// the UB-free reference interpretation.
    fn triage_run(&self, source: &str, stdout: &str, wrong_code_fuel: Option<u64>) -> Observation {
        let Some(report) = parse_protocol(stdout) else {
            return ice_observation(intern("garbage stdout"));
        };
        let Some(fuel) = wrong_code_fuel else {
            return Observation::default();
        };
        let Ok(prog) = spe_minic::parse(source) else {
            // The external tool accepted what the reference cannot
            // parse: no baseline, no verdict.
            return Observation {
                unsupported: true,
                ..Observation::default()
            };
        };
        match spe_simcc::interp::run(&prog, spe_simcc::reference_limits(fuel)) {
            Err(_) => Observation {
                reference_ub: true,
                ..Observation::default()
            },
            Ok(expected) => {
                let divergence = match &report {
                    RunReport::Trapped => Some(Divergence::Trap),
                    RunReport::Exited { code, .. } if *code != expected.exit_code => {
                        Some(Divergence::ExitCode)
                    }
                    RunReport::Exited { output, .. } if *output != expected.output.join("\n") => {
                        Some(Divergence::Output)
                    }
                    RunReport::Exited { .. } => None,
                };
                Observation {
                    divergence,
                    ..Observation::default()
                }
            }
        }
    }
}

impl CompilerBackend for SubprocBackend {
    fn id(&self) -> &str {
        SUBPROC_BACKEND_ID
    }

    fn config_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for token in &self.config.command {
            h = fnv(h, token.as_bytes());
            h = fnv(h, &[0]);
        }
        for (k, v) in &self.config.env {
            h = fnv(h, k.as_bytes());
            h = fnv(h, b"=");
            h = fnv(h, v.as_bytes());
            h = fnv(h, &[0]);
        }
        h = fnv(h, &u128::to_le_bytes(self.config.timeout.as_millis()));
        fnv(h, &u32::to_le_bytes(self.config.retries))
    }

    fn observe_config(
        &self,
        source: &str,
        cc: Compiler,
        wrong_code_fuel: Option<u64>,
    ) -> Result<Observation, BackendError> {
        let _slot = self.pool.acquire();
        let job = self
            .base
            .join(format!("job-{}", self.seq.fetch_add(1, Ordering::Relaxed)));
        std::fs::create_dir_all(&job)
            .map_err(|e| BackendError::new(format!("create scratch {job:?}: {e}")))?;
        let source_path = job.join("input.c");
        std::fs::write(&source_path, source)
            .map_err(|e| BackendError::new(format!("write {source_path:?}: {e}")))?;

        // Bounded retry of the transient classes: spawn failures and
        // timeouts. Everything else is a final verdict on attempt one.
        let mut last: std::io::Result<Outcome> = Err(std::io::Error::other("unattempted"));
        for attempt in 0..=self.config.retries {
            if attempt > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
                spe_telemetry::global().counter(spe_telemetry::names::SUBPROC_RETRIES, 1);
            }
            last = self.run_once(cc, &source_path, &job);
            match &last {
                Err(_) => continue,
                Ok(outcome) if outcome.timed_out => continue,
                Ok(_) => break,
            }
        }
        match last {
            Err(e) => {
                // Persistent machinery failure: the caller quarantines
                // this job.
                spe_telemetry::global().counter(spe_telemetry::names::SUBPROC_QUARANTINES, 1);
                self.preserve(&job, "spawn failure");
                Err(BackendError::new(format!(
                    "cannot launch {:?}: {e}",
                    self.config.command[0]
                )))
            }
            Ok(outcome) if outcome.timed_out => {
                // Persistently over budget: a compiler-performance
                // verdict, exactly what the paper's slow-compile triage
                // class records.
                self.preserve(&job, "timeout");
                Ok(Observation {
                    slow_compile: vec![intern(&format!(
                        "wall-clock timeout after {}ms",
                        self.config.timeout.as_millis()
                    ))],
                    ..Observation::default()
                })
            }
            Ok(outcome) => {
                let obs = self.triage(source, &outcome, wrong_code_fuel);
                if obs.ice.is_some() {
                    self.preserve(&job, "compiler fault");
                } else {
                    let _ = std::fs::remove_dir_all(&job);
                }
                Ok(obs)
            }
        }
    }
}

impl Drop for SubprocBackend {
    fn drop(&mut self) {
        // Removes the base only when empty — preserved fault scratch
        // directories outlive the backend on purpose.
        let _ = std::fs::remove_dir(&self.base);
    }
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// An ICE verdict whose triage string doubles as its dedup bug id; the
/// `pass` slot marks it as externally observed.
fn ice_observation(signature: &'static str) -> Observation {
    Observation {
        ice: Some(Ice {
            bug_id: signature,
            signature,
            pass: intern("external"),
        }),
        ..Observation::default()
    }
}

/// Crash signature of an abnormal exit: the first stderr line matching
/// a known compiler-crash pattern, else `abnormal exit <code>`.
fn crash_signature(code: i32, stderr: &str) -> &'static str {
    const PATTERNS: [&str; 5] = [
        "internal compiler error",
        "assertion",
        "panicked at",
        "Segmentation fault",
        "fatal error",
    ];
    for line in stderr.lines() {
        if PATTERNS.iter().any(|p| line.contains(p)) {
            return intern(line.trim());
        }
    }
    intern(&format!("abnormal exit {code}"))
}

fn signal_name(signal: i32) -> &'static str {
    match signal {
        4 => "SIGILL",
        6 => "SIGABRT",
        8 => "SIGFPE",
        9 => "SIGKILL",
        11 => "SIGSEGV",
        15 => "SIGTERM",
        _ => "unknown",
    }
}

#[cfg(unix)]
fn status_signal(status: &ExitStatus) -> Option<i32> {
    use std::os::unix::process::ExitStatusExt;
    status.signal()
}

#[cfg(not(unix))]
fn status_signal(_status: &ExitStatus) -> Option<i32> {
    None
}

/// Parses protocol stdout; `None` is the garbage case.
fn parse_protocol(stdout: &str) -> Option<RunReport> {
    let mut lines = stdout.lines();
    let first = lines.next()?.trim_end();
    if first == "trap" {
        return Some(RunReport::Trapped);
    }
    let code = first.strip_prefix("exit ")?.trim().parse::<i64>().ok()?;
    let output: Vec<&str> = lines.collect();
    Some(RunReport::Exited {
        code,
        output: output.join("\n"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Protocol outputs a fixture prints: both verdicts, with and without
    /// output lines, CRLF endings, extreme codes and multi-byte UTF-8.
    const PROTOCOL_OUTPUTS: &[&str] = &[
        "exit 0\n",
        "exit 42\nhello\nworld\n",
        "exit -9223372036854775808\n1,2\n",
        "exit 9223372036854775807\r\nfmt:1,2\r\n",
        "exit 3\n\n\nno newline",
        "exit 7\nπ → 𝄞\n",
        "trap\n",
        "trap\nleftover output\n",
    ];

    /// Parses mutated bytes as the backend reads stdout, invalid UTF-8
    /// replaced. A panic fails the test. A report must come only from a
    /// first line that reads `trap`, or `exit ` and an `i64`, up to
    /// trailing whitespace, and carry that `i64`.
    fn check_bytes(bytes: &[u8]) {
        let text = String::from_utf8_lossy(bytes);
        let first = text.split('\n').next().unwrap_or("").trim_end();
        let code = first.strip_prefix("exit ").map(|n| n.trim().parse::<i64>());
        match parse_protocol(&text) {
            None => {}
            Some(RunReport::Trapped) => assert_eq!(first, "trap", "{text:?}"),
            Some(RunReport::Exited { code: got, .. }) => {
                assert_eq!(code, Some(Ok(got)), "{text:?}")
            }
        }
    }

    #[test]
    fn every_truncation_of_a_protocol_output_is_refused_or_well_formed() {
        for out in PROTOCOL_OUTPUTS {
            assert!(parse_protocol(out).is_some(), "{out:?}");
            for cut in 0..out.len() {
                check_bytes(&out.as_bytes()[..cut]);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn a_protocol_output_with_one_flipped_bit_is_refused_or_well_formed(
            pick in 0usize..64,
            at in 0usize..4096,
            bit in 0u8..8,
        ) {
            let mut bytes = PROTOCOL_OUTPUTS[pick % PROTOCOL_OUTPUTS.len()].as_bytes().to_vec();
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
            check_bytes(&bytes);
        }

        #[test]
        fn a_protocol_output_with_inserted_bytes_is_refused_or_well_formed(
            pick in 0usize..64,
            at in 0usize..4096,
            inserted in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 1..17),
        ) {
            let mut bytes = PROTOCOL_OUTPUTS[pick % PROTOCOL_OUTPUTS.len()].as_bytes().to_vec();
            let at = at % (bytes.len() + 1);
            bytes.splice(at..at, inserted);
            check_bytes(&bytes);
        }
    }

    #[test]
    fn protocol_parses_exit_trap_and_rejects_garbage() {
        match parse_protocol("exit 42\nhello\nworld\n") {
            Some(RunReport::Exited { code, output }) => {
                assert_eq!(code, 42);
                assert_eq!(output, "hello\nworld");
            }
            _ => panic!("protocol"),
        }
        assert!(matches!(parse_protocol("trap\n"), Some(RunReport::Trapped)));
        assert!(parse_protocol("").is_none());
        assert!(parse_protocol("exit\n").is_none());
        assert!(parse_protocol("exit banana\n").is_none());
        assert!(parse_protocol("some linker noise\n").is_none());
    }

    #[test]
    fn crash_signatures_prefer_known_stderr_patterns() {
        assert_eq!(
            crash_signature(2, "note: x\ncc1: internal compiler error: in foo()\n"),
            "cc1: internal compiler error: in foo()"
        );
        assert_eq!(
            crash_signature(134, "Assertion `n > 0' failed — oh no".trim()),
            "abnormal exit 134" // capital-A Assertion is not in the pattern list
        );
        assert_eq!(crash_signature(3, "quiet\n"), "abnormal exit 3");
    }

    #[test]
    fn config_hash_tracks_command_and_limits() {
        let mk = |cmd: &[&str], ms: u64, retries: u32| {
            let mut c = SubprocConfig::new(cmd.iter().map(|s| s.to_string()).collect());
            c.timeout = Duration::from_millis(ms);
            c.retries = retries;
            SubprocBackend::new(c).expect("backend").config_hash()
        };
        let base = mk(&["/bin/true"], 1000, 1);
        assert_eq!(base, mk(&["/bin/true"], 1000, 1), "hash is stable");
        assert_ne!(base, mk(&["/bin/false"], 1000, 1), "command matters");
        assert_ne!(base, mk(&["/bin/true"], 2000, 1), "timeout matters");
        assert_ne!(base, mk(&["/bin/true"], 1000, 2), "retries matter");
    }
}
