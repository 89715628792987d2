//! `fakecc` — the simulated compiler behind a real process boundary.
//!
//! This is the fixture "external compiler" for the subprocess oracle:
//! it speaks the `spe-subproc` invocation contract (`fakecc -O<n>
//! <source>`, protocol stdout, exit-status verdicts) and implements the
//! compile step with `spe_simcc`, so a subprocess campaign against it
//! exercises the full pipeline — seeded crash bugs become real nonzero
//! exits with `internal compiler error:` stderr lines, miscompilations
//! become genuine protocol-output divergences.
//!
//! Environment knobs:
//!
//! * `SPE_FAMILY` / `SPE_VERSION` — compiler identity (set by the
//!   backend from the campaign configuration); `gcc-sim` or
//!   `clang-sim`, default `gcc-sim` 700.
//! * `FAKECC_FUEL` — VM fuel for the compiled image (default 50 000).
//! * `FAKECC_MODE` — fault injection:
//!   `ok` (default), `exit2` (die with a fatal-error stderr line),
//!   `abort` (die by signal), `hang` (sleep past any timeout),
//!   `garbage` (exit 0 with non-protocol stdout), `flaky-hang` (hang
//!   once, then behave; needs `FAKECC_STATE` pointing at a writable
//!   directory shared across attempts).

use spe_simcc::{CompileError, Compiler, CompilerId};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mode = std::env::var("FAKECC_MODE").unwrap_or_default();
    match mode.as_str() {
        "exit2" => {
            eprintln!("fakecc: fatal error: injected fault");
            return ExitCode::from(2);
        }
        "abort" => std::process::abort(),
        "hang" => loop {
            std::thread::sleep(std::time::Duration::from_secs(60));
        },
        "garbage" => {
            println!("fakecc: 0 warnings, 0 errors (but no protocol)");
            return ExitCode::SUCCESS;
        }
        "flaky-hang" => {
            let state = std::env::var("FAKECC_STATE").unwrap_or_default();
            let marker = std::path::Path::new(&state).join("fakecc-ran-once");
            if !marker.exists() {
                let _ = std::fs::write(&marker, b"1");
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(60));
                }
            }
            // Marker present: fall through and behave.
        }
        _ => {}
    }

    let mut opt = 2u8;
    let mut source = None;
    for arg in std::env::args().skip(1) {
        if let Some(level) = arg.strip_prefix("-O") {
            opt = level.parse().unwrap_or(2).min(3);
        } else {
            source = Some(arg);
        }
    }
    let Some(source) = source else {
        eprintln!("usage: fakecc -O<n> <source>");
        return ExitCode::from(2);
    };
    let Ok(text) = std::fs::read_to_string(&source) else {
        eprintln!("fakecc: cannot read {source}");
        return ExitCode::from(2);
    };
    let Ok(program) = spe_minic::parse(&text) else {
        eprintln!("fakecc: unsupported input");
        return ExitCode::from(1);
    };

    let version = std::env::var("SPE_VERSION")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(700);
    let id = match std::env::var("SPE_FAMILY").as_deref() {
        Ok("clang-sim") => CompilerId::clang(version),
        _ => CompilerId::gcc(version),
    };
    let fuel: u64 = std::env::var("FAKECC_FUEL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50_000);

    match Compiler::new(id, opt).compile(&program) {
        Err(CompileError::Ice(ice)) => {
            eprintln!(
                "fakecc: internal compiler error: {} in pass {}",
                ice.signature, ice.pass
            );
            ExitCode::from(2)
        }
        Err(CompileError::Unsupported(what)) => {
            eprintln!("fakecc: unsupported: {what}");
            ExitCode::from(1)
        }
        Ok(compiled) => {
            // The campaign-side VM allowance is 4× the reference fuel;
            // mirror it so fuel exhaustion means the same thing here.
            match compiled.execute(fuel * 4) {
                Ok(run) => {
                    println!("exit {}", run.exit_code);
                    for line in &run.output {
                        println!("{line}");
                    }
                }
                Err(_) => println!("trap"),
            }
            ExitCode::SUCCESS
        }
    }
}
