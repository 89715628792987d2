//! The paper's §3 formalization in action: enumerate every
//! non-α-equivalent variant of the WHILE program of Figure 5 and
//! differential-test the buggy WHILE compiler (the §5.3 generality
//! experiment in miniature).
//!
//! Run with `cargo run --example while_enumeration`.

use spe::combinatorics::Rgs;
use spe::skeleton::WhileSkeleton;
use spe::while_lang::compiler::{compile, execute, BugProfile, Options};
use spe::while_lang::{interpret, Outcome};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sk = WhileSkeleton::from_source("a := 10; b := 1; while a do a := a - b")?;
    let (n, k) = (sk.num_holes(), sk.variables().len());
    println!(
        "Figure 5: {n} holes over {k} variables -> {} naive fillings, {} partitions\n",
        sk.instance().naive_count(),
        spe::combinatorics::paper_count(sk.instance()),
    );

    let mut crashes = std::collections::BTreeSet::new();
    let mut wrong = 0;
    let mut shown = 0;
    let mut names = Vec::new();
    let mut rendered = String::new();
    for rgs in Rgs::new(n, k) {
        // Variants are realized through the compiled render template
        // (segment/slot splice into reused buffers) and re-parsed for
        // execution.
        sk.render_rgs_into(&rgs, &mut names, &mut rendered);
        let variant = spe::while_lang::parse(&rendered)?;
        if shown < 3 {
            println!("--- variant {rgs:?} ---\n{rendered}\n");
            shown += 1;
        }
        let Ok(Outcome::Finished(reference)) = interpret(&variant, 20_000) else {
            continue; // non-terminating variant: skipped, like UB in C
        };
        match compile(
            &variant,
            Options {
                opt_level: 1,
                profile: BugProfile::CompCertSim,
            },
        ) {
            Err(ice) => {
                crashes.insert(ice.to_string());
            }
            Ok(c) => {
                if let Ok(Outcome::Finished(out)) = execute(&c, 200_000) {
                    if out != reference {
                        wrong += 1;
                    }
                }
            }
        }
    }
    println!(
        "compcert-sim: {} distinct crash signatures, {wrong} miscompiled variants",
        crashes.len()
    );
    for c in &crashes {
        println!("  {c}");
    }
    Ok(())
}
