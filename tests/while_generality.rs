//! Integration tests for the §5.3 generality story: SPE applied
//! unchanged to the WHILE toolchain finds the seeded CompCert-like and
//! Scala-like defects.
//!
//! Every rendered variant is also checked against the AST-rebuild
//! oracle below: the partition realized by renaming the program's
//! occurrences, then printed.

use spe::combinatorics::{rgs_to_blocks, Rgs};
use spe::skeleton::WhileSkeleton;
use spe::while_lang::compiler::{compile, execute, BugProfile, Options};
use spe::while_lang::{interpret, parse, AExpr, BExpr, Outcome, WOcc, WProgram, WStmt};
use std::collections::{BTreeSet, HashMap};

type RenameMap = HashMap<WOcc, String>;

/// Renames occurrences according to `map` (occ → new name). Occurrences
/// absent from the map keep their names.
fn realize(p: &WProgram, map: &RenameMap) -> WProgram {
    WProgram {
        stmts: p.stmts.iter().map(|s| rename_stmt(s, map)).collect(),
        max_occ: p.max_occ,
    }
}

fn rename_aexpr(e: &AExpr, map: &RenameMap) -> AExpr {
    match e {
        AExpr::Var(n, o) => AExpr::Var(map.get(o).cloned().unwrap_or_else(|| n.clone()), *o),
        AExpr::Num(v) => AExpr::Num(*v),
        AExpr::Op(c, a, b) => AExpr::Op(
            *c,
            Box::new(rename_aexpr(a, map)),
            Box::new(rename_aexpr(b, map)),
        ),
    }
}

fn rename_bexpr(e: &BExpr, map: &RenameMap) -> BExpr {
    match e {
        BExpr::Const(v) => BExpr::Const(*v),
        BExpr::Not(b) => BExpr::Not(Box::new(rename_bexpr(b, map))),
        BExpr::Logic(and, a, b) => BExpr::Logic(
            *and,
            Box::new(rename_bexpr(a, map)),
            Box::new(rename_bexpr(b, map)),
        ),
        BExpr::Rel(op, a, b) => BExpr::Rel(
            op,
            Box::new(rename_aexpr(a, map)),
            Box::new(rename_aexpr(b, map)),
        ),
        BExpr::Truthy(a) => BExpr::Truthy(Box::new(rename_aexpr(a, map))),
    }
}

fn rename_stmt(s: &WStmt, map: &RenameMap) -> WStmt {
    match s {
        WStmt::Assign(n, o, e) => WStmt::Assign(
            map.get(o).cloned().unwrap_or_else(|| n.clone()),
            *o,
            rename_aexpr(e, map),
        ),
        WStmt::Skip => WStmt::Skip,
        WStmt::While(b, body) => WStmt::While(
            rename_bexpr(b, map),
            body.iter().map(|s| rename_stmt(s, map)).collect(),
        ),
        WStmt::If(b, t, e) => WStmt::If(
            rename_bexpr(b, map),
            t.iter().map(|s| rename_stmt(s, map)).collect(),
            e.iter().map(|s| rename_stmt(s, map)).collect(),
        ),
    }
}

/// Realizes a partition (RGS over the holes) by rebuilding the AST:
/// block `j` is filled with the `j`-th variable name.
fn realize_rgs(sk: &WhileSkeleton, rgs: &[usize]) -> WProgram {
    let mut occs = Vec::new();
    sk.program().for_each_occ(&mut |_, occ| occs.push(occ));
    assert_eq!(rgs.len(), occs.len(), "RGS must cover all holes");
    let mut map = RenameMap::new();
    for (b, members) in rgs_to_blocks(rgs).iter().enumerate() {
        for &m in members {
            map.insert(occs[m], sk.variables()[b].clone());
        }
    }
    realize(sk.program(), &map)
}

#[test]
fn realize_renames_occurrences() {
    let p = parse("a := 1; b := a").expect("parses");
    // Occurrences: a(0), b(1), a(2).
    let mut map = HashMap::new();
    map.insert(WOcc(0), "b".to_string());
    map.insert(WOcc(1), "a".to_string());
    map.insert(WOcc(2), "b".to_string());
    assert_eq!(realize(&p, &map).to_string(), "b := 1;\na := b");
}

#[test]
fn rendered_variants_match_the_legacy_oracle_byte_for_byte() {
    // The template splice must agree with the AST-rebuild path on
    // every variant of several skeletons.
    let srcs = [
        "a := 10; b := 1; while a do a := a - b",
        "i := 0; s := 0; while i < 3 do begin s := s + i; i := i + 1 end",
        "x := 3; if x < 5 and not (x = 2) then y := 1 else y := 2",
    ];
    for src in srcs {
        let w = WhileSkeleton::from_source(src).expect("parses");
        let k = w.variables().len();
        let mut names = Vec::new();
        let mut out = String::new();
        for rgs in Rgs::new(w.num_holes(), k) {
            w.render_rgs_into(&rgs, &mut names, &mut out);
            assert_eq!(
                out,
                realize_rgs(&w, &rgs).to_string(),
                "template drifted on {src} at {rgs:?}"
            );
        }
    }
}

fn campaign(src: &str, profile: BugProfile, opt: u8) -> (BTreeSet<String>, usize, usize) {
    let sk = WhileSkeleton::from_source(src).expect("parses");
    let (n, k) = (sk.num_holes(), sk.variables().len());
    let mut crashes = BTreeSet::new();
    let mut wrong = 0;
    let mut total = 0;
    let mut names = Vec::new();
    let mut rendered = String::new();
    for rgs in Rgs::new(n, k) {
        // Template-compiled rendering is the primary realization path;
        // the legacy AST rebuild stays on as the differential oracle.
        sk.render_rgs_into(&rgs, &mut names, &mut rendered);
        assert_eq!(
            rendered,
            realize_rgs(&sk, &rgs).to_string(),
            "template drifted from the AST rebuild on {src}"
        );
        let v = parse(&rendered).expect("rendered variant parses");
        total += 1;
        let Ok(Outcome::Finished(reference)) = interpret(&v, 20_000) else {
            continue;
        };
        match compile(
            &v,
            Options {
                opt_level: opt,
                profile,
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
    (crashes, wrong, total)
}

#[test]
fn compcert_profile_crash_found_by_enumeration() {
    // The original program is healthy; some variant rewires the
    // subtraction into structurally identical compound operands.
    let src = "a := 1; b := 2; c := (a + b) - (c + b); d := c";
    let (crashes, _, total) = campaign(src, BugProfile::CompCertSim, 1);
    assert!(total > 100, "non-trivial enumeration ({total})");
    assert!(
        crashes
            .iter()
            .any(|c| c.contains("operand_address_compare")),
        "folding crash found: {crashes:?}"
    );
    // The clean profile never crashes on the same variants.
    let (none, _, _) = campaign(src, BugProfile::None, 1);
    assert!(none.is_empty());
}

#[test]
fn scala_profile_typer_crash_found_by_enumeration() {
    let src = "a := 3; b := 5; while b do b := a - 1";
    let (crashes, _, _) = campaign(src, BugProfile::ScalaSim, 1);
    assert!(
        crashes.iter().any(|c| c.contains("typer")),
        "typer crash found: {crashes:?}"
    );
}

#[test]
fn scala_profile_wrong_code_found_by_enumeration() {
    let src = "y := 0; x := y; while x < 3 do begin s := s + 1; x := x + 1 end";
    let (_, wrong, _) = campaign(src, BugProfile::ScalaSim, 2);
    assert!(wrong > 0, "copy-propagation miscompile found");
    // No false positives under the clean profile.
    let (_, clean_wrong, _) = campaign(src, BugProfile::None, 2);
    assert_eq!(clean_wrong, 0, "clean compiler must agree with interpreter");
}

#[test]
fn clean_profile_has_no_differential_mismatch_on_figure5() {
    let (crashes, wrong, total) = campaign(
        "a := 10; b := 1; while a do a := a - b",
        BugProfile::None,
        2,
    );
    assert!(crashes.is_empty());
    assert_eq!(wrong, 0);
    assert_eq!(total, 32, "{{6 1}} + {{6 2}} variants");
}
