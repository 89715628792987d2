//! Golden digest of the AST walks that `exec_golden` does not reach.
//!
//! `exec_golden` pins the pass pipeline, lowering, the VM and the
//! reference interpreter. This test pins the other consumers of the
//! mini-C tree, each through its exact output: skeleton extraction
//! (sema's hole order), the trigger-fact scan on its own, Figure 9's
//! coverage probe, the PM-X mutation baseline, and the reducer and
//! canonicalizer behind `Campaign::reduce`. The input is the six paper
//! seeds, the first 40 files generated at seed 42, and three fixtures
//! ([`EVERY_KIND`], [`MEMBERS`], [`GOTO_INTO_DO`]). They hold what the
//! seeds and the generator lack (member access, `do`, casts, labels
//! inside loops and around blocks, a callee spelled like a fresh name),
//! so on the fixtures alone the test also pins the passes and the
//! interpreter, which `exec_golden` pins on the seeds and generated
//! files. Everything folds into one FNV-1a digest.

use spe::core::{Algorithm, Enumerator, EnumeratorConfig, Skeleton};
use spe::corpus::{generate, seeds, CorpusConfig, TestFile};
use spe::harness::mutation::pm_variants;
use spe::harness::reduction::ReductionOptions;
use spe::harness::{Campaign, CampaignConfig, CampaignReport};
use spe::minic::ast::Program;
use spe::reduce::{canon, ReduceConfig};
use spe::simcc::bugs::{registry, scan_facts, BugKind, BugSpec, Trigger};
use spe::simcc::coverage::Coverage;
use spe::simcc::{coverage_probe, interp, passes, reference_limits, Compiler, CompilerId};
use std::ops::ControlFlow;

/// The digest recorded when scope analysis began to refuse the operands
/// gcc refuses for not being lvalues (`0 = a;`, `*0 = 1;`): the reducer
/// no longer keeps such a candidate, and only reductions moved. Before
/// that it was `0x9692_9765_b7f6_adb4`, recorded before the walks moved
/// onto the shared child enumeration of `spe_minic::ast`.
const GOLDEN: u64 = 0x9eec_5666_a21a_8580;

/// Every statement and expression kind of mini-C, under labels, loops
/// and both `for` initializers, and the writes constant propagation must
/// see: an address taken only in a call's argument, and a postfix
/// increment statement.
const EVERY_KIND: &str = "struct pt {
    int x;
    int y;
};
struct pt g;
int u[4];
int a = 1, b = 2;
int c(int n) {
    return n + 1;
}
int e(int *z) {
    *z = 5;
    return 0;
}
int d(int n) {
    do {
    back:
        n = n - 1;
    } while (n > 5);
fwd:
    ;
    int w = n;
    if (w > 3)
        goto back;
    return w;
}
int main() {
    struct pt s;
    struct pt *p = &s;
    int i, k = 0, q = 0;
    int *r;
    s.x = a;
    p->y = s.x + (b, a);
    for (int j = 0, m = j; j < 3; j++) {
        k += (int) j * m;
        if (k > 4)
            break;
        else
            continue;
    }
    for (i = 2; i > 0; i--) {
        do {
        again:
            k = k - i;
        } while (k > i + (2 - 1) && !(k == a));
    }
top:
    u[k % 4] = k ? -k : ~k;
addr:
    r = &q;
    q = 3;
    k = q + (*(p + (k - k))).x;
    i = 7;
    (*(p = &s)).y;
    k = i + k;
    int t, v;
    t = 1;
    k = (e(&t), t) + k;
    v = 1;
    v++;
    k = k + v;
blk:
    {
        k = k / k;
        k = k + 1;
    }
    {
        inner:
            k = c(k) + c((a, b));
        int late = k;
        if (late < 0)
            goto inner;
    }
    while (0) {
        ++k;
        --k;
    }
    if (k < -100)
        goto top;
    return k + g.x + *(&a) + 'c' + d(k);
}
";

/// Sites a whole-program fact or coverage point sees only through a
/// member operand, each the only one of its kind: a call in a loop
/// condition and a binary operation on one variable.
const MEMBERS: &str = "struct pt {
    int x;
};
struct pt s;
int c(int n) {
    return n;
}
int main() {
    struct pt *p = &s;
    int k = c(3);
    s.x = k;
    while ((*(p + c(0))).x > 1)
        s.x = s.x - 1;
    return (*(p + (k - k))).x;
}
";

/// The only label sits in a `do` body: a declaration follows it, and the
/// interpreter takes a backward `goto` into it (no struct, so the
/// reference run gets there).
const GOTO_INTO_DO: &str = "int e(int n) {
    do {
    again:
        n = n - 1;
    } while (n > 5);
    int w = n;
    if (w > 3)
        goto again;
    return w;
}
int main() {
    return e(9);
}
";

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Field separator, so adjacent fields cannot trade bytes.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Every trigger of the registry, `SameVarTimes` and `DistinctVars` at
/// 1..=6, and `DeepExpression` at 1..=12.
fn triggers() -> Vec<Trigger> {
    let mut out: Vec<Trigger> = registry().iter().map(|b| b.trigger).collect();
    for n in 1..=6 {
        out.extend([Trigger::SameVarTimes(n), Trigger::DistinctVars(n)]);
    }
    out.extend((1..=12).map(Trigger::DeepExpression));
    out
}

/// The variable uses the splice's respelling walk visits, in order; the
/// facts `p` fires; its coverage at -O0 to -O3; and, if `execute`, the
/// passes' output at each level with no wrong-code defect and with all
/// of them, and its reference run.
fn digest_program(h: &mut Fnv, p: &Program, triggers: &[Trigger], execute: bool) {
    let mut uses = Vec::new();
    p.clone()
        .for_each_ident_mut(&mut |id| uses.push((id.occ, id.name.clone())));
    h.write(format!("{uses:?}").as_bytes());
    let facts = scan_facts(p);
    let fired: Vec<bool> = triggers.iter().map(|&t| facts.matches(t)).collect();
    h.write(format!("{fired:?}").as_bytes());
    let wrong_code: Vec<&BugSpec> = registry()
        .iter()
        .filter(|b| b.kind == BugKind::WrongCode)
        .collect();
    for opt in 0..=3 {
        let cov = coverage_probe(p, opt);
        h.write(&cov.points_hit().to_le_bytes());
        h.write(&cov.function_coverage().to_bits().to_le_bytes());
        h.write(&cov.line_coverage().to_bits().to_le_bytes());
        if !execute {
            continue;
        }
        for bugs in [Vec::new(), wrong_code.clone()] {
            let mut ctx = passes::PassCtx {
                opt,
                wrong_code: bugs,
                coverage: &mut Coverage::off(),
                miscompiled_by: Vec::new(),
            };
            let optimized = passes::optimize(p, &mut ctx);
            h.write(spe::minic::print_program(&optimized).as_bytes());
            h.write(format!("{:?}", ctx.miscompiled_by).as_bytes());
        }
    }
    if execute {
        h.write(format!("{:?}", interp::run(p, reference_limits(20_000))).as_bytes());
    }
}

/// Per file: its skeleton's outcome and hole order, then
/// [`digest_program`] of the file itself and of each of its variants
/// (Paper, budget 20).
fn digest_files(h: &mut Fnv, files: &[TestFile], execute: bool) -> usize {
    let triggers = triggers();
    let enumerator = Enumerator::new(EnumeratorConfig {
        algorithm: Algorithm::Paper,
        budget: 20,
        ..Default::default()
    });
    let mut variants = 0;
    for file in files {
        let sk = match Skeleton::from_source(&file.source) {
            Ok(sk) => sk,
            Err(e) => {
                h.write(format!("{e:?}").as_bytes());
                continue;
            }
        };
        h.write(format!("{:?}", sk.hole_occs().collect::<Vec<_>>()).as_bytes());
        let original = spe::minic::parse(&file.source).expect("a skeleton's source parses");
        digest_program(h, &original, &triggers, execute);
        enumerator.enumerate(&sk, &mut |v| {
            match spe::minic::parse(&v.source(&sk)) {
                Ok(p) => {
                    variants += 1;
                    digest_program(h, &p, &triggers, execute);
                }
                Err(_) => h.write(b"unparsed"),
            }
            ControlFlow::Continue(())
        });
    }
    variants
}

/// Each file's canonical form, and its reduction (statement ddmin,
/// expression simplification, canonicalization) under an oracle that
/// keeps every trigger the original fires.
fn digest_reducer(h: &mut Fnv, files: &[TestFile]) {
    let triggers = triggers();
    for file in files {
        let Ok(p) = spe::minic::parse(&file.source) else {
            continue;
        };
        h.write(spe::minic::print_program(&canon::canonicalize(&p)).as_bytes());
        let facts = scan_facts(&p);
        let fired: Vec<Trigger> = triggers
            .iter()
            .copied()
            .filter(|&t| facts.matches(t))
            .collect();
        let mut oracle = |q: &Program| {
            let facts = scan_facts(q);
            fired.iter().all(|&t| facts.matches(t))
        };
        match spe::reduce::reduce(&file.source, &ReduceConfig::default(), &mut oracle) {
            Ok(r) => h.write(format!("{} {:?}", r.witness, r.fingerprint).as_bytes()),
            Err(e) => h.write(format!("{e:?}").as_bytes()),
        }
    }
}

/// A seed campaign, reduced in memory: each finding's witness source,
/// fingerprint and trigger, and its fingerprint-duplicate link.
fn digest_reduction(h: &mut Fnv, check_wrong_code: bool) -> usize {
    let config = CampaignConfig {
        compilers: vec![
            Compiler::new(CompilerId::gcc(700), 0),
            Compiler::new(CompilerId::gcc(700), 3),
            Compiler::new(CompilerId::clang(390), 3),
        ],
        budget: 40,
        algorithm: Algorithm::Paper,
        check_wrong_code,
        fuel: 20_000,
    };
    let campaign = Campaign::default();
    let mut report: CampaignReport = campaign.run(&seeds::all(), &config);
    let options = ReductionOptions {
        fuel: config.fuel,
        ..ReductionOptions::default()
    };
    campaign
        .reduce(&mut report, &options, None)
        .expect("in-memory reduction");
    let mut witnesses = 0;
    for f in &report.findings {
        h.write(f.signature.as_bytes());
        match &f.reduced {
            Some(w) => {
                witnesses += 1;
                h.write(w.source.as_bytes());
                h.write(w.fingerprint.as_bytes());
                h.write(w.trigger.as_bytes());
            }
            None => h.write(b"unreduced"),
        }
        h.write(format!("{:?}", f.fingerprint_duplicate_of).as_bytes());
    }
    witnesses
}

#[test]
fn ast_walks_match_their_golden_digest() {
    let fixtures: Vec<TestFile> = [
        ("every_kind.c", EVERY_KIND),
        ("members.c", MEMBERS),
        ("goto_into_do.c", GOTO_INTO_DO),
    ]
    .into_iter()
    .map(|(name, source)| TestFile {
        name: name.into(),
        source: source.into(),
    })
    .collect();
    let mut files = seeds::all();
    files.extend(generate(&CorpusConfig {
        files: 40,
        seed: 42,
    }));
    let mut seed_files = seeds::all();
    seed_files.extend(fixtures.iter().cloned());

    let mut h = Fnv::new();
    let variants = digest_files(&mut h, &files, false) + digest_files(&mut h, &fixtures, true);
    assert!(variants > 500, "only {variants} variants");
    for f in &seed_files {
        for deletions in 1..=3 {
            for v in pm_variants(&f.source, deletions, 8, 7) {
                h.write(v.as_bytes());
            }
        }
    }
    digest_reducer(&mut h, &seed_files);
    let compile_only = digest_reduction(&mut h, false);
    let wrong_code = digest_reduction(&mut h, true);
    assert!(
        compile_only > 0 && wrong_code > 0,
        "witnesses: {compile_only} compile-only, {wrong_code} wrong-code"
    );
    assert_eq!(h.0, GOLDEN, "AST-walk digest {:#018x}", h.0);
}
