//! Pinned solver search: the outcome and work counters of every query the
//! Figure 7 loop issues over a fixed corpus, hashed and compared against
//! a literal.
//!
//! The campaign fingerprints see only verdicts and witness bytes, and
//! those survive many changes to the search: a different learnt clause
//! can reach the same model by another route. This test pins the route:
//! any change to a query's model, conflict count, decision count,
//! variable count or interval verdict changes the hash.
//!
//! Corpus: the queries the enforcement loop actually issues (β alone,
//! then φ′∧β per iteration), replayed with `extract`, `generate_input`
//! and `test_candidate` over two small forged suites (8 apps × 6 sites,
//! forge seed `0xD10D_E5EE`; depth 3 with `site_work` 300, and depth 8
//! with no work) and the five paper apps; plus `sample` and `enumerate`
//! over a few βs, which cover seeded polarities and activities and
//! blocking clauses added after a solve.
//!
//! A second pass runs the corpus again on a fresh thread in reverse
//! order, with a budget-exhausted solve interleaved every ten queries,
//! and must reproduce every per-query image: no solver state may leak
//! from one query into the next.
//!
//! A φ′∧β query starts from β's encoding, recorded by an earlier query
//! of its site (`diode_solver::blast`, "Recorded prefixes"). The second
//! test checks that this replay fires where it should, that a replayed
//! query's image equals a fresh thread's, and that a β whose encoding
//! cannot be replayed is encoded afresh.

use std::fmt::Write as _;
use std::sync::Arc;

use diode::core::{extract, generate_input, identify_target_sites, test_candidate, DiodeConfig};
use diode::format::FormatDesc;
use diode::lang::{BinOp, Bv, CastKind, CmpOp, Program};
use diode::obs::{fnv64_hex, job_scope, Recorder};
use diode::solver::{enumerate, sample, solve_with, SolveResult, SolverConfig};
use diode::symbolic::{OvfKind, Sym, SymBool, SymExpr};
use diode::synth::{forge, SynthConfig};

/// FNV-64 of every query's image, captured before the SAT core moved to
/// a flat clause arena and a per-thread workspace.
const PINNED: &str = "fnv64:4605634ff511d7af";

/// One solved query: the constraint and the `Debug` image of its result
/// and work counters, with the β of its site and how it was solved.
struct Query {
    cond: SymBool,
    conflicts: u64,
    image: String,
    /// The site's β, and the site's index in the corpus.
    beta: SymBool,
    site: usize,
    /// The interval pre-analysis decided it (no SAT encoding).
    interval: bool,
    /// It started from a recorded prefix.
    replayed: bool,
    /// CNF variables.
    vars: usize,
}

/// What one solve reports: its result, conflicts and image, whether the
/// interval pre-analysis decided it, and whether it replayed a prefix
/// (read from the job scope's `solver.prefix_replays` counter).
struct Solved {
    result: SolveResult,
    conflicts: u64,
    image: String,
    interval: bool,
    replayed: bool,
    vars: usize,
}

fn solve_image(cond: &SymBool, config: &SolverConfig) -> Solved {
    let recorder = Arc::new(Recorder::new());
    let (result, stats) = {
        let _scope = job_scope(Some(&recorder), "golden", 0, None);
        let (result, stats) = solve_with(cond, config, None);
        stats.count();
        (result, stats)
    };
    let replays = recorder
        .trace()
        .counters
        .get("solver.prefix_replays")
        .copied();
    let image = format!(
        "{:?}",
        (
            &result,
            stats.conflicts,
            stats.decisions,
            stats.vars,
            stats.decided_by_interval
        )
    );
    Solved {
        result,
        conflicts: stats.conflicts,
        image,
        interval: stats.decided_by_interval,
        replayed: replays == Some(1),
        vars: stats.vars,
    }
}

/// Replays the Figure 7 loop for every site of one unit, appending each
/// query it issues to `out`.
fn replay_unit(
    program: &Program,
    format: &FormatDesc,
    seed: &[u8],
    config: &DiodeConfig,
    out: &mut Vec<Query>,
) {
    for site in identify_target_sites(program, seed, &config.machine) {
        let Some(extraction) = extract(program, seed, &site, &config.machine) else {
            continue;
        };
        let site_index = out.last().map_or(0, |q| q.site + 1);
        let mut solve = |cond: SymBool| {
            let solved = solve_image(&cond, &config.solver);
            out.push(Query {
                cond,
                conflicts: solved.conflicts,
                image: solved.image,
                beta: extraction.beta.clone(),
                site: site_index,
                interval: solved.interval,
                replayed: solved.replayed,
                vars: solved.vars,
            });
            solved.result
        };
        let SolveResult::Sat(model) = solve(extraction.beta.clone()) else {
            continue;
        };
        let mut input = generate_input(format, seed, &model);
        if test_candidate(program, &input, site.label, &config.machine).triggered {
            continue;
        }
        let mut phi_prime = SymBool::Const(true);
        let mut enforced = 0;
        let mut skipped = vec![false; extraction.phi.len()];
        'enforce: while enforced < config.max_enforcements {
            let lookup = |o: u32| input.get(o as usize).copied().unwrap_or(0);
            let mut violated: Vec<usize> = (0..extraction.phi.len())
                .filter(|&i| !skipped[i] && !extraction.phi[i].constraint.eval(&lookup))
                .collect();
            violated.sort_by_key(|&i| (extraction.phi[i].occurrences > 1, i));
            for idx in violated {
                let cond = &extraction.phi[idx].constraint;
                let query = phi_prime.and(cond).and(&extraction.beta);
                match solve(query) {
                    SolveResult::Unsat => skipped[idx] = true,
                    SolveResult::Unknown => break 'enforce,
                    SolveResult::Sat(model) => {
                        phi_prime = phi_prime.and(cond);
                        enforced += 1;
                        input = generate_input(format, seed, &model);
                        if test_candidate(program, &input, site.label, &config.machine).triggered {
                            break 'enforce;
                        }
                        continue 'enforce;
                    }
                }
            }
            break;
        }
    }
}

/// The corpus, solved once in issue order; the second list holds each
/// site's β for the `sample`/`enumerate` images.
fn corpus() -> (Vec<Query>, Vec<SymBool>) {
    let config = DiodeConfig::default();
    let mut queries = Vec::new();
    let mut counts = Vec::new();
    for (depth, site_work) in [(3, 300), (8, 0)] {
        let suite = forge(&SynthConfig {
            apps: 8,
            min_sites: 6,
            max_sites: 6,
            branch_depth: depth,
            site_work,
            rng_seed: 0xD10D_E5EE,
            ..SynthConfig::default()
        });
        for app in &suite.apps {
            for seed in &app.seeds {
                replay_unit(&app.program, &app.format, seed, &config, &mut queries);
            }
        }
        counts.push(queries.len());
    }
    let mut betas = Vec::new();
    for app in diode::apps::all_apps() {
        let first = queries.len();
        replay_unit(&app.program, &app.format, &app.seed, &config, &mut queries);
        betas.push(queries[first].cond.clone());
    }
    counts.push(queries.len());
    assert_eq!(counts, [99, 213, 297], "queries issued per corpus part");
    (queries, betas)
}

/// Images of `sample(β, 8, seed)` and `enumerate(β, 4)` for each β.
fn sampled_images(betas: &[SymBool]) -> String {
    let config = SolverConfig::default();
    let mut text = String::new();
    for (i, beta) in betas.iter().enumerate() {
        let _ = writeln!(text, "{:?}", sample(beta, 8, 0x5A + i as u64, &config));
        let e = enumerate(beta, 4, &config);
        let _ = writeln!(text, "{:?} {}", e.models, e.complete);
    }
    text
}

#[test]
fn solver_search_matches_the_pinned_image() {
    let (queries, betas) = corpus();
    let mut text = String::new();
    for q in &queries {
        text.push_str(&q.image);
        text.push('\n');
    }
    let sampled = sampled_images(&betas);
    text.push_str(&sampled);
    let conflicts: u64 = queries.iter().map(|q| q.conflicts).sum();
    assert_eq!(
        fnv64_hex(text.as_bytes()),
        PINNED,
        "{} queries, {conflicts} conflicts, {} bytes of images",
        queries.len(),
        text.len()
    );

    // Second pass: a fresh thread, reverse order, and a solve stopped
    // mid-search by its conflict budget every ten queries.
    let hardest = queries
        .iter()
        .max_by_key(|q| q.conflicts)
        .map(|q| q.cond.clone())
        .expect("non-empty corpus");
    let budget = SolverConfig {
        max_conflicts: 1,
        ..SolverConfig::default()
    };
    std::thread::spawn(move || {
        let config = SolverConfig::default();
        for (i, q) in queries.iter().enumerate().rev() {
            if i % 10 == 0 {
                let (result, _) = solve_with(&hardest, &budget, None);
                assert_eq!(result, SolveResult::Unknown, "budget must stop the search");
            }
            let image = solve_image(&q.cond, &config).image;
            assert_eq!(image, q.image, "query {i} changed on the second pass");
        }
        assert_eq!(sampled_images(&betas), sampled, "sample/enumerate changed");
    })
    .join()
    .expect("second pass");
}

/// The conjunct a query encodes first: an `And`'s right operand, or the
/// whole query.
fn right_conjunct(cond: &SymBool) -> &SymBool {
    match cond {
        SymBool::And(_, right) => right,
        _ => cond,
    }
}

/// True when `a` and `b` are the same node: the same variant over the
/// same children, compared by address.
fn same_node(a: &SymBool, b: &SymBool) -> bool {
    match (a, b) {
        (SymBool::Const(x), SymBool::Const(y)) => x == y,
        (SymBool::Cmp(o1, a1, b1), SymBool::Cmp(o2, a2, b2)) => {
            o1 == o2 && a1.node_id() == a2.node_id() && b1.node_id() == b2.node_id()
        }
        (SymBool::Ovf(k1, a1, b1), SymBool::Ovf(k2, a2, b2)) => {
            k1 == k2 && a1.node_id() == a2.node_id() && b1.node_id() == b2.node_id()
        }
        (SymBool::Not(x), SymBool::Not(y)) => Arc::ptr_eq(x, y),
        (SymBool::And(a1, b1), SymBool::And(a2, b2))
        | (SymBool::Or(a1, b1), SymBool::Or(a2, b2)) => Arc::ptr_eq(a1, a2) && Arc::ptr_eq(b1, b2),
        _ => false,
    }
}

/// True if `cond` divides by a constant. Encoding such a division
/// asserts units (whether the divisor is zero is known), and a prefix
/// whose encoding propagated a unit is not recorded.
fn divides_by_constant(cond: &SymBool) -> bool {
    fn expr(e: &SymExpr) -> bool {
        match e.sym() {
            Sym::Const(_) | Sym::InputByte(_) => false,
            Sym::Un(_, a) | Sym::Cast(_, _, a) => expr(a),
            Sym::Bin(op, a, b) => {
                (matches!(op, BinOp::UDiv | BinOp::URem) && b.as_const().is_some())
                    || expr(a)
                    || expr(b)
            }
        }
    }
    match cond {
        SymBool::Const(_) => false,
        SymBool::Cmp(_, a, b) | SymBool::Ovf(_, a, b) => expr(a) || expr(b),
        SymBool::Not(inner) => divides_by_constant(inner),
        SymBool::And(a, b) | SymBool::Or(a, b) => divides_by_constant(a) || divides_by_constant(b),
    }
}

fn byte32(off: u32) -> SymExpr {
    SymExpr::input_byte(off).cast(CastKind::Zext, 32)
}

fn c32(v: u32) -> SymExpr {
    SymExpr::constant(Bv::u32(v))
}

fn field32(base: u32) -> SymExpr {
    let b0 = byte32(base).bin(BinOp::Shl, c32(24));
    let b1 = byte32(base + 1).bin(BinOp::Shl, c32(16));
    let b2 = byte32(base + 2).bin(BinOp::Shl, c32(8));
    b0.bin(BinOp::Or, b1)
        .bin(BinOp::Or, b2)
        .bin(BinOp::Or, byte32(base + 3))
}

/// The image of `cond` solved on a new thread, whose workspace holds no
/// prefix.
fn fresh_image(cond: &SymBool) -> String {
    let cond = cond.clone();
    std::thread::spawn(move || solve_image(&cond, &SolverConfig::default()).image)
        .join()
        .expect("fresh solve")
}

/// Solves `beta` and then `sanity ∧ β` on a new thread (a site's β query
/// and its first φ′∧β query), checks the second query's image against a
/// fresh encoding's, and returns β's variable count and whether the
/// second query replayed.
fn beta_then_enforce(beta: &SymBool, sanity: &SymBool) -> (usize, bool) {
    let query = sanity.and(beta);
    let fresh = fresh_image(&query);
    let beta = beta.clone();
    let (vars, solved) = std::thread::spawn(move || {
        let config = SolverConfig::default();
        let vars = solve_image(&beta, &config).vars;
        (vars, solve_image(&query, &config))
    })
    .join()
    .expect("β, then φ′∧β");
    assert_eq!(solved.image, fresh, "sanity ∧ β");
    (vars, solved.replayed)
}

#[test]
fn replayed_prefixes_solve_like_fresh_encodings() {
    let (queries, _) = corpus();
    // Each site's first query is its β alone: its variables are β's.
    let mut beta_vars = vec![0; queries.last().map_or(0, |q| q.site + 1)];
    for q in queries.iter().rev() {
        beta_vars[q.site] = q.vars;
    }
    let (mut replays, mut refused) = (0, 0);
    for (i, q) in queries.iter().enumerate() {
        // β is this query's right-hand conjunct, and an earlier query of
        // its site encoded β first on the SAT core: the site's β query
        // when β is not an `And`, else its first φ′∧β query.
        let after_beta = same_node(right_conjunct(&q.cond), &q.beta)
            && queries[..i]
                .iter()
                .rev()
                .take_while(|p| p.site == q.site)
                .any(|p| !p.interval && same_node(right_conjunct(&p.cond), &q.beta));
        if q.replayed {
            replays += 1;
            assert!(after_beta, "query {i} replayed a prefix it did not record");
            assert_eq!(fresh_image(&q.cond), q.image, "replayed query {i}");
        } else if after_beta && !q.interval {
            // Only a refused prefix is not replayed.
            assert!(
                divides_by_constant(&q.beta) || beta_vars[q.site] > 8192,
                "query {i} did not replay its site's β"
            );
            refused += 1;
        }
    }
    // Every φ′∧β query after its site's β that the interval pre-analysis
    // did not decide replayed unless its prefix was refused; the counts
    // pin how much of the corpus that is.
    assert_eq!((replays, refused), (144, 17), "(replays, refused)");

    // Refused prefixes: a β dividing by a constant zero propagates units
    // while it is encoded, and a β over 8,192 variables is too large to
    // keep. Each leaves the next φ′∧β query to encode β afresh, while a
    // β that can be kept is replayed.
    let sanity = SymBool::cmp(CmpOp::Ult, field32(0), c32(1000));
    let by_zero = SymBool::Ovf(OvfKind::Mul, field32(0), byte32(4).bin(BinOp::UDiv, c32(0)));
    assert!(
        !beta_then_enforce(&by_zero, &sanity).1,
        "β / 0 was replayed"
    );
    let product = field32(0).bin(BinOp::Mul, field32(4));
    let huge = SymBool::Ovf(OvfKind::Mul, product, field32(8));
    let (vars, replayed) = beta_then_enforce(&huge, &sanity);
    assert!(
        vars > 8192 && !replayed,
        "{vars} variables, replayed: {replayed}"
    );
    let small = SymBool::Ovf(OvfKind::Mul, field32(0), field32(4));
    let (vars, replayed) = beta_then_enforce(&small, &sanity);
    assert!(
        vars <= 8192 && replayed,
        "{vars} variables, replayed: {replayed}"
    );
}
