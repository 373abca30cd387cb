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

use std::fmt::Write as _;

use diode::core::{extract, generate_input, identify_target_sites, test_candidate, DiodeConfig};
use diode::format::FormatDesc;
use diode::lang::Program;
use diode::obs::fnv64_hex;
use diode::solver::{enumerate, sample, solve_with, SolveResult, SolverConfig};
use diode::symbolic::SymBool;
use diode::synth::{forge, SynthConfig};

/// FNV-64 of every query's image, captured before the SAT core moved to
/// a flat clause arena and a per-thread workspace.
const PINNED: &str = "fnv64:4605634ff511d7af";

/// One solved query: the constraint and the `Debug` image of its result
/// and work counters.
struct Query {
    cond: SymBool,
    conflicts: u64,
    image: String,
}

fn solve_image(cond: &SymBool, config: &SolverConfig) -> (SolveResult, u64, String) {
    let (result, stats) = solve_with(cond, config, None);
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
    (result, stats.conflicts, image)
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
    let mut solve = |cond: SymBool| {
        let (result, conflicts, image) = solve_image(&cond, &config.solver);
        out.push(Query {
            cond,
            conflicts,
            image,
        });
        result
    };
    for site in identify_target_sites(program, seed, &config.machine) {
        let Some(extraction) = extract(program, seed, &site, &config.machine) else {
            continue;
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
            let (_, _, image) = solve_image(&q.cond, &config);
            assert_eq!(image, q.image, "query {i} changed on the second pass");
        }
        assert_eq!(sampled_images(&betas), sampled, "sample/enumerate changed");
    })
    .join()
    .expect("second pass");
}
