//! Property tests for prefix-snapshot/resume equivalence (the
//! determinism contract of the `diode-interp` snapshot layer): for
//! forged applications, resuming a captured prefix snapshot on a
//! divergent-suffix input produces a [`Run`] **byte-identical** to a
//! from-scratch execution — across all three shadow policies (concrete,
//! taint, symbolic) and arbitrary patched field values.
//!
//! The comparison oracle is the full `Debug` rendering of the run:
//! outcome, memory errors, every allocation record (values, sticky
//! overflow flags, shadow tags), branch observations, warnings, and the
//! step count.
//!
//! Snapshots are placed as the campaign warm pass places them: a traced
//! seed run (`run_traced`) gives the step of the first read of a site's
//! bytes, and `run_capture_multi` captures just before it. Each snapshot
//! resumed on the seed itself must reproduce the run from `main`, and
//! resumed on a candidate, the candidate's run from `main`.
//!
//! Captures and resumes pair branch recording the ways the pipeline
//! does: on for both (stage 2), off for both, and captured on but
//! resumed off (the candidate tester, whose resume must then match a
//! non-recording run from `main`). A snapshot captured without recording
//! holds no prefix log, so it never serves a recording resume. Every
//! snapshot of one `run_capture_multi` pass, whose snapshots share one
//! branch log, is checked the same way.
//!
//! Stage 2's lift is checked as the campaign uses it: one `Concrete`
//! pass with recording on captures every site's snapshot, and
//! `run_to_alloc` under the site's `Symbolic::relevant_bytes` policy
//! from that snapshot must return exactly what it returns from `main`.

use std::collections::HashMap;

use diode_interp::{
    run, run_capture_multi, run_from, run_to_alloc, run_traced, Concrete, MachineConfig, Run,
    Shadow, Symbolic, Taint,
};
use diode_lang::Label;
use diode_synth::{forge, SynthConfig};
use proptest::prelude::*;

fn image<T: std::fmt::Debug, C: std::fmt::Debug>(r: &Run<T, C>) -> String {
    format!("{r:?}")
}

fn recording(record_branches: bool) -> MachineConfig {
    MachineConfig {
        record_branches,
        ..MachineConfig::default()
    }
}

/// `(capture, resume)` branch-recording pairs a snapshot may serve.
const PAIRINGS: [(bool, bool); 3] = [(true, true), (false, false), (true, false)];

/// The seed run's first-read trace: input offset → step of its first
/// direct read.
fn seed_trace<S: Shadow>(
    app: &diode_engine::CampaignApp,
    shadow: S,
    config: &MachineConfig,
) -> HashMap<u64, u64> {
    run_traced(&app.program, &app.seeds[0], shadow, config).1
}

/// The step of the first read of any of `divergent` in `trace`, where
/// the warm pass places the site's snapshot (`None`: never read).
fn first_read(trace: &HashMap<u64, u64>, divergent: &[u32]) -> Option<u64> {
    divergent
        .iter()
        .filter_map(|&o| trace.get(&u64::from(o)).copied())
        .min()
}

/// Every site's snapshot boundary in `trace`, paired with the site's
/// index and sorted as `run_capture_multi` takes its stops. Sites whose
/// divergent bytes are never read are left out.
fn warm_stops(trace: &HashMap<u64, u64>, sites: &[(Vec<u32>, Vec<u8>)]) -> Vec<(u64, usize)> {
    let mut stops: Vec<(u64, usize)> = sites
        .iter()
        .enumerate()
        .filter_map(|(i, (divergent, _))| first_read(trace, divergent).map(|step| (step, i)))
        .collect();
    stops.sort_unstable();
    stops
}

/// Resumes `snapshot` (captured under `shadow`) on `candidate` under
/// `resume` and asserts byte-identity against a from-scratch run under
/// the same policy and config.
fn assert_resume_matches<S: Shadow + Clone>(
    app: &diode_engine::CampaignApp,
    shadow: S,
    snapshot: &diode_interp::Snapshot<S>,
    candidate: &[u8],
    resume: &MachineConfig,
) -> Result<(), TestCaseError>
where
    S::Tag: std::fmt::Debug,
    S::CondTag: std::fmt::Debug,
{
    // Validation must accept the candidate (it differs only at divergent
    // offsets, none of which the prefix read), and the result must match
    // a from-scratch run byte for byte.
    let resumed = run_from(&app.program, candidate, snapshot, resume)
        .expect("candidate agrees with the prefix log");
    let scratch = run(&app.program, candidate, shadow, resume);
    prop_assert_eq!(
        image(&resumed),
        image(&scratch),
        "{}: resumed suffix diverges from from-scratch run (recording {})",
        app.name,
        resume.record_branches
    );
    prop_assert_eq!(resumed.steps, scratch.steps);
    Ok(())
}

/// Traces, captures, and resumes one forged app under one shadow policy,
/// asserting byte-identity of the resumed suffix run against a
/// from-scratch run, on the seed and on the candidate input, for every
/// recording pairing.
fn assert_equivalence<S: Shadow + Clone>(
    app: &diode_engine::CampaignApp,
    shadow: S,
    divergent: &[u32],
    candidate: &[u8],
) -> Result<(), TestCaseError>
where
    S::Tag: std::fmt::Debug,
    S::CondTag: std::fmt::Debug,
{
    let seed = &app.seeds[0];
    for (capture, resume) in PAIRINGS {
        let capture = recording(capture);
        let trace = seed_trace(app, shadow.clone(), &capture);
        let Some(step) = first_read(&trace, divergent) else {
            // The divergent bytes are never read on the seed path —
            // nothing to snapshot, nothing to check.
            return Ok(());
        };
        let snapshot = run_capture_multi(&app.program, seed, shadow.clone(), &capture, &[step])
            .pop()
            .flatten()
            .expect("the first-read step is reached on the seed");
        // The snapshot is unperturbed: resumed on the seed, it
        // reproduces the seed's run from `main`.
        for input in [seed.as_slice(), candidate] {
            assert_resume_matches(app, shadow.clone(), &snapshot, input, &recording(resume))?;
        }
    }
    Ok(())
}

/// Captures one snapshot per site in a single `run_capture_multi` pass
/// and resumes each on its own site's candidate, for every recording
/// pairing. `sites` pairs each site's divergent bytes with its candidate.
fn assert_multi_equivalence<S: Shadow + Clone>(
    app: &diode_engine::CampaignApp,
    shadow: S,
    sites: &[(Vec<u32>, Vec<u8>)],
) -> Result<(), TestCaseError>
where
    S::Tag: std::fmt::Debug,
    S::CondTag: std::fmt::Debug,
{
    let seed = &app.seeds[0];
    for (capture, resume) in PAIRINGS {
        let capture = recording(capture);
        let stops = warm_stops(&seed_trace(app, shadow.clone(), &capture), sites);
        let steps: Vec<u64> = stops.iter().map(|&(step, _)| step).collect();
        let snapshots = run_capture_multi(&app.program, seed, shadow.clone(), &capture, &steps);
        prop_assert_eq!(snapshots.len(), stops.len());
        for (&(_, i), snapshot) in stops.iter().zip(&snapshots) {
            let snapshot = snapshot.as_ref().expect("every traced step is reached");
            assert_resume_matches(
                app,
                shadow.clone(),
                snapshot,
                &sites[i].1,
                &recording(resume),
            )?;
        }
    }
    Ok(())
}

/// The lift: one `Concrete` pass with recording on captures every
/// site's snapshot, as the warm pass does, and `run_to_alloc` under the
/// site's `Symbolic::relevant_bytes` policy from that snapshot visits
/// the site at `labels[i]` exactly as it does from `main`, on the seed
/// and on the site's candidate.
fn assert_lift_equivalence(
    app: &diode_engine::CampaignApp,
    sites: &[(Vec<u32>, Vec<u8>)],
    labels: &[Label],
) -> Result<(), TestCaseError> {
    let seed = &app.seeds[0];
    let config = recording(true);
    let stops = warm_stops(&seed_trace(app, Concrete, &config), sites);
    let steps: Vec<u64> = stops.iter().map(|&(step, _)| step).collect();
    let snapshots = run_capture_multi(&app.program, seed, Concrete, &config, &steps);
    for (&(_, i), snapshot) in stops.iter().zip(&snapshots) {
        let snapshot = snapshot.as_ref().expect("every traced step is reached");
        let (divergent, candidate) = &sites[i];
        let policy = Symbolic::relevant_bytes(divergent.iter().copied());
        for input in [seed.as_slice(), candidate] {
            let visit = |from| {
                run_to_alloc(
                    &app.program,
                    input,
                    policy.clone(),
                    &config,
                    from,
                    labels[i],
                )
            };
            let (lifted, scratch) = (visit(Some(snapshot)), visit(None));
            prop_assert!(
                lifted.is_some() || scratch.is_none(),
                "{}: the lift refused a prefix before the site's bytes",
                app.name
            );
            prop_assert_eq!(
                format!("{lifted:?}"),
                format!("{scratch:?}"),
                "{}: the lifted visit of {:?} differs from the one from main",
                app.name,
                labels[i]
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn snapshot_resume_is_byte_identical_across_all_shadow_modes(
        rng_seed in 0u64..1_000_000,
        depth in 1usize..4,
        site_pick in 0usize..8,
        patch in 0u64..u64::MAX,
        site_work in prop_oneof![Just(0u32), Just(64u32)],
    ) {
        let cfg = SynthConfig {
            apps: 1,
            min_sites: 2,
            max_sites: 4,
            branch_depth: depth,
            site_work,
            rng_seed,
            ..SynthConfig::default()
        };
        let suite = forge(&cfg);
        let app = &suite.apps[0];
        let oracle = suite.oracle.app(&app.name).expect("oracle entry");

        // Per site, the divergent set: its field bytes (what a solver
        // model would patch), via the format's field map; and a
        // candidate input: those bytes patched with arbitrary values and
        // the checksums repaired, exactly like generated inputs.
        let sites: Vec<(Vec<u32>, Vec<u8>)> = oracle
            .sites
            .iter()
            .map(|site| {
                let mut divergent: Vec<u32> = site
                    .fields
                    .iter()
                    .flat_map(|path| {
                        let f = app.format.field(path).expect("planted field exists");
                        f.offset..f.offset + f.len
                    })
                    .collect();
                divergent.sort_unstable();
                divergent.dedup();
                let patched = divergent
                    .iter()
                    .enumerate()
                    .map(|(i, &o)| (o, (patch >> ((i % 8) * 8)) as u8));
                let candidate = app.format.reconstruct(&app.seeds[0], patched);
                (divergent, candidate)
            })
            .collect();
        let (divergent, candidate) = &sites[site_pick % sites.len()];
        let alloc_sites = app.program.alloc_sites();
        let labels: Vec<Label> = oracle
            .sites
            .iter()
            .map(|site| {
                alloc_sites
                    .iter()
                    .find(|(_, name)| **name == *site.site)
                    .expect("planted site exists")
                    .0
            })
            .collect();

        assert_equivalence(app, Concrete, divergent, candidate)?;
        assert_equivalence(app, Taint, divergent, candidate)?;
        assert_equivalence(app, Symbolic::all_bytes(), divergent, candidate)?;
        // The staged policy the pipeline actually uses: symbolic
        // recording restricted to the site's relevant bytes.
        assert_equivalence(
            app,
            Symbolic::relevant_bytes(divergent.iter().copied()),
            divergent,
            candidate,
        )?;

        // One capture pass for every site, as the campaign warm-up
        // takes it (concrete), and under the other policies.
        assert_multi_equivalence(app, Concrete, &sites)?;
        assert_multi_equivalence(app, Taint, &sites)?;
        assert_multi_equivalence(app, Symbolic::all_bytes(), &sites)?;
        assert_multi_equivalence(app, Symbolic::relevant_bytes([]), &sites)?;
        // Stage 2 lifts the concrete pass into each site's policy.
        assert_lift_equivalence(app, &sites, &labels)?;
    }
}
