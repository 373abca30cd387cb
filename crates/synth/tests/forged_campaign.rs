//! Campaign-scale acceptance tests for the scenario forge: a 50-app
//! forged suite must grade perfectly (100% recall *and* exact three-way
//! classification) and produce byte-identical reports on all cores and on
//! one worker, and with caches and prefix snapshots on and off.

use diode_core::DiodeConfig;
use diode_engine::{CampaignSpec, ExecutionMode};
use diode_synth::{forge, score, GroundTruth, SynthConfig};

#[test]
fn fifty_app_campaign_has_full_recall_and_identical_reports_across_modes() {
    let cfg = SynthConfig::default().with_apps(50);
    let suite = forge(&cfg);
    assert_eq!(suite.apps.len(), 50);
    let (total, exposable, unsat, prevented) = suite.oracle.expected_counts();
    assert_eq!(total, suite.total_sites());
    assert!(
        exposable >= 50,
        "every app plants at least one exposable site, got {exposable}"
    );
    assert!(
        unsat > 0 && prevented > 0,
        "the default mix plants all classes"
    );

    let parallel = CampaignSpec::new(suite.campaign_apps()).run();
    let reference = CampaignSpec {
        mode: ExecutionMode::Parallel { threads: Some(1) },
        // The reference run: one worker, no caches at all.
        config: DiodeConfig::default(),
        snapshot_cache: None,
        ..CampaignSpec::new(suite.campaign_apps())
    }
    .run();

    // Byte-identical reports regardless of scheduling and caching.
    assert_eq!(
        parallel.outcome_fingerprint(),
        reference.outcome_fingerprint(),
        "forged-campaign outcomes must not depend on worker count or caching"
    );
    assert_eq!(parallel.counts(), reference.counts());

    // Perfect grade against the by-construction oracle.
    let card = score(&parallel, &suite.oracle);
    assert_eq!(card.graded, total);
    assert_eq!(
        card.recall(),
        1.0,
        "missed exposable sites: {:?}",
        card.mismatches
    );
    assert_eq!(
        card.precision(),
        1.0,
        "false positives: {:?}",
        card.mismatches
    );
    assert!(card.is_perfect(), "mismatches: {:?}", card.mismatches);

    // The campaign counts equal the oracle's expectations exactly.
    assert_eq!(parallel.counts(), (total, exposable, unsat, prevented));
}

#[test]
fn exposed_bugs_in_forged_campaigns_revalidate() {
    let suite = forge(&SynthConfig::default().with_apps(6).with_rng_seed(7));
    let report = CampaignSpec::new(suite.campaign_apps()).run();
    let mut exposed = 0;
    for unit in &report.units {
        for site in &unit.sites {
            if matches!(site.report.outcome, diode_core::SiteOutcome::Exposed(_)) {
                exposed += 1;
                assert_eq!(
                    site.verified,
                    Some(true),
                    "{}/{} failed re-validation",
                    unit.app,
                    site.report.site
                );
            }
        }
    }
    assert!(exposed > 0);
    let stats = report.cache.expect("campaign installs a shared cache");
    assert!(stats.hits > 0, "re-validation must hit the shared cache");
}

#[test]
fn multi_seed_forged_units_grade_per_unit() {
    let cfg = SynthConfig {
        apps: 3,
        seeds_per_app: 2,
        ..SynthConfig::default()
    };
    let suite = forge(&cfg);
    let report = CampaignSpec::new(suite.campaign_apps()).run();
    assert_eq!(report.units.len(), 6, "one unit per (app, seed)");
    let card = score(&report, &suite.oracle);
    assert_eq!(card.graded, 2 * suite.total_sites());
    assert!(card.is_perfect(), "mismatches: {:?}", card.mismatches);
}

#[test]
fn deeper_guard_chains_still_grade_perfectly() {
    let cfg = SynthConfig {
        apps: 4,
        branch_depth: 6,
        rng_seed: 0xBEEF,
        ..SynthConfig::default()
    };
    let suite = forge(&cfg);
    let report = CampaignSpec::new(suite.campaign_apps()).run();
    let card = score(&report, &suite.oracle);
    assert!(card.is_perfect(), "mismatches: {:?}", card.mismatches);
    // Deep chains force real enforcement work somewhere in the suite.
    let enforced: usize = report
        .units
        .iter()
        .flat_map(|u| &u.sites)
        .filter_map(|s| s.report.outcome.bug())
        .map(|b| b.enforced)
        .sum();
    assert!(enforced > 0, "expected at least one enforced branch");
}

#[test]
fn depth_zero_suites_expose_without_enforcement() {
    let cfg = SynthConfig {
        apps: 4,
        branch_depth: 0,
        rng_seed: 0x5EED,
        ..SynthConfig::default()
    };
    let suite = forge(&cfg);
    for app in &suite.oracle.apps {
        assert!(app
            .sites
            .iter()
            .all(|s| s.truth != GroundTruth::GuardPrevented));
    }
    let report = CampaignSpec::new(suite.campaign_apps()).run();
    let card = score(&report, &suite.oracle);
    assert!(card.is_perfect(), "mismatches: {:?}", card.mismatches);
    for unit in &report.units {
        for site in &unit.sites {
            if let Some(bug) = site.report.outcome.bug() {
                assert_eq!(
                    bug.enforced, 0,
                    "{}/{}: no guards to enforce",
                    unit.app, site.report.site
                );
            }
        }
    }
}

#[test]
fn deep_suite_reports_are_identical_with_snapshots_on_and_off() {
    // The deep-suite shape at quarter scale: prefix work before every
    // site, so candidate runs resume from snapshots instead of
    // re-executing it. The full re-execution path is the reference.
    let cfg = SynthConfig {
        apps: 6,
        min_sites: 6,
        max_sites: 6,
        branch_depth: 3,
        site_work: 3000,
        rng_seed: 0xD10D_E5EE,
        ..SynthConfig::default()
    };
    let suite = forge(&cfg);
    let on = CampaignSpec::new(suite.campaign_apps()).run();
    let mut spec = CampaignSpec::new(suite.campaign_apps());
    spec.snapshot_cache = None;
    let off = spec.run();

    assert_eq!(
        on.outcome_fingerprint(),
        off.outcome_fingerprint(),
        "prefix snapshots must not change any finding"
    );
    for report in [&on, &off] {
        let card = score(report, &suite.oracle);
        assert!(card.is_perfect(), "mismatches: {:?}", card.mismatches);
    }
    let stats = on
        .snapshots
        .expect("snapshot-on campaign reports its cache");
    assert!(stats.resumes > 0, "candidate runs must resume: {stats:?}");
    assert_eq!(stats.misses, 0, "warmed campaigns never re-execute");
}
