//! Facade-level integration: forged suites flow through `diode::synth`
//! into `diode::engine` campaigns and grade perfectly, alongside (not
//! instead of) the five paper applications.

use diode::core::DiodeConfig;
use diode::engine::{CampaignApp, CampaignSpec, ExecutionMode};
use diode::synth::{forge, score, GroundTruth, SynthConfig};

#[test]
fn forged_suite_grades_perfectly_through_the_facade() {
    let cfg = SynthConfig {
        apps: 6,
        rng_seed: 0xFACADE,
        ..SynthConfig::default()
    };
    let suite = forge(&cfg);
    let parallel = CampaignSpec::new(suite.campaign_apps()).run();
    let reference = CampaignSpec {
        mode: ExecutionMode::Parallel { threads: Some(1) },
        // The reference run: one worker, no caches at all.
        config: DiodeConfig::default(),
        snapshot_cache: None,
        ..CampaignSpec::new(suite.campaign_apps())
    }
    .run();
    assert_eq!(
        parallel.outcome_fingerprint(),
        reference.outcome_fingerprint()
    );
    let card = score(&parallel, &suite.oracle);
    assert!(card.is_perfect(), "mismatches: {:?}", card.mismatches);
    assert_eq!(parallel.counts(), suite.oracle.expected_counts());
}

#[test]
fn mixed_campaigns_grade_only_their_forged_part() {
    // One real §5 app plus a forged app in the same campaign: scoring
    // must ignore the real app's unit entirely.
    let vlc = diode::apps::vlc::app();
    let suite = forge(&SynthConfig {
        apps: 1,
        min_sites: 2,
        max_sites: 2,
        rng_seed: 0x111,
        ..SynthConfig::default()
    });
    let mut apps = vec![CampaignApp::new(
        vlc.name,
        vlc.program,
        vlc.format,
        vlc.seed,
    )];
    apps.extend(suite.campaign_apps());
    let report = CampaignSpec::new(apps).run();
    assert_eq!(report.units.len(), 2);
    let card = score(&report, &suite.oracle);
    assert_eq!(card.graded, 2, "only the forged app's sites are graded");
    assert!(card.is_perfect(), "mismatches: {:?}", card.mismatches);
    // The VLC unit still reproduces its Table 1 row in the same campaign.
    let vlc_unit = report.unit("VLC 0.8.6h").expect("vlc unit");
    assert_eq!(vlc_unit.counts(), (4, 4, 0, 0));
}

#[test]
fn oracle_counts_are_consistent_with_planted_truth() {
    let suite = forge(&SynthConfig::default().with_apps(12));
    let (total, exposable, unsat, prevented) = suite.oracle.expected_counts();
    assert_eq!(total, exposable + unsat + prevented);
    let by_hand = suite
        .oracle
        .apps
        .iter()
        .flat_map(|a| &a.sites)
        .filter(|s| s.truth == GroundTruth::Exposable)
        .count();
    assert_eq!(by_hand, exposable);
    for app in &suite.oracle.apps {
        let per_app = suite.oracle.expected_counts_for(&app.app);
        assert_eq!(per_app.0, app.sites.len());
    }
}
