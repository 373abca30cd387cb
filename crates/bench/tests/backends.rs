//! Every table runs its analyses as one engine campaign over all its
//! apps. The classifications must not depend on the worker count or on a
//! shared query cache, and must equal `diode_core::analyze_program`, the
//! paper's per-app loop, site for site.

use diode_bench::{
    analyze_apps, config_with_cache, execution_mode, table1_matches_paper, table1_rows,
};
use diode_core::{analyze_program, DiodeConfig, SiteOutcome};
use diode_engine::ExecutionMode;

fn fingerprint(outcome: &SiteOutcome) -> String {
    match outcome {
        SiteOutcome::Exposed(b) => format!(
            "exposed:{}:{:02x?}:{:?}",
            b.enforced, b.input, b.enforced_labels
        ),
        SiteOutcome::TargetUnsat => "unsat".into(),
        SiteOutcome::Prevented(r) => format!("prevented:{r:?}"),
        SiteOutcome::Unknown => "unknown".into(),
    }
}

#[test]
fn table1_agrees_across_worker_counts_and_caches() {
    let apps = diode_apps::all_apps();
    let (cached_config, cache) = config_with_cache(DiodeConfig::default());
    let cached = table1_rows(&apps, &cached_config, ExecutionMode::default());
    let one_worker = table1_rows(
        &apps,
        &DiodeConfig::default(),
        ExecutionMode::Parallel { threads: Some(1) },
    );
    assert!(table1_matches_paper(&cached));
    assert!(table1_matches_paper(&one_worker));
    for (c, o) in cached.iter().zip(&one_worker) {
        assert_eq!(c.app, o.app);
        assert_eq!(c.measured, o.measured, "{}", c.app);
    }
    let stats = cache.stats();
    assert!(stats.misses > 0);
    assert!(
        stats.hits > 0,
        "structurally repeated queries across sites must hit: {stats:?}"
    );
}

#[test]
fn analyze_apps_matches_analyze_program() {
    // All five apps in one four-worker campaign must equal
    // `diode_core::analyze_program` app by app, site for site, in
    // site-label order.
    let config = DiodeConfig::default();
    let apps = diode_apps::all_apps();
    let analyses = analyze_apps(&apps, &config, ExecutionMode::Parallel { threads: Some(4) });
    assert_eq!(analyses.len(), apps.len());
    for (app, got) in apps.iter().zip(&analyses) {
        let want = analyze_program(&app.program, &app.seed, &app.format, &config);
        assert_eq!(got.counts(), want.counts(), "{}", app.name);
        assert_eq!(got.sites.len(), want.sites.len(), "{}", app.name);
        for (g, w) in got.sites.iter().zip(&want.sites) {
            assert_eq!(g.site, w.site, "{}: order preserved", app.name);
            assert_eq!(fingerprint(&g.outcome), fingerprint(&w.outcome));
        }
    }
}

#[test]
fn execution_mode_parses_threads() {
    assert_eq!(
        execution_mode(&["--json"]),
        ExecutionMode::Parallel { threads: None }
    );
    assert_eq!(
        execution_mode(&["--threads", "3"]),
        ExecutionMode::Parallel { threads: Some(3) }
    );
}
