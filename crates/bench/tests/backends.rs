//! The harness must produce identical Table 1 classifications through the
//! engine and sequential backends, with or without a shared query cache.

use diode_bench::{config_with_cache, table1_matches_paper, table1_rows, AnalysisBackend};
use diode_core::{analyze_program, DiodeConfig, SiteOutcome};

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
fn backends_agree_on_table1() {
    let apps = diode_apps::all_apps();
    let (cached_config, cache) = config_with_cache(DiodeConfig::default());
    let engine = table1_rows(&apps, &cached_config, AnalysisBackend::default());
    let sequential = table1_rows(&apps, &DiodeConfig::default(), AnalysisBackend::Sequential);
    assert!(table1_matches_paper(&engine));
    assert!(table1_matches_paper(&sequential));
    for (e, s) in engine.iter().zip(&sequential) {
        assert_eq!(e.app, s.app);
        assert_eq!(e.measured, s.measured, "{}", e.app);
    }
    let stats = cache.stats();
    assert!(stats.misses > 0);
    assert!(
        stats.hits > 0,
        "structurally repeated queries across sites must hit: {stats:?}"
    );
}

#[test]
fn engine_backend_analyze_is_a_drop_in_replacement() {
    // One app through a one-unit engine campaign must equal
    // `diode_core::analyze_program` site for site, in site-label order.
    let config = DiodeConfig::default();
    for app in diode_apps::all_apps() {
        let seq = analyze_program(&app.program, &app.seed, &app.format, &config);
        let par = AnalysisBackend::Engine { threads: Some(4) }.analyze(&app, &config);
        assert_eq!(par.counts(), seq.counts(), "{}", app.name);
        assert_eq!(par.sites.len(), seq.sites.len(), "{}", app.name);
        for (p, s) in par.sites.iter().zip(&seq.sites) {
            assert_eq!(p.site, s.site, "{}: order preserved", app.name);
            assert_eq!(fingerprint(&p.outcome), fingerprint(&s.outcome));
        }
    }
}

#[test]
fn backend_flag_parsing() {
    assert_eq!(
        AnalysisBackend::from_args(&["--json"]),
        AnalysisBackend::Engine { threads: None }
    );
    assert_eq!(
        AnalysisBackend::from_args(&["--threads", "3"]),
        AnalysisBackend::Engine { threads: Some(3) }
    );
    assert_eq!(
        AnalysisBackend::from_args(&["--sequential", "--threads", "3"]),
        AnalysisBackend::Sequential
    );
}
