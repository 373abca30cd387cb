//! Engine integration tests on the five §5 benchmark applications:
//! campaigns must be byte-identical at every worker count, with or
//! without caches, and to `diode_core::analyze_program`, and the shared
//! solver cache must absorb repeated enforcement queries.

use std::sync::Arc;
use std::time::Duration;

use diode_core::{analyze_program, DiodeConfig, SiteOutcome};
use diode_engine::{CampaignApp, CampaignSpec, ExecutionMode, PulseBus, PulseConfig, PulseEvent};

fn benchmark_campaign() -> Vec<CampaignApp> {
    diode_apps::all_apps()
        .into_iter()
        .map(|app| CampaignApp::new(app.name, app.program, app.format, app.seed))
        .collect()
}

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
fn parallel_campaign_is_byte_identical_to_one_uncached_worker() {
    let parallel = CampaignSpec::new(benchmark_campaign()).run();
    let reference = CampaignSpec {
        mode: ExecutionMode::Parallel { threads: Some(1) },
        // The reference run: one worker, no caches at all, original
        // solve path.
        config: DiodeConfig::default(),
        snapshot_cache: None,
        ..CampaignSpec::new(benchmark_campaign())
    }
    .run();

    assert_eq!(parallel.counts(), reference.counts());
    assert_eq!(parallel.counts(), (40, 14, 17, 9), "paper Table 1 totals");
    assert_eq!(
        parallel.outcome_fingerprint(),
        reference.outcome_fingerprint(),
        "site outcomes must not depend on scheduling or caching"
    );
    assert!(reference.cache.is_none());
    assert!(reference.snapshots.is_none());
    for site in reference.units.iter().flat_map(|u| &u.sites) {
        assert!(
            site.report.snapshot.is_none(),
            "{}: no snapshot cache, no snapshot code",
            site.report.site
        );
    }
    assert_eq!(reference.threads, 1);
}

#[test]
fn per_site_peak_heap_bytes_are_pinned() {
    // A site's peak is the heap's logical charge (a sparse block pays per
    // touched cell, not per host page), so a heap layout change that
    // keeps the accounting leaves every figure where it is.
    let report = CampaignSpec {
        mode: ExecutionMode::Parallel { threads: Some(1) },
        ..CampaignSpec::new(benchmark_campaign())
    }
    .run();
    let peaks: Vec<u64> = report
        .units
        .iter()
        .flat_map(|u| &u.sites)
        .map(|s| s.report.peak_heap_bytes)
        .collect();
    assert_eq!(peaks.len(), 40);
    assert_eq!(
        (peaks.iter().max().copied(), peaks.iter().sum::<u64>()),
        (Some(10_783_846), 29_159_007)
    );
}

#[test]
fn parallel_campaign_matches_core_analyze_program() {
    // The engine against the untouched diode-core per-app entry point.
    let report = CampaignSpec::new(benchmark_campaign()).run();
    let config = DiodeConfig::default();
    for (unit, app) in report.units.iter().zip(diode_apps::all_apps()) {
        let reference = analyze_program(&app.program, &app.seed, &app.format, &config);
        assert_eq!(unit.counts(), reference.counts(), "{}", app.name);
        assert_eq!(unit.sites.len(), reference.sites.len());
        for (got, want) in unit.sites.iter().zip(&reference.sites) {
            assert_eq!(got.report.site, want.site, "{}: site order", app.name);
            assert_eq!(
                fingerprint(&got.report.outcome),
                fingerprint(&want.outcome),
                "{}/{}",
                app.name,
                want.site
            );
        }
    }
}

#[test]
fn every_exposed_bug_reverifies() {
    let report = CampaignSpec::new(benchmark_campaign()).run();
    let mut exposed = 0;
    for unit in &report.units {
        for site in &unit.sites {
            match site.report.outcome {
                SiteOutcome::Exposed(_) => {
                    exposed += 1;
                    assert_eq!(
                        site.verified,
                        Some(true),
                        "{}/{} failed re-validation",
                        unit.app,
                        site.report.site
                    );
                }
                _ => assert_eq!(site.verified, None),
            }
        }
    }
    assert_eq!(exposed, 14);
}

#[test]
fn campaign_cache_absorbs_enforcement_queries() {
    let report = CampaignSpec::new(benchmark_campaign()).run();
    let stats = report.cache.expect("default campaign installs a cache");
    // Re-validation re-issues every exposed site's final constraint, and
    // any site with ≥1 enforcement iteration re-solves overlapping
    // queries; 14 exposed sites ⇒ at least 14 hits.
    assert!(stats.hits >= 14, "expected ≥14 cache hits, got {stats:?}");
    assert!(stats.misses > 0);
    assert!(stats.entries > 0);
    assert!(stats.hit_rate() > 0.0);
}

#[test]
fn cache_hit_on_a_site_requiring_enforcement() {
    // A single-site campaign whose bug needs ≥1 enforcement iteration:
    // the Figure 2 Dillo site. The cache must report hits even for this
    // lone unit (the re-validation query repeats the final φ′∧β solve).
    let dillo = diode_apps::dillo::app();
    let report = CampaignSpec::new(vec![CampaignApp::new(
        dillo.name,
        dillo.program,
        dillo.format,
        dillo.seed,
    )])
    .run();
    let unit = report.unit("Dillo 2.1").expect("unit present");
    let fig2 = unit
        .sites
        .iter()
        .find(|s| s.report.site == "png.c@203")
        .expect("figure 2 site");
    let bug = fig2.report.outcome.bug().expect("exposed");
    assert!(bug.enforced >= 1, "png.c@203 requires enforcement");
    let stats = report.cache.expect("cache on");
    assert!(stats.hits >= 1, "repeat query must hit: {stats:?}");
}

#[test]
fn snapshot_campaign_is_byte_identical_to_full_reexecution() {
    // The differential-testing contract of prefix snapshots: a campaign
    // without a snapshot cache runs every site from `main`, and the
    // default snapshot-on campaign must match it byte for byte.
    let with_snapshots = CampaignSpec::new(benchmark_campaign()).run();
    let mut spec = CampaignSpec::new(benchmark_campaign());
    spec.snapshot_cache = None;
    let without = spec.run();

    assert_eq!(with_snapshots.counts(), without.counts());
    assert_eq!(
        with_snapshots.outcome_fingerprint(),
        without.outcome_fingerprint(),
        "prefix snapshots must not change any finding"
    );
    assert!(without.snapshots.is_none(), "disabled ⇒ no counters");
    let stats = with_snapshots
        .snapshots
        .expect("default campaign shares a snapshot cache");
    // The identify-time warm-up captures one prefix snapshot per target
    // site, and from then on every candidate test and every stage-2
    // extraction resumes instead of re-executing from `main`.
    assert_eq!(stats.captures, 40, "one capture per §5 target site");
    assert_eq!(stats.entries, stats.captures, "{stats:?}");
    assert!(stats.resumes >= 40, "every site tests ≥1 candidate");
    assert_eq!(stats.hits, stats.resumes, "seed-prefix snapshots validate");
    assert_eq!(stats.misses, 0, "warmed campaigns never re-execute");
    assert_eq!(stats.extract_resumes, 40, "every extraction resumes");
}

#[test]
fn identical_units_share_snapshot_slots() {
    // Snapshot slots are keyed by unit content, not position: the same
    // §5 app listed twice warms one set of slots, so the campaign
    // captures exactly what a single copy does.
    let campaign = |copies: usize| {
        let dillo = diode_apps::dillo::app();
        let apps = (0..copies)
            .map(|_| {
                CampaignApp::new(
                    dillo.name,
                    dillo.program.clone(),
                    dillo.format.clone(),
                    dillo.seed.clone(),
                )
            })
            .collect();
        CampaignSpec::new(apps).run()
    };
    let single = campaign(1);
    let double = campaign(2);
    let captures = |r: &diode_engine::CampaignReport| r.snapshots.expect("snapshots on").captures;
    assert!(captures(&single) > 0, "the app has warmable sites");
    assert_eq!(
        captures(&double),
        captures(&single),
        "the second copy reuses the first copy's prefixes"
    );
    let fingerprint = double.outcome_fingerprint();
    let lines: Vec<&str> = fingerprint.lines().collect();
    let (first, second) = lines.split_at(lines.len() / 2);
    assert_eq!(first, second, "both copies reach the same verdicts");
    assert_eq!(first.join("\n") + "\n", single.outcome_fingerprint());
}

/// Runs the five §5 apps with a pulse bus attached and returns the report
/// plus every event the bus delivered, read until it closed.
fn run_with_pulse() -> (diode_engine::CampaignReport, Vec<PulseEvent>) {
    let bus = Arc::new(PulseBus::new());
    let sub = bus.subscribe(1 << 14);
    let mut spec = CampaignSpec::new(benchmark_campaign());
    spec.pulse = Some(PulseConfig::new(bus));
    let report = spec.run();
    // `finished` closed the bus, so the blocking read ends.
    let events = std::iter::from_fn(|| sub.recv()).collect();
    assert_eq!(sub.dropped(), 0);
    (report, events)
}

#[test]
fn progress_events_cover_every_unit_and_site() {
    let (report, events) = run_with_pulse();
    let count = |f: fn(&PulseEvent) -> bool| events.iter().filter(|e| f(e)).count();
    assert_eq!(count(|e| matches!(e, PulseEvent::UnitStarted { .. })), 5);
    assert_eq!(
        count(|e| matches!(e, PulseEvent::SitesIdentified { .. })),
        5
    );
    assert_eq!(
        count(|e| matches!(e, PulseEvent::SiteFinished { .. })),
        report.counts().0
    );
    assert!(matches!(events.last(), Some(PulseEvent::Finished { .. })));
    assert_eq!(report.jobs, 5 + report.counts().0);
}

#[test]
fn site_finished_events_carry_live_cache_and_snapshot_counters() {
    // Site events surface the shared solver-cache and snapshot-cache
    // residency as it evolves, so live consoles can show it mid-campaign.
    let (report, events) = run_with_pulse();
    let live: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|e| match e {
            PulseEvent::SiteFinished {
                cache_bytes,
                snapshot_bytes,
                ..
            } => Some((*cache_bytes, *snapshot_bytes)),
            _ => None,
        })
        .collect();
    assert_eq!(live.len(), report.counts().0);
    let cache_peak = live.iter().map(|l| l.0).max().unwrap();
    let snapshot_peak = live.iter().map(|l| l.1).max().unwrap();
    assert!(
        cache_peak > 0,
        "the campaign issued solver queries, so the live cache bytes must move"
    );
    assert!(
        snapshot_peak > 0,
        "prefix snapshots are on by default: events carry snapshot bytes"
    );
    let cache = report.cache.expect("shared cache stats in the report");
    let snapshots = report.snapshots.expect("snapshot stats in the report");
    assert!(
        cache.bytes >= cache_peak && snapshots.bytes >= snapshot_peak,
        "final report bytes ({}, {}) dominate every live reading ({cache_peak}, {snapshot_peak})",
        cache.bytes,
        snapshots.bytes
    );
}

#[test]
fn multi_seed_units_are_independent() {
    // Same app twice under different seeds: units must aggregate per seed
    // and stay in spec order.
    let a = diode_apps::vlc::app();
    let b = diode_apps::vlc::app();
    let spec = CampaignSpec::new(vec![CampaignApp::new(
        "VLC twice",
        a.program,
        a.format,
        a.seed.clone(),
    )
    .with_seed(b.seed)]);
    let report = spec.run();
    assert_eq!(report.units.len(), 2);
    assert_eq!(report.units[0].seed_index, 0);
    assert_eq!(report.units[1].seed_index, 1);
    assert_eq!(report.units[0].counts(), report.units[1].counts());
    assert_eq!(
        report.units[0].sites.len(),
        report.units[1].sites.len(),
        "identical seeds ⇒ identical site lists"
    );
}

#[test]
fn heartbeat_sampler_stops_without_waiting_out_its_interval() {
    // A heartbeat far longer than the campaign: stopping the sampler must
    // wake it, or the report's wall time grows by up to one interval.
    let vlc = diode_apps::vlc::app();
    let bus = Arc::new(PulseBus::new());
    let sub = bus.subscribe(1 << 12);
    let mut spec = CampaignSpec::new(vec![CampaignApp::new(
        vlc.name,
        vlc.program,
        vlc.format,
        vlc.seed,
    )]);
    let mut pulse = PulseConfig::new(bus);
    pulse.heartbeat = Duration::from_secs(20);
    spec.pulse = Some(pulse);
    let report = spec.run();
    assert!(
        report.wall_time < Duration::from_secs(5),
        "the campaign waited out its heartbeat: {:?}",
        report.wall_time
    );
    let events = sub.drain();
    assert!(
        events.iter().any(|e| matches!(e, PulseEvent::Heartbeat(_))),
        "the sampler beats once before its first wait"
    );
    assert!(
        matches!(events.last(), Some(PulseEvent::Finished { .. })),
        "stream must end with Finished, got {:?}",
        events.last()
    );
}
