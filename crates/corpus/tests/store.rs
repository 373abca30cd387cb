//! Store-level integration: replay determinism, witness persistence,
//! regression detection via `diff`, and incremental growth.

use std::path::PathBuf;

use diode_corpus::{CorpusDiff, CorpusError, CorpusStore, LAYOUT_VERSION};
use diode_engine::{CampaignApp, CampaignSpec, ExecutionMode};
use diode_lang::parse;
use diode_obs::Json;
use diode_synth::{forge, GroundTruth, SynthConfig};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("diode-corpus-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_cfg(rng_seed: u64) -> SynthConfig {
    SynthConfig {
        apps: 3,
        min_sites: 1,
        max_sites: 3,
        rng_seed,
        ..SynthConfig::default()
    }
}

#[test]
fn replay_reproduces_the_saved_scorecard_byte_for_byte() {
    let dir = scratch("replay");
    let store = CorpusStore::open(&dir).unwrap();
    let cfg = small_cfg(0xC0FFEE);
    let saved = store.forge_and_save(&cfg).unwrap();

    // Original run, graded and recorded.
    let (report, card) = saved.replay(ExecutionMode::default());
    assert!(card.is_perfect(), "{:?}", card.mismatches);
    let baseline = saved.witnesses("baseline", &report);
    store.record_witnesses(&baseline).unwrap();

    // "Another process": a fresh store handle loads and replays.
    let store2 = CorpusStore::open(&dir).unwrap();
    let loaded = store2.load(saved.id()).unwrap();
    let (rerun, rerun_card) = loaded.replay(ExecutionMode::default());
    assert_eq!(
        report.outcome_fingerprint(),
        rerun.outcome_fingerprint(),
        "replay outcomes must be byte-identical"
    );

    let recorded = store2.load_witnesses(saved.id(), "baseline").unwrap();
    let fresh = loaded.witnesses("rerun", &rerun);
    // Byte-for-byte: identical canonical scorecards and fingerprints.
    assert_eq!(recorded.scorecard, fresh.scorecard);
    assert_eq!(recorded.fingerprint(), fresh.fingerprint());
    // The summary grades by ScoreCard's exact convention.
    let summary = recorded.scorecard.as_ref().unwrap();
    assert_eq!(summary.recall(), card.recall());
    assert_eq!(summary.precision(), card.precision());
    assert_eq!(summary.is_perfect(), card.is_perfect());
    assert!(rerun_card.is_perfect());
    assert!(CorpusDiff::between(&recorded, &fresh).is_clean());

    // One worker agrees too (same scheduler determinism contract, now
    // across the store boundary).
    let (one, _) = loaded.replay(ExecutionMode::Parallel { threads: Some(1) });
    assert_eq!(report.outcome_fingerprint(), one.outcome_fingerprint());
    std::fs::remove_dir_all(&dir).ok();
}

/// Tightens every guard of one exposable planted site below its overflow
/// threshold — the "a later version added a stricter sanity check"
/// regression — and returns the tampered campaign apps.
fn tamper_guards(store: &CorpusStore, id: &str) -> (Vec<CampaignApp>, String) {
    let loaded = store.load(id).unwrap();
    // Pick an exposable, guarded site whose threshold leaves room for a
    // tighter-but-seed-compatible limit (seed driver values are <= 8).
    let (app_name, site) = loaded
        .oracle()
        .apps
        .iter()
        .flat_map(|a| a.sites.iter().map(move |s| (a.app.clone(), s.clone())))
        .find(|(_, s)| {
            s.truth == GroundTruth::Exposable
                && !s.guards.is_empty()
                && s.overflow_threshold.is_some_and(|t| t > 9)
        })
        .expect("suite plants a guarded exposable site with threshold > 9");
    let site_idx: usize = site.fields[0]
        .strip_prefix("/s")
        .and_then(|rest| rest.split('/').next())
        .and_then(|k| k.parse().ok())
        .expect("field paths are /s<k>/f<j>");

    let apps = loaded
        .suite
        .apps
        .iter()
        .map(|app| {
            if app.name != app_name {
                return app.clone();
            }
            let mut text = diode_lang::pretty::program(&app.program);
            for &limit in &site.guards {
                let old = format!("if v{site_idx}_0 > {limit}u32 {{");
                let new = format!("if v{site_idx}_0 > 8u32 {{");
                assert!(text.contains(&old), "guard {old} not found in {}", app.name);
                text = text.replace(&old, &new);
            }
            let program = parse(&text).expect("tampered program parses");
            let mut tampered = CampaignApp::new(
                app.name.clone(),
                program,
                app.format.clone(),
                app.seeds[0].clone(),
            );
            for seed in &app.seeds[1..] {
                tampered = tampered.with_seed(seed.clone());
            }
            tampered
        })
        .collect();
    (apps, site.site)
}

#[test]
fn diff_flags_an_injected_guard_limit_regression() {
    let dir = scratch("diff");
    let store = CorpusStore::open(&dir).unwrap();
    let cfg = small_cfg(0xD1FF);
    let saved = store.forge_and_save(&cfg).unwrap();
    let (report, card) = saved.replay(ExecutionMode::default());
    assert!(card.is_perfect(), "{:?}", card.mismatches);
    store
        .record_witnesses(&saved.witnesses("baseline", &report))
        .unwrap();

    let (tampered_apps, tampered_site) = tamper_guards(&store, saved.id());
    let tampered_report = CampaignSpec::new(tampered_apps).run();
    store
        .record_witnesses(&saved.witnesses("tightened", &tampered_report))
        .unwrap();

    let old = store.load_witnesses(saved.id(), "baseline").unwrap();
    let new = store.load_witnesses(saved.id(), "tightened").unwrap();
    let diff = CorpusDiff::between(&old, &new);
    assert!(!diff.is_clean(), "regression must not diff clean");
    assert!(diff.new_sites.is_empty() && diff.lost_sites.is_empty());
    let changed = diff
        .changed
        .iter()
        .find(|c| c.key.site == tampered_site)
        .unwrap_or_else(|| panic!("{tampered_site} must be flagged: {diff}"));
    assert_eq!(changed.old, "exposed");
    assert!(
        changed.new.starts_with("prevented:"),
        "tightened guard turns the site prevented, got {}",
        changed.new
    );
    // The recorded scorecards disagree as well: the regression lost a
    // true positive.
    assert!(new.scorecard.as_ref().unwrap().recall() < old.scorecard.as_ref().unwrap().recall());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn grow_extends_without_reforging_and_matches_one_shot_forging() {
    let dir = scratch("grow");
    let store = CorpusStore::open(&dir).unwrap();
    let cfg = small_cfg(0x9409).with_apps(2);
    let saved = store.forge_and_save(&cfg).unwrap();

    let grown = store.grow(saved.id(), 2).unwrap();
    assert_ne!(grown.id(), saved.id());
    assert_eq!(grown.config().apps, 4);
    assert_eq!(grown.suite.apps.len(), 4);

    // The grown suite is byte-identical to forging 4 apps in one shot —
    // the old apps were reused, not re-forged, and the new ones joined
    // deterministically.
    let one_shot_cfg = cfg.clone().with_apps(4);
    let one_shot = forge(&one_shot_cfg).manifest(&one_shot_cfg);
    assert_eq!(grown.id(), one_shot.suite_id);

    // The original suite is untouched and both replay perfectly.
    let original = store.load(saved.id()).unwrap();
    assert_eq!(original.suite.apps.len(), 2);
    let (_, small_card) = original.replay(ExecutionMode::default());
    let (_, big_card) = grown.replay(ExecutionMode::default());
    assert!(small_card.is_perfect(), "{:?}", small_card.mismatches);
    assert!(big_card.is_perfect(), "{:?}", big_card.mismatches);
    assert!(big_card.graded > small_card.graded);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_surfaces_typed_errors() {
    let dir = scratch("errors");
    let store = CorpusStore::open(&dir).unwrap();
    assert!(matches!(
        store.load("suite-does-not-exist"),
        Err(CorpusError::UnknownSuite { .. })
    ));
    let cfg = SynthConfig {
        apps: 1,
        min_sites: 1,
        max_sites: 1,
        ..small_cfg(1)
    };
    let saved = store.forge_and_save(&cfg).unwrap();
    assert!(matches!(
        store.load_witnesses(saved.id(), "nope"),
        Err(CorpusError::UnknownWitnesses { .. })
    ));
    let (report, _) = saved.replay(ExecutionMode::default());
    assert!(matches!(
        store.record_witnesses(&saved.witnesses("../evil", &report)),
        Err(CorpusError::BadLabel { .. })
    ));

    // Prefix resolution: unique prefixes resolve, garbage does not.
    let resolved = store.resolve(&saved.id()[..10]).unwrap();
    assert_eq!(resolved, saved.id());
    assert!(store.resolve("zzz").is_err());

    // Flip a stored seed byte: load must fail hash verification.
    let manifest = &saved.manifest;
    let seed_rel = format!("seeds/{}.s0.bin", manifest.apps[0].name);
    let seed_path = store.suite_dir(saved.id()).join(seed_rel);
    let mut bytes = std::fs::read(&seed_path).unwrap();
    bytes[0] ^= 0xFF;
    std::fs::write(&seed_path, bytes).unwrap();
    assert!(matches!(
        store.load(saved.id()),
        Err(CorpusError::Manifest(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn suites_holding_legacy_snapshot_metadata_still_load_list_and_replay() {
    // Earlier versions recorded per-site snapshot metadata next to
    // `witnesses/`, and corpora already on disk keep that file. The
    // store must ignore it: the suite loads, lists (what `corpus ls`
    // prints), and replays to the recorded witnesses' fingerprint.
    let dir = scratch("legacy-snapmeta");
    let store = CorpusStore::open(&dir).unwrap();
    let saved = store.forge_and_save(&small_cfg(0xBEEF)).unwrap();
    let (report, card) = saved.replay(ExecutionMode::default());
    assert!(card.is_perfect(), "{:?}", card.mismatches);
    store
        .record_witnesses(&saved.witnesses("baseline", &report))
        .unwrap();

    // The metadata document exactly as the old layout wrote it.
    let sites: Vec<Json> = report
        .units
        .iter()
        .flat_map(|u| u.sites.iter().map(move |s| (u, s)))
        .filter_map(|(u, s)| {
            let info = s.report.snapshot.as_ref()?;
            Some(
                Json::obj()
                    .field("app", u.app.clone())
                    .field("seed_index", u.seed_index)
                    .field("site", s.report.site.clone())
                    .field("first_divergent_step", info.first_divergent_step)
                    // The store reads none of this file, so the site's
                    // relevant bytes stand in for the field's contents.
                    .field("divergent_bytes", s.report.relevant_bytes.clone())
                    .field("candidates", info.candidates)
                    .field("resumed", info.resumed),
            )
        })
        .collect();
    assert_eq!(sites.len(), saved.suite.total_sites());
    let legacy = Json::obj()
        .field("version", LAYOUT_VERSION)
        .field("suite_id", saved.id())
        .field("sites", Json::Arr(sites));
    let legacy_path = store
        .suite_dir(saved.id())
        .join("snapshots")
        .with_extension("json");
    std::fs::write(&legacy_path, legacy.to_string()).unwrap();

    // "Another process" opens the same root.
    let store2 = CorpusStore::open(&dir).unwrap();
    let listed = store2.list().unwrap();
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].id, saved.id());
    assert_eq!(listed[0].witnesses, vec!["baseline"]);
    let loaded = store2.load(saved.id()).unwrap();
    let (rerun, rerun_card) = loaded.replay(ExecutionMode::default());
    assert!(rerun_card.is_perfect(), "{:?}", rerun_card.mismatches);
    let recorded = store2.load_witnesses(saved.id(), "baseline").unwrap();
    let fresh = loaded.witnesses("replay", &rerun);
    assert_eq!(recorded.fingerprint(), fresh.fingerprint());
    assert_eq!(recorded.scorecard, fresh.scorecard);
    assert!(legacy_path.exists(), "replay leaves the old file untouched");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn audit_records_persist_and_roundtrip_byte_for_byte() {
    let dir = scratch("audit");
    let store = CorpusStore::open(&dir).unwrap();
    let saved = store.forge_and_save(&small_cfg(0xD10DE)).unwrap();

    // Nothing recorded yet; an unaudited replay leaves no provenance.
    assert!(store.load_audit(saved.id(), "baseline").unwrap().is_none());
    assert!(store.audit_labels(saved.id()).unwrap().is_empty());
    let (plain, _) = saved.replay(ExecutionMode::default());
    assert!(plain.provenance.is_none());
    assert!(saved.audit("baseline", &plain).is_none());

    // An audited replay yields one record per site, outcomes unchanged.
    let (report, card) = saved.replay_audited(ExecutionMode::default());
    assert!(card.is_perfect(), "{:?}", card.mismatches);
    assert_eq!(
        plain.outcome_fingerprint(),
        report.outcome_fingerprint(),
        "auditing must be passive"
    );
    let set = saved.audit("baseline", &report).expect("audited run");
    assert_eq!(set.records.len(), saved.suite.total_sites());
    store.record_audit(&set).unwrap();

    // "Another process": a fresh handle reads the same canonical bytes.
    let store2 = CorpusStore::open(&dir).unwrap();
    assert_eq!(store2.audit_labels(saved.id()).unwrap(), vec!["baseline"]);
    let loaded = store2
        .load_audit(saved.id(), "baseline")
        .unwrap()
        .expect("recorded");
    // Disk holds the canonical form (advisory cache annotations are
    // in-memory only), so canonical bytes are the identity contract.
    assert_eq!(loaded.records.len(), set.records.len());
    assert_eq!(loaded.canonical(), set.canonical());

    // Re-auditing drifts nowhere: same suite, same derivations.
    let (rerun, _) = saved.replay_audited(ExecutionMode::Parallel { threads: Some(1) });
    let rerun_set = saved.audit("rerun", &rerun).expect("audited run");
    let drift = diode_corpus::DerivationDrift::between(&loaded, &rerun_set);
    assert!(drift.is_clean(), "{drift}");
    assert_eq!(drift.compared, set.records.len());
    std::fs::remove_dir_all(&dir).ok();
}
