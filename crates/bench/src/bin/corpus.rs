//! The corpus CLI: forge suites into a persistent on-disk store, replay
//! them in later processes, diff recorded runs, and grow suites
//! incrementally.
//!
//! Usage: `cargo run --release -p diode-bench --bin corpus -- [--root DIR] <command>`
//!
//! * `forge  [--apps N --depth D --seed S --seeds-per-app K --label L]`
//!   — forge, save, replay once, and record witnesses (default label
//!   `baseline`). Prints the content-addressed suite ID.
//! * `replay <id|latest> [--label L --against BASE]` — load a stored
//!   suite, replay it through the engine, record witnesses (default
//!   label `replay`), and compare byte-for-byte against a recorded run
//!   (default `baseline`). **Exits non-zero on any drift.**
//! * `diff   <id|latest> <old-label> <new-label>` — structural diff of
//!   two recorded runs (new / lost / changed sites). When both runs
//!   also recorded decision provenance (`--audit`), additionally flags
//!   *derivation drift*: sites whose verdict is unchanged but whose
//!   derivation (extraction, solver queries, enforcement steps) changed.
//!   Exits non-zero when either diff is not clean.
//! * `grow   <id|latest> N [--label L]` — extend a stored suite by `N`
//!   freshly forged apps (existing apps are reused, never re-forged),
//!   save under the new content ID, replay, and record witnesses.
//! * `ls` — list stored suites and their recorded runs.
//!
//! `forge`, `replay`, and `grow` accept `--audit`: record per-site
//! decision provenance under `audit/<label>/` next to `witnesses/`
//! (inspect with the `audit` bin). Every command accepts `--json`
//! (machine-readable output on stdout) and `--threads N`. The store
//! root defaults to `./corpus`. Per-site snapshot metadata that earlier
//! versions recorded in suite directories is ignored: replays warm their
//! snapshot caches from the seed run.

use std::process::ExitCode;

use diode_bench::{execution_mode, flag_num, flag_str, out, outln};
use diode_corpus::{
    CorpusDiff, CorpusError, CorpusStore, DerivationDrift, ReplayableSuite, WitnessSet,
};
use diode_engine::{CampaignReport, ExecutionMode};
use diode_obs::Json;
use diode_synth::{ScoreCard, SynthConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("corpus: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, CorpusError> {
    let json = args.iter().any(|a| a == "--json");
    let root = flag_str(args, "--root").unwrap_or_else(|| "corpus".to_string());
    let store = CorpusStore::open(&root)?;
    let mode = execution_mode(args);
    // First non-flag token is the command; flag values are consumed by
    // their flags, so skip the token after any `--x value` flag.
    let positional = positionals(args);
    let Some(command) = positional.first() else {
        eprintln!("usage: corpus [--root DIR] <forge|replay|diff|grow|ls> [...]");
        return Ok(ExitCode::from(2));
    };
    match command.as_str() {
        "forge" => forge(&store, args, json, mode),
        "replay" => replay(&store, args, &positional[1..], json, mode),
        "diff" => diff(&store, &positional[1..], json),
        "grow" => grow(&store, args, &positional[1..], json, mode),
        "ls" => ls(&store, json),
        other => {
            eprintln!("corpus: unknown command {other:?} (forge|replay|diff|grow|ls)");
            Ok(ExitCode::from(2))
        }
    }
}

/// Positional tokens: everything that is neither a flag nor a flag value.
fn positionals(args: &[String]) -> Vec<String> {
    const VALUE_FLAGS: &[&str] = &[
        "--root",
        "--apps",
        "--depth",
        "--seed",
        "--seeds-per-app",
        "--label",
        "--against",
        "--threads",
    ];
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            skip = true;
            continue;
        }
        if a.starts_with("--") {
            continue;
        }
        out.push(a.clone());
    }
    out
}

fn scorecard_json(card: &ScoreCard) -> Json {
    Json::obj()
        .field("graded", card.graded)
        .field("recall", card.recall())
        .field("precision", card.precision())
        .field("exact", card.exact)
        .field("perfect", card.is_perfect())
}

/// Replays a suite, then records the run's witnesses. With `audit`,
/// decision provenance is recorded alongside, under `audit/<label>/`.
fn replay_and_record(
    store: &CorpusStore,
    suite: &ReplayableSuite,
    label: &str,
    mode: ExecutionMode,
    audit: bool,
) -> Result<(CampaignReport, ScoreCard, WitnessSet), CorpusError> {
    let (report, card) = suite.replay_with(mode, audit);
    let witnesses = suite.witnesses(label, &report);
    store.record_witnesses(&witnesses)?;
    if let Some(set) = suite.audit(label, &report) {
        store.record_audit(&set)?;
    }
    Ok((report, card, witnesses))
}

fn forge(
    store: &CorpusStore,
    args: &[String],
    json: bool,
    mode: ExecutionMode,
) -> Result<ExitCode, CorpusError> {
    let apps = flag_num::<usize>(args, "--apps").unwrap_or(10);
    if apps == 0 {
        eprintln!("corpus forge: --apps must be at least 1");
        return Ok(ExitCode::from(2));
    }
    let mut cfg = SynthConfig {
        apps,
        ..SynthConfig::default()
    };
    if let Some(d) = flag_num(args, "--depth") {
        cfg.branch_depth = d;
    }
    if let Some(s) = flag_num(args, "--seed") {
        cfg.rng_seed = s;
    }
    if let Some(k) = flag_num::<usize>(args, "--seeds-per-app") {
        cfg.seeds_per_app = k.max(1);
    }
    let label = flag_str(args, "--label").unwrap_or_else(|| "baseline".to_string());
    let audit = args.iter().any(|a| a == "--audit");
    let suite = store.forge_and_save(&cfg)?;
    let (report, card, _) = replay_and_record(store, &suite, &label, mode, audit)?;
    if json {
        let out = Json::obj()
            .field("command", "forge")
            .field("root", store.root().display().to_string())
            .field("suite_id", suite.id())
            .field("apps", suite.suite.apps.len())
            .field("sites", suite.suite.total_sites())
            .field("witness_label", label)
            .field("wall_ms", report.wall_time.as_secs_f64() * 1e3)
            .field("scorecard", scorecard_json(&card));
        outln!("{out}");
    } else {
        outln!("forged {} into {}", suite.id(), store.root().display());
        outln!(
            "  {} apps, {} sites; recorded witnesses {label:?}",
            suite.suite.apps.len(),
            suite.suite.total_sites()
        );
        outln!("  score: {card}");
    }
    Ok(ExitCode::SUCCESS)
}

fn replay(
    store: &CorpusStore,
    args: &[String],
    positional: &[String],
    json: bool,
    mode: ExecutionMode,
) -> Result<ExitCode, CorpusError> {
    let Some(id) = positional.first() else {
        eprintln!("usage: corpus replay <suite-id|latest> [--label L --against BASE]");
        return Ok(ExitCode::from(2));
    };
    let label = flag_str(args, "--label").unwrap_or_else(|| "replay".to_string());
    let against = flag_str(args, "--against").unwrap_or_else(|| "baseline".to_string());
    if label == against {
        eprintln!(
            "corpus replay: --label {label:?} would overwrite the {against:?} run it is \
             compared against; pick a different label"
        );
        return Ok(ExitCode::from(2));
    }
    let audit = args.iter().any(|a| a == "--audit");
    let suite = store.load(id)?;
    // Load the comparison run before recording anything, so a recording
    // mishap can never make a run compare against itself.
    let baseline = store.load_witnesses(suite.id(), &against)?;
    let (report, card, witnesses) = replay_and_record(store, &suite, &label, mode, audit)?;
    let snapstats = report.snapshots;
    let scorecard_identical = baseline.scorecard == witnesses.scorecard;
    let findings_identical = baseline.fingerprint() == witnesses.fingerprint();
    let identical = scorecard_identical && findings_identical;
    if json {
        let out = Json::obj()
            .field("command", "replay")
            .field("suite_id", suite.id())
            .field("label", label.clone())
            .field("against", against.clone())
            .field("scorecard", scorecard_json(&card))
            .field("snapshots", snapstats)
            .field("scorecard_identical", scorecard_identical)
            .field("findings_identical", findings_identical)
            .field("identical", identical);
        outln!("{out}");
    } else {
        outln!("replayed {}", suite.id());
        outln!("  score: {card}");
        if identical {
            outln!("  identical to recorded {against:?} (scorecard + findings)");
        } else {
            outln!("  DRIFT against recorded {against:?}:");
            outln!("{}", CorpusDiff::between(&baseline, &witnesses));
        }
    }
    Ok(if identical {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn diff(store: &CorpusStore, positional: &[String], json: bool) -> Result<ExitCode, CorpusError> {
    let [id, old_label, new_label] = positional else {
        eprintln!("usage: corpus diff <suite-id|latest> <old-label> <new-label>");
        return Ok(ExitCode::from(2));
    };
    let id = store.resolve(id)?;
    let old = store.load_witnesses(&id, old_label)?;
    let new = store.load_witnesses(&id, new_label)?;
    let diff = CorpusDiff::between(&old, &new);
    // Derivation drift is only comparable when both runs were audited.
    let drift = match (
        store.load_audit(&id, old_label)?,
        store.load_audit(&id, new_label)?,
    ) {
        (Some(old_audit), Some(new_audit)) => {
            Some(DerivationDrift::between(&old_audit, &new_audit))
        }
        _ => None,
    };
    let drift_clean = drift.as_ref().is_none_or(DerivationDrift::is_clean);
    if json {
        let keys = |ks: &[diode_corpus::SiteKey]| {
            Json::Arr(ks.iter().map(|k| Json::Str(k.to_string())).collect())
        };
        let changed: Vec<Json> = diff
            .changed
            .iter()
            .map(|c| {
                Json::obj()
                    .field("site", c.key.to_string())
                    .field("old", c.old.clone())
                    .field("new", c.new.clone())
            })
            .collect();
        let mut out = Json::obj()
            .field("command", "diff")
            .field("suite_id", id)
            .field("old", old_label.clone())
            .field("new", new_label.clone())
            .field("unchanged", diff.unchanged)
            .field("changed", Json::Arr(changed))
            .field("new_sites", keys(&diff.new_sites))
            .field("lost_sites", keys(&diff.lost_sites));
        if let Some(drift) = &drift {
            out = out.field(
                "derivation",
                Json::obj()
                    .field("compared", drift.compared)
                    .field("drifted", keys(&drift.drifted))
                    .field("verdict_changed", drift.verdict_changed)
                    .field("clean", drift.is_clean()),
            );
        }
        out = out.field("clean", diff.is_clean() && drift_clean);
        outln!("{out}");
    } else {
        outln!("diff {id} {old_label:?} -> {new_label:?}");
        out!("{diff}");
        if let Some(drift) = &drift {
            out!("{drift}");
        }
    }
    Ok(if diff.is_clean() && drift_clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn grow(
    store: &CorpusStore,
    args: &[String],
    positional: &[String],
    json: bool,
    mode: ExecutionMode,
) -> Result<ExitCode, CorpusError> {
    let (Some(id), Some(n)) = (positional.first(), positional.get(1)) else {
        eprintln!("usage: corpus grow <suite-id|latest> <n> [--label L]");
        return Ok(ExitCode::from(2));
    };
    let Ok(n) = n.parse::<usize>() else {
        eprintln!("corpus grow: <n> must be a number, got {n:?}");
        return Ok(ExitCode::from(2));
    };
    let label = flag_str(args, "--label").unwrap_or_else(|| "baseline".to_string());
    let audit = args.iter().any(|a| a == "--audit");
    let old_id = store.resolve(id)?;
    let grown = store.grow(&old_id, n)?;
    let (_, card, _) = replay_and_record(store, &grown, &label, mode, audit)?;
    if json {
        let out = Json::obj()
            .field("command", "grow")
            .field("from", old_id)
            .field("suite_id", grown.id())
            .field("apps", grown.suite.apps.len())
            .field("sites", grown.suite.total_sites())
            .field("scorecard", scorecard_json(&card));
        outln!("{out}");
    } else {
        outln!("grew {old_id} by {n} apps -> {}", grown.id());
        outln!(
            "  {} apps, {} sites; recorded witnesses {label:?}",
            grown.suite.apps.len(),
            grown.suite.total_sites()
        );
        outln!("  score: {card}");
    }
    Ok(ExitCode::SUCCESS)
}

fn ls(store: &CorpusStore, json: bool) -> Result<ExitCode, CorpusError> {
    let suites = store.list()?;
    if json {
        let rows: Vec<Json> = suites
            .iter()
            .map(|s| {
                Json::obj()
                    .field("suite_id", s.id.clone())
                    .field("apps", s.apps)
                    .field("sites", s.sites)
                    .field("seeds", s.seeds)
                    .field("rng_seed", s.rng_seed)
                    .field("witnesses", s.witnesses.clone())
            })
            .collect();
        let out = Json::obj()
            .field("command", "ls")
            .field("root", store.root().display().to_string())
            .field("suites", Json::Arr(rows));
        outln!("{out}");
    } else if suites.is_empty() {
        outln!("no suites under {}", store.root().display());
    } else {
        for s in &suites {
            outln!(
                "{}  {} apps, {} sites, {} seed(s), rng {:#x}, witnesses: [{}]",
                s.id,
                s.apps,
                s.sites,
                s.seeds,
                s.rng_seed,
                s.witnesses.join(", ")
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}
