//! Inspect, validate, and diff decision-provenance records.
//!
//! Every audited campaign (`synth_campaign --audit`, `corpus replay
//! --audit`) leaves one [`ProvenanceRecord`] per site: the extraction,
//! solver queries, enforcement steps, and final verdict that produced
//! the site's outcome. This bin answers three questions about them:
//!
//! * `audit explain` — *why* did this site get this verdict? Prints the
//!   per-site derivation tree.
//! * `audit check` — is every verdict *justified*? Fails when any
//!   record's event chain is broken (an `exposed` verdict without a
//!   witness, an enforcement count that does not match the enforced
//!   steps, a missing extraction, ...).
//! * `audit diff OLD NEW` — did a change alter *how* verdicts are
//!   derived, even where the verdicts themselves are unchanged? Reports
//!   derivation drift between two `diode_audit` documents; any other
//!   input is invalid (profiled runs are compared by `profile --diff`).
//!
//! Record sources (explain/check):
//!
//! * `--file PATH` — a `diode_audit` document written by
//!   `synth_campaign --audit PATH`;
//! * `--root DIR [--suite ID] [--label LABEL]` — an audit set recorded
//!   in a corpus store (`corpus replay --audit`); suite defaults to
//!   `latest`, label to `replay`.
//!
//! Filters (explain): `--app NAME`, `--seed N`, `--site SITE` narrow
//! the printed records; `--site` matches substrings.
//!
//! Exit codes: 0 clean, 1 failed check / derivation drift, 2 invalid
//! input.

use diode_bench::profload::load_audit_records;
use diode_bench::{flag_num, flag_str, out, outln};
use diode_corpus::{record_key, AuditSet, CorpusStore, DerivationDrift};
use diode_obs::{Json, ProvenanceRecord};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprintln!("audit: usage: audit <explain|check|diff> [FLAGS]");
        std::process::exit(2);
    };
    match command {
        "explain" => run_explain(&args),
        "check" => run_check(&args),
        "diff" => run_diff(&args),
        other => {
            eprintln!("audit: unknown command {other:?} (expected explain, check, or diff)");
            std::process::exit(2);
        }
    }
}

/// Flags that consume a value, for positional-argument extraction.
const VALUE_FLAGS: &[&str] = &[
    "--file", "--root", "--suite", "--label", "--app", "--seed", "--site",
];

fn positionals(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut skip = false;
    for arg in &args[1..] {
        if skip {
            skip = false;
            continue;
        }
        if VALUE_FLAGS.contains(&arg.as_str()) {
            skip = true;
        } else if !arg.starts_with("--") {
            out.push(arg);
        }
    }
    out
}

/// Loads the records named by `--file` or `--root/--suite/--label`.
fn load_records(args: &[String]) -> Vec<ProvenanceRecord> {
    if let Some(path) = flag_str(args, "--file") {
        match load_audit_records(&path) {
            Ok(records) => records,
            Err(e) => {
                eprintln!("audit: {e}");
                std::process::exit(2);
            }
        }
    } else if let Some(root) = flag_str(args, "--root") {
        let suite = flag_str(args, "--suite").unwrap_or_else(|| "latest".to_string());
        let label = flag_str(args, "--label").unwrap_or_else(|| "replay".to_string());
        let store = match CorpusStore::open(&root) {
            Ok(store) => store,
            Err(e) => {
                eprintln!("audit: {root}: {e}");
                std::process::exit(2);
            }
        };
        match store.load_audit(&suite, &label) {
            Ok(Some(set)) => set.records,
            Ok(None) => {
                eprintln!(
                    "audit: suite {suite:?} has no audit set labelled {label:?} \
                     (record one with `corpus replay --audit`)"
                );
                std::process::exit(2);
            }
            Err(e) => {
                eprintln!("audit: {e}");
                std::process::exit(2);
            }
        }
    } else {
        eprintln!("audit: need --file PATH or --root DIR [--suite ID] [--label LABEL]");
        std::process::exit(2);
    }
}

fn matches_filters(args: &[String], r: &ProvenanceRecord) -> bool {
    if let Some(app) = flag_str(args, "--app") {
        if r.app != app {
            return false;
        }
    }
    if let Some(seed) = flag_num(args, "--seed") {
        if u64::from(r.seed) != seed {
            return false;
        }
    }
    if let Some(site) = flag_str(args, "--site") {
        if !r.site.contains(&site) {
            return false;
        }
    }
    true
}

fn run_explain(args: &[String]) {
    let records = load_records(args);
    let total = records.len();
    let selected: Vec<&ProvenanceRecord> = records
        .iter()
        .filter(|r| matches_filters(args, r))
        .collect();
    if selected.is_empty() {
        eprintln!("audit: no records match the given filters ({total} in the set)");
        std::process::exit(1);
    }
    for (i, r) in selected.iter().enumerate() {
        if i > 0 {
            outln!();
        }
        out!("{}", r.explain());
    }
    outln!("\n{} of {} record(s) shown", selected.len(), total);
}

fn run_check(args: &[String]) {
    let json = args.iter().any(|a| a == "--json");
    let records = load_records(args);
    let mut broken = Vec::new();
    for r in &records {
        if let Some(reason) = r.chain_error() {
            broken.push((record_key(r), reason));
        }
    }
    if json {
        let rows: Vec<Json> = broken
            .iter()
            .map(|(key, reason)| {
                Json::obj()
                    .field("site", key.to_string())
                    .field("reason", reason.as_str())
            })
            .collect();
        let doc = Json::obj()
            .field("table", "diode_audit_check")
            .field("v", 1u64)
            .field("records", records.len() as u64)
            .field("broken", Json::Arr(rows))
            .field("ok", broken.is_empty() && !records.is_empty());
        outln!("{doc}");
    } else {
        for (key, reason) in &broken {
            outln!("BROKEN  {key}: {reason}");
        }
    }
    if records.is_empty() {
        eprintln!("audit: check FAILED — the set holds no records (was the run audited?)");
        std::process::exit(1);
    }
    if !broken.is_empty() {
        eprintln!(
            "audit: check FAILED — {} of {} record(s) have broken derivation chains",
            broken.len(),
            records.len()
        );
        std::process::exit(1);
    }
    if !json {
        outln!(
            "audit check passed: {} record(s), every verdict chains to its evidence",
            records.len()
        );
    }
}

fn run_diff(args: &[String]) {
    let json = args.iter().any(|a| a == "--json");
    let pos = positionals(args);
    let [old_path, new_path] = pos.as_slice() else {
        eprintln!("audit: usage: audit diff OLD NEW [--json]");
        std::process::exit(2);
    };
    let old = load_set(old_path);
    let new = load_set(new_path);
    let drift = DerivationDrift::between(&old, &new);
    if json {
        let drifted: Vec<Json> = drift
            .drifted
            .iter()
            .map(|k| Json::Str(k.to_string()))
            .collect();
        let doc = Json::obj()
            .field("table", "diode_audit_diff")
            .field("v", 1u64)
            .field("compared", drift.compared as u64)
            .field("verdict_changed", drift.verdict_changed as u64)
            .field("drifted", Json::Arr(drifted))
            .field("clean", drift.is_clean());
        outln!("{doc}");
    } else {
        out!("{drift}");
    }
    if !drift.is_clean() {
        std::process::exit(1);
    }
}

fn load_set(path: &str) -> AuditSet {
    match load_audit_records(path) {
        Ok(records) => AuditSet {
            suite_id: String::new(),
            label: path.to_string(),
            records,
        },
        Err(e) => {
            eprintln!("audit: {e}");
            std::process::exit(2);
        }
    }
}
