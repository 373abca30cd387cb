//! # diode-bench — the evaluation harness
//!
//! Regenerates every data artefact of the paper's §5 evaluation:
//!
//! * **Table 1** (target-site classification): [`table1_rows`] +
//!   [`render_table1`], driven by `cargo run -p diode-bench --bin table1`;
//! * **Table 2** (per-overflow summary incl. the 200-input success-rate
//!   experiments): [`table2_rows`] + [`render_table2`], driven by
//!   `--bin table2`;
//! * the **§5.4 blocking-check experiment** (full seed-path constraint
//!   satisfiability) and the interval-presolve ablation: [`ablation_rows`],
//!   driven by `--bin ablation`;
//! * the **fuzzing comparison** of §6's discussion: [`fuzz_rows`], driven
//!   by `--bin fuzz_compare`;
//! * **forged campaigns** over `diode-synth` suites with recall/precision
//!   grading against the by-construction oracle: [`synth_rows`] +
//!   [`render_synth`], driven by `--bin synth_campaign` (and `table1
//!   --synth N`).
//!
//! Performance is measured by the repository's benchmark, `perfbench/`
//! (workloads and metrics declared in `BENCHMARK.json`), not here.
//!
//! Every table runs its whole-program analyses as one `diode-engine`
//! campaign over all its apps ([`analyze_apps`]); `--threads N` pins the
//! scheduler's worker count ([`execution_mode`]), and outcomes are
//! identical at every count. `diode_core::analyze_program`, the paper's
//! per-app loop, stays the reference the campaign is tested against.
//! Every binary also accepts `--json` for machine-readable output
//! ([`jsonout`]).

#![warn(missing_docs)]

use std::sync::Arc;
use std::time::Duration;

use diode_apps::{App, SiteClass};
use diode_core::{
    full_path_constraint_satisfiable, success_rate, DiodeConfig, ProgramAnalysis, SiteOutcome,
    SuccessRate,
};
use diode_engine::{CampaignApp, CampaignReport, CampaignSpec, ExecutionMode};
use diode_fuzz::{FuzzOutcome, RandomFuzzer, TaintFuzzer};
use diode_solver::SolverCache;
use diode_synth::SynthOracle;

pub mod jsonout;
pub mod profload;

/// Writes report output to stdout and flushes it; [`out!`] and
/// [`outln!`] call this. A reader that closed the pipe (`table1 | head
/// -1`) ends the process at once with status 141 (128 + SIGPIPE, what a
/// shell reports for a tool that signal killed), printing nothing more;
/// any other write error ends it with status 1 and a message on stderr.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let written = {
        let mut stdout = std::io::stdout().lock();
        stdout.write_fmt(args).and_then(|()| stdout.flush())
    };
    match written {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(141),
        Err(e) => {
            eprintln!("cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// `print!` for a bin's report output, through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` for a bin's report output, through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Reads the string value following `flag` from CLI args.
#[must_use]
pub fn flag_str<S: AsRef<str>>(args: &[S], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a.as_ref() == flag)
        .and_then(|i| args.get(i + 1))
        .map(|v| v.as_ref().to_string())
}

/// Reads the numeric value following `flag` from CLI args, parsed into
/// the type it is stored in.
///
/// A *present but unparsable* value is a hard usage error (exit 2): a
/// typo like `--apps 1OO` must not silently run a different workload,
/// and neither may a value the type cannot hold (`--site-work
/// 4294967296` into a `u32` would wrap to 0).
#[must_use]
pub fn flag_num<T>(args: &[impl AsRef<str>], flag: &str) -> Option<T>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let raw = flag_str(args, flag)?;
    match raw.parse() {
        Ok(n) => Some(n),
        Err(e) => {
            eprintln!("{flag} expects a number, got {raw:?} ({e})");
            std::process::exit(2);
        }
    }
}

/// Reads the floating-point value following `flag` from CLI args, with
/// the same hard-usage-error semantics as [`flag_num`].
#[must_use]
pub fn flag_f64<S: AsRef<str>>(args: &[S], flag: &str) -> Option<f64> {
    let raw = flag_str(args, flag)?;
    match raw.parse::<f64>() {
        Ok(v) if v.is_finite() => Some(v),
        _ => {
            eprintln!("{flag} expects a finite number, got {raw:?}");
            std::process::exit(2);
        }
    }
}

/// The campaign's [`ExecutionMode`] from CLI args: `--threads N` pins the
/// scheduler's worker count; without it every core is used.
#[must_use]
pub fn execution_mode<S: AsRef<str>>(args: &[S]) -> ExecutionMode {
    ExecutionMode::Parallel {
        threads: flag_num(args, "--threads"),
    }
}

/// Runs `apps` as **one** engine campaign and returns one
/// [`ProgramAnalysis`] per app, in order, with sites in label order —
/// what `diode_core::analyze_program` returns app by app. Every app's
/// per-site jobs share the work-stealing pool, so a slow site in one
/// application overlaps with every other application's work.
///
/// The campaign takes the caller's config verbatim (its `query_cache` is
/// the only solver cache), no snapshot cache (every site runs from
/// `main`, exactly as `analyze_site` does), and no re-validation: the
/// tables are pure classification. Each analysis's `analysis_time` is the
/// app's aggregate work time (identification + extraction + discovery),
/// since interleaving makes per-app wall clock meaningless.
#[must_use]
pub fn analyze_apps(
    apps: &[App],
    config: &DiodeConfig,
    mode: ExecutionMode,
) -> Vec<ProgramAnalysis> {
    let report = CampaignSpec {
        config: config.clone(),
        mode,
        snapshot_cache: None,
        verify_exposed: false,
        ..CampaignSpec::new(
            apps.iter()
                .map(|a| {
                    CampaignApp::new(a.name, a.program.clone(), a.format.clone(), a.seed.clone())
                })
                .collect(),
        )
    }
    .run();
    report
        .units
        .into_iter()
        .map(|unit| {
            let work: Duration = unit
                .sites
                .iter()
                .map(|s| {
                    s.report.discovery_time
                        + s.report
                            .extraction
                            .as_ref()
                            .map_or(Duration::ZERO, |e| e.extraction_time)
                })
                .sum();
            ProgramAnalysis {
                analysis_time: unit.identify_time + work,
                sites: unit.sites.into_iter().map(|s| s.report).collect(),
            }
        })
        .collect()
}

/// A config with a fresh shared solver-query cache installed, plus a
/// handle to read its counters afterwards — the standard setup for every
/// harness binary.
#[must_use]
pub fn config_with_cache(base: DiodeConfig) -> (DiodeConfig, Arc<SolverCache>) {
    let cache = Arc::new(SolverCache::new());
    (base.with_query_cache(Arc::clone(&cache)), cache)
}

/// Renders an aligned plain-text table.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let n = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(n) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, c) in cells.iter().enumerate().take(n) {
            out.push_str(&format!("{:<w$}", c, w = widths[i] + 2));
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|s| (*s).to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().map(|w| w + 2).sum();
    out.push_str(&"-".repeat(total.saturating_sub(2)));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

fn fmt_dur(d: Duration) -> String {
    if d.as_secs() >= 1 {
        format!("{:.1}s", d.as_secs_f64())
    } else {
        format!("{}ms", d.as_millis())
    }
}

/// One Table 1 row: measured vs paper classification counts.
#[derive(Debug)]
pub struct Table1Row {
    /// Application name.
    pub app: &'static str,
    /// Measured (total, exposed, unsat, prevented).
    pub measured: (usize, usize, usize, usize),
    /// Paper's (total, exposed, unsat, prevented).
    pub paper: (usize, usize, usize, usize),
    /// The app's aggregate work time (see [`analyze_apps`]).
    pub analysis_time: Duration,
    /// The raw analysis, for further experiments.
    pub analysis: ProgramAnalysis,
}

/// Runs the Table 1 experiment over the given apps, as one campaign
/// ([`analyze_apps`]).
#[must_use]
pub fn table1_rows(apps: &[App], config: &DiodeConfig, mode: ExecutionMode) -> Vec<Table1Row> {
    apps.iter()
        .zip(analyze_apps(apps, config, mode))
        .map(|(app, analysis)| Table1Row {
            app: app.name,
            measured: analysis.counts(),
            paper: app.expected_counts(),
            analysis_time: analysis.analysis_time,
            analysis,
        })
        .collect()
}

/// Renders Table 1 with measured-vs-paper columns.
#[must_use]
pub fn render_table1(rows: &[Table1Row]) -> String {
    let headers = [
        "Application",
        "Total Sites",
        "Exposes Overflow",
        "Constraint Unsat",
        "Checks Prevent",
        "(paper T/E/U/P)",
        "Time",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.app.to_string(),
                r.measured.0.to_string(),
                r.measured.1.to_string(),
                r.measured.2.to_string(),
                r.measured.3.to_string(),
                format!("{}/{}/{}/{}", r.paper.0, r.paper.1, r.paper.2, r.paper.3),
                fmt_dur(r.analysis_time),
            ]
        })
        .collect();
    let mut out = render_table(&headers, &body);
    let t: (usize, usize, usize, usize) = rows.iter().fold((0, 0, 0, 0), |acc, r| {
        (
            acc.0 + r.measured.0,
            acc.1 + r.measured.1,
            acc.2 + r.measured.2,
            acc.3 + r.measured.3,
        )
    });
    out.push_str(&format!(
        "\nTotals: {} sites, {} exposed, {} unsat, {} prevented (paper: 40/14/17/9)\n",
        t.0, t.1, t.2, t.3
    ));
    out
}

/// One Table 2 row (an exposed site), measured and paper-reported.
#[derive(Debug)]
pub struct Table2Row {
    /// Application name.
    pub app: &'static str,
    /// Site (`file@line`).
    pub site: String,
    /// CVE number or "New".
    pub cve: String,
    /// Measured error type.
    pub error_type: String,
    /// Paper's error type.
    pub paper_error: String,
    /// The app's aggregate work time (see [`analyze_apps`]), shared
    /// across the app's rows, as in Table 1.
    pub analysis_time: Duration,
    /// Per-site discovery time.
    pub discovery_time: Duration,
    /// Measured enforced / total relevant.
    pub enforced: (usize, usize),
    /// Paper's enforced / total relevant.
    pub paper_enforced: (u32, u32),
    /// Measured target-only success rate.
    pub target_rate: SuccessRate,
    /// Paper's target-only success rate.
    pub paper_target_rate: (u32, u32),
    /// Measured target+enforced success rate (None when not applicable).
    pub enforced_rate: Option<SuccessRate>,
    /// Paper's target+enforced rate (None = "N/A").
    pub paper_enforced_rate: Option<(u32, u32)>,
}

/// Runs the full Table 2 experiment: per-site discovery (one campaign,
/// [`analyze_apps`]) plus the success-rate sampling of §5.5/§5.6 with
/// `samples` inputs per column.
#[must_use]
pub fn table2_rows(
    apps: &[App],
    config: &DiodeConfig,
    samples: u32,
    rng_seed: u64,
    mode: ExecutionMode,
) -> Vec<Table2Row> {
    let mut rows = Vec::new();
    for (app, analysis) in apps.iter().zip(analyze_apps(apps, config, mode)) {
        for report in &analysis.sites {
            let SiteOutcome::Exposed(bug) = &report.outcome else {
                continue;
            };
            let extraction = report.extraction.as_ref().expect("exposed site extraction");
            let target_rate = success_rate(
                &app.program,
                &app.seed,
                &app.format,
                report.label,
                &extraction.beta,
                samples,
                rng_seed,
                config,
            );
            // §5.6: run the enforced experiment only when enforcement was
            // needed (the paper marks the rest N/A).
            let enforced_rate = (bug.enforced > 0).then(|| {
                success_rate(
                    &app.program,
                    &app.seed,
                    &app.format,
                    report.label,
                    &bug.constraint,
                    samples,
                    rng_seed.wrapping_add(1),
                    config,
                )
            });
            let expected = app.expected_for(&report.site);
            rows.push(Table2Row {
                app: app.name,
                site: report.site.clone(),
                cve: expected.and_then(|e| e.cve).unwrap_or("New").to_string(),
                error_type: bug.error_type.clone(),
                paper_error: expected
                    .and_then(|e| e.paper_error)
                    .unwrap_or("-")
                    .to_string(),
                analysis_time: analysis.analysis_time,
                discovery_time: report.discovery_time,
                enforced: (bug.enforced, report.total_relevant),
                paper_enforced: expected.and_then(|e| e.paper_enforced).unwrap_or((0, 0)),
                target_rate,
                paper_target_rate: expected.and_then(|e| e.paper_target_rate).unwrap_or((0, 0)),
                enforced_rate,
                paper_enforced_rate: expected.and_then(|e| e.paper_enforced_rate),
            });
        }
    }
    rows
}

/// Renders Table 2 with measured-vs-paper columns.
#[must_use]
pub fn render_table2(rows: &[Table2Row]) -> String {
    let headers = [
        "Application",
        "Target",
        "CVE Number",
        "Error Type (paper)",
        "Time (A) B",
        "Enforced (paper)",
        "Target Rate (paper)",
        "+Enforced (paper)",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.app.to_string(),
                r.site.clone(),
                r.cve.clone(),
                format!("{} ({})", r.error_type, r.paper_error),
                format!(
                    "({}) {}",
                    fmt_dur(r.analysis_time),
                    fmt_dur(r.discovery_time)
                ),
                format!(
                    "{}/{} ({}/{})",
                    r.enforced.0, r.enforced.1, r.paper_enforced.0, r.paper_enforced.1
                ),
                format!(
                    "{} ({}/{})",
                    r.target_rate, r.paper_target_rate.0, r.paper_target_rate.1
                ),
                match (&r.enforced_rate, &r.paper_enforced_rate) {
                    (Some(m), Some((h, n))) => format!("{m} ({h}/{n})"),
                    (Some(m), None) => format!("{m} (N/A)"),
                    (None, _) => "N/A".to_string(),
                },
            ]
        })
        .collect();
    render_table(&headers, &body)
}

/// One row of the §5.4 blocking-check ablation.
#[derive(Debug)]
pub struct AblationRow {
    /// Application name.
    pub app: &'static str,
    /// Exposed site.
    pub site: String,
    /// Is β ∧ (full relevant seed path) satisfiable?
    pub full_path_sat: Option<bool>,
    /// The paper reports satisfiable for exactly two sites: SwfPlay
    /// `jpeg.c@192` and CWebP `jpegdec.c@248`.
    pub paper_sat: bool,
}

/// Runs the §5.4 experiment over every exposed site (one campaign,
/// [`analyze_apps`]).
#[must_use]
pub fn ablation_rows(apps: &[App], config: &DiodeConfig, mode: ExecutionMode) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for (app, analysis) in apps.iter().zip(analyze_apps(apps, config, mode)) {
        for report in &analysis.sites {
            if !matches!(report.outcome, SiteOutcome::Exposed(_)) {
                continue;
            }
            let extraction = report.extraction.as_ref().expect("extraction");
            let full_path_sat = full_path_constraint_satisfiable(extraction, &config.solver);
            let paper_sat = matches!(report.site.as_str(), "jpeg.c@192" | "jpegdec.c@248");
            rows.push(AblationRow {
                app: app.name,
                site: report.site.clone(),
                full_path_sat,
                paper_sat,
            });
        }
    }
    rows
}

/// Renders the §5.4 ablation table.
#[must_use]
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let headers = ["Application", "Target", "Full-path β satisfiable", "Paper"];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.app.to_string(),
                r.site.clone(),
                match r.full_path_sat {
                    Some(true) => "sat".into(),
                    Some(false) => "unsat".into(),
                    None => "unknown".into(),
                },
                if r.paper_sat {
                    "sat".into()
                } else {
                    "unsat".into()
                },
            ]
        })
        .collect();
    render_table(&headers, &body)
}

/// One row of the fuzzing comparison (§6 discussion).
#[derive(Debug)]
pub struct FuzzRow {
    /// Application name.
    pub app: &'static str,
    /// Exposed site.
    pub site: String,
    /// Did DIODE expose it (and with how many enforcements)?
    pub diode: Option<usize>,
    /// Random fuzzing hits.
    pub random: FuzzOutcome,
    /// Taint-directed fuzzing hits.
    pub taint: FuzzOutcome,
}

/// Runs the fuzzing comparison over every exposed site (one campaign,
/// [`analyze_apps`]).
#[must_use]
pub fn fuzz_rows(
    apps: &[App],
    config: &DiodeConfig,
    trials: u32,
    mode: ExecutionMode,
) -> Vec<FuzzRow> {
    let mut rows = Vec::new();
    for (app, analysis) in apps.iter().zip(analyze_apps(apps, config, mode)) {
        for report in &analysis.sites {
            let diode = match &report.outcome {
                SiteOutcome::Exposed(bug) => Some(bug.enforced),
                _ => continue,
            };
            let random = RandomFuzzer {
                trials,
                ..RandomFuzzer::default()
            }
            .run(
                &app.program,
                &app.seed,
                &app.format,
                report.label,
                &config.machine,
            );
            let taint = TaintFuzzer {
                trials,
                ..TaintFuzzer::default()
            }
            .run(
                &app.program,
                &app.seed,
                &app.format,
                report.label,
                &report.relevant_bytes,
                &config.machine,
            );
            rows.push(FuzzRow {
                app: app.name,
                site: report.site.clone(),
                diode,
                random,
                taint,
            });
        }
    }
    rows
}

/// Renders the fuzzing-comparison table.
#[must_use]
pub fn render_fuzz(rows: &[FuzzRow]) -> String {
    let headers = [
        "Application",
        "Target",
        "DIODE (enforced)",
        "Random fuzz",
        "Taint fuzz",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.app.to_string(),
                r.site.clone(),
                match r.diode {
                    Some(k) => format!("found ({k})"),
                    None => "not found".into(),
                },
                r.random.to_string(),
                r.taint.to_string(),
            ]
        })
        .collect();
    render_table(&headers, &body)
}

/// One row of a forged-campaign table: measured vs oracle-expected counts
/// for one `(app, seed)` unit.
#[derive(Debug)]
pub struct SynthRow {
    /// Forged application name.
    pub app: String,
    /// Seed index of the unit.
    pub seed_index: usize,
    /// Measured (total, exposed, unsat, prevented).
    pub measured: (usize, usize, usize, usize),
    /// Oracle-expected (total, exposable, unsat, prevented).
    pub expected: (usize, usize, usize, usize),
}

/// Builds per-unit rows for a forged campaign graded against its oracle.
#[must_use]
pub fn synth_rows(report: &CampaignReport, oracle: &SynthOracle) -> Vec<SynthRow> {
    report
        .units
        .iter()
        .filter(|u| oracle.app(&u.app).is_some())
        .map(|u| SynthRow {
            app: u.app.clone(),
            seed_index: u.seed_index,
            measured: u.counts(),
            expected: oracle.expected_counts_for(&u.app),
        })
        .collect()
}

/// Renders the forged-campaign table.
#[must_use]
pub fn render_synth(rows: &[SynthRow]) -> String {
    let headers = [
        "Forged App",
        "Seed",
        "Sites",
        "Exposed",
        "Unsat",
        "Prevented",
        "(oracle T/E/U/P)",
        "Match",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.app.clone(),
                r.seed_index.to_string(),
                r.measured.0.to_string(),
                r.measured.1.to_string(),
                r.measured.2.to_string(),
                r.measured.3.to_string(),
                format!(
                    "{}/{}/{}/{}",
                    r.expected.0, r.expected.1, r.expected.2, r.expected.3
                ),
                if r.measured == r.expected {
                    "yes"
                } else {
                    "NO"
                }
                .to_string(),
            ]
        })
        .collect();
    render_table(&headers, &body)
}

/// Verifies that measured Table 1 counts match the paper exactly; used by
/// integration tests and the table1 binary's exit code.
#[must_use]
pub fn table1_matches_paper(rows: &[Table1Row]) -> bool {
    rows.iter().all(|r| r.measured == r.paper)
}

/// Checks the headline Table 2 invariants that must reproduce: sites with
/// paper-enforced 0 need no enforcement; the rest need 1..=8; the CVE row
/// is exhaustively enumerable.
#[must_use]
pub fn table2_shape_matches_paper(rows: &[Table2Row], apps: &[App]) -> Vec<String> {
    let mut problems = Vec::new();
    let expected_exposed: usize = apps
        .iter()
        .map(|a| {
            a.expected
                .iter()
                .filter(|e| e.class == SiteClass::Exposed)
                .count()
        })
        .sum();
    if rows.len() != expected_exposed {
        problems.push(format!(
            "expected {expected_exposed} exposed rows, got {}",
            rows.len()
        ));
    }
    for r in rows {
        let (paper_enf, _) = r.paper_enforced;
        if paper_enf == 0 && r.enforced.0 != 0 {
            problems.push(format!(
                "{}: paper needs 0 enforcements, measured {}",
                r.site, r.enforced.0
            ));
        }
        if paper_enf > 0 && !(1..=8).contains(&r.enforced.0) {
            problems.push(format!(
                "{}: paper needs {} enforcements, measured {} (outside 1..=8)",
                r.site, paper_enf, r.enforced.0
            ));
        }
        if r.site == "wav.c@147" && !(r.target_rate.exhaustive && r.target_rate.samples == 2) {
            problems.push(format!(
                "wav.c@147: expected exhaustive 2-solution enumeration, got {}",
                r.target_rate
            ));
        }
    }
    problems
}
