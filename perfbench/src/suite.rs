//! The campaign workloads (`deep-suite`, `guard-chain`, `paper-apps`):
//! each round is one one-shot `CampaignSpec::run` at [`THREADS`] engine
//! threads, the campaign a user waits on.

use std::sync::Arc;
use std::time::{Duration, Instant};

use diode_apps::SiteClass;
use diode_core::{PreventedReason, SiteOutcome};
use diode_engine::{CampaignApp, CampaignReport, CampaignSpec, ExecutionMode, Recorder};
use diode_obs::{fnv64_hex, Phase, PhaseBreakdown};
use diode_serve::Json;
use diode_synth::{forge, score, SynthConfig, SynthOracle};

use crate::stats::{median, percentile, ratio, samples_beyond, spread};
use crate::{ms, peak_rss_mb, splitmix, Args, Measured, Workload, THREADS};

/// The trajectory's forge seed. Forged suites are fixed; `--seed` only
/// orders the apps of every round, so run-to-run differences measure the
/// code and the host, not which suite a seed happened to forge.
pub const FORGE_SEED: u64 = 0xD10D_E5EE;
/// Set-ups timed before each measured round; `setup_s` is their median.
const SETUPS_PER_ROUND: usize = 3;
/// Fewest measured rounds, however long each takes.
const MIN_ROUNDS: usize = 3;
/// Distinct app orders the rounds cycle through.
const ORDERS: u64 = 6;
/// Untraced and traced rounds of a `--trace 1` run.
const TRACE_ROUNDS: usize = 3;
/// Table 1 of the paper: (total, exposed, unsat, prevented).
const TABLE1: (usize, usize, usize, usize) = (40, 14, 17, 9);

/// How a workload's verdicts are graded.
enum Grade {
    /// Against the forge's ground-truth oracle.
    Oracle(SynthOracle),
    /// Against each paper app's Table 1 class per site: (app, site, class).
    Table1(Vec<(String, String, SiteClass)>),
}

/// A campaign workload's inputs.
pub struct Suite {
    pub apps: Vec<CampaignApp>,
    grading: Grade,
    /// The run's seed, which reorders the apps every round (`None`: spec
    /// order, as the daemon runs a forged spec).
    order_seed: Option<u64>,
}

/// The forge configuration of a forged campaign workload.
fn forge_config(workload: Workload) -> SynthConfig {
    let (apps, depth, site_work) = match workload {
        Workload::DeepSuite => (25, 3, 3000),
        Workload::GuardChain => (60, 8, 0),
        _ => unreachable!("{} is not a forged campaign", workload.name()),
    };
    SynthConfig {
        apps,
        min_sites: 6,
        max_sites: 6,
        branch_depth: depth,
        site_work,
        rng_seed: FORGE_SEED,
        ..SynthConfig::default()
    }
}

impl Suite {
    /// A forged suite graded against its oracle.
    pub fn forged(cfg: &SynthConfig) -> Suite {
        let suite = forge(cfg);
        Suite {
            apps: suite.apps,
            grading: Grade::Oracle(suite.oracle),
            order_seed: None,
        }
    }

    /// The workload's inputs; `seed` orders its rounds.
    fn load(workload: Workload, seed: u64) -> Suite {
        if workload != Workload::PaperApps {
            return Suite {
                order_seed: Some(seed),
                ..Suite::forged(&forge_config(workload))
            };
        }
        let apps = diode_apps::all_apps();
        let expected = apps
            .iter()
            .flat_map(|a| {
                a.expected
                    .iter()
                    .map(|e| (a.name.to_string(), e.site.to_string(), e.class))
            })
            .collect();
        Suite {
            apps: apps
                .into_iter()
                .map(|a| CampaignApp::new(a.name, a.program, a.format, a.seed))
                .collect(),
            grading: Grade::Table1(expected),
            order_seed: Some(seed),
        }
    }

    /// The campaign of one round. Rounds cycle through [`ORDERS`] fixed
    /// app orders, starting at one the seed picks: every run of a few
    /// rounds sees every order, and the seed decides their sequence.
    fn spec(&self, round: u64, recorder: Option<Arc<Recorder>>) -> CampaignSpec {
        let mut apps = self.apps.clone();
        if let Some(seed) = self.order_seed {
            let mut state = FORGE_SEED ^ (seed.wrapping_add(round) % ORDERS);
            for i in (1..apps.len()).rev() {
                let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
                apps.swap(i, j);
            }
        }
        let mut spec = CampaignSpec::new(apps);
        spec.mode = ExecutionMode::Parallel {
            threads: Some(THREADS),
        };
        spec.recorder = recorder;
        spec
    }

    /// Runs one round, timing the campaign from outside.
    pub fn round(&self, round: u64, recorder: Option<Arc<Recorder>>) -> (Duration, CampaignReport) {
        run_spec(self.spec(round, recorder))
    }

    /// The outcome fingerprint: FNV-64 of `outcome_fingerprint()`, as
    /// the daemon reports it. When rounds reorder the apps, the lines are
    /// sorted first so every round and every seed agree.
    pub fn fingerprint(&self, report: &CampaignReport) -> String {
        let text = report.outcome_fingerprint();
        if self.order_seed.is_none() {
            return fnv64_hex(text.as_bytes());
        }
        let mut lines: Vec<&str> = text.lines().collect();
        lines.sort_unstable();
        fnv64_hex(lines.join("\n").as_bytes())
    }

    /// Grades a report: (sites, true positives, false positives, false
    /// negatives, misclassified sites).
    pub fn grade(&self, report: &CampaignReport) -> Graded {
        let sites = report.counts().0;
        match &self.grading {
            Grade::Oracle(oracle) => {
                let card = score(report, oracle);
                let mut wrong: Vec<String> = card
                    .mismatches
                    .iter()
                    .map(|m| {
                        format!(
                            "{}/{}: expected {:?}, got {}",
                            m.app, m.site, m.expected, m.observed
                        )
                    })
                    .collect();
                if card.graded != sites {
                    wrong.push(format!("{sites} sites analyzed, {} planted", card.graded));
                }
                Graded {
                    sites,
                    tp: card.true_pos,
                    fp: card.false_pos,
                    fneg: card.false_neg,
                    wrong,
                }
            }
            Grade::Table1(expected) => {
                let mut g = Graded {
                    sites,
                    ..Graded::default()
                };
                for unit in &report.units {
                    for s in &unit.sites {
                        let want = expected
                            .iter()
                            .find(|(app, site, _)| *app == unit.app && *site == s.report.site)
                            .map(|e| e.2);
                        let exposed = matches!(s.report.outcome, SiteOutcome::Exposed(_));
                        let got = match s.report.outcome {
                            SiteOutcome::Exposed(_) => Some(SiteClass::Exposed),
                            SiteOutcome::TargetUnsat => Some(SiteClass::Unsat),
                            SiteOutcome::Prevented(_) => Some(SiteClass::Prevented),
                            SiteOutcome::Unknown => None,
                        };
                        match (want == Some(SiteClass::Exposed), exposed) {
                            (true, true) => g.tp += 1,
                            (false, true) => g.fp += 1,
                            (true, false) => g.fneg += 1,
                            (false, false) => {}
                        }
                        if want.is_none() || got != want {
                            g.wrong.push(format!(
                                "{}/{}: expected {want:?}, got {}",
                                unit.app,
                                s.report.site,
                                s.report.outcome.token()
                            ));
                        }
                    }
                }
                if report.counts() != TABLE1 || sites != expected.len() {
                    g.wrong.push(format!(
                        "Table 1 counts {:?}, paper {TABLE1:?}",
                        report.counts()
                    ));
                }
                g
            }
        }
    }
}

/// Runs a campaign, timing it from outside.
fn run_spec(spec: CampaignSpec) -> (Duration, CampaignReport) {
    let start = Instant::now();
    let report = spec.run();
    (start.elapsed(), report)
}

/// One report's grade.
#[derive(Debug, Default)]
pub struct Graded {
    pub sites: usize,
    pub tp: usize,
    pub fp: usize,
    pub fneg: usize,
    pub wrong: Vec<String>,
}

/// Graded results pooled over rounds.
#[derive(Debug, Default)]
struct Pool {
    tp: usize,
    fp: usize,
    fneg: usize,
}

impl Pool {
    fn add(&mut self, g: &Graded) {
        self.tp += g.tp;
        self.fp += g.fp;
        self.fneg += g.fneg;
    }

    fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fneg)
    }

    fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }
}

/// Deterministic work counters read off a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkCounters {
    pub jobs: u64,
    pub enforcements: u64,
    pub candidates: u64,
    pub resumed: u64,
}

impl WorkCounters {
    pub fn of(report: &CampaignReport) -> WorkCounters {
        let max_enforcements = diode_core::DiodeConfig::default().max_enforcements;
        let mut c = WorkCounters {
            jobs: report.jobs as u64,
            enforcements: 0,
            candidates: 0,
            resumed: 0,
        };
        for s in report.units.iter().flat_map(|u| &u.sites) {
            c.enforcements += match &s.report.outcome {
                SiteOutcome::Exposed(bug) => bug.enforced,
                SiteOutcome::Prevented(
                    PreventedReason::ConstraintUnsat { enforced }
                    | PreventedReason::SatisfiesPhi { enforced },
                ) => *enforced,
                SiteOutcome::Prevented(PreventedReason::Budget) => max_enforcements,
                SiteOutcome::TargetUnsat | SiteOutcome::Unknown => 0,
            } as u64;
            if let Some(info) = &s.report.snapshot {
                c.candidates += info.candidates;
                c.resumed += info.resumed;
            }
        }
        c
    }
}

/// Per-site verdict latency: extraction plus discovery time.
fn verdict_ms(report: &CampaignReport) -> impl Iterator<Item = f64> + '_ {
    report.units.iter().flat_map(|u| &u.sites).map(|s| {
        ms(s.report.discovery_time
            + s.report
                .extraction
                .as_ref()
                .map_or(Duration::ZERO, |e| e.extraction_time))
    })
}

/// Checks one measured round against the reference round: grade,
/// fingerprint and work counters.
fn check_round(
    m: &mut Measured,
    suite: &Suite,
    report: &CampaignReport,
    reference: (&str, WorkCounters),
    pool: &mut Pool,
) {
    let g = suite.grade(report);
    pool.add(&g);
    m.check_n(g.sites as u64, g.wrong.len() as u64, || g.wrong.join("; "));
    let fp = suite.fingerprint(report);
    m.check(fp == reference.0, || {
        format!(
            "round fingerprint {fp} differs from the first round's {}",
            reference.0
        )
    });
    let counters = WorkCounters::of(report);
    m.check(counters == reference.1, || {
        format!(
            "work counters {counters:?} differ from the first round's {:?}",
            reference.1
        )
    });
}

/// Runs a campaign workload.
pub fn run(args: &Args, m: &mut Measured) -> Result<(), String> {
    if args.trace {
        traced(args, m)
    } else {
        end_to_end(args, m)
    }
}

fn end_to_end(args: &Args, m: &mut Measured) -> Result<(), String> {
    let suite = Suite::load(args.workload, args.seed);
    // Warm-up round: excluded from every metric, it fixes the reference
    // fingerprint and counters the measured rounds must reproduce.
    let (_, warm) = suite.round(0, None);
    let reference_fp = suite.fingerprint(&warm);
    m.check_reference_fingerprint(args, &reference_fp);
    let reference = (reference_fp.as_str(), WorkCounters::of(&warm));
    drop(warm);

    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut verdicts = Vec::new();
    let mut pool = Pool::default();
    let start = Instant::now();
    let mut round = 1;
    while walls.len() < MIN_ROUNDS || start.elapsed() < args.seconds {
        // Set-ups are timed between rounds, so their samples see the
        // same host conditions as the rounds do.
        let mut spec = None;
        for _ in 0..SETUPS_PER_ROUND {
            let start = Instant::now();
            let fresh = Suite::load(args.workload, args.seed);
            let built = fresh.spec(round, None);
            setups.push(start.elapsed().as_secs_f64());
            spec = Some(built);
        }
        let (wall, report) = run_spec(spec.expect("set-ups ran"));
        walls.push(ms(wall));
        rates.push(report.counts().0 as f64 / wall.as_secs_f64());
        verdicts.extend(verdict_ms(&report));
        check_round(m, &suite, &report, reference, &mut pool);
        round += 1;
    }

    m.set("setup_s", median(&setups).expect("set-ups ran"));
    m.set("sites_per_s", median(&rates).expect("rounds ran"));
    m.set("verdict_p50_ms", median(&verdicts).unwrap_or(0.0));
    m.set("verdict_p90_ms", percentile(&verdicts, 90.0).unwrap_or(0.0));
    m.set(
        "jobs_per_s",
        walls.len() as f64 / (walls.iter().sum::<f64>() / 1e3),
    );
    m.set("job_p50_ms", median(&walls).expect("rounds ran"));
    m.set("job_p90_ms", percentile(&walls, 90.0).expect("rounds ran"));
    m.set("peak_rss_mb", peak_rss_mb().ok_or("cannot read VmHWM")?);
    m.set("recall", pool.recall());
    m.set("precision", pool.precision());
    m.note(
        "samples",
        Json::obj()
            .field("setups", setups.len())
            .field("rounds", walls.len())
            .field("verdicts", verdicts.len())
            .field("verdicts_beyond_p90", samples_beyond(&verdicts, 90.0))
            .field("jobs_beyond_p90", samples_beyond(&walls, 90.0)),
    );
    m.note("fingerprint", reference_fp.clone());
    m.note(
        "spread",
        Json::obj()
            .field("setup_s", spread(&setups))
            .field("sites_per_s", spread(&rates))
            .field("job_ms", spread(&walls)),
    );
    Ok(())
}

fn traced(args: &Args, m: &mut Measured) -> Result<(), String> {
    let start = Instant::now();
    let suite = Suite::load(args.workload, args.seed);
    if args.workload == Workload::PaperApps {
        m.unexercised(&["synth.forge_ms"]);
    } else {
        m.set("synth.forge_ms", ms(start.elapsed()));
    }
    m.unexercised(&[
        "serve.admission_wait_p50_ms",
        "serve.job_wall_p50_ms",
        "serve.cold_hit_rate",
        "serve.warm_hit_rate",
        "serve.solver_cache_bytes",
        "serve.snapshot_cache_bytes",
        "serve.rejected",
    ]);
    let _ = suite.round(0, None);
    let traced = campaign_layers(args, &suite, m);
    m.set("obs.trace_overhead", traced.overhead);
    Ok(())
}

/// What [`campaign_layers`] hands back to its caller.
pub struct CampaignTrace {
    /// Traced wall over untraced wall, medians of the rounds.
    pub overhead: f64,
    /// The untraced rounds' canonical fingerprint.
    pub fingerprint: String,
}

/// Measures the campaign-level layers of `suite`: untraced rounds, then
/// traced rounds whose outcomes must be identical (tracing is passive),
/// folding the recorder's phase spans into self times; then the layer
/// probe over the same inputs.
pub fn campaign_layers(args: &Args, suite: &Suite, m: &mut Measured) -> CampaignTrace {
    let mut untraced = Vec::new();
    let mut reference = None;
    let mut pool = Pool::default();
    for round in 1..=TRACE_ROUNDS as u64 {
        let (wall, report) = suite.round(round, None);
        untraced.push(ms(wall));
        let fp = suite.fingerprint(&report);
        let counters = WorkCounters::of(&report);
        let reference = reference.get_or_insert_with(|| (fp.clone(), counters));
        check_round(m, suite, &report, (&reference.0, reference.1), &mut pool);
    }
    let (reference_fp, reference_counters) = reference.expect("untraced rounds ran");
    m.check_reference_fingerprint(args, &reference_fp);

    let mut traced = Vec::new();
    let mut rows: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut push = |name: &'static str, v: f64| match rows.iter_mut().find(|(n, _)| *n == name) {
        Some((_, vs)) => vs.push(v),
        None => rows.push((name, vec![v])),
    };
    let mut last = None;
    for round in 1..=TRACE_ROUNDS as u64 {
        let recorder = Arc::new(Recorder::new());
        let (wall, report) = suite.round(round, Some(Arc::clone(&recorder)));
        traced.push(ms(wall));
        let fp = suite.fingerprint(&report);
        m.check(fp == reference_fp, || {
            format!("traced fingerprint {fp} differs from the untraced {reference_fp}")
        });
        let phases = PhaseBreakdown::from_trace(&recorder.trace());
        let total = |p| phases.phase(p).map_or(0.0, |r| r.total_ns as f64 / 1e6);
        let own = |p| phases.phase(p).map_or(0.0, |r| r.self_ns as f64 / 1e6);
        push("interp.run_self_ms", own(Phase::InterpRun));
        push("interp.resume_self_ms", own(Phase::InterpResume));
        push("interp.capture_self_ms", own(Phase::InterpCapture));
        push("solver.self_ms", own(Phase::Solve));
        push("core.identify_ms", total(Phase::Identify));
        push("core.extract_ms", total(Phase::Extract));
        push("core.validate_ms", total(Phase::Validate));
        push("core.enforce_self_ms", own(Phase::Enforce));
        // Worker time: busy in instrumented compute, or waiting for work
        // (between jobs and in the tail behind the last straggler).
        let capacity_ns = wall.as_nanos() as f64 * report.threads as f64;
        let busy_ns = phases.top_level_ns as f64;
        push("engine.busy_share", busy_ns / capacity_ns);
        push(
            "engine.queue_wait_ms",
            (capacity_ns - busy_ns).max(0.0) / 1e6,
        );
        let cache = report.cache.unwrap_or_default();
        push("solver.cache_hit_rate", cache.hit_rate());
        push("solver.cache_bytes", cache.bytes as f64);
        last = Some(report);
    }
    let mut spreads = Json::obj();
    for (name, values) in &rows {
        m.set(name, median(values).expect("traced rounds ran"));
        spreads = spreads.field(name, spread(values));
    }
    m.note("traced_round_spread", spreads);

    let report = last.expect("traced rounds ran");
    let counters = WorkCounters::of(&report);
    m.check(counters == reference_counters, || {
        format!("traced work counters {counters:?} differ from untraced {reference_counters:?}")
    });
    m.set("core.enforcements", counters.enforcements as f64);
    m.set("core.candidates", counters.candidates as f64);
    m.set(
        "core.resume_rate",
        ratio(counters.resumed as usize, counters.candidates as usize),
    );
    let snapshot_bytes = report.snapshots.map_or(0, |s| s.bytes);
    m.set("core.snapshot_bytes", snapshot_bytes as f64);
    m.set("engine.jobs", counters.jobs as f64);

    let probe = crate::probe::measure(suite, &report, m);
    m.exact_counters(
        args,
        &[
            ("interp.seed_steps", probe.seed_steps),
            ("interp.candidate_steps", probe.candidate_steps),
            ("solver.queries", probe.queries),
            ("core.enforcements", counters.enforcements),
            ("core.candidates", counters.candidates),
            ("engine.jobs", counters.jobs),
        ],
        &[
            ("interp.snapshot_bytes", probe.snapshot_bytes),
            ("interp.peak_heap_bytes", probe.peak_heap_bytes),
            ("solver.conflicts", probe.conflicts),
            ("solver.decisions", probe.decisions),
            ("solver.vars", probe.vars),
            ("solver.interval_decided", probe.interval_decided),
            ("core.snapshot_bytes", snapshot_bytes),
        ],
    );
    m.note("fingerprint", reference_fp.clone());
    m.note(
        "samples",
        Json::obj()
            .field("untraced_rounds", untraced.len())
            .field("traced_rounds", traced.len())
            .field("solver_queries", probe.queries)
            .field("resumes", probe.resumes)
            .field("candidate_runs", probe.candidate_runs),
    );
    CampaignTrace {
        overhead: median(&traced).expect("traced rounds ran")
            / median(&untraced).expect("untraced rounds ran"),
        fingerprint: reference_fp,
    }
}
