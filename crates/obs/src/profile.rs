//! Folding a trace into per-phase / per-site breakdowns, a human table,
//! JSON output (and back), and collapsed stacks for flamegraph tooling.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::span::{Phase, Span, Trace};

/// Aggregated timing for one phase across the whole trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// Which phase.
    pub phase: Phase,
    /// Number of spans recorded for the phase.
    pub count: u64,
    /// Sum of span durations (includes nested child spans).
    pub total_ns: u64,
    /// Sum of span durations minus time spent in child spans.
    pub self_ns: u64,
    /// Median span duration.
    pub p50_ns: u64,
    /// 99th-percentile span duration.
    pub p99_ns: u64,
}

/// Per-phase summary of a campaign trace — the `phases` field of a
/// campaign report, and the core of the `profile` subcommand.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseBreakdown {
    /// One row per phase that appeared, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseRow>,
    /// Sum of top-level (parentless, non-volatile) span durations: the
    /// instrumented compute time. Compare against `wall * threads`.
    pub top_level_ns: u64,
    /// Total scheduler queue-wait time across workers.
    pub queue_wait_ns: u64,
}

impl PhaseBreakdown {
    /// Fold a trace into per-phase rows.
    pub fn from_trace(trace: &Trace) -> PhaseBreakdown {
        // children_ns[job_key][seq] = total child duration of that span.
        let mut children: BTreeMap<(&str, u32, Option<&str>), BTreeMap<u32, u64>> = BTreeMap::new();
        for span in &trace.spans {
            if let Some(parent) = span.parent {
                *children
                    .entry((span.app.as_str(), span.seed, span.site.as_deref()))
                    .or_default()
                    .entry(parent)
                    .or_insert(0) += span.dur_ns;
            }
        }
        let mut durs: BTreeMap<Phase, Vec<u64>> = BTreeMap::new();
        let mut selfs: BTreeMap<Phase, u64> = BTreeMap::new();
        let mut queue_wait_ns = 0u64;
        for span in &trace.spans {
            if span.phase == Phase::QueueWait {
                queue_wait_ns += span.dur_ns;
            }
            durs.entry(span.phase).or_default().push(span.dur_ns);
            let nested = children
                .get(&(span.app.as_str(), span.seed, span.site.as_deref()))
                .and_then(|m| m.get(&span.seq))
                .copied()
                .unwrap_or(0);
            *selfs.entry(span.phase).or_insert(0) += span.dur_ns.saturating_sub(nested);
        }
        let phases = Phase::ALL
            .into_iter()
            .filter_map(|phase| {
                let mut d = durs.remove(&phase)?;
                d.sort_unstable();
                let count = d.len() as u64;
                Some(PhaseRow {
                    phase,
                    count,
                    total_ns: d.iter().sum(),
                    self_ns: selfs.get(&phase).copied().unwrap_or(0),
                    p50_ns: quantile_sorted(&d, 0.50),
                    p99_ns: quantile_sorted(&d, 0.99),
                })
            })
            .collect();
        PhaseBreakdown {
            phases,
            top_level_ns: trace.top_level_ns(),
            queue_wait_ns,
        }
    }

    /// Row for one phase, if it appeared in the trace.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseRow> {
        self.phases.iter().find(|r| r.phase == phase)
    }

    /// Queue wait as a fraction of all attributed worker time
    /// (`wait / (wait + compute)`); 0 when nothing was recorded.
    pub fn queue_wait_ratio(&self) -> f64 {
        let denom = self.queue_wait_ns + self.top_level_ns;
        if denom == 0 {
            0.0
        } else {
            self.queue_wait_ns as f64 / denom as f64
        }
    }
}

fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Total top-level time attributed to one site job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteRow {
    /// Application name.
    pub app: String,
    /// Unit seed index.
    pub seed: u32,
    /// Target site label.
    pub site: String,
    /// Sum of the job's top-level span durations.
    pub total_ns: u64,
    /// Number of spans the job recorded (all levels).
    pub spans: u64,
}

/// Full profile of a campaign trace: phase breakdown, slowest sites,
/// wall-time coverage, and merged metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Per-phase rows plus top-level/queue-wait totals.
    pub breakdown: PhaseBreakdown,
    /// Slowest site jobs, descending by attributed time.
    pub top_sites: Vec<SiteRow>,
    /// Campaign wall time, if the trace was stamped with one.
    pub wall_ns: Option<u64>,
    /// Worker thread count, if stamped.
    pub threads: Option<u32>,
    /// Merged counters from the trace.
    pub counters: BTreeMap<String, u64>,
}

impl ProfileReport {
    /// Fold a trace, keeping the `top_n` slowest sites.
    pub fn from_trace(trace: &Trace, top_n: usize) -> ProfileReport {
        let mut sites: BTreeMap<(&str, u32, &str), (u64, u64)> = BTreeMap::new();
        for span in &trace.spans {
            let Some(site) = span.site.as_deref() else {
                continue;
            };
            let entry = sites
                .entry((span.app.as_str(), span.seed, site))
                .or_insert((0, 0));
            if span.is_top_level() {
                entry.0 += span.dur_ns;
            }
            entry.1 += 1;
        }
        let mut top_sites: Vec<SiteRow> = sites
            .into_iter()
            .map(|((app, seed, site), (total_ns, spans))| SiteRow {
                app: app.to_string(),
                seed,
                site: site.to_string(),
                total_ns,
                spans,
            })
            .collect();
        top_sites.sort_by(|a, b| {
            b.total_ns
                .cmp(&a.total_ns)
                .then_with(|| (&a.app, a.seed, &a.site).cmp(&(&b.app, b.seed, &b.site)))
        });
        top_sites.truncate(top_n);
        ProfileReport {
            breakdown: PhaseBreakdown::from_trace(trace),
            top_sites,
            wall_ns: trace.wall_ns,
            threads: trace.threads,
            counters: trace.counters.clone(),
        }
    }

    /// Fraction of total worker capacity (`wall * threads`) covered by
    /// top-level spans. `None` when the trace has no wall-time stamp.
    pub fn coverage(&self) -> Option<f64> {
        let wall = self.wall_ns? as f64;
        let threads = self.threads.unwrap_or(1).max(1) as f64;
        if wall <= 0.0 {
            return None;
        }
        Some(self.breakdown.top_level_ns as f64 / (wall * threads))
    }

    /// Fraction of campaign wall time covered by top-level spans,
    /// assuming perfectly serialised work (`top_level / wall`). For a
    /// single-threaded campaign this is the acceptance-criterion number.
    pub fn serial_coverage(&self) -> Option<f64> {
        let wall = self.wall_ns? as f64;
        if wall <= 0.0 {
            return None;
        }
        Some(self.breakdown.top_level_ns as f64 / wall)
    }

    /// The whole report as one JSON object (the `obs_profile` table).
    /// Times are fractional milliseconds.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let phases: Vec<Json> = self
            .breakdown
            .phases
            .iter()
            .map(|row| {
                Json::obj()
                    .field("phase", row.phase.as_str())
                    .field("count", row.count)
                    .field("total_ms", ms(row.total_ns))
                    .field("self_ms", ms(row.self_ns))
                    .field("p50_ms", ms(row.p50_ns))
                    .field("p99_ms", ms(row.p99_ns))
            })
            .collect();
        let top_sites: Vec<Json> = self
            .top_sites
            .iter()
            .map(|s| {
                Json::obj()
                    .field("app", s.app.as_str())
                    .field("seed", s.seed)
                    .field("site", s.site.as_str())
                    .field("total_ms", ms(s.total_ns))
                    .field("spans", s.spans)
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), Json::from(*value)))
            .collect();
        Json::obj()
            .field("table", "obs_profile")
            .field("v", 1u64)
            .field_opt("wall_ms", self.wall_ns.map(ms))
            .field_opt("threads", self.threads)
            .field("top_level_ms", ms(self.breakdown.top_level_ns))
            .field("queue_wait_ms", ms(self.breakdown.queue_wait_ns))
            .field("queue_wait_ratio", self.breakdown.queue_wait_ratio())
            .field_opt("coverage", self.coverage())
            .field("phases", phases)
            .field("top_sites", top_sites)
            .field("counters", Json::Obj(counters))
    }

    /// Reads a report back from [`to_json`](Self::to_json)'s object.
    /// Millisecond fields convert back to nanoseconds, so round-trip
    /// precision is 1ns — far below timing noise.
    pub fn from_json(doc: &Json) -> Result<ProfileReport, String> {
        let rows = doc
            .get("phases")
            .and_then(Json::as_arr)
            .ok_or("missing \"phases\" array")?;
        let mut phases = Vec::with_capacity(rows.len());
        for row in rows {
            let name = row.str_field("phase")?;
            phases.push(PhaseRow {
                phase: Phase::parse(name).ok_or_else(|| format!("unknown phase {name:?}"))?,
                count: row.u64_field("count")?,
                total_ns: ns_field(row, "total_ms")?,
                self_ns: ns_field(row, "self_ms")?,
                p50_ns: ns_field(row, "p50_ms")?,
                p99_ns: ns_field(row, "p99_ms")?,
            });
        }
        let mut top_sites = Vec::new();
        for row in doc.get("top_sites").and_then(Json::as_arr).unwrap_or(&[]) {
            top_sites.push(SiteRow {
                app: row.str_field("app")?.to_string(),
                seed: row.get("seed").and_then(Json::as_u64).unwrap_or(0) as u32,
                site: row.str_field("site")?.to_string(),
                total_ns: ns_field(row, "total_ms")?,
                spans: row.get("spans").and_then(Json::as_u64).unwrap_or(0),
            });
        }
        let mut counters = BTreeMap::new();
        if let Some(Json::Obj(fields)) = doc.get("counters") {
            for (name, value) in fields {
                if let Some(v) = value.as_u64() {
                    counters.insert(name.clone(), v);
                }
            }
        }
        Ok(ProfileReport {
            breakdown: PhaseBreakdown {
                phases,
                top_level_ns: ns_field(doc, "top_level_ms")?,
                queue_wait_ns: ns_field(doc, "queue_wait_ms")?,
            },
            top_sites,
            wall_ns: doc.get("wall_ms").and_then(Json::as_f64).map(ms_to_ns),
            threads: doc.get("threads").and_then(Json::as_u64).map(|t| t as u32),
            counters,
        })
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== Campaign profile ==\n");
        if let (Some(wall), Some(threads)) = (self.wall_ns, self.threads) {
            let _ = writeln!(
                out,
                "wall {:.1} ms on {threads} thread(s); instrumented compute {:.1} ms ({:.0}% of capacity), queue wait {:.1} ms ({:.1}% of worker time)",
                ms(wall),
                ms(self.breakdown.top_level_ns),
                self.coverage().unwrap_or(0.0) * 100.0,
                ms(self.breakdown.queue_wait_ns),
                self.breakdown.queue_wait_ratio() * 100.0,
            );
        }
        let _ = writeln!(
            out,
            "{:<15} {:>7} {:>12} {:>12} {:>10} {:>10}",
            "phase", "count", "total ms", "self ms", "p50 ms", "p99 ms"
        );
        for row in &self.breakdown.phases {
            let _ = writeln!(
                out,
                "{:<15} {:>7} {:>12.3} {:>12.3} {:>10.3} {:>10.3}",
                row.phase.as_str(),
                row.count,
                ms(row.total_ns),
                ms(row.self_ns),
                ms(row.p50_ns),
                ms(row.p99_ns),
            );
        }
        let counter = |name: &str| self.counters.get(name).copied().unwrap_or(0);
        let self_ns = |phase| self.breakdown.phase(phase).map_or(0, |row| row.self_ns);
        if let Some(&queries) = self.counters.get("solver.queries") {
            let conflicts = counter("solver.conflicts");
            let solve_self_ns = self_ns(Phase::Solve);
            let per_conflict = if conflicts == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", solve_self_ns as f64 / 1e3 / conflicts as f64)
            };
            let _ = writeln!(
                out,
                "solver: {queries} queries, {} cache hits, {conflicts} conflicts, {} propagations, {per_conflict} us solve self per conflict; {} CNF vars, {} clauses, {} prefix replays",
                counter("solver.cache_hits"),
                counter("solver.propagations"),
                counter("solver.cnf_vars"),
                counter("solver.cnf_clauses"),
                counter("solver.prefix_replays"),
            );
        }
        let steps = [
            ("run", "interp.run_steps", Phase::InterpRun),
            ("resume", "interp.resume_steps", Phase::InterpResume),
            ("capture", "interp.capture_steps", Phase::InterpCapture),
        ];
        if steps
            .iter()
            .any(|(_, name, _)| self.counters.contains_key(*name))
        {
            let parts: Vec<String> = steps
                .iter()
                .map(|&(kind, name, phase)| {
                    let n = counter(name);
                    let per_step = if n == 0 {
                        "-".to_string()
                    } else {
                        format!("{:.1}", self_ns(phase) as f64 / n as f64)
                    };
                    format!("{n} {kind} steps at {per_step} ns/step")
                })
                .collect();
            let _ = writeln!(out, "interp: {}", parts.join(", "));
        }
        if !self.top_sites.is_empty() {
            let _ = writeln!(out, "top {} slowest sites:", self.top_sites.len());
            for s in &self.top_sites {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>10.3} ms  ({} spans)",
                    format!("{}/{}", s.app, s.site),
                    ms(s.total_ns),
                    s.spans,
                );
            }
        }
        out
    }
}

/// One phase's timing across two profiled runs.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDelta {
    /// Which phase.
    pub phase: Phase,
    /// Phase total in the old run, milliseconds.
    pub old_ms: f64,
    /// Phase total in the new run, milliseconds.
    pub new_ms: f64,
}

impl PhaseDelta {
    /// Signed change, milliseconds (positive = regression).
    pub fn delta_ms(&self) -> f64 {
        self.new_ms - self.old_ms
    }
}

/// One site's attributed time across two profiled runs. Sites appear
/// when either run ranked them among its slowest.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteDelta {
    /// Application name.
    pub app: String,
    /// Unit seed index.
    pub seed: u32,
    /// Target site label.
    pub site: String,
    /// Attributed time in the old run, milliseconds.
    pub old_ms: f64,
    /// Attributed time in the new run, milliseconds.
    pub new_ms: f64,
}

impl SiteDelta {
    /// Signed change, milliseconds (positive = regression).
    pub fn delta_ms(&self) -> f64 {
        self.new_ms - self.old_ms
    }
}

/// Comparison of two [`ProfileReport`]s that attributes a wall-clock
/// regression to specific phases, sites, and solver-cache hit-rate
/// shifts — so a regression can say *where* the time went.
///
/// A phase is *attributed* when its total grew by more than
/// `threshold` relative to its own old time AND by more than a quarter
/// of `threshold` relative to the whole run's instrumented compute —
/// real growth, material to the run, not just its own noise. Diffing a
/// report against itself attributes nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDiff {
    /// Old run's wall time, ms, when stamped.
    pub old_wall_ms: Option<f64>,
    /// New run's wall time, ms, when stamped.
    pub new_wall_ms: Option<f64>,
    /// Old run's instrumented compute (top-level span total), ms.
    pub old_compute_ms: f64,
    /// New run's instrumented compute, ms.
    pub new_compute_ms: f64,
    /// Union of both runs' phases, canonical phase order.
    pub phases: Vec<PhaseDelta>,
    /// Largest per-site shifts, descending by absolute change.
    pub sites: Vec<SiteDelta>,
    /// Old run's solver-cache hit rate, when its counters were recorded.
    pub old_hit_rate: Option<f64>,
    /// New run's solver-cache hit rate.
    pub new_hit_rate: Option<f64>,
    /// Relative attribution threshold used by [`ProfileDiff::attributed`].
    pub threshold: f64,
}

impl ProfileDiff {
    /// Compare two reports, keeping the `top_n` largest site shifts and
    /// attributing phases whose growth exceeds `threshold` (a fraction
    /// of the old run's instrumented compute; 0.15 is the default of
    /// `profile --diff`).
    pub fn between(
        old: &ProfileReport,
        new: &ProfileReport,
        top_n: usize,
        threshold: f64,
    ) -> ProfileDiff {
        let mut old_phases: BTreeMap<Phase, u64> = BTreeMap::new();
        for row in &old.breakdown.phases {
            old_phases.insert(row.phase, row.total_ns);
        }
        let mut new_phases: BTreeMap<Phase, u64> = BTreeMap::new();
        for row in &new.breakdown.phases {
            new_phases.insert(row.phase, row.total_ns);
        }
        let phases = Phase::ALL
            .into_iter()
            .filter_map(|phase| {
                let old_ns = old_phases.get(&phase).copied();
                let new_ns = new_phases.get(&phase).copied();
                if old_ns.is_none() && new_ns.is_none() {
                    return None;
                }
                Some(PhaseDelta {
                    phase,
                    old_ms: ms(old_ns.unwrap_or(0)),
                    new_ms: ms(new_ns.unwrap_or(0)),
                })
            })
            .collect();
        let mut site_times: BTreeMap<(String, u32, String), (f64, f64)> = BTreeMap::new();
        for s in &old.top_sites {
            site_times
                .entry((s.app.clone(), s.seed, s.site.clone()))
                .or_insert((0.0, 0.0))
                .0 = ms(s.total_ns);
        }
        for s in &new.top_sites {
            site_times
                .entry((s.app.clone(), s.seed, s.site.clone()))
                .or_insert((0.0, 0.0))
                .1 = ms(s.total_ns);
        }
        let mut sites: Vec<SiteDelta> = site_times
            .into_iter()
            .map(|((app, seed, site), (old_ms, new_ms))| SiteDelta {
                app,
                seed,
                site,
                old_ms,
                new_ms,
            })
            .collect();
        sites.sort_by(|a, b| {
            b.delta_ms()
                .abs()
                .partial_cmp(&a.delta_ms().abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (&a.app, a.seed, &a.site).cmp(&(&b.app, b.seed, &b.site)))
        });
        sites.truncate(top_n);
        ProfileDiff {
            old_wall_ms: old.wall_ns.map(ms),
            new_wall_ms: new.wall_ns.map(ms),
            old_compute_ms: ms(old.breakdown.top_level_ns),
            new_compute_ms: ms(new.breakdown.top_level_ns),
            phases,
            sites,
            old_hit_rate: hit_rate(&old.counters),
            new_hit_rate: hit_rate(&new.counters),
            threshold,
        }
    }

    /// Relative wall-time change (`(new - old) / old`), when both runs
    /// were stamped. Positive = regression.
    pub fn wall_regression(&self) -> Option<f64> {
        let (old, new) = (self.old_wall_ms?, self.new_wall_ms?);
        if old <= 0.0 {
            return None;
        }
        Some((new - old) / old)
    }

    /// Phases whose growth exceeds the attribution threshold, largest
    /// regression first. Empty means no attributed regression.
    pub fn attributed(&self) -> Vec<&PhaseDelta> {
        // Two conditions, both scaled by the threshold: the phase must
        // have grown materially relative to itself (more than
        // `threshold` of its own old time — a 15% default) AND relative
        // to the whole run (more than a quarter of `threshold` of the
        // larger run's instrumented compute), so noise in a tiny phase
        // never attributes while a genuinely inflated phase — even one
        // that is a modest slice of the run, like solve with the cache
        // disabled — always does. The compute basis takes the larger
        // run so a huge regression can't shrink its own yardstick.
        let compute = self.old_compute_ms.max(self.new_compute_ms).max(1e-3);
        let floor = self.threshold * 0.25 * compute;
        let mut hits: Vec<&PhaseDelta> = self
            .phases
            .iter()
            .filter(|d| {
                !d.phase.is_volatile()
                    && d.delta_ms() > floor
                    && d.delta_ms() > self.threshold * d.old_ms.max(1e-3)
            })
            .collect();
        hits.sort_by(|a, b| {
            b.delta_ms()
                .partial_cmp(&a.delta_ms())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        hits
    }

    /// Change in solver-cache hit rate (`new - old`), when both runs
    /// recorded solver counters. Negative = the cache got colder.
    pub fn hit_rate_delta(&self) -> Option<f64> {
        Some(self.new_hit_rate? - self.old_hit_rate?)
    }

    /// Whether the diff attributes any regression.
    pub fn is_regression(&self) -> bool {
        !self.attributed().is_empty()
    }

    /// The whole diff as one JSON object (the `obs_profile_diff` table).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let phases: Vec<Json> = self
            .phases
            .iter()
            .map(|d| {
                Json::obj()
                    .field("phase", d.phase.as_str())
                    .field("old_ms", d.old_ms)
                    .field("new_ms", d.new_ms)
                    .field("delta_ms", d.delta_ms())
            })
            .collect();
        let attributed: Vec<&str> = self.attributed().iter().map(|d| d.phase.as_str()).collect();
        let sites: Vec<Json> = self
            .sites
            .iter()
            .map(|s| {
                Json::obj()
                    .field("app", s.app.as_str())
                    .field("seed", s.seed)
                    .field("site", s.site.as_str())
                    .field("old_ms", s.old_ms)
                    .field("new_ms", s.new_ms)
                    .field("delta_ms", s.delta_ms())
            })
            .collect();
        Json::obj()
            .field("table", "obs_profile_diff")
            .field("v", 1u64)
            .field_opt("old_wall_ms", self.old_wall_ms)
            .field_opt("new_wall_ms", self.new_wall_ms)
            .field_opt("wall_regression", self.wall_regression())
            .field("old_compute_ms", self.old_compute_ms)
            .field("new_compute_ms", self.new_compute_ms)
            .field("threshold", self.threshold)
            .field("phases", phases)
            .field("attributed", attributed)
            .field("sites", sites)
            .field_opt("old_cache_hit_rate", self.old_hit_rate)
            .field_opt("new_cache_hit_rate", self.new_hit_rate)
            .field_opt("cache_hit_rate_delta", self.hit_rate_delta())
            .field("regressed", self.is_regression())
    }

    /// Human-readable attribution report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== Profile diff (old -> new) ==\n");
        if let Some(reg) = self.wall_regression() {
            let _ = writeln!(
                out,
                "wall {:.1} ms -> {:.1} ms ({:+.1}%)",
                self.old_wall_ms.unwrap_or(0.0),
                self.new_wall_ms.unwrap_or(0.0),
                reg * 100.0,
            );
        }
        let _ = writeln!(
            out,
            "instrumented compute {:.1} ms -> {:.1} ms",
            self.old_compute_ms, self.new_compute_ms
        );
        let _ = writeln!(
            out,
            "{:<15} {:>12} {:>12} {:>12}",
            "phase", "old ms", "new ms", "delta ms"
        );
        for d in &self.phases {
            let _ = writeln!(
                out,
                "{:<15} {:>12.3} {:>12.3} {:>+12.3}",
                d.phase.as_str(),
                d.old_ms,
                d.new_ms,
                d.delta_ms(),
            );
        }
        if let Some(delta) = self.hit_rate_delta() {
            let _ = writeln!(
                out,
                "solver cache hit rate {:.1}% -> {:.1}% ({:+.1} pt)",
                self.old_hit_rate.unwrap_or(0.0) * 100.0,
                self.new_hit_rate.unwrap_or(0.0) * 100.0,
                delta * 100.0,
            );
        }
        let attributed = self.attributed();
        if attributed.is_empty() {
            let _ = writeln!(
                out,
                "no attributed regression (threshold {:.0}% phase growth)",
                self.threshold * 100.0
            );
        } else {
            let names: Vec<&str> = attributed.iter().map(|d| d.phase.as_str()).collect();
            let _ = writeln!(
                out,
                "REGRESSION attributed to: {} (threshold {:.0}% phase growth)",
                names.join(", "),
                self.threshold * 100.0
            );
        }
        for s in self
            .sites
            .iter()
            .filter(|s| s.delta_ms().abs() > 0.0)
            .take(5)
        {
            let _ = writeln!(
                out,
                "  site {}/{}/{}: {:.3} ms -> {:.3} ms ({:+.3})",
                s.app,
                s.seed,
                s.site,
                s.old_ms,
                s.new_ms,
                s.delta_ms(),
            );
        }
        out
    }
}

fn hit_rate(counters: &BTreeMap<String, u64>) -> Option<f64> {
    let queries = counters.get("solver.queries").copied()?;
    if queries == 0 {
        return None;
    }
    let hits = counters.get("solver.cache_hits").copied().unwrap_or(0);
    Some(hits as f64 / queries as f64)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ms_to_ns(ms: f64) -> u64 {
    (ms.max(0.0) * 1e6).round() as u64
}

fn ns_field(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .map(ms_to_ns)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

/// Fold a trace into collapsed-stack lines (`frame;frame;... weight`)
/// suitable for `flamegraph.pl` / `inferno-flamegraph`. Weights are the
/// span self-times in nanoseconds; frames are `app;site;phase...`.
pub fn collapsed_stacks(trace: &Trace) -> String {
    // Index spans per job so parent chains resolve.
    let mut jobs: BTreeMap<(&str, u32, Option<&str>), BTreeMap<u32, &Span>> = BTreeMap::new();
    for span in &trace.spans {
        if span.phase.is_volatile() {
            continue;
        }
        jobs.entry((span.app.as_str(), span.seed, span.site.as_deref()))
            .or_default()
            .insert(span.seq, span);
    }
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for ((app, _seed, site), by_seq) in &jobs {
        let mut children_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for span in by_seq.values() {
            if let Some(parent) = span.parent {
                *children_ns.entry(parent).or_insert(0) += span.dur_ns;
            }
        }
        for span in by_seq.values() {
            let mut frames = vec![span.phase.as_str()];
            let mut cursor = span.parent;
            while let Some(seq) = cursor {
                match by_seq.get(&seq) {
                    Some(parent) => {
                        frames.push(parent.phase.as_str());
                        cursor = parent.parent;
                    }
                    None => break,
                }
            }
            frames.push(site.unwrap_or("unit"));
            frames.push(app);
            frames.reverse();
            let self_ns = span
                .dur_ns
                .saturating_sub(children_ns.get(&span.seq).copied().unwrap_or(0));
            if self_ns > 0 {
                *folded.entry(frames.join(";")).or_insert(0) += self_ns;
            }
        }
    }
    let mut out = String::new();
    for (stack, weight) in folded {
        let _ = writeln!(out, "{stack} {weight}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        phase: Phase,
        app: &str,
        site: Option<&str>,
        seq: u32,
        parent: Option<u32>,
        start: u64,
        dur: u64,
    ) -> Span {
        Span {
            phase,
            app: app.into(),
            seed: 0,
            site: site.map(Into::into),
            seq,
            parent,
            start_ns: start,
            dur_ns: dur,
            cache_hit: None,
        }
    }

    fn sample() -> Trace {
        Trace {
            spans: vec![
                // Unit job: identify(100) with a nested interp run(60).
                span(Phase::Identify, "a", None, 0, None, 0, 100),
                span(Phase::InterpRun, "a", None, 1, Some(0), 10, 60),
                // Site job: extract(40) then enforce(200) with two solves.
                span(Phase::Extract, "a", Some("s1"), 0, None, 100, 40),
                span(Phase::Enforce, "a", Some("s1"), 1, None, 140, 200),
                span(Phase::Solve, "a", Some("s1"), 2, Some(1), 150, 30),
                span(Phase::Solve, "a", Some("s1"), 3, Some(1), 190, 50),
                // A slower second site.
                span(Phase::Enforce, "a", Some("s2"), 0, None, 400, 500),
                // Scheduler wait.
                span(Phase::QueueWait, "", None, 0, None, 0, 25),
            ],
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
            wall_ns: Some(1000),
            threads: Some(1),
        }
    }

    #[test]
    fn breakdown_totals_and_self_times() {
        let b = PhaseBreakdown::from_trace(&sample());
        let enforce = b.phase(Phase::Enforce).unwrap();
        assert_eq!(enforce.count, 2);
        assert_eq!(enforce.total_ns, 700);
        assert_eq!(enforce.self_ns, 700 - 80); // minus the two solves
        let solve = b.phase(Phase::Solve).unwrap();
        assert_eq!(solve.total_ns, 80);
        assert_eq!(solve.self_ns, 80);
        let identify = b.phase(Phase::Identify).unwrap();
        assert_eq!(identify.self_ns, 40);
        // Top level: identify 100 + extract 40 + enforce 200 + enforce 500.
        assert_eq!(b.top_level_ns, 840);
        assert_eq!(b.queue_wait_ns, 25);
        assert!(b.queue_wait_ratio() > 0.0 && b.queue_wait_ratio() < 0.05);
        // Rows come out in canonical phase order.
        let order: Vec<Phase> = b.phases.iter().map(|r| r.phase).collect();
        let mut sorted = order.clone();
        sorted.sort_by_key(|p| Phase::ALL.iter().position(|q| q == p).unwrap());
        assert_eq!(order, sorted);
    }

    #[test]
    fn report_ranks_sites_and_computes_coverage() {
        let report = ProfileReport::from_trace(&sample(), 1);
        assert_eq!(report.top_sites.len(), 1);
        assert_eq!(report.top_sites[0].site, "s2");
        assert_eq!(report.top_sites[0].total_ns, 500);
        let cov = report.coverage().unwrap();
        assert!((cov - 0.84).abs() < 1e-9, "coverage {cov}");
        assert_eq!(report.serial_coverage(), report.coverage());
    }

    #[test]
    fn json_is_valid_flat_json() {
        let report = ProfileReport::from_trace(&sample(), 3);
        let json = report.to_json().to_string();
        assert!(json.starts_with("{\"table\":\"obs_profile\",\"v\":1"));
        assert!(json.contains("\"phases\":["));
        assert!(json.contains("\"phase\":\"enforce\""));
        assert!(json.contains("\"top_sites\":["));
        // Balanced braces/brackets as a cheap well-formedness check.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn render_lists_every_phase_present() {
        let report = ProfileReport::from_trace(&sample(), 3);
        let text = report.render();
        for phase in ["identify", "extract", "solve", "enforce", "interp_run"] {
            assert!(text.contains(phase), "missing {phase} in:\n{text}");
        }
    }

    #[test]
    fn render_prints_solver_work_per_conflict() {
        let mut trace = sample();
        assert!(!ProfileReport::from_trace(&trace, 3)
            .render()
            .contains("solver:"));
        for (name, value) in [
            ("solver.queries", 12),
            ("solver.cache_hits", 4),
            ("solver.conflicts", 8),
            ("solver.propagations", 900),
            ("solver.cnf_vars", 5000),
            ("solver.cnf_clauses", 17000),
            ("solver.prefix_replays", 3),
        ] {
            trace.counters.insert(name.into(), value);
        }
        let report = ProfileReport::from_trace(&trace, 3);
        let solve_self_ns = report
            .breakdown
            .phases
            .iter()
            .find(|row| row.phase == Phase::Solve)
            .expect("solve row")
            .self_ns;
        let line = format!(
            "solver: 12 queries, 4 cache hits, 8 conflicts, 900 propagations, {:.1} us solve self per conflict; 5000 CNF vars, 17000 clauses, 3 prefix replays",
            solve_self_ns as f64 / 1e3 / 8.0
        );
        assert!(report.render().contains(&line), "{}", report.render());
    }

    #[test]
    fn render_prints_interp_steps_per_phase() {
        let mut trace = sample();
        assert!(!ProfileReport::from_trace(&trace, 3)
            .render()
            .contains("interp:"));
        trace.counters.insert("interp.run_steps".into(), 20);
        trace.counters.insert("interp.capture_steps".into(), 4);
        let report = ProfileReport::from_trace(&trace, 3);
        // interp_run self time is 60 ns; nothing ran under the other two.
        assert!(
            report.render().contains(
                "interp: 20 run steps at 3.0 ns/step, 0 resume steps at - ns/step, \
                 4 capture steps at 0.0 ns/step"
            ),
            "{}",
            report.render()
        );
    }

    #[test]
    fn diff_against_self_attributes_nothing() {
        let report = ProfileReport::from_trace(&sample(), 3);
        let diff = ProfileDiff::between(&report, &report, 5, 0.15);
        assert!(diff.attributed().is_empty());
        assert!(!diff.is_regression());
        assert_eq!(diff.wall_regression(), Some(0.0));
        assert!(diff.to_json().to_string().contains("\"regressed\":false"));
        assert!(diff.render().contains("no attributed regression"));
    }

    #[test]
    fn diff_attributes_inflated_solve_phase() {
        let old = ProfileReport::from_trace(&sample(), 3);
        // Perturbed run: solve time inflated 20x (e.g. cache disabled).
        let mut hot = sample();
        for s in &mut hot.spans {
            if s.phase == Phase::Solve {
                s.dur_ns *= 20;
            }
        }
        hot.wall_ns = Some(3000);
        let new = ProfileReport::from_trace(&hot, 3);
        let diff = ProfileDiff::between(&old, &new, 5, 0.15);
        let attributed = diff.attributed();
        assert_eq!(attributed.len(), 1, "{:?}", diff.phases);
        assert_eq!(attributed[0].phase, Phase::Solve);
        assert!(diff.is_regression());
        assert!(diff
            .to_json()
            .to_string()
            .contains("\"attributed\":[\"solve\"]"));
        assert!(diff.render().contains("REGRESSION attributed to: solve"));
    }

    #[test]
    fn diff_reports_cache_hit_rate_shift() {
        let mut warm = sample();
        warm.counters.insert("solver.queries".into(), 100);
        warm.counters.insert("solver.cache_hits".into(), 80);
        let mut cold = sample();
        cold.counters.insert("solver.queries".into(), 100);
        cold.counters.insert("solver.cache_hits".into(), 10);
        let old = ProfileReport::from_trace(&warm, 3);
        let new = ProfileReport::from_trace(&cold, 3);
        let diff = ProfileDiff::between(&old, &new, 5, 0.15);
        assert_eq!(diff.old_hit_rate, Some(0.8));
        assert_eq!(diff.new_hit_rate, Some(0.1));
        assert!((diff.hit_rate_delta().unwrap() + 0.7).abs() < 1e-9);
    }

    #[test]
    fn collapsed_stacks_fold_parent_chains() {
        let folded = collapsed_stacks(&sample());
        assert!(folded.contains("a;s1;enforce;solve 80"), "{folded}");
        assert!(folded.contains("a;s1;enforce 120"), "{folded}");
        assert!(folded.contains("a;unit;identify 40"), "{folded}");
        assert!(folded.contains("a;unit;identify;interp_run 60"), "{folded}");
        // Queue wait spans are excluded.
        assert!(!folded.contains("queue_wait"), "{folded}");
    }
}
