//! The layer probe: times the benchmark's own calls into the public
//! functions of `interp`, `solver` and `core` over a workload's inputs,
//! and counts the work each call did.

use std::time::Instant;

use diode_core::{
    extract, generate_input, identify_target_sites_traced, test_candidate, DiodeConfig,
};
use diode_engine::CampaignReport;
use diode_format::Fixup;
use diode_interp::{
    run, run_capture_multi, run_from, take_peak_heap_bytes, Concrete, Symbolic, Taint,
};
use diode_solver::{solve_with, SolveResult, SolverConfig};
use diode_symbolic::SymBool;

use crate::stats::{median, percentile};
use crate::suite::Suite;
use crate::Measured;

/// Deterministic work counts of one probe pass.
#[derive(Debug, Default)]
pub struct Probe {
    pub seed_steps: u64,
    pub candidate_steps: u64,
    pub candidate_runs: u64,
    pub resumes: u64,
    pub snapshot_bytes: u64,
    pub peak_heap_bytes: u64,
    pub queries: u64,
    pub conflicts: u64,
    pub decisions: u64,
    pub vars: u64,
    pub interval_decided: u64,
}

impl Probe {
    /// One uncached query, timed and counted.
    fn solve(
        &mut self,
        cond: &SymBool,
        config: &SolverConfig,
        query_us: &mut Vec<f64>,
    ) -> SolveResult {
        let start = Instant::now();
        let (result, stats) = solve_with(cond, config, None);
        query_us.push(start.elapsed().as_secs_f64() * 1e6);
        self.queries += 1;
        self.conflicts += stats.conflicts;
        self.decisions += stats.decisions;
        self.vars += stats.vars as u64;
        self.interval_decided += u64::from(stats.decided_by_interval);
        result
    }
}

/// Nanoseconds and steps accumulated over runs of one kind.
#[derive(Default)]
struct PerStep {
    ns: u128,
    steps: u64,
}

impl PerStep {
    fn add(&mut self, start: Instant, steps: u64) {
        self.ns += start.elapsed().as_nanos();
        self.steps += steps;
    }

    fn ns_per_step(&self) -> f64 {
        self.ns as f64 / self.steps.max(1) as f64
    }
}

/// Runs the probe over every `(app, seed)` unit of `suite`, using
/// `report` (a campaign over the same suite) for the exposed witnesses.
/// Sets the `interp.*` and `solver.*` probe metrics on `m`, and checks
/// that every witness still triggers its overflow when run on its own.
pub fn measure(suite: &Suite, report: &CampaignReport, m: &mut Measured) -> Probe {
    let config = DiodeConfig::default();
    let machine = &config.machine;
    let mut quiet = machine.clone();
    quiet.record_branches = false;
    let mut p = Probe::default();
    let mut concrete = PerStep::default();
    let mut taint = PerStep::default();
    let mut symbolic = PerStep::default();
    let mut candidate = PerStep::default();
    let mut capture_us = Vec::new();
    let mut resume_us = Vec::new();
    let mut query_us = Vec::new();
    let _ = take_peak_heap_bytes();

    for app in &suite.apps {
        for (seed_index, seed) in app.seeds.iter().enumerate() {
            let program = &app.program;
            let start = Instant::now();
            let r = run(program, seed, Concrete, machine);
            concrete.add(start, r.steps);
            p.seed_steps += r.steps;
            let start = Instant::now();
            let r = run(program, seed, Taint, machine);
            taint.add(start, r.steps);

            let (targets, first_reads) = identify_target_sites_traced(program, seed, machine);
            let all_bytes = targets
                .iter()
                .flat_map(|t| t.relevant_bytes.iter().copied());
            let start = Instant::now();
            let r = run(program, seed, Symbolic::relevant_bytes(all_bytes), machine);
            symbolic.add(start, r.steps);

            // One capture pass places every site's prefix snapshot before
            // the first read of its relevant or checksum-fixup bytes, as
            // the campaign warm-up does.
            let mut stops: Vec<(u64, usize)> = targets
                .iter()
                .enumerate()
                .filter_map(|(i, t)| {
                    let fixups = app.format.fixups().iter().flat_map(|f| {
                        let Fixup::Crc32 { dest, .. } = f;
                        *dest..dest + 4
                    });
                    t.relevant_bytes
                        .iter()
                        .copied()
                        .chain(fixups)
                        .filter_map(|o| first_reads.get(&u64::from(o)).copied())
                        .min()
                        .map(|step| (step, i))
                })
                .collect();
            stops.sort_unstable();
            let steps: Vec<u64> = stops.iter().map(|&(s, _)| s).collect();
            let mut snapshots: Vec<_> = targets.iter().map(|_| None).collect();
            if !steps.is_empty() {
                let start = Instant::now();
                let captured =
                    run_capture_multi(program, seed, Symbolic::relevant_bytes([]), machine, &steps);
                capture_us.push(start.elapsed().as_secs_f64() * 1e6);
                for (&(_, i), snap) in stops.iter().zip(captured) {
                    if let Some(s) = &snap {
                        p.snapshot_bytes += s.approx_bytes();
                    }
                    snapshots[i] = snap;
                }
            }

            let unit = report
                .units
                .iter()
                .find(|u| u.app == app.name && u.seed_index == seed_index);
            for (target, snapshot) in targets.iter().zip(&snapshots) {
                let Some(extraction) = extract(program, seed, target, machine) else {
                    continue;
                };
                let mut inputs = Vec::new();
                if let SolveResult::Sat(model) =
                    p.solve(&extraction.beta, &config.solver, &mut query_us)
                {
                    inputs.push(generate_input(&app.format, seed, &model));
                }
                let bug = unit
                    .and_then(|u| u.sites.iter().find(|s| s.report.label == target.label))
                    .and_then(|s| s.report.outcome.bug());
                if let Some(bug) = bug {
                    let sat = matches!(
                        p.solve(&bug.constraint, &config.solver, &mut query_us),
                        SolveResult::Sat(_)
                    );
                    let triggered =
                        test_candidate(program, &bug.input, target.label, machine).triggered;
                    m.check(sat && triggered, || {
                        format!("{}/{}: witness does not re-validate", app.name, target.site)
                    });
                    inputs.push(bug.input.clone());
                }
                for input in &inputs {
                    let start = Instant::now();
                    let r = run(program, input, Concrete, &quiet);
                    candidate.add(start, r.steps);
                    p.candidate_steps += r.steps;
                    p.candidate_runs += 1;
                    if let Some(snap) = snapshot {
                        let start = Instant::now();
                        if run_from(program, input, snap, &quiet).is_some() {
                            resume_us.push(start.elapsed().as_secs_f64() * 1e6);
                            p.resumes += 1;
                        }
                    }
                }
            }
        }
    }
    p.peak_heap_bytes = take_peak_heap_bytes();

    m.set("interp.concrete_ns_per_step", concrete.ns_per_step());
    m.set("interp.taint_ns_per_step", taint.ns_per_step());
    m.set("interp.symbolic_ns_per_step", symbolic.ns_per_step());
    m.set("interp.candidate_ns_per_step", candidate.ns_per_step());
    m.set("interp.capture_us", median(&capture_us).unwrap_or(0.0));
    m.set("interp.resume_us", median(&resume_us).unwrap_or(0.0));
    m.set("interp.seed_steps", p.seed_steps as f64);
    m.set("interp.candidate_steps", p.candidate_steps as f64);
    m.set("interp.snapshot_bytes", p.snapshot_bytes as f64);
    m.set("interp.peak_heap_bytes", p.peak_heap_bytes as f64);
    m.set("solver.query_us_p50", median(&query_us).unwrap_or(0.0));
    m.set(
        "solver.query_us_p90",
        percentile(&query_us, 90.0).unwrap_or(0.0),
    );
    m.set("solver.conflicts", p.conflicts as f64);
    m.set("solver.decisions", p.decisions as f64);
    m.set("solver.vars", p.vars as f64);
    m.set("solver.interval_decided", p.interval_decided as f64);
    m.set("solver.queries", p.queries as f64);
    p
}
