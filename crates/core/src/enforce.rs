//! Goal-directed conditional branch enforcement (Figure 7, §3.3).
//!
//! Given a target site, the algorithm:
//!
//! 1. solves the target constraint β alone; if the generated input
//!    triggers the overflow, done (this is how 9 of the paper's 14
//!    overflows are found — "without enforcing any conditional branches");
//! 2. otherwise repeatedly finds the **first** (in program execution
//!    order) relevant compressed seed-path condition the previous
//!    candidate violates — the *first flipped branch* — conjoins it onto
//!    the constraint, re-solves, and re-tests;
//! 3. stops when an input triggers (site *exposed*), the constraint
//!    becomes unsatisfiable, or the candidate satisfies all of φ without
//!    triggering (sanity checks *prevent* the overflow).

use std::sync::Arc;
use std::time::{Duration, Instant};

use diode_format::FormatDesc;
use diode_interp::{run, run_from, Concrete, MachineConfig};
use diode_lang::{Label, Program};
use diode_solver::{solve_with, SolveResult, SolverCache, SolverConfig};
use diode_symbolic::SymBool;

use crate::pipeline::{classify_run, extract, extract_resumed, generate_input, CandidateResult};
use crate::pipeline::{Extraction, TargetSite};
use crate::snapshot::SiteSlot;

/// Why the enforcement loop concluded that no overflow-triggering input
/// exists (within budget).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreventedReason {
    /// φ' ∧ β became unsatisfiable after enforcing some branches.
    ConstraintUnsat {
        /// Branches enforced before unsatisfiability.
        enforced: usize,
    },
    /// The candidate satisfied every relevant compressed condition yet did
    /// not trigger the overflow (Figure 7 line 11).
    SatisfiesPhi {
        /// Branches enforced before the loop exited.
        enforced: usize,
    },
    /// Budget (enforcement count or solver) exhausted.
    Budget,
}

/// Outcome of analysing one target site.
#[derive(Debug, Clone)]
pub enum SiteOutcome {
    /// An overflow-triggering input was generated.
    Exposed(Bug),
    /// β itself is unsatisfiable — no input can overflow the observed
    /// target expression.
    TargetUnsat,
    /// Sanity checks prevent the overflow.
    Prevented(PreventedReason),
    /// The solver gave up (should not happen on the benchmarks).
    Unknown,
}

impl SiteOutcome {
    /// The generated bug, if the site was exposed.
    #[must_use]
    pub fn bug(&self) -> Option<&Bug> {
        match self {
            SiteOutcome::Exposed(b) => Some(b),
            _ => None,
        }
    }

    /// Stable outcome token used by corpus witnesses and provenance
    /// verdict events (`exposed`, `target-unsat`, `prevented:*`,
    /// `unknown`).
    #[must_use]
    pub fn token(&self) -> String {
        match self {
            SiteOutcome::Exposed(_) => "exposed".to_string(),
            SiteOutcome::TargetUnsat => "target-unsat".to_string(),
            SiteOutcome::Prevented(PreventedReason::ConstraintUnsat { enforced }) => {
                format!("prevented:constraint-unsat:{enforced}")
            }
            SiteOutcome::Prevented(PreventedReason::SatisfiesPhi { enforced }) => {
                format!("prevented:satisfies-phi:{enforced}")
            }
            SiteOutcome::Prevented(PreventedReason::Budget) => "prevented:budget".to_string(),
            SiteOutcome::Unknown => "unknown".to_string(),
        }
    }
}

/// A generated overflow-triggering input and its metadata (one Table 2
/// row).
#[derive(Debug, Clone)]
pub struct Bug {
    /// The triggering input file.
    pub input: Vec<u8>,
    /// Number of conditional branches enforced before triggering.
    pub enforced: usize,
    /// Labels of the enforced branches, in enforcement order.
    pub enforced_labels: Vec<Label>,
    /// Error classification observed on the triggering run.
    pub error_type: String,
    /// The final solved constraint (φ' ∧ β) — the query behind Table 2's
    /// "Target + Enforced Success Rate" experiment (§5.6).
    pub constraint: SymBool,
}

/// Prefix-snapshot telemetry for one site's enforcement loop.
#[derive(Debug, Clone)]
pub struct SiteSnapshotInfo {
    /// Step count of the statement performing the first read of the
    /// site's relevant or checksum bytes on the seed run, just before
    /// which the warm pass captured its prefix snapshot (`None`: the
    /// slot is not ready, so every candidate ran from `main`).
    pub first_divergent_step: Option<u64>,
    /// Candidate inputs executed for this site.
    pub candidates: u64,
    /// Candidate executions resumed from the prefix snapshot.
    pub resumed: u64,
    /// The stage-2 extraction itself resumed from the prefix snapshot.
    pub extract_resumed: bool,
}

/// A full per-site analysis report.
#[derive(Debug)]
pub struct SiteReport {
    /// Site name.
    pub site: String,
    /// Site label.
    pub label: Label,
    /// Relevant input bytes (stage 1).
    pub relevant_bytes: Vec<u32>,
    /// Outcome (exposed / unsat / prevented).
    pub outcome: SiteOutcome,
    /// Total dynamic occurrences of relevant branches on the seed path
    /// (Table 2's denominator).
    pub total_relevant: usize,
    /// Number of distinct relevant compressed conditions in φ.
    pub phi_len: usize,
    /// Wall-clock discovery time for this site (extraction excluded).
    pub discovery_time: Duration,
    /// The extraction (target expression, β, φ), for further experiments.
    pub extraction: Option<Extraction>,
    /// Prefix-snapshot telemetry (`None` when the analysis ran without a
    /// snapshot slot, or the extraction failed).
    pub snapshot: Option<SiteSnapshotInfo>,
    /// Largest interpreter-heap high-water mark among this site's runs
    /// (extraction, candidates, validation) on this thread — the site's
    /// peak simulated-memory footprint. Deterministic: a function of
    /// the executed programs, not the host.
    pub peak_heap_bytes: u64,
}

/// Tunables for the site analysis.
#[derive(Debug, Clone)]
pub struct DiodeConfig {
    /// Interpreter limits.
    pub machine: MachineConfig,
    /// Solver limits.
    pub solver: SolverConfig,
    /// Safety bound on enforcement iterations (the paper's sites need at
    /// most 5; the bound only guards against pathological programs).
    pub max_enforcements: usize,
    /// Optional shared solver-query cache. When set, every deterministic
    /// (diversity-free) constraint query in the enforcement loop is
    /// memoized through it; `diode-engine` campaigns install one cache
    /// across all workers so repeated φ′∧β queries are answered without
    /// re-blasting. `None` keeps the original solve-from-scratch path.
    pub query_cache: Option<Arc<SolverCache>>,
}

impl Default for DiodeConfig {
    fn default() -> Self {
        DiodeConfig {
            machine: MachineConfig::default(),
            solver: SolverConfig::default(),
            max_enforcements: 32,
            query_cache: None,
        }
    }
}

impl DiodeConfig {
    /// This configuration with `cache` installed as the query cache.
    #[must_use]
    pub fn with_query_cache(mut self, cache: Arc<SolverCache>) -> Self {
        self.query_cache = Some(cache);
        self
    }

    /// Solves a deterministic constraint query, through the shared cache
    /// when one is installed.
    #[must_use]
    pub fn solve_query(&self, cond: &SymBool) -> SolveResult {
        self.solve_query_for(cond, diode_obs::QueryOrigin::Other)
    }

    /// [`DiodeConfig::solve_query`] with provenance attribution: when the
    /// current job scope is auditing, records a query event carrying the
    /// structural constraint fingerprint, the originating decision, the
    /// solver's answer, and (cached queries only) advisory cache-hit
    /// attribution. Costs nothing extra when auditing is off.
    #[must_use]
    pub fn solve_query_for(&self, cond: &SymBool, origin: diode_obs::QueryOrigin) -> SolveResult {
        // Fingerprint only under an auditing scope: hashing the whole
        // constraint is not free, and neither is the hex string.
        let fingerprint = diode_obs::audit_active().then(|| diode_solver::fingerprint_hex(cond));
        let (result, cache_hit) = match &self.query_cache {
            // The cache records its own solve span, with per-query
            // hit/miss attribution.
            Some(cache) => {
                let (result, hit) = cache.solve_with_info(cond, &self.solver);
                (result, Some(hit))
            }
            None => {
                let _span = diode_obs::span(diode_obs::Phase::Solve);
                diode_obs::count("solver.queries", 1);
                let (result, stats) = solve_with(cond, &self.solver, None);
                stats.count();
                (result, None)
            }
        };
        if let Some(fingerprint) = fingerprint {
            let verdict = match &result {
                SolveResult::Sat(_) => diode_obs::QueryVerdict::Sat,
                SolveResult::Unsat => diode_obs::QueryVerdict::Unsat,
                SolveResult::Unknown => diode_obs::QueryVerdict::Unknown,
            };
            diode_obs::audit_event(diode_obs::ProvenanceEvent::Query {
                origin,
                fingerprint,
                verdict,
                cache_hit,
            });
        }
        result
    }
}

/// Runs every candidate input of one site's enforcement loop, resuming
/// from the slot's prefix snapshot when the warm pass left one there.
/// The snapshot is `Concrete`, so a resumed candidate runs its suffix as
/// a run from `main` does, with no shadow tags. Without a ready slot
/// this is plain [`test_candidate`](crate::test_candidate) behaviour.
struct CandidateTester<'a> {
    program: &'a Program,
    label: Label,
    /// The candidate-run config (branch recording off, as always). A
    /// resume under it starts from an empty branch log, so it copies
    /// none of the snapshot's prefix log.
    machine: MachineConfig,
    slot: Option<Arc<SiteSlot>>,
    candidates: u64,
    resumed: u64,
}

impl<'a> CandidateTester<'a> {
    fn new(
        program: &'a Program,
        label: Label,
        machine: &MachineConfig,
        slot: Option<Arc<SiteSlot>>,
    ) -> CandidateTester<'a> {
        let mut machine = machine.clone();
        machine.record_branches = false;
        CandidateTester {
            program,
            label,
            machine,
            slot,
            candidates: 0,
            resumed: 0,
        }
    }

    fn test(&mut self, input: &[u8]) -> CandidateResult {
        self.candidates += 1;
        if let Some(slot) = &self.slot {
            match slot.snapshot() {
                Some(snapshot) => {
                    let resumed = run_from(self.program, input, &snapshot, &self.machine);
                    slot.count_hit(resumed.is_some());
                    if let Some(r) = resumed {
                        self.resumed += 1;
                        return classify_run(&r, self.label);
                    }
                }
                None => slot.count_miss(),
            }
        }
        classify_run(
            &run(self.program, input, Concrete, &self.machine),
            self.label,
        )
    }
}

/// Runs the complete DIODE analysis for one target site (Figure 7),
/// every run from `main`.
#[must_use]
pub fn analyze_site(
    program: &Program,
    seed: &[u8],
    format: &FormatDesc,
    site: &TargetSite,
    config: &DiodeConfig,
) -> SiteReport {
    analyze_site_with_snapshots(program, seed, format, site, config, None)
}

/// [`analyze_site`] with an explicit snapshot slot — the campaign entry
/// point: `diode-engine` hands every worker the per-`(unit, site)` slot
/// of its shared [`SnapshotCache`](crate::SnapshotCache), warmed by
/// [`warm_unit_slots`](crate::warm_unit_slots), so counters aggregate
/// campaign-wide. A ready slot's snapshot resumes the extraction and
/// every candidate; `None` runs everything from `main` and reports no
/// snapshot telemetry.
#[must_use]
pub fn analyze_site_with_snapshots(
    program: &Program,
    seed: &[u8],
    format: &FormatDesc,
    site: &TargetSite,
    config: &DiodeConfig,
    slot: Option<Arc<SiteSlot>>,
) -> SiteReport {
    // Start a fresh per-site window on the thread-local peak-heap
    // gauge; every interpreter run below notes its heap peak there.
    let _ = diode_interp::take_peak_heap_bytes();
    // A ready slot resumes the stage-2 symbolic seed run from the site's
    // prefix snapshot, lifted into the site's policy; a lift that
    // refuses, like a slot without a snapshot, re-executes from `main`.
    let mut extract_was_resumed = false;
    let extraction = {
        let _span = diode_obs::span(diode_obs::Phase::Extract);
        match slot.as_ref().and_then(|s| s.snapshot()) {
            Some(snapshot) => {
                match extract_resumed(program, seed, site, &config.machine, &snapshot) {
                    Some(e) => {
                        extract_was_resumed = true;
                        slot.as_ref().unwrap().count_extract_resume();
                        Some(e)
                    }
                    None => extract(program, seed, site, &config.machine),
                }
            }
            None => extract(program, seed, site, &config.machine),
        }
    };
    let Some(extraction) = extraction else {
        diode_obs::audit_event(diode_obs::ProvenanceEvent::Verdict {
            outcome: SiteOutcome::Unknown.token(),
            enforced: 0,
            witness: None,
        });
        return SiteReport {
            site: site.site.to_string(),
            label: site.label,
            relevant_bytes: site.relevant_bytes.clone(),
            outcome: SiteOutcome::Unknown,
            total_relevant: 0,
            phi_len: 0,
            discovery_time: Duration::ZERO,
            extraction: None,
            snapshot: None,
            peak_heap_bytes: diode_interp::take_peak_heap_bytes(),
        };
    };
    let start = Instant::now();
    let mut tester = CandidateTester::new(program, site.label, &config.machine, slot);
    let outcome = {
        let _span = diode_obs::span(diode_obs::Phase::Enforce);
        enforce_with(seed, format, &extraction, config, &mut tester)
    };
    if diode_obs::audit_active() {
        // The enforced count mirrors what the verdict itself reports
        // (Budget terminates with exactly `max_enforcements` enforced).
        let (enforced, witness) = match &outcome {
            SiteOutcome::Exposed(bug) => (bug.enforced, Some(diode_obs::fnv64_hex(&bug.input))),
            SiteOutcome::Prevented(PreventedReason::ConstraintUnsat { enforced })
            | SiteOutcome::Prevented(PreventedReason::SatisfiesPhi { enforced }) => {
                (*enforced, None)
            }
            SiteOutcome::Prevented(PreventedReason::Budget) => (config.max_enforcements, None),
            SiteOutcome::TargetUnsat | SiteOutcome::Unknown => (0, None),
        };
        diode_obs::audit_event(diode_obs::ProvenanceEvent::Verdict {
            outcome: outcome.token(),
            enforced: enforced as u32,
            witness,
        });
    }
    let snapshot = tester.slot.as_ref().map(|slot| SiteSnapshotInfo {
        first_divergent_step: slot.first_divergent_step(),
        candidates: tester.candidates,
        resumed: tester.resumed,
        extract_resumed: extract_was_resumed,
    });
    SiteReport {
        site: site.site.to_string(),
        label: site.label,
        relevant_bytes: site.relevant_bytes.clone(),
        outcome,
        total_relevant: extraction.total_relevant,
        phi_len: extraction.phi.len(),
        discovery_time: start.elapsed(),
        extraction: Some(extraction),
        snapshot,
        peak_heap_bytes: diode_interp::take_peak_heap_bytes(),
    }
}

/// The Figure 7 loop, operating on an existing extraction. Every
/// candidate runs from `main`.
#[must_use]
pub fn enforce(
    program: &Program,
    seed: &[u8],
    format: &FormatDesc,
    label: Label,
    extraction: &Extraction,
    config: &DiodeConfig,
) -> SiteOutcome {
    let mut tester = CandidateTester::new(program, label, &config.machine, None);
    let _span = diode_obs::span(diode_obs::Phase::Enforce);
    enforce_with(seed, format, extraction, config, &mut tester)
}

/// The Figure 7 loop body, with candidate execution delegated to the
/// (possibly snapshot-resuming) tester.
#[must_use]
fn enforce_with(
    seed: &[u8],
    format: &FormatDesc,
    extraction: &Extraction,
    config: &DiodeConfig,
    tester: &mut CandidateTester<'_>,
) -> SiteOutcome {
    // Line 2–3: solve β alone.
    let first = config.solve_query_for(&extraction.beta, diode_obs::QueryOrigin::Beta);
    let model = match first {
        SolveResult::Unsat => return SiteOutcome::TargetUnsat,
        SolveResult::Unknown => return SiteOutcome::Unknown,
        SolveResult::Sat(m) => m,
    };
    let mut current_input = generate_input(format, seed, &model);

    // Line 4–5: does the initial input already trigger?
    let res = tester.test(&current_input);
    if res.triggered {
        return SiteOutcome::Exposed(Bug {
            input: current_input,
            enforced: 0,
            enforced_labels: Vec::new(),
            error_type: res.error_type.unwrap_or_default(),
            constraint: extraction.beta.clone(),
        });
    }

    // Lines 9–16: goal-directed enforcement, with one refinement over the
    // literal Figure 7 pseudo-code. For a conditional branch that executes
    // many times (a blocking loop à la png_memset), the compressed
    // condition pins the loop's trip count; enforcing it would make the
    // constraint unsatisfiable even though the overflow is reachable — the
    // paper's §2 narrative shows DIODE enforcing the *sanity checks*
    // instead. We therefore try the violated conditions in execution
    // order and permanently skip any whose enforcement is unsatisfiable
    // (sound: φ' only grows, so unsatisfiability is monotone). A skipped
    // blocking check is exactly the freedom §1.1 describes: the input may
    // traverse blocking checks along a different path.
    let mut phi_prime = SymBool::Const(true);
    let mut enforced_labels: Vec<Label> = Vec::new();
    let mut skipped: std::collections::HashSet<usize> = std::collections::HashSet::new();
    let mut iteration: u32 = 0;
    loop {
        iteration += 1;
        if enforced_labels.len() >= config.max_enforcements {
            diode_obs::audit_event(diode_obs::ProvenanceEvent::Budget { iteration });
            return SiteOutcome::Prevented(PreventedReason::Budget);
        }
        // Line 11–12: the first conditions in φ the previous input
        // violates, in program execution order.
        let input = current_input.clone();
        let lookup = move |o: u32| input.get(o as usize).copied().unwrap_or(0);
        let mut violated: Vec<usize> = extraction
            .phi
            .iter()
            .enumerate()
            .filter(|(i, c)| !skipped.contains(i) && !c.constraint.eval(&lookup))
            .map(|(i, _)| i)
            .collect();
        // Prefer enforcing check-like branches (a single dynamic
        // occurrence) over loop-exit branches (many occurrences, whose
        // compressed condition pins a trip count): the paper's enforced
        // branches are all sanity checks (§5.3), while loop conditions are
        // the blocking checks an input must remain free to flip (§1.1).
        violated.sort_by_key(|&i| (extraction.phi[i].occurrences > 1, i));
        if violated.is_empty() {
            return SiteOutcome::Prevented(PreventedReason::SatisfiesPhi {
                enforced: enforced_labels.len(),
            });
        }
        // Line 13: enforce the first violated condition whose conjunction
        // with φ' ∧ β stays satisfiable.
        let mut advanced = false;
        for idx in violated {
            let cond = &extraction.phi[idx];
            diode_obs::audit_event(diode_obs::ProvenanceEvent::Enforce {
                iteration,
                condition: idx as u32,
                label: cond.label.0,
                action: diode_obs::EnforceAction::Considered,
            });
            // β is the right-hand conjunct on purpose: the solver encodes
            // it first and replays that encoding, recorded by the site's
            // β query, instead of encoding β again (`diode_solver::blast`).
            let query = phi_prime.and(&cond.constraint).and(&extraction.beta);
            match config.solve_query_for(&query, diode_obs::QueryOrigin::Enforce) {
                SolveResult::Unsat => {
                    diode_obs::audit_event(diode_obs::ProvenanceEvent::Enforce {
                        iteration,
                        condition: idx as u32,
                        label: cond.label.0,
                        action: diode_obs::EnforceAction::SkippedUnsat,
                    });
                    skipped.insert(idx);
                }
                SolveResult::Unknown => return SiteOutcome::Unknown,
                SolveResult::Sat(model) => {
                    diode_obs::audit_event(diode_obs::ProvenanceEvent::Enforce {
                        iteration,
                        condition: idx as u32,
                        label: cond.label.0,
                        action: diode_obs::EnforceAction::Enforced,
                    });
                    phi_prime = phi_prime.and(&cond.constraint);
                    enforced_labels.push(cond.label);
                    current_input = generate_input(format, seed, &model);
                    advanced = true;
                    // Line 14–15: test the new input.
                    let res = tester.test(&current_input);
                    if res.triggered {
                        return SiteOutcome::Exposed(Bug {
                            input: current_input,
                            enforced: enforced_labels.len(),
                            enforced_labels,
                            error_type: res.error_type.unwrap_or_default(),
                            constraint: query,
                        });
                    }
                    break;
                }
            }
        }
        if !advanced {
            // Every remaining flipped condition is unsatisfiable with β.
            return SiteOutcome::Prevented(PreventedReason::ConstraintUnsat {
                enforced: enforced_labels.len(),
            });
        }
    }
}

/// §5.4's blocking-check experiment: is β conjoined with *every* relevant
/// compressed seed-path condition (the "same path through the relevant
/// branches" constraint) still satisfiable? For the paper's benchmarks
/// this holds for only 2 of the 14 exposed sites.
#[must_use]
pub fn full_path_constraint_satisfiable(
    extraction: &Extraction,
    solver: &SolverConfig,
) -> Option<bool> {
    let mut query = extraction.beta.clone();
    for c in &extraction.phi {
        query = query.and(&c.constraint);
    }
    match solve_with(&query, solver, None).0 {
        SolveResult::Sat(_) => Some(true),
        SolveResult::Unsat => Some(false),
        SolveResult::Unknown => None,
    }
}

#[allow(unused)]
fn _assert_api_types_are_send() {
    fn check<T: Send>() {}
    check::<DiodeConfig>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::identify_target_sites_traced;
    use crate::snapshot::{warm_unit_slots, SnapshotCache};
    use diode_lang::parse;
    use std::collections::HashMap;

    /// Two sites behind a shared prefix: site 2's candidates replay the
    /// full processing of site 1 unless snapshots cut it away.
    const TWO_SITES: &str = r#"fn main() {
        a = zext32(in[0]) << 8 | zext32(in[1]);
        if a > 200 { error("a too big"); }
        buf0 = alloc("s0@3", a * 30000000);
        i = 0;
        while i < a { buf0[i] = trunc8(i); i = i + 1; }
        free(buf0);
        b = zext32(in[2]) << 8 | zext32(in[3]);
        if b > 60000 { error("b too big"); }
        buf1 = alloc("s1@9", b * 80000);
    }"#;

    const SEED: [u8; 4] = [0x00, 0x08, 0x00, 0x10];

    /// One site that reads its two size bytes in two statements, with a
    /// guard on the first between them.
    const SPLIT_READS: &str = r#"fn main() {
        k = zext32(in[0]);
        if k != 7 { error("bad kind"); }
        n = zext32(in[1]);
        buf = alloc("s@4", (k + n) * 20000000);
        t = zext64(k + n) * 20000000u64;
        p = 0u64;
        while p < 16u64 { buf[t * p / 16u64] = 0u8; p = p + 1u64; }
    }"#;

    /// One unit: its sites, the seed's first-read trace, and one slot
    /// per site from a fresh cache (so the slots share the cache's
    /// counters).
    struct Unit {
        program: Program,
        seed: Vec<u8>,
        format: FormatDesc,
        config: DiodeConfig,
        targets: Vec<TargetSite>,
        first_reads: HashMap<u64, u64>,
        cache: SnapshotCache,
        slots: Vec<Arc<SiteSlot>>,
    }

    impl Unit {
        fn new(src: &str, seed: &[u8]) -> Unit {
            let program = parse(src).unwrap();
            let config = DiodeConfig::default();
            let (targets, first_reads) =
                identify_target_sites_traced(&program, seed, &config.machine);
            let cache = SnapshotCache::new();
            let slots = targets.iter().map(|t| cache.slot(0, t.label)).collect();
            Unit {
                program,
                seed: seed.to_vec(),
                format: FormatDesc::new("unit"),
                config,
                targets,
                first_reads,
                cache,
                slots,
            }
        }

        /// Runs the warm pass over every slot with this first-read trace.
        fn warm(&self, first_reads: &HashMap<u64, u64>) {
            warm_unit_slots(
                &self.program,
                &self.seed,
                &self.format,
                &self.targets,
                &self.config.machine,
                first_reads,
                &self.slots,
            );
        }

        /// Site `i`'s report, through its slot or with none.
        fn analyze(&self, i: usize, with_slot: bool) -> SiteReport {
            let slot = with_slot.then(|| Arc::clone(&self.slots[i]));
            let site = &self.targets[i];
            analyze_site_with_snapshots(
                &self.program,
                &self.seed,
                &self.format,
                site,
                &self.config,
                slot,
            )
        }
    }

    /// Every site's report: from slots the warm pass set (`warmed`), or
    /// with no slot, every run from `main`.
    fn reports(warmed: bool) -> Vec<SiteReport> {
        let unit = Unit::new(TWO_SITES, &SEED);
        if warmed {
            unit.warm(&unit.first_reads);
        }
        (0..unit.targets.len())
            .map(|i| unit.analyze(i, warmed))
            .collect()
    }

    #[test]
    fn snapshot_and_full_paths_classify_identically() {
        let on = reports(true);
        let off = reports(false);
        assert_eq!(on.len(), 2);
        for (a, b) in on.iter().zip(&off) {
            assert_eq!(a.site, b.site);
            assert_eq!(format!("{:?}", a.outcome), format!("{:?}", b.outcome));
            assert!(b.snapshot.is_none(), "no slot, no telemetry");
        }
    }

    #[test]
    fn enforcement_loop_reports_snapshot_telemetry() {
        for r in &reports(true) {
            let info = r.snapshot.as_ref().expect("warmed slot");
            assert!(info.candidates >= 1, "{}: {info:?}", r.site);
            assert!(
                info.first_divergent_step.is_some(),
                "{}: the warm pass set the slot ready",
                r.site
            );
            // A warmed slot serves every candidate and the extraction.
            assert_eq!(info.resumed, info.candidates, "{}: {info:?}", r.site);
            assert!(info.extract_resumed, "{}: {info:?}", r.site);
        }
    }

    #[test]
    fn a_boundary_past_the_seed_run_leaves_the_slot_inert() {
        let unit = Unit::new(TWO_SITES, &SEED);
        let end = run(&unit.program, &unit.seed, Concrete, &unit.config.machine).steps;
        // Site 2 reads bytes 2 and 3; claim their first reads lie past the
        // end of the seed run, so the capture pass never reaches them.
        let late = 1;
        let mut moved = unit.first_reads.clone();
        for &o in &unit.targets[late].relevant_bytes {
            moved.insert(u64::from(o), end + 1);
        }
        unit.warm(&moved);
        assert!(
            unit.slots[0].first_divergent_step().is_some(),
            "site 1 is ready"
        );
        assert_eq!(unit.slots[late].first_divergent_step(), None);
        assert_eq!(unit.cache.stats().captures, 1);

        let report = unit.analyze(late, true);
        let info = report.snapshot.as_ref().expect("a slot was passed");
        assert_eq!(info.first_divergent_step, None);
        assert_eq!((info.resumed, info.extract_resumed), (0, false));
        let stats = unit.cache.stats();
        assert_eq!(stats.misses, info.candidates, "{stats:?}");
        assert_eq!(stats.hits, 0);
        let plain = unit.analyze(late, false);
        assert_eq!(
            format!("{:?}", report.outcome),
            format!("{:?}", plain.outcome)
        );

        // The inert slot is set: warming again, now with the true trace,
        // captures nothing.
        unit.warm(&unit.first_reads);
        assert_eq!(unit.slots[late].first_divergent_step(), None);
        assert_eq!(unit.cache.stats().captures, 1);
    }

    /// A report's verdict and extraction, without timings.
    fn image(r: &SiteReport) -> String {
        let e = r.extraction.as_ref().expect("the site was extracted");
        format!(
            "bytes {:?}\nbeta {:?}\ntarget {:?}\nphi {:?}\nrelevant {}\n{:?}",
            e.beta_bytes, e.beta, e.target_expr, e.phi, e.total_relevant, r.outcome
        )
    }

    #[test]
    fn a_boundary_past_a_site_byte_read_extracts_from_main() {
        let unit = Unit::new(SPLIT_READS, &[7, 1]);
        assert_eq!(unit.targets.len(), 1);
        assert_eq!(unit.targets[0].relevant_bytes, vec![0, 1]);
        // Claim byte 0 is first read where byte 1 is, so the boundary
        // lands between the two reads and the prefix has read byte 0.
        let second = unit.first_reads[&1];
        let mut moved = unit.first_reads.clone();
        moved.insert(0, second);
        unit.warm(&moved);
        assert_eq!(unit.slots[0].first_divergent_step(), Some(second));

        let report = unit.analyze(0, true);
        let plain = unit.analyze(0, false);
        // The site's policy tags byte 0, so the lift refuses that prefix
        // and stage 2 runs from `main`: β keeps both bytes.
        assert_eq!(image(&report), image(&plain));
        assert!(matches!(report.outcome, SiteOutcome::Exposed(_)));
        let info = report.snapshot.as_ref().expect("a slot was passed");
        assert!(!info.extract_resumed, "{info:?}");
        // A concrete resume has no such precondition: candidates that
        // keep byte 0 still resume.
        assert!(info.resumed >= 1, "{info:?}");
    }
}
