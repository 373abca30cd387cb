//! The staged DIODE pipeline (Figure 1, §1.3, §4).
//!
//! * **Stage 1 — target site identification** (§4.1): run the program on
//!   the seed under taint tracing; every allocation whose size is
//!   influenced by input bytes is a target site, and its taint labels are
//!   the relevant input bytes.
//! * **Stage 2 — target & branch constraint extraction** (§4.2): re-run
//!   with symbolic recording restricted to the relevant bytes, up to the
//!   site's first allocation; collect the symbolic target expression
//!   there and the branch-condition sequence φ along the path to it.
//! * **Target constraint** (§4.3): β = `overflow(target expression)`.
//! * **Test input generation** (§4.4): patch solver models into the seed
//!   via the format layer's Peach-style reconstruction.
//! * **Error detection** (§4.6): run the candidate concretely; the input
//!   *triggers* the overflow iff the site executed with an overflowed size
//!   computation and a memory error / crash was observed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use diode_format::FormatDesc;
use diode_interp::{
    run, run_to_alloc, Concrete, MachineConfig, Outcome, SiteVisit, Symbolic, Taint,
};
use diode_lang::{Bv, Label, Program};
use diode_solver::Model;
use diode_symbolic::{overflow_condition, SymBool, SymExpr};

use crate::phi::{compress, count_relevant_occurrences, relevant, CompressedCond};

/// A target memory allocation site identified by stage 1.
#[derive(Debug, Clone)]
pub struct TargetSite {
    /// Label of the allocation statement.
    pub label: Label,
    /// Site name (`file@line`).
    pub site: Arc<str>,
    /// Sorted input-byte offsets influencing the target value.
    pub relevant_bytes: Vec<u32>,
    /// The target value observed on the seed.
    pub seed_size: Bv,
}

/// Stage 1: identifies all target sites exercised by the seed.
///
/// Sites executed several times are reported once (first execution), as in
/// the paper's per-site analysis.
#[must_use]
pub fn identify_target_sites(
    program: &Program,
    seed: &[u8],
    machine: &MachineConfig,
) -> Vec<TargetSite> {
    identify_target_sites_traced(program, seed, machine).0
}

/// [`identify_target_sites`] plus the first-read trace of the taint run
/// (input offset → step of its first direct read). The trace is what the
/// per-unit snapshot warm-up (`warm_unit_slots`) needs to place every
/// site's prefix snapshot without a second probing pass.
#[must_use]
pub fn identify_target_sites_traced(
    program: &Program,
    seed: &[u8],
    machine: &MachineConfig,
) -> (Vec<TargetSite>, std::collections::HashMap<u64, u64>) {
    let mut cfg = machine.clone();
    cfg.record_branches = false;
    let (r, trace) = diode_interp::run_traced(program, seed, Taint, &cfg);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for a in &r.allocs {
        if !seen.insert(a.label) {
            continue;
        }
        if a.size_tag.is_empty() {
            continue; // not influenced by the input: not a target site
        }
        out.push(TargetSite {
            label: a.label,
            site: a.site.clone(),
            relevant_bytes: a.size_tag.labels().to_vec(),
            seed_size: a.size,
        });
    }
    (out, trace)
}

/// Stages 2–3: everything extracted for one target site.
#[derive(Debug)]
pub struct Extraction {
    /// The symbolic target expression B.
    pub target_expr: SymExpr,
    /// The target constraint β = overflow(B).
    pub beta: SymBool,
    /// Sorted input bytes appearing in β.
    pub beta_bytes: Vec<u32>,
    /// Compressed, relevant branch conditions along the seed path to the
    /// site (Figure 8 + §3.3), in first-occurrence order.
    pub phi: Vec<CompressedCond>,
    /// Table 2's denominator: dynamic occurrences of relevant conditional
    /// branches on the seed path to the site.
    pub total_relevant: usize,
    /// Wall-clock time spent in the instrumented runs and φ processing.
    pub extraction_time: Duration,
}

/// Stage 2+3: extracts the target expression, β, and φ for `site`.
///
/// The symbolic seed run stops right after the site's first allocation:
/// nothing after it reaches the extraction.
///
/// Returns `None` if the site is not reached on the seed or records no
/// symbolic size (should not happen for stage-1 sites).
#[must_use]
pub fn extract(
    program: &Program,
    seed: &[u8],
    site: &TargetSite,
    machine: &MachineConfig,
) -> Option<Extraction> {
    let start = Instant::now();
    let shadow = Symbolic::relevant_bytes(site.relevant_bytes.iter().copied());
    let visit = run_to_alloc(program, seed, shadow, machine, None, site.label)?;
    extraction_from_visit(visit, start, false)
}

/// [`extract`] resuming the site's symbolic seed run from a concrete
/// prefix snapshot instead of re-executing from `main`: `run_to_alloc`
/// lifts the prefix into the site's `Symbolic::relevant_bytes` policy
/// with no prefix value tagged. That reproduces the extraction from
/// `main` byte for byte when the prefix read none of the site's relevant
/// bytes; the warm pass places the boundary before the first such read,
/// and the lift checks it. Returns `None` when the lift refuses (the
/// prefix read a relevant byte, or the snapshot fails validation; the
/// caller then runs [`extract`]) or, as [`extract`] does, when the site
/// is not reached or records no symbolic size.
#[must_use]
pub(crate) fn extract_resumed(
    program: &Program,
    seed: &[u8],
    site: &TargetSite,
    machine: &MachineConfig,
    snapshot: &diode_interp::Snapshot<Concrete>,
) -> Option<Extraction> {
    let start = Instant::now();
    let shadow = Symbolic::relevant_bytes(site.relevant_bytes.iter().copied());
    let visit = run_to_alloc(program, seed, shadow, machine, Some(snapshot), site.label)?;
    extraction_from_visit(visit, start, true)
}

/// Shared stage-2/3 post-processing: target expression, β, compressed
/// relevant φ.
fn extraction_from_visit(
    visit: SiteVisit<Option<SymExpr>, Option<SymBool>>,
    start: Instant,
    resumed: bool,
) -> Option<Extraction> {
    let target_expr = visit.alloc.size_tag?;
    let beta = overflow_condition(&target_expr);
    let beta_bytes = beta.input_bytes();
    let path = &visit.path;
    let total_relevant = count_relevant_occurrences(path, &beta_bytes);
    let phi = relevant(compress(path), &beta_bytes);
    if diode_obs::audit_active() {
        diode_obs::audit_event(diode_obs::ProvenanceEvent::Extraction {
            relevant_bytes: beta_bytes.clone(),
            total_relevant: total_relevant as u32,
            phi_len: phi.len() as u32,
            boundary: visit.alloc.branches_before as u32,
            resumed,
        });
    }
    Some(Extraction {
        target_expr,
        beta,
        beta_bytes,
        phi,
        total_relevant,
        extraction_time: start.elapsed(),
    })
}

/// Generates a candidate input file from a solver model (§4.4): patch the
/// model's bytes into the seed, then repair checksums.
#[must_use]
pub fn generate_input(format: &FormatDesc, seed: &[u8], model: &Model) -> Vec<u8> {
    format.reconstruct(seed, model.bytes().iter().map(|(&o, &v)| (o, v)))
}

/// The result of running one candidate input (§4.6 error detection).
#[derive(Debug, Clone)]
pub struct CandidateResult {
    /// The overflow was triggered: the target site executed with an
    /// overflowed size computation AND an error was detected.
    pub triggered: bool,
    /// The site executed at all.
    pub site_executed: bool,
    /// Human-readable error classification (Table 2's Error Type column),
    /// e.g. `SIGSEGV/InvalidRead`.
    pub error_type: Option<String>,
    /// Final outcome of the run.
    pub outcome: Outcome,
}

/// Runs a candidate input and decides whether it triggers the overflow at
/// `label`.
///
/// Error detection follows §4.6: the overflow is observed indirectly via
/// memcheck-style invalid reads/writes, segfaults, or aborts. The seed
/// runs of every benchmark are error-free (asserted by the test suites),
/// so no further filtering is needed.
#[must_use]
pub fn test_candidate(
    program: &Program,
    input: &[u8],
    label: Label,
    machine: &MachineConfig,
) -> CandidateResult {
    let mut cfg = machine.clone();
    cfg.record_branches = false;
    classify_run(&run(program, input, Concrete, &cfg), label)
}

/// Classifies an already-executed run against `label` — the §4.6
/// decision shared by [`test_candidate`] and the snapshot-resumed
/// candidate path (which obtains its `Run` from `diode_interp::run_from`
/// on the site's `Concrete` prefix snapshot). The decision reads only
/// shadow-independent facts, so any policy's run classifies alike.
#[must_use]
pub fn classify_run<T, C>(r: &diode_interp::Run<T, C>, label: Label) -> CandidateResult {
    let site_executed = r.allocs_at(label).next().is_some();
    let overflowed = r.overflowed_at(label);
    let error_type = classify_error(&r.outcome, &r.mem_errors);
    let triggered = site_executed && overflowed && error_type.is_some();
    CandidateResult {
        triggered,
        site_executed,
        error_type,
        outcome: r.outcome.clone(),
    }
}

/// Builds Table 2's Error Type string from an outcome + memcheck reports.
#[must_use]
pub fn classify_error(outcome: &Outcome, mem_errors: &[diode_interp::MemError]) -> Option<String> {
    use diode_interp::MemErrorKind;
    let mut kinds: Vec<&str> = Vec::new();
    let mut push = |k: &'static str| {
        if !kinds.contains(&k) {
            kinds.push(k);
        }
    };
    for e in mem_errors {
        match e.kind {
            MemErrorKind::InvalidRead | MemErrorKind::UseAfterFreeRead => push("InvalidRead"),
            MemErrorKind::InvalidWrite | MemErrorKind::UseAfterFreeWrite => push("InvalidWrite"),
            MemErrorKind::DoubleFree => push("DoubleFree"),
        }
    }
    let access = match kinds.as_slice() {
        [] => None,
        [one] => Some((*one).to_string()),
        ["InvalidRead", "InvalidWrite"] | ["InvalidWrite", "InvalidRead"] => {
            Some("InvalidRead/Write".to_string())
        }
        many => Some(many.join("/")),
    };
    match outcome {
        Outcome::Segfault(_) => Some(match access {
            Some(a) => format!("SIGSEGV/{a}"),
            None => "SIGSEGV".to_string(),
        }),
        Outcome::Aborted(_) => Some(match access {
            Some(a) => format!("SIGABRT/{a}"),
            None => "SIGABRT".to_string(),
        }),
        _ => access,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diode_lang::parse;

    const DEMO: &str = r#"
        fn main() {
            n = zext32(in[0]) << 8 | zext32(in[1]);
            if n > 60000 { error("too big"); }
            buf = alloc("demo@4", n * 80000);
            fixed = alloc("fixed@5", 64);
            t = zext64(n) * 80000u64;
            p = 0u64;
            while p < 16u64 {
                buf[t * p / 16u64] = 0u8;
                p = p + 1u64;
            }
        }
    "#;

    fn setup() -> (Program, Vec<u8>) {
        (parse(DEMO).unwrap(), vec![0x00, 0x10, 0xaa])
    }

    #[test]
    fn stage1_identifies_only_input_influenced_sites() {
        let (p, seed) = setup();
        let sites = identify_target_sites(&p, &seed, &MachineConfig::default());
        assert_eq!(sites.len(), 1, "fixed-size alloc must not be a target");
        assert_eq!(&*sites[0].site, "demo@4");
        assert_eq!(sites[0].relevant_bytes, vec![0, 1]);
        assert_eq!(sites[0].seed_size.value(), 16 * 80000);
    }

    #[test]
    fn stage2_extracts_expression_beta_and_phi() {
        let (p, seed) = setup();
        let machine = MachineConfig::default();
        let sites = identify_target_sites(&p, &seed, &machine);
        let ex = extract(&p, &seed, &sites[0], &machine).unwrap();
        // The expression reproduces the seed value and β is satisfiable
        // semantics-wise: n = 60000 (passes the check) overflows n*80000.
        let seed2 = seed.clone();
        let lookup = move |o: u32| seed2.get(o as usize).copied().unwrap_or(0);
        assert_eq!(ex.target_expr.eval(&lookup).value(), 16 * 80000);
        assert!(ex.beta.eval(&|_| 0xea)); // n = 0xEAEA → huge product
        assert_eq!(ex.beta_bytes, vec![0, 1]);
        // φ contains the sanity check (n > 60000 not taken).
        assert_eq!(ex.phi.len(), 1);
        assert!(ex.phi[0].constraint.eval(&lookup));
        assert!(!ex.phi[0].constraint.eval(&|_| 0xff));
        assert_eq!(ex.total_relevant, 1);
    }

    #[test]
    fn candidate_testing_detects_triggering_inputs() {
        let (p, seed) = setup();
        let machine = MachineConfig::default();
        let sites = identify_target_sites(&p, &seed, &machine);
        // n = 0xEA60 = 60000: passes the check; 60000*80000 = 4.8e9 ≥ 2^32.
        let input = vec![0xEA, 0x60, 0xaa];
        let res = test_candidate(&p, &input, sites[0].label, &machine);
        assert!(res.site_executed);
        assert!(res.triggered, "outcome {:?}", res.outcome);
        assert!(res.error_type.is_some());
        // n = 16 (the seed) must not trigger.
        let res = test_candidate(&p, &seed, sites[0].label, &machine);
        assert!(!res.triggered);
        // n = 0xFFFF fails the sanity check: site not executed.
        let res = test_candidate(&p, &[0xff, 0xff, 0], sites[0].label, &machine);
        assert!(!res.site_executed);
        assert!(!res.triggered);
    }

    #[test]
    fn error_classification_strings() {
        use diode_interp::{Fault, MemError, MemErrorKind};
        let me = |kind| MemError {
            kind,
            site: "s@1".into(),
            offset: 10,
            block_size: 4,
            at: Label(0),
        };
        assert_eq!(
            classify_error(&Outcome::Segfault(Fault::NullDeref { at: Label(0) }), &[]),
            Some("SIGSEGV".into())
        );
        assert_eq!(
            classify_error(
                &Outcome::Segfault(Fault::NullDeref { at: Label(0) }),
                &[me(MemErrorKind::InvalidRead)]
            ),
            Some("SIGSEGV/InvalidRead".into())
        );
        assert_eq!(
            classify_error(&Outcome::Completed, &[me(MemErrorKind::InvalidWrite)]),
            Some("InvalidWrite".into())
        );
        assert_eq!(
            classify_error(
                &Outcome::Completed,
                &[
                    me(MemErrorKind::InvalidRead),
                    me(MemErrorKind::InvalidWrite)
                ]
            ),
            Some("InvalidRead/Write".into())
        );
        assert_eq!(
            classify_error(&Outcome::Aborted("oom".into()), &[]),
            Some("SIGABRT".into())
        );
        assert_eq!(classify_error(&Outcome::Completed, &[]), None);
        assert_eq!(
            classify_error(&Outcome::InputRejected("bad".into()), &[]),
            None
        );
    }
}
