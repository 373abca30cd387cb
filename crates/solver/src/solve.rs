//! High-level constraint-solving API.
//!
//! This is the interface DIODE's pipeline calls where the paper calls Z3
//! (§4.3): solve a [`SymBool`] constraint over input bytes and get back a
//! [`Model`] (an assignment to the constrained bytes), report `Unsat`, or
//! give up on a budget.
//!
//! Two extra entry points support the paper's evaluation protocol:
//!
//! * [`sample`] draws *n* diversified models by re-solving with randomised
//!   decision polarities and activity jitter — this regenerates the
//!   "200 inputs that satisfy the target constraint" experiments of
//!   §5.5/§5.6 (Table 2's success-rate columns);
//! * [`enumerate`] lists models up to a limit with blocking clauses —
//!   which, for CVE-2008-2430's `x + 2` target expression, proves there
//!   are exactly two overflowing inputs (§5.5).
//!
//! Every query is blasted by one function (`encode_query`) and solved on
//! the calling thread's SAT workspace (see [`crate::sat`]), reset to a
//! fresh solver first, so a query's result and counters do not depend on
//! what the thread solved before. A [`solve_with`] query without a
//! diversity seed starts from the workspace's recorded prefix when its
//! right-hand conjunct (the whole query if it is not an `And`) is the
//! one the prefix encodes, and records its own otherwise (see
//! [`crate::blast`]): the enforcement loop's φ′∧β queries then encode β
//! once per site. [`sample`]'s seeded solves and [`enumerate`] build the
//! same CNF but neither read nor replace the prefix, so they cannot
//! evict a site's β. The CNF and the search are the same either way.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use diode_symbolic::SymBool;

use crate::blast::Blaster;
use crate::interval::{cond_range, Tri};
use crate::sat::{with_workspace, Lit, SatConfig, SatOutcome, Workspace};

/// Configuration for the high-level solver.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Conflict budget per SAT call.
    pub max_conflicts: u64,
    /// Run the unsigned-interval pre-analysis before bit-blasting
    /// (ablation switch; see `diode-bench`).
    pub interval_presolve: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_conflicts: 2_000_000,
            interval_presolve: true,
        }
    }
}

/// An assignment to the input bytes that occur in the solved constraint.
/// Bytes outside the map are unconstrained (keep the seed's value).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Model {
    bytes: BTreeMap<u32, u8>,
}

impl Model {
    /// Creates a model from explicit byte assignments (mainly for tests).
    #[must_use]
    pub fn from_bytes<I: IntoIterator<Item = (u32, u8)>>(bytes: I) -> Self {
        Model {
            bytes: bytes.into_iter().collect(),
        }
    }

    /// The value assigned to the byte at `offset`, if constrained.
    #[must_use]
    pub fn byte(&self, offset: u32) -> Option<u8> {
        self.bytes.get(&offset).copied()
    }

    /// All constrained byte offsets and values.
    #[must_use]
    pub fn bytes(&self) -> &BTreeMap<u32, u8> {
        &self.bytes
    }

    /// Overlays this model on a base input: returns a lookup function
    /// suitable for [`SymBool::eval`].
    pub fn lookup_over<'a>(&'a self, base: &'a [u8]) -> impl Fn(u32) -> u8 + 'a {
        move |off| {
            self.byte(off)
                .unwrap_or_else(|| base.get(off as usize).copied().unwrap_or(0))
        }
    }

    /// Patches the model's bytes into a mutable buffer (offsets past the
    /// end are ignored).
    pub fn patch(&self, buffer: &mut [u8]) {
        for (&off, &v) in &self.bytes {
            if let Some(slot) = buffer.get_mut(off as usize) {
                *slot = v;
            }
        }
    }
}

/// Result of a solve call.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveResult {
    /// Satisfiable, with a model.
    Sat(Model),
    /// Proven unsatisfiable.
    Unsat,
    /// Budget exhausted.
    Unknown,
}

impl SolveResult {
    /// The model, if satisfiable.
    #[must_use]
    pub fn model(&self) -> Option<&Model> {
        match self {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// True if proven unsatisfiable.
    #[must_use]
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolveResult::Unsat)
    }
}

/// Statistics from a solve call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveStats {
    /// Conflicts in the SAT search.
    pub conflicts: u64,
    /// Decisions in the SAT search.
    pub decisions: u64,
    /// Literals propagated in the SAT search.
    pub propagations: u64,
    /// CNF variables created.
    pub vars: usize,
    /// True if the interval pre-analysis decided the query by itself.
    pub decided_by_interval: bool,
    /// Clauses in the store when the search started.
    clauses: usize,
    /// True if the query started from a recorded prefix.
    replayed: bool,
}

impl SolveStats {
    /// Adds this query's work to the current job scope's counters (a
    /// no-op outside a job scope): the search's `solver.conflicts`,
    /// `solver.decisions` and `solver.propagations`, the CNF's
    /// `solver.cnf_vars` and `solver.cnf_clauses`, and
    /// `solver.prefix_replays` when it started from a recorded prefix.
    pub fn count(&self) {
        diode_obs::count("solver.conflicts", self.conflicts);
        diode_obs::count("solver.decisions", self.decisions);
        diode_obs::count("solver.propagations", self.propagations);
        diode_obs::count("solver.cnf_vars", self.vars as u64);
        diode_obs::count("solver.cnf_clauses", self.clauses as u64);
        diode_obs::count("solver.prefix_replays", u64::from(self.replayed));
    }
}

/// Solves a constraint with the default configuration.
#[must_use]
pub fn solve(cond: &SymBool) -> SolveResult {
    solve_with(cond, &SolverConfig::default(), None).0
}

/// Solves a constraint, optionally seeding decision polarities for model
/// diversity, and returns statistics.
#[must_use]
pub fn solve_with(
    cond: &SymBool,
    config: &SolverConfig,
    diversity_seed: Option<u64>,
) -> (SolveResult, SolveStats) {
    let mut stats = SolveStats::default();
    // Tri::True still needs a model, so only Unsat short-circuits here.
    if config.interval_presolve && cond_range(cond) == Tri::False {
        stats.decided_by_interval = true;
        return (SolveResult::Unsat, stats);
    }
    with_workspace(sat_config(config), |ws| {
        let (mut blaster, replayed) = encode_query(ws, cond, diversity_seed.is_none());
        stats.replayed = replayed;
        if let Some(seed) = diversity_seed {
            let mut rng = StdRng::seed_from_u64(seed);
            let all_vars: Vec<_> = blaster
                .byte_bits()
                .values()
                .flatten()
                .map(|l| l.var())
                .collect();
            for v in all_vars {
                let polarity: bool = rng.gen();
                let bump: f64 = rng.gen::<f64>() * 0.5;
                blaster.sat_mut().set_polarity(v, polarity);
                blaster.sat_mut().bump_activity_seed(v, bump);
            }
        }
        stats.clauses = blaster.sat_ref().n_clauses();
        let outcome = blaster.sat_mut().solve();
        let sat = blaster.sat_ref();
        stats.conflicts = sat.conflicts();
        stats.decisions = sat.decisions();
        stats.propagations = sat.propagations();
        stats.vars = sat.n_vars();
        let result = match outcome {
            SatOutcome::Sat => SolveResult::Sat(model(&blaster)),
            SatOutcome::Unsat => SolveResult::Unsat,
            SatOutcome::Unknown => SolveResult::Unknown,
        };
        (result, stats)
    })
}

/// Encodes and asserts `cond` on `ws`'s reset solver, building the CNF
/// [`Blaster::assert_cond`] builds. The right-hand conjunct of an `And`
/// (the whole query otherwise) is encoded first. With `reuse`, it is
/// replayed from the workspace's prefix when that prefix encodes it, and
/// recorded as the new prefix otherwise; without, the prefix is neither
/// read nor replaced. Returns the blaster and whether it replayed.
fn encode_query<'w>(ws: &'w mut Workspace, cond: &SymBool, reuse: bool) -> (Blaster<'w>, bool) {
    let (left, right) = match cond {
        SymBool::And(left, right) => (Some(&**left), &**right),
        _ => (None, cond),
    };
    let Workspace { sat, prefix } = ws;
    let (mut blaster, lit, replayed) = match prefix.as_ref().filter(|p| reuse && p.encodes(right)) {
        Some(recorded) => {
            let (blaster, lit) = Blaster::replay(sat, recorded);
            (blaster, lit, true)
        }
        None => {
            let mut blaster = Blaster::new(sat);
            let lit = blaster.encode_bool(right);
            if reuse {
                if let Some(recorded) = blaster.record(right, lit) {
                    *prefix = Some(recorded);
                }
            }
            (blaster, lit, false)
        }
    };
    blaster.assert_and(left, lit);
    (blaster, replayed)
}

/// The SAT configuration of one query under `config`.
fn sat_config(config: &SolverConfig) -> SatConfig {
    SatConfig {
        max_conflicts: config.max_conflicts,
        ..SatConfig::default()
    }
}

/// The model of every encoded input byte, after a satisfiable solve.
fn model(blaster: &Blaster<'_>) -> Model {
    let bytes = blaster
        .byte_bits()
        .keys()
        .map(|&o| (o, blaster.model_byte(o).expect("encoded byte")))
        .collect();
    Model { bytes }
}

/// Draws up to `n` models of `cond`, each from an independently seeded
/// search. Models may repeat when the solution space is small — exactly
/// like the paper's sampled 200 solver outputs (§5.5 notes the `x + 2`
/// constraint "has only two solutions").
#[must_use]
pub fn sample(cond: &SymBool, n: usize, seed: u64, config: &SolverConfig) -> Vec<Model> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let s: u64 = rng.gen();
        if let (SolveResult::Sat(m), _) = solve_with(cond, config, Some(s)) {
            out.push(m);
        }
    }
    out
}

/// Result of bounded model enumeration.
#[derive(Debug, Clone)]
pub struct Enumeration {
    /// Distinct models found (over the constrained bytes).
    pub models: Vec<Model>,
    /// True if the enumeration is exhaustive (fewer than the limit).
    pub complete: bool,
}

/// Enumerates distinct models of `cond` up to `limit`, blocking each found
/// assignment of the constrained input bytes.
#[must_use]
pub fn enumerate(cond: &SymBool, limit: usize, config: &SolverConfig) -> Enumeration {
    if config.interval_presolve && cond_range(cond) == Tri::False {
        return Enumeration {
            models: Vec::new(),
            complete: true,
        };
    }
    with_workspace(sat_config(config), |ws| {
        let (mut blaster, _) = encode_query(ws, cond, false);
        let byte_lits: Vec<(u32, Vec<Lit>)> = blaster
            .byte_bits()
            .iter()
            .map(|(&o, bits)| (o, bits.clone()))
            .collect();
        let mut models = Vec::new();
        loop {
            if models.len() >= limit {
                return Enumeration {
                    models,
                    complete: false,
                };
            }
            match blaster.sat_mut().solve() {
                SatOutcome::Sat => {}
                SatOutcome::Unsat => {
                    return Enumeration {
                        models,
                        complete: true,
                    }
                }
                SatOutcome::Unknown => {
                    return Enumeration {
                        models,
                        complete: false,
                    }
                }
            }
            let found = model(&blaster);
            // Blocking clause: at least one constrained byte differs.
            let mut blocking = Vec::new();
            for (off, bits) in &byte_lits {
                let v = found.bytes[off];
                for (i, &l) in bits.iter().enumerate() {
                    blocking.push(if v >> i & 1 == 1 { !l } else { l });
                }
            }
            models.push(found);
            let sat_ref = blaster.sat_mut();
            sat_ref.backtrack_to_root();
            if !sat_ref.add_clause(&blocking) {
                return Enumeration {
                    models,
                    complete: true,
                };
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use diode_lang::{BinOp, Bv, CastKind, CmpOp};
    use diode_symbolic::{overflow_condition, SymExpr};

    fn byte32(off: u32) -> SymExpr {
        SymExpr::input_byte(off).cast(CastKind::Zext, 32)
    }

    fn c32(v: u32) -> SymExpr {
        SymExpr::constant(Bv::u32(v))
    }

    fn field32(base: u32) -> SymExpr {
        let b0 = byte32(base).bin(BinOp::Shl, c32(24));
        let b1 = byte32(base + 1).bin(BinOp::Shl, c32(16));
        let b2 = byte32(base + 2).bin(BinOp::Shl, c32(8));
        b0.bin(BinOp::Or, b1)
            .bin(BinOp::Or, b2)
            .bin(BinOp::Or, byte32(base + 3))
    }

    #[test]
    fn solve_returns_verified_model() {
        let beta = overflow_condition(&field32(0).bin(BinOp::Mul, field32(4)));
        let m = solve(&beta).model().cloned().expect("sat");
        assert!(beta.eval(&m.lookup_over(&[])));
    }

    #[test]
    fn interval_presolve_short_circuits_unsat() {
        let cond = SymBool::cmp(CmpOp::Ugt, byte32(0), c32(1000));
        let (res, stats) = solve_with(&cond, &SolverConfig::default(), None);
        assert!(res.is_unsat());
        assert!(stats.decided_by_interval);
        // Without presolve the SAT core still proves it.
        let cfg = SolverConfig {
            interval_presolve: false,
            ..SolverConfig::default()
        };
        let (res, stats) = solve_with(&cond, &cfg, None);
        assert!(res.is_unsat());
        assert!(!stats.decided_by_interval);
    }

    #[test]
    fn sampling_produces_diverse_valid_models() {
        let beta = overflow_condition(&field32(0).bin(BinOp::Mul, field32(4)));
        let models = sample(&beta, 20, 42, &SolverConfig::default());
        assert_eq!(models.len(), 20);
        let mut distinct = std::collections::HashSet::new();
        for m in &models {
            assert!(beta.eval(&m.lookup_over(&[])), "invalid sample");
            distinct.insert(format!("{:?}", m.bytes()));
        }
        assert!(
            distinct.len() >= 5,
            "expected diverse samples, got {}",
            distinct.len()
        );
    }

    #[test]
    fn enumerate_finds_exactly_two_cve_2008_2430_solutions() {
        // x + 2 over a 32-bit field overflows for exactly two values.
        let beta = overflow_condition(&field32(0).bin(BinOp::Add, c32(2)));
        let e = enumerate(&beta, 10, &SolverConfig::default());
        assert!(e.complete);
        assert_eq!(e.models.len(), 2);
        let mut xs: Vec<u32> = e
            .models
            .iter()
            .map(|m| {
                u32::from_be_bytes([
                    m.byte(0).unwrap(),
                    m.byte(1).unwrap(),
                    m.byte(2).unwrap(),
                    m.byte(3).unwrap(),
                ])
            })
            .collect();
        xs.sort_unstable();
        assert_eq!(xs, vec![0xffff_fffe, 0xffff_ffff]);
    }

    #[test]
    fn enumerate_respects_limit() {
        let cond = SymBool::cmp(CmpOp::Ugt, byte32(0), c32(100));
        let e = enumerate(&cond, 5, &SolverConfig::default());
        assert!(!e.complete);
        assert_eq!(e.models.len(), 5);
    }

    #[test]
    fn enumerate_unsat_is_empty_and_complete() {
        let cond = SymBool::Const(false);
        let e = enumerate(&cond, 5, &SolverConfig::default());
        assert!(e.complete);
        assert!(e.models.is_empty());
    }

    #[test]
    fn model_patch_and_lookup() {
        let m = Model::from_bytes([(1, 0xaa), (3, 0xbb)]);
        let mut buf = vec![0u8; 4];
        m.patch(&mut buf);
        assert_eq!(buf, vec![0, 0xaa, 0, 0xbb]);
        let base = [1u8, 2, 3, 4];
        let look = m.lookup_over(&base);
        assert_eq!(look(0), 1);
        assert_eq!(look(1), 0xaa);
        assert_eq!(look(9), 0);
    }
}
