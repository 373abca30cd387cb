//! A CDCL SAT solver.
//!
//! This is the decision-procedure core of the `diode-solver` crate — the
//! offline stand-in for Z3 \[13\] in the paper's pipeline (see
//! `docs/ARCHITECTURE.md`, "Substitutions"). It is a conventional
//! conflict-driven clause-learning solver in the MiniSat lineage:
//!
//! * two-watched-literal unit propagation,
//! * first-UIP conflict analysis with non-chronological backjumping,
//! * exponential VSIDS variable activities with a position-indexed binary
//!   max-heap,
//! * Luby-sequence restarts,
//! * phase saving (with configurable/randomisable initial polarity — the
//!   mechanism behind diversified solution *sampling* for the paper's
//!   200-input success-rate experiments, §5.5–5.6),
//! * learnt-clause database reduction driven by literal-block distance.
//!
//! The solver is deterministic for a fixed configuration; diversity is
//! injected only through explicit initial-phase/activity seeds.
//!
//! # Memory layout
//!
//! Every clause's literals live in one flat arena (`Vec<Lit>`); a clause
//! is a header (start, length, flags, activity, LBD) over its slice, and
//! clause references are header indices in creation order. Clause
//! normalisation and conflict analysis work in buffers the solver keeps,
//! so the search itself allocates only when a buffer or the arena grows.
//!
//! # The per-thread workspace
//!
//! The high-level API solves each query on this thread's workspace
//! (`with_workspace`): one `Sat` per thread, reset between queries. A
//! reset clears every vector but keeps its capacity, watch lists
//! included, so a thread's queries after the first reuse the memory of
//! the largest one before them. A query that allocates more than
//! `WORKSPACE_MAX_VARS` (8,192) variables drops the workspace when it
//! ends, so a thread does not hold the buffers of a rare huge query (the
//! paper apps reach about 18k variables) for the rest of its life. Engine
//! workers are scoped threads, so their workspaces end with the
//! campaign.
//!
//! # Search identity
//!
//! A reset solver is indistinguishable from a new one: the same
//! variables, clauses, watch order, decisions, conflicts, learnt clauses
//! and model, query after query and whatever the previous query did
//! (`tests/solver_golden.rs` pins this over the queries the enforcement
//! loop issues, and replays them in reverse order with budget-exhausted
//! solves in between). The memory layout above is not allowed to change
//! the search either: any change that moves a model or a work counter
//! changes outcome fingerprints and witness bytes downstream.

use std::cell::RefCell;
use std::fmt;

/// A propositional variable (0-based index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

/// A literal: a variable with a sign. Encoded as `var << 1 | sign` where
/// sign 1 means negated.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `var`.
    #[must_use]
    pub fn pos(var: Var) -> Lit {
        Lit(var.0 << 1)
    }

    /// The negative literal of `var`.
    #[must_use]
    pub fn neg(var: Var) -> Lit {
        Lit(var.0 << 1 | 1)
    }

    /// This literal's variable.
    #[must_use]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True if the literal is negated.
    #[must_use]
    pub fn sign(self) -> bool {
        self.0 & 1 == 1
    }

    /// Index for watch lists.
    #[must_use]
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", if self.sign() { "¬" } else { "" }, self.var().0)
    }
}

/// Tri-state assignment value, encoded so that a literal's value is its
/// variable's value XOR its sign bit: 0 true, 1 false, 2 (or, for a
/// negative literal, 3) unassigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LBool(u8);

impl LBool {
    const TRUE: LBool = LBool(0);
    const FALSE: LBool = LBool(1);
    const UNDEF: LBool = LBool(2);

    fn from_bool(b: bool) -> LBool {
        LBool(u8::from(!b))
    }

    fn is_undef(self) -> bool {
        self.0 >= 2
    }
}

/// Result of a [`Sat::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatOutcome {
    /// A satisfying assignment was found (read it with [`Sat::model_value`]).
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before a decision was reached.
    Unknown,
}

/// A clause header: its literals are `arena[start..start + len]`.
#[derive(Debug, Clone, Copy)]
struct Clause {
    start: u32,
    len: u32,
    learnt: bool,
    deleted: bool,
    activity: f64,
    lbd: u32,
}

impl Clause {
    fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: u32,
    blocker: Lit,
}

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct SatConfig {
    /// Abort with [`SatOutcome::Unknown`] after this many conflicts
    /// (`u64::MAX` = no budget).
    pub max_conflicts: u64,
    /// Variable activity decay factor (0 < d < 1).
    pub var_decay: f64,
    /// Clause activity decay factor.
    pub clause_decay: f64,
    /// Base restart interval in conflicts (scaled by the Luby sequence).
    pub restart_base: u64,
    /// Reduce the learnt-clause database when it exceeds this size.
    pub max_learnts: usize,
    /// Initial phase for fresh variables (overridable per variable with
    /// [`Sat::set_polarity`]).
    pub default_phase: bool,
}

impl Default for SatConfig {
    fn default() -> Self {
        SatConfig {
            max_conflicts: u64::MAX,
            var_decay: 0.95,
            clause_decay: 0.999,
            restart_base: 64,
            max_learnts: 20_000,
            // Prefer maximal values: candidate inputs then violate every
            // sanity check on first contact, so goal-directed enforcement
            // systematically discovers and pins them (matching the paper's
            // Z3-driven behaviour on extreme models).
            default_phase: true,
        }
    }
}

/// The CDCL solver.
pub struct Sat {
    config: SatConfig,
    /// Clause headers, indexed by clause reference.
    clauses: Vec<Clause>,
    /// Every clause's literals, back to back.
    arena: Vec<Lit>,
    /// Watch lists by literal index. A reset keeps the lists (and their
    /// capacity) past `2 * n_vars()`; those are always empty.
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    activity: Vec<f64>,
    heap: Vec<Var>,
    heap_pos: Vec<Option<u32>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    var_inc: f64,
    clause_inc: f64,
    n_conflicts: u64,
    n_decisions: u64,
    n_propagations: u64,
    unsat: bool,
    seen: Vec<bool>,
    /// Live learnt clauses longer than two literals: the clauses
    /// `reduce_db` may delete.
    n_long_learnts: usize,
    /// `add_clause`'s normalisation buffer.
    add_buf: Vec<Lit>,
    /// `analyze`'s learnt clause before minimisation.
    analyze_buf: Vec<Lit>,
    /// The last learnt clause, asserting literal first.
    learnt: Vec<Lit>,
    /// Per decision level, the `lbd_epoch` that last counted it.
    lbd_stamp: Vec<u32>,
    lbd_epoch: u32,
}

impl Default for Sat {
    fn default() -> Self {
        Sat::new(SatConfig::default())
    }
}

/// Variables above which a query's workspace is dropped when the query
/// ends instead of being kept for the thread's next query.
const WORKSPACE_MAX_VARS: usize = 8192;

thread_local! {
    static WORKSPACE: RefCell<Sat> = RefCell::new(Sat::default());
}

/// Runs `f` on this thread's solver workspace, reset to a fresh solver
/// under `config`. Returns `f`'s result; the workspace is dropped
/// afterwards if `f` left more than `WORKSPACE_MAX_VARS` variables.
///
/// # Panics
///
/// Panics if `f` itself calls `with_workspace` (the workspace is
/// borrowed for the whole call).
pub(crate) fn with_workspace<R>(config: SatConfig, f: impl FnOnce(&mut Sat) -> R) -> R {
    WORKSPACE.with(|cell| {
        let mut sat = cell.borrow_mut();
        sat.reset(config);
        let out = f(&mut sat);
        if sat.n_vars() > WORKSPACE_MAX_VARS {
            *sat = Sat::default();
        }
        out
    })
}

impl Sat {
    /// Creates a solver with the given configuration.
    #[must_use]
    pub fn new(config: SatConfig) -> Self {
        Sat {
            config,
            clauses: Vec::new(),
            arena: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            activity: Vec::new(),
            heap: Vec::new(),
            heap_pos: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            var_inc: 1.0,
            clause_inc: 1.0,
            n_conflicts: 0,
            n_decisions: 0,
            n_propagations: 0,
            unsat: false,
            seen: Vec::new(),
            n_long_learnts: 0,
            add_buf: Vec::new(),
            analyze_buf: Vec::new(),
            learnt: Vec::new(),
            lbd_stamp: Vec::new(),
            lbd_epoch: 0,
        }
    }

    /// Returns the solver to the state of `Sat::new(config)`, keeping the
    /// capacity of every buffer.
    fn reset(&mut self, config: SatConfig) {
        self.config = config;
        for w in &mut self.watches[..2 * self.assigns.len()] {
            w.clear();
        }
        self.clauses.clear();
        self.arena.clear();
        self.assigns.clear();
        self.phase.clear();
        self.level.clear();
        self.reason.clear();
        self.activity.clear();
        self.heap.clear();
        self.heap_pos.clear();
        self.trail.clear();
        self.trail_lim.clear();
        self.qhead = 0;
        self.var_inc = 1.0;
        self.clause_inc = 1.0;
        self.n_conflicts = 0;
        self.n_decisions = 0;
        self.n_propagations = 0;
        self.unsat = false;
        self.seen.clear();
        self.n_long_learnts = 0;
        self.lbd_stamp.clear();
        self.lbd_epoch = 0;
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(u32::try_from(self.assigns.len()).expect("too many variables"));
        self.assigns.push(LBool::UNDEF);
        self.phase.push(self.config.default_phase);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.heap_pos.push(None);
        self.seen.push(false);
        let watched = 2 * self.assigns.len();
        if self.watches.len() < watched {
            self.watches.resize_with(watched, Vec::new);
        }
        debug_assert!(self.watches[watched - 2..watched].iter().all(Vec::is_empty));
        self.heap_insert(v);
        v
    }

    /// Number of allocated variables.
    #[must_use]
    pub fn n_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of conflicts encountered so far.
    #[must_use]
    pub fn conflicts(&self) -> u64 {
        self.n_conflicts
    }

    /// Number of decisions made so far.
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.n_decisions
    }

    /// Number of propagated literals so far.
    #[must_use]
    pub fn propagations(&self) -> u64 {
        self.n_propagations
    }

    /// Sets the saved phase of a variable (used as decision polarity).
    /// Seeding phases randomly is how callers obtain diverse models.
    pub fn set_polarity(&mut self, var: Var, phase: bool) {
        self.phase[var.0 as usize] = phase;
    }

    /// Adds a small random bump to a variable's activity — together with
    /// [`Sat::set_polarity`] this diversifies the search between repeated
    /// solves of the same formula.
    pub fn bump_activity_seed(&mut self, var: Var, amount: f64) {
        self.activity[var.0 as usize] += amount;
        self.heap_update(var);
    }

    /// Adds a clause. Returns `false` if the formula became trivially
    /// unsatisfiable (empty clause / conflicting units at level 0).
    ///
    /// # Panics
    ///
    /// Panics if called after a solving run has begun making decisions
    /// (clauses must be added at decision level 0; this solver restarts to
    /// level 0 after each [`Sat::solve`], so interleaving solve/add is
    /// fine).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert!(
            self.trail_lim.is_empty(),
            "add_clause at decision level 0 only"
        );
        if self.unsat {
            return false;
        }
        // Normalise: sort, dedup, drop tautologies and false literals. The
        // surviving literals go straight onto the arena's tail, which is
        // truncated again unless they become a clause.
        let mut ls = std::mem::take(&mut self.add_buf);
        ls.clear();
        ls.extend_from_slice(lits);
        ls.sort_unstable();
        ls.dedup();
        let start = self.arena.len();
        let mut satisfied = false;
        for (i, &l) in ls.iter().enumerate() {
            if i + 1 < ls.len() && ls[i + 1] == !l {
                satisfied = true; // tautology: x ∨ ¬x
                break;
            }
            let value = self.value(l);
            if value == LBool::TRUE {
                satisfied = true; // already satisfied at level 0
                break;
            }
            if value.is_undef() {
                self.arena.push(l);
            } // else drop the falsified literal
        }
        self.add_buf = ls;
        if satisfied {
            self.arena.truncate(start);
            return true;
        }
        match self.arena.len() - start {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                let unit = self.arena[start];
                self.arena.truncate(start);
                self.enqueue(unit, None);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach_clause(start, false);
                true
            }
        }
    }

    /// Makes `arena[start..]` a clause and watches its first two
    /// literals.
    fn attach_clause(&mut self, start: usize, learnt: bool) -> u32 {
        let cref = u32::try_from(self.clauses.len()).expect("too many clauses");
        let len = self.arena.len() - start;
        let (l0, l1) = (self.arena[start], self.arena[start + 1]);
        self.watches[(!l0).index()].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).index()].push(Watcher { cref, blocker: l0 });
        self.clauses.push(Clause {
            start: u32::try_from(start).expect("clause arena overflow"),
            len: len as u32,
            learnt,
            deleted: false,
            activity: 0.0,
            lbd: 0,
        });
        if learnt && len > 2 {
            self.n_long_learnts += 1;
        }
        cref
    }

    fn value(&self, lit: Lit) -> LBool {
        LBool(self.assigns[lit.var().0 as usize].0 ^ (lit.0 & 1) as u8)
    }

    /// The model value of `var` after [`SatOutcome::Sat`].
    ///
    /// # Panics
    ///
    /// Panics if the variable is unassigned (no model available).
    #[must_use]
    pub fn model_value(&self, var: Var) -> bool {
        match self.assigns[var.0 as usize] {
            LBool::TRUE => true,
            LBool::FALSE => false,
            _ => panic!("no model: variable {var:?} unassigned"),
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<u32>) {
        debug_assert!(self.value(lit).is_undef());
        let v = lit.var().0 as usize;
        self.assigns[v] = LBool::from_bool(!lit.sign());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation; returns a conflicting clause reference, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.n_propagations += 1;
            let widx = p.index(); // watchers of ¬p are stored under p's index after negation below
            let mut ws = std::mem::take(&mut self.watches[widx]);
            let mut kept = 0usize;
            let mut conflict = None;
            'watchers: for wi in 0..ws.len() {
                let w = ws[wi];
                if conflict.is_some() {
                    ws[kept] = w;
                    kept += 1;
                    continue;
                }
                if self.value(w.blocker) == LBool::TRUE {
                    ws[kept] = w;
                    kept += 1;
                    continue;
                }
                let clause = self.clauses[w.cref as usize];
                if clause.deleted {
                    continue; // drop watcher of deleted clause
                }
                let (start, len) = (clause.start as usize, clause.len as usize);
                // Make sure the false literal (¬p) is at position 1.
                if self.arena[start] == !p {
                    self.arena.swap(start, start + 1);
                }
                let first = self.arena[start];
                if first != w.blocker && self.value(first) == LBool::TRUE {
                    ws[kept] = Watcher {
                        cref: w.cref,
                        blocker: first,
                    };
                    kept += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in start + 2..start + len {
                    let lk = self.arena[k];
                    if self.value(lk) != LBool::FALSE {
                        self.arena.swap(start + 1, k);
                        self.watches[(!lk).index()].push(Watcher {
                            cref: w.cref,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }
                // No new watch: clause is unit or conflicting.
                ws[kept] = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                kept += 1;
                if self.value(first) == LBool::FALSE {
                    conflict = Some(w.cref);
                    self.qhead = self.trail.len();
                } else {
                    self.enqueue(first, Some(w.cref));
                }
            }
            ws.truncate(kept);
            debug_assert!(self.watches[widx].is_empty());
            self.watches[widx] = ws;
            if let Some(c) = conflict {
                return Some(c);
            }
        }
        None
    }

    fn bump_var(&mut self, var: Var) {
        let a = &mut self.activity[var.0 as usize];
        *a += self.var_inc;
        if *a > 1e100 {
            for act in &mut self.activity {
                *act *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap_update(var);
    }

    fn bump_clause(&mut self, cref: u32) {
        let c = &mut self.clauses[cref as usize];
        c.activity += self.clause_inc;
        if c.activity > 1e20 {
            for cl in &mut self.clauses {
                cl.activity *= 1e-20;
            }
            self.clause_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Leaves the learnt clause in
    /// `self.learnt` (asserting literal first) and returns the backjump
    /// level.
    fn analyze(&mut self, mut confl: u32) -> u32 {
        let mut learnt = std::mem::take(&mut self.analyze_buf);
        learnt.clear();
        learnt.push(Lit::pos(Var(0))); // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            self.bump_clause(confl);
            let range = self.clauses[confl as usize].range();
            let start = range.start + usize::from(p.is_some());
            for k in start..range.end {
                let q = self.arena[k];
                let v = q.var().0 as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next clause to resolve with.
            loop {
                index -= 1;
                let lit = self.trail[index];
                if self.seen[lit.var().0 as usize] {
                    p = Some(lit);
                    break;
                }
            }
            let pv = p.expect("found UIP candidate").var().0 as usize;
            self.seen[pv] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            confl = self.reason[pv].expect("non-decision must have a reason");
        }
        let uip = p.expect("UIP literal").var();
        learnt[0] = !p.expect("UIP literal");

        // Cheap self-subsumption minimisation: drop literals whose reason
        // clause is entirely covered by the rest of the learnt clause.
        // Every current-level variable marked above was unmarked on the
        // trail walk before the counter reached 0, so `seen` now marks
        // exactly the variables of `learnt[1..]`; with the UIP they are
        // the clause's variables.
        let mut minimised = std::mem::take(&mut self.learnt);
        minimised.clear();
        minimised.push(learnt[0]);
        for &l in &learnt[1..] {
            let redundant = match self.reason[l.var().0 as usize] {
                Some(r) => self.arena[self.clauses[r as usize].range()]
                    .iter()
                    .all(|q| {
                        let v = q.var();
                        v == l.var()
                            || v == uip
                            || self.seen[v.0 as usize]
                            || self.level[v.0 as usize] == 0
                    }),
                None => false,
            };
            if !redundant {
                minimised.push(l);
            }
        }
        // Clear the seen flags of the *pre-minimisation* clause: literals
        // dropped by minimisation must not leak seen state into the next
        // conflict analysis.
        for &l in &learnt {
            self.seen[l.var().0 as usize] = false;
        }
        self.analyze_buf = learnt;

        let backjump = if minimised.len() == 1 {
            0
        } else {
            // Second-highest decision level in the clause; that literal is
            // moved to position 1 so it is watched (required for the
            // two-watched-literal invariant after backjumping).
            let mut max_i = 1;
            for i in 2..minimised.len() {
                if self.level[minimised[i].var().0 as usize]
                    > self.level[minimised[max_i].var().0 as usize]
                {
                    max_i = i;
                }
            }
            minimised.swap(1, max_i);
            self.level[minimised[1].var().0 as usize]
        };
        self.learnt = minimised;
        backjump
    }

    /// Literal-block distance of `self.learnt`: the number of distinct
    /// decision levels among its literals.
    fn learnt_lbd(&mut self) -> u32 {
        self.lbd_epoch = self.lbd_epoch.wrapping_add(1);
        if self.lbd_epoch == 0 {
            self.lbd_stamp.fill(0);
            self.lbd_epoch = 1;
        }
        let mut distinct = 0;
        for l in &self.learnt {
            let lv = self.level[l.var().0 as usize] as usize;
            if lv >= self.lbd_stamp.len() {
                self.lbd_stamp.resize(lv + 1, 0);
            }
            if self.lbd_stamp[lv] != self.lbd_epoch {
                self.lbd_stamp[lv] = self.lbd_epoch;
                distinct += 1;
            }
        }
        distinct
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        for i in (bound..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var().0 as usize;
            self.phase[v] = !lit.sign(); // phase saving
            self.assigns[v] = LBool::UNDEF;
            self.reason[v] = None;
            self.heap_insert(lit.var());
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level as usize);
        self.qhead = bound;
    }

    fn decide(&mut self) -> bool {
        while let Some(v) = self.heap_pop() {
            if self.assigns[v.0 as usize] == LBool::UNDEF {
                self.n_decisions += 1;
                self.trail_lim.push(self.trail.len());
                let phase = self.phase[v.0 as usize];
                let lit = if phase { Lit::pos(v) } else { Lit::neg(v) };
                self.enqueue(lit, None);
                return true;
            }
        }
        false
    }

    fn reduce_db(&mut self) {
        if self.n_long_learnts < self.config.max_learnts {
            return;
        }
        let mut learnt_refs: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&i| {
                let c = &self.clauses[i as usize];
                c.learnt && !c.deleted && c.len > 2
            })
            .collect();
        debug_assert_eq!(learnt_refs.len(), self.n_long_learnts);
        // Keep the more useful half: low LBD, then high activity. The sort
        // is stable, so ties keep creation order.
        learnt_refs.sort_by(|&a, &b| {
            let (ca, cb) = (&self.clauses[a as usize], &self.clauses[b as usize]);
            ca.lbd.cmp(&cb.lbd).then(
                cb.activity
                    .partial_cmp(&ca.activity)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let mut locked = vec![false; self.clauses.len()];
        for &r in self.reason.iter().flatten() {
            locked[r as usize] = true;
        }
        for &cref in &learnt_refs[learnt_refs.len() / 2..] {
            if !locked[cref as usize] {
                self.clauses[cref as usize].deleted = true;
                self.n_long_learnts -= 1;
            }
        }
        // Rebuild watches without deleted clauses.
        for w in &mut self.watches {
            w.clear();
        }
        for (i, c) in self.clauses.iter().enumerate() {
            if c.deleted {
                continue;
            }
            let cref = i as u32;
            let (l0, l1) = (
                self.arena[c.start as usize],
                self.arena[c.start as usize + 1],
            );
            self.watches[(!l0).index()].push(Watcher { cref, blocker: l1 });
            self.watches[(!l1).index()].push(Watcher { cref, blocker: l0 });
        }
    }

    /// Backtracks to decision level 0, e.g. before adding blocking clauses
    /// during model enumeration. Erases the current model.
    pub fn backtrack_to_root(&mut self) {
        self.cancel_until(0);
    }

    /// Runs the CDCL search.
    pub fn solve(&mut self) -> SatOutcome {
        if self.unsat {
            return SatOutcome::Unsat;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return SatOutcome::Unsat;
        }
        let mut restart_count = 0u64;
        let mut conflicts_until_restart = self.config.restart_base * luby(restart_count);
        let budget_start = self.n_conflicts;

        loop {
            if let Some(confl) = self.propagate() {
                self.n_conflicts += 1;
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return SatOutcome::Unsat;
                }
                if self.n_conflicts - budget_start >= self.config.max_conflicts {
                    self.cancel_until(0);
                    return SatOutcome::Unknown;
                }
                let backjump = self.analyze(confl);
                self.cancel_until(backjump);
                let asserting = self.learnt[0];
                if self.learnt.len() == 1 {
                    self.enqueue(asserting, None);
                } else {
                    let lbd = self.learnt_lbd();
                    let start = self.arena.len();
                    self.arena.extend_from_slice(&self.learnt);
                    let cref = self.attach_clause(start, true);
                    self.clauses[cref as usize].lbd = lbd;
                    self.bump_clause(cref);
                    self.enqueue(asserting, Some(cref));
                }
                self.var_inc /= self.config.var_decay;
                self.clause_inc /= self.config.clause_decay;
            } else {
                if conflicts_until_restart == 0 {
                    restart_count += 1;
                    conflicts_until_restart = self.config.restart_base * luby(restart_count);
                    self.cancel_until(0);
                    self.reduce_db();
                    continue;
                }
                if !self.decide() {
                    return SatOutcome::Sat;
                }
            }
        }
    }

    // ---- activity-ordered heap (max-heap with position index) ----------

    fn heap_less(&self, a: Var, b: Var) -> bool {
        self.activity[a.0 as usize] > self.activity[b.0 as usize]
    }

    fn heap_insert(&mut self, v: Var) {
        if self.heap_pos[v.0 as usize].is_some() {
            return;
        }
        self.heap.push(v);
        let i = self.heap.len() - 1;
        self.heap_pos[v.0 as usize] = Some(i as u32);
        self.heap_sift_up(i);
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_pos[top.0 as usize] = None;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last.0 as usize] = Some(0);
            self.heap_sift_down(0);
        }
        Some(top)
    }

    fn heap_update(&mut self, v: Var) {
        if let Some(i) = self.heap_pos[v.0 as usize] {
            self.heap_sift_up(i as usize);
        }
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(self.heap[i], self.heap[parent]) {
                self.heap_swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len() && self.heap_less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.heap_pos[self.heap[i].0 as usize] = Some(i as u32);
        self.heap_pos[self.heap[j].0 as usize] = Some(j as u32);
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …).
#[must_use]
fn luby(i: u64) -> u64 {
    let mut k = 1u32;
    while (1u64 << (k + 1)) - 1 <= i + 1 {
        k += 1;
    }
    let mut x = i;
    let mut kk = k;
    loop {
        if x + 1 == (1u64 << kk) - 1 {
            return 1u64 << (kk - 1);
        }
        if x + 1 < (1u64 << kk) - 1 {
            kk -= 1;
            if kk == 0 {
                return 1;
            }
            continue;
        }
        x -= (1u64 << kk) - 1;
        kk = 1;
        while (1u64 << (kk + 1)) - 1 <= x + 1 {
            kk += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(s: &mut Sat, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat_and_model() {
        let mut s = Sat::default();
        let v = vars(&mut s, 2);
        assert!(s.add_clause(&[Lit::pos(v[0])]));
        assert!(s.add_clause(&[Lit::neg(v[1])]));
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert!(s.model_value(v[0]));
        assert!(!s.model_value(v[1]));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Sat::default();
        let v = vars(&mut s, 1);
        assert!(s.add_clause(&[Lit::pos(v[0])]));
        assert!(!s.add_clause(&[Lit::neg(v[0])]));
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Sat::default();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn tautologies_are_ignored() {
        let mut s = Sat::default();
        let v = vars(&mut s, 1);
        assert!(s.add_clause(&[Lit::pos(v[0]), Lit::neg(v[0])]));
        assert_eq!(s.solve(), SatOutcome::Sat);
    }

    #[test]
    fn implication_chain_propagates() {
        // x0 ∧ (x0→x1) ∧ (x1→x2) … ∧ (x9→¬x0) is unsat.
        let mut s = Sat::default();
        let v = vars(&mut s, 10);
        assert!(s.add_clause(&[Lit::pos(v[0])]));
        for i in 0..9 {
            assert!(s.add_clause(&[Lit::neg(v[i]), Lit::pos(v[i + 1])]));
        }
        let ok = s.add_clause(&[Lit::neg(v[9]), Lit::neg(v[0])]);
        // Either rejected at add time or found unsat by search.
        if ok {
            assert_eq!(s.solve(), SatOutcome::Unsat);
        }
    }

    /// Pigeonhole principle PHP(n+1, n): classic small but nontrivial UNSAT
    /// family exercising clause learning.
    fn pigeonhole(pigeons: usize, holes: usize) -> (Sat, Vec<Vec<Var>>) {
        let mut s = Sat::default();
        let grid: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for p in &grid {
            let clause: Vec<Lit> = p.iter().map(|&v| Lit::pos(v)).collect();
            s.add_clause(&clause);
        }
        for h in 0..holes {
            for (p1, row1) in grid.iter().enumerate() {
                for row2 in grid.iter().skip(p1 + 1) {
                    s.add_clause(&[Lit::neg(row1[h]), Lit::neg(row2[h])]);
                }
            }
        }
        (s, grid)
    }

    #[test]
    fn pigeonhole_unsat() {
        let (mut s, _) = pigeonhole(7, 6);
        assert_eq!(s.solve(), SatOutcome::Unsat);
        assert!(s.conflicts() > 0);
    }

    #[test]
    fn pigeonhole_sat_when_enough_holes() {
        let (mut s, grid) = pigeonhole(6, 6);
        assert_eq!(s.solve(), SatOutcome::Sat);
        // Verify it is a real assignment: each pigeon in some hole, no
        // hole shared.
        let mut used = [false; 6];
        for p in &grid {
            let hole = p
                .iter()
                .position(|&v| s.model_value(v))
                .expect("pigeon placed");
            assert!(!used[hole], "hole reused");
            used[hole] = true;
        }
    }

    #[test]
    fn conflict_budget_reports_unknown() {
        let (mut s, _) = pigeonhole(9, 8);
        s.config.max_conflicts = 5;
        assert_eq!(s.solve(), SatOutcome::Unknown);
    }

    #[test]
    fn phase_seeding_changes_models() {
        // Unconstrained variables: model follows the seeded phase.
        let mut s = Sat::default();
        let v = vars(&mut s, 8);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        for (i, &var) in v.iter().enumerate() {
            s.set_polarity(var, i % 2 == 0);
        }
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert!(s.model_value(v[2]));
        assert!(!s.model_value(v[3]));
    }

    #[test]
    fn solve_is_rerunnable_with_added_clauses() {
        let mut s = Sat::default();
        let v = vars(&mut s, 3);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1]), Lit::pos(v[2])]);
        assert_eq!(s.solve(), SatOutcome::Sat);
        // Block the found model and re-solve repeatedly: exactly 7 models.
        let mut count = 0;
        loop {
            let blocking: Vec<Lit> = v
                .iter()
                .map(|&var| {
                    if s.model_value(var) {
                        Lit::neg(var)
                    } else {
                        Lit::pos(var)
                    }
                })
                .collect();
            count += 1;
            s.backtrack_to_root();
            if !s.add_clause(&blocking) || s.solve() != SatOutcome::Sat {
                break;
            }
            assert!(count <= 7, "more models than possible");
        }
        assert_eq!(count, 7);
    }

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        // Deterministic LCG-generated instances, 12 vars, checked against
        // exhaustive enumeration.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..30 {
            let n_vars = 12usize;
            let n_clauses = 48 + (round % 13);
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..n_clauses {
                let mut cl = Vec::new();
                for _ in 0..3 {
                    let v = (next() % n_vars as u64) as usize;
                    let sign = next() % 2 == 0;
                    cl.push((v, sign));
                }
                clauses.push(cl);
            }
            // Brute force.
            let mut brute_sat = false;
            'outer: for m in 0u32..(1 << n_vars) {
                for cl in &clauses {
                    let ok = cl.iter().any(|&(v, sign)| ((m >> v) & 1 == 1) == sign);
                    if !ok {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // CDCL.
            let mut s = Sat::default();
            let vs = vars(&mut s, n_vars);
            let mut ok = true;
            for cl in &clauses {
                let lits: Vec<Lit> = cl
                    .iter()
                    .map(|&(v, sign)| {
                        if sign {
                            Lit::pos(vs[v])
                        } else {
                            Lit::neg(vs[v])
                        }
                    })
                    .collect();
                ok &= s.add_clause(&lits);
            }
            let outcome = if ok { s.solve() } else { SatOutcome::Unsat };
            assert_eq!(
                outcome,
                if brute_sat {
                    SatOutcome::Sat
                } else {
                    SatOutcome::Unsat
                },
                "instance {round} disagrees"
            );
            // If SAT, the model must actually satisfy the formula.
            if outcome == SatOutcome::Sat {
                for cl in &clauses {
                    assert!(cl.iter().any(|&(v, sign)| s.model_value(vs[v]) == sign));
                }
            }
        }
    }

    /// Deterministic 3-SAT instance over `n_vars` variables.
    fn random_3sat(n_vars: usize, n_clauses: usize, mut state: u64) -> (Sat, Vec<Var>) {
        let mut s = Sat::default();
        let vs = vars(&mut s, n_vars);
        for _ in 0..n_clauses {
            let mut cl = Vec::new();
            for _ in 0..3 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let v = vs[(state % n_vars as u64) as usize];
                cl.push(if state >> 32 & 1 == 0 {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                });
            }
            s.add_clause(&cl);
        }
        (s, vs)
    }

    #[test]
    fn workspace_keeps_buffers_until_a_huge_query() {
        let capacity = || WORKSPACE.with(|w| w.borrow().assigns.capacity());
        with_workspace(SatConfig::default(), |s| {
            vars(s, 100);
        });
        assert!(capacity() >= 100);
        with_workspace(SatConfig::default(), |s| {
            assert_eq!(s.n_vars(), 0, "reset");
            vars(s, WORKSPACE_MAX_VARS + 1);
        });
        assert_eq!(capacity(), 0, "dropped");
    }

    #[test]
    fn learnt_database_reduction_keeps_the_search() {
        // A small learnt limit and frequent restarts make `reduce_db`
        // delete clauses, which no pipeline query does. The counters and
        // models were captured before the clause arena.
        let (mut s, _) = pigeonhole(6, 5);
        s.config.max_learnts = 10;
        s.config.restart_base = 4;
        assert_eq!(s.solve(), SatOutcome::Unsat);
        assert_eq!(
            (s.conflicts(), s.decisions(), s.propagations()),
            (768, 1366, 9580)
        );
        let pinned = [
            (
                SatOutcome::Sat,
                396,
                729,
                10007,
                1_199_790_630_909_444_388_369_285_553_702,
            ),
            (SatOutcome::Unsat, 426, 684, 9857, 0),
        ];
        for (seed, want) in [0x9E37_79B9_7F4A_7C15u64, 0x2545_F491_4F6C_DD1D]
            .into_iter()
            .zip(pinned)
        {
            let (mut s, vs) = random_3sat(100, 420, seed);
            s.config.max_learnts = 30;
            s.config.restart_base = 4;
            let outcome = s.solve();
            let model: u128 = if outcome == SatOutcome::Sat {
                vs.iter().fold(0, |acc, &v| {
                    acc.rotate_left(1) ^ u128::from(s.model_value(v))
                })
            } else {
                0
            };
            let got = (
                outcome,
                s.conflicts(),
                s.decisions(),
                s.propagations(),
                model,
            );
            assert_eq!(got, want);
        }
    }
}
