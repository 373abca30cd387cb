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
//! Every clause lives in one flat arena of 32-bit words: one header word
//! (its creation index, marked by the top bit, which no literal sets)
//! followed by its literals, and one end word closes the arena. A
//! clause's length is where the next header starts, and a clause
//! reference is the arena offset of its header. Clause activities sit in
//! a side table by creation index, problem clauses included (a problem
//! clause's bump can trigger the activity rescale); long learnt clauses
//! also keep their LBD in a side list in creation order. A watcher of a
//! binary clause is tagged, and its blocker is the clause's other
//! literal, so propagating through a binary clause reads neither its
//! header nor the arena. A variable's decision level and reason share
//! one entry, which `enqueue` writes at once. Clause normalisation and
//! conflict analysis work in buffers the solver keeps, and gate clauses
//! from the bit-blaster (`Sat::add_gate_clause`) skip normalisation
//! when they need none, so the search itself allocates only when a
//! buffer or the arena grows.
//!
//! # The per-thread workspace
//!
//! The high-level API solves each query on this thread's workspace
//! (`with_workspace`): one `Sat` per thread, reset between queries. A
//! reset clears every vector but keeps its capacity, watch lists
//! included, so a thread's queries after the first reuse the memory of
//! the largest one before them. A query that allocates more than
//! `WORKSPACE_MAX_VARS` (8,192) variables drops the solver when it
//! ends, so a thread does not hold the buffers of a rare huge query (the
//! paper apps reach about 18k variables) for the rest of its life. Engine
//! workers are scoped threads, so their workspaces end with the
//! campaign.
//!
//! The workspace also keeps at most one recorded prefix
//! ([`crate::blast`]): the solver's level-0 state right after encoding
//! a query's right-hand conjunct, which for the enforcement loop's
//! φ′∧β queries is β. `Sat::record_prefix` keeps the variable count,
//! the clause words in creation order, the trail and the propagation
//! count; `Sat::replay_prefix` rebuilds that state on a reset solver,
//! attaching watchers in creation order. That reproduces every watch
//! list only because no watcher moved while the prefix was encoded, so a
//! prefix whose encoding propagated a unit after its first, or that is
//! unsatisfiable or larger than `WORKSPACE_MAX_VARS`, is not recorded.
//!
//! # Search identity
//!
//! A reset solver is indistinguishable from a new one: the same
//! variables, clauses, watch order, decisions, conflicts, learnt clauses
//! and model, query after query and whatever the previous query did
//! (`tests/solver_golden.rs` pins this over the queries the enforcement
//! loop issues, and replays them in reverse order with budget-exhausted
//! solves in between). So is a solver that replayed a recorded prefix
//! and encoded the rest of the query (the same test checks replayed
//! queries against fresh-thread solves). The memory layout above is not
//! allowed to change the search either: any change that moves a model or
//! a work counter changes outcome fingerprints and witness bytes
//! downstream. Hence the binary fast path orders a conflicting pair in
//! the arena exactly as the general path does, and conflict analysis
//! skips a reason's implied literal by value, not by position, since a
//! binary reason is not reordered when it propagates.

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

/// Marks an arena word as a clause header. Literals never set it:
/// variables stay below 2^30.
const HEADER: u32 = 1 << 31;
/// A header bit: the clause was deleted by `reduce_db`.
const DELETED: u32 = 1 << 30;
/// A header's creation index bits.
const ID_MASK: u32 = DELETED - 1;
/// The word that closes the arena: a header no clause owns.
const END: u32 = u32::MAX;
/// Tags a watcher's clause reference when the clause is binary.
const BINARY: u32 = 1 << 31;

/// A watch-list entry: the clause's arena offset (tagged [`BINARY`] for a
/// binary clause) and a literal of the clause whose truth satisfies it.
#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: u32,
    blocker: Lit,
}

/// A variable's decision level and reason: the arena offset of the
/// clause that implied it, or [`NO_REASON`].
#[derive(Debug, Clone, Copy)]
struct VarData {
    level: u32,
    reason: u32,
}

/// The reason of a decision, a unit, or an unassigned variable. No
/// clause starts there: arena offsets stay below [`BINARY`].
const NO_REASON: u32 = u32::MAX;
/// The heap position of a variable outside the heap.
const NOT_IN_HEAP: u32 = u32::MAX;

/// A long learnt clause: its arena offset and literal-block distance.
#[derive(Debug, Clone, Copy)]
struct Learnt {
    cref: u32,
    lbd: u32,
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
    /// Every clause, back to back: a header word and its literals; the
    /// [`END`] word closes the arena.
    arena: Vec<u32>,
    /// Activity by clause creation index.
    clause_act: Vec<f64>,
    /// Live learnt clauses longer than two literals, in creation order:
    /// the clauses `reduce_db` may delete.
    learnts: Vec<Learnt>,
    /// Watch lists by literal index. A reset keeps the lists (and their
    /// capacity) past `2 * n_vars()`; those are always empty.
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    phase: Vec<bool>,
    /// Each variable's decision level and reason, side by side because
    /// `enqueue` writes both and conflict analysis reads both.
    var_data: Vec<VarData>,
    activity: Vec<f64>,
    heap: Vec<Var>,
    /// Each variable's heap index, or [`NOT_IN_HEAP`].
    heap_pos: Vec<u32>,
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

/// Variables above which a query's solver is dropped when the query ends
/// instead of being kept for the thread's next query, and above which a
/// prefix is not recorded.
pub(crate) const WORKSPACE_MAX_VARS: usize = 8192;

/// One thread's solver state between queries.
#[derive(Default)]
pub(crate) struct Workspace {
    /// The solver, reset before each query.
    pub(crate) sat: Sat,
    /// The last recorded prefix, if any.
    pub(crate) prefix: Option<crate::blast::Prefix>,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

/// Runs `f` on this thread's workspace, its solver reset to a fresh
/// solver under `config` (the recorded prefix is kept). Returns `f`'s
/// result; the solver is dropped afterwards if `f` left more than
/// `WORKSPACE_MAX_VARS` variables.
///
/// # Panics
///
/// Panics if `f` itself calls `with_workspace` (the workspace is
/// borrowed for the whole call).
pub(crate) fn with_workspace<R>(config: SatConfig, f: impl FnOnce(&mut Workspace) -> R) -> R {
    WORKSPACE.with(|cell| {
        let mut ws = cell.borrow_mut();
        ws.sat.reset(config);
        let out = f(&mut ws);
        if ws.sat.n_vars() > WORKSPACE_MAX_VARS {
            ws.sat = Sat::default();
        }
        out
    })
}

/// A solver's level-0 state, recorded by [`Sat::record_prefix`]: what
/// [`Sat::replay_prefix`] needs to rebuild it, with no per-clause
/// metadata (every recorded clause is a problem clause of activity 0).
#[derive(Debug)]
pub(crate) struct SatPrefix {
    n_vars: usize,
    /// The arena without its end word: each clause's header and literals.
    words: Vec<u32>,
    n_clauses: usize,
    trail: Vec<Lit>,
    propagations: u64,
}

impl Sat {
    /// Creates a solver with the given configuration.
    #[must_use]
    pub fn new(config: SatConfig) -> Self {
        Sat {
            config,
            arena: vec![END],
            clause_act: Vec::new(),
            learnts: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            phase: Vec::new(),
            var_data: Vec::new(),
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
            add_buf: Vec::new(),
            analyze_buf: Vec::new(),
            learnt: Vec::new(),
            lbd_stamp: Vec::new(),
            lbd_epoch: 0,
        }
    }

    /// Returns the solver to the state of `Sat::new(config)`, keeping the
    /// capacity of every buffer.
    pub(crate) fn reset(&mut self, config: SatConfig) {
        self.config = config;
        for w in &mut self.watches[..2 * self.assigns.len()] {
            w.clear();
        }
        self.arena.clear();
        self.arena.push(END);
        self.clause_act.clear();
        self.learnts.clear();
        self.assigns.clear();
        self.phase.clear();
        self.var_data.clear();
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
        self.lbd_stamp.clear();
        self.lbd_epoch = 0;
    }

    /// Records this solver's level-0 state for [`Sat::replay_prefix`], or
    /// `None` when a replay could not reproduce it: the formula is
    /// already unsatisfiable, the solver has more than
    /// `WORKSPACE_MAX_VARS` variables, or its trail holds more than one
    /// literal (a unit propagated after the first may have moved
    /// watchers). The caller guarantees that the first unit, if any, was
    /// propagated before any clause existed, as [`crate::blast::Blaster`]
    /// does with its constant-true literal.
    pub(crate) fn record_prefix(&self) -> Option<SatPrefix> {
        if self.unsat || self.trail.len() > 1 || self.n_vars() > WORKSPACE_MAX_VARS {
            return None;
        }
        debug_assert!(self.trail_lim.is_empty() && self.learnts.is_empty());
        debug_assert_eq!(self.qhead, self.trail.len());
        Some(SatPrefix {
            n_vars: self.n_vars(),
            words: self.arena[..self.arena.len() - 1].to_vec(),
            n_clauses: self.clause_act.len(),
            trail: self.trail.clone(),
            propagations: self.n_propagations,
        })
    }

    /// Rebuilds `prefix`'s state on this freshly reset solver: its
    /// variables, its trail and propagation count, and its clauses with
    /// their watchers attached in creation order, exactly the state the
    /// recorded solver was in.
    pub(crate) fn replay_prefix(&mut self, prefix: &SatPrefix) {
        debug_assert!(
            self.n_vars() == 0 && self.arena.len() == 1 && self.n_conflicts == 0,
            "replay needs a reset solver"
        );
        let n = prefix.n_vars;
        assert!(n < 1 << 30, "too many variables");
        // What `n` calls of `new_var` leave on a reset solver: with every
        // activity 0, each inserted variable stays where it is pushed.
        self.assigns.resize(n, LBool::UNDEF);
        self.phase.resize(n, self.config.default_phase);
        self.var_data.resize(
            n,
            VarData {
                level: 0,
                reason: NO_REASON,
            },
        );
        self.activity.resize(n, 0.0);
        self.seen.resize(n, false);
        self.heap.extend((0..n as u32).map(Var));
        self.heap_pos.extend(0..n as u32);
        if self.watches.len() < 2 * n {
            self.watches.resize_with(2 * n, Vec::new);
        }
        for &lit in &prefix.trail {
            self.enqueue(lit, None);
        }
        self.qhead = self.trail.len();
        self.n_propagations = prefix.propagations;
        self.arena.clear();
        self.arena.extend_from_slice(&prefix.words);
        self.arena.push(END);
        self.clause_act.resize(prefix.n_clauses, 0.0);
        let mut cref = 0;
        while cref + 1 < self.arena.len() {
            let next = self.clause_end(cref);
            self.watch_clause(cref, next - cref - 1);
            cref = next;
        }
    }

    /// Allocates a fresh variable.
    ///
    /// # Panics
    ///
    /// Panics past 2^30 variables.
    pub fn new_var(&mut self) -> Var {
        let n = self.assigns.len();
        assert!(n < 1 << 30, "too many variables");
        let v = Var(n as u32);
        self.assigns.push(LBool::UNDEF);
        self.phase.push(self.config.default_phase);
        self.var_data.push(VarData {
            level: 0,
            reason: NO_REASON,
        });
        self.activity.push(0.0);
        self.heap_pos.push(NOT_IN_HEAP);
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

    /// Number of clauses in the store (learnt and deleted ones included;
    /// units are assignments, not clauses).
    pub(crate) fn n_clauses(&self) -> usize {
        self.clause_act.len()
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
        // surviving literals go straight onto the arena's tail, past the
        // end word, which becomes their header if they become a clause;
        // otherwise the tail is truncated again.
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
                self.arena.push(l.0);
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
                let unit = Lit(self.arena[start]);
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
                self.attach_clause(start, None);
                true
            }
        }
    }

    /// Adds a two- or three-literal clause of a gate encoding: exactly
    /// [`Sat::add_clause`], at the same clause index with the same sorted
    /// literals. When every literal is unassigned and on its own
    /// variable, normalisation would change nothing but their order, so
    /// the sorted literals go straight into the store; anything else
    /// takes `add_clause`.
    pub(crate) fn add_gate_clause<const N: usize>(&mut self, mut lits: [Lit; N]) -> bool {
        debug_assert!(N == 2 || N == 3);
        for i in 1..N {
            for j in (1..=i).rev() {
                if lits[j] < lits[j - 1] {
                    lits.swap(j, j - 1);
                }
            }
        }
        let plain = !self.unsat
            && self.trail_lim.is_empty()
            && lits.windows(2).all(|w| w[0].var() != w[1].var())
            && lits.iter().all(|&l| self.value(l).is_undef());
        if !plain {
            return self.add_clause(&lits);
        }
        let start = self.arena.len();
        self.arena.extend(lits.iter().map(|l| l.0));
        self.attach_clause(start, None);
        true
    }

    /// Makes the literals `arena[start..]` a clause, whose header takes
    /// the place of the end word just before them, and watches its first
    /// two literals. `lbd` is `Some` for a learnt clause.
    fn attach_clause(&mut self, start: usize, lbd: Option<u32>) -> u32 {
        let cref = start - 1;
        debug_assert_eq!(self.arena[cref], END);
        let id = self.clause_act.len();
        assert!(
            id <= ID_MASK as usize && cref < BINARY as usize,
            "clause store overflow"
        );
        self.arena[cref] = HEADER | id as u32;
        let len = self.arena.len() - start;
        self.arena.push(END);
        self.clause_act.push(0.0);
        self.watch_clause(cref, len);
        if let Some(lbd) = lbd.filter(|_| len > 2) {
            self.learnts.push(Learnt {
                cref: cref as u32,
                lbd,
            });
        }
        cref as u32
    }

    /// Pushes the watchers of the `len`-literal clause at `cref` onto the
    /// watch lists of its first two literals' negations.
    fn watch_clause(&mut self, cref: usize, len: usize) {
        let tagged = cref as u32 | if len == 2 { BINARY } else { 0 };
        let (l0, l1) = (Lit(self.arena[cref + 1]), Lit(self.arena[cref + 2]));
        self.watches[(!l0).index()].push(Watcher {
            cref: tagged,
            blocker: l1,
        });
        self.watches[(!l1).index()].push(Watcher {
            cref: tagged,
            blocker: l0,
        });
    }

    /// The arena offset just past the clause at `cref`: the next header.
    fn clause_end(&self, cref: usize) -> usize {
        let mut k = cref + 1;
        while self.arena[k] & HEADER == 0 {
            k += 1;
        }
        k
    }

    /// The literals of the clause at `cref`, in arena order.
    fn clause_lits(&self, cref: u32) -> impl Iterator<Item = Lit> + '_ {
        self.arena[cref as usize + 1..]
            .iter()
            .take_while(|&&w| w & HEADER == 0)
            .map(|&w| Lit(w))
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
        self.var_data[v] = VarData {
            level: self.decision_level(),
            reason: reason.unwrap_or(NO_REASON),
        };
        self.trail.push(lit);
    }

    /// Unit propagation; returns a conflicting clause reference, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.n_propagations += 1;
            // Watchers of clauses containing ¬p, now false.
            let false_lit = (!p).0;
            let widx = p.index();
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
                let blocker = self.value(w.blocker);
                if blocker == LBool::TRUE {
                    ws[kept] = w;
                    kept += 1;
                    continue;
                }
                let cref = (w.cref & !BINARY) as usize;
                if w.cref & BINARY != 0 {
                    // The blocker is the other literal: the clause is unit
                    // or conflicting, and keeps its watcher either way.
                    ws[kept] = w;
                    kept += 1;
                    if blocker == LBool::FALSE {
                        // Conflict analysis reads the clause in arena
                        // order: put ¬p second, as the general path does.
                        if self.arena[cref + 1] == false_lit {
                            self.arena.swap(cref + 1, cref + 2);
                        }
                        conflict = Some(cref as u32);
                        self.qhead = self.trail.len();
                    } else {
                        self.enqueue(w.blocker, Some(cref as u32));
                    }
                    continue;
                }
                debug_assert_eq!(
                    self.arena[cref] & DELETED,
                    0,
                    "reduce_db drops the watchers of deleted clauses"
                );
                // Make sure the false literal (¬p) is at position 1.
                let (first_at, second_at) = (cref + 1, cref + 2);
                if self.arena[first_at] == false_lit {
                    self.arena.swap(first_at, second_at);
                }
                let first = Lit(self.arena[first_at]);
                if first != w.blocker && self.value(first) == LBool::TRUE {
                    ws[kept] = Watcher {
                        cref: w.cref,
                        blocker: first,
                    };
                    kept += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut k = cref + 3;
                loop {
                    let word = self.arena[k];
                    if word & HEADER != 0 {
                        break;
                    }
                    let lk = Lit(word);
                    if self.value(lk) != LBool::FALSE {
                        self.arena.swap(second_at, k);
                        self.watches[(!lk).index()].push(Watcher {
                            cref: w.cref,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                    k += 1;
                }
                // No new watch: clause is unit or conflicting.
                ws[kept] = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                kept += 1;
                if self.value(first) == LBool::FALSE {
                    conflict = Some(cref as u32);
                    self.qhead = self.trail.len();
                } else {
                    self.enqueue(first, Some(cref as u32));
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
        let id = (self.arena[cref as usize] & ID_MASK) as usize;
        let a = &mut self.clause_act[id];
        *a += self.clause_inc;
        if *a > 1e20 {
            for act in &mut self.clause_act {
                *act *= 1e-20;
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
            let mut k = confl as usize + 1;
            loop {
                let word = self.arena[k];
                if word & HEADER != 0 {
                    break;
                }
                k += 1;
                let q = Lit(word);
                if Some(q) == p {
                    continue; // the literal this reason implied
                }
                let v = q.var().0 as usize;
                let level = self.var_data[v].level;
                if !self.seen[v] && level > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if level >= self.decision_level() {
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
            confl = self.var_data[pv].reason;
            debug_assert_ne!(confl, NO_REASON, "non-decision must have a reason");
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
            let r = self.var_data[l.var().0 as usize].reason;
            let redundant = r != NO_REASON
                && self.clause_lits(r).all(|q| {
                    let v = q.var();
                    v == l.var()
                        || v == uip
                        || self.seen[v.0 as usize]
                        || self.var_data[v.0 as usize].level == 0
                });
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
                if self.var_data[minimised[i].var().0 as usize].level
                    > self.var_data[minimised[max_i].var().0 as usize].level
                {
                    max_i = i;
                }
            }
            minimised.swap(1, max_i);
            self.var_data[minimised[1].var().0 as usize].level
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
            let lv = self.var_data[l.var().0 as usize].level as usize;
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
            self.var_data[v].reason = NO_REASON;
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
        if self.learnts.len() < self.config.max_learnts {
            return;
        }
        // Keep the more useful half: low LBD, then high activity. The sort
        // is stable over creation order, so ties keep creation order.
        let act = |l: &Learnt| self.clause_act[(self.arena[l.cref as usize] & ID_MASK) as usize];
        let mut ranked = self.learnts.clone();
        ranked.sort_by(|a, b| {
            a.lbd.cmp(&b.lbd).then(
                act(b)
                    .partial_cmp(&act(a))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let mut locked = vec![false; self.clause_act.len()];
        for d in self.var_data.iter().filter(|d| d.reason != NO_REASON) {
            locked[(self.arena[d.reason as usize] & ID_MASK) as usize] = true;
        }
        for l in &ranked[ranked.len() / 2..] {
            let header = &mut self.arena[l.cref as usize];
            if !locked[(*header & ID_MASK) as usize] {
                *header |= DELETED;
            }
        }
        let arena = &self.arena;
        self.learnts
            .retain(|l| arena[l.cref as usize] & DELETED == 0);
        // Rebuild watches without deleted clauses.
        for w in &mut self.watches {
            w.clear();
        }
        let mut cref = 0;
        while cref + 1 < self.arena.len() {
            let next = self.clause_end(cref);
            if self.arena[cref] & DELETED == 0 {
                self.watch_clause(cref, next - cref - 1);
            }
            cref = next;
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
                    self.arena.extend(self.learnt.iter().map(|l| l.0));
                    let cref = self.attach_clause(start, Some(lbd));
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
        if self.heap_pos[v.0 as usize] != NOT_IN_HEAP {
            return;
        }
        self.heap.push(v);
        let i = self.heap.len() - 1;
        self.heap_pos[v.0 as usize] = i as u32;
        self.heap_sift_up(i);
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_pos[top.0 as usize] = NOT_IN_HEAP;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last.0 as usize] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    fn heap_update(&mut self, v: Var) {
        let i = self.heap_pos[v.0 as usize];
        if i != NOT_IN_HEAP {
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
        self.heap_pos[self.heap[i].0 as usize] = i as u32;
        self.heap_pos[self.heap[j].0 as usize] = j as u32;
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
        let capacity = || WORKSPACE.with(|w| w.borrow().sat.assigns.capacity());
        with_workspace(SatConfig::default(), |ws| {
            vars(&mut ws.sat, 100);
        });
        assert!(capacity() >= 100);
        with_workspace(SatConfig::default(), |ws| {
            assert_eq!(ws.sat.n_vars(), 0, "reset");
            vars(&mut ws.sat, WORKSPACE_MAX_VARS + 1);
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
