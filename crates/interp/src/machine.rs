//! The interpreter: concrete + shadow execution of core-language programs.
//!
//! Implements the operational semantics of the paper's Figures 4–6. A
//! program state is ⟨ℓ, ρ, m, φ⟩: the current statement, an environment
//! mapping variables to (value, shadow) pairs, a memory mapping
//! (base, offset) to (value, shadow) pairs, and the recorded branch
//! condition sequence φ. The interpreter executes the whole transition
//! relation, producing a [`Run`] that contains everything DIODE's pipeline
//! consumes: the allocation records (target sites with their size values
//! and symbolic target expressions), the branch observation sequence φ,
//! memcheck-style memory errors, and the final outcome.

use std::collections::HashMap;
use std::sync::Arc;

use diode_lang::{Aexp, Bexp, Block, Bv, CastKind, Label, ProcId, Program, Stmt, Symbol, UnOp};
use diode_obs::Phase;
use diode_symbolic::eval_bin;

use crate::heap::{Cell, Fault, Heap, MemError};
use crate::shadow::{Concrete, Shadow};
use crate::snapshot::{
    branch_runs, crc_check, BranchRun, ContImage, FrameImage, ReadLog, Snapshot,
};
use crate::value::{BlockId, Raw, Value};

/// Interpreter limits and switches.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Maximum number of executed statements (including loop-condition
    /// evaluations). Overflow-triggering inputs routinely send programs
    /// into giant loops; fuel bounds every run.
    pub fuel: u64,
    /// Record the branch observation sequence φ. Disable for plain
    /// did-it-crash candidate runs to save memory. A non-recording run
    /// keeps `Run::branches` empty and stamps every allocation with
    /// `branches_before: 0`, whether it starts at `main` or resumes a
    /// [`Snapshot`].
    pub record_branches: bool,
    /// Allocator single-request limit in bytes (requests ≥ limit fail).
    pub alloc_limit: u64,
    /// Red zone: out-of-bounds accesses within this many bytes past a
    /// block are recorded; farther accesses segfault.
    pub redzone: u64,
    /// Maximum call depth.
    pub max_call_depth: usize,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            fuel: 5_000_000,
            record_branches: true,
            alloc_limit: 1 << 31,
            redzone: 4096,
            max_call_depth: 128,
        }
    }
}

/// One observed conditional branch (an element ⟨ℓ, B⟩ of φ, §3.2).
#[derive(Debug, Clone)]
pub struct BranchObs<C> {
    /// Label of the `if`/`while` statement.
    pub label: Label,
    /// Direction taken (condition outcome).
    pub taken: bool,
    /// Shadow condition tag, already *oriented*: it asserts "the condition
    /// evaluates exactly as observed" (for the symbolic policy this is the
    /// branch constraint of §1.1).
    pub constraint: C,
}

/// One dynamic execution of an allocation site.
#[derive(Debug, Clone)]
pub struct AllocRecord<T> {
    /// Label of the `alloc` statement (the target label ℓ).
    pub label: Label,
    /// Site name (`file@line`).
    pub site: std::sync::Arc<str>,
    /// Concrete size argument (the target value).
    pub size: Bv,
    /// True if the computation of the size overflowed (sticky flag): the
    /// ground truth for "the input triggers an overflow at ℓ".
    pub size_ovf: bool,
    /// Shadow tag of the size: taint labels (stage 1, the relevant input
    /// bytes) or the symbolic target expression (stage 2).
    pub size_tag: T,
    /// True if the allocator refused the request.
    pub failed: bool,
    /// Number of branch observations recorded before this allocation
    /// executed — φ restricted to the path *to* this site.
    pub branches_before: usize,
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// `main` finished normally.
    Completed,
    /// The program rejected its input via `error(msg)` (e.g. `png_error`).
    InputRejected(String),
    /// The program aborted (`abort(msg)` or failed `alloc_abort`) — the
    /// paper's SIGABRT rows.
    Aborted(String),
    /// A memory fault (null dereference / wild access) — SIGSEGV.
    Segfault(Fault),
    /// The fuel limit was exhausted.
    OutOfFuel,
    /// The program itself is ill-formed (width mismatch, unbound variable,
    /// type confusion). Benchmark programs must never reach this.
    RuntimeError(String),
}

impl Outcome {
    /// True for SIGSEGV.
    #[must_use]
    pub fn is_segfault(&self) -> bool {
        matches!(self, Outcome::Segfault(_))
    }
}

/// Everything observed during one execution.
#[derive(Debug)]
pub struct Run<T, C> {
    /// Final outcome.
    pub outcome: Outcome,
    /// Memcheck-style errors, in occurrence order.
    pub mem_errors: Vec<MemError>,
    /// Dynamic allocation records, in occurrence order.
    pub allocs: Vec<AllocRecord<T>>,
    /// The branch observation sequence φ (empty if recording disabled).
    pub branches: Vec<BranchObs<C>>,
    /// Messages from `warn(..)` statements.
    pub warnings: Vec<String>,
    /// Statements executed.
    pub steps: u64,
}

/// What stage 2 reads from a run that stops at a site (see
/// [`run_to_alloc`]): the site's first allocation record and φ along the
/// path to it.
#[derive(Debug)]
pub struct SiteVisit<T, C> {
    /// The first allocation record at the requested label.
    pub alloc: AllocRecord<T>,
    /// The branch observations recorded before that allocation
    /// executed: `alloc.branches_before` of them.
    pub path: Vec<BranchObs<C>>,
}

impl<T, C> Run<T, C> {
    /// Allocation records for a specific site label.
    pub fn allocs_at(&self, label: Label) -> impl Iterator<Item = &AllocRecord<T>> {
        self.allocs.iter().filter(move |a| a.label == label)
    }

    /// True if the run triggered an overflow at the given site: the site
    /// executed with an overflowed size computation (§4.6's verification).
    #[must_use]
    pub fn overflowed_at(&self, label: Label) -> bool {
        self.allocs_at(label).any(|a| a.size_ovf)
    }
}

/// Executes `program` on `input` under the given shadow policy.
///
/// This is the single entry point used by all of DIODE's stages; the choice
/// of `shadow` selects taint tracing, symbolic recording, or plain
/// execution.
pub fn run<S: Shadow>(
    program: &Program,
    input: &[u8],
    shadow: S,
    config: &MachineConfig,
) -> Run<S::Tag, S::CondTag> {
    let _span = diode_obs::span(Phase::InterpRun);
    let mut m = Machine::boot(program, input, shadow, config);
    let outcome = m.drive_to_end();
    diode_obs::count(RUN_STEPS, m.steps);
    m.finish(outcome)
}

/// Like [`run`], additionally recording, for every input offset the
/// program reads directly, the step count of the statement performing
/// the **first** such read. One traced run therefore answers "where
/// would executions diverge?" for *every* candidate byte set at once —
/// the per-unit warm-up uses this to place one prefix snapshot per site
/// from a single pass.
///
/// Reads made by the `crc32_ok` intrinsic are not traced: snapshot
/// validation checks checksum outcomes semantically, so a checksum over
/// divergent bytes does not force a snapshot earlier.
pub fn run_traced<S: Shadow>(
    program: &Program,
    input: &[u8],
    shadow: S,
    config: &MachineConfig,
) -> (Run<S::Tag, S::CondTag>, HashMap<u64, u64>) {
    let _span = diode_obs::span(Phase::InterpRun);
    let mut m = Machine::boot(program, input, shadow, config);
    m.trace_reads = Some(HashMap::new());
    let outcome = m.drive_to_end();
    diode_obs::count(RUN_STEPS, m.steps);
    let trace = m.trace_reads.take().unwrap_or_default();
    (m.finish(outcome), trace)
}

/// Captures prefix snapshots at **several** step boundaries in a single
/// pass — the per-unit warm-up that hands every site of a multi-site
/// program its own resumption point for the price of one partial run.
/// `stops` must be sorted ascending (duplicates allowed: each gets its
/// own capture of the same state); execution ends right after the last
/// capture, so the run costs only the longest requested prefix. Entries
/// are `None` from the first stop the run halted before reaching.
///
/// The snapshots are prefixes of one execution, so they share one branch
/// log: the pass's log, run-length encoded once at its end, of which each
/// snapshot holds its own length.
pub fn run_capture_multi<S: Shadow + Clone>(
    program: &Program,
    input: &[u8],
    shadow: S,
    config: &MachineConfig,
    stops: &[u64],
) -> Vec<Option<Snapshot<S>>> {
    debug_assert!(stops.windows(2).all(|w| w[0] <= w[1]));
    let _span = diode_obs::span(Phase::InterpCapture);
    let mut m = Machine::boot(program, input, shadow, config);
    m.log = Some(ReadLog::default());
    let pending: Arc<[BranchRun<S::CondTag>]> = Arc::new([]);
    let mut out: Vec<Option<Snapshot<S>>> = Vec::with_capacity(stops.len());
    for (i, &stop) in stops.iter().enumerate() {
        m.capture_before = Some(stop);
        match m.drive() {
            DriveEnd::Captured => {
                out.push(Some(m.capture(i + 1 < stops.len(), Arc::clone(&pending))));
            }
            DriveEnd::Outcome(_) => break,
            DriveEnd::Visited => unreachable!("no site stop in this mode"),
        }
    }
    diode_obs::count(CAPTURE_STEPS, m.steps);
    let shared = branch_runs(std::mem::take(&mut m.branches));
    for snapshot in out.iter_mut().flatten() {
        snapshot.branches = Arc::clone(&shared);
    }
    out.resize_with(stops.len(), || None);
    out
}

/// Resumes a captured [`Snapshot`] on `input`, running the divergent
/// suffix to completion. Returns `None` — without executing anything —
/// unless the snapshot [`validates`](Snapshot::validates) for `input`;
/// when it does, the result is byte-identical to `run(program, input,
/// ...)` under the same shadow policy and configuration.
///
/// A resume that does not record branches (`config.record_branches`
/// false) starts from an empty branch log, exactly as such a run from
/// `main` would, so it copies none of the snapshot's prefix log. The one
/// precondition left: a snapshot captured without recording has no
/// prefix log, so it cannot serve a resume that records.
///
/// # Panics
///
/// Panics if `program` is not the program the snapshot was captured from
/// (the control stack no longer matches its structure).
pub fn run_from<S: Shadow + Clone>(
    program: &Program,
    input: &[u8],
    snapshot: &Snapshot<S>,
    config: &MachineConfig,
) -> Option<Run<S::Tag, S::CondTag>> {
    let _span = diode_obs::span(Phase::InterpResume);
    let mut m = Machine::resume(program, input, snapshot, config)?;
    let outcome = m.drive_to_end();
    diode_obs::count(RESUME_STEPS, m.steps - snapshot.steps);
    Some(m.finish(outcome))
}

/// Stage 2's run: executes `program` on `input` under `shadow` — from
/// `main`, or from the concrete snapshot `from` — and halts right after
/// the **first** allocation at `label` records itself. Returns that
/// record and the branch observations before it, which are exactly
/// `allocs_at(label).next()` and `branches[..branches_before]` of the
/// complete run from `main` under the same policy and configuration. No
/// `Outcome` is reported: the run did not end.
///
/// A resume from `from` *lifts* the concrete prefix into `shadow`: every
/// prefix value, heap cell and allocation size gets the policy's default
/// tag, and every prefix branch observation gets its `cond_true()`. That
/// is exactly what `shadow` records over a prefix that read none of the
/// input bytes it tags, and the lift checks this against the snapshot's
/// read log (`crc32_ok` outcomes and `inlen` carry no tags). The
/// canonical use: the warm pass's `Concrete` prefix, ending before the
/// first read of any of the site's bytes, resumed under
/// `Symbolic::relevant_bytes(site_bytes)`. A resume that records
/// branches needs a snapshot captured with recording on: one captured
/// without has no prefix log.
///
/// Returns `None` when the run ends before the site executes, when
/// `from` fails [validation](Snapshot::validates), or when its prefix
/// read an input byte `shadow` tags (run from `main` instead).
///
/// # Panics
///
/// Panics if `program` is not the program `from` was captured from.
pub fn run_to_alloc<S: Shadow>(
    program: &Program,
    input: &[u8],
    shadow: S,
    config: &MachineConfig,
    from: Option<&Snapshot<Concrete>>,
    label: Label,
) -> Option<SiteVisit<S::Tag, S::CondTag>> {
    let (phase, counter) = match from {
        Some(_) => (Phase::InterpResume, RESUME_STEPS),
        None => (Phase::InterpRun, RUN_STEPS),
    };
    let _span = diode_obs::span(phase);
    let mut m = match from {
        Some(snapshot) => Machine::lift(program, input, snapshot, shadow, config)?,
        None => Machine::boot(program, input, shadow, config),
    };
    let start = m.steps;
    let end = match m.allocs.iter().position(|a| a.label == label) {
        // The site already executed within the prefix.
        Some(first) => {
            m.allocs.truncate(first + 1);
            DriveEnd::Visited
        }
        None => {
            m.stop_at = Some(label);
            m.drive()
        }
    };
    diode_obs::count(counter, m.steps - start);
    crate::heap::note_peak_heap_bytes(m.heap.peak_bytes());
    match end {
        DriveEnd::Visited => {
            let alloc = m
                .allocs
                .pop()
                .expect("the site's first record is the last kept");
            m.branches.truncate(alloc.branches_before);
            Some(SiteVisit {
                alloc,
                path: m.branches,
            })
        }
        DriveEnd::Outcome(_) => None,
        DriveEnd::Captured => unreachable!("no capture in this mode"),
    }
}

/// Job-scope counters of executed statements: runs from `main`, resumed
/// suffixes (after the snapshot), and capture runs.
const RUN_STEPS: &str = "interp.run_steps";
const RESUME_STEPS: &str = "interp.resume_steps";
const CAPTURE_STEPS: &str = "interp.capture_steps";

enum Halt {
    Rejected(String),
    Aborted(String),
    Fault(Fault),
    Fuel,
    Runtime(String),
    /// The allocation [`run_to_alloc`] waits for has recorded itself.
    Visited,
}

impl Halt {
    /// The run's outcome; `None` for a stop at the requested site.
    fn into_outcome(self) -> Option<Outcome> {
        Some(match self {
            Halt::Rejected(m) => Outcome::InputRejected(m),
            Halt::Aborted(m) => Outcome::Aborted(m),
            Halt::Fault(f) => Outcome::Segfault(f),
            Halt::Fuel => Outcome::OutOfFuel,
            Halt::Runtime(m) => Outcome::RuntimeError(m),
            Halt::Visited => return None,
        })
    }
}

/// How a nested block was entered — mirrored by
/// [`ContImage`](crate::snapshot) when a control stack is frozen.
#[derive(Debug, Clone, Copy)]
enum Via {
    Root,
    Then,
    Else,
    LoopBody,
}

/// One control-stack entry: a block being executed, or a `while` head
/// about to re-evaluate its condition.
enum Cont<'a> {
    Block {
        block: &'a Block,
        idx: usize,
        via: Via,
    },
    Loop {
        stmt: &'a Stmt,
    },
}

/// One call frame: the executing procedure, the caller's destination for
/// the return value, the local environment, and the control stack.
struct Frame<'a, T> {
    proc: ProcId,
    ret_dst: Option<Symbol>,
    /// The local environment, indexed by `Symbol.0`: interner ids are
    /// dense and fixed when the program is built, so a variable access is
    /// a vector index. An unset slot is an unbound variable.
    env: Vec<Option<Value<T>>>,
    control: Vec<Cont<'a>>,
}

/// The next machine transition, decided without mutating anything so the
/// capture check can fire *before* the state advances.
enum Action<'a> {
    /// The frame's control stack is empty: implicit `return`.
    FramePop,
    /// The top block is exhausted: pop it.
    BlockPop,
    /// Execute this statement (the top block's next one).
    Stmt(&'a Stmt),
    /// Re-evaluate the top `while` head's condition.
    LoopCond(&'a Stmt),
}

/// Why the drive loop stopped.
enum DriveEnd {
    Outcome(Outcome),
    Captured,
    /// The allocation at `Machine::stop_at` recorded itself.
    Visited,
}

/// A frame environment with every one of `program`'s variables unbound.
fn empty_env<T: Clone>(program: &Program) -> Vec<Option<Value<T>>> {
    vec![None; program.interner().len()]
}

/// Rebuilds borrowed control stacks from their program-independent
/// images, each bound value's tag carried over by `tag`.
///
/// # Panics
///
/// Panics when the image does not fit the program's structure (i.e. the
/// snapshot was captured from a different program).
fn rebuild_frames<'a, U, T>(
    program: &'a Program,
    images: &[FrameImage<U>],
    tag: impl Fn(&U) -> T,
) -> Vec<Frame<'a, T>> {
    images
        .iter()
        .map(|img| {
            let proc = program.proc(img.proc);
            let mut control: Vec<Cont<'a>> = Vec::with_capacity(img.control.len());
            for entry in &img.control {
                let next = match (entry, control.last()) {
                    (ContImage::Root { idx }, None) => Cont::Block {
                        block: &proc.body,
                        idx: *idx,
                        via: Via::Root,
                    },
                    (
                        ContImage::Then { idx },
                        Some(Cont::Block {
                            block, idx: pidx, ..
                        }),
                    ) => match &block.stmts()[pidx - 1] {
                        Stmt::If { then_blk, .. } => Cont::Block {
                            block: then_blk,
                            idx: *idx,
                            via: Via::Then,
                        },
                        other => panic!("snapshot/program mismatch: expected if, found {other:?}"),
                    },
                    (
                        ContImage::Else { idx },
                        Some(Cont::Block {
                            block, idx: pidx, ..
                        }),
                    ) => match &block.stmts()[pidx - 1] {
                        Stmt::If { else_blk, .. } => Cont::Block {
                            block: else_blk,
                            idx: *idx,
                            via: Via::Else,
                        },
                        other => panic!("snapshot/program mismatch: expected if, found {other:?}"),
                    },
                    (
                        ContImage::Loop,
                        Some(Cont::Block {
                            block, idx: pidx, ..
                        }),
                    ) => match &block.stmts()[pidx - 1] {
                        stmt @ Stmt::While { .. } => Cont::Loop { stmt },
                        other => {
                            panic!("snapshot/program mismatch: expected while, found {other:?}")
                        }
                    },
                    (ContImage::LoopBody { idx }, Some(Cont::Loop { stmt })) => match stmt {
                        Stmt::While { body, .. } => Cont::Block {
                            block: body,
                            idx: *idx,
                            via: Via::LoopBody,
                        },
                        other => {
                            panic!("snapshot/program mismatch: expected while, found {other:?}")
                        }
                    },
                    (entry, _) => {
                        panic!("snapshot/program mismatch: {entry:?} has no matching parent")
                    }
                };
                control.push(next);
            }
            let env = img
                .env
                .iter()
                .map(|v| {
                    v.as_ref().map(|v| Value {
                        raw: v.raw,
                        ovf: v.ovf,
                        tag: tag(&v.tag),
                    })
                })
                .collect();
            Frame {
                proc: img.proc,
                ret_dst: img.ret_dst,
                env,
                control,
            }
        })
        .collect()
}

struct Machine<'a, S: Shadow> {
    program: &'a Program,
    input: &'a [u8],
    shadow: S,
    config: &'a MachineConfig,
    heap: Heap<S::Tag>,
    frames: Vec<Frame<'a, S::Tag>>,
    branches: Vec<BranchObs<S::CondTag>>,
    allocs: Vec<AllocRecord<S::Tag>>,
    warnings: Vec<String>,
    steps: u64,
    /// Trace mode: input offset → step of its first direct read.
    trace_reads: Option<HashMap<u64, u64>>,
    /// Capture mode: prefix input observations being logged.
    log: Option<ReadLog>,
    /// Capture mode: stop just before the tick reaching this step.
    capture_before: Option<u64>,
    /// Site mode: stop right after the allocation at this label records
    /// itself.
    stop_at: Option<Label>,
}

impl<'a, S: Shadow> Machine<'a, S> {
    /// A fresh machine at `main`'s entry. A program whose `main` takes
    /// parameters gets an empty frame stack plus a pending boot error,
    /// reported by the first `drive`.
    fn boot(
        program: &'a Program,
        input: &'a [u8],
        shadow: S,
        config: &'a MachineConfig,
    ) -> Machine<'a, S> {
        let entry = program.proc(program.entry());
        let frames = if entry.params.is_empty() {
            vec![Frame {
                proc: program.entry(),
                ret_dst: None,
                env: empty_env(program),
                control: vec![Cont::Block {
                    block: &entry.body,
                    idx: 0,
                    via: Via::Root,
                }],
            }]
        } else {
            Vec::new()
        };
        Machine {
            program,
            input,
            shadow,
            config,
            heap: Heap::new(config.alloc_limit, config.redzone),
            frames,
            branches: Vec::new(),
            allocs: Vec::new(),
            warnings: Vec::new(),
            steps: 0,
            trace_reads: None,
            log: None,
            capture_before: None,
            stop_at: None,
        }
    }

    /// A machine at `snapshot`'s boundary, executing under the policy it
    /// was captured with; `None` unless the snapshot validates for
    /// `input`.
    fn resume(
        program: &'a Program,
        input: &'a [u8],
        snapshot: &Snapshot<S>,
        config: &'a MachineConfig,
    ) -> Option<Machine<'a, S>>
    where
        S: Clone,
    {
        if !snapshot.validates(input) {
            return None;
        }
        Some(Machine::at(
            program,
            input,
            config,
            snapshot,
            snapshot.shadow.clone(),
            snapshot.heap.clone(),
            S::Tag::clone,
            S::CondTag::clone,
        ))
    }

    /// A machine at a concrete snapshot's boundary, executing under
    /// `shadow`: the lift of [`run_to_alloc`]. Every prefix tag is the
    /// default and every prefix branch constraint `cond_true()`, which is
    /// what `shadow` records when the prefix read none of the bytes it
    /// tags. `None` unless the snapshot validates for `input` and its
    /// read log holds no such byte.
    fn lift(
        program: &'a Program,
        input: &'a [u8],
        snapshot: &Snapshot<Concrete>,
        mut shadow: S,
        config: &'a MachineConfig,
    ) -> Option<Machine<'a, S>> {
        let tagged = |off: u64| u32::try_from(off).is_ok_and(|o| shadow.tags_input(o));
        if snapshot.reads.iter().any(|&(off, _)| tagged(off)) || !snapshot.validates(input) {
            return None;
        }
        let cond = shadow.cond_true();
        let heap = snapshot.heap.lift();
        Some(Machine::at(
            program,
            input,
            config,
            snapshot,
            shadow,
            heap,
            |()| S::Tag::default(),
            |()| cond.clone(),
        ))
    }

    /// The machine at `snapshot`'s boundary running under `shadow` on
    /// `heap`, each prefix tag carried over by `tag` and each prefix
    /// branch constraint by `cond`, copying each observation once. A
    /// non-recording `config` starts from an empty branch log and stamps
    /// the prefix allocations `branches_before: 0`, as a non-recording
    /// run from `main` does.
    #[allow(clippy::too_many_arguments)]
    fn at<U: Shadow>(
        program: &'a Program,
        input: &'a [u8],
        config: &'a MachineConfig,
        snapshot: &Snapshot<U>,
        shadow: S,
        heap: Heap<S::Tag>,
        tag: impl Fn(&U::Tag) -> S::Tag,
        cond: impl Fn(&U::CondTag) -> S::CondTag,
    ) -> Machine<'a, S> {
        let recording = config.record_branches;
        let mut branches = Vec::new();
        if recording {
            // A run's observations have the same tag, so one carried-over
            // observation cloned `n` times is what mapping each would give.
            branches.reserve_exact(snapshot.branches_len);
            for (b, n) in snapshot.branch_prefix() {
                let obs = BranchObs {
                    label: b.label,
                    taken: b.taken,
                    constraint: cond(&b.constraint),
                };
                branches.extend(std::iter::repeat_n(obs, n));
            }
        }
        let allocs = snapshot
            .allocs
            .iter()
            .map(|a| AllocRecord {
                label: a.label,
                site: a.site.clone(),
                size: a.size,
                size_ovf: a.size_ovf,
                size_tag: tag(&a.size_tag),
                failed: a.failed,
                branches_before: if recording { a.branches_before } else { 0 },
            })
            .collect();
        Machine {
            program,
            input,
            shadow,
            config,
            heap,
            frames: rebuild_frames(program, &snapshot.frames, tag),
            branches,
            allocs,
            warnings: snapshot.warnings.clone(),
            steps: snapshot.steps,
            trace_reads: None,
            log: None,
            capture_before: None,
            stop_at: None,
        }
    }

    /// True when `main` took parameters at boot (empty frame stack with
    /// zero executed steps means we never started).
    fn boot_failed(&self) -> bool {
        self.frames.is_empty() && self.steps == 0
    }

    /// The main interpreter loop: repeatedly decide the next transition,
    /// fire the capture check ahead of any state change, and execute.
    fn drive(&mut self) -> DriveEnd {
        if self.boot_failed() {
            return DriveEnd::Outcome(Outcome::RuntimeError(
                "main must not take parameters".into(),
            ));
        }
        loop {
            let action: Action<'a> = {
                let Some(frame) = self.frames.last() else {
                    return DriveEnd::Outcome(Outcome::Completed);
                };
                match frame.control.last() {
                    None => Action::FramePop,
                    Some(Cont::Block { block, idx, .. }) => {
                        let block: &'a Block = block;
                        match block.stmts().get(*idx) {
                            Some(stmt) => Action::Stmt(stmt),
                            None => Action::BlockPop,
                        }
                    }
                    Some(Cont::Loop { stmt }) => Action::LoopCond(stmt),
                }
            };
            let result = match action {
                Action::FramePop => self.pop_frame(None),
                Action::BlockPop => {
                    self.top_frame().control.pop();
                    Ok(())
                }
                Action::Stmt(stmt) => {
                    // Both statement execution and loop-condition
                    // evaluation tick; capture fires right before the tick
                    // that would reach the requested step, i.e. at the
                    // exact statement boundary a traced run reported.
                    if self.capture_due() {
                        return DriveEnd::Captured;
                    }
                    self.advance_idx();
                    self.step_stmt(stmt)
                }
                Action::LoopCond(stmt) => {
                    if self.capture_due() {
                        return DriveEnd::Captured;
                    }
                    self.loop_step(stmt)
                }
            };
            if let Err(halt) = result {
                return match halt.into_outcome() {
                    Some(outcome) => DriveEnd::Outcome(outcome),
                    None => DriveEnd::Visited,
                };
            }
        }
    }

    /// Drives to completion in a mode where neither a capture nor a site
    /// stop can fire.
    fn drive_to_end(&mut self) -> Outcome {
        match self.drive() {
            DriveEnd::Outcome(o) => o,
            DriveEnd::Captured | DriveEnd::Visited => {
                unreachable!("capture and site stops disabled in this mode")
            }
        }
    }

    /// Consumes the machine's observations into a [`Run`].
    fn finish(self, outcome: Outcome) -> Run<S::Tag, S::CondTag> {
        crate::heap::note_peak_heap_bytes(self.heap.peak_bytes());
        Run {
            outcome,
            mem_errors: self.heap.into_errors(),
            allocs: self.allocs,
            branches: self.branches,
            warnings: self.warnings,
            steps: self.steps,
        }
    }

    fn capture_due(&self) -> bool {
        self.capture_before == Some(self.steps + 1)
    }

    /// Freezes the current state (capture mode only): the read log so far
    /// becomes the snapshot's validation log, and logging stops unless
    /// `keep_logging`. The snapshot's branch prefix is the first
    /// `self.branches.len()` observations of `branches`, a placeholder
    /// that [`run_capture_multi`] replaces with the pass's run-length log
    /// once the pass ends.
    fn capture(&mut self, keep_logging: bool, branches: Arc<[BranchRun<S::CondTag>]>) -> Snapshot<S>
    where
        S: Clone,
    {
        let log = if keep_logging {
            self.log.clone().unwrap_or_default()
        } else {
            self.log.take().unwrap_or_default()
        };
        let mut reads: Vec<(u64, u8)> = log.reads.into_iter().collect();
        reads.sort_unstable();
        Snapshot {
            shadow: self.shadow.clone(),
            steps: self.steps,
            heap: self.heap.clone(),
            frames: self.frames.iter().map(Machine::<S>::frame_image).collect(),
            branches,
            branches_len: self.branches.len(),
            allocs: self.allocs.clone(),
            warnings: self.warnings.clone(),
            reads,
            crcs: log.crcs,
            inlen: log.inlen,
        }
    }

    fn frame_image(frame: &Frame<'a, S::Tag>) -> FrameImage<S::Tag> {
        FrameImage {
            proc: frame.proc,
            ret_dst: frame.ret_dst,
            env: frame.env.clone(),
            control: frame
                .control
                .iter()
                .map(|c| match c {
                    Cont::Block { idx, via, .. } => match via {
                        Via::Root => ContImage::Root { idx: *idx },
                        Via::Then => ContImage::Then { idx: *idx },
                        Via::Else => ContImage::Else { idx: *idx },
                        Via::LoopBody => ContImage::LoopBody { idx: *idx },
                    },
                    Cont::Loop { .. } => ContImage::Loop,
                })
                .collect(),
        }
    }

    fn top_frame(&mut self) -> &mut Frame<'a, S::Tag> {
        self.frames.last_mut().expect("frame stack never empty")
    }

    /// Binds `dst` in the current frame.
    fn bind(&mut self, dst: Symbol, v: Value<S::Tag>) {
        self.top_frame().env[dst.0 as usize] = Some(v);
    }

    fn advance_idx(&mut self) {
        match self.top_frame().control.last_mut() {
            Some(Cont::Block { idx, .. }) => *idx += 1,
            _ => unreachable!("advance_idx only follows Action::Stmt"),
        }
    }

    /// Pops the current frame, delivering `value` to the caller's
    /// destination (exactly the old recursive `Flow::Return` semantics:
    /// a discarded value is fine, a missing expected value is a runtime
    /// error).
    fn pop_frame(&mut self, value: Option<Value<S::Tag>>) -> Result<(), Halt> {
        let frame = self.frames.pop().expect("frame stack never empty");
        match (frame.ret_dst, value) {
            (Some(dst), Some(v)) => {
                self.bind(dst, v);
                Ok(())
            }
            (Some(_), None) => Err(Halt::Runtime(format!(
                "procedure `{}` returned no value",
                self.program.proc(frame.proc).name
            ))),
            (None, _) => Ok(()),
        }
    }

    fn tick(&mut self) -> Result<(), Halt> {
        self.steps += 1;
        if self.steps > self.config.fuel {
            Err(Halt::Fuel)
        } else {
            Ok(())
        }
    }

    fn var_name(&self, sym: Symbol) -> &str {
        self.program.interner().name(sym)
    }

    /// Executes one statement. Control statements (`if`, `while`, calls,
    /// returns) only manipulate the explicit control/frame stacks; the
    /// drive loop picks up from there on the next iteration.
    fn step_stmt(&mut self, stmt: &'a Stmt) -> Result<(), Halt> {
        self.tick()?;
        match stmt {
            Stmt::Skip(_) => Ok(()),
            Stmt::Assign(_, dst, e) => {
                let v = self.eval(e)?;
                self.bind(*dst, v);
                Ok(())
            }
            Stmt::Call {
                dst, proc, args, ..
            } => {
                if self.frames.len() >= self.config.max_call_depth {
                    return Err(Halt::Runtime("call depth limit exceeded".into()));
                }
                let callee = self.program.proc(*proc);
                if callee.params.len() != args.len() {
                    return Err(Halt::Runtime(format!(
                        "procedure `{}` expects {} arguments, got {}",
                        callee.name,
                        callee.params.len(),
                        args.len()
                    )));
                }
                let mut env = empty_env(self.program);
                for (param, arg) in callee.params.iter().zip(args) {
                    let v = self.eval(arg)?;
                    env[param.0 as usize] = Some(v);
                }
                self.frames.push(Frame {
                    proc: *proc,
                    ret_dst: *dst,
                    env,
                    control: vec![Cont::Block {
                        block: &callee.body,
                        idx: 0,
                        via: Via::Root,
                    }],
                });
                Ok(())
            }
            Stmt::Alloc {
                label,
                site,
                dst,
                size,
                abort_on_fail,
            } => {
                let sv = self.eval(size)?;
                let Some(bv) = sv.as_int() else {
                    return Err(Halt::Runtime("allocation size must be an integer".into()));
                };
                if bv.width() != 32 {
                    return Err(Halt::Runtime(format!(
                        "allocation size must be 32 bits wide, got {} bits at {site}",
                        bv.width()
                    )));
                }
                let size32 = bv.value() as u32;
                let block = self.heap.alloc(site.clone(), size32);
                self.allocs.push(AllocRecord {
                    label: *label,
                    site: site.clone(),
                    size: bv,
                    size_ovf: sv.ovf,
                    size_tag: sv.tag.clone(),
                    failed: block.is_none(),
                    branches_before: self.branches.len(),
                });
                if self.stop_at == Some(*label) {
                    return Err(Halt::Visited);
                }
                match block {
                    Some(b) => {
                        self.bind(*dst, Value::ptr(b));
                        Ok(())
                    }
                    None if *abort_on_fail => Err(Halt::Aborted(format!(
                        "allocation of {size32} bytes failed at {site}"
                    ))),
                    None => {
                        self.bind(*dst, Value::ptr(BlockId::NULL));
                        Ok(())
                    }
                }
            }
            Stmt::Free(label, ptr) => {
                let v = self.lookup(*ptr)?;
                let Some(b) = v.as_ptr() else {
                    return Err(Halt::Runtime(format!(
                        "free of non-pointer `{}`",
                        self.var_name(*ptr)
                    )));
                };
                self.heap.free(b, *label);
                Ok(())
            }
            Stmt::Load {
                label,
                dst,
                base,
                offset,
            } => {
                let ptr = self.lookup(*base)?;
                let Some(b) = ptr.as_ptr() else {
                    return Err(Halt::Runtime(format!(
                        "load through non-pointer `{}`",
                        self.var_name(*base)
                    )));
                };
                let off = self.eval(offset)?;
                let Some(off) = off.as_int() else {
                    return Err(Halt::Runtime("load offset must be an integer".into()));
                };
                let cell = self
                    .heap
                    .load(b, off.value() as u64, *label)
                    .map_err(Halt::Fault)?;
                self.bind(
                    *dst,
                    Value {
                        raw: Raw::Int(cell.value),
                        ovf: cell.ovf,
                        tag: cell.tag,
                    },
                );
                Ok(())
            }
            Stmt::Store {
                label,
                base,
                offset,
                value,
            } => {
                let ptr = self.lookup(*base)?;
                let Some(b) = ptr.as_ptr() else {
                    return Err(Halt::Runtime(format!(
                        "store through non-pointer `{}`",
                        self.var_name(*base)
                    )));
                };
                let off = self.eval(offset)?;
                let Some(off) = off.as_int() else {
                    return Err(Halt::Runtime("store offset must be an integer".into()));
                };
                let v = self.eval(value)?;
                let Some(bv) = v.as_int() else {
                    return Err(Halt::Runtime("stored value must be an integer".into()));
                };
                if bv.width() != 8 {
                    return Err(Halt::Runtime(format!(
                        "memory cells are bytes; stored value is {} bits wide",
                        bv.width()
                    )));
                }
                self.heap
                    .store(
                        b,
                        off.value() as u64,
                        Cell {
                            value: bv,
                            ovf: v.ovf,
                            tag: v.tag,
                        },
                        *label,
                    )
                    .map_err(Halt::Fault)?;
                Ok(())
            }
            Stmt::If {
                label,
                cond,
                then_blk,
                else_blk,
            } => {
                let (taken, constraint) = self.eval_cond(cond)?;
                if self.config.record_branches {
                    self.branches.push(BranchObs {
                        label: *label,
                        taken,
                        constraint,
                    });
                }
                let (block, via) = if taken {
                    (then_blk, Via::Then)
                } else {
                    (else_blk, Via::Else)
                };
                self.top_frame()
                    .control
                    .push(Cont::Block { block, idx: 0, via });
                Ok(())
            }
            Stmt::While { .. } => {
                // The statement's own tick already happened; the loop head
                // goes on the control stack and each condition evaluation
                // ticks again in `loop_step`, exactly as the recursive
                // interpreter did.
                self.top_frame().control.push(Cont::Loop { stmt });
                Ok(())
            }
            Stmt::Error(_, msg) => Err(Halt::Rejected(msg.clone())),
            Stmt::Warn(_, msg) => {
                self.warnings.push(msg.clone());
                Ok(())
            }
            Stmt::Abort(_, msg) => Err(Halt::Aborted(msg.clone())),
            Stmt::Return(_, None) => self.pop_frame(None),
            Stmt::Return(_, Some(e)) => {
                let v = self.eval(e)?;
                self.pop_frame(Some(v))
            }
        }
    }

    /// One `while`-head evaluation: tick, evaluate the condition, record
    /// the branch observation, then either enter the body or pop the loop.
    fn loop_step(&mut self, stmt: &'a Stmt) -> Result<(), Halt> {
        let Stmt::While { label, cond, body } = stmt else {
            unreachable!("Cont::Loop always holds a while statement");
        };
        self.tick()?;
        let (taken, constraint) = self.eval_cond(cond)?;
        if self.config.record_branches {
            self.branches.push(BranchObs {
                label: *label,
                taken,
                constraint,
            });
        }
        if taken {
            self.top_frame().control.push(Cont::Block {
                block: body,
                idx: 0,
                via: Via::LoopBody,
            });
        } else {
            self.top_frame().control.pop();
        }
        Ok(())
    }

    fn lookup(&mut self, sym: Symbol) -> Result<Value<S::Tag>, Halt> {
        match self.frames.last().expect("frame").env.get(sym.0 as usize) {
            Some(Some(v)) => Ok(v.clone()),
            _ => Err(Halt::Runtime(format!(
                "use of unbound variable `{}`",
                self.var_name(sym)
            ))),
        }
    }

    fn eval(&mut self, e: &Aexp) -> Result<Value<S::Tag>, Halt> {
        match e {
            Aexp::Const(bv) => Ok(Value::int(*bv)),
            Aexp::Var(sym) => self.lookup(*sym),
            Aexp::InLen => {
                if let Some(log) = &mut self.log {
                    log.inlen = Some(self.input.len() as u64);
                }
                Ok(Value::int(Bv::u32(
                    u32::try_from(self.input.len()).unwrap_or(u32::MAX),
                )))
            }
            Aexp::InByte(idx) => {
                let iv = self.eval(idx)?;
                let Some(off) = iv.as_int() else {
                    return Err(Halt::Runtime("input index must be an integer".into()));
                };
                let off64 = off.value() as u64;
                self.observe_read(off64);
                // Reads past the end of the input behave like reads past
                // EOF: they produce zero, untainted bytes.
                if off64 >= self.input.len() as u64 {
                    return Ok(Value::int(Bv::byte(0)));
                }
                let offset = off64 as u32;
                let byte = self.input[offset as usize];
                let tag = self.shadow.input_byte(offset);
                Ok(Value {
                    raw: Raw::Int(Bv::byte(byte)),
                    ovf: false,
                    tag,
                })
            }
            Aexp::Un(op, a) => {
                let av = self.eval(a)?;
                let Some(abv) = av.as_int() else {
                    return Err(Halt::Runtime("unary operand must be an integer".into()));
                };
                let (result, ovf) = match op {
                    UnOp::Neg => abv.neg(),
                    UnOp::Not => (abv.not(), false),
                };
                let tag = self.shadow.un(*op, (&av.tag, abv));
                Ok(Value {
                    raw: Raw::Int(result),
                    ovf: av.ovf | ovf,
                    tag,
                })
            }
            Aexp::Bin(op, a, b) => {
                let av = self.eval(a)?;
                let bv = self.eval(b)?;
                let (Some(abv), Some(bbv)) = (av.as_int(), bv.as_int()) else {
                    return Err(Halt::Runtime(format!(
                        "binary operands of {op:?} must be integers"
                    )));
                };
                if abv.width() != bbv.width() {
                    return Err(Halt::Runtime(format!(
                        "width mismatch in {op:?}: {} vs {} bits",
                        abv.width(),
                        bbv.width()
                    )));
                }
                let (result, ovf) = eval_bin(*op, abv, bbv);
                let tag = self.shadow.bin(*op, (&av.tag, abv), (&bv.tag, bbv));
                Ok(Value {
                    raw: Raw::Int(result),
                    ovf: av.ovf | bv.ovf | ovf,
                    tag,
                })
            }
            Aexp::Cast(kind, width, a) => {
                let av = self.eval(a)?;
                let Some(abv) = av.as_int() else {
                    return Err(Halt::Runtime("cast operand must be an integer".into()));
                };
                let (result, ovf) = match kind {
                    CastKind::Zext if *width > abv.width() => (abv.zext(*width), false),
                    CastKind::Sext if *width > abv.width() => (abv.sext(*width), false),
                    CastKind::Trunc if *width < abv.width() => abv.trunc(*width),
                    _ => {
                        return Err(Halt::Runtime(format!(
                            "invalid cast {kind:?} from {} to {} bits",
                            abv.width(),
                            width
                        )))
                    }
                };
                let tag = self.shadow.cast(*kind, *width, (&av.tag, abv));
                Ok(Value {
                    raw: Raw::Int(result),
                    ovf: av.ovf | ovf,
                    tag,
                })
            }
        }
    }

    /// Evaluates a boolean condition with short-circuit semantics,
    /// returning the outcome and the accumulated, oriented condition tag
    /// (the conjunction of every evaluated atom forced to its observed
    /// truth value — i.e. "the condition evaluates the same way").
    fn eval_cond(&mut self, b: &Bexp) -> Result<(bool, S::CondTag), Halt> {
        match b {
            Bexp::Const(v) => {
                let t = self.shadow.cond_true();
                Ok((*v, t))
            }
            Bexp::Cmp(op, lhs, rhs) => {
                let av = self.eval(lhs)?;
                let bv = self.eval(rhs)?;
                match (&av.raw, &bv.raw) {
                    (Raw::Int(a), Raw::Int(b)) => {
                        if a.width() != b.width() {
                            return Err(Halt::Runtime(format!(
                                "comparison width mismatch: {} vs {} bits",
                                a.width(),
                                b.width()
                            )));
                        }
                        let outcome = op.eval(*a, *b);
                        let tag = self.shadow.cmp(*op, (&av.tag, *a), (&bv.tag, *b), outcome);
                        Ok((outcome, tag))
                    }
                    // Pointer comparisons: equality/inequality only, with
                    // integer zero standing in for null.
                    (Raw::Ptr(p), Raw::Ptr(q)) => {
                        let eq = p == q;
                        let outcome = match op {
                            diode_lang::CmpOp::Eq => eq,
                            diode_lang::CmpOp::Ne => !eq,
                            _ => {
                                return Err(Halt::Runtime(
                                    "pointers support only ==/!= comparisons".into(),
                                ))
                            }
                        };
                        Ok((outcome, self.shadow.cond_true()))
                    }
                    (Raw::Ptr(p), Raw::Int(z)) | (Raw::Int(z), Raw::Ptr(p)) => {
                        if !z.is_zero() {
                            return Err(Halt::Runtime(
                                "pointers may only be compared with 0 (null)".into(),
                            ));
                        }
                        let eq = p.is_null();
                        let outcome = match op {
                            diode_lang::CmpOp::Eq => eq,
                            diode_lang::CmpOp::Ne => !eq,
                            _ => {
                                return Err(Halt::Runtime(
                                    "pointers support only ==/!= comparisons".into(),
                                ))
                            }
                        };
                        Ok((outcome, self.shadow.cond_true()))
                    }
                }
            }
            Bexp::Not(inner) => {
                let (v, tag) = self.eval_cond(inner)?;
                Ok((!v, tag))
            }
            Bexp::And(lhs, rhs) => {
                let (va, ta) = self.eval_cond(lhs)?;
                if !va {
                    return Ok((false, ta));
                }
                let (vb, tb) = self.eval_cond(rhs)?;
                Ok((vb, self.shadow.cond_and(ta, tb)))
            }
            Bexp::Or(lhs, rhs) => {
                let (va, ta) = self.eval_cond(lhs)?;
                if va {
                    return Ok((true, ta));
                }
                let (vb, tb) = self.eval_cond(rhs)?;
                Ok((vb, self.shadow.cond_and(ta, tb)))
            }
            Bexp::Crc32Ok { start, len, stored } => {
                let s = self.eval_u64(start)?;
                let l = self.eval_u64(len)?;
                let c = self.eval_u64(stored)?;
                let outcome = self.crc_matches(s, l, c);
                Ok((outcome, self.shadow.cond_true()))
            }
        }
    }

    fn eval_u64(&mut self, e: &Aexp) -> Result<u64, Halt> {
        let v = self.eval(e)?;
        v.as_int()
            .map(|bv| bv.value() as u64)
            .ok_or_else(|| Halt::Runtime("expected an integer".into()))
    }

    /// The `crc32_ok` intrinsic. Its input reads are *not* watched as
    /// divergent and are logged **semantically** (region + outcome, not
    /// bytes): candidate inputs have their checksums repaired by
    /// reconstruction, so the bytes differ while the outcome — the only
    /// thing execution depends on — stays the same.
    fn crc_matches(&mut self, start: u64, len: u64, stored_off: u64) -> bool {
        let outcome = crc_check(self.input, start, len, stored_off);
        if let Some(log) = &mut self.log {
            log.crcs.push((start, len, stored_off, outcome));
        }
        outcome
    }

    /// Records one direct input-byte observation: trace mode notes the
    /// step of each offset's first read, capture mode logs the observed
    /// value.
    fn observe_read(&mut self, off: u64) {
        if let Some(trace) = &mut self.trace_reads {
            trace.entry(off).or_insert(self.steps);
        }
        if let Some(log) = &mut self.log {
            let val = if off < self.input.len() as u64 {
                self.input[off as usize]
            } else {
                0
            };
            log.reads.entry(off).or_insert(val);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shadow::{Concrete, Symbolic, Taint};
    use diode_lang::parse;

    fn run_concrete(src: &str, input: &[u8]) -> Run<(), ()> {
        run(
            &parse(src).unwrap(),
            input,
            Concrete,
            &MachineConfig::default(),
        )
    }

    #[test]
    fn arithmetic_and_variables() {
        let r = run_concrete(
            "fn main() { x = 2 + 3 * 4; if x != 14 { abort(\"bad\"); } }",
            &[],
        );
        assert_eq!(r.outcome, Outcome::Completed);
    }

    #[test]
    fn input_reads_and_eof_zeroes() {
        let r = run_concrete(
            r#"fn main() {
                a = in[0]; b = in[99];
                if a != 7u8 { abort("a"); }
                if b != 0u8 { abort("b"); }
                if inlen != 2 { abort("len"); }
            }"#,
            &[7, 8],
        );
        assert_eq!(r.outcome, Outcome::Completed);
    }

    #[test]
    fn procedures_and_returns() {
        let r = run_concrete(
            r#"
            fn add3(a, b, c) { return a + b + c; }
            fn main() { s = add3(1, 2, 3); if s != 6 { abort("bad"); } }
            "#,
            &[],
        );
        assert_eq!(r.outcome, Outcome::Completed);
    }

    #[test]
    fn while_loop_and_memory() {
        let r = run_concrete(
            r#"fn main() {
                buf = alloc("t@1", 10);
                i = 0;
                while i < 10 { buf[i] = trunc8(i); i = i + 1; }
                x = buf[7];
                if x != 7u8 { abort("bad"); }
                free(buf);
            }"#,
            &[],
        );
        assert_eq!(r.outcome, Outcome::Completed);
        assert!(r.mem_errors.is_empty());
        assert_eq!(r.allocs.len(), 1);
        assert_eq!(r.allocs[0].size, Bv::u32(10));
        assert!(!r.allocs[0].size_ovf);
    }

    #[test]
    fn oob_write_recorded_then_wild_write_faults() {
        let r = run_concrete(
            r#"fn main() {
                buf = alloc("t@1", 4);
                buf[4] = 1u8;        // red zone: recorded
                buf[100000] = 1u8;   // wild: segfault
            }"#,
            &[],
        );
        assert!(r.outcome.is_segfault());
        assert_eq!(r.mem_errors.len(), 1);
    }

    #[test]
    fn error_and_abort_outcomes() {
        let r = run_concrete("fn main() { error(\"bad field\"); }", &[]);
        assert_eq!(r.outcome, Outcome::InputRejected("bad field".into()));
        let r = run_concrete("fn main() { warn(\"hmm\"); abort(\"boom\"); }", &[]);
        assert_eq!(r.outcome, Outcome::Aborted("boom".into()));
        assert_eq!(r.warnings, vec!["hmm".to_string()]);
    }

    #[test]
    fn alloc_failure_null_vs_abort() {
        let r = run_concrete(
            r#"fn main() {
                p = alloc("t@1", 0xFFFFFFFF);
                if p == 0 { error("oom"); }
            }"#,
            &[],
        );
        assert_eq!(r.outcome, Outcome::InputRejected("oom".into()));
        assert!(r.allocs[0].failed);
        let r = run_concrete("fn main() { p = alloc_abort(\"t@1\", 0xFFFFFFFF); }", &[]);
        assert!(matches!(r.outcome, Outcome::Aborted(_)));
    }

    #[test]
    fn null_deref_segfaults() {
        let r = run_concrete(
            r#"fn main() {
                p = alloc("t@1", 0xFFFFFFFF);
                p[0] = 1u8;
            }"#,
            &[],
        );
        assert!(r.outcome.is_segfault());
    }

    #[test]
    fn fuel_bounds_infinite_loops() {
        let cfg = MachineConfig {
            fuel: 1000,
            ..MachineConfig::default()
        };
        let r = run(
            &parse("fn main() { while true { skip; } }").unwrap(),
            &[],
            Concrete,
            &cfg,
        );
        assert_eq!(r.outcome, Outcome::OutOfFuel);
    }

    #[test]
    fn sticky_overflow_reaches_alloc_record() {
        // 16-bit field read as two bytes, multiplied to overflow at 32 bits.
        let src = r#"fn main() {
            w = zext32(in[0]) << 8 | zext32(in[1]);
            h = zext32(in[2]) << 8 | zext32(in[3]);
            size = (w * h) * 70000;
            buf = alloc("t@1", size);
        }"#;
        let small = run_concrete(src, &[0, 2, 0, 2]); // 2*2*70000 fits
        assert!(!small.allocs[0].size_ovf);
        let big = run_concrete(src, &[0xff, 0xff, 0xff, 0xff]);
        assert!(big.allocs[0].size_ovf);
        assert!(big.overflowed_at(big.allocs[0].label));
    }

    #[test]
    fn overflow_flag_propagates_through_memory() {
        let src = r#"fn main() {
            x = zext32(in[0]) * 0x40000000;   // overflows for in[0] >= 4
            buf = alloc("stash@1", 4);
            buf[0] = trunc8(x);
            y = buf[0];
            out = alloc("t@2", zext32(y) + 1);
        }"#;
        let r = run_concrete(src, &[200]);
        assert_eq!(r.allocs.len(), 2);
        assert!(
            r.allocs[1].size_ovf,
            "overflow flag must flow through the heap"
        );
    }

    #[test]
    fn taint_identifies_relevant_bytes() {
        let src = r#"fn main() {
            w = zext32(in[4]) << 8 | zext32(in[5]);
            pad = in[9];
            buf = alloc("t@1", w * 4);
        }"#;
        let r = run(
            &parse(src).unwrap(),
            &[0; 16],
            Taint,
            &MachineConfig::default(),
        );
        assert_eq!(r.allocs[0].size_tag.labels(), &[4, 5]);
    }

    #[test]
    fn symbolic_records_target_expression() {
        let src = r#"fn main() {
            w = zext32(in[0]) << 8 | zext32(in[1]);
            buf = alloc("t@1", w * 8);
        }"#;
        let r = run(
            &parse(src).unwrap(),
            &[0x01, 0x10],
            Symbolic::all_bytes(),
            &MachineConfig::default(),
        );
        let expr = r.allocs[0].size_tag.as_ref().expect("symbolic size");
        // Expression evaluates correctly on arbitrary inputs.
        assert_eq!(expr.eval(&|o| [0x01, 0x10][o as usize]).value(), 0x110 * 8);
        assert_eq!(expr.eval(&|o| [0xff, 0xff][o as usize]).value(), 0xffff * 8);
        assert_eq!(expr.input_bytes(), &[0, 1]);
    }

    #[test]
    fn branch_observations_record_phi() {
        let src = r#"fn main() {
            w = zext32(in[0]);
            if w > 100 { error("too big"); }
            i = 0;
            while i < 3 { i = i + 1; }
            buf = alloc("t@1", w);
        }"#;
        let r = run(
            &parse(src).unwrap(),
            &[50],
            Symbolic::all_bytes(),
            &MachineConfig::default(),
        );
        assert_eq!(r.outcome, Outcome::Completed);
        // 1 if + 4 while evaluations (3 taken + 1 exit).
        assert_eq!(r.branches.len(), 5);
        let sanity = &r.branches[0];
        assert!(!sanity.taken);
        let c = sanity.constraint.as_ref().expect("tainted condition");
        // Oriented: holds for inputs that take the same direction.
        assert!(c.eval(&|_| 50));
        assert!(!c.eval(&|_| 200));
        // Loop branches are untainted.
        assert!(r.branches[1].constraint.is_none());
        // The alloc saw all 5 branch observations before it.
        assert_eq!(r.allocs[0].branches_before, 5);
    }

    #[test]
    fn short_circuit_condition_constraints() {
        let src = r#"fn main() {
            a = zext32(in[0]);
            b = zext32(in[1]);
            if a > 10 && b > 20 { x = 1; } else { x = 2; }
        }"#;
        // a = 5: second conjunct not evaluated; constraint must only
        // mention byte 0.
        let r = run(
            &parse(src).unwrap(),
            &[5, 0],
            Symbolic::all_bytes(),
            &MachineConfig::default(),
        );
        let c = r.branches[0].constraint.as_ref().unwrap();
        assert_eq!(c.input_bytes(), vec![0]);
        // a = 15, b = 25: both atoms evaluated and oriented true.
        let r = run(
            &parse(src).unwrap(),
            &[15, 25],
            Symbolic::all_bytes(),
            &MachineConfig::default(),
        );
        let c = r.branches[0].constraint.as_ref().unwrap();
        assert_eq!(c.input_bytes(), vec![0, 1]);
        assert!(c.eval(&|o| [15, 25][o as usize]));
        assert!(!c.eval(&|o| [15, 5][o as usize]));
    }

    #[test]
    fn crc_intrinsic_checks_input_checksum() {
        let mut input = vec![b'a', b'b', b'c', b'd'];
        let crc = diode_lang::checksum::crc32(&input);
        input.extend_from_slice(&crc.to_be_bytes());
        let src = r#"fn main() {
            if !crc32_ok(0, 4, 4) { error("bad crc"); }
        }"#;
        let r = run_concrete(src, &input);
        assert_eq!(r.outcome, Outcome::Completed);
        let mut corrupted = input.clone();
        corrupted[1] ^= 1;
        let r = run_concrete(src, &corrupted);
        assert_eq!(r.outcome, Outcome::InputRejected("bad crc".into()));
    }

    #[test]
    fn runtime_errors_are_reported_not_panicking() {
        let r = run_concrete("fn main() { x = y + 1; }", &[]);
        assert!(matches!(r.outcome, Outcome::RuntimeError(m) if m.contains("unbound")));
        let r = run_concrete("fn main() { x = 1u8 + 1u16; }", &[]);
        assert!(matches!(r.outcome, Outcome::RuntimeError(m) if m.contains("width mismatch")));
        let r = run_concrete("fn main() { x = 1; x[0] = 1u8; }", &[]);
        assert!(matches!(r.outcome, Outcome::RuntimeError(_)));
    }

    /// Byte-identity oracle for snapshot tests: the full Debug rendering
    /// covers outcome, memory errors, allocations (values, overflow
    /// flags, tags), branch observations, warnings, and step counts.
    fn image<T: std::fmt::Debug, C: std::fmt::Debug>(r: &Run<T, C>) -> String {
        format!("{r:?}")
    }

    /// The step of the first direct read of any of `bytes` on `input`,
    /// as the warm pass places a site's snapshot boundary.
    fn first_read<S: Shadow>(
        p: &Program,
        input: &[u8],
        shadow: S,
        cfg: &MachineConfig,
        bytes: &[u64],
    ) -> Option<u64> {
        let (_, trace) = run_traced(p, input, shadow, cfg);
        bytes.iter().filter_map(|o| trace.get(o).copied()).min()
    }

    /// The one snapshot a capture pass takes before `step` (`None` when
    /// the run ends first).
    fn capture_at<S: Shadow + Clone>(
        p: &Program,
        input: &[u8],
        shadow: S,
        cfg: &MachineConfig,
        step: u64,
    ) -> Option<Snapshot<S>> {
        run_capture_multi(p, input, shadow, cfg, &[step])
            .pop()
            .flatten()
    }

    const SNAP_SRC: &str = r#"
        fn be16(p) { return zext32(in[p]) << 8 | zext32(in[p + 1]); }
        fn main() {
            a = be16(0);
            i = 0;
            scratch = alloc("pre@1", 64);
            while i < a {
                scratch[i] = trunc8(i * 3);
                i = i + 1;
            }
            if a > 40 { warn("large prefix field"); }
            b = be16(2);
            if b > 60000 { error("too big"); }
            buf = alloc("t@2", b * 80000);
            free(scratch);
        }
    "#;

    #[test]
    fn probe_finds_first_divergent_read() {
        let p = parse(SNAP_SRC).unwrap();
        let seed = [0, 8, 0, 4];
        let cfg = MachineConfig::default();
        // Bytes 2..4 are divergent (the `b` field); bytes 0..2 drive the
        // prefix loop and are read first.
        let (r, _) = run_traced(&p, &seed, Concrete, &cfg);
        assert_eq!(
            image(&r),
            image(&run(&p, &seed, Concrete, &cfg)),
            "tracing is passive"
        );
        let step = first_read(&p, &seed, Concrete, &cfg, &[2, 3]).expect("b is read on this path");
        // The prefix (field a, the 8-iteration loop) executes first, so
        // the divergent read happens well past the first statements.
        assert!(step > 10, "divergent read at step {step}");
        // A watch on the first field fires at the very first statement's
        // call argument evaluation instead.
        let early = first_read(&p, &seed, Concrete, &cfg, &[0, 1]);
        assert!(early.expect("a is read") < step);
    }

    #[test]
    fn capture_and_resume_are_byte_identical() {
        let p = parse(SNAP_SRC).unwrap();
        let seed = [0, 8, 0, 4];
        let cfg = MachineConfig::default();
        let step = first_read(&p, &seed, Concrete, &cfg, &[2, 3]).unwrap();
        let snap = capture_at(&p, &seed, Concrete, &cfg, step).expect("capture point reached");
        assert!(snap.steps() > 0);
        // Resume on candidates that differ only in the divergent field:
        // a triggering one (b = 0xEA60 = 60000, 60000*80000 wraps), a
        // rejected one (b = 0xFFFF fails the check), and the seed itself,
        // on which the snapshot must reproduce the run from `main`.
        for cand in [
            vec![0, 8, 0xEA, 0x60],
            vec![0, 8, 0xFF, 0xFF],
            seed.to_vec(),
        ] {
            let resumed = run_from(&p, &cand, &snap, &cfg).expect("prefix agrees");
            let scratch = run(&p, &cand, Concrete, &cfg);
            assert_eq!(image(&resumed), image(&scratch), "input {cand:02x?}");
            assert_eq!(resumed.steps, scratch.steps);
        }
    }

    #[test]
    fn a_prefix_loop_is_a_few_branch_runs_and_resumes_identically() {
        // A 1,000-iteration loop before the site's field is read: its
        // while-head observations are one run, however many iterations.
        let p = parse(
            r#"fn main() {
                n = zext32(in[0]) << 8 | zext32(in[1]);
                i = 0;
                while i < n { i = i + 1; }
                b = zext32(in[2]);
                if b > 200 { error("too big"); }
                buf = alloc("t@1", b * 16);
            }"#,
        )
        .unwrap();
        let seed = [0x03, 0xE8, 5];
        let cfg = MachineConfig::default();
        let step = first_read(&p, &seed, Concrete, &cfg, &[2]).unwrap();
        let snap = capture_at(&p, &seed, Concrete, &cfg, step).expect("capture point reached");
        assert_eq!(snap.branches_len, 1001, "1,000 iterations and the exit");
        assert_eq!(snap.branches.len(), 2);
        assert_eq!(snap.branch_prefix().count(), 2);
        let full = run(&p, &seed, Concrete, &cfg);
        assert!(snap.approx_bytes() < 24 * full.branches.len() as u64);
        for cand in [seed.to_vec(), vec![0x03, 0xE8, 201], vec![0x03, 0xE8, 7]] {
            let resumed = run_from(&p, &cand, &snap, &cfg).expect("prefix agrees");
            assert_eq!(image(&resumed), image(&run(&p, &cand, Concrete, &cfg)));
        }
    }

    #[test]
    fn run_to_alloc_returns_the_first_record_and_the_path_to_it() {
        let p = parse(SNAP_SRC).unwrap();
        let seed = [0, 8, 0, 4];
        let cfg = MachineConfig::default();
        // The policy of the site whose bytes are 2 and 3, and the
        // concrete prefix before their first read, as the warm pass
        // places it.
        let sym = Symbolic::relevant_bytes([2, 3]);
        let full = run(&p, &seed, sym.clone(), &cfg);
        let step = first_read(&p, &seed, Concrete, &cfg, &[2, 3]).unwrap();
        let snap = capture_at(&p, &seed, Concrete, &cfg, step).expect("capture point reached");
        // `pre@1` executes inside the snapshot's prefix, `t@2` after it.
        assert_eq!(full.allocs.len(), 2);
        assert!(full.allocs[1].size_tag.is_some(), "t@2's size is symbolic");
        for rec in &full.allocs {
            let path = format!("{:?}", &full.branches[..rec.branches_before]);
            for from in [None, Some(&snap)] {
                let visit = run_to_alloc(&p, &seed, sym.clone(), &cfg, from, rec.label)
                    .expect("the site executes on the seed");
                assert_eq!(format!("{:?}", visit.alloc), format!("{rec:?}"));
                assert_eq!(format!("{:?}", visit.path), path);
            }
        }
        // b = 0xFFFF is rejected before `t@2` executes.
        let target = full.allocs[1].label;
        let rejected = [0, 8, 0xFF, 0xFF];
        assert!(run_to_alloc(&p, &rejected, sym.clone(), &cfg, None, target).is_none());
        assert!(run_to_alloc(&p, &rejected, sym, &cfg, Some(&snap), target).is_none());
    }

    #[test]
    fn the_lift_refuses_a_policy_that_tags_a_prefix_read() {
        let p = parse(SNAP_SRC).unwrap();
        let seed = [0, 8, 0, 4];
        let cfg = MachineConfig::default();
        let step = first_read(&p, &seed, Concrete, &cfg, &[2, 3]).unwrap();
        let snap = capture_at(&p, &seed, Concrete, &cfg, step).unwrap();
        let target = run(&p, &seed, Concrete, &cfg).allocs[1].label;
        // The prefix read bytes 0 and 1 (field `a`): a policy tagging
        // either would have tagged prefix values the lift leaves bare.
        assert!(
            run_to_alloc(&p, &seed, Symbolic::all_bytes(), &cfg, Some(&snap), target).is_none()
        );
        let one = Symbolic::relevant_bytes([1, 2, 3]);
        assert!(run_to_alloc(&p, &seed, one, &cfg, Some(&snap), target).is_none());
        assert!(run_to_alloc(&p, &seed, Taint, &cfg, Some(&snap), target).is_none());
        // A policy that tags none of them resumes.
        assert!(run_to_alloc(&p, &seed, Concrete, &cfg, Some(&snap), target).is_some());
        let past = Symbolic::relevant_bytes([2, 3, 9]);
        assert!(run_to_alloc(&p, &seed, past, &cfg, Some(&snap), target).is_some());
    }

    #[test]
    fn resume_refuses_divergent_prefixes() {
        let p = parse(SNAP_SRC).unwrap();
        let seed = [0, 8, 0, 4];
        let cfg = MachineConfig::default();
        let step = first_read(&p, &seed, Concrete, &cfg, &[2, 3]).unwrap();
        let snap = capture_at(&p, &seed, Concrete, &cfg, step).unwrap();
        // Byte 1 feeds the prefix loop: a snapshot resumed on an input
        // that disagrees there would replay the wrong prefix, so the
        // validation log must reject it.
        assert!(run_from(&p, &[0, 9, 0, 4], &snap, &cfg).is_none());
        assert!(snap.reads_logged() >= 2);
    }

    #[test]
    fn crc_checks_validate_semantically() {
        // The checksum covers the divergent field, so its *bytes* differ
        // between candidates — but reconstruction repairs the stored CRC,
        // and validation compares outcomes, not bytes.
        let src = r#"fn main() {
            if !crc32_ok(0, 2, 2) { error("bad crc"); }
            pad = in[6];
            n = zext32(in[0]) << 8 | zext32(in[1]);
            buf = alloc("t@1", n * 70000);
        }"#;
        let p = parse(src).unwrap();
        let build = |n: u16| {
            let mut v = n.to_be_bytes().to_vec();
            v.extend_from_slice(&diode_lang::checksum::crc32(&v.clone()).to_be_bytes());
            v.push(0xaa);
            v
        };
        let seed = build(4);
        let cfg = MachineConfig::default();
        // The divergent field is read by the crc intrinsic first, but that
        // read is semantic: the trace only notes the direct in[0] read.
        let step = first_read(&p, &seed, Concrete, &cfg, &[0, 1]).unwrap();
        let snap = capture_at(&p, &seed, Concrete, &cfg, step).unwrap();
        // A repaired candidate with a different field value resumes...
        let cand = build(0xFFFF);
        let resumed = run_from(&p, &cand, &snap, &cfg).expect("repaired crc validates");
        assert_eq!(image(&resumed), image(&run(&p, &cand, Concrete, &cfg)));
        // ...while a corrupted one (crc outcome flips) is refused.
        let mut corrupt = build(0xFFFF);
        corrupt[3] ^= 1;
        assert!(run_from(&p, &corrupt, &snap, &cfg).is_none());
    }

    #[test]
    fn capture_inside_call_and_loop_restores_control() {
        // The capture point lands mid-loop inside a callee frame; the
        // rebuilt control stack must resume exactly there.
        let src = r#"
            fn fill(n) {
                buf = alloc("inner@1", 32);
                j = 0;
                while j < n {
                    buf[j] = trunc8(zext32(in[4]) + j);
                    j = j + 1;
                }
                return j;
            }
            fn main() {
                pre = zext32(in[0]);
                k = fill(pre + 3);
                post = zext32(in[8]);
                out = alloc("t@2", post * 90000);
            }
        "#;
        let p = parse(src).unwrap();
        let seed = [5, 0, 0, 0, 7, 0, 0, 0, 1];
        let cfg = MachineConfig::default();
        let step = first_read(&p, &seed, Concrete, &cfg, &[4]).expect("in[4] read inside the loop");
        // Capture one step *after* the first in[4] read as well, to land
        // mid-loop with the callee frame live.
        for target in [step, step + 2] {
            let snap =
                capture_at(&p, &seed, Concrete, &cfg, target).expect("capture point reached");
            let resumed = run_from(&p, &seed, &snap, &cfg).expect("the seed validates");
            assert_eq!(image(&resumed), image(&run(&p, &seed, Concrete, &cfg)));
            let mut cand = seed.to_vec();
            cand[8] = 0xEA; // post * 90000 overflows
            if let Some(resumed) = run_from(&p, &cand, &snap, &cfg) {
                assert_eq!(image(&resumed), image(&run(&p, &cand, Concrete, &cfg)));
            } else {
                // Snapshot past the in[4] read logs byte 4 — candidates
                // agreeing there must validate.
                panic!("candidate agrees on every logged byte");
            }
        }
    }

    #[test]
    fn taint_and_symbolic_snapshots_resume_identically() {
        let p = parse(SNAP_SRC).unwrap();
        let seed = [0, 8, 0, 4];
        let cfg = MachineConfig::default();
        let cand = vec![0, 8, 0xEA, 0x60];
        let step = first_read(&p, &seed, Taint, &cfg, &[2, 3]).unwrap();
        let snap = capture_at(&p, &seed, Taint, &cfg, step).unwrap();
        let resumed = run_from(&p, &cand, &snap, &cfg).unwrap();
        assert_eq!(image(&resumed), image(&run(&p, &cand, Taint, &cfg)));

        let sym = Symbolic::all_bytes();
        let step = first_read(&p, &seed, sym.clone(), &cfg, &[2, 3]).unwrap();
        let snap = capture_at(&p, &seed, sym.clone(), &cfg, step).unwrap();
        let resumed = run_from(&p, &cand, &snap, &cfg).unwrap();
        assert_eq!(image(&resumed), image(&run(&p, &cand, sym, &cfg)));
    }

    #[test]
    fn run_halting_before_capture_point_yields_no_snapshot() {
        let p = parse(SNAP_SRC).unwrap();
        let seed = [0, 8, 0, 4];
        let cfg = MachineConfig::default();
        // A stop beyond the run's length is never reached: that entry,
        // and only that one, comes back empty.
        let step = first_read(&p, &seed, Concrete, &cfg, &[2, 3]).unwrap();
        let snaps = run_capture_multi(&p, &seed, Concrete, &cfg, &[step, 1_000_000]);
        assert_eq!(snaps.len(), 2);
        assert!(snaps[0].is_some());
        assert!(snaps[1].is_none());
        assert!(capture_at(&p, &seed, Concrete, &cfg, 1_000_000).is_none());
    }

    #[test]
    fn branch_recording_can_be_disabled() {
        let cfg = MachineConfig {
            record_branches: false,
            ..MachineConfig::default()
        };
        let r = run(
            &parse("fn main() { i = 0; while i < 10 { i = i + 1; } }").unwrap(),
            &[],
            Concrete,
            &cfg,
        );
        assert!(r.branches.is_empty());
        assert_eq!(r.outcome, Outcome::Completed);
    }
}
