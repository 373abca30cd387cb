//! Prefix snapshots: freezing a run mid-flight and resuming it on a new
//! input.
//!
//! DIODE's enforcement loop (paper §3.3, Figure 7) re-executes a fresh
//! candidate input from `main` on every iteration, yet for multi-site
//! programs every candidate traverses the *same* prefix — the parsing and
//! processing of everything before the target site's own fields. A
//! [`Snapshot`] captures the complete machine state at a statement
//! boundary: heap (cheaply, via the heap's `Arc`-backed copy-on-write
//! payloads), shadow policy state, call frames with their environments
//! and control stacks, the recorded branch/allocation/warning prefixes,
//! and the step counter. The branch prefix is a length into an `Arc`'d
//! log, so the snapshots of one capture pass share a single log, and the
//! log is run-length encoded: a prefix loop's thousands of iterations
//! are one run of equal observations.
//!
//! Soundness does not rest on the caller choosing the snapshot point
//! well: the capture run logs **every input observation of the prefix**
//! — each `in[i]` read (with its value), whether `inlen` was consulted,
//! and the outcome of every `crc32_ok` intrinsic (validated semantically,
//! so checksum-repaired candidates still match even though their CRC
//! bytes differ). [`Snapshot::validates`] replays that log against a new
//! input; only when every observation agrees is the resumed execution
//! guaranteed byte-identical to a from-scratch run, and
//! [`run_from`](crate::run_from) refuses to resume otherwise. The
//! first-read trace of [`run_traced`](crate::run_traced) merely picks a
//! good snapshot point (the last statement boundary before the first
//! read of a byte candidates may change); a bad pick costs resumption
//! misses, never correctness.
//!
//! A snapshot resumes under the policy it was captured with
//! ([`run_from`](crate::run_from)), or, when captured under
//! [`Concrete`](crate::Concrete), under any policy through stage 2's
//! [`run_to_alloc`](crate::run_to_alloc), which *lifts* it: the prefix
//! gets the policy's default tags, which is what the policy records
//! when the prefix read none of the bytes it tags. The read log is what
//! the lift checks that against, so a boundary placed too late is
//! refused rather than resumed with a byte untracked.

use std::collections::HashMap;
use std::sync::Arc;

use diode_lang::{ProcId, Symbol};

use crate::heap::Heap;
use crate::machine::{AllocRecord, BranchObs};
use crate::shadow::sealed::SameTag;
use crate::shadow::Shadow;
use crate::value::Value;

/// A control-stack entry in program-independent form. Each entry records
/// how its block (or loop head) was entered relative to the entry below
/// it, which is enough to rebuild the borrowed control stack against the
/// same [`Program`](diode_lang::Program).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ContImage {
    /// The frame's root block (the procedure body), next stmt at `idx`.
    Root {
        /// Next statement index.
        idx: usize,
    },
    /// The `then` block of the `if` just before the parent entry's index.
    Then {
        /// Next statement index.
        idx: usize,
    },
    /// The `else` block of that `if`.
    Else {
        /// Next statement index.
        idx: usize,
    },
    /// A `while` being iterated (condition evaluation is next); the
    /// statement sits just before the parent entry's index.
    Loop,
    /// The body block of the `Loop` entry directly below.
    LoopBody {
        /// Next statement index.
        idx: usize,
    },
}

/// One call frame in program-independent form.
#[derive(Debug, Clone)]
pub(crate) struct FrameImage<T> {
    /// The procedure this frame executes.
    pub proc: ProcId,
    /// Where the caller stores the frame's return value.
    pub ret_dst: Option<Symbol>,
    /// The local environment, indexed by `Symbol.0` (`None`: unbound).
    pub env: Vec<Option<Value<T>>>,
    /// The control stack, outermost first.
    pub control: Vec<ContImage>,
}

/// Input observations made during a prefix, logged by the capture run and
/// replayed by [`Snapshot::validates`].
#[derive(Debug, Default, Clone)]
pub(crate) struct ReadLog {
    /// Every `in[i]` read: offset → observed byte (0 past EOF).
    pub reads: HashMap<u64, u8>,
    /// Every `crc32_ok(start, len, stored)` evaluation and its outcome.
    pub crcs: Vec<(u64, u64, u64, bool)>,
    /// The input length, if `inlen` was consulted.
    pub inlen: Option<u64>,
}

/// `count` consecutive branch observations equal to `obs`, condition
/// tag included (see [`SameTag`](crate::shadow::sealed::SameTag)).
#[derive(Debug, Clone)]
pub(crate) struct BranchRun<C> {
    pub obs: BranchObs<C>,
    pub count: u32,
}

/// Run-length encodes a branch log: consecutive observations with the
/// same label, direction and condition tag become one run.
pub(crate) fn branch_runs<C: Clone + SameTag>(log: Vec<BranchObs<C>>) -> Arc<[BranchRun<C>]> {
    let mut runs: Vec<BranchRun<C>> = Vec::new();
    for obs in log {
        match runs.last_mut() {
            Some(run)
                if run.count < u32::MAX
                    && run.obs.label == obs.label
                    && run.obs.taken == obs.taken
                    && run.obs.constraint.same_tag(&obs.constraint) =>
            {
                run.count += 1;
            }
            _ => runs.push(BranchRun { obs, count: 1 }),
        }
    }
    Arc::from(runs)
}

/// A frozen machine state at a statement boundary, resumable on any input
/// that [`validates`](Snapshot::validates).
pub struct Snapshot<S: Shadow> {
    pub(crate) shadow: S,
    pub(crate) steps: u64,
    pub(crate) heap: Heap<S::Tag>,
    pub(crate) frames: Vec<FrameImage<S::Tag>>,
    /// The run-length branch log of the capture pass, shared by every
    /// snapshot it took; this snapshot's prefix is its first
    /// `branches_len` observations.
    pub(crate) branches: Arc<[BranchRun<S::CondTag>]>,
    pub(crate) branches_len: usize,
    pub(crate) allocs: Vec<AllocRecord<S::Tag>>,
    pub(crate) warnings: Vec<String>,
    /// Sorted `(offset, byte)` log of every prefix input read.
    pub(crate) reads: Vec<(u64, u8)>,
    pub(crate) crcs: Vec<(u64, u64, u64, bool)>,
    pub(crate) inlen: Option<u64>,
}

impl<S: Shadow> std::fmt::Debug for Snapshot<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("steps", &self.steps)
            .field("frames", &self.frames.len())
            .field("reads", &self.reads.len())
            .field("crcs", &self.crcs.len())
            .finish_non_exhaustive()
    }
}

/// The byte an `in[off]` read observes: the input byte, or 0 past EOF.
fn byte_or_zero(input: &[u8], off: u64) -> u8 {
    if off < input.len() as u64 {
        input[off as usize]
    } else {
        0
    }
}

/// The `crc32_ok` intrinsic's semantics, shared between live evaluation
/// and snapshot validation.
#[must_use]
pub(crate) fn crc_check(input: &[u8], start: u64, len: u64, stored_off: u64) -> bool {
    let end = start.saturating_add(len);
    let input_len = input.len() as u64;
    if end > input_len || stored_off.saturating_add(4) > input_len {
        return false;
    }
    let data = &input[start as usize..end as usize];
    let stored = u32::from_be_bytes(
        input[stored_off as usize..stored_off as usize + 4]
            .try_into()
            .expect("4 bytes"),
    );
    diode_lang::checksum::crc32(data) == stored
}

impl<S: Shadow> Snapshot<S> {
    /// Statements executed in the captured prefix.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Distinct input offsets the prefix observed directly.
    #[must_use]
    pub fn reads_logged(&self) -> usize {
        self.reads.len()
    }

    /// The branch observations recorded before the boundary (none when
    /// the capture did not record branches), as runs: each observation
    /// with how many times it repeats within the prefix.
    pub(crate) fn branch_prefix(&self) -> impl Iterator<Item = (&BranchObs<S::CondTag>, usize)> {
        let mut left = self.branches_len;
        self.branches.iter().map_while(move |run| {
            (left > 0).then(|| {
                let n = left.min(run.count as usize);
                left -= n;
                (&run.obs, n)
            })
        })
    }

    /// Approximate bytes this snapshot keeps resident: the frozen
    /// heap's accounted payload bytes plus the validation log, frames
    /// (per bound variable, not per environment slot), and recorded
    /// prefixes (the branch prefix per run). A pinning estimate for cache
    /// gauges, not an allocator measurement — COW payloads and the branch
    /// log shared with other snapshots are charged to each holder.
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        let frames: u64 = self
            .frames
            .iter()
            .map(|f| {
                let bound = f.env.iter().filter(|v| v.is_some()).count() as u64;
                64 + 48 * bound + 16 * (f.control.len() as u64)
            })
            .sum();
        self.heap.current_bytes()
            + frames
            + 10 * self.reads.len() as u64
            + 33 * self.crcs.len() as u64
            + 24 * self.branch_prefix().count() as u64
            + 48 * self.allocs.len() as u64
            + self
                .warnings
                .iter()
                .map(|w| 24 + w.len() as u64)
                .sum::<u64>()
    }

    /// True when resuming on `input` is guaranteed byte-identical to a
    /// from-scratch run: every prefix input observation — byte reads,
    /// `inlen`, and `crc32_ok` outcomes — agrees with `input`.
    #[must_use]
    pub fn validates(&self, input: &[u8]) -> bool {
        if let Some(len) = self.inlen {
            if input.len() as u64 != len {
                return false;
            }
        }
        self.reads
            .iter()
            .all(|&(off, val)| byte_or_zero(input, off) == val)
            && self
                .crcs
                .iter()
                .all(|&(s, l, d, out)| crc_check(input, s, l, d) == out)
    }
}
