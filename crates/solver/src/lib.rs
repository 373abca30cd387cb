//! # diode-solver — a bitvector constraint solver
//!
//! The decision procedure behind the DIODE reproduction's target- and
//! branch-constraint queries. The paper uses the Z3 SMT solver \[13\]; this
//! crate substitutes a from-scratch solver for the exact fragment DIODE
//! needs — quantifier-free fixed-width bitvector constraints over input
//! bytes — built as:
//!
//! 1. an unsigned-interval pre-analysis ([`interval`]) that discharges
//!    trivially (un)satisfiable constraints,
//! 2. a Tseitin bit-blaster ([`blast`]) turning
//!    [`diode_symbolic::SymExpr`]/[`diode_symbolic::SymBool`] DAGs into CNF with exact
//!    circuits for every operation and overflow atom,
//! 3. a CDCL SAT core ([`sat`]) with watched literals, VSIDS, Luby
//!    restarts, phase saving and clause-database reduction; clause
//!    literals live in one flat arena, and each thread solves its
//!    queries on one reused SAT workspace, reset between queries (a
//!    query runs the same search on it as on a new solver),
//! 4. a sharded, thread-safe **query cache** ([`cache`]) memoizing
//!    `Sat`/`Unsat` outcomes behind structural fingerprints of the
//!    constraint DAG — the substrate `diode-engine` campaigns share
//!    across all workers.
//!
//! The high-level API ([`solve`], [`sample`], [`enumerate`]) additionally
//! implements the paper's evaluation protocol: diversified model sampling
//! (the 200-input success-rate experiments of §5.5–5.6) and bounded model
//! enumeration (which proves CVE-2008-2430's `x + 2` constraint has
//! exactly two solutions).
//!
//! ```
//! use diode_lang::{BinOp, Bv, CastKind};
//! use diode_symbolic::{overflow_condition, SymExpr};
//!
//! // β = overflow((width * height) * 4) over two 16-bit big-endian
//! // fields — the pixel-buffer size computation of §4.3's example.
//! let byte = |o| SymExpr::input_byte(o).cast(CastKind::Zext, 32);
//! let sh8 = SymExpr::constant(Bv::u32(8));
//! let width = byte(0).bin(BinOp::Shl, sh8.clone()).bin(BinOp::Or, byte(1));
//! let height = byte(2).bin(BinOp::Shl, sh8).bin(BinOp::Or, byte(3));
//! let target = width.bin(BinOp::Mul, height).bin(BinOp::Mul, SymExpr::constant(Bv::u32(4)));
//! let beta = overflow_condition(&target);
//!
//! let model = diode_solver::solve(&beta).model().cloned().expect("satisfiable");
//! // The solver's witness really does overflow the 32-bit product:
//! assert!(target.eval_overflow(&model.lookup_over(&[])).1);
//! ```

#![warn(missing_docs)]

pub mod blast;
pub mod cache;
pub mod interval;
pub mod sat;
mod solve;

pub use cache::{constraint_fingerprint, fingerprint_hex, CacheStats, SolverCache};
pub use solve::{
    enumerate, sample, solve, solve_with, Enumeration, Model, SolveResult, SolveStats, SolverConfig,
};
