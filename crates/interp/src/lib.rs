//! # diode-interp — concrete + shadow execution of core-language programs
//!
//! This crate is the instrumentation substrate of the DIODE reproduction:
//! it plays the role Valgrind plays in the paper (§4.1–4.2, §4.6). One
//! interpreter implements the operational semantics of Figures 4–6 and is
//! parameterised by a [`Shadow`] policy:
//!
//! * [`Concrete`] — plain execution with memcheck-style error detection;
//! * [`Taint`] — stage 1: byte-level taint labels identify target memory
//!   allocation sites and their relevant input bytes;
//! * [`Symbolic`] — stage 2: records symbolic target expressions and branch
//!   conditions for the relevant input bytes only.
//!
//! ```
//! use diode_interp::{run, MachineConfig, Outcome, Taint};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = diode_lang::parse(r#"
//!     fn main() {
//!         n = zext32(in[0]) << 8 | zext32(in[1]);
//!         buf = alloc("demo@3", n * 2);
//!     }
//! "#)?;
//! let run = run(&program, &[0x00, 0x20], Taint::default(), &MachineConfig::default());
//! assert_eq!(run.outcome, Outcome::Completed);
//! // Stage 1 found the target site and its relevant input bytes:
//! assert_eq!(run.allocs[0].size_tag.labels(), &[0, 1]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod heap;
mod machine;
mod shadow;
mod snapshot;
mod value;

pub use heap::{take_peak_heap_bytes, Cell, Fault, Heap, MemError, MemErrorKind};
pub use machine::{
    run, run_capture_multi, run_from, run_to_alloc, run_traced, AllocRecord, BranchObs,
    MachineConfig, Outcome, Run, SiteVisit,
};
pub use shadow::{Concrete, LabelSet, Shadow, Symbolic, Taint};
pub use snapshot::Snapshot;
pub use value::{BlockId, Raw, Value};
