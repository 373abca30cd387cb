//! # diode — targeted automatic integer overflow discovery
//!
//! A comprehensive Rust reproduction of *"Targeted Automatic Integer
//! Overflow Discovery Using Goal-Directed Conditional Branch Enforcement"*
//! (Sidiroglou-Douskos et al., ASPLOS 2015) — the DIODE system — together
//! with every substrate it runs on:
//!
//! | Crate | Role |
//! |---|---|
//! | [`lang`] | the core imperative language of §3.1 (Figure 3) |
//! | [`symbolic`] | symbolic expressions over input bytes + `overflow(B)` |
//! | [`interp`] | concrete/taint/symbolic interpreter (Figures 4–6) + memcheck |
//! | [`solver`] | bit-blasting CDCL bitvector solver (the Z3 substitute) |
//! | [`format`](mod@crate::format) | Hachoir-style field maps + Peach-style input reconstruction |
//! | [`apps`] | the five benchmark applications of §5 |
//! | [`core`] | the DIODE engine: goal-directed branch enforcement (Figure 7) |
//! | [`fuzz`] | random and taint-directed fuzzing baselines |
//! | [`engine`] | campaign-scale orchestration: work-stealing parallel scheduler + shared solver-query cache |
//! | [`synth`] | ground-truth scenario forge: synthesized benchmark suites + recall/precision oracle |
//! | [`corpus`] | persistent on-disk corpus store: save, replay, diff, and incremental growth |
//! | [`obs`] | structured tracing + metrics: per-phase spans, JSONL traces, campaign profiling |
//! | [`serve`] | resident campaign daemon: warm-cache job queue over line-delimited JSON TCP |
//!
//! Start with the `quickstart` example (or `campaign` for batch
//! analysis), or regenerate the paper's tables — each table runs one
//! campaign over its apps on the [`engine`] scheduler; `--threads N`
//! pins the worker count (reports are identical at every count) and
//! `--json` gives machine-readable output:
//!
//! ```text
//! cargo run --release -p diode-bench --bin table1 [-- --json | --threads N]
//! cargo run --release -p diode-bench --bin table2
//! cargo run --release -p diode-bench --bin ablation
//! cargo run --release -p diode-bench --bin fuzz_compare
//! ```
//!
//! ## One-minute tour
//!
//! ```
//! use diode::core::{analyze_program, DiodeConfig, SiteOutcome};
//! use diode::format::FormatDesc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A program with a sanity check guarding an overflowable allocation.
//! let program = diode::lang::parse(r#"
//!     fn main() {
//!         n = zext32(in[0]) << 8 | zext32(in[1]);
//!         if n > 50000 { error("implausible"); }
//!         buf = alloc("demo@4", n * 100000);
//!         t = zext64(n) * 100000u64;
//!         p = 0u64;
//!         while p < 16u64 { buf[t * p / 16u64] = 0u8; p = p + 1u64; }
//!     }
//! "#)?;
//! let analysis = analyze_program(
//!     &program, &[0x00, 0x08], &FormatDesc::new("demo"), &DiodeConfig::default(),
//! );
//! assert!(matches!(
//!     analysis.site("demo@4").unwrap().outcome,
//!     SiteOutcome::Exposed(_)
//! ));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use diode_apps as apps;
pub use diode_core as core;
pub use diode_corpus as corpus;
pub use diode_engine as engine;
pub use diode_format as format;
pub use diode_fuzz as fuzz;
pub use diode_interp as interp;
pub use diode_lang as lang;
pub use diode_obs as obs;
pub use diode_serve as serve;
pub use diode_solver as solver;
pub use diode_symbolic as symbolic;
pub use diode_synth as synth;
