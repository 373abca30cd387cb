//! # diode-apps — the five benchmark applications
//!
//! Re-implementations of the paper's benchmark pipelines (§5.1) in the
//! core language, each packaged with a seed input and a Hachoir-style
//! format description:
//!
//! | App | Input | Target sites | Exposed / Unsat / Prevented |
//! |---|---|---|---|
//! | [`dillo`] 2.1 | mini-PNG | 12 | 3 / 1 / 8 |
//! | [`vlc`] 0.8.6h | RIFF/WAV | 4 | 4 / 0 / 0 |
//! | [`swfplay`] 0.5.5 | SWF + JPEG | 8 | 3 / 5 / 0 |
//! | [`cwebp`] 0.3.1 | JPEG | 7 | 1 / 6 / 0 |
//! | [`imagemagick`] 6.5.2 | XWD | 9 | 3 / 5 / 1 |
//!
//! The pipelines reproduce the *structure* the paper's results depend on —
//! the same allocation-site counts (Table 1), the same sanity checks (e.g.
//! Figure 2's `png_get_uint_31`, `png_check_IHDR` and Dillo's overflowing
//! `abs(w*h)` check) and the same blocking checks (size-dependent loops à
//! la `png_memset`) — while replacing entropy-coding internals with
//! bounded "probe" access loops that touch each allocation across its full
//! logical extent (see `docs/ARCHITECTURE.md`, "Substitutions", for the
//! substitution argument).
//!
//! ```
//! use diode_interp::{run, Concrete, MachineConfig, Outcome};
//!
//! let app = diode_apps::dillo::app();
//! // Every benchmark seed is processed cleanly (the paper's precondition).
//! let r = run(&app.program, &app.seed, Concrete, &MachineConfig::default());
//! assert_eq!(r.outcome, Outcome::Completed);
//! assert!(r.mem_errors.is_empty());
//! ```

#![warn(missing_docs)]

use diode_format::FormatDesc;
use diode_lang::Program;

pub mod cwebp;
pub mod dillo;
pub mod imagemagick;
pub mod swfplay;
pub mod vlc;

/// The paper's classification of a target site (Table 1 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteClass {
    /// DIODE exposes an overflow at the site.
    Exposed,
    /// The target constraint by itself is unsatisfiable.
    Unsat,
    /// Sanity checks prevent any input from overflowing the site.
    Prevented,
}

impl std::fmt::Display for SiteClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SiteClass::Exposed => write!(f, "exposed"),
            SiteClass::Unsat => write!(f, "target-unsat"),
            SiteClass::Prevented => write!(f, "checks-prevent"),
        }
    }
}

/// Ground-truth / paper-reported data about one target site, used by the
/// test suite and by the Table 1/2 harness for paper-vs-measured output.
#[derive(Debug, Clone)]
pub struct ExpectedSite {
    /// Site name as it appears in the program (`file@line`, Table 2 col 2).
    pub site: &'static str,
    /// Expected classification.
    pub class: SiteClass,
    /// CVE number if the paper lists one; `None` ⇒ "New".
    pub cve: Option<&'static str>,
    /// Paper's Error Type column, for side-by-side reporting.
    pub paper_error: Option<&'static str>,
    /// Paper's Enforced Branches column `(enforced, total relevant)`.
    pub paper_enforced: Option<(u32, u32)>,
    /// Paper's Target Success Rate `(hits, samples)`.
    pub paper_target_rate: Option<(u32, u32)>,
    /// Paper's Target+Enforced Success Rate `(hits, samples)`.
    pub paper_enforced_rate: Option<(u32, u32)>,
}

impl ExpectedSite {
    /// A site the paper classifies as exposed.
    #[must_use]
    pub const fn exposed(
        site: &'static str,
        cve: Option<&'static str>,
        paper_error: &'static str,
        paper_enforced: (u32, u32),
        paper_target_rate: (u32, u32),
        paper_enforced_rate: Option<(u32, u32)>,
    ) -> Self {
        ExpectedSite {
            site,
            class: SiteClass::Exposed,
            cve,
            paper_error: Some(paper_error),
            paper_enforced: Some(paper_enforced),
            paper_target_rate: Some(paper_target_rate),
            paper_enforced_rate,
        }
    }

    /// A site whose target constraint is unsatisfiable.
    #[must_use]
    pub const fn unsat(site: &'static str) -> Self {
        ExpectedSite {
            site,
            class: SiteClass::Unsat,
            cve: None,
            paper_error: None,
            paper_enforced: None,
            paper_target_rate: None,
            paper_enforced_rate: None,
        }
    }

    /// A site fully guarded by sanity checks.
    #[must_use]
    pub const fn prevented(site: &'static str) -> Self {
        ExpectedSite {
            site,
            class: SiteClass::Prevented,
            cve: None,
            paper_error: None,
            paper_enforced: None,
            paper_target_rate: None,
            paper_enforced_rate: None,
        }
    }
}

/// A benchmark application: program + seed input + format description +
/// per-site ground truth.
#[derive(Debug)]
pub struct App {
    /// Short name (Table 1 row), e.g. `"Dillo 2.1"`.
    pub name: &'static str,
    /// The application pipeline in the core language.
    pub program: Program,
    /// A seed input the application processes correctly (§5's protocol).
    pub seed: Vec<u8>,
    /// Field map + checksum fixups for the seed's format.
    pub format: FormatDesc,
    /// Ground truth for every target site.
    pub expected: Vec<ExpectedSite>,
}

impl App {
    /// Expected entry for a site name.
    #[must_use]
    pub fn expected_for(&self, site: &str) -> Option<&ExpectedSite> {
        self.expected.iter().find(|e| e.site == site)
    }

    /// Expected Table 1 row: (total, exposed, unsat, prevented).
    #[must_use]
    pub fn expected_counts(&self) -> (usize, usize, usize, usize) {
        let count = |c: SiteClass| self.expected.iter().filter(|e| e.class == c).count();
        (
            self.expected.len(),
            count(SiteClass::Exposed),
            count(SiteClass::Unsat),
            count(SiteClass::Prevented),
        )
    }
}

/// All five benchmark applications, in the paper's Table 1 order.
#[must_use]
pub fn all_apps() -> Vec<App> {
    vec![
        dillo::app(),
        vlc::app(),
        swfplay::app(),
        cwebp::app(),
        imagemagick::app(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use diode_interp::{run, Concrete, MachineConfig, Outcome};

    #[test]
    fn all_five_apps_parse_and_process_their_seeds_cleanly() {
        let apps = all_apps();
        assert_eq!(apps.len(), 5);
        for app in &apps {
            let r = run(&app.program, &app.seed, Concrete, &MachineConfig::default());
            assert_eq!(
                r.outcome,
                Outcome::Completed,
                "{} failed on its seed: {:?} (warnings: {:?})",
                app.name,
                r.outcome,
                r.warnings
            );
            assert!(
                r.mem_errors.is_empty(),
                "{} has memory errors on its seed: {:?}",
                app.name,
                r.mem_errors
            );
        }
    }

    #[test]
    fn expected_counts_match_table_1() {
        type Counts = (usize, usize, usize, usize);
        let rows: Vec<(&str, Counts)> = all_apps()
            .iter()
            .map(|a| (a.name, a.expected_counts()))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("Dillo 2.1", (12, 3, 1, 8)),
                ("VLC 0.8.6h", (4, 4, 0, 0)),
                ("SwfPlay 0.5.5", (8, 3, 5, 0)),
                ("CWebP 0.3.1", (7, 1, 6, 0)),
                ("ImageMagick 6.5.2", (9, 3, 5, 1)),
            ]
        );
        // Paper totals: 40 sites, 14 exposed, 17 unsat, 9 prevented.
        let total: usize = rows.iter().map(|(_, (t, ..))| t).sum();
        let exposed: usize = rows.iter().map(|(_, (_, e, ..))| e).sum();
        let unsat: usize = rows.iter().map(|(_, (_, _, u, _))| u).sum();
        let prevented: usize = rows.iter().map(|(_, (.., p))| p).sum();
        assert_eq!((total, exposed, unsat, prevented), (40, 14, 17, 9));
    }

    #[test]
    fn every_expected_site_exists_in_its_program() {
        for app in all_apps() {
            let sites: Vec<String> = app
                .program
                .alloc_sites()
                .iter()
                .map(|(_, s)| s.to_string())
                .collect();
            for e in &app.expected {
                assert!(
                    sites.iter().any(|s| s == e.site),
                    "{}: expected site {} not in program (has: {sites:?})",
                    app.name,
                    e.site
                );
            }
            assert_eq!(
                sites.len(),
                app.expected.len(),
                "{}: program has {} alloc sites but {} expected entries",
                app.name,
                sites.len(),
                app.expected.len()
            );
        }
    }

    #[test]
    fn all_target_sites_are_exercised_by_seeds() {
        for app in all_apps() {
            let r = run(&app.program, &app.seed, Concrete, &MachineConfig::default());
            let executed: std::collections::HashSet<String> =
                r.allocs.iter().map(|a| a.site.to_string()).collect();
            for e in &app.expected {
                assert!(
                    executed.contains(e.site),
                    "{}: site {} not exercised by seed (executed: {executed:?})",
                    app.name,
                    e.site
                );
            }
        }
    }
}
