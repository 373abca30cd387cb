//! Pinned stage 2: the image of every site's extraction (§4.2–4.3) over a
//! fixed corpus, hashed and compared against a literal.
//!
//! The campaign fingerprints see only verdicts, and a changed φ order or
//! occurrence count can reach the same verdicts. This test pins what
//! stage 2 hands the enforcement loop: the target expression, β and its
//! input bytes, every compressed relevant condition of φ (label,
//! occurrence count and constraint, in order) and Table 2's
//! `total_relevant`. Extraction time is not part of the image.
//!
//! Each site is extracted twice: from `main` with `extract`, and through
//! `analyze_site_with_snapshots` on slots warmed by `warm_unit_slots`,
//! the campaign path that resumes the symbolic seed run from the site's
//! prefix snapshot. The two images must be equal, and every site must
//! report that its extraction resumed.
//!
//! Corpus: `interp_golden`'s two forged suites (8 apps × 6 sites, forge
//! seed `0xD10D_E5EE`; depth 3 with `site_work` 300, and depth 8 with no
//! work) and the five paper apps.

use std::fmt::Write as _;
use std::sync::Arc;

use diode::core::{
    analyze_site_with_snapshots, extract, identify_target_sites_traced, warm_unit_slots,
    DiodeConfig, Extraction, SiteSlot,
};
use diode::format::FormatDesc;
use diode::lang::Program;
use diode::obs::fnv64_hex;
use diode::synth::{forge, SynthConfig};

/// FNV-64 of every site's extraction image, captured before stage 2
/// stopped at the site's first allocation.
const PINNED: &str = "fnv64:bd124f1a351f9c42";

/// The extraction's `Debug` image, field by field, without its timing.
fn image(e: &Extraction) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "target {:?}", e.target_expr);
    let _ = writeln!(out, "beta {:?}", e.beta);
    let _ = writeln!(out, "bytes {:?}", e.beta_bytes);
    let _ = writeln!(out, "relevant {}", e.total_relevant);
    for c in &e.phi {
        let _ = writeln!(
            out,
            "phi {:?} x{} {:?}",
            c.label, c.occurrences, c.constraint
        );
    }
    out
}

/// Appends the image of every site of one unit, extracted from `main`,
/// and checks the warmed, resumed path against it. Returns the number of
/// sites.
fn unit(
    out: &mut String,
    name: &str,
    program: &Program,
    format: &FormatDesc,
    seed: &[u8],
) -> usize {
    let config = DiodeConfig::default();
    let (targets, first_reads) = identify_target_sites_traced(program, seed, &config.machine);
    let slots: Vec<Arc<SiteSlot>> = targets
        .iter()
        .map(|_| Arc::new(SiteSlot::local()))
        .collect();
    warm_unit_slots(
        program,
        seed,
        format,
        &targets,
        &config.machine,
        &first_reads,
        &slots,
    );
    for (target, slot) in targets.iter().zip(&slots) {
        let fresh = extract(program, seed, target, &config.machine)
            .unwrap_or_else(|| panic!("{name}/{}: extraction", target.site));
        let fresh = image(&fresh);
        let report = analyze_site_with_snapshots(
            program,
            seed,
            format,
            target,
            &config,
            Some(Arc::clone(slot)),
        );
        let resumed = report
            .extraction
            .as_ref()
            .unwrap_or_else(|| panic!("{name}/{}: resumed extraction", target.site));
        assert_eq!(
            image(resumed),
            fresh,
            "{name}/{}: the resumed extraction differs from the one from main",
            target.site
        );
        assert!(
            report.snapshot.as_ref().is_some_and(|s| s.extract_resumed),
            "{name}/{}: extraction did not resume from the warmed slot",
            target.site
        );
        let _ = writeln!(out, "== {name} {}", target.site);
        out.push_str(&fresh);
    }
    targets.len()
}

#[test]
fn extractions_match_the_pinned_image() {
    let mut text = String::new();
    let mut sites = 0;
    for (depth, site_work) in [(3, 300), (8, 0)] {
        let suite = forge(&SynthConfig {
            apps: 8,
            min_sites: 6,
            max_sites: 6,
            branch_depth: depth,
            site_work,
            rng_seed: 0xD10D_E5EE,
            ..SynthConfig::default()
        });
        for app in &suite.apps {
            for seed in &app.seeds {
                sites += unit(&mut text, &app.name, &app.program, &app.format, seed);
            }
        }
    }
    for app in diode::apps::all_apps() {
        sites += unit(&mut text, app.name, &app.program, &app.format, &app.seed);
    }
    assert_eq!(
        fnv64_hex(text.as_bytes()),
        PINNED,
        "{sites} sites, {} bytes of extraction images",
        text.len()
    );
}
