//! Quickstart: the whole DIODE pipeline (paper Figure 1) on a miniature
//! application, narrated stage by stage.
//!
//! Run with: `cargo run --release --example quickstart`

use diode::core::{analyze_site, extract, identify_target_sites, DiodeConfig, SiteOutcome};
use diode::format::FormatDesc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A little image-like parser: a 16-bit length field, one sanity check,
    // and an allocation whose size arithmetic can overflow 32 bits.
    let program = diode::lang::parse(
        r#"
        fn main() {
            n = zext32(in[0]) << 8 | zext32(in[1]);
            flags = in[2];
            if n > 50000 { error("field out of range"); }   // sanity check
            buf = alloc("demo.c@5", n * 100000);             // target site
            t = zext64(n) * 100000u64;
            p = 0u64;
            while p < 16u64 { buf[t * p / 16u64] = 0u8; p = p + 1u64; }
        }
    "#,
    )?;
    let seed = vec![0x00, 0x08, 0x01]; // n = 8: processed correctly
    let format = FormatDesc::new("demo");
    let config = DiodeConfig::default();

    println!("== Stage 1: target site identification (taint analysis) ==");
    let sites = identify_target_sites(&program, &seed, &config.machine);
    for s in &sites {
        println!(
            "  site {:<10} relevant input bytes {:?} seed size {}",
            s.site, s.relevant_bytes, s.seed_size
        );
    }
    let site = &sites[0];

    println!("\n== Stage 2: target & branch constraint extraction ==");
    let extraction = extract(&program, &seed, site, &config.machine).expect("extraction");
    println!("  target expression B = {}", extraction.target_expr);
    println!("  target constraint β = {}", extraction.beta);
    println!(
        "  φ: {} relevant compressed condition(s), {} relevant branch occurrence(s) on the path",
        extraction.phi.len(),
        extraction.total_relevant
    );
    for c in &extraction.phi {
        println!("    {} (×{}): {}", c.label, c.occurrences, c.constraint);
    }

    println!("\n== Stages 3-5: solve β, generate inputs, enforce flipped branches ==");
    let report = analyze_site(&program, &seed, &format, site, &config);
    match &report.outcome {
        SiteOutcome::Exposed(bug) => {
            let n = u32::from(bug.input[0]) << 8 | u32::from(bug.input[1]);
            println!("  EXPOSED after enforcing {} branch(es)", bug.enforced);
            println!("  triggering input bytes: {:02x?}", bug.input);
            println!(
                "  field n = {n} (passes the n ≤ 50000 check; n × 100000 = {} ≥ 2^32)",
                u64::from(n) * 100_000
            );
            println!("  observed error: {}", bug.error_type);
        }
        other => println!("  unexpected outcome: {other:?}"),
    }

    println!("\n== Campaign scale: the same analysis through diode-engine ==");
    // Production runs batch many programs × seeds through the engine's
    // work-stealing scheduler with a shared solver-query cache; site
    // outcomes are byte-identical to the stage-by-stage run above.
    let spec = diode::engine::CampaignSpec::new(vec![diode::engine::CampaignApp::new(
        "quickstart-demo",
        program,
        format,
        seed,
    )]);
    let campaign = spec.run();
    let (total, exposed, _, _) = campaign.counts();
    println!(
        "  {} site(s) analyzed on {} worker thread(s): {} exposed, bug re-validated: {:?}",
        total, campaign.threads, exposed, campaign.units[0].sites[0].verified
    );
    if let Some(cache) = campaign.cache {
        println!(
            "  solver cache: {} hits / {} misses ({:.0}% hit rate)",
            cache.hits,
            cache.misses,
            cache.hit_rate() * 100.0
        );
    }
    Ok(())
}
