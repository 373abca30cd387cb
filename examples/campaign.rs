//! Campaign-scale batch analysis: all five §5 benchmark applications in
//! one `diode-engine` run, with live per-site events from the pulse bus,
//! the shared solver-query cache, and automatic re-validation of every
//! exposed bug.
//!
//! Run with: `cargo run --release --example campaign`

use std::sync::Arc;

use diode::engine::{CampaignApp, CampaignSpec, PulseBus, PulseConfig, PulseEvent};

fn main() {
    let apps: Vec<CampaignApp> = diode::apps::all_apps()
        .into_iter()
        .map(|a| CampaignApp::new(a.name, a.program, a.format, a.seed))
        .collect();
    let mut spec = CampaignSpec::new(apps);

    // Print events as workers publish them (order reflects scheduling;
    // the final report is deterministic regardless). The printer blocks
    // on its subscription until the campaign's `finished` event closes
    // the bus.
    let bus = Arc::new(PulseBus::new());
    let sub = bus.subscribe(1 << 12);
    let cache = spec.config.query_cache.clone();
    let printer = std::thread::spawn(move || {
        let mut n = 0u32;
        while let Some(event) = sub.recv() {
            let line = match event {
                PulseEvent::UnitStarted { app, .. } => format!("start      {app}"),
                PulseEvent::SitesIdentified { app, sites, .. } => {
                    format!("identified {app}: {sites} target site(s)")
                }
                PulseEvent::SiteFinished {
                    app,
                    site,
                    outcome,
                    wall_ns,
                    ..
                } => {
                    // The shared cache is live: read its hit rate now.
                    let live = cache
                        .as_ref()
                        .map(|c| format!(" [cache {:.0}% hit]", c.stats().hit_rate() * 100.0))
                        .unwrap_or_default();
                    format!(
                        "site       {app}/{site}: {outcome} in {:.1}ms{live}",
                        wall_ns as f64 / 1e6
                    )
                }
                PulseEvent::Heartbeat(_) => continue,
                PulseEvent::Finished { wall_ns, .. } => {
                    format!("campaign finished in {:.1}ms", wall_ns as f64 / 1e6)
                }
            };
            n += 1;
            println!("[{n:>3}] {line}");
        }
    });
    spec.pulse = Some(PulseConfig::new(bus));
    let report = spec.run();
    printer.join().expect("event printer");

    println!("\n== Campaign report ==");
    let (total, exposed, unsat, prevented) = report.counts();
    println!(
        "{} jobs on {} worker thread(s): {total} sites -> {exposed} exposed, {unsat} unsat, {prevented} prevented (paper: 40/14/17/9)",
        report.jobs, report.threads
    );
    for unit in &report.units {
        let verified = unit
            .sites
            .iter()
            .filter(|s| s.verified == Some(true))
            .count();
        let (t, e, ..) = unit.counts();
        println!(
            "  {:<18} {t:>2} sites, {e} exposed ({verified} re-validated), stage 1 in {:?}",
            unit.app, unit.identify_time
        );
    }
    if let Some(cache) = report.cache {
        println!(
            "shared solver cache: {} hits / {} misses ({:.0}% hit rate, {} entries)",
            cache.hits,
            cache.misses,
            cache.hit_rate() * 100.0,
            cache.entries
        );
    }
}
