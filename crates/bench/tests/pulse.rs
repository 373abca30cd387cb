//! diode-pulse end-to-end: telemetry must be passive (byte-identical
//! campaign outcomes at every thread count), complete (the event stream
//! covers every unit and site and ends with `finished`), non-blocking
//! (a never-drained subscriber only loses its own events), and useful
//! (a planted stall is exactly the anomaly the watchdog raises).

use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use diode_engine::{
    CampaignApp, CampaignReport, CampaignSpec, ExecutionMode, PulseBus, PulseConfig, PulseEvent,
    Subscriber,
};
use diode_obs::{Watchdog, WatchdogConfig};
use diode_synth::{forge, forge_stall, SynthConfig};

fn suite_apps() -> Vec<CampaignApp> {
    forge(&SynthConfig::default().with_apps(4)).campaign_apps()
}

fn spec(apps: Vec<CampaignApp>, mode: ExecutionMode) -> CampaignSpec {
    let mut spec = CampaignSpec::new(apps);
    spec.mode = mode;
    spec
}

/// Runs `apps` with a fresh pulse bus attached and one subscriber of
/// `ring` capacity; returns the report and the drained stream.
fn run_pulsed(
    apps: Vec<CampaignApp>,
    mode: ExecutionMode,
    ring: usize,
) -> (CampaignReport, Subscriber) {
    let bus = Arc::new(PulseBus::new());
    let sub = bus.subscribe(ring);
    let mut spec = spec(apps, mode);
    let mut pulse = PulseConfig::new(bus);
    pulse.heartbeat = Duration::from_millis(1);
    spec.pulse = Some(pulse);
    (spec.run(), sub)
}

/// The one-worker reference run.
const ONE_WORKER: ExecutionMode = ExecutionMode::Parallel { threads: Some(1) };

#[test]
fn telemetry_is_passive_and_byte_identical_across_thread_counts() {
    let baseline = spec(suite_apps(), ONE_WORKER).run();
    for threads in [1usize, 2, 4, 8] {
        let mode = ExecutionMode::Parallel {
            threads: Some(threads),
        };
        let plain = spec(suite_apps(), mode).run();
        let (pulsed, sub) = run_pulsed(suite_apps(), mode, 1 << 14);
        assert_eq!(
            plain.outcome_fingerprint(),
            baseline.outcome_fingerprint(),
            "{threads} worker(s) diverged from one"
        );
        assert_eq!(
            pulsed.outcome_fingerprint(),
            baseline.outcome_fingerprint(),
            "telemetry changed outcomes at {threads} thread(s)"
        );
        assert_eq!(
            pulsed.peak_heap_bytes, baseline.peak_heap_bytes,
            "peak heap accounting must be deterministic at {threads} thread(s)"
        );
        assert!(baseline.peak_heap_bytes > 0, "heap accounting is always on");
        if threads == 1 {
            // One worker runs through the scheduler too, so its
            // heartbeats count the jobs it has finished.
            let jobs_done = sub
                .drain()
                .iter()
                .filter_map(|e| match e {
                    PulseEvent::Heartbeat(h) => Some(h.jobs_done),
                    _ => None,
                })
                .max();
            assert!(
                jobs_done > Some(0),
                "no one-worker heartbeat counted a finished job: {jobs_done:?}"
            );
        }
    }
}

#[test]
fn pulse_stream_covers_every_unit_and_site_and_finishes_last() {
    let (report, sub) = run_pulsed(
        suite_apps(),
        ExecutionMode::Parallel { threads: Some(2) },
        1 << 14,
    );
    let events = sub.drain();
    assert_eq!(sub.dropped(), 0, "a huge ring must not drop");
    let (total_sites, exposed, _, _) = report.counts();
    let units: usize = report.units.len();
    let started = events
        .iter()
        .filter(|e| matches!(e, PulseEvent::UnitStarted { .. }))
        .count();
    let identified: u64 = events
        .iter()
        .filter_map(|e| match e {
            PulseEvent::SitesIdentified { sites, .. } => Some(*sites),
            _ => None,
        })
        .sum();
    let finished_sites = events
        .iter()
        .filter(|e| matches!(e, PulseEvent::SiteFinished { .. }))
        .count();
    let heartbeats = events
        .iter()
        .filter(|e| matches!(e, PulseEvent::Heartbeat(_)))
        .count();
    assert_eq!(started, units, "one UnitStarted per unit");
    assert_eq!(identified, total_sites as u64, "identified sites add up");
    assert_eq!(finished_sites, total_sites, "one SiteFinished per site");
    assert!(heartbeats >= 1, "a 1ms sampler must land at least one beat");
    match events.last() {
        Some(PulseEvent::Finished {
            sites, exposed: ex, ..
        }) => {
            assert_eq!(*sites, total_sites as u64);
            assert_eq!(*ex, exposed as u64);
        }
        other => panic!("stream must end with Finished, got {other:?}"),
    }
}

#[test]
fn slow_subscriber_drops_without_changing_the_campaign() {
    let baseline = spec(suite_apps(), ONE_WORKER).run();
    let bus = Arc::new(PulseBus::new());
    let fast = bus.subscribe(1 << 14);
    let slow = bus.subscribe(2); // attached, never drained
    let mut spec = spec(suite_apps(), ExecutionMode::Parallel { threads: Some(2) });
    let mut pulse = PulseConfig::new(bus);
    pulse.heartbeat = Duration::from_millis(1);
    spec.pulse = Some(pulse);
    let report = spec.run();
    assert_eq!(
        report.outcome_fingerprint(),
        baseline.outcome_fingerprint(),
        "a stuck subscriber must not perturb the campaign"
    );
    let delivered = fast.drain().len() as u64;
    assert!(
        slow.dropped() + 2 >= delivered && slow.dropped() > 0,
        "slow ring (cap 2) kept {} and dropped {} of {delivered}",
        slow.drain().len(),
        slow.dropped()
    );
}

#[test]
fn planted_stall_raises_exactly_one_slow_site_anomaly() {
    // A healthy fast suite for the median, plus one single-site app
    // whose planted stall loop, run by every candidate of the site,
    // dwarfs everything else (the fuel bound is raised so the stall runs
    // to completion instead of dying).
    let mut apps = forge(&SynthConfig::default().with_apps(5)).campaign_apps();
    let slow = forge_stall(2_000_000, SynthConfig::default().rng_seed);
    let slow_name = slow.name.clone();
    apps.push(slow);

    let bus = Arc::new(PulseBus::new());
    let sub = bus.subscribe(1 << 14);
    let mut spec = spec(apps, ExecutionMode::Parallel { threads: Some(2) });
    spec.config.machine.fuel = 200_000_000;
    let mut pulse = PulseConfig::new(bus);
    pulse.heartbeat = Duration::from_millis(1);
    spec.pulse = Some(pulse);
    let _report = spec.run();
    let mut watchdog = Watchdog::new(WatchdogConfig {
        slow_site_factor: 8.0,
        slow_site_floor_ns: 0,
        min_sites_for_median: 8,
        idle_heartbeats: u32::MAX, // single-core CI: idle workers are expected
        cache_ceiling_bytes: None,
    });
    for event in sub.drain() {
        watchdog.feed(&event);
    }
    let anomalies = watchdog.finish();
    assert_eq!(
        anomalies.len(),
        1,
        "exactly the planted stall must fire: {anomalies:?}"
    );
    assert_eq!(anomalies[0].kind.as_str(), "slow_site");
    assert!(
        anomalies[0].subject.contains(&slow_name),
        "anomaly {:?} must point at {slow_name}",
        anomalies[0].subject
    );
}

#[test]
fn watch_cli_renders_a_recorded_stream() {
    let dir = std::env::temp_dir().join(format!("diode-pulse-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let telemetry = dir.join("telemetry.jsonl");

    let out = Command::new(env!("CARGO_BIN_EXE_synth_campaign"))
        .args([
            "--apps",
            "3",
            "--telemetry",
            telemetry.to_str().unwrap(),
            "--watchdog",
        ])
        .output()
        .expect("synth_campaign runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stream = std::fs::read_to_string(&telemetry).expect("telemetry written");
    assert!(
        stream.starts_with("{\"type\":\"pulse\",\"v\":2"),
        "{stream}"
    );
    assert!(stream.contains("\"type\":\"finished\""), "{stream}");

    let watch = |args: &[&str], stdin: Stdio| {
        let out = Command::new(env!("CARGO_BIN_EXE_watch"))
            .args(args)
            .stdin(stdin)
            .output()
            .expect("watch runs");
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).to_string(),
        )
    };

    // Text mode: per-worker, per-outcome, cache-pressure, watchdog.
    let (ok, text) = watch(&["--replay", telemetry.to_str().unwrap()], Stdio::null());
    assert!(ok, "{text}");
    for needle in [
        "watch: ",
        "worker 0: busy",
        "outcomes:",
        "cache pressure: solver",
        "watchdog: no anomalies",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    // JSON mode carries the same summary machine-readably.
    let (ok, json) = watch(
        &["--replay", telemetry.to_str().unwrap(), "--json"],
        Stdio::null(),
    );
    assert!(ok, "{json}");
    for needle in [
        "\"table\":\"pulse_watch\"",
        "\"finished\":{\"wall_ms\":",
        "\"workers\":[{\"worker\":0",
        "\"outcomes\":[{\"outcome\":",
        "\"peak_cache_bytes\":",
        "\"anomalies\":[]",
    ] {
        assert!(json.contains(needle), "missing {needle:?} in:\n{json}");
    }

    // Follow mode on an already-finished stream narrates and exits.
    let file = std::fs::File::open(&telemetry).expect("open telemetry");
    let (ok, live) = watch(&["--follow"], Stdio::from(file));
    assert!(ok, "{live}");
    assert!(live.contains("finished: "), "{live}");
    assert!(live.contains("watchdog: no anomalies"), "{live}");
    std::fs::remove_dir_all(&dir).ok();
}
