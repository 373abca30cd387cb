//! Trace-determinism acceptance tests for the observability layer: the
//! merged span set of a forged-suite campaign must be identical across
//! thread counts (modulo timestamps), tracing must not perturb the
//! campaign report, and the per-phase breakdown must account for the
//! bulk of the wall time at one thread.

use std::sync::Arc;
use std::time::Instant;

use diode_engine::{CampaignReport, CampaignSpec, ExecutionMode, Recorder};
use diode_obs::{Phase, ProfileReport, Trace};
use diode_synth::{forge, SynthConfig};

fn forged_spec() -> (CampaignSpec, SynthConfig) {
    let cfg = SynthConfig {
        apps: 8,
        branch_depth: 2,
        rng_seed: 0x0B5,
        ..SynthConfig::default()
    };
    let suite = forge(&cfg);
    (CampaignSpec::new(suite.campaign_apps()), cfg)
}

fn traced_run(threads: usize) -> (CampaignReport, Trace) {
    let (mut spec, _) = forged_spec();
    let recorder = Arc::new(Recorder::new());
    spec.mode = ExecutionMode::Parallel {
        threads: Some(threads),
    };
    spec.recorder = Some(Arc::clone(&recorder));
    let report = spec.run();
    (report, recorder.trace())
}

#[test]
fn span_identity_set_is_identical_across_thread_counts() {
    let (report_1, trace_1) = traced_run(1);
    let (report_4, trace_4) = traced_run(4);

    assert_eq!(
        report_1.outcome_fingerprint(),
        report_4.outcome_fingerprint(),
        "outcomes must not depend on the worker count"
    );

    let ids_1 = trace_1.identity_set();
    let ids_4 = trace_4.identity_set();
    assert!(!ids_1.is_empty(), "traced campaign produced no spans");
    assert_eq!(
        ids_1, ids_4,
        "merged span identity sets must match between 1 and 4 workers"
    );

    // Deterministic sort: re-merging yields the same identity order.
    assert_eq!(trace_1.identity_set(), ids_1);
}

#[test]
fn tracing_leaves_the_campaign_report_identical() {
    let (mut plain, _) = forged_spec();
    plain.mode = ExecutionMode::Parallel { threads: Some(2) };
    let plain = plain.run();

    let (traced, _) = traced_run(2);

    assert_eq!(
        plain.outcome_fingerprint(),
        traced.outcome_fingerprint(),
        "tracing must be passive: outcomes byte-identical with it on or off"
    );
    assert_eq!(plain.counts(), traced.counts());
}

#[test]
fn every_pipeline_phase_appears_in_the_trace() {
    let (_, trace) = traced_run(2);
    let report = ProfileReport::from_trace(&trace, 5);
    for phase in [
        Phase::Identify,
        Phase::Warm,
        Phase::Extract,
        Phase::Solve,
        Phase::Enforce,
        Phase::Validate,
        Phase::InterpRun,
        Phase::InterpResume,
    ] {
        let row = report
            .breakdown
            .phase(phase)
            .unwrap_or_else(|| panic!("phase {phase} missing from breakdown"));
        assert!(row.count > 0, "phase {phase} recorded no spans");
        assert!(row.total_ns > 0, "phase {phase} recorded zero duration");
    }
}

#[test]
fn phase_durations_cover_the_wall_time_at_one_thread() {
    // At one worker the instrumented top-level spans must account for
    // (nearly) all of the campaign wall time — the "sums within 10% of
    // wall" acceptance criterion, with a little slack for scheduler
    // bookkeeping between jobs.
    let (mut spec, _) = forged_spec();
    let recorder = Arc::new(Recorder::new());
    spec.mode = ExecutionMode::Parallel { threads: Some(1) };
    spec.recorder = Some(Arc::clone(&recorder));
    let start = Instant::now();
    let _report = spec.run();
    let wall_ns = start.elapsed().as_nanos() as u64;

    let mut trace = recorder.trace();
    trace.wall_ns = Some(wall_ns);
    trace.threads = Some(1);
    let report = ProfileReport::from_trace(&trace, 5);
    let coverage = report.serial_coverage().expect("wall time is stamped");
    assert!(
        coverage > 0.9,
        "instrumented phases cover only {:.0}% of wall time",
        coverage * 100.0
    );
    assert!(
        coverage <= 1.0 + 1e-9,
        "top-level spans exceed wall time: coverage {coverage}"
    );
}

#[test]
fn trace_round_trips_through_jsonl() {
    let (report, mut trace) = traced_run(2);
    trace.wall_ns = Some(report.wall_time.as_nanos() as u64);
    trace.threads = Some(2);
    let text = trace.to_jsonl();
    let back = Trace::from_jsonl(&text).expect("campaign trace round-trips");
    assert_eq!(back.identity_set(), trace.identity_set());
    assert_eq!(back.counters, trace.counters);
    assert_eq!(back.wall_ns, trace.wall_ns);
    assert_eq!(back.threads, trace.threads);
}
