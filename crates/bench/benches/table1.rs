//! Criterion benchmark regenerating Table 1: full DIODE classification of
//! every target site, per application — sequential `diode-core` vs the
//! `diode-engine` parallel scheduler (with and without the shared query
//! cache), plus the whole suite as one campaign.

use criterion::{criterion_group, criterion_main, Criterion};
use diode_bench::AnalysisBackend;
use diode_core::{analyze_program, DiodeConfig};
use diode_engine::{CampaignApp, CampaignSpec, SolverCache};

fn bench_table1(c: &mut Criterion) {
    let apps = diode_apps::all_apps();
    let config = DiodeConfig::default();
    let mut group = c.benchmark_group("table1_classification");
    group.sample_size(10);
    for app in &apps {
        group.bench_function(format!("{}_sequential", app.name), |b| {
            b.iter(|| {
                let analysis = analyze_program(&app.program, &app.seed, &app.format, &config);
                std::hint::black_box(analysis.counts())
            })
        });
        group.bench_function(format!("{}_engine", app.name), |b| {
            b.iter(|| {
                let analysis = AnalysisBackend::default().analyze(app, &config);
                std::hint::black_box(analysis.counts())
            })
        });
        group.bench_function(format!("{}_engine_cached", app.name), |b| {
            let cached = config
                .clone()
                .with_query_cache(std::sync::Arc::new(SolverCache::new()));
            b.iter(|| {
                let analysis = AnalysisBackend::default().analyze(app, &cached);
                std::hint::black_box(analysis.counts())
            })
        });
    }
    group.bench_function("whole_suite_campaign", |b| {
        b.iter(|| {
            let spec = CampaignSpec::new(
                diode_apps::all_apps()
                    .into_iter()
                    .map(|a| CampaignApp::new(a.name, a.program, a.format, a.seed))
                    .collect(),
            );
            std::hint::black_box(spec.run().counts())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
