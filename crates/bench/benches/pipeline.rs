//! End-to-end pipeline cost: the per-figure campaign loops
//! (simulate → graph → kernel matrix) and the root-cause analysis, which
//! runs its own campaign.

use anacin_core::prelude::*;
use anacin_miniapps::Pattern;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn campaigns(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    for (pattern, procs) in [
        (Pattern::MessageRace, 8u32),
        (Pattern::Amg2013, 8),
        (Pattern::UnstructuredMesh, 8),
    ] {
        let cfg = CampaignConfig::new(pattern, procs).runs(10);
        group.bench_with_input(
            BenchmarkId::new("runs10", pattern.name()),
            &cfg,
            |b, cfg| {
                b.iter(|| run_campaign(cfg).unwrap().mean_distance());
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("root_cause");
    group.sample_size(10);
    let cfg = CampaignConfig::new(Pattern::Amg2013, 8).runs(10);
    group.bench_function("analyze_16_slices", |b| {
        b.iter(|| analyze(&cfg, &RootCauseConfig::default(), &RunCtx::default()).unwrap());
    });
    group.finish();
}

criterion_group!(benches, campaigns);
criterion_main!(benches);
