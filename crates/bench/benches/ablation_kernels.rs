//! Ablation: which kernels can actually *see* communication
//! non-determinism?
//!
//! DESIGN.md design-choice #1: ANACIN-X measures ND with the WL kernel
//! rather than cheap histogram kernels. This bench quantifies why, by
//! measuring the mean pairwise distance each kernel reports over the same
//! sample of 100%-ND runs (higher = more discriminating), alongside its
//! cost. The companion correctness fact — vertex histograms report ~0 on
//! pure match reorderings — is asserted in the unit tests of
//! `anacin-kernels`; here we report the measured separation as bench
//! output so the trade-off (cost vs signal) is visible in one place.

use anacin_event_graph::{EventGraph, LabelPolicy};
use anacin_kernels::prelude::*;
use anacin_miniapps::{MiniAppConfig, Pattern};
use anacin_mpisim::{simulate, SimConfig};
use criterion::{criterion_group, criterion_main, Criterion};

fn race_graphs(count: u64) -> Vec<EventGraph> {
    let program = Pattern::MessageRace.build(&MiniAppConfig::with_procs(12));
    (0..count)
        .map(|seed| {
            let t = simulate(&program, &SimConfig::with_nd_percent(100.0, seed)).unwrap();
            EventGraph::from_trace(&t)
        })
        .collect()
}

fn ablation(c: &mut Criterion) {
    let gs = race_graphs(10);
    let kernels: Vec<(&str, Box<dyn GraphKernel>)> = vec![
        ("wl_h3_peer", Box::new(WlKernel::default())),
        (
            "wl_h3_typeonly",
            Box::new(WlKernel {
                iterations: 3,
                policy: LabelPolicy::EventType,
            }),
        ),
        (
            "vertex_hist_peer",
            Box::new(VertexHistogramKernel {
                policy: LabelPolicy::TypeAndPeer,
            }),
        ),
        (
            "edge_hist_peer",
            Box::new(EdgeHistogramKernel {
                policy: LabelPolicy::TypeAndPeer,
            }),
        ),
        ("graphlet", Box::new(GraphletKernel::default())),
    ];
    // Report the ND signal each kernel sees (stdout, once).
    println!("\nablation: mean pairwise distance over 10 runs of a 12-rank race @100% ND");
    for (name, k) in &kernels {
        let m = gram_matrix(k.as_ref(), &gs, 4);
        println!("  {name:>18}: {:.4}", m.mean_pairwise_distance());
    }
    let mut group = c.benchmark_group("ablation_kernel_cost");
    group.sample_size(10);
    for (name, k) in &kernels {
        group.bench_function(*name, |b| {
            b.iter(|| gram_matrix(k.as_ref(), &gs, 4).mean_pairwise_distance())
        });
    }
    group.finish();
}

criterion_group!(benches, ablation);
criterion_main!(benches);
