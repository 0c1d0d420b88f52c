//! Every workload at a tiny size, with every output check on, printing
//! exactly the metrics `BENCHMARK.json` declares.

use anacin_perfbench::report::Outcome;
use anacin_perfbench::{run, Options, Size, Workload};
use serde::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let spec = serde_json::from_str_value(&text).expect("BENCHMARK.json parses");
    field(&spec, section)
        .as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            let s = |k| field(m, k).as_str().unwrap_or_default().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// Tiny-size options with every check on, in a work directory of their
/// own: tests run in parallel, and a run refuses an existing one.
fn tiny_options(workload: Workload) -> Options {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let parent = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "perfbench-{}-{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    Options {
        workload,
        seed: 3,
        seconds: 0.0,
        size: Size::Tiny,
        trace: true,
        work_dir: parent.join(workload.name()),
        root: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".."),
    }
}

fn tiny(workload: Workload) -> Outcome {
    let opts = tiny_options(workload);
    let out = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    let _ = std::fs::remove_dir_all(opts.work_dir.parent().unwrap());
    out
}

#[test]
fn a_run_never_reuses_an_existing_work_directory() {
    let opts = tiny_options(Workload::ServeMix);
    std::fs::create_dir_all(opts.work_dir.join("round-0/store")).unwrap();
    let refused = run(&opts);
    let _ = std::fs::remove_dir_all(opts.work_dir.parent().unwrap());
    assert!(
        refused.is_err(),
        "a leftover store could serve cold jobs warm"
    );
}

fn names(metrics: &[anacin_perfbench::report::Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn declared_workloads_are_the_implemented_ones() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = serde_json::from_str_value(&std::fs::read_to_string(path).unwrap()).unwrap();
    let listed: Vec<&str> = field(&spec, "workloads")
        .as_array()
        .unwrap()
        .iter()
        .map(|w| field(w, "name").as_str().unwrap())
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, known);
}

#[test]
fn every_workload_passes_its_checks_and_prints_the_declared_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in Workload::ALL {
        let out = tiny(workload);
        let name = workload.name();
        assert!(out.correct(), "{name}: {:?}", out.problems);
        assert!(out.attempted >= 2, "{name}");
        assert_eq!(names(&out.end_to_end), end_to_end, "{name}");
        assert_eq!(names(&out.per_layer), per_layer, "{name}");
        for m in &out.end_to_end {
            assert!(m.value > 0.0 && m.value.is_finite(), "{name}: {m:?}");
        }
        for m in &out.per_layer {
            assert!(m.value.is_finite(), "{name}: {m:?}");
        }
        for trace in [false, true] {
            let line = serde_json::from_str_value(&out.result_json(trace)).unwrap();
            let keys: Vec<&str> = line
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = field(&line, "metrics").as_object().unwrap();
            let want = if trace { &per_layer } else { &end_to_end };
            assert_eq!(metrics.len(), want.len(), "{name}");
        }
        let context = out.context_json();
        for key in [
            "\"seed\": \"3\"",
            "\"nproc\"",
            "\"commit\"",
            "\"work_dir_fs\"",
            "\"n\"",
        ] {
            assert!(
                context.contains(key),
                "{name}: {key} missing from {context}"
            );
        }
    }
}

#[test]
fn traced_layers_see_the_work_of_the_workloads_that_use_them() {
    let layer = |out: &Outcome, name: &str| {
        out.per_layer
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap()
    };
    let batch = tiny(Workload::ManyRuns);
    assert!(layer(&batch, "mpisim.events") > 0.0);
    assert_eq!(
        layer(&batch, "event-graph.nodes"),
        layer(&batch, "mpisim.events")
    );
    assert_eq!(layer(&batch, "kernels.dots"), (12 * 13 / 2) as f64);
    assert_eq!(layer(&batch, "store.puts"), 0.0);
    let serve = tiny(Workload::ServeMix);
    for name in [
        "mpisim.events",
        "store.puts",
        "store.gets",
        "serve.roundtrip_ms",
        "serve.direct_ms",
    ] {
        assert!(layer(&serve, name) > 0.0, "{name}");
    }
    let hit = layer(&serve, "store.hit_ratio");
    assert!(
        hit > 0.0 && hit < 1.0,
        "warm jobs hit, cold jobs miss: {hit}"
    );
}
