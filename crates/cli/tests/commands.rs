//! Integration tests of the CLI command surface (via the library, so no
//! subprocess spawning; stdout output is exercised but not captured).

use anacin_cli::args::Args;
use anacin_cli::commands::dispatch;

fn run(args: &[&str]) -> Result<(), String> {
    let parsed = Args::parse(args.iter().map(|s| s.to_string()))?;
    dispatch(&parsed)
}

#[test]
fn help_and_unknown_command() {
    run(&["help"]).unwrap();
    run(&[]).unwrap();
    let err = run(&["frobnicate"]).unwrap_err();
    assert!(err.contains("unknown command"));
}

#[test]
fn run_command_small_campaign() {
    run(&["run", "--pattern", "race", "--procs", "5", "--runs", "5"]).unwrap();
    run(&[
        "run",
        "--pattern",
        "amg",
        "--procs",
        "3",
        "--runs",
        "4",
        "--json",
    ])
    .unwrap();
}

#[test]
fn campaign_alias_with_metrics_report() {
    let dir = std::env::temp_dir().join("anacin_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.json");
    run(&[
        "campaign",
        "--pattern",
        "race",
        "--procs",
        "6",
        "--runs",
        "5",
        "--metrics",
        path.to_str().unwrap(),
    ])
    .unwrap();
    let json = std::fs::read_to_string(&path).unwrap();
    // Every pipeline stage appears with a recorded wall-time.
    for stage in [
        "\"build\"",
        "\"campaign\"",
        "campaign/gram",
        "run/simulate",
        "run/graph",
        "run/features",
    ] {
        assert!(json.contains(stage), "missing {stage} in {json}");
    }
    for counter in [
        "sim/events",
        "sim/matched",
        "sim/wildcard_matches",
        "kernel/dot_products",
    ] {
        assert!(json.contains(counter), "missing {counter} in {json}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn bench_baseline_writes_report() {
    let dir = std::env::temp_dir().join("anacin_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("baseline.json");
    run(&[
        "bench",
        "baseline",
        "--procs",
        "4",
        "--runs",
        "2",
        "--out",
        path.to_str().unwrap(),
    ])
    .unwrap();
    let json = std::fs::read_to_string(&path).unwrap();
    for field in [
        "simulate_ms",
        "graph_ms",
        "features_ms",
        "gram_ms",
        "patterns",
    ] {
        assert!(json.contains(field), "missing {field} in {json}");
    }
    std::fs::remove_file(path).ok();
    let err = run(&["bench"]).unwrap_err();
    for action in ["baseline", "large", "compare"] {
        assert!(err.contains(action), "{err}");
    }
}

/// Ten reports per side in `dir/{parent,change}`; pair `i` has
/// `total_ms` of `parent(i)` and `change(i)`.
fn bench_pairs(
    dir: &std::path::Path,
    parent: impl Fn(usize) -> f64,
    change: impl Fn(usize) -> f64,
) -> [String; 2] {
    let sides = [
        ("parent", &parent as &dyn Fn(usize) -> f64),
        ("change", &change),
    ];
    sides.map(|(side, total_ms)| {
        let d = dir.join(side);
        std::fs::create_dir_all(&d).unwrap();
        for i in 0..10 {
            let report = format!(
                r#"{{"patterns":[{{"pattern":"amg2013","total_ms":{},"simulate_ms":28.0}}]}}"#,
                total_ms(i)
            );
            std::fs::write(d.join(format!("BENCH_{i:02}.json")), report).unwrap();
        }
        d.to_str().unwrap().to_string()
    })
}

#[test]
fn bench_compare_fails_on_a_step_and_passes_identical_sets() {
    let dir = std::env::temp_dir().join("anacin_cli_bench_compare");
    std::fs::remove_dir_all(&dir).ok();
    let noise = |i: usize| 45.0 + (i % 3) as f64;
    let [p, c] = bench_pairs(&dir.join("same"), noise, noise);
    run(&["bench", "compare", &p, &c]).unwrap();
    // A switch before the two directories must not swallow the first.
    run(&["bench", "compare", "--json", &p, &c]).unwrap();
    let [p, c] = bench_pairs(&dir.join("step"), noise, |i| 1.5 * noise(i));
    let err = run(&["bench", "compare", &p, &c]).unwrap_err();
    assert_eq!(err, "regression flagged: amg2013/total_ms");
    let (code, _, stderr) = anacin(&["bench", "compare", &p, &c]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(run(&["bench", "compare", &p])
        .unwrap_err()
        .contains("two directories"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_rejects_bad_pattern_and_values() {
    assert!(run(&["run", "--pattern", "nope"])
        .unwrap_err()
        .contains("unknown pattern"));
    assert!(run(&["run", "--procs", "three"])
        .unwrap_err()
        .contains("invalid value"));
}

#[test]
fn graph_formats() {
    for fmt in ["ascii", "dot", "graphml", "json", "svg"] {
        run(&[
            "graph",
            "--pattern",
            "race",
            "--procs",
            "4",
            "--format",
            fmt,
        ])
        .unwrap();
    }
    assert!(run(&["graph", "--format", "png"])
        .unwrap_err()
        .contains("unknown format"));
}

#[test]
fn graph_writes_file() {
    let dir = std::env::temp_dir().join("anacin_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.svg");
    run(&[
        "graph",
        "--pattern",
        "race",
        "--procs",
        "4",
        "--format",
        "svg",
        "--out",
        path.to_str().unwrap(),
    ])
    .unwrap();
    let svg = std::fs::read_to_string(&path).unwrap();
    assert!(svg.starts_with("<svg"));
    std::fs::remove_file(path).ok();
}

#[test]
fn distance_and_diff() {
    run(&["distance", "--pattern", "race", "--procs", "5"]).unwrap();
    run(&[
        "diff",
        "--pattern",
        "race",
        "--procs",
        "5",
        "--seed-a",
        "1",
        "--seed-b",
        "9",
    ])
    .unwrap();
}

#[test]
fn sweep_kinds() {
    run(&[
        "sweep",
        "--kind",
        "iterations",
        "--pattern",
        "race",
        "--procs",
        "4",
        "--runs",
        "4",
    ])
    .unwrap();
    assert!(run(&["sweep", "--kind", "bananas"])
        .unwrap_err()
        .contains("unknown sweep kind"));
}

#[test]
fn root_cause_runs() {
    run(&[
        "root-cause",
        "--pattern",
        "amg",
        "--procs",
        "4",
        "--runs",
        "5",
    ])
    .unwrap();
}

#[test]
fn replay_and_record_roundtrip() {
    let dir = std::env::temp_dir().join("anacin_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let rec = dir.join("rec.json");
    let record = |extra: &[&str]| {
        let base = ["record", "--pattern", "race", "--procs", "5"];
        let out = ["--out", rec.to_str().unwrap()];
        run(&[&base[..], extra, &out[..]].concat()).unwrap();
        let data = std::fs::read_to_string(&rec).unwrap();
        serde_json::from_str::<anacin_mpisim::replay::MatchRecord>(&data)
            .unwrap()
            .total()
    };
    // `--iterations` reaches the recorded program: twice the receives.
    let twice = record(&["--iterations", "2"]);
    assert_eq!(twice, 2 * record(&[]));
    run(&[
        "replay",
        "--pattern",
        "race",
        "--procs",
        "5",
        "--record",
        rec.to_str().unwrap(),
    ])
    .unwrap();
    std::fs::remove_file(&rec).ok();
    assert!(run(&["record", "--pattern", "race"])
        .unwrap_err()
        .contains("--out"));

    // A correct record pins every replay to its own schedule, whatever
    // `--seed` is: the reference run is the record replayed, not a free
    // run at `--seed`, and no line claims the seed it was recorded at.
    let rec6 = dir.join("rec-race6-seed3.json");
    let rec6 = rec6.to_str().unwrap();
    let base = ["--pattern", "race", "--procs", "6"];
    run(&[&["record"], &base[..], &["--seed", "3", "--out", rec6]].concat()).unwrap();
    for seed in ["1", "3"] {
        let args = [&["replay"], &base[..], &["--record", rec6, "--seed", seed]].concat();
        let (code, stdout, stderr) = anacin(&args);
        assert_eq!(code, Some(0), "{stderr}");
        assert!(
            stdout.contains("max replayed distance 0.0000"),
            "seed {seed}: {stdout}"
        );
        assert!(!stdout.contains("recorded run (seed"), "{stdout}");
    }
    std::fs::remove_file(rec6).ok();

    // A 5-rank record does not fit a 6-rank program: an error naming both
    // shapes, before any run.
    let rec5 = dir.join("rec-race5.json");
    let rec5 = rec5.to_str().unwrap();
    run(&["record", "--pattern", "race", "--procs", "5", "--out", rec5]).unwrap();
    let (code, stdout, stderr) = anacin(&[&["replay"], &base[..], &["--record", rec5]].concat());
    assert_eq!(code, Some(2), "{stdout}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(
        stderr.contains("5 rank(s) with [4, 0, 0, 0, 0]")
            && stderr.contains("6 rank(s) posting [5, 0, 0, 0, 0, 0]"),
        "{stderr}"
    );
    assert!(!stdout.contains("distance"), "{stdout}");
    std::fs::remove_file(rec5).ok();
}

#[test]
fn inspect_timeline_trace() {
    run(&["inspect", "--pattern", "mesh", "--procs", "5"]).unwrap();
    run(&[
        "timeline",
        "--pattern",
        "race",
        "--procs",
        "4",
        "--nd",
        "50",
    ])
    .unwrap();
    run(&["trace", "--pattern", "race", "--procs", "3"]).unwrap();
}

#[test]
fn embed_and_heatmap() {
    run(&["embed", "--pattern", "race", "--procs", "5", "--runs", "5"]).unwrap();
    run(&[
        "heatmap",
        "--pattern",
        "race",
        "--procs",
        "5",
        "--runs",
        "5",
    ])
    .unwrap();
}

#[test]
fn exercise_catalogue_and_grading() {
    run(&["exercise"]).unwrap();
    run(&["exercise", "write-a-race"]).unwrap();
    run(&["exercise", "make-it-deterministic", "--solve"]).unwrap();
    assert!(run(&["exercise", "nope"])
        .unwrap_err()
        .contains("unknown exercise"));
}

#[test]
fn course_structure_and_levels() {
    run(&["course"]).unwrap();
    run(&["course", "--level", "a", "--answers"]).unwrap();
    assert!(run(&["course", "--level", "z"])
        .unwrap_err()
        .contains("unknown level"));
    assert!(run(&["course", "--lesson", "9"])
        .unwrap_err()
        .contains("unknown lesson"));
}

#[test]
fn reduction_command() {
    run(&["reduction", "--procs", "8", "--runs", "8"]).unwrap();
}

#[test]
fn figure_quick_artifacts() {
    // Only the cheap static figures here; the campaign-driven ones are
    // covered at quick scale by tests/paper_claims.rs.
    for id in ["tables", "1", "2", "3", "4"] {
        run(&["figure", id]).unwrap();
    }
    assert!(run(&["figure", "99"])
        .unwrap_err()
        .contains("unknown figure"));
}

#[test]
fn report_and_explain_and_ablation() {
    let dir = std::env::temp_dir().join("anacin_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("report.html");
    run(&[
        "report",
        "--pattern",
        "race",
        "--procs",
        "5",
        "--runs",
        "5",
        "--out",
        path.to_str().unwrap(),
    ])
    .unwrap();
    let html = std::fs::read_to_string(&path).unwrap();
    assert!(html.contains("<svg"));
    assert!(html.contains("Root-source call paths"));
    std::fs::remove_file(path).ok();
    run(&[
        "explain",
        "--pattern",
        "race",
        "--procs",
        "4",
        "--from",
        "1.1",
        "--to",
        "0.4",
    ])
    .unwrap();
    assert!(run(&["explain", "--from", "9.0"])
        .unwrap_err()
        .contains("rank out of range"));
    assert!(run(&["explain", "--from", "zero"])
        .unwrap_err()
        .contains("RANK.INDEX"));
    run(&[
        "ablation",
        "--pattern",
        "race",
        "--procs",
        "5",
        "--runs",
        "5",
    ])
    .unwrap();
}

#[test]
fn run_with_trace_exports_chrome_json_and_view_summarises_it() {
    let dir = std::env::temp_dir().join("anacin_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    run(&[
        "run",
        "--pattern",
        "race",
        "--procs",
        "5",
        "--runs",
        "3",
        "--trace",
        path.to_str().unwrap(),
    ])
    .unwrap();
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"traceEvents\""));
    // One thread_name metadata track per rank, per run.
    for r in 0..5 {
        assert!(json.contains(&format!("\"name\":\"rank {r}\"")), "rank {r}");
    }
    assert!(json.contains("\"cat\":\"sim\""));
    assert!(json.contains("\"cat\":\"wall\""));
    // The file is valid JSON for the workspace parser.
    serde_json::from_str_value(&json).unwrap();
    // And `trace view` accepts it.
    run(&["trace", "view", path.to_str().unwrap()]).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(run(&["trace", "view"]).unwrap_err().contains("FILE"));
    assert!(run(&["trace", "view", "/nonexistent/trace.json"]).is_err());
}

#[test]
fn run_with_folded_trace_writes_flamegraph_stacks() {
    let dir = std::env::temp_dir().join("anacin_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.folded");
    run(&[
        "run",
        "--pattern",
        "race",
        "--procs",
        "4",
        "--runs",
        "3",
        "--trace",
        path.to_str().unwrap(),
    ])
    .unwrap();
    let folded = std::fs::read_to_string(&path).unwrap();
    assert!(folded.contains("campaign"), "{folded}");
    for line in folded.lines() {
        let (_, weight) = line.rsplit_once(' ').expect("folded line shape");
        assert!(weight.parse::<u64>().is_ok(), "{line}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn run_explore_builds_its_program_once() {
    let dir = std::env::temp_dir().join("anacin_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("explore_metrics.json");
    run(&[
        "run",
        "--pattern",
        "message-race",
        "--procs",
        "5",
        "--runs",
        "20",
        "--explore",
        "--metrics",
        path.to_str().unwrap(),
    ])
    .unwrap();
    let doc = serde_json::from_str_value(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let spans = serde::map_get(doc.as_object().unwrap(), "spans");
    let count = |name: &str| {
        spans
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.as_object().unwrap())
            .find(|s| serde::map_get(s, "name").as_str() == Some(name))
            .and_then(|s| serde::map_get(s, "count").as_int())
    };
    // The exploration reuses the sampled campaign's program.
    assert_eq!(count("build"), Some(1));
    assert_eq!(count("explore/build"), None);
    assert_eq!(count("explore"), Some(1));
    std::fs::remove_file(&path).ok();
}

#[test]
fn sweep_metrics_emit_per_point_breakdown() {
    let dir = std::env::temp_dir().join("anacin_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep_metrics.json");
    run(&[
        "sweep",
        "--kind",
        "iterations",
        "--pattern",
        "race",
        "--procs",
        "4",
        "--runs",
        "3",
        "--metrics",
        path.to_str().unwrap(),
    ])
    .unwrap();
    let json = std::fs::read_to_string(&path).unwrap();
    let doc = serde_json::from_str_value(&json).unwrap();
    let root = doc.as_object().unwrap();
    let points = serde::map_get(root, "points").as_array().unwrap();
    assert_eq!(points.len(), 3, "one report per sweep point");
    for p in points {
        let obj = p.as_object().unwrap();
        assert_eq!(
            serde::map_get(obj, "parameter").as_str(),
            Some("iterations")
        );
        assert!(serde::map_get(obj, "label").as_str().is_some());
        let report = serde::map_get(obj, "report").as_object().unwrap();
        assert!(!serde::map_get(report, "spans")
            .as_array()
            .unwrap()
            .is_empty());
    }
    assert!(serde::map_get(root, "aggregate").as_object().is_some());
    std::fs::remove_file(&path).ok();
}

#[test]
fn run_with_store_warms_and_store_subcommands_operate() {
    let dir = std::env::temp_dir().join("anacin_cli_store_test");
    std::fs::remove_dir_all(&dir).ok();
    let store = dir.join("store");
    let store = store.to_str().unwrap();
    let campaign = &[
        "run",
        "--pattern",
        "race",
        "--procs",
        "4",
        "--runs",
        "3",
        "--store",
        store,
    ];
    run(campaign).unwrap(); // cold: publishes every artifact
    run(campaign).unwrap(); // warm: everything served from the store
    run(&["store", "stats", "--store", store]).unwrap();
    run(&["store", "verify", "--store", store]).unwrap();
    run(&["store", "gc", "--store", store, "--budget", "1000000000"]).unwrap();
    assert!(run(&["store", "stats"]).unwrap_err().contains("--store"));
    assert!(run(&["store", "--store", store])
        .unwrap_err()
        .contains("action"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_with_store_runs_warm_and_traced() {
    let dir = std::env::temp_dir().join("anacin_cli_store_sweep_test");
    std::fs::remove_dir_all(&dir).ok();
    let store = dir.join("store");
    let trace = dir.join("sweep.json");
    let sweep = [
        "sweep",
        "--kind",
        "iterations",
        "--pattern",
        "race",
        "--procs",
        "4",
        "--runs",
        "3",
        "--store",
        store.to_str().unwrap(),
    ];
    run(&sweep).unwrap(); // cold: every point publishes
    let mut traced = sweep.to_vec();
    traced.extend(["--trace", trace.to_str().unwrap()]);
    run(&traced).unwrap(); // warm, and the replayed traces still reach the tracer
    let json = std::fs::read_to_string(&trace).unwrap();
    assert!(json.contains("\"cat\":\"sim\""), "warm runs must be traced");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_view_summarises_folded_files() {
    let dir = std::env::temp_dir().join("anacin_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("view.folded");
    std::fs::write(
        &path,
        "campaign;simulate 9000\ncampaign;graph 600\ncampaign 400\n",
    )
    .unwrap();
    run(&["trace", "view", path.to_str().unwrap()]).unwrap();
    std::fs::write(&path, "no-trailing-weight\n").unwrap();
    assert!(run(&["trace", "view", path.to_str().unwrap()]).is_err());
    std::fs::write(&path, "").unwrap();
    assert!(run(&["trace", "view", path.to_str().unwrap()]).is_err());
    std::fs::remove_file(&path).ok();
}

#[test]
fn course_agenda_and_related_work() {
    run(&["course", "--agenda"]).unwrap();
    run(&["course", "--related-work"]).unwrap();
}

#[test]
fn testkit_gen_and_check() {
    run(&["testkit", "gen", "--seed", "7"]).unwrap();
    run(&[
        "testkit", "gen", "--seed", "7", "--procs", "4", "--rounds", "2",
    ])
    .unwrap();
    run(&["testkit", "check", "--seed", "0", "--count", "2"]).unwrap();
    assert!(run(&["testkit"]).unwrap_err().contains("action"));
    assert!(run(&["testkit", "gen", "--procs", "many"])
        .unwrap_err()
        .contains("invalid value"));
}

/// Run the `anacin` binary itself: (exit code, stdout, stderr).
fn anacin(args: &[&str]) -> (Option<i32>, String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_anacin"))
        .args(args)
        .output()
        .expect("spawn anacin");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

/// A usage error exits 2 with an `error:` line, like any other.
fn assert_usage_error(args: &[&str], needle: &str) {
    let (code, _, stderr) = anacin(args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
}

#[test]
fn root_cause_rejects_zero_slices() {
    assert_usage_error(
        &["root-cause", "--procs", "4", "--runs", "3", "--slices", "0"],
        "--slices",
    );
}

#[test]
fn root_cause_rejects_a_single_run() {
    assert_usage_error(&["root-cause", "--procs", "4", "--runs", "1"], "--runs");
}

#[test]
fn report_rejects_zero_runs() {
    let dir = std::env::temp_dir().join("anacin_cli_report_zero_runs");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("report.html");
    let out = out.to_str().unwrap();
    assert_usage_error(&["report", "--runs", "0", "--out", out], "--runs");
    assert!(!std::path::Path::new(out).exists(), "no report for no runs");
    std::fs::remove_dir_all(&dir).ok();
}

/// The aggregate `sim/events` counter of a sweep's `--metrics` report.
fn sweep_sim_events(metrics: &std::path::Path) -> usize {
    let doc = serde_json::from_str_value(&std::fs::read_to_string(metrics).unwrap()).unwrap();
    let aggregate = serde::map_get(doc.as_object().unwrap(), "aggregate");
    let counters = serde::map_get(aggregate.as_object().unwrap(), "counters");
    let events = counters
        .as_array()
        .unwrap()
        .iter()
        .map(|c| c.as_object().unwrap())
        .find(|c| serde::map_get(c, "name").as_str() == Some("sim/events"))
        .and_then(|c| serde::map_get(c, "value").as_int())
        .expect("sim/events counter");
    events as usize
}

/// The `"cat":"sim"` lines of a Chrome trace file: one per simulated event.
fn sim_lines(trace: &std::path::Path) -> usize {
    std::fs::read_to_string(trace)
        .unwrap()
        .lines()
        .filter(|l| l.contains("\"cat\":\"sim\""))
        .count()
}

#[test]
fn run_trace_writes_every_simulated_event() {
    // 20 runs x 992 events: the trace holds every one of them.
    let dir = std::env::temp_dir().join("anacin_cli_trace_all_events");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.json");
    let (code, _, stderr) = anacin(&[
        "run",
        "--pattern",
        "amg2013",
        "--procs",
        "16",
        "--runs",
        "20",
        "--trace",
        path.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(sim_lines(&path), 20 * 992, "{stderr}");
    let line = format!("trace written to {} (", path.display());
    assert!(stderr.contains(&line), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_trace_writes_every_simulated_event() {
    let dir = std::env::temp_dir().join(format!("anacin_cli_sweep_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (trace, metrics) = (dir.join("t.json"), dir.join("m.json"));
    let (code, _, stderr) = anacin(&[
        "sweep",
        "--kind",
        "procs",
        "--pattern",
        "amg2013",
        "--procs",
        "64",
        "--runs",
        "4",
        "--trace",
        trace.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    let events = sweep_sim_events(&metrics);
    assert_eq!(events, 342_272, "{stderr}");
    assert_eq!(sim_lines(&trace), events, "{stderr}");
    assert!(stderr.contains("trace written to "), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stream_composes_with_the_store_and_the_explorer() {
    let dir = std::env::temp_dir().join(format!("anacin_cli_stream_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = dir.join("s");
    let store = store.to_str().unwrap();
    let campaign = ["run", "--pattern", "amg2013", "--procs", "8", "--json"];
    let json_of = |extra: &[&str]| {
        let args: Vec<&str> = campaign.iter().chain(extra).copied().collect();
        let (code, stdout, stderr) = anacin(&args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        (stdout, stderr)
    };
    let (plain4, _) = json_of(&["--runs", "4"]);
    let (cold, cold_err) = json_of(&["--runs", "4", "--stream", "--store", store]);
    assert_eq!(cold, plain4);
    // 4 traces, 4 graphs, 4 feature vectors and the matrix (published
    // with its distance sample).
    assert!(
        cold_err.contains("0 hit(s), 13 miss(es), 14 publish(es)"),
        "{cold_err}"
    );
    let (warm, warm_err) = json_of(&["--runs", "4", "--stream", "--store", store]);
    assert_eq!(warm, plain4);
    assert!(
        warm_err.contains(&format!(
            "store {store}: 13 hit(s), 0 miss(es), 0 publish(es)"
        )),
        "{warm_err}"
    );
    let (plain5, _) = json_of(&["--runs", "5"]);
    let (appended, _) = json_of(&["--runs", "5", "--stream", "--append-to", store]);
    assert_eq!(appended, plain5);
    let explore = ["--pattern", "message-race", "--procs", "5", "--runs", "20"];
    let (explored, _) = json_of(&[&explore[..], &["--explore"]].concat());
    let (streamed, _) = json_of(&[&explore[..], &["--explore", "--stream"]].concat());
    assert_eq!(streamed, explored);
    assert!(explored.contains("\"coverage\""), "{explored}");
    std::fs::remove_dir_all(&dir).ok();
}
