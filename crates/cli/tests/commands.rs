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
fn unknown_options_are_usage_errors() {
    for (args, option) in [
        (
            &["run", "--gram-approx", "landmarks=8"][..],
            "--gram-approx",
        ),
        (
            &[
                "run",
                "--pattern",
                "message-race",
                "--procs",
                "4",
                "--runs",
                "3",
                "--bogus-option",
                "7",
            ][..],
            "--bogus-option",
        ),
        (&["run", "--threads", "9"][..], "--threads"),
        (&["run", "--trace-capacity", "5"][..], "--trace-capacity"),
    ] {
        assert_usage_error(args, option);
    }
    for args in [&["--help"][..], &["run", "--help"]] {
        let (code, stdout, stderr) = anacin(args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        assert!(stdout.starts_with("anacin — "), "{args:?}: {stdout}");
    }
}

/// A command whose stdout closes early ends as other Unix tools do: the
/// next write kills it with SIGPIPE, and nothing panics.
#[test]
fn closed_stdout_ends_the_command_quietly() {
    use std::io::BufRead;
    use std::os::unix::process::ExitStatusExt;
    // About 1 MB of trace JSON: more than a pipe holds, so the command
    // still writes after the reader has gone.
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_anacin"))
        .args(["trace", "--pattern", "amg2013", "--procs", "32"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn anacin");
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().expect("stdout"))
        .read_line(&mut first)
        .expect("read one line");
    let out = child.wait_with_output().expect("wait for anacin");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(first, "{\n");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert_eq!(out.status.signal(), Some(13), "{stderr}");
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
fn store_append_and_explore_compose() {
    let dir = std::env::temp_dir().join(format!("anacin_cli_compose_{}", std::process::id()));
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
    let (cold, cold_err) = json_of(&["--runs", "4", "--store", store]);
    assert_eq!(cold, plain4);
    // 4 traces, 4 graphs, 4 feature vectors and the matrix (published
    // with its distance sample).
    assert!(
        cold_err.contains("0 hit(s), 13 miss(es), 14 publish(es)"),
        "{cold_err}"
    );
    let (warm, warm_err) = json_of(&["--runs", "4", "--store", store]);
    assert_eq!(warm, plain4);
    assert!(
        warm_err.contains(&format!(
            "store {store}: 13 hit(s), 0 miss(es), 0 publish(es)"
        )),
        "{warm_err}"
    );
    let (plain5, _) = json_of(&["--runs", "5"]);
    let (appended, _) = json_of(&["--runs", "5", "--append-to", store]);
    assert_eq!(appended, plain5);
    let explore = ["--pattern", "message-race", "--procs", "5", "--runs", "20"];
    let (explored, _) = json_of(&[&explore[..], &["--explore"]].concat());
    assert!(explored.contains("\"coverage\""), "{explored}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Each `anacin <command> …` line of the project's documents, CI and
/// course text: `\` continuations joined, cut at the end of the command
/// (a quote, comment or shell operator). The verify skill calls the
/// binary `$B`. Prose ("the anacin CLI") and synopses, which hold `…`,
/// `[`, `<` or a shell variable, are left out.
fn documented_command_lines() -> Vec<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let top = [
        "README.md",
        ".github/workflows/ci.yml",
        ".claude/skills/verify/SKILL.md",
    ];
    let mut files: Vec<std::path::PathBuf> = top.iter().map(|f| root.join(f)).collect();
    for (dir, ext) in [("docs", "md"), ("crates/course/src", "rs")] {
        for entry in std::fs::read_dir(root.join(dir)).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == ext) {
                files.push(path);
            }
        }
    }
    let mut lines = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap().replace("\\\n", " ");
        for line in text.lines() {
            for start in ["anacin ", "anacin-cli -- ", "$B "] {
                for (at, _) in line.match_indices(start) {
                    let before = line[..at].chars().next_back();
                    if before.is_some_and(|c| c.is_alphanumeric() || c == '-' || c == '_') {
                        continue;
                    }
                    let mut command = &line[at + start.len()..];
                    for end in [" 2>", ">", "|", "&", ";", "#", ")", "`", "\"", "'"] {
                        command = command.split(end).next().unwrap();
                    }
                    let named = command.starts_with(|c: char| c.is_ascii_lowercase());
                    if !named || command.contains(['…', '[', '<', '$']) {
                        continue;
                    }
                    lines.push((file.display().to_string(), command.trim().to_string()));
                }
            }
        }
    }
    lines
}

#[test]
fn every_documented_command_line_parses() {
    let lines = documented_command_lines();
    assert!(
        lines.len() > 100,
        "found only {} command lines",
        lines.len()
    );
    let failures: Vec<String> = lines
        .iter()
        .filter_map(|(file, line)| {
            let err = Args::parse(line.split_whitespace().map(String::from)).err()?;
            Some(format!("{file}: anacin {line}: {err}"))
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Every entry of the command table refuses each option that another
/// entry declares and it does not, with exit 2 and an `error:` line.
#[test]
fn every_entry_refuses_the_options_it_does_not_read() {
    use anacin_cli::commands::COMMANDS;
    let mut specs: Vec<&str> = COMMANDS.iter().flat_map(|c| c.synopsis()).collect();
    specs.retain(|s| s.starts_with("--"));
    specs.sort_unstable();
    specs.dedup();
    for command in COMMANDS {
        let own = command.synopsis();
        let foreign: Vec<&str> = specs.iter().copied().filter(|s| !own.contains(s)).collect();
        assert!(!foreign.is_empty(), "{} reads every option", command.name);
        for spec in &foreign {
            let line: Vec<&str> = command.name.split(' ').chain(spec.split(' ')).collect();
            let err = Args::parse(line.iter().map(|s| s.to_string())).unwrap_err();
            let option = spec.split(' ').next().unwrap();
            assert_eq!(err, format!("unknown option {option}; try 'anacin help'"));
        }
        let line: Vec<&str> = command
            .name
            .split(' ')
            .chain(foreign[0].split(' '))
            .collect();
        assert_usage_error(&line, "unknown option --");
    }
    // Each of these exits 0 at the parent commit, except `run --procs`,
    // which named a value of 'true' there.
    for (args, needle) in [
        (&["graph", "--runs", "5"][..], "unknown option --runs"),
        (
            &["store", "stats", "--store", "s", "--pattern", "amg2013"],
            "unknown option --pattern",
        ),
        (&["sweep", "--progress"], "unknown option --progress"),
        (&["embed", "--dot", "blocked"], "unknown option --dot"),
        (&["run", "--json", "5"], "unexpected argument '5'"),
        (&["run", "--procs"], "--procs needs a value"),
        (&["figure", "7", "--runs", "5"], "unknown option --runs"),
    ] {
        assert_usage_error(args, needle);
    }
}

/// `run` refuses an option it reads only in another of its modes: `--dot`
/// reaches only an append, the explore bounds only `--explore`. Each of
/// these lines exited 0 before, its output byte-identical to the same
/// run without the option.
#[test]
fn run_refuses_options_it_reads_only_in_another_mode() {
    let campaign = ["run", "--pattern", "race", "--procs", "4", "--runs", "3"];
    for (extra, needle) in [
        (
            &[
                "--dot",
                "blocked",
                "--schedule-budget",
                "5",
                "--brute-force",
                "--json",
            ][..],
            "--dot is read only with --append-to",
        ),
        (
            &["--schedule-budget", "5"],
            "--schedule-budget is read only with --explore",
        ),
        (
            &["--brute-force"],
            "--brute-force is read only with --explore",
        ),
    ] {
        let line: Vec<&str> = campaign.iter().chain(extra).copied().collect();
        assert_usage_error(&line, needle);
    }
}

/// `course` refuses an option it reads only in another of its modes. Each
/// refused line exited 0 before: the question list's `--level` and
/// `--answers` and the `--agenda` and `--related-work` modes did nothing
/// beside `--lesson`, `--paper-scale` nothing without it, and
/// `--related-work` hid `--agenda`. Each mode alone prints the bytes it
/// printed before the checks (their length and FNV-1a digest).
#[test]
fn course_refuses_options_it_reads_only_in_another_mode() {
    for (args, needle) in [
        (
            &["course", "--lesson", "1", "--level", "z", "--answers"][..],
            "--level is read only with no --lesson",
        ),
        (
            &["course", "--lesson", "1", "--answers"],
            "--answers is read only with no --lesson",
        ),
        (
            &["course", "--lesson", "1", "--agenda"],
            "--agenda is read only with no --lesson",
        ),
        (
            &["course", "--lesson", "1", "--related-work"],
            "--related-work is read only with no --lesson",
        ),
        (
            &["course", "--paper-scale"],
            "--paper-scale is read only with --lesson",
        ),
        (
            &["course", "--paper-scale", "--agenda"],
            "--paper-scale is read only with --lesson",
        ),
        (
            &["course", "--related-work", "--agenda"],
            "--related-work is read only with no --agenda",
        ),
        (
            &["course", "--agenda", "--answers"],
            "--answers is read only with no --agenda or --related-work",
        ),
        (
            &["course", "--related-work", "--level", "a"],
            "--level is read only with no --agenda or --related-work",
        ),
    ] {
        assert_usage_error(args, needle);
    }
    for (args, len, digest) in [
        (&["course"][..], 1784, 0x4289_a50e_0751_39f3),
        (
            &["course", "--level", "a", "--answers"],
            1779,
            0x0409_beb6_979f_c4dd,
        ),
        (&["course", "--agenda"], 1964, 0x8fc8_24b6_c169_b3c2),
        (&["course", "--related-work"], 1205, 0x946b_2c0e_3840_80ea),
        (&["course", "--lesson", "1"], 1392, 0xb786_1601_7e58_41f7),
    ] {
        let (code, stdout, stderr) = anacin(args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        let printed = (
            stdout.len(),
            anacin_event_graph::label::fnv1a(stdout.as_bytes()),
        );
        assert_eq!(printed, (len, digest), "{args:?}: {stdout}");
    }
}

/// `client` refuses the options of the jobs it is not submitting, before
/// it connects: no daemon listens on the socket below, so a line that
/// got past the check would fail to connect instead.
#[test]
fn client_refuses_options_of_other_jobs_before_connecting() {
    let socket = std::env::temp_dir().join("anacin_cli_no_daemon.sock");
    let client = ["client", "--socket", socket.to_str().unwrap()];
    for (extra, needle) in [
        (
            &["--dot", "blocked"][..],
            "--dot is read only with --job append",
        ),
        (
            &["--job", "sweep", "--dot", "blocked"],
            "--dot is read only with --job append",
        ),
        (
            &["--brute-force"],
            "--brute-force is read only with --explore or --job explore",
        ),
        (
            &["--job", "append", "--schedule-budget", "5"],
            "--schedule-budget is read only with --explore or --job explore",
        ),
        (&["--kind", "procs"], "--kind is read only with --job sweep"),
        (
            &["--job", "explore", "--kind", "procs"],
            "--kind is read only with --job sweep",
        ),
        (
            &["--job", "append", "--explore"],
            "--explore is read only with --job campaign",
        ),
        (
            &["--job", "sweep", "--explore"],
            "--explore is read only with --job campaign",
        ),
    ] {
        let line: Vec<&str> = client.iter().chain(extra).copied().collect();
        assert_usage_error(&line, needle);
    }
}

/// The same options in their own modes pass the check: `run` completes,
/// and `client` goes on to connect (and fails to, with no daemon).
#[test]
fn options_in_their_own_mode_are_read() {
    run(&[
        "run",
        "--pattern",
        "race",
        "--procs",
        "3",
        "--runs",
        "2",
        "--explore",
        "--schedule-budget",
        "8",
        "--brute-force",
    ])
    .unwrap();
    let socket = std::env::temp_dir().join("anacin_cli_no_daemon.sock");
    let client = ["client", "--socket", socket.to_str().unwrap()];
    for extra in [
        &["--job", "append", "--dot", "scalar"][..],
        &["--explore", "--schedule-budget", "5", "--brute-force"],
        &["--job", "explore", "--brute-force"],
        &["--job", "sweep", "--kind", "procs"],
    ] {
        let line: Vec<&str> = client.iter().chain(extra).copied().collect();
        let err = run(&line).unwrap_err();
        assert!(!err.contains("is read only with"), "{line:?}: {err}");
    }
}

/// `anacin help` is generated from the table: under each entry's name
/// and summary, it names every argument and option the entry declares.
#[test]
fn help_names_every_declared_option_of_every_entry() {
    use anacin_cli::commands::COMMANDS;
    let (code, help, stderr) = anacin(&["help"]);
    assert_eq!(code, Some(0), "{stderr}");
    let lines: Vec<&str> = help.lines().collect();
    for command in COMMANDS {
        let head = format!("  {:<16}{}", command.name, command.about);
        let at = lines.iter().position(|l| *l == head).expect(&head);
        let listed: Vec<&str> = lines[at + 1..]
            .iter()
            .take_while(|l| l.starts_with(&" ".repeat(18)))
            .map(|l| l.trim())
            .collect();
        let listed = format!(" {} ", listed.join(" "));
        for spec in command.synopsis() {
            assert!(
                listed.contains(&format!(" {spec} ")),
                "{}: {spec}",
                command.name
            );
        }
    }
    for option in ["--bytes B", "--range R", "--progress-interval MS"] {
        assert!(help.contains(&format!("\n  {option}  ")), "{option}");
    }
}
