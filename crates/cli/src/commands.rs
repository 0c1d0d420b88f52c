//! Subcommand implementations.

use crate::args::{Args, Command};
use anacin_core::prelude::*;
use anacin_course::figures::{by_id, ALL_IDS};
use anacin_course::prelude::*;
use anacin_event_graph::{export, EventGraph};
use anacin_kernels::prelude::*;
use anacin_miniapps::{MiniAppConfig, Pattern};
use anacin_mpisim::prelude::*;
use anacin_obs::view::ChromeView;
use anacin_obs::{MetricsRegistry, Tracer};
use anacin_store::ArtifactStore;
use anacin_viz::{ascii, svg};
use serde::Serialize;
use std::io::Write as _;

/// The command table: one entry per command, or per action of a command
/// whose actions read different options. [`Args::parse`], [`dispatch`]
/// and `anacin help` all read it.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    Command { name: "run", run: cmd_run, about: "run a measurement campaign (alias: campaign)",
        args: "campaign observers --dot --append-to --store --progress --explore bounds --json" },
    Command { name: "explore stats", run: cmd_explore_stats, about: "schedule-space statistics",
        args: "program bounds --metrics --json" },
    Command { name: "graph", run: cmd_graph, args: "program one-run --format --out",
        about: "render one run's event graph" },
    Command { name: "distance", run: cmd_distance, args: "program --nd --seed-a --seed-b",
        about: "kernel distance between two runs" },
    Command { name: "sweep", run: cmd_sweep, args: "campaign --kind observers --store",
        about: "a campaign at every point of a parameter sweep" },
    Command { name: "serve", run: cmd_serve, about: "campaign service daemon; SIGINT/SIGTERM drain",
        args: "--socket --listen --store --workers --queue-capacity --job-timeout \
               --progress-interval --metrics" },
    Command { name: "client", run: cmd_client, about: "submit a job to a daemon, print its result",
        args: "campaign --dot --job --kind --explore bounds --socket --connect --retries --peer \
               --stats" },
    Command { name: "store stats", run: cmd_store_stats, args: "--store",
        about: "size and count per artifact kind" },
    Command { name: "store verify", run: cmd_store_verify, args: "--store",
        about: "checksum every artifact" },
    Command { name: "store gc", run: cmd_store_gc, args: "--store --budget",
        about: "evict the oldest artifacts" },
    Command { name: "bench baseline", run: cmd_bench_baseline, args: "--procs --runs --seed --out",
        about: "per-stage timings of every pattern (BENCH_baseline.json)" },
    Command { name: "bench large", run: cmd_bench_large,
        args: "--procs --runs --iterations --seed --out",
        about: "the 1024-rank tier (BENCH_large.json)" },
    Command { name: "bench compare", run: cmd_bench_compare, args: "PARENT_DIR CHANGE_DIR --json",
        about: "the perf gate over reports of two builds" },
    Command { name: "root-cause", run: cmd_root_cause, args: "campaign --slices --top",
        about: "callstack ranking for a campaign" },
    Command { name: "replay", run: cmd_replay, args: "program --seed --record",
        about: "record/replay demonstration (ReMPI-style)" },
    Command { name: "figure", run: cmd_figure, args: "[ID] --paper-scale --out-dir",
        about: "regenerate a paper artifact: tables, 1..8 or all (default)" },
    Command { name: "embed", run: cmd_embed, args: "campaign --out",
        about: "2-D MDS embedding of a run sample in kernel space" },
    Command { name: "diff", run: cmd_diff, args: "program --nd --seed-a --seed-b",
        about: "which receives matched differently in two runs" },
    Command { name: "heatmap", run: cmd_heatmap, args: "campaign --out",
        about: "pairwise kernel-distance heatmap over a run sample" },
    Command { name: "reduction", run: cmd_reduction, args: "--procs --nd --runs --seed --range",
        about: "numerical reproducibility of arrival-order reductions" },
    Command { name: "ablation", run: cmd_ablation, args: "campaign",
        about: "compare kernels' ability to measure ND on one sample" },
    Command { name: "report", run: cmd_report, args: "campaign --out",
        about: "one-file HTML report of a campaign" },
    Command { name: "explain", run: cmd_explain, args: "program one-run --from --to",
        about: "shortest happens-before chain between two events" },
    Command { name: "exercise", run: cmd_exercise, args: "[ID] --solve",
        about: "list exercises, or grade one's reference solution" },
    Command { name: "inspect", run: cmd_inspect, args: "program one-run",
        about: "structural profile of one run: traffic, wildcard exposure" },
    Command { name: "timeline", run: cmd_timeline, args: "program one-run --out",
        about: "per-rank Gantt view of one run" },
    Command { name: "trace", run: cmd_trace, args: "program one-run --out",
        about: "export one run's trace as JSON" },
    Command { name: "trace view", run: cmd_trace_view, args: "FILE",
        about: "summarise a Chrome JSON or .folded trace file" },
    Command { name: "record", run: cmd_record, args: "program one-run --out",
        about: "save a run's matching decisions for replay --record" },
    Command { name: "course", run: cmd_course,
        args: "--lesson --level --paper-scale --answers --agenda --related-work",
        about: "print the course module, or run a lesson" },
    Command { name: "testkit gen", run: cmd_testkit_gen, args: "--seed --procs --rounds --out",
        about: "print a random generated program" },
    Command { name: "testkit check", run: cmd_testkit_check, args: "--seed --count",
        about: "the oracle battery on generated programs" },
    Command { name: "help", run: cmd_help, args: "", about: "print this help (or --help)" },
];

/// Options that several commands read together, named in [`COMMANDS`].
pub(crate) const GROUPS: &[(&str, &str)] = &[
    ("program", "--pattern --procs --iterations"),
    ("one-run", "--nd --seed"),
    ("campaign", "program --nd --runs --nodes --seed --bytes"),
    ("observers", "--metrics --trace"),
    ("bounds", "--schedule-budget --brute-force"),
];

/// Every option: `--name`, then `VALUE` if it takes one, then its help.
pub(crate) const OPTIONS: &str = "\
--agenda                print the half-day tutorial agenda
--answers               print each question's answer
--append-to DIR         grow DIR's stored campaign: compute only the new rows
--brute-force           explore without partial-order reduction
--budget BYTES          evict down to BYTES (default 256 MiB)
--bytes B               message size in bytes (default 1)
--connect ADDR          reach the daemon at TCP host:port
--count N               check N seeds from --seed on (default 1)
--dot KIND              scalar|blocked: an append's dot product (scalar)
--explore               enumerate every schedule: true worst case, coverage
--format FORMAT         ascii|dot|graphml|json|svg (default ascii)
--from EVENT            the chain's first event, RANK.INDEX (default 0.0)
--iterations N          iterations of the program (default 1)
--job KIND              campaign|sweep|explore|append (default campaign)
--job-timeout MS        cancel jobs running longer than MS
--json                  print the JSON payload
--kind AXIS             nd|procs|iterations: the swept parameter (nd)
--lesson N              run use case 1..4 and check its claims
--level L               a|b|c: only that level's questions
--listen ADDR           listen on TCP host:port instead of a Unix socket
--metrics FILE          write a metrics report (JSON); stage table on stderr
--nd P                  percentage of non-determinism, 0..100
--nodes N               nodes the processes are spread over (default 1)
--out FILE              write the output to FILE
--out-dir DIR           write each figure's SVG into DIR
--paper-scale           the paper's scale: 16 and 32 processes, 20 runs a setting
--pattern NAME          race, amg2013, mesh, collectives or stencil2d
--peer NAME             this client's name in server logs
--procs N               number of MPI processes
--progress              live status on stderr: runs, events, stage, ETA
--progress-interval MS  time between a job's progress frames (default 250)
--queue-capacity N      admission queue bound (default 64)
--range R               summed magnitudes span 10^-R..10^R (default 6)
--record FILE           replay this match record (from 'anacin record')
--related-work          print the comparison with related tools
--retries N             resubmissions while the server is busy (default 3)
--rounds N              rounds of the generated program
--runs N                runs in the sample
--schedule-budget N     explored-schedule cap (default 4096)
--seed S                seed of the run, or of a campaign's first run
--seed-a S              seed of the first run (default 1)
--seed-b S              seed of the second run (default 2)
--slices K              logical-time windows (default 16)
--socket PATH           the daemon's Unix socket (default anacin.sock)
--solve                 grade the reference solution
--stats FILE            write the job's store hit/miss/publish counts
--store DIR             artifact store: reuse what it holds, publish the rest
--to EVENT              the chain's last event, RANK.INDEX (default 0.1)
--top FRAC              fraction of windows ranked high-ND (default 0.25)
--trace FILE            trace every event: Chrome JSON, or .folded stacks
--workers N             worker threads (default: cores, at most 4)
";

/// Run a parsed command line's handler.
pub fn dispatch(args: &Args) -> Result<(), String> {
    (args.command.run)(args)
}

/// `anacin help`: the help text, generated from the command table.
fn cmd_help(_: &Args) -> Result<(), String> {
    println!(
        "anacin — analysis of non-determinism in message-passing applications\n\n\
         USAGE: anacin <command> [arguments] [options]\n\
         A command accepts only the arguments and options listed under it.\n\nCOMMANDS"
    );
    for c in COMMANDS {
        println!("  {:<16}{}", c.name, c.about);
        let mut lines: Vec<String> = Vec::new();
        for word in c.synopsis() {
            match lines.last_mut() {
                Some(line) if line.len() + word.len() < 80 => *line += &format!(" {word}"),
                _ => lines.push(format!("{:18}{word}", "")),
            }
        }
        lines.iter().for_each(|line| println!("{line}"));
    }
    println!("\nOPTIONS");
    OPTIONS.lines().for_each(|line| println!("  {line}"));
    Ok(())
}

fn pattern_of(args: &Args) -> Result<Pattern, String> {
    args.get_or("pattern", "message-race")
        .parse::<Pattern>()
        .map_err(|e| e.to_string())
}

/// The program of a single-run command: `--pattern`, `--procs` (default
/// `procs`) and `--iterations` (default 1), built once.
fn program_of(args: &Args, procs: u32) -> Result<(Pattern, MiniAppConfig, Program), String> {
    let pattern = pattern_of(args)?;
    let mut app = MiniAppConfig::with_procs(args.get_parsed("procs", procs)?);
    app.iterations = args.get_parsed("iterations", 1u32)?;
    let program = pattern.build(&app);
    Ok((pattern, app, program))
}

/// One run of `program` at `--nd` (default 0) and `--seed` (default 1).
fn single_trace(args: &Args, program: &Program) -> Result<Trace, String> {
    let sim =
        SimConfig::with_nd_percent(args.get_parsed("nd", 0.0)?, args.get_parsed("seed", 1u64)?);
    simulate(program, &sim).map_err(|e| e.to_string())
}

fn campaign_of(args: &Args) -> Result<CampaignConfig, String> {
    let pattern = pattern_of(args)?;
    let procs: u32 = args.get_parsed("procs", 8)?;
    let mut cfg = CampaignConfig::new(pattern, procs)
        .nd_percent(args.get_parsed("nd", 100.0)?)
        .runs(args.get_parsed("runs", 20)?)
        .iterations(args.get_parsed("iterations", 1u32)?)
        .nodes(args.get_parsed("nodes", 1u32)?)
        .base_seed(args.get_parsed("seed", 1u64)?);
    cfg.app.message_bytes = args.get_parsed("bytes", 1u64)?;
    Ok(cfg)
}

/// When `--metrics FILE` was given: a fresh registry plus its target path.
fn metrics_of(args: &Args) -> Option<(String, MetricsRegistry)> {
    args.get("metrics")
        .map(|p| (p.to_string(), MetricsRegistry::new()))
}

/// When `--trace FILE` was given: a tracer streaming into FILE, plus its
/// path. `.folded` paths get flamegraph folded stacks, everything else
/// Chrome Trace Event JSON (Perfetto-loadable).
fn tracer_of(args: &Args) -> Result<Option<(String, Tracer)>, String> {
    let Some(path) = args.get("trace") else {
        return Ok(None);
    };
    let tracer = if path.ends_with(".folded") {
        anacin_obs::FoldedSink::create(path).map(Tracer::new)
    } else {
        anacin_obs::ChromeJsonSink::create(path).map(Tracer::new)
    }
    .map_err(|e| format!("cannot create {path}: {e}"))?;
    Ok(Some((path.to_string(), tracer)))
}

/// Close a `--trace` file: wait until every record is written, finish
/// the document and report how many records it holds.
fn finish_trace(path: &str, tracer: &Tracer) -> Result<(), String> {
    let written = tracer
        .finish()
        .map_err(|e| format!("writing trace {path} failed: {e}"))?;
    eprintln!("trace written to {path} ({written} record(s))");
    Ok(())
}

/// Write the registry's report as pretty JSON and print the per-stage
/// summary table to stderr (stderr so `--json` stdout stays parseable).
fn write_metrics(path: &str, reg: &MetricsRegistry) -> Result<(), String> {
    let report = reg.report();
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| e.to_string())?;
    eprint!("{}", report.render_table());
    eprintln!("metrics report written to {path}");
    Ok(())
}

/// The explore bounds a command line asked for.
fn explore_config_of(args: &Args) -> Result<ExploreConfig, String> {
    let mut xcfg = ExploreConfig::with_budget(args.get_parsed("schedule-budget", 4096usize)?);
    if args.flag("brute-force") {
        xcfg = xcfg.brute_force();
    }
    Ok(xcfg)
}

/// Unpack a cancellable command's outcome: completed results pass
/// through, a genuine failure becomes the command error, and a SIGINT
/// cancellation becomes `Ok(None)` so the caller can flush whatever
/// sinks are open before exiting non-zero.
fn until_cancelled<T>(r: Result<T, CampaignError>) -> Result<Option<T>, String> {
    match r {
        Ok(v) => Ok(Some(v)),
        Err(CampaignError::Cancelled { completed_runs }) => {
            eprintln!("interrupted: stopping after {completed_runs} completed run(s)");
            Ok(None)
        }
        Err(e) => Err(e.to_string()),
    }
}

/// The error a cancelled command exits with (non-zero, code 2).
fn interrupted_err() -> String {
    "interrupted by signal; partial output flushed".to_string()
}

/// What `--metrics` and `--trace` ask a command to record.
struct Observers {
    metrics: Option<(String, MetricsRegistry)>,
    tracer: Option<(String, Tracer)>,
    /// The registry the command records into: the `--metrics` one, or an
    /// internal one when tracing (wall-clock spans) or the progress line
    /// needs it.
    reg: Option<MetricsRegistry>,
}

impl Observers {
    /// `progress`: whether the command draws the live `--progress` line.
    fn of(args: &Args, progress: bool) -> Result<Self, String> {
        let metrics = metrics_of(args);
        let tracer = tracer_of(args)?;
        let reg = match (&metrics, &tracer) {
            (Some((_, reg)), _) => Some(reg.clone()),
            (None, Some(_)) => Some(MetricsRegistry::new()),
            (None, None) if progress => Some(MetricsRegistry::new()),
            (None, None) => None,
        };
        if let (Some(reg), Some((_, t))) = (&reg, &tracer) {
            reg.attach_tracer(t);
        }
        Ok(Observers {
            metrics,
            tracer,
            reg,
        })
    }

    /// The `--store`/`--append-to` store, mirroring its activity into the
    /// command's registry.
    fn store(&self, dir: Option<&str>) -> Result<Option<(String, ArtifactStore)>, String> {
        let Some(dir) = dir else { return Ok(None) };
        let store = ArtifactStore::open(dir).map_err(|e| e.to_string())?;
        if let Some(reg) = &self.reg {
            store.attach_metrics(reg);
        }
        Ok(Some((dir.to_string(), store)))
    }

    fn ctx<'a>(
        &'a self,
        cancel: &'a anacin_obs::CancelToken,
        store: Option<&'a ArtifactStore>,
    ) -> RunCtx<'a> {
        RunCtx {
            metrics: self.reg.as_ref(),
            tracer: self.tracer.as_ref().map(|(_, t)| t),
            cancel: Some(cancel),
            store,
        }
    }
}

/// Print how a command's store treated it (stderr, so `--json` stdout
/// stays parseable).
fn report_store(store: &Option<(String, ArtifactStore)>) {
    if let Some((dir, store)) = store {
        let a = store.activity();
        eprintln!(
            "store {dir}: {} hit(s), {} miss(es), {} publish(es)",
            a.hits, a.misses, a.puts
        );
    }
}

/// `anacin run`. Every campaign frees each run's trace and graph inside
/// its worker, so memory stays one in-flight run per worker at any rank
/// count.
fn cmd_run(args: &Args) -> Result<(), String> {
    args.only_with("dot", args.get("append-to").is_some(), "--append-to")?;
    args.only_with(
        "schedule-budget brute-force",
        args.flag("explore"),
        "--explore",
    )?;
    let mut cfg = campaign_of(args)?;
    if let Some(dot) = args.get("dot") {
        cfg = cfg.dot(dot.parse()?);
    }
    let progress = args.flag("progress");
    let obs = Observers::of(args, progress)?;
    // `--append-to DIR` is `--store DIR` plus the append schedule: the
    // largest stored Gram prefix of this run set is grown row-by-row
    // (R+1 dots per added run) instead of recomputed from scratch.
    let append = args.get("append-to").is_some();
    if append && args.get("store").is_some() {
        return Err("--append-to already names the store; drop --store or --append-to".into());
    }
    let store = obs.store(args.get("store").or_else(|| args.get("append-to")))?;
    let reporter = obs.reg.as_ref().filter(|_| progress).map(|reg| {
        let interval = std::time::Duration::from_millis(250);
        anacin_obs::ProgressReporter::start(reg, cfg.runs as u64, interval)
    });
    let token = anacin_obs::install_signal_handlers();
    let ctx = obs.ctx(&token, store.as_ref().map(|(_, s)| s));
    let result = if append {
        run_campaign_append(&cfg, &ctx)
    } else {
        run_campaign_with(&cfg, &ctx)
    };
    if let Some(r) = reporter {
        r.finish();
    }
    let result = until_cancelled(result)?;
    // `--explore`: enumerate the schedule space of the same setting and
    // relate the sample to it (worst case, coverage, containment). Replays
    // stay off the tracer, whose run ids belong to the sampled campaign.
    let explored = match (&result, args.flag("explore")) {
        (Some(result), true) => {
            let xcfg = explore_config_of(args)?;
            let ctx = RunCtx {
                tracer: None,
                ..ctx
            };
            let xr =
                explore_campaign(&cfg, &result.program, &xcfg, &ctx).map_err(|e| e.to_string())?;
            let coverage = xr.coverage_of(result);
            Some((xcfg, xr, coverage))
        }
        _ => None,
    };
    // Flush every open sink (store activity line, metrics file, trace
    // file) before any exit, so an interrupted campaign still leaves its
    // partial observability artifacts behind.
    report_store(&store);
    if let Some((path, reg)) = &obs.metrics {
        write_metrics(path, reg)?;
    }
    if let Some((path, t)) = &obs.tracer {
        finish_trace(path, t)?;
    }
    let result = result.ok_or_else(interrupted_err)?;
    let m = NdMeasurement::from_campaign(campaign_label(&cfg), &result);
    if args.flag("json") {
        // Both arms go through `anacin_core::report` so the daemon can
        // reproduce this payload byte-for-byte (the serve crate's
        // acceptance oracle).
        let json = match &explored {
            Some((xcfg, xr, _)) => explore_json(&cfg, &result, xcfg, xr),
            None => measurement_json(&cfg, &result.matrix),
        }
        .map_err(|e| e.to_string())?;
        println!("{json}");
        return Ok(());
    }
    println!(
        "pattern={} procs={} nd={}% runs={} iterations={}",
        cfg.pattern, cfg.app.procs, cfg.nd_percent, cfg.runs, cfg.app.iterations
    );
    println!(
        "kernel distance over {} run pairs: mean={:.4} median={:.4} std={:.4}",
        m.distances.len(),
        m.summary.mean,
        m.summary.median,
        m.summary.std_dev
    );
    if let Some(v) = m.violin() {
        print!("{}", ascii::violins(&[v], 48));
    }
    if let Some((xcfg, xr, cov)) = &explored {
        let st = &xr.report.stats;
        println!(
            "explored {} distinct schedule(s) ({}) — branches={} pruned={} deadlocks={}",
            st.schedules,
            if xr.report.is_complete() {
                "complete enumeration".to_string()
            } else {
                format!("truncated at budget {}", xcfg.max_schedules)
            },
            st.branches,
            st.pruned + st.dropped,
            st.deadlocks
        );
        println!(
            "schedule coverage: sample hit {}/{} schedule(s) over {} run(s) ({:.0}%)",
            cov.overlap,
            cov.explored,
            cov.sampled_runs,
            cov.fraction * 100.0
        );
        println!(
            "worst case: sampled max={:.4}, explored max={:.4}{}{}",
            cov.sampled_max,
            cov.explored_max,
            if cov.complete {
                " (true worst case)"
            } else {
                " (lower bound)"
            },
            // Containment is only an oracle when the walk was complete;
            // under a budget, samples landing outside the set is expected.
            if cov.covered {
                ""
            } else if cov.complete {
                " — CONTAINMENT VIOLATED: a sampled schedule escaped the enumeration"
            } else {
                " — sample reached schedules beyond the truncated enumeration"
            }
        );
    }
    Ok(())
}

/// `explore stats --json` payload: setting, bounds, and walk statistics.
#[derive(Serialize)]
struct ExploreStatsReport {
    pattern: String,
    procs: u32,
    iterations: u32,
    config: ExploreConfig,
    complete: bool,
    stats: ExploreStats,
    schedule_ids: Vec<String>,
}

fn cmd_explore_stats(args: &Args) -> Result<(), String> {
    let (pattern, app, program) = program_of(args, 4)?;
    let xcfg = explore_config_of(args)?;
    let metrics = metrics_of(args);
    let report = explore_observed(&program, &xcfg, metrics.as_ref().map(|(_, r)| r))
        .map_err(|e| e.to_string())?;
    if let Some((path, reg)) = &metrics {
        write_metrics(path, reg)?;
    }
    if args.flag("json") {
        let rep = ExploreStatsReport {
            pattern: pattern.to_string(),
            procs: app.procs,
            iterations: app.iterations,
            config: xcfg,
            complete: report.is_complete(),
            stats: report.stats,
            schedule_ids: report.ids().iter().map(|id| id.to_string()).collect(),
        };
        println!(
            "{}",
            anacin_core::report::to_json(&rep).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    let st = &report.stats;
    println!(
        "pattern={} procs={} iterations={} prune={}",
        pattern, app.procs, app.iterations, xcfg.prune
    );
    println!(
        "schedule space: {} distinct schedule(s) ({})",
        st.schedules,
        if report.is_complete() {
            "complete enumeration"
        } else {
            "truncated — counts are lower bounds"
        }
    );
    println!(
        "branches={} pruned={} dropped={} terminals={} deadlocks={}",
        st.branches, st.pruned, st.dropped, st.terminals, st.deadlocks
    );
    Ok(())
}

fn single_graph(args: &Args) -> Result<EventGraph, String> {
    let (_, _, program) = program_of(args, 4)?;
    Ok(EventGraph::from_trace(&single_trace(args, &program)?))
}

fn write_out(args: &Args, content: &str) -> Result<(), String> {
    match args.get("out") {
        Some(path) => {
            let mut f = std::fs::File::create(path).map_err(|e| e.to_string())?;
            f.write_all(content.as_bytes()).map_err(|e| e.to_string())?;
            println!("wrote {path}");
            Ok(())
        }
        None => {
            println!("{content}");
            Ok(())
        }
    }
}

fn cmd_graph(args: &Args) -> Result<(), String> {
    let g = single_graph(args)?;
    let rendered = match args.get_or("format", "ascii").as_str() {
        "ascii" => ascii::event_graph_lanes(&g),
        "dot" => export::to_dot(&g),
        "graphml" => export::to_graphml(&g),
        "json" => export::to_json(&g).map_err(|e| e.to_string())?,
        "svg" => svg::event_graph_svg(&g, "event graph"),
        other => return Err(format!("unknown format '{other}'")),
    };
    write_out(args, &rendered)
}

fn cmd_distance(args: &Args) -> Result<(), String> {
    let (_, _, program) = program_of(args, 4)?;
    let nd = args.get_parsed("nd", 100.0)?;
    let seed_a = args.get_parsed("seed-a", 1u64)?;
    let seed_b = args.get_parsed("seed-b", 2u64)?;
    let ta =
        simulate(&program, &SimConfig::with_nd_percent(nd, seed_a)).map_err(|e| e.to_string())?;
    let tb =
        simulate(&program, &SimConfig::with_nd_percent(nd, seed_b)).map_err(|e| e.to_string())?;
    let ga = EventGraph::from_trace(&ta);
    let gb = EventGraph::from_trace(&tb);
    let k = WlKernel::default();
    let d = distance(&k, &ga, &gb);
    println!(
        "kernel={} distance(seed {seed_a}, seed {seed_b}) = {d:.4}",
        k.name()
    );
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let base = campaign_of(args)?;
    let axis: SweepAxis = args.get_or("kind", "nd").parse()?;
    let obs = Observers::of(args, false)?;
    let store = obs.store(args.get("store"))?;
    let token = anacin_obs::install_signal_handlers();
    let ctx = obs.ctx(&token, store.as_ref().map(|(_, s)| s));
    let points = axis.default_points(&base);
    let sweep = until_cancelled(sweep(axis, &base, &points, &ctx))?;
    // A cancelled stored sweep has already published every finished run,
    // so the next invocation resumes warm. Flush the sinks either way:
    // the partial per-run timeline is exactly what a user hunting a hang
    // wants.
    report_store(&store);
    if let (Some((path, _)), Some(sm)) = (
        &obs.metrics,
        sweep.as_ref().and_then(|s| s.metrics.as_ref()),
    ) {
        let json = serde_json::to_string_pretty(sm).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        eprint!("{}", sm.aggregate.render_table());
        eprintln!(
            "metrics report written to {path} ({} sweep points)",
            sm.points.len()
        );
    }
    if let Some((path, t)) = &obs.tracer {
        finish_trace(path, t)?;
    }
    let sweep = sweep.ok_or_else(interrupted_err)?;
    print!("{}", sweep_text(&sweep));
    Ok(())
}

/// `anacin serve`: run the campaign service daemon until SIGINT/SIGTERM,
/// then drain — admitted jobs finish and deliver their results, new
/// submissions are refused — and print the serve counters.
fn cmd_serve(args: &Args) -> Result<(), String> {
    use anacin_serve::{Server, ServerConfig};
    let store_dir = args.get_or("store", "anacin-serve-store");
    let mut cfg = ServerConfig::new(&store_dir)
        .queue_capacity(args.get_parsed("queue-capacity", 64usize)?)
        .progress_interval(std::time::Duration::from_millis(
            args.get_parsed("progress-interval", 250u64)?,
        ));
    cfg.workers = args.get_parsed("workers", cfg.workers)?;
    if args.get("job-timeout").is_some() {
        let ms = args.get_parsed("job-timeout", 0u64)?;
        cfg = cfg.job_timeout(std::time::Duration::from_millis(ms));
    }
    let handle = match args.get("listen") {
        Some(addr) => {
            let server = Server::bind_tcp(addr, cfg).map_err(|e| e.to_string())?;
            let bound = server
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|| addr.to_string());
            eprintln!("anacin serve: listening on tcp {bound} (store {store_dir})");
            server.spawn()
        }
        None => {
            let socket = args.get_or("socket", "anacin.sock");
            let server = Server::bind_unix(&socket, cfg).map_err(|e| e.to_string())?;
            eprintln!("anacin serve: listening on {socket} (store {store_dir})");
            server.spawn()
        }
    };
    let _token = anacin_obs::install_signal_handlers();
    while !anacin_obs::shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("anacin serve: draining — finishing admitted jobs, refusing new ones");
    let report = handle.join();
    eprint!("{}", report.render_table());
    if let Some(path) = args.get("metrics") {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        eprintln!("serve metrics written to {path}");
    }
    Ok(())
}

/// `--stats FILE` payload for `anacin client`: how the shared store
/// treated this job (CI asserts cross-client warm hits from it).
#[derive(Serialize)]
struct ClientStats {
    elapsed_ms: u64,
    store_hits: u64,
    store_misses: u64,
    store_puts: u64,
}

/// `anacin client`: submit one job to a running daemon, stream its
/// progress to stderr, and print the result payload to stdout —
/// byte-identical to running the equivalent command locally.
fn cmd_client(args: &Args) -> Result<(), String> {
    use anacin_serve::client::Outcome;
    use anacin_serve::{Client, Frame, JobSpec};
    let kind = args.get_or("job", "campaign");
    let explore = kind == "explore" || args.flag("explore");
    args.only_with("dot", kind == "append", "--job append")?;
    args.only_with(
        "schedule-budget brute-force",
        explore,
        "--explore or --job explore",
    )?;
    args.only_with("kind", kind == "sweep", "--job sweep")?;
    args.only_with("explore", kind == "campaign", "--job campaign")?;
    let mut config = campaign_of(args)?;
    if let Some(dot) = args.get("dot") {
        config = config.dot(dot.parse()?);
    }
    let job = match kind.as_str() {
        "campaign" if args.flag("explore") => JobSpec::Explore {
            config,
            budget: args.get_parsed("schedule-budget", 4096usize)?,
            brute_force: args.flag("brute-force"),
        },
        "campaign" => JobSpec::Campaign { config },
        "sweep" => JobSpec::Sweep {
            kind: args.get_or("kind", "nd"),
            config,
        },
        "explore" => JobSpec::Explore {
            config,
            budget: args.get_parsed("schedule-budget", 4096usize)?,
            brute_force: args.flag("brute-force"),
        },
        "append" => JobSpec::Append { config },
        other => return Err(format!("unknown job kind '{other}'")),
    };
    let retries: u32 = args.get_parsed("retries", 3u32)?;
    let peer = args.get_or("peer", "anacin-client");
    let mut client = match args.get("connect") {
        Some(addr) => Client::connect_tcp(addr, &peer).map_err(|e| e.to_string())?,
        None => {
            let socket = args.get_or("socket", "anacin.sock");
            Client::connect_unix(&socket, &peer).map_err(|e| e.to_string())?
        }
    };
    let outcome = client
        .run_with_retry(1, job, retries, |frame| {
            if let Frame::Progress {
                done_runs,
                total_runs,
                events,
                event_rate,
                hottest,
                eta_ms,
                ..
            } = frame
            {
                let eta = match eta_ms {
                    Some(ms) => format!(", eta {ms} ms"),
                    None => String::new(),
                };
                eprintln!(
                    "progress: {done_runs}/{total_runs} run(s), {events} event(s) \
                     ({event_rate:.0}/s), hottest {hottest}{eta}"
                );
            }
        })
        .map_err(|e| e.to_string())?;
    match outcome {
        Outcome::Done(r) => {
            eprintln!(
                "job done in {} ms: store {} hit(s), {} miss(es), {} publish(es)",
                r.elapsed_ms, r.store_hits, r.store_misses, r.store_puts
            );
            if let Some(path) = args.get("stats") {
                let stats = ClientStats {
                    elapsed_ms: r.elapsed_ms,
                    store_hits: r.store_hits,
                    store_misses: r.store_misses,
                    store_puts: r.store_puts,
                };
                let json = serde_json::to_string_pretty(&stats).map_err(|e| e.to_string())?;
                std::fs::write(path, json).map_err(|e| e.to_string())?;
            }
            print!("{}", r.payload);
            Ok(())
        }
        Outcome::Rejected { retry_after_ms } => Err(format!(
            "server refused the job {} time(s) (queue full or draining); retry in {retry_after_ms} ms",
            retries + 1
        )),
        Outcome::Failed { message } => Err(format!("job failed: {message}")),
    }
}

/// The `--store DIR` of a store maintenance action, opened.
fn store_of(args: &Args) -> Result<(&str, ArtifactStore), String> {
    let dir = args.get("store").ok_or("store requires --store DIR")?;
    Ok((dir, ArtifactStore::open(dir).map_err(|e| e.to_string())?))
}

fn cmd_store_stats(args: &Args) -> Result<(), String> {
    let (dir, store) = store_of(args)?;
    let s = store.stats().map_err(|e| e.to_string())?;
    println!("store {dir}: {} artifact(s), {} byte(s)", s.files, s.bytes);
    if !s.by_kind.is_empty() {
        println!("{:>10} {:>8} {:>14}", "kind", "files", "bytes");
        for (kind, files, bytes) in &s.by_kind {
            println!("{:>10} {:>8} {:>14}", kind.ext(), files, bytes);
        }
    }
    Ok(())
}

fn cmd_store_verify(args: &Args) -> Result<(), String> {
    let (dir, store) = store_of(args)?;
    let r = store.verify().map_err(|e| e.to_string())?;
    println!(
        "store {dir}: {} ok, {} stale-schema, {} corrupt",
        r.ok,
        r.stale_schema,
        r.corrupt.len()
    );
    for (path, reason) in &r.corrupt {
        println!("  CORRUPT {}: {reason}", path.display());
    }
    if r.corrupt.is_empty() {
        Ok(())
    } else {
        Err(format!("{} corrupt artifact(s) found", r.corrupt.len()))
    }
}

fn cmd_store_gc(args: &Args) -> Result<(), String> {
    let (dir, store) = store_of(args)?;
    let budget: u64 = args.get_parsed("budget", 256u64 << 20)?;
    let r = store.gc(budget).map_err(|e| e.to_string())?;
    println!(
        "store {dir}: evicted {} file(s) / {} byte(s); kept {} file(s) / {} byte(s)",
        r.evicted_files, r.evicted_bytes, r.kept_files, r.kept_bytes,
    );
    Ok(())
}

fn cmd_bench_baseline(args: &Args) -> Result<(), String> {
    let cfg = anacin_bench::BaselineConfig {
        procs: args.get_parsed("procs", 32u32)?,
        runs: args.get_parsed("runs", 10u32)?,
        base_seed: args.get_parsed("seed", 1u64)?,
        ..Default::default()
    };
    let mut report = anacin_bench::run_baseline(&cfg);
    // Service-path row: the same campaign submitted twice over a
    // scratch daemon's socket — cold, then warm.
    let pattern = Pattern::Amg2013;
    match anacin_serve::bench::measure_serve_latency(pattern, cfg.procs, cfg.runs) {
        Ok(l) => {
            report.serve = Some(anacin_bench::ServeRow {
                pattern: pattern.to_string(),
                serve_cold_ms: l.cold_ms,
                serve_warm_ms: l.warm_ms,
                serve_speedup: if l.warm_ms > 0.0 {
                    l.cold_ms / l.warm_ms
                } else {
                    0.0
                },
            });
        }
        Err(e) => eprintln!("serve latency row skipped: {e}"),
    }
    print!("{}", report.render_table());
    let path = args.get_or("out", "BENCH_baseline.json");
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| e.to_string())?;
    println!("wrote {path}");
    Ok(())
}

fn cmd_bench_large(args: &Args) -> Result<(), String> {
    let cfg = anacin_bench::LargeScaleConfig {
        procs: args.get_parsed("procs", 1024u32)?,
        runs: args.get_parsed("runs", 3u32)?,
        iterations: args.get_parsed("iterations", 1u32)?,
        base_seed: args.get_parsed("seed", 1u64)?,
    };
    let report = anacin_bench::run_large_baseline(&cfg);
    print!("{}", report.render_table());
    let path = args.get_or("out", "BENCH_large.json");
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| e.to_string())?;
    println!("wrote {path}");
    Ok(())
}

fn cmd_bench_compare(args: &Args) -> Result<(), String> {
    let [parent, change] = args.positional.as_slice() else {
        return Err("bench compare requires two directories: PARENT_DIR CHANGE_DIR".into());
    };
    let cmp = anacin_bench::compare_dirs(parent, change)?;
    if args.flag("json") {
        let json = serde_json::to_string_pretty(&cmp).map_err(|e| e.to_string())?;
        println!("{json}");
    } else {
        print!("{}", cmp.render_table());
    }
    match cmp.flagged().as_slice() {
        [] => Ok(()),
        flagged => Err(format!("regression flagged: {}", flagged.join(", "))),
    }
}

fn cmd_root_cause(args: &Args) -> Result<(), String> {
    let cfg = campaign_of(args)?;
    let rc = RootCauseConfig {
        slices: args.get_parsed("slices", 16usize)?,
        top_fraction: args.get_parsed("top", 0.25f64)?,
        ..Default::default()
    };
    if rc.slices < 1 {
        return Err("--slices must be at least 1".into());
    }
    if cfg.runs < 2 {
        return Err("root-cause compares runs: --runs must be at least 2".into());
    }
    let (_, ranking) = analyze(&cfg, &rc, &RunCtx::default()).map_err(|e| e.to_string())?;
    print!("{}", ranking_table(&ranking, 10));
    println!(
        "high-ND windows: {:?} (of {} windows)",
        ranking.high_slices, rc.slices
    );
    Ok(())
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    let (_, _, program) = program_of(args, 6)?;
    let seed = args.get_parsed("seed", 1u64)?;
    // The reference run: with `--record`, the loaded record replayed at
    // `--seed` (the seed it was recorded at is unknown); otherwise a free
    // run at `--seed` and the record read off it.
    let (recorded, record) = match args.get("record") {
        Some(path) => {
            let data = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let rec: MatchRecord = serde_json::from_str(&data).map_err(|e| e.to_string())?;
            println!(
                "loaded match record from {path} ({} decisions)",
                rec.total()
            );
            let posts: Vec<usize> = (0..program.world_size())
                .map(|r| {
                    program
                        .ops(Rank(r))
                        .iter()
                        .filter(|op| op.is_receive())
                        .count()
                })
                .collect();
            let shape = rec.shape();
            if shape != posts {
                return Err(format!(
                    "match record {path} does not fit the program: the record has {} rank(s) \
                     with {shape:?} decision(s), the program {} rank(s) posting {posts:?} \
                     receive(s)",
                    shape.len(),
                    posts.len()
                ));
            }
            let replayed =
                simulate_replay(&program, &SimConfig::with_nd_percent(100.0, seed), &rec)
                    .map_err(|e| e.to_string())?;
            println!("reference run: the record replayed at seed {seed}");
            (replayed, rec)
        }
        None => {
            let recorded = simulate(&program, &SimConfig::with_nd_percent(100.0, seed))
                .map_err(|e| e.to_string())?;
            let rec = MatchRecord::from_trace(&recorded);
            println!(
                "recorded run (seed {seed}): {} receive decisions captured",
                rec.total()
            );
            (recorded, rec)
        }
    };
    let k = WlKernel::default();
    let g_rec = EventGraph::from_trace(&recorded);
    let mut max_free = 0.0f64;
    let mut max_replay = 0.0f64;
    for other_seed in (seed + 1)..(seed + 6) {
        let free = simulate(&program, &SimConfig::with_nd_percent(100.0, other_seed))
            .map_err(|e| e.to_string())?;
        let replayed = simulate_replay(
            &program,
            &SimConfig::with_nd_percent(100.0, other_seed),
            &record,
        )
        .map_err(|e| e.to_string())?;
        let d_free = distance(&k, &g_rec, &EventGraph::from_trace(&free));
        let d_rep = distance(&k, &g_rec, &EventGraph::from_trace(&replayed));
        println!(
            "seed {other_seed}: free-run distance = {d_free:.4}, replayed distance = {d_rep:.4}"
        );
        max_free = max_free.max(d_free);
        max_replay = max_replay.max(d_rep);
    }
    println!(
        "replay pins matching: max replayed distance {max_replay:.4} (free runs reached \
         {max_free:.4})"
    );
    Ok(())
}

/// `Scale::paper()` under `--paper-scale`, else `Scale::quick()`.
fn scale_of(args: &Args) -> Scale {
    if args.flag("paper-scale") {
        Scale::paper()
    } else {
        Scale::quick()
    }
}

fn cmd_figure(args: &Args) -> Result<(), String> {
    let scale = scale_of(args);
    let id = args.positional.first().map(String::as_str).unwrap_or("all");
    let ids: Vec<&str> = if id == "all" {
        ALL_IDS.to_vec()
    } else {
        vec![id]
    };
    let mut failed = Vec::new();
    for id in ids {
        let fig = by_id(id, &scale).ok_or_else(|| format!("unknown figure id '{id}'"))?;
        print!("{}", fig.render(None));
        if let (Some(dir), Some(svg)) = (args.get("out-dir"), fig.svg.as_deref()) {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            let path = format!("{dir}/{}.svg", fig.id);
            std::fs::write(&path, svg).map_err(|e| e.to_string())?;
            println!("wrote {path}");
        }
        println!();
        if !fig.passed() {
            failed.push(fig.id);
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("shape checks failed: {}", failed.join(", ")))
    }
}

/// `anacin course`: one of its modes, each refusing the options of the
/// others: the tables and questions (`--level`, `--answers`), a lesson
/// (`--lesson`, `--paper-scale`), the agenda, or the related work.
fn cmd_course(args: &Args) -> Result<(), String> {
    let number = args.get("lesson");
    let (agenda, related_work) = (args.flag("agenda"), args.flag("related-work"));
    args.only_with("paper-scale", number.is_some(), "--lesson")?;
    args.only_with(
        "level answers agenda related-work",
        number.is_none(),
        "no --lesson",
    )?;
    args.only_with("related-work", !agenda, "no --agenda")?;
    args.only_with(
        "level answers",
        !agenda && !related_work,
        "no --agenda or --related-work",
    )?;
    if let Some(number) = number {
        let report = number
            .parse()
            .ok()
            .and_then(|n| lesson(n, &scale_of(args)))
            .ok_or_else(|| format!("unknown lesson '{number}' (expected 1, 2, 3 or 4)"))?;
        print!("{}", report.render());
        return if report.passed() {
            Ok(())
        } else {
            Err("lesson checks failed".to_string())
        };
    }
    if related_work {
        println!("{}", anacin_course::related_work::comparison());
        return Ok(());
    }
    if agenda {
        println!("{}", anacin_course::tutorial::agenda());
        return Ok(());
    }
    // No lesson: print the course structure.
    let levels: Vec<Level> = match args.get("level") {
        Some("a") | Some("A") => vec![Level::Beginner],
        Some("b") | Some("B") => vec![Level::Intermediate],
        Some("c") | Some("C") => vec![Level::Advanced],
        None => Level::ALL.to_vec(),
        Some(other) => return Err(format!("unknown level '{other}'")),
    };
    println!("{}", table_i());
    println!("{}", table_ii());
    for level in levels {
        println!("Questions — {level}:");
        for q in questions_of(level) {
            println!("  ({}) {}", q.goal, q.prompt);
            if args.flag("answers") {
                println!("      → {}", q.answer);
            }
        }
    }
    Ok(())
}

fn cmd_embed(args: &Args) -> Result<(), String> {
    let cfg = campaign_of(args)?;
    let result = run_campaign(&cfg).map_err(|e| e.to_string())?;
    let embedding = mds(&result.matrix);
    println!(
        "embedded {} runs; axis variances: {:.4} / {:.4}",
        embedding.points.len(),
        embedding.eigenvalues.0,
        embedding.eigenvalues.1
    );
    for (i, (x, y)) in embedding.points.iter().enumerate() {
        println!(
            "run {i:>3} (seed {}): ({x:>9.4}, {y:>9.4})",
            cfg.base_seed + i as u64
        );
    }
    if let Some(path) = args.get("out") {
        let svg = anacin_viz::heatmap::scatter_svg(
            &embedding.points,
            &format!("{} runs in kernel space", cfg.pattern),
        );
        std::fs::write(path, svg).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_diff(args: &Args) -> Result<(), String> {
    let (_, _, program) = program_of(args, 4)?;
    let nd = args.get_parsed("nd", 100.0)?;
    let seed_a = args.get_parsed("seed-a", 1u64)?;
    let seed_b = args.get_parsed("seed-b", 2u64)?;
    let ga = EventGraph::from_trace(
        &simulate(&program, &SimConfig::with_nd_percent(nd, seed_a)).map_err(|e| e.to_string())?,
    );
    let gb = EventGraph::from_trace(
        &simulate(&program, &SimConfig::with_nd_percent(nd, seed_b)).map_err(|e| e.to_string())?,
    );
    let d = anacin_event_graph::diff::diff(&ga, &gb).map_err(|e| e.to_string())?;
    print!("{d}");
    if d.identical() {
        println!("runs {seed_a} and {seed_b} matched every message identically");
    }
    Ok(())
}

fn cmd_heatmap(args: &Args) -> Result<(), String> {
    let cfg = campaign_of(args)?;
    let result = run_campaign(&cfg).map_err(|e| e.to_string())?;
    let n = result.matrix.len();
    print!(
        "{}",
        anacin_viz::heatmap::heatmap_ascii(n, |i, j| result.matrix.distance(i, j))
    );
    if let Some(path) = args.get("out") {
        let svg = anacin_viz::heatmap::heatmap_svg(
            n,
            |i, j| result.matrix.distance(i, j),
            &format!("pairwise kernel distances: {}", cfg.pattern),
        );
        std::fs::write(path, svg).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_reduction(args: &Args) -> Result<(), String> {
    use anacin_numerics::prelude::*;
    let exp = ReductionExperiment {
        procs: args.get_parsed("procs", 16)?,
        nd_percent: args.get_parsed("nd", 100.0)?,
        runs: args.get_parsed("runs", 20)?,
        seed: args.get_parsed("seed", 0xF10A7u64)?,
        magnitude_range: args.get_parsed("range", 6.0f64)?,
    };
    let report = anacin_numerics::run(&exp);
    println!(
        "{} contributors, {} runs, {} distinct arrival orders\n",
        exp.procs - 1,
        exp.runs,
        report.distinct_orders
    );
    println!("{:>14} {:>10} {:>14}", "algorithm", "distinct", "spread");
    for o in &report.outcomes {
        println!("{:>14} {:>10} {:>14.6e}", o.algorithm, o.distinct, o.spread);
    }
    println!(
        "\nan arrival-order (sequential) reduction is irreproducible; canonicalising the\n\
         order (sorted) restores bitwise reproducibility — the Enzo lesson (paper §I)."
    );
    Ok(())
}

fn cmd_exercise(args: &Args) -> Result<(), String> {
    use anacin_course::exercises as ex;
    match args.positional.first().map(String::as_str) {
        None => {
            println!("exercises:");
            for e in &ex::EXERCISES {
                println!("  [{}] {} — {}", e.level.code(), e.id, e.prompt);
            }
            println!("\nrun `anacin exercise <id> --solve` to grade the reference solution");
            Ok(())
        }
        Some(id) => {
            let e = ex::by_id(id).ok_or_else(|| format!("unknown exercise '{id}'"))?;
            println!("[{}] {}\n{}\n", e.level.code(), e.id, e.prompt);
            if !args.flag("solve") {
                return Ok(());
            }
            let (result, label) = match id {
                "write-a-race" => (
                    ex::check_write_a_race(&ex::solve_write_a_race()),
                    "reference",
                ),
                "make-it-deterministic" => (
                    ex::check_make_it_deterministic(&ex::solve_make_it_deterministic()),
                    "reference",
                ),
                "fix-the-deadlock" => {
                    println!(
                        "broken starting point: {}",
                        ex::check_fix_the_deadlock(&ex::broken_fix_the_deadlock())
                            .expect_err("the broken version must fail")
                    );
                    (
                        ex::check_fix_the_deadlock(&ex::solve_fix_the_deadlock()),
                        "reference",
                    )
                }
                "bound-the-race" => (
                    ex::check_bound_the_race(&ex::solve_bound_the_race()),
                    "reference",
                ),
                _ => unreachable!("catalogue covered"),
            };
            match result {
                Ok(()) => {
                    println!("[PASS] {label} solution satisfies the checker");
                    Ok(())
                }
                Err(e) => Err(format!("{label} solution failed: {e}")),
            }
        }
    }
}

fn cmd_inspect(args: &Args) -> Result<(), String> {
    // Static checks first: surface the diagnostics a student would want.
    let (_, _, program) = program_of(args, 4)?;
    match program.check_balance() {
        Ok(()) => println!("static balance check: ok"),
        Err(e) => println!("static balance check: {e}"),
    }
    match program.check_requests() {
        Ok(()) => println!("static request check: ok"),
        Err(e) => println!("static request check: {e}"),
    }
    let g = EventGraph::from_trace(&single_trace(args, &program)?);
    let stats = anacin_event_graph::stats::GraphStats::of(&g);
    print!("{}", stats.render());
    if let Some((src, dst, m)) = stats.hottest_channel() {
        println!("hottest channel: {src} -> {dst} ({m} message(s))");
    }
    println!(
        "race exposure: {:.0}% of receives use wildcards{}",
        stats.wildcard_fraction() * 100.0,
        if stats.wildcard_fraction() > 0.0 {
            " — these are the potential root sources of non-determinism"
        } else {
            " — this program's matching is fully specified"
        }
    );
    Ok(())
}

fn cmd_timeline(args: &Args) -> Result<(), String> {
    let (pattern, _, program) = program_of(args, 4)?;
    let trace = single_trace(args, &program)?;
    let tl = anacin_mpisim::timeline::Timeline::of(&trace);
    print!("{}", anacin_viz::gantt::gantt_ascii(&tl, 64));
    print!("{}", anacin_viz::gantt::time_breakdown(&tl));
    if let Some(path) = args.get("out") {
        let svg = anacin_viz::gantt::gantt_svg(&tl, &format!("{} timeline", pattern));
        std::fs::write(path, svg).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_trace_view(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("trace view requires a FILE argument")?;
    let summary = if path.ends_with(".folded") {
        let data = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        anacin_obs::view::folded_summary(&data)
    } else {
        chrome_view(path)
    };
    print!("{}", summary.map_err(|e| format!("{path}: {e}"))?);
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let (_, _, program) = program_of(args, 4)?;
    let trace = single_trace(args, &program)?;
    let json = serde_json::to_string_pretty(&trace).map_err(|e| e.to_string())?;
    write_out(args, &json)
}

/// Summarise a Chrome trace file by streaming it line by line: anacin
/// exports (and most Chrome traces) hold one event per line, so a
/// multi-gigabyte streamed trace summarises without ever being resident.
/// Falls back to parsing the whole document when no line holds an event
/// (e.g. pretty-printed JSON from another tool).
fn chrome_view(path: &str) -> Result<String, String> {
    use std::io::BufRead as _;
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    let mut view = ChromeView::default();
    let mut parsed = false;
    for line in std::io::BufReader::new(file).lines() {
        let line = line.map_err(|e| e.to_string())?;
        let event = ChromeView::event_line(&line).and_then(|l| serde_json::from_str_value(l).ok());
        if let Some(ev) = event {
            view.add(&ev);
            parsed = true;
        }
    }
    if !parsed {
        let data = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        view.add_document(&serde_json::from_str_value(&data).map_err(|e| e.to_string())?)?;
    }
    view.render()
}

fn cmd_record(args: &Args) -> Result<(), String> {
    let (_, _, program) = program_of(args, 6)?;
    let seed = args.get_parsed("seed", 1u64)?;
    let nd = args.get_parsed("nd", 100.0)?;
    let trace =
        simulate(&program, &SimConfig::with_nd_percent(nd, seed)).map_err(|e| e.to_string())?;
    let record = MatchRecord::from_trace(&trace);
    let path = args
        .get("out")
        .ok_or("record requires --out FILE")?
        .to_string();
    let json = serde_json::to_string(&record).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| e.to_string())?;
    println!(
        "recorded {} matching decisions from seed {seed} into {path}",
        record.total()
    );
    Ok(())
}

fn cmd_ablation(args: &Args) -> Result<(), String> {
    let cfg = campaign_of(args)?;
    let report = ablate(&cfg, &default_kernels(), &RunCtx::default()).map_err(|e| e.to_string())?;
    print!("{}", report.table());
    let top = report.by_signal()[0].kernel.clone();
    println!("\nmost discriminating kernel on this sample: {top}");
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), String> {
    use anacin_viz::html::HtmlReport;
    let cfg = campaign_of(args)?;
    if cfg.runs < 1 {
        return Err("report needs a run to show: --runs must be at least 1".into());
    }
    // Root cause needs two runs to compare; one run is still a report.
    let (result, ranking) = if cfg.runs >= 2 {
        let (result, ranking) = analyze(&cfg, &RootCauseConfig::default(), &RunCtx::default())
            .map_err(|e| e.to_string())?;
        (result, Some(ranking))
    } else {
        (run_campaign(&cfg).map_err(|e| e.to_string())?, None)
    };
    let m = NdMeasurement::from_campaign(format!("{}", cfg.pattern), &result);
    let mut report = HtmlReport::new(
        format!("Non-determinism report: {}", cfg.pattern),
        format!(
            "{} processes, {} iterations, nd = {}%, {} runs (seeds {}..{}), kernel = {}",
            cfg.app.procs,
            cfg.app.iterations,
            cfg.nd_percent,
            cfg.runs,
            cfg.base_seed,
            cfg.base_seed + cfg.runs as u64 - 1,
            result.matrix.kernel_name(),
        ),
    );
    report.text_section(
        "Measurement summary",
        "Pairwise kernel distances between runs; the paper's scalar proxy for the amount \
         of communication non-determinism.",
        format!(
            "pairs: {}\nmean: {:.4}\nmedian: {:.4}\nstd dev: {:.4}\nmin: {:.4}\nmax: {:.4}",
            m.distances.len(),
            m.summary.mean,
            m.summary.median,
            m.summary.std_dev,
            m.summary.min,
            m.summary.max
        ),
    );
    if let Some(v) = m.violin() {
        report.svg_section(
            "Kernel-distance distribution",
            "The violin the paper's Figures 5-7 are built from.",
            svg::violin_svg(&[v], "kernel distances", "kernel distance"),
        );
    }
    let n = result.matrix.len();
    report.svg_section(
        "Pairwise distance heatmap",
        "Which run pairs diverge; a uniform block means isotropic non-determinism, \
         stripes mean outlier runs.",
        anacin_viz::heatmap::heatmap_svg(n, |i, j| result.matrix.distance(i, j), "run pairs"),
    );
    let embedding = mds(&result.matrix);
    report.svg_section(
        "Runs in kernel space (classical MDS)",
        "Each dot is one run; tight clusters are reproducible outcome classes.",
        anacin_viz::heatmap::scatter_svg(&embedding.points, "run embedding"),
    );
    if let Some(ranking) = ranking {
        let items: Vec<(String, f64)> = ranking
            .entries
            .iter()
            .take(8)
            .map(|e| (e.stack.clone(), e.frequency))
            .collect();
        report.svg_section(
            "Root-source call paths",
            "Call paths of receives in the most divergent logical-time windows, weighted \
             by their label disagreement (the paper's Figure 8).",
            svg::bar_chart_svg(&items, "root sources", "normalized relative frequency"),
        );
        report.text_section(
            "Ranked call paths",
            "Most likely root sources of non-determinism first.",
            ranking_table(&ranking, 10),
        );
    }
    // Run 0 is a pure function of its seed: simulate it again for its graph.
    let run0 = simulate(&result.program, &cfg.sim_config(0)).map_err(|e| e.to_string())?;
    report.svg_section(
        "Event graph of run 0",
        "Green = process start/end, blue = send, red = receive; dashed edges are \
         messages.",
        svg::event_graph_svg(&EventGraph::from_trace(&run0), "run 0"),
    );
    let path = args.get("out").unwrap_or("report.html").to_string();
    std::fs::write(&path, report.render()).map_err(|e| e.to_string())?;
    println!("wrote {path} ({} sections)", report.len());
    Ok(())
}

fn parse_event(spec: &str) -> Result<(u32, u32), String> {
    let (r, i) = spec
        .split_once('.')
        .ok_or_else(|| format!("event spec '{spec}' must be RANK.INDEX, e.g. 0.3"))?;
    Ok((
        r.parse().map_err(|_| format!("bad rank in '{spec}'"))?,
        i.parse().map_err(|_| format!("bad index in '{spec}'"))?,
    ))
}

fn cmd_explain(args: &Args) -> Result<(), String> {
    let g = single_graph(args)?;
    let (fr, fi) = parse_event(&args.get_or("from", "0.0"))?;
    let (tr, ti) = parse_event(&args.get_or("to", "0.1"))?;
    if fr >= g.world_size() || tr >= g.world_size() {
        return Err("rank out of range".to_string());
    }
    let a = g.id_at(Rank(fr), fi);
    let b = g.id_at(Rank(tr), ti);
    match anacin_event_graph::explain::explain(&g, a, b) {
        Some(chain) => {
            print!("{}", chain.render(&g));
            println!(
                "({} hops, {} of them messages)",
                chain.hops.len(),
                chain.message_hops()
            );
        }
        None => println!(
            "rank {fr} event #{fi} does NOT happen-before rank {tr} event #{ti}: the two \
             events are concurrent (or ordered the other way)"
        ),
    }
    Ok(())
}

fn cmd_testkit_gen(args: &Args) -> Result<(), String> {
    use anacin_testkit::prelude::*;
    let seed = args.get_parsed("seed", 0u64)?;
    let mut cfg = GenConfig::from_seed(seed);
    cfg.world_size = args.get_parsed("procs", cfg.world_size)?;
    cfg.rounds = args.get_parsed("rounds", cfg.rounds)?;
    let gp = generate(&cfg);
    let mut listing = format!(
        "# generated program (seed {seed}): {} ranks, {} rounds {:?}, \
         {} sends / {} receives, chaotic ranks {:?}\n",
        gp.program.world_size(),
        gp.round_kinds.len(),
        gp.round_kinds,
        gp.program.total_sends(),
        gp.program.total_receives(),
        gp.chaotic_ranks,
    );
    for r in 0..gp.program.world_size() {
        listing.push_str(&format!("rank {r}:\n"));
        for op in gp.program.ops(Rank(r)) {
            listing.push_str(&format!("  {op:?}\n"));
        }
    }
    write_out(args, &listing)
}

fn cmd_testkit_check(args: &Args) -> Result<(), String> {
    let seed = args.get_parsed("seed", 0u64)?;
    let count = args.get_parsed("count", 1u64)?;
    for s in seed..seed + count {
        let summary =
            anacin_testkit::prelude::check_seed(s).map_err(|e| format!("seed {s}: {e}"))?;
        println!(
            "seed {s}: ok — {} events, {} messages ({} wildcard recvs), \
                     {} replayed receives aligned, {} kernel pairs checked",
            summary.validation.events,
            summary.validation.messages,
            summary.validation.wildcard_recvs,
            summary.replayed_receives,
            summary.kernel_pairs,
        );
    }
    println!("all oracles hold for {count} generated program(s)");
    Ok(())
}
