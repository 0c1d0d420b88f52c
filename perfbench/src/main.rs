//! `anacin-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Run from the repository root. Prints the run's context and every
//! metric with its sample count, then, as the last line, one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when an output check fails, 2 on bad arguments.

use anacin_perfbench::{default_work_dir, run, Options, Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let root = PathBuf::from(".");
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        size: Size::Full,
        trace: trace.ok_or("--trace is required")?,
        work_dir: default_work_dir(&root),
        root,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: anacin-perfbench --workload wide-stream|many-runs|serve-mix --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let out = match run(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    println!("context: {}", out.context_json());
    for m in out.end_to_end.iter().chain(&out.per_layer) {
        println!("{:<28} {:>16.4} {:<6} n={}", m.name, m.value, m.unit, m.n);
    }
    println!("{}", out.result_json(opts.trace));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
