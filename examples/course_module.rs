//! The full course module, end to end: Tables I–II, the comprehension
//! questions, and every lesson executed with machine-checked
//! observations (Use Cases 1–3 run the paper's figures).
//!
//! This is what an instructor runs before a tutorial to confirm every
//! lesson reproduces on their machine.
//!
//! Run with: `cargo run --release --example course_module`
//! (add `-- --paper-scale` for the paper's 16/32-process, 20-run scale,
//! where Fig. 7's rank-correlation claim fails and the example exits 1)

use anacin_x::prelude::*;

fn main() {
    println!("{}", table_i());
    println!("{}", table_ii());

    for level in Level::ALL {
        println!("Questions — {level}:");
        for q in questions_of(level) {
            println!("  ({}) {}", q.goal, q.prompt);
        }
    }
    println!();

    let paper_scale = std::env::args().any(|a| a == "--paper-scale");
    let scale = if paper_scale {
        Scale::paper()
    } else {
        Scale::quick()
    };
    println!(
        "running lessons at {} scale: {} / {} processes ({} for AMG 2013), {} runs per setting\n",
        if paper_scale { "paper" } else { "quick" },
        scale.procs_small,
        scale.procs_large,
        scale.amg_procs,
        scale.runs
    );

    let mut all_passed = true;
    for number in 1..=4 {
        let report = lesson(number, &scale).expect("lessons 1 to 4 exist");
        print!("{}", report.render());
        all_passed &= report.passed();
    }
    if all_passed {
        println!("all lesson observations reproduced ✔");
    } else {
        println!("some lesson observations FAILED ✘");
        std::process::exit(1);
    }
}
