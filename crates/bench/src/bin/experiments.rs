//! Experiment driver: regenerates every figure/table-shaped result of the
//! paper (`--list` prints the index, `bench::ALL_EXPERIMENTS` holds it).
//!
//! Usage:
//! ```text
//! experiments            # run everything
//! experiments <name>...  # run selected experiments
//! experiments --list     # list experiment names and what each reproduces
//! ```

use bench::{run_experiment, ALL_EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for (name, reproduces, _) in ALL_EXPERIMENTS {
            println!("{name:<17}{reproduces}");
        }
        return;
    }
    let selected: Vec<&str> = if args.is_empty() {
        ALL_EXPERIMENTS.iter().map(|entry| entry.0).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };
    let mut failed = false;
    for name in selected {
        match run_experiment(name) {
            Some(report) => {
                println!("{report}");
                println!();
            }
            None => {
                eprintln!("unknown experiment: {name} (try --list)");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(2);
    }
}
