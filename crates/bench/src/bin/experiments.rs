//! Experiment driver: regenerates every figure/table-shaped result of the
//! paper (`--list` prints the index, `bench::run_experiment` holds it).
//!
//! Usage:
//! ```text
//! experiments            # run everything
//! experiments <name>...  # run selected experiments
//! experiments --list     # list experiment names
//! ```

use bench::{run_experiment, ALL_EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for name in ALL_EXPERIMENTS {
            println!("{name}");
        }
        return;
    }
    let selected: Vec<&str> = if args.is_empty() {
        ALL_EXPERIMENTS.to_vec()
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
