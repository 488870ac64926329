//! Writes the machine-readable performance snapshot CI archives, and
//! gates it against a committed baseline.
//!
//! ```text
//! perf_snapshot [--profile] [PATH]                  # default: BENCH_cluster.json
//! perf_snapshot [--profile] --gate BASELINE [PATH]  # default: BENCH_cluster.current.json
//! ```
//!
//! The document is validated against the `hades.bench.cluster.v1`
//! schema before anything touches the filesystem; a schema drift exits
//! nonzero with nothing written, so CI never archives a malformed
//! snapshot. With `--gate`, the fresh snapshot is additionally compared
//! to the committed baseline: the deterministic columns (`events`,
//! `heartbeats_sent`, `peak_queue_depth`, `ctx_switches`) of every
//! scenario must equal the baseline and `events_per_sec` and
//! `ns_per_event` must sit within ±25% of it, or the process exits
//! nonzero listing each drifted metric. A run *faster* than the band
//! also fails — that is a stale baseline; re-run `perf_snapshot
//! BENCH_cluster.json` on a quiet machine and commit the result.
//!
//! With `--profile`, the deterministic profiler rides every scaling
//! scenario and two extra files land next to the snapshot per scenario:
//! `BENCH_profile.<name>.jsonl` (the schema-checked `hades.profile.v1`
//! document — per-kind counts and gap distributions, per-actor shares,
//! the queue/event-mix timeline, the traffic matrix, and the volatile
//! wall-ns share records) and `BENCH_profile.<name>.folded` (folded
//! stacks for any `flamegraph.pl`-compatible renderer). Profiling is
//! pure observation, so the snapshot numbers are unchanged by the flag.

const GATE_TOLERANCE_PCT: f64 = 25.0;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let profile = args.first().map(String::as_str) == Some("--profile");
    if profile {
        args.remove(0);
    }
    let (baseline_path, out_path) = match args.first().map(String::as_str) {
        Some("--gate") => {
            let Some(baseline) = args.get(1) else {
                eprintln!("perf_snapshot: --gate requires a baseline path");
                std::process::exit(2);
            };
            let out = args
                .get(2)
                .cloned()
                .unwrap_or_else(|| "BENCH_cluster.current.json".to_string());
            (Some(baseline.clone()), out)
        }
        Some(path) => (None, path.to_string()),
        None => (None, "BENCH_cluster.json".to_string()),
    };

    let (doc, artifacts) = bench::perf::build_snapshot_profiled(profile);
    if let Err(e) = bench::perf::validate_snapshot(&doc) {
        eprintln!("perf_snapshot: generated document fails its own schema: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("perf_snapshot: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path} ({} bytes)", doc.len());

    // Profile docs land next to the snapshot, named per scenario.
    let dir = std::path::Path::new(&out_path)
        .parent()
        .map(std::path::Path::to_path_buf)
        .unwrap_or_default();
    for art in &artifacts {
        for (ext, body) in [("jsonl", &art.jsonl), ("folded", &art.folded)] {
            let path = dir.join(format!("BENCH_profile.{}.{ext}", art.name));
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("perf_snapshot: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            println!("wrote {} ({} bytes)", path.display(), body.len());
        }
    }

    if let Some(baseline_path) = baseline_path {
        let baseline = match std::fs::read_to_string(&baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("perf_snapshot: cannot read baseline {baseline_path}: {e}");
                std::process::exit(1);
            }
        };
        match bench::perf::compare_snapshots(&doc, &baseline, GATE_TOLERANCE_PCT) {
            Ok(()) => {
                println!(
                    "gate: all scenarios match {baseline_path} \
                     (counts exactly, wall clock within ±{GATE_TOLERANCE_PCT:.0}%)"
                )
            }
            Err(e) => {
                eprintln!("perf_snapshot: regression gate failed against {baseline_path}:\n{e}");
                std::process::exit(1);
            }
        }
    }
}
