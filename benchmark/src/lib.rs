//! # The HADES measurement lab
//!
//! A standalone package that measures the HADES reproduction *from
//! outside*, through public functions only: five named end-to-end
//! [`workloads`], one microbenchmark per storey of the stack
//! ([`layers`]), and a traced repetition per workload ([`trace`]) that
//! splits `run()` into engine loop, handlers and queue self time. The
//! [`catalog`] declares every metric with its unit, direction and
//! regression bound; `BENCHMARK.json` at the repo root is that catalog.
//!
//! Every number is either *host time* (what the simulator costs its
//! user; noisy, reported as the first quartile of many samples) or *simulated
//! time / counts* (what the modelled deployment does; a pure function of
//! `(spec, seed)`, prefix `sim_`, units `ticks`, `sim_us` or `count`).
//! See `README.md` for how to run it and how to read the results.

#![warn(missing_docs)]

pub mod catalog;
pub mod layers;
pub mod measure;
pub mod run;
pub mod trace;
pub mod workloads;
