//! # bench — experiment harness for the OnlineTune reproduction
//!
//! This crate contains the shared machinery that regenerates every table and figure of the
//! paper's evaluation section:
//!
//! * [`harness`] — runs one tuning session (a tuner driving the simulated database over a
//!   workload generator for N intervals) and records per-iteration results;
//! * [`tuners`] — a factory that builds every baseline from the paper by name;
//! * [`report`] — table/series printing and JSON export used by the `fig*` binaries.
//!
//! The actual experiments live in `src/bin/`: one binary per figure/table (Figure 8 and
//! Table A1, the overhead analysis, come from `fig8_overhead`), plus the gate binaries
//! `scenario_path`, `scenario_fuzz`, `fault_injection`, `serve_soak` and
//! `telemetry_overhead`, which exit non-zero when a contract breaks. Timing of the
//! whole program, end to end and per layer, is the job of the stand-alone `perfbench`
//! package at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod report;
pub mod tuners;

pub use harness::{run_session, IterationRecord, SessionOptions, SessionResult};
pub use tuners::{build_tuner, TunerKind};
