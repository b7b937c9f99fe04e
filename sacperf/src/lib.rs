//! End-to-end and per-layer benchmark of the SAC simulator.
//!
//! `sacperf --workload NAME --seed N --seconds S --trace 0|1` runs one of
//! four workloads (see [`grid`]) through the crates' public APIs at their
//! defaults. An untraced run (`--trace 0`) reports the end-to-end metrics;
//! a traced run (`--trace 1`) records spans around every layer call, runs
//! the standalone layer drives, and reports the per-layer metrics. Both
//! check the outputs and print, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See README.md.

pub mod drives;
pub mod exec;
pub mod grid;
pub mod report;
pub mod run;
pub mod spans;
