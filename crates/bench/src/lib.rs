//! # delayguard-bench
//!
//! Experiment implementations ([`experiments`]) behind the `experiments`
//! harness binary, which regenerates every table and figure of the paper
//! and gates the shapes EXPERIMENTS.md claims, plus the gated bench bins
//! (`throughput`, `streaming`, `cluster`, `sidechannel`, `writes`). All
//! six back a committed `BENCH_<name>.json`, written by
//! [`report::Report`] in the one schema its module docs describe.
//!
//! Run the full harness with:
//!
//! ```text
//! cargo run -p delayguard-bench --release --bin experiments
//! cargo run -p delayguard-bench --release --bin experiments -- table3
//! cargo run -p delayguard-bench --release --bin experiments -- --smoke
//! ```

#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
pub mod throughput;
