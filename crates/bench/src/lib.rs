//! # delayguard-bench
//!
//! Experiment implementations ([`experiments`]) shared by the
//! `experiments` harness binary (regenerates every table and figure of the
//! paper) and the Criterion benches under `benches/`, plus the five gated
//! bench bins (`throughput`, `streaming`, `cluster`, `sidechannel`,
//! `writes`) that back the committed `BENCH_<name>.json` files — all five
//! written by [`report::Report`] in the one schema its module docs
//! describe.
//!
//! Run the full harness with:
//!
//! ```text
//! cargo run -p delayguard-bench --release --bin experiments
//! cargo run -p delayguard-bench --release --bin experiments -- table3
//! cargo run -p delayguard-bench --release --bin experiments -- --quick
//! ```

#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
pub mod throughput;
