//! # majc-bench
//!
//! The reproduction harness: one function per paper table/figure
//! ([`experiments`]) and the text/JSON reporting layer ([`report`]).
//! `cargo run -p majc-bench --release -- all` regenerates everything.

pub mod diff;
pub mod experiments;
pub mod farm;
pub mod report;

pub use experiments::{
    ablations, all, fig1, fig2, graphics, obs, peak_rates, serve, table1, table2, table3, xlate,
};
pub use farm::{shard_seed, Farm, ShardResult};
pub use report::{Row, Table};
