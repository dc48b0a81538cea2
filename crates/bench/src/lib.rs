//! Shared helpers for the Falcon Down benchmark and figure harness.
//!
//! The `bin/` targets of this crate regenerate every figure and headline
//! number of the paper's evaluation (see EXPERIMENTS.md for the index).

#![forbid(unsafe_code)]

pub mod json;
pub mod report;
pub mod setup;
