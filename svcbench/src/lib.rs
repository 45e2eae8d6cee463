//! The service benchmark's library half: workload construction and the
//! measurement pieces `main.rs` wires together (see README.md).

pub mod large;
pub mod ledger;
pub mod poll;
pub mod procfs;
pub mod stats;
pub mod wire;
pub mod workload;
