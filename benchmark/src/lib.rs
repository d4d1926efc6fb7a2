//! The repository's benchmark: four stationary workloads over the record
//! layer stack, end-to-end metrics a user would see, and per-layer
//! metrics that say where the time and the bytes went. See `README.md`
//! beside this package for the run shape and for what each metric is
//! expected to move.

pub mod clock;
pub mod driver;
pub mod items;
pub mod json;
pub mod probes;
pub mod repeat;
pub mod rng;
pub mod spec;
pub mod stats;
pub mod tenants;
pub mod trace;
pub mod workload;
pub mod yardstick;
