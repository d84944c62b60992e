//! The PDAT benchmark: workloads that time cold and warm trimming
//! requests end to end, check every output against a computation
//! independent of the prover, and (in a separate traced run) time each
//! layer by wrapping calls into the public functions of the layer crates.
//! See `README.md` beside this crate for the workloads, metrics and the
//! reference figures.

pub mod inputs;
pub mod layers;
pub mod stats;
pub mod target;
pub mod workloads;
