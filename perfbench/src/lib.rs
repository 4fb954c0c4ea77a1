//! The dakc benchmark: three workloads, each checked against the serial
//! oracle, reporting end-to-end metrics (untraced pass) or per-layer
//! metrics (traced pass). See `perfbench/README.md`.

mod alloc;
mod bench;
mod input;
mod ops;
mod probes;
mod report;
mod serve;
mod spans;
mod stats;

pub use bench::{run, Opts, Workload, WORKLOADS};
pub use report::{Metric, Outcome};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
