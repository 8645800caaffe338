//! The end-to-end benchmark over the repository's served paths, as a
//! library shared by the `perfbench` runner and the `steady` tool.
//!
//! Each workload module drives the workspace crates through their public
//! functions only and measures them from outside; see `README.md` in
//! this package for the workloads, the metric tables and how the layers'
//! metrics move the end-to-end ones.

pub mod aneurysm;
pub mod common;
pub mod farm;
pub mod gen;
pub mod report;
pub mod stats;
pub mod steered;
pub mod trace;
