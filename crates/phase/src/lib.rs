#![warn(missing_docs)]

//! Phase-analysis library for the `mlpa` sampling-simulation study.
//!
//! Everything between "a program trace" and "a set of weighted
//! simulation points" lives here:
//!
//! * [`project`] — the 15-dimensional random projection of basic-block
//!   vectors (BBVs);
//! * [`interval`] — profiled intervals, one signature vector each, and
//!   the fixed-length (fine-grained) slicer;
//! * [`loops`] — cyclic program structures detected from backward
//!   branches, with coverage statistics (COASTS's boundary collection
//!   step);
//! * [`shard`] — the segment profilers every profiling walk runs: fine,
//!   loop and loop-boundary (coarse-grained) slicing, plus the cheap
//!   trackers that carry a walk across segment boundaries;
//! * [`matrix`] — flat row-major storage the clustering kernels run on;
//! * [`kmeans`] / [`bic`] — the phase classifier (Hamerly-pruned
//!   Lloyd's over contiguous storage) and SimPoint's BIC-based choice
//!   of the number of phases;
//! * [`reference`] — naive clustering kernels and unsegmented profiling
//!   observers, kept as test oracles and bench baselines;
//! * [`pca`] — principal components for visualising phase behaviour
//!   (the paper's Fig. 1);
//! * [`simpoint`] — representative selection (classic SimPoint,
//!   earliest-instance for COASTS, and the EarlySP variant).
//!
//! # Example: fine-grained SimPoint on a workload
//!
//! ```
//! use mlpa_phase::{
//!     interval::FixedLengthProfiler,
//!     project::RandomProjection,
//!     simpoint::{select, SimPointConfig},
//! };
//! use mlpa_sim::FunctionalSim;
//! use mlpa_workloads::{spec::BenchmarkSpec, CompiledBenchmark, WorkloadStream};
//!
//! let cb = CompiledBenchmark::compile(&BenchmarkSpec::default())?;
//! let proj = RandomProjection::new(cb.program().num_blocks(), 15, 42);
//! let mut prof = FixedLengthProfiler::new(&proj, 10_000);
//! FunctionalSim::new(cb.program()).run(WorkloadStream::new(&cb), &mut prof);
//! let points = select(&prof.finish(), &SimPointConfig::fine_10m());
//! assert!(!points.points.is_empty());
//! # Ok::<(), String>(())
//! ```

pub mod bic;
pub mod interval;
pub mod kmeans;
pub mod lfv;
pub mod loops;
pub mod matrix;
pub mod pca;
pub mod project;
pub mod reference;
pub mod sequence;
pub mod shard;
pub mod simpoint;
pub mod wss;

pub use interval::{FixedLengthProfiler, Interval};
pub use loops::{CyclicStructure, LoopProfile};
pub use matrix::Matrix;
pub use project::RandomProjection;
pub use simpoint::{select, Selection, SimPoint, SimPointConfig, SimPoints};
