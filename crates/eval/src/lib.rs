//! Evaluation harness reproducing the SRing paper's experiments.
//!
//! * [`methods`] — a uniform handle over the four synthesis methods
//!   (ORNoC, CTORing, XRing, SRing),
//! * [`comparison`] — runs methods over benchmarks and formats the paper's
//!   Table I and Fig. 7,
//! * [`runtime`] — measures the SRing pipeline per benchmark (Table II),
//! * [`random_baseline`] — the Fig. 8 protocol: 100 000 random solutions
//!   (random clustering, sequential connection, random wavelengths),
//!   feasibility counting and histograms of `#wl` and `il_w`,
//! * [`histogram`] — plain fixed-bin histograms with ASCII rendering,
//! * [`par`] — std-only fork-join helpers; every harness entry point takes
//!   a thread count and returns thread-count-invariant results.
//!
//! # Examples
//!
//! ```
//! use onoc_eval::methods::Method;
//! use onoc_eval::comparison::compare;
//! use onoc_graph::benchmarks;
//! use onoc_units::TechnologyParameters;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tech = TechnologyParameters::default();
//! let cmp = compare(&benchmarks::mwd(), &tech, &Method::standard())?;
//! assert_eq!(cmp.rows.len(), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comparison;
pub mod histogram;
pub mod methods;
pub mod par;
pub mod random_baseline;
pub mod runtime;

pub use comparison::{
    compare, compare_ctx, compare_grid, compare_grid_ctx, format_fig7, format_table1, to_csv,
    Comparison,
};
pub use histogram::Histogram;
pub use methods::{EvalError, Method};
pub use random_baseline::{
    sample_random_solutions, sample_random_solutions_ctx, RandomSolutionConfig, RandomSolutionStats,
};
pub use runtime::{measure_runtimes, measure_runtimes_parallel, RuntimeRow};
