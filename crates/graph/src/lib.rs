//! Communication graphs, node placements and benchmark applications for
//! wavelength-routed optical NoCs.
//!
//! A WR-ONoC design problem is fully described by a [`CommGraph`]: a set of
//! nodes with physical positions on the chip floorplan plus the set of
//! directed point-to-point messages the application requires. Ring-router
//! synthesis methods (SRing and the baselines) consume a `CommGraph` and
//! produce a router design.
//!
//! The [`benchmarks`] module provides the seven applications evaluated in the
//! SRing paper (MWD, VOPD, MPEG, D26, 8PM-24/32/44) plus the six-node DSP
//! example of the paper's Fig. 5.
//!
//! # Examples
//!
//! ```
//! use onoc_graph::benchmarks;
//!
//! let mwd = benchmarks::mwd();
//! assert_eq!(mwd.node_count(), 12);
//! assert_eq!(mwd.message_count(), 13);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmarks;
pub mod comm;
pub mod content;
pub mod delta;
pub mod node;
pub mod placement;
pub mod synth;

pub use comm::{BuildGraphError, CommGraph, CommGraphBuilder, Message, MessageId, StableMessageId};
pub use delta::{CommDelta, DeltaError, ParseDeltaError};
pub use node::{NodeId, Point};
pub use placement::GridPlacement;
