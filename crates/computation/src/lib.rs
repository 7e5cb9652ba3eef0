//! Distributed computations as partially ordered sets of events.
//!
//! This crate implements the execution model of Mittal & Garg (ICDCS
//! 2001), which is Lamport's happened-before model: a **computation** is a
//! set of events, totally ordered within each process, partially ordered
//! across processes by message edges. Every structure the detection
//! algorithms in the `gpd` crate consume lives here:
//!
//! * [`Computation`] / [`ComputationBuilder`] — the event poset, with
//!   order queries answered through Fidge–Mattern [`VectorClock`]s.
//! * [`Cut`] — a global state as a frontier vector; consistency checks,
//!   the initial/final cuts, reachability.
//! * [`CutIter`] — breadth-first enumeration of the (generally
//!   exponential) lattice of consistent cuts — the baseline the paper's
//!   algorithms beat.
//! * [`FrontierPacker`] / [`FrontierKey`] — frontiers packed into a few
//!   inline `u64` words whose integer order is `Cut` order, so the
//!   lattice sweeps sort and deduplicate levels without heap cuts.
//! * [`BoolVariable`] / [`IntVariable`] — per-state variable annotations
//!   that predicates evaluate.
//! * [`Grouping`] — the §3.2 *meta-process* machinery: receive-/send-
//!   ordered checks, the order extension, and its linearization.
//! * [`generate`](gen) — seeded random computations and annotations for
//!   experiments; [`trace`] — a text interchange format; [`to_dot`] —
//!   Graphviz export; [`fixtures`] — the paper's running examples.
//!
//! # Example
//!
//! ```
//! use gpd_computation::ComputationBuilder;
//!
//! // Two processes exchanging one message.
//! let mut b = ComputationBuilder::new(2);
//! let e1 = b.append(0);
//! let f1 = b.append(1);
//! b.message(e1, f1).unwrap();
//! let comp = b.build().unwrap();
//!
//! assert!(comp.happened_before(e1, f1));
//! assert_eq!(comp.consistent_cuts().count(), 3); // not 2×2: e1 < f1
//! ```

mod builder;
mod channels;
mod computation;
mod counters;
mod cut;
mod dot;
mod event;
pub mod fixtures;
pub mod gen;
mod groups;
pub mod kernel;
mod lattice;
mod packed;
mod stats;
pub mod trace;
mod variables;
mod vclock;

pub use builder::{BuildError, ComputationBuilder};
pub use channels::ChannelIndex;
pub use computation::Computation;
pub use counters::{kernel_counters, KernelCounters};
pub use cut::Cut;
pub use dot::to_dot;
pub use event::{EventId, EventKind, ProcessId};
pub use groups::{Grouping, LinearizedOrder, NotOrderedError, OrderingKind};
pub use lattice::CutIter;
pub use packed::{fnv1a, FrontierKey, FrontierPacker};
pub use stats::{lattice_profile, stats, Stats};
pub use variables::{BoolVariable, IntVariable};
pub use vclock::{ClockRef, VectorClock};
