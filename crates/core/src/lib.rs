//! Streaming Tensor Programs (STeP).
//!
//! STeP is a streaming abstraction for dynamic tensor applications on
//! spatial dataflow accelerators (SDAs), reproduced from the ASPLOS '26
//! paper *"Streaming Tensor Programs: A Streaming Abstraction for Dynamic
//! Parallelism"*. This crate defines the abstraction itself:
//!
//! - [`token`] — the SAM-style token streams (`Val`/`Stop(k)`/`Done`) that
//!   embed logical tensor structure into a data stream (§3.1),
//! - [`shape`] — stream shapes with static-regular, dynamic-regular, and
//!   ragged dimensions backed by symbolic expressions,
//! - [`tile`] — the two-dimensional (possibly dynamically-shaped) tiles
//!   that flow through streams, with dense and phantom payloads,
//! - [`elem`] — the stream data types: tiles, selectors, buffer
//!   references, addresses, and tuples (§3.1 "Data Type"),
//! - [`func`] — the hardware-function algebra passed to higher-order
//!   operators (matmul, elementwise ops, retiling; §3.2.4),
//! - [`ops`] — configuration types for every STeP operator (Tables 3–7),
//! - [`graph`] — the program graph builder with build-time shape
//!   verification mirroring the symbolic frontend (§4.1),
//! - [`metrics`] — the symbolic off-chip-traffic and on-chip-memory
//!   equations of §4.2,
//! - [`partition`] — slack-guided partitioning of program graphs into
//!   connected shards for the parallel simulator,
//! - [`sync`] — poisoning-recovering lock helpers shared by the
//!   panic-isolating simulator and service layers, and the
//!   single-flight cache their plan and report caches wrap.
//!
//! Execution (functional semantics + cycle-approximate timing) lives in the
//! `step-sim` crate; `step-hdl` provides the fine-grained reference
//! simulator used for validation.
//!
//! # Example: a tiny STeP program
//!
//! ```
//! use step_core::graph::GraphBuilder;
//! use step_core::ops::LinearLoadCfg;
//! use step_core::func::{MapFn, EwOp};
//!
//! let mut g = GraphBuilder::new();
//! // Load a 64x256 tensor as a 1x4 grid of 64x64 tiles, once.
//! let trigger = g.unit_source(1);
//! let tiles = g.linear_offchip_load(
//!     &trigger,
//!     LinearLoadCfg::new(0x1000, (64, 256), (64, 64)),
//! ).unwrap();
//! let act = g.map(&tiles, MapFn::Elementwise(EwOp::Relu), 1024).unwrap();
//! g.linear_offchip_store(&act, 0x9000).unwrap();
//! let graph = g.finish();
//! assert_eq!(graph.nodes().len(), 4);
//! ```

pub mod elem;
pub mod error;
pub mod func;
pub mod graph;
pub mod metrics;
pub mod ops;
pub mod partition;
pub mod shape;
pub mod sync;
pub mod tile;
pub mod token;

pub use elem::{Elem, ElemKind, Selector};
pub use error::{DeadlineKind, Result, StepError};
pub use graph::{Graph, GraphBuilder, NodeId, StreamRef};
pub use shape::{Dim, StreamShape};
pub use tile::Tile;
pub use token::Token;

/// Bytes per tensor element. The paper evaluates BF16 workloads (§4.5).
pub const DTYPE_BYTES: u64 = 2;
