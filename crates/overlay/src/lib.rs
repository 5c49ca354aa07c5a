//! The aggregation overlay graph and its construction algorithms (paper §3).
//!
//! * [`Overlay`] — the pre-compiled structure of writers, readers, and
//!   partial aggregation nodes with signed (positive/negative) edges
//!   (§2.2.1).
//! * [`shingle`] — min-hash reader ordering used to group similar readers.
//! * [`fptree`] — FP-tree biclique mining with negative-edge (`S'`) and
//!   mined-edge (`S_mined`) extensions (§3.2.1, §3.2.3, §3.2.4).
//! * [`vnm`] — the VNM / VNM_A / VNM_N / VNM_D construction family.
//! * [`iob`] — Incremental Overlay Building via greedy exact set cover
//!   (§3.2.5), also the engine behind dynamic maintenance.
//! * [`dynamic`] — incremental overlay updates on data-graph changes (§3.3).
//! * [`extend`](mod@extend) — live overlay extension + per-node refcounts
//!   for multi-query attach/detach (§3 sharing at runtime).
//! * [`metrics`] — sharing index, depth CDFs, construction cost accounting.
//! * [`pushview`] — the weighted push-edge affinity view consumed by the
//!   edge-cut shard partitioner.
//! * [`validate`](mod@validate) — net-contribution validation of the
//!   §2.2.1 invariant.

#![forbid(unsafe_code)]

pub mod dynamic;
pub mod extend;
pub mod fptree;
pub mod iob;
pub mod metrics;
pub mod overlay;
pub mod pushview;
pub mod shingle;
pub mod validate;
pub mod vnm;

pub use dynamic::{DynamicConfig, DynamicOverlay, RepairIndex};
pub use extend::{extend_with_readers, used_subtree, ExtendOutcome, RefCounts};
pub use iob::{build_iob, IobConfig, IobState};
pub use metrics::IterationStats;
pub use overlay::{Overlay, OverlayId, OverlayKind, SignedEdge, CHUNK_NODES};
pub use pushview::PushEdgeView;
pub use validate::{validate, validate_against, validate_vs_bipartite, ValidationError};
pub use vnm::{build_vnm, VnmConfig, VnmVariant};
