//! Shortest-path-length (`SLen`) index for UA-GPNM.
//!
//! GPNM needs the shortest path length between arbitrary node pairs of the
//! data graph to check the bounded path lengths of pattern edges (paper
//! §III). This crate provides:
//!
//! * [`DistanceMatrix`] — the dense `SLen` matrix of §IV, built by
//!   per-source BFS over a [`gpnm_graph::CsrGraph`] snapshot.
//! * [`HybridMatrix`] — the Bell & Garland "Hybrid" (ELL+COO) compressed
//!   representation the paper's §IV-B remark proposes for sparse `SLen`
//!   storage, used by the space-cost experiment.
//! * [`incremental`] — repair of the matrix under single edge/node updates,
//!   emitting an [`AffDelta`]: the changed pairs `AFF[u,v] = [a, b]` and the
//!   affected-node set `Aff_N` that drives DER-II elimination detection.
//! * [`Partition`] / [`PartitionedIndex`] — the §V label-based partition
//!   method: per-partition APSP (parallelized with `crossbeam`, the paper's
//!   "processed distributively"), a bridge graph over inner/outer bridge
//!   nodes, and exact cross-partition composition.
//! * [`backend`] — the [`SlenBackend`] trait: the repairable-index
//!   lifecycle (build, slot grow/tombstone, probe/commit deltas, batch
//!   commits with one net delta, bulk row recompute) the GPNM engine is
//!   generic over, plus the requirement model
//!   ([`SlenRequirements`]) that lets backends cover only the projection
//!   the matcher observes.
//! * [`SparseIndex`] — the bounded-row sparse backend: truncated BFS rows
//!   for pattern-labeled sources only, `O(candidate rows × bounded ball)`
//!   memory instead of `O(n²)` — the backend that unlocks 100k+-node
//!   graphs. Its repair algorithms are written once, generic over the row
//!   store: [`VecStore`] (the default) keeps the rows on the heap.
//! * [`PagedIndex`] — the out-of-core backend, `SparseIndex<PagedStore>`:
//!   the same algorithms over [`PagedStore`], which serializes the rows
//!   into fixed-size pages of a spill file with a byte-budgeted hot-row
//!   cache in front. Memory is `O(row directory + cache budget)` however
//!   many rows are resident — the backend for 10M+-node graphs under a
//!   hard memory ceiling.
//!
//! ## Choosing a backend
//!
//! * **dense** ([`IncrementalIndex`]) — exact for every pair, fastest point
//!   lookups; `4n²` bytes, so it stops fitting around ~50k nodes. Use for
//!   paper-scale experiments and workloads where every source matters.
//! * **partitioned** ([`PartitionedBackend`]) — dense storage plus the §V
//!   accelerator for deletion repair. Same memory envelope; wins on
//!   update-heavy workloads with label locality (bridge-sparse graphs) or
//!   many invalidated rows (pool-parallel fan-out).
//! * **sparse** ([`SparseIndex`]) — memory proportional to candidate rows ×
//!   nodes within the pattern's maximum finite bound. The right choice past
//!   ~50k nodes; patterns with unbounded (`*`) edges fall back to full
//!   (untruncated) rows for candidate sources.
//! * **paged** ([`PagedIndex`]) — the sparse rows spilled to disk, hot rows
//!   cached under a byte budget. The sparse code over another row store,
//!   so deltas and answers are identical to sparse;
//!   choose it when even the sparse index outgrows RAM, and size the
//!   working set with the service's `cache_budget_mb` (or the backend's
//!   [`PagedIndex::set_cache_budget`]).
//!
//! The infinity sentinel is [`INF`] (`u32::MAX`); all arithmetic goes
//! through [`sat_add`] so infinity propagates instead of wrapping.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod aff;
mod any;
mod apsp;
pub mod backend;
mod dijkstra;
mod hybrid;
pub mod incremental;
mod kind;
mod matrix;
mod oracle;
mod paged;
mod pager;
mod partition;
mod partitioned;
mod sparse;

pub use aff::{AffDelta, NetDelta};
pub use any::AnyBackend;
pub use apsp::{
    apsp_matrix, bfs_row, bfs_row_skipping_edge, parallel_bfs_rows, parallel_bfs_rows_csr,
    parallel_bfs_rows_scoped,
};
pub use backend::{
    commit_update, project_delta, BatchCommit, CostHints, IoStats, PartitionedBackend, RepairHint,
    SlenBackend, SlenRequirements,
};
pub use dijkstra::{dijkstra, dijkstra_multi, WeightedAdj};
pub use hybrid::HybridMatrix;
pub use incremental::IncrementalIndex;
pub use kind::BackendKind;
pub use matrix::DistanceMatrix;
pub use oracle::DistanceOracle;
#[cfg(gpnm_loom)]
#[doc(hidden)]
pub use paged::loom_model;
pub use paged::{PagedConfig, PagedIndex, PagedStore};
pub use pager::DEFAULT_PAGE_SIZE;
pub use partition::{Partition, PartitionId};
pub use partitioned::{paper_literal, PartitionedIndex};
pub use sparse::{SparseIndex, VecStore};

/// Infinity: no path. `u32::MAX`, so every finite distance compares below.
pub const INF: u32 = u32::MAX;

/// Saturating addition that treats [`INF`] as absorbing.
#[inline(always)]
pub fn sat_add(a: u32, b: u32) -> u32 {
    if a == INF || b == INF {
        INF
    } else {
        a.saturating_add(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_add_propagates_infinity() {
        assert_eq!(sat_add(INF, 0), INF);
        assert_eq!(sat_add(3, INF), INF);
        assert_eq!(sat_add(INF, INF), INF);
        assert_eq!(sat_add(2, 3), 5);
        assert_eq!(sat_add(u32::MAX - 1, 5), INF, "saturates to INF");
    }
}
