//! The eight update kinds of §III-C.

use gpnm_graph::{Bound, Label, PatternNodeId};

/// One update to the pattern graph (`UPi ∈ ΔGP`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternUpdate {
    /// `ΔG+_PE`: insert edge `from -> to` with `bound`.
    InsertEdge {
        /// Source pattern node.
        from: PatternNodeId,
        /// Target pattern node.
        to: PatternNodeId,
        /// Bounded path length of the new edge.
        bound: Bound,
    },
    /// `ΔG-_PE`: delete edge `from -> to`.
    DeleteEdge {
        /// Source pattern node.
        from: PatternNodeId,
        /// Target pattern node.
        to: PatternNodeId,
    },
    /// `ΔG+_PN`: insert a fresh pattern node with `label`.
    ///
    /// The created id is deterministic (the pattern's next slot), so
    /// batches can reference nodes created earlier in the same batch.
    InsertNode {
        /// Label of the new pattern node.
        label: Label,
    },
    /// `ΔG-_PN`: delete `node` and its incident edges.
    DeleteNode {
        /// The pattern node to delete.
        node: PatternNodeId,
    },
}

// Data updates are plain graph edits, so the type lives next to
// `DataGraph::apply` in `gpnm-graph`; re-exported here with the other kinds.
pub use gpnm_graph::DataUpdate;

/// An update to either graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Update {
    /// An update to the pattern graph.
    Pattern(PatternUpdate),
    /// An update to the data graph.
    Data(DataUpdate),
}

impl Update {
    /// Whether this updates the pattern graph.
    pub fn is_pattern(&self) -> bool {
        matches!(self, Update::Pattern(_))
    }

    /// Whether this is an insertion (edge or node).
    pub fn is_insertion(&self) -> bool {
        matches!(
            self,
            Update::Pattern(PatternUpdate::InsertEdge { .. })
                | Update::Pattern(PatternUpdate::InsertNode { .. })
                | Update::Data(DataUpdate::InsertEdge { .. })
                | Update::Data(DataUpdate::InsertNode { .. })
        )
    }

    /// Short code for logs/reports: `+PE`, `-PE`, `+PN`, `-PN`, `+DE`, …
    pub fn code(&self) -> &'static str {
        match self {
            Update::Pattern(PatternUpdate::InsertEdge { .. }) => "+PE",
            Update::Pattern(PatternUpdate::DeleteEdge { .. }) => "-PE",
            Update::Pattern(PatternUpdate::InsertNode { .. }) => "+PN",
            Update::Pattern(PatternUpdate::DeleteNode { .. }) => "-PN",
            Update::Data(DataUpdate::InsertEdge { .. }) => "+DE",
            Update::Data(DataUpdate::DeleteEdge { .. }) => "-DE",
            Update::Data(DataUpdate::InsertNode { .. }) => "+DN",
            Update::Data(DataUpdate::DeleteNode { .. }) => "-DN",
        }
    }
}

impl From<PatternUpdate> for Update {
    fn from(u: PatternUpdate) -> Self {
        Update::Pattern(u)
    }
}

impl From<DataUpdate> for Update {
    fn from(u: DataUpdate) -> Self {
        Update::Data(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpnm_graph::NodeId;

    #[test]
    fn codes_cover_all_eight_kinds() {
        let ups: Vec<Update> = vec![
            PatternUpdate::InsertEdge {
                from: PatternNodeId(0),
                to: PatternNodeId(1),
                bound: Bound::Hops(2),
            }
            .into(),
            PatternUpdate::DeleteEdge {
                from: PatternNodeId(0),
                to: PatternNodeId(1),
            }
            .into(),
            PatternUpdate::InsertNode { label: Label(0) }.into(),
            PatternUpdate::DeleteNode {
                node: PatternNodeId(0),
            }
            .into(),
            DataUpdate::InsertEdge {
                from: NodeId(0),
                to: NodeId(1),
            }
            .into(),
            DataUpdate::DeleteEdge {
                from: NodeId(0),
                to: NodeId(1),
            }
            .into(),
            DataUpdate::InsertNode { label: Label(0) }.into(),
            DataUpdate::DeleteNode { node: NodeId(0) }.into(),
        ];
        let codes: Vec<_> = ups.iter().map(Update::code).collect();
        assert_eq!(
            codes,
            vec!["+PE", "-PE", "+PN", "-PN", "+DE", "-DE", "+DN", "-DN"]
        );
        assert!(ups[0].is_pattern() && !ups[4].is_pattern());
        assert!(ups[0].is_insertion() && !ups[1].is_insertion());
    }
}
