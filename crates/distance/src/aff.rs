//! The effect of one update on `SLen`: changed pairs and affected nodes.

use std::collections::HashMap;

use gpnm_graph::{NodeId, NodeSet};

/// Distance changes caused by a single data-graph update.
///
/// This is the paper's `AFF[ui, vj] = [a, b]` notation (Table II) plus the
/// derived `Aff_N(UDi)` set of §IV-A Type II: a node is *affected* iff it is
/// an endpoint of some pair whose shortest path length changed.
#[derive(Debug, Clone, Default)]
pub struct AffDelta {
    /// `(u, v, old, new)` for every pair whose distance changed.
    pub changed: Vec<(NodeId, NodeId, u32, u32)>,
    /// Endpoints of changed pairs — `Aff_N`.
    pub affected: NodeSet,
}

impl AffDelta {
    /// An empty delta (update had no distance effect).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `d(u, v)` changed from `old` to `new`.
    pub fn record(&mut self, u: NodeId, v: NodeId, old: u32, new: u32) {
        debug_assert_ne!(old, new, "recorded a non-change");
        self.changed.push((u, v, old, new));
        self.affected.insert(u);
        self.affected.insert(v);
    }

    /// Whether the update changed any distance.
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty()
    }

    /// Number of changed pairs.
    pub fn len(&self) -> usize {
        self.changed.len()
    }

    /// Merge another delta into this one (used when one logical update
    /// expands to several primitive ops, e.g. node deletion = delete all
    /// incident edges + clear the slot).
    pub fn merge(&mut self, other: AffDelta) {
        self.changed.extend(other.changed);
        self.affected.union_with(&other.affected);
    }

    /// The new distance for `(u, v)` if this delta changed it.
    pub fn new_distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        // Linear scan: deltas are consumed once for containment checks and
        // candidate verification, and the verification path looks up few
        // pairs; profile before indexing.
        self.changed
            .iter()
            .rev() // the most recent write wins if merged deltas overlap
            .find(|&&(a, b, _, _)| a == u && b == v)
            .map(|&(_, _, _, new)| new)
    }
}

/// Folds a sequence of per-update deltas into one *net* delta: per
/// `(x, y)` pair the first `old` and the last `new`, with pairs whose net
/// change is nil dropped. Records come out in first-change order.
///
/// This is what a batch commit reports: the distances before the batch
/// against the distances after it, whatever happened in between.
#[derive(Debug, Default)]
pub struct NetDelta {
    /// Position of each pair in `records`.
    slot: HashMap<(NodeId, NodeId), usize>,
    records: Vec<(NodeId, NodeId, u32, u32)>,
}

impl NetDelta {
    /// An empty fold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in the next delta of the sequence.
    pub fn push(&mut self, delta: &AffDelta) {
        for &(x, y, old, new) in &delta.changed {
            match self.slot.get(&(x, y)) {
                Some(&i) => self.records[i].3 = new,
                None => {
                    self.slot.insert((x, y), self.records.len());
                    self.records.push((x, y, old, new));
                }
            }
        }
    }

    /// The net delta of everything pushed.
    pub fn finish(self) -> AffDelta {
        let mut net = AffDelta::new();
        for (x, y, old, new) in self.records {
            if old != new {
                net.record(x, y, old, new);
            }
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::INF;

    #[test]
    fn record_tracks_endpoints() {
        let mut d = AffDelta::new();
        d.record(NodeId(1), NodeId(2), INF, 3);
        d.record(NodeId(1), NodeId(4), 5, 4);
        assert_eq!(d.len(), 2);
        let members: Vec<_> = d.affected.iter().collect();
        assert_eq!(members, vec![NodeId(1), NodeId(2), NodeId(4)]);
    }

    #[test]
    fn merge_unions_affected() {
        let mut a = AffDelta::new();
        a.record(NodeId(0), NodeId(1), INF, 1);
        let mut b = AffDelta::new();
        b.record(NodeId(2), NodeId(3), 4, 2);
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.affected.len(), 4);
    }

    #[test]
    fn new_distance_returns_latest_write() {
        let mut d = AffDelta::new();
        d.record(NodeId(0), NodeId(1), INF, 3);
        d.record(NodeId(0), NodeId(1), 3, 2);
        assert_eq!(d.new_distance(NodeId(0), NodeId(1)), Some(2));
        assert_eq!(d.new_distance(NodeId(1), NodeId(0)), None);
    }

    #[test]
    fn net_delta_keeps_first_old_and_last_new() {
        let mut a = AffDelta::new();
        a.record(NodeId(0), NodeId(1), 4, 2);
        a.record(NodeId(0), NodeId(2), INF, 3);
        let mut b = AffDelta::new();
        b.record(NodeId(0), NodeId(1), 2, 1);
        b.record(NodeId(0), NodeId(2), 3, INF); // back where it started
        let mut fold = NetDelta::new();
        fold.push(&a);
        fold.push(&b);
        let net = fold.finish();
        assert_eq!(net.changed, vec![(NodeId(0), NodeId(1), 4, 1)]);
        assert!(!net.affected.contains(NodeId(2)), "a nil pair is dropped");
    }

    #[test]
    fn empty_delta() {
        let d = AffDelta::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }
}
