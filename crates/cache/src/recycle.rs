//! Recycle-graph lineage index.
//!
//! The paper stores lineage "in a similar way as described in [Nagel et al.]
//! using a so-called recycle graph G_C" that merges the plans of all cached
//! hash tables, and prunes matching to "those nodes n_c that actually refer
//! to a cached hash-table" (§3.3).
//!
//! [`RecycleGraph`] realizes both ideas: every published hash table adds its
//! producing sub-plan as a node; nodes are merged (deduplicated) by their
//! structural *shape key* — operator kind, base tables, join edges and hash
//! key. Candidate lookup for a requesting operator is then a single bucket
//! probe that returns only nodes carrying hash tables, never the interior of
//! other plans.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use hashstash_types::HtId;

use hashstash_plan::HtFingerprint;

/// Structural shape key of a sub-plan that materializes a hash table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShapeKey {
    kind: &'static str,
    tables: Vec<String>,
    edges: Vec<String>,
    keys: Vec<String>,
}

impl ShapeKey {
    /// Compute the shape key of a fingerprint.
    ///
    /// Join tables key on their hash key; aggregate tables deliberately do
    /// *not*, because a table grouped by a superset of the requested keys is
    /// still reusable via post-aggregation (paper §3.3) — the matcher checks
    /// key compatibility after the bucket probe.
    pub fn of(fp: &HtFingerprint) -> Self {
        let kind = match fp.kind {
            hashstash_plan::HtKind::JoinBuild => "join",
            hashstash_plan::HtKind::Aggregate => "agg",
            hashstash_plan::HtKind::SharedGroup => "shared-group",
        };
        let mut edges: Vec<String> = fp.edges.iter().map(|e| e.to_string()).collect();
        edges.sort();
        let keys = match fp.kind {
            hashstash_plan::HtKind::JoinBuild => {
                fp.key_attrs.iter().map(|k| k.to_string()).collect()
            }
            hashstash_plan::HtKind::Aggregate | hashstash_plan::HtKind::SharedGroup => Vec::new(),
        };
        ShapeKey {
            kind,
            tables: fp.tables.iter().map(|t| t.to_string()).collect(),
            edges,
            keys,
        }
    }

    /// A process- and version-stable 64-bit hash of the shape.
    ///
    /// Shard routing must not depend on `RandomState` seeds or on the std
    /// hasher's (unspecified, version-dependent) algorithm: warm restart
    /// re-publishes persisted entries in a *new* process, and the golden
    /// shard-routing test pins this value, so the hash is FNV-1a over an
    /// unambiguous field encoding (each component terminated by `\0`, which
    /// cannot occur in table/column names).
    pub fn stable_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes.iter().chain(std::iter::once(&0u8)) {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.kind.as_bytes());
        for t in &self.tables {
            eat(t.as_bytes());
        }
        eat(b"|");
        for e in &self.edges {
            eat(e.as_bytes());
        }
        eat(b"|");
        for k in &self.keys {
            eat(k.as_bytes());
        }
        h
    }
}

/// One node of the recycle graph: a materializing operator plus the cached
/// hash tables produced by structurally identical sub-plans.
#[derive(Debug, Clone)]
struct RecycleNode {
    /// Cached tables with this shape (they differ in predicate region).
    hts: Vec<HtId>,
    /// How many times this node matched a request (graph-level statistics).
    lookups: u64,
}

/// The merged lineage graph of all cached tables.
#[derive(Debug, Default)]
pub struct RecycleGraph {
    nodes: HashMap<ShapeKey, RecycleNode>,
}

impl RecycleGraph {
    /// Empty graph.
    pub fn new() -> Self {
        RecycleGraph::default()
    }

    /// Merge the producing sub-plan of a newly cached hash table into the
    /// graph. Structurally identical sub-plans collapse into one node.
    pub fn add(&mut self, fp: &HtFingerprint, id: HtId) {
        match self.nodes.entry(ShapeKey::of(fp)) {
            Entry::Occupied(mut e) => e.get_mut().hts.push(id),
            Entry::Vacant(e) => {
                e.insert(RecycleNode {
                    hts: vec![id],
                    lookups: 0,
                });
            }
        }
    }

    /// Remove a hash table (evicted or dropped).
    pub fn remove(&mut self, fp: &HtFingerprint, id: HtId) {
        let key = ShapeKey::of(fp);
        if let Some(node) = self.nodes.get_mut(&key) {
            node.hts.retain(|&h| h != id);
            if node.hts.is_empty() {
                self.nodes.remove(&key);
            }
        }
    }

    /// Candidate hash tables whose producing sub-plan is structurally
    /// identical to the requesting fingerprint. This is the §3.3 pruning:
    /// only nodes referring to cached hash tables are visited.
    pub fn candidates(&mut self, request: &HtFingerprint) -> Vec<HtId> {
        self.candidates_of(&ShapeKey::of(request)).to_vec()
    }

    /// [`RecycleGraph::candidates`] of a shape key computed by the caller.
    pub fn candidates_of(&mut self, shape: &ShapeKey) -> &[HtId] {
        match self.nodes.get_mut(shape) {
            Some(node) => {
                node.lookups += 1;
                &node.hts
            }
            None => &[],
        }
    }

    /// Number of distinct plan shapes in the graph.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of cached tables referenced.
    pub fn ht_count(&self) -> usize {
        self.nodes.values().map(|n| n.hts.len()).sum()
    }

    /// Total candidate lookups served (statistics for experiments).
    pub fn lookup_count(&self) -> u64 {
        self.nodes.values().map(|n| n.lookups).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashstash_plan::{HtKind, Interval, JoinEdge, PredBox, Region};
    use hashstash_types::Value;
    use std::sync::Arc;

    fn fp(lo: i64, hi: i64) -> HtFingerprint {
        HtFingerprint {
            kind: HtKind::JoinBuild,
            tables: ["customer", "orders"]
                .iter()
                .map(|s| Arc::from(*s))
                .collect(),
            edges: vec![JoinEdge::new(
                "customer",
                "customer.c_custkey",
                "orders",
                "orders.o_custkey",
            )],
            region: Region::from_box(PredBox::all().with(
                "customer.c_age",
                Interval::closed(Value::Int(lo), Value::Int(hi)),
            )),
            key_attrs: vec![Arc::from("customer.c_custkey")],
            payload_attrs: vec![Arc::from("customer.c_age")],
            aggregates: Vec::new(),
        }
    }

    #[test]
    fn same_shape_merges_into_one_node() {
        let mut g = RecycleGraph::new();
        g.add(&fp(0, 10), HtId(1));
        g.add(&fp(20, 30), HtId(2));
        assert_eq!(g.node_count(), 1, "same shape ⇒ one node");
        assert_eq!(g.ht_count(), 2);
        let cands = g.candidates(&fp(5, 6));
        assert_eq!(cands, vec![HtId(1), HtId(2)]);
        assert_eq!(g.lookup_count(), 1);
    }

    #[test]
    fn different_shape_different_node() {
        let mut g = RecycleGraph::new();
        g.add(&fp(0, 10), HtId(1));
        let mut agg = fp(0, 10);
        agg.kind = HtKind::Aggregate;
        g.add(&agg, HtId(2));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.candidates(&fp(0, 10)), vec![HtId(1)]);
        assert_eq!(g.candidates(&agg), vec![HtId(2)]);
    }

    #[test]
    fn remove_cleans_up_empty_nodes() {
        let mut g = RecycleGraph::new();
        g.add(&fp(0, 10), HtId(1));
        g.remove(&fp(0, 10), HtId(1));
        assert_eq!(g.node_count(), 0);
        assert!(g.candidates(&fp(0, 10)).is_empty());
    }

    #[test]
    fn edge_order_does_not_matter() {
        let mut g = RecycleGraph::new();
        let mut a = fp(0, 10);
        a.edges = vec![
            JoinEdge::new(
                "customer",
                "customer.c_custkey",
                "orders",
                "orders.o_custkey",
            ),
            JoinEdge::new(
                "orders",
                "orders.o_orderkey",
                "lineitem",
                "lineitem.l_orderkey",
            ),
        ];
        a.tables.insert(Arc::from("lineitem"));
        let mut b = a.clone();
        b.edges.reverse();
        g.add(&a, HtId(1));
        g.add(&b, HtId(2));
        assert_eq!(g.node_count(), 1);
    }
}
