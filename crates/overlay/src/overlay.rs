//! The aggregation overlay graph `OG(V'', E'')` (paper §2.2.1).
//!
//! Three kinds of nodes — writers, readers, and partial aggregators — form a
//! DAG whose edges carry a [`Sign`]: positive edges contribute an upstream
//! PAO, negative edges subtract it (§2.2.1's "negative edges"). The overlay
//! is an arena of `u32`-indexed nodes; construction algorithms mutate it
//! through `&mut self`, and execution freezes it behind `&self`.
//!
//! Per-node adjacency and coverage live in fixed-size copy-on-write chunks
//! of [`CHUNK_NODES`] nodes behind `Arc`s, so a clone copies chunk
//! pointers plus a few flat per-node arrays, and a mutation copies only
//! the one chunk it touches while another copy still shares it. A
//! topology epoch repairs a clone of the live overlay; the resident copies
//! (plan, stratum, engine core) keep sharing every chunk the repair left
//! alone, and dropping a superseded copy frees only the chunks no other
//! copy holds.
//!
//! Invariants maintained by every construction path in this crate:
//!
//! * the overlay is acyclic; writers are sources, readers are sinks;
//! * readers never feed other nodes (§3.2.5 footnote);
//! * negative edges point only at readers, and only exist for subtractable
//!   aggregates;
//! * for every (writer, reader) pair the *net* contribution (signed path
//!   count) is exactly 1 for duplicate-sensitive aggregates and ≥ 1 for
//!   duplicate-insensitive ones ([`mod@crate::validate`] checks this).

use eagr_agg::Sign;
use eagr_graph::{BipartiteGraph, NodeId};
use std::sync::Arc;

/// Index of a node in the overlay arena.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OverlayId(pub u32);

impl OverlayId {
    /// The id as a usize index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for OverlayId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// What an overlay node is (paper §2.2.1's three node types).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverlayKind {
    /// A writer `v_w`, tied to a data-graph node. Always annotated push.
    Writer(NodeId),
    /// A reader `v_r`, tied to a data-graph node satisfying the query
    /// predicate; holds the query answer for that node.
    Reader(NodeId),
    /// A partial aggregation ("virtual") node introduced by overlay
    /// construction.
    Partial,
}

/// A directed, signed overlay edge endpoint.
pub type SignedEdge = (OverlayId, Sign);

/// Nodes per copy-on-write chunk of [`Overlay`]'s per-node tables.
pub const CHUNK_NODES: usize = 32;

/// A per-node table split into [`CHUNK_NODES`]-sized chunks behind `Arc`s:
/// cloning copies the chunk pointers, and a write copies only the chunk it
/// lands in, and only while another clone still shares that chunk. Each
/// chunk is a fixed array (slots past `len` hold `T::default()`), so a
/// lookup is one hop from the chunk pointer to the entry.
#[derive(Clone, Debug, Default)]
struct Chunked<T> {
    chunks: Vec<Arc<[T; CHUNK_NODES]>>,
    len: usize,
}

impl<T: Clone + Default> Chunked<T> {
    fn from_vec(items: Vec<T>) -> Self {
        let len = items.len();
        let mut items = items.into_iter();
        let chunks = (0..len.div_ceil(CHUNK_NODES))
            .map(|_| Arc::new(std::array::from_fn(|_| items.next().unwrap_or_default())))
            .collect();
        Self { chunks, len }
    }

    #[inline]
    fn get(&self, i: usize) -> &T {
        assert!(i < self.len, "overlay node {i} out of range");
        &self.chunks[i / CHUNK_NODES][i % CHUNK_NODES]
    }

    #[inline]
    fn get_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len, "overlay node {i} out of range");
        &mut Arc::make_mut(&mut self.chunks[i / CHUNK_NODES])[i % CHUNK_NODES]
    }

    fn push(&mut self, item: T) {
        if self.len % CHUNK_NODES == 0 {
            self.chunks
                .push(Arc::new(std::array::from_fn(|_| T::default())));
        }
        self.len += 1;
        *self.get_mut(self.len - 1) = item;
    }

    fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|c| c.iter()).take(self.len)
    }

    /// Chunks of `self` that `other` does not share (by pointer).
    fn unshared_with(&self, other: &Self) -> usize {
        self.chunks
            .iter()
            .enumerate()
            .filter(|&(i, c)| other.chunks.get(i).is_none_or(|o| !Arc::ptr_eq(c, o)))
            .count()
    }
}

/// Marks a data node with no writer (or reader) in the dense lookup tables.
const ABSENT: u32 = u32::MAX;

/// Largest data-node id a decoded lookup table may name: the tables are
/// dense, so a corrupt id must not size an allocation.
const MAX_DECODED_NODE: u32 = 1 << 26;

#[inline]
fn lookup(table: &[u32], v: NodeId) -> Option<OverlayId> {
    table
        .get(v.idx())
        .copied()
        .filter(|&id| id != ABSENT)
        .map(OverlayId)
}

/// Point `v` at `id` (or clear it with [`ABSENT`]); returns the previous
/// entry.
fn set_lookup(table: &mut Vec<u32>, v: NodeId, id: u32) -> Option<OverlayId> {
    if table.len() <= v.idx() {
        if id == ABSENT {
            return None;
        }
        table.resize(v.idx() + 1, ABSENT);
    }
    let prev = std::mem::replace(&mut table[v.idx()], id);
    (prev != ABSENT).then_some(OverlayId(prev))
}

/// The aggregation overlay graph.
#[derive(Clone, Debug)]
pub struct Overlay {
    kinds: Vec<OverlayKind>,
    /// Upstream endpoints per node (the node's *inputs*).
    inputs: Chunked<Vec<SignedEdge>>,
    /// Downstream endpoints per node (the node's *consumers*).
    outputs: Chunked<Vec<SignedEdge>>,
    /// Data node → writer overlay node (dense, [`ABSENT`] when none).
    writer_of: Vec<u32>,
    /// Data node → reader overlay node (dense, [`ABSENT`] when none).
    reader_of: Vec<u32>,
    /// `coverage[n]` = I(n): sorted data-graph writer ids the node
    /// transitively aggregates (positive edges only). Writers: singleton;
    /// readers: not maintained (derivable; their net coverage is validated
    /// instead).
    coverage: Chunked<Vec<u32>>,
    /// Edge count of the bipartite graph this overlay was derived from —
    /// the denominator of the sharing index (§3.1).
    ag_edge_count: usize,
    /// Live edge count (positive + negative).
    edge_count: usize,
    /// Tombstones for retired nodes (dynamic maintenance, §3.3). Retired
    /// ids stay allocated so indexes remain stable.
    dead: Vec<bool>,
}

impl Default for Overlay {
    /// An empty overlay (no nodes, zero bipartite denominator); grown via
    /// [`add_writer`](Self::add_writer) / [`add_reader`](Self::add_reader)
    /// / [`add_partial`](Self::add_partial) — used by tests and by live
    /// extension ([`crate::extend`]).
    fn default() -> Self {
        Self::empty(0)
    }
}

impl Overlay {
    /// The *direct* overlay for a bipartite graph: one writer per active
    /// writer, one reader per reader, and a positive edge writer → reader
    /// for every bipartite edge. This is both the starting point of the
    /// VNM/IOB algorithms and the execution structure of the all-push /
    /// all-pull baselines (§5.1).
    pub fn direct_from_bipartite(ag: &BipartiteGraph) -> Self {
        let mut ov = Self::empty(ag.edge_count());
        for w in ag.active_writers() {
            ov.add_writer(w);
        }
        for (i, r, inputs) in ag.iter() {
            let rid = ov.add_reader(r);
            debug_assert_eq!(i + ag.active_writers().len(), rid.idx());
            for &w in inputs {
                let wid = ov.writer(w).expect("writer added above");
                ov.add_edge(wid, rid, Sign::Pos);
            }
        }
        ov
    }

    /// An overlay with writers and readers (no edges yet); used by IOB,
    /// which adds readers one at a time.
    pub fn skeleton_from_bipartite(ag: &BipartiteGraph) -> Self {
        let mut ov = Self::empty(ag.edge_count());
        for w in ag.active_writers() {
            ov.add_writer(w);
        }
        ov
    }

    fn empty(ag_edge_count: usize) -> Self {
        Self {
            kinds: Vec::new(),
            inputs: Chunked::default(),
            outputs: Chunked::default(),
            writer_of: Vec::new(),
            reader_of: Vec::new(),
            coverage: Chunked::default(),
            ag_edge_count,
            edge_count: 0,
            dead: Vec::new(),
        }
    }

    fn push_node(&mut self, kind: OverlayKind, coverage: Vec<u32>) -> OverlayId {
        let id = OverlayId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.inputs.push(Vec::new());
        self.outputs.push(Vec::new());
        self.coverage.push(coverage);
        self.dead.push(false);
        id
    }

    /// Retire a node: remove all its incident edges and tombstone it.
    /// Its id stays allocated (indexes remain stable) but it disappears
    /// from [`ids`](Self::ids), [`readers`](Self::readers),
    /// [`writers`](Self::writers), and the writer/reader lookups.
    pub fn retire_node(&mut self, n: OverlayId) {
        let outs = self.outputs.get(n.idx()).clone();
        for (t, s) in outs {
            self.remove_edge(n, t, s);
        }
        let ins = self.inputs.get(n.idx()).clone();
        for (f, s) in ins {
            self.remove_edge(f, n, s);
        }
        match self.kinds[n.idx()] {
            OverlayKind::Writer(w) => {
                set_lookup(&mut self.writer_of, w, ABSENT);
            }
            OverlayKind::Reader(r) => {
                set_lookup(&mut self.reader_of, r, ABSENT);
            }
            OverlayKind::Partial => {}
        }
        if !self.coverage.get(n.idx()).is_empty() {
            self.coverage.get_mut(n.idx()).clear();
        }
        self.dead[n.idx()] = true;
    }

    /// Whether a node has been retired.
    #[inline]
    pub fn is_retired(&self, n: OverlayId) -> bool {
        self.dead[n.idx()]
    }

    /// Add a writer node for data node `w`.
    ///
    /// # Panics
    /// Panics if `w` already has a writer node.
    pub fn add_writer(&mut self, w: NodeId) -> OverlayId {
        let id = self.push_node(OverlayKind::Writer(w), vec![w.0]);
        let prev = set_lookup(&mut self.writer_of, w, id.0);
        assert!(prev.is_none(), "duplicate writer for {w:?}");
        id
    }

    /// Add a reader node for data node `r`.
    ///
    /// # Panics
    /// Panics if `r` already has a reader node.
    pub fn add_reader(&mut self, r: NodeId) -> OverlayId {
        let id = self.push_node(OverlayKind::Reader(r), Vec::new());
        let prev = set_lookup(&mut self.reader_of, r, id.0);
        assert!(prev.is_none(), "duplicate reader for {r:?}");
        id
    }

    /// Add a partial aggregation node whose inputs are `items` (positive
    /// edges). Coverage is the union of the items' coverage.
    ///
    /// # Panics
    /// Panics if any item is a reader (readers cannot feed aggregators).
    pub fn add_partial(&mut self, items: &[OverlayId]) -> OverlayId {
        let mut cov: Vec<u32> = Vec::new();
        for &it in items {
            assert!(
                !matches!(self.kinds[it.idx()], OverlayKind::Reader(_)),
                "reader cannot feed an aggregator"
            );
            cov.extend_from_slice(self.coverage.get(it.idx()));
        }
        cov.sort_unstable();
        cov.dedup();
        let id = self.push_node(OverlayKind::Partial, cov);
        for &it in items {
            self.add_edge(it, id, Sign::Pos);
        }
        id
    }

    /// Add a signed edge `from → to`. (Readers feeding other nodes violate
    /// the overlay invariant; [`mod@crate::validate`] reports it.)
    pub fn add_edge(&mut self, from: OverlayId, to: OverlayId, sign: Sign) {
        self.outputs.get_mut(from.idx()).push((to, sign));
        self.inputs.get_mut(to.idx()).push((from, sign));
        self.edge_count += 1;
    }

    /// Remove the signed edge `from → to` (first occurrence). Returns
    /// whether an edge was removed.
    pub fn remove_edge(&mut self, from: OverlayId, to: OverlayId, sign: Sign) -> bool {
        // Look before writing: a miss must not copy a shared chunk.
        let Some(pos) = self
            .outputs
            .get(from.idx())
            .iter()
            .position(|&(t, s)| t == to && s == sign)
        else {
            return false;
        };
        self.outputs.get_mut(from.idx()).swap_remove(pos);
        let ipos = self
            .inputs
            .get(to.idx())
            .iter()
            .position(|&(f, s)| f == from && s == sign)
            .expect("edge lists out of sync");
        self.inputs.get_mut(to.idx()).swap_remove(ipos);
        self.edge_count -= 1;
        true
    }

    /// Number of overlay nodes.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of overlay edges (positive + negative) — the numerator of the
    /// sharing index.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Edge count of the originating bipartite graph.
    pub fn ag_edge_count(&self) -> usize {
        self.ag_edge_count
    }

    /// The sharing index `1 − |E''| / |E'|` (§3.1).
    pub fn sharing_index(&self) -> f64 {
        if self.ag_edge_count == 0 {
            0.0
        } else {
            1.0 - self.edge_count as f64 / self.ag_edge_count as f64
        }
    }

    /// Kind of a node.
    #[inline]
    pub fn kind(&self, n: OverlayId) -> OverlayKind {
        self.kinds[n.idx()]
    }

    /// Upstream signed endpoints of `n`.
    #[inline]
    pub fn inputs(&self, n: OverlayId) -> &[SignedEdge] {
        self.inputs.get(n.idx())
    }

    /// Downstream signed endpoints of `n`.
    #[inline]
    pub fn outputs(&self, n: OverlayId) -> &[SignedEdge] {
        self.outputs.get(n.idx())
    }

    /// Fan-in of `n` (the `k` of the cost functions `H(k)`/`L(k)`).
    #[inline]
    pub fn fan_in(&self, n: OverlayId) -> usize {
        self.inputs.get(n.idx()).len()
    }

    /// Writer overlay node for data node `w`, if present.
    pub fn writer(&self, w: NodeId) -> Option<OverlayId> {
        lookup(&self.writer_of, w)
    }

    /// Reader overlay node for data node `r`, if present.
    pub fn reader(&self, r: NodeId) -> Option<OverlayId> {
        lookup(&self.reader_of, r)
    }

    /// `I(n)` — sorted data-graph writer ids node `n` transitively
    /// aggregates along positive edges (empty for readers: validated, not
    /// stored).
    pub fn coverage(&self, n: OverlayId) -> &[u32] {
        self.coverage.get(n.idx())
    }

    /// All live overlay ids.
    pub fn ids(&self) -> impl Iterator<Item = OverlayId> + '_ {
        (0..self.kinds.len() as u32)
            .map(OverlayId)
            .filter(|id| !self.dead[id.idx()])
    }

    /// Number of live nodes (excludes tombstones).
    pub fn live_node_count(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// All live reader ids with their data node.
    pub fn readers(&self) -> impl Iterator<Item = (OverlayId, NodeId)> + '_ {
        self.kinds.iter().enumerate().filter_map(|(i, k)| match k {
            OverlayKind::Reader(r) if !self.dead[i] => Some((OverlayId(i as u32), *r)),
            _ => None,
        })
    }

    /// All live writer ids with their data node.
    pub fn writers(&self) -> impl Iterator<Item = (OverlayId, NodeId)> + '_ {
        self.kinds.iter().enumerate().filter_map(|(i, k)| match k {
            OverlayKind::Writer(w) if !self.dead[i] => Some((OverlayId(i as u32), *w)),
            _ => None,
        })
    }

    /// Number of live partial aggregation nodes.
    pub fn partial_count(&self) -> usize {
        self.kinds
            .iter()
            .enumerate()
            .filter(|(i, k)| matches!(k, OverlayKind::Partial) && !self.dead[*i])
            .count()
    }

    /// Remove the writer coverage entry `w` from a node's coverage list
    /// (node deletion maintenance, §3.3).
    pub(crate) fn coverage_remove(&mut self, n: OverlayId, w: u32) {
        if let Ok(pos) = self.coverage.get(n.idx()).binary_search(&w) {
            self.coverage.get_mut(n.idx()).remove(pos);
        }
    }

    /// A topological order (writers first). Panics if the overlay has a
    /// cycle — construction algorithms must never produce one.
    pub fn topo_order(&self) -> Vec<OverlayId> {
        let n = self.kinds.len();
        let mut indeg: Vec<u32> = self.inputs.iter().map(|ins| ins.len() as u32).collect();
        let mut queue: Vec<OverlayId> = (0..n as u32)
            .map(OverlayId)
            .filter(|id| indeg[id.idx()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            order.push(u);
            for &(v, _) in self.outputs.get(u.idx()) {
                indeg[v.idx()] -= 1;
                if indeg[v.idx()] == 0 {
                    queue.push(v);
                }
            }
        }
        assert_eq!(order.len(), n, "overlay contains a cycle");
        order
    }

    /// Approximate heap footprint in bytes (Fig 10b memory accounting).
    pub fn memory_bytes(&self) -> usize {
        let edge = std::mem::size_of::<SignedEdge>();
        let mut total = self.kinds.len()
            * (std::mem::size_of::<OverlayKind>() + 2 * std::mem::size_of::<Vec<SignedEdge>>());
        for ((ins, outs), cov) in self
            .inputs
            .iter()
            .zip(self.outputs.iter())
            .zip(self.coverage.iter())
        {
            total += (ins.capacity() + outs.capacity()) * edge;
            total += cov.capacity() * 4;
        }
        total += (self.writer_of.len() + self.reader_of.len()) * 4;
        total
    }

    /// Copy-on-write chunks of this overlay's per-node tables (inputs,
    /// outputs, coverage) that `other` does not share — what a repair of a
    /// clone has copied so far. Chunks past `other`'s end count as
    /// unshared.
    pub fn chunks_unshared_with(&self, other: &Overlay) -> usize {
        self.inputs.unshared_with(&other.inputs)
            + self.outputs.unshared_with(&other.outputs)
            + self.coverage.unshared_with(&other.coverage)
    }
}

// --- wire codecs -----------------------------------------------------------
//
// The multi-process shard transport ships the whole overlay to each shard
// host at launch (and again on a topology swap), so hosts route cascades
// with exactly the coordinator's structure. The impls live here because the
// fields are private — the encoding *is* the struct, field for field.

use eagr_util::wire::{Wire, WireError};

impl Wire for OverlayId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(OverlayId(u32::decode(buf)?))
    }
}

impl Wire for OverlayKind {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            OverlayKind::Writer(n) => {
                out.push(0);
                n.encode(out);
            }
            OverlayKind::Reader(n) => {
                out.push(1);
                n.encode(out);
            }
            OverlayKind::Partial => out.push(2),
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(OverlayKind::Writer(NodeId::decode(buf)?)),
            1 => Ok(OverlayKind::Reader(NodeId::decode(buf)?)),
            2 => Ok(OverlayKind::Partial),
            tag => Err(WireError::BadTag {
                what: "OverlayKind",
                tag,
            }),
        }
    }
}

// The chunked tables encode as flat per-node sequences and the dense
// lookups as key-sorted `(data node, overlay node)` maps, so the bytes do
// not depend on how the tables are stored.

fn encode_chunked<T: Wire + Clone + Default>(table: &Chunked<T>, out: &mut Vec<u8>) {
    table.len.encode(out);
    for item in table.iter() {
        item.encode(out);
    }
}

fn encode_lookup(table: &[u32], out: &mut Vec<u8>) {
    let entries = table.iter().filter(|&&id| id != ABSENT).count();
    entries.encode(out);
    for (v, &id) in table.iter().enumerate() {
        if id != ABSENT {
            (v as u32).encode(out);
            id.encode(out);
        }
    }
}

fn decode_lookup(buf: &mut &[u8]) -> Result<Vec<u32>, WireError> {
    let entries = usize::decode(buf)?;
    let mut table = Vec::new();
    for _ in 0..entries {
        let v = u32::decode(buf)?;
        let id = u32::decode(buf)?;
        if v >= MAX_DECODED_NODE || id == ABSENT {
            return Err(WireError::OutOfRange("overlay lookup entry"));
        }
        set_lookup(&mut table, NodeId(v), id);
    }
    Ok(table)
}

impl Wire for Overlay {
    fn encode(&self, out: &mut Vec<u8>) {
        self.kinds.encode(out);
        encode_chunked(&self.inputs, out);
        encode_chunked(&self.outputs, out);
        encode_lookup(&self.writer_of, out);
        encode_lookup(&self.reader_of, out);
        encode_chunked(&self.coverage, out);
        self.ag_edge_count.encode(out);
        self.edge_count.encode(out);
        self.dead.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let kinds: Vec<OverlayKind> = Wire::decode(buf)?;
        let inputs: Vec<Vec<SignedEdge>> = Wire::decode(buf)?;
        let outputs: Vec<Vec<SignedEdge>> = Wire::decode(buf)?;
        let writer_of = decode_lookup(buf)?;
        let reader_of = decode_lookup(buf)?;
        let coverage: Vec<Vec<u32>> = Wire::decode(buf)?;
        let ag_edge_count = Wire::decode(buf)?;
        let edge_count = Wire::decode(buf)?;
        let dead: Vec<bool> = Wire::decode(buf)?;
        let n = kinds.len();
        if [inputs.len(), outputs.len(), coverage.len(), dead.len()] != [n; 4] {
            return Err(WireError::OutOfRange("overlay per-node table length"));
        }
        Ok(Overlay {
            kinds,
            inputs: Chunked::from_vec(inputs),
            outputs: Chunked::from_vec(outputs),
            writer_of,
            reader_of,
            coverage: Chunked::from_vec(coverage),
            ag_edge_count,
            edge_count,
            dead,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagr_graph::{paper_example_graph, Neighborhood};

    fn paper_ag() -> BipartiteGraph {
        BipartiteGraph::build(&paper_example_graph(), &Neighborhood::In, |_| true)
    }

    #[test]
    fn direct_overlay_mirrors_ag() {
        let ag = paper_ag();
        let ov = Overlay::direct_from_bipartite(&ag);
        // 6 active writers (g writes to nobody) + 7 readers.
        assert_eq!(ov.node_count(), 13);
        assert_eq!(ov.edge_count(), 35);
        assert_eq!(ov.ag_edge_count(), 35);
        assert_eq!(ov.sharing_index(), 0.0);
        assert_eq!(ov.partial_count(), 0);
    }

    #[test]
    fn partial_node_shares_edges() {
        // Reproduce Fig 1(d)'s PA1: aggregate {a_w, b_w, c_w} and feed the
        // readers whose lists contain all three.
        let ag = paper_ag();
        let mut ov = Overlay::direct_from_bipartite(&ag);
        let items: Vec<OverlayId> = [0u32, 1, 2]
            .iter()
            .map(|&w| ov.writer(NodeId(w)).unwrap())
            .collect();
        let before = ov.edge_count();
        let pa1 = ov.add_partial(&items);
        assert_eq!(ov.coverage(pa1), &[0, 1, 2]);
        // Rewire reader g_r: drop its three direct edges, add one from PA1.
        let gr = ov.reader(NodeId(6)).unwrap();
        for &it in &items {
            assert!(ov.remove_edge(it, gr, Sign::Pos));
        }
        ov.add_edge(pa1, gr, Sign::Pos);
        // Net: +3 (into PA1) −3 (removed) +1 (PA1→g_r) = +1 edge here, but
        // each further reader sharing PA1 saves 2 more.
        assert_eq!(ov.edge_count(), before + 1);
    }

    #[test]
    fn sharing_index_improves_with_sharing() {
        let ag = paper_ag();
        let mut ov = Overlay::direct_from_bipartite(&ag);
        let items: Vec<OverlayId> = [0u32, 1, 2]
            .iter()
            .map(|&w| ov.writer(NodeId(w)).unwrap())
            .collect();
        let pa1 = ov.add_partial(&items);
        // Readers c,d,e,f,g all contain {a,b,c} in their input lists —
        // exactly the five readers PA1 serves in Fig 1(d).
        for r in [2u32, 3, 4, 5, 6] {
            let rid = ov.reader(NodeId(r)).unwrap();
            for &it in &items {
                assert!(
                    ov.remove_edge(it, rid, Sign::Pos),
                    "reader {r} had the edge"
                );
            }
            ov.add_edge(pa1, rid, Sign::Pos);
        }
        // 5 readers × 3 edges = 15 removed; 3 + 5 added ⇒ 35 − 15 + 8 = 28.
        assert_eq!(ov.edge_count(), 28);
        assert!(
            (ov.sharing_index() - 0.2).abs() < 1e-9,
            "SI = 1 − 28/35 = 0.2"
        );
    }

    #[test]
    fn topo_order_writers_first() {
        let ag = paper_ag();
        let mut ov = Overlay::direct_from_bipartite(&ag);
        let w: Vec<OverlayId> = ov.writers().map(|(id, _)| id).collect();
        let p = ov.add_partial(&w[..2]);
        let order = ov.topo_order();
        let pos = |id: OverlayId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(w[0]) < pos(p));
        assert!(pos(w[1]) < pos(p));
    }

    #[test]
    #[should_panic(expected = "reader cannot feed an aggregator")]
    fn reader_cannot_feed_partial() {
        let ag = paper_ag();
        let mut ov = Overlay::direct_from_bipartite(&ag);
        let r = ov.reader(NodeId(0)).unwrap();
        ov.add_partial(&[r]);
    }

    #[test]
    fn remove_missing_edge_is_noop() {
        let ag = paper_ag();
        let mut ov = Overlay::direct_from_bipartite(&ag);
        let w = ov.writer(NodeId(0)).unwrap();
        let r = ov.reader(NodeId(0)).unwrap();
        // No edge a_w → a_r (a ∉ N(a)).
        assert!(!ov.remove_edge(w, r, Sign::Pos));
        assert_eq!(ov.edge_count(), 35);
    }

    #[test]
    fn negative_edges_counted() {
        let ag = paper_ag();
        let mut ov = Overlay::direct_from_bipartite(&ag);
        let w = ov.writer(NodeId(0)).unwrap();
        let r = ov.reader(NodeId(0)).unwrap();
        let before = ov.edge_count();
        ov.add_edge(w, r, Sign::Neg);
        assert_eq!(ov.edge_count(), before + 1);
        assert!(ov.remove_edge(w, r, Sign::Neg));
        assert_eq!(ov.edge_count(), before);
    }

    #[test]
    fn memory_accounting_positive() {
        let ag = paper_ag();
        let ov = Overlay::direct_from_bipartite(&ag);
        assert!(ov.memory_bytes() > 0);
    }
}
