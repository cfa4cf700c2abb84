//! Weighted Union-Find decoder (Delfosse-Nickerson style).
//!
//! Clusters grow outward from defects in weight units; odd clusters keep
//! growing until they merge with another odd cluster or touch the
//! boundary. Once every cluster is neutral, defects are paired *within*
//! their cluster by shortest paths, which determines the predicted
//! logical flip. Union-Find trades a little accuracy for near-linear
//! decoding time; the `decoder` Criterion bench and the `fig11
//! --decoder uf` ablation quantify the trade against exact MWPM.
//!
//! # Scratch reuse
//!
//! Every per-decode array lives in a [`UfScratch`] sized to the graph.
//! [`UnionFindDecoder::decode_with`] resets only the entries dirtied by
//! the previous decode (the touched-node list), so a steady-state decode
//! costs O(nodes reached), not O(graph), and allocates nothing. The
//! one-shot [`Decoder::decode`] path builds a fresh scratch per call and
//! is bit-identical.
//!
//! # Syndrome memo
//!
//! A prediction is a pure function of (graph, defect list), and the
//! small blocks of a program replay see the same few defect lists over
//! and over. [`Decoder::decode_batch`] therefore looks each short lane
//! list up in a direct-mapped table in the scratch before decoding it.
//! Keys are the exact defect list, so a slot collision only evicts and
//! never answers for another list. Each slot also keeps that decode's
//! telemetry statistics, which a hit records again, so recorded totals
//! do not depend on which lanes a worker happened to see first. The
//! scratch remembers which decoder it serves and forgets every memo
//! when handed another one. [`UnionFindDecoder::decode_with`] and
//! [`Decoder::decode`] never consult the table; they are the oracle.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use vlq_telemetry::{Metric, Recorder};

use crate::graph::{DecodingGraph, BOUNDARY};
use crate::{Decoder, DecoderScratch};

/// Per-node `(neighbor, weight, flips_observable)` contact lists recorded
/// while growing clusters.
type GrowthForest = Vec<Vec<(usize, f64, bool)>>;

/// The static decoding-graph adjacency list: per-node
/// `(neighbor, weight, flips_observable)` entries. Same shape as a
/// [`GrowthForest`], but fixed at construction rather than per decode.
type AdjacencyList = Vec<Vec<(usize, f64, bool)>>;

/// The Union-Find decoder.
#[derive(Clone, Debug)]
pub struct UnionFindDecoder {
    adjacency: AdjacencyList,
    num_nodes: usize,
    /// Process-unique id (never reused; clones share it because they
    /// decode identically). A [`UfScratch`] keys its memos on it.
    identity: u64,
}

/// Longest defect list the syndrome memo keys (8 ids × 15 bits).
const MEMO_MAX_DEFECTS: usize = 8;
/// Defect ids are stored +1 in 15-bit fields, so ids must stay below
/// this for the key to be exact.
const MEMO_ID_LIMIT: usize = 0x7FFF;
/// Key bit holding the memoised prediction (above the 120 id bits).
const MEMO_FLIP: u128 = 1 << 127;

/// The exact memo key of a defect list, or `None` when the list is too
/// long or holds an id too large to pack. Ids are stored +1, so lists
/// of different lengths get different keys and no key is 0 (the empty
/// slot).
fn memo_key(defects: &[usize]) -> Option<u128> {
    if defects.len() > MEMO_MAX_DEFECTS {
        return None;
    }
    let mut key = 0u128;
    for (i, &d) in defects.iter().enumerate() {
        if d >= MEMO_ID_LIMIT {
            return None;
        }
        key |= ((d + 1) as u128) << (15 * i);
    }
    Some(key)
}

/// The deterministic per-decode statistics telemetry records.
#[derive(Clone, Copy, Debug)]
struct DecodeStats {
    growth_steps: u64,
    touched_nodes: u64,
    odd_peak: u64,
}

impl DecodeStats {
    const FIELD_BITS: u32 = 28;

    /// Packs the statistics into one memo word: 28 bits each for growth
    /// steps and touched nodes, 8 for the odd-cluster peak (at most the
    /// defect count). `None` when a count does not fit; such a decode
    /// is simply not memoised.
    fn pack(self) -> Option<u64> {
        let field = 1u64 << Self::FIELD_BITS;
        if self.growth_steps >= field || self.touched_nodes >= field || self.odd_peak >= 256 {
            return None;
        }
        Some(
            self.growth_steps
                | self.touched_nodes << Self::FIELD_BITS
                | self.odd_peak << (2 * Self::FIELD_BITS),
        )
    }

    fn unpack(word: u64) -> Self {
        let mask = (1u64 << Self::FIELD_BITS) - 1;
        DecodeStats {
            growth_steps: word & mask,
            touched_nodes: (word >> Self::FIELD_BITS) & mask,
            odd_peak: word >> (2 * Self::FIELD_BITS),
        }
    }
}

/// Reusable working set for [`UnionFindDecoder::decode_with`]: the
/// union-find arrays, the growth front, the contact forest, and the
/// pairing buffers, all sized to the graph (index `num_nodes` is the
/// virtual boundary node), plus the memos of the decoder it serves.
#[derive(Debug)]
pub struct UfScratch {
    num_nodes: usize,
    // Union-find state.
    parent: Vec<usize>,
    /// Defect-count parity per root.
    parity: Vec<bool>,
    /// Whether the cluster has absorbed the boundary.
    boundary: Vec<bool>,
    // Growth state.
    owner: Vec<usize>,
    dist: Vec<f64>,
    /// Observable parity of the growth path from the owner defect.
    path_parity: Vec<bool>,
    contacts: GrowthForest,
    heap: BinaryHeap<GrowItem>,
    /// Number of clusters that are still odd and boundary-free,
    /// maintained incrementally by [`UfScratch::union`]. Zero exactly
    /// when every defect's cluster is neutral (a cluster with odd
    /// parity always contains a defect), so growth can stop without
    /// re-scanning the defect list after every popped node.
    odd_clusters: usize,
    /// Nodes dirtied by the current decode; reset walks only these.
    touched: Vec<usize>,
    // Pairing state.
    roots: Vec<(usize, usize)>,
    pairs: Vec<(usize, usize, f64, bool)>,
    /// Per-node "still unpaired" flags; all false between clusters.
    unpaired: Vec<bool>,
    // Dijkstra-to-boundary fallback (rare; full reset per use).
    bp_dist: Vec<f64>,
    bp_parity: Vec<bool>,
    bp_heap: BinaryHeap<GrowItem>,
    /// Memoized `boundary_parity` answers (0 = unknown, 1 = false,
    /// 2 = true). A pure function of the graph and the source node, so
    /// this survives across decodes — deliberately NOT touched by
    /// `reset` — and heavy-load batches answer the fallback once per
    /// node instead of once per defect.
    bp_memo: Vec<u8>,
    /// Identity of the decoder the memos were filled for (0 = none).
    served: u64,
    /// Syndrome memo (see the module docs): per slot, the exact key of a
    /// decoded defect list with the prediction in [`MEMO_FLIP`], or 0
    /// for an empty slot. Allocated by the first batch decode, so the
    /// memo-free paths never pay for it.
    memo_keys: Vec<u128>,
    /// Packed [`DecodeStats`] of the decode that filled each slot.
    memo_stats: Vec<u64>,
    /// Telemetry sink (disabled by default: one branch per record).
    recorder: Recorder,
}

impl UfScratch {
    /// Fresh scratch for a graph with `num_nodes` detector nodes.
    ///
    /// Heap, contact, and pairing buffers get small up-front capacities:
    /// their sizes depend on the defect load, and first-touch growth
    /// would otherwise trickle allocations across many steady-state
    /// decodes before every node's buffer has been exercised.
    pub fn new(num_nodes: usize) -> Self {
        let n = num_nodes;
        UfScratch {
            num_nodes,
            parent: (0..=n).collect(),
            parity: vec![false; n + 1],
            boundary: (0..=n).map(|i| i == n).collect(),
            owner: vec![usize::MAX; n + 1],
            dist: vec![f64::INFINITY; n + 1],
            path_parity: vec![false; n + 1],
            contacts: (0..=n).map(|_| Vec::with_capacity(8)).collect(),
            heap: BinaryHeap::with_capacity(2 * (n + 1)),
            odd_clusters: 0,
            touched: Vec::with_capacity(n + 1),
            roots: Vec::with_capacity(16),
            pairs: Vec::with_capacity(16),
            unpaired: vec![false; n + 1],
            bp_dist: vec![f64::INFINITY; n + 1],
            bp_parity: vec![false; n + 1],
            bp_heap: BinaryHeap::with_capacity(n + 1),
            bp_memo: vec![0; n + 1],
            served: 0,
            memo_keys: Vec::new(),
            memo_stats: Vec::new(),
            recorder: Recorder::disabled(),
        }
    }

    /// Binds the scratch to the decoder with `identity`, forgetting
    /// every memo filled for another one: two graphs can share a node
    /// count (same topology, different error rates) but not answers.
    fn serve(&mut self, identity: u64) {
        if self.served != identity {
            self.served = identity;
            self.bp_memo.fill(0);
            self.memo_keys.fill(0);
        }
    }

    /// The syndrome-memo slot for `key`.
    fn memo_slot(&self, key: u128) -> usize {
        // Fold the 120 key bits and take the top bits of a
        // multiplicative hash (the table length is a power of two).
        let folded = (key as u64) ^ ((key >> 64) as u64).rotate_left(29);
        let hash = folded.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (hash >> (64 - self.memo_keys.len().trailing_zeros())) as usize
    }

    fn record(&self, stats: DecodeStats) {
        if self.recorder.is_enabled() {
            self.recorder.add(Metric::UfGrowthSteps, stats.growth_steps);
            self.recorder
                .add(Metric::UfTouchedNodes, stats.touched_nodes);
            self.recorder
                .gauge_max(Metric::UfOddClusterPeak, stats.odd_peak);
        }
    }

    /// Attaches a telemetry recorder; see [`DecoderScratch::set_recorder`].
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.recorder = recorder.clone();
    }

    /// Restores the invariant state by undoing only the entries the
    /// previous decode touched.
    fn reset(&mut self) {
        let n = self.num_nodes;
        for k in 0..self.touched.len() {
            let t = self.touched[k];
            self.parent[t] = t;
            self.parity[t] = false;
            self.boundary[t] = t == n;
            self.owner[t] = usize::MAX;
            self.dist[t] = f64::INFINITY;
            self.path_parity[t] = false;
            self.contacts[t].clear();
        }
        self.touched.clear();
        self.heap.clear();
        self.odd_clusters = 0;
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        let odd = |p: bool, bd: bool| usize::from(p && !bd);
        let before =
            odd(self.parity[ra], self.boundary[ra]) + odd(self.parity[rb], self.boundary[rb]);
        self.parent[rb] = ra;
        let p = self.parity[ra] ^ self.parity[rb];
        self.parity[ra] = p;
        let bd = self.boundary[ra] || self.boundary[rb];
        self.boundary[ra] = bd;
        // Every still-odd root is counted, so the subtraction is safe.
        self.odd_clusters -= before;
        self.odd_clusters += odd(p, bd);
    }
}

/// Stable sort that avoids `slice::sort_by`'s merge-buffer allocation
/// for the typical small case (keeping the batch decode loop
/// allocation-free) and falls back to it for the rare large cluster
/// where O(len²) insertion would dominate. Any two stable sorts produce
/// the identical permutation, so the cutover never changes results.
fn stable_sort_by<T: Copy>(items: &mut [T], less: impl Fn(&T, &T) -> bool) {
    const INSERTION_CUTOFF: usize = 32;
    if items.len() > INSERTION_CUTOFF {
        items.sort_by(|a, b| {
            if less(a, b) {
                Ordering::Less
            } else if less(b, a) {
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        });
        return;
    }
    for i in 1..items.len() {
        let item = items[i];
        let mut j = i;
        while j > 0 && less(&item, &items[j - 1]) {
            items[j] = items[j - 1];
            j -= 1;
        }
        items[j] = item;
    }
}

impl UnionFindDecoder {
    /// Builds a decoder for a sector graph.
    pub fn new(graph: &DecodingGraph) -> Self {
        static NEXT_IDENTITY: AtomicU64 = AtomicU64::new(1);
        UnionFindDecoder {
            adjacency: graph.adjacency(),
            num_nodes: graph.num_nodes(),
            identity: NEXT_IDENTITY.fetch_add(1, AtomicOrdering::Relaxed),
        }
    }

    /// [`Decoder::decode`] against caller-owned scratch: bit-identical
    /// prediction, O(nodes reached) reset cost, no allocation in steady
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was built for a different graph size.
    pub fn decode_with(&self, defects: &[usize], scratch: &mut UfScratch) -> bool {
        assert_eq!(
            scratch.num_nodes, self.num_nodes,
            "UfScratch built for a different graph"
        );
        scratch.serve(self.identity);
        if defects.is_empty() {
            return false;
        }
        let (flip, stats) = self.decode_fresh(defects, scratch);
        scratch.record(stats);
        flip
    }

    /// One full decode of a non-empty defect list against a scratch
    /// already bound to this decoder; returns the prediction and the
    /// statistics to record.
    fn decode_fresh(&self, defects: &[usize], scratch: &mut UfScratch) -> (bool, DecodeStats) {
        scratch.reset();
        let (growth_steps, odd_peak) = self.grow(defects, scratch);
        let stats = DecodeStats {
            growth_steps,
            touched_nodes: scratch.touched.len() as u64,
            odd_peak,
        };
        (self.pair_and_predict(defects, scratch), stats)
    }

    /// [`UnionFindDecoder::decode_fresh`] through the syndrome memo,
    /// recording the same statistics on a hit as on a miss.
    fn decode_memoised(&self, defects: &[usize], scratch: &mut UfScratch) -> bool {
        let memo = memo_key(defects).map(|key| (key, scratch.memo_slot(key)));
        if let Some((key, slot)) = memo {
            scratch.recorder.incr(Metric::UfMemoLookups);
            let stored = scratch.memo_keys[slot];
            if stored & !MEMO_FLIP == key {
                scratch.recorder.incr(Metric::UfMemoHits);
                scratch.record(DecodeStats::unpack(scratch.memo_stats[slot]));
                return stored & MEMO_FLIP != 0;
            }
        }
        let (flip, stats) = self.decode_fresh(defects, scratch);
        scratch.record(stats);
        if let (Some((key, slot)), Some(packed)) = (memo, stats.pack()) {
            scratch.memo_keys[slot] = if flip { key | MEMO_FLIP } else { key };
            scratch.memo_stats[slot] = packed;
        }
        flip
    }

    /// Grows clusters until all are neutral, recording for every node
    /// reached the defect it was reached from with path parity (the
    /// growth forest lands in `scratch.contacts`). Returns the number
    /// of growth steps (heap pops) and the peak odd-cluster count, for
    /// telemetry.
    fn grow(&self, defects: &[usize], scratch: &mut UfScratch) -> (u64, u64) {
        let n = self.num_nodes;
        let boundary_node = n;
        // Multi-source Dijkstra-style growth: each defect grows a region;
        // when two regions meet (edge fully covered from both sides, here
        // approximated by first contact), the clusters merge.
        for &d in defects {
            scratch.touched.push(d);
            scratch.parity[d] = true;
            scratch.owner[d] = d;
            scratch.dist[d] = 0.0;
            scratch.odd_clusters += 1;
            scratch.heap.push(GrowItem {
                dist: 0.0,
                node: d,
                src: d,
            });
        }
        let mut growth_steps = 0u64;
        let mut odd_peak = scratch.odd_clusters as u64;
        while let Some(GrowItem {
            dist: dcur,
            node,
            src,
        }) = scratch.heap.pop()
        {
            growth_steps += 1;
            odd_peak = odd_peak.max(scratch.odd_clusters as u64);
            if scratch.owner[node] != src && scratch.owner[node] != usize::MAX {
                continue;
            }
            if node == boundary_node {
                continue;
            }
            for &(nb, w, obs) in &self.adjacency[node] {
                let nbi = if nb == BOUNDARY { boundary_node } else { nb };
                let nd = dcur + w;
                if scratch.owner[nbi] == usize::MAX {
                    scratch.touched.push(nbi);
                    scratch.owner[nbi] = src;
                    scratch.dist[nbi] = nd;
                    scratch.path_parity[nbi] = scratch.path_parity[node] ^ obs;
                    scratch.union(src, nbi);
                    if nbi != boundary_node {
                        scratch.heap.push(GrowItem {
                            dist: nd,
                            node: nbi,
                            src,
                        });
                    }
                } else if scratch.find(scratch.owner[nbi]) != scratch.find(src) {
                    // Two regions touch: merge their clusters and record
                    // the contact (total path defect->defect parity).
                    let contact_parity = scratch.path_parity[node] ^ obs ^ scratch.path_parity[nbi];
                    let contact_dist = nd + scratch.dist[nbi];
                    let other = scratch.owner[nbi];
                    scratch.union(src, other);
                    scratch.contacts[src].push((other, contact_dist, contact_parity));
                    scratch.contacts[other].push((src, contact_dist, contact_parity));
                }
            }
            // Stop early if every defect's cluster is neutral. The
            // incrementally maintained odd-cluster count hits zero at
            // exactly the same pop as the original per-defect
            // `is_neutral` re-scan, without the O(defects) walk.
            if scratch.odd_clusters == 0 {
                break;
            }
        }
        // Boundary contact: a region that reached the boundary records a
        // contact to the virtual boundary defect for its owner.
        if scratch.owner[boundary_node] != usize::MAX {
            let d = scratch.owner[boundary_node];
            let bc = (
                boundary_node,
                scratch.dist[boundary_node],
                scratch.path_parity[boundary_node],
            );
            scratch.contacts[d].push(bc);
        }
        (growth_steps, odd_peak)
    }

    /// Predicts the logical flip by pairing defects within clusters along
    /// the recorded contact forest.
    fn pair_and_predict(&self, defects: &[usize], scratch: &mut UfScratch) -> bool {
        let boundary_node = self.num_nodes;
        // Group defects by cluster root: stable-sorted (root, defect)
        // pairs give the same ascending-root, insertion-ordered grouping
        // a BTreeMap<root, Vec<defect>> would, without the tree.
        scratch.roots.clear();
        for &d in defects {
            let r = scratch.find(d);
            scratch.roots.push((r, d));
        }
        stable_sort_by(&mut scratch.roots, |a, b| a.0 < b.0);
        let mut flip = false;
        let mut i = 0;
        while i < scratch.roots.len() {
            let mut j = i + 1;
            while j < scratch.roots.len() && scratch.roots[j].0 == scratch.roots[i].0 {
                j += 1;
            }
            // Pair members greedily along contact edges (spanning-tree
            // peeling): repeatedly take the cheapest contact between two
            // unpaired members; leftovers go to the boundary contact.
            scratch.pairs.clear();
            for k in i..j {
                let m = scratch.roots[k].1;
                scratch.unpaired[m] = true;
                for &(other, d, p) in &scratch.contacts[m] {
                    if other != boundary_node && m < other {
                        scratch.pairs.push((m, other, d, p));
                    }
                }
            }
            stable_sort_by(&mut scratch.pairs, |a, b| {
                a.2.partial_cmp(&b.2).unwrap_or(Ordering::Equal) == Ordering::Less
            });
            for idx in 0..scratch.pairs.len() {
                let (a, b, _, p) = scratch.pairs[idx];
                if scratch.unpaired[a] && scratch.unpaired[b] {
                    scratch.unpaired[a] = false;
                    scratch.unpaired[b] = false;
                    flip ^= p;
                }
            }
            // Remaining defects: send to boundary via their recorded (or
            // nearest) boundary parity.
            for k in i..j {
                let m = scratch.roots[k].1;
                if scratch.unpaired[m] {
                    scratch.unpaired[m] = false;
                    let recorded = scratch.contacts[m]
                        .iter()
                        .find(|(other, _, _)| *other == boundary_node)
                        .map(|&(_, _, p)| p);
                    match recorded {
                        Some(p) => flip ^= p,
                        // Fall back to a direct Dijkstra to the boundary.
                        None => flip ^= self.boundary_parity(m, scratch),
                    }
                }
            }
            i = j;
        }
        flip
    }

    /// Dijkstra fallback: observable parity of the shortest path from a
    /// node to the boundary. Pure in the graph and `src`, so answers are
    /// memoized in the scratch across decodes.
    fn boundary_parity(&self, src: usize, scratch: &mut UfScratch) -> bool {
        match scratch.bp_memo[src] {
            1 => return false,
            2 => return true,
            _ => {}
        }
        let parity = self.boundary_parity_dijkstra(src, scratch);
        scratch.bp_memo[src] = if parity { 2 } else { 1 };
        parity
    }

    fn boundary_parity_dijkstra(&self, src: usize, scratch: &mut UfScratch) -> bool {
        let n = self.num_nodes;
        scratch.bp_dist.fill(f64::INFINITY);
        scratch.bp_parity.fill(false);
        scratch.bp_heap.clear();
        scratch.bp_dist[src] = 0.0;
        scratch.bp_heap.push(GrowItem {
            dist: 0.0,
            node: src,
            src,
        });
        while let Some(GrowItem { dist: d, node, .. }) = scratch.bp_heap.pop() {
            if node == n {
                return scratch.bp_parity[n];
            }
            if d > scratch.bp_dist[node] {
                continue;
            }
            for &(nb, w, obs) in &self.adjacency[node] {
                let nbi = if nb == BOUNDARY { n } else { nb };
                if d + w < scratch.bp_dist[nbi] {
                    scratch.bp_dist[nbi] = d + w;
                    scratch.bp_parity[nbi] = scratch.bp_parity[node] ^ obs;
                    scratch.bp_heap.push(GrowItem {
                        dist: d + w,
                        node: nbi,
                        src,
                    });
                }
            }
        }
        false
    }
}

impl Decoder for UnionFindDecoder {
    fn decode(&self, defects: &[usize]) -> bool {
        if defects.is_empty() {
            return false;
        }
        let mut scratch = UfScratch::new(self.num_nodes);
        self.decode_with(defects, &mut scratch)
    }

    fn make_scratch(&self) -> DecoderScratch {
        DecoderScratch::UnionFind(Box::new(UfScratch::new(self.num_nodes)))
    }

    fn decode_batch(
        &self,
        defects_per_lane: &[Vec<usize>],
        scratch: &mut DecoderScratch,
        out: &mut [u64],
    ) {
        match scratch {
            DecoderScratch::UnionFind(s) if s.num_nodes == self.num_nodes => {
                // The span owns its own recorder handle, so the borrow
                // of `s` stays free for the per-lane decode loop.
                let _span = s.recorder.span(Metric::DecodeBatchNanos);
                s.serve(self.identity);
                if s.memo_keys.is_empty() {
                    let slots = (16 * (self.num_nodes + 1))
                        .next_power_of_two()
                        .clamp(64, 2048);
                    s.memo_keys = vec![0; slots];
                    s.memo_stats = vec![0; slots];
                }
                let words = defects_per_lane.len().div_ceil(64);
                out[..words].fill(0);
                for (lane, defects) in defects_per_lane.iter().enumerate() {
                    if !defects.is_empty() && self.decode_memoised(defects, s) {
                        out[lane / 64] |= 1u64 << (lane % 64);
                    }
                }
            }
            _ => crate::decode_batch_fallback(self, defects_per_lane, out),
        }
    }
}

struct GrowItem {
    dist: f64,
    node: usize,
    src: usize,
}

impl PartialEq for GrowItem {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for GrowItem {}
impl PartialOrd for GrowItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for GrowItem {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
    }
}

impl std::fmt::Debug for GrowItem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GrowItem")
            .field("dist", &self.dist)
            .field("node", &self.node)
            .field("src", &self.src)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DecodingGraph;
    use crate::mwpm::MwpmDecoder;
    use vlq_arch::params::HardwareParams;
    use vlq_circuit::noise::NoiseModel;
    use vlq_surface::schedule::{memory_circuit, Basis, MemorySpec, Setup};

    fn graph_for(d: usize, p: f64) -> DecodingGraph {
        let spec = MemorySpec::standard(Setup::Baseline, d, 1, Basis::Z);
        let mc = memory_circuit(spec, &HardwareParams::baseline());
        let noisy = NoiseModel::baseline_at_scale(p).apply(&mc.circuit);
        DecodingGraph::build(&noisy, &mc.z_detectors)
    }

    #[test]
    fn empty_defects_no_flip() {
        let g = graph_for(3, 1e-3);
        let dec = UnionFindDecoder::new(&g);
        assert!(!dec.decode(&[]));
    }

    #[test]
    fn agrees_with_mwpm_on_single_faults() {
        let g = graph_for(3, 1e-3);
        let uf = UnionFindDecoder::new(&g);
        let mw = MwpmDecoder::new(&g);
        for (&(a, b), _) in g.iter_edges() {
            let defects: Vec<usize> = if b == crate::graph::BOUNDARY {
                vec![a]
            } else {
                vec![a, b]
            };
            assert_eq!(
                uf.decode(&defects),
                mw.decode(&defects),
                "disagree on edge ({a},{b})"
            );
        }
    }

    #[test]
    fn mostly_agrees_with_mwpm_on_random_sparse_defects() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let g = graph_for(5, 2e-3);
        let uf = UnionFindDecoder::new(&g);
        let mw = MwpmDecoder::new(&g);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut agree = 0;
        let trials = 200;
        for _ in 0..trials {
            // Sparse random defect sets (2-4 defects).
            let k = rng.random_range(1..3usize) * 2;
            let mut defects: Vec<usize> = Vec::new();
            while defects.len() < k {
                let d = rng.random_range(0..g.num_nodes());
                if !defects.contains(&d) {
                    defects.push(d);
                }
            }
            if uf.decode(&defects) == mw.decode(&defects) {
                agree += 1;
            }
        }
        // UF is approximate, but on sparse defects it should agree with
        // MWPM the vast majority of the time.
        assert!(agree * 10 >= trials * 8, "agreement {agree}/{trials}");
    }

    /// A scratch reused across many decodes must give the same answer
    /// as a fresh scratch per decode (the touched-list reset is exact).
    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let g = graph_for(5, 2e-3);
        let uf = UnionFindDecoder::new(&g);
        let mut rng = SmallRng::seed_from_u64(17);
        let mut reused = UfScratch::new(g.num_nodes());
        for _ in 0..300 {
            let k = rng.random_range(0..7usize);
            let mut defects: Vec<usize> = Vec::new();
            while defects.len() < k {
                let d = rng.random_range(0..g.num_nodes());
                if !defects.contains(&d) {
                    defects.push(d);
                }
            }
            defects.sort_unstable();
            let fresh = uf.decode(&defects);
            let hot = if defects.is_empty() {
                false
            } else {
                uf.decode_with(&defects, &mut reused)
            };
            assert_eq!(fresh, hot, "defects {defects:?}");
        }
    }
}
