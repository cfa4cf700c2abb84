//! Minimum-weight perfect-matching decoder.
//!
//! Decodes a defect set on a [`DecodingGraph`]: Dijkstra shortest paths
//! give the pairwise defect distances (and each defect's distance to the
//! virtual boundary, plus the logical-observable parity along those
//! paths); exact minimum-weight perfect matching over the defects plus
//! mirrored boundary copies (the standard construction) selects the most
//! likely error. The decoder reports only what the harness needs: the
//! predicted logical flip.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use vlq_telemetry::{Metric, Recorder};

use crate::blossom::Matcher;
use crate::graph::{DecodingGraph, BOUNDARY};
use crate::{Decoder, DecoderScratch};

/// Fixed-point scale when converting float weights to integers for the
/// exact matcher.
const WEIGHT_SCALE: f64 = (1u64 << 20) as f64;

/// The MWPM decoder (the paper's maximum-likelihood matching decoder).
///
/// All-pairs shortest paths (distance and observable parity) are
/// precomputed at construction so that per-shot decoding reduces to one
/// exact matching over the defects.
#[derive(Clone, Debug)]
pub struct MwpmDecoder {
    adjacency: Vec<Vec<(usize, f64, bool)>>,
    num_nodes: usize,
    /// `(n+1) x (n+1)` distance table (last row/col = boundary).
    all_dist: Vec<f64>,
    /// Observable parity along those shortest paths.
    all_parity: Vec<bool>,
}

/// Reusable working set for [`MwpmDecoder::decode_detailed_with`]: the
/// matching-instance edge buffer and the blossom [`Matcher`], whose
/// dense per-node state is cleared and refilled per decode instead of
/// reallocated. Once both have grown to the largest instance seen,
/// MWPM batch decoding allocates nothing (see `docs/perf.md`).
#[derive(Debug, Default)]
pub struct MwpmScratch {
    edges: Vec<(usize, usize, i64)>,
    matcher: Matcher,
    /// Telemetry sink (disabled by default: one branch per record).
    recorder: Recorder,
}

impl MwpmScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        MwpmScratch::default()
    }

    /// Attaches a telemetry recorder; see [`DecoderScratch::set_recorder`].
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.recorder = recorder.clone();
    }

    /// The matching instance of the last decode with at least one
    /// defect, and the perfect matching found for it: `(u, v, weight)`
    /// edges over defects `0..m` and their boundary copies `m..2m`, and
    /// `mate[node]` for every node.
    pub fn last_matching(&self) -> (&[(usize, usize, i64)], &[usize]) {
        (&self.edges, &self.matcher.perfect)
    }
}

/// Result of a Dijkstra run from one source.
struct ShortestPaths {
    /// `dist[node]`; last entry is the boundary.
    dist: Vec<f64>,
    /// Observable parity along the shortest path.
    parity: Vec<bool>,
}

impl MwpmDecoder {
    /// Builds a decoder for a sector graph, precomputing all-pairs
    /// shortest paths.
    pub fn new(graph: &DecodingGraph) -> Self {
        let mut dec = MwpmDecoder {
            adjacency: graph.adjacency(),
            num_nodes: graph.num_nodes(),
            all_dist: Vec::new(),
            all_parity: Vec::new(),
        };
        let n = dec.num_nodes;
        let stride = n + 1;
        dec.all_dist = vec![f64::INFINITY; stride * stride];
        dec.all_parity = vec![false; stride * stride];
        for src in 0..n {
            let sp = dec.shortest_paths(src);
            for node in 0..stride {
                dec.all_dist[src * stride + node] = sp.dist[node];
                dec.all_parity[src * stride + node] = sp.parity[node];
            }
        }
        dec
    }

    #[inline]
    fn dist_between(&self, a: usize, b: usize) -> f64 {
        self.all_dist[a * (self.num_nodes + 1) + b]
    }

    #[inline]
    fn parity_between(&self, a: usize, b: usize) -> bool {
        self.all_parity[a * (self.num_nodes + 1) + b]
    }

    /// Dijkstra from `src` over nodes `0..n` plus boundary node `n`.
    fn shortest_paths(&self, src: usize) -> ShortestPaths {
        let n = self.num_nodes;
        let boundary = n;
        let mut dist = vec![f64::INFINITY; n + 1];
        let mut parity = vec![false; n + 1];
        let mut done = vec![false; n + 1];
        let mut heap: BinaryHeap<HeapItem> = BinaryHeap::new();
        dist[src] = 0.0;
        heap.push(HeapItem {
            dist: 0.0,
            node: src,
        });
        while let Some(HeapItem { dist: d, node }) = heap.pop() {
            if done[node] {
                continue;
            }
            done[node] = true;
            if node == boundary {
                continue; // paths through the boundary are not allowed
            }
            for &(nb, w, obs) in &self.adjacency[node] {
                let nb = if nb == BOUNDARY { boundary } else { nb };
                let nd = d + w;
                if nd < dist[nb] {
                    dist[nb] = nd;
                    parity[nb] = parity[node] ^ obs;
                    heap.push(HeapItem { dist: nd, node: nb });
                }
            }
        }
        ShortestPaths { dist, parity }
    }

    /// Decodes with full output: predicted observable flip and the total
    /// matching weight (useful for diagnostics and tests).
    pub fn decode_detailed(&self, defects: &[usize]) -> (bool, f64) {
        self.decode_detailed_with(defects, &mut MwpmScratch::new())
    }

    /// [`MwpmDecoder::decode_detailed`] against caller-owned scratch:
    /// bit-identical output, with the matching-instance edge buffer and
    /// the blossom matcher reused across calls.
    pub fn decode_detailed_with(
        &self,
        defects: &[usize],
        scratch: &mut MwpmScratch,
    ) -> (bool, f64) {
        let m = defects.len();
        if m == 0 {
            return (false, 0.0);
        }
        let boundary = self.num_nodes;
        // Matching instance: nodes 0..m are defects, m..2m boundary
        // copies. Defect-defect edges use pairwise distances; defect i
        // connects to its boundary copy at its boundary distance;
        // boundary copies pair up freely at zero weight.
        // Unreachable nodes (infinite distance) get no edge at all.
        let edges = &mut scratch.edges;
        edges.clear();
        edges.reserve(m * m);
        let scale = |w: f64| (w * WEIGHT_SCALE).round() as i64;
        for i in 0..m {
            for j in (i + 1)..m {
                let w = self.dist_between(defects[i], defects[j]);
                if w.is_finite() {
                    edges.push((i, j, scale(w)));
                }
                edges.push((m + i, m + j, 0));
            }
            let wb = self.dist_between(defects[i], boundary);
            if wb.is_finite() {
                edges.push((i, m + i, scale(wb)));
            }
        }
        scratch.recorder.incr(Metric::MwpmBlossomCalls);
        let mate = scratch
            .matcher
            .min_weight_perfect_matching(edges)
            .expect("decoding graph must admit a perfect matching");
        let mut flip = false;
        let mut total = 0.0;
        for i in 0..m {
            let partner = mate[i];
            match partner.cmp(&m) {
                Ordering::Less => {
                    if partner > i {
                        flip ^= self.parity_between(defects[i], defects[partner]);
                        total += self.dist_between(defects[i], defects[partner]);
                    }
                }
                _ => {
                    // Matched to its boundary copy.
                    debug_assert_eq!(partner, m + i);
                    flip ^= self.parity_between(defects[i], boundary);
                    total += self.dist_between(defects[i], boundary);
                }
            }
        }
        (flip, total)
    }
}

impl Decoder for MwpmDecoder {
    fn decode(&self, defects: &[usize]) -> bool {
        self.decode_detailed(defects).0
    }

    fn make_scratch(&self) -> DecoderScratch {
        DecoderScratch::Mwpm(Box::default())
    }

    fn decode_batch(
        &self,
        defects_per_lane: &[Vec<usize>],
        scratch: &mut DecoderScratch,
        out: &mut [u64],
    ) {
        match scratch {
            DecoderScratch::Mwpm(s) => {
                // The span owns its own recorder handle, so the borrow
                // of `s` stays free for the per-lane decode loop.
                let _span = s.recorder.span(Metric::DecodeBatchNanos);
                let words = defects_per_lane.len().div_ceil(64);
                out[..words].fill(0);
                for (lane, defects) in defects_per_lane.iter().enumerate() {
                    if self.decode_detailed_with(defects, s).0 {
                        out[lane / 64] |= 1u64 << (lane % 64);
                    }
                }
            }
            _ => crate::decode_batch_fallback(self, defects_per_lane, out),
        }
    }
}

/// Max-heap item ordered by smallest distance first.
struct HeapItem {
    dist: f64,
    node: usize,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap behavior.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DecodingGraph;
    use vlq_arch::params::HardwareParams;
    use vlq_circuit::noise::NoiseModel;
    use vlq_surface::schedule::{memory_circuit, Basis, MemorySpec, Setup};

    fn decoder_for(d: usize, p: f64) -> (MwpmDecoder, DecodingGraph) {
        let spec = MemorySpec::standard(Setup::Baseline, d, 1, Basis::Z);
        let mc = memory_circuit(spec, &HardwareParams::baseline());
        let noisy = NoiseModel::baseline_at_scale(p).apply(&mc.circuit);
        let g = DecodingGraph::build(&noisy, &mc.z_detectors);
        (MwpmDecoder::new(&g), g)
    }

    #[test]
    fn empty_defects_no_flip() {
        let (dec, _) = decoder_for(3, 1e-3);
        assert!(!dec.decode(&[]));
    }

    #[test]
    fn single_edge_defect_pairs_match_their_edge() {
        // For every edge (a, b) of the graph, decoding the defect set it
        // produces must predict exactly that edge's observable parity
        // (a single fault is its own most likely explanation).
        let (dec, g) = decoder_for(3, 1e-3);
        for (&(a, b), e) in g.iter_edges() {
            let defects: Vec<usize> = if b == crate::graph::BOUNDARY {
                vec![a]
            } else {
                vec![a, b]
            };
            let (flip, weight) = dec.decode_detailed(&defects);
            assert_eq!(
                flip, e.flips_observable,
                "edge ({a},{b}) decoded wrong parity"
            );
            assert!(weight <= e.weight + 1e-9, "matching found heavier path");
        }
    }

    #[test]
    fn two_far_defect_pairs_decode_independently() {
        let (dec, g) = decoder_for(5, 1e-3);
        // Pick two disjoint non-boundary edges far apart; decoding the
        // union must XOR their parities.
        let edges: Vec<(usize, usize, bool)> = g
            .iter_edges()
            .filter(|(&(_, b), _)| b != crate::graph::BOUNDARY)
            .map(|(&(a, b), e)| (a, b, e.flips_observable))
            .collect();
        let mut found = false;
        'outer: for &(a1, b1, o1) in &edges {
            for &(a2, b2, o2) in &edges {
                if [a2, b2].iter().any(|x| *x == a1 || *x == b1) {
                    continue;
                }
                let flip = dec.decode(&[a1, b1, a2, b2]);
                // The decoder may find a cheaper global pairing, but for
                // *some* disjoint pair choice the independent explanation
                // holds; assert at least one instance.
                if flip == (o1 ^ o2) {
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(found);
    }

    #[test]
    fn decoding_is_deterministic() {
        let (dec, g) = decoder_for(3, 2e-3);
        let defects: Vec<usize> = (0..g.num_nodes().min(4)).collect();
        let a = dec.decode(&defects);
        for _ in 0..5 {
            assert_eq!(dec.decode(&defects), a);
        }
    }
}
