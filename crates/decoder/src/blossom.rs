//! Maximum-weight matching in general graphs (the Blossom algorithm).
//!
//! A faithful Rust port of the Galil / van Rantwijk primal-dual
//! implementation in the formulation used by NetworkX's
//! `max_weight_matching` (node-pair label edges rather than endpoint
//! indices). With `max_cardinality = true` and transformed weights
//! `w' = C - w` it yields the *minimum-weight perfect matching* the
//! surface-code MWPM decoder needs (see [`crate::mwpm`]).
//!
//! Weights are `i64`; callers scale float weights (the decoder multiplies
//! log-odds weights by 2^20 and rounds). Vertex duals are stored doubled
//! so that all arithmetic stays integral.
//!
//! All state is dense and index-addressed: per-node arrays indexed by
//! node id (vertices `0..n`, blossoms `n..2n`), an `n × n` weight matrix
//! and an `n × n` bitset of tight edges. A [`Matcher`] owns these
//! buffers and reuses them across solves, so a caller that keeps one
//! matcher matches without allocating once the buffers have grown to
//! the largest instance seen.
//!
//! Tie-breaking follows traversal order, and every traversal runs over
//! vertices, blossom slots or per-node arrays in ascending id order —
//! never over a hash container, whose per-process iteration order made
//! equally-minimal matchings (which can differ in logical class) flaky
//! across runs.

/// Computes a maximum-weight matching of an undirected graph.
///
/// `edges` is a list of `(u, v, weight)` with `u != v`; vertices are
/// `0..n` where `n` is one more than the largest endpoint. Duplicate
/// edges keep the last weight. Returns `mate`, where `mate[v] = Some(u)`
/// if `v` is matched to `u`.
///
/// If `max_cardinality` is true, only maximum-cardinality matchings are
/// considered (and among those, weight is maximized).
///
/// # Panics
///
/// Panics on self-loops.
pub fn max_weight_matching(
    edges: &[(usize, usize, i64)],
    max_cardinality: bool,
) -> Vec<Option<usize>> {
    Matcher::new()
        .max_weight_matching(edges, max_cardinality)
        .to_vec()
}

/// Minimum-weight perfect matching via weight inversion.
///
/// Returns `mate[v] = u` for every vertex, or `None` if no perfect
/// matching exists.
pub fn min_weight_perfect_matching(edges: &[(usize, usize, i64)]) -> Option<Vec<usize>> {
    Matcher::new()
        .min_weight_perfect_matching(edges)
        .map(<[usize]>::to_vec)
}

/// Node id: vertices are `0..n`; blossoms are `n + index`.
type Node = usize;

const S: u8 = 1;
const T: u8 = 2;
const BREADCRUMB: u8 = 5;
/// `Matcher::wt` entry of a vertex pair without an edge.
const NO_EDGE: i64 = i64::MIN;

#[derive(Clone, Debug, Default)]
struct BlossomData {
    /// Ordered sub-blossoms, starting with the base.
    childs: Vec<Node>,
    /// `edges[i] = (v, w)`: v in childs[i], w in childs[wrap(i+1)].
    edges: Vec<(usize, usize)>,
    /// Least-slack edges to neighboring S-blossoms (meaningful only
    /// while `has_mybestedges`).
    mybestedges: Vec<(usize, usize)>,
    has_mybestedges: bool,
    active: bool,
}

/// Unordered vertex pairs of an `n`-vertex graph, as an `n × n` bitset.
#[derive(Debug, Default)]
struct PairSet {
    n: usize,
    words: Vec<u64>,
}

impl PairSet {
    fn reset(&mut self, n: usize) {
        self.n = n;
        self.words.clear();
        self.words.resize((n * n).div_ceil(64), 0);
    }

    fn bit(&self, a: usize, b: usize) -> usize {
        a.min(b) * self.n + a.max(b)
    }

    fn contains(&self, a: usize, b: usize) -> bool {
        let i = self.bit(a, b);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    fn insert(&mut self, a: usize, b: usize) {
        let i = self.bit(a, b);
        self.words[i / 64] |= 1 << (i % 64);
    }
}

/// Appends the vertices inside node `b` to `out`, in sub-blossom order.
fn push_leaves(blossoms: &[BlossomData], n: usize, b: Node, out: &mut Vec<usize>) {
    if b < n {
        out.push(b);
    } else {
        for &c in &blossoms[b - n].childs {
            push_leaves(blossoms, n, c, out);
        }
    }
}

/// A reusable blossom matcher: owns every buffer a solve needs and
/// keeps them (cleared, capacity retained) for the next solve. Results
/// are identical to a fresh matcher's.
#[derive(Debug, Default)]
pub struct Matcher {
    n: usize,
    max_cardinality: bool,
    neighbors: Vec<Vec<usize>>,
    /// `wt[v * n + w]`: weight of edge (v, w), stored in both
    /// orientations; `NO_EDGE` where there is none.
    wt: Vec<i64>,
    mate: Vec<Option<usize>>,
    /// `mate` of the last successful perfect matching, unwrapped.
    pub(crate) perfect: Vec<usize>,
    label: Vec<u8>,
    labeledge: Vec<Option<(usize, usize)>>,
    inblossom: Vec<Node>,
    blossomparent: Vec<Option<Node>>,
    blossombase: Vec<usize>,
    bestedge: Vec<Option<(usize, usize)>>,
    dualvar: Vec<i64>,
    blossomdual: Vec<i64>,
    allowedge: PairSet,
    queue: Vec<usize>,
    /// Blossom slots: blossom `n + i` lives in `blossoms[i]`, and only
    /// the first `num_blossoms` slots belong to the current solve.
    blossoms: Vec<BlossomData>,
    num_blossoms: usize,
    free_blossoms: Vec<Node>,
    /// `add_blossom` working set: least-slack edge to each neighboring
    /// S-node, walked in ascending node order and left all-`None`.
    bestedgeto: Vec<Option<(usize, usize)>>,
    scan_path: Vec<Node>,
    leaves: Vec<usize>,
}

impl Matcher {
    /// An empty matcher; buffers grow on first use.
    pub fn new() -> Self {
        Matcher::default()
    }

    /// [`max_weight_matching`] on this matcher's buffers.
    pub fn max_weight_matching(
        &mut self,
        edges: &[(usize, usize, i64)],
        max_cardinality: bool,
    ) -> &[Option<usize>] {
        self.load(edges, max_cardinality, |w| w);
        self.run();
        &self.mate
    }

    /// [`min_weight_perfect_matching`] on this matcher's buffers.
    pub fn min_weight_perfect_matching(
        &mut self,
        edges: &[(usize, usize, i64)],
    ) -> Option<&[usize]> {
        let max_w = edges.iter().map(|e| e.2).max().unwrap_or(0);
        self.load(edges, true, |w| max_w + 1 - w);
        self.run();
        self.perfect.clear();
        for &m in &self.mate {
            self.perfect.push(m?);
        }
        Some(&self.perfect)
    }

    /// Resets every buffer for a graph with `edges`, whose weights are
    /// mapped through `weight_of` as they load.
    fn load(
        &mut self,
        edges: &[(usize, usize, i64)],
        max_cardinality: bool,
        weight_of: impl Fn(i64) -> i64,
    ) {
        let mut n = 0usize;
        for &(i, j, _) in edges {
            assert_ne!(i, j, "self-loop in matching graph");
            n = n.max(i + 1).max(j + 1);
        }
        self.n = n;
        self.max_cardinality = max_cardinality;
        if self.neighbors.len() < n {
            self.neighbors.resize_with(n, Vec::new);
        }
        for nb in &mut self.neighbors[..n] {
            nb.clear();
        }
        reset(&mut self.wt, n * n, NO_EDGE);
        let mut maxweight = 0i64;
        for &(i, j, w) in edges {
            let w = weight_of(w);
            debug_assert_ne!(w, NO_EDGE, "weight out of range");
            if self.wt[i * n + j] == NO_EDGE {
                self.neighbors[i].push(j);
                self.neighbors[j].push(i);
            }
            self.wt[i * n + j] = w;
            self.wt[j * n + i] = w;
            maxweight = maxweight.max(w);
        }
        reset(&mut self.mate, n, None);
        reset(&mut self.dualvar, n, maxweight);
        self.inblossom.clear();
        self.inblossom.extend(0..n);
        let nodes = 2 * n;
        reset(&mut self.label, nodes, 0);
        reset(&mut self.labeledge, nodes, None);
        reset(&mut self.blossomparent, nodes, None);
        reset(&mut self.bestedge, nodes, None);
        reset(&mut self.blossomdual, nodes, 0);
        reset(&mut self.bestedgeto, nodes, None);
        self.blossombase.clear();
        self.blossombase.extend(0..n);
        self.blossombase.resize(nodes, usize::MAX);
        self.queue.clear();
        self.num_blossoms = 0;
        self.free_blossoms.clear();
    }

    /// 2 * slack of edge (v, w); only valid outside blossoms.
    fn slack(&self, v: usize, w: usize) -> i64 {
        self.dualvar[v] + self.dualvar[w] - 2 * self.wt[v * self.n + w]
    }

    fn bdata(&self, b: Node) -> &BlossomData {
        &self.blossoms[b - self.n]
    }

    fn bdata_mut(&mut self, b: Node) -> &mut BlossomData {
        let n = self.n;
        &mut self.blossoms[b - n]
    }

    /// The vertices inside node `b`, in the shared leaves buffer; hand
    /// it back with `self.leaves = leaves` when done.
    fn take_leaves(&mut self, b: Node) -> Vec<usize> {
        let mut leaves = std::mem::take(&mut self.leaves);
        leaves.clear();
        push_leaves(&self.blossoms, self.n, b, &mut leaves);
        leaves
    }

    /// Child `j` (taken cyclically) of blossom `b`.
    fn child(&self, b: Node, j: i64) -> Node {
        let childs = &self.bdata(b).childs;
        childs[j.rem_euclid(childs.len() as i64) as usize]
    }

    /// The edge from child `j` to child `j + jstep` of blossom `b`,
    /// oriented along the step.
    fn step_edge(&self, b: Node, j: i64, jstep: i64) -> (usize, usize) {
        let edges = &self.bdata(b).edges;
        let len = edges.len() as i64;
        if jstep == 1 {
            edges[j.rem_euclid(len) as usize]
        } else {
            let (x, y) = edges[(j - 1).rem_euclid(len) as usize];
            (y, x)
        }
    }

    fn child_position(&self, b: Node, c: Node) -> i64 {
        self.bdata(b)
            .childs
            .iter()
            .position(|&x| x == c)
            .expect("child of blossom") as i64
    }

    fn new_blossom(&mut self) -> Node {
        let b = match self.free_blossoms.pop() {
            Some(b) => b,
            None => {
                debug_assert!(self.num_blossoms < self.n, "too many blossoms");
                if self.num_blossoms == self.blossoms.len() {
                    self.blossoms.push(BlossomData::default());
                }
                self.num_blossoms += 1;
                self.n + self.num_blossoms - 1
            }
        };
        let bd = self.bdata_mut(b);
        bd.childs.clear();
        bd.edges.clear();
        bd.mybestedges.clear();
        bd.has_mybestedges = false;
        bd.active = true;
        b
    }

    fn assign_label(&mut self, w: usize, t: u8, v: Option<usize>) {
        let b = self.inblossom[w];
        debug_assert!(self.label[w] == 0 && self.label[b] == 0);
        self.label[w] = t;
        self.label[b] = t;
        let le = v.map(|v| (v, w));
        self.labeledge[w] = le;
        self.labeledge[b] = le;
        self.bestedge[w] = None;
        self.bestedge[b] = None;
        if t == S {
            push_leaves(&self.blossoms, self.n, b, &mut self.queue);
        } else if t == T {
            let base = self.blossombase[b];
            let mate_base = self.mate[base].expect("T-blossom base is matched");
            self.assign_label(mate_base, S, Some(base));
        }
    }

    /// Traces back from v and w; returns the base vertex of a new blossom
    /// or None if an augmenting path was found.
    fn scan_blossom(&mut self, v: usize, w: usize) -> Option<usize> {
        let mut path = std::mem::take(&mut self.scan_path);
        path.clear();
        let mut base: Option<usize> = None;
        let mut v: Option<usize> = Some(v);
        let mut w: Option<usize> = Some(w);
        while let Some(vv) = v {
            let b = self.inblossom[vv];
            if self.label[b] & 4 != 0 {
                base = Some(self.blossombase[b]);
                break;
            }
            debug_assert_eq!(self.label[b], S);
            path.push(b);
            self.label[b] = BREADCRUMB;
            // Trace one step back.
            match self.labeledge[b] {
                None => {
                    debug_assert!(self.mate[self.blossombase[b]].is_none());
                    v = None;
                }
                Some(le) => {
                    debug_assert_eq!(Some(le.0), self.mate[self.blossombase[b]]);
                    let t = le.0;
                    let bt = self.inblossom[t];
                    debug_assert_eq!(self.label[bt], T);
                    // bt is a T-blossom; trace one more step back.
                    v = Some(self.labeledge[bt].expect("T-blossom has label edge").0);
                }
            }
            // Swap v and w to alternate between both paths.
            if w.is_some() {
                std::mem::swap(&mut v, &mut w);
            }
        }
        for &b in &path {
            self.label[b] = S;
        }
        self.scan_path = path;
        base
    }

    /// Constructs a new blossom with the given base, through S-vertices
    /// v and w with an edge between them.
    fn add_blossom(&mut self, base: usize, v: usize, w: usize) {
        let n = self.n;
        let bb = self.inblossom[base];
        let mut bv = self.inblossom[v];
        let mut bw = self.inblossom[w];
        let b = self.new_blossom();
        self.blossombase[b] = base;
        self.blossomparent[b] = None;
        self.blossomparent[bb] = Some(b);
        // The fresh slot's (empty) lists, filled in place.
        let mut path = std::mem::take(&mut self.bdata_mut(b).childs);
        let mut edgs = std::mem::take(&mut self.bdata_mut(b).edges);
        edgs.push((v, w));
        // Trace back from v to base.
        while bv != bb {
            self.blossomparent[bv] = Some(b);
            path.push(bv);
            let le = self.labeledge[bv].expect("labeled sub-blossom");
            edgs.push(le);
            debug_assert!(
                self.label[bv] == T
                    || (self.label[bv] == S && Some(le.0) == self.mate[self.blossombase[bv]])
            );
            bv = self.inblossom[le.0];
        }
        path.push(bb);
        path.reverse();
        edgs.reverse();
        // Trace back from w to base.
        while bw != bb {
            self.blossomparent[bw] = Some(b);
            path.push(bw);
            let le = self.labeledge[bw].expect("labeled sub-blossom");
            edgs.push((le.1, le.0));
            debug_assert!(
                self.label[bw] == T
                    || (self.label[bw] == S && Some(le.0) == self.mate[self.blossombase[bw]])
            );
            bw = self.inblossom[le.0];
        }
        debug_assert_eq!(self.label[bb], S);
        self.label[b] = S;
        self.labeledge[b] = self.labeledge[bb];
        self.blossomdual[b] = 0;
        self.bdata_mut(b).childs = path;
        self.bdata_mut(b).edges = edgs;
        // Relabel vertices.
        let mut leaves = self.take_leaves(b);
        for &x in &leaves {
            if self.label[self.inblossom[x]] == T {
                self.queue.push(x);
            }
            self.inblossom[x] = b;
        }
        // Compute b.mybestedges.
        let mut bestedgeto = std::mem::take(&mut self.bestedgeto);
        for k in 0..self.bdata(b).childs.len() {
            let bv = self.bdata(b).childs[k];
            if bv >= n && self.bdata(bv).has_mybestedges {
                for &(i, j) in &self.bdata(bv).mybestedges {
                    self.consider_bestedge(b, i, j, &mut bestedgeto);
                }
                self.bdata_mut(bv).has_mybestedges = false;
            } else {
                leaves.clear();
                push_leaves(&self.blossoms, n, bv, &mut leaves);
                for &x in &leaves {
                    for &y in &self.neighbors[x] {
                        self.consider_bestedge(b, x, y, &mut bestedgeto);
                    }
                }
            }
            self.bestedge[bv] = None;
        }
        self.leaves = leaves;
        let mut mybest = std::mem::take(&mut self.bdata_mut(b).mybestedges);
        let mut best: Option<(usize, usize)> = None;
        for slot in &mut bestedgeto[..n + self.num_blossoms] {
            if let Some((x, y)) = slot.take() {
                mybest.push((x, y));
                if best.is_none_or(|(bx, by)| self.slack(x, y) < self.slack(bx, by)) {
                    best = Some((x, y));
                }
            }
        }
        self.bestedgeto = bestedgeto;
        let bd = self.bdata_mut(b);
        bd.mybestedges = mybest;
        bd.has_mybestedges = true;
        self.bestedge[b] = best;
    }

    /// `add_blossom` step for edge (i0, j0) out of new blossom `b`:
    /// keeps it in `bestedgeto` if it is the least-slack edge seen so far
    /// to the S-node at its far end.
    fn consider_bestedge(
        &self,
        b: Node,
        i0: usize,
        j0: usize,
        bestedgeto: &mut [Option<(usize, usize)>],
    ) {
        let (i, j) = if self.inblossom[j0] == b {
            (j0, i0)
        } else {
            (i0, j0)
        };
        let bj = self.inblossom[j];
        if bj != b && self.label[bj] == S {
            let better = match bestedgeto[bj] {
                None => true,
                Some((x, y)) => self.slack(i, j) < self.slack(x, y),
            };
            if better {
                bestedgeto[bj] = Some((i, j));
            }
        }
    }

    /// Expands the given top-level blossom.
    fn expand_blossom(&mut self, b: Node, endstage: bool) {
        let n = self.n;
        for k in 0..self.bdata(b).childs.len() {
            let s = self.bdata(b).childs[k];
            self.blossomparent[s] = None;
            if s < n {
                self.inblossom[s] = s;
            } else if endstage && self.blossomdual[s] == 0 {
                self.expand_blossom(s, endstage);
            } else {
                let leaves = self.take_leaves(s);
                for &x in &leaves {
                    self.inblossom[x] = s;
                }
                self.leaves = leaves;
            }
        }
        // If we expand a T-blossom during a stage, relabel sub-blossoms.
        if !endstage && self.label[b] == T {
            let (mut v, mut w) = self.labeledge[b].expect("T-blossom labeled");
            let entrychild = self.inblossom[w];
            let len = self.bdata(b).childs.len() as i64;
            let mut j = self.child_position(b, entrychild);
            let jstep: i64 = if j & 1 == 1 {
                j -= len;
                1
            } else {
                -1
            };
            while j != 0 {
                // Relabel the T-sub-blossom.
                let (p, q) = self.step_edge(b, j, jstep);
                self.label[w] = 0;
                self.label[q] = 0;
                self.assign_label(w, T, Some(v));
                // Step to the next S-sub-blossom; note its forward edge.
                self.allowedge.insert(p, q);
                j += jstep;
                (v, w) = self.step_edge(b, j, jstep);
                // Step to the next T-sub-blossom.
                self.allowedge.insert(v, w);
                j += jstep;
            }
            // Relabel the base T-sub-blossom (no assign_label: don't step
            // through to its mate).
            let bw = self.child(b, j);
            self.label[w] = T;
            self.label[bw] = T;
            self.labeledge[w] = Some((v, w));
            self.labeledge[bw] = Some((v, w));
            self.bestedge[bw] = None;
            // Continue along the blossom until back at entrychild.
            j += jstep;
            while self.child(b, j) != entrychild {
                let bv = self.child(b, j);
                if self.label[bv] == S {
                    j += jstep;
                    continue;
                }
                let leaves = self.take_leaves(bv);
                let reached = leaves.iter().copied().find(|&x| self.label[x] != 0);
                self.leaves = leaves;
                if let Some(x) = reached {
                    debug_assert_eq!(self.label[x], T);
                    debug_assert_eq!(self.inblossom[x], bv);
                    self.label[x] = 0;
                    let base_mate = self.mate[self.blossombase[bv]].expect("matched base");
                    self.label[base_mate] = 0;
                    let le = self.labeledge[x].expect("reached vertex has edge");
                    self.assign_label(x, T, Some(le.0));
                }
                j += jstep;
            }
        }
        // Remove the expanded blossom.
        self.label[b] = 0;
        self.labeledge[b] = None;
        self.bestedge[b] = None;
        self.blossomparent[b] = None;
        self.blossombase[b] = usize::MAX;
        self.blossomdual[b] = 0;
        // The slot's lists are cleared when `new_blossom` reuses it.
        self.bdata_mut(b).active = false;
        self.free_blossoms.push(b);
    }

    /// Swaps matched/unmatched edges over an alternating path through
    /// blossom b between vertex v and the base vertex.
    fn augment_blossom(&mut self, b: Node, v: usize) {
        let n = self.n;
        // Bubble up from v to an immediate sub-blossom of b.
        let mut t = v;
        while self.blossomparent[t] != Some(b) {
            t = self.blossomparent[t].expect("v inside b");
        }
        if t >= n {
            self.augment_blossom(t, v);
        }
        let len = self.bdata(b).childs.len() as i64;
        let i = self.child_position(b, t);
        let mut j = i;
        let jstep: i64 = if i & 1 == 1 {
            j -= len;
            1
        } else {
            -1
        };
        while j != 0 {
            // Step to the next sub-blossom and augment it recursively.
            j += jstep;
            let t1 = self.child(b, j);
            let (w, x) = self.step_edge(b, j, jstep);
            if t1 >= n {
                self.augment_blossom(t1, w);
            }
            // Step to the next sub-blossom and augment it recursively.
            j += jstep;
            let t2 = self.child(b, j);
            if t2 >= n {
                self.augment_blossom(t2, x);
            }
            // Match the edge connecting those sub-blossoms.
            self.mate[w] = Some(x);
            self.mate[x] = Some(w);
        }
        // Rotate the sub-blossom list to put the new base at the front.
        let bd = self.bdata_mut(b);
        bd.childs.rotate_left(i as usize);
        bd.edges.rotate_left(i as usize);
        self.blossombase[b] = self.blossombase[self.bdata(b).childs[0]];
        debug_assert_eq!(self.blossombase[b], v);
    }

    /// Swaps matched/unmatched edges over an alternating path between two
    /// single vertices, through S-vertices v and w.
    fn augment_matching(&mut self, v: usize, w: usize) {
        for (s0, j0) in [(v, w), (w, v)] {
            let mut s = s0;
            let mut j = j0;
            loop {
                let bs = self.inblossom[s];
                debug_assert_eq!(self.label[bs], S);
                debug_assert!(
                    (self.labeledge[bs].is_none() && self.mate[self.blossombase[bs]].is_none())
                        || self.labeledge[bs].map(|le| le.0) == self.mate[self.blossombase[bs]]
                );
                if bs >= self.n {
                    self.augment_blossom(bs, s);
                }
                self.mate[s] = Some(j);
                // Trace one step back.
                let Some(le) = self.labeledge[bs] else {
                    break; // single vertex reached
                };
                let t = le.0;
                let bt = self.inblossom[t];
                debug_assert_eq!(self.label[bt], T);
                let (next_s, next_j) = self.labeledge[bt].expect("T labeled");
                debug_assert_eq!(self.blossombase[bt], t);
                if bt >= self.n {
                    self.augment_blossom(bt, next_j);
                }
                self.mate[next_j] = Some(next_s);
                s = next_s;
                j = next_j;
            }
        }
    }

    /// Whether node `b` (vertex or blossom) is a live top-level node.
    fn is_top_level(&self, b: Node) -> bool {
        (b < self.n || self.bdata(b).active) && self.blossomparent[b].is_none()
    }

    fn run(&mut self) {
        let n = self.n;
        loop {
            // New stage.
            let nodes = n + self.num_blossoms;
            self.label[..nodes].fill(0);
            self.labeledge[..nodes].fill(None);
            self.bestedge[..nodes].fill(None);
            for bd in &mut self.blossoms[..self.num_blossoms] {
                bd.has_mybestedges = false;
            }
            self.allowedge.reset(n);
            self.queue.clear();
            for v in 0..n {
                if self.mate[v].is_none() && self.label[self.inblossom[v]] == 0 {
                    self.assign_label(v, S, None);
                }
            }
            let mut augmented = false;
            loop {
                'queue_loop: while let Some(v) = self.queue.pop() {
                    debug_assert_eq!(self.label[self.inblossom[v]], S);
                    for k in 0..self.neighbors[v].len() {
                        let w = self.neighbors[v][k];
                        let bv = self.inblossom[v];
                        let bw = self.inblossom[w];
                        if bv == bw {
                            continue;
                        }
                        let mut kslack = 0;
                        let mut allowed = self.allowedge.contains(v, w);
                        if !allowed {
                            kslack = self.slack(v, w);
                            if kslack <= 0 {
                                self.allowedge.insert(v, w);
                                allowed = true;
                            }
                        }
                        if allowed {
                            if self.label[bw] == 0 {
                                self.assign_label(w, T, Some(v));
                            } else if self.label[bw] == S {
                                match self.scan_blossom(v, w) {
                                    Some(base) => self.add_blossom(base, v, w),
                                    None => {
                                        self.augment_matching(v, w);
                                        augmented = true;
                                        break 'queue_loop;
                                    }
                                }
                            } else if self.label[w] == 0 {
                                debug_assert_eq!(self.label[bw], T);
                                self.label[w] = T;
                                self.labeledge[w] = Some((v, w));
                            }
                        } else if self.label[bw] == S {
                            if self.bestedge[bv].is_none_or(|(x, y)| kslack < self.slack(x, y)) {
                                self.bestedge[bv] = Some((v, w));
                            }
                        } else if self.label[w] == 0
                            && self.bestedge[w].is_none_or(|(x, y)| kslack < self.slack(x, y))
                        {
                            self.bestedge[w] = Some((v, w));
                        }
                    }
                }
                if augmented {
                    break;
                }
                // Compute delta.
                let mut deltatype: i32 = -1;
                let mut delta: i64 = 0;
                let mut deltaedge: Option<(usize, usize)> = None;
                let mut deltablossom: Option<Node> = None;
                if !self.max_cardinality {
                    deltatype = 1;
                    delta = self.dualvar.iter().copied().min().unwrap_or(0);
                }
                for v in 0..n {
                    if self.label[self.inblossom[v]] == 0 {
                        if let Some((x, y)) = self.bestedge[v] {
                            let d = self.slack(x, y);
                            if deltatype == -1 || d < delta {
                                delta = d;
                                deltatype = 2;
                                deltaedge = Some((x, y));
                            }
                        }
                    }
                }
                // Top-level S-nodes: vertices, then blossoms by slot.
                for b in 0..n + self.num_blossoms {
                    if self.is_top_level(b) && self.label[b] == S {
                        if let Some((x, y)) = self.bestedge[b] {
                            let kslack = self.slack(x, y);
                            debug_assert_eq!(kslack % 2, 0);
                            let d = kslack / 2;
                            if deltatype == -1 || d < delta {
                                delta = d;
                                deltatype = 3;
                                deltaedge = Some((x, y));
                            }
                        }
                    }
                }
                for b in n..n + self.num_blossoms {
                    if self.is_top_level(b)
                        && self.label[b] == T
                        && (deltatype == -1 || self.blossomdual[b] < delta)
                    {
                        delta = self.blossomdual[b];
                        deltatype = 4;
                        deltablossom = Some(b);
                    }
                }
                if deltatype == -1 {
                    // Max-cardinality optimum reached.
                    debug_assert!(self.max_cardinality);
                    deltatype = 1;
                    delta = self.dualvar.iter().copied().min().unwrap_or(0).max(0);
                }
                // Update dual variables.
                for v in 0..n {
                    match self.label[self.inblossom[v]] {
                        S => self.dualvar[v] -= delta,
                        T => self.dualvar[v] += delta,
                        _ => {}
                    }
                }
                for b in n..n + self.num_blossoms {
                    if self.is_top_level(b) {
                        match self.label[b] {
                            S => self.blossomdual[b] += delta,
                            T => self.blossomdual[b] -= delta,
                            _ => {}
                        }
                    }
                }
                match deltatype {
                    1 => break,
                    2 => {
                        let (v, w) = deltaedge.unwrap();
                        debug_assert_eq!(self.label[self.inblossom[v]], S);
                        self.allowedge.insert(v, w);
                        self.queue.push(v);
                    }
                    3 => {
                        let (v, w) = deltaedge.unwrap();
                        self.allowedge.insert(v, w);
                        debug_assert_eq!(self.label[self.inblossom[v]], S);
                        self.queue.push(v);
                    }
                    4 => self.expand_blossom(deltablossom.unwrap(), false),
                    _ => unreachable!(),
                }
            }
            // Paranoia check.
            #[cfg(debug_assertions)]
            for v in 0..n {
                if let Some(u) = self.mate[v] {
                    debug_assert_eq!(self.mate[u], Some(v));
                }
            }
            if !augmented {
                break;
            }
            // End of stage: expand all S-blossoms with zero dual.
            for b in n..n + self.num_blossoms {
                if self.is_top_level(b) && self.label[b] == S && self.blossomdual[b] == 0 {
                    self.expand_blossom(b, true);
                }
            }
        }
    }
}

/// Clears `v` and refills its first `len` entries with `value`.
fn reset<X: Clone>(v: &mut Vec<X>, len: usize, value: X) {
    v.clear();
    v.resize(len, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute force over all matchings.
    fn brute_force(edges: &[(usize, usize, i64)], max_cardinality: bool) -> (usize, i64) {
        fn recur(
            edges: &[(usize, usize, i64)],
            idx: usize,
            used: &mut Vec<bool>,
            count: usize,
            weight: i64,
            all: &mut Vec<(usize, i64)>,
        ) {
            if idx == edges.len() {
                all.push((count, weight));
                return;
            }
            recur(edges, idx + 1, used, count, weight, all);
            let (u, v, w) = edges[idx];
            if !used[u] && !used[v] {
                used[u] = true;
                used[v] = true;
                recur(edges, idx + 1, used, count + 1, weight + w, all);
                used[u] = false;
                used[v] = false;
            }
        }
        let n = edges.iter().map(|e| e.0.max(e.1) + 1).max().unwrap_or(0);
        let mut used = vec![false; n];
        let mut all = Vec::new();
        recur(edges, 0, &mut used, 0, 0, &mut all);
        if max_cardinality {
            let max_count = all.iter().map(|a| a.0).max().unwrap();
            let w = all
                .iter()
                .filter(|a| a.0 == max_count)
                .map(|a| a.1)
                .max()
                .unwrap();
            (max_count, w)
        } else {
            let w = all.iter().map(|a| a.1).max().unwrap();
            (0, w)
        }
    }

    fn matching_weight(edges: &[(usize, usize, i64)], mate: &[Option<usize>]) -> (usize, i64) {
        let mut count = 0;
        let mut weight = 0;
        for &(u, v, w) in edges {
            if mate[u] == Some(v) {
                assert_eq!(mate[v], Some(u));
                count += 1;
                weight += w;
            }
        }
        (count, weight)
    }

    fn check_valid(edges: &[(usize, usize, i64)], mate: &[Option<usize>]) {
        for (v, m) in mate.iter().enumerate() {
            if let Some(u) = m {
                assert_eq!(mate[*u], Some(v), "matching must be symmetric");
                assert!(
                    edges
                        .iter()
                        .any(|&(a, b, _)| (a, b) == (v, *u) || (a, b) == (*u, v)),
                    "matched pair must be an edge"
                );
            }
        }
    }

    #[test]
    fn trivial_cases() {
        assert_eq!(max_weight_matching(&[], false), Vec::<Option<usize>>::new());
        let mate = max_weight_matching(&[(0, 1, 5)], false);
        assert_eq!(mate, vec![Some(1), Some(0)]);
    }

    #[test]
    fn prefers_heavier_edge() {
        let edges = [(0, 1, 6), (1, 2, 10)];
        let mate = max_weight_matching(&edges, false);
        assert_eq!(mate, vec![None, Some(2), Some(1)]);
    }

    #[test]
    fn max_cardinality_changes_choice() {
        let edges = [(0, 1, 2), (1, 2, 5), (2, 3, 2)];
        let mate = max_weight_matching(&edges, false);
        assert_eq!(mate, vec![None, Some(2), Some(1), None]);
        let mate = max_weight_matching(&edges, true);
        assert_eq!(mate, vec![Some(1), Some(0), Some(3), Some(2)]);
    }

    #[test]
    fn creates_blossom_and_uses_it() {
        // van Rantwijk test suite: create an S-blossom and use it for
        // augmentation.
        let edges = [(0, 1, 8), (0, 2, 9), (1, 2, 10), (2, 3, 7)];
        let mate = max_weight_matching(&edges, false);
        assert_eq!(mate, vec![Some(1), Some(0), Some(3), Some(2)]);
        let edges2 = [
            (0, 1, 8),
            (0, 2, 9),
            (1, 2, 10),
            (2, 3, 7),
            (0, 5, 5),
            (3, 4, 6),
        ];
        let mate = max_weight_matching(&edges2, false);
        assert_eq!(
            mate,
            vec![Some(5), Some(2), Some(1), Some(4), Some(3), Some(0)]
        );
    }

    #[test]
    fn t_blossom_relabeling() {
        // Create an S-blossom, relabel as T-blossom, use for augmentation.
        let edges = [
            (0, 1, 9),
            (0, 2, 8),
            (1, 2, 10),
            (0, 3, 5),
            (3, 4, 4),
            (0, 4, 3),
        ];
        let mate = max_weight_matching(&edges, false);
        check_valid(&edges, &mate);
        let (_, w) = matching_weight(&edges, &mate);
        assert_eq!(w, brute_force(&edges, false).1);
    }

    #[test]
    fn nested_s_blossom() {
        let edges = [
            (0, 1, 9),
            (0, 2, 9),
            (1, 2, 10),
            (1, 3, 8),
            (2, 4, 8),
            (3, 4, 10),
            (4, 5, 6),
        ];
        let mate = max_weight_matching(&edges, false);
        assert_eq!(
            mate,
            vec![Some(2), Some(3), Some(0), Some(1), Some(5), Some(4)]
        );
    }

    #[test]
    fn nested_s_blossom_expand() {
        let edges = [
            (0, 1, 8),
            (0, 2, 8),
            (1, 2, 10),
            (1, 3, 12),
            (2, 4, 12),
            (3, 4, 14),
            (3, 5, 12),
            (4, 6, 12),
            (5, 6, 14),
            (6, 7, 12),
        ];
        let mate = max_weight_matching(&edges, false);
        check_valid(&edges, &mate);
        let (_, w) = matching_weight(&edges, &mate);
        assert_eq!(w, brute_force(&edges, false).1);
    }

    #[test]
    fn s_blossom_relabel_expand() {
        let edges = [
            (0, 1, 23),
            (0, 4, 22),
            (0, 5, 15),
            (1, 2, 25),
            (2, 3, 22),
            (3, 4, 25),
            (3, 7, 14),
            (4, 6, 13),
        ];
        let mate = max_weight_matching(&edges, false);
        check_valid(&edges, &mate);
        let (_, w) = matching_weight(&edges, &mate);
        assert_eq!(w, brute_force(&edges, false).1);
    }

    #[test]
    fn nasty_blossom_cases() {
        // van Rantwijk "nasty" cases exercising blossom expansion paths.
        let cases: Vec<Vec<(usize, usize, i64)>> = vec![
            vec![
                (0, 1, 45),
                (0, 4, 45),
                (1, 2, 50),
                (2, 3, 45),
                (3, 4, 50),
                (0, 5, 30),
                (2, 8, 35),
                (3, 7, 35),
                (4, 6, 26),
            ],
            vec![
                (0, 1, 45),
                (0, 4, 45),
                (1, 2, 50),
                (2, 3, 45),
                (3, 4, 50),
                (0, 5, 30),
                (2, 8, 35),
                (3, 7, 26),
                (4, 6, 40),
            ],
            vec![
                (0, 1, 45),
                (0, 4, 45),
                (1, 2, 50),
                (2, 3, 45),
                (3, 4, 50),
                (0, 5, 30),
                (2, 8, 35),
                (3, 7, 28),
                (4, 6, 26),
            ],
        ];
        for (ci, edges) in cases.iter().enumerate() {
            let mate = max_weight_matching(edges, false);
            check_valid(edges, &mate);
            let (_, w) = matching_weight(edges, &mate);
            assert_eq!(w, brute_force(edges, false).1, "case {ci}");
        }
    }

    #[test]
    fn random_graphs_match_brute_force() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(1234);
        for trial in 0..400 {
            let n = rng.random_range(2..9usize);
            let mut edges: Vec<(usize, usize, i64)> = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.random::<f64>() < 0.55 {
                        edges.push((u, v, rng.random_range(1..40)));
                    }
                }
            }
            if edges.is_empty() {
                continue;
            }
            for &mc in &[false, true] {
                let mate = max_weight_matching(&edges, mc);
                check_valid(&edges, &mate);
                let (count, weight) = matching_weight(&edges, &mate);
                let (bc, bw) = brute_force(&edges, mc);
                if mc {
                    assert_eq!(count, bc, "trial {trial} cardinality, edges {edges:?}");
                }
                assert_eq!(
                    weight, bw,
                    "trial {trial} weight (mc={mc}), edges {edges:?}"
                );
            }
        }
    }

    #[test]
    fn min_weight_perfect_on_complete_graphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(77);
        for _ in 0..150 {
            let n = 2 * rng.random_range(1..5usize);
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    edges.push((u, v, rng.random_range(1..100i64)));
                }
            }
            let mate = min_weight_perfect_matching(&edges).expect("complete graph");
            assert_eq!(mate.len(), n);
            for (v, &u) in mate.iter().enumerate() {
                assert_eq!(mate[u], v);
            }
            let total: i64 = edges
                .iter()
                .filter(|&&(u, v, _)| mate[u] == v)
                .map(|e| e.2)
                .sum();
            // Brute-force the minimum-weight perfect matching.
            fn recur(
                edges: &[(usize, usize, i64)],
                idx: usize,
                used: &mut Vec<bool>,
                count: usize,
                weight: i64,
                n: usize,
                best: &mut Option<i64>,
            ) {
                if idx == edges.len() {
                    if count == n / 2 {
                        *best = Some(best.map_or(weight, |b: i64| b.min(weight)));
                    }
                    return;
                }
                recur(edges, idx + 1, used, count, weight, n, best);
                let (u, v, w) = edges[idx];
                if !used[u] && !used[v] {
                    used[u] = true;
                    used[v] = true;
                    recur(edges, idx + 1, used, count + 1, weight + w, n, best);
                    used[u] = false;
                    used[v] = false;
                }
            }
            let mut used = vec![false; n];
            let mut best = None;
            recur(&edges, 0, &mut used, 0, 0, n, &mut best);
            assert_eq!(total, best.unwrap());
        }
    }

    #[test]
    fn perfect_matching_impossible() {
        let edges = [(0, 1, 1), (1, 2, 1), (0, 2, 1)];
        assert!(min_weight_perfect_matching(&edges).is_none());
    }
}
