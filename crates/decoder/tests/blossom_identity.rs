//! The dense, scratch-owned blossom [`Matcher`] is bit-identical to the
//! `BTreeMap`/`BTreeSet` matcher it replaced: the same `mate` vector on
//! every instance, ties included. The reference below is that matcher,
//! unchanged apart from its name, kept as a test oracle (its container
//! iteration order is what fixes tie-breaking).

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vlq_circuit::exec::sample_batch;
use vlq_circuit::noise::NoiseModel;
use vlq_decoder::blossom::Matcher;
use vlq_decoder::{DecodingGraph, MwpmDecoder, MwpmScratch};
use vlq_surface::schedule::{memory_circuit, Basis, Boundary, MemorySpec, Setup};

/// Reference maximum-weight matching (see the module docs).
fn reference_max_weight_matching(
    edges: &[(usize, usize, i64)],
    max_cardinality: bool,
) -> Vec<Option<usize>> {
    let mut n = 0usize;
    for &(i, j, _) in edges {
        n = n.max(i + 1).max(j + 1);
    }
    if n == 0 {
        return Vec::new();
    }
    ReferenceMatcher::new(n, edges, max_cardinality).run()
}

/// Reference minimum-weight perfect matching via weight inversion.
fn reference_min_weight_perfect_matching(edges: &[(usize, usize, i64)]) -> Option<Vec<usize>> {
    if edges.is_empty() {
        return Some(Vec::new());
    }
    let max_w = edges.iter().map(|e| e.2).max().unwrap_or(0);
    let inverted: Vec<(usize, usize, i64)> = edges
        .iter()
        .map(|&(u, v, w)| (u, v, max_w + 1 - w))
        .collect();
    let mate = reference_max_weight_matching(&inverted, true);
    if mate.iter().any(Option::is_none) {
        return None;
    }
    Some(mate.into_iter().map(|m| m.expect("perfect")).collect())
}

/// Node id: vertices are `0..n`; blossoms are `n + index`.
type Node = usize;

const S: u8 = 1;
const T: u8 = 2;
const BREADCRUMB: u8 = 5;

#[derive(Default, Clone)]
struct BlossomData {
    /// Ordered sub-blossoms, starting with the base.
    childs: Vec<Node>,
    /// `edges[i] = (v, w)`: v in childs[i], w in childs[wrap(i+1)].
    edges: Vec<(usize, usize)>,
    /// Least-slack edges to neighboring S-blossoms.
    mybestedges: Option<Vec<(usize, usize)>>,
    active: bool,
}

struct ReferenceMatcher {
    n: usize,
    max_cardinality: bool,
    neighbors: Vec<Vec<usize>>,
    wt: BTreeMap<(usize, usize), i64>,
    mate: Vec<Option<usize>>,
    label: BTreeMap<Node, u8>,
    labeledge: BTreeMap<Node, Option<(usize, usize)>>,
    inblossom: Vec<Node>,
    blossomparent: BTreeMap<Node, Option<Node>>,
    blossombase: BTreeMap<Node, usize>,
    bestedge: BTreeMap<Node, Option<(usize, usize)>>,
    dualvar: Vec<i64>,
    blossomdual: BTreeMap<Node, i64>,
    allowedge: BTreeSet<(usize, usize)>,
    queue: Vec<usize>,
    blossoms: Vec<BlossomData>,
    free_blossoms: Vec<Node>,
}

impl ReferenceMatcher {
    fn new(n: usize, edges: &[(usize, usize, i64)], max_cardinality: bool) -> Self {
        let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut wt = BTreeMap::new();
        let mut maxweight = 0i64;
        for &(i, j, w) in edges {
            if wt.insert(key(i, j), w).is_none() {
                neighbors[i].push(j);
                neighbors[j].push(i);
            }
            maxweight = maxweight.max(w);
        }
        ReferenceMatcher {
            n,
            max_cardinality,
            neighbors,
            wt,
            mate: vec![None; n],
            label: BTreeMap::new(),
            labeledge: BTreeMap::new(),
            inblossom: (0..n).collect(),
            blossomparent: (0..n).map(|v| (v, None)).collect(),
            blossombase: (0..n).map(|v| (v, v)).collect(),
            bestedge: BTreeMap::new(),
            dualvar: vec![maxweight; n],
            blossomdual: BTreeMap::new(),
            allowedge: BTreeSet::new(),
            queue: Vec::new(),
            blossoms: Vec::new(),
            free_blossoms: Vec::new(),
        }
    }

    fn weight(&self, v: usize, w: usize) -> i64 {
        self.wt[&key(v, w)]
    }

    /// 2 * slack of edge (v, w); only valid outside blossoms.
    fn slack(&self, v: usize, w: usize) -> i64 {
        self.dualvar[v] + self.dualvar[w] - 2 * self.weight(v, w)
    }

    fn is_blossom(&self, b: Node) -> bool {
        b >= self.n
    }

    fn bdata(&self, b: Node) -> &BlossomData {
        &self.blossoms[b - self.n]
    }

    fn bdata_mut(&mut self, b: Node) -> &mut BlossomData {
        let n = self.n;
        &mut self.blossoms[b - n]
    }

    fn new_blossom(&mut self) -> Node {
        if let Some(b) = self.free_blossoms.pop() {
            self.blossoms[b - self.n] = BlossomData {
                active: true,
                ..Default::default()
            };
            b
        } else {
            self.blossoms.push(BlossomData {
                active: true,
                ..Default::default()
            });
            self.n + self.blossoms.len() - 1
        }
    }

    fn leaves(&self, b: Node, out: &mut Vec<usize>) {
        if self.is_blossom(b) {
            for &c in &self.bdata(b).childs {
                self.leaves(c, out);
            }
        } else {
            out.push(b);
        }
    }

    fn label_of(&self, x: Node) -> u8 {
        self.label.get(&x).copied().unwrap_or(0)
    }

    fn assign_label(&mut self, w: usize, t: u8, v: Option<usize>) {
        let b = self.inblossom[w];
        debug_assert!(self.label_of(w) == 0 && self.label_of(b) == 0);
        self.label.insert(w, t);
        self.label.insert(b, t);
        let le = v.map(|v| (v, w));
        self.labeledge.insert(w, le);
        self.labeledge.insert(b, le);
        self.bestedge.insert(w, None);
        self.bestedge.insert(b, None);
        if t == S {
            let mut lv = Vec::new();
            self.leaves(b, &mut lv);
            self.queue.extend(lv);
        } else if t == T {
            let base = self.blossombase[&b];
            let mate_base = self.mate[base].expect("T-blossom base is matched");
            self.assign_label(mate_base, S, Some(base));
        }
    }

    /// Traces back from v and w; returns the base vertex of a new blossom
    /// or None if an augmenting path was found.
    fn scan_blossom(&mut self, v: usize, w: usize) -> Option<usize> {
        let mut path: Vec<Node> = Vec::new();
        let mut base: Option<usize> = None;
        let mut v: Option<usize> = Some(v);
        let mut w: Option<usize> = Some(w);
        while let Some(vv) = v {
            let b = self.inblossom[vv];
            if self.label_of(b) & 4 != 0 {
                base = Some(self.blossombase[&b]);
                break;
            }
            debug_assert_eq!(self.label_of(b), S);
            path.push(b);
            self.label.insert(b, BREADCRUMB);
            // Trace one step back.
            match self.labeledge[&b] {
                None => {
                    debug_assert!(self.mate[self.blossombase[&b]].is_none());
                    v = None;
                }
                Some(le) => {
                    debug_assert_eq!(Some(le.0), self.mate[self.blossombase[&b]]);
                    let t = le.0;
                    let bt = self.inblossom[t];
                    debug_assert_eq!(self.label_of(bt), T);
                    // bt is a T-blossom; trace one more step back.
                    v = Some(self.labeledge[&bt].expect("T-blossom has label edge").0);
                }
            }
            // Swap v and w to alternate between both paths.
            if w.is_some() {
                std::mem::swap(&mut v, &mut w);
            }
        }
        for b in path {
            self.label.insert(b, S);
        }
        base
    }

    /// Constructs a new blossom with the given base, through S-vertices
    /// v and w with an edge between them.
    fn add_blossom(&mut self, base: usize, v: usize, w: usize) {
        let bb = self.inblossom[base];
        let mut bv = self.inblossom[v];
        let mut bw = self.inblossom[w];
        let b = self.new_blossom();
        self.blossombase.insert(b, base);
        self.blossomparent.insert(b, None);
        self.blossomparent.insert(bb, Some(b));
        let mut path: Vec<Node> = Vec::new();
        let mut edgs: Vec<(usize, usize)> = vec![(v, w)];
        // Trace back from v to base (shadow loop cursors).
        let mut v = v;
        let mut w = w;
        let _ = (&v, &w);
        while bv != bb {
            self.blossomparent.insert(bv, Some(b));
            path.push(bv);
            let le = self.labeledge[&bv].expect("labeled sub-blossom");
            edgs.push(le);
            debug_assert!(
                self.label_of(bv) == T
                    || (self.label_of(bv) == S && Some(le.0) == self.mate[self.blossombase[&bv]])
            );
            v = le.0;
            bv = self.inblossom[v];
        }
        path.push(bb);
        path.reverse();
        edgs.reverse();
        // Trace back from w to base.
        while bw != bb {
            self.blossomparent.insert(bw, Some(b));
            path.push(bw);
            let le = self.labeledge[&bw].expect("labeled sub-blossom");
            edgs.push((le.1, le.0));
            debug_assert!(
                self.label_of(bw) == T
                    || (self.label_of(bw) == S && Some(le.0) == self.mate[self.blossombase[&bw]])
            );
            w = le.0;
            bw = self.inblossom[w];
        }
        debug_assert_eq!(self.label_of(bb), S);
        self.label.insert(b, S);
        self.labeledge.insert(b, self.labeledge[&bb]);
        self.blossomdual.insert(b, 0);
        self.bdata_mut(b).childs = path.clone();
        self.bdata_mut(b).edges = edgs;
        // Relabel vertices.
        let mut lv = Vec::new();
        self.leaves(b, &mut lv);
        for &x in &lv {
            if self.label_of(self.inblossom[x]) == T {
                self.queue.push(x);
            }
            self.inblossom[x] = b;
        }
        // Compute b.mybestedges.
        let mut bestedgeto: BTreeMap<Node, (usize, usize)> = BTreeMap::new();
        for &bv in &path {
            let nblist: Vec<(usize, usize)> = if self.is_blossom(bv) {
                if let Some(best) = self.bdata(bv).mybestedges.clone() {
                    self.bdata_mut(bv).mybestedges = None;
                    best
                } else {
                    let mut lv = Vec::new();
                    self.leaves(bv, &mut lv);
                    lv.iter()
                        .flat_map(|&x| self.neighbors[x].iter().map(move |&y| (x, y)))
                        .collect()
                }
            } else {
                self.neighbors[bv].iter().map(|&y| (bv, y)).collect()
            };
            for (i0, j0) in nblist {
                let (i, j) = if self.inblossom[j0] == b {
                    (j0, i0)
                } else {
                    (i0, j0)
                };
                let bj = self.inblossom[j];
                if bj != b && self.label_of(bj) == S {
                    let better = match bestedgeto.get(&bj) {
                        None => true,
                        Some(&(x, y)) => self.slack(i, j) < self.slack(x, y),
                    };
                    if better {
                        bestedgeto.insert(bj, (i, j));
                    }
                }
            }
            self.bestedge.insert(bv, None);
        }
        let mybest: Vec<(usize, usize)> = bestedgeto.into_values().collect();
        let mut best: Option<(usize, usize)> = None;
        for &(x, y) in &mybest {
            if best.is_none() || self.slack(x, y) < self.slack(best.unwrap().0, best.unwrap().1) {
                best = Some((x, y));
            }
        }
        self.bdata_mut(b).mybestedges = Some(mybest);
        self.bestedge.insert(b, best);
    }

    /// Expands the given top-level blossom.
    fn expand_blossom(&mut self, b: Node, endstage: bool) {
        let childs = self.bdata(b).childs.clone();
        for &s in &childs {
            self.blossomparent.insert(s, None);
            if !self.is_blossom(s) {
                self.inblossom[s] = s;
            } else if endstage && self.blossomdual[&s] == 0 {
                self.expand_blossom(s, endstage);
            } else {
                let mut lv = Vec::new();
                self.leaves(s, &mut lv);
                for &x in &lv {
                    self.inblossom[x] = s;
                }
            }
        }
        // If we expand a T-blossom during a stage, relabel sub-blossoms.
        if !endstage && self.label_of(b) == T {
            let entrychild = self.inblossom[self.labeledge[&b].expect("T-blossom labeled").1];
            let childs = self.bdata(b).childs.clone();
            let edges = self.bdata(b).edges.clone();
            let len = childs.len() as i64;
            let at = |j: i64| -> usize { j.rem_euclid(len) as usize };
            let mut j = childs
                .iter()
                .position(|&c| c == entrychild)
                .expect("entrychild present") as i64;
            let jstep: i64 = if j & 1 == 1 {
                j -= len;
                1
            } else {
                -1
            };
            let (mut v, mut w) = self.labeledge[&b].expect("T-blossom labeled");
            while j != 0 {
                // Relabel the T-sub-blossom.
                let (p, q) = if jstep == 1 {
                    edges[at(j)]
                } else {
                    let (x, y) = edges[at(j - 1)];
                    (y, x)
                };
                self.label.remove(&w);
                self.label.remove(&q);
                self.assign_label(w, T, Some(v));
                // Step to the next S-sub-blossom; note its forward edge.
                self.allowedge.insert(key(p, q));
                j += jstep;
                let (x, y) = if jstep == 1 {
                    edges[at(j)]
                } else {
                    let (a2, b2) = edges[at(j - 1)];
                    (b2, a2)
                };
                v = x;
                w = y;
                // Step to the next T-sub-blossom.
                self.allowedge.insert(key(v, w));
                j += jstep;
            }
            // Relabel the base T-sub-blossom (no assign_label: don't step
            // through to its mate).
            let bw = childs[at(j)];
            self.label.insert(w, T);
            self.label.insert(bw, T);
            self.labeledge.insert(w, Some((v, w)));
            self.labeledge.insert(bw, Some((v, w)));
            self.bestedge.insert(bw, None);
            // Continue along the blossom until back at entrychild.
            j += jstep;
            while childs[at(j)] != entrychild {
                let bv = childs[at(j)];
                if self.label_of(bv) == S {
                    j += jstep;
                    continue;
                }
                let mut lv = Vec::new();
                self.leaves(bv, &mut lv);
                let reached = lv.iter().copied().find(|&x| self.label_of(x) != 0);
                if let Some(x) = reached {
                    debug_assert_eq!(self.label_of(x), T);
                    debug_assert_eq!(self.inblossom[x], bv);
                    self.label.remove(&x);
                    let base_mate = self.mate[self.blossombase[&bv]].expect("matched base");
                    self.label.remove(&base_mate);
                    let le = self.labeledge[&x].expect("reached vertex has edge");
                    self.assign_label(x, T, Some(le.0));
                }
                j += jstep;
            }
        }
        // Remove the expanded blossom.
        self.label.remove(&b);
        self.labeledge.remove(&b);
        self.bestedge.remove(&b);
        self.blossomparent.remove(&b);
        self.blossombase.remove(&b);
        self.blossomdual.remove(&b);
        self.bdata_mut(b).active = false;
        self.bdata_mut(b).childs.clear();
        self.bdata_mut(b).edges.clear();
        self.bdata_mut(b).mybestedges = None;
        self.free_blossoms.push(b);
    }

    /// Swaps matched/unmatched edges over an alternating path through
    /// blossom b between vertex v and the base vertex.
    fn augment_blossom(&mut self, b: Node, v: usize) {
        // Bubble up from v to an immediate sub-blossom of b.
        let mut t = v;
        while self.blossomparent[&t] != Some(b) {
            t = self.blossomparent[&t].expect("v inside b");
        }
        if self.is_blossom(t) {
            self.augment_blossom(t, v);
        }
        let childs = self.bdata(b).childs.clone();
        let edges = self.bdata(b).edges.clone();
        let len = childs.len() as i64;
        let at = |j: i64| -> usize { j.rem_euclid(len) as usize };
        let i = childs.iter().position(|&c| c == t).expect("child") as i64;
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
            let t1 = childs[at(j)];
            let (w, x) = if jstep == 1 {
                edges[at(j)]
            } else {
                let (a2, b2) = edges[at(j - 1)];
                (b2, a2)
            };
            if self.is_blossom(t1) {
                self.augment_blossom(t1, w);
            }
            // Step to the next sub-blossom and augment it recursively.
            j += jstep;
            let t2 = childs[at(j)];
            if self.is_blossom(t2) {
                self.augment_blossom(t2, x);
            }
            // Match the edge connecting those sub-blossoms.
            self.mate[w] = Some(x);
            self.mate[x] = Some(w);
        }
        // Rotate the sub-blossom list to put the new base at the front.
        let iu = i as usize;
        self.bdata_mut(b).childs.rotate_left(iu);
        self.bdata_mut(b).edges.rotate_left(iu);
        let new_base = self.blossombase[&self.bdata(b).childs[0]];
        self.blossombase.insert(b, new_base);
        debug_assert_eq!(self.blossombase[&b], v);
    }

    /// Swaps matched/unmatched edges over an alternating path between two
    /// single vertices, through S-vertices v and w.
    fn augment_matching(&mut self, v: usize, w: usize) {
        for (s0, j0) in [(v, w), (w, v)] {
            let mut s = s0;
            let mut j = j0;
            loop {
                let bs = self.inblossom[s];
                debug_assert_eq!(self.label_of(bs), S);
                debug_assert!(
                    (self.labeledge[&bs].is_none() && self.mate[self.blossombase[&bs]].is_none())
                        || self.labeledge[&bs].map(|le| le.0) == self.mate[self.blossombase[&bs]]
                );
                if self.is_blossom(bs) {
                    self.augment_blossom(bs, s);
                }
                self.mate[s] = Some(j);
                // Trace one step back.
                let Some(le) = self.labeledge[&bs] else {
                    break; // single vertex reached
                };
                let t = le.0;
                let bt = self.inblossom[t];
                debug_assert_eq!(self.label_of(bt), T);
                let (next_s, next_j) = self.labeledge[&bt].expect("T labeled");
                debug_assert_eq!(self.blossombase[&bt], t);
                if self.is_blossom(bt) {
                    self.augment_blossom(bt, next_j);
                }
                self.mate[next_j] = Some(next_s);
                s = next_s;
                j = next_j;
            }
        }
    }

    fn active_blossoms(&self) -> Vec<Node> {
        (0..self.blossoms.len())
            .filter(|&i| self.blossoms[i].active)
            .map(|i| self.n + i)
            .collect()
    }

    fn run(mut self) -> Vec<Option<usize>> {
        loop {
            // New stage.
            self.label.clear();
            self.labeledge.clear();
            self.bestedge.clear();
            for bd in &mut self.blossoms {
                bd.mybestedges = None;
            }
            self.allowedge.clear();
            self.queue.clear();
            for v in 0..self.n {
                if self.mate[v].is_none() && self.label_of(self.inblossom[v]) == 0 {
                    self.assign_label(v, S, None);
                }
            }
            let mut augmented = false;
            loop {
                'queue_loop: while let Some(v) = self.queue.pop() {
                    debug_assert_eq!(self.label_of(self.inblossom[v]), S);
                    let nbs = self.neighbors[v].clone();
                    for w in nbs {
                        let bv = self.inblossom[v];
                        let bw = self.inblossom[w];
                        if bv == bw {
                            continue;
                        }
                        let mut kslack = 0;
                        if !self.allowedge.contains(&key(v, w)) {
                            kslack = self.slack(v, w);
                            if kslack <= 0 {
                                self.allowedge.insert(key(v, w));
                            }
                        }
                        if self.allowedge.contains(&key(v, w)) {
                            if self.label_of(bw) == 0 {
                                self.assign_label(w, T, Some(v));
                            } else if self.label_of(bw) == S {
                                match self.scan_blossom(v, w) {
                                    Some(base) => self.add_blossom(base, v, w),
                                    None => {
                                        self.augment_matching(v, w);
                                        augmented = true;
                                        break 'queue_loop;
                                    }
                                }
                            } else if self.label_of(w) == 0 {
                                debug_assert_eq!(self.label_of(bw), T);
                                self.label.insert(w, T);
                                self.labeledge.insert(w, Some((v, w)));
                            }
                        } else if self.label_of(bw) == S {
                            let better = match self.bestedge.get(&bv).copied().flatten() {
                                None => true,
                                Some((x, y)) => kslack < self.slack(x, y),
                            };
                            if better {
                                self.bestedge.insert(bv, Some((v, w)));
                            }
                        } else if self.label_of(w) == 0 {
                            let better = match self.bestedge.get(&w).copied().flatten() {
                                None => true,
                                Some((x, y)) => kslack < self.slack(x, y),
                            };
                            if better {
                                self.bestedge.insert(w, Some((v, w)));
                            }
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
                for v in 0..self.n {
                    if self.label_of(self.inblossom[v]) == 0 {
                        if let Some((x, y)) = self.bestedge.get(&v).copied().flatten() {
                            let d = self.slack(x, y);
                            if deltatype == -1 || d < delta {
                                delta = d;
                                deltatype = 2;
                                deltaedge = Some((x, y));
                            }
                        }
                    }
                }
                let mut top_nodes: Vec<Node> = (0..self.n).collect();
                top_nodes.extend(self.active_blossoms());
                for &b in &top_nodes {
                    if self.blossomparent.get(&b) == Some(&None) && self.label_of(b) == S {
                        if let Some((x, y)) = self.bestedge.get(&b).copied().flatten() {
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
                for b in self.active_blossoms() {
                    if self.blossomparent.get(&b) == Some(&None)
                        && self.label_of(b) == T
                        && (deltatype == -1 || self.blossomdual[&b] < delta)
                    {
                        delta = self.blossomdual[&b];
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
                for v in 0..self.n {
                    match self.label_of(self.inblossom[v]) {
                        x if x == S => self.dualvar[v] -= delta,
                        x if x == T => self.dualvar[v] += delta,
                        _ => {}
                    }
                }
                for b in self.active_blossoms() {
                    if self.blossomparent.get(&b) == Some(&None) {
                        match self.label_of(b) {
                            x if x == S => *self.blossomdual.get_mut(&b).unwrap() += delta,
                            x if x == T => *self.blossomdual.get_mut(&b).unwrap() -= delta,
                            _ => {}
                        }
                    }
                }
                match deltatype {
                    1 => break,
                    2 => {
                        let (v, w) = deltaedge.unwrap();
                        debug_assert_eq!(self.label_of(self.inblossom[v]), S);
                        self.allowedge.insert(key(v, w));
                        self.queue.push(v);
                    }
                    3 => {
                        let (v, w) = deltaedge.unwrap();
                        self.allowedge.insert(key(v, w));
                        debug_assert_eq!(self.label_of(self.inblossom[v]), S);
                        self.queue.push(v);
                    }
                    4 => self.expand_blossom(deltablossom.unwrap(), false),
                    _ => unreachable!(),
                }
            }
            // Paranoia check.
            #[cfg(debug_assertions)]
            for v in 0..self.n {
                if let Some(u) = self.mate[v] {
                    debug_assert_eq!(self.mate[u], Some(v));
                }
            }
            if !augmented {
                break;
            }
            // End of stage: expand all S-blossoms with zero dual.
            for b in self.active_blossoms() {
                if self.blossoms[b - self.n].active
                    && self.blossomparent.get(&b) == Some(&None)
                    && self.label_of(b) == S
                    && self.blossomdual.get(&b) == Some(&0)
                {
                    self.expand_blossom(b, true);
                }
            }
        }
        self.mate
    }
}

fn key(a: usize, b: usize) -> (usize, usize) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Random graphs whose weights come from a tiny range, so equal-weight
/// ties are everywhere; a few complete even graphs go through the
/// min-weight perfect path. One matcher serves every instance, largest
/// first, so state leaking between solves would show.
#[test]
fn random_tie_heavy_graphs_match_reference() {
    let mut rng = SmallRng::seed_from_u64(2024);
    let mut instances: Vec<Vec<(usize, usize, i64)>> = Vec::new();
    for _ in 0..600 {
        let n = rng.random_range(2..24usize);
        let density = rng.random_range(0.2..1.0f64);
        let max_w = rng.random_range(1..5i64);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.random::<f64>() < density {
                    edges.push((u, v, rng.random_range(1..=max_w)));
                }
            }
        }
        instances.push(edges);
    }
    instances.sort_by_key(|e| std::cmp::Reverse(e.len()));
    let mut matcher = Matcher::new();
    for (i, edges) in instances.iter().enumerate() {
        for mc in [false, true] {
            assert_eq!(
                matcher.max_weight_matching(edges, mc),
                reference_max_weight_matching(edges, mc).as_slice(),
                "instance {i} (max_cardinality={mc}): {edges:?}"
            );
        }
        assert_eq!(
            matcher.min_weight_perfect_matching(edges),
            reference_min_weight_perfect_matching(edges).as_deref(),
            "instance {i} (perfect): {edges:?}"
        );
    }
    for n in [30usize, 18, 12, 6, 2] {
        for _ in 0..20 {
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    edges.push((u, v, rng.random_range(0..3i64)));
                }
            }
            let mate = matcher
                .min_weight_perfect_matching(&edges)
                .map(<[usize]>::to_vec);
            assert!(mate.is_some(), "complete graph on {n} vertices");
            assert_eq!(mate, reference_min_weight_perfect_matching(&edges));
        }
    }
}

/// Defect lists sampled from a fig11 memory block (k = 10 rounds,
/// p = 3e-3, Z basis, full noise window), with the block's decoder.
fn sampled_instances(setup: Setup, d: usize, seed: u64) -> (MwpmDecoder, Vec<Vec<usize>>) {
    let p = 3e-3;
    let model = if setup.uses_memory() {
        NoiseModel::memory_at_scale(p)
    } else {
        NoiseModel::baseline_at_scale(p)
    };
    let mc = memory_circuit(MemorySpec::standard(setup, d, 10, Basis::Z), &model.hw);
    let (start, end) = mc.noise_window(Boundary::Full);
    let noisy = model.apply_window(&mc.circuit, start, end);
    let guard = mc.guard_detectors();
    let decoder = MwpmDecoder::new(&DecodingGraph::build(&noisy, guard));
    const LANES: usize = 1024;
    let batch = sample_batch(&noisy, LANES, &mut SmallRng::seed_from_u64(seed));
    let mut lists = Vec::new();
    batch.defect_lists_into(guard, LANES, &mut lists);
    lists.retain(|l| !l.is_empty());
    (decoder, lists)
}

/// Real MWPM instances from baseline and natural-int blocks at
/// d in {3, 5, 7}, decoded in sequence through one reused
/// `MwpmScratch`, largest defect sets first.
#[test]
fn sampled_mwpm_instances_match_reference() {
    let mut blocks = Vec::new();
    for setup in [Setup::Baseline, Setup::NaturalInterleaved] {
        for d in [3, 5, 7] {
            blocks.push(sampled_instances(setup, d, 2020 + d as u64));
        }
    }
    let mut jobs: Vec<(usize, &[usize])> = blocks
        .iter()
        .enumerate()
        .flat_map(|(b, (_, lists))| lists.iter().map(move |l| (b, l.as_slice())))
        .collect();
    jobs.sort_by_key(|&(_, defects)| std::cmp::Reverse(defects.len()));
    let largest = jobs[0].1.len();
    assert!(
        largest >= 30,
        "largest sampled defect set has only {largest} defects"
    );

    let mut scratch = MwpmScratch::new();
    for (i, &(b, defects)) in jobs.iter().enumerate() {
        let decoder = &blocks[b].0;
        let (flip, weight) = decoder.decode_detailed_with(defects, &mut scratch);
        let (edges, mate) = scratch.last_matching();
        assert_eq!(mate.len(), 2 * defects.len());
        let reference = reference_min_weight_perfect_matching(edges)
            .expect("reference matcher found a perfect matching");
        assert_eq!(mate, reference.as_slice(), "job {i}: defects {defects:?}");
        // The fresh-scratch entry point agrees with the reused scratch.
        assert_eq!(decoder.decode_detailed(defects), (flip, weight), "job {i}");
    }
}
