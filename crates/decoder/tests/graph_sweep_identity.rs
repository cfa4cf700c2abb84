//! The sweep-built decoding graph is bit-identical to the per-fault
//! reference construction: every fault of `for_each_fault` propagated
//! forward on its own with `propagate_fault`, folded in enumeration
//! order. The reference below is that algorithm, kept as a test oracle.

use std::collections::{BTreeMap, HashMap};

use vlq_arch::params::HardwareParams;
use vlq_circuit::exec::propagate_fault;
use vlq_circuit::ir::Circuit;
use vlq_circuit::noise::NoiseModel;
use vlq_decoder::graph::{for_each_fault, DecodingGraph, GraphEdge, BOUNDARY};
use vlq_math::stats::{log_odds_weight, xor_probability};
use vlq_surface::schedule::{memory_circuit, Basis, Boundary, MemorySpec, Setup};

/// The per-fault reference graph.
#[derive(Default)]
struct Reference {
    edges: BTreeMap<(usize, usize), GraphEdge>,
    decomposed_faults: usize,
    undetectable_logical_mass: f64,
    parity_conflicts: usize,
}

impl Reference {
    fn accumulate(&mut self, a: usize, b: usize, p: f64, obs: bool) {
        let entry = self.edges.entry((a.min(b), a.max(b))).or_insert(GraphEdge {
            probability: 0.0,
            weight: f64::INFINITY,
            flips_observable: obs,
        });
        if entry.flips_observable != obs {
            self.parity_conflicts += 1;
        }
        entry.probability = xor_probability(entry.probability, p);
        entry.weight = log_odds_weight(entry.probability);
    }

    fn build(circuit: &Circuit, sector: &[usize], attribute_observable: bool) -> Self {
        let index: HashMap<usize, usize> =
            sector.iter().enumerate().map(|(i, &d)| (d, i)).collect();
        let mut g = Reference::default();
        let mut pending = Vec::new();
        for_each_fault(circuit, |site, p| {
            if p <= 0.0 {
                return;
            }
            let effect = propagate_fault(circuit, site);
            let dets: Vec<usize> = effect
                .detectors
                .iter()
                .filter_map(|d| index.get(d).copied())
                .collect();
            let obs = attribute_observable && effect.observables.contains(&0);
            match dets.len() {
                0 => {
                    if obs {
                        g.undetectable_logical_mass += p;
                    }
                }
                1 => g.accumulate(dets[0], BOUNDARY, p, obs),
                2 => g.accumulate(dets[0], dets[1], p, obs),
                _ => pending.push((dets, obs, p)),
            }
        });
        for (dets, obs, p) in pending {
            g.decomposed_faults += 1;
            let mut acc = Vec::new();
            let parts = g.decompose(&dets, &mut acc, obs).expect("decomposable");
            for (a, b, part_obs) in parts {
                g.accumulate(a, b, p, part_obs);
            }
        }
        g
    }

    /// First pairing (in search order) of `remaining` into existing
    /// edges and boundary singletons whose parities XOR to `target`.
    fn decompose(
        &self,
        remaining: &[usize],
        acc: &mut Vec<(usize, usize, bool)>,
        target: bool,
    ) -> Option<Vec<(usize, usize, bool)>> {
        let edge = |a: usize, b: usize| self.edges.get(&(a.min(b), a.max(b)));
        let Some(&first) = remaining.first() else {
            let parity = acc.iter().fold(false, |x, e| x ^ e.2);
            return (parity == target).then(|| acc.clone());
        };
        for &other in &remaining[1..] {
            if let Some(e) = edge(first, other) {
                let rest: Vec<usize> = remaining
                    .iter()
                    .copied()
                    .filter(|&d| d != first && d != other)
                    .collect();
                acc.push((first, other, e.flips_observable));
                let found = self.decompose(&rest, acc, target);
                acc.pop();
                if found.is_some() {
                    return found;
                }
            }
        }
        if let Some(e) = edge(first, BOUNDARY) {
            acc.push((first, BOUNDARY, e.flips_observable));
            let found = self.decompose(&remaining[1..], acc, target);
            acc.pop();
            return found;
        }
        None
    }
}

fn assert_identical(graph: &DecodingGraph, reference: &Reference, what: &str) {
    assert_eq!(
        graph.num_edges(),
        reference.edges.len(),
        "{what}: edge count"
    );
    for ((key, e), (ref_key, r)) in graph.iter_edges().zip(&reference.edges) {
        assert_eq!(key, ref_key, "{what}: edge keys");
        assert_eq!(
            e.probability.to_bits(),
            r.probability.to_bits(),
            "{what}: probability of {key:?}"
        );
        assert_eq!(
            e.weight.to_bits(),
            r.weight.to_bits(),
            "{what}: weight of {key:?}"
        );
        assert_eq!(
            e.flips_observable, r.flips_observable,
            "{what}: parity of {key:?}"
        );
    }
    assert_eq!(
        graph.decomposed_faults, reference.decomposed_faults,
        "{what}"
    );
    assert_eq!(
        graph.undetectable_logical_mass.to_bits(),
        reference.undetectable_logical_mass.to_bits(),
        "{what}"
    );
    assert_eq!(graph.parity_conflicts, reference.parity_conflicts, "{what}");
}

/// Every basis × d ∈ {3, 5} × boundary × sector × two rates of one
/// setup, with the noise model the block preparation uses.
fn check_setup(setup: Setup) {
    for basis in [Basis::Z, Basis::X] {
        for d in [3, 5] {
            let spec = MemorySpec::standard(setup, d, 3, basis);
            let hw = if setup.uses_memory() {
                HardwareParams::with_memory()
            } else {
                HardwareParams::baseline()
            };
            let mc = memory_circuit(spec, &hw);
            let (guard, other) = match basis {
                Basis::Z => (&mc.z_detectors, &mc.x_detectors),
                Basis::X => (&mc.x_detectors, &mc.z_detectors),
            };
            for boundary in Boundary::ALL {
                let (start, end) = mc.noise_window(boundary);
                for p in [1e-3, 1e-2] {
                    let model = if setup.uses_memory() {
                        NoiseModel::memory_at_scale(p)
                    } else {
                        NoiseModel::baseline_at_scale(p)
                    };
                    let noisy = model.apply_window(&mc.circuit, start, end);
                    let what = format!("{setup} {basis:?} d={d} {boundary} p={p}");
                    assert_identical(
                        &DecodingGraph::build(&noisy, guard),
                        &Reference::build(&noisy, guard, true),
                        &format!("{what} guard"),
                    );
                    assert_identical(
                        &DecodingGraph::build_non_guard(&noisy, other),
                        &Reference::build(&noisy, other, false),
                        &format!("{what} non-guard"),
                    );
                }
            }
        }
    }
}

#[test]
fn baseline_graphs_match_reference() {
    check_setup(Setup::Baseline);
}

#[test]
fn natural_all_at_once_graphs_match_reference() {
    check_setup(Setup::NaturalAllAtOnce);
}

#[test]
fn natural_interleaved_graphs_match_reference() {
    check_setup(Setup::NaturalInterleaved);
}

#[test]
fn compact_all_at_once_graphs_match_reference() {
    check_setup(Setup::CompactAllAtOnce);
}

#[test]
fn compact_interleaved_graphs_match_reference() {
    check_setup(Setup::CompactInterleaved);
}

/// The diagnostic is live today: contributions that disagree with an
/// edge's stored parity exist at baseline d=3 (the hook errors the
/// distance fix will remove), so the count must not silently read 0.
#[test]
fn parity_conflicts_are_counted_at_baseline() {
    let spec = MemorySpec::standard(Setup::Baseline, 3, 1, Basis::Z);
    let mc = memory_circuit(spec, &HardwareParams::baseline());
    let noisy = NoiseModel::baseline_at_scale(1e-3).apply(&mc.circuit);
    let graph = DecodingGraph::build(&noisy, &mc.z_detectors);
    let reference = Reference::build(&noisy, &mc.z_detectors, true);
    assert_eq!(graph.parity_conflicts, reference.parity_conflicts);
    assert!(graph.parity_conflicts > 0);
}
