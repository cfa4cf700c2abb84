//! The union-find batch path memoises predictions by syndrome. Through
//! one reused scratch it must stay bit-identical to the memo-free
//! per-lane `decode`, and record the same telemetry totals as
//! fresh-scratch `decode_with` calls, on repeated lists, on real block
//! syndromes, and when the scratch alternates between two graphs of
//! the same size.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vlq_arch::params::HardwareParams;
use vlq_circuit::exec::{sample_batch_into, SampleScratch};
use vlq_circuit::noise::NoiseModel;
use vlq_decoder::{Decoder, DecoderScratch, DecodingGraph, UfScratch, UnionFindDecoder};
use vlq_surface::schedule::{memory_circuit, Basis, Boundary, MemorySpec, Setup};
use vlq_telemetry::{Metric, Recorder};

/// The deterministic statistics the union-find decoder records.
const UF_METRICS: [Metric; 3] = [
    Metric::UfGrowthSteps,
    Metric::UfTouchedNodes,
    Metric::UfOddClusterPeak,
];

fn baseline_graph(d: usize, p: f64) -> DecodingGraph {
    let spec = MemorySpec::standard(Setup::Baseline, d, 1, Basis::Z);
    let mc = memory_circuit(spec, &HardwareParams::baseline());
    let noisy = NoiseModel::baseline_at_scale(p).apply(&mc.circuit);
    DecodingGraph::build(&noisy, &mc.z_detectors)
}

/// A compact-int d=3 mid-circuit block of `rounds` syndrome rounds, as
/// a program replay prepares it: the guard-sector graph and the noisy
/// circuit to sample it from.
struct Block {
    graph: DecodingGraph,
    noisy: vlq_circuit::ir::Circuit,
    guard: Vec<usize>,
}

fn compact_block(rounds: usize, basis: Basis, p: f64) -> Block {
    let noise = NoiseModel::memory_at_scale(p);
    let mut spec = MemorySpec::standard(Setup::CompactInterleaved, 3, 4, basis);
    spec.rounds = rounds;
    let mc = memory_circuit(spec, &noise.hw);
    let (start, end) = mc.noise_window(Boundary::MidCircuit);
    let noisy = noise.apply_window(&mc.circuit, start, end);
    let guard = mc.guard_detectors().to_vec();
    let graph = DecodingGraph::build(&noisy, &guard);
    Block {
        graph,
        noisy,
        guard,
    }
}

/// One seeded batch of `lanes` sampled defect lists of a block.
fn sampled_lists(block: &Block, lanes: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut scratch = SampleScratch::new();
    sample_batch_into(&block.noisy, lanes, &mut rng, &mut scratch);
    let mut lists = Vec::new();
    scratch
        .result
        .defect_lists_into(&block.guard, lanes, &mut lists);
    lists.truncate(lanes);
    lists
}

/// `lanes` lanes drawn from a small pool of distinct sorted lists, so
/// most lanes repeat an earlier one. Pool lengths run 0..=9: 8 is the
/// longest list the memo keys, 9 the shortest it bypasses.
fn repeated_lists(rng: &mut SmallRng, lanes: usize, num_nodes: usize) -> Vec<Vec<usize>> {
    let pool: Vec<Vec<usize>> = (0..60)
        .map(|i| {
            let k = (i % 10).min(num_nodes);
            let mut defects: Vec<usize> = Vec::new();
            while defects.len() < k {
                let d = rng.random_range(0..num_nodes);
                if !defects.contains(&d) {
                    defects.push(d);
                }
            }
            defects.sort_unstable();
            defects
        })
        .collect();
    (0..lanes)
        .map(|_| pool[rng.random_range(0..pool.len())].clone())
        .collect()
}

fn per_lane_decode(decoder: &UnionFindDecoder, lists: &[Vec<usize>]) -> Vec<u64> {
    let mut out = vec![0u64; lists.len().div_ceil(64)];
    for (lane, defects) in lists.iter().enumerate() {
        if decoder.decode(defects) {
            out[lane / 64] |= 1u64 << (lane % 64);
        }
    }
    out
}

fn batch_decode(
    decoder: &UnionFindDecoder,
    lists: &[Vec<usize>],
    scratch: &mut DecoderScratch,
) -> Vec<u64> {
    let mut out = vec![0u64; lists.len().div_ceil(64)];
    decoder.decode_batch(lists, scratch, &mut out);
    out
}

/// Decodes `lists` in 1024-lane batches through `scratch` and checks
/// every batch against per-lane `decode`.
fn assert_batches_match(
    decoder: &UnionFindDecoder,
    lists: &[Vec<usize>],
    scratch: &mut DecoderScratch,
    what: &str,
) {
    for (b, batch) in lists.chunks(1024).enumerate() {
        assert_eq!(
            batch_decode(decoder, batch, scratch),
            per_lane_decode(decoder, batch),
            "{what}: batch {b}"
        );
    }
}

/// (a) Heavily repeated random lists, including lengths on both sides
/// of the memo's length limit, through one scratch.
#[test]
fn repeated_lists_match_per_lane_decode() {
    let mut rng = SmallRng::seed_from_u64(2020);
    for d in [3usize, 5] {
        let graph = baseline_graph(d, 5e-3);
        let decoder = UnionFindDecoder::new(&graph);
        let lists = repeated_lists(&mut rng, 4096, graph.num_nodes());
        assert!(lists.iter().any(|l| l.len() == 8) && lists.iter().any(|l| l.len() == 9));
        let recorder = Recorder::attached();
        let mut scratch = decoder.make_scratch();
        scratch.set_recorder(&recorder);
        assert_batches_match(&decoder, &lists, &mut scratch, &format!("baseline d{d}"));
        let keyed = lists.iter().filter(|l| (1..=8).contains(&l.len())).count() as u64;
        assert_eq!(recorder.value(Metric::UfMemoLookups), keyed, "d{d}");
        assert!(
            recorder.value(Metric::UfMemoHits) > keyed / 2,
            "d{d}: repeated lists should mostly hit"
        );
    }
}

/// (b) Real syndromes of the small blocks a program replay decodes.
#[test]
fn sampled_block_syndromes_match_per_lane_decode() {
    for rounds in [1usize, 3, 6] {
        for basis in [Basis::Z, Basis::X] {
            let block = compact_block(rounds, basis, 5e-3);
            let decoder = UnionFindDecoder::new(&block.graph);
            let mut scratch = decoder.make_scratch();
            for seed in 0..4u64 {
                let lists = sampled_lists(&block, 1024, 7 + seed);
                let what = format!("compact-int d3 r{rounds} {basis:?} seed {seed}");
                assert_batches_match(&decoder, &lists, &mut scratch, &what);
            }
        }
    }
}

/// (c) Two graphs of one circuit at different error rates share a node
/// count but not answers: a scratch alternating between their decoders
/// must never answer one from the other's memo.
#[test]
fn scratch_alternating_between_equal_sized_graphs_stays_exact() {
    let low = compact_block(3, Basis::Z, 1e-3);
    let high = compact_block(3, Basis::Z, 1e-2);
    assert_eq!(low.graph.num_nodes(), high.graph.num_nodes());
    let dec_low = UnionFindDecoder::new(&low.graph);
    let dec_high = UnionFindDecoder::new(&high.graph);
    let mut rng = SmallRng::seed_from_u64(9);
    let mut lists = sampled_lists(&high, 1024, 11);
    lists.extend(repeated_lists(&mut rng, 1024, high.graph.num_nodes()));
    assert_ne!(
        per_lane_decode(&dec_low, &lists),
        per_lane_decode(&dec_high, &lists),
        "the two graphs must disagree somewhere for this test to bite"
    );
    let mut scratch = dec_low.make_scratch();
    for round in 0..3 {
        for (name, decoder) in [("p=1e-3", &dec_low), ("p=1e-2", &dec_high)] {
            let what = format!("round {round} {name}");
            assert_batches_match(decoder, &lists, &mut scratch, &what);
        }
    }
}

/// (d) Telemetry totals through a reused, memoising scratch equal the
/// sum over fresh-scratch `decode_with` calls, so hits re-record the
/// statistics of the decode they stand for.
#[test]
fn memo_hits_record_the_same_totals_as_fresh_decodes() {
    let block = compact_block(6, Basis::X, 5e-3);
    let decoder = UnionFindDecoder::new(&block.graph);
    let mut rng = SmallRng::seed_from_u64(4);
    let mut lists = sampled_lists(&block, 1024, 21);
    lists.extend(repeated_lists(&mut rng, 1024, block.graph.num_nodes()));

    let reused = Recorder::attached();
    let mut scratch = decoder.make_scratch();
    scratch.set_recorder(&reused);
    for batch in lists.chunks(1024) {
        batch_decode(&decoder, batch, &mut scratch);
    }
    assert!(
        reused.value(Metric::UfMemoHits) > 0,
        "no memo hit exercised"
    );

    let fresh = Recorder::attached();
    for defects in &lists {
        let mut one = UfScratch::new(block.graph.num_nodes());
        one.set_recorder(&fresh);
        decoder.decode_with(defects, &mut one);
    }
    for metric in UF_METRICS {
        assert_eq!(
            reused.value(metric),
            fresh.value(metric),
            "{}",
            metric.name()
        );
    }
}
