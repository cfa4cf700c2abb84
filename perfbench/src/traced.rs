//! Traced stand-ins for the sweep executors and record sinks.
//!
//! The traced run must produce the same records as the untraced one,
//! so every stand-in calls the same public functions, in the same
//! order and with the same seed schedule, as the executor it replaces:
//!
//! - [`TracedMemory`] replaces `vlq_qec::MemoryExecutor`. It prepares
//!   and samples blocks itself, stage by stage, exactly as
//!   `PreparedBlock::prepare` and `PreparedBlock::run_shots` do, so
//!   each stage gets its own span.
//! - [`TracedProgram`] replaces `vlq::exec::ProgramSweepExecutor` and
//!   `vlq_tenant::TenantSweepExecutor`; frame replay is one span.
//! - [`TimedSink`] wraps a `RecordSink`.
//!
//! The `stage_composition_matches_prepared_block` test pins the first
//! of these against `PreparedBlock` bit for bit.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use vlq::circuit::exec::{sample_batch_into, SampleScratch};
use vlq::circuit::ir::Circuit;
use vlq::decoder::{Decoder, DecoderKind, DecoderScratch, DecodingGraph};
use vlq::exec::{machine_config_for_point, program_by_name, FramePrepared};
use vlq::program::compile;
use vlq::qec::{block_config_for_point, BlockConfig};
use vlq::surface::schedule::{memory_circuit, Boundary};
use vlq::sweep::{RecordSink, SweepExecutor, SweepPoint, SweepRecord};
use vlq_tenant::{machine_config_for_tenants, merge_standard_mix, parse_tenant_program};

use crate::trace::Tracer;

/// Lanes per sampled batch, as in `PreparedBlock::run_shots`.
const LANES_PER_BATCH: usize = 1024;

/// Maps a grid point back to its index, the request id of its spans.
pub struct PointIndex(HashMap<u64, usize>);

impl PointIndex {
    pub fn new(points: &[SweepPoint]) -> Self {
        let mut map = HashMap::new();
        for (i, pt) in points.iter().enumerate() {
            map.entry(pt.fingerprint()).or_insert(i);
        }
        PointIndex(map)
    }

    fn of(&self, point: &SweepPoint) -> Option<usize> {
        self.0.get(&point.fingerprint()).copied()
    }
}

/// Work counts gathered next to the spans (statistics only, so every
/// access is `Relaxed`).
#[derive(Debug, Default)]
pub struct Counters {
    pub lanes: AtomicU64,
    pub defects: AtomicU64,
    pub graph_edges: AtomicU64,
    pub block_exposures: AtomicU64,
}

/// A memory block prepared stage by stage: `PreparedBlock::prepare`
/// with a span around each stage.
pub struct StagedBlock {
    noisy: Circuit,
    guard: Vec<usize>,
    decoder: Box<dyn Decoder + Send + Sync>,
    decode_span: &'static str,
    edges: usize,
}

/// Per-chunk working set of [`StagedBlock::failure_words`].
#[derive(Default)]
pub struct StageScratch {
    sample: SampleScratch,
    defect_lists: Vec<Vec<usize>>,
    decoder: Option<DecoderScratch>,
    words: Vec<u64>,
}

impl StagedBlock {
    pub fn prepare(cfg: &BlockConfig, tracer: &Tracer, request: Option<usize>) -> Self {
        let memory = {
            let _s = tracer.span("surface.circuit_build", request);
            memory_circuit(cfg.spec.memory, &cfg.noise.hw)
        };
        let noisy = {
            let _s = tracer.span("circuit.noise_window", request);
            let (start, end) = memory.noise_window(cfg.spec.boundary);
            cfg.noise.apply_window(&memory.circuit, start, end)
        };
        let guard = memory.guard_detectors().to_vec();
        let graph = {
            let _s = tracer.span("decoder.graph_build", request);
            DecodingGraph::build(&noisy, &guard)
        };
        let decoder = {
            let _s = tracer.span("decoder.build", request);
            cfg.decoder.build(&graph)
        };
        StagedBlock {
            noisy,
            guard,
            decoder,
            decode_span: match cfg.decoder {
                DecoderKind::Mwpm => "decoder.mwpm_decode",
                DecoderKind::UnionFind => "decoder.uf_decode",
            },
            edges: graph.num_edges(),
        }
    }

    /// One seeded batch of `lanes` shots: the packed failure words
    /// (decoder prediction XOR actual flip), as
    /// `PreparedBlock::sample_failure_words_reusing` returns them.
    /// Also returns the batch's total defect count.
    pub fn failure_words<'s>(
        &self,
        lanes: usize,
        seed: u64,
        scratch: &'s mut StageScratch,
        tracer: &Tracer,
        request: Option<usize>,
    ) -> (&'s [u64], u64) {
        let words = lanes.div_ceil(64).max(1);
        let mut rng = SmallRng::seed_from_u64(seed);
        {
            let _s = tracer.span("circuit.sample", request);
            sample_batch_into(&self.noisy, lanes, &mut rng, &mut scratch.sample);
        }
        {
            let _s = tracer.span("circuit.extract", request);
            scratch
                .sample
                .result
                .defect_lists_into(&self.guard, lanes, &mut scratch.defect_lists);
        }
        let defects: usize = scratch.defect_lists[..lanes].iter().map(Vec::len).sum();
        let decoder_scratch = scratch
            .decoder
            .get_or_insert_with(|| self.decoder.make_scratch());
        {
            let _s = tracer.span(self.decode_span, request);
            scratch.words.clear();
            scratch.words.resize(words, 0);
            self.decoder.decode_batch(
                &scratch.defect_lists[..lanes],
                decoder_scratch,
                &mut scratch.words,
            );
            let actual = scratch.sample.result.observable_words(0);
            for (p, a) in scratch.words.iter_mut().zip(actual) {
                *p ^= a;
            }
        }
        (&scratch.words, defects as u64)
    }

    /// `PreparedBlock::run_shots`: fixed 1024-lane batches seeded
    /// `seed + batch index`, returning the failure count.
    fn run_shots(
        &self,
        shots: u64,
        seed: u64,
        tracer: &Tracer,
        request: Option<usize>,
        counters: &Counters,
    ) -> u64 {
        let mut scratch = StageScratch::default();
        let mut failures = 0u64;
        let mut remaining = shots;
        let mut batch_idx = 0u64;
        while remaining > 0 {
            let lanes = (remaining as usize).min(LANES_PER_BATCH);
            let (words, defects) = self.failure_words(
                lanes,
                seed.wrapping_add(batch_idx),
                &mut scratch,
                tracer,
                request,
            );
            failures += words.iter().map(|w| w.count_ones() as u64).sum::<u64>();
            counters.lanes.fetch_add(lanes as u64, Ordering::Relaxed);
            counters.defects.fetch_add(defects, Ordering::Relaxed);
            remaining -= lanes as u64;
            batch_idx += 1;
        }
        failures
    }
}

/// Traced `MemoryExecutor` (serial in-block sampling).
pub struct TracedMemory<'t> {
    pub tracer: &'t Tracer,
    pub index: PointIndex,
    pub counters: Counters,
}

impl SweepExecutor for TracedMemory<'_> {
    type Prepared = StagedBlock;

    fn prepare(&self, point: &SweepPoint) -> StagedBlock {
        let request = self.index.of(point);
        let _s = self.tracer.span("executor.prepare", request);
        let block = StagedBlock::prepare(
            &block_config_for_point(point, Boundary::Full),
            self.tracer,
            request,
        );
        self.counters
            .graph_edges
            .fetch_add(block.edges as u64, Ordering::Relaxed);
        block
    }

    fn run_chunk(&self, prepared: &StagedBlock, point: &SweepPoint, shots: u64, seed: u64) -> u64 {
        let request = self.index.of(point);
        let _s = self.tracer.span("executor.chunk", request);
        prepared.run_shots(shots, seed, self.tracer, request, &self.counters)
    }
}

/// Traced `ProgramSweepExecutor` (`tenants == false`) or
/// `TenantSweepExecutor` (`tenants == true`), both with mid-circuit
/// blocks and serial in-block replay.
pub struct TracedProgram<'t> {
    pub tracer: &'t Tracer,
    pub index: PointIndex,
    pub counters: Counters,
    pub tenants: bool,
}

impl SweepExecutor for TracedProgram<'_> {
    type Prepared = FramePrepared;

    fn prepare(&self, point: &SweepPoint) -> FramePrepared {
        let request = self.index.of(point);
        let _s = self.tracer.span("executor.prepare", request);
        let name = point
            .program
            .as_deref()
            .expect("program grid points carry a program name");
        let schedule = if self.tenants {
            let (tenants, policy) =
                parse_tenant_program(name).expect("tenant grid names are well formed");
            let config = machine_config_for_tenants(point);
            let _s = self.tracer.span("tenancy.schedule", request);
            merge_standard_mix(tenants, policy, config)
                .unwrap_or_else(|e| panic!("tenant mix failed to merge: {e}"))
                .schedule
        } else {
            let circuit = program_by_name(name).expect("program grid names are registered");
            let config = machine_config_for_point(point, circuit.num_qubits);
            let _s = self.tracer.span("vlq.compile", request);
            compile(&circuit, config)
                .expect("registered programs fit their machines")
                .schedule
        };
        let _s = self.tracer.span("vlq.frame_prepare", request);
        FramePrepared::new(schedule, point.p, point.decoder, Boundary::MidCircuit)
    }

    fn run_chunk(
        &self,
        prepared: &FramePrepared,
        point: &SweepPoint,
        shots: u64,
        seed: u64,
    ) -> u64 {
        let request = self.index.of(point);
        let _s = self.tracer.span("executor.chunk", request);
        let failures = {
            let _s = self.tracer.span("vlq.frame_replay", request);
            prepared.run_failures(shots, seed)
        };
        self.counters
            .block_exposures
            .fetch_add(prepared.blocks_per_shot() * shots, Ordering::Relaxed);
        failures
    }
}

/// A record sink whose writes and final flush are traced.
pub struct TimedSink<'a> {
    pub inner: &'a mut dyn RecordSink,
    pub tracer: &'a Tracer,
}

impl RecordSink for TimedSink<'_> {
    fn write(&mut self, record: &SweepRecord) -> io::Result<()> {
        let _s = self.tracer.span("sweep.sink", Some(record.index));
        self.inner.write(record)
    }

    fn write_timed(&mut self, record: &SweepRecord, nanos: u64) -> io::Result<()> {
        let _s = self.tracer.span("sweep.sink", Some(record.index));
        self.inner.write_timed(record, nanos)
    }

    fn wants_timing(&self) -> bool {
        self.inner.wants_timing()
    }

    fn finish(&mut self) -> io::Result<()> {
        let _s = self.tracer.span("sweep.sink", None);
        self.inner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlq::qec::{BlockScratch, BlockSpec, PreparedBlock};
    use vlq::surface::schedule::{Basis, MemorySpec, Setup};

    /// If `PreparedBlock` ever composes its stages differently, the
    /// traced run would time a pipeline the program no longer runs;
    /// this test fails first.
    #[test]
    fn stage_composition_matches_prepared_block() {
        let tracer = Tracer::new();
        for setup in Setup::ALL {
            for basis in [Basis::Z, Basis::X] {
                for decoder in DecoderKind::ALL {
                    let spec = BlockSpec::full(MemorySpec::standard(setup, 3, 10, basis));
                    let cfg = BlockConfig::new(spec, 6e-3).with_decoder(decoder);
                    let block = PreparedBlock::prepare(&cfg);
                    let staged = StagedBlock::prepare(&cfg, &tracer, None);
                    assert_eq!(staged.edges, block.graph.num_edges());
                    let mut reference = BlockScratch::new();
                    let mut scratch = StageScratch::default();
                    for (lanes, seed) in [(1024, 11), (700, 12), (1, 13)] {
                        let want = block
                            .sample_failure_words_reusing(lanes, seed, &mut reference)
                            .to_vec();
                        let (got, _) =
                            staged.failure_words(lanes, seed, &mut scratch, &tracer, None);
                        assert_eq!(got, &want[..], "{setup} {basis:?} {decoder} lanes {lanes}");
                    }
                    let counters = Counters::default();
                    assert_eq!(
                        staged.run_shots(2500, 99, &tracer, None, &counters),
                        vlq::qec::BlockSampler::run_shots(&block, 2500, 99),
                        "{setup} {basis:?} {decoder}"
                    );
                }
            }
        }
    }
}
