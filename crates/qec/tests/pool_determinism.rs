//! The sample pool's bit-identity contract, property-style.
//!
//! A pooled `PreparedBlock::run` must return the exact failure count of
//! the serial run — and, recorded, the byte-identical deterministic
//! telemetry sidecar — at *any* worker count, for every `Boundary`
//! mode, across distances. The in-block batches are independently
//! seeded (`seed.wrapping_add(batch_idx)`) and reduced in batch order,
//! so the schedule (which worker ran which batch, in what order) can
//! never leak into results; this test is the executable form of that
//! claim. Mirrors `crates/sweep/tests/sharding.rs`.

use vlq_decoder::DecoderKind;
use vlq_qec::{BlockConfig, BlockSampler, BlockSpec, Parallelism, PreparedBlock, Run};
use vlq_surface::schedule::{Basis, Boundary, MemorySpec, Setup};
use vlq_telemetry::Recorder;

/// Crosses two full 1024-lane batches into a ragged third, so batch
/// claiming, stealing, and the tail batch are all exercised.
const SHOTS: u64 = 2500;
const SEED: u64 = 7_2020;

fn block_for(d: usize, boundary: Boundary) -> PreparedBlock {
    let memory = MemorySpec::standard(Setup::Baseline, d, 1, Basis::Z);
    let spec = BlockSpec { memory, boundary };
    PreparedBlock::prepare(&BlockConfig::new(spec, 4e-3).with_decoder(DecoderKind::UnionFind))
}

/// `block` through its own decoder under `run`.
fn failures(block: &PreparedBlock, run: Run) -> u64 {
    let mut failures = [0];
    block.run(&[block.decoder()], &run, &mut failures);
    failures[0]
}

fn pooled(par: &Parallelism) -> Run {
    Run::new(SHOTS, SEED).with_parallelism(par.clone())
}

#[test]
fn pooled_failure_counts_and_sidecars_match_serial_everywhere() {
    for d in [3usize, 5, 7] {
        for boundary in Boundary::ALL {
            let block = block_for(d, boundary);
            let serial = block.run_shots(SHOTS, SEED);
            let serial_rec = Recorder::attached();
            let serial_recorded = failures(
                &block,
                Run::new(SHOTS, SEED).with_recorder(serial_rec.clone()),
            );
            assert_eq!(
                serial, serial_recorded,
                "d{d} {boundary:?}: recording changed counts"
            );
            let serial_sidecar = serial_rec.deterministic_jsonl("pool-determinism", SEED);

            for threads in [1usize, 2, 3, 8] {
                let par = Parallelism::threads(threads);
                assert_eq!(
                    failures(&block, pooled(&par)),
                    serial,
                    "d{d} {boundary:?} threads={threads}: failure counts diverged"
                );
                let rec = Recorder::attached();
                assert_eq!(
                    failures(&block, pooled(&par).with_recorder(rec.clone())),
                    serial,
                    "d{d} {boundary:?} threads={threads}: recorded counts diverged"
                );
                assert_eq!(
                    rec.deterministic_jsonl("pool-determinism", SEED),
                    serial_sidecar,
                    "d{d} {boundary:?} threads={threads}: sidecar bytes diverged"
                );
            }
        }
    }
}

#[test]
fn pooled_multi_decoder_counts_match_serial() {
    let block = block_for(3, Boundary::Full);
    let uf = DecoderKind::UnionFind.build(&block.graph);
    let mwpm = DecoderKind::Mwpm.build(&block.graph);
    let decoders: [&(dyn vlq_decoder::Decoder + Send + Sync); 2] = [uf.as_ref(), mwpm.as_ref()];
    let mut serial = [0; 2];
    block.run(&decoders, &Run::new(SHOTS, SEED), &mut serial);
    for threads in [2usize, 3] {
        let mut pooled_counts = [0; 2];
        block.run(
            &decoders,
            &pooled(&Parallelism::threads(threads)),
            &mut pooled_counts,
        );
        assert_eq!(
            pooled_counts, serial,
            "threads={threads}: multi-decoder counts diverged"
        );
    }
}

#[test]
fn one_thread_means_no_pool() {
    assert!(Parallelism::threads(1).pool().is_none());
    assert!(Parallelism::threads(0).pool().is_none());
    assert!(Parallelism::serial().pool().is_none());
    assert_eq!(Parallelism::serial().workers(), 1);
    assert_eq!(Parallelism::threads(4).workers(), 4);
}

/// A pool outliving one block and serving another (and the same block
/// again) must still be bit-identical: per-worker scratches are keyed
/// on block identity and rebuilt on change, never reused stale.
#[test]
fn pool_reuse_across_blocks_stays_identical() {
    let par = Parallelism::threads(2);
    let a = block_for(3, Boundary::MidCircuit);
    let b = block_for(5, Boundary::Prep);
    let serial_a = a.run_shots(SHOTS, SEED);
    let serial_b = b.run_shots(SHOTS, SEED);
    assert_eq!(failures(&a, pooled(&par)), serial_a);
    assert_eq!(failures(&b, pooled(&par)), serial_b);
    assert_eq!(failures(&a, pooled(&par)), serial_a);
}
