//! Circuit IR, noise annotation, and executors for the VLQ reproduction.
//!
//! The pipeline every experiment follows:
//!
//! 1. a schedule generator (in `vlq-surface`) emits an *ideal* [`Circuit`]
//!    — gates, measurements, resets, and `Idle` markers with durations;
//! 2. [`NoiseModel::apply`](noise::NoiseModel::apply) rewrites it into a
//!    *noisy* circuit (Pauli channels + readout flip probabilities);
//! 3. [`exec::validate_with_tableau`] proves the detector annotations are
//!    deterministic on the ideal circuit;
//! 4. [`exec::sensitivity_sweep`] walks the noisy circuit backwards once
//!    and yields, at every fault site, the detectors and observables an
//!    X or Z there would flip; `vlq-decoder` builds its matching graph
//!    from these (the single-fault [`exec::propagate_fault`] is the
//!    reference it is tested against);
//! 5. [`exec::sample_batch`] runs bit-parallel Monte Carlo shots.

pub mod exec;
pub mod ir;
pub mod noise;

pub use exec::{BatchResult, FaultEffect, FaultSite, ValidationReport};
pub use ir::{Circuit, Detector, GateClass, Instruction, Medium, QubitKind, QubitMeta};
pub use noise::{NoiseChannel, NoiseModel};
