//! Circuit executors.
//!
//! Four ways to run a [`Circuit`]:
//!
//! * [`sample_batch`] — Monte-Carlo: runs 64-shot-per-word Pauli-frame
//!   batches and reduces measurements to detection events and observable
//!   flips.
//! * [`propagate_fault`] — deterministic: injects one fault at a given
//!   site and reports exactly which detectors/observables flip.
//! * [`sensitivity_sweep`] — deterministic, all sites at once: one
//!   backwards pass that gives every fault site's effect (used to build
//!   matching graphs; agrees with [`propagate_fault`] site by site).
//! * [`validate_with_tableau`] — runs the *ideal* part of the circuit on
//!   the stabilizer simulator and checks that every detector is
//!   deterministic (XOR = 0) and every observable is deterministic; this
//!   is the gate every generated schedule must pass.

use rand::Rng;
use vlq_pauli::Pauli;
use vlq_sim::tableau::MeasureOutcome;
use vlq_sim::{CliffordGate, FrameBatch, SingleFrame, Tableau};

use crate::ir::{Circuit, Instruction};

/// The result of sampling a batch of shots.
#[derive(Clone, Debug, Default)]
pub struct BatchResult {
    /// Number of shot lanes.
    pub n_lanes: usize,
    /// Detection events: `detectors[d]` holds one bit per lane (packed).
    pub detectors: Vec<Vec<u64>>,
    /// Observable flips: `observables[o]` holds one bit per lane.
    pub observables: Vec<Vec<u64>>,
}

impl BatchResult {
    /// Reads detector `d` for `lane`.
    pub fn detector_bit(&self, d: usize, lane: usize) -> bool {
        self.detectors[d][lane / 64] >> (lane % 64) & 1 == 1
    }

    /// Reads observable `o` for `lane`.
    pub fn observable_bit(&self, o: usize, lane: usize) -> bool {
        self.observables[o][lane / 64] >> (lane % 64) & 1 == 1
    }

    /// The packed per-lane flip words of observable `o` (one bit per
    /// lane; tail bits beyond `n_lanes` are zero).
    pub fn observable_words(&self, o: usize) -> &[u64] {
        &self.observables[o]
    }

    /// The defect list (flipped detectors) of one lane, in detector
    /// order.
    pub fn defects_of_lane(&self, lane: usize) -> Vec<usize> {
        let word = lane / 64;
        let bit = 1u64 << (lane % 64);
        let mut defects = Vec::new();
        for (d, col) in self.detectors.iter().enumerate() {
            for_each_set_lane(&[col[word] & bit], |_| defects.push(d));
        }
        defects
    }

    /// Word-scan transpose of a detector subset: clears the first
    /// `lanes` entries of `lists` and fills `lists[lane]` with the
    /// *local* indices (positions within `detectors`) of the detectors
    /// whose bit is set for that lane, in increasing local order.
    ///
    /// This visits only *set* bits (`trailing_zeros` over the packed
    /// columns), so the cost is O(detectors·words + defects) instead of
    /// the O(lanes·detectors) of probing [`BatchResult::detector_bit`]
    /// per lane. Tail bits beyond `n_lanes` are zero by construction,
    /// so every visited lane is `< lanes`.
    pub fn defect_lists_into(
        &self,
        detectors: &[usize],
        lanes: usize,
        lists: &mut Vec<Vec<usize>>,
    ) {
        if lists.len() < lanes {
            // Seed fresh lists with a little capacity: typical defect
            // counts are single-digit, and first-touch growth would
            // otherwise trickle allocations across many steady-state
            // batches (one per lane the first time it sees a defect).
            lists.resize_with(lanes, || Vec::with_capacity(16));
        }
        for list in &mut lists[..lanes] {
            list.clear();
        }
        let words = lanes.div_ceil(64).max(1);
        for (local, &global) in detectors.iter().enumerate() {
            for_each_set_lane(&self.detectors[global][..words], |lane| {
                debug_assert!(lane < lanes, "tail bit set beyond n_lanes");
                lists[lane].push(local);
            });
        }
    }
}

/// Visits every set bit of a packed lane column as its lane index, in
/// increasing lane order (the word-scan shared by all defect
/// extraction paths).
#[inline]
pub fn for_each_set_lane(words: &[u64], mut visit: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            visit(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Reusable working memory for [`sample_batch_into`]: the frame batch,
/// the measurement records, and the reduced detector/observable
/// accumulators. Owning one across batches makes steady-state sampling
/// allocation-free (buffers are cleared and refilled, never dropped).
#[derive(Debug, Default)]
pub struct SampleScratch {
    frames: Option<FrameBatch>,
    records: Vec<Vec<u64>>,
    /// The last batch's reduced result (valid after
    /// [`sample_batch_into`] returns; accumulators are reused).
    pub result: BatchResult,
}

impl SampleScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs `n_lanes` Monte-Carlo shots of a noisy circuit.
///
/// Noise instructions must already be present (see
/// [`crate::noise::NoiseModel::apply`]); `Idle` markers are ignored if
/// they survived (they carry no sampled noise).
pub fn sample_batch<R: Rng + ?Sized>(
    circuit: &Circuit,
    n_lanes: usize,
    rng: &mut R,
) -> BatchResult {
    let mut scratch = SampleScratch::new();
    sample_batch_into(circuit, n_lanes, rng, &mut scratch);
    scratch.result
}

/// [`sample_batch`] into caller-owned scratch: identical RNG stream and
/// bit-identical `scratch.result`, but steady-state calls reuse every
/// buffer instead of reallocating per batch.
pub fn sample_batch_into<R: Rng + ?Sized>(
    circuit: &Circuit,
    n_lanes: usize,
    rng: &mut R,
    scratch: &mut SampleScratch,
) {
    let frames = match &mut scratch.frames {
        Some(f) if f.num_qubits() == circuit.num_qubits && f.num_lanes() == n_lanes => {
            f.clear();
            f
        }
        slot => slot.insert(FrameBatch::new(circuit.num_qubits, n_lanes)),
    };
    let records = &mut scratch.records;
    let mut used = 0usize;
    for inst in &circuit.instructions {
        match *inst {
            Instruction::Gate { gate, .. } => frames.apply(gate),
            Instruction::Measure { qubit, flip_prob } => {
                if used == records.len() {
                    records.push(Vec::new());
                }
                let rec = &mut records[used];
                used += 1;
                frames.measure_z_into(qubit, rec);
                if flip_prob > 0.0 {
                    FrameBatch::apply_record_noise(rec, n_lanes, flip_prob, rng);
                }
                // Measurement projection gauge: randomize the frame's Z
                // component on the measured qubit (harmless for our
                // measure-then-reset ancillas, required in general).
                frames.randomize_z(qubit, rng);
            }
            Instruction::Reset { qubit } => frames.reset_qubit(qubit),
            Instruction::Idle { .. } => {}
            Instruction::Noise1 { qubit, p } => frames.apply_1q_noise(qubit, p, rng),
            Instruction::Noise2 { a, b, p } => frames.apply_2q_noise(a, b, p, rng),
        }
    }
    reduce_records(circuit, n_lanes, &records[..used], &mut scratch.result);
}

fn reduce_records(circuit: &Circuit, n_lanes: usize, records: &[Vec<u64>], out: &mut BatchResult) {
    let words = n_lanes.div_ceil(64).max(1);
    let xor_into = |acc: &mut Vec<u64>, measurements: &[usize]| {
        acc.clear();
        acc.resize(words, 0);
        for &m in measurements {
            for (a, b) in acc.iter_mut().zip(&records[m]) {
                *a ^= b;
            }
        }
    };
    out.n_lanes = n_lanes;
    out.detectors.resize_with(circuit.detectors.len(), Vec::new);
    for (acc, det) in out.detectors.iter_mut().zip(&circuit.detectors) {
        xor_into(acc, &det.measurements);
    }
    out.observables
        .resize_with(circuit.observables.len(), Vec::new);
    for (acc, obs) in out.observables.iter_mut().zip(&circuit.observables) {
        xor_into(acc, obs);
    }
}

/// A place in the circuit where a fault can occur.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A Pauli error on one qubit immediately after instruction `at`.
    Pauli1 {
        /// Instruction index.
        at: usize,
        /// Affected qubit.
        qubit: usize,
        /// Injected Pauli.
        pauli: Pauli,
    },
    /// A two-qubit Pauli error after instruction `at`.
    Pauli2 {
        /// Instruction index.
        at: usize,
        /// First qubit and its Pauli.
        a: (usize, Pauli),
        /// Second qubit and its Pauli.
        b: (usize, Pauli),
    },
    /// A recorded-measurement flip of instruction `at`.
    MeasureFlip {
        /// Instruction index (must be a `Measure`).
        at: usize,
    },
}

/// The deterministic effect of one fault.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultEffect {
    /// Flipped detector indices (sorted).
    pub detectors: Vec<usize>,
    /// Flipped observable indices (sorted).
    pub observables: Vec<usize>,
}

/// Propagates a single fault through the circuit and reports which
/// detectors and observables flip.
///
/// # Panics
///
/// Panics if the site's instruction index is out of range or a
/// `MeasureFlip` site does not point at a measurement.
pub fn propagate_fault(circuit: &Circuit, site: FaultSite) -> FaultEffect {
    let start = match site {
        FaultSite::Pauli1 { at, .. }
        | FaultSite::Pauli2 { at, .. }
        | FaultSite::MeasureFlip { at } => at,
    };
    assert!(
        start < circuit.instructions.len(),
        "fault site out of range"
    );

    // Measurement indices are global; count how many precede `start`.
    let mut meas_index = circuit.instructions[..start]
        .iter()
        .filter(|i| matches!(i, Instruction::Measure { .. }))
        .count();

    let mut frame = SingleFrame::new(circuit.num_qubits);
    let mut flipped_measurements: Vec<usize> = Vec::new();

    // Inject the fault. Pauli faults apply *after* instruction `start`
    // executes; a MeasureFlip flips that measurement's record.
    match site {
        FaultSite::Pauli1 { qubit, pauli, .. } => {
            run_instruction(
                circuit,
                start,
                &mut frame,
                &mut meas_index,
                &mut flipped_measurements,
            );
            frame.mul_pauli(qubit, pauli);
        }
        FaultSite::Pauli2 { a, b, .. } => {
            run_instruction(
                circuit,
                start,
                &mut frame,
                &mut meas_index,
                &mut flipped_measurements,
            );
            frame.mul_pauli(a.0, a.1);
            frame.mul_pauli(b.0, b.1);
        }
        FaultSite::MeasureFlip { at } => {
            assert!(
                matches!(circuit.instructions[at], Instruction::Measure { .. }),
                "MeasureFlip site must point at a measurement"
            );
            flipped_measurements.push(meas_index);
            meas_index += 1;
            // The frame itself is untouched; skip the instruction.
        }
    }

    for idx in (start + 1)..circuit.instructions.len() {
        run_instruction(
            circuit,
            idx,
            &mut frame,
            &mut meas_index,
            &mut flipped_measurements,
        );
    }

    // Map flipped measurements to flipped detectors/observables.
    let mut effect = FaultEffect::default();
    for (d, det) in circuit.detectors.iter().enumerate() {
        let parity = det
            .measurements
            .iter()
            .filter(|m| flipped_measurements.contains(m))
            .count()
            % 2;
        if parity == 1 {
            effect.detectors.push(d);
        }
    }
    for (o, obs) in circuit.observables.iter().enumerate() {
        let parity = obs
            .iter()
            .filter(|m| flipped_measurements.contains(m))
            .count()
            % 2;
        if parity == 1 {
            effect.observables.push(o);
        }
    }
    effect
}

fn run_instruction(
    circuit: &Circuit,
    idx: usize,
    frame: &mut SingleFrame,
    meas_index: &mut usize,
    flipped: &mut Vec<usize>,
) {
    match circuit.instructions[idx] {
        Instruction::Gate { gate, .. } => frame.apply(gate),
        Instruction::Measure { qubit, .. } => {
            if frame.x_bit(qubit) {
                flipped.push(*meas_index);
            }
            *meas_index += 1;
        }
        Instruction::Reset { qubit } => frame.reset_qubit(qubit),
        Instruction::Idle { .. } | Instruction::Noise1 { .. } | Instruction::Noise2 { .. } => {}
    }
}

/// The tokens a [`sensitivity_sweep`] tracks, per measurement record:
/// `of(m)` is the sorted list of tokens whose parity flips when record
/// `m` flips. A token names a detector or an observable, chosen by the
/// caller; a record listed an even number of times contributes nothing.
#[derive(Clone, Debug, Default)]
pub struct RecordTokens {
    /// `ids[offsets[m]..offsets[m + 1]]` are record `m`'s tokens.
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl RecordTokens {
    /// Tabulates the tokens of every record of `circuit`. Detector `d`
    /// contributes token `detector_token(d)` and observable `o` token
    /// `observable_token(o)`; `None` leaves it untracked.
    pub fn new(
        circuit: &Circuit,
        detector_token: impl Fn(usize) -> Option<u32>,
        observable_token: impl Fn(usize) -> Option<u32>,
    ) -> Self {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut add = |records: &[usize], token: Option<u32>| {
            if let Some(t) = token {
                pairs.extend(
                    records
                        .iter()
                        .map(|&m| (u32::try_from(m).expect("record index fits u32"), t)),
                );
            }
        };
        for (d, det) in circuit.detectors.iter().enumerate() {
            add(&det.measurements, detector_token(d));
        }
        for (o, obs) in circuit.observables.iter().enumerate() {
            add(obs, observable_token(o));
        }
        pairs.sort_unstable();
        let mut table = RecordTokens {
            offsets: vec![0; circuit.num_measurements() + 1],
            ids: Vec::new(),
        };
        // Keep each (record, token) pair that occurs an odd number of
        // times; `offsets` first counts per record, then sums.
        for run in pairs.chunk_by(|x, y| x == y) {
            if run.len() % 2 == 1 {
                let (m, t) = run[0];
                table.ids.push(t);
                table.offsets[m as usize + 1] += 1;
            }
        }
        for m in 1..table.offsets.len() {
            table.offsets[m] += table.offsets[m - 1];
        }
        table
    }

    /// The sorted tokens that flip with record `m`.
    pub fn of(&self, m: usize) -> &[u32] {
        &self.ids[self.offsets[m] as usize..self.offsets[m + 1] as usize]
    }
}

/// Writes the symmetric difference of two sorted token lists into
/// `out` (sorted). This is how fault effects compose: a Pauli product
/// flips exactly the tokens flipped by an odd number of its factors.
pub fn xor_sorted_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Writes the tokens a `pauli` error flips into `out`, given the
/// sorted token lists `x` and `z` that an X and a Z error at the same
/// place flip (a Y flips their symmetric difference).
pub fn pauli_tokens_into(x: &[u32], z: &[u32], pauli: Pauli, out: &mut Vec<u32>) {
    let (px, pz) = pauli.xz();
    xor_sorted_into(if px { x } else { &[] }, if pz { z } else { &[] }, out);
}

/// Per-qubit sensitivities at one point of a circuit: `x(q)` (`z(q)`)
/// is the sorted token list an X (Z) error on `q` at that point would
/// flip by the end of the circuit (see [`pauli_tokens_into`] for Y).
#[derive(Clone, Debug)]
pub struct Sensitivity {
    /// `sets[2q]` is `x(q)`, `sets[2q + 1]` is `z(q)`.
    sets: Vec<Vec<u32>>,
    tmp: Vec<u32>,
}

fn xs(q: usize) -> usize {
    2 * q
}

fn zs(q: usize) -> usize {
    2 * q + 1
}

impl Sensitivity {
    /// Tokens an X error on `q` flips.
    pub fn x(&self, q: usize) -> &[u32] {
        &self.sets[xs(q)]
    }

    /// Tokens a Z error on `q` flips.
    pub fn z(&self, q: usize) -> &[u32] {
        &self.sets[zs(q)]
    }

    /// `sets[dst] ^= other`.
    fn xor_with(&mut self, dst: usize, other: &[u32]) {
        xor_sorted_into(&self.sets[dst], other, &mut self.tmp);
        std::mem::swap(&mut self.sets[dst], &mut self.tmp);
    }

    /// `sets[dst] ^= sets[src]`, for `dst != src`.
    fn xor_set(&mut self, dst: usize, src: usize) {
        let other = std::mem::take(&mut self.sets[src]);
        self.xor_with(dst, &other);
        self.sets[src] = other;
    }

    /// Pulls the sensitivities back through `gate`: afterwards they
    /// describe errors placed just *before* the gate. Each rule is the
    /// transpose of [`SingleFrame::apply`]'s forward action.
    fn unapply(&mut self, gate: CliffordGate) {
        use CliffordGate::*;
        match gate {
            H(q) => self.sets.swap(xs(q), zs(q)),
            S(q) | SDag(q) => self.xor_set(xs(q), zs(q)),
            X(_) | Y(_) | Z(_) => {}
            Cnot(c, t) => {
                self.xor_set(xs(c), xs(t));
                self.xor_set(zs(t), zs(c));
            }
            Cz(a, b) => {
                self.xor_set(xs(a), zs(b));
                self.xor_set(xs(b), zs(a));
            }
            Swap(a, b) => {
                self.sets.swap(xs(a), xs(b));
                self.sets.swap(zs(a), zs(b));
            }
            ISwap(a, b) => {
                // Forward: S(a), S(b), Cz(a, b), Swap(a, b).
                self.unapply(Swap(a, b));
                self.unapply(Cz(a, b));
                self.unapply(S(b));
                self.unapply(S(a));
            }
        }
    }
}

/// The reverse detector-sensitivity sweep (the detector-error-model
/// construction of Gidney, arXiv 2103.02202): walks `circuit` backwards
/// once, carrying each qubit's X and Z sensitivity over the tokens of
/// `tokens`, and calls `visit(at, s)` for every instruction index `at`
/// in decreasing order, where `s` holds the sensitivities just *after*
/// instruction `at`.
///
/// A [`FaultSite::Pauli1`] at `at` therefore flips `s.x`/`s.z` of its
/// qubit (XOR both for Y), a [`FaultSite::Pauli2`] the XOR of its two
/// single-qubit effects, and a [`FaultSite::MeasureFlip`] of record `m`
/// flips `tokens.of(m)` — the same effects [`propagate_fault`] reports
/// one fault at a time, for O(circuit length) total work.
pub fn sensitivity_sweep(
    circuit: &Circuit,
    tokens: &RecordTokens,
    mut visit: impl FnMut(usize, &Sensitivity),
) {
    let mut s = Sensitivity {
        sets: vec![Vec::new(); 2 * circuit.num_qubits],
        tmp: Vec::new(),
    };
    let mut record = circuit.num_measurements();
    for (at, inst) in circuit.instructions.iter().enumerate().rev() {
        visit(at, &s);
        match *inst {
            Instruction::Gate { gate, .. } => s.unapply(gate),
            Instruction::Measure { qubit, .. } => {
                record -= 1;
                s.xor_with(xs(qubit), tokens.of(record));
            }
            Instruction::Reset { qubit } => {
                s.sets[xs(qubit)].clear();
                s.sets[zs(qubit)].clear();
            }
            Instruction::Idle { .. } | Instruction::Noise1 { .. } | Instruction::Noise2 { .. } => {}
        }
    }
}

/// Outcome of tableau validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidationReport {
    /// Number of measurements whose ideal outcome was random.
    pub random_measurements: usize,
    /// Detector indices that came out nonzero (must be empty to pass).
    pub violated_detectors: Vec<usize>,
    /// Observable values (index, bit); all must be deterministic-0 for
    /// memory experiments that prepare the +1 logical eigenstate.
    pub observable_bits: Vec<bool>,
}

impl ValidationReport {
    /// Passing = every detector deterministic-zero.
    pub fn passed(&self) -> bool {
        self.violated_detectors.is_empty()
    }
}

/// Runs the ideal part of the circuit on the stabilizer simulator with
/// randomized outcomes for genuinely random measurements, then checks
/// every detector XORs to zero.
///
/// Any detector that fails here would mis-anchor the decoder, so schedule
/// generators call this before a circuit is eligible for Monte Carlo.
pub fn validate_with_tableau<R: Rng + ?Sized>(circuit: &Circuit, rng: &mut R) -> ValidationReport {
    let mut tableau = Tableau::new(circuit.num_qubits);
    let mut record: Vec<bool> = Vec::with_capacity(circuit.num_measurements());
    let mut random_measurements = 0usize;
    for inst in &circuit.instructions {
        match *inst {
            Instruction::Gate { gate, .. } => tableau.apply(gate),
            Instruction::Measure { qubit, .. } => {
                let out = tableau.measure_z(qubit, || rng.random::<bool>());
                if matches!(out, MeasureOutcome::Random(_)) {
                    random_measurements += 1;
                }
                record.push(out.bit());
            }
            Instruction::Reset { qubit } => tableau.reset_z(qubit, || rng.random::<bool>()),
            Instruction::Idle { .. } | Instruction::Noise1 { .. } | Instruction::Noise2 { .. } => {}
        }
    }
    let violated_detectors = circuit
        .detectors
        .iter()
        .enumerate()
        .filter(|(_, det)| {
            det.measurements
                .iter()
                .fold(false, |acc, &m| acc ^ record[m])
        })
        .map(|(d, _)| d)
        .collect();
    let observable_bits = circuit
        .observables
        .iter()
        .map(|obs| obs.iter().fold(false, |acc, &m| acc ^ record[m]))
        .collect();
    ValidationReport {
        random_measurements,
        violated_detectors,
        observable_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::GateClass;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use vlq_sim::CliffordGate;

    /// A 3-qubit repetition-code memory circuit: two rounds of ZZ parity
    /// checks via two ancillas, then data readout.
    fn repetition_circuit(rounds: usize) -> Circuit {
        // Qubits: data 0,1,2; ancilla 3 (checks 0-1), 4 (checks 1-2).
        let mut c = Circuit::new(5);
        let mut prev: Option<(usize, usize)> = None;
        for r in 0..rounds {
            for &a in &[3usize, 4] {
                c.reset(a);
            }
            c.gate(CliffordGate::Cnot(0, 3), GateClass::TwoQubitTT);
            c.gate(CliffordGate::Cnot(1, 3), GateClass::TwoQubitTT);
            c.gate(CliffordGate::Cnot(1, 4), GateClass::TwoQubitTT);
            c.gate(CliffordGate::Cnot(2, 4), GateClass::TwoQubitTT);
            let m3 = c.measure(3);
            let m4 = c.measure(4);
            match prev {
                None => {
                    c.detector(vec![m3], (0, 0, r as i32));
                    c.detector(vec![m4], (1, 0, r as i32));
                }
                Some((p3, p4)) => {
                    c.detector(vec![m3, p3], (0, 0, r as i32));
                    c.detector(vec![m4, p4], (1, 0, r as i32));
                }
            }
            prev = Some((m3, m4));
        }
        let d0 = c.measure(0);
        let d1 = c.measure(1);
        let d2 = c.measure(2);
        let (p3, p4) = prev.unwrap();
        c.detector(vec![d0, d1, p3], (0, 0, rounds as i32));
        c.detector(vec![d1, d2, p4], (1, 0, rounds as i32));
        c.observable(vec![d0]);
        c.check().unwrap();
        c
    }

    #[test]
    fn tableau_validation_passes_for_repetition_code() {
        let c = repetition_circuit(3);
        let mut rng = SmallRng::seed_from_u64(1);
        let report = validate_with_tableau(&c, &mut rng);
        assert!(
            report.passed(),
            "violations: {:?}",
            report.violated_detectors
        );
        assert_eq!(report.observable_bits, vec![false]);
    }

    #[test]
    fn tableau_validation_catches_bad_detector() {
        let mut c = Circuit::new(1);
        c.gate(CliffordGate::X(0), GateClass::OneQubit);
        let m = c.measure(0);
        c.detector(vec![m], (0, 0, 0)); // outcome is 1, not 0 -> violated
        let mut rng = SmallRng::seed_from_u64(2);
        let report = validate_with_tableau(&c, &mut rng);
        assert!(!report.passed());
    }

    #[test]
    fn noiseless_sampling_has_no_events() {
        let c = repetition_circuit(2);
        let mut rng = SmallRng::seed_from_u64(3);
        let res = sample_batch(&c, 256, &mut rng);
        for d in 0..c.detectors.len() {
            for lane in 0..256 {
                assert!(!res.detector_bit(d, lane));
            }
        }
        for lane in 0..256 {
            assert!(!res.observable_bit(0, lane));
        }
    }

    #[test]
    fn injected_noise_triggers_detectors() {
        let mut c = repetition_circuit(2);
        // Certain random Pauli on data 0 before everything: X and Y lanes
        // (2/3 of them) fire the round-0 detector AND flip the observable;
        // Z lanes are invisible to a Z-parity code.
        c.instructions
            .insert(0, Instruction::Noise1 { qubit: 0, p: 1.0 });
        let mut rng = SmallRng::seed_from_u64(4);
        let lanes = 64 * 64;
        let res = sample_batch(&c, lanes, &mut rng);
        let mut fired = 0usize;
        for lane in 0..lanes {
            assert_eq!(
                res.detector_bit(0, lane),
                res.observable_bit(0, lane),
                "detector and observable must agree lane {lane}"
            );
            if res.detector_bit(0, lane) {
                fired += 1;
            }
        }
        let rate = fired as f64 / lanes as f64;
        assert!((rate - 2.0 / 3.0).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn fault_propagation_data_error() {
        let c = repetition_circuit(2);
        // X on data qubit 1 right after the first instruction (reset of
        // ancilla 3, index 0): flips detectors of both adjacent checks in
        // round 0 — but NOT the observable (observable is data 0).
        let eff = propagate_fault(
            &c,
            FaultSite::Pauli1 {
                at: 0,
                qubit: 1,
                pauli: Pauli::X,
            },
        );
        assert_eq!(eff.detectors, vec![0, 1]);
        assert!(eff.observables.is_empty());
    }

    #[test]
    fn fault_propagation_measure_flip() {
        let c = repetition_circuit(3);
        // Find the first measurement instruction; flipping it flips the
        // round-0 and round-1 detectors of that ancilla.
        let at = c
            .instructions
            .iter()
            .position(|i| matches!(i, Instruction::Measure { .. }))
            .unwrap();
        let eff = propagate_fault(&c, FaultSite::MeasureFlip { at });
        assert_eq!(eff.detectors.len(), 2);
        assert!(eff.observables.is_empty());
    }

    #[test]
    fn fault_propagation_observable_flip() {
        let c = repetition_circuit(1);
        // X on data 0 before round 0: the round-0 check fires; the final
        // detector XORs the (flipped) data readout with the (flipped)
        // round-0 syndrome and cancels. Net: one defect at the time
        // boundary plus a logical flip — exactly what matches to the
        // boundary in decoding.
        let eff = propagate_fault(
            &c,
            FaultSite::Pauli1 {
                at: 0,
                qubit: 0,
                pauli: Pauli::X,
            },
        );
        assert_eq!(eff.observables, vec![0]);
        assert_eq!(eff.detectors, vec![0]);
    }

    /// Oracle tokens: detector `d` is token `d`, observable `o` is token
    /// `detectors + o`.
    fn oracle_tokens(c: &Circuit) -> RecordTokens {
        let nd = c.detectors.len() as u32;
        RecordTokens::new(c, |d| Some(d as u32), |o| Some(nd + o as u32))
    }

    fn oracle_effect(c: &Circuit, site: FaultSite) -> Vec<u32> {
        let e = propagate_fault(c, site);
        let nd = c.detectors.len();
        e.detectors
            .iter()
            .copied()
            .chain(e.observables.iter().map(|&o| nd + o))
            .map(|t| t as u32)
            .collect()
    }

    /// Checks every single- and two-qubit Pauli fault after every
    /// instruction, and every measurement flip, against
    /// [`propagate_fault`]; returns the number of sites compared.
    fn assert_sweep_matches_oracle(c: &Circuit) -> usize {
        let tokens = oracle_tokens(c);
        let mut checked = 0;
        let (mut got, mut part_a, mut part_b) = (Vec::new(), Vec::new(), Vec::new());
        sensitivity_sweep(c, &tokens, |at, s| {
            for q in 0..c.num_qubits {
                for pauli in Pauli::ERRORS {
                    pauli_tokens_into(s.x(q), s.z(q), pauli, &mut got);
                    let site = FaultSite::Pauli1 {
                        at,
                        qubit: q,
                        pauli,
                    };
                    assert_eq!(got, oracle_effect(c, site), "{site:?}");
                    checked += 1;
                }
                for r in (q + 1)..c.num_qubits {
                    for pa in Pauli::ERRORS {
                        for pb in Pauli::ERRORS {
                            pauli_tokens_into(s.x(q), s.z(q), pa, &mut part_a);
                            pauli_tokens_into(s.x(r), s.z(r), pb, &mut part_b);
                            xor_sorted_into(&part_a, &part_b, &mut got);
                            let site = FaultSite::Pauli2 {
                                at,
                                a: (q, pa),
                                b: (r, pb),
                            };
                            assert_eq!(got, oracle_effect(c, site), "{site:?}");
                            checked += 1;
                        }
                    }
                }
            }
            if matches!(c.instructions[at], Instruction::Measure { .. }) {
                let record = c.instructions[..at]
                    .iter()
                    .filter(|i| matches!(i, Instruction::Measure { .. }))
                    .count();
                let site = FaultSite::MeasureFlip { at };
                assert_eq!(tokens.of(record), oracle_effect(c, site), "{site:?}");
                checked += 1;
            }
        });
        checked
    }

    #[test]
    fn sensitivity_sweep_matches_propagate_fault_on_every_gate() {
        use CliffordGate::*;
        let mut c = Circuit::new(4);
        let one = [H(0), S(1), SDag(2), X(3), Y(0), Z(1)];
        let two = [Cnot(0, 1), Cz(1, 2), Swap(2, 3), ISwap(3, 0), ISwap(1, 2)];
        for g in one {
            c.gate(g, GateClass::OneQubit);
        }
        for g in two {
            c.gate(g, GateClass::TwoQubitTT);
        }
        // Mid-circuit measurement with readout noise, then a reset and
        // more gates acting on the measured qubit.
        let m0 = c.measure(1);
        if let Some(Instruction::Measure { flip_prob, .. }) = c.instructions.last_mut() {
            *flip_prob = 0.01;
        }
        c.reset(1);
        c.gate(H(1), GateClass::OneQubit);
        c.gate(Cnot(1, 3), GateClass::TwoQubitTT);
        c.gate(S(3), GateClass::OneQubit);
        c.gate(ISwap(0, 3), GateClass::LoadStore);
        c.gate(Cz(0, 2), GateClass::TwoQubitTT);
        c.gate(SDag(0), GateClass::OneQubit);
        c.gate(H(2), GateClass::OneQubit);
        let m: Vec<usize> = (0..4).map(|q| c.measure(q)).collect();
        c.detector(vec![m0, m[1]], (0, 0, 0));
        // Lists m[0] twice: it cancels, leaving m[2] alone.
        c.detector(vec![m[0], m[2], m[0]], (1, 0, 0));
        c.detector(vec![m[3], m0, m[0]], (2, 0, 0));
        c.observable(vec![m[0], m[3]]);
        assert!(assert_sweep_matches_oracle(&c) > 0);
        // The doubled record really contributes nothing to detector 1.
        let tokens = oracle_tokens(&c);
        assert_eq!(tokens.of(m[0]), &[2, 3]);
    }

    #[test]
    fn sensitivity_sweep_matches_propagate_fault_on_random_circuits() {
        use CliffordGate::*;
        let mut rng = SmallRng::seed_from_u64(13);
        for _ in 0..20 {
            let n = 4;
            let mut c = Circuit::new(n);
            for _ in 0..30 {
                let q = rng.random_range(0..n);
                let r = (q + rng.random_range(1..n)) % n;
                let gate = match rng.random_range(0..12) {
                    0 => H(q),
                    1 => S(q),
                    2 => SDag(q),
                    3 => X(q),
                    4 => Y(q),
                    5 => Z(q),
                    6 => Cnot(q, r),
                    7 => Cz(q, r),
                    8 => Swap(q, r),
                    9 => ISwap(q, r),
                    10 => {
                        c.reset(q);
                        continue;
                    }
                    _ => {
                        c.measure(q);
                        continue;
                    }
                };
                let class = if gate.is_two_qubit() {
                    GateClass::TwoQubitTT
                } else {
                    GateClass::OneQubit
                };
                c.gate(gate, class);
            }
            for q in 0..n {
                c.measure(q);
            }
            let records = c.num_measurements();
            for _ in 0..6 {
                let len = rng.random_range(1..5);
                let ms = (0..len).map(|_| rng.random_range(0..records)).collect();
                c.detector(ms, (0, 0, 0));
            }
            c.observable((0..3).map(|_| rng.random_range(0..records)).collect());
            assert_sweep_matches_oracle(&c);
        }
    }

    #[test]
    fn monte_carlo_rate_matches_analytic_single_qubit() {
        // One qubit, one noise site with p = 0.3, measured: the observable
        // flip rate must be ~ 2p/3 (X or Y flips the Z measurement).
        let mut c = Circuit::new(1);
        c.instructions
            .push(Instruction::Noise1 { qubit: 0, p: 0.3 });
        let m = c.measure(0);
        c.observable(vec![m]);
        let mut rng = SmallRng::seed_from_u64(5);
        let lanes = 64 * 4000;
        let res = sample_batch(&c, lanes, &mut rng);
        let flips = (0..lanes).filter(|&l| res.observable_bit(0, l)).count();
        let rate = flips as f64 / lanes as f64;
        let expected = 0.2;
        assert!(
            (rate - expected).abs() < 0.01,
            "rate {rate} vs expected {expected}"
        );
    }
}
