//! In-block work-stealing thread pool for the batched sample→decode
//! hot path.
//!
//! `vlq-sweep` parallelizes *across* grid points; this module
//! parallelizes *inside* one [`PreparedBlock`]: the 1024-lane batches
//! of [`PreparedBlock::run`] are already seeded independently
//! (`seed.wrapping_add(batch_idx)`), so workers can claim batches in
//! any order without perturbing a single sampled bit. The pool mirrors the sweep engine's injector+stealer
//! deques (shared injector refilled into per-worker locals, LIFO local
//! pops, FIFO steals) but keeps three contracts the sweep level never
//! had to:
//!
//! * **Bit-identical at any worker count.** Each batch writes its
//!   failure popcount into a private slot; the submitter reduces the
//!   slots in ascending batch order after *all* workers finish. No
//!   atomic accumulation order, no schedule dependence.
//! * **Zero steady-state allocation.** Workers are long-lived and
//!   parked on a condvar between jobs; the injector, local deques,
//!   result slots, per-worker [`BlockScratch`]es, and per-worker
//!   recorders are all pool-owned and reused. After warm-up, a pooled
//!   [`PreparedBlock::run`] call allocates nothing
//!   (`crates/qec/tests/alloc_probe.rs` pins this).
//! * **Byte-identical telemetry sidecars.** Each worker records into
//!   its own [`Recorder`]; after the job the submitter drains them into
//!   the caller's recorder in worker-index order
//!   ([`Recorder::drain_into`]). Deterministic metrics are commutative
//!   reductions of schedule-independent work, so the merged values —
//!   and hence the JSONL sidecar — match the serial path byte for byte.
//!   Runtime metrics (steals, worker busy time) land in the stderr
//!   summary only.
//!
//! # Per-worker scratch contract
//!
//! A [`BlockScratch`]'s decoder scratch is only rebuilt when the
//! decoder-list *length* changes — by design, so the steady state stays
//! allocation-free — which means scratch built for one decoding graph
//! would be handed to a decoder for another. That stays correct
//! (union-find scratch keys its memos on the decoder it serves, and a
//! variant or size mismatch falls back to per-lane decoding) but slow.
//! The serial paths construct a fresh scratch per run and never hit
//! this; the pool's scratches are persistent, so every job is keyed by
//! (block identity, decoder list) and any key change clears all worker
//! decoder scratch before sampling. Same block, same decoders — the
//! common steady state — reuses everything.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use vlq_decoder::Decoder;
use vlq_telemetry::{Metric, Recorder};

use crate::{popcount, BlockScratch, PreparedBlock, Run};

/// How many injector tasks a worker moves to its local deque per grab
/// (the sweep engine's constant).
const REFILL_BATCH: usize = 4;

/// Worker-count policy for the in-block sample pool.
///
/// `Parallelism::serial()` (the default) runs the existing
/// single-threaded paths untouched; [`Parallelism::threads`] attaches a
/// shared [`SamplePool`]. Cloning shares the pool (an `Arc` bump), so
/// one pool serves every prepared block of a sweep.
#[derive(Clone, Debug, Default)]
pub struct Parallelism {
    pool: Option<Arc<SamplePool>>,
}

impl Parallelism {
    /// Single-threaded execution (identical to the pre-pool paths).
    pub fn serial() -> Self {
        Parallelism { pool: None }
    }

    /// A pool of `threads` workers; `threads <= 1` means serial (no
    /// pool, no worker threads spawned).
    pub fn threads(threads: usize) -> Self {
        if threads <= 1 {
            Self::serial()
        } else {
            Parallelism {
                pool: Some(Arc::new(SamplePool::new(threads))),
            }
        }
    }

    /// Number of workers batches are spread over (1 when serial).
    pub fn workers(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.workers())
    }

    /// The attached pool, if any.
    pub fn pool(&self) -> Option<&SamplePool> {
        self.pool.as_deref()
    }
}

/// One submitted job, as seen by the workers.
///
/// The closure and the slot slice live on the submitter's stack / in
/// the pool's locked resources; their lifetimes are erased to `'static`
/// for storage. This is sound because the submitter blocks until every
/// worker has finished the job's epoch (the `active` barrier below), so
/// no worker can touch either borrow after submission returns.
#[derive(Clone, Copy)]
struct Job {
    width: usize,
    slots: &'static [AtomicU64],
    run: &'static (dyn Fn(u64, usize, &[AtomicU64]) + Sync),
    record: bool,
}

struct Coord {
    /// Job generation counter; workers run each epoch exactly once.
    epoch: u64,
    job: Option<Job>,
    /// Workers still inside the current epoch. The submitter waits for
    /// zero — the barrier the `Job` lifetime erasure relies on.
    active: usize,
    /// Set when a worker unwinds out of a task; the submitter panics
    /// rather than reduce a partial result.
    poisoned: bool,
    shutdown: bool,
}

/// Worker-shared coordination state: job hand-off plus the
/// injector+stealer deques.
struct Core {
    coord: Mutex<Coord>,
    work_cv: Condvar,
    done_cv: Condvar,
    injector: Mutex<VecDeque<u64>>,
    locals: Vec<Mutex<VecDeque<u64>>>,
}

impl Core {
    /// Claims the next batch index: local LIFO pop, then an injector
    /// refill, then FIFO steals from the other workers in ring order.
    /// Returns the task and whether it was stolen.
    fn next_task(&self, me: usize) -> Option<(u64, bool)> {
        if let Some(t) = self.locals[me].lock().expect("local deque").pop_back() {
            return Some((t, false));
        }
        {
            let mut injector = self.injector.lock().expect("injector");
            if let Some(first) = injector.pop_front() {
                let mut local = self.locals[me].lock().expect("local deque");
                for _ in 1..REFILL_BATCH {
                    match injector.pop_front() {
                        Some(t) => local.push_back(t),
                        None => break,
                    }
                }
                return Some((first, false));
            }
        }
        for off in 1..self.locals.len() {
            let victim = (me + off) % self.locals.len();
            if let Some(t) = self.locals[victim]
                .lock()
                .expect("victim deque")
                .pop_front()
            {
                return Some((t, true));
            }
        }
        None
    }
}

/// Per-job reusable buffers, locked for the whole job — the lock that
/// serializes concurrent submitters onto one pool.
struct Resources {
    slots: Vec<AtomicU64>,
    /// Identity of the (block, decoder list) the persistent worker
    /// scratches are currently keyed to (see module docs).
    scratch_key: u64,
}

/// The long-lived in-block worker pool. Construct via
/// [`Parallelism::threads`]; dropped pools shut their workers down and
/// join them.
pub struct SamplePool {
    core: Arc<Core>,
    resources: Mutex<Resources>,
    scratches: Vec<Mutex<BlockScratch>>,
    /// Typed per-worker state for custom [`SamplePool::run_tasks`]
    /// closures (see [`SamplePool::worker_state`]).
    user_states: Vec<Mutex<Box<dyn std::any::Any + Send>>>,
    worker_recorders: Vec<Recorder>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for SamplePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamplePool")
            .field("workers", &self.workers())
            .finish_non_exhaustive()
    }
}

impl SamplePool {
    /// Spawns `threads` parked workers (`threads` is clamped to >= 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let core = Arc::new(Core {
            coord: Mutex::new(Coord {
                epoch: 0,
                job: None,
                active: 0,
                poisoned: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            injector: Mutex::new(VecDeque::new()),
            locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
        });
        let worker_recorders: Vec<Recorder> = (0..threads).map(|_| Recorder::attached()).collect();
        let handles = (0..threads)
            .map(|w| {
                let core = Arc::clone(&core);
                let recorder = worker_recorders[w].clone();
                std::thread::spawn(move || worker_main(&core, w, &recorder))
            })
            .collect();
        SamplePool {
            core,
            resources: Mutex::new(Resources {
                slots: Vec::new(),
                scratch_key: 0,
            }),
            scratches: (0..threads)
                .map(|_| Mutex::new(BlockScratch::new()))
                .collect(),
            user_states: (0..threads)
                .map(|_| Mutex::new(Box::new(()) as Box<dyn std::any::Any + Send>))
                .collect(),
            worker_recorders,
            handles: Mutex::new(handles),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.scratches.len()
    }

    /// Runs `tasks` independent tasks across the workers and reduces
    /// their results deterministically.
    ///
    /// Task `t` must fill all `width` slots of its private window
    /// (`slots[0..width]` as passed to `run`); after every worker has
    /// finished, `out[j]` is the sum of slot `j` over tasks in
    /// *ascending task order* — so the reduction is schedule- and
    /// worker-count-independent whenever the per-task values are.
    /// `run(task, worker, slots)` may be claimed by any worker in any
    /// order; it must be safe under that (the in-block closures are:
    /// batches are independently seeded).
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != width`, and when a task panicked on a
    /// worker (the pool is then poisoned and must be discarded).
    pub fn run_tasks(
        &self,
        tasks: u64,
        width: usize,
        out: &mut [u64],
        run: &(dyn Fn(u64, usize, &[AtomicU64]) + Sync),
    ) {
        let mut res = self.resources.lock().expect("pool resources");
        self.run_tasks_locked(&mut res, tasks, width, out, run, false);
    }

    fn run_tasks_locked(
        &self,
        res: &mut Resources,
        tasks: u64,
        width: usize,
        out: &mut [u64],
        run: &(dyn Fn(u64, usize, &[AtomicU64]) + Sync),
        record: bool,
    ) {
        assert_eq!(out.len(), width, "out must hold one slot per width");
        out.fill(0);
        if tasks == 0 || width == 0 {
            return;
        }
        let need = usize::try_from(tasks).expect("task count fits usize") * width;
        if res.slots.len() < need {
            res.slots.resize_with(need, || AtomicU64::new(0));
        }
        {
            let mut injector = self.core.injector.lock().expect("injector");
            debug_assert!(injector.is_empty(), "previous job drained the injector");
            injector.extend(0..tasks);
        }
        // SAFETY: the borrows escape only into workers' epoch loops,
        // and the `active` barrier below keeps this frame alive (and
        // `res` locked) until every worker has left the epoch.
        let job = unsafe {
            Job {
                width,
                slots: std::mem::transmute::<&[AtomicU64], &'static [AtomicU64]>(
                    &res.slots[..need],
                ),
                run: std::mem::transmute::<
                    &(dyn Fn(u64, usize, &[AtomicU64]) + Sync),
                    &'static (dyn Fn(u64, usize, &[AtomicU64]) + Sync),
                >(run),
                record,
            }
        };
        {
            let mut coord = self.core.coord.lock().expect("pool coord");
            coord.epoch += 1;
            coord.job = Some(job);
            coord.active = self.workers();
            self.core.work_cv.notify_all();
            while coord.active > 0 {
                coord = self.core.done_cv.wait(coord).expect("pool coord");
            }
            coord.job = None;
            assert!(!coord.poisoned, "a pool task panicked on a worker");
        }
        // Deterministic reduction: ascending task (= batch) order. The
        // coord lock round-trip above orders every worker's relaxed
        // slot stores before these loads.
        for t in 0..tasks as usize {
            for (j, o) in out.iter_mut().enumerate() {
                *o += res.slots[t * width + j].load(Ordering::Relaxed);
            }
        }
    }

    /// Runs `f` against worker `worker`'s persistent typed state slot,
    /// installing `init()` the first time (or whenever the stored type
    /// changes). Custom task closures passed to
    /// [`SamplePool::run_tasks`] use this to keep per-worker working
    /// sets — e.g. the `vlq` frame replay's batch scratch — alive
    /// across jobs, so their steady state allocates nothing. Callers
    /// are responsible for invalidating state that is keyed to job
    /// inputs (the same hazard the per-worker [`BlockScratch`] contract
    /// above documents).
    pub fn worker_state<T: std::any::Any + Send, R>(
        &self,
        worker: usize,
        init: impl FnOnce() -> T,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        let mut slot = self.user_states[worker].lock().expect("worker state");
        if !slot.is::<T>() {
            *slot = Box::new(init());
        }
        f(slot.downcast_mut::<T>().expect("state type just installed"))
    }

    /// Runs `run.shots` of `block` through `decoders` across the
    /// workers: the pooled branch of [`PreparedBlock::run`],
    /// bit-identical to its serial loop (same
    /// `seed.wrapping_add(batch_idx)` seeds, same per-batch pipeline,
    /// failure counts reduced in batch order). One failure count per
    /// decoder lands in `failures`.
    ///
    /// With `run.recorder` enabled, workers record into their own
    /// recorders, drained into it in worker-index order after the job
    /// — deterministic metrics merge to the serial values; steal/busy
    /// runtime metrics land in the stderr summary only.
    pub(crate) fn run_block_shots(
        &self,
        block: &PreparedBlock,
        decoders: &[&(dyn Decoder + Send + Sync)],
        run: &Run,
        failures: &mut [u64],
    ) {
        let mut res = self.resources.lock().expect("pool resources");
        let record = run.recorder.is_enabled();
        let key = scratch_key(block, decoders);
        let rebuild = res.scratch_key != key;
        res.scratch_key = key;
        for (w, slot) in self.scratches.iter().enumerate() {
            let mut scratch = slot.lock().expect("worker scratch");
            if rebuild {
                scratch.reset_decoder_scratch();
            }
            scratch.set_recorder(if record {
                self.worker_recorders[w].clone()
            } else {
                Recorder::disabled()
            });
        }
        let task = |batch_idx: u64, worker: usize, slots: &[AtomicU64]| {
            let mut scratch = self.scratches[worker].lock().expect("worker scratch");
            let words = block.sample_failure_words_into(
                decoders,
                run.batch_lanes(batch_idx),
                run.seed.wrapping_add(batch_idx),
                &mut scratch,
            );
            for (slot, decoder_words) in slots.iter().zip(words) {
                slot.store(popcount(decoder_words), Ordering::Relaxed);
            }
        };
        self.run_tasks_locked(
            &mut res,
            run.batches(),
            decoders.len(),
            failures,
            &task,
            record,
        );
        if record {
            for worker in &self.worker_recorders {
                worker.drain_into(&run.recorder);
            }
        }
    }
}

impl Drop for SamplePool {
    fn drop(&mut self) {
        {
            let mut coord = self.core.coord.lock().expect("pool coord");
            coord.shutdown = true;
        }
        self.core.work_cv.notify_all();
        for handle in self.handles.get_mut().expect("pool handles").drain(..) {
            let _ = handle.join();
        }
    }
}

/// Identity of (block, decoder list) a job runs against, used to decide
/// whether persistent worker scratch may be reused. The block's unique
/// id is the load-bearing part (ids are never reused, unlike
/// addresses); the decoder pointers guard a caller-supplied decoder
/// list against in-place swaps.
fn scratch_key(block: &PreparedBlock, decoders: &[&(dyn Decoder + Send + Sync)]) -> u64 {
    let mut key = vlq_sweep::splitmix64(block.identity());
    key = vlq_sweep::splitmix64(key ^ decoders.len() as u64);
    for decoder in decoders {
        let thin = std::ptr::from_ref::<dyn Decoder + Send + Sync>(*decoder).cast::<()>();
        key = vlq_sweep::splitmix64(key ^ thin as usize as u64);
    }
    key
}

fn worker_main(core: &Core, me: usize, recorder: &Recorder) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut coord = core.coord.lock().expect("pool coord");
            loop {
                if coord.shutdown {
                    return;
                }
                if coord.epoch > seen {
                    seen = coord.epoch;
                    // Every worker joins every epoch (the submitter
                    // waits for all of them), so the job is installed.
                    break coord.job.expect("epoch advanced with a job installed");
                }
                coord = core.work_cv.wait(coord).expect("pool coord");
            }
        };
        let started = job.record.then(Instant::now);
        let finished = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            while let Some((task, stolen)) = core.next_task(me) {
                if stolen && job.record {
                    recorder.incr(Metric::PoolSteals);
                }
                let base = usize::try_from(task).expect("task fits usize") * job.width;
                (job.run)(task, me, &job.slots[base..base + job.width]);
            }
        }))
        .is_ok();
        if let Some(started) = started {
            recorder.add(Metric::PoolBusyNanos, started.elapsed().as_nanos() as u64);
        }
        let mut coord = core.coord.lock().expect("pool coord");
        if !finished {
            coord.poisoned = true;
            // Leave any unclaimed work behind; the submitter panics.
            core.injector.lock().expect("injector").clear();
            core.locals[me].lock().expect("local deque").clear();
        }
        coord.active -= 1;
        if coord.active == 0 {
            core.done_cv.notify_all();
        }
    }
}
