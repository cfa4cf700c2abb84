//! The repository benchmark: runs one named figure-grid workload
//! through the same library entry points the figure binaries use
//! (`SweepEngine::run_opts` with the memory, program, or tenant
//! executor, streaming to CSV/JSONL sinks), checks every record, and
//! prints the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! of a separate traced run (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload memory-uf --seed 2020 --seconds 40 --trace 0
//! ```
//!
//! Run it from the repository root. Artifacts go to a temporary
//! directory under `.bench_build/perfbench/` that is removed at the
//! end; the traced run leaves its Chrome trace-event JSON there as
//! `trace-<workload>.json`. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod metrics;
mod sys;
mod trace;
mod traced;
mod workloads;

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Instant;

use vlq::exec::ProgramSweepExecutor;
use vlq::qec::{MemoryExecutor, Parallelism};
use vlq::surface::schedule::Boundary;
use vlq::sweep::{
    combine_fingerprints, verify_artifact, CsvSink, JsonlSink, RecordSink, ResumeCache, RunOptions,
    ShardSpec, SweepEngine, SweepExecutor, SweepMeta, SweepPoint, SweepRecord, VerifyExpectations,
};
use vlq_tenant::TenantSweepExecutor;

use metrics::{median, LayerSample, END_TO_END, PER_LAYER};
use trace::Tracer;
use traced::{Counters, PointIndex, TimedSink, TracedMemory, TracedProgram};
use workloads::{Grid, GridKind, Workload};

/// Sweep-engine workers (one per core of the 2-core reference box).
const WORKERS: usize = 2;
/// In-block sample-pool threads per chunk (1 = serial).
const THREADS: usize = 1;
/// Fewest untraced repetitions per run, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Fewest (untraced, traced) repetition pairs per traced run.
const MIN_TRACED_PAIRS: usize = 2;
const OUT_DIR: &str = ".bench_build/perfbench";

const USAGE: &str = "usage: perfbench --workload memory-uf|memory-mwpm|program-frame \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut values: BTreeMap<String, String> = BTreeMap::new();
        while let Some(flag) = argv.next() {
            let key = flag
                .strip_prefix("--")
                .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
                .ok_or_else(|| format!("unknown argument {flag:?}"))?;
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            if values.insert(key.to_string(), value).is_some() {
                return Err(format!("{flag} given twice"));
            }
        }
        let get = |k: &str| values.get(k).ok_or_else(|| format!("--{k} is required"));
        let workload = get("workload")?;
        let seed = get("seed")?;
        let seconds = get("seconds")?;
        Ok(Args {
            workload: Workload::parse(workload)
                .ok_or_else(|| format!("unknown workload {workload:?}"))?,
            seed: seed.parse().map_err(|_| format!("bad --seed {seed:?}"))?,
            seconds: seconds
                .parse::<u64>()
                .ok()
                .filter(|&s| s >= 1)
                .ok_or_else(|| format!("bad --seconds {seconds:?}"))? as f64,
            trace: match get("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("bad --trace {other:?}")),
            },
        })
    }
}

/// A record sink that notes when the first record reaches the sinks.
struct FirstRecord<'a>(&'a mut Option<Instant>);

impl RecordSink for FirstRecord<'_> {
    fn write(&mut self, _record: &SweepRecord) -> io::Result<()> {
        self.0.get_or_insert_with(Instant::now);
        Ok(())
    }
}

/// What one repetition of a workload's grids produced.
struct Rep {
    wall_s: f64,
    setup_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    shots: u64,
    /// Per grid: the engine's records, or the error that ended it.
    records: Vec<io::Result<Vec<SweepRecord>>>,
    layer: Option<LayerSample>,
}

impl Rep {
    fn shots_per_s(&self) -> f64 {
        self.shots as f64 / (self.wall_s - self.setup_s).max(1e-9)
    }
}

/// Runs `grid` on `executor`, streaming to `<stem>.csv` / `.jsonl` in
/// `dir` behind the first-record probe; traced runs time the sinks.
fn run_grid<E: SweepExecutor>(
    grid: &Grid,
    executor: &E,
    dir: &Path,
    first: &mut Option<Instant>,
    tracer: Option<&Tracer>,
) -> io::Result<Vec<SweepRecord>> {
    let mut csv = CsvSink::create(&dir.join(format!("{}.csv", grid.stem)))?;
    let mut jsonl = JsonlSink::create(&dir.join(format!("{}.jsonl", grid.stem)))?;
    SweepMeta {
        seed: grid.spec.base_seed,
        spec_fingerprint: combine_fingerprints(0, grid.spec.fingerprint()),
        points: grid.spec.len() as u64,
        shard: ShardSpec::FULL,
        plan: None,
    }
    .write(dir, grid.stem)?;
    let mut probe = FirstRecord(first);
    let engine = SweepEngine::with_workers(WORKERS);
    let (cache, opts) = (ResumeCache::new(), RunOptions::default());
    match tracer {
        None => engine.run_opts(
            &grid.spec,
            executor,
            &mut [&mut probe, &mut csv, &mut jsonl],
            &cache,
            &opts,
        ),
        Some(tracer) => {
            let mut csv = TimedSink {
                inner: &mut csv,
                tracer,
            };
            let mut jsonl = TimedSink {
                inner: &mut jsonl,
                tracer,
            };
            engine.run_opts(
                &grid.spec,
                executor,
                &mut [&mut probe, &mut csv, &mut jsonl],
                &cache,
                &opts,
            )
        }
    }
}

/// One repetition: every grid of the workload, untraced (the real
/// executors) or traced (the stand-ins of `traced`).
fn run_rep(workload: Workload, seed: u64, dir: &Path, traced: bool) -> Rep {
    sys::reset_peak_rss();
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let grids = workload.grids(seed);
    let mut first = None;
    let mut records = Vec::new();
    let tracer = Tracer::new();
    let mut layer = LayerSample {
        workers: WORKERS,
        ..LayerSample::default()
    };
    for grid in &grids {
        let points = grid.spec.expand();
        let engine_start = Instant::now();
        let result = if traced {
            let counters = Counters::default();
            let index = PointIndex::new(&points);
            let result = match grid.kind {
                GridKind::Memory => {
                    let exec = TracedMemory {
                        tracer: &tracer,
                        index,
                        counters,
                    };
                    let r = run_grid(grid, &exec, dir, &mut first, Some(&tracer));
                    add_counters(&mut layer, &exec.counters);
                    r
                }
                GridKind::Program | GridKind::Tenant => {
                    let exec = TracedProgram {
                        tracer: &tracer,
                        index,
                        counters,
                        tenants: grid.kind == GridKind::Tenant,
                    };
                    let r = run_grid(grid, &exec, dir, &mut first, Some(&tracer));
                    add_counters(&mut layer, &exec.counters);
                    r
                }
            };
            layer.topologies += topologies(grid.kind, &points);
            result
        } else {
            let par = Parallelism::threads(THREADS);
            match grid.kind {
                GridKind::Memory => run_grid(
                    grid,
                    &MemoryExecutor::with_parallelism(par),
                    dir,
                    &mut first,
                    None,
                ),
                GridKind::Program => {
                    let exec =
                        ProgramSweepExecutor::new(Boundary::MidCircuit).with_parallelism(par);
                    run_grid(grid, &exec, dir, &mut first, None)
                }
                GridKind::Tenant => {
                    let exec = TenantSweepExecutor::new(Boundary::MidCircuit).with_parallelism(par);
                    run_grid(grid, &exec, dir, &mut first, None)
                }
            }
        };
        layer.engine_wall_s += engine_start.elapsed().as_secs_f64();
        records.push(result);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu0;
    let peak_rss_mb = sys::peak_rss_mb();
    let setup_s = first.map_or(wall_s, |t| t.duration_since(t0).as_secs_f64());
    let shots = records.iter().flatten().flatten().map(|r| r.shots).sum();
    let layer = traced.then(|| {
        layer.spans = tracer.spans();
        layer.wall_s = wall_s;
        layer.artifact_bytes = grids
            .iter()
            .flat_map(|g| {
                ["csv", "jsonl", "meta.json"].map(|ext| dir.join(format!("{}.{ext}", g.stem)))
            })
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum();
        layer
    });
    Rep {
        wall_s,
        setup_s,
        cpu_s,
        peak_rss_mb,
        shots,
        records,
        layer,
    }
}

fn add_counters(layer: &mut LayerSample, c: &Counters) {
    layer.lanes += c.lanes.load(Ordering::Relaxed);
    layer.defects += c.defects.load(Ordering::Relaxed);
    layer.graph_edges += c.graph_edges.load(Ordering::Relaxed);
    layer.block_exposures += c.block_exposures.load(Ordering::Relaxed);
}

/// Distinct prepared topologies of a grid: points that differ only in
/// error rate, decoder or shots share one.
fn topologies(kind: GridKind, points: &[SweepPoint]) -> usize {
    points
        .iter()
        .map(|p| {
            format!(
                "{kind:?}|{}|{}|{}|{:?}|{:?}|{:?}",
                p.setup, p.d, p.k, p.basis, p.rounds, p.program
            )
        })
        .collect::<BTreeSet<_>>()
        .len()
}

/// Checks one grid's output and returns the indices of failed points:
/// every point must have a record, in grid order, with the requested
/// shots, `failures <= shots`, the workload seed, and (after the first
/// repetition) the same failure count as the reference; the CSV and
/// JSONL artifacts must pass `verify_artifact`.
fn check_grid(
    grid: &Grid,
    result: &io::Result<Vec<SweepRecord>>,
    dir: &Path,
    reference: Option<&[SweepRecord]>,
) -> BTreeSet<usize> {
    let points = grid.spec.expand();
    let all = || (0..points.len()).collect();
    let records = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", grid.stem);
            return all();
        }
    };
    let expect = VerifyExpectations {
        rows: Some(points.len()),
        seed: Some(grid.spec.base_seed),
        shots: Some(grid.spec.shots),
    };
    if let Err(e) = verify_artifact(dir, grid.stem, &expect) {
        eprintln!("perfbench: {} artifact check failed: {e}", grid.stem);
        return all();
    }
    (0..points.len())
        .filter(|&i| {
            let ok = records.get(i).is_some_and(|r| {
                r.index == i
                    && r.point == points[i]
                    && r.shots == points[i].shots
                    && r.failures <= r.shots
                    && r.base_seed == grid.spec.base_seed
                    && reference.is_none_or(|rf| rf.get(i) == Some(r))
            });
            if !ok {
                eprintln!("perfbench: {} point {i} failed its output check", grid.stem);
            }
            !ok
        })
        .collect()
}

/// Order-sensitive digest of a grid's (index, failures) pairs.
fn digest(records: &[SweepRecord]) -> u64 {
    records.iter().fold(0xcbf2_9ce4_8422_2325, |h, r| {
        vlq::sweep::splitmix64(vlq::sweep::splitmix64(h ^ r.index as u64) ^ r.failures)
    })
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::process::exit(run(&args));
}

fn run(args: &Args) -> i32 {
    let workload = args.workload;
    let out = PathBuf::from(OUT_DIR);
    let tmp = out.join(format!("tmp-{}-{}", workload.name(), std::process::id()));
    let grids = workload.grids(args.seed);
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "provenance nproc={} workers={WORKERS} threads={THREADS} commit={} peak_rss_reset={}",
        sys::nproc(),
        sys::git_commit(Path::new(".")),
        sys::reset_peak_rss()
    );
    for g in &grids {
        println!(
            "grid {} points={} shots_per_point={} base_seed={}",
            g.stem,
            g.spec.len(),
            g.spec.shots,
            g.spec.base_seed
        );
    }

    let mut reference: Option<Vec<Vec<SweepRecord>>> = None;
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let start = Instant::now();
    loop {
        let round_start = Instant::now();
        let kinds: &[bool] = if args.trace { &[false, true] } else { &[false] };
        for &is_traced in kinds {
            let dir = tmp.join(format!("rep{}", untraced.len() + traced.len()));
            let rep = catch_unwind(AssertUnwindSafe(|| {
                run_rep(workload, args.seed, &dir, is_traced)
            }));
            let points: usize = grids.iter().map(|g| g.spec.len()).sum();
            attempted += points;
            let Ok(rep) = rep else {
                eprintln!("perfbench: a repetition panicked; all its points count as failed");
                failed += points;
                continue;
            };
            let mut rep_failed = 0;
            for (gi, grid) in grids.iter().enumerate() {
                let reference = reference.as_ref().map(|r| &r[gi][..]);
                rep_failed += check_grid(grid, &rep.records[gi], &dir, reference).len();
            }
            failed += rep_failed;
            if reference.is_none() && rep_failed == 0 {
                reference = Some(
                    rep.records
                        .iter()
                        .map(|r| r.as_ref().map_or_else(|_| Vec::new(), Clone::clone))
                        .collect(),
                );
            }
            // Artifacts are checked; drop them so runs stay small.
            let _ = std::fs::remove_dir_all(&dir);
            println!(
                "rep {} traced={} wall_s={:.4} setup_s={:.4} cpu_s={:.4} peak_rss_mb={:.1} shots={} failed_points={rep_failed}",
                untraced.len() + traced.len(),
                u8::from(is_traced),
                rep.wall_s,
                rep.setup_s,
                rep.cpu_s,
                rep.peak_rss_mb,
                rep.shots
            );
            if is_traced {
                traced.push(rep);
            } else {
                untraced.push(rep);
            }
        }
        let enough = if args.trace {
            traced.len() >= MIN_TRACED_PAIRS
        } else {
            untraced.len() >= MIN_REPS
        };
        // Stop once another round like the last one would overrun the
        // measuring time; a run with failures stops at the time limit
        // even short of its minimum repetitions.
        let elapsed = start.elapsed().as_secs_f64();
        let next_end = elapsed + round_start.elapsed().as_secs_f64();
        if (enough && next_end > args.seconds) || (failed > 0 && elapsed >= args.seconds) {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);

    if untraced.is_empty() || (args.trace && traced.is_empty()) {
        eprintln!("perfbench: no repetition completed");
        return 1;
    }
    if let Some(reference) = &reference {
        for (grid, records) in grids.iter().zip(reference) {
            println!("digest {} {:016x}", grid.stem, digest(records));
        }
    }
    let e2e = |f: fn(&Rep) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    let end_to_end: BTreeMap<&str, f64> = [
        ("wall_s", e2e(|r| r.wall_s)),
        ("setup_s", e2e(|r| r.setup_s)),
        ("shots_per_s", e2e(Rep::shots_per_s)),
        ("cpu_s", e2e(|r| r.cpu_s)),
        ("peak_rss_mb", e2e(|r| r.peak_rss_mb)),
    ]
    .into_iter()
    .collect();
    let frac = failed as f64 / attempted.max(1) as f64;
    println!("failed_point_frac {frac} ({failed} of {attempted} points)");

    let mut printed = Vec::new();
    let mut emit = |name: &str, unit: &str, value: f64| {
        println!("metric {name} {value} {unit}");
        printed.push(json_metric(name, value, unit));
    };
    if args.trace {
        let samples: Vec<BTreeMap<&str, f64>> = traced
            .iter()
            .filter_map(|r| r.layer.as_ref())
            .map(LayerSample::metrics)
            .collect();
        let traced_wall = median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        for (name, unit) in PER_LAYER {
            let value = if name == "trace.overhead_frac" {
                traced_wall / end_to_end["wall_s"] - 1.0
            } else {
                median(&samples.iter().map(|m| m[name]).collect::<Vec<_>>())
            };
            emit(name, unit, value);
        }
        if let Some(last) = traced.last().and_then(|r| r.layer.as_ref()) {
            for note in last.tail_notes() {
                println!("{note}");
            }
            let path = out.join(format!("trace-{}.json", workload.name()));
            match trace::write_chrome(&last.spans, &path, workload.name()) {
                Ok(()) => println!("chrome trace {}", path.display()),
                Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
            }
        }
        for (name, value) in &end_to_end {
            println!("untraced {name} {value}");
        }
    } else {
        for (name, unit) in END_TO_END {
            emit(name, unit, end_to_end[name]);
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        printed.join(", ")
    );
    0
}
