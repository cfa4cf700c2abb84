//! Self-driving shard-fleet supervision for the sweep binaries.
//!
//! A fleet run takes one sweep invocation (any of the figure binaries'
//! flag surfaces) and drives it as `N` shard *processes*: the
//! supervisor spawns each child with `--out <fleet>/shard<i>
//! --shard i/N --resume --quiet` appended after the user's own flags
//! (the flag parser's later-wins rule makes these authoritative), polls
//! the children's JSONL artifacts for liveness, restarts dead or
//! stalled shards from their salvaged resume caches with capped
//! exponential backoff, and finally recombines the shard artifacts with
//! [`vlq_sweep::merge_artifacts_with_plan`] — so a fleet run's merged
//! CSV/JSONL/`.meta.json` are byte-identical to a single-process run's,
//! *including* after a mid-run crash.
//!
//! Crash recovery leans entirely on guarantees the sweep stack already
//! makes: per-point seeding is position-independent (a restarted shard
//! re-derives identical bytes), the JSONL artifact doubles as the
//! resume cache, and the sinks are line-buffered (a killed process
//! leaves at most one torn line, which [`vlq_sweep::salvage_jsonl`]
//! truncates away before the restart resumes).
//!
//! Everything schedule-dependent (restart counts, backoff waits, poll
//! counts, per-shard walls) is recorded as `fleet.*` *runtime* metrics
//! on a [`vlq_telemetry::Recorder`] — stderr-summary only, never in
//! deterministic sidecars, so telemetry artifacts stay byte-stable
//! across `--procs` values on clean runs.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use vlq_sweep::{merge_artifacts, merge_artifacts_with_plan, salvage_jsonl, MergeError, ShardPlan};
use vlq_telemetry::{merge_deterministic_jsonl, Metric, Recorder, SidecarMergeError};

/// Schema tag of the `<stem>.fleet.json` provenance sidecar.
pub const FLEET_SCHEMA: &str = "vlq-fleet/v1";

/// What to launch: one sweep invocation, fanned out over `procs`
/// shard processes.
#[derive(Clone, Debug)]
pub struct FleetSpec {
    /// Child executable to spawn.
    pub bin: PathBuf,
    /// The child's short name (`fig11`, ...) for provenance sidecars.
    pub bin_name: String,
    /// Artifact stem the child writes under `--out` (`fig11`,
    /// `prog1-full`, ...).
    pub stem: String,
    /// Fleet output directory: shard `i` runs in `<out>/shard<i>`, and
    /// the merged artifacts land in `<out>` itself.
    pub out: PathBuf,
    /// Number of shard processes.
    pub procs: usize,
    /// The user's own child flags, passed through *before* the
    /// supervisor's authoritative `--out/--shard/--resume/--quiet`.
    pub passthrough: Vec<String>,
    /// Cost-balanced shard plan (file the children read via `--plan`,
    /// plus the parsed plan the merge validates against). `None` is the
    /// default `index % N` stride.
    pub plan: Option<(PathBuf, ShardPlan)>,
    /// How the plan was chosen (`stride` or `time`), for the sidecar.
    pub shard_by: String,
    /// Collect per-shard deterministic telemetry sidecars and merge
    /// them into `<out>/<stem>.telemetry.jsonl`. The merged sidecar is
    /// byte-identical to a single-process run's only for *clean* runs:
    /// a killed child's unflushed metrics are lost, and its resumed
    /// points never re-run.
    pub telemetry: bool,
    /// Additional stride-sharded table stems to merge (`tenants1`
    /// also writes `tenants1-report`). Always merged by stride: generic
    /// tables do not carry plan sidecars.
    pub extra_stems: Vec<String>,
}

/// Supervision policy: polling cadence, stall detection, restart
/// budget, and backoff shape.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Artifact-poll interval.
    pub poll: Duration,
    /// A live child whose JSONL has not grown for this long is killed
    /// and restarted (counts against `max_restarts`).
    pub stall: Duration,
    /// Restarts allowed *per shard* before the fleet gives up.
    pub max_restarts: u32,
    /// First-restart backoff; doubles per restart of the same shard.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Fault-injection hook: kill one shard once its JSONL reaches a
    /// line count (exercises the recovery path deterministically).
    pub chaos_kill: Option<ChaosKill>,
    /// Suppress the supervisor's stderr `note:` lines.
    pub quiet: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            poll: Duration::from_millis(50),
            stall: Duration::from_secs(300),
            max_restarts: 3,
            backoff_base: Duration::from_millis(200),
            backoff_cap: Duration::from_secs(10),
            chaos_kill: None,
            quiet: false,
        }
    }
}

/// One-shot fault injection: kill shard `shard` once its JSONL artifact
/// holds at least `lines` complete lines. A shard that finishes before
/// a poll sees the trigger is treated as killed there: its artifact is
/// cut back to `lines` lines and it restarts, so the recovery path runs
/// however fast the shard is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosKill {
    /// Shard index to kill.
    pub shard: usize,
    /// Line-count trigger.
    pub lines: usize,
}

impl ChaosKill {
    /// Parses the `--chaos-kill I@LINES` flag form.
    pub fn parse(s: &str) -> Option<ChaosKill> {
        let (shard, lines) = s.split_once('@')?;
        Some(ChaosKill {
            shard: shard.trim().parse().ok()?,
            lines: lines.trim().parse().ok()?,
        })
    }
}

/// Everything a fleet run can fail on, typed so `sweep-launch` prints
/// exactly one contract violation.
#[derive(Debug)]
pub enum FleetError {
    /// Filesystem failure at a path.
    Io(PathBuf, io::Error),
    /// A shard process could not be spawned at all.
    Spawn {
        /// Shard index.
        shard: usize,
        /// The spawn failure.
        err: io::Error,
    },
    /// A shard kept failing past its restart budget.
    ShardFailed {
        /// Shard index.
        shard: usize,
        /// Restarts consumed before giving up.
        restarts: u32,
        /// The last exit status, rendered.
        status: String,
    },
    /// The shard artifacts did not recombine.
    Merge(MergeError),
    /// The per-shard telemetry sidecars did not merge.
    Telemetry(SidecarMergeError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            FleetError::Spawn { shard, err } => write!(f, "spawn shard {shard}: {err}"),
            FleetError::ShardFailed {
                shard,
                restarts,
                status,
            } => write!(
                f,
                "shard {shard} failed after {restarts} restart(s) (last status: {status})"
            ),
            FleetError::Merge(e) => write!(f, "merge: {e}"),
            FleetError::Telemetry(e) => write!(f, "telemetry merge: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<MergeError> for FleetError {
    fn from(e: MergeError) -> Self {
        FleetError::Merge(e)
    }
}

/// What a completed fleet run did.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Shard processes supervised.
    pub procs: usize,
    /// Total restarts across all shards.
    pub restarts: u32,
    /// Stall-triggered kills (subset of `restarts`).
    pub stalls: u32,
    /// Data rows in the merged artifact.
    pub rows: usize,
    /// Fingerprint of the shard plan, when one was used.
    pub plan: Option<u64>,
}

/// The working directory of shard `index` under a fleet `out` dir.
pub fn shard_dir(out: &Path, index: usize) -> PathBuf {
    out.join(format!("shard{index}"))
}

/// The full child argv for shard `index`: the user's passthrough flags
/// first, then the supervisor's authoritative overrides (the parser's
/// later-wins rule means a user `--out`/`--shard` cannot escape the
/// fleet layout).
pub fn child_args(spec: &FleetSpec, index: usize) -> Vec<String> {
    let dir = shard_dir(&spec.out, index);
    let mut argv = spec.passthrough.clone();
    argv.extend([
        "--out".to_string(),
        dir.display().to_string(),
        "--shard".to_string(),
        format!("{index}/{}", spec.procs),
        "--resume".to_string(),
        "--quiet".to_string(),
    ]);
    if let Some((path, _)) = &spec.plan {
        argv.extend(["--plan".to_string(), path.display().to_string()]);
    }
    if spec.telemetry {
        argv.extend([
            "--telemetry".to_string(),
            dir.join(format!("{}.telemetry.jsonl", spec.stem))
                .display()
                .to_string(),
        ]);
    }
    argv
}

/// Minimal single-quote shell quoting for `--emit-cmds` output.
fn shell_quote(arg: &str) -> String {
    let plain = !arg.is_empty()
        && arg
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_-./,=@%+:".contains(c));
    if plain {
        arg.to_string()
    } else {
        format!("'{}'", arg.replace('\'', "'\\''"))
    }
}

/// The shell command lines `supervise` would run, one per shard — the
/// `--emit-cmds` escape hatch for running shards on machines the
/// supervisor cannot reach (recombine with `sweep-merge`).
pub fn render_commands(spec: &FleetSpec) -> Vec<String> {
    (0..spec.procs)
        .map(|i| {
            let mut parts = vec![shell_quote(&spec.bin.display().to_string())];
            parts.extend(child_args(spec, i).iter().map(|a| shell_quote(a)));
            parts.join(" ")
        })
        .collect()
}

/// The deterministic `<stem>.fleet.json` provenance sidecar: how the
/// run was fanned out (schema, binary, stem, process count, sharding
/// mode, plan fingerprint). Contains no wall-clock state, so reruns of
/// the same launch write identical bytes.
pub fn fleet_sidecar(spec: &FleetSpec) -> String {
    let plan = spec
        .plan
        .as_ref()
        .and_then(|(_, p)| p.fingerprint())
        .map_or("null".to_string(), |fp| format!("\"{fp:016x}\""));
    format!(
        "{{\"schema\": \"{FLEET_SCHEMA}\", \"bin\": \"{}\", \"stem\": \"{}\", \"procs\": {}, \
         \"shard_by\": \"{}\", \"plan\": {plan}}}\n",
        spec.bin_name, spec.stem, spec.procs, spec.shard_by
    )
}

/// Resolves a sibling binary of the current executable (the fleet
/// launcher and the figure binaries install into one directory).
pub fn sibling_binary(name: &str) -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe.parent().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            "executable has no parent directory",
        )
    })?;
    let path = dir.join(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{name} not found next to {}", exe.display()),
        ))
    }
}

/// Backoff before restart number `n` (1-based) of one shard:
/// `base * 2^(n-1)`, capped.
fn backoff_delay(config: &FleetConfig, n: u32) -> Duration {
    let exp = config
        .backoff_base
        .saturating_mul(1u32.checked_shl(n.saturating_sub(1)).unwrap_or(u32::MAX));
    exp.min(config.backoff_cap)
}

/// Complete (newline-terminated) lines currently in a file; 0 when the
/// file does not exist yet. This is the liveness signal: the sinks are
/// line-buffered, so a healthy shard's count grows point by point.
fn count_lines(path: &Path) -> usize {
    match std::fs::read(path) {
        Ok(bytes) => bytes.iter().filter(|&&b| b == b'\n').count(),
        Err(_) => 0,
    }
}

/// Per-shard supervision state.
struct Proc {
    dir: PathBuf,
    jsonl: PathBuf,
    child: Option<Child>,
    restarts: u32,
    lines: usize,
    last_progress: Instant,
    started: Instant,
    backoff_until: Option<Instant>,
    done: bool,
}

/// Runs the fleet to completion: spawn every shard, poll, restart on
/// crash or stall, then merge the shard artifacts (and telemetry
/// sidecars, when collected) into `spec.out` and write the
/// `<stem>.fleet.json` provenance sidecar. All scheduling observations
/// land on `recorder` as runtime-class `fleet.*` metrics.
pub fn supervise(
    spec: &FleetSpec,
    config: &FleetConfig,
    recorder: &Recorder,
) -> Result<FleetReport, FleetError> {
    assert!(spec.procs >= 1, "a fleet needs at least one shard");
    std::fs::create_dir_all(&spec.out).map_err(|e| FleetError::Io(spec.out.clone(), e))?;
    recorder.gauge_max(Metric::FleetProcs, spec.procs as u64);

    let mut procs: Vec<Proc> = (0..spec.procs)
        .map(|i| {
            let dir = shard_dir(&spec.out, i);
            std::fs::create_dir_all(&dir).map_err(|e| FleetError::Io(dir.clone(), e))?;
            let jsonl = dir.join(format!("{}.jsonl", spec.stem));
            let now = Instant::now();
            Ok(Proc {
                dir,
                jsonl,
                child: None,
                restarts: 0,
                lines: 0,
                last_progress: now,
                started: now,
                backoff_until: None,
                done: false,
            })
        })
        .collect::<Result<_, FleetError>>()?;

    let mut stalls = 0u32;
    let mut chaos_armed = config.chaos_kill;
    let result = run_loop(
        spec,
        config,
        recorder,
        &mut procs,
        &mut stalls,
        &mut chaos_armed,
    );
    if result.is_err() {
        for p in &mut procs {
            if let Some(child) = &mut p.child {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
    result?;

    let dirs: Vec<PathBuf> = procs.iter().map(|p| p.dir.clone()).collect();
    let merged = match &spec.plan {
        Some((_, plan)) => merge_artifacts_with_plan(&dirs, &spec.stem, &spec.out, Some(plan))?,
        None => merge_artifacts(&dirs, &spec.stem, &spec.out)?,
    };
    for stem in &spec.extra_stems {
        merge_artifacts(&dirs, stem, &spec.out)?;
    }
    if spec.telemetry {
        let name = format!("{}.telemetry.jsonl", spec.stem);
        let docs: Vec<String> = dirs
            .iter()
            .map(|d| {
                let path = d.join(&name);
                std::fs::read_to_string(&path).map_err(|e| FleetError::Io(path, e))
            })
            .collect::<Result<_, FleetError>>()?;
        let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let merged_doc = merge_deterministic_jsonl(&doc_refs).map_err(FleetError::Telemetry)?;
        let path = spec.out.join(&name);
        std::fs::write(&path, merged_doc).map_err(|e| FleetError::Io(path, e))?;
    }
    let sidecar_path = spec.out.join(format!("{}.fleet.json", spec.stem));
    std::fs::write(&sidecar_path, fleet_sidecar(spec))
        .map_err(|e| FleetError::Io(sidecar_path, e))?;

    Ok(FleetReport {
        procs: spec.procs,
        restarts: procs.iter().map(|p| p.restarts).sum(),
        stalls,
        rows: merged.rows,
        plan: spec.plan.as_ref().and_then(|(_, p)| p.fingerprint()),
    })
}

/// The poll loop: returns once every shard has exited successfully, or
/// with the first unrecoverable failure (children are reaped by the
/// caller on error).
fn run_loop(
    spec: &FleetSpec,
    config: &FleetConfig,
    recorder: &Recorder,
    procs: &mut [Proc],
    stalls: &mut u32,
    chaos_armed: &mut Option<ChaosKill>,
) -> Result<(), FleetError> {
    for i in 0..procs.len() {
        spawn_shard(spec, procs, i)?;
    }
    loop {
        if procs.iter().all(|p| p.done) {
            return Ok(());
        }
        recorder.incr(Metric::FleetPolls);
        let now = Instant::now();
        for i in 0..procs.len() {
            if procs[i].done {
                continue;
            }
            if let Some(until) = procs[i].backoff_until {
                if now < until {
                    continue;
                }
                procs[i].backoff_until = None;
                spawn_shard(spec, procs, i)?;
                continue;
            }
            let waited = procs[i]
                .child
                .as_mut()
                .expect("active shard has a child")
                .try_wait();
            match waited {
                Ok(Some(status)) if status.success() && chaos_due(*chaos_armed, i, &procs[i]) => {
                    // The shard finished between two polls, before the
                    // kill could land.
                    let lines = chaos_armed.take().expect("chaos is due").lines;
                    restart_chaos_finished(spec, config, recorder, procs, i, lines)?;
                }
                Ok(Some(status)) if status.success() => {
                    procs[i].done = true;
                    procs[i].child = None;
                    let wall = procs[i].started.elapsed();
                    recorder.observe(Metric::FleetShardWallNanos, wall.as_nanos() as u64);
                    if !config.quiet {
                        eprintln!(
                            "note: fleet: shard {i}/{} done in {:.1}s ({} restart(s))",
                            spec.procs,
                            wall.as_secs_f64(),
                            procs[i].restarts
                        );
                    }
                }
                Ok(Some(status)) => {
                    procs[i].child = None;
                    restart_shard(spec, config, recorder, procs, i, &status.to_string())?;
                }
                Ok(None) => {
                    let lines = count_lines(&procs[i].jsonl);
                    if let Some(chaos) = *chaos_armed {
                        if chaos.shard == i && lines >= chaos.lines {
                            *chaos_armed = None;
                            if !config.quiet {
                                eprintln!("note: fleet: chaos-kill shard {i} at {lines} line(s)");
                            }
                            let child = procs[i].child.as_mut().expect("live shard");
                            let _ = child.kill();
                            // A shard that exits between the poll and the
                            // kill still reports success.
                            if child.wait().is_ok_and(|status| status.success()) {
                                restart_chaos_finished(
                                    spec,
                                    config,
                                    recorder,
                                    procs,
                                    i,
                                    chaos.lines,
                                )?;
                                continue;
                            }
                            // The kill surfaces as a failed exit on the
                            // next poll and takes the restart path.
                        }
                    }
                    if lines > procs[i].lines {
                        procs[i].lines = lines;
                        procs[i].last_progress = now;
                    } else if now.duration_since(procs[i].last_progress) > config.stall {
                        *stalls += 1;
                        recorder.incr(Metric::FleetStalls);
                        let child = procs[i].child.as_mut().expect("stalled shard has a child");
                        let _ = child.kill();
                        let _ = child.wait();
                        procs[i].child = None;
                        restart_shard(spec, config, recorder, procs, i, "stalled")?;
                    }
                }
                Err(e) => {
                    return Err(FleetError::Spawn { shard: i, err: e });
                }
            }
        }
        std::thread::sleep(config.poll);
    }
}

/// Whether the armed chaos kill targets shard `i` and its artifact has
/// reached the trigger line count.
fn chaos_due(chaos: Option<ChaosKill>, i: usize, proc: &Proc) -> bool {
    chaos.is_some_and(|c| c.shard == i && count_lines(&proc.jsonl) >= c.lines)
}

/// Keeps only the first `lines` complete lines of the file at `path`.
fn truncate_lines(path: &Path, lines: usize) -> io::Result<()> {
    let bytes = std::fs::read(path)?;
    let end = bytes
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .map(|(at, _)| at + 1)
        .take(lines)
        .last()
        .unwrap_or(0);
    std::fs::write(path, &bytes[..end])
}

fn spawn_shard(spec: &FleetSpec, procs: &mut [Proc], i: usize) -> Result<(), FleetError> {
    let child = Command::new(&spec.bin)
        .args(child_args(spec, i))
        .stdout(Stdio::null())
        .spawn()
        .map_err(|err| FleetError::Spawn { shard: i, err })?;
    let now = Instant::now();
    procs[i].child = Some(child);
    procs[i].lines = count_lines(&procs[i].jsonl);
    procs[i].last_progress = now;
    Ok(())
}

/// Restarts a chaos-kill target that exited successfully before the
/// kill landed: its artifact is rolled back to the trigger line, as
/// the kill would have left it.
fn restart_chaos_finished(
    spec: &FleetSpec,
    config: &FleetConfig,
    recorder: &Recorder,
    procs: &mut [Proc],
    i: usize,
    lines: usize,
) -> Result<(), FleetError> {
    procs[i].child = None;
    truncate_lines(&procs[i].jsonl, lines)
        .map_err(|e| FleetError::Io(procs[i].jsonl.clone(), e))?;
    restart_shard(spec, config, recorder, procs, i, "chaos-killed on exit")
}

/// Salvages the dead shard's artifact and schedules its restart (or
/// gives up once the budget is spent).
fn restart_shard(
    spec: &FleetSpec,
    config: &FleetConfig,
    recorder: &Recorder,
    procs: &mut [Proc],
    i: usize,
    status: &str,
) -> Result<(), FleetError> {
    if procs[i].restarts >= config.max_restarts {
        return Err(FleetError::ShardFailed {
            shard: i,
            restarts: procs[i].restarts,
            status: status.to_string(),
        });
    }
    procs[i].restarts += 1;
    recorder.incr(Metric::FleetRestarts);
    // A killed writer leaves at most one torn trailing line; dropping it
    // makes the JSONL a valid resume cache again. A missing artifact
    // (killed before the first flush) is fine — the restart starts over.
    let salvage = match salvage_jsonl(&procs[i].jsonl) {
        Ok((kept, dropped)) => format!("salvaged {kept} row(s), dropped {dropped}"),
        Err(e) if e.kind() == io::ErrorKind::NotFound => "no artifact yet".to_string(),
        Err(e) => return Err(FleetError::Io(procs[i].jsonl.clone(), e)),
    };
    let delay = backoff_delay(config, procs[i].restarts);
    recorder.add(Metric::FleetBackoffNanos, delay.as_nanos() as u64);
    if !config.quiet {
        eprintln!(
            "note: fleet: shard {i}/{} {status}; restart {}/{} in {:.1}s ({salvage})",
            spec.procs,
            procs[i].restarts,
            config.max_restarts,
            delay.as_secs_f64()
        );
    }
    procs[i].backoff_until = Some(Instant::now() + delay);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_spec(out: &Path, procs: usize) -> FleetSpec {
        FleetSpec {
            bin: PathBuf::from("/bin/true"),
            bin_name: "unit".to_string(),
            stem: "unit".to_string(),
            out: out.to_path_buf(),
            procs,
            passthrough: vec!["--trials".to_string(), "10".to_string()],
            plan: None,
            shard_by: "stride".to_string(),
            telemetry: false,
            extra_stems: Vec::new(),
        }
    }

    #[test]
    fn chaos_kill_parses_the_flag_form() {
        assert_eq!(
            ChaosKill::parse("1@3"),
            Some(ChaosKill { shard: 1, lines: 3 })
        );
        assert_eq!(
            ChaosKill::parse("0@0"),
            Some(ChaosKill { shard: 0, lines: 0 })
        );
        for bad in ["", "1", "@", "1@", "@3", "x@3", "1@y", "1@3@5"] {
            assert_eq!(ChaosKill::parse(bad), None, "{bad:?} should not parse");
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let config = FleetConfig {
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_millis(350),
            ..FleetConfig::default()
        };
        assert_eq!(backoff_delay(&config, 1), Duration::from_millis(100));
        assert_eq!(backoff_delay(&config, 2), Duration::from_millis(200));
        assert_eq!(backoff_delay(&config, 3), Duration::from_millis(350));
        assert_eq!(backoff_delay(&config, 30), Duration::from_millis(350));
        // Huge restart counts must not overflow the shift.
        assert_eq!(backoff_delay(&config, 200), Duration::from_millis(350));
    }

    #[test]
    fn child_args_append_authoritative_overrides() {
        let out = PathBuf::from("/tmp/fleet");
        let mut spec = test_spec(&out, 3);
        spec.telemetry = true;
        spec.plan = Some((out.join("unit.plan.json"), ShardPlan::stride(3)));
        let args = child_args(&spec, 1);
        // Passthrough first, supervisor flags after (later wins).
        assert_eq!(&args[..2], &["--trials".to_string(), "10".to_string()]);
        let shard_at = args.iter().position(|a| a == "--shard").unwrap();
        assert_eq!(args[shard_at + 1], "1/3");
        let out_at = args.iter().position(|a| a == "--out").unwrap();
        assert_eq!(args[out_at + 1], "/tmp/fleet/shard1");
        assert!(args.contains(&"--resume".to_string()));
        assert!(args.contains(&"--quiet".to_string()));
        let plan_at = args.iter().position(|a| a == "--plan").unwrap();
        assert_eq!(args[plan_at + 1], "/tmp/fleet/unit.plan.json");
        let tel_at = args.iter().position(|a| a == "--telemetry").unwrap();
        assert_eq!(args[tel_at + 1], "/tmp/fleet/shard1/unit.telemetry.jsonl");
    }

    #[test]
    fn rendered_commands_quote_only_what_needs_it() {
        let mut spec = test_spec(Path::new("/tmp/fleet"), 2);
        spec.passthrough = vec!["--rates".to_string(), "5e-3,1e-2".to_string()];
        let cmds = render_commands(&spec);
        assert_eq!(cmds.len(), 2);
        assert!(cmds[0].starts_with("/bin/true --rates 5e-3,1e-2 --out /tmp/fleet/shard0"));
        assert!(cmds[1].contains("--shard 1/2"));
        // A space forces quoting; an embedded quote is escaped.
        assert_eq!(shell_quote("a b"), "'a b'");
        assert_eq!(shell_quote("it's"), "'it'\\''s'");
    }

    #[test]
    fn fleet_sidecar_is_deterministic_provenance() {
        let mut spec = test_spec(Path::new("/tmp/fleet"), 4);
        assert_eq!(
            fleet_sidecar(&spec),
            "{\"schema\": \"vlq-fleet/v1\", \"bin\": \"unit\", \"stem\": \"unit\", \
             \"procs\": 4, \"shard_by\": \"stride\", \"plan\": null}\n"
        );
        let plan = ShardPlan::from_costs(2, &[3, 1, 2, 1]);
        let fp = plan.fingerprint().unwrap();
        spec.plan = Some((PathBuf::from("/tmp/fleet/unit.plan.json"), plan));
        spec.shard_by = "time".to_string();
        assert_eq!(
            fleet_sidecar(&spec),
            format!(
                "{{\"schema\": \"vlq-fleet/v1\", \"bin\": \"unit\", \"stem\": \"unit\", \
                 \"procs\": 4, \"shard_by\": \"time\", \"plan\": \"{fp:016x}\"}}\n"
            )
        );
    }

    #[test]
    fn count_lines_ignores_a_torn_tail() {
        let dir = std::env::temp_dir().join("vlq-fleet-count-lines");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.jsonl");
        assert_eq!(count_lines(&dir.join("missing.jsonl")), 0);
        std::fs::write(&path, "a\nb\n").unwrap();
        assert_eq!(count_lines(&path), 2);
        std::fs::write(&path, "a\nb\ntorn").unwrap();
        assert_eq!(count_lines(&path), 2);
    }
}
