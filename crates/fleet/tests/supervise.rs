//! Supervisor loop tests against scripted `/bin/sh` children: a clean
//! fleet merges byte-identically, a crashing child is salvaged and
//! restarted, and an unrecoverable child exhausts its budget. The real
//! sweep binaries are exercised end-to-end by
//! `crates/bench/tests/fleet_fault.rs`; these tests pin the supervision
//! mechanics themselves without Monte-Carlo cost.

use std::path::{Path, PathBuf};
use std::time::Duration;

use vlq_decoder::DecoderKind;
use vlq_fleet::{supervise, ChaosKill, FleetConfig, FleetError, FleetSpec};
use vlq_surface::schedule::{Basis, Setup};
use vlq_sweep::{
    combine_fingerprints, CsvSink, JsonlSink, RecordSink, ShardSpec, SweepMeta, SweepPoint,
    SweepRecord,
};
use vlq_telemetry::Recorder;

const SEED: u64 = 7;
const POINTS: usize = 6;

fn record(index: usize) -> SweepRecord {
    SweepRecord {
        index,
        point: SweepPoint {
            setup: Setup::CompactInterleaved,
            basis: Basis::Z,
            d: 3,
            p: 2e-3,
            k: 10,
            rounds: None,
            decoder: DecoderKind::Mwpm,
            shots: 500,
            knob: None,
            program: None,
        },
        base_seed: SEED,
        shots: 500,
        failures: (index as u64 * 7) % 41,
    }
}

fn write_artifact(dir: &Path, records: &[SweepRecord], shard: ShardSpec) {
    std::fs::create_dir_all(dir).unwrap();
    let mut csv = CsvSink::new(Vec::new()).unwrap();
    let mut jsonl = JsonlSink::new(Vec::new());
    for r in records {
        csv.write(r).unwrap();
        jsonl.write(r).unwrap();
    }
    std::fs::write(dir.join("unit.csv"), csv.into_inner()).unwrap();
    std::fs::write(dir.join("unit.jsonl"), jsonl.into_inner()).unwrap();
    SweepMeta {
        seed: SEED,
        spec_fingerprint: combine_fingerprints(0, 0xabcd),
        points: POINTS as u64,
        shard,
        plan: None,
    }
    .write(dir, "unit")
    .unwrap();
}

/// A scratch area holding the reference full artifact plus per-shard
/// stash artifacts the scripted children "produce" by copying.
fn scaffold(name: &str, procs: usize) -> (PathBuf, PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("vlq-fleet-{name}"));
    let _ = std::fs::remove_dir_all(&base);
    let (stash, reference, out) = (base.join("stash"), base.join("ref"), base.join("out"));
    let all: Vec<SweepRecord> = (0..POINTS).map(record).collect();
    write_artifact(&reference, &all, ShardSpec::FULL);
    for i in 0..procs {
        let shard = ShardSpec::new(i, procs).unwrap();
        let mine: Vec<SweepRecord> = all
            .iter()
            .filter(|r| shard.owns(r.index))
            .cloned()
            .collect();
        write_artifact(&stash.join(format!("shard{i}")), &mine, shard);
    }
    (stash, reference, out)
}

/// A fake shard child: parses the supervisor-appended `--out`/`--shard`
/// and copies its stash artifact into place, with an optional
/// crash-once preamble.
fn script(stash: &Path, preamble: &str) -> String {
    r#"
out=""; shard=""
while [ "$#" -gt 0 ]; do
  case "$1" in
    --out) out="$2"; shift 2 ;;
    --shard) shard="$2"; shift 2 ;;
    *) shift ;;
  esac
done
i="${shard%%/*}"
PREAMBLE
cp STASH/shard"$i"/* "$out"/
"#
    .replace("PREAMBLE", preamble)
    .replace("STASH", stash.to_str().unwrap())
}

fn spec_for(out: &Path, procs: usize, script: String) -> FleetSpec {
    FleetSpec {
        bin: PathBuf::from("/bin/sh"),
        bin_name: "unit".to_string(),
        stem: "unit".to_string(),
        out: out.to_path_buf(),
        procs,
        passthrough: vec!["-c".to_string(), script, "fleetsh".to_string()],
        plan: None,
        shard_by: "stride".to_string(),
        telemetry: false,
        extra_stems: Vec::new(),
    }
}

fn fast_config() -> FleetConfig {
    FleetConfig {
        poll: Duration::from_millis(5),
        stall: Duration::from_secs(60),
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(10),
        quiet: true,
        ..FleetConfig::default()
    }
}

fn assert_merged_matches(out: &Path, reference: &Path) {
    for name in ["unit.csv", "unit.jsonl", "unit.meta.json"] {
        assert_eq!(
            std::fs::read(out.join(name)).unwrap(),
            std::fs::read(reference.join(name)).unwrap(),
            "{name} diverges from the single-process reference"
        );
    }
}

#[test]
fn clean_fleet_merges_byte_identically() {
    let (stash, reference, out) = scaffold("clean", 2);
    let spec = spec_for(&out, 2, script(&stash, ""));
    let recorder = Recorder::attached();
    let report = supervise(&spec, &fast_config(), &recorder).unwrap();
    assert_eq!(report.procs, 2);
    assert_eq!(report.restarts, 0);
    assert_eq!(report.rows, POINTS);
    assert_merged_matches(&out, &reference);
    let sidecar = std::fs::read_to_string(out.join("unit.fleet.json")).unwrap();
    assert!(sidecar.contains("\"schema\": \"vlq-fleet/v1\""));
    assert!(sidecar.contains("\"procs\": 2"));
    assert_eq!(
        recorder.value(vlq_telemetry::Metric::FleetProcs),
        2,
        "fleet.procs gauge records the fan-out"
    );
}

#[test]
fn crashed_shard_is_salvaged_and_restarted() {
    let (stash, reference, out) = scaffold("crash", 3);
    let mark = out.join("crashed-once");
    // First run of shard 1: leave a torn artifact (one valid row plus a
    // half-written line, exactly what a mid-write kill leaves behind)
    // and die. The restart must salvage and then complete.
    let preamble = r#"
if [ "$i" = "1" ] && [ ! -e MARK ]; then
  : > MARK
  head -n 1 STASH/shard1/unit.jsonl > "$out"/unit.jsonl
  printf '{"index": 999, "torn' >> "$out"/unit.jsonl
  exit 3
fi
"#
    .replace("MARK", mark.to_str().unwrap())
    .replace("STASH", stash.to_str().unwrap());
    let spec = spec_for(&out, 3, script(&stash, &preamble));
    std::fs::create_dir_all(&out).unwrap();
    let report = supervise(&spec, &fast_config(), &Recorder::attached()).unwrap();
    assert_eq!(report.restarts, 1, "exactly one restart for the one crash");
    assert_eq!(report.stalls, 0);
    assert_merged_matches(&out, &reference);
}

#[test]
fn chaos_kill_restarts_a_shard_that_finished_first() {
    // The scripted children finish long before the first poll, so the
    // kill can never land on a live process: the supervisor must still
    // roll shard 1 back to its trigger line and restart it exactly once.
    let (stash, reference, out) = scaffold("chaos", 3);
    let spec = spec_for(&out, 3, script(&stash, ""));
    let config = FleetConfig {
        chaos_kill: Some(ChaosKill { shard: 1, lines: 1 }),
        ..fast_config()
    };
    let report = supervise(&spec, &config, &Recorder::attached()).unwrap();
    assert_eq!(report.restarts, 1, "exactly one restart for the chaos kill");
    assert_eq!(report.stalls, 0);
    assert_merged_matches(&out, &reference);
}

#[test]
fn unrecoverable_shard_exhausts_the_budget() {
    let (stash, _reference, out) = scaffold("budget", 2);
    let spec = spec_for(
        &out,
        2,
        script(&stash, "\nif [ \"$i\" = \"0\" ]; then exit 9; fi\n"),
    );
    let config = FleetConfig {
        max_restarts: 2,
        ..fast_config()
    };
    match supervise(&spec, &config, &Recorder::attached()) {
        Err(FleetError::ShardFailed {
            shard, restarts, ..
        }) => {
            assert_eq!(shard, 0);
            assert_eq!(restarts, 2);
        }
        other => panic!("expected ShardFailed, got {other:?}"),
    }
}
