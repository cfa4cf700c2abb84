//! The benchmark's named workloads: each is one or more sweep grids,
//! generated from the workload seed alone. The reasons for each grid's
//! shape are in `WORKLOADS.md` beside this package.

use vlq::decoder::DecoderKind;
use vlq::surface::schedule::{Basis, Setup};
use vlq::sweep::SweepSpec;

/// Which executor a grid runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridKind {
    /// `vlq_qec::MemoryExecutor` (fig11-style memory experiments).
    Memory,
    /// `vlq::exec::ProgramSweepExecutor` (prog1).
    Program,
    /// `vlq_tenant::TenantSweepExecutor` (tenants1).
    Tenant,
}

/// One sweep grid of a workload, streamed to `<stem>.csv` / `.jsonl`.
#[derive(Clone, Debug)]
pub struct Grid {
    pub stem: &'static str,
    pub kind: GridKind,
    pub spec: SweepSpec,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MemoryUf,
    MemoryMwpm,
    ProgramFrame,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MemoryUf,
        Workload::MemoryMwpm,
        Workload::ProgramFrame,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MemoryUf => "memory-uf",
            Workload::MemoryMwpm => "memory-mwpm",
            Workload::ProgramFrame => "program-frame",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's grids; the seed becomes every grid's base seed.
    pub fn grids(self, seed: u64) -> Vec<Grid> {
        match self {
            Workload::MemoryUf => vec![Grid {
                stem: "fig11",
                kind: GridKind::Memory,
                spec: SweepSpec::new()
                    .setups([
                        Setup::Baseline,
                        Setup::NaturalInterleaved,
                        Setup::CompactAllAtOnce,
                    ])
                    .bases([Basis::Z])
                    .distances([3, 5, 7])
                    .ks([10])
                    .decoders([DecoderKind::UnionFind])
                    .error_rates([1e-3, 2e-3, 5e-3, 1e-2])
                    .shots(2048)
                    .base_seed(seed),
            }],
            Workload::MemoryMwpm => vec![Grid {
                stem: "fig11",
                kind: GridKind::Memory,
                spec: SweepSpec::new()
                    .setups([Setup::Baseline, Setup::NaturalInterleaved])
                    .bases([Basis::Z])
                    .distances([3, 5, 7])
                    .ks([10])
                    .decoders([DecoderKind::Mwpm])
                    .error_rates([3e-3])
                    .shots(8192)
                    .base_seed(seed),
            }],
            Workload::ProgramFrame => {
                let program_grid = |programs: &[&str]| {
                    SweepSpec::new()
                        .programs(programs.iter().map(|p| p.to_string()))
                        .setups([Setup::CompactInterleaved])
                        .bases([Basis::Z])
                        .distances([3])
                        .ks([4])
                        .decoders([DecoderKind::UnionFind])
                        .error_rates([8e-4, 2e-3, 5e-3])
                        .shots(8192)
                        .base_seed(seed)
                };
                vec![
                    Grid {
                        stem: "prog1",
                        kind: GridKind::Program,
                        spec: program_grid(&["ghz4", "teleport", "adder2"]),
                    },
                    Grid {
                        stem: "tenants1",
                        kind: GridKind::Tenant,
                        spec: program_grid(&[
                            "tenants2@lru",
                            "tenants2@deadline-priority",
                            "tenants3@lru",
                            "tenants3@deadline-priority",
                        ]),
                    },
                ]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_grids_follow_the_seed() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            for grid in w.grids(77) {
                assert_eq!(grid.spec.base_seed, 77);
                assert!(!grid.spec.expand().is_empty());
            }
        }
        assert_eq!(Workload::parse("memory"), None);
    }

    #[test]
    fn grid_sizes_match_the_documented_workloads() {
        let sizes = |w: Workload| -> Vec<usize> {
            w.grids(1).iter().map(|g| g.spec.expand().len()).collect()
        };
        assert_eq!(sizes(Workload::MemoryUf), [36]);
        assert_eq!(sizes(Workload::MemoryMwpm), [6]);
        assert_eq!(sizes(Workload::ProgramFrame), [9, 12]);
    }
}
