//! The benchmark workloads and the seeds later claims refer to.

use onoc_graph::benchmarks::Benchmark;

/// Seed of the committed `served-edits` reference outputs.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of tuning: speed claims quote their figures on this
/// seed as well as on the tuning seeds.
pub const HELD_OUT_SEED: u64 = 4_242;

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// MWD, VOPD, MPEG and 8PM-24 synthesized cold at one thread: the
    /// MILP-assigned instances, where `assign` dominates.
    PaperAssign,
    /// D26, 8PM-32 and 8PM-44 synthesized cold with a two-thread budget:
    /// heuristically assigned, where `cluster` dominates. Runnable by
    /// hand but not in `BENCHMARK.json` (see `perfbench/README.md`).
    PaperCluster,
    /// A closed-loop request stream against an in-process daemon.
    ServedEdits,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::PaperAssign,
        Workload::PaperCluster,
        Workload::ServedEdits,
    ];

    /// The workloads of `BENCHMARK.json`, in its order.
    pub const BENCHMARKED: [Workload; 2] = [Workload::PaperAssign, Workload::ServedEdits];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperAssign => "paper-assign",
            Workload::PaperCluster => "paper-cluster",
            Workload::ServedEdits => "served-edits",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The paper instances a pass synthesizes (empty for `served-edits`).
    #[must_use]
    pub const fn instances(self) -> &'static [Benchmark] {
        match self {
            Workload::PaperAssign => &[
                Benchmark::Mwd,
                Benchmark::Vopd,
                Benchmark::Mpeg,
                Benchmark::Pm8x24,
            ],
            Workload::PaperCluster => &[Benchmark::D26, Benchmark::Pm8x32, Benchmark::Pm8x44],
            Workload::ServedEdits => &[],
        }
    }

    /// Thread budget of each synthesis context.
    #[must_use]
    pub fn threads(self) -> usize {
        match self {
            // Parallel branch-and-bound timing would swamp the bound.
            Workload::PaperAssign => 1,
            Workload::PaperCluster | Workload::ServedEdits => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("paper"), None);
    }

    #[test]
    fn held_out_seed_is_not_the_default() {
        assert_ne!(HELD_OUT_SEED, DEFAULT_SEED);
    }
}
