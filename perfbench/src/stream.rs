//! The `served-edits` request stream: a pure function of the seed.
//!
//! Each connection replays its own sub-stream, cut into blocks of a fixed
//! kind mix; pass `k` sends block `k` of every connection. The
//! sub-streams are disjoint by construction, so whether a request hits
//! the daemon's cache depends only on its own connection's history, not
//! on how the connections interleave:
//!
//! * edits only touch messages whose index has the connection's parity,
//!   and added messages only pairs `(src, dst)` with `src + dst` of that
//!   parity;
//! * fresh applications draw their generator seed from a hash that
//!   includes the connection;
//! * a repeat resubmits a base or an earlier request of the same block.
//!
//! The costly requests — structural edits and fresh applications — come
//! from a catalogue keyed by connection and pass alone, so every run pays
//! for the same expensive work and `pass_s` does not swing with the seed.
//! The seed shapes everything else: the order of each block, which
//! requests repeat, and which messages are re-weighted by how much.

use onoc_graph::benchmarks::Benchmark;
use onoc_graph::{CommGraph, MessageId};
use onoc_served::{DeltaSpec, JobSpec, StrategySpec, Workload};

/// Client connections driving the daemon.
pub const CONNECTIONS: usize = 2;

/// The saved bases seeded at set-up; repeats may resubmit them.
pub const BASES: [Benchmark; 3] = [Benchmark::Mwd, Benchmark::Vopd, Benchmark::Pm8x24];

/// Which connection seeds which base during set-up (one base at a time).
pub const BASE_CONNECTION: [usize; 3] = [1, 0, 1];

/// The bases edits are made against (indices into [`BASES`]; never
/// chained). VOPD and 8PM-24 are seeded but not edited: some of their
/// single edits need the whole 3 s MILP budget or more, so whether the
/// answer is proven optimal — and which answer it is — would depend on
/// how busy the machine is.
pub const EDITED_BASES: [usize; 1] = [0];

/// Seed of the catalogue of structural edits and fresh applications.
const CATALOGUE_SEED: u64 = 0x00C0_FFEE;

/// Node-count range of a fresh application.
pub const FRESH_NODES: (u64, u64) = (8, 12);

/// The four request kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// An exact resubmission: answered from the cache.
    Repeat,
    /// A delta that rescales one message's bandwidth.
    Reweight,
    /// A delta that adds, removes or retargets one message.
    Structural,
    /// A new random application, synthesized cold.
    Fresh,
}

impl Kind {
    /// Every kind, in metric-name order.
    pub const ALL: [Kind; 4] = [Kind::Repeat, Kind::Reweight, Kind::Structural, Kind::Fresh];

    /// The name used in metric names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Repeat => "repeat",
            Kind::Reweight => "reweight",
            Kind::Structural => "structural",
            Kind::Fresh => "fresh",
        }
    }
}

/// Requests of each kind in one block. Repeats are the majority, so the
/// median request latency is a cache-answered one.
pub const BLOCK_MIX: [(Kind, usize); 4] = [
    (Kind::Repeat, 6),
    (Kind::Reweight, 2),
    (Kind::Structural, 1),
    (Kind::Fresh, 1),
];

/// What a repeat resubmits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepeatOf {
    /// The set-up request that seeded base `i` of [`BASES`].
    Base(usize),
    /// The request at this index of the same block.
    Earlier(usize),
}

/// What an operation computes, for checking its answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// A resubmission; its answer must equal the original's.
    Repeat(RepeatOf),
    /// One edit of base `base` (an index into [`BASES`]).
    Edit {
        /// Index into [`BASES`].
        base: usize,
        /// The edit.
        delta: DeltaSpec,
    },
    /// A random application from `onoc_graph::synth::random_app`.
    Fresh {
        /// Node count.
        nodes: u64,
        /// Message count.
        messages: u64,
        /// Generator seed.
        seed: u64,
    },
}

/// One request of the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Its kind.
    pub kind: Kind,
    /// What it computes.
    pub source: Source,
    /// The request sent to the daemon.
    pub spec: JobSpec,
    /// Messages the synthesized application must have.
    pub messages: u64,
}

/// The seeded generator. Holds the base graphs; every block is a pure
/// function of `(seed, connection, pass)`.
#[derive(Debug, Clone)]
pub struct StreamGen {
    seed: u64,
    bases: Vec<CommGraph>,
}

impl StreamGen {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> StreamGen {
        StreamGen {
            seed,
            bases: BASES.iter().map(|b| b.graph()).collect(),
        }
    }

    /// The base graphs, indexed like [`BASES`].
    #[must_use]
    pub fn bases(&self) -> &[CommGraph] {
        &self.bases
    }

    /// The set-up request that seeds base `i`.
    #[must_use]
    pub fn base_spec(i: usize) -> JobSpec {
        JobSpec {
            save_as: Some(base_name(i).to_owned()),
            ..JobSpec::new(Workload::Benchmark(BASES[i].name().to_owned()))
        }
    }

    /// Block `pass` of connection `conn`.
    ///
    /// Structural edits and fresh applications are drawn from the
    /// catalogue stream of `(conn, pass)`; the block order, repeats and
    /// re-weights from the seeded stream.
    #[must_use]
    pub fn block(&self, conn: usize, pass: usize) -> Vec<Op> {
        let mut rng = SplitMix::new(mix(&[self.seed, conn as u64, pass as u64]));
        let mut kinds: Vec<Kind> = BLOCK_MIX
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .collect();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.below(i as u64 + 1) as usize);
        }
        // One catalogue stream per costly kind, so the draws do not depend
        // on where the seeded shuffle put that kind in the block.
        let catalogue = |kind: Kind| {
            SplitMix::new(mix(&[
                CATALOGUE_SEED,
                conn as u64,
                pass as u64,
                kind as u64,
            ]))
        };
        let mut structural = catalogue(Kind::Structural);
        let mut fresh = catalogue(Kind::Fresh);
        let mut ops: Vec<Op> = Vec::with_capacity(kinds.len());
        for kind in kinds {
            let op = match kind {
                Kind::Repeat => self.repeat(&ops, &mut rng),
                Kind::Reweight => self.reweight(conn, &mut rng),
                Kind::Structural => self.structural(conn, &mut structural),
                Kind::Fresh => self.fresh(&mut fresh),
            };
            ops.push(op);
        }
        ops
    }

    fn repeat(&self, earlier: &[Op], rng: &mut SplitMix) -> Op {
        let candidates: Vec<usize> = earlier
            .iter()
            .enumerate()
            .filter(|(_, op)| op.kind != Kind::Repeat)
            .map(|(i, _)| i)
            .collect();
        let (of, spec, messages) = if candidates.is_empty() {
            let b = rng.below(BASES.len() as u64) as usize;
            let spec = JobSpec::new(Workload::Benchmark(BASES[b].name().to_owned()));
            (
                RepeatOf::Base(b),
                spec,
                self.bases[b].message_count() as u64,
            )
        } else {
            let i = candidates[rng.below(candidates.len() as u64) as usize];
            (
                RepeatOf::Earlier(i),
                earlier[i].spec.clone(),
                earlier[i].messages,
            )
        };
        Op {
            kind: Kind::Repeat,
            source: Source::Repeat(of),
            spec,
            messages,
        }
    }

    /// Messages of `graph` this connection may edit: those whose index
    /// has the connection's parity.
    fn own_messages(graph: &CommGraph, conn: usize) -> Vec<MessageId> {
        graph
            .message_ids()
            .filter(|m| m.index() % CONNECTIONS == conn)
            .collect()
    }

    fn reweight(&self, conn: usize, rng: &mut SplitMix) -> Op {
        const FACTORS: [f64; 6] = [0.25, 0.5, 0.75, 1.5, 2.0, 4.0];
        let base = EDITED_BASES[rng.below(EDITED_BASES.len() as u64) as usize];
        let graph = &self.bases[base];
        let own = Self::own_messages(graph, conn);
        let m = own[rng.below(own.len() as u64) as usize];
        let delta = DeltaSpec::Scale {
            id: graph.stable_id(m).0,
            factor: FACTORS[rng.below(FACTORS.len() as u64) as usize],
        };
        self.edit(Kind::Reweight, base, delta, graph.message_count() as u64)
    }

    fn structural(&self, conn: usize, rng: &mut SplitMix) -> Op {
        let base = EDITED_BASES[rng.below(EDITED_BASES.len() as u64) as usize];
        let graph = &self.bases[base];
        let count = graph.message_count() as u64;
        // Removing or moving a message must not strand a node.
        let movable: Vec<MessageId> = Self::own_messages(graph, conn)
            .into_iter()
            .filter(|&m| {
                let msg = graph.message(m);
                degree(graph, msg.src) > 1 && degree(graph, msg.dst) > 1
            })
            .collect();
        let free = free_pairs(graph, conn);
        let choice = rng.below(3);
        let (delta, messages) = if choice == 0 || movable.is_empty() {
            let (src, dst) = free[rng.below(free.len() as u64) as usize];
            (
                DeltaSpec::Add {
                    src,
                    dst,
                    bandwidth: 1.0,
                },
                count + 1,
            )
        } else {
            let m = movable[rng.below(movable.len() as u64) as usize];
            let id = graph.stable_id(m).0;
            if choice == 1 {
                (DeltaSpec::Remove { id }, count - 1)
            } else {
                let (src, dst) = free[rng.below(free.len() as u64) as usize];
                (DeltaSpec::Retarget { id, src, dst }, count)
            }
        };
        self.edit(Kind::Structural, base, delta, messages)
    }

    fn edit(&self, kind: Kind, base: usize, delta: DeltaSpec, messages: u64) -> Op {
        let spec = JobSpec::new(Workload::Delta {
            base: base_name(base).to_owned(),
            deltas: vec![delta.clone()],
        });
        Op {
            kind,
            source: Source::Edit { base, delta },
            spec,
            messages,
        }
    }

    fn fresh(&self, rng: &mut SplitMix) -> Op {
        let app_seed = rng.next_u64();
        let (lo, hi) = FRESH_NODES;
        let nodes = lo + rng.below(hi - lo + 1);
        let messages = 2 * nodes + rng.below(nodes + 1);
        let spec = JobSpec {
            strategy: StrategySpec::Heuristic,
            ..JobSpec::new(Workload::Random {
                nodes,
                messages,
                seed: app_seed,
            })
        };
        Op {
            kind: Kind::Fresh,
            source: Source::Fresh {
                nodes,
                messages,
                seed: app_seed,
            },
            spec,
            messages,
        }
    }
}

/// The name a base is saved under on the daemon.
#[must_use]
pub fn base_name(i: usize) -> &'static str {
    BASES[i].name()
}

fn degree(graph: &CommGraph, node: onoc_graph::NodeId) -> usize {
    graph
        .messages()
        .iter()
        .filter(|m| m.src == node || m.dst == node)
        .count()
}

/// Directed pairs without a message whose index sum has the connection's
/// parity.
fn free_pairs(graph: &CommGraph, conn: usize) -> Vec<(u64, u64)> {
    let n = graph.node_count();
    let mut pairs = Vec::new();
    for src in 0..n {
        for dst in 0..n {
            if src == dst || (src + dst) % CONNECTIONS != conn {
                continue;
            }
            let taken = graph
                .messages()
                .iter()
                .any(|m| m.src.index() == src && m.dst.index() == dst);
            if !taken {
                pairs.push((src as u64, dst as u64));
            }
        }
    }
    pairs
}

/// The SplitMix64 generator: tiny, seedable and platform-independent.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator starting from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Hashes a tuple of words into one seed.
#[must_use]
pub fn mix(parts: &[u64]) -> u64 {
    let mut rng = SplitMix::new(0x5249_4e47); // "RING"
    for &p in parts {
        rng = SplitMix::new(rng.next_u64() ^ p);
    }
    rng.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{DEFAULT_SEED, HELD_OUT_SEED};
    use std::collections::BTreeSet;

    fn passes(seed: u64, conn: usize, n: usize) -> Vec<Op> {
        let gen = StreamGen::new(seed);
        (0..n).flat_map(|p| gen.block(conn, p)).collect()
    }

    #[test]
    fn same_seed_same_requests() {
        for conn in 0..CONNECTIONS {
            assert_eq!(passes(DEFAULT_SEED, conn, 8), passes(DEFAULT_SEED, conn, 8));
        }
    }

    #[test]
    fn different_seeds_different_requests() {
        for conn in 0..CONNECTIONS {
            let a = passes(DEFAULT_SEED, conn, 8);
            assert_ne!(a, passes(DEFAULT_SEED + 1, conn, 8));
            assert_ne!(a, passes(HELD_OUT_SEED, conn, 8));
        }
    }

    #[test]
    fn costly_requests_do_not_depend_on_the_seed() {
        let costly = |seed| -> BTreeSet<String> {
            passes(seed, 0, 8)
                .into_iter()
                .filter(|op| matches!(op.kind, Kind::Structural | Kind::Fresh))
                .map(|op| format!("{:?}", op.spec))
                .collect()
        };
        assert_eq!(costly(DEFAULT_SEED), costly(HELD_OUT_SEED));
    }

    #[test]
    fn blocks_have_the_fixed_mix() {
        let gen = StreamGen::new(7);
        for pass in 0..20 {
            let block = gen.block(0, pass);
            for (kind, n) in BLOCK_MIX {
                assert_eq!(block.iter().filter(|op| op.kind == kind).count(), n);
            }
        }
    }

    #[test]
    fn connection_sub_streams_are_disjoint() {
        // Requests that compute something (repeats are resubmissions of a
        // connection's own requests or of the shared bases).
        for seed in [DEFAULT_SEED, HELD_OUT_SEED, 99] {
            let own = |conn| -> Vec<String> {
                passes(seed, conn, 40)
                    .into_iter()
                    .filter(|op| op.kind != Kind::Repeat)
                    .map(|op| format!("{:?}", op.spec))
                    .collect()
            };
            let a: BTreeSet<String> = own(0).into_iter().collect();
            let b: BTreeSet<String> = own(1).into_iter().collect();
            assert!(
                a.is_disjoint(&b),
                "seed {seed}: connections share a request"
            );
        }
    }

    #[test]
    fn repeats_resubmit_their_original() {
        let gen = StreamGen::new(DEFAULT_SEED);
        for pass in 0..20 {
            let block = gen.block(1, pass);
            for op in &block {
                if let Source::Repeat(RepeatOf::Earlier(i)) = op.source {
                    assert_eq!(op.spec, block[i].spec);
                    assert_ne!(block[i].kind, Kind::Repeat);
                }
            }
        }
    }

    #[test]
    fn edits_apply_cleanly_to_their_base() {
        let gen = StreamGen::new(HELD_OUT_SEED);
        for conn in 0..CONNECTIONS {
            for pass in 0..30 {
                for op in gen.block(conn, pass) {
                    if let Source::Edit { base, delta } = &op.source {
                        let edited = gen.bases()[*base]
                            .apply_delta(&delta.to_comm())
                            .expect("edit applies");
                        assert_eq!(edited.message_count() as u64, op.messages);
                    }
                }
            }
        }
    }
}
