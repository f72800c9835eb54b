//! The sub-ring construction (clustering) algorithm of SRing
//! (paper Sec. III-A, Figs. 4–5).
//!
//! Nodes are grouped by communication requirement and physical proximity;
//! each cluster gets an *intra-cluster* sub-ring, and at most one
//! *inter-cluster* sub-ring connects all nodes with cross-cluster traffic —
//! so every node has at most two senders. The maximum permissible signal
//! path length `L_max` is minimized by a balanced binary search over
//! `[d₁, d₂]`, where `d₁` is the largest Manhattan distance between
//! communicating nodes and `d₂` the longest signal path of a conventional
//! all-node ring.

use onoc_ctx::{ContentHash, ContentHasher, ContentKey, DeadlineExceeded, ExecCtx};
use onoc_graph::{CommGraph, NodeId};
use onoc_layout::ring_order::tour_order;
use onoc_layout::Cycle;
use onoc_units::Millimeters;
use std::collections::BTreeSet;
use std::fmt;

/// Tuning knobs of the clustering algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringConfig {
    /// Height `h` of the balanced binary search tree over candidate
    /// `L_max` values: the tree holds `2^h − 1` equidistant candidates
    /// (paper footnote *b*). All candidates are evaluated, so `h` trades
    /// resolution against runtime.
    pub tree_height: u32,
}

impl Default for ClusteringConfig {
    fn default() -> Self {
        ClusteringConfig { tree_height: 4 }
    }
}

/// One cluster: its members and (for clusters of two or more nodes) the
/// intra-cluster sub-ring in its chosen transmission direction.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Member nodes, in discovery order.
    pub members: Vec<NodeId>,
    /// The intra-cluster sub-ring; `None` for singleton clusters, whose
    /// only traffic is inter-cluster.
    pub ring: Option<Cycle>,
}

/// The outcome of the clustering algorithm: the valid solution with the
/// smallest `L_max`.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// The clusters, each with its intra-cluster sub-ring.
    pub clusters: Vec<Cluster>,
    /// The inter-cluster sub-ring over all nodes with cross-cluster
    /// traffic; `None` when every message is intra-cluster.
    pub inter_ring: Option<Cycle>,
    /// The `L_max` bound the solution was accepted under.
    pub l_max: Millimeters,
    /// The longest signal path actually realized.
    pub longest_path: Millimeters,
    /// Cluster index of each node.
    pub cluster_of: Vec<usize>,
}

impl Clustering {
    /// Number of sub-rings (intra rings plus the inter ring).
    #[must_use]
    pub fn sub_ring_count(&self) -> usize {
        self.clusters.iter().filter(|c| c.ring.is_some()).count()
            + usize::from(self.inter_ring.is_some())
    }

    /// `true` when `a` and `b` belong to the same cluster.
    ///
    /// # Panics
    ///
    /// Panics if either node is outside the clustered graph.
    #[must_use]
    pub fn same_cluster(&self, a: NodeId, b: NodeId) -> bool {
        self.cluster_of[a.index()] == self.cluster_of[b.index()]
    }

    /// The maximum number of signal paths overlapping on any single
    /// waveguide segment when `graph`'s messages are routed on this
    /// solution's sub-rings. This is a lower bound on the wavelength count
    /// any assignment can reach, so the `L_max` search uses it to break
    /// ties between equally short solutions.
    ///
    /// # Panics
    ///
    /// Panics if the solution was not built for `graph`.
    #[must_use]
    pub fn max_channel_congestion(&self, graph: &CommGraph) -> usize {
        let mut worst = 0usize;
        let ring_of = |m: &onoc_graph::Message| -> Option<&Cycle> {
            if self.same_cluster(m.src, m.dst) {
                self.clusters[self.cluster_of[m.src.index()]].ring.as_ref()
            } else {
                self.inter_ring.as_ref()
            }
        };
        // Count per (ring identity, segment) occupancy.
        let mut rings: Vec<&Cycle> = self
            .clusters
            .iter()
            .filter_map(|c| c.ring.as_ref())
            .collect();
        if let Some(r) = &self.inter_ring {
            rings.push(r);
        }
        for ring in rings {
            let mut load = vec![0usize; ring.len()];
            for m in graph.messages() {
                if ring_of(m).is_some_and(|r| std::ptr::eq(r, ring)) {
                    if let Some(range) = ring.path_segments(m.src, m.dst) {
                        for seg in range.iter() {
                            load[seg] += 1;
                            worst = worst.max(load[seg]);
                        }
                    }
                }
            }
        }
        worst
    }
}

/// Error from [`cluster`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClusterError {
    /// The application has no messages, so there is nothing to construct.
    NoMessages,
    /// Every clustering attempt — including the unbounded fallback —
    /// produced an empty cluster set.
    EmptyCluster,
    /// A sub-ring could not be constructed or refined because a cycle
    /// invariant was violated (an internal bug surfaced as a typed error
    /// instead of a panic).
    InvalidCycle(&'static str),
    /// The execution deadline expired mid-pass.
    Deadline(DeadlineExceeded),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoMessages => write!(f, "application has no messages"),
            ClusterError::EmptyCluster => {
                write!(f, "no clustering attempt produced a non-empty cluster set")
            }
            ClusterError::InvalidCycle(what) => {
                write!(f, "sub-ring cycle invariant violated: {what}")
            }
            ClusterError::Deadline(e) => write!(f, "clustering {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<DeadlineExceeded> for ClusterError {
    fn from(e: DeadlineExceeded) -> Self {
        ClusterError::Deadline(e)
    }
}

/// The longest signal path of a conventional ring router connecting all
/// nodes sequentially with clockwise and counter-clockwise waveguides
/// (each message taking the shorter direction).
///
/// Returns zero for graphs with fewer than two nodes or no messages.
#[must_use]
pub fn conventional_upper_bound(graph: &CommGraph) -> Millimeters {
    if graph.node_count() < 2 || graph.message_count() == 0 {
        return Millimeters(0.0);
    }
    let positions: Vec<_> = graph.node_ids().map(|n| graph.position(n)).collect();
    let order = tour_order(&positions);
    // The guard above makes both constructions infallible; degrade to the
    // documented zero bound instead of panicking if that ever changes.
    let Ok(ring) = Cycle::new(order) else {
        return Millimeters(0.0);
    };
    let rev = ring.reversed();
    let dist = |a: NodeId, b: NodeId| graph.manhattan(a, b).0;
    let mut worst = 0.0f64;
    for m in graph.messages() {
        let (Some(fwd), Some(bwd)) = (
            ring.path_length(m.src, m.dst, dist),
            rev.path_length(m.src, m.dst, dist),
        ) else {
            continue;
        };
        worst = worst.max(fwd.min(bwd));
    }
    Millimeters(worst)
}

/// The longest signal path if all nodes were connected sequentially on a
/// *single* directed ring (the best of the two orientations) — the upper
/// search bound `d₂`. Sub-rings carry signals in one direction only, so
/// this is the bound a degenerate one-cluster solution can always realize;
/// it guarantees the `L_max` search space contains a valid solution.
#[must_use]
pub fn one_way_upper_bound(graph: &CommGraph) -> Millimeters {
    if graph.node_count() < 2 || graph.message_count() == 0 {
        return Millimeters(0.0);
    }
    let positions: Vec<_> = graph.node_ids().map(|n| graph.position(n)).collect();
    let order = tour_order(&positions);
    let Ok(ring) = Cycle::new(order) else {
        return Millimeters(0.0);
    };
    let dist = |a: NodeId, b: NodeId| graph.manhattan(a, b).0;
    let msgs: Vec<(NodeId, NodeId)> = graph.messages().iter().map(|m| (m.src, m.dst)).collect();
    let (_, worst) = best_orientation(&ring, &msgs, &dist);
    Millimeters(worst)
}

/// Runs the full clustering algorithm (paper Fig. 4) and returns the valid
/// solution with the smallest `L_max`.
///
/// # Errors
///
/// Returns [`ClusterError::NoMessages`] for an application without
/// messages. Any application with messages admits a solution: if no
/// candidate `L_max` in `[d₁, d₂]` validates, the algorithm falls back to
/// an unbounded run, which always succeeds.
pub fn cluster(graph: &CommGraph, config: &ClusteringConfig) -> Result<Clustering, ClusterError> {
    cluster_ctx(graph, config, &ExecCtx::new())
}

/// [`cluster`] with an execution context. When `ctx` carries a memo tier
/// ([`ExecCtx::memo`]), the pure sub-ring construction units — greedy
/// cluster growth, cycle refinement, and inter-ring growth — are
/// content-keyed by exactly the input slice each depends on and served
/// from the memo on repeat invocations. A memo hit returns precisely what
/// recomputation would, so results are bit-identical with or without the
/// memo; this is what makes incremental re-synthesis fast without a
/// separate (and potentially divergent) incremental algorithm.
///
/// # Errors
///
/// Same contract as [`cluster`].
pub fn cluster_ctx(
    graph: &CommGraph,
    config: &ClusteringConfig,
    ctx: &ExecCtx,
) -> Result<Clustering, ClusterError> {
    if graph.message_count() == 0 {
        return Err(ClusterError::NoMessages);
    }
    let d1 = graph.max_communicating_distance().0;
    let d2 = one_way_upper_bound(graph).0.max(d1);
    let count = (1usize << config.tree_height) - 1;
    let candidate = |k: usize| {
        if count == 1 {
            (d1 + d2) / 2.0
        } else {
            d1 + (d2 - d1) * k as f64 / (count - 1) as f64
        }
    };

    // Balanced binary search over the candidate L_max values: a valid
    // clustering sends the search left (smaller L_max), an invalid one
    // right (paper Fig. 4). Among all valid candidates encountered, the
    // one with the smallest *realized* longest signal path is kept (ties:
    // smaller L_max) — with a greedy construction, validity is not
    // perfectly monotone in L_max, so the realized length is the honest
    // selection key.
    let mut best: Option<(Clustering, f64)> = None;
    let consider = |solution: Clustering, best: &mut Option<(Clustering, f64)>| {
        let score = power_proxy(&solution, graph);
        let better = match best {
            None => true,
            Some((b, bs)) => {
                score < *bs - 1e-12
                    || ((score - *bs).abs() <= 1e-12
                        && (solution.longest_path.0 < b.longest_path.0 - 1e-12
                            || ((solution.longest_path.0 - b.longest_path.0).abs() <= 1e-12
                                && solution.l_max.0 < b.l_max.0)))
            }
        };
        if better {
            *best = Some((solution, score));
        }
    };
    // The paper descends the tree (h clustering runs); because the greedy
    // construction makes validity only approximately monotone in L_max,
    // this implementation evaluates every tree node (2^h − 1 equidistant
    // candidates) and keeps the best — exhaustive over the same candidate
    // set, immune to a single misleading branch decision.
    for k in 0..count {
        if let Some(solution) = try_cluster_with_l_max_ctx(graph, candidate(k), ctx)? {
            consider(solution, &mut best);
        }
    }
    if best.is_none() {
        if let Some(solution) = try_cluster_with_l_max_ctx(graph, f64::INFINITY, ctx)? {
            consider(solution, &mut best);
        }
    }
    best.map(|(c, _)| c).ok_or(ClusterError::EmptyCluster)
}

/// A proxy for the total laser power a clustering solution will need:
/// the channel congestion lower-bounds the wavelength count, and every
/// wavelength's laser power grows exponentially (in dB) with the longest
/// path it may carry. The `L_max` search uses this to rank valid
/// solutions: for low-density applications it coincides with minimizing
/// the longest path; for dense ones it prefers splitting traffic across
/// sub-rings over a marginally shorter but heavily congested ring.
fn power_proxy(solution: &Clustering, graph: &CommGraph) -> f64 {
    let congestion = solution.max_channel_congestion(graph).max(1) as f64;
    congestion * 10f64.powf(solution.longest_path.0 / 10.0)
}

/// Attempts clustering under a fixed `L_max`; `Ok(None)` when the
/// inter-cluster sub-ring cannot satisfy the bound from any initial vertex.
/// [`cluster_ctx`] drives this over the binary-searched `L_max` candidates;
/// calling it directly is useful for ablation studies. The context's memo
/// tier (if any) serves the pure construction units.
///
/// Two cluster-selection criteria are tried — preferring the largest grown
/// cluster (fewer inter-cluster nodes) and preferring the tightest one
/// (shortest longest path) — and the valid solution with the shorter
/// realized longest path wins.
///
/// # Errors
///
/// [`ClusterError::InvalidCycle`] when a sub-ring construction or
/// refinement step violates a cycle invariant.
pub fn try_cluster_with_l_max_ctx(
    graph: &CommGraph,
    l_max: f64,
    ctx: &ExecCtx,
) -> Result<Option<Clustering>, ClusterError> {
    let n = graph.node_count();
    // Candidate passes: two selection criteria × several cluster-size
    // caps. Uncapped growth minimizes the inter ring; capped growth keeps
    // clusters small enough that traffic spreads over several sub-rings,
    // which is what bounds wavelength usage on dense applications.
    let caps = [n, n.div_ceil(2), n.div_ceil(3), n.div_ceil(4)];
    let mut best: Option<(Clustering, (f64, f64))> = None;
    for criterion in [
        SelectionCriterion::LargestFirst,
        SelectionCriterion::TightestFirst,
    ] {
        // A cap at or above the largest cluster the uncapped pass grows
        // cannot change the outcome; track it to skip redundant passes.
        let mut binding_size = usize::MAX;
        for cap in caps {
            if cap < 2 || cap >= binding_size {
                continue;
            }
            if let Some(c) = cluster_pass(graph, l_max, criterion, cap, ctx)? {
                let max_cluster = c
                    .clusters
                    .iter()
                    .map(|cl| cl.members.len())
                    .max()
                    .unwrap_or(0);
                if max_cluster < cap {
                    binding_size = binding_size.min(max_cluster.max(2));
                }
                let key = (power_proxy(&c, graph), c.longest_path.0);
                let better = match &best {
                    None => true,
                    Some((_, bk)) => {
                        key.0 < bk.0 - 1e-12
                            || ((key.0 - bk.0).abs() <= 1e-12 && key.1 < bk.1 - 1e-12)
                    }
                };
                if better {
                    best = Some((c, key));
                }
            }
        }
    }
    Ok(best.map(|(c, _)| c))
}

/// How the best grown cluster is chosen among the candidate initial
/// vertices of one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SelectionCriterion {
    /// Prefer more members (ties: shorter longest path).
    LargestFirst,
    /// Prefer a shorter longest path (ties: more members).
    TightestFirst,
}

/// Appends `v` and its position — the identity *and* geometry a
/// construction unit sees for one node.
fn hash_node(graph: &CommGraph, v: NodeId, hasher: &mut ContentHasher) {
    hasher.write_usize(v.index());
    graph.position(v).content_hash(hasher);
}

/// Memo key for [`grow_intra`]: the growth is a pure function of the
/// initial vertex, the unclustered set (with positions), the messages
/// restricted to that set (its neighbor, affinity, and path evaluations
/// never look outside it), and the `(l_max, size_cap)` bounds.
fn grow_key(
    graph: &CommGraph,
    initial: NodeId,
    unclustered: &BTreeSet<NodeId>,
    l_max: f64,
    size_cap: usize,
) -> ContentKey {
    let mut hasher = ContentHasher::new();
    hasher.write_usize(initial.index());
    hasher.write_f64(l_max);
    hasher.write_usize(size_cap);
    hasher.write_usize(unclustered.len());
    for &v in unclustered {
        hash_node(graph, v, &mut hasher);
    }
    for m in graph.messages() {
        if unclustered.contains(&m.src) && unclustered.contains(&m.dst) {
            hasher.write_usize(m.src.index());
            hasher.write_usize(m.dst.index());
        }
    }
    hasher.finish()
}

/// Memo key for [`improve_cycle`]: the refinement depends on the cycle's
/// visiting order, the message list it scores (in order, with endpoint
/// positions), and the bound.
fn refine_key(
    graph: &CommGraph,
    cycle: &Cycle,
    messages: &[(NodeId, NodeId)],
    l_max: f64,
) -> ContentKey {
    let mut hasher = ContentHasher::new();
    hasher.write_f64(l_max);
    hasher.write_usize(cycle.len());
    for &v in cycle.nodes() {
        hash_node(graph, v, &mut hasher);
    }
    hasher.write_usize(messages.len());
    for &(s, d) in messages {
        hash_node(graph, s, &mut hasher);
        hash_node(graph, d, &mut hasher);
    }
    hasher.finish()
}

/// Memo key for [`grow_inter`]: the initial vertex, the full `v_inter`
/// list (with positions), the cross-cluster messages, and the bound.
fn inter_key(
    graph: &CommGraph,
    initial: NodeId,
    v_inter: &[NodeId],
    inter_messages: &[(NodeId, NodeId)],
    l_max: f64,
) -> ContentKey {
    let mut hasher = ContentHasher::new();
    hasher.write_usize(initial.index());
    hasher.write_f64(l_max);
    hasher.write_usize(v_inter.len());
    for &v in v_inter {
        hash_node(graph, v, &mut hasher);
    }
    hasher.write_usize(inter_messages.len());
    for &(s, d) in inter_messages {
        hash_node(graph, s, &mut hasher);
        hash_node(graph, d, &mut hasher);
    }
    hasher.finish()
}

fn cluster_pass(
    graph: &CommGraph,
    l_max: f64,
    criterion: SelectionCriterion,
    size_cap: usize,
    ctx: &ExecCtx,
) -> Result<Option<Clustering>, ClusterError> {
    let n = graph.node_count();
    let dist = |a: NodeId, b: NodeId| graph.manhattan(a, b).0;

    // Memo-served wrappers for the three pure construction units. A hit
    // returns exactly what the wrapped computation would, so the pass is
    // bit-identical with or without a memo tier on `ctx`.
    let grow_memo = |initial: NodeId,
                     unclustered: &BTreeSet<NodeId>|
     -> Result<Option<GrownCluster>, ClusterError> {
        let key = grow_key(graph, initial, unclustered, l_max, size_cap);
        if let Some(hit) = ctx.memo_get::<Option<GrownCluster>>("cluster_grow", key) {
            return Ok((*hit).clone());
        }
        let grown = grow_intra(graph, initial, unclustered, l_max, size_cap)?;
        ctx.memo_put("cluster_grow", key, grown.clone());
        Ok(grown)
    };
    let refine_memo =
        |cycle: &Cycle, messages: &[(NodeId, NodeId)]| -> Result<(Cycle, f64), ClusterError> {
            let key = refine_key(graph, cycle, messages, l_max);
            if let Some(hit) = ctx.memo_get::<(Cycle, f64)>("cluster_refine", key) {
                return Ok((*hit).clone());
            }
            let refined = improve_cycle(cycle, messages, &dist, l_max)?;
            ctx.memo_put("cluster_refine", key, refined.clone());
            Ok(refined)
        };
    let inter_memo = |initial: NodeId,
                      v_inter: &[NodeId],
                      inter_messages: &[(NodeId, NodeId)],
                      bound: f64|
     -> Result<Option<(Cycle, f64)>, ClusterError> {
        let key = inter_key(graph, initial, v_inter, inter_messages, bound);
        if let Some(hit) = ctx.memo_get::<Option<(Cycle, f64)>>("cluster_inter", key) {
            return Ok((*hit).clone());
        }
        let grown = grow_inter(initial, v_inter, inter_messages, bound, &dist)?;
        ctx.memo_put("cluster_inter", key, grown.clone());
        Ok(grown)
    };

    // --- Intra-cluster construction. ---
    let mut unclustered: BTreeSet<NodeId> = graph.node_ids().collect();
    let mut clusters: Vec<Cluster> = Vec::new();
    let mut cluster_of = vec![usize::MAX; n];
    let mut longest_overall = 0.0f64;

    // Growth results are cached across rounds: a grown cluster changes
    // only if one of its absorbed members has since been claimed by
    // another cluster (a maximal greedy absorbs every valid candidate, so
    // removing never-absorbed nodes cannot alter its decisions).
    let mut cache: std::collections::BTreeMap<NodeId, Option<GrownCluster>> =
        std::collections::BTreeMap::new();
    while !unclustered.is_empty() {
        // Each round grows a full candidate set of clusters — the
        // natural cancellation point for a budgeted synthesis run.
        ctx.check_deadline()?;
        // Grow a cluster from every possible initial vertex. Under the
        // L_max cap every grown cluster keeps its signal paths short, so
        // the selection prefers the *largest* cluster (more intra-cluster
        // traffic means a smaller inter ring) and breaks ties toward the
        // shortest longest signal path. The minimization of path lengths
        // happens through the binary search over L_max itself.
        let mut best: Option<(f64, usize, GrownCluster)> = None;
        for &initial in &unclustered {
            let entry = match cache.entry(initial) {
                std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(grow_memo(initial, &unclustered)?)
                }
            };
            if let Some(grown) = entry.clone() {
                let key = (grown.longest, grown.members.len());
                let better = match &best {
                    None => true,
                    Some((bl, bm, _)) => match criterion {
                        SelectionCriterion::LargestFirst => {
                            key.1 > *bm || (key.1 == *bm && key.0 < *bl - 1e-12)
                        }
                        SelectionCriterion::TightestFirst => {
                            key.0 < *bl - 1e-12 || ((key.0 - *bl).abs() <= 1e-12 && key.1 > *bm)
                        }
                    },
                };
                if better {
                    best = Some((key.0, key.1, grown));
                }
            }
        }
        match best {
            Some((longest, _, grown)) => {
                // Refine only the winning cluster's ring order (the greedy
                // grows rings for every candidate initial vertex; refining
                // them all would be wasted work).
                let (ring, longest) = match grown.ring {
                    Some(ring) => {
                        let member_set: BTreeSet<NodeId> = grown.members.iter().copied().collect();
                        let msgs: Vec<(NodeId, NodeId)> = graph
                            .messages()
                            .iter()
                            .filter(|m| member_set.contains(&m.src) && member_set.contains(&m.dst))
                            .map(|m| (m.src, m.dst))
                            .collect();
                        let (refined, refined_longest) = refine_memo(&ring, &msgs)?;
                        (Some(refined), refined_longest)
                    }
                    None => (None, longest),
                };
                longest_overall = longest_overall.max(longest);
                let idx = clusters.len();
                for &m in &grown.members {
                    unclustered.remove(&m);
                    cluster_of[m.index()] = idx;
                }
                let claimed: BTreeSet<NodeId> = grown.members.iter().copied().collect();
                cache.retain(|initial, cached| {
                    !claimed.contains(initial)
                        && cached
                            .as_ref()
                            .is_none_or(|g| !g.members.iter().any(|m| claimed.contains(m)))
                });
                clusters.push(Cluster {
                    members: grown.members,
                    ring,
                });
            }
            None => {
                // No unclustered vertex can pair up: the rest become
                // singleton clusters (inter-cluster traffic only).
                for &v in &unclustered {
                    cluster_of[v.index()] = clusters.len();
                    clusters.push(Cluster {
                        members: vec![v],
                        ring: None,
                    });
                }
                unclustered.clear();
            }
        }
    }

    // --- Inter-cluster construction. ---
    let v_inter: Vec<NodeId> = graph
        .node_ids()
        .filter(|&v| {
            graph
                .neighbors(v)
                .iter()
                .any(|&w| cluster_of[v.index()] != cluster_of[w.index()])
        })
        .collect();
    let inter_messages: Vec<(NodeId, NodeId)> = graph
        .messages()
        .iter()
        .filter(|m| cluster_of[m.src.index()] != cluster_of[m.dst.index()])
        .map(|m| (m.src, m.dst))
        .collect();

    let inter_ring = if v_inter.is_empty() {
        None
    } else {
        debug_assert!(
            v_inter.len() >= 2,
            "cross-cluster messages have two endpoints"
        );
        // Bounded growth first (the paper's construction), from every
        // initial vertex; the best raw ring is refined once at the end.
        let mut best: Option<(f64, Cycle)> = None;
        for &initial in &v_inter {
            if let Some((cycle, longest)) = inter_memo(initial, &v_inter, &inter_messages, l_max)? {
                let better = match &best {
                    None => true,
                    Some((bl, _)) => longest < *bl - 1e-12,
                };
                if better {
                    best = Some((longest, cycle));
                }
            }
        }
        // Fallback: when no bounded growth succeeds, grow unrestricted
        // from every initial vertex and refine the few best raw rings —
        // refinement can pull them under the bound.
        if best.is_none() {
            let mut raw: Vec<(f64, Cycle)> = Vec::with_capacity(v_inter.len());
            for &initial in &v_inter {
                if let Some((c, l)) = inter_memo(initial, &v_inter, &inter_messages, f64::INFINITY)?
                {
                    raw.push((l, c));
                }
            }
            raw.sort_by(|a, b| a.0.total_cmp(&b.0));
            for (_, cycle) in raw.into_iter().take(3) {
                let (refined, longest) = refine_memo(&cycle, &inter_messages)?;
                if longest <= l_max + 1e-12 {
                    let better = match &best {
                        None => true,
                        Some((bl, _)) => longest < *bl - 1e-12,
                    };
                    if better {
                        best = Some((longest, refined));
                    }
                }
            }
        }
        // No initial vertex at all → the whole clustering solution is
        // invalid (paper Sec. III-A-2).
        let Some((_, cycle)) = best else {
            return Ok(None);
        };
        let (cycle, longest) = refine_memo(&cycle, &inter_messages)?;
        if longest > l_max + 1e-12 {
            return Ok(None);
        }
        longest_overall = longest_overall.max(longest);
        Some(cycle)
    };

    Ok(Some(Clustering {
        clusters,
        inter_ring,
        l_max: Millimeters(l_max),
        longest_path: Millimeters(longest_overall),
        cluster_of,
    }))
}

/// The insertion positions worth evaluating when absorbing `x` into
/// `cycle`: the `k` segments with the smallest rectilinear detour
/// `d(a, x) + d(x, b) − d(a, b)`. Inserting into a distant segment can
/// only lengthen paths, so the greedy restricts its evaluation to the
/// geometrically sensible positions.
fn candidate_segments(
    cycle: &Cycle,
    x: NodeId,
    dist: &impl Fn(NodeId, NodeId) -> f64,
    k: usize,
) -> Vec<usize> {
    let mut scored: Vec<(f64, usize)> = (0..cycle.len())
        .map(|i| {
            let (a, b) = cycle.segment(i);
            (dist(a, x) + dist(x, b) - dist(a, b), i)
        })
        .collect();
    scored.sort_by(|p, q| p.0.total_cmp(&q.0));
    scored.truncate(k.max(1));
    scored.into_iter().map(|(_, i)| i).collect()
}

#[derive(Clone)]
struct GrownCluster {
    members: Vec<NodeId>,
    ring: Option<Cycle>,
    longest: f64,
}

/// Local-search refinement of a sub-ring's visiting order: single-node
/// relocations and 2-opt reversals are accepted while they reduce the
/// `(longest signal path, total signal path length)` score, with the
/// transmission direction re-optimized per trial. Greedy absorption fixes
/// the member set; this pass only improves the order — a refinement on top
/// of the paper's construction that never worsens the solution.
fn improve_cycle(
    cycle: &Cycle,
    messages: &[(NodeId, NodeId)],
    dist: &impl Fn(NodeId, NodeId) -> f64,
    l_max: f64,
) -> Result<(Cycle, f64), ClusterError> {
    // Score: the same laser-power proxy the L_max search uses —
    // congestion × 10^(longest/10) — then longest, then total path
    // length. Moves may trade a slightly longer worst path (still within
    // L_max) for materially lower congestion.
    let score = |order: &[NodeId]| -> Option<(f64, f64, f64)> {
        let c = Cycle::new(order.to_vec()).ok()?;
        let (oriented, longest) = best_orientation(&c, messages, dist);
        let mut total = 0.0f64;
        let mut load = vec![0usize; oriented.len()];
        let mut congestion = 0usize;
        for (s, d) in messages {
            if !(oriented.contains(*s) && oriented.contains(*d)) {
                continue;
            }
            total += oriented.path_length(*s, *d, dist)?;
            for seg in oriented.path_segments(*s, *d)?.iter() {
                load[seg] += 1;
                congestion = congestion.max(load[seg]);
            }
        }
        let proxy = congestion.max(1) as f64 * 10f64.powf(longest / 10.0);
        Some((proxy, longest, total))
    };
    let better = |a: (f64, f64, f64), b: (f64, f64, f64)| {
        // A move must keep the L_max bound (or strictly shrink an already
        // violating longest path, for the unrestricted fallback).
        if a.1 > l_max + 1e-12 && a.1 >= b.1 - 1e-12 {
            return false;
        }
        a.0 < b.0 - 1e-12
            || ((a.0 - b.0).abs() <= 1e-12
                && (a.1 < b.1 - 1e-12 || ((a.1 - b.1).abs() <= 1e-12 && a.2 < b.2 - 1e-12)))
    };

    let mut order = cycle.nodes().to_vec();
    let n = order.len();
    let mut current = score(&order).ok_or(ClusterError::InvalidCycle(
        "refinement input cycle is not scorable",
    ))?;
    if n >= 4 {
        let mut improved = true;
        // onoc-lint: allow(L9, reason = "terminates: each pass strictly improves a totally-ordered score over a finite permutation set; callers bound the ring size")
        while improved {
            improved = false;
            for i in 0..n {
                for j in 0..n {
                    if j == i {
                        continue;
                    }
                    let node = order[i];
                    let mut trial = order.clone();
                    trial.remove(i);
                    trial.insert(if j > i { j - 1 } else { j }, node);
                    if let Some(s) = score(&trial) {
                        if better(s, current) {
                            order = trial;
                            current = s;
                            improved = true;
                        }
                    }
                }
            }
            for i in 0..n - 1 {
                for j in i + 1..n {
                    let mut trial = order.clone();
                    trial[i..=j].reverse();
                    if let Some(s) = score(&trial) {
                        if better(s, current) {
                            order = trial;
                            current = s;
                            improved = true;
                        }
                    }
                }
            }
        }
    }
    let refined = Cycle::new(order)
        .map_err(|_| ClusterError::InvalidCycle("refined order is not a permutation"))?;
    let (oriented, longest) = best_orientation(&refined, messages, dist);
    Ok((oriented, longest))
}

/// Longest directed signal path over `messages` on `cycle`, evaluated in
/// the better of the two transmission directions. Returns the achieving
/// orientation together with its longest path.
fn best_orientation(
    cycle: &Cycle,
    messages: &[(NodeId, NodeId)],
    dist: &impl Fn(NodeId, NodeId) -> f64,
) -> (Cycle, f64) {
    let fwd = longest_on(cycle, messages, dist);
    let rev_cycle = cycle.reversed();
    let rev = longest_on(&rev_cycle, messages, dist);
    if rev < fwd - 1e-12 {
        (rev_cycle, rev)
    } else {
        (cycle.clone(), fwd)
    }
}

fn longest_on(
    cycle: &Cycle,
    messages: &[(NodeId, NodeId)],
    dist: &impl Fn(NodeId, NodeId) -> f64,
) -> f64 {
    messages
        .iter()
        .filter(|(s, d)| cycle.contains(*s) && cycle.contains(*d))
        // The filter guarantees both endpoints are on the cycle; should
        // that invariant ever break, an infinite length invalidates the
        // candidate instead of panicking.
        .map(|(s, d)| cycle.path_length(*s, *d, dist).unwrap_or(f64::INFINITY))
        .fold(0.0, f64::max)
}

/// Grows one intra-cluster sub-ring from `initial` (paper Sec. III-A-1).
/// Returns `None` only when `initial` cannot even form the two-node initial
/// cluster within `l_max`; a vertex with no unclustered communication
/// partner yields a singleton.
fn grow_intra(
    graph: &CommGraph,
    initial: NodeId,
    unclustered: &BTreeSet<NodeId>,
    l_max: f64,
    size_cap: usize,
) -> Result<Option<GrownCluster>, ClusterError> {
    let dist = |a: NodeId, b: NodeId| graph.manhattan(a, b).0;

    // Initial cluster: the nearest unclustered communication partner.
    let nearest = graph
        .neighbors(initial)
        .iter()
        .copied()
        .filter(|w| unclustered.contains(w))
        .min_by(|&a, &b| {
            dist(initial, a)
                .total_cmp(&dist(initial, b))
                .then(a.cmp(&b))
        });
    let Some(first) = nearest else {
        return Ok(Some(GrownCluster {
            members: vec![initial],
            ring: None,
            longest: 0.0,
        }));
    };
    if dist(initial, first) > l_max {
        return Ok(None);
    }

    let mut members = vec![initial, first];
    let mut member_set: BTreeSet<NodeId> = members.iter().copied().collect();
    let mut cycle = Cycle::new(members.clone())
        .map_err(|_| ClusterError::InvalidCycle("initial pair does not form a cycle"))?;
    let intra_messages = |set: &BTreeSet<NodeId>| -> Vec<(NodeId, NodeId)> {
        graph
            .messages()
            .iter()
            .filter(|m| set.contains(&m.src) && set.contains(&m.dst))
            .map(|m| (m.src, m.dst))
            .collect()
    };
    let mut longest = {
        let msgs = intra_messages(&member_set);
        best_orientation(&cycle, &msgs, &dist).1
    };

    // onoc-lint: allow(L9, reason = "bounded: every round absorbs one node or breaks on an empty candidate set, capped at size_cap")
    while members.len() < size_cap {
        // Candidates: unvisited communication partners of any member.
        let candidates: BTreeSet<NodeId> = members
            .iter()
            .flat_map(|&m| graph.neighbors(m).iter().copied())
            .filter(|w| unclustered.contains(w) && !member_set.contains(w))
            .collect();
        if candidates.is_empty() {
            break;
        }
        // Absorb the valid candidate whose best insertion point yields the
        // smallest longest signal path; ties go to the candidate with the
        // most messages into the cluster (communication affinity), which
        // keeps subsystems together.
        let affinity = |x: NodeId, member_set: &BTreeSet<NodeId>| -> usize {
            graph
                .messages()
                .iter()
                .filter(|m| {
                    (m.src == x && member_set.contains(&m.dst))
                        || (m.dst == x && member_set.contains(&m.src))
                })
                .count()
        };
        let mut best: Option<(f64, usize, NodeId, Cycle)> = None;
        for &x in &candidates {
            let aff = affinity(x, &member_set);
            let mut trial_set = member_set.clone();
            trial_set.insert(x);
            let msgs = intra_messages(&trial_set);
            for seg in candidate_segments(&cycle, x, &dist, 8) {
                let inserted = cycle
                    .insert_at(seg, x)
                    .map_err(|_| ClusterError::InvalidCycle("absorbed node already on ring"))?;
                let (oriented, l) = best_orientation(&inserted, &msgs, &dist);
                if l <= l_max + 1e-12 {
                    let better = match &best {
                        None => true,
                        Some((bl, ba, bx, _)) => {
                            l < *bl - 1e-12
                                || ((l - *bl).abs() <= 1e-12
                                    && (aff > *ba || (aff == *ba && x < *bx)))
                        }
                    };
                    if better {
                        best = Some((l, aff, x, oriented));
                    }
                }
            }
        }
        match best {
            Some((l, _, x, new_cycle)) => {
                members.push(x);
                member_set.insert(x);
                cycle = new_cycle;
                longest = l;
            }
            None => break,
        }
    }

    Ok(Some(GrownCluster {
        members,
        ring: Some(cycle),
        longest,
    }))
}

/// Grows the inter-cluster sub-ring from `initial`: it must absorb *all*
/// of `v_inter` while keeping every cross-cluster signal path within
/// `l_max` (paper Sec. III-A-2).
fn grow_inter(
    initial: NodeId,
    v_inter: &[NodeId],
    inter_messages: &[(NodeId, NodeId)],
    l_max: f64,
    dist: &impl Fn(NodeId, NodeId) -> f64,
) -> Result<Option<(Cycle, f64)>, ClusterError> {
    let Some(nearest) = v_inter
        .iter()
        .copied()
        .filter(|&v| v != initial)
        .min_by(|&a, &b| {
            dist(initial, a)
                .total_cmp(&dist(initial, b))
                .then(a.cmp(&b))
        })
    else {
        return Ok(None);
    };
    let mut cycle = Cycle::new(vec![initial, nearest])
        .map_err(|_| ClusterError::InvalidCycle("initial pair does not form a cycle"))?;
    let mut remaining: BTreeSet<NodeId> = v_inter
        .iter()
        .copied()
        .filter(|&v| v != initial && v != nearest)
        .collect();
    let mut longest = best_orientation(&cycle, inter_messages, dist).1;
    if longest > l_max + 1e-12 {
        return Ok(None);
    }

    // onoc-lint: allow(L9, reason = "bounded: every round inserts one remaining node onto the ring or returns infeasible")
    while !remaining.is_empty() {
        let mut best: Option<(f64, NodeId, Cycle)> = None;
        for &x in &remaining {
            for seg in candidate_segments(&cycle, x, dist, 8) {
                let inserted = cycle
                    .insert_at(seg, x)
                    .map_err(|_| ClusterError::InvalidCycle("absorbed node already on ring"))?;
                let (oriented, l) = best_orientation(&inserted, inter_messages, dist);
                if l <= l_max + 1e-12 {
                    let better = match &best {
                        None => true,
                        Some((bl, bx, _)) => {
                            l < *bl - 1e-12 || ((l - *bl).abs() <= 1e-12 && x < *bx)
                        }
                    };
                    if better {
                        best = Some((l, x, oriented));
                    }
                }
            }
        }
        let Some((l, x, new_cycle)) = best else {
            return Ok(None);
        };
        remaining.remove(&x);
        cycle = new_cycle;
        longest = l;
    }
    if longest > l_max + 1e-12 {
        return Ok(None);
    }
    Ok(Some((cycle, longest)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoc_graph::benchmarks;
    use std::sync::OnceLock;

    fn config() -> ClusteringConfig {
        ClusteringConfig::default()
    }

    /// One clustering run per benchmark, shared across the tests below.
    fn clustered() -> &'static Vec<(benchmarks::Benchmark, Clustering)> {
        static CACHE: OnceLock<Vec<(benchmarks::Benchmark, Clustering)>> = OnceLock::new();
        CACHE.get_or_init(|| {
            benchmarks::Benchmark::ALL
                .into_iter()
                .map(|b| (b, cluster(&b.graph(), &config()).expect("clusters")))
                .collect()
        })
    }

    #[test]
    fn candidate_segments_ranks_nan_detours_last_and_deterministically() {
        // Regression for the onoc-lint L2 bug class: the detour sort uses
        // `total_cmp`, so a NaN distance (e.g. a poisoned coordinate)
        // ranks after every finite detour instead of comparing Equal to
        // everything and shuffling the candidate order.
        let cycle = onoc_layout::Cycle::new(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)])
            .expect("4-cycle");
        let dist = |a: NodeId, b: NodeId| {
            if a == NodeId(3) || b == NodeId(3) {
                f64::NAN
            } else {
                (a.index() as f64 - b.index() as f64).abs()
            }
        };
        let first = candidate_segments(&cycle, NodeId(9), &dist, 2);
        assert_eq!(first, candidate_segments(&cycle, NodeId(9), &dist, 2));
        assert_eq!(first.len(), 2);
        for &i in &first {
            let (a, b) = cycle.segment(i);
            assert!(
                a != NodeId(3) && b != NodeId(3),
                "NaN detours must never outrank finite ones"
            );
        }
    }

    #[test]
    fn empty_application_rejected() {
        let g = CommGraph::builder()
            .node("a", onoc_graph::Point::new(0.0, 0.0))
            .build()
            .unwrap();
        assert_eq!(cluster(&g, &config()), Err(ClusterError::NoMessages));
    }

    #[test]
    fn two_node_application() {
        let g = CommGraph::builder()
            .node("a", onoc_graph::Point::new(0.0, 0.0))
            .node("b", onoc_graph::Point::new(1.0, 0.0))
            .message(NodeId(0), NodeId(1))
            .build()
            .unwrap();
        let c = cluster(&g, &config()).unwrap();
        assert_eq!(c.clusters.len(), 1);
        assert!(c.inter_ring.is_none());
        assert_eq!(c.longest_path, Millimeters(1.0));
        assert!(c.same_cluster(NodeId(0), NodeId(1)));
        assert_eq!(c.sub_ring_count(), 1);
    }

    #[test]
    fn every_node_is_clustered_exactly_once() {
        for (b, c) in clustered() {
            let g = b.graph();
            let mut seen = BTreeSet::new();
            for cl in &c.clusters {
                for &m in &cl.members {
                    assert!(seen.insert(m), "{b}: node {m} in two clusters");
                }
            }
            assert_eq!(seen.len(), g.node_count(), "{b}: all nodes clustered");
            for v in g.node_ids() {
                assert!(c.cluster_of[v.index()] < c.clusters.len());
            }
        }
    }

    #[test]
    fn cluster_rings_contain_exactly_their_members() {
        for (_b, c) in clustered() {
            for cl in &c.clusters {
                match &cl.ring {
                    Some(ring) => {
                        assert_eq!(ring.len(), cl.members.len());
                        for &m in &cl.members {
                            assert!(ring.contains(m));
                        }
                    }
                    None => assert_eq!(cl.members.len(), 1),
                }
            }
        }
    }

    #[test]
    fn inter_ring_covers_all_cross_cluster_nodes() {
        for (b, c) in clustered() {
            let g = b.graph();
            let crossing: BTreeSet<NodeId> = g
                .messages()
                .iter()
                .filter(|m| !c.same_cluster(m.src, m.dst))
                .flat_map(|m| [m.src, m.dst])
                .collect();
            match &c.inter_ring {
                Some(ring) => {
                    for v in crossing {
                        assert!(ring.contains(v), "{b}: inter ring misses {v}");
                    }
                }
                None => assert!(crossing.is_empty(), "{b}: crossing messages need a ring"),
            }
        }
    }

    #[test]
    fn longest_path_within_l_max() {
        for (b, c) in clustered() {
            assert!(
                c.longest_path.0 <= c.l_max.0 + 1e-9,
                "{b}: longest {} exceeds L_max {}",
                c.longest_path,
                c.l_max
            );
        }
    }

    #[test]
    fn l_max_bounds_are_respected() {
        for (b, c) in clustered() {
            let g = b.graph();
            let d1 = g.max_communicating_distance();
            let d2 = conventional_upper_bound(&g);
            assert!(d1.0 <= d2.0 + 1e-9, "{b}: d1 ≤ d2");
            assert!(c.l_max.0 >= d1.0 - 1e-9, "{b}: L_max ≥ d1");
        }
    }

    #[test]
    fn sub_rings_shorten_the_worst_path() {
        // The headline effect: for MWD, clustering beats the conventional
        // ring on the worst signal path (paper: 0.4 mm vs 1.8 mm for ORNoC).
        let g = benchmarks::mwd();
        let c = cluster(&g, &config()).unwrap();
        let conventional = conventional_upper_bound(&g);
        assert!(
            c.longest_path.0 < conventional.0,
            "clustered {} should beat conventional {}",
            c.longest_path,
            conventional
        );
    }

    #[test]
    fn dsp_example_forms_clusters() {
        let g = benchmarks::dsp_example();
        let c = cluster(&g, &config()).unwrap();
        assert!(c.sub_ring_count() >= 1);
        assert!(c.longest_path.0 <= c.l_max.0 + 1e-9);
    }

    mod properties {
        use super::*;
        use onoc_graph::synth;
        use onoc_units::Millimeters;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            #[test]
            fn prop_random_apps_cluster_validly(
                nodes in 4usize..10,
                extra in 0usize..12,
                seed in 0u64..1000,
            ) {
                let messages = (nodes - 1).min(nodes * (nodes - 1)) + extra.min(nodes);
                let messages = messages.min(nodes * (nodes - 1));
                let app = synth::random_app(nodes, messages, seed, Millimeters(0.3));
                let c = cluster(&app, &ClusteringConfig { tree_height: 3 }).unwrap();
                // Partition property.
                let mut seen = BTreeSet::new();
                for cl in &c.clusters {
                    for &m in &cl.members {
                        prop_assert!(seen.insert(m));
                    }
                }
                prop_assert_eq!(seen.len(), app.node_count());
                // Every message is servable: same cluster with a ring, or
                // both endpoints on the inter ring.
                for m in app.messages() {
                    if c.same_cluster(m.src, m.dst) {
                        let cl = &c.clusters[c.cluster_of[m.src.index()]];
                        prop_assert!(cl.ring.is_some());
                    } else {
                        let ring = c.inter_ring.as_ref().expect("inter ring exists");
                        prop_assert!(ring.contains(m.src) && ring.contains(m.dst));
                    }
                }
                // The realized longest path respects both the accepted
                // L_max and the universal one-way upper bound.
                prop_assert!(c.longest_path.0 <= c.l_max.0 + 1e-9);
                prop_assert!(c.longest_path.0 <= one_way_upper_bound(&app).0 + 1e-9);
            }

            #[test]
            fn prop_pipelines_cluster_without_inter_traffic_explosion(
                stages in 4usize..14,
            ) {
                let app = synth::pipeline(stages, Millimeters(0.3));
                let c = cluster(&app, &ClusteringConfig::default()).unwrap();
                // A pipeline is one connected communication component; the
                // congestion of the solution can never exceed the message
                // count and must be at least 1.
                let congestion = c.max_channel_congestion(&app);
                prop_assert!(congestion >= 1);
                prop_assert!(congestion <= app.message_count());
            }
        }
    }

    #[test]
    fn higher_tree_resolution_never_worsens_l_max() {
        let g = benchmarks::vopd();
        let coarse = cluster(&g, &ClusteringConfig { tree_height: 3 }).unwrap();
        let fine = cluster(&g, &ClusteringConfig { tree_height: 8 }).unwrap();
        assert!(fine.l_max.0 <= coarse.l_max.0 + 1e-9);
    }
}
