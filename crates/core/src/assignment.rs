//! Wavelength assignment: the paper's MILP model (Eqs. 1–8) plus a greedy
//! heuristic used for warm starts and for large instances.
//!
//! For every signal path exactly one wavelength is chosen (Eq. 1) such that
//! overlapping paths never share a wavelength (Eq. 2). A node whose intra-
//! and inter-cluster senders share any wavelength needs a PDN splitter
//! (Eq. 4), which adds `L_sp` to its paths' insertion losses (Eq. 5). The
//! objective (Eq. 8) jointly minimizes wavelength usage `i_wl` (Eq. 3), the
//! worst-case insertion loss `il^Smax` (Eq. 6) and the sum of per-
//! wavelength worst-case losses `Σ il_λ^max` (Eq. 7) with weights
//! `α = β = γ = 1`.

use milp_solver::{
    Model, ModelError, Sense, SolveOptions as MilpSolveOptions, SolveStats, Status, VarType,
};
use onoc_ctx::{DeadlineExceeded, ExecCtx};
use onoc_graph::NodeId;
use onoc_trace::Trace;
use onoc_units::{Decibels, Wavelength};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::Duration;

/// Marks a path that has no wavelength yet in a partial assignment; the
/// Eq. 8 evaluator and the splitter rule skip such entries.
const UNASSIGNED: Wavelength = Wavelength(usize::MAX);

/// One signal path as seen by the wavelength assigner.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignPath {
    /// The sending node (owner of the sender whose splitter is at stake).
    pub src: NodeId,
    /// `true` if the path rides the inter-cluster sub-ring, `false` for an
    /// intra-cluster path. Determines which of the paper's `S_intra`/`S_inter`
    /// sets the path belongs to.
    pub is_inter: bool,
    /// The path's insertion loss `L_s` excluding PDN and splitters.
    pub loss: Decibels,
    /// The waveguide channels `(ring, segment)` the path occupies; two
    /// paths sharing any channel conflict.
    pub channels: Vec<(usize, usize)>,
}

/// A wavelength-assignment instance: the paths plus the derived conflict
/// relation.
#[derive(Debug, Clone)]
pub struct AssignmentProblem {
    node_count: usize,
    paths: Vec<AssignPath>,
    conflicts: Vec<Vec<usize>>,
    splitter_loss: Decibels,
}

impl AssignmentProblem {
    /// Builds the instance and computes pairwise conflicts (shared
    /// channels, the paper's `S_conflict` sets).
    #[must_use]
    pub fn new(node_count: usize, paths: Vec<AssignPath>, splitter_loss: Decibels) -> Self {
        let n = paths.len();
        let mut conflicts = vec![Vec::new(); n];
        for i in 0..n {
            let set_i: BTreeSet<_> = paths[i].channels.iter().copied().collect();
            for j in i + 1..n {
                if paths[j].channels.iter().any(|c| set_i.contains(c)) {
                    conflicts[i].push(j);
                    conflicts[j].push(i);
                }
            }
        }
        AssignmentProblem {
            node_count,
            paths,
            conflicts,
            splitter_loss,
        }
    }

    /// The paths of the instance.
    #[must_use]
    pub fn paths(&self) -> &[AssignPath] {
        &self.paths
    }

    /// The conflict partners of path `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn conflicts_of(&self, i: usize) -> &[usize] {
        &self.conflicts[i]
    }

    /// Evaluates the paper's Eq. 8 objective (α = β = γ = 1) for a
    /// wavelength vector. Entries equal to `Wavelength(usize::MAX)` count
    /// as unassigned and are left out, so a partial vector scores as the
    /// sub-problem of its assigned paths.
    ///
    /// # Panics
    ///
    /// Panics if `wavelengths.len()` differs from the path count.
    #[must_use]
    pub fn objective(&self, wavelengths: &[Wavelength]) -> f64 {
        let (count, il_smax, sum_il_max) = self.eq8_terms(wavelengths);
        count as f64 + il_smax + sum_il_max
    }

    /// The three Eq. 8 terms over the assigned entries: wavelength count
    /// `i_wl`, worst-case loss `il^Smax` and `Σ_λ il_λ^max`, splitter
    /// penalties included. Both maxima fold in ascending path order and
    /// the sum runs over the used wavelengths in ascending order, so every
    /// caller sees the same `f64` for the same vector.
    fn eq8_terms(&self, wavelengths: &[Wavelength]) -> (usize, f64, f64) {
        let splitters = self.node_splitters(wavelengths);
        let n = wavelengths.len();
        let il = |i: usize| {
            self.paths[i].loss.0
                + if splitters[self.paths[i].src.index()] {
                    self.splitter_loss.0
                } else {
                    0.0
                }
        };
        let used: BTreeSet<Wavelength> = wavelengths
            .iter()
            .copied()
            .filter(|&w| w != UNASSIGNED)
            .collect();
        let il_smax = (0..n)
            .filter(|&i| wavelengths[i] != UNASSIGNED)
            .map(il)
            .fold(0.0, f64::max);
        let sum_il_max = used
            .iter()
            .map(|&w| {
                (0..n)
                    .filter(|&i| wavelengths[i] == w)
                    .map(il)
                    .fold(0.0, f64::max)
            })
            .sum();
        (used.len(), il_smax, sum_il_max)
    }

    /// Derives the node-splitter flags `b_sp` (Eq. 4) implied by a
    /// wavelength vector: a node needs a splitter iff one of its intra
    /// paths and one of its inter paths share a wavelength. Unassigned
    /// entries (`Wavelength(usize::MAX)`) share nothing.
    ///
    /// # Panics
    ///
    /// Panics if `wavelengths.len()` differs from the path count.
    #[must_use]
    pub fn node_splitters(&self, wavelengths: &[Wavelength]) -> Vec<bool> {
        assert_eq!(wavelengths.len(), self.paths.len());
        let mut flags = vec![false; self.node_count];
        for i in 0..self.paths.len() {
            if !self.paths[i].is_inter || wavelengths[i] == UNASSIGNED {
                continue;
            }
            for j in 0..self.paths.len() {
                if i != j
                    && !self.paths[j].is_inter
                    && self.paths[i].src == self.paths[j].src
                    && wavelengths[i] == wavelengths[j]
                {
                    flags[self.paths[i].src.index()] = true;
                }
            }
        }
        flags
    }

    /// Checks Eq. 2: no two conflicting paths share a wavelength.
    #[must_use]
    pub fn is_collision_free(&self, wavelengths: &[Wavelength]) -> bool {
        if wavelengths.len() != self.paths.len() {
            return false;
        }
        for i in 0..self.paths.len() {
            for &j in &self.conflicts[i] {
                if wavelengths[i] == wavelengths[j] {
                    return false;
                }
            }
        }
        true
    }
}

/// How to solve the assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum AssignmentStrategy {
    /// Greedy construction plus local search only.
    Heuristic,
    /// Full MILP (Eqs. 1–8) warm-started by the heuristic, with limits.
    Milp(MilpOptions),
    /// MILP for instances up to `milp_max_paths` paths, heuristic beyond.
    Auto {
        /// Largest instance (in paths) still sent to the MILP.
        milp_max_paths: usize,
        /// MILP limits when used.
        options: MilpOptions,
    },
}

impl Default for AssignmentStrategy {
    fn default() -> Self {
        AssignmentStrategy::Auto {
            milp_max_paths: 30,
            options: MilpOptions::default(),
        }
    }
}

/// Limits for the MILP run.
#[derive(Debug, Clone, PartialEq)]
pub struct MilpOptions {
    /// Wall-clock budget for the branch-and-bound search.
    pub time_limit: Duration,
    /// Extra wavelengths offered beyond the heuristic's count: the MILP may
    /// *increase* wavelength usage to remove splitters (the trade-off the
    /// paper highlights for MPEG/8PM-44).
    pub pool_slack: usize,
    /// Node budget for the branch-and-bound search.
    pub node_limit: usize,
    /// Worker threads for the branch-and-bound search (`1` = serial,
    /// `0` = one per available core). The parallel search is work-sharing
    /// with a deterministic node ordering, so the reported objective does
    /// not depend on the thread count.
    pub threads: usize,
    /// Inherit each parent node's optimal basis and re-optimize children
    /// with the dual simplex (on by default). `false` forces cold-start
    /// two-phase primal solves at every node — useful only as a baseline
    /// when benchmarking.
    pub warm_basis: bool,
    /// Run the solver's conservative presolve reductions (singleton rows,
    /// forcing rows, integer bound rounding, fixed/dominated column
    /// elimination) before the tree search (on by default). `false` feeds
    /// the model to branch and bound untouched — useful as an ablation
    /// baseline; both settings reach the same optimum.
    pub presolve: bool,
}

impl Default for MilpOptions {
    fn default() -> Self {
        MilpOptions {
            time_limit: Duration::from_secs(3),
            pool_slack: 3,
            node_limit: 20_000,
            threads: 1,
            warm_basis: true,
            presolve: true,
        }
    }
}

/// The assignment outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Chosen wavelength per path (indexed like the problem's paths).
    pub wavelengths: Vec<Wavelength>,
    /// Node-splitter flags `b_sp` per node.
    pub node_splitter: Vec<bool>,
    /// Number of wavelengths used (`i_wl`).
    pub wavelength_count: usize,
    /// Eq. 8 objective value achieved.
    pub objective: f64,
    /// `true` when the MILP proved optimality; `false` for heuristic or
    /// limit-terminated results.
    pub proven_optimal: bool,
    /// Branch-and-bound counters from the MILP run (`None` when the
    /// heuristic alone produced this assignment). Present even when the
    /// heuristic outscored the MILP: the stats describe the solver work
    /// that was actually performed.
    pub solver_stats: Option<SolveStats>,
}

/// Error from [`assign`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AssignError {
    /// The instance has no paths.
    Empty,
    /// The MILP solver failed in an unexpected way.
    Solver(ModelError),
    /// The execution deadline expired mid-assignment.
    Deadline(DeadlineExceeded),
}

impl fmt::Display for AssignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignError::Empty => write!(f, "assignment instance has no paths"),
            AssignError::Solver(e) => write!(f, "MILP solver failed: {e}"),
            AssignError::Deadline(e) => write!(f, "assignment {e}"),
        }
    }
}

impl std::error::Error for AssignError {}

impl From<DeadlineExceeded> for AssignError {
    fn from(e: DeadlineExceeded) -> Self {
        AssignError::Deadline(e)
    }
}

/// Solves the wavelength assignment with the chosen strategy.
///
/// # Errors
///
/// Returns [`AssignError::Empty`] for an instance without paths, or
/// [`AssignError::Solver`] if the MILP fails even though the heuristic
/// warm start was feasible (which should not happen).
pub fn assign(
    problem: &AssignmentProblem,
    strategy: &AssignmentStrategy,
) -> Result<Assignment, AssignError> {
    assign_ctx(problem, strategy, &ExecCtx::default())
}

/// [`assign`] through an explicit execution context: the heuristic and the
/// MILP run under spans of the context's trace, the solver's
/// [`SolveStats`] are folded in as `milp/*` phases, counters and gauges,
/// and a context deadline clamps the MILP wall-clock budget to the time
/// remaining.
///
/// # Errors
///
/// Same contract as [`assign`].
pub fn assign_ctx(
    problem: &AssignmentProblem,
    strategy: &AssignmentStrategy,
    ctx: &ExecCtx,
) -> Result<Assignment, AssignError> {
    let trace = ctx.trace();
    if problem.paths.is_empty() {
        return Err(AssignError::Empty);
    }
    let heuristic = {
        let _span = trace.span("heuristic");
        heuristic_assignment(problem, ctx)?
    };
    let use_milp = match strategy {
        AssignmentStrategy::Heuristic => None,
        AssignmentStrategy::Milp(opts) => Some(opts),
        AssignmentStrategy::Auto {
            milp_max_paths,
            options,
        } => (problem.paths.len() <= *milp_max_paths).then_some(options),
    };
    match use_milp {
        None => Ok(finish(problem, heuristic, false, None)),
        Some(opts) => {
            // A context deadline caps the solver budget at what is left.
            let clamped;
            let opts = match ctx.remaining() {
                Some(remaining) if remaining < opts.time_limit => {
                    clamped = MilpOptions {
                        time_limit: remaining,
                        ..opts.clone()
                    };
                    &clamped
                }
                _ => opts,
            };
            let (wavelengths, optimal, stats) = {
                let _span = trace.span("milp");
                milp_assignment(problem, &heuristic, opts).map_err(AssignError::Solver)?
            };
            record_solver_stats(trace, &stats);
            // Keep whichever of heuristic/MILP scores better (the MILP
            // explores a bounded pool, so the heuristic can in corner cases
            // win).
            if problem.objective(&wavelengths) <= problem.objective(&heuristic) + 1e-9 {
                Ok(finish(problem, wavelengths, optimal, Some(stats)))
            } else {
                Ok(finish(problem, heuristic, false, Some(stats)))
            }
        }
    }
}

/// Folds one MILP solve's counters and phase timers into the trace. The
/// phase paths resolve under the calling thread's open span, so in the
/// full pipeline they land at `synth/assign/milp/...`, right under the
/// span that timed the solve; the counters and gauges are flat
/// (`milp/...`) and additive across repeated solves.
fn record_solver_stats(trace: &Trace, stats: &SolveStats) {
    if !trace.is_enabled() {
        return;
    }
    trace.add_time("milp/presolve", stats.presolve_time, 1);
    trace.add_time(
        "milp/lp/dual",
        stats.time_in_dual,
        stats.warm_start_hits as u64,
    );
    trace.add_time(
        "milp/lp/primal",
        stats.time_in_primal,
        (stats.lp_solves - stats.warm_start_hits) as u64,
    );
    trace.add_time("milp/branching", stats.branching_time(), 1);
    trace.incr("milp/nodes_explored", stats.nodes_explored as u64);
    trace.incr("milp/lp_solves", stats.lp_solves as u64);
    trace.incr("milp/primal_pivots", stats.primal_pivots as u64);
    trace.incr("milp/dual_pivots", stats.dual_pivots as u64);
    trace.incr("milp/phase1_solves", stats.phase1_solves as u64);
    trace.incr("milp/warm_start_attempts", stats.warm_start_attempts as u64);
    trace.incr("milp/warm_start_hits", stats.warm_start_hits as u64);
    trace.incr("milp/refactorizations", stats.refactorizations as u64);
    trace.incr("milp/eta_updates", stats.eta_updates as u64);
    trace.incr(
        "milp/presolve_cols_removed",
        stats.presolve_cols_removed as u64,
    );
    for (depth, &count) in stats.nodes_by_depth.iter().enumerate() {
        if count > 0 {
            trace.incr(&format!("milp/nodes_at_depth/{depth:02}"), count as u64);
        }
    }
    trace.gauge("milp/warm_hit_rate", stats.warm_hit_rate());
    trace.gauge("milp/max_eta_chain", stats.max_eta_chain as f64);
    trace.gauge("milp/max_fill_in", stats.max_fill_in as f64);
}

fn finish(
    problem: &AssignmentProblem,
    wavelengths: Vec<Wavelength>,
    optimal: bool,
    solver_stats: Option<SolveStats>,
) -> Assignment {
    let wavelengths = canonicalize(&wavelengths);
    let node_splitter = problem.node_splitters(&wavelengths);
    let used: BTreeSet<_> = wavelengths.iter().copied().collect();
    Assignment {
        objective: problem.objective(&wavelengths),
        wavelength_count: used.len(),
        node_splitter,
        wavelengths,
        proven_optimal: optimal,
        solver_stats,
    }
}

/// Relabels wavelengths in first-use order (path 0's wavelength becomes
/// λ₀, the next new one λ₁, …) — the canonical form assumed by the MILP's
/// symmetry-breaking constraints.
#[must_use]
pub fn canonicalize(wavelengths: &[Wavelength]) -> Vec<Wavelength> {
    let mut map: Vec<(Wavelength, Wavelength)> = Vec::new();
    let mut out = Vec::with_capacity(wavelengths.len());
    for &w in wavelengths {
        let relabeled = match map.iter().find(|(old, _)| *old == w) {
            Some((_, new)) => *new,
            None => {
                let new = Wavelength(map.len());
                map.push((w, new));
                new
            }
        };
        out.push(relabeled);
    }
    out
}

/// Greedy construction + steepest-descent local search on the exact Eq. 8
/// objective. The local search checks the deadline once per descent
/// step; construction itself is a single bounded pass.
fn heuristic_assignment(
    problem: &AssignmentProblem,
    ctx: &ExecCtx,
) -> Result<Vec<Wavelength>, DeadlineExceeded> {
    let n = problem.paths.len();
    // Order: highest conflict degree first, then highest loss.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        problem.conflicts[b]
            .len()
            .cmp(&problem.conflicts[a].len())
            .then(problem.paths[b].loss.total_cmp(&problem.paths[a].loss))
            .then(a.cmp(&b))
    });

    let mut assignment = vec![UNASSIGNED; n];
    let mut max_used = 0usize;
    for &p in &order {
        // Candidate wavelengths: every used one plus one fresh.
        let mut best: Option<(f64, Wavelength)> = None;
        for w in 0..=max_used {
            let w = Wavelength(w);
            let clash = problem.conflicts[p].iter().any(|&q| assignment[q] == w);
            if clash {
                continue;
            }
            assignment[p] = w;
            let score = problem.objective(&assignment);
            assignment[p] = UNASSIGNED;
            let better = match best {
                None => true,
                Some((bs, _)) => score < bs - 1e-12,
            };
            if better {
                best = Some((score, w));
            }
        }
        let (_, w) = best.expect("a fresh wavelength never clashes");
        assignment[p] = w;
        max_used = max_used.max(w.index() + 1);
    }

    // Local search: steepest single-path recolor until no improvement.
    let mut current = problem.objective(&assignment);
    loop {
        // Each descent step scans every (path, wavelength) move — the
        // expensive unit worth a budget check.
        ctx.check_deadline()?;
        let mut best_move: Option<(f64, usize, Wavelength)> = None;
        let used: BTreeSet<Wavelength> = assignment.iter().copied().collect();
        let fresh = Wavelength(used.iter().map(|w| w.index() + 1).max().unwrap_or(0));
        for p in 0..n {
            let original = assignment[p];
            for &w in used.iter().chain(std::iter::once(&fresh)) {
                if w == original {
                    continue;
                }
                if problem.conflicts[p].iter().any(|&q| assignment[q] == w) {
                    continue;
                }
                assignment[p] = w;
                let score = problem.objective(&assignment);
                assignment[p] = original;
                if score < current - 1e-9 {
                    let better = match best_move {
                        None => true,
                        Some((bs, _, _)) => score < bs - 1e-12,
                    };
                    if better {
                        best_move = Some((score, p, w));
                    }
                }
            }
        }
        match best_move {
            Some((score, p, w)) => {
                assignment[p] = w;
                current = score;
            }
            None => break,
        }
    }
    Ok(canonicalize(&assignment))
}

/// Exact guaranteed `Σ il_max` surplus over a clique's loss sum when the
/// wavelength count equals the clique size (the pigeonhole cut in
/// [`milp_assignment`]). With `wl_count = |C|` the clique members occupy
/// the used wavelengths bijectively, so every outside path is a "guest"
/// of exactly one non-conflicting member ("host"), co-located guests are
/// pairwise conflict-free, and a wavelength's `il_max` is the loss
/// maximum over its host and guests. The minimum total surplus over all
/// such hostings lower-bounds every feasible integer point; a small
/// exhaustive search finds it exactly over the guests that can
/// contribute surplus at all (non-gainful guests never raise any
/// wavelength's maximum, and dropping a guest only lowers the minimum,
/// so truncating the guest list keeps the bound valid). Returns `+∞`
/// when some outside path conflicts with every member — `wl_count = |C|`
/// is then itself infeasible.
fn pigeonhole_surplus(problem: &AssignmentProblem, set: &[usize]) -> f64 {
    let loss = |s: usize| problem.paths[s].loss.0;
    let conflict = |a: usize, b: usize| problem.conflicts[a].binary_search(&b).is_ok();
    // Guests that must pay a surplus at every compatible host.
    let mut guests: Vec<(f64, usize, Vec<usize>)> = Vec::new(); // (min gain, t, hosts)
    for t in 0..problem.paths.len() {
        if set.contains(&t) {
            continue;
        }
        let hosts: Vec<usize> = (0..set.len()).filter(|&i| !conflict(t, set[i])).collect();
        if hosts.is_empty() {
            return f64::INFINITY;
        }
        let min_gain = hosts
            .iter()
            .map(|&i| loss(t).max(loss(set[i])) - loss(set[i]))
            .fold(f64::INFINITY, f64::min);
        guests.push((min_gain, t, hosts));
    }
    if guests.is_empty() {
        return 0.0;
    }
    // Largest individual gains first: strongest pruning, and the order in
    // which truncation (the fallback below) keeps the most information.
    // Zero-gain guests still matter — co-location conflicts can force
    // them onto costly hosts — so they stay in the search, heaviest
    // first.
    guests.sort_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then_with(|| loss(b.1).total_cmp(&loss(a.1)))
            .then(a.1.cmp(&b.1))
    });

    // DFS over host assignments, tracking each host's guest-loss maximum.
    // The step budget bounds the exhaustive search; `None` means it was
    // exceeded and the caller must retry on a relaxed guest list.
    #[allow(clippy::too_many_arguments)] // recursion over the enclosing fn's locals
    fn dfs(
        problem: &AssignmentProblem,
        guests: &[(f64, usize, Vec<usize>)],
        k: usize,
        set: &[usize],
        occupants: &mut Vec<Vec<usize>>,
        loss: &dyn Fn(usize) -> f64,
        conflict: &dyn Fn(usize, usize) -> bool,
        total: f64,
        best: &mut f64,
        steps: &mut usize,
    ) -> Option<()> {
        if *steps == 0 {
            return None;
        }
        *steps -= 1;
        if total >= *best {
            return Some(());
        }
        let Some((_, t, hosts)) = guests.get(k) else {
            // Leaf: score the hosting exactly, splitter penalties
            // included — the splitterless running `total` is only the
            // optimistic bound used for pruning. Guests beyond a
            // truncated list stay unassigned, which can only lower the
            // score (fewer co-locations, fewer maxima), keeping the
            // minimum a valid bound.
            let mut assignment = vec![UNASSIGNED; problem.paths.len()];
            let mut base = 0.0;
            for (i, &c) in set.iter().enumerate() {
                assignment[c] = Wavelength(i);
                base += loss(c);
                for &g in &occupants[i] {
                    assignment[g] = Wavelength(i);
                }
            }
            let (_, _, sum_il_max) = problem.eq8_terms(&assignment);
            let surplus = sum_il_max - base;
            if surplus < *best {
                *best = surplus;
            }
            return Some(());
        };
        for &i in hosts {
            if occupants[i].iter().any(|&q| conflict(*t, q)) {
                continue;
            }
            let host_loss = loss(set[i]);
            let old = occupants[i]
                .iter()
                .map(|&q| loss(q))
                .fold(host_loss, f64::max);
            let delta = loss(*t).max(old) - old;
            occupants[i].push(*t);
            let r = dfs(
                problem,
                guests,
                k + 1,
                set,
                occupants,
                loss,
                conflict,
                total + delta,
                best,
                steps,
            );
            occupants[i].pop();
            r?;
        }
        Some(())
    }
    // Exhausting the step budget means the best-so-far is only an upper
    // bound on the hosting minimum — unusable. Dropping trailing guests
    // relaxes the problem (a smaller minimum, still valid), so retry on
    // ever-shorter prefixes until the search completes; the empty prefix
    // trivially does.
    let mut len = guests.len();
    // onoc-lint: allow(L9, reason = "bounded: each retry shortens the guest prefix and the empty prefix always completes; every attempt is capped by the DFS step budget")
    loop {
        let mut best = f64::INFINITY;
        let mut occupants = vec![Vec::new(); set.len()];
        let mut steps = 1_000_000usize;
        if dfs(
            problem,
            &guests[..len],
            0,
            set,
            &mut occupants,
            &loss,
            &conflict,
            0.0,
            &mut best,
            &mut steps,
        )
        .is_some()
        {
            // Every branch infeasible: the guests cannot be hosted at
            // all, so wl_count = |C| is infeasible outright.
            return best;
        }
        len = len.saturating_sub(2);
    }
}

/// Builds and solves the paper's MILP. Returns the wavelength vector,
/// whether optimality (over the offered pool) was proven, and the solver
/// statistics.
fn milp_assignment(
    problem: &AssignmentProblem,
    warm: &[Wavelength],
    opts: &MilpOptions,
) -> Result<(Vec<Wavelength>, bool, SolveStats), ModelError> {
    let n = problem.paths.len();
    let heuristic_wl = warm.iter().map(|w| w.index() + 1).max().unwrap_or(1);
    let pool = (heuristic_wl + opts.pool_slack).min(n.max(1));
    let l_sp = problem.splitter_loss.0;

    let mut m = Model::new();
    // b[s][λ] — Eq. 1 variables.
    let b: Vec<Vec<_>> = (0..n)
        .map(|s| {
            (0..pool)
                .map(|l| m.add_binary(format!("b_{s}_{l}")))
                .collect()
        })
        .collect();
    // u[λ] — wavelength-used indicators for Eq. 3.
    let u: Vec<_> = (0..pool).map(|l| m.add_binary(format!("u_{l}"))).collect();
    // b_sp[n] — Eq. 4 splitter indicators (only for nodes that send).
    let sender_nodes: BTreeSet<NodeId> = problem.paths.iter().map(|p| p.src).collect();
    let mut bsp = vec![None; problem.node_count];
    for &node in &sender_nodes {
        bsp[node.index()] = Some(m.add_binary(format!("bsp_{}", node.index())));
    }
    let il_smax = m.add_continuous("il_smax");
    let il_max: Vec<_> = (0..pool)
        .map(|l| m.add_continuous(format!("ilmax_{l}")))
        .collect();
    // Aggregate wavelength count, declared integer and tied to Σu below.
    // Redundant at integer points, but it hands branch and bound the one
    // dichotomy the b/u variables cannot express: a fractional LP count
    // of 6.4 wavelengths branches directly into Σu ≤ 6 vs Σu ≥ 7, which
    // is how the last sliver of the i_wl gap closes.
    let wl_count = m.add_var(VarType::Integer, 0.0, pool as f64, "wl_count")?;

    // Eq. 1: each path gets exactly one wavelength.
    for bs in &b {
        let sum: Vec<_> = bs.iter().map(|&v| (v, 1.0)).collect();
        m.add_constraint(sum, Sense::Eq, 1.0)?;
    }
    // Eq. 2 + Eq. 3, posted as channel cliques: all paths occupying one
    // waveguide channel mutually conflict (that is exactly how
    // `conflicts` is derived), so for every channel `c` and wavelength λ
    // the clique row Σ_{s∈c} b[s][λ] ≤ u[λ] is valid — and it both
    // implies every pairwise conflict constraint of Eq. 2 and dominates
    // the per-path u ≥ b linearization of Eq. 3 for the covered paths.
    // The aggregated form the paper writes is safe here precisely
    // because each set is a clique; the LP relaxation it induces is far
    // tighter than the pairwise one (a fractional spread over k
    // conflicting paths must still buy a full wavelength), which is what
    // lets branch and bound close VOPD/MPEG-sized trees.
    let mut cliques: Vec<Vec<usize>> = {
        let mut by_channel: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        for (s, p) in problem.paths.iter().enumerate() {
            for &c in &p.channels {
                by_channel.entry(c).or_default().push(s);
            }
        }
        let mut sets: Vec<Vec<usize>> = by_channel.into_values().collect();
        for set in &mut sets {
            set.dedup();
        }
        sets.sort();
        sets.dedup();
        sets
    };
    // Drop cliques contained in another (their rows are implied).
    cliques = {
        let all = cliques.clone();
        cliques
            .into_iter()
            .filter(|c| {
                !all.iter()
                    .any(|o| o.len() > c.len() && c.iter().all(|s| o.binary_search(s).is_ok()))
            })
            .collect()
    };
    let mut covered = vec![false; n];
    for clique in &cliques {
        for &s in clique {
            covered[s] = true;
        }
        for l in 0..pool {
            let mut row: Vec<_> = clique.iter().map(|&s| (b[s][l], 1.0)).collect();
            row.push((u[l], -1.0));
            m.add_constraint(row, Sense::Le, 0.0)?;
        }
    }
    // Paths in no clique still need the plain Eq. 3 rows u[λ] ≥ b[s][λ].
    for (s, bs) in b.iter().enumerate() {
        if covered[s] {
            continue;
        }
        for l in 0..pool {
            m.add_constraint([(u[l], 1.0), (bs[l], -1.0)], Sense::Ge, 0.0)?;
        }
    }
    // Clique loss cuts: the paths of a clique sit on pairwise-distinct
    // wavelengths, and the wavelength carrying `s` has (Eq. 7)
    // il_max ≥ L_s + b_sp·L_sp, so summing over the clique's distinct
    // wavelengths (every other il_max is ≥ 0):
    //     Σ_λ il_max[λ] ≥ Σ_{s∈C} (L_s + b_sp(src(s))·L_sp).
    // Redundant at integer points but a large lift for the LP
    // relaxation, where Σ il_max otherwise collapses toward zero under
    // fractional b. Posted per maximal channel clique and per uncovered
    // path (the singleton case).
    {
        let mut cut_sets: Vec<Vec<usize>> = cliques.clone();
        for (s, &cov) in covered.iter().enumerate() {
            if !cov {
                cut_sets.push(vec![s]);
            }
        }
        // Each cut row is dense in the il_max block, and a pile of
        // near-parallel dense rows makes the warm dual re-solves heavily
        // degenerate. The bound lift is concentrated in the heaviest
        // cliques, so keep only the strongest few by total loss.
        cut_sets.sort_by(|a, b| {
            let la: f64 = a.iter().map(|&s| problem.paths[s].loss.0).sum();
            let lb: f64 = b.iter().map(|&s| problem.paths[s].loss.0).sum();
            lb.total_cmp(&la)
        });
        cut_sets.truncate(2);
        for set in cut_sets {
            let mut row: Vec<(milp_solver::Var, f64)> = il_max.iter().map(|&v| (v, 1.0)).collect();
            let mut rhs = 0.0;
            for &s in &set {
                // onoc-lint: allow(L1, reason = "every path src is in sender_nodes, so its bsp var exists by construction")
                let node_bsp = bsp[problem.paths[s].src.index()].expect("sender has bsp");
                row.push((node_bsp, -l_sp));
                rhs += problem.paths[s].loss.0;
            }
            m.add_constraint(row, Sense::Ge, rhs)?;

            // Conditional pigeonhole tightening. When wl_count = |C|, the
            // |C| mutually conflicting paths occupy the used wavelengths
            // bijectively, so every outside path t shares its wavelength
            // with exactly one clique member ("host") it does not
            // conflict with, and that wavelength's il_max is
            // ≥ max(L_t, L_host), not just L_host. The guaranteed joint
            // surplus G over all such configurations is computed exactly
            // by `pigeonhole_surplus` below; the row
            //     Σ il_max + G·wl_count ≥ Σ_C L_c + G·(|C| + 1)
            // is then valid at every integer point: exact at
            // wl_count = |C|, the plain clique cut above at |C| + 1, and
            // strictly weaker than it beyond. This closes min-max slack
            // that no per-wavelength row can see — the LP otherwise piles
            // the whole clique loss sum onto one il_max and dodges the
            // second-order pigeonhole cost entirely.
            let base_sum: f64 = set.iter().map(|&s| problem.paths[s].loss.0).sum();
            let gain = pigeonhole_surplus(problem, &set);
            if gain.is_infinite() {
                // Some outside path conflicts with every clique member:
                // |C| wavelengths can never suffice.
                #[allow(clippy::cast_precision_loss)]
                m.add_constraint([(wl_count, 1.0)], Sense::Ge, (set.len() + 1) as f64)?;
            } else if gain > 1e-9 {
                let mut row: Vec<(milp_solver::Var, f64)> =
                    il_max.iter().map(|&v| (v, 1.0)).collect();
                row.push((wl_count, gain));
                #[allow(clippy::cast_precision_loss)]
                let rhs = base_sum + gain * (set.len() + 1) as f64;
                m.add_constraint(row, Sense::Ge, rhs)?;
            }
        }
    }
    // Eq. 4: a node whose intra sender and inter sender share a wavelength
    // needs its splitter. The paper sums over all of the node's paths,
    // which is equivalent when same-ring paths of a node always conflict
    // (true for ring routers, where they share the sender's first
    // segment); the pairwise intra×inter form below is the exact general
    // statement and never cuts a valid assignment.
    for &node in &sender_nodes {
        let node_bsp = bsp[node.index()].expect("sender node has a bsp var");
        let intra: Vec<usize> = (0..n)
            .filter(|&s| problem.paths[s].src == node && !problem.paths[s].is_inter)
            .collect();
        let inter: Vec<usize> = (0..n)
            .filter(|&s| problem.paths[s].src == node && problem.paths[s].is_inter)
            .collect();
        for &s in &intra {
            for &q in &inter {
                for (&bs, &bq) in b[s].iter().zip(&b[q]) {
                    m.add_constraint([(bs, 1.0), (bq, 1.0), (node_bsp, -1.0)], Sense::Le, 1.0)?;
                }
            }
        }
    }
    // Eqs. 5–6 (with il_s substituted): il_smax ≥ L_s + b_sp·L_sp.
    for s in 0..n {
        let node_bsp = bsp[problem.paths[s].src.index()].expect("sender node has a bsp var");
        m.add_constraint(
            [(il_smax, 1.0), (node_bsp, -l_sp)],
            Sense::Ge,
            problem.paths[s].loss.0,
        )?;
    }
    // Eq. 7: il_max[λ] ≥ L_s + b_sp·L_sp − (1 − b[s][λ])·Ξ_s. The paper
    // uses one global big-M; the per-path constant Ξ_s = L_s + L_sp is the
    // smallest valid one (with b[s][λ] = 0 the right side becomes
    // b_sp·L_sp − L_sp ≤ 0 ≤ il_max[λ], so no integer point is cut) and
    // gives a strictly tighter LP relaxation — the branch-and-bound tree
    // shrinks by an order of magnitude on VOPD/MPEG.
    for s in 0..n {
        let node_bsp = bsp[problem.paths[s].src.index()].expect("sender node has a bsp var");
        let xi_s = problem.paths[s].loss.0 + l_sp;
        for l in 0..pool {
            m.add_constraint(
                [(il_max[l], 1.0), (node_bsp, -l_sp), (b[s][l], -xi_s)],
                Sense::Ge,
                problem.paths[s].loss.0 - xi_s,
            )?;
        }
    }
    // Symmetry breaking: wavelengths are used in index order, and path 0
    // takes λ₀ (the warm start is canonicalized to match).
    for l in 1..pool {
        m.add_constraint([(u[l - 1], 1.0), (u[l], -1.0)], Sense::Ge, 0.0)?;
    }
    m.add_constraint([(b[0][0], 1.0)], Sense::Eq, 1.0)?;
    // wl_count = Σ u (see the variable's declaration above).
    {
        let mut row: Vec<_> = u.iter().map(|&v| (v, 1.0)).collect();
        row.push((wl_count, -1.0));
        m.add_constraint(row, Sense::Eq, 0.0)?;
    }

    // Eq. 8 with α = β = γ = 1.
    let mut objective: Vec<(milp_solver::Var, f64)> = u.iter().map(|&v| (v, 1.0)).collect();
    objective.push((il_smax, 1.0));
    objective.extend(il_max.iter().map(|&v| (v, 1.0)));
    m.set_objective(objective);

    // Warm start from the (canonicalized) heuristic.
    let warm = canonicalize(warm);
    let mut start = vec![0.0; m.var_count()];
    let split = problem.node_splitters(&warm);
    for s in 0..n {
        start[b[s][warm[s].index()].index()] = 1.0;
    }
    for l in 0..pool {
        if warm.iter().any(|w| w.index() == l) {
            start[u[l].index()] = 1.0;
        }
    }
    start[wl_count.index()] = (0..pool)
        .filter(|&l| warm.iter().any(|w| w.index() == l))
        .count() as f64;
    let il = |s: usize| {
        problem.paths[s].loss.0
            + if split[problem.paths[s].src.index()] {
                l_sp
            } else {
                0.0
            }
    };
    for &node in &sender_nodes {
        if split[node.index()] {
            start[bsp[node.index()].expect("sender").index()] = 1.0;
        }
    }
    start[il_smax.index()] = (0..n).map(il).fold(0.0, f64::max);
    for l in 0..pool {
        let worst = (0..n)
            .filter(|&s| warm[s].index() == l)
            .map(il)
            .fold(0.0, f64::max);
        start[il_max[l].index()] = worst;
    }

    #[cfg(debug_assertions)]
    if !m.is_feasible(&start, 1e-6) {
        for (ci, info) in m.debug_violations(&start, 1e-6) {
            eprintln!("violated constraint {ci}: {info}");
        }
        panic!("heuristic warm start must satisfy the MILP");
    }
    let options = MilpSolveOptions::default()
        .with_time_limit(opts.time_limit)
        .with_node_limit(opts.node_limit)
        .with_threads(opts.threads)
        .with_warm_basis(opts.warm_basis)
        .with_presolve(opts.presolve)
        .with_warm_start(start);
    let sol = m.solve(&options)?;

    let mut wavelengths = Vec::with_capacity(n);
    for bs in &b {
        let l = (0..pool)
            .find(|&l| sol.value(bs[l]) > 0.5)
            .expect("Eq. 1 guarantees one wavelength");
        wavelengths.push(Wavelength(l));
    }
    Ok((
        wavelengths,
        sol.status() == Status::Optimal,
        sol.stats().clone(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(src: usize, inter: bool, loss: f64, channels: &[(usize, usize)]) -> AssignPath {
        AssignPath {
            src: NodeId(src),
            is_inter: inter,
            loss: Decibels(loss),
            channels: channels.to_vec(),
        }
    }

    fn splitter() -> Decibels {
        Decibels(3.1)
    }

    #[test]
    fn empty_instance_rejected() {
        let p = AssignmentProblem::new(2, vec![], splitter());
        assert_eq!(
            assign(&p, &AssignmentStrategy::Heuristic),
            Err(AssignError::Empty)
        );
    }

    #[test]
    fn conflicts_derived_from_shared_channels() {
        let p = AssignmentProblem::new(
            3,
            vec![
                path(0, false, 4.0, &[(0, 0), (0, 1)]),
                path(1, false, 4.0, &[(0, 1), (0, 2)]),
                path(2, false, 4.0, &[(1, 0)]),
            ],
            splitter(),
        );
        assert_eq!(p.conflicts_of(0), &[1]);
        assert_eq!(p.conflicts_of(1), &[0]);
        assert!(p.conflicts_of(2).is_empty());
    }

    #[test]
    fn heuristic_order_survives_nan_loss() {
        // Regression for the onoc-lint L2 bug class: the conflict-degree
        // ordering tiebreaks on loss with `total_cmp`, so a NaN loss (a
        // poisoned upstream model) must neither panic nor make the
        // greedy's visit order — and with it the assignment — depend on
        // the sort's pivot sequence.
        let paths = vec![
            path(0, false, f64::NAN, &[(0, 0), (0, 1)]),
            path(1, false, 4.0, &[(0, 1), (0, 2)]),
            path(2, false, 5.0, &[(0, 2), (0, 3)]),
        ];
        let p = AssignmentProblem::new(4, paths, splitter());
        let a = assign(&p, &AssignmentStrategy::Heuristic).expect("assigns");
        let b = assign(&p, &AssignmentStrategy::Heuristic).expect("assigns");
        assert_eq!(
            a.wavelengths, b.wavelengths,
            "NaN loss must stay deterministic"
        );
        assert!(p.is_collision_free(&a.wavelengths));
    }

    #[test]
    fn heuristic_is_collision_free() {
        // A 5-path chain of conflicts.
        let paths: Vec<_> = (0..5)
            .map(|i| path(i, false, 4.0 + i as f64 * 0.1, &[(0, i), (0, i + 1)]))
            .collect();
        let p = AssignmentProblem::new(5, paths, splitter());
        let a = assign(&p, &AssignmentStrategy::Heuristic).unwrap();
        assert!(p.is_collision_free(&a.wavelengths));
        // A chain is 2-colorable.
        assert_eq!(a.wavelength_count, 2);
        assert!(!a.proven_optimal);
    }

    #[test]
    fn milp_matches_or_beats_heuristic() {
        let paths = vec![
            path(0, false, 4.0, &[(0, 0), (0, 1)]),
            path(0, true, 4.2, &[(2, 0)]),
            path(1, false, 4.1, &[(0, 1), (0, 2)]),
            path(1, true, 4.3, &[(2, 1)]),
            path(2, false, 3.9, &[(0, 2), (0, 0)]),
        ];
        let p = AssignmentProblem::new(3, paths, splitter());
        let h = assign(&p, &AssignmentStrategy::Heuristic).unwrap();
        let m = assign(&p, &AssignmentStrategy::Milp(MilpOptions::default())).unwrap();
        assert!(p.is_collision_free(&m.wavelengths));
        assert!(m.objective <= h.objective + 1e-9);
    }

    #[test]
    fn splitter_detection() {
        // Node 0 sends one intra and one inter path; same wavelength →
        // splitter, different → none.
        let paths = vec![
            path(0, false, 4.0, &[(0, 0)]),
            path(0, true, 4.0, &[(1, 0)]),
        ];
        let p = AssignmentProblem::new(1, paths, splitter());
        let shared = vec![Wavelength(0), Wavelength(0)];
        assert_eq!(p.node_splitters(&shared), vec![true]);
        let distinct = vec![Wavelength(0), Wavelength(1)];
        assert_eq!(p.node_splitters(&distinct), vec![false]);
        // Objective prefers paying a wavelength over a 3.1 dB splitter.
        assert!(p.objective(&distinct) < p.objective(&shared));
    }

    #[test]
    fn milp_avoids_splitter_by_spending_a_wavelength() {
        // Intra and inter paths of the same node do not conflict (different
        // rings) — sharing λ would save a wavelength but cost a splitter.
        let paths = vec![
            path(0, false, 4.0, &[(0, 0)]),
            path(0, true, 4.0, &[(1, 0)]),
        ];
        let p = AssignmentProblem::new(1, paths, splitter());
        let a = assign(&p, &AssignmentStrategy::Milp(MilpOptions::default())).unwrap();
        assert_eq!(a.node_splitter, vec![false]);
        assert_eq!(a.wavelength_count, 2);
        assert!(a.proven_optimal);
    }

    #[test]
    fn canonicalize_relabels_in_first_use_order() {
        let w = vec![Wavelength(5), Wavelength(2), Wavelength(5), Wavelength(9)];
        assert_eq!(
            canonicalize(&w),
            vec![Wavelength(0), Wavelength(1), Wavelength(0), Wavelength(2)]
        );
    }

    #[test]
    fn auto_strategy_picks_by_size() {
        let paths = vec![
            path(0, false, 4.0, &[(0, 0)]),
            path(0, true, 4.0, &[(1, 0)]),
        ];
        let p = AssignmentProblem::new(1, paths, splitter());
        let auto_small = AssignmentStrategy::Auto {
            milp_max_paths: 10,
            options: MilpOptions::default(),
        };
        let a = assign(&p, &auto_small).unwrap();
        assert!(a.proven_optimal, "small instance goes to the MILP");
        let auto_tiny = AssignmentStrategy::Auto {
            milp_max_paths: 1,
            options: MilpOptions::default(),
        };
        let a = assign(&p, &auto_tiny).unwrap();
        assert!(
            !a.proven_optimal,
            "instance above the cutoff stays heuristic"
        );
    }

    #[test]
    fn clique_needs_clique_many_wavelengths() {
        // Three mutually conflicting paths.
        let paths = vec![
            path(0, false, 4.0, &[(0, 0)]),
            path(1, false, 4.0, &[(0, 0), (0, 1)]),
            path(2, false, 4.0, &[(0, 1), (0, 0)]),
        ];
        let p = AssignmentProblem::new(3, paths, splitter());
        let a = assign(&p, &AssignmentStrategy::Milp(MilpOptions::default())).unwrap();
        assert_eq!(a.wavelength_count, 3);
        assert!(p.is_collision_free(&a.wavelengths));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Random assignment instances: up to 12 paths over 3 rings of 6
        /// segments, random sources and ring roles.
        fn arb_problem() -> impl Strategy<Value = AssignmentProblem> {
            proptest::collection::vec(
                (
                    0usize..5,     // src node
                    any::<bool>(), // is_inter
                    0.0f64..5.0,   // extra loss
                    0usize..3,     // ring
                    0usize..6,     // first segment
                    1usize..3,     // span
                ),
                1..12,
            )
            .prop_map(|raw| {
                let paths = raw
                    .into_iter()
                    .map(|(src, is_inter, loss, ring, seg, span)| AssignPath {
                        src: NodeId(src),
                        is_inter,
                        loss: Decibels(3.4 + loss),
                        channels: (0..span).map(|k| (ring, (seg + k) % 6)).collect(),
                    })
                    .collect();
                AssignmentProblem::new(5, paths, Decibels(3.1))
            })
        }

        proptest! {
            // Solver-free, so cheap enough for many cases: the splitter
            // corner (an unassigned intra/inter pair at a node that also
            // has an assigned path) needs several to turn up.
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn prop_partial_scoring_matches_the_assigned_subproblem(
                problem in arb_problem(),
                raw in proptest::collection::vec((any::<bool>(), 0usize..4), 12),
            ) {
                let partial: Vec<Wavelength> = raw[..problem.paths().len()]
                    .iter()
                    .map(|&(assigned, w)| if assigned { Wavelength(w) } else { UNASSIGNED })
                    .collect();
                let kept: Vec<usize> = (0..partial.len())
                    .filter(|&i| partial[i] != UNASSIGNED)
                    .collect();
                let sub = AssignmentProblem::new(
                    problem.node_count,
                    kept.iter().map(|&i| problem.paths()[i].clone()).collect(),
                    problem.splitter_loss,
                );
                let sub_wavelengths: Vec<Wavelength> = kept.iter().map(|&i| partial[i]).collect();
                let (count, il_smax, sum_il_max) = problem.eq8_terms(&partial);
                let used: BTreeSet<Wavelength> = sub_wavelengths.iter().copied().collect();
                prop_assert_eq!(count, used.len());
                prop_assert_eq!(
                    (count as f64 + il_smax + sum_il_max).to_bits(),
                    sub.objective(&sub_wavelengths).to_bits()
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn prop_heuristic_is_always_collision_free(problem in arb_problem()) {
                let a = assign(&problem, &AssignmentStrategy::Heuristic).unwrap();
                prop_assert!(problem.is_collision_free(&a.wavelengths));
                prop_assert_eq!(a.wavelengths.len(), problem.paths().len());
                // The reported objective matches a recomputation.
                prop_assert!((a.objective - problem.objective(&a.wavelengths)).abs() < 1e-9);
                // The splitter flags match the wavelength vector.
                prop_assert_eq!(
                    a.node_splitter.clone(),
                    problem.node_splitters(&a.wavelengths)
                );
            }

            #[test]
            fn prop_milp_never_loses_to_heuristic(problem in arb_problem()) {
                // Keep the MILP cases small and cheap: one second is ample
                // for instances of this size, and proptest runs dozens.
                prop_assume!(problem.paths().len() <= 8);
                let h = assign(&problem, &AssignmentStrategy::Heuristic).unwrap();
                let opts = MilpOptions {
                    time_limit: std::time::Duration::from_secs(1),
                    ..MilpOptions::default()
                };
                let m = assign(&problem, &AssignmentStrategy::Milp(opts)).unwrap();
                prop_assert!(problem.is_collision_free(&m.wavelengths));
                prop_assert!(m.objective <= h.objective + 1e-9);
            }

            #[test]
            fn prop_canonicalize_is_idempotent(raw in proptest::collection::vec(0usize..9, 1..20)) {
                let w: Vec<Wavelength> = raw.into_iter().map(Wavelength).collect();
                let once = canonicalize(&w);
                let twice = canonicalize(&once);
                prop_assert_eq!(once.clone(), twice);
                // Canonicalization preserves the partition into equal groups.
                for i in 0..w.len() {
                    for j in 0..w.len() {
                        prop_assert_eq!(w[i] == w[j], once[i] == once[j]);
                    }
                }
            }
        }
    }

    /// The shrunken instance of the checked-in proptest regression
    /// `proptest-regressions/assignment.txt` (seed `cf30faa3…`): eleven
    /// paths over five nodes where eight paths form a single dense
    /// conflict clique on channel `(0, 0)`, two more conflict on `(0, 3)`
    /// and one is conflict-free. The vendored proptest stub cannot replay
    /// upstream ChaCha seeds, so the instance is locked in here verbatim.
    fn regression_cf30faa3_problem() -> AssignmentProblem {
        let paths = vec![
            path(4, false, 5.641472277503231, &[(0, 3), (0, 4)]),
            path(0, false, 3.4, &[(0, 0)]),
            path(1, false, 7.517934001127685, &[(0, 0)]),
            path(4, false, 3.4, &[(0, 3)]),
            path(1, false, 4.605855069997706, &[(0, 0)]),
            path(0, false, 3.4, &[(0, 0)]),
            path(0, false, 3.4, &[(0, 0)]),
            path(0, false, 3.4, &[(0, 0)]),
            path(0, false, 3.4, &[(0, 0)]),
            path(1, false, 3.4, &[(1, 0)]),
            path(0, false, 3.4, &[(0, 0)]),
        ];
        AssignmentProblem::new(5, paths, splitter())
    }

    #[test]
    fn regression_cf30faa3_dense_clique_heuristic() {
        let problem = regression_cf30faa3_problem();
        // The conflict sets recorded in the regression file must match
        // what `AssignmentProblem::new` derives.
        let expected_conflicts: [&[usize]; 11] = [
            &[3],
            &[2, 4, 5, 6, 7, 8, 10],
            &[1, 4, 5, 6, 7, 8, 10],
            &[0],
            &[1, 2, 5, 6, 7, 8, 10],
            &[1, 2, 4, 6, 7, 8, 10],
            &[1, 2, 4, 5, 7, 8, 10],
            &[1, 2, 4, 5, 6, 8, 10],
            &[1, 2, 4, 5, 6, 7, 10],
            &[],
            &[1, 2, 4, 5, 6, 7, 8],
        ];
        for (i, expected) in expected_conflicts.iter().enumerate() {
            assert_eq!(problem.conflicts_of(i), *expected, "conflicts of path {i}");
        }

        let a = assign(&problem, &AssignmentStrategy::Heuristic).unwrap();
        assert!(problem.is_collision_free(&a.wavelengths));
        assert_eq!(a.wavelengths.len(), problem.paths().len());
        assert!((a.objective - problem.objective(&a.wavelengths)).abs() < 1e-9);
        assert_eq!(a.node_splitter, problem.node_splitters(&a.wavelengths));
        // The eight-path clique on channel (0, 0) forces eight wavelengths.
        assert_eq!(a.wavelength_count, 8);
    }

    #[test]
    fn regression_cf30faa3_dense_clique_milp() {
        let problem = regression_cf30faa3_problem();
        let h = assign(&problem, &AssignmentStrategy::Heuristic).unwrap();
        let m = assign(&problem, &AssignmentStrategy::Milp(MilpOptions::default())).unwrap();
        assert!(problem.is_collision_free(&m.wavelengths));
        assert!(m.objective <= h.objective + 1e-9);
    }

    #[test]
    fn objective_components_add_up() {
        let paths = vec![
            path(0, false, 4.0, &[(0, 0)]),
            path(1, false, 5.0, &[(1, 0)]),
        ];
        let p = AssignmentProblem::new(2, paths, splitter());
        // Same wavelength (no conflict): 1 wl + il_smax 5 + Σ il_λ 5 = 11.
        assert!((p.objective(&[Wavelength(0), Wavelength(0)]) - 11.0).abs() < 1e-9);
        // Distinct: 2 + 5 + (4 + 5) = 16.
        assert!((p.objective(&[Wavelength(0), Wavelength(1)]) - 16.0).abs() < 1e-9);
    }
}
