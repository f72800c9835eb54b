//! The dense tableau simplex: the original LP engine, kept only as the
//! test oracle the sparse revised simplex is cross-checked against.
//!
//! It consumes the same [`InternalForm`] as the sparse engine and honors
//! the same contract — warm [`Basis`] snapshots re-optimized with a
//! bound-flipping dual simplex, cold two-phase primal with Bland's-rule
//! anti-cycling, identical terminal statuses — but keeps `B⁻¹A` as a
//! dense row-major tableau, so every pivot costs `O(m × n)`. The module is
//! compiled only under `cfg(test)`; its tests hold the engine-equivalence
//! suite.

use crate::simplex::{
    bounded_form, lp_terminal, recover_values, Basis, BasisCol, FactorStats, InternalForm,
    LpOptions, LpProblem, LpResult, LpStatus, Recover, VarStatus,
};
use crate::tolerances::{COST_TOL, FEAS_TOL, PIVOT_TOL, SINGULAR_TOL};
use std::time::Instant;

/// Reusable scratch buffers of the dense engine (the tableau and its
/// bookkeeping), the counterpart of [`crate::simplex::SimplexWorkspace`].
#[derive(Debug, Default)]
pub(crate) struct DenseWorkspace {
    t: Vec<f64>,
    beta: Vec<f64>,
    cost_row: Vec<f64>,
    basis: Vec<usize>,
    status: Vec<VarStatus>,
    banned: Vec<bool>,
    phase1_cost: Vec<f64>,
    /// Rows already claimed by a basic column during warm-start
    /// refactorization.
    row_done: Vec<bool>,
}

/// [`crate::simplex::solve_lp_warm`] on the dense engine: same bound
/// overrides, options and warm-start contract.
pub(crate) fn solve_lp_dense(
    problem: &LpProblem,
    lower_override: &[f64],
    upper_override: &[f64],
    lp_options: &LpOptions,
    workspace: &mut DenseWorkspace,
    warm: Option<&Basis>,
) -> LpResult {
    let Some(mut form) = bounded_form(problem, lower_override, upper_override) else {
        return lp_terminal(LpStatus::Infeasible, 0, 0, false, false);
    };
    solve_dense(problem, &mut form, lp_options, workspace, warm)
}

struct Tableau<'w> {
    m: usize,
    ntot: usize,
    /// Row-major `m × ntot` coefficient matrix (current `B⁻¹A`).
    t: &'w mut Vec<f64>,
    /// Basic-variable values.
    beta: &'w mut Vec<f64>,
    /// Reduced-cost row.
    cost_row: &'w mut Vec<f64>,
    basis: &'w mut Vec<usize>,
    status: &'w mut Vec<VarStatus>,
    /// Internal upper bounds (lower bounds are all 0).
    ub: &'w mut Vec<f64>,
    /// Columns banned from entering (artificials in phase 2).
    banned: &'w mut Vec<bool>,
    iterations: usize,
    degenerate_streak: usize,
    use_bland: bool,
    deadline: Option<Instant>,
}

impl Tableau<'_> {
    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.t[i * self.ntot + j]
    }

    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.status[j] {
            VarStatus::Basic(r) => self.beta[r],
            VarStatus::AtLower => 0.0,
            VarStatus::AtUpper => self.ub[j],
        }
    }

    /// One phase of the simplex. Returns `Ok(())` at optimality,
    /// `Err(LpStatus::Unbounded)` or `Err(LpStatus::IterationLimit)`.
    fn optimize(&mut self, max_iterations: usize) -> Result<(), LpStatus> {
        loop {
            if self.iterations >= max_iterations {
                return Err(LpStatus::IterationLimit);
            }
            if self.iterations.is_multiple_of(64) {
                if let Some(deadline) = self.deadline {
                    // onoc-lint: allow(L4, reason = "coarse deadline poll every 64 pivots; milp-solver is dependency-free by design")
                    if Instant::now() >= deadline {
                        return Err(LpStatus::TimedOut);
                    }
                }
            }
            self.iterations += 1;

            // --- Pricing: choose the entering column. ---
            let mut entering: Option<(usize, f64, f64)> = None; // (col, dir, score)
            for j in 0..self.ntot {
                // Banned columns (artificials in phase 2) and fixed
                // variables (zero range) can never improve the objective.
                if self.banned[j] || self.ub[j] == 0.0 {
                    continue;
                }
                let (dir, score) = match self.status[j] {
                    VarStatus::Basic(_) => continue,
                    VarStatus::AtLower => {
                        if self.cost_row[j] < -COST_TOL {
                            (1.0, -self.cost_row[j])
                        } else {
                            continue;
                        }
                    }
                    VarStatus::AtUpper => {
                        if self.cost_row[j] > COST_TOL {
                            (-1.0, self.cost_row[j])
                        } else {
                            continue;
                        }
                    }
                };
                if self.use_bland {
                    // Bland's rule: the first improving index terminates
                    // the scan, guaranteeing no cycling.
                    entering = Some((j, dir, score));
                    break;
                }
                let better = match entering {
                    None => true,
                    Some((_, _, bscore)) => score > bscore,
                };
                if better {
                    entering = Some((j, dir, score));
                }
            }
            let Some((j, dir, _)) = entering else {
                return Ok(()); // optimal
            };

            // --- Ratio test. ---
            #[derive(Clone, Copy, PartialEq)]
            enum Limit {
                OwnBound,
                Row { r: usize, to_upper: bool },
            }
            let mut delta = self.ub[j]; // may be +inf
            let mut limit = Limit::OwnBound;
            let mut best_pivot_mag = 0.0_f64;
            for r in 0..self.m {
                let t_eff = self.at(r, j) * dir;
                let (d, to_upper) = if t_eff > PIVOT_TOL {
                    // Basic variable decreases toward 0.
                    (self.beta[r] / t_eff, false)
                } else if t_eff < -PIVOT_TOL {
                    // Basic variable increases toward its upper bound.
                    let u = self.ub[self.basis[r]];
                    if !u.is_finite() {
                        continue;
                    }
                    ((u - self.beta[r]) / (-t_eff), true)
                } else {
                    continue;
                };
                let better = if d < delta - PIVOT_TOL {
                    true
                } else if d < delta + PIVOT_TOL {
                    if self.use_bland {
                        // Bland's rule must also constrain the *leaving*
                        // choice: among tied ratios, the smallest leaving
                        // variable index wins (the entering variable's own
                        // bound counts as index `j`). Tie-breaking by pivot
                        // magnitude alone leaves cycling possible.
                        let current = match limit {
                            Limit::OwnBound => j,
                            Limit::Row { r: cr, .. } => self.basis[cr],
                        };
                        self.basis[r] < current
                    } else {
                        t_eff.abs() > best_pivot_mag
                    }
                } else {
                    false
                };
                if better {
                    delta = d.max(0.0);
                    limit = Limit::Row { r, to_upper };
                    best_pivot_mag = t_eff.abs();
                }
            }
            if delta.is_infinite() {
                return Err(LpStatus::Unbounded);
            }

            if delta < PIVOT_TOL {
                self.degenerate_streak += 1;
                if self.degenerate_streak > 2 * (self.m + self.ntot) {
                    self.use_bland = true;
                }
            } else {
                self.degenerate_streak = 0;
            }

            match limit {
                Limit::OwnBound => {
                    // Bound flip: the entering variable runs to its other
                    // bound without a basis change.
                    for r in 0..self.m {
                        let t = self.at(r, j);
                        if t != 0.0 {
                            self.beta[r] -= t * dir * delta;
                        }
                    }
                    self.status[j] = match self.status[j] {
                        VarStatus::AtLower => VarStatus::AtUpper,
                        VarStatus::AtUpper => VarStatus::AtLower,
                        VarStatus::Basic(_) => unreachable!("entering var is nonbasic"),
                    };
                }
                Limit::Row { r, to_upper } => {
                    self.pivot(r, j, dir, delta, to_upper);
                }
            }
        }
    }

    /// Pivot: entering column `j` (moving in direction `dir` by `delta`),
    /// leaving the basic variable of row `r` at its lower (`to_upper =
    /// false`) or upper bound.
    fn pivot(&mut self, r: usize, j: usize, dir: f64, delta: f64, to_upper: bool) {
        // Update all basic values for the entering variable's movement.
        for i in 0..self.m {
            let t = self.at(i, j);
            if t != 0.0 {
                self.beta[i] -= t * dir * delta;
            }
        }
        // Entering variable's new value.
        let start = match self.status[j] {
            VarStatus::AtLower => 0.0,
            VarStatus::AtUpper => self.ub[j],
            VarStatus::Basic(_) => unreachable!("entering var is nonbasic"),
        };
        let v_enter = start + dir * delta;

        let leaving = self.basis[r];
        self.status[leaving] = if to_upper {
            VarStatus::AtUpper
        } else {
            VarStatus::AtLower
        };
        self.basis[r] = j;
        self.status[j] = VarStatus::Basic(r);
        self.beta[r] = v_enter;

        // Row elimination on the coefficient matrix and the cost row.
        let pivot = self.at(r, j);
        debug_assert!(pivot.abs() > PIVOT_TOL, "pivot too small");
        let inv = 1.0 / pivot;
        let row_start = r * self.ntot;
        for k in 0..self.ntot {
            self.t[row_start + k] *= inv;
        }
        for i in 0..self.m {
            if i == r {
                continue;
            }
            let factor = self.at(i, j);
            if factor != 0.0 {
                let i_start = i * self.ntot;
                for k in 0..self.ntot {
                    self.t[i_start + k] -= factor * self.t[row_start + k];
                }
            }
        }
        let cfactor = self.cost_row[j];
        if cfactor != 0.0 {
            for k in 0..self.ntot {
                self.cost_row[k] -= cfactor * self.t[row_start + k];
            }
        }
    }

    /// Dual simplex for bounded variables: starting from a dual-feasible
    /// basis (nonbasic at-lower columns have reduced cost ≥ 0, at-upper
    /// ≤ 0), restores primal feasibility while keeping dual feasibility.
    ///
    /// Each iteration picks the basic variable with the largest bound
    /// violation as the leaving variable and runs a **bound-flipping ratio
    /// test** (Maros; Koberstein): eligible entering candidates are walked
    /// in ascending dual-ratio order, and a candidate whose full range
    /// cannot absorb the remaining violation is *flipped* to its other
    /// bound instead of entering — the flip keeps dual feasibility because
    /// its ratio is below the eventual dual step. The first candidate that
    /// can absorb the rest enters via a regular pivot.
    ///
    /// Returns `Ok(())` at a primal-feasible (hence optimal) basis.
    /// `Err(LpStatus::Infeasible)` is an exact certificate: the violated
    /// row cannot reach its bound even with every eligible column at its
    /// extreme. `Err(LpStatus::IterationLimit)` signals a stall — the
    /// caller falls back to the cold start. `Err(LpStatus::TimedOut)`
    /// propagates the deadline.
    fn dual_optimize(&mut self, max_iterations: usize) -> Result<(), LpStatus> {
        struct Cand {
            j: usize,
            /// `sigma · t[r][j]`: the row entry oriented so eligible
            /// candidates are the ones that move the leaving variable
            /// toward its violated bound.
            t_sig: f64,
            ratio: f64,
        }
        let mut cands: Vec<Cand> = Vec::new();
        loop {
            if self.iterations >= max_iterations {
                return Err(LpStatus::IterationLimit);
            }
            if self.iterations.is_multiple_of(64) {
                if let Some(deadline) = self.deadline {
                    // onoc-lint: allow(L4, reason = "coarse deadline poll every 64 pivots; milp-solver is dependency-free by design")
                    if Instant::now() >= deadline {
                        return Err(LpStatus::TimedOut);
                    }
                }
            }

            // --- Leaving row: the largest primal bound violation. ---
            let mut leave: Option<(usize, f64, bool)> = None; // (row, violation, at upper?)
            for r in 0..self.m {
                let below = -self.beta[r];
                let u = self.ub[self.basis[r]];
                let above = if u.is_finite() {
                    self.beta[r] - u
                } else {
                    f64::NEG_INFINITY
                };
                let (v, to_upper) = if below >= above {
                    (below, false)
                } else {
                    (above, true)
                };
                // Strict improvement keeps the first (smallest) row on
                // ties — fully deterministic.
                if v > FEAS_TOL && leave.is_none_or(|(_, best, _)| v > best) {
                    leave = Some((r, v, to_upper));
                }
            }
            let Some((r, violation, to_upper)) = leave else {
                return Ok(()); // primal feasible + dual feasible = optimal
            };
            self.iterations += 1;

            // --- Eligible entering candidates and their dual ratios. ---
            // `sigma` is the desired sign of change of the leaving basic
            // variable: up toward 0, or down toward its upper bound.
            let sigma = if to_upper { -1.0 } else { 1.0 };
            cands.clear();
            for j in 0..self.ntot {
                if self.banned[j] || self.ub[j] == 0.0 {
                    continue;
                }
                let t_sig = sigma * self.at(r, j);
                let cost_mag = match self.status[j] {
                    VarStatus::Basic(_) => continue,
                    // A variable at its lower bound can only increase
                    // (and needs t_sig < 0 to help); its reduced cost is
                    // ≥ 0 up to tolerance, clamp for the ratio.
                    VarStatus::AtLower => {
                        if t_sig >= -PIVOT_TOL {
                            continue;
                        }
                        self.cost_row[j].max(0.0)
                    }
                    VarStatus::AtUpper => {
                        if t_sig <= PIVOT_TOL {
                            continue;
                        }
                        (-self.cost_row[j]).max(0.0)
                    }
                };
                cands.push(Cand {
                    j,
                    t_sig,
                    ratio: cost_mag / t_sig.abs(),
                });
            }
            if cands.is_empty() {
                // No column can move the violated row toward its bound:
                // the LP is primal infeasible.
                return Err(LpStatus::Infeasible);
            }
            // Ascending dual ratio. In normal mode ties prefer the larger
            // pivot magnitude (numerical stability); under the stall
            // fallback the smallest index decides (Bland-style
            // anti-cycling). Both orders are fully deterministic.
            if self.use_bland {
                cands.sort_by(|a, b| a.ratio.total_cmp(&b.ratio).then(a.j.cmp(&b.j)));
            } else {
                cands.sort_by(|a, b| {
                    a.ratio
                        .total_cmp(&b.ratio)
                        .then_with(|| b.t_sig.abs().total_cmp(&a.t_sig.abs()))
                        .then(a.j.cmp(&b.j))
                });
            }

            // --- Bound-flipping walk. ---
            let mut remaining = violation;
            let mut entered = false;
            for c in &cands {
                let dir = match self.status[c.j] {
                    VarStatus::AtLower => 1.0,
                    VarStatus::AtUpper => -1.0,
                    VarStatus::Basic(_) => unreachable!("candidates are nonbasic"),
                };
                let cap = self.ub[c.j] * c.t_sig.abs(); // +inf for unbounded columns
                if cap < remaining - FEAS_TOL {
                    // Full-range bound flip: absorbs `cap` of the
                    // violation without a basis change.
                    let delta = self.ub[c.j];
                    for i in 0..self.m {
                        let tv = self.at(i, c.j);
                        if tv != 0.0 {
                            self.beta[i] -= tv * dir * delta;
                        }
                    }
                    self.status[c.j] = match self.status[c.j] {
                        VarStatus::AtLower => VarStatus::AtUpper,
                        VarStatus::AtUpper => VarStatus::AtLower,
                        VarStatus::Basic(_) => unreachable!("candidates are nonbasic"),
                    };
                    remaining -= cap;
                } else {
                    let delta = remaining / c.t_sig.abs();
                    if delta < PIVOT_TOL {
                        self.degenerate_streak += 1;
                        if self.degenerate_streak > 2 * (self.m + self.ntot) {
                            self.use_bland = true;
                        }
                    } else {
                        self.degenerate_streak = 0;
                    }
                    self.pivot(r, c.j, dir, delta, to_upper);
                    entered = true;
                    break;
                }
            }
            if !entered {
                // Every eligible column flipped and the violation remains:
                // the row cannot reach its bound — primal infeasible.
                return Err(LpStatus::Infeasible);
            }
        }
    }

    /// Rebuilds the reduced-cost row for a new objective vector.
    fn set_costs(&mut self, cost: &[f64]) {
        self.cost_row.copy_from_slice(cost);
        for i in 0..self.m {
            let cb = cost[self.basis[i]];
            if cb != 0.0 {
                let i_start = i * self.ntot;
                for k in 0..self.ntot {
                    self.cost_row[k] -= cb * self.t[i_start + k];
                }
            }
        }
    }
}

/// The dense tableau engine: warm dual attempt, then cold two-phase.
fn solve_dense(
    problem: &LpProblem,
    form: &mut InternalForm,
    lp_options: &LpOptions,
    workspace: &mut DenseWorkspace,
    warm: Option<&Basis>,
) -> LpResult {
    let DenseWorkspace {
        t,
        beta,
        cost_row,
        basis,
        status,
        banned,
        phase1_cost,
        row_done,
    } = workspace;
    let InternalForm {
        recover,
        ub: internal_ub,
        cost: internal_cost,
        rows: internal_rows,
        needs_artificial,
        n_struct_slack,
        n_art,
    } = form;
    let (n_struct_slack, n_art) = (*n_struct_slack, *n_art);
    // Constant objective offset of the bound shifts: the objective at the
    // internal origin.
    let cost_constant: f64 = recover_values(recover, |_| 0.0)
        .iter()
        .zip(&problem.cost)
        .map(|(x, c)| x * c)
        .sum();
    let m = internal_rows.len();

    // --- Warm start: refactorize the inherited basis, dual-simplex it. ---
    let mut dual_pivots = 0usize;
    'warm: {
        let Some(snapshot) = warm else { break 'warm };
        // The snapshot must describe this LP's internal structure. (A
        // bound change can alter the column layout — e.g. a variable
        // turning from mirrored to shifted — in which case the column
        // count differs and the snapshot is rejected here.)
        if snapshot.cols.len() != n_struct_slack || snapshot.basic != m {
            break 'warm;
        }
        let ntot = n_struct_slack;

        // Assemble the raw (artificial-free) tableau; `beta` carries the
        // right-hand side through the elimination below, after which it
        // holds B⁻¹b.
        t.clear();
        t.resize(m * ntot, 0.0);
        beta.clear();
        beta.resize(m, 0.0);
        for (i, row) in internal_rows.iter().enumerate() {
            for &(c, a) in &row.coeffs {
                t[i * ntot + c] += a;
            }
            beta[i] = row.rhs;
        }
        status.clear();
        status.extend(snapshot.cols.iter().map(|c| match c {
            BasisCol::AtUpper => VarStatus::AtUpper,
            // Basic columns get their row assigned during refactorization.
            BasisCol::Basic | BasisCol::AtLower => VarStatus::AtLower,
        }));

        // Gauss–Jordan refactorization with partial pivoting over the
        // snapshot's basic columns. Row normalization signs cancel in
        // B⁻¹A, so the parent's reduced costs carry over exactly.
        basis.clear();
        basis.resize(m, usize::MAX);
        row_done.clear();
        row_done.resize(m, false);
        let mut singular = false;
        for j in (0..ntot).filter(|&j| snapshot.cols[j] == BasisCol::Basic) {
            let mut best_r = usize::MAX;
            let mut best_mag = SINGULAR_TOL; // below this the basis counts as singular
            for (i, done) in row_done.iter().enumerate() {
                if !done {
                    let mag = t[i * ntot + j].abs();
                    if mag > best_mag {
                        best_mag = mag;
                        best_r = i;
                    }
                }
            }
            if best_r == usize::MAX {
                singular = true;
                break;
            }
            let r = best_r;
            row_done[r] = true;
            basis[r] = j;
            status[j] = VarStatus::Basic(r);
            let r_start = r * ntot;
            let inv = 1.0 / t[r_start + j];
            for k in 0..ntot {
                t[r_start + k] *= inv;
            }
            beta[r] *= inv;
            for i in 0..m {
                if i == r {
                    continue;
                }
                let factor = t[i * ntot + j];
                if factor != 0.0 {
                    let i_start = i * ntot;
                    for k in 0..ntot {
                        t[i_start + k] -= factor * t[r_start + k];
                    }
                    beta[i] -= factor * beta[r];
                }
            }
        }
        if singular {
            break 'warm;
        }
        // Nonbasic at-upper columns contribute to the basic values.
        for j in 0..ntot {
            if status[j] == VarStatus::AtUpper {
                let u = internal_ub[j];
                if !u.is_finite() {
                    // The snapshot rests a now-unbounded column at its
                    // upper bound — structure drifted, start cold.
                    break 'warm;
                }
                if u != 0.0 {
                    for i in 0..m {
                        let tv = t[i * ntot + j];
                        if tv != 0.0 {
                            beta[i] -= tv * u;
                        }
                    }
                }
            }
        }

        banned.clear();
        banned.resize(ntot, false);
        cost_row.clear();
        cost_row.resize(ntot, 0.0);
        let mut tab = Tableau {
            m,
            ntot,
            t: &mut *t,
            beta: &mut *beta,
            cost_row: &mut *cost_row,
            basis: &mut *basis,
            status: &mut *status,
            ub: &mut *internal_ub,
            banned: &mut *banned,
            iterations: 0,
            degenerate_streak: 0,
            use_bland: false,
            deadline: lp_options.deadline,
        };
        tab.set_costs(internal_cost);
        // The inherited basis must be dual-feasible for the dual simplex
        // to apply (fixed columns can never move, so their sign is moot).
        let dual_ok = (0..ntot).all(|j| match tab.status[j] {
            VarStatus::Basic(_) => true,
            VarStatus::AtLower => tab.ub[j] == 0.0 || tab.cost_row[j] >= -FEAS_TOL,
            VarStatus::AtUpper => tab.ub[j] == 0.0 || tab.cost_row[j] <= FEAS_TOL,
        });
        if !dual_ok {
            break 'warm;
        }
        // Warm re-optimization should take a handful of pivots; past this
        // budget a cold start is the better bet.
        let dual_cap = 1_000 + 10 * (m + ntot);
        match tab.dual_optimize(dual_cap) {
            Ok(()) => {
                return finish_optimal(
                    &tab,
                    recover,
                    problem,
                    internal_cost,
                    cost_constant,
                    n_struct_slack,
                    lp_options.capture_basis,
                    0,
                    tab.iterations,
                    false,
                    true,
                );
            }
            Err(LpStatus::Infeasible) => {
                // Exact certificate — the child LP is infeasible.
                return lp_terminal(LpStatus::Infeasible, 0, tab.iterations, false, true);
            }
            Err(LpStatus::TimedOut) => {
                return lp_terminal(LpStatus::TimedOut, 0, tab.iterations, false, false);
            }
            Err(LpStatus::IterationLimit) => {
                // Dual stall: abandon the warm path, keep the effort on
                // record, and start cold.
                dual_pivots = tab.iterations;
            }
            Err(status @ (LpStatus::Optimal | LpStatus::Unbounded)) => {
                unreachable!("dual simplex cannot report {status:?}")
            }
        }
    }

    // --- Cold start: two-phase primal with artificials. ---
    let ntot = n_struct_slack + n_art;
    internal_ub.truncate(n_struct_slack);
    internal_ub.extend(std::iter::repeat_n(f64::INFINITY, n_art));

    // --- Assemble the dense tableau (into the reusable buffers). ---
    t.clear();
    t.resize(m * ntot, 0.0);
    basis.clear();
    basis.resize(m, usize::MAX);
    status.clear();
    status.resize(ntot, VarStatus::AtLower);
    beta.clear();
    beta.resize(m, 0.0);
    let mut art_col = n_struct_slack;
    phase1_cost.clear();
    phase1_cost.resize(ntot, 0.0);
    for (i, row) in internal_rows.iter().enumerate() {
        for &(c, a) in &row.coeffs {
            t[i * ntot + c] += a;
        }
        beta[i] = row.rhs;
        if needs_artificial[i] {
            t[i * ntot + art_col] = 1.0;
            basis[i] = art_col;
            status[art_col] = VarStatus::Basic(i);
            phase1_cost[art_col] = 1.0;
            art_col += 1;
        } else {
            let Some(s) = row.slack else {
                unreachable!("slack exists when no artificial needed")
            };
            basis[i] = s;
            status[s] = VarStatus::Basic(i);
        }
    }

    cost_row.clear();
    cost_row.resize(ntot, 0.0);
    banned.clear();
    banned.resize(ntot, false);
    let mut tab = Tableau {
        m,
        ntot,
        t,
        beta,
        cost_row,
        basis,
        status,
        ub: internal_ub,
        banned,
        iterations: 0,
        degenerate_streak: 0,
        use_bland: false,
        deadline: lp_options.deadline,
    };
    let max_iterations = 50_000 + 100 * (m + ntot);

    // --- Phase 1. ---
    let phase1 = n_art > 0;
    if n_art > 0 {
        tab.set_costs(phase1_cost);
        match tab.optimize(max_iterations) {
            Ok(()) => {}
            Err(status @ (LpStatus::IterationLimit | LpStatus::TimedOut)) => {
                return lp_terminal(status, tab.iterations, dual_pivots, phase1, false)
            }
            Err(_) => unreachable!("phase 1 objective is bounded below by zero"),
        }
        let infeasibility: f64 = (0..m)
            .filter(|&i| tab.basis[i] >= n_struct_slack)
            .map(|i| tab.beta[i])
            .sum();
        if infeasibility > FEAS_TOL {
            return lp_terminal(
                LpStatus::Infeasible,
                tab.iterations,
                dual_pivots,
                phase1,
                false,
            );
        }
        // Drive basic artificials out where possible; ban all artificials.
        for i in 0..m {
            if tab.basis[i] >= n_struct_slack {
                if let Some(j) = (0..n_struct_slack).find(|&j| {
                    !matches!(tab.status[j], VarStatus::Basic(_))
                        && tab.at(i, j).abs() > SINGULAR_TOL
                }) {
                    tab.pivot(i, j, 1.0, 0.0, false);
                }
            }
        }
        for j in n_struct_slack..ntot {
            tab.banned[j] = true;
        }
    }

    // --- Phase 2. ---
    internal_cost.resize(ntot, 0.0);
    tab.set_costs(internal_cost);
    match tab.optimize(max_iterations) {
        Ok(()) => {}
        Err(status) => return lp_terminal(status, tab.iterations, dual_pivots, phase1, false),
    }

    finish_optimal(
        &tab,
        recover,
        problem,
        internal_cost,
        cost_constant,
        n_struct_slack,
        lp_options.capture_basis,
        tab.iterations,
        dual_pivots,
        phase1,
        false,
    )
}

/// Recovers original-variable values from an optimal tableau, optionally
/// capturing a [`Basis`] snapshot, and assembles the [`LpResult`].
#[allow(clippy::too_many_arguments)]
fn finish_optimal(
    tab: &Tableau<'_>,
    recover: &[Recover],
    problem: &LpProblem,
    internal_cost: &[f64],
    cost_constant: f64,
    n_struct_slack: usize,
    capture_basis: bool,
    pivots: usize,
    dual_pivots: usize,
    phase1: bool,
    warm_used: bool,
) -> LpResult {
    let values = recover_values(recover, |j| tab.nonbasic_value(j));
    let objective = values
        .iter()
        .zip(&problem.cost)
        .map(|(x, c)| x * c)
        .sum::<f64>();
    debug_assert!(
        (objective
            - (cost_constant
                + (0..tab.m)
                    .map(|i| internal_cost[tab.basis[i]] * tab.beta[i])
                    .sum::<f64>()
                + (0..tab.ntot)
                    .filter(|&j| !matches!(tab.status[j], VarStatus::Basic(_)))
                    .map(|j| internal_cost[j] * tab.nonbasic_value(j))
                    .sum::<f64>()))
        .abs()
            < 1e-4 * (1.0 + objective.abs())
    );

    let basis = if capture_basis {
        let mut cols = Vec::with_capacity(n_struct_slack);
        let mut basic = 0usize;
        for j in 0..n_struct_slack {
            cols.push(match tab.status[j] {
                VarStatus::Basic(_) => {
                    basic += 1;
                    BasisCol::Basic
                }
                VarStatus::AtLower => BasisCol::AtLower,
                VarStatus::AtUpper => BasisCol::AtUpper,
            });
        }
        // A basic artificial (degenerate phase-1 leftover) means the real
        // columns alone cannot seed a basis — skip the snapshot.
        (basic == tab.m).then_some(Basis { cols, basic })
    } else {
        None
    };

    LpResult {
        status: LpStatus::Optimal,
        objective,
        values,
        pivots,
        dual_pivots,
        phase1,
        warm_used,
        basis,
        factor: FactorStats::default(),
    }
}

/// Engine-equivalence suite: the sparse revised simplex must agree with
/// the dense tableau on randomized bounded LPs — same terminal status,
/// same objective to 1e-6, interchangeable warm-start snapshots — and
/// survive pathological degeneracy via the Harris ratio test and the
/// Bland fallback.
mod tests {
    use super::*;
    use crate::model::Sense;
    use crate::simplex::tests::reuse_problems;
    use crate::simplex::{solve_lp_warm, LpRow, SimplexWorkspace};
    use proptest::prelude::*;

    #[derive(Debug, Clone, Copy)]
    enum Engine {
        Sparse,
        Dense,
    }

    fn solve_on(
        engine: Engine,
        p: &LpProblem,
        lower: &[f64],
        upper: &[f64],
        opts: &LpOptions,
        warm: Option<&Basis>,
    ) -> LpResult {
        match engine {
            Engine::Sparse => {
                solve_lp_warm(p, lower, upper, opts, &mut SimplexWorkspace::new(), warm)
            }
            Engine::Dense => {
                solve_lp_dense(p, lower, upper, opts, &mut DenseWorkspace::default(), warm)
            }
        }
    }

    fn solve_with(p: &LpProblem, engine: Engine, capture: bool) -> LpResult {
        let opts = LpOptions {
            capture_basis: capture,
            ..LpOptions::default()
        };
        solve_on(engine, p, &[], &[], &opts, None)
    }

    fn feasible(p: &LpProblem, lower: &[f64], upper: &[f64], x: &[f64]) -> bool {
        let l = |j: usize| {
            if lower.is_empty() {
                p.lower[j]
            } else {
                lower[j]
            }
        };
        let u = |j: usize| {
            if upper.is_empty() {
                p.upper[j]
            } else {
                upper[j]
            }
        };
        x.iter()
            .enumerate()
            .all(|(j, &v)| v >= l(j) - 1e-6 && v <= u(j) + 1e-6)
            && p.rows.iter().all(|r| {
                let lhs: f64 = r.coeffs.iter().map(|&(j, a)| a * x[j]).sum();
                match r.sense {
                    Sense::Le => lhs <= r.rhs + 1e-6,
                    Sense::Ge => lhs >= r.rhs - 1e-6,
                    Sense::Eq => (lhs - r.rhs).abs() <= 1e-6,
                }
            })
    }

    /// Randomized LPs with mixed senses, negative lower bounds, and a mix
    /// of finite/infinite upper bounds — wide enough to hit phase 1, bound
    /// flips, and every Recover transform.
    fn arb_lp() -> impl Strategy<Value = LpProblem> {
        let sense = (0u8..3).prop_map(|s| match s {
            0 => Sense::Le,
            1 => Sense::Ge,
            _ => Sense::Eq,
        });
        (
            2usize..6,
            proptest::collection::vec(
                (
                    proptest::collection::vec(-2.0f64..3.0, 6),
                    sense,
                    -4.0f64..10.0,
                ),
                1..5,
            ),
            proptest::collection::vec(-4.0f64..4.0, 6),
            proptest::collection::vec((-3.0f64..1.0, 2.0f64..6.0, any::<bool>()), 6),
        )
            .prop_map(|(n, rows, cost, bounds)| LpProblem {
                cost: cost[..n].to_vec(),
                lower: bounds[..n].iter().map(|&(l, _, _)| l).collect(),
                upper: bounds[..n]
                    .iter()
                    .map(|&(l, w, inf)| if inf { f64::INFINITY } else { l + w })
                    .collect(),
                rows: rows
                    .into_iter()
                    .map(|(coeffs, sense, rhs)| LpRow {
                        coeffs: coeffs[..n]
                            .iter()
                            .enumerate()
                            .filter(|(_, &a)| a.abs() > 0.05)
                            .map(|(j, &a)| (j, a))
                            .collect(),
                        sense,
                        rhs,
                    })
                    .collect(),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Same status on every random LP; on optimal, same objective to
        /// 1e-6 and a feasible solution from both engines.
        #[test]
        fn prop_engines_agree_cold(p in arb_lp()) {
            let sparse = solve_with(&p, Engine::Sparse, false);
            let dense = solve_with(&p, Engine::Dense, false);
            prop_assert_eq!(sparse.status, dense.status,
                "sparse {:?} vs dense {:?}", sparse.status, dense.status);
            if sparse.status == LpStatus::Optimal {
                prop_assert!((sparse.objective - dense.objective).abs() < 1e-6,
                    "sparse {} vs dense {}", sparse.objective, dense.objective);
                prop_assert!(feasible(&p, &[], &[], &sparse.values));
                prop_assert!(feasible(&p, &[], &[], &dense.values));
            }
        }

        /// Warm-started re-solves after a bound tightening: both engines,
        /// and crucially a basis captured by ONE engine replayed on the
        /// OTHER, all land on the cold sparse objective. This is the
        /// snapshot portability the branch-and-bound warm-start contract
        /// relies on.
        #[test]
        fn prop_engines_agree_warm_and_cross(
            p in arb_lp(),
            var_pick in 0usize..6,
            frac in 0.1f64..0.9,
            cut_upper in any::<bool>(),
        ) {
            let sparse_parent = solve_with(&p, Engine::Sparse, true);
            let dense_parent = solve_with(&p, Engine::Dense, true);
            prop_assert_eq!(sparse_parent.status, dense_parent.status);
            if sparse_parent.status != LpStatus::Optimal {
                return Ok(());
            }
            let j = var_pick % p.cost.len();
            let mut lower = p.lower.clone();
            let mut upper = p.upper.clone();
            let span = if p.upper[j].is_finite() { p.upper[j] - p.lower[j] } else { 2.0 };
            let cut = p.lower[j] + frac * span;
            if cut_upper { upper[j] = cut; } else { lower[j] = cut; }

            let mut reference: Option<LpResult> = None;
            for (engine, basis) in [
                (Engine::Sparse, &sparse_parent.basis),
                (Engine::Dense, &dense_parent.basis),
                // Cross-engine replay: dense snapshot into the sparse
                // engine and vice versa.
                (Engine::Sparse, &dense_parent.basis),
                (Engine::Dense, &sparse_parent.basis),
            ] {
                let r = solve_on(
                    engine, &p, &lower, &upper, &LpOptions::default(), basis.as_ref(),
                );
                match &reference {
                    None => reference = Some(r),
                    Some(base) => {
                        prop_assert_eq!(r.status, base.status,
                            "engine {:?} status diverged", engine);
                        if base.status == LpStatus::Optimal {
                            prop_assert!((r.objective - base.objective).abs() < 1e-6,
                                "engine {:?}: {} vs {}", engine, r.objective, base.objective);
                            prop_assert!(feasible(&p, &lower, &upper, &r.values));
                        }
                    }
                }
            }
        }
    }

    /// Beale's classic cycling LP on both engines: the Harris ratio test's
    /// degenerate steps must trip the Bland fallback, which must then
    /// terminate at the true optimum.
    #[test]
    fn beale_cycling_fixture_both_engines() {
        let p = LpProblem {
            cost: vec![-0.75, 150.0, -0.02, 6.0],
            lower: vec![0.0; 4],
            upper: vec![f64::INFINITY; 4],
            rows: vec![
                LpRow {
                    coeffs: vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
                    sense: Sense::Le,
                    rhs: 0.0,
                },
                LpRow {
                    coeffs: vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
                    sense: Sense::Le,
                    rhs: 0.0,
                },
                LpRow {
                    coeffs: vec![(2, 1.0)],
                    sense: Sense::Le,
                    rhs: 1.0,
                },
            ],
        };
        for engine in [Engine::Sparse, Engine::Dense] {
            let r = solve_with(&p, engine, false);
            assert_eq!(r.status, LpStatus::Optimal, "{engine:?}");
            assert!(
                (r.objective + 0.05).abs() < 1e-9,
                "{engine:?} objective {}",
                r.objective
            );
        }
    }

    /// A massively degenerate transportation-style LP: many tied ratios at
    /// every pivot. Both engines must terminate (Harris pass-2 pivot
    /// choice, then Bland if a stall develops) and agree on the optimum.
    #[test]
    fn degenerate_ties_fixture_both_engines() {
        // min Σ c_ij x_ij over a 3×3 doubly stochastic-ish polytope where
        // every supply/demand equals 1 — the classic degenerate case.
        let n = 3usize;
        let cost = vec![4.0, 1.0, 3.0, 2.0, 0.0, 5.0, 3.0, 2.0, 1.0];
        let mut rows = Vec::new();
        for i in 0..n {
            rows.push(LpRow {
                coeffs: (0..n).map(|j| (i * n + j, 1.0)).collect(),
                sense: Sense::Eq,
                rhs: 1.0,
            });
        }
        for j in 0..n {
            rows.push(LpRow {
                coeffs: (0..n).map(|i| (i * n + j, 1.0)).collect(),
                sense: Sense::Eq,
                rhs: 1.0,
            });
        }
        let p = LpProblem {
            cost,
            lower: vec![0.0; n * n],
            upper: vec![1.0; n * n],
            rows,
        };
        // Both engines must agree and beat a known feasible point (the
        // identity permutation, 4 + 0 + 1 = 5).
        let sparse = solve_with(&p, Engine::Sparse, false);
        let dense = solve_with(&p, Engine::Dense, false);
        assert_eq!(sparse.status, LpStatus::Optimal);
        assert_eq!(dense.status, LpStatus::Optimal);
        assert!((sparse.objective - dense.objective).abs() < 1e-9);
        assert!(sparse.objective <= 5.0 + 1e-9);
    }

    /// Factorization counters must actually move on the sparse path and
    /// stay zero on the dense path.
    #[test]
    fn factor_stats_flow_from_sparse_engine() {
        let p = LpProblem {
            cost: vec![2.0, 3.0, 1.0],
            lower: vec![0.0; 3],
            upper: vec![f64::INFINITY; 3],
            rows: vec![
                LpRow {
                    coeffs: vec![(0, 1.0), (1, 1.0)],
                    sense: Sense::Ge,
                    rhs: 5.0,
                },
                LpRow {
                    coeffs: vec![(1, 1.0), (2, 1.0)],
                    sense: Sense::Eq,
                    rhs: 2.0,
                },
            ],
        };
        let sparse = solve_with(&p, Engine::Sparse, false);
        assert_eq!(sparse.status, LpStatus::Optimal);
        assert!(
            sparse.factor.refactorizations >= 1,
            "sparse solve must factorize at least once"
        );
        let dense = solve_with(&p, Engine::Dense, false);
        assert_eq!(dense.factor.refactorizations, 0);
        assert_eq!(dense.factor.eta_updates, 0);
    }

    #[test]
    fn dense_workspace_reuse_matches_fresh_solves() {
        // The same dense workspace across differently shaped problems must
        // give byte-identical results to fresh per-solve allocation.
        let opts = LpOptions::default();
        let mut ws = DenseWorkspace::default();
        for p in &reuse_problems() {
            let reused = solve_lp_dense(p, &[], &[], &opts, &mut ws, None);
            let fresh = solve_with(p, Engine::Dense, false);
            assert_eq!(reused.status, fresh.status);
            assert_eq!(reused.objective.to_bits(), fresh.objective.to_bits());
            assert_eq!(reused.values, fresh.values);
        }
    }
}
