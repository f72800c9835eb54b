//! End-to-end thread-count equivalence: the full SRing pipeline with the
//! MILP wavelength assignment, run on one worker and on many.
//!
//! Every thread count runs the same branch-and-bound worker loop over one
//! best-first node pool with a fixed tie-breaking order (one thread runs
//! it on the calling thread), so a search that *runs to completion*
//! proves the same optimum at every thread count. MWD pins strict
//! equality of the proof, the objective and the wavelength count. VOPD
//! and MPEG are proven optimal within the default budget too; their test
//! pins the *anytime* contract, which still has to hold if a slow host
//! cuts a search short: every thread count returns a feasible incumbent
//! no worse than the heuristic warm start, and strict equality whenever
//! both searches complete.
//!
//! Completed searches additionally pin the exact solution *vector*, not
//! just its objective: the solver re-derives a proven optimum with a
//! canonical serial polish pass, so tied optima cannot make the
//! answer depend on worker timing. The edited-VOPD regression below is
//! the graph that originally exposed that dependence.

use sring::core::{design_bytes, AssignmentStrategy, MilpOptions, SringConfig, SringSynthesizer};
use sring::graph::benchmarks::Benchmark;
use sring::graph::{CommDelta, NodeId, StableMessageId};
use sring::units::TechnologyParameters;
use std::time::Duration;

fn config(strategy: AssignmentStrategy) -> SringConfig {
    SringConfig {
        strategy,
        tech: TechnologyParameters::default(),
        ..SringConfig::default()
    }
}

fn milp_config(threads: usize, time_limit: Duration) -> SringConfig {
    config(AssignmentStrategy::Milp(MilpOptions {
        time_limit,
        threads,
        ..MilpOptions::default()
    }))
}

#[test]
fn parallel_milp_matches_serial_on_mwd() {
    // MWD's search completes in ~1 s, so the deterministic-mode guarantee
    // applies in full.
    let app = Benchmark::Mwd.graph();
    let budget = Duration::from_secs(60);
    let serial = SringSynthesizer::with_config(milp_config(1, budget))
        .synthesize_detailed(&app)
        .expect("serial MWD synthesizes");
    assert!(
        serial.assignment.proven_optimal,
        "MWD must be solved to optimality within the budget"
    );
    for threads in [2, 4] {
        let parallel = SringSynthesizer::with_config(milp_config(threads, budget))
            .synthesize_detailed(&app)
            .expect("parallel MWD synthesizes");
        assert!(parallel.assignment.proven_optimal, "{threads} threads");
        assert!(
            (serial.assignment.objective - parallel.assignment.objective).abs() < 1e-9,
            "serial {} vs {}-thread {}",
            serial.assignment.objective,
            threads,
            parallel.assignment.objective
        );
        assert_eq!(
            serial.assignment.wavelength_count,
            parallel.assignment.wavelength_count
        );
        // Completed deterministic searches agree on the vector, not just
        // the objective: the canonical polish pass makes the tied-optimum
        // choice a pure function of the model.
        assert_eq!(
            serial.assignment.wavelengths, parallel.assignment.wavelengths,
            "{threads}-thread wavelength vector diverged from serial"
        );
        assert_eq!(
            design_bytes(&serial.design),
            design_bytes(&parallel.design),
            "{threads}-thread design bytes diverged from serial"
        );
    }
}

/// Regression: this edited VOPD graph has tied optimal assignments, and
/// before the canonical polish pass the parallel search returned
/// whichever tie a worker landed on first — different from serial *and*
/// different run to run. Both comparisons must now hold byte-for-byte.
#[test]
fn parallel_milp_is_vector_deterministic_on_tied_optima() {
    let app = Benchmark::Vopd.graph();
    let deltas = [
        CommDelta::Retarget {
            id: StableMessageId(0),
            src: NodeId(0),
            dst: NodeId(3),
        },
        CommDelta::AddMessage {
            src: NodeId(1),
            dst: NodeId(9),
            bandwidth: 2.0,
        },
    ];
    let edited = app.apply_deltas(&deltas).expect("deltas apply");
    let budget = Duration::from_secs(60);
    let serial = SringSynthesizer::with_config(milp_config(1, budget))
        .synthesize_detailed(&edited)
        .expect("serial edited VOPD synthesizes");
    for round in 0..2 {
        let parallel = SringSynthesizer::with_config(milp_config(8, budget))
            .synthesize_detailed(&edited)
            .expect("parallel edited VOPD synthesizes");
        assert_eq!(
            serial.assignment.wavelengths, parallel.assignment.wavelengths,
            "round {round}: 8-thread run diverged from serial on a tied optimum"
        );
        assert_eq!(
            design_bytes(&serial.design),
            design_bytes(&parallel.design),
            "round {round}: design bytes diverged"
        );
    }
}

#[test]
fn parallel_milp_keeps_anytime_contract_on_vopd_and_mpeg() {
    // Whether or not a search finishes within the budget, every thread
    // count must return a valid incumbent at least as good as the
    // heuristic warm start.
    let budget = Duration::from_secs(4);
    for b in [Benchmark::Vopd, Benchmark::Mpeg] {
        let app = b.graph();
        let heuristic = SringSynthesizer::with_config(config(AssignmentStrategy::Heuristic))
            .synthesize_detailed(&app)
            .unwrap_or_else(|e| panic!("heuristic {b}: {e}"));
        let serial = SringSynthesizer::with_config(milp_config(1, budget))
            .synthesize_detailed(&app)
            .unwrap_or_else(|e| panic!("serial {b}: {e}"));
        for threads in [2, 4] {
            let parallel = SringSynthesizer::with_config(milp_config(threads, budget))
                .synthesize_detailed(&app)
                .unwrap_or_else(|e| panic!("{threads}-thread {b}: {e}"));
            assert!(
                parallel.assignment.objective <= heuristic.assignment.objective + 1e-9,
                "{b}: {threads}-thread incumbent {} worse than heuristic {}",
                parallel.assignment.objective,
                heuristic.assignment.objective
            );
            // Strict equality is guaranteed whenever both searches ran to
            // completion (deterministic shared-pool mode).
            if serial.assignment.proven_optimal && parallel.assignment.proven_optimal {
                assert!(
                    (serial.assignment.objective - parallel.assignment.objective).abs() < 1e-9,
                    "{b}: completed searches disagree"
                );
            }
        }
    }
}
