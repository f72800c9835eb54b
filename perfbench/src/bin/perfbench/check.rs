//! Independent correctness checks on a synthesized design, run outside
//! the timed region.

use onoc_graph::CommGraph;
use onoc_photonics::RouterDesign;
use onoc_sim::{simulate, SimConfig, TransmissionSchedule};
use onoc_units::TechnologyParameters;
use sring_core::design_bytes;
use sring_perfbench::reference::{design_hash, PaperRef};

/// Bits per message in the all-at-once replay.
const REPLAY_BITS: usize = 1024;

/// Validates `design` against `app`, replays every message at once and
/// returns the design's identity hash and Table I quality.
pub fn design(app: &CommGraph, design: &RouterDesign) -> Result<PaperRef, String> {
    design
        .validate_against(app)
        .map_err(|e| format!("{}: invalid design: {e}", app.name()))?;
    let schedule = TransmissionSchedule::all_at_once(design, REPLAY_BITS);
    let sim = simulate(design, &schedule, &SimConfig::default());
    if sim.collisions != 0 || sim.delivered != app.message_count() {
        return Err(format!(
            "{}: replay had {} collisions and delivered {} of {} messages",
            app.name(),
            sim.collisions,
            sim.delivered,
            app.message_count()
        ));
    }
    let analysis = design.analyze(&TechnologyParameters::default());
    Ok(PaperRef {
        hash: design_hash(&design_bytes(design)),
        laser_mw: analysis.total_laser_power.0,
        wavelengths: analysis.wavelength_count as u64,
    })
}
