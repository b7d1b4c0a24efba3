//! Per-iteration diagnostics: what the tuner did and how long each stage took.
//!
//! These power three artefacts of the paper's evaluation:
//! Figure 8 (per-iteration computation time), Table A1 (stage-level time breakdown) and
//! Figure 13 (selected model, subspace distance from the default, safety-set size).

use serde::Serialize;

/// Wall-clock timings of the OnlineTune suggest stages for one iteration, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct StageTimings {
    /// Selecting the per-cluster model for the observed context (SVM routing).
    pub model_selection_s: f64,
    /// Adapting the configuration subspace.
    pub subspace_adaptation_s: f64,
    /// Black-box + white-box safety assessment over the discretized candidates.
    pub safety_assessment_s: f64,
    /// Candidate selection (UCB / boundary exploration).
    pub candidate_selection_s: f64,
}

impl StageTimings {
    /// Total time of the suggest stages for the iteration. The model update happens
    /// in `observe`, which callers time themselves (see the `fig8_overhead` binary).
    pub fn total_s(&self) -> f64 {
        self.model_selection_s
            + self.subspace_adaptation_s
            + self.safety_assessment_s
            + self.candidate_selection_s
    }
}

/// Everything the tuner can report about one iteration.
#[derive(Debug, Clone, Default, Serialize)]
pub struct IterationDiagnostics {
    /// Iteration counter (1-based, incremented per suggestion).
    pub iteration: usize,
    /// Index of the per-cluster model selected for the context.
    pub selected_model: usize,
    /// Number of per-cluster models currently maintained.
    pub n_models: usize,
    /// Number of times the clustering has been re-learned so far.
    pub recluster_count: usize,
    /// Hypercube radius, when the current subspace is a hypercube.
    pub subspace_radius: Option<f64>,
    /// Whether the current subspace is a line region.
    pub subspace_is_line: bool,
    /// L2 distance (normalized space) between the subspace centre and the initial (default)
    /// configuration — the quantity plotted in Figure 13 (left).
    pub center_distance_from_default: f64,
    /// L2 distance between the recommended configuration and the initial configuration.
    pub recommendation_distance_from_default: f64,
    /// Number of candidates produced by discretizing the subspace.
    pub candidates_total: usize,
    /// Number of candidates that passed both safety checks (the safety-set size of
    /// Figure 13, right).
    pub safety_set_size: usize,
    /// Candidates rejected by the black-box (GP lower bound) check.
    pub blackbox_rejections: usize,
    /// Candidates rejected by the white-box rules.
    pub whitebox_rejections: usize,
    /// Name of the white-box rule that was ignored for this recommendation, if any.
    pub overridden_rule: Option<String>,
    /// Whether the tuner fell back to re-applying the best known configuration because the
    /// safety set was empty.
    pub fell_back_to_center: bool,
    /// Whether the recommendation came from the boundary-exploration branch.
    pub explored_boundary: bool,
    /// Stage timings.
    pub timings: StageTimings,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_time_is_the_sum_of_stages() {
        let t = StageTimings {
            model_selection_s: 0.01,
            subspace_adaptation_s: 0.02,
            safety_assessment_s: 0.03,
            candidate_selection_s: 0.04,
        };
        assert!((t.total_s() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn default_diagnostics_are_empty() {
        let d = IterationDiagnostics::default();
        assert_eq!(d.safety_set_size, 0);
        assert!(d.overridden_rule.is_none());
        assert_eq!(d.timings.total_s(), 0.0);
    }

    #[test]
    fn diagnostics_serialize_to_json() {
        let d = IterationDiagnostics {
            iteration: 3,
            selected_model: 1,
            ..Default::default()
        };
        let json = serde_json::to_string(&d).unwrap();
        assert!(json.contains("\"iteration\":3"));
        assert!(json.contains("\"selected_model\":1"));
    }
}
