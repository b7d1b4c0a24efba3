//! The metric tables the benchmark reports, and the work counts it reads from the
//! telemetry export the program already has.

use crate::measure::ratio;
use std::collections::BTreeMap;
use telemetry::{CounterId, MetricsSnapshot, SpanId};

/// End-to-end metrics `(name, unit)`, printed by every workload's untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("iter_per_s", "1/s"),
    ("round_p50_ms", "ms"),
    ("round_p90_ms", "ms"),
    ("req_p50_ms", "ms"),
    ("req_p90_ms", "ms"),
    ("req_served_frac", "ratio"),
    ("snapshot_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by every workload's traced run. A layer the
/// workload leaves idle reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("featurize.context_ms", "ms"),
    ("simdb.peek_ms", "ms"),
    ("simdb.interval_ms", "ms"),
    ("onlinetune.suggest_p50_ms", "ms"),
    ("onlinetune.suggest_p99_ms", "ms"),
    ("onlinetune.observe_update_ms", "ms"),
    ("onlinetune.observe_hyperopt_ms", "ms"),
    ("onlinetune.observe_recluster_ms", "ms"),
    ("fleet.round_ms", "ms"),
    ("fleet.scenario_apply_ms", "ms"),
    ("commit.serialize_ms", "ms"),
    ("commit.digest_ms", "ms"),
    ("commit.wal_ms", "ms"),
    ("commit.share", "ratio"),
    ("commit.bytes_per_obs", "B"),
    ("serve.submit_us", "us"),
    ("serve.run_round_ms", "ms"),
    ("serve.queue_depth_mean", "count"),
    ("serve.sojourn_rounds_p95", "rounds"),
    ("serve.shed", "count"),
    ("serve.deadline_misses", "count"),
    ("serve.tier_changes", "count"),
    ("serve.req_fail_frac", "ratio"),
    ("telemetry.export_ms", "ms"),
    ("gp.hyperopt_runs", "count"),
    ("gp.hyperopt_useful_ratio", "ratio"),
    ("gp.fast_path_ratio", "ratio"),
    ("gp.budget_evictions", "count"),
    ("mlkit.reclusters", "count"),
    ("onlinetune.fallback_ratio", "ratio"),
    ("onlinetune.blackbox_reject_ratio", "1/suggest"),
    ("onlinetune.whitebox_reject_ratio", "1/suggest"),
    ("fleet.kb_warm_start_hits", "count"),
    ("quality.unsafe_rate", "ratio"),
    ("quality.regret_per_iter", "score"),
    ("quality.cum_improvement_pct", "%"),
    ("session.iter_p99_ms", "ms"),
    ("ledger.coverage_pct", "%"),
    ("trace_overhead_pct", "%"),
];

/// Work counts and useful ratios from a merged telemetry snapshot. Ratios per suggest
/// use the suggest-span count as the denominator.
pub fn work_counts(snap: &MetricsSnapshot, layer: &mut BTreeMap<&'static str, f64>) {
    let c = |id| snap.counter(id) as f64;
    let suggests = snap.histogram(SpanId::Suggest).count as f64;
    layer.insert("gp.hyperopt_runs", c(CounterId::HyperoptRuns));
    layer.insert(
        "gp.hyperopt_useful_ratio",
        ratio(c(CounterId::HyperoptImproved), c(CounterId::HyperoptRuns)),
    );
    layer.insert(
        "gp.fast_path_ratio",
        ratio(
            c(CounterId::ObserveFastPath),
            c(CounterId::ObserveFastPath) + c(CounterId::ObserveFullRefit),
        ),
    );
    layer.insert("gp.budget_evictions", c(CounterId::BudgetEvictions));
    layer.insert("mlkit.reclusters", c(CounterId::Reclusters));
    layer.insert(
        "onlinetune.fallback_ratio",
        ratio(c(CounterId::SafetyFallbacks), suggests),
    );
    layer.insert(
        "onlinetune.blackbox_reject_ratio",
        ratio(c(CounterId::BlackboxRejections), suggests),
    );
    layer.insert(
        "onlinetune.whitebox_reject_ratio",
        ratio(c(CounterId::WhiteboxRejections), suggests),
    );
    layer.insert("fleet.kb_warm_start_hits", c(CounterId::WarmStartHits));
}

/// Tuner timings of fleet tenants, which run inside `FleetService::run_round` and can
/// only be read from the telemetry span histograms: suggest quantiles, the observe
/// median as the plain update, and the mean hyperopt span as the refit cost.
/// Re-clustering is not separable there and reads 0.
pub fn tenant_tuner_times(snap: &MetricsSnapshot, layer: &mut BTreeMap<&'static str, f64>) {
    let suggest = snap.histogram(SpanId::Suggest);
    layer.insert("onlinetune.suggest_p50_ms", suggest.quantile_ms(0.5));
    layer.insert("onlinetune.suggest_p99_ms", suggest.quantile_ms(0.99));
    layer.insert(
        "onlinetune.observe_update_ms",
        snap.histogram(SpanId::Observe).quantile_ms(0.5),
    );
    layer.insert(
        "onlinetune.observe_hyperopt_ms",
        snap.histogram(SpanId::Hyperopt).mean_ms(),
    );
}
