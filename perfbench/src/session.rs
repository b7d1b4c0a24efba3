//! `session-dynamic`: the paper's single-instance online loop.
//!
//! Why: `onlinetune`, `gp`, `linalg` and `mlkit` do nearly all of the work here; the
//! periodic hyperopt (every 20 updates) and re-clustering make the iteration tail.
//! Layer isolated: the tuner itself (suggest and observe). `fleet`, the durable commit
//! and the serving front end are idle, so a change to them must read "no change" here.
//!
//! One `OnlineTune` with default options (220 subspace candidates) drives one
//! `SimDatabase` through featurize → peek → suggest → apply/run_interval → observe —
//! the calls `bench::run_session` makes — first on Twitter-dynamic (OLTP, throughput
//! objective), then on JOB-dynamic (OLAP, latency objective). A closed loop with one
//! client, single-threaded. The 1200-iteration horizon reaches past the point (about
//! iteration 520) where the Twitter session locks into unsafe recommendations; stopping
//! earlier would hide that defect.

use crate::measure::{ms_since, quantile, ratio, Ledger, Unit};
use featurize::ContextFeaturizer;
use fleet::wal::fnv1a64;
use onlinetune::{OnlineTune, OnlineTuneOptions};
use simdb::SimDatabase;
use simdb::{Configuration, HardwareSpec, InternalMetrics, KnobCatalogue, OptimizerStats};
use std::collections::BTreeMap;
use std::time::Instant;
use telemetry::{CounterId, TelemetryHandle};
use workloads::job::JobWorkload;
use workloads::twitter::TwitterWorkload;
use workloads::WorkloadGenerator;

/// Tuning iterations per phase (Twitter-dynamic, then JOB-dynamic).
pub const ITERATIONS: usize = 1200;
/// Simulated interval length, seconds (the paper's 180 s).
const INTERVAL_S: f64 = 180.0;
/// Relative tolerance of the unsafe classification (as in `bench::run_session`).
const UNSAFE_TOLERANCE: f64 = 0.05;
/// Iterations per block of the unsafe-per-block finding.
const BLOCK: usize = 100;

/// One phase: a generator, its instance and its tuner.
struct Phase {
    generator: Box<dyn WorkloadGenerator>,
    db: SimDatabase,
    tuner: OnlineTune,
    reference: Configuration,
}

fn build_phase(
    generator: Box<dyn WorkloadGenerator>,
    catalogue: &KnobCatalogue,
    featurizer: &ContextFeaturizer,
    seed: u64,
    telemetry: &TelemetryHandle,
) -> Phase {
    let mut db = SimDatabase::with_catalogue(catalogue.clone(), HardwareSpec::default(), seed);
    db.set_data_size(generator.initial_data_size_gib());
    let reference = Configuration::dba_default(catalogue);
    let mut tuner = OnlineTune::new(
        catalogue.clone(),
        HardwareSpec::default(),
        featurizer.dim(),
        &reference,
        OnlineTuneOptions::default(),
        seed.wrapping_add(135),
    );
    tuner.set_telemetry(telemetry.clone());
    // Seed the tuner with one observation of the reference configuration, exactly as
    // `bench::run_session` does for every tuner.
    let objective = generator.objective();
    let spec0 = generator.spec_at(0);
    let queries0 = generator.sample_queries(0, 30);
    let mut sized = spec0.clone();
    sized.data_size_gib = db.data_size_gib().unwrap_or(spec0.data_size_gib);
    let context0 = featurizer.featurize(
        &queries0,
        spec0.arrival_rate_qps,
        &OptimizerStats::estimate(&sized),
    );
    let score0 = objective.score(&db.peek(&reference, &spec0));
    tuner
        .observe(
            &context0,
            &reference,
            score0,
            Some(&InternalMetrics::zeroed()),
            true,
        )
        .expect("the reference measurement is finite");
    Phase {
        generator,
        db,
        tuner,
        reference,
    }
}

/// Quality and timing totals of one phase.
#[derive(Default)]
struct PhaseTotals {
    unsafe_count: usize,
    regret: f64,
    improvement: f64,
    reference_abs: f64,
    unsafe_per_block: Vec<usize>,
    /// Tuner time (suggest + observe) per iteration, ms.
    tuner_ms: Vec<f64>,
}

fn run_phase(
    phase: &mut Phase,
    featurizer: &ContextFeaturizer,
    ledger: &mut Ledger,
    round_ms: &mut Vec<f64>,
    totals: &mut PhaseTotals,
) {
    let objective = phase.generator.objective();
    for iteration in 0..ITERATIONS {
        let t_round = Instant::now();
        let generator = phase.generator.as_ref();
        let db = &mut phase.db;
        let (spec, context) = ledger.time("featurize.context", || {
            let spec = generator.spec_at(iteration);
            let queries = generator.sample_queries(iteration, 30);
            let mut sized = spec.clone();
            sized.data_size_gib = db.data_size_gib().unwrap_or(spec.data_size_gib);
            let stats = OptimizerStats::estimate(&sized);
            let context = featurizer.featurize(&queries, spec.arrival_rate_qps, &stats);
            (spec, context)
        });
        let reference = &phase.reference;
        let reference_score =
            ledger.time("simdb.peek", || objective.score(&db.peek(reference, &spec)));

        let t = Instant::now();
        let config = phase
            .tuner
            .suggest(&context, reference_score, spec.clients)
            .config;
        let suggest_ms = ms_since(t);
        ledger.charge("onlinetune.suggest", suggest_ms);

        let eval = ledger.time("simdb.interval", || {
            db.apply_config(&config);
            db.run_interval(&spec, INTERVAL_S)
        });
        let score = objective.score(&eval.outcome);
        let tolerance = UNSAFE_TOLERANCE * reference_score.abs();
        let is_unsafe = eval.outcome.failed || score < reference_score - tolerance;

        let hyperopt_before = phase.tuner.telemetry().counter(CounterId::HyperoptRuns);
        let reclusters_before = phase.tuner.recluster_count();
        let t = Instant::now();
        phase
            .tuner
            .observe(&context, &config, score, Some(&eval.metrics), !is_unsafe)
            .expect("simulated measurements are finite");
        let observe_ms = ms_since(t);
        if ledger.enabled() {
            // Split observe by which work counter advanced during the call.
            let layer = if phase.tuner.recluster_count() != reclusters_before {
                "onlinetune.observe_recluster"
            } else if phase.tuner.telemetry().counter(CounterId::HyperoptRuns) != hyperopt_before {
                "onlinetune.observe_hyperopt"
            } else {
                "onlinetune.observe_update"
            };
            ledger.charge(layer, observe_ms);
        }

        totals.tuner_ms.push(suggest_ms + observe_ms);
        if totals.unsafe_per_block.len() <= iteration / BLOCK {
            totals.unsafe_per_block.push(0);
        }
        if is_unsafe {
            totals.unsafe_count += 1;
            totals.unsafe_per_block[iteration / BLOCK] += 1;
        }
        totals.regret += (reference_score - score).max(0.0);
        totals.improvement += score - reference_score;
        totals.reference_abs += reference_score.abs();
        round_ms.push(ms_since(t_round));
    }
}

fn build_phases(seed: u64, telemetry: &TelemetryHandle) -> (ContextFeaturizer, [Phase; 2]) {
    let catalogue = KnobCatalogue::mysql57();
    let featurizer = ContextFeaturizer::with_defaults();
    let phases = [
        build_phase(
            Box::new(TwitterWorkload::new_dynamic(seed.wrapping_mul(2) + 61)),
            &catalogue,
            &featurizer,
            seed.wrapping_mul(2) + 15,
            telemetry,
        ),
        build_phase(
            Box::new(JobWorkload::new_dynamic(seed.wrapping_mul(2) + 62)),
            &catalogue,
            &featurizer,
            seed.wrapping_mul(2) + 16,
            telemetry,
        ),
    ];
    (featurizer, phases)
}

/// Times the set-up alone.
pub fn setup_only(seed: u64) -> f64 {
    let t = Instant::now();
    let built = build_phases(seed, &TelemetryHandle::disabled());
    let s = t.elapsed().as_secs_f64();
    drop(built);
    s
}

/// Runs one unit: Twitter-dynamic then JOB-dynamic, each for [`ITERATIONS`].
pub fn run(seed: u64, traced: bool) -> Unit {
    let mut unit = Unit {
        ledger: Ledger::new(traced),
        ..Default::default()
    };
    let telemetry = if traced {
        TelemetryHandle::enabled()
    } else {
        TelemetryHandle::disabled()
    };

    let t_setup = Instant::now();
    let (featurizer, mut phases) = build_phases(seed, &telemetry);
    unit.setup_s = t_setup.elapsed().as_secs_f64();

    let t_wall = Instant::now();
    let mut all = PhaseTotals::default();
    for phase in &mut phases {
        let mut totals = PhaseTotals::default();
        run_phase(
            phase,
            &featurizer,
            &mut unit.ledger,
            &mut unit.round_ms,
            &mut totals,
        );
        unit.findings.push(format!(
            "{}: unsafe {} of {ITERATIONS}; per {BLOCK} iterations {:?}; cumulative \
             improvement {:.2} % of the default",
            phase.generator.name(),
            totals.unsafe_count,
            totals.unsafe_per_block,
            100.0 * ratio(totals.improvement, totals.reference_abs)
        ));
        all.unsafe_count += totals.unsafe_count;
        all.regret += totals.regret;
        all.improvement += totals.improvement;
        all.reference_abs += totals.reference_abs;
        all.tuner_ms.extend(totals.tuner_ms);
    }
    unit.wall_s = t_wall.elapsed().as_secs_f64();

    unit.iterations = 2 * ITERATIONS;
    unit.offered = unit.iterations;
    unit.served = unit.iterations;
    unit.req_ms = all.tuner_ms;
    unit.unsafe_count = all.unsafe_count;
    unit.regret = all.regret;

    // Canonical final state: both tuners' and both instances' snapshots.
    let mut state = String::new();
    for phase in &phases {
        state.push_str(&serde_json::to_string(&phase.tuner.snapshot()).expect("tuner state"));
        state.push_str(&serde_json::to_string(&phase.db.snapshot()).expect("instance state"));
    }
    unit.state_bytes = state.len();
    unit.digest = fnv1a64(state.as_bytes());

    if traced {
        let l = &unit.ledger;
        let suggest = l.calls_ms("onlinetune.suggest");
        let mut layer = BTreeMap::new();
        layer.insert("featurize.context_ms", l.mean_ms("featurize.context"));
        layer.insert("simdb.peek_ms", l.mean_ms("simdb.peek"));
        layer.insert("simdb.interval_ms", l.mean_ms("simdb.interval"));
        layer.insert("onlinetune.suggest_p50_ms", quantile(suggest, 0.5));
        layer.insert("onlinetune.suggest_p99_ms", quantile(suggest, 0.99));
        layer.insert(
            "onlinetune.observe_update_ms",
            l.mean_ms("onlinetune.observe_update"),
        );
        layer.insert(
            "onlinetune.observe_hyperopt_ms",
            l.mean_ms("onlinetune.observe_hyperopt"),
        );
        layer.insert(
            "onlinetune.observe_recluster_ms",
            l.mean_ms("onlinetune.observe_recluster"),
        );
        layer.insert(
            "quality.cum_improvement_pct",
            100.0 * ratio(all.improvement, all.reference_abs),
        );
        crate::layers::work_counts(&telemetry.snapshot(), &mut layer);
        unit.layer = layer;
    }
    unit
}
