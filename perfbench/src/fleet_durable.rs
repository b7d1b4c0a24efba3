//! `fleet-durable`: 64 tenants over the six workload families under `DurableFleet`.
//!
//! Why: most of the work goes to the fleet round (scheduler, parallel tenant chunks,
//! knowledge merge) and the durable commit (serialize, digest, WAL); per-model GP work
//! is small (`small_tuner_options`, 40 candidates). Layers isolated: `fleet` and the
//! commit path. A change confined to the single-session suggest path reads as a weak
//! move here; a change to the commit path reads here first.
//!
//! The tenants run under `DurableFleet` (canonical-snapshot digest + WAL append every
//! round, snapshot every `snapshot_interval`) while a scripted `Scenario` of drift,
//! hardware resize, data scaling and tenant churn fires at fixed rounds. A closed loop
//! with the round as the barrier; `FleetOptions::workers` is the machine's CPU count.
//!
//! The traced run mirrors `DurableFleet::run_round` through its public calls
//! (`Scenario::due_at`, `ScenarioEvent::apply`, `FleetService::run_round`,
//! `canonical_snapshot_json`, `fnv1a64`, `WriteAheadLog::append`/`clear`) so the commit
//! can be split into serialize, digest and WAL; the final digest proves the mirror
//! equals `DurableFleet`.

use crate::measure::{ms_since, ratio, ChurnTotals, Ledger, Unit};
use fleet::scenario::{Scenario, ScenarioEvent};
use fleet::service::{small_tuner_options, FleetOptions, FleetService};
use fleet::tenant::{TenantSpec, WorkloadDrift, WorkloadFamily};
use fleet::wal::{fnv1a64, WriteAheadLog, FRAME_LEN};
use fleet::{DurableFleet, DurableOptions};
use simdb::HardwareSpec;
use std::collections::BTreeMap;
use std::time::Instant;
use telemetry::{CounterId, TelemetryHandle};

/// Tenants in the fleet at the start.
pub const TENANTS: usize = 64;
/// Durable rounds per unit. Not a multiple of the snapshot interval, so the WAL holds
/// committed rounds at the end for the crash/recover check.
pub const ROUNDS: usize = 102;

fn tenant_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(7_000 + i as u64)
}

fn initial_tenants(seed: u64) -> Vec<TenantSpec> {
    (0..TENANTS)
        .map(|i| {
            let family = WorkloadFamily::ALL[i % WorkloadFamily::ALL.len()];
            TenantSpec::named(format!("t{i}"), family, tenant_seed(seed, i))
        })
        .collect()
}

/// The scripted timeline: drift, resize, data scaling and churn at fixed rounds.
fn scenario(seed: u64) -> Scenario {
    let specs = initial_tenants(seed);
    Scenario::new("fleet-durable")
        .at(
            10,
            ScenarioEvent::Drift {
                tenant: "t3".into(),
                drift: WorkloadDrift::RateRamp {
                    start: 0,
                    over: 30,
                    from_scale: 1.0,
                    to_scale: 1.6,
                },
            },
        )
        .at(
            20,
            ScenarioEvent::Resize {
                tenant: "t5".into(),
                hardware: HardwareSpec::default().scaled(2.0),
            },
        )
        .at(
            30,
            ScenarioEvent::ScaleData {
                tenant: "t7".into(),
                factor: 1.5,
            },
        )
        .at(
            40,
            ScenarioEvent::Drift {
                tenant: "t0".into(),
                drift: WorkloadDrift::FamilySwitch {
                    at: 0,
                    to: WorkloadFamily::Job,
                },
            },
        )
        .at(
            50,
            ScenarioEvent::Remove {
                tenant: "t11".into(),
            },
        )
        .at(
            55,
            ScenarioEvent::Remove {
                tenant: "t22".into(),
            },
        )
        .at(
            60,
            ScenarioEvent::Admit {
                spec: specs[11].clone(),
            },
        )
        .at(
            65,
            ScenarioEvent::Migrate {
                tenant: "t13".into(),
                hardware: HardwareSpec::default().scaled(0.5),
            },
        )
        .at(
            75,
            ScenarioEvent::Admit {
                spec: TenantSpec::named("n0", WorkloadFamily::Ycsb, tenant_seed(seed, TENANTS)),
            },
        )
        .at(
            85,
            ScenarioEvent::ScaleData {
                tenant: "t29".into(),
                factor: 0.7,
            },
        )
        .at(
            95,
            ScenarioEvent::Drift {
                tenant: "t31".into(),
                drift: WorkloadDrift::FamilySwitch {
                    at: 0,
                    to: WorkloadFamily::Twitter,
                },
            },
        )
}

fn service(seed: u64, workers: usize, telemetry: &TelemetryHandle) -> FleetService {
    let mut svc = FleetService::new(FleetOptions {
        workers,
        tuner: small_tuner_options(),
        ..Default::default()
    });
    svc.set_telemetry(telemetry.clone());
    for spec in initial_tenants(seed) {
        svc.admit(spec).expect("the initial tenants are admissible");
    }
    svc
}

fn finish(unit: &mut Unit, totals: &ChurnTotals, json: &str) {
    let (iterations, unsafe_count, regret) = totals.totals();
    unit.findings.push(format!(
        "fleet-durable: {unsafe_count} unsafe of {iterations} tenant iterations; snapshot \
         {:.1} MB after {ROUNDS} rounds",
        json.len() as f64 / 1e6
    ));
    unit.iterations = iterations;
    unit.offered = iterations;
    unit.served = iterations;
    unit.unsafe_count = unsafe_count;
    unit.regret = regret;
    unit.state_bytes = json.len();
    unit.digest = fnv1a64(json.as_bytes());
}

/// Times the set-up alone (service, admissions, scenario, genesis snapshot).
pub fn setup_only(seed: u64, workers: usize) -> f64 {
    let t = Instant::now();
    let fleet = DurableFleet::new(
        service(seed, workers, &TelemetryHandle::disabled()),
        scenario(seed),
        DurableOptions::default(),
    );
    let s = t.elapsed().as_secs_f64();
    drop(fleet);
    s
}

/// Runs one unit. The untraced unit drives `DurableFleet` itself and, when `recover`
/// is set, ends with a crash that tears the WAL tail followed by a bit-identical
/// `DurableFleet::recover`; the traced unit mirrors `DurableFleet::run_round`.
pub fn run(seed: u64, workers: usize, traced: bool, recover: bool) -> Unit {
    let mut unit = Unit {
        ledger: Ledger::new(traced),
        ..Default::default()
    };
    let telemetry = if traced {
        TelemetryHandle::enabled()
    } else {
        TelemetryHandle::disabled()
    };
    let options = DurableOptions::default();
    let mut totals = ChurnTotals::default();

    if !traced {
        let t_setup = Instant::now();
        let mut fleet =
            DurableFleet::new(service(seed, workers, &telemetry), scenario(seed), options);
        unit.setup_s = t_setup.elapsed().as_secs_f64();
        let t_wall = Instant::now();
        for _ in 0..ROUNDS {
            let t = Instant::now();
            let iterations = fleet
                .run_round()
                .expect("scenario events name live tenants");
            let ms = ms_since(t);
            unit.round_ms.push(ms);
            unit.req_ms.extend(std::iter::repeat_n(ms, iterations));
            totals.observe_fleet(fleet.service());
        }
        unit.wall_s = t_wall.elapsed().as_secs_f64();
        let json = fleet.service().canonical_snapshot_json();
        finish(&mut unit, &totals, &json);
        if recover {
            let ok = crash_and_recover(&fleet, seed, options, &json);
            unit.check("fleet-durable: torn-WAL crash recovers bit-identically", ok);
        }
        return unit;
    }

    let t_setup = Instant::now();
    let mut svc = service(seed, workers, &telemetry);
    let scenario = scenario(seed);
    let mut wal = WriteAheadLog::new();
    let mut snapshot_json = svc.canonical_snapshot_json();
    let mut rounds_since_snapshot = 0usize;
    unit.setup_s = t_setup.elapsed().as_secs_f64();

    let ledger = &mut unit.ledger;
    let t_wall = Instant::now();
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let round = svc.rounds();
        for step in scenario.due_at(round) {
            ledger
                .time("fleet.scenario_apply", || step.event.apply(&mut svc))
                .expect("scenario events name live tenants");
        }
        let iterations = ledger.time("fleet.round", || svc.run_round());
        let json = ledger.time("commit.serialize", || svc.canonical_snapshot_json());
        let digest = ledger.time("commit.digest", || fnv1a64(json.as_bytes()));
        ledger.time("commit.wal", || {
            wal.append(svc.rounds() as u64, digest);
            svc.telemetry().incr(CounterId::WalAppends);
            rounds_since_snapshot += 1;
            if rounds_since_snapshot >= options.snapshot_interval.max(1) {
                // Held like `DurableFleet` holds its periodic snapshot.
                snapshot_json = json;
                rounds_since_snapshot = 0;
                wal.clear();
            }
        });
        let ms = ms_since(t);
        unit.round_ms.push(ms);
        unit.req_ms.extend(std::iter::repeat_n(ms, iterations));
        totals.observe_fleet(&svc);
    }
    unit.wall_s = t_wall.elapsed().as_secs_f64();
    drop(snapshot_json);

    let json = svc.canonical_snapshot_json();
    finish(&mut unit, &totals, &json);
    let observations: usize = svc
        .sessions()
        .iter()
        .map(|s| s.model_observation_counts().iter().sum::<usize>())
        .sum();
    let l = &unit.ledger;
    let commit_ms: f64 = ["commit.serialize", "commit.digest", "commit.wal"]
        .iter()
        .map(|c| l.total_ms(c))
        .sum();
    let round_ms = l.mean_ms("fleet.round");
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    layer.insert(
        "commit.bytes_per_obs",
        ratio(json.len() as f64, observations as f64),
    );
    layer.insert("fleet.round_ms", round_ms);
    layer.insert("fleet.scenario_apply_ms", l.mean_ms("fleet.scenario_apply"));
    layer.insert("commit.serialize_ms", l.mean_ms("commit.serialize"));
    layer.insert("commit.digest_ms", l.mean_ms("commit.digest"));
    layer.insert("commit.wal_ms", l.mean_ms("commit.wal"));
    layer.insert("commit.share", ratio(commit_ms, unit.round_ms.iter().sum()));
    let snap = svc.metrics_snapshot();
    crate::layers::work_counts(&snap, &mut layer);
    crate::layers::tenant_tuner_times(&snap, &mut layer);
    unit.layer = layer;
    unit.findings.push(format!(
        "commit (serialize + digest + WAL) averages {:.1} ms per round against {:.1} ms for \
         the round it commits ({:.2}x); final snapshot {:.1} MB",
        commit_ms / ROUNDS as f64,
        round_ms,
        ratio(commit_ms / ROUNDS as f64, round_ms),
        unit.state_bytes as f64 / 1e6
    ));
    unit
}

/// Crashes `fleet` with half a WAL frame torn off its tail, recovers, drives the
/// recovered fleet back to the horizon and compares the canonical snapshot bytes.
fn crash_and_recover(fleet: &DurableFleet, seed: u64, options: DurableOptions, json: &str) -> bool {
    let storage = fleet.crash(FRAME_LEN / 2);
    let recovered = DurableFleet::recover(
        &storage,
        scenario(seed),
        options,
        TelemetryHandle::disabled(),
    );
    match recovered {
        Ok((mut recovered, report)) => {
            let remaining = ROUNDS - recovered.service().rounds();
            if report.torn_bytes == 0 || recovered.run_rounds(remaining).is_err() {
                return false;
            }
            recovered.service().canonical_snapshot_json() == json
        }
        Err(err) => {
            eprintln!("fleet-durable: recovery failed: {err}");
            false
        }
    }
}
