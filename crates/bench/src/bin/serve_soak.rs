//! Serving soak gate: overload admission control, backpressure + degradation cycling,
//! and kill/recover bit-identity for the fleet's serving front end.
//!
//! Four legs, all deterministic (rounds, not wall clocks):
//!
//! 1. **Admission overload** — a fleet is offered twice its tenant ceiling. Every
//!    excess admission must come back as a typed `AdmissionDenied`, the queue must stay
//!    inside its bound, and exactly `max_tenants` tenants may be live at the end.
//! 2. **Degradation cycle** — a suggest storm saturates the queue for a sustained
//!    window: tiers must walk *down* the ladder monotonically while the pressure lasts
//!    and all the way back to full service during the quiet tail.
//! 3. **Kill/recover** — a mixed-traffic soak, part scripted and part sent through
//!    `FleetServer::submit` between rounds, is killed at several rounds right after
//!    its ad-hoc submissions (tearing the WAL tail), recovered from the surviving
//!    snapshot + WAL, and driven to the horizon. Every recovered final server snapshot
//!    — queue, shed counters, pressure windows and per-tenant degradation tiers
//!    included — must be bit-identical to the uninterrupted run's.
//! 4. **Soak metrics** — a longer overload soak measures throughput (requests
//!    dispatched per round), shed rate, and the p99 request sojourn (rounds from
//!    enqueue to dispatch) under saturation.
//!
//! Run with `cargo run --release -p bench --bin serve_soak [-- --smoke]`; full mode
//! writes `BENCH_serve.json` (committed), `--smoke` is the CI gate.

use bench::report::section;
use fleet::serve::{FleetServer, Request, Response, ServeOptions, TrafficScript};
use fleet::service::{small_tuner_options, FleetOptions, FleetService};
use fleet::tenant::{DegradationTier, TenantSpec, WorkloadFamily};
use fleet::wal::{WalRecord, WriteAheadLog};
use fleet::{DurableStorage, FleetError};
use std::collections::BTreeMap;
use telemetry::TelemetryHandle;

/// Horizon of the kill/recover soak (kill points land inside it).
const RECOVERY_HORIZON: usize = 14;
/// Kill rounds of the recovery leg (full mode; smoke uses the first two).
const KILL_ROUNDS: [usize; 4] = [3, 6, 9, 12];
/// Storm + tail horizon of the metrics soak.
const FULL_SOAK_ROUNDS: usize = 60;
const SMOKE_SOAK_ROUNDS: usize = 18;

fn spec(name: &str, seed: u64) -> TenantSpec {
    let family = WorkloadFamily::ALL[(seed as usize) % WorkloadFamily::ALL.len()];
    let mut spec = TenantSpec::named(name.to_string(), family, seed);
    spec.deterministic = true;
    spec
}

fn server(n_tenants: usize, options: ServeOptions, telemetry: TelemetryHandle) -> FleetServer {
    let mut svc = FleetService::new(FleetOptions {
        workers: 2,
        tuner: small_tuner_options(),
        ..Default::default()
    });
    svc.set_telemetry(telemetry);
    for i in 0..n_tenants {
        svc.admit(spec(&format!("tenant-{i}"), 9000 + i as u64))
            .expect("admission");
    }
    FleetServer::new(svc, options)
}

#[derive(Debug, serde::Serialize)]
struct AdmissionLegReport {
    ceiling: usize,
    offered: usize,
    admitted: usize,
    typed_rejections: usize,
    max_queue_depth: usize,
    final_tenants: usize,
}

/// Leg 1: offer the front end twice its tenant ceiling; every excess admission must be
/// a typed rejection and the queue must stay bounded.
fn admission_overload() -> AdmissionLegReport {
    let options = ServeOptions {
        max_tenants: 4,
        queue_capacity: 8,
        dispatch_per_round: 2,
        ..Default::default()
    };
    let initial = 2usize;
    let offered = options.max_tenants * 2;
    let mut script = TrafficScript::new("admission-overload");
    for i in 0..offered {
        script = script.at(
            i / 2,
            Request::Admit {
                spec: spec(&format!("joiner-{i}"), 9100 + i as u64),
            },
        );
    }
    let mut server = server(initial, options, TelemetryHandle::disabled());
    let mut admitted = 0usize;
    let mut rejections = 0usize;
    let mut max_queue_depth = 0usize;
    for _ in 0..offered {
        let report = server.run_round(&script);
        max_queue_depth = max_queue_depth.max(report.queue_depth);
        for (_, response) in &report.responses {
            match response {
                Response::Admitted { .. } => admitted += 1,
                Response::Denied {
                    error: FleetError::AdmissionDenied { .. },
                } => rejections += 1,
                _ => {}
            }
        }
    }
    AdmissionLegReport {
        ceiling: options.max_tenants,
        offered,
        admitted,
        typed_rejections: rejections,
        max_queue_depth,
        final_tenants: server.service().n_tenants(),
    }
}

#[derive(Debug, serde::Serialize)]
struct DegradationLegReport {
    storm_rounds: usize,
    deepest_tier: String,
    monotone_under_pressure: bool,
    recovered_to_full: bool,
    rounds_to_recover: usize,
}

/// Leg 2: sustained saturation must walk tiers down monotonically, and the quiet tail
/// must walk every tenant back to full service.
fn degradation_cycle() -> DegradationLegReport {
    let options = ServeOptions {
        queue_capacity: 2,
        dispatch_per_round: 1,
        deadline_rounds: 1,
        pressure_window: 2,
        recovery_window: 2,
        ..Default::default()
    };
    let storm_rounds = 10usize;
    let mut storm = TrafficScript::new("storm");
    for round in 0..storm_rounds {
        for _ in 0..4 {
            storm = storm.at(
                round,
                Request::Suggest {
                    tenant: "tenant-0".into(),
                },
            );
        }
    }
    let mut server = server(2, options, TelemetryHandle::disabled());
    let mut deepest = DegradationTier::Full;
    let mut previous = DegradationTier::Full;
    let mut monotone = true;
    for _ in 0..storm_rounds {
        server.run_round(&storm);
        let tier = server
            .service()
            .sessions()
            .iter()
            .map(|s| s.degradation())
            .max()
            .unwrap_or(DegradationTier::Full);
        if tier < previous {
            monotone = false;
        }
        previous = tier;
        deepest = deepest.max(tier);
    }
    let mut rounds_to_recover = 0usize;
    for round in 1..=40usize {
        server.run_round(&storm); // the storm script has no steps past storm_rounds
        if server.service().degraded_tenants() == 0 {
            rounds_to_recover = round;
            break;
        }
    }
    DegradationLegReport {
        storm_rounds,
        deepest_tier: deepest.label().to_string(),
        monotone_under_pressure: monotone,
        recovered_to_full: server.service().degraded_tenants() == 0,
        rounds_to_recover,
    }
}

/// The mixed traffic of the kill/recover leg: suggest pressure, telemetry reads, and
/// one mid-soak admission, against tight budgets. The script carries the reads and
/// two suggests a round; the third suggest and the admission are ad-hoc submissions
/// made between rounds (`adhoc[round]` goes in while the server stands at `round`),
/// so recovery must restore them from their logged records.
fn recovery_traffic() -> (TrafficScript, Vec<Vec<Request>>) {
    let mut script = TrafficScript::new("serve-recovery");
    let mut adhoc = vec![Vec::new(); RECOVERY_HORIZON];
    for (round, submissions) in adhoc.iter_mut().enumerate() {
        let suggest = Request::Suggest {
            tenant: format!("tenant-{}", round % 2),
        };
        script = script
            .at(round, Request::TelemetryRead)
            .at(round, suggest.clone())
            .at(round, suggest.clone());
        submissions.push(suggest);
    }
    adhoc[4].push(Request::Admit {
        spec: spec("joiner-mid", 9400),
    });
    (script, adhoc)
}

/// Drives `server` to `horizon`: at each round, sends that round's ad-hoc submissions
/// (skipping the first `skip` at the current round, already applied), then runs it.
fn drive(
    server: &mut FleetServer,
    (script, adhoc): &(TrafficScript, Vec<Vec<Request>>),
    mut skip: usize,
    horizon: usize,
) {
    for submissions in &adhoc[server.service().rounds()..horizon] {
        for request in &submissions[skip..] {
            // Refusals are part of the soak: they are logged and replayed like the rest.
            let _ = server.submit(request.clone());
        }
        skip = 0;
        server.run_round(script);
    }
}

/// Ad-hoc submissions whose records a tear cut off before `submit` returned (the
/// crash lost them, so their client re-sends them): the submission records that
/// directly follow the last surviving record.
fn lost_submissions(intact: &DurableStorage, torn: &DurableStorage) -> usize {
    let records = |storage: &DurableStorage| {
        WriteAheadLog::from_bytes(storage.wal_bytes.clone())
            .and_then(|wal| wal.scan())
            .map(|scan| scan.records)
            .unwrap_or_default()
    };
    let kept = records(torn).len();
    records(intact)
        .iter()
        .skip(kept)
        .take_while(|(_, r)| matches!(r, WalRecord::Submission(_)))
        .count()
}

fn recovery_options() -> ServeOptions {
    ServeOptions {
        max_tenants: 3,
        queue_capacity: 3,
        dispatch_per_round: 2,
        deadline_rounds: 2,
        pressure_window: 2,
        recovery_window: 3,
        snapshot_interval: 4,
        ..Default::default()
    }
}

#[derive(Debug, serde::Serialize)]
struct RecoveryLegReport {
    horizon: usize,
    kill_points: usize,
    bit_identical: usize,
    replayed_rounds_total: usize,
    torn_bytes_total: usize,
    reference_degraded_mid_soak: bool,
}

/// Leg 3: kill the soak at several rounds, recover, continue, compare final server
/// snapshot bytes (degradation tiers and overload accounting included).
fn kill_recover(kill_rounds: &[usize]) -> Result<RecoveryLegReport, String> {
    let traffic = recovery_traffic();
    let mut reference = server(2, recovery_options(), TelemetryHandle::disabled());
    let mut degraded_mid_soak = false;
    for round in 0..RECOVERY_HORIZON {
        drive(&mut reference, &traffic, 0, round + 1);
        degraded_mid_soak |= reference.service().degraded_tenants() > 0;
    }
    let reference_json = reference.canonical_server_json();

    let mut bit_identical = 0usize;
    let mut replayed_total = 0usize;
    let mut torn_total = 0usize;
    for &kill_round in kill_rounds {
        let mut victim = server(2, recovery_options(), TelemetryHandle::disabled());
        drive(&mut victim, &traffic, 0, kill_round);
        // The kill lands after this round's ad-hoc submissions, before its commit.
        for request in &traffic.1[kill_round] {
            let _ = victim.submit(request.clone());
        }
        // Vary the tear so clean cuts, torn frames and whole lost entries all occur.
        let storage = victim.crash((kill_round * 13) % 40);
        let (mut recovered, report) =
            FleetServer::recover(&storage, &traffic.0, TelemetryHandle::disabled())
                .map_err(|e| format!("kill at round {kill_round}: {e}"))?;
        replayed_total += report.replayed_rounds;
        torn_total += report.torn_bytes;
        // Every ad-hoc submission at the recovered round was made before the kill;
        // those the tear cut off are re-sent.
        let at = recovered.service().rounds();
        let skip = traffic.1[at].len() - lost_submissions(&victim.storage(), &storage);
        drive(&mut recovered, &traffic, skip, RECOVERY_HORIZON);
        if recovered.canonical_server_json() == reference_json {
            bit_identical += 1;
        } else {
            eprintln!("  DIVERGED: kill at round {kill_round} did not recover bit-identically");
        }
    }
    Ok(RecoveryLegReport {
        horizon: RECOVERY_HORIZON,
        kill_points: kill_rounds.len(),
        bit_identical,
        replayed_rounds_total: replayed_total,
        torn_bytes_total: torn_total,
        reference_degraded_mid_soak: degraded_mid_soak,
    })
}

#[derive(Debug, serde::Serialize)]
struct SoakMetricsReport {
    rounds: usize,
    requests_enqueued: u64,
    requests_dispatched: u64,
    requests_shed: u64,
    deadline_misses: u64,
    queue_rejections: u64,
    throughput_dispatched_per_round: f64,
    shed_rate: f64,
    p99_sojourn_rounds: usize,
    saturated_rounds: usize,
}

/// Leg 4: a longer overload soak; measures throughput, shed rate and p99 sojourn.
fn soak_metrics(rounds: usize) -> SoakMetricsReport {
    let options = ServeOptions {
        queue_capacity: 6,
        dispatch_per_round: 2,
        deadline_rounds: 6,
        pressure_window: 3,
        recovery_window: 3,
        ..Default::default()
    };
    // Offered load of ~3 requests per round against a dispatch budget of 2 keeps the
    // queue saturated for most of the storm without starving it.
    let storm_rounds = rounds * 3 / 4;
    let mut script = TrafficScript::new("soak");
    for round in 0..storm_rounds {
        script = script.at(round, Request::TelemetryRead);
        script = script.at(
            round,
            Request::Suggest {
                tenant: "tenant-0".into(),
            },
        );
        script = script.at(
            round,
            Request::Suggest {
                tenant: "tenant-1".into(),
            },
        );
    }
    let mut server = server(2, options, TelemetryHandle::disabled());
    let mut enqueue_round: BTreeMap<u64, usize> = BTreeMap::new();
    let mut sojourns: Vec<usize> = Vec::new();
    let mut saturated_rounds = 0usize;
    for round in 0..rounds {
        let next_before = server.serve_state().next_request_id;
        let report = server.run_round(&script);
        // Every id assigned this round was enqueued this round (ids are consecutive).
        for id in next_before..server.serve_state().next_request_id {
            enqueue_round.insert(id, round);
        }
        for (id, response) in &report.responses {
            if matches!(
                response,
                Response::Suggestion { .. } | Response::Telemetry { .. }
            ) {
                if let Some(at) = enqueue_round.get(id) {
                    sojourns.push(round - at);
                }
            }
        }
        if report.saturated {
            saturated_rounds += 1;
        }
    }
    sojourns.sort_unstable();
    let p99 = if sojourns.is_empty() {
        0
    } else {
        sojourns[((sojourns.len() - 1) as f64 * 0.99).floor() as usize]
    };
    let state = server.serve_state();
    let enqueued = (state.next_request_id - 1).max(1);
    let dispatched = sojourns.len() as u64;
    SoakMetricsReport {
        rounds,
        requests_enqueued: state.next_request_id - 1,
        requests_dispatched: dispatched,
        requests_shed: state.shed_total(),
        deadline_misses: state.deadline_misses,
        queue_rejections: state.queue_rejections,
        throughput_dispatched_per_round: dispatched as f64 / rounds as f64,
        shed_rate: state.shed_total() as f64 / enqueued as f64,
        p99_sojourn_rounds: p99,
        saturated_rounds,
    }
}

#[derive(Debug, serde::Serialize)]
struct ServeBenchReport {
    admission: AdmissionLegReport,
    degradation: DegradationLegReport,
    recovery: RecoveryLegReport,
    soak: SoakMetricsReport,
    wall_s: f64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let start = std::time::Instant::now();
    let mut failed = false;

    section("Admission control at 2x the tenant ceiling");
    let admission = admission_overload();
    println!(
        "  {} offered against a ceiling of {}: {} admitted, {} typed rejections, \
         max queue depth {}, {} tenants live",
        admission.offered,
        admission.ceiling,
        admission.admitted,
        admission.typed_rejections,
        admission.max_queue_depth,
        admission.final_tenants,
    );
    if admission.final_tenants != admission.ceiling
        || admission.admitted + admission.typed_rejections != admission.offered
        || admission.typed_rejections != admission.offered - admission.admitted
    {
        eprintln!("FAIL: excess admissions did not all come back as typed rejections");
        failed = true;
    }
    if admission.max_queue_depth > 8 {
        eprintln!("FAIL: queue exceeded its bound under admission overload");
        failed = true;
    }

    section("Degradation cycle: storm -> ladder down -> quiet -> full service");
    let degradation = degradation_cycle();
    println!(
        "  {}-round storm: deepest tier `{}`, monotone {}, recovered {} (after {} quiet rounds)",
        degradation.storm_rounds,
        degradation.deepest_tier,
        degradation.monotone_under_pressure,
        degradation.recovered_to_full,
        degradation.rounds_to_recover,
    );
    if !degradation.monotone_under_pressure
        || !degradation.recovered_to_full
        || degradation.deepest_tier == DegradationTier::Full.label()
    {
        eprintln!("FAIL: the degradation cycle did not descend monotonically and recover");
        failed = true;
    }

    section("Kill/recover bit-identity for the serving state");
    let kill_rounds = if smoke {
        &KILL_ROUNDS[..2]
    } else {
        &KILL_ROUNDS[..]
    };
    let recovery = match kill_recover(kill_rounds) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL: kill/recover leg errored: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "  {} kill points over a {}-round mixed soak: {} bit-identical, {} rounds replayed, \
         {} torn bytes dropped (fleet degraded mid-soak: {})",
        recovery.kill_points,
        recovery.horizon,
        recovery.bit_identical,
        recovery.replayed_rounds_total,
        recovery.torn_bytes_total,
        recovery.reference_degraded_mid_soak,
    );
    if recovery.bit_identical != recovery.kill_points {
        eprintln!(
            "FAIL: {} of {} kill points diverged after recovery",
            recovery.kill_points - recovery.bit_identical,
            recovery.kill_points
        );
        failed = true;
    }
    if !recovery.reference_degraded_mid_soak {
        eprintln!("FAIL: the recovery soak never degraded — the tier-state replay was not tested");
        failed = true;
    }

    section("Soak metrics under overload");
    let soak = soak_metrics(if smoke {
        SMOKE_SOAK_ROUNDS
    } else {
        FULL_SOAK_ROUNDS
    });
    println!(
        "  {} rounds: {:.2} dispatched/round, shed rate {:.3}, p99 sojourn {} rounds, \
         {} deadline misses, {} queue rejections, {} saturated rounds",
        soak.rounds,
        soak.throughput_dispatched_per_round,
        soak.shed_rate,
        soak.p99_sojourn_rounds,
        soak.deadline_misses,
        soak.queue_rejections,
        soak.saturated_rounds,
    );
    if soak.requests_dispatched == 0 || soak.saturated_rounds == 0 {
        eprintln!("FAIL: the soak did not exercise saturation");
        failed = true;
    }

    if failed {
        std::process::exit(1);
    }
    let wall_s = start.elapsed().as_secs_f64();
    if !smoke {
        let report = ServeBenchReport {
            admission,
            degradation,
            recovery,
            soak,
            wall_s,
        };
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
        println!();
        println!("wrote BENCH_serve.json");
    }
    println!("serve gate green: admission, backpressure, degradation and recovery all hold");
}
