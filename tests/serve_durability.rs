//! `accepted_requests_durable`: for any generated mix of scripted and ad-hoc
//! submissions against a serving front end, a kill at any point — after any round or
//! right after any ad-hoc submission — with any torn WAL tail recovers, and the
//! recovered server driven to the horizon ends in exactly the state of a run that was
//! never interrupted, byte for byte.
//!
//! The generated traffic is tight enough that ad-hoc submissions hit every refusal
//! path the journal must log: door denials over `max_tenants`, `QueueFull`, and
//! submissions that shed a queued telemetry read or a quarantined tenant's suggest.

use fleet::serve::{FleetServer, Request, ServeOptions, TrafficScript};
use fleet::service::{small_tuner_options, FleetOptions, FleetService};
use fleet::tenant::{TenantSpec, WorkloadFamily};
use fleet::wal::{WalRecord, WriteAheadLog, FRAME_LEN};
use fleet::{DurableStorage, FleetError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simdb::FaultKind;
use telemetry::TelemetryHandle;

/// Generated cases per run.
const CASES: u64 = 6;

/// One generated serving timeline.
struct Case {
    options: ServeOptions,
    horizon: usize,
    script: TrafficScript,
    /// Ad-hoc submissions made while the server stands at round `g`, before it runs.
    adhoc: Vec<Vec<Request>>,
}

fn spec(name: &str, seed: u64) -> TenantSpec {
    let family = WorkloadFamily::ALL[(seed as usize) % WorkloadFamily::ALL.len()];
    let mut spec = TenantSpec::named(name.to_string(), family, seed);
    spec.deterministic = true;
    spec
}

fn request(rng: &mut StdRng, joiners: &mut u64) -> Request {
    match rng.gen_range(0..10u32) {
        0..=2 => Request::TelemetryRead,
        3..=7 => Request::Suggest {
            tenant: format!("t{}", rng.gen_range(0..2u32)),
        },
        8 => {
            *joiners += 1;
            Request::Admit {
                spec: spec(&format!("joiner-{joiners}"), 8100 + *joiners),
            }
        }
        _ => Request::Remove {
            tenant: format!("joiner-{}", rng.gen_range(1..3u32)),
        },
    }
}

fn case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon = rng.gen_range(6..9usize);
    let options = ServeOptions {
        max_tenants: rng.gen_range(2..4usize),
        queue_capacity: rng.gen_range(2..4usize),
        dispatch_per_round: rng.gen_range(1..3usize),
        deadline_rounds: rng.gen_range(1..4usize),
        pressure_window: 2,
        recovery_window: 2,
        snapshot_interval: rng.gen_range(1..5usize),
        ..Default::default()
    };
    let mut joiners = 0;
    let mut script = TrafficScript::new(format!("durable-{seed}"));
    let mut adhoc = Vec::with_capacity(horizon);
    for round in 0..horizon {
        for _ in 0..rng.gen_range(0..3usize) {
            script = script.at(round, request(&mut rng, &mut joiners));
        }
        let n = rng.gen_range(0..5usize);
        adhoc.push((0..n).map(|_| request(&mut rng, &mut joiners)).collect());
    }
    Case {
        options,
        horizon,
        script,
        adhoc,
    }
}

/// Two tenants behind the case's limits; `t1` starts a fault burst that quarantines
/// it within a few rounds, so its queued suggests become sheddable.
fn server(case: &Case) -> FleetServer {
    let mut svc = FleetService::new(FleetOptions {
        workers: 1,
        tuner: small_tuner_options(),
        ..Default::default()
    });
    for i in 0..2 {
        svc.admit(spec(&format!("t{i}"), 8000 + i)).unwrap();
    }
    svc.session_mut("t1")
        .unwrap()
        .inject_faults(FaultKind::Timeout, 40);
    FleetServer::new(svc, case.options)
}

/// Which refusal paths the ad-hoc submissions exercised.
#[derive(Default)]
struct Coverage {
    door_denials: usize,
    queue_full: usize,
    shed_reads: usize,
    shed_suggests: usize,
}

/// Submits one ad-hoc request, tallying what the call did.
fn submit(server: &mut FleetServer, request: &Request, coverage: &mut Coverage) {
    let before = server.serve_state().clone();
    match server.submit(request.clone()) {
        Err(FleetError::AdmissionDenied { .. }) => coverage.door_denials += 1,
        Err(FleetError::QueueFull { .. }) => coverage.queue_full += 1,
        _ => {}
    }
    let after = server.serve_state();
    coverage.shed_reads += (after.shed_reads - before.shed_reads) as usize;
    coverage.shed_suggests += (after.shed_suggests - before.shed_suggests) as usize;
}

/// Drives `server` to the horizon: at each round, makes the round's ad-hoc
/// submissions (skipping the first `skip` at the current round, already applied),
/// then runs it.
fn drive(server: &mut FleetServer, case: &Case, mut skip: usize) {
    let mut ignored = Coverage::default();
    for submissions in &case.adhoc[server.service().rounds()..] {
        for request in &submissions[skip..] {
            submit(server, request, &mut ignored);
        }
        skip = 0;
        server.run_round(&case.script);
    }
}

fn records(storage: &DurableStorage) -> Vec<WalRecord> {
    let wal = WriteAheadLog::from_bytes(storage.wal_bytes.clone()).unwrap();
    wal.scan()
        .unwrap()
        .records
        .into_iter()
        .map(|(_, r)| r)
        .collect()
}

/// Recovers from `storage` (a kill at round `round` after `submitted` of that round's
/// ad-hoc submissions), re-sends the submissions whose records the tear dropped — the
/// crash cut them off before `submit` returned — and drives to the horizon.
fn recover_and_finish(
    case: &Case,
    intact: &DurableStorage,
    storage: &DurableStorage,
    (round, submitted): (usize, usize),
) -> Result<String, FleetError> {
    let (mut recovered, _) =
        FleetServer::recover(storage, &case.script, TelemetryHandle::disabled())?;
    let at = recovered.service().rounds();
    let kept = records(storage).len();
    let lost_submissions = records(intact)[kept..]
        .iter()
        .take_while(|r| matches!(r, WalRecord::Submission(_)))
        .count();
    let made = if at == round {
        submitted
    } else {
        case.adhoc[at].len()
    };
    drive(&mut recovered, case, made - lost_submissions);
    Ok(recovered.canonical_server_json())
}

#[test]
fn accepted_requests_durable() {
    let mut coverage = Coverage::default();
    let mut kills = 0usize;
    for seed in 0..CASES {
        let case = case(0xD0_0000 + seed);
        let mut reference = server(&case);
        drive(&mut reference, &case, 0);
        let reference = reference.canonical_server_json();

        let mut victim = server(&case);
        for round in 0..case.horizon {
            for (i, request) in case.adhoc[round].iter().enumerate() {
                submit(&mut victim, request, &mut coverage);
                kills += 1;
                let torn = (kills * 13 + seed as usize) % (FRAME_LEN + 7);
                let got = recover_and_finish(
                    &case,
                    &victim.storage(),
                    &victim.crash(torn),
                    (round, i + 1),
                )
                .unwrap_or_else(|e| {
                    panic!("seed {seed}: kill after submission {i} of round {round}: {e}")
                });
                assert_eq!(
                    got, reference,
                    "seed {seed}: kill after submission {i} of round {round} (torn {torn})"
                );
            }
            victim.run_round(&case.script);
            kills += 1;
            let torn = (kills * 13 + seed as usize) % (FRAME_LEN + 7);
            let got = recover_and_finish(
                &case,
                &victim.storage(),
                &victim.crash(torn),
                (round + 1, 0),
            )
            .unwrap_or_else(|e| panic!("seed {seed}: kill after round {}: {e}", round + 1));
            assert_eq!(
                got,
                reference,
                "seed {seed}: kill after round {} (torn {torn})",
                round + 1
            );
        }
        assert_eq!(victim.canonical_server_json(), reference);
    }
    assert!(coverage.door_denials > 0, "no ad-hoc door denial generated");
    assert!(coverage.queue_full > 0, "no ad-hoc QueueFull generated");
    assert!(coverage.shed_reads > 0, "no ad-hoc submission shed a read");
    assert!(
        coverage.shed_suggests > 0,
        "no ad-hoc submission shed a quarantined suggest"
    );
}
