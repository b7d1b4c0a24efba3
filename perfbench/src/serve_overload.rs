//! `serve-overload`: `FleetServer` over 8 tenants with default tuner options and
//! telemetry on, driven by a `TrafficScript` that alternates calm phases with storms
//! above `dispatch_per_round`.
//!
//! Why: it uses the tenant layer differently — the degradation tiers skip hyperopt
//! (NoRefit), observe (CachedPosterior) or suggest entirely (Pinned) — so a gain on the
//! full-fidelity path that costs the serving path shows up here. Layer isolated: the
//! serving front end (queue, shedding, deadlines, tiers) and the telemetry export; it is
//! the only workload that uses them.
//!
//! An open loop in round time: every request is due at a fixed round whatever the
//! server has finished. Traffic mixes `Suggest`, `TelemetryRead` and `Admit`/`Remove`.
//! A request's latency runs from the start of the round it was due to the end of the
//! round that answered it; shed, expired and refused requests are not answered and
//! count against `req_served_frac` instead.

use crate::measure::{mean, ms_since, quantile, ratio, ChurnTotals, Ledger, Unit};
use fleet::serve::{FleetServer, Request, Response, ServeOptions, TrafficScript};
use fleet::service::{FleetOptions, FleetService};
use fleet::tenant::{TenantSpec, WorkloadFamily};
use fleet::wal::fnv1a64;
use std::collections::BTreeMap;
use std::time::Instant;
use telemetry::{CounterId, TelemetryHandle};

/// Tenants admitted before the first round (the default live-tenant ceiling).
pub const TENANTS: usize = 8;
/// Serving rounds per unit.
pub const ROUNDS: usize = 250;
/// Rounds of one calm phase followed by one storm. Calm serves most requests, so the
/// request median lies inside the calm population and the p90 inside the storms.
const CALM: usize = 35;
const STORM: usize = 15;
/// Round deadline of a queued request: shorter than a full queue takes to drain
/// (`queue_capacity / dispatch_per_round` = 4 rounds), so storms expire requests.
const DEADLINE_ROUNDS: usize = 3;
/// Submissions timed on the final state for `serve.submit_us`.
const SUBMIT_PROBES: usize = 64;

fn tenant_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_033).wrapping_add(9_000 + i as u64)
}

fn spec(name: String, seed: u64, i: usize) -> TenantSpec {
    let family = WorkloadFamily::ALL[i % WorkloadFamily::ALL.len()];
    TenantSpec::named(name, family, tenant_seed(seed, i))
}

/// Calm phases offer three requests per round, under the four dispatched per round;
/// storms offer seven, so the queue fills, sheds, rejects and expires, and the
/// degradation tiers walk down and back up.
fn traffic(seed: u64) -> TrafficScript {
    let mut script = TrafficScript::new("serve-overload");
    let mut joiners = 0usize;
    for round in 0..ROUNDS {
        let cycle = round / (CALM + STORM);
        let storm = round % (CALM + STORM) >= CALM;
        let in_phase = round % (CALM + STORM) - if storm { CALM } else { 0 };
        let suggests = if storm { 5 } else { 2 };
        for k in 0..suggests {
            script = script.at(
                round,
                Request::Suggest {
                    tenant: format!("s{}", (round + 3 * k) % TENANTS),
                },
            );
        }
        script = script.at(round, Request::TelemetryRead);
        if storm && in_phase == 2 {
            script = script.at(
                round,
                Request::Remove {
                    tenant: format!("s{}", (2 * cycle + 1) % TENANTS),
                },
            );
        }
        if storm && in_phase % 6 == 4 {
            script = script.at(
                round,
                Request::Admit {
                    spec: spec(format!("j{joiners}"), seed, TENANTS + joiners),
                },
            );
            joiners += 1;
        }
    }
    script
}

fn build(seed: u64, workers: usize) -> (FleetServer, TrafficScript) {
    let mut svc = FleetService::new(FleetOptions {
        workers,
        ..Default::default()
    });
    svc.set_telemetry(TelemetryHandle::enabled());
    for i in 0..TENANTS {
        svc.admit(spec(format!("s{i}"), seed, i))
            .expect("the initial tenants are admissible");
    }
    let options = ServeOptions {
        deadline_rounds: DEADLINE_ROUNDS,
        ..Default::default()
    };
    (FleetServer::new(svc, options), traffic(seed))
}

/// Times the set-up alone (service, admissions, genesis snapshot, traffic script).
pub fn setup_only(seed: u64, workers: usize) -> f64 {
    let t = Instant::now();
    let built = build(seed, workers);
    let s = t.elapsed().as_secs_f64();
    drop(built);
    s
}

/// Runs one unit. Telemetry is on in both runs: the workload itself reads it.
pub fn run(seed: u64, workers: usize, traced: bool) -> Unit {
    let mut unit = Unit {
        ledger: Ledger::new(traced),
        ..Default::default()
    };

    let t_setup = Instant::now();
    let (mut server, script) = build(seed, workers);
    unit.setup_s = t_setup.elapsed().as_secs_f64();

    let mut due_round: Vec<usize> = vec![0; 1];
    let mut round_start: Vec<Instant> = Vec::with_capacity(ROUNDS);
    let mut totals = ChurnTotals::default();
    let (mut served, mut denied, mut expired) = (0usize, 0usize, 0usize);
    let mut sojourn_rounds: Vec<f64> = Vec::new();
    let mut queue_depths: Vec<f64> = Vec::with_capacity(ROUNDS);

    let t_wall = Instant::now();
    for round in 0..ROUNDS {
        let offered_now = script.due_at(round).count();
        unit.offered += offered_now;
        let t = Instant::now();
        round_start.push(t);
        let report = unit
            .ledger
            .time("serve.run_round", || server.run_round(&script));
        let end = Instant::now();
        let ms = (end - t).as_secs_f64() * 1e3;
        unit.round_ms.push(ms);
        // Every id assigned during this round belongs to a request due this round.
        let next_id = server.serve_state().next_request_id as usize;
        due_round.resize(next_id.max(due_round.len()), round);
        queue_depths.push(report.queue_depth as f64);
        for (id, response) in &report.responses {
            match response {
                Response::Admitted { .. }
                | Response::Removed { .. }
                | Response::Telemetry { .. }
                | Response::Suggestion { .. } => {
                    served += 1;
                    let due = due_round[*id as usize];
                    unit.req_ms
                        .push((end - round_start[due]).as_secs_f64() * 1e3);
                    sojourn_rounds.push((round - due) as f64);
                }
                Response::Denied { .. } => denied += 1,
                Response::DeadlineMissed { .. } => expired += 1,
            }
        }
        totals.observe_fleet(server.service());
    }
    unit.wall_s = t_wall.elapsed().as_secs_f64();

    let state = server.serve_state();
    let shed = state.shed_total() as usize;
    let queued = server.queue_depth();
    unit.served = served;
    unit.check(
        "serve-overload: offered = served + denied + shed + expired + queued",
        unit.offered == served + denied + shed + expired + queued,
    );

    let (iterations, unsafe_count, regret) = totals.totals();
    unit.iterations = iterations;
    unit.unsafe_count = unsafe_count;
    unit.regret = regret;
    let json = server.canonical_server_json();
    unit.state_bytes = json.len();
    unit.digest = fnv1a64(json.as_bytes());

    if traced {
        let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        let t = Instant::now();
        let _export = server.service().telemetry_json();
        layer.insert("telemetry.export_ms", ms_since(t));
        let snap = server.service().metrics_snapshot();
        crate::layers::work_counts(&snap, &mut layer);
        crate::layers::tenant_tuner_times(&snap, &mut layer);
        layer.insert("serve.run_round_ms", unit.ledger.mean_ms("serve.run_round"));
        layer.insert("serve.queue_depth_mean", mean(&queue_depths));
        layer.insert("serve.sojourn_rounds_p95", quantile(&sojourn_rounds, 0.95));
        layer.insert("serve.shed", shed as f64);
        layer.insert("serve.deadline_misses", state.deadline_misses as f64);
        layer.insert(
            "serve.tier_changes",
            (snap.counter(CounterId::TierDowngrades) + snap.counter(CounterId::TierUpgrades))
                as f64,
        );
        layer.insert(
            "serve.req_fail_frac",
            1.0 - ratio(served as f64, unit.offered as f64),
        );
        layer.insert("serve.submit_us", submit_probe(&mut server));
        unit.layer = layer;
    }
    unit.findings.push(format!(
        "serve-overload: {} offered, {served} served, {denied} denied, {shed} shed, {expired} \
         expired, {queued} still queued; {unsafe_count} unsafe of {iterations} tenant \
         iterations",
        unit.offered
    ));
    unit
}

/// Median wall time of `FleetServer::submit` in microseconds, probed on the final
/// state after its digest was taken: the queue fills, then sheds and rejects.
fn submit_probe(server: &mut FleetServer) -> f64 {
    let mut us = Vec::with_capacity(SUBMIT_PROBES);
    for k in 0..SUBMIT_PROBES {
        let request = if k % 2 == 0 {
            Request::TelemetryRead
        } else {
            Request::Suggest {
                tenant: format!("s{}", k % TENANTS),
            }
        };
        let t = Instant::now();
        let _ = server.submit(request);
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    crate::measure::median(&us)
}
