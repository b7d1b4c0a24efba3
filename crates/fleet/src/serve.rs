//! The overload-robust serving front end: admission control, backpressure, deadlines
//! and graceful degradation for a fleet.
//!
//! [`FleetServer`] wraps a [`FleetService`] behind a bounded in-process request queue
//! and a long-running round loop, adding four robustness layers:
//!
//! * **Admission control** — new tenants are accepted only against the configured
//!   live-tenant ceiling and the fleet's tenant-worker budget
//!   ([`FleetService::tenant_worker_budget`] × [`ServeOptions::max_tenants_per_worker`]).
//!   A tenant the fleet cannot take is turned away with a typed
//!   [`FleetError::AdmissionDenied`] naming the tenant and the exhausted resource —
//!   at the door when possible, at dispatch otherwise.
//! * **Backpressure / load shedding** — the request queue is bounded at
//!   [`ServeOptions::queue_capacity`]. On saturation, queued work is shed in a fixed
//!   priority order: telemetry reads first (they are reconstructible), then suggest
//!   requests for quarantined tenants (their suggestions are not trusted to run
//!   anyway). Admission and removal requests are **never** shed — a tenant the fleet
//!   accepted is never silently dropped. If shedding frees no room the submission is
//!   rejected with a typed [`FleetError::QueueFull`]. Shed counts are serialized in
//!   [`ServeState`] and observable via telemetry.
//! * **Deadlines** — each queued request carries a deadline counted in scheduler
//!   rounds ([`ServeOptions::deadline_rounds`]; never wall clocks). Expiry is checked
//!   *before* dispatch: an expired request yields [`Response::DeadlineMissed`] without
//!   executing, so a deadline miss can never leave a session half-stepped.
//! * **Graceful degradation** — pressure is accounted per round (a round is
//!   *saturated* when it shed, rejected, or ended with a full queue). After
//!   [`ServeOptions::pressure_window`] consecutive saturated rounds every tenant is
//!   moved one rung down the [`DegradationTier`] ladder (skip hyperopt refits →
//!   suggest from the cached posterior → pin to the last known-safe config); after
//!   [`ServeOptions::recovery_window`] consecutive clear rounds every tenant moves one
//!   rung back up. Tier state lives in each tenant's serialized session state and the
//!   pressure counters in [`ServeState`], so a restored server resumes in exactly the
//!   degradation state it crashed in.
//!
//! # Determinism contract
//!
//! Everything the server does is a pure function of its serialized state
//! ([`ServerSnapshot`] = options + fleet snapshot + serve state) and the driving
//! [`TrafficScript`]: request ids, shed decisions, deadline expiries and tier
//! transitions are all counted in rounds and queue positions, never wall time. The
//! server therefore owns the same durable journal as
//! [`crate::recovery::DurableFleet`]: a genesis snapshot plus a per-round WAL of
//! [`ServerSnapshot`] digests, truncated every [`ServeOptions::snapshot_interval`]
//! rounds, recovered by deterministic re-execution ([`FleetServer::recover`]) that
//! verifies every replayed round's digest. Scripted submissions are re-derived from the
//! script; every ad-hoc [`FleetServer::submit`] call is logged to the WAL before it is
//! applied, and replay re-applies it in log order. `bench --bin serve_soak` kills a
//! soak at an arbitrary round and asserts the recovered server's snapshot bytes are
//! identical to an uninterrupted run's.

use crate::error::FleetError;
use crate::recovery::{CommitState, DurableStorage, Journal, RecoveryReport, Redo};
use crate::service::{FleetService, FleetSnapshot};
use crate::tenant::{DegradationTier, SessionHealth, TenantSpec};
use telemetry::{CounterId, EventKind, GaugeId, TelemetryHandle};

/// Options of the serving front end. Serialized inside every [`ServerSnapshot`], so a
/// recovered server enforces exactly the limits the crashed one did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ServeOptions {
    /// Live-tenant ceiling: admissions are denied while the fleet already holds this
    /// many tenants.
    pub max_tenants: usize,
    /// The worker-budget term of admission control: at most
    /// `tenant_worker_budget() × max_tenants_per_worker` tenants are admitted, so an
    /// operator shrinking the worker budget also shrinks the fleet the front end will
    /// accept.
    pub max_tenants_per_worker: usize,
    /// Bounded request-queue capacity; submissions beyond it shed or reject.
    pub queue_capacity: usize,
    /// Requests dispatched from the queue per scheduler round.
    pub dispatch_per_round: usize,
    /// Default per-request deadline, counted in scheduler rounds from enqueue.
    pub deadline_rounds: usize,
    /// Consecutive saturated rounds before every tenant is downgraded one tier.
    pub pressure_window: usize,
    /// Consecutive clear rounds before every tenant is upgraded one tier.
    pub recovery_window: usize,
    /// A full [`ServerSnapshot`] is taken (and the WAL truncated) every this many
    /// committed rounds.
    pub snapshot_interval: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_tenants: 8,
            max_tenants_per_worker: 8,
            queue_capacity: 16,
            dispatch_per_round: 4,
            deadline_rounds: 8,
            pressure_window: 3,
            recovery_window: 3,
            snapshot_interval: 4,
        }
    }
}

/// One request against the serving front end.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Request {
    /// Admit a new tenant (subject to admission control).
    Admit {
        /// The joining tenant's spec.
        spec: TenantSpec,
    },
    /// Remove the named tenant (its pending knowledge drains to the knowledge base).
    Remove {
        /// Name of the leaving tenant.
        tenant: String,
    },
    /// Read the merged telemetry export. Sheddable under pressure (first priority):
    /// the export is reconstructible from the still-running fleet at any time.
    TelemetryRead,
    /// Run one extra tuning iteration for the named tenant. Sheddable under pressure
    /// (second priority) when the tenant is quarantined — its suggestions are not
    /// trusted to run while on probation anyway.
    Suggest {
        /// Name of the tenant asking for an iteration.
        tenant: String,
    },
}

impl Request {
    /// Short label for errors, events and reports.
    pub fn label(&self) -> String {
        match self {
            Request::Admit { spec } => format!("admit `{}`", spec.name),
            Request::Remove { tenant } => format!("remove `{tenant}`"),
            Request::TelemetryRead => "telemetry read".to_string(),
            Request::Suggest { tenant } => format!("suggest `{tenant}`"),
        }
    }
}

/// A request waiting in the bounded queue.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct QueuedRequest {
    /// Server-assigned request id (monotone, starts at 1).
    pub id: u64,
    /// Fleet round at which the request was enqueued.
    pub enqueued_round: usize,
    /// Fleet round at which the request expires if not yet dispatched.
    pub deadline_round: usize,
    /// The request itself.
    pub request: Request,
}

/// What the server answered for one dispatched (or expired) request.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The tenant was admitted at this index.
    Admitted {
        /// Name of the admitted tenant.
        tenant: String,
        /// Index the fleet assigned.
        index: usize,
    },
    /// The tenant was removed.
    Removed {
        /// Name of the removed tenant.
        tenant: String,
    },
    /// The merged telemetry export.
    Telemetry {
        /// The `{"registry":…,"journal":…}` document (`{}` when telemetry is off).
        json: String,
    },
    /// One extra iteration ran for the tenant.
    Suggestion {
        /// Name of the tenant that stepped.
        tenant: String,
        /// Regret of the extra iteration.
        regret: f64,
    },
    /// The request was denied with a typed error.
    Denied {
        /// Why.
        error: FleetError,
    },
    /// The request's round deadline expired before dispatch; nothing was executed.
    DeadlineMissed {
        /// Round the request was enqueued.
        enqueued_round: usize,
        /// Round the deadline expired.
        deadline_round: usize,
    },
}

/// The serving front end's serializable state: the queue and the overload accounting.
/// Every counter in here participates in the WAL digest, so shedding, rejections and
/// pressure windows replay bit-identically.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct ServeState {
    /// Requests waiting for dispatch, oldest first.
    pub queue: Vec<QueuedRequest>,
    /// Next request id to assign (ids are monotone and never reused).
    pub next_request_id: u64,
    /// Consecutive saturated rounds accumulated toward the next downgrade.
    pub saturated_rounds: usize,
    /// Consecutive clear rounds accumulated toward the next upgrade.
    pub clear_rounds: usize,
    /// Telemetry reads shed under backpressure.
    pub shed_reads: u64,
    /// Quarantined-tenant suggests shed under backpressure.
    pub shed_suggests: u64,
    /// Requests expired by their round deadline before dispatch.
    pub deadline_misses: u64,
    /// Tenants turned away by admission control (ceiling, budget, or a spec that could
    /// not seed a healthy session).
    pub admission_rejections: u64,
    /// Submissions rejected because the queue was full and nothing was sheddable.
    pub queue_rejections: u64,
}

impl ServeState {
    fn new() -> Self {
        ServeState {
            next_request_id: 1,
            ..Default::default()
        }
    }

    /// Total requests shed so far (both priorities).
    pub fn shed_total(&self) -> u64 {
        self.shed_reads + self.shed_suggests
    }
}

/// The complete serializable server state: options, the wrapped fleet's snapshot and
/// the serving state. Its tree is what the server's WAL digests, and its canonical JSON
/// is the snapshot text and what crash-recovery bit-identity compares.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ServerSnapshot {
    /// Serving options.
    pub options: ServeOptions,
    /// The wrapped fleet.
    pub fleet: FleetSnapshot,
    /// Queue + overload accounting.
    pub serve: ServeState,
}

/// One scripted request submission.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrafficStep {
    /// Fleet round (value of `FleetService::rounds()`) at whose start the request is
    /// submitted.
    pub at_round: usize,
    /// The request.
    pub request: Request,
}

/// A declarative, replayable request timeline — the serving analogue of
/// [`crate::scenario::Scenario`]. Recovery re-fires the same script against the
/// restored snapshot, so scripted submissions need no WAL records of their own.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrafficScript {
    /// Name for reports.
    pub name: String,
    /// The submissions, fired in declaration order within a round.
    pub steps: Vec<TrafficStep>,
}

impl TrafficScript {
    /// An empty script.
    pub fn new(name: impl Into<String>) -> Self {
        TrafficScript {
            name: name.into(),
            steps: Vec::new(),
        }
    }

    /// Appends a submission at `round` (builder style).
    pub fn at(mut self, round: usize, request: Request) -> Self {
        self.steps.push(TrafficStep {
            at_round: round,
            request,
        });
        self
    }

    /// The submissions due at `round`, in declaration order.
    pub fn due_at(&self, round: usize) -> impl Iterator<Item = &TrafficStep> {
        self.steps.iter().filter(move |s| s.at_round == round)
    }
}

/// What one [`FleetServer::run_round`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRoundReport {
    /// Fleet round counter after the round ran.
    pub round: usize,
    /// Tuning iterations the scheduler round executed.
    pub iterations: usize,
    /// Requests dispatched from the queue this round.
    pub dispatched: usize,
    /// Requests shed this round.
    pub shed: u64,
    /// Requests expired by deadline this round.
    pub deadline_missed: usize,
    /// Queue depth at the end of the round.
    pub queue_depth: usize,
    /// Whether this round counted as saturated for the pressure window.
    pub saturated: bool,
    /// Responses produced this round (request id 0 marks a submission rejected at the
    /// door, before an id was assigned).
    pub responses: Vec<(u64, Response)>,
}

/// The long-running serving loop around a [`FleetService`]: a bounded request queue
/// with admission control, shedding, round deadlines, degradation tiers, and built-in
/// crash safety (genesis snapshot + per-round WAL + periodic truncating snapshots).
pub struct FleetServer {
    svc: FleetService,
    options: ServeOptions,
    serve: ServeState,
    journal: Journal,
}

impl std::fmt::Debug for FleetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetServer")
            .field("rounds", &self.svc.rounds())
            .field("tenants", &self.svc.n_tenants())
            .field("queue_depth", &self.serve.queue.len())
            .finish()
    }
}

impl FleetServer {
    /// Wraps a service behind the front end, taking the genesis snapshot (so
    /// [`FleetServer::storage`] is total — no window in which a crash loses
    /// everything).
    pub fn new(svc: FleetService, options: ServeOptions) -> Self {
        FleetServer::anchored(svc, options, ServeState::new())
    }

    /// Assembles a server whose journal is anchored at its current state.
    fn anchored(svc: FleetService, options: ServeOptions, serve: ServeState) -> Self {
        let journal = Journal::new(options.snapshot_interval);
        let mut server = FleetServer {
            svc,
            options,
            serve,
            journal,
        };
        let json = server.canonical_server_json();
        server.journal.anchor(json, server.svc.rounds());
        server
    }

    /// The wrapped service.
    pub fn service(&self) -> &FleetService {
        &self.svc
    }

    /// Mutable access to the wrapped service (telemetry installation etc.).
    pub fn service_mut(&mut self) -> &mut FleetService {
        &mut self.svc
    }

    /// The current serving state (queue + overload accounting).
    pub fn serve_state(&self) -> &ServeState {
        &self.serve
    }

    /// Requests currently waiting for dispatch.
    pub fn queue_depth(&self) -> usize {
        self.serve.queue.len()
    }

    /// The complete serializable server state.
    pub fn server_snapshot(&self) -> ServerSnapshot {
        ServerSnapshot {
            options: self.options,
            fleet: self.svc.snapshot(),
            serve: self.serve.clone(),
        }
    }

    /// Canonical JSON of [`FleetServer::server_snapshot`] — the snapshot text the
    /// journal anchors at and crash-recovery bit-identity compares. Serialization of
    /// well-formed in-memory state cannot fail.
    pub fn canonical_server_json(&self) -> String {
        serde_json::to_string(&self.server_snapshot())
            .expect("an in-memory server snapshot always serializes")
    }

    /// What the journal commits: the state behind [`FleetServer::canonical_server_json`],
    /// with its text when `render` is set.
    fn commit_state(&self, render: bool) -> CommitState {
        let head = ServerSnapshot {
            options: self.options,
            fleet: self.svc.head_snapshot(),
            serve: self.serve.clone(),
        };
        let head =
            serde_json::to_value(&head).expect("an in-memory server snapshot always serializes");
        self.svc.commit_state(&head, &["fleet", "tenants"], render)
    }

    /// Why admission control would turn away a tenant named `name` right now, if it
    /// would: the live-tenant ceiling, or the tenant-worker budget. Queued-but-not-yet
    /// dispatched admissions count as reserved seats, so the door never over-commits
    /// the fleet.
    fn admission_check(&self, name: &str) -> Result<(), FleetError> {
        let reserved = self
            .serve
            .queue
            .iter()
            .filter(|q| matches!(q.request, Request::Admit { .. }))
            .count();
        let live = self.svc.n_tenants() + reserved;
        if live >= self.options.max_tenants {
            return Err(FleetError::AdmissionDenied {
                tenant: name.to_string(),
                reason: format!(
                    "live-tenant ceiling reached ({live}/{} tenants)",
                    self.options.max_tenants
                ),
            });
        }
        let budget = self
            .svc
            .tenant_worker_budget()
            .saturating_mul(self.options.max_tenants_per_worker);
        if live >= budget {
            return Err(FleetError::AdmissionDenied {
                tenant: name.to_string(),
                reason: format!(
                    "worker budget exhausted ({live} live tenants ≥ {} workers × {} \
                     tenants/worker)",
                    self.svc.tenant_worker_budget(),
                    self.options.max_tenants_per_worker
                ),
            });
        }
        Ok(())
    }

    fn note_admission_rejection(&mut self, err: &FleetError) {
        self.serve.admission_rejections += 1;
        self.svc.telemetry().incr(CounterId::AdmissionRejections);
        if self.svc.telemetry().is_enabled() {
            if let FleetError::AdmissionDenied { tenant, reason } = err {
                self.svc
                    .telemetry()
                    .event(EventKind::AdmissionDenied, tenant, reason);
            }
        }
    }

    /// Sheds one queued request to make room, in fixed priority order: the oldest
    /// telemetry read first, then the oldest suggest for a currently quarantined
    /// tenant. Admissions and removals are never shed. Returns the typed
    /// [`FleetError::QueueFull`] when nothing is sheddable.
    fn shed_for(&mut self, incoming: &Request) -> Result<(), FleetError> {
        if let Some(pos) = self
            .serve
            .queue
            .iter()
            .position(|q| matches!(q.request, Request::TelemetryRead))
        {
            let shed = self.serve.queue.remove(pos);
            self.serve.shed_reads += 1;
            self.note_shed(&shed);
            return Ok(());
        }
        let quarantined = |server: &Self, tenant: &str| {
            server
                .svc
                .session(tenant)
                .is_some_and(|s| matches!(s.health(), SessionHealth::Quarantined { .. }))
        };
        if let Some(pos) = self.serve.queue.iter().position(
            |q| matches!(&q.request, Request::Suggest { tenant } if quarantined(self, tenant)),
        ) {
            let shed = self.serve.queue.remove(pos);
            self.serve.shed_suggests += 1;
            self.note_shed(&shed);
            return Ok(());
        }
        self.serve.queue_rejections += 1;
        Err(FleetError::QueueFull {
            capacity: self.options.queue_capacity,
            request: incoming.label(),
        })
    }

    fn note_shed(&mut self, shed: &QueuedRequest) {
        self.svc.telemetry().incr(CounterId::RequestsShed);
        if self.svc.telemetry().is_enabled() {
            self.svc.telemetry().event(
                EventKind::RequestShed,
                &shed.request.label(),
                &format!("id={} enqueued_round={}", shed.id, shed.enqueued_round),
            );
        }
    }

    /// Submits a request to the bounded queue and returns its id.
    ///
    /// Admissions are pre-checked at the door (a fleet that cannot take the tenant
    /// rejects immediately with [`FleetError::AdmissionDenied`] rather than queueing
    /// it); a full queue sheds lower-priority work or rejects with
    /// [`FleetError::QueueFull`]. Every call — a refused one too, since refusals and
    /// sheds change the serving state — is logged to the WAL before it is applied, so
    /// [`FleetServer::recover`] re-applies it.
    pub fn submit(&mut self, request: Request) -> Result<u64, FleetError> {
        self.journal.log_submission(&request);
        self.enqueue(request)
    }

    /// Applies one submission to the queue (the part of [`FleetServer::submit`] that
    /// scripted submissions, re-derived from the script on replay, share unlogged).
    fn enqueue(&mut self, request: Request) -> Result<u64, FleetError> {
        if let Request::Admit { spec } = &request {
            if let Err(err) = self.admission_check(&spec.name) {
                self.note_admission_rejection(&err);
                return Err(err);
            }
        }
        if self.serve.queue.len() >= self.options.queue_capacity.max(1) {
            self.shed_for(&request)?;
        }
        let id = self.serve.next_request_id;
        self.serve.next_request_id += 1;
        let round = self.svc.rounds();
        self.serve.queue.push(QueuedRequest {
            id,
            enqueued_round: round,
            deadline_round: round + self.options.deadline_rounds.max(1),
            request,
        });
        self.svc.telemetry().incr(CounterId::RequestsEnqueued);
        Ok(id)
    }

    /// Executes one dispatched request against the fleet. Runs entirely or not at all:
    /// every failure is a typed [`Response::Denied`], never a partial step.
    fn execute(&mut self, request: Request) -> Response {
        match request {
            Request::Admit { spec } => {
                // Re-check at dispatch: the fleet may have filled up while the request
                // waited in the queue.
                if let Err(err) = self.admission_check(&spec.name) {
                    self.note_admission_rejection(&err);
                    return Response::Denied { error: err };
                }
                let tenant = spec.name.clone();
                match self.svc.admit(spec) {
                    Ok(index) => Response::Admitted { tenant, index },
                    Err(error) => {
                        self.serve.admission_rejections += 1;
                        Response::Denied { error }
                    }
                }
            }
            Request::Remove { tenant } => match self.svc.remove_tenant(&tenant) {
                Ok(_) => Response::Removed { tenant },
                Err(error) => Response::Denied { error },
            },
            Request::TelemetryRead => Response::Telemetry {
                json: self.svc.telemetry_json(),
            },
            Request::Suggest { tenant } => match self.svc.session_mut(&tenant) {
                Some(session) => {
                    let regret = session.step();
                    Response::Suggestion { tenant, regret }
                }
                None => Response::Denied {
                    error: FleetError::UnknownTenant(tenant),
                },
            },
        }
    }

    /// Moves every tenant one rung along the degradation ladder.
    fn shift_tiers(&mut self, step: fn(DegradationTier) -> DegradationTier) {
        for session in self.svc.sessions_mut() {
            session.set_degradation(step(session.degradation()));
        }
    }

    /// Runs one serving round: fires the script's due submissions, expires deadlines,
    /// dispatches up to [`ServeOptions::dispatch_per_round`] requests, executes one
    /// scheduler round, applies the pressure/recovery tier transitions, and commits
    /// the round to the WAL (snapshotting + truncating every
    /// [`ServeOptions::snapshot_interval`] rounds).
    pub fn run_round(&mut self, script: &TrafficScript) -> ServeRoundReport {
        let report = self.execute_round(script);
        let state = self.commit_state(self.journal.anchors_next());
        self.journal
            .commit(self.svc.rounds(), state, self.svc.telemetry());
        report
    }

    /// One serving round without its commit: what replay re-executes.
    fn execute_round(&mut self, script: &TrafficScript) -> ServeRoundReport {
        let round = self.svc.rounds();
        let shed_before = self.serve.shed_total();
        let rejected_before = self.serve.admission_rejections + self.serve.queue_rejections;
        let mut responses: Vec<(u64, Response)> = Vec::new();

        // Scripted submissions due this round, in declaration order. Typed rejections
        // at the door surface as id-0 responses (no id was assigned).
        for step in script.due_at(round).cloned().collect::<Vec<_>>() {
            if let Err(error) = self.enqueue(step.request) {
                responses.push((0, Response::Denied { error }));
            }
        }

        // Deadline sweep before dispatch: an expired request never executes, so it can
        // never leave a session half-stepped.
        let mut deadline_missed = 0;
        let queue = std::mem::take(&mut self.serve.queue);
        for q in queue {
            if round >= q.deadline_round {
                deadline_missed += 1;
                self.serve.deadline_misses += 1;
                self.svc.telemetry().incr(CounterId::DeadlineMisses);
                if self.svc.telemetry().is_enabled() {
                    self.svc.telemetry().event(
                        EventKind::DeadlineMissed,
                        &q.request.label(),
                        &format!(
                            "id={} enqueued_round={} deadline_round={}",
                            q.id, q.enqueued_round, q.deadline_round
                        ),
                    );
                }
                responses.push((
                    q.id,
                    Response::DeadlineMissed {
                        enqueued_round: q.enqueued_round,
                        deadline_round: q.deadline_round,
                    },
                ));
            } else {
                self.serve.queue.push(q);
            }
        }

        // Dispatch in FIFO order, bounded per round.
        let mut dispatched = 0;
        while dispatched < self.options.dispatch_per_round.max(1) && !self.serve.queue.is_empty() {
            let q = self.serve.queue.remove(0);
            let response = self.execute(q.request);
            self.svc.telemetry().incr(CounterId::RequestsDispatched);
            responses.push((q.id, response));
            dispatched += 1;
        }

        let iterations = self.svc.run_round();

        // Pressure accounting: a round that shed, rejected, or still ends with a full
        // queue counts toward the pressure window; anything else counts toward
        // recovery. Both counters live in ServeState, so a restored server resumes
        // mid-window.
        let shed_now = self.serve.shed_total() - shed_before;
        let rejected_now =
            self.serve.admission_rejections + self.serve.queue_rejections - rejected_before;
        let saturated = shed_now > 0
            || rejected_now > 0
            || self.serve.queue.len() >= self.options.queue_capacity.max(1);
        if saturated {
            self.serve.saturated_rounds += 1;
            self.serve.clear_rounds = 0;
            if self.serve.saturated_rounds >= self.options.pressure_window.max(1) {
                self.shift_tiers(DegradationTier::downgraded);
                self.serve.saturated_rounds = 0;
            }
        } else {
            self.serve.clear_rounds += 1;
            self.serve.saturated_rounds = 0;
            if self.serve.clear_rounds >= self.options.recovery_window.max(1) {
                self.shift_tiers(DegradationTier::upgraded);
                self.serve.clear_rounds = 0;
            }
        }

        self.svc
            .telemetry()
            .set_gauge(GaugeId::QueueDepth, self.serve.queue.len() as f64);
        self.svc
            .telemetry()
            .set_gauge(GaugeId::DegradedTenants, self.svc.degraded_tenants() as f64);

        ServeRoundReport {
            round: self.svc.rounds(),
            iterations,
            dispatched,
            shed: shed_now,
            deadline_missed,
            queue_depth: self.serve.queue.len(),
            saturated,
            responses,
        }
    }

    /// The state a crash right now would leave behind.
    pub fn storage(&self) -> DurableStorage {
        self.journal.crash(0)
    }

    /// Simulates a crash that loses the last `torn` bytes of the WAL and returns what
    /// survives.
    pub fn crash(&self, torn: usize) -> DurableStorage {
        self.journal.crash(torn)
    }

    /// Restores a server from a [`ServerSnapshot`] JSON document (without WAL replay;
    /// see [`FleetServer::recover`] for the full crash path). The fleet's worker
    /// grants are re-clamped for this machine exactly as in [`FleetService::restore`];
    /// degradation tiers and the pressure counters come back verbatim.
    pub fn restore_json(json: &str, telemetry: TelemetryHandle) -> Result<Self, FleetError> {
        let snapshot: ServerSnapshot =
            serde_json::from_str(json).map_err(|e| FleetError::SnapshotParse(e.to_string()))?;
        let svc = FleetService::restore_with_telemetry(snapshot.fleet, telemetry)?;
        Ok(FleetServer::anchored(svc, snapshot.options, snapshot.serve))
    }

    /// Recovers a server from crash-surviving storage: restores the snapshot, drops
    /// any torn WAL tail, re-applies the logged submissions and re-executes the
    /// committed rounds under the same traffic script in log order, and verifies each
    /// replayed round's [`ServerSnapshot`] digest against the WAL's commit record. The
    /// recovered server continues **bit-identically** — including its queue, shed
    /// counts, pressure windows and every tenant's degradation tier.
    pub fn recover(
        storage: &DurableStorage,
        script: &TrafficScript,
        telemetry: TelemetryHandle,
    ) -> Result<(Self, RecoveryReport), FleetError> {
        let server = FleetServer::restore_json(&storage.snapshot_json, telemetry)?;
        server.resume(storage, script)
    }

    /// The replay half of [`FleetServer::recover`]: re-applies `storage`'s logged inputs
    /// to a server restored from `storage.snapshot_json`.
    fn resume(
        mut self,
        storage: &DurableStorage,
        script: &TrafficScript,
    ) -> Result<(Self, RecoveryReport), FleetError> {
        let telemetry = self.svc.telemetry().clone();
        let server = &mut self;
        let report = Journal::replay(storage, &telemetry, "server", |redo| match redo {
            Redo::Round => {
                server.execute_round(script);
                Ok(Some(server.commit_state(false).digest))
            }
            // A refused submission was logged too; replay refuses it the same way.
            Redo::Submission { request, .. } => {
                let _ = server.enqueue(request);
                Ok(None)
            }
        })?;
        // Re-anchor at a fresh post-recovery snapshot; the old WAL bytes are superseded.
        Ok((
            FleetServer::anchored(self.svc, self.options, self.serve),
            report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::reference;
    use crate::scheduler::SchedulerOptions;
    use crate::service::{small_tuner_options, FleetOptions};
    use crate::tenant::{DegradationTier, WorkloadFamily};
    use simdb::FaultKind;

    fn spec(name: &str, seed: u64) -> TenantSpec {
        let family = WorkloadFamily::ALL[(seed as usize) % WorkloadFamily::ALL.len()];
        let mut spec = TenantSpec::named(name.to_string(), family, seed);
        spec.deterministic = true;
        spec
    }

    fn small_server(n_tenants: usize, options: ServeOptions) -> FleetServer {
        server_with(n_tenants, 1, SchedulerOptions::default(), options)
    }

    fn server_with(
        n_tenants: usize,
        workers: usize,
        scheduler: SchedulerOptions,
        options: ServeOptions,
    ) -> FleetServer {
        let mut svc = FleetService::new(FleetOptions {
            workers,
            scheduler,
            tuner: small_tuner_options(),
            ..Default::default()
        });
        svc.set_parallelism(4);
        for i in 0..n_tenants {
            svc.admit(spec(&format!("t{i}"), 7000 + i as u64)).unwrap();
        }
        FleetServer::new(svc, options)
    }

    /// A script that keeps suggests for `t0` queued every round.
    fn suggest_storm(rounds: usize) -> TrafficScript {
        (0..rounds).fold(TrafficScript::new("storm"), |script, round| {
            script.at(
                round,
                Request::Suggest {
                    tenant: "t0".into(),
                },
            )
        })
    }

    /// The commit state of `server` — anchoring or not — against the serial
    /// reference: the digest folded from its whole snapshot tree, and its canonical JSON.
    fn assert_commit_matches_reference(server: &FleetServer, context: &str) {
        let tree = serde_json::to_value(&server.server_snapshot()).unwrap();
        let want = reference::commit_digest(tree, &["fleet", "tenants"]);
        let anchored = server.commit_state(true);
        assert_eq!(anchored.digest, want, "{context}");
        assert!(
            anchored.text.as_deref() == Some(server.canonical_server_json().as_str()),
            "{context}: anchor text differs from the canonical server JSON"
        );
        let plain = server.commit_state(false);
        assert_eq!(plain.digest, want, "{context}");
        assert!(plain.text.is_none(), "{context}");
    }

    #[test]
    fn parallel_commit_equals_the_serial_reference() {
        // One tenant per round gets 6 bonus slots; `t0` of the skewed fleet faults on
        // every attempt, so it sits rounds out with 0 slots (backoff, quarantine).
        let skew = SchedulerOptions {
            base_slots: 1,
            bonus_slots: 6,
            bonus_fraction: 0.01,
        };
        let options = ServeOptions::default();
        let script = suggest_storm(6);
        for workers in [1, 2, 4] {
            let mut skewed = server_with(5, workers, skew, options);
            skewed
                .service_mut()
                .session_mut("t0")
                .unwrap()
                .inject_faults(FaultKind::Timeout, 50);
            let servers = [
                ("no tenants", server_with(0, workers, skew, options)),
                ("one tenant", server_with(1, workers, skew, options)),
                ("two tenants", server_with(2, workers, skew, options)),
                ("quarantine and bonus slots", skewed),
            ];
            for (name, mut server) in servers {
                let (mut idle, mut bonus) = (false, false);
                for round in 0..6 {
                    let context = format!("{name}, {workers} workers, round {round}");
                    assert_commit_matches_reference(&server, &context);
                    let before = server.service().granted_slots().to_vec();
                    server.run_round(&script);
                    for (after, before) in server.service().granted_slots().iter().zip(&before) {
                        idle |= after == before;
                        bonus |= after - before > 1;
                    }
                }
                assert_commit_matches_reference(&server, &format!("{name}, {workers} workers"));
                if server.service().n_tenants() == 5 {
                    assert!(
                        idle && bonus,
                        "the skewed fleet must idle one tenant and favour another"
                    );
                }
            }
        }
    }

    #[test]
    fn snapshots_are_counted_per_anchor_not_per_commit() {
        let rounds = 10;
        let options = ServeOptions {
            snapshot_interval: 4,
            ..Default::default()
        };
        let script = suggest_storm(rounds);
        let run = |telemetry: TelemetryHandle| {
            let mut svc = FleetService::new(FleetOptions {
                workers: 1,
                tuner: small_tuner_options(),
                ..Default::default()
            });
            svc.set_telemetry(telemetry);
            for i in 0..2 {
                svc.admit(spec(&format!("t{i}"), 7000 + i)).unwrap();
            }
            let mut server = FleetServer::new(svc, options);
            for _ in 0..rounds {
                server.run_round(&script);
            }
            server
        };
        let observed = run(TelemetryHandle::enabled());
        let svc = observed.service();
        // Genesis plus one anchor every 4 rounds.
        let anchors = 1 + rounds / 4;
        assert_eq!(
            svc.metrics_snapshot().counter(CounterId::SnapshotsTaken),
            anchors as u64
        );
        let events = svc.telemetry_events();
        let journaled = events
            .iter()
            .filter(|e| e.kind == EventKind::SnapshotTaken)
            .count();
        assert_eq!(journaled, anchors);
        let plain = run(TelemetryHandle::disabled());
        assert_eq!(plain.storage(), observed.storage());
    }

    #[test]
    fn recovery_is_independent_of_the_worker_count() {
        // `workers: 0` takes the worker count from the parallelism sample, which is not
        // part of the snapshot: the same storage replays under any count.
        let options = ServeOptions {
            queue_capacity: 2,
            dispatch_per_round: 1,
            snapshot_interval: 4,
            ..Default::default()
        };
        let horizon = 9;
        let script = suggest_storm(horizon);
        let server_at = |parallelism: usize| {
            let mut server = server_with(4, 0, SchedulerOptions::default(), options);
            server.service_mut().set_parallelism(parallelism);
            server
        };
        let mut reference = server_at(2);
        for _ in 0..horizon {
            reference.run_round(&script);
        }
        for (crashed_at, recovered_at) in [(4, 1), (1, 4)] {
            for kill_round in [3, 6] {
                let context = format!("crash at {crashed_at} workers, round {kill_round}");
                let mut server = server_at(crashed_at);
                for _ in 0..kill_round {
                    server.run_round(&script);
                }
                let storage = server.crash(crate::wal::FRAME_LEN / 2);
                let mut restored =
                    FleetServer::restore_json(&storage.snapshot_json, TelemetryHandle::disabled())
                        .unwrap();
                restored.service_mut().set_parallelism(recovered_at);
                let (mut recovered, report) = restored
                    .resume(&storage, &script)
                    .unwrap_or_else(|e| panic!("{context}: {e}"));
                assert!(
                    report.torn_bytes > 0 && report.replayed_rounds > 0,
                    "{context}"
                );
                for _ in recovered.service().rounds()..horizon {
                    recovered.run_round(&script);
                }
                assert!(
                    recovered.canonical_server_json() == reference.canonical_server_json(),
                    "{context}: recovered at {recovered_at} workers differs"
                );
            }
        }
    }

    #[test]
    fn storage_from_whole_tree_digest_commits_restores_only_without_a_wal() {
        // Commit frames that carried the byte-at-a-time FNV-1a-64 of the whole server
        // snapshot tree, before per-tenant folding and the word mixer. The snapshot
        // bytes are the same as today's.
        let script = suggest_storm(5);
        let options = ServeOptions::default();
        let horizon = 5;
        let mut reference = small_server(2, options);
        for _ in 0..horizon {
            reference.run_round(&script);
        }
        let mut server = small_server(2, options);
        let snapshot_json = server.storage().snapshot_json;
        let mut wal = crate::wal::WriteAheadLog::new();
        for _ in 0..2 {
            server.run_round(&script);
            let tree = serde_json::to_value(&server.server_snapshot()).unwrap();
            wal.append(
                server.service().rounds() as u64,
                reference::byte_fnv_tree_digest(&tree),
            );
        }
        let old = DurableStorage {
            snapshot_json,
            snapshot_round: 0,
            wal_bytes: wal.bytes().to_vec(),
        };
        let err = FleetServer::recover(&old, &script, TelemetryHandle::disabled())
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, FleetError::RecoveryDivergence { round: 1, .. }),
            "{err}"
        );
        let (mut recovered, report) = FleetServer::recover(
            &DurableStorage {
                wal_bytes: Vec::new(),
                ..old
            },
            &script,
            TelemetryHandle::disabled(),
        )
        .unwrap();
        assert_eq!(report.replayed_rounds, 0);
        for _ in 0..horizon {
            recovered.run_round(&script);
        }
        assert_eq!(
            recovered.canonical_server_json(),
            reference.canonical_server_json()
        );
    }

    #[test]
    fn admissions_beyond_the_ceiling_are_typed_rejections() {
        let options = ServeOptions {
            max_tenants: 3,
            ..Default::default()
        };
        let mut server = small_server(2, options);
        // One seat left: the first admit queues, the rest reject at the door.
        server
            .submit(Request::Admit {
                spec: spec("fresh-0", 7100),
            })
            .unwrap();
        for i in 1..4 {
            let err = server
                .submit(Request::Admit {
                    spec: spec(&format!("fresh-{i}"), 7100 + i as u64),
                })
                .unwrap_err();
            match err {
                FleetError::AdmissionDenied { tenant, reason } => {
                    assert_eq!(tenant, format!("fresh-{i}"));
                    // 2 live + 1 queued: the door sees 2 live and lets it pass only
                    // once dispatch fills the seat; until then the ceiling message
                    // names the live count.
                    assert!(
                        reason.contains("ceiling") || reason.contains("budget"),
                        "{reason}"
                    );
                }
                other => panic!("expected AdmissionDenied, got {other}"),
            }
        }
        // Wait: with 2 live the door admits until the fleet itself fills. Dispatch the
        // queued admit, then the ceiling holds exactly.
        let script = TrafficScript::new("empty");
        server.run_round(&script);
        assert_eq!(server.service().n_tenants(), 3);
        let err = server
            .submit(Request::Admit {
                spec: spec("late", 7200),
            })
            .unwrap_err();
        assert!(matches!(err, FleetError::AdmissionDenied { .. }));
        assert!(server.serve_state().admission_rejections >= 1);
    }

    #[test]
    fn worker_budget_caps_admissions_independently_of_the_ceiling() {
        let options = ServeOptions {
            max_tenants: 100,
            max_tenants_per_worker: 2,
            ..Default::default()
        };
        // workers=1 → budget term 1×2 = 2 tenants.
        let mut server = small_server(2, options);
        let err = server
            .submit(Request::Admit {
                spec: spec("beyond-budget", 7300),
            })
            .unwrap_err();
        match err {
            FleetError::AdmissionDenied { reason, .. } => {
                assert!(reason.contains("worker budget"), "{reason}");
            }
            other => panic!("expected AdmissionDenied, got {other}"),
        }
    }

    #[test]
    fn saturation_sheds_reads_then_quarantined_suggests_then_rejects() {
        let options = ServeOptions {
            queue_capacity: 4,
            dispatch_per_round: 1,
            ..Default::default()
        };
        let mut server = small_server(2, options);
        // Quarantine t1 so its suggests become sheddable.
        server
            .service_mut()
            .session_mut("t1")
            .unwrap()
            .inject_faults(FaultKind::Timeout, 50);
        let script = TrafficScript::new("empty");
        for _ in 0..8 {
            server.run_round(&script);
        }
        assert!(matches!(
            server.service().session("t1").unwrap().health(),
            SessionHealth::Quarantined { .. }
        ));

        // Fill the queue: one read, one quarantined suggest, two healthy suggests.
        server.submit(Request::TelemetryRead).unwrap();
        server
            .submit(Request::Suggest {
                tenant: "t1".into(),
            })
            .unwrap();
        server
            .submit(Request::Suggest {
                tenant: "t0".into(),
            })
            .unwrap();
        server
            .submit(Request::Suggest {
                tenant: "t0".into(),
            })
            .unwrap();
        assert_eq!(server.queue_depth(), 4);

        // 5th submission sheds the read first…
        server
            .submit(Request::Suggest {
                tenant: "t0".into(),
            })
            .unwrap();
        assert_eq!(server.serve_state().shed_reads, 1);
        assert_eq!(server.queue_depth(), 4);
        // …the 6th sheds the quarantined suggest…
        server
            .submit(Request::Suggest {
                tenant: "t0".into(),
            })
            .unwrap();
        assert_eq!(server.serve_state().shed_suggests, 1);
        // …and once only healthy suggests remain, the queue rejects with a typed
        // error (healthy tenants' work and admissions are never shed).
        let err = server
            .submit(Request::Suggest {
                tenant: "t0".into(),
            })
            .unwrap_err();
        match err {
            FleetError::QueueFull { capacity, request } => {
                assert_eq!(capacity, 4);
                assert!(request.contains("suggest"), "{request}");
            }
            other => panic!("expected QueueFull, got {other}"),
        }
        assert_eq!(server.serve_state().queue_rejections, 1);
        // Every surviving queued request is a healthy suggest: nothing sheddable was
        // kept, nothing unsheddable was dropped.
        for q in &server.serve_state().queue {
            assert!(matches!(&q.request, Request::Suggest { tenant } if tenant == "t0"));
        }
    }

    #[test]
    fn expired_requests_never_half_step_a_session() {
        let options = ServeOptions {
            deadline_rounds: 2,
            dispatch_per_round: 1,
            ..Default::default()
        };
        let mut server = small_server(1, options);
        let script = TrafficScript::new("empty");
        // Queue three suggests; with one dispatch per round, the third cannot run
        // before its 2-round deadline.
        for _ in 0..3 {
            server
                .submit(Request::Suggest {
                    tenant: "t0".into(),
                })
                .unwrap();
        }
        let mut missed = Vec::new();
        let mut suggested = 0;
        for _ in 0..4 {
            let report = server.run_round(&script);
            for (id, response) in &report.responses {
                match response {
                    Response::DeadlineMissed { .. } => missed.push(*id),
                    Response::Suggestion { .. } => suggested += 1,
                    other => panic!("unexpected response {other:?}"),
                }
            }
        }
        assert_eq!(missed, vec![3], "exactly the third request expires");
        assert_eq!(suggested, 2);
        assert_eq!(server.serve_state().deadline_misses, 1);
        // The expired request executed nothing: the tenant's iteration count equals
        // scheduler rounds + the two dispatched suggests.
        let expected = server.service().granted_slots().iter().sum::<usize>() + suggested;
        assert_eq!(
            server.service().session("t0").unwrap().iteration(),
            expected,
            "a deadline miss must not half-step the session"
        );
    }

    #[test]
    fn sustained_pressure_degrades_and_recovery_restores() {
        let options = ServeOptions {
            queue_capacity: 2,
            dispatch_per_round: 1,
            pressure_window: 2,
            recovery_window: 2,
            deadline_rounds: 1,
            ..Default::default()
        };
        let mut server = small_server(2, options);
        // A storm: two suggests submitted every round against capacity 2 and one
        // dispatch per round keeps the queue full.
        let mut storm = TrafficScript::new("storm");
        for round in 0..8 {
            for _ in 0..3 {
                storm = storm.at(
                    round,
                    Request::Suggest {
                        tenant: "t0".into(),
                    },
                );
            }
        }
        let mut max_tier = DegradationTier::Full;
        let mut prev_tier = DegradationTier::Full;
        for _ in 0..8 {
            server.run_round(&storm);
            let tier = server.service().session("t0").unwrap().degradation();
            assert!(
                tier >= prev_tier,
                "tiers must be monotone while pressure persists"
            );
            prev_tier = tier;
            max_tier = max_tier.max(tier);
        }
        assert!(
            max_tier >= DegradationTier::CachedPosterior,
            "8 saturated rounds with window 2 must downgrade at least twice, got {max_tier:?}"
        );
        // Pressure lifts: quiet rounds walk every tenant back to Full.
        let quiet = TrafficScript::new("quiet");
        for _ in 0..16 {
            server.run_round(&quiet);
        }
        for session in server.service().sessions() {
            assert_eq!(
                session.degradation(),
                DegradationTier::Full,
                "{} did not recover",
                session.spec().name
            );
        }
        assert_eq!(server.service().degraded_tenants(), 0);
    }

    #[test]
    fn server_snapshots_restore_bit_identically_with_serve_state() {
        let options = ServeOptions {
            queue_capacity: 3,
            dispatch_per_round: 1,
            pressure_window: 2,
            ..Default::default()
        };
        let mut script = TrafficScript::new("mixed");
        for round in 0..10 {
            script = script.at(
                round,
                Request::Suggest {
                    tenant: "t0".into(),
                },
            );
            if round % 2 == 0 {
                script = script.at(round, Request::TelemetryRead);
            }
            if round % 3 == 0 {
                script = script.at(
                    round,
                    Request::Suggest {
                        tenant: "t1".into(),
                    },
                );
            }
        }
        let mut reference = small_server(2, options);
        for _ in 0..10 {
            reference.run_round(&script);
        }

        let mut original = small_server(2, options);
        for _ in 0..5 {
            original.run_round(&script);
        }
        let cut = original.canonical_server_json();
        let mut restored = FleetServer::restore_json(&cut, TelemetryHandle::disabled()).unwrap();
        assert_eq!(
            restored.serve_state(),
            original.serve_state(),
            "queue and overload accounting must survive the snapshot"
        );
        for _ in 0..5 {
            restored.run_round(&script);
        }
        assert_eq!(
            restored.canonical_server_json(),
            reference.canonical_server_json(),
            "restored server must replay bit-identically"
        );
    }

    #[test]
    fn crash_recovery_resumes_with_degradation_state_intact() {
        let options = ServeOptions {
            queue_capacity: 2,
            dispatch_per_round: 1,
            pressure_window: 2,
            recovery_window: 4,
            deadline_rounds: 1,
            snapshot_interval: 3,
            ..Default::default()
        };
        let mut storm = TrafficScript::new("storm");
        for round in 0..12 {
            for _ in 0..3 {
                storm = storm.at(
                    round,
                    Request::Suggest {
                        tenant: "t0".into(),
                    },
                );
            }
        }
        let horizon = 12;
        let mut reference = small_server(2, options);
        for _ in 0..horizon {
            reference.run_round(&storm);
        }
        assert!(
            reference.service().session("t0").unwrap().degradation() > DegradationTier::Full,
            "the storm must actually degrade the fleet for this test to bite"
        );

        for kill_round in [2usize, 5, 7, 10] {
            let mut server = small_server(2, options);
            for _ in 0..kill_round {
                server.run_round(&storm);
            }
            let torn = (kill_round * 13) % (crate::wal::FRAME_LEN + 7);
            let storage = server.crash(torn);
            let (mut recovered, report) =
                FleetServer::recover(&storage, &storm, TelemetryHandle::disabled()).unwrap();
            assert_eq!(report.snapshot_round, storage.snapshot_round);
            for _ in recovered.service().rounds()..horizon {
                recovered.run_round(&storm);
            }
            assert_eq!(
                recovered.canonical_server_json(),
                reference.canonical_server_json(),
                "kill at round {kill_round} (torn {torn}) must recover bit-identically, \
                 degradation tiers included"
            );
        }
    }

    #[test]
    fn missing_genesis_snapshot_fails_with_a_typed_error() {
        let options = ServeOptions::default();
        let script = TrafficScript::new("empty");
        let mut server = small_server(1, options);
        for _ in 0..2 {
            server.run_round(&script);
        }
        let mut storage = server.storage();
        assert!(!storage.wal_bytes.is_empty(), "the WAL must have entries");
        storage.snapshot_json = String::new();
        let err = FleetServer::recover(&storage, &script, TelemetryHandle::disabled())
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, FleetError::SnapshotParse(_)), "{err}");
    }

    #[test]
    fn serving_telemetry_counts_the_overload_machinery() {
        let options = ServeOptions {
            queue_capacity: 2,
            dispatch_per_round: 1,
            deadline_rounds: 1,
            pressure_window: 2,
            max_tenants: 1,
            ..Default::default()
        };
        let mut server = small_server(1, options);
        server
            .service_mut()
            .set_telemetry(TelemetryHandle::enabled());
        let mut storm = TrafficScript::new("storm");
        for round in 0..6 {
            // The read goes in first so the suggest flood has something sheddable.
            storm = storm.at(round, Request::TelemetryRead);
            for _ in 0..3 {
                storm = storm.at(
                    round,
                    Request::Suggest {
                        tenant: "t0".into(),
                    },
                );
            }
        }
        storm = storm.at(
            1,
            Request::Admit {
                spec: spec("excess", 7500),
            },
        );
        for _ in 0..6 {
            server.run_round(&storm);
        }
        let snap = server.service().metrics_snapshot();
        assert!(snap.counter(CounterId::RequestsEnqueued) > 0);
        assert!(snap.counter(CounterId::RequestsDispatched) > 0);
        assert_eq!(
            snap.counter(CounterId::RequestsShed),
            server.serve_state().shed_total()
        );
        assert_eq!(
            snap.counter(CounterId::DeadlineMisses),
            server.serve_state().deadline_misses
        );
        assert!(snap.counter(CounterId::AdmissionRejections) >= 1);
        assert!(snap.counter(CounterId::TierDowngrades) >= 1);
        assert!(server
            .service()
            .telemetry_events()
            .iter()
            .any(|e| e.kind == EventKind::RequestShed));
        assert!(server
            .service()
            .telemetry_events()
            .iter()
            .any(|e| e.kind == EventKind::AdmissionDenied));
        // And none of it perturbed the serializable state: a telemetry-off twin
        // produces identical snapshot bytes.
        let mut twin = small_server(1, options);
        for _ in 0..6 {
            twin.run_round(&storm);
        }
        assert_eq!(
            twin.canonical_server_json(),
            server.canonical_server_json(),
            "telemetry changed server snapshot bytes"
        );
    }

    #[test]
    fn an_adhoc_submission_between_rounds_survives_a_crash() {
        // An accepted request submitted outside the script must not make the server
        // unrecoverable: replay re-applies it from its logged record.
        let script = TrafficScript::new("empty");
        let mut server = small_server(2, ServeOptions::default());
        server.run_round(&script);
        let id = server
            .submit(Request::Suggest {
                tenant: "t0".into(),
            })
            .unwrap();
        assert_eq!(id, 1);
        server.run_round(&script);
        let (recovered, report) =
            FleetServer::recover(&server.crash(0), &script, TelemetryHandle::disabled())
                .unwrap_or_else(|e| panic!("recovery after an ad-hoc submit: {e}"));
        assert_eq!(report.replayed_rounds, 2);
        assert_eq!(
            recovered.canonical_server_json(),
            server.canonical_server_json()
        );
    }

    #[test]
    fn a_kill_right_after_an_adhoc_submit_recovers_it_still_queued() {
        let script = TrafficScript::new("empty");
        let mut server = small_server(2, ServeOptions::default());
        server.run_round(&script);
        let id = server
            .submit(Request::Suggest {
                tenant: "t1".into(),
            })
            .unwrap();
        // No commit follows the submission: only its own record makes it durable.
        let (recovered, report) =
            FleetServer::recover(&server.crash(0), &script, TelemetryHandle::disabled()).unwrap();
        assert_eq!(report.replayed_rounds, 1);
        let queued: Vec<u64> = recovered.serve_state().queue.iter().map(|q| q.id).collect();
        assert_eq!(queued, vec![id]);
        assert_eq!(
            recovered.canonical_server_json(),
            server.canonical_server_json()
        );
    }

    #[test]
    fn traffic_scripts_serde_round_trip() {
        let script = TrafficScript::new("rt")
            .at(
                0,
                Request::Admit {
                    spec: spec("a", 7600),
                },
            )
            .at(1, Request::TelemetryRead)
            .at(2, Request::Suggest { tenant: "a".into() })
            .at(3, Request::Remove { tenant: "a".into() });
        let json = serde_json::to_string(&script).unwrap();
        let back: TrafficScript = serde_json::from_str(&json).unwrap();
        assert_eq!(script, back);
        assert_eq!(back.due_at(2).count(), 1);
    }
}
