//! The fleet service: tenants + scheduler + knowledge base + worker pool + snapshots.
//!
//! [`FleetService::run_round`] executes one scheduling round: the scheduler plans a slot
//! count per tenant, the sessions run their slots in parallel on scoped worker threads
//! that claim tenants one at a time in tenant order (sessions are independent, so this
//! is embarrassingly parallel, and a tenant with many slots does not hold up a fixed
//! share of the others), and the knowledge each session produced is merged into the
//! shared [`KnowledgeBase`] *sequentially in tenant order* — keeping every
//! floating-point accumulation and every pool mutation deterministic regardless of
//! thread timing. That determinism is what makes the fleet-wide snapshot/restore replay
//! test meaningful. A durable owner's commit runs on the same workers: each digests
//! (and, on snapshot rounds, renders) the tenants it claims.

use crate::error::FleetError;
use crate::knowledge::{KnowledgeBase, KnowledgeBaseOptions, KnowledgeTotals, PoolKey};
use crate::recovery::CommitState;
use crate::scheduler::{SchedulerOptions, SessionScheduler, TenantStatus};
use crate::tenant::{RetryPolicy, TenantSession, TenantSessionState, TenantSpec, TenantSummary};
use crate::wal::state_digest;
use onlinetune::subspace::SubspaceOptions;
use onlinetune::OnlineTuneOptions;
use serde_json::Value;
use std::sync::Mutex;
use telemetry::{CounterId, EventKind, GaugeId, SpanId, TelemetryHandle};

/// Options of the fleet service.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FleetOptions {
    /// Worker threads used per round (0 = one per available CPU, capped by tenant count).
    pub workers: usize,
    /// Worker threads each tenant's periodic hyper-parameter optimization may use for
    /// its restart searches (see [`gp::hyperopt::HyperOptOptions::workers`]; 0 = one
    /// per available CPU).
    ///
    /// **Combined budget:** tenant-level and hyperopt-level parallelism multiply — every
    /// tenant worker can be inside a hyperopt refit at once — so the service enforces
    /// `tenant_workers × hyperopt_workers ≤ available_parallelism` by clamping this
    /// value at admission ([`FleetService::effective_hyperopt_workers`]). Selected
    /// hyper-parameters are worker-count independent bit for bit, so the clamp affects
    /// wall-clock time only, never replay determinism.
    ///
    /// Deserializes to 0 from snapshots written before the field existed
    /// (`#[serde(default)]`); 0 already means "resolve against the remaining budget",
    /// so old snapshots restore with a valid grant instead of erroring.
    #[serde(default)]
    pub hyperopt_workers: usize,
    /// Intra-op worker threads granted to each tenant's model computations: threads
    /// *inside* one Cholesky factorization's trailing-panel update and one suggest
    /// sweep's batched prediction (see
    /// [`gp::regression::GaussianProcess::set_intraop_workers`]; 0 = resolve against
    /// the remaining budget).
    ///
    /// **Three-level budget:** tenant-, hyperopt- and intra-op-level parallelism
    /// multiply — every tenant worker can be inside a hyperopt refit whose every
    /// restart search factorizes with intra-op workers — so the service enforces
    /// `tenant_workers × hyperopt_workers × intraop_workers ≤ available_parallelism`
    /// by clamping this value at admission and on snapshot restore
    /// ([`FleetService::effective_intraop_workers`]). Every computed value is
    /// bit-identical at every grant, so the clamp shapes wall-clock time only.
    /// Deserializes to 0 (= budget-resolved) from older snapshots.
    #[serde(default)]
    pub intraop_workers: usize,
    /// Scheduler configuration.
    pub scheduler: SchedulerOptions,
    /// Knowledge-base bounds.
    pub knowledge: KnowledgeBaseOptions,
    /// Whether newly admitted tenants are warm-started from the knowledge base.
    pub warm_start_on_admit: bool,
    /// Tuner options applied to every tenant.
    ///
    /// Note: `tuner.cluster.hyperopt_workers` is *managed by the service* — it is
    /// overwritten with the clamped grant derived from
    /// [`FleetOptions::hyperopt_workers`] at admission and on snapshot restore, so a
    /// value set here directly has no effect at fleet level. Configure the fleet's
    /// hyperopt parallelism through [`FleetOptions::hyperopt_workers`] instead (the
    /// nested field remains meaningful for standalone, non-fleet tuners).
    pub tuner: OnlineTuneOptions,
    /// Fault handling applied to every tenant: retry/backoff bounds and the quarantine
    /// probation schedule (see [`RetryPolicy`]). Counted in scheduler rounds, so the
    /// policy is deterministic and snapshot-replayable like everything else.
    #[serde(default)]
    pub retry: RetryPolicy,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            workers: 0,
            hyperopt_workers: 1,
            intraop_workers: 1,
            scheduler: SchedulerOptions::default(),
            knowledge: KnowledgeBaseOptions::default(),
            warm_start_on_admit: true,
            tuner: OnlineTuneOptions::default(),
            retry: RetryPolicy::default(),
        }
    }
}

/// Reduced-budget tuner options used by tests and the scale benchmark: fewer subspace
/// candidates keep a single iteration cheap while exercising every code path.
pub fn small_tuner_options() -> OnlineTuneOptions {
    OnlineTuneOptions {
        subspace: SubspaceOptions {
            candidates: 40,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Per-tenant service-level conformance derived from telemetry (see
/// [`FleetService::slo_reports`]). Latency quantiles come from the tenant's iteration
/// span histogram; the unsafe-rate ceiling comes from the runtime-only
/// [`telemetry::TelemetryConfig`], so reconfiguring it can never change snapshot bytes.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SloReport {
    /// Tenant name.
    pub name: String,
    /// Iterations the tenant has performed in total.
    pub iterations: usize,
    /// Median iteration latency (suggest→apply→observe) in milliseconds.
    pub iteration_p50_ms: f64,
    /// 99th-percentile iteration latency in milliseconds.
    pub iteration_p99_ms: f64,
    /// Fraction of the tenant's recommendations that were unsafe.
    pub unsafe_rate: f64,
    /// The configured unsafe-rate ceiling the tenant is held against.
    pub unsafe_ceiling: f64,
    /// Whether the tenant's unsafe rate is at or below the ceiling.
    pub within_slo: bool,
}

/// Aggregate statistics of the rounds executed by a [`FleetService::run_rounds`] call.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FleetReport {
    /// Rounds executed.
    pub rounds: usize,
    /// Tuning iterations executed across all tenants.
    pub iterations: usize,
    /// Unsafe recommendations across all tenants (within the executed rounds).
    pub unsafe_count: usize,
    /// Regret accumulated across all tenants (within the executed rounds).
    pub regret: f64,
    /// Per-tenant summaries at the end of the call.
    pub tenants: Vec<TenantSummary>,
    /// Knowledge-base aggregates at the end of the call (transfer and eviction pressure).
    #[serde(default)]
    pub knowledge: KnowledgeTotals,
    /// Per-tenant SLO conformance; empty when telemetry is disabled.
    #[serde(default)]
    pub slo: Vec<SloReport>,
}

impl FleetReport {
    /// Fraction of iterations whose recommendation was unsafe.
    pub fn unsafe_rate(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.unsafe_count as f64 / self.iterations as f64
        }
    }
}

/// Serializable snapshot of the entire fleet (see [`FleetService::snapshot`]).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FleetSnapshot {
    /// Service options.
    pub options: FleetOptions,
    /// Every tenant's complete session state.
    pub tenants: Vec<TenantSessionState>,
    /// The shared knowledge base.
    pub knowledge: KnowledgeBase,
    /// Scheduler state (cursor + grant totals).
    pub scheduler: SessionScheduler,
    /// Rounds executed so far.
    pub rounds: usize,
}

/// The multi-tenant tuning service.
pub struct FleetService {
    options: FleetOptions,
    tenants: Vec<TenantSession>,
    knowledge: KnowledgeBase,
    scheduler: SessionScheduler,
    rounds: usize,
    /// The machine parallelism every worker-budget clamp derives from, sampled **once**
    /// at construction (or injected via [`FleetService::set_parallelism`]). Sampling
    /// `available_parallelism()` independently per clamp would let admission and
    /// restore disagree when the visible CPU count changes between calls (cgroup
    /// resize, affinity mask); one stored sample keeps every grant mutually consistent.
    /// Runtime-only, never serialized: a restored service re-samples on *its* machine.
    parallelism: usize,
    /// Fleet-level observability sink (runtime-only, never serialized). Each session
    /// holds a *child* of this core so worker threads record without contention; the
    /// service merges the children at report time, in tenant order, which keeps every
    /// export deterministic.
    telemetry: TelemetryHandle,
}

/// The one place the machine's parallelism is read; everything else uses the value
/// stored on the service.
fn sample_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `work` on every item of `items` on `workers` scoped threads (the calling thread
/// is one of them) and returns the results in item order. Each worker claims the next
/// unclaimed item from a shared cursor until none is left, so a costly item delays only
/// the worker that claimed it. Which worker ran an item never shows in the result.
fn claim_in_order<I, R>(items: I, workers: usize, work: impl Fn(I::Item) -> R + Sync) -> Vec<R>
where
    I: Iterator + Send,
    R: Send,
{
    let cursor = Mutex::new(items.enumerate());
    let drain = || {
        let mut done = Vec::new();
        loop {
            let claimed = cursor
                .lock()
                .expect("no worker panics holding the cursor")
                .next();
            let Some((i, item)) = claimed else {
                return done;
            };
            done.push((i, work(item)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        let mut done = drain();
        for helper in helpers {
            match helper.join() {
                Ok(part) => done.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

impl FleetService {
    /// Creates an empty service.
    pub fn new(options: FleetOptions) -> Self {
        let knowledge = KnowledgeBase::new(options.knowledge);
        let scheduler = SessionScheduler::new(options.scheduler);
        FleetService {
            options,
            tenants: Vec::new(),
            knowledge,
            scheduler,
            rounds: 0,
            parallelism: sample_parallelism(),
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Overrides the machine-parallelism sample every worker-budget clamp derives from
    /// (clamped to ≥ 1). For tests and operators pinning the budget below the visible
    /// CPU count; affects grants handed out *after* the call (admission, restore-time
    /// re-grants via [`FleetService::regrant_workers`]), and wall-clock time only —
    /// every computed value is worker-count independent.
    pub fn set_parallelism(&mut self, parallelism: usize) {
        self.parallelism = parallelism.max(1);
    }

    /// The stored machine-parallelism sample (see [`FleetService::set_parallelism`]).
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Recomputes and re-applies the hyperopt and intra-op grants of every tenant from
    /// the current options and stored parallelism. Called by restore; also useful after
    /// [`FleetService::set_parallelism`] to propagate a changed budget to existing
    /// sessions.
    pub fn regrant_workers(&mut self) {
        let hyperopt = self.effective_hyperopt_workers();
        let intraop = self.effective_intraop_workers();
        for session in &mut self.tenants {
            session.set_hyperopt_workers(hyperopt);
            session.set_intraop_workers(intraop);
        }
    }

    /// Installs a telemetry sink on the service and re-childs every session (and its
    /// tuner stack) from it. Passing [`TelemetryHandle::disabled`] turns telemetry off
    /// again. Telemetry is runtime-only: it is excluded from [`FleetService::snapshot`],
    /// so enabling, disabling or reconfiguring it can never change snapshot bytes or
    /// perturb replay.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = telemetry;
        for session in &mut self.tenants {
            session.set_telemetry(&self.telemetry);
        }
    }

    /// The fleet-level telemetry sink (disabled by default).
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// Number of tenants.
    pub fn n_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The shared knowledge base.
    pub fn knowledge(&self) -> &KnowledgeBase {
        &self.knowledge
    }

    /// Total slots the scheduler has granted per tenant.
    pub fn granted_slots(&self) -> &[usize] {
        self.scheduler.granted()
    }

    /// Admits a tenant: builds its session and (when enabled and knowledge exists for its
    /// hardware class + workload family) warm-starts it from the knowledge base. Returns
    /// the tenant's index.
    ///
    /// Admission is fallible: a workload spec whose reference measurement cannot seed a
    /// healthy session (non-finite scores or contexts) is turned away with
    /// [`FleetError::AdmissionDenied`] naming the tenant, instead of admitting a session
    /// that would panic or poison the fleet on its first step.
    pub fn admit(&mut self, spec: TenantSpec) -> Result<usize, FleetError> {
        let key = PoolKey::for_tenant(&spec.hardware, spec.family_at(0));
        let mut tuner = self.options.tuner.clone();
        // Enforce the three-level parallelism budget (see `FleetOptions::intraop_workers`)
        // at admission, when the session's tuner options are fixed.
        tuner.cluster.hyperopt_workers = self.effective_hyperopt_workers();
        tuner.cluster.intraop_workers = self.effective_intraop_workers();
        let mut session = match TenantSession::new(spec, tuner) {
            Ok(session) => session,
            Err(err) => {
                self.telemetry.incr(CounterId::AdmissionRejections);
                if self.telemetry.is_enabled() {
                    if let FleetError::AdmissionDenied { tenant, reason } = &err {
                        self.telemetry
                            .event(EventKind::AdmissionDenied, tenant, reason);
                    }
                }
                return Err(err);
            }
        };
        session.set_retry_policy(self.options.retry);
        session.set_telemetry(&self.telemetry);
        if self.options.warm_start_on_admit {
            let warm = self.knowledge.warm_start(&key);
            if warm.is_empty() {
                self.telemetry.incr(CounterId::WarmStartMisses);
                if self.telemetry.is_enabled() {
                    self.telemetry.event(
                        EventKind::WarmStartMiss,
                        &session.spec().name,
                        &format!(
                            "no knowledge for {}/{}",
                            key.hardware_class,
                            key.family.label()
                        ),
                    );
                }
            } else {
                self.telemetry.incr(CounterId::WarmStartHits);
                self.telemetry.add(
                    CounterId::WarmStartSafeConfigs,
                    warm.safe_configs.len() as u64,
                );
                self.telemetry.add(
                    CounterId::WarmStartObservations,
                    warm.observations.len() as u64,
                );
                if self.telemetry.is_enabled() {
                    self.telemetry.event(
                        EventKind::WarmStartHit,
                        &session.spec().name,
                        &format!(
                            "safe_configs={} observations={}",
                            warm.safe_configs.len(),
                            warm.observations.len()
                        ),
                    );
                }
                session.warm_start(&warm);
            }
        }
        self.telemetry.incr(CounterId::TenantsAdmitted);
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                EventKind::Admission,
                &session.spec().name,
                &format!(
                    "family={} hardware={} seed={}",
                    session.spec().family.label(),
                    key.hardware_class,
                    session.spec().seed
                ),
            );
        }
        self.tenants.push(session);
        Ok(self.tenants.len() - 1)
    }

    /// Per-tenant summaries.
    pub fn summaries(&self) -> Vec<TenantSummary> {
        self.tenants.iter().map(TenantSession::summary).collect()
    }

    /// Index of the tenant named `name` (first match).
    pub fn tenant_index(&self, name: &str) -> Option<usize> {
        self.tenants.iter().position(|t| t.spec().name == name)
    }

    /// Read access to the session of the tenant named `name`.
    pub fn session(&self, name: &str) -> Option<&TenantSession> {
        self.tenant_index(name).map(|i| &self.tenants[i])
    }

    /// Mutable access to the session of the tenant named `name` (scenario events use this
    /// to apply drift, resizes and data growth).
    pub fn session_mut(&mut self, name: &str) -> Option<&mut TenantSession> {
        self.tenant_index(name).map(|i| &mut self.tenants[i])
    }

    /// All sessions in tenant order (the serving layer inspects degradation tiers and
    /// health across the fleet).
    pub fn sessions(&self) -> &[TenantSession] {
        &self.tenants
    }

    /// Mutable access to all sessions in tenant order (the serving layer applies
    /// fleet-wide degradation-tier transitions through this).
    pub fn sessions_mut(&mut self) -> &mut [TenantSession] {
        &mut self.tenants
    }

    /// Number of tenants currently running below [`DegradationTier::Full`].
    ///
    /// [`DegradationTier::Full`]: crate::tenant::DegradationTier::Full
    pub fn degraded_tenants(&self) -> usize {
        self.tenants
            .iter()
            .filter(|t| t.degradation() != crate::tenant::DegradationTier::Full)
            .count()
    }

    /// Removes the tenant named `name` (a leave/churn event) and returns its spec (so a
    /// migration can re-admit it with modifications). The session's pending knowledge is
    /// merged into the knowledge base first: what a leaving tenant learned stays with the
    /// fleet and warm-starts the tenant if it later rejoins.
    pub fn remove_tenant(&mut self, name: &str) -> Result<TenantSpec, FleetError> {
        let idx = self
            .tenant_index(name)
            .ok_or_else(|| FleetError::UnknownTenant(name.to_string()))?;
        self.merge_contribution(idx);
        let session = self.tenants.remove(idx);
        self.scheduler.remove(idx);
        // What the departing session recorded stays with the fleet: its telemetry child
        // is drained into the fleet core before the session is dropped.
        session.telemetry().drain_into(&self.telemetry);
        self.telemetry.incr(CounterId::TenantsRemoved);
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                EventKind::Removal,
                &session.spec().name,
                &format!("iterations={}", session.iteration()),
            );
        }
        Ok(session.spec().clone())
    }

    /// Drains tenant `i`'s pending knowledge into the shared knowledge base. The pool is
    /// keyed by the workload family the tenant *currently runs* (`TenantSpec::family_at`),
    /// so knowledge collected after a scripted family switch lands in the switched-to
    /// family's pool instead of leaking into the original one.
    fn merge_contribution(&mut self, i: usize) {
        let contribution = self.tenants[i].drain_contribution();
        if contribution.is_empty() {
            return;
        }
        let spec = self.tenants[i].spec();
        let family = spec.family_at(self.tenants[i].iteration());
        let key = PoolKey::for_tenant(&spec.hardware, family);
        let before = self.telemetry.is_enabled().then(|| self.knowledge.totals());
        self.knowledge
            .contribute(&key, contribution.safe_configs, contribution.observations);
        self.telemetry.incr(CounterId::KbContributions);
        if let Some(before) = before {
            let after = self.knowledge.totals();
            let safe = after.evicted_safe - before.evicted_safe;
            let obs = after.evicted_observations - before.evicted_observations;
            self.telemetry.add(CounterId::KbEvictedSafe, safe as u64);
            self.telemetry
                .add(CounterId::KbEvictedObservations, obs as u64);
            if safe + obs > 0 {
                self.telemetry.event(
                    EventKind::KbEviction,
                    &format!("{}/{}", key.hardware_class, key.family.label()),
                    &format!("evicted_safe={safe} evicted_observations={obs}"),
                );
            }
        }
    }

    /// Migrates the tenant named `name` to a new hardware class: the session leaves
    /// (pending knowledge drained to the base) and rejoins re-initialized on `hardware`
    /// with a knowledge-base warm start — the hardware-change strategy of §5.1.2. The
    /// rejoined spec is re-based on the workload the tenant *currently* runs (effective
    /// family, cleared drift anchors) and the instance's data volume is carried along,
    /// so the environment does not rewind to the pre-drift state. Returns the new index.
    pub fn migrate_tenant(
        &mut self,
        name: &str,
        hardware: simdb::HardwareSpec,
    ) -> Result<usize, FleetError> {
        let (iteration, data_size) = {
            let session = self
                .session(name)
                .ok_or_else(|| FleetError::UnknownTenant(name.to_string()))?;
            (session.iteration(), session.data_size_gib())
        };
        let mut spec = self.remove_tenant(name)?;
        spec.family = spec.family_at(iteration);
        spec.drift.clear();
        spec.hardware = hardware;
        self.telemetry.incr(CounterId::TenantsMigrated);
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                EventKind::Migration,
                &spec.name,
                &format!("to={}", PoolKey::hardware_class(&hardware)),
            );
        }
        let idx = self.admit(spec)?;
        if let Some(gib) = data_size {
            self.tenants[idx].set_data_size(gib);
        }
        Ok(idx)
    }

    /// Tenant-level worker threads actually used per round: the configured value
    /// (0 = one per CPU), clamped to `[1, n_tenants]`.
    fn effective_workers(&self) -> usize {
        let configured = if self.options.workers == 0 {
            self.parallelism
        } else {
            self.options.workers
        };
        configured.clamp(1, self.tenants.len().max(1))
    }

    /// The tenant-worker term of the multiplicative budget: the *configured* worker
    /// count (not the tenant-count-clamped one) so a tenant admitted early does not get
    /// a grant the budget cannot honor once the fleet fills up.
    fn budget_tenant_workers(&self) -> usize {
        if self.options.workers == 0 {
            self.parallelism
        } else {
            self.options.workers.max(1)
        }
    }

    /// The tenant-worker term of the three-level budget (the configured worker count,
    /// with 0 resolved against the stored parallelism sample) — the quantity the
    /// serving layer's admission control sizes the fleet against (see
    /// [`crate::serve::FleetServer`]).
    pub fn tenant_worker_budget(&self) -> usize {
        self.budget_tenant_workers()
    }

    /// Hyperopt-level worker threads granted to each tenant's periodic refit, clamped so
    /// the combined budget `tenant_workers × hyperopt_workers ≤ available_parallelism`
    /// holds. The tenant side of the product uses the *configured* worker count (not the
    /// tenant-count-clamped one) so a tenant admitted early does not get a grant the
    /// budget cannot honor once the fleet fills up.
    ///
    /// A request of 0 ("one per CPU") resolves to the full remaining budget. Selected
    /// hyper-parameters are worker-count independent, so this clamp only shapes
    /// wall-clock time, never results.
    pub fn effective_hyperopt_workers(&self) -> usize {
        let budget = (self.parallelism / self.budget_tenant_workers()).max(1);
        match self.options.hyperopt_workers {
            0 => budget,
            w => w.min(budget),
        }
    }

    /// Intra-op worker threads granted to each tenant's factorizations and suggest
    /// sweeps — the third level of the multiplicative budget
    /// `tenant_workers × hyperopt_workers × intraop_workers ≤ available_parallelism`.
    /// The remaining budget divides what the first two levels already claim; a request
    /// of 0 resolves to all of it. Every computed value is bit-identical at every
    /// grant, so the clamp shapes wall-clock time only.
    pub fn effective_intraop_workers(&self) -> usize {
        let claimed = self.budget_tenant_workers() * self.effective_hyperopt_workers();
        let budget = (self.parallelism / claimed.max(1)).max(1);
        match self.options.intraop_workers {
            0 => budget,
            w => w.min(budget),
        }
    }

    /// Executes one scheduling round; returns the number of iterations run.
    pub fn run_round(&mut self) -> usize {
        if self.tenants.is_empty() {
            return 0;
        }
        let statuses: Vec<TenantStatus> = self
            .tenants
            .iter()
            .map(|t| TenantStatus {
                recent_regret: t.recent_regret(),
                iterations: t.iteration(),
                health: t.scheduling_class(),
            })
            .collect();
        let span = self.telemetry.begin_span();
        let plan = self.scheduler.plan_round(&statuses);
        plan.publish(&self.telemetry);
        let workers = self.effective_workers();

        // Execute the round on the workers, each claiming the next tenant in order.
        // Sessions are fully independent, so the only cross-tenant state — the knowledge
        // base — is merged after the barrier, in tenant order, which keeps the whole
        // round deterministic.
        claim_in_order(
            self.tenants.iter_mut().zip(&plan.slots),
            workers,
            |(session, &n)| {
                for _ in 0..n {
                    session.step();
                }
            },
        );

        // Deterministic knowledge merge.
        for i in 0..self.tenants.len() {
            self.merge_contribution(i);
        }

        // Advance every tenant's fault clock: backoffs count down and quarantined
        // tenants accrue probation credit in *rounds*, never wall time.
        for session in &mut self.tenants {
            session.tick_round();
        }

        self.rounds += 1;
        self.telemetry
            .set_gauge(GaugeId::KnowledgePools, self.knowledge.n_pools() as f64);
        self.telemetry.end_span(SpanId::Round, span);
        plan.total_slots()
    }

    /// Executes `n` rounds and reports aggregate statistics for them.
    pub fn run_rounds(&mut self, n: usize) -> FleetReport {
        let before: Vec<TenantSummary> = self.summaries();
        let mut iterations = 0;
        for _ in 0..n {
            iterations += self.run_round();
        }
        let after = self.summaries();
        let unsafe_count = after
            .iter()
            .zip(before.iter())
            .map(|(a, b)| a.unsafe_count - b.unsafe_count)
            .sum::<usize>();
        let regret = after
            .iter()
            .zip(before.iter())
            .map(|(a, b)| a.cumulative_regret - b.cumulative_regret)
            .sum::<f64>();
        FleetReport {
            rounds: n,
            iterations,
            unsafe_count,
            regret,
            tenants: after,
            knowledge: self.knowledge.totals(),
            slo: self.slo_reports(),
        }
    }

    /// Per-tenant SLO conformance derived from telemetry; empty when telemetry is
    /// disabled (there are no latency histograms to report from).
    pub fn slo_reports(&self) -> Vec<SloReport> {
        let Some(config) = self.telemetry.config() else {
            return Vec::new();
        };
        self.tenants
            .iter()
            .map(|t| {
                let h = t.telemetry().histogram(SpanId::Iteration);
                let iterations = t.iteration();
                let unsafe_rate = if iterations == 0 {
                    0.0
                } else {
                    t.unsafe_count() as f64 / iterations as f64
                };
                SloReport {
                    name: t.spec().name.clone(),
                    iterations,
                    iteration_p50_ms: h.quantile_ms(0.5),
                    iteration_p99_ms: h.quantile_ms(0.99),
                    unsafe_rate,
                    unsafe_ceiling: config.unsafe_rate_ceiling,
                    within_slo: unsafe_rate <= config.unsafe_rate_ceiling,
                }
            })
            .collect()
    }

    /// Fleet-wide metrics: the fleet core's snapshot merged with every session's, in
    /// tenant order (integer merges, so the result is accumulation-order independent).
    pub fn metrics_snapshot(&self) -> telemetry::MetricsSnapshot {
        let mut snap = self.telemetry.snapshot();
        for session in &self.tenants {
            snap.merge(&session.telemetry().snapshot());
        }
        snap
    }

    /// Every journal event the fleet currently holds: fleet-level events first, then each
    /// session's, in tenant order.
    pub fn telemetry_events(&self) -> Vec<telemetry::Event> {
        let mut events = self.telemetry.events();
        for session in &self.tenants {
            events.extend(session.telemetry().events());
        }
        events
    }

    /// Serializes the merged registry and journal as one deterministic JSON document
    /// (`{"registry":…,"journal":…}`). Returns `{}` when telemetry is disabled.
    pub fn telemetry_json(&self) -> String {
        if !self.telemetry.is_enabled() {
            return "{}".to_string();
        }
        let events = self.telemetry_events();
        let mut journal = telemetry::EventJournal::new(events.len().max(1));
        for event in events {
            journal.push(event);
        }
        format!(
            "{{\"registry\":{},\"journal\":{}}}",
            self.metrics_snapshot().to_json(),
            journal.to_json()
        )
    }

    /// Exports the complete fleet state. Telemetry is deliberately *not* part of the
    /// snapshot: the returned structure (and therefore [`FleetService::snapshot_json`]'s
    /// bytes) is identical whether telemetry is disabled, enabled, or was reconfigured
    /// mid-run.
    pub fn snapshot(&self) -> FleetSnapshot {
        self.record_snapshot();
        FleetSnapshot {
            tenants: self
                .tenants
                .iter()
                .map(TenantSession::export_state)
                .collect(),
            ..self.head_snapshot()
        }
    }

    /// Counts a snapshot taken, and journals it when telemetry is on.
    fn record_snapshot(&self) {
        self.telemetry.incr(CounterId::SnapshotsTaken);
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                EventKind::SnapshotTaken,
                "fleet",
                &format!("rounds={} tenants={}", self.rounds, self.tenants.len()),
            );
        }
    }

    /// The snapshot without its tenant states: the head of a durable commit, which the
    /// owner digests on its own thread. Records no snapshot.
    pub(crate) fn head_snapshot(&self) -> FleetSnapshot {
        FleetSnapshot {
            options: self.options.clone(),
            tenants: Vec::new(),
            knowledge: self.knowledge.clone(),
            scheduler: self.scheduler.clone(),
            rounds: self.rounds,
        }
    }

    /// The commit state of a durable owner whose snapshot tree is `head` with this
    /// fleet's tenant states in the (emptied) array at `path`. The round's workers claim
    /// tenants in order; each exports the tenant's state, builds its tree and digests it,
    /// and on a commit that anchors a snapshot (`render`) also writes its JSON. The owner
    /// then folds the parts in tenant order ([`CommitState::fold`]). Only an anchoring
    /// commit counts as a snapshot taken.
    pub(crate) fn commit_state(&self, head: &Value, path: &[&str], render: bool) -> CommitState {
        if render {
            self.record_snapshot();
        }
        let tenants = claim_in_order(self.tenants.iter(), self.effective_workers(), |session| {
            let tree = serde_json::to_value(&session.export_state())
                .expect("an in-memory tenant state always serializes");
            CommitState {
                digest: state_digest(&tree),
                text: render.then(|| tree.to_string()),
            }
        });
        CommitState::fold(head, path, tenants, render)
    }

    /// Serializes the fleet snapshot to JSON.
    pub fn snapshot_json(&self) -> Result<String, String> {
        serde_json::to_string(&self.snapshot()).map_err(|e| e.to_string())
    }

    /// [`FleetService::snapshot_json`] as an infallible convenience: serialization of an
    /// in-memory snapshot cannot fail for well-formed state, and recovery paths need the
    /// canonical bytes without error plumbing. These are the snapshot bytes a durable
    /// journal anchors at and the crash-recovery bit-identity checks compare; the WAL
    /// digests the tree per tenant instead ([`crate::wal::fold_digests`]).
    pub fn canonical_snapshot_json(&self) -> String {
        self.snapshot_json()
            .expect("an in-memory fleet snapshot always serializes")
    }

    /// Rebuilds a service from a snapshot; every session continues bit-identically.
    ///
    /// The hyperopt and intra-op worker grants are re-clamped against *this* machine's
    /// parallelism, sampled once for the restored service (snapshots may have been
    /// taken on a machine with a different CPU count, and the three-level budget of
    /// [`FleetOptions::intraop_workers`] must hold where the fleet actually runs).
    /// All worker-count-dependent computations are bit-identical across grants, so the
    /// re-grant cannot perturb replay.
    ///
    /// Malformed per-tenant state surfaces as [`FleetError::TenantRestore`] naming the
    /// offending tenant — a damaged snapshot degrades into a typed error, not a panic.
    pub fn restore(snapshot: FleetSnapshot) -> Result<Self, FleetError> {
        let tenants = snapshot
            .tenants
            .into_iter()
            .map(TenantSession::restore)
            .collect::<Result<Vec<_>, _>>()?;
        let mut svc = FleetService {
            options: snapshot.options,
            tenants,
            knowledge: snapshot.knowledge,
            scheduler: snapshot.scheduler,
            rounds: snapshot.rounds,
            parallelism: sample_parallelism(),
            telemetry: TelemetryHandle::disabled(),
        };
        svc.regrant_workers();
        Ok(svc)
    }

    /// [`FleetService::restore`] plus telemetry re-installation: snapshots never carry
    /// telemetry state, so a restored service that should keep observing must be handed a
    /// (fresh or shared) sink explicitly. Records the restore on that sink.
    pub fn restore_with_telemetry(
        snapshot: FleetSnapshot,
        telemetry: TelemetryHandle,
    ) -> Result<Self, FleetError> {
        let mut svc = FleetService::restore(snapshot)?;
        svc.set_telemetry(telemetry);
        svc.telemetry.incr(CounterId::RestoresCompleted);
        if svc.telemetry.is_enabled() {
            svc.telemetry.event(
                EventKind::Restored,
                "fleet",
                &format!("rounds={} tenants={}", svc.rounds, svc.tenants.len()),
            );
        }
        Ok(svc)
    }

    /// Restores a service from JSON produced by [`FleetService::snapshot_json`].
    /// Truncated or bit-flipped bytes yield [`FleetError::SnapshotParse`]; structurally
    /// valid JSON with a broken tenant yields [`FleetError::TenantRestore`].
    pub fn restore_json(json: &str) -> Result<Self, FleetError> {
        let snapshot: FleetSnapshot =
            serde_json::from_str(json).map_err(|e| FleetError::SnapshotParse(e.to_string()))?;
        FleetService::restore(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::WorkloadFamily;

    fn small_service(n_tenants: usize, workers: usize) -> FleetService {
        let mut svc = FleetService::new(FleetOptions {
            workers,
            tuner: small_tuner_options(),
            ..Default::default()
        });
        for i in 0..n_tenants {
            let family = WorkloadFamily::ALL[i % WorkloadFamily::ALL.len()];
            let mut spec = TenantSpec::named(format!("tenant-{i}"), family, 1000 + i as u64);
            spec.deterministic = true;
            svc.admit(spec).unwrap();
        }
        svc
    }

    #[test]
    fn rounds_advance_every_tenant() {
        let mut svc = small_service(4, 2);
        let report = svc.run_rounds(3);
        assert_eq!(report.rounds, 3);
        assert!(
            report.iterations >= 12,
            "fairness floor: >= 1 slot/tenant/round"
        );
        for t in &report.tenants {
            assert!(t.iterations >= 3, "{} starved: {}", t.name, t.iterations);
        }
    }

    #[test]
    fn parallel_and_serial_execution_agree() {
        let mut serial = small_service(4, 1);
        let mut parallel = small_service(4, 4);
        serial.run_rounds(3);
        parallel.run_rounds(3);
        let a = serial.summaries();
        let b = parallel.summaries();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.iterations, y.iterations);
            assert_eq!(
                x.cumulative_regret.to_bits(),
                y.cumulative_regret.to_bits(),
                "{}",
                x.name
            );
            assert_eq!(
                x.total_score.to_bits(),
                y.total_score.to_bits(),
                "{}",
                x.name
            );
        }

        // Skewed load: one tenant per round gets 12 bonus slots on top of everyone's
        // one, so whichever worker claims it runs far longer than the rest. The
        // snapshot (with the worker option itself blanked) must not depend on the
        // worker count.
        let skewed = |workers: usize| {
            let mut svc = FleetService::new(FleetOptions {
                workers,
                scheduler: SchedulerOptions {
                    base_slots: 1,
                    bonus_slots: 12,
                    bonus_fraction: 0.01,
                },
                tuner: small_tuner_options(),
                ..Default::default()
            });
            svc.set_parallelism(4);
            for i in 0..5 {
                let family = WorkloadFamily::ALL[i % WorkloadFamily::ALL.len()];
                let mut spec = TenantSpec::named(format!("tenant-{i}"), family, 3000 + i as u64);
                spec.deterministic = true;
                svc.admit(spec).unwrap();
            }
            svc.run_rounds(3);
            let granted = svc.granted_slots();
            assert!(
                granted.iter().max().unwrap() >= &(granted.iter().min().unwrap() + 12),
                "the load must be skewed: {granted:?}"
            );
            let mut snapshot = svc.snapshot();
            snapshot.options.workers = 0;
            serde_json::to_string(&snapshot).unwrap()
        };
        let reference = skewed(1);
        for workers in [0, 2, 4, 8] {
            assert!(
                skewed(workers) == reference,
                "skewed fleet at {workers} workers differs from 1 worker"
            );
        }
    }

    #[test]
    fn knowledge_base_fills_from_running_sessions() {
        let mut svc = small_service(2, 2);
        svc.run_rounds(4);
        assert!(svc.knowledge().n_pools() >= 1);
    }

    #[test]
    fn fleet_execution_is_bit_identical_across_the_three_level_worker_grid() {
        // The full tenant × hyperopt × intraop grid of ISSUE 9: every grant combination
        // must produce the same per-tenant trajectories bit for bit. hyperopt_period is
        // lowered so the periodic refit (the hyperopt × intraop hot path) actually runs
        // within the test's horizon.
        let run = |workers: usize, hyperopt: usize, intraop: usize| {
            let mut tuner = small_tuner_options();
            tuner.cluster.hyperopt_period = 3;
            let mut svc = FleetService::new(FleetOptions {
                workers,
                hyperopt_workers: hyperopt,
                intraop_workers: intraop,
                tuner,
                ..Default::default()
            });
            // Decouple the grants from the machine the test runs on: with 64 injected
            // CPUs no level is clamped below its requested value.
            svc.set_parallelism(64);
            for i in 0..3 {
                let family = WorkloadFamily::ALL[i % WorkloadFamily::ALL.len()];
                let mut spec = TenantSpec::named(format!("tenant-{i}"), family, 2000 + i as u64);
                spec.deterministic = true;
                svc.admit(spec).unwrap();
            }
            svc.run_rounds(3);
            svc.summaries()
        };
        let baseline = run(1, 1, 1);
        assert!(
            baseline.iter().all(|t| t.iterations >= 3),
            "horizon too short to exercise the hyperopt period"
        );
        for w in [1usize, 2, 4] {
            for h in [1usize, 2, 4] {
                for i in [1usize, 2, 4] {
                    let grid = run(w, h, i);
                    for (x, y) in grid.iter().zip(baseline.iter()) {
                        assert_eq!(x.iterations, y.iterations, "({w},{h},{i}) {}", x.name);
                        assert_eq!(
                            x.cumulative_regret.to_bits(),
                            y.cumulative_regret.to_bits(),
                            "({w},{h},{i}) {}",
                            x.name
                        );
                        assert_eq!(
                            x.total_score.to_bits(),
                            y.total_score.to_bits(),
                            "({w},{h},{i}) {}",
                            x.name
                        );
                        assert_eq!(x.unsafe_count, y.unsafe_count, "({w},{h},{i}) {}", x.name);
                    }
                }
            }
        }
    }

    #[test]
    fn worker_budgets_derive_from_one_injected_parallelism_sample() {
        // With an injected sample every clamp is deterministic and mutually consistent —
        // the bug this guards against was three independent `available_parallelism()`
        // reads that could disagree mid-flight (cgroup resize, affinity change).
        let mut svc = FleetService::new(FleetOptions {
            workers: 2,
            hyperopt_workers: 0,
            intraop_workers: 0,
            tuner: small_tuner_options(),
            ..Default::default()
        });
        svc.set_parallelism(16);
        assert_eq!(svc.parallelism(), 16);
        // Request 0 = full remaining budget per level: 16/2 = 8 hyperopt, then nothing
        // left for intra-op.
        assert_eq!(svc.effective_hyperopt_workers(), 8);
        assert_eq!(svc.effective_intraop_workers(), 1);

        let mut svc = FleetService::new(FleetOptions {
            workers: 2,
            hyperopt_workers: 2,
            intraop_workers: 64,
            tuner: small_tuner_options(),
            ..Default::default()
        });
        svc.set_parallelism(16);
        assert_eq!(svc.effective_hyperopt_workers(), 2);
        // intraop budget = 16 / (2 × 2) = 4; the oversized request clamps down to it.
        assert_eq!(svc.effective_intraop_workers(), 4);
        // Both grants land in the admitted tenant's tuner options and the product holds.
        let idx = svc
            .admit(TenantSpec::named(
                "t0".to_string(),
                WorkloadFamily::ALL[0],
                1,
            ))
            .unwrap();
        let state = svc.tenants[idx].export_state();
        assert_eq!(state.tuner.options.cluster.hyperopt_workers, 2);
        assert_eq!(state.tuner.options.cluster.intraop_workers, 4);

        // Shrinking the budget after admission and re-granting propagates to sessions.
        svc.set_parallelism(4);
        svc.regrant_workers();
        let state = svc.tenants[idx].export_state();
        assert_eq!(state.tuner.options.cluster.hyperopt_workers, 2);
        assert_eq!(state.tuner.options.cluster.intraop_workers, 1);
    }

    #[test]
    fn three_level_budget_product_never_exceeds_parallelism() {
        for p in [1usize, 2, 3, 4, 6, 8, 16, 64] {
            for workers in [0usize, 1, 2, 4, 8] {
                for hyperopt in [0usize, 1, 2, 64] {
                    for intraop in [0usize, 1, 2, 64] {
                        let mut svc = FleetService::new(FleetOptions {
                            workers,
                            hyperopt_workers: hyperopt,
                            intraop_workers: intraop,
                            tuner: small_tuner_options(),
                            ..Default::default()
                        });
                        svc.set_parallelism(p);
                        let t = if workers == 0 { p } else { workers };
                        let h = svc.effective_hyperopt_workers();
                        let i = svc.effective_intraop_workers();
                        assert!(h >= 1 && i >= 1, "grants must stay positive");
                        // The budget holds except in the degenerate case where the
                        // configured tenant workers alone already exceed the machine
                        // (then both lower levels fold to 1).
                        assert!(
                            t * h * i <= p.max(t),
                            "budget violated: {t} × {h} × {i} > {p}"
                        );
                    }
                }
            }
        }
    }

    /// Deletes every `"field":<digits>` occurrence (plus one adjacent comma) from a
    /// JSON string — shapes a current snapshot like one written before the field
    /// existed.
    fn strip_numeric_field(json: &str, field: &str) -> String {
        let needle = format!("\"{field}\":");
        let mut out = String::with_capacity(json.len());
        let mut rest = json;
        while let Some(pos) = rest.find(&needle) {
            let bytes = rest.as_bytes();
            let mut head_end = pos;
            let mut val_end = pos + needle.len();
            while val_end < rest.len() && bytes[val_end].is_ascii_digit() {
                val_end += 1;
            }
            if val_end < rest.len() && bytes[val_end] == b',' {
                val_end += 1; // field was not last in its object: eat the trailing comma
            } else if head_end > 0 && bytes[head_end - 1] == b',' {
                head_end -= 1; // field was last: eat the leading comma instead
            }
            out.push_str(&rest[..head_end]);
            rest = &rest[val_end..];
        }
        out.push_str(rest);
        out
    }

    #[test]
    fn pre_worker_grant_snapshots_restore_with_default_grants() {
        // Regression for the PR-5 schema break: snapshots written before
        // `hyperopt_workers` / `intraop_workers` existed must restore (the fields
        // deserialize to 0 via #[serde(default)]) and come back with valid re-clamped
        // grants on every session instead of failing the whole restore.
        let mut svc = small_service(2, 1);
        svc.run_rounds(1);
        let json = svc.snapshot_json().unwrap();
        let stripped = strip_numeric_field(
            &strip_numeric_field(&json, "hyperopt_workers"),
            "intraop_workers",
        );
        assert!(
            stripped.len() < json.len(),
            "test must actually remove the fields"
        );
        let mut restored = FleetService::restore_json(&stripped).unwrap();
        let h = restored.effective_hyperopt_workers();
        let i = restored.effective_intraop_workers();
        assert!(h >= 1 && i >= 1);
        for t in &restored.tenants {
            let state = t.export_state();
            assert_eq!(state.tuner.options.cluster.hyperopt_workers, h);
            assert_eq!(state.tuner.options.cluster.intraop_workers, i);
        }
        // The restored fleet keeps running.
        assert!(restored.run_rounds(1).iterations > 0);
    }

    #[test]
    fn hyperopt_worker_budget_is_clamped_against_tenant_parallelism() {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Fleet saturated with tenant workers: hyperopt must fold down to ≤ hw/workers.
        for (workers, requested) in [(1usize, 64usize), (2, 64), (hw, 64), (1, 0), (hw, 0)] {
            let svc = FleetService::new(FleetOptions {
                workers,
                hyperopt_workers: requested,
                tuner: small_tuner_options(),
                ..Default::default()
            });
            let granted = svc.effective_hyperopt_workers();
            assert!(granted >= 1);
            assert!(
                workers * granted <= hw.max(workers),
                "budget violated: {workers} tenant × {granted} hyperopt > {hw} CPUs"
            );
        }
        // workers = 0 resolves to one per CPU, so the hyperopt grant must be 1.
        let svc = FleetService::new(FleetOptions {
            workers: 0,
            hyperopt_workers: 64,
            tuner: small_tuner_options(),
            ..Default::default()
        });
        assert_eq!(svc.effective_hyperopt_workers(), 1);
        // The grant lands in the admitted tenant's tuner options.
        let mut svc = FleetService::new(FleetOptions {
            workers: 1,
            hyperopt_workers: 64,
            tuner: small_tuner_options(),
            ..Default::default()
        });
        let idx = svc
            .admit(TenantSpec::named(
                "t0".to_string(),
                WorkloadFamily::ALL[0],
                1,
            ))
            .unwrap();
        let granted = svc.effective_hyperopt_workers();
        let snapshot = svc.tenants[idx].export_state();
        assert_eq!(snapshot.tuner.options.cluster.hyperopt_workers, granted);
    }

    #[test]
    fn restore_re_clamps_a_foreign_hyperopt_grant() {
        // A snapshot taken on a bigger machine may carry a larger per-tenant hyperopt
        // grant than this machine's budget allows; restore must re-clamp it.
        let mut svc = small_service(2, 1);
        svc.run_rounds(1);
        let mut snapshot = svc.snapshot();
        for t in &mut snapshot.tenants {
            t.tuner.options.cluster.hyperopt_workers = 999;
        }
        let restored = FleetService::restore(snapshot).unwrap();
        let granted = restored.effective_hyperopt_workers();
        assert!(granted >= 1);
        for t in &restored.tenants {
            assert_eq!(
                t.export_state().tuner.options.cluster.hyperopt_workers,
                granted,
                "restored session kept a foreign worker grant"
            );
        }
    }

    #[test]
    fn telemetry_observes_without_perturbing_snapshots() {
        let observed_service = |telemetry: Option<TelemetryHandle>| {
            let mut svc = FleetService::new(FleetOptions {
                workers: 2,
                tuner: small_tuner_options(),
                ..Default::default()
            });
            if let Some(t) = telemetry {
                svc.set_telemetry(t);
            }
            for i in 0..3 {
                let family = WorkloadFamily::ALL[i % WorkloadFamily::ALL.len()];
                let mut spec = TenantSpec::named(format!("tenant-{i}"), family, 1000 + i as u64);
                spec.deterministic = true;
                svc.admit(spec).unwrap();
            }
            svc
        };
        let mut plain = observed_service(None);
        let mut observed = observed_service(Some(TelemetryHandle::enabled()));
        plain.run_rounds(3);
        let report = observed.run_rounds(3);

        // Identical behaviour...
        let (a, b) = (
            plain.snapshot_json().unwrap(),
            observed.snapshot_json().unwrap(),
        );
        assert_eq!(a, b, "telemetry changed snapshot bytes");

        // ...but the observed fleet actually recorded its work.
        let snap = observed.metrics_snapshot();
        assert_eq!(snap.counter(CounterId::TenantsAdmitted), 3);
        assert_eq!(
            snap.counter(CounterId::Iterations) as usize,
            report.iterations
        );
        assert_eq!(snap.counter(CounterId::SnapshotsTaken), 1);
        assert!(snap.counter(CounterId::KbContributions) > 0);
        assert_eq!(
            snap.histogram(SpanId::Iteration).count as usize,
            report.iterations
        );
        assert_eq!(snap.histogram(SpanId::Round).count, 3);
        assert!(observed
            .telemetry_events()
            .iter()
            .any(|e| e.kind == EventKind::Admission));
        assert_eq!(report.slo.len(), 3);
        for slo in &report.slo {
            assert!(slo.iteration_p99_ms >= slo.iteration_p50_ms);
            assert_eq!(slo.unsafe_ceiling, 0.05);
        }
        assert!(report.knowledge.contributions > 0);
        // The disabled fleet reports no SLO data but the same KB aggregates.
        let plain_report = plain.run_rounds(0);
        assert!(plain_report.slo.is_empty());
        assert_eq!(plain_report.knowledge, report.knowledge);
        assert!(plain.telemetry_json() == "{}");
        assert!(observed.telemetry_json().starts_with("{\"registry\":"));
    }

    #[test]
    fn removed_tenants_telemetry_survives_in_the_fleet_core() {
        let mut svc = small_service(2, 1);
        svc.set_telemetry(TelemetryHandle::enabled());
        svc.run_rounds(2);
        let before = svc.metrics_snapshot().counter(CounterId::Iterations);
        assert!(before > 0);
        svc.remove_tenant("tenant-0").unwrap();
        let snap = svc.metrics_snapshot();
        assert_eq!(snap.counter(CounterId::Iterations), before);
        assert_eq!(snap.counter(CounterId::TenantsRemoved), 1);
    }

    #[test]
    fn restore_with_telemetry_reinstalls_the_sink() {
        let mut svc = small_service(2, 1);
        svc.set_telemetry(TelemetryHandle::enabled());
        svc.run_rounds(1);
        let snapshot = svc.snapshot();
        // Plain restore leaves telemetry off.
        let restored = FleetService::restore(svc.snapshot()).unwrap();
        assert!(!restored.telemetry().is_enabled());
        // restore_with_telemetry turns it back on and records the restore.
        let mut restored =
            FleetService::restore_with_telemetry(snapshot, TelemetryHandle::enabled()).unwrap();
        assert!(restored.telemetry().is_enabled());
        restored.run_rounds(1);
        let snap = restored.metrics_snapshot();
        assert_eq!(snap.counter(CounterId::RestoresCompleted), 1);
        assert!(snap.counter(CounterId::Iterations) > 0);
        assert!(restored
            .telemetry_events()
            .iter()
            .any(|e| e.kind == EventKind::Restored));
    }

    #[test]
    fn warm_started_admission_is_counted() {
        let mut svc = small_service(2, 1);
        svc.set_telemetry(TelemetryHandle::enabled());
        svc.run_rounds(4); // builds knowledge for the pools the two tenants occupy
        let spec = TenantSpec::named("newcomer", WorkloadFamily::ALL[0], 99);
        svc.admit(spec).unwrap();
        let snap = svc.metrics_snapshot();
        assert_eq!(
            snap.counter(CounterId::WarmStartHits) + snap.counter(CounterId::WarmStartMisses),
            1,
            "exactly the newcomer's admission consulted the knowledge base"
        );
        if snap.counter(CounterId::WarmStartHits) == 1 {
            let summary = svc.session("newcomer").unwrap().summary();
            assert!(summary.warm_start_safe + summary.warm_start_observations > 0);
            assert_eq!(
                snap.counter(CounterId::WarmStartSafeConfigs) as usize,
                summary.warm_start_safe
            );
        }
    }

    #[test]
    fn malformed_snapshots_restore_as_typed_errors_not_panics() {
        let mut svc = small_service(2, 1);
        svc.run_rounds(1);
        let json = svc.snapshot_json().unwrap();

        // Truncated bytes (a torn snapshot write).
        let truncated = &json[..json.len() / 2];
        let Err(err) = FleetService::restore_json(truncated) else {
            panic!("a truncated snapshot must not restore");
        };
        assert!(matches!(err, FleetError::SnapshotParse(_)), "{err}");

        // A bit-flip that breaks the JSON structure itself.
        let flipped = json.replacen('{', "[", 1);
        let Err(err) = FleetService::restore_json(&flipped) else {
            panic!("a structurally broken snapshot must not restore");
        };
        assert!(matches!(err, FleetError::SnapshotParse(_)), "{err}");

        // Structurally valid JSON whose first tenant references an unknown knob: the
        // typed error names the offending tenant.
        let tenants_at = json.find("\"tenants\"").unwrap();
        let (head, tail) = json.split_at(tenants_at);
        let poisoned = format!(
            "{head}{}",
            tail.replacen("innodb_buffer_pool_size", "bogus_knob_zzz", 1)
        );
        let Err(err) = FleetService::restore_json(&poisoned) else {
            panic!("a poisoned tenant must not restore");
        };
        match err {
            FleetError::TenantRestore { tenant, reason } => {
                assert_eq!(tenant, "tenant-0");
                assert!(reason.contains("unknown knob"), "{reason}");
            }
            other => panic!("expected TenantRestore, got {other}"),
        }
    }

    #[test]
    fn quarantine_deprioritizes_without_starving_healthy_tenants() {
        use crate::tenant::SessionHealth;
        use simdb::FaultKind;

        let mut svc = small_service(3, 1);
        svc.set_telemetry(TelemetryHandle::enabled());
        // Tenant 0 faults on every attempt for a long stretch: it must walk through
        // backoff into quarantine while the other two keep full progress.
        svc.session_mut("tenant-0")
            .unwrap()
            .inject_faults(FaultKind::Timeout, 50);
        for round in 0..12 {
            let before: Vec<usize> = ["tenant-1", "tenant-2"]
                .iter()
                .map(|n| svc.session(n).unwrap().iteration())
                .collect();
            svc.run_round();
            for (i, name) in ["tenant-1", "tenant-2"].iter().enumerate() {
                assert!(
                    svc.session(name).unwrap().iteration() > before[i],
                    "{name} starved at round {round}"
                );
            }
        }
        let sick = svc.session("tenant-0").unwrap();
        assert!(
            matches!(sick.health(), SessionHealth::Quarantined { .. }),
            "50 consecutive faults must exhaust the retry budget: {:?}",
            sick.health()
        );
        let snap = svc.metrics_snapshot();
        assert_eq!(snap.counter(CounterId::Quarantines), 1);
        assert!(snap.counter(CounterId::MeasurementFaults) >= 3);
        assert!(
            snap.counter(CounterId::ProbeIterations) >= 1,
            "quarantine must keep probing, not forget the tenant"
        );
        assert!(snap.counter(CounterId::FaultBackoffs) >= 2);
    }

    #[test]
    fn snapshot_json_roundtrips_the_structure() {
        let mut svc = small_service(2, 1);
        svc.run_rounds(2);
        let json = svc.snapshot_json().unwrap();
        let restored = FleetService::restore_json(&json).unwrap();
        assert_eq!(restored.n_tenants(), 2);
        assert_eq!(restored.rounds(), 2);
        let a = svc.summaries();
        let b = restored.summaries();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.iterations, y.iterations);
            assert_eq!(x.cumulative_regret.to_bits(), y.cumulative_regret.to_bits());
        }
    }
}
