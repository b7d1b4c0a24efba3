//! # fleet — a multi-tenant tuning service over the OnlineTune reproduction
//!
//! The single-instance loop in `onlinetune` tunes *one* database. A cloud tuning service
//! must drive thousands of such loops concurrently, survive restarts without re-learning
//! (and without re-risking configurations it had already ruled out), and transfer what one
//! tenant's session learns to the next tenant on similar hardware running a similar
//! workload. This crate adds that service layer:
//!
//! * [`tenant`] — a [`tenant::TenantSession`] bundles one `OnlineTune` tuner with one
//!   `simdb` instance and one workload generator, steppable one suggest→apply→observe
//!   iteration at a time so a scheduler can interleave many tenants.
//! * [`scheduler`] — a [`scheduler::SessionScheduler`] plans each service round:
//!   round-robin base slots guarantee no tenant starves, and tenants with high *recent
//!   regret* (their tuner is currently losing the most against the default configuration)
//!   receive bonus slots.
//! * [`knowledge`] — a [`knowledge::KnowledgeBase`] keeps per-(hardware class, workload
//!   family) pools of known-safe configurations and context observations contributed by
//!   running sessions; new tenants are warm-started from the matching pool, generalizing
//!   the paper's cold-start fallback across tenants.
//! * [`service`] — a [`service::FleetService`] owns the tenants, the scheduler and the
//!   knowledge base, executes rounds on a worker thread pool, and can snapshot the entire
//!   fleet to JSON and restore it such that every session continues **bit-identically**
//!   (see `OnlineTune::snapshot` / `SimDatabase::snapshot` for the per-layer state hooks).
//! * [`scenario`] — a declarative [`scenario::Scenario`] scripts timed environment events
//!   against a running fleet (workload drift, hardware resizes, data growth, tenant
//!   churn); [`scenario::run_scenario`] fires them deterministically off the service's
//!   round counter, extending the bit-identical replay contract to environment change.
//! * [`fuzz`] — a seeded [`fuzz::ScenarioGenerator`] samples random timelines from a
//!   declarative [`fuzz::ScenarioDistribution`], runs them through the service, checks a
//!   [`fuzz::PropertyRegistry`] of global properties (replay bit-identity at a random
//!   snapshot cut, unsafe-rate SLO, fairness floor, knowledge-pool integrity, bounded
//!   budgets) and, on violation, [`fuzz::shrink_case`] minimizes the timeline into a
//!   committed regression corpus.
//!
//! Per-iteration cost matters `N×` more in a fleet than in a single session: every
//! tenant's model update runs the incremental `O(t²)` GP path — rank-1 Cholesky
//! extension via `gp::GaussianProcess::observe` — rather than an `O(t³)` refit, and restored
//! sessions replay bit-identically because both paths produce identical posteriors. The
//! `bench --bin hotpath` binary records the fleet-level per-iteration latency.
//!
//! ```no_run
//! use fleet::service::{FleetOptions, FleetService};
//! use fleet::tenant::{TenantSpec, WorkloadFamily};
//!
//! let mut svc = FleetService::new(FleetOptions::default());
//! svc.admit(TenantSpec::named("tenant-a", WorkloadFamily::Ycsb, 1)).unwrap();
//! svc.admit(TenantSpec::named("tenant-b", WorkloadFamily::Tpcc, 2)).unwrap();
//! let report = svc.run_rounds(10);
//! println!("{} iterations, unsafe rate {:.3}", report.iterations, report.unsafe_rate());
//! let json = svc.snapshot_json().unwrap();
//! let restored = FleetService::restore_json(&json).unwrap();
//! # let _ = restored;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fuzz;
pub mod knowledge;
pub mod recovery;
pub mod scenario;
pub mod scheduler;
pub mod serve;
pub mod service;
pub mod tenant;
pub mod wal;

pub use error::FleetError;
pub use fuzz::{
    run_fuzz_case, shrink_case, FuzzCase, PropertyRegistry, RegressionCase, RunArtifacts,
    ScenarioDistribution, ScenarioGenerator, Violation,
};
pub use knowledge::{KnowledgeBase, KnowledgeBaseOptions, KnowledgeTotals, PoolKey, WarmStart};
pub use recovery::{DurableFleet, DurableOptions, DurableStorage, RecoveryReport};
pub use scenario::{
    run_scenario, FaultSchedule, Scenario, ScenarioError, ScenarioEvent, ScenarioReport,
    ScenarioStep,
};
pub use scheduler::{HealthClass, RoundPlan, SchedulerOptions, SessionScheduler, TenantStatus};
pub use serve::{
    FleetServer, Request, Response, ServeOptions, ServeRoundReport, ServerSnapshot, TrafficScript,
};
pub use service::{FleetOptions, FleetReport, FleetService, FleetSnapshot, SloReport};
pub use tenant::{
    DegradationTier, RetryPolicy, SessionHealth, TenantSession, TenantSessionState, TenantSpec,
    TenantSummary, WorkloadDrift, WorkloadFamily,
};
pub use wal::{WalEntry, WalRecord, WalScan, WriteAheadLog};
