//! Crash-safe fleet execution: periodic snapshots + a checksummed WAL + deterministic
//! replay recovery, in one journal that both durable front ends own.
//!
//! [`DurableFleet`] (a [`FleetService`] driven by a [`Scenario`]) and
//! [`crate::serve::FleetServer`] keep only what differs — what a round does and what it
//! serializes. The journal keeps the rest: the last periodic snapshot plus a
//! [`WriteAheadLog`] written since ([`DurableStorage`], what survives a crash), the
//! commit routine, and the replay loop. The determinism contract makes the *redo
//! function re-execution*: a commit record carries no observations, only the committed
//! round and a digest of the owner's post-round state that replay is verified against.
//!
//! A commit is built per tenant. The fleet's round workers claim tenants in order and
//! turn each tenant's state into a `serde_json::Value` tree and its [`state_digest`];
//! the owner digests only the small head (its snapshot tree without the tenant list)
//! and folds the head digest and the tenant digests in tenant order
//! ([`fold_digests`]). JSON text is rendered only on the rounds that anchor a snapshot
//! (every `snapshot_interval` rounds, at genesis and after recovery): then each worker
//! also writes its tenants' JSON, and the owner splices those fragments into the head's
//! text — byte for byte the owner's canonical JSON. Replay never renders text. The one
//! input no script re-derives, an ad-hoc [`Request`] submitted to a server, is logged
//! before it is applied and re-applied in log order.
//!
//! The recovery invariant, gated in CI by `bench --bin fault_injection` and
//! `serve_soak` and fuzzed by the `crash_recovery_bit_identity` property:
//!
//! > Kill the process after *any* round (tearing an arbitrary number of bytes off the
//! > WAL tail), recover from the surviving storage, and continue to the horizon: the
//! > final snapshot is **bit-identical** to a run that was never interrupted.
//!
//! Torn WAL tails are detected by checksum and dropped (a torn round is simply
//! re-executed); mid-journal corruption, unreadable records and digest mismatches
//! fail recovery with a typed [`FleetError`] rather than resurrecting a wrong state.

use crate::error::FleetError;
use crate::scenario::Scenario;
use crate::serve::Request;
use crate::service::{FleetService, FleetSnapshot};
use crate::wal::{fold_digests, state_digest, WalRecord, WriteAheadLog};
use serde_json::Value;
use std::fmt::Write;
use telemetry::{CounterId, EventKind, TelemetryHandle};

/// Options of a [`DurableFleet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DurableOptions {
    /// A full snapshot is taken (and the WAL truncated) every `snapshot_interval`
    /// committed rounds. `1` snapshots every round (an always-empty WAL); larger values
    /// trade recovery replay work for snapshot serialization work.
    pub snapshot_interval: usize,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            snapshot_interval: 4,
        }
    }
}

/// What survives a crash: the last periodic snapshot and the WAL bytes written since.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableStorage {
    /// Canonical JSON of the last periodic snapshot.
    pub snapshot_json: String,
    /// Fleet round counter at the moment the snapshot was taken.
    pub snapshot_round: usize,
    /// Raw WAL bytes appended since that snapshot (possibly torn by the crash).
    pub wal_bytes: Vec<u8>,
}

/// What a recovery did.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RecoveryReport {
    /// Round the recovered snapshot anchored the replay at.
    pub snapshot_round: usize,
    /// Rounds re-executed from the WAL's commit records.
    pub replayed_rounds: usize,
    /// Bytes of torn WAL tail dropped (0 after a clean shutdown).
    pub torn_bytes: usize,
}

/// A state at a commit — a durable owner's, or one tenant's part of it: the digest
/// (what the owner's WAL record carries) and, on a commit that anchors a snapshot, the
/// canonical JSON text.
pub(crate) struct CommitState {
    pub(crate) digest: u64,
    pub(crate) text: Option<String>,
}

impl CommitState {
    /// Folds the owner's `head` — its snapshot tree with the tenant array at `path`
    /// emptied — with the tenants' parts in tenant order: the digest is
    /// [`fold_digests`] of the head's digest and the tenant digests; when `render` is
    /// set, the text is the head's JSON with the tenant texts spliced into that array.
    pub(crate) fn fold(
        head: &Value,
        path: &[&str],
        tenants: Vec<CommitState>,
        render: bool,
    ) -> Self {
        let digests: Vec<u64> = tenants.iter().map(|t| t.digest).collect();
        let digest = fold_digests(state_digest(head), &digests);
        let text = render.then(|| {
            let texts: Vec<String> = tenants.into_iter().flat_map(|t| t.text).collect();
            let mut out = String::with_capacity(texts.iter().map(|t| t.len() + 1).sum());
            write_spliced(&mut out, head, path, &texts);
            out
        });
        CommitState { digest, text }
    }
}

/// Writes `value` as compact JSON, the array at `path` written with `items` (the JSON
/// texts of its elements) as its elements. Matches the writer of
/// `impl Display for Value` byte for byte.
fn write_spliced(out: &mut String, value: &Value, path: &[&str], items: &[String]) {
    let (Some((key, rest)), Value::Object(pairs)) = (path.split_first(), value) else {
        out.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(item);
        }
        out.push(']');
        return;
    };
    out.push('{');
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{}:", Value::String(k.clone())).expect("writing to a String cannot fail");
        if k == key {
            write_spliced(out, v, rest, items);
        } else {
            write!(out, "{v}").expect("writing to a String cannot fail");
        }
    }
    out.push('}');
}

/// The durability mechanism a durable front end owns: the last periodic snapshot, the WAL
/// written since, and the snapshot schedule.
#[derive(Default)]
pub(crate) struct Journal {
    snapshot_interval: usize,
    snapshot_json: String,
    snapshot_round: usize,
    rounds_since_snapshot: usize,
    wal: WriteAheadLog,
}

/// One logged input that [`Journal::replay`] hands back to its owner, in log order.
pub(crate) enum Redo {
    /// Re-execute the next committed round.
    Round,
    /// Re-apply a logged submission; `offset` is its frame's byte offset.
    Submission { offset: usize, request: Request },
}

impl Journal {
    /// A journal that snapshots every `snapshot_interval` rounds, not yet anchored.
    pub(crate) fn new(snapshot_interval: usize) -> Self {
        Journal {
            snapshot_interval: snapshot_interval.max(1),
            ..Default::default()
        }
    }

    /// Anchors the journal at `json`, the owner's canonical JSON at `round`: it becomes
    /// the snapshot, and the WAL written before it is truncated.
    pub(crate) fn anchor(&mut self, json: String, round: usize) {
        self.snapshot_json = json;
        self.snapshot_round = round;
        self.rounds_since_snapshot = 0;
        self.wal.clear();
    }

    /// Whether the next [`Journal::commit`] anchors a snapshot: the owner renders its
    /// text for that commit only.
    pub(crate) fn anchors_next(&self) -> bool {
        self.rounds_since_snapshot + 1 >= self.snapshot_interval
    }

    /// Commits a round that left the owner at `round` in `state`: appends its digest
    /// and, every `snapshot_interval` rounds, anchors at its text.
    pub(crate) fn commit(&mut self, round: usize, state: CommitState, telemetry: &TelemetryHandle) {
        self.wal.append(round as u64, state.digest);
        telemetry.incr(CounterId::WalAppends);
        self.rounds_since_snapshot += 1;
        if self.rounds_since_snapshot >= self.snapshot_interval {
            let text = state.text.expect("an anchoring commit carries its text");
            self.anchor(text, round);
        }
    }

    /// Logs a submission, write-ahead of applying it.
    pub(crate) fn log_submission(&mut self, request: &Request) {
        let json = serde_json::to_string(request).expect("an in-memory request serializes");
        self.wal.append_submission(json.as_bytes());
    }

    /// What a crash that loses the last `torn` bytes of the WAL leaves behind.
    pub(crate) fn crash(&self, torn: usize) -> DurableStorage {
        let wal = self.wal.bytes();
        DurableStorage {
            snapshot_json: self.snapshot_json.clone(),
            snapshot_round: self.snapshot_round,
            wal_bytes: wal[..wal.len().saturating_sub(torn)].to_vec(),
        }
    }

    /// Replays `storage`'s WAL against a state its owner already restored from
    /// `storage.snapshot_json`: drops the torn tail, hands every logged input to `redo`
    /// in log order (records after the last commit included), and checks the commit
    /// digest `redo` returns for each [`Redo::Round`] against its commit record — a
    /// mismatch is [`FleetError::RecoveryDivergence`], an unreadable submission record
    /// [`FleetError::WalCorrupt`].
    pub(crate) fn replay(
        storage: &DurableStorage,
        telemetry: &TelemetryHandle,
        subject: &str,
        mut redo: impl FnMut(Redo) -> Result<Option<u64>, FleetError>,
    ) -> Result<RecoveryReport, FleetError> {
        let scan = WriteAheadLog::from_bytes(storage.wal_bytes.clone())?.scan()?;
        telemetry.add(
            CounterId::WalTornEntriesDropped,
            (scan.torn_bytes > 0) as u64,
        );
        let mut replayed_rounds = 0;
        for (offset, record) in scan.records {
            let entry = match record {
                WalRecord::Commit(entry) => entry,
                WalRecord::Submission(payload) => {
                    let request = serde_json::from_str(&String::from_utf8_lossy(&payload))
                        .map_err(|e| FleetError::WalCorrupt {
                            offset,
                            reason: format!("unreadable submission record: {e}"),
                        })?;
                    redo(Redo::Submission { offset, request })?;
                    continue;
                }
            };
            let digest = redo(Redo::Round)?.expect("a replayed round yields its digest");
            replayed_rounds += 1;
            telemetry.incr(CounterId::RecoveryReplays);
            if digest != entry.digest {
                return Err(FleetError::RecoveryDivergence {
                    round: entry.round as usize,
                    expected: entry.digest,
                    actual: digest,
                });
            }
        }
        let report = RecoveryReport {
            snapshot_round: storage.snapshot_round,
            replayed_rounds,
            torn_bytes: scan.torn_bytes,
        };
        if telemetry.is_enabled() {
            telemetry.event(
                EventKind::WalRecovered,
                subject,
                &format!(
                    "snapshot@{} +{} replayed, {} torn bytes dropped",
                    report.snapshot_round, report.replayed_rounds, report.torn_bytes
                ),
            );
        }
        Ok(report)
    }
}

/// A crash-safe wrapper around a scenario-driven fleet.
///
/// Construction takes a genesis snapshot, so [`DurableFleet::storage`] is total — there
/// is no window in which a crash loses everything. Each [`DurableFleet::run_round`]
/// fires the scenario steps due at the current round, executes the round, appends a
/// commit record to the WAL, and every [`DurableOptions::snapshot_interval`] rounds
/// replaces the snapshot and truncates the WAL.
pub struct DurableFleet {
    svc: FleetService,
    scenario: Scenario,
    journal: Journal,
}

impl std::fmt::Debug for DurableFleet {
    // FleetService holds live sessions (no Debug); summarize instead.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableFleet")
            .field("rounds", &self.svc.rounds())
            .field("scenario", &self.scenario.name)
            .field("snapshot_round", &self.journal.snapshot_round)
            .field("wal_bytes", &self.journal.wal.len_bytes())
            .finish()
    }
}

/// What a [`DurableFleet`] commits: the state behind
/// [`FleetService::canonical_snapshot_json`], with its text when `render` is set.
fn commit_state(svc: &FleetService, render: bool) -> CommitState {
    let head = serde_json::to_value(&svc.head_snapshot())
        .expect("an in-memory fleet snapshot always serializes");
    svc.commit_state(&head, &["tenants"], render)
}

/// Fires the scenario steps due at the service's current round, then runs the round.
fn scenario_round(svc: &mut FleetService, scenario: &Scenario) -> Result<usize, FleetError> {
    for step in scenario.due_at(svc.rounds()) {
        step.event.apply(svc).map_err(FleetError::Scenario)?;
    }
    Ok(svc.run_round())
}

impl DurableFleet {
    /// Wraps a service and its driving scenario, taking the genesis snapshot.
    pub fn new(svc: FleetService, scenario: Scenario, options: DurableOptions) -> Self {
        let mut journal = Journal::new(options.snapshot_interval);
        journal.anchor(svc.canonical_snapshot_json(), svc.rounds());
        DurableFleet {
            svc,
            scenario,
            journal,
        }
    }

    /// The wrapped service.
    pub fn service(&self) -> &FleetService {
        &self.svc
    }

    /// Mutable access to the wrapped service (telemetry installation etc.).
    pub fn service_mut(&mut self) -> &mut FleetService {
        &mut self.svc
    }

    /// Fires due scenario steps, executes one round, and commits it to the WAL.
    /// Returns the iterations the round executed.
    pub fn run_round(&mut self) -> Result<usize, FleetError> {
        let iterations = scenario_round(&mut self.svc, &self.scenario)?;
        let state = commit_state(&self.svc, self.journal.anchors_next());
        self.journal
            .commit(self.svc.rounds(), state, self.svc.telemetry());
        Ok(iterations)
    }

    /// Runs `n` rounds; returns the total iterations executed.
    pub fn run_rounds(&mut self, n: usize) -> Result<usize, FleetError> {
        let mut total = 0;
        for _ in 0..n {
            total += self.run_round()?;
        }
        Ok(total)
    }

    /// The state a crash right now would leave behind.
    pub fn storage(&self) -> DurableStorage {
        self.journal.crash(0)
    }

    /// Simulates a crash that loses the last `torn` bytes of the WAL and returns what
    /// survives. (`torn` larger than the journal tears it to empty.)
    pub fn crash(&self, torn: usize) -> DurableStorage {
        self.journal.crash(torn)
    }

    /// Recovers a durable fleet from crash-surviving storage: restores the snapshot,
    /// drops any torn WAL tail, re-executes the committed rounds under the scenario, and
    /// verifies each replayed round's state digest against the WAL's commit record, so
    /// the recovered fleet continues **bit-identically** to the crashed one.
    ///
    /// A digest mismatch (damaged snapshot, wrong scenario) fails with
    /// [`FleetError::RecoveryDivergence`]; a submission record — which only a serving
    /// front end writes — with [`FleetError::WalCorrupt`].
    pub fn recover(
        storage: &DurableStorage,
        scenario: Scenario,
        options: DurableOptions,
        telemetry: TelemetryHandle,
    ) -> Result<(Self, RecoveryReport), FleetError> {
        let svc = FleetService::restore_with_telemetry(
            serde_json::from_str::<FleetSnapshot>(&storage.snapshot_json)
                .map_err(|e| FleetError::SnapshotParse(e.to_string()))?,
            telemetry,
        )?;
        DurableFleet::resume(svc, storage, scenario, options)
    }

    /// The replay half of [`DurableFleet::recover`]: re-executes `storage`'s committed
    /// rounds on `svc`, already restored from `storage.snapshot_json`.
    fn resume(
        mut svc: FleetService,
        storage: &DurableStorage,
        scenario: Scenario,
        options: DurableOptions,
    ) -> Result<(Self, RecoveryReport), FleetError> {
        let telemetry = svc.telemetry().clone();
        let report = Journal::replay(storage, &telemetry, "fleet", |redo| match redo {
            Redo::Round => {
                scenario_round(&mut svc, &scenario)?;
                Ok(Some(commit_state(&svc, false).digest))
            }
            Redo::Submission { offset, request } => Err(FleetError::WalCorrupt {
                offset,
                reason: format!("{} logged in a scenario-driven fleet", request.label()),
            }),
        })?;
        // Re-anchor at a fresh post-recovery snapshot; the old WAL bytes are superseded.
        Ok((DurableFleet::new(svc, scenario, options), report))
    }
}

/// Serial references for the commit path's tests.
#[cfg(test)]
pub(crate) mod reference {
    use crate::wal::{fold_digests, state_digest};
    use serde_json::Value;

    /// The commit digest folded serially from the owner's whole snapshot tree: the
    /// tenant array at `path` is taken out, each element digested, and the rest
    /// digested as the head.
    pub(crate) fn commit_digest(mut tree: Value, path: &[&str]) -> u64 {
        let mut node = &mut tree;
        for key in path {
            let Value::Object(pairs) = node else {
                panic!("no object at `{key}`")
            };
            node = &mut pairs
                .iter_mut()
                .find(|(k, _)| k == key)
                .expect("path key")
                .1;
        }
        let Value::Array(tenants) = std::mem::replace(node, Value::Array(Vec::new())) else {
            panic!("no tenant array at {path:?}")
        };
        let digests: Vec<u64> = tenants.iter().map(state_digest).collect();
        fold_digests(state_digest(&tree), &digests)
    }

    /// `tree` as it was written while the options still carried worker grants:
    /// `hyperopt_workers` and `intraop_workers` follow `workers` in the fleet options
    /// and `hyperopt_period` in every cluster-options object, each set to 1.
    pub(crate) fn with_worker_keys(tree: Value) -> Value {
        match tree {
            Value::Array(items) => Value::Array(items.into_iter().map(with_worker_keys).collect()),
            Value::Object(pairs) => {
                let is_fleet_options = pairs.iter().any(|(k, _)| k == "scheduler");
                let mut out = Vec::with_capacity(pairs.len() + 2);
                for (key, item) in pairs {
                    let grants = key == "hyperopt_period" || (is_fleet_options && key == "workers");
                    out.push((key, with_worker_keys(item)));
                    if grants {
                        for grant in ["hyperopt_workers", "intraop_workers"] {
                            out.push((grant.to_string(), Value::Number(1.0)));
                        }
                    }
                }
                Value::Object(out)
            }
            leaf => leaf,
        }
    }

    /// The commit digest of storage written before tenant folding: FNV-1a-64, one byte
    /// at a time, over a tagged, length-prefixed encoding of the whole tree (one tag
    /// byte, little-endian `u64` lengths and number bits, raw string bytes).
    pub(crate) fn byte_fnv_tree_digest(value: &Value) -> u64 {
        fn bytes(hash: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *hash = (*hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        fn header(hash: &mut u64, tag: u8, len: usize) {
            bytes(hash, &[tag]);
            bytes(hash, &(len as u64).to_le_bytes());
        }
        fn walk(hash: &mut u64, value: &Value) {
            match value {
                Value::Null => bytes(hash, b"n"),
                Value::Number(n) if !n.is_finite() => bytes(hash, b"n"),
                Value::Number(n) => {
                    bytes(hash, b"#");
                    bytes(hash, &n.to_bits().to_le_bytes());
                }
                Value::Bool(b) => bytes(hash, if *b { b"t" } else { b"f" }),
                Value::String(s) => {
                    header(hash, b'"', s.len());
                    bytes(hash, s.as_bytes());
                }
                Value::Array(items) => {
                    header(hash, b'[', items.len());
                    items.iter().for_each(|item| walk(hash, item));
                }
                Value::Object(pairs) => {
                    header(hash, b'{', pairs.len());
                    for (key, item) in pairs {
                        header(hash, b'"', key.len());
                        bytes(hash, key.as_bytes());
                        walk(hash, item);
                    }
                }
            }
        }
        let mut hash = 0xcbf2_9ce4_8422_2325;
        walk(&mut hash, value);
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{FaultSchedule, ScenarioEvent};
    use crate::scheduler::SchedulerOptions;
    use crate::service::{small_tuner_options, FleetOptions};
    use crate::tenant::{TenantSpec, WorkloadFamily};
    use crate::wal::FRAME_LEN;
    use simdb::FaultKind;

    fn small_service(n: usize) -> FleetService {
        service_with(n, 1, SchedulerOptions::default())
    }

    fn service_with(n: usize, workers: usize, scheduler: SchedulerOptions) -> FleetService {
        let mut svc = FleetService::new(FleetOptions {
            workers,
            scheduler,
            tuner: small_tuner_options(),
            ..Default::default()
        });
        for i in 0..n {
            let family = WorkloadFamily::ALL[i % WorkloadFamily::ALL.len()];
            let mut spec = TenantSpec::named(format!("t{i}"), family, 4000 + i as u64);
            spec.deterministic = true;
            svc.admit(spec).unwrap();
        }
        svc
    }

    fn faulty_scenario() -> Scenario {
        Scenario::new("durable-test")
            .at(
                2,
                ScenarioEvent::InjectFault {
                    tenant: "t0".into(),
                    kind: FaultKind::Failure,
                    schedule: FaultSchedule::Burst { count: 4 },
                },
            )
            .at(
                4,
                ScenarioEvent::ScaleData {
                    tenant: "t1".into(),
                    factor: 1.5,
                },
            )
    }

    fn reference_snapshot(rounds: usize) -> String {
        let mut fleet = DurableFleet::new(
            small_service(2),
            faulty_scenario(),
            DurableOptions::default(),
        );
        fleet.run_rounds(rounds).unwrap();
        fleet.service().canonical_snapshot_json()
    }

    #[test]
    fn rounds_commit_to_the_wal_and_snapshots_truncate_it() {
        let mut fleet = DurableFleet::new(
            small_service(2),
            faulty_scenario(),
            DurableOptions {
                snapshot_interval: 3,
            },
        );
        fleet.run_rounds(2).unwrap();
        let wal = WriteAheadLog::from_bytes(fleet.storage().wal_bytes).unwrap();
        assert_eq!(wal.scan().unwrap().records.len(), 2);
        fleet.run_round().unwrap();
        // Third round hit the snapshot interval: WAL truncated, snapshot advanced.
        assert!(fleet.storage().wal_bytes.is_empty());
        assert_eq!(fleet.storage().snapshot_round, 3);
    }

    #[test]
    fn crash_at_every_round_recovers_bit_identically() {
        let horizon = 7;
        let reference = reference_snapshot(horizon);
        for kill_round in 1..horizon {
            let mut fleet = DurableFleet::new(
                small_service(2),
                faulty_scenario(),
                DurableOptions::default(),
            );
            fleet.run_rounds(kill_round).unwrap();
            // Tear a round-dependent number of bytes off the WAL tail, torn frames
            // included: recovery must cope with any cut.
            let storage = fleet.crash((kill_round * 11) % (FRAME_LEN + 5));
            let (mut recovered, report) = DurableFleet::recover(
                &storage,
                faulty_scenario(),
                DurableOptions::default(),
                TelemetryHandle::disabled(),
            )
            .unwrap_or_else(|e| panic!("kill at round {kill_round}: {e}"));
            assert!(report.replayed_rounds + report.snapshot_round <= kill_round);
            recovered
                .run_rounds(horizon - recovered.service().rounds())
                .unwrap();
            assert_eq!(
                recovered.service().canonical_snapshot_json(),
                reference,
                "kill at round {kill_round}"
            );
        }
    }

    #[test]
    fn recovery_from_a_wrong_scenario_is_a_typed_divergence() {
        let mut fleet = DurableFleet::new(
            small_service(2),
            faulty_scenario(),
            DurableOptions::default(),
        );
        fleet.run_rounds(3).unwrap();
        let storage = fleet.storage();
        // Replaying under a different timeline produces different bytes than the WAL
        // digests committed — recovery must refuse, not resurrect a wrong state.
        let wrong = Scenario::new("wrong").at(
            1,
            ScenarioEvent::ScaleData {
                tenant: "t0".into(),
                factor: 9.0,
            },
        );
        let err = DurableFleet::recover(
            &storage,
            wrong,
            DurableOptions::default(),
            TelemetryHandle::disabled(),
        )
        .unwrap_err();
        assert!(
            matches!(err, FleetError::RecoveryDivergence { .. }),
            "{err}"
        );
    }

    #[test]
    fn mid_journal_corruption_fails_recovery_with_a_typed_error() {
        let mut fleet = DurableFleet::new(
            small_service(1),
            Scenario::new("plain"),
            DurableOptions::default(),
        );
        fleet.run_rounds(3).unwrap();
        let mut storage = fleet.storage();
        storage.wal_bytes[6] ^= 0x10;
        let err = DurableFleet::recover(
            &storage,
            Scenario::new("plain"),
            DurableOptions::default(),
            TelemetryHandle::disabled(),
        )
        .unwrap_err();
        assert!(matches!(err, FleetError::WalCorrupt { .. }), "{err}");
    }

    #[test]
    fn submission_records_in_a_fleet_journal_are_typed_errors() {
        let mut fleet = DurableFleet::new(
            small_service(1),
            Scenario::new("plain"),
            DurableOptions::default(),
        );
        fleet.run_rounds(2).unwrap();
        let recover = |storage: &DurableStorage| {
            DurableFleet::recover(
                storage,
                Scenario::new("plain"),
                DurableOptions::default(),
                TelemetryHandle::disabled(),
            )
            .unwrap_err()
        };
        // A well-formed submission record: only a serving front end writes those.
        let mut storage = fleet.storage();
        let mut wal = WriteAheadLog::from_bytes(storage.wal_bytes.clone()).unwrap();
        wal.append_submission(br#""TelemetryRead""#);
        storage.wal_bytes = wal.bytes().to_vec();
        let err = recover(&storage);
        assert!(
            matches!(&err, FleetError::WalCorrupt { offset, .. } if *offset == 2 * FRAME_LEN),
            "{err}"
        );
        // A record that fails to parse: a commit frame with its kind bit flipped still
        // passes its payload CRC, but its payload is no serialized request.
        let mut storage = fleet.storage();
        storage.wal_bytes[3] ^= 0x80;
        let err = recover(&storage);
        assert!(
            matches!(&err, FleetError::WalCorrupt { offset: 0, reason } if reason.contains("unreadable")),
            "{err}"
        );
    }

    /// Storage in an earlier format — snapshot text rendered from `old_tree` of the
    /// fleet's snapshot tree, and commit frames carrying `old_digest` of that old tree
    /// after each round — must be refused with a typed divergence on its first replayed
    /// round, and restore from the snapshot alone when its WAL is empty.
    fn assert_old_storage_restores_only_without_a_wal(
        old_tree: fn(Value) -> Value,
        old_digest: fn(&Value) -> u64,
    ) {
        let horizon = 5;
        let reference = reference_snapshot(horizon);
        let old_tree_of =
            |svc: &FleetService| old_tree(serde_json::to_value(&svc.snapshot()).unwrap());
        let snapshot_json = serde_json::to_string(&old_tree_of(&small_service(2))).unwrap();
        let mut fleet = DurableFleet::new(
            small_service(2),
            faulty_scenario(),
            DurableOptions::default(),
        );
        // The genesis anchor is the rendering of today's tree.
        assert_eq!(
            fleet.storage().snapshot_json,
            serde_json::to_string(&serde_json::to_value(&fleet.service().snapshot()).unwrap())
                .unwrap()
        );
        let mut wal = WriteAheadLog::new();
        for _ in 0..2 {
            fleet.run_round().unwrap();
            let svc = fleet.service();
            wal.append(svc.rounds() as u64, old_digest(&old_tree_of(svc)));
        }
        let old = DurableStorage {
            snapshot_json,
            snapshot_round: 0,
            wal_bytes: wal.bytes().to_vec(),
        };
        let recover = |storage: &DurableStorage| {
            DurableFleet::recover(
                storage,
                faulty_scenario(),
                DurableOptions::default(),
                TelemetryHandle::disabled(),
            )
        };
        // Its WAL tail is refused with a typed divergence on the first replayed round.
        let err = recover(&old).unwrap_err();
        assert!(
            matches!(err, FleetError::RecoveryDivergence { round: 1, .. }),
            "{err}"
        );
        // With an empty WAL the snapshot alone restores, and continues bit-identically.
        let (mut recovered, report) = recover(&DurableStorage {
            wal_bytes: Vec::new(),
            ..old
        })
        .unwrap();
        assert_eq!(report.replayed_rounds, 0);
        recovered.run_rounds(horizon).unwrap();
        assert_eq!(recovered.service().canonical_snapshot_json(), reference);
    }

    #[test]
    fn storage_from_text_digest_commits_restores_only_without_a_wal() {
        // Commit frames that carried the FNV-1a-64 of the canonical JSON text.
        assert_old_storage_restores_only_without_a_wal(
            |tree| tree,
            |tree| crate::wal::fnv1a64(serde_json::to_string(tree).unwrap().as_bytes()),
        );
    }

    #[test]
    fn storage_from_whole_tree_digest_commits_restores_only_without_a_wal() {
        // Commit frames that carried the byte-at-a-time FNV-1a-64 of the whole snapshot
        // tree, before per-tenant folding and the word mixer.
        assert_old_storage_restores_only_without_a_wal(
            |tree| tree,
            reference::byte_fnv_tree_digest,
        );
    }

    #[test]
    fn storage_with_worker_grant_keys_restores_only_without_a_wal() {
        // Storage written while the options carried worker grants: today's digest
        // format over trees with the grant keys (four in the head, two per tenant).
        // Dropping the keys changes the digests, so its WAL tail is refused.
        assert_old_storage_restores_only_without_a_wal(reference::with_worker_keys, |tree| {
            reference::commit_digest(tree.clone(), &["tenants"])
        });
    }

    /// The commit state of `svc` — anchoring or not — against the serial reference: the
    /// digest folded from its whole snapshot tree, and its canonical JSON.
    fn assert_commit_matches_reference(svc: &FleetService, context: &str) {
        let tree = serde_json::to_value(&svc.snapshot()).unwrap();
        let want = reference::commit_digest(tree, &["tenants"]);
        let anchored = commit_state(svc, true);
        assert_eq!(anchored.digest, want, "{context}");
        assert!(
            anchored.text.as_deref() == Some(svc.canonical_snapshot_json().as_str()),
            "{context}: anchor text differs from the canonical snapshot JSON"
        );
        let plain = commit_state(svc, false);
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
        for workers in [1, 2, 4] {
            let mut skewed = service_with(5, workers, skew);
            skewed
                .session_mut("t0")
                .unwrap()
                .inject_faults(FaultKind::Timeout, 50);
            let fleets = [
                ("no tenants", service_with(0, workers, skew)),
                ("one tenant", service_with(1, workers, skew)),
                ("two tenants", service_with(2, workers, skew)),
                ("quarantine and bonus slots", skewed),
            ];
            for (name, mut svc) in fleets {
                let (mut idle, mut bonus) = (false, false);
                for round in 0..6 {
                    let context = format!("{name}, {workers} workers, round {round}");
                    assert_commit_matches_reference(&svc, &context);
                    let before = svc.granted_slots().to_vec();
                    svc.run_round();
                    for (after, before) in svc.granted_slots().iter().zip(&before) {
                        idle |= after == before;
                        bonus |= after - before > 1;
                    }
                }
                assert_commit_matches_reference(&svc, &format!("{name}, {workers} workers"));
                if svc.n_tenants() == 5 {
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
        let run = |telemetry: TelemetryHandle| {
            let mut svc = small_service(2);
            svc.set_telemetry(telemetry);
            let mut fleet = DurableFleet::new(
                svc,
                faulty_scenario(),
                DurableOptions {
                    snapshot_interval: 4,
                },
            );
            fleet.run_rounds(rounds).unwrap();
            fleet
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
        // Telemetry never shows in what is stored.
        let plain = run(TelemetryHandle::disabled());
        assert_eq!(plain.storage(), observed.storage());
        assert_eq!(
            plain.service().canonical_snapshot_json(),
            svc.canonical_snapshot_json()
        );
    }

    #[test]
    fn recovery_is_independent_of_the_worker_count() {
        // `workers: 0` takes the worker count from the parallelism sample, which is not
        // part of the snapshot: the same storage replays under any count.
        let fleet_at = |parallelism: usize| {
            let mut svc = service_with(4, 0, SchedulerOptions::default());
            svc.set_parallelism(parallelism);
            DurableFleet::new(svc, faulty_scenario(), DurableOptions::default())
        };
        let horizon = 9;
        let mut reference = fleet_at(2);
        reference.run_rounds(horizon).unwrap();
        let reference = reference.service().canonical_snapshot_json();
        for (crashed_at, recovered_at) in [(4, 1), (1, 4)] {
            for kill_round in [3, 6] {
                let context = format!("crash at {crashed_at} workers, round {kill_round}");
                let mut fleet = fleet_at(crashed_at);
                fleet.run_rounds(kill_round).unwrap();
                let storage = fleet.crash(FRAME_LEN / 2);
                let mut svc = FleetService::restore_json(&storage.snapshot_json).unwrap();
                svc.set_parallelism(recovered_at);
                let (mut recovered, report) = DurableFleet::resume(
                    svc,
                    &storage,
                    faulty_scenario(),
                    DurableOptions::default(),
                )
                .unwrap_or_else(|e| panic!("{context}: {e}"));
                assert!(
                    report.torn_bytes > 0 && report.replayed_rounds > 0,
                    "{context}"
                );
                recovered
                    .run_rounds(horizon - recovered.service().rounds())
                    .unwrap();
                assert!(
                    recovered.service().canonical_snapshot_json() == reference,
                    "{context}: recovered at {recovered_at} workers differs"
                );
            }
        }
    }

    #[test]
    fn missing_genesis_snapshot_with_an_intact_wal_is_a_typed_error() {
        let mut fleet = DurableFleet::new(
            small_service(2),
            faulty_scenario(),
            DurableOptions::default(),
        );
        fleet.run_rounds(3).unwrap();
        let mut storage = fleet.storage();
        assert!(
            !storage.wal_bytes.is_empty(),
            "the WAL must hold committed rounds for this test to bite"
        );
        // Simulate losing the snapshot file while the WAL survives: recovery must
        // refuse with a parse error naming the problem — never panic, never replay a
        // WAL against a fleet it doesn't belong to.
        storage.snapshot_json = String::new();
        let err = DurableFleet::recover(
            &storage,
            faulty_scenario(),
            DurableOptions::default(),
            TelemetryHandle::disabled(),
        )
        .unwrap_err();
        assert!(matches!(err, FleetError::SnapshotParse(_)), "{err}");
    }

    #[test]
    fn kill_between_truncation_and_first_append_recovers_bit_identically() {
        // A crash landing exactly in the gap between a periodic snapshot's WAL
        // truncation and the first post-truncation append leaves storage holding a
        // fresh snapshot and an *empty* WAL. Recovery must treat that as a clean
        // anchor (zero replayed rounds) and continue bit-identically.
        let interval = DurableOptions::default().snapshot_interval;
        let horizon = interval * 3;
        let reference = reference_snapshot(horizon);

        let mut fleet = DurableFleet::new(
            small_service(2),
            faulty_scenario(),
            DurableOptions::default(),
        );
        // Stop right on the interval boundary: the snapshot was just taken and the
        // WAL truncated; nothing has been appended since.
        fleet.run_rounds(interval).unwrap();
        let storage = fleet.crash(0);
        assert_eq!(storage.snapshot_round, interval);
        assert!(
            storage.wal_bytes.is_empty(),
            "the truncation gap must leave an empty WAL"
        );

        let (mut recovered, report) = DurableFleet::recover(
            &storage,
            faulty_scenario(),
            DurableOptions::default(),
            TelemetryHandle::disabled(),
        )
        .unwrap();
        assert_eq!(report.replayed_rounds, 0);
        assert_eq!(report.torn_bytes, 0);
        assert_eq!(recovered.service().rounds(), interval);
        recovered.run_rounds(horizon - interval).unwrap();
        assert_eq!(
            recovered.service().canonical_snapshot_json(),
            reference,
            "a truncation-gap kill must recover bit-identically"
        );
    }
}
