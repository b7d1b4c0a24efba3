//! Measurement plumbing shared by the three workloads: quantiles, the per-layer ledger
//! of the traced run, and the result of one workload unit.

use fleet::FleetService;
use std::collections::BTreeMap;
use std::time::Instant;

/// The `q`-quantile of `samples` (nearest rank on the sorted values; 0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Mean of `samples` (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Per-call self-times of each layer in one traced run, in first-call order. Only the
/// traced run records into it; the end-to-end run passes a disabled ledger so its loop
/// carries no extra timing calls.
#[derive(Debug, Default)]
pub struct Ledger {
    enabled: bool,
    layers: Vec<(&'static str, Vec<f64>)>,
}

impl Ledger {
    /// A ledger that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Self {
        Ledger {
            enabled,
            layers: Vec::new(),
        }
    }

    /// Whether this ledger records.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, charging its wall time to `layer` when recording.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.charge(layer, ms_since(t));
        out
    }

    /// Charges one call of `ms` milliseconds to `layer`.
    pub fn charge(&mut self, layer: &'static str, ms: f64) {
        if !self.enabled {
            return;
        }
        match self.layers.iter_mut().find(|(name, _)| *name == layer) {
            Some((_, calls)) => calls.push(ms),
            None => self.layers.push((layer, vec![ms])),
        }
    }

    /// Per-call durations of `layer` in milliseconds.
    pub fn calls_ms(&self, layer: &str) -> &[f64] {
        self.layers
            .iter()
            .find(|(name, _)| *name == layer)
            .map_or(&[], |(_, calls)| calls.as_slice())
    }

    /// Total self-time of `layer` in milliseconds.
    pub fn total_ms(&self, layer: &str) -> f64 {
        self.calls_ms(layer).iter().sum()
    }

    /// Mean per-call duration of `layer` in milliseconds (0 when never called).
    pub fn mean_ms(&self, layer: &str) -> f64 {
        mean(self.calls_ms(layer))
    }

    /// Sum of every layer's self-time, in seconds.
    pub fn covered_seconds(&self) -> f64 {
        self.layers
            .iter()
            .map(|(_, calls)| calls.iter().sum::<f64>())
            .sum::<f64>()
            / 1e3
    }

    /// Prints the ledger: each layer's self-time and share of `wall_s`, then coverage.
    pub fn print(&self, workload: &str, wall_s: f64) {
        println!("ledger {workload}: traced wall {wall_s:.3} s");
        for (layer, calls) in &self.layers {
            let s = calls.iter().sum::<f64>() / 1e3;
            println!(
                "  {layer:<34} {s:>10.3} s  {:>6.2} %  ({} calls)",
                100.0 * ratio(s, wall_s),
                calls.len()
            );
        }
        println!(
            "  {:<34} {:>10.3} s  {:>6.2} %",
            "covered",
            self.covered_seconds(),
            100.0 * ratio(self.covered_seconds(), wall_s)
        );
    }
}

/// Everything one unit of a workload produced.
#[derive(Debug, Default)]
pub struct Unit {
    /// Seconds from the first constructor call to the first timed step.
    pub setup_s: f64,
    /// Wall seconds of the measured loop (setup and end-of-run checks excluded).
    pub wall_s: f64,
    /// Tuning iterations completed.
    pub iterations: usize,
    /// Wall time of every pass of the workload's driving loop, in milliseconds.
    pub round_ms: Vec<f64>,
    /// Latency of every answered request, in milliseconds.
    pub req_ms: Vec<f64>,
    /// Requests offered.
    pub offered: usize,
    /// Requests answered with a result (not shed, expired or refused).
    pub served: usize,
    /// Unsafe recommendations (hangs included).
    pub unsafe_count: usize,
    /// Cumulative shortfall below the default configuration's score.
    pub regret: f64,
    /// Canonical state bytes at the end of the unit.
    pub state_bytes: usize,
    /// FNV-1a-64 digest of the canonical final state.
    pub digest: u64,
    /// Per-layer timings (traced unit only).
    pub ledger: Ledger,
    /// Per-layer metric values (traced unit only).
    pub layer: BTreeMap<&'static str, f64>,
    /// Output checks this unit ran, with their outcome.
    pub checks: Vec<(String, bool)>,
    /// Findings printed with the result (quality observations as measured).
    pub findings: Vec<String>,
}

impl Unit {
    /// Records an output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }
}

/// Running per-tenant totals that survive tenant churn: a tenant removed and re-admitted
/// under the same name restarts its counters from zero, so a drop banks the old value.
#[derive(Debug, Default)]
pub struct ChurnTotals {
    last: BTreeMap<String, (usize, usize, f64)>,
    banked: (usize, usize, f64),
}

impl ChurnTotals {
    /// Observes every live tenant's lifetime `(iterations, unsafe, regret)` counters.
    pub fn observe_fleet(&mut self, svc: &FleetService) {
        for s in svc.sessions() {
            let entry = self
                .last
                .entry(s.spec().name.clone())
                .or_insert((0, 0, 0.0));
            if s.iteration() < entry.0 {
                self.banked.0 += entry.0;
                self.banked.1 += entry.1;
                self.banked.2 += entry.2;
            }
            *entry = (s.iteration(), s.unsafe_count(), s.cumulative_regret());
        }
    }

    /// Fleet-wide `(iterations, unsafe, regret)` across every tenant ever seen.
    pub fn totals(&self) -> (usize, usize, f64) {
        let mut t = self.banked;
        for v in self.last.values() {
            t.0 += v.0;
            t.1 += v.1;
            t.2 += v.2;
        }
        t
    }
}
