//! The repository benchmark: one command, three workloads, an end-to-end run and a
//! traced per-layer run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <session-dynamic|fleet-durable|serve-overload> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! * `--trace 0` repeats the workload (same seed) as often as `--seconds` allows at
//!   its per-unit budget and prints the end-to-end metrics: quantiles pool every
//!   repeat, `setup_s` is the median of set-ups timed before and after the repeats.
//! * `--trace 1` runs the workload once untraced and once traced with the same seed,
//!   and prints the per-layer metrics. The benchmark takes them by timing calls into
//!   each layer's public functions and by reading the telemetry export the program
//!   already has; it adds no spans inside the program.
//!
//! Every run checks the program's outputs and exits non-zero when one fails: the final
//! canonical state digest must be equal across every repeat and across the untraced and
//! traced runs; fleet-durable must recover bit-identically from a torn-WAL crash;
//! serve-overload must account for every offered request. The last line of standard
//! output is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod fleet_durable;
mod layers;
mod measure;
mod serve_overload;
mod session;

use measure::{median, quantile, ratio, Unit};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Set-ups are timed in two slices, before and after the measured units (the machine's
/// speed drifts over seconds, so one slice alone reads whichever state it landed in).
/// Each slice collects at least [`SETUP_MIN_SAMPLES`] samples and [`SETUP_SLICE_S`]
/// seconds of set-up, at most [`SETUP_MAX_SAMPLES`]; `setup_s` is the median of both.
const SETUP_MIN_SAMPLES: usize = 3;
const SETUP_SLICE_S: f64 = 0.5;
const SETUP_MAX_SAMPLES: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    SessionDynamic,
    FleetDurable,
    ServeOverload,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "session-dynamic" => Some(Workload::SessionDynamic),
            "fleet-durable" => Some(Workload::FleetDurable),
            "serve-overload" => Some(Workload::ServeOverload),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SessionDynamic => "session-dynamic",
            Workload::FleetDurable => "fleet-durable",
            Workload::ServeOverload => "serve-overload",
        }
    }

    fn run(self, seed: u64, workers: usize, traced: bool, recover: bool) -> Unit {
        match self {
            Workload::SessionDynamic => session::run(seed, traced),
            Workload::FleetDurable => fleet_durable::run(seed, workers, traced, recover),
            Workload::ServeOverload => serve_overload::run(seed, workers, traced),
        }
    }

    /// Seconds of the `--seconds` budget one unit is charged (about its wall time on a
    /// 2-vCPU machine). A run measures `floor(seconds / budget)` units, at least one, so
    /// the count does not depend on how fast the first unit happened to run.
    fn unit_budget_s(self) -> f64 {
        match self {
            Workload::SessionDynamic => 11.0,
            Workload::FleetDurable => 35.0,
            Workload::ServeOverload => 25.0,
        }
    }

    /// Times the workload's set-up alone (structures built, then dropped).
    fn setup_only(self, seed: u64, workers: usize) -> f64 {
        match self {
            Workload::SessionDynamic => session::setup_only(seed),
            Workload::FleetDurable => fleet_durable::setup_only(seed, workers),
            Workload::ServeOverload => serve_overload::setup_only(seed, workers),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints the environment every result depends on.
fn print_environment(workers: usize) {
    let svc = fleet::FleetService::new(fleet::FleetOptions {
        workers,
        ..Default::default()
    });
    println!(
        "environment: nproc={workers} tenant_worker_budget={} effective_hyperopt_workers={} \
         effective_intraop_workers={} rustc=\"{}\" commit={}",
        svc.tenant_worker_budget(),
        svc.effective_hyperopt_workers(),
        svc.effective_intraop_workers(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
    );
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[(&str, &str, f64)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if v.is_finite() {
                    v.to_string()
                } else {
                    "null".to_string()
                }
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn end_to_end(units: &[Unit], setup_s: &[f64]) -> BTreeMap<&'static str, f64> {
    let pooled = |f: fn(&Unit) -> &Vec<f64>| -> Vec<f64> {
        units.iter().flat_map(|u| f(u).iter().copied()).collect()
    };
    let rounds = pooled(|u| &u.round_ms);
    let requests = pooled(|u| &u.req_ms);
    let first = &units[0];
    let mut m = BTreeMap::new();
    m.insert("setup_s", median(setup_s));
    m.insert(
        "iter_per_s",
        ratio(
            units.iter().map(|u| u.iterations as f64).sum(),
            units.iter().map(|u| u.wall_s).sum(),
        ),
    );
    m.insert("round_p50_ms", quantile(&rounds, 0.5));
    m.insert("round_p90_ms", quantile(&rounds, 0.9));
    m.insert("req_p50_ms", quantile(&requests, 0.5));
    m.insert("req_p90_ms", quantile(&requests, 0.9));
    m.insert(
        "req_served_frac",
        ratio(first.served as f64, first.offered as f64),
    );
    m.insert("snapshot_mb", first.state_bytes as f64 / 1e6);
    m.insert("peak_rss_mb", peak_rss_mb());
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = args.workload;
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    print_environment(workers);

    let setup_slice = |samples: &mut Vec<f64>| {
        let start = samples.len();
        while samples.len() - start < SETUP_MAX_SAMPLES
            && (samples.len() - start < SETUP_MIN_SAMPLES
                || samples[start..].iter().sum::<f64>() < SETUP_SLICE_S)
        {
            samples.push(w.setup_only(args.seed, workers));
        }
    };
    let mut setup_s: Vec<f64> = Vec::new();
    let mut units: Vec<Unit> = Vec::new();
    let mut traced: Option<Unit> = None;
    if args.trace {
        units.push(w.run(args.seed, workers, false, true));
        traced = Some(w.run(args.seed, workers, true, false));
    } else {
        setup_slice(&mut setup_s);
        let n = ((args.seconds / w.unit_budget_s()) as usize).max(1);
        for i in 0..n {
            units.push(w.run(args.seed, workers, false, i == 0));
        }
        setup_slice(&mut setup_s);
    }

    for (i, u) in units.iter().chain(traced.iter()).enumerate() {
        println!(
            "run {i}{}: setup {:.4} s, loop {:.3} s, {} iterations, {} rounds, {} of {} \
             requests answered, {} unsafe",
            if i == units.len() { " (traced)" } else { "" },
            u.setup_s,
            u.wall_s,
            u.iterations,
            u.round_ms.len(),
            u.req_ms.len(),
            u.offered,
            u.unsafe_count
        );
    }
    if !setup_s.is_empty() {
        println!("setup samples: {}", setup_s.len());
    }
    let mut correct = true;
    let digest = units[0].digest;
    let mut digests_equal = true;
    for (i, unit) in units.iter().chain(traced.iter()).enumerate() {
        for (name, ok) in &unit.checks {
            println!("check {}: {name}", if *ok { "ok  " } else { "FAIL" });
            correct &= ok;
        }
        if unit.digest != digest {
            println!(
                "check FAIL: run {i} final state digest {:016x} differs from {digest:016x}",
                unit.digest
            );
            digests_equal = false;
        }
    }
    correct &= digests_equal;
    println!(
        "check {}: final state digest {digest:016x} equal across {} untraced and {} traced runs",
        if digests_equal { "ok  " } else { "FAIL" },
        units.len(),
        traced.is_some() as usize
    );
    for finding in &units[0].findings {
        println!("finding: {finding}");
    }

    let attempted: usize = units.iter().chain(traced.iter()).map(|u| u.offered).sum();
    // An operation the workload does not expect to fail aborts the run (non-zero exit),
    // so a finished run has none; shed, expired and refused serve requests are answers
    // of the overload policy and count against `req_served_frac` instead.
    let failed = 0;
    let metrics: Vec<(&str, &str, f64)> = if let Some(t) = &traced {
        t.ledger.print(w.name(), t.wall_s);
        for finding in t.findings.iter().filter(|f| !units[0].findings.contains(f)) {
            println!("finding (traced): {finding}");
        }
        let untraced = &units[0];
        let mut layer = t.layer.clone();
        layer.insert(
            "ledger.coverage_pct",
            100.0 * ratio(t.ledger.covered_seconds(), t.wall_s),
        );
        layer.insert(
            "trace_overhead_pct",
            100.0 * (ratio(t.wall_s, untraced.wall_s) - 1.0),
        );
        layer.insert(
            "quality.unsafe_rate",
            ratio(t.unsafe_count as f64, t.iterations as f64),
        );
        layer.insert(
            "quality.regret_per_iter",
            ratio(t.regret, t.iterations as f64),
        );
        if w == Workload::SessionDynamic {
            layer.insert("session.iter_p99_ms", quantile(&untraced.req_ms, 0.99));
        }
        layers::PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, *unit, layer.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let m = end_to_end(&units, &setup_s);
        layers::END_TO_END
            .iter()
            .map(|(name, unit)| (*name, *unit, m[name]))
            .collect()
    };
    for (name, unit, v) in &metrics {
        println!("metric {name:<34} {v:>14.6} {unit}");
        if !v.is_finite() {
            println!("check FAIL: metric {name} is not a finite number");
            correct = false;
        }
    }
    print_result(correct, attempted, failed, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
