//! End-to-end and per-layer benchmark of the STeP simulator.
//!
//! Two workloads, each run in its own process on one busy thread:
//!
//! - [`sweep::Sweep`] — about 107 paper-figure points (Figs 8, 9/10,
//!   12/13, 14/15/21) submitted one at a time to a one-worker
//!   `SweepService`, every point cold;
//! - [`serving::Replay`] — a chunked-prefill Mixtral serving cell
//!   re-served back to back against the plan and report caches its cold
//!   pass filled during set-up.
//!
//! A run repeats rounds of its workload back to back until the requested
//! seconds are spent and at least [`MIN_ROUNDS`] rounds are done. Host
//! time is probed between units and reported at a reference host speed
//! ([`speed`]). A traced run alternates untraced and traced rounds: the
//! traced rounds record host-time spans around the benchmark's own calls
//! into each layer ([`spans`]), and the untraced ones give the tracing
//! overhead.

pub mod fidelity;
pub mod serving;
pub mod spans;
pub mod speed;
pub mod sweep;

use spans::{Span, Tracer, layer_totals};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The end-to-end metrics, with their units, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ref_error_pct", "%"),
];

/// The layers whose self time makes up a traced round, in table order.
/// Each is a span name; `bench.round` is the round itself, so its self
/// time is the benchmark's own loop. The round's `speed.probe` spans are
/// left out, as probes are no part of a round's time.
const LAYERS: [&str; 7] = [
    "bench.round",
    "bench.plan_cache",
    "sim.plan",
    "models.build",
    "bench.service",
    "sim.run",
    "models.serving",
];

/// The per-layer metrics, with their units, printed by a traced run.
/// Every value is per traced round.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("sim.run_ms", "ms"),
    ("sim.run_calls", "count"),
    ("sim.fires", "count"),
    ("sim.idle_fires", "count"),
    ("sim.useful_fire_ratio", "ratio"),
    ("sim.ns_per_fire", "ns"),
    ("sim.chan_tokens", "count"),
    ("sim.chan_runs", "count"),
    ("sim.fresh_states", "count"),
    ("sim.pool_resets", "count"),
    ("sim.plan_ms", "ms"),
    ("sim.plan_calls", "count"),
    ("models.build_ms", "ms"),
    ("models.build_calls", "count"),
    ("bench.plan_cache.hits", "count"),
    ("bench.plan_cache.misses", "count"),
    ("bench.plan_cache.entries", "count"),
    ("sim.report_cache.hits", "count"),
    ("sim.report_cache.misses", "count"),
    ("sim.report_cache.hit_ratio", "ratio"),
    ("sim.report_cache.entries", "count"),
    ("models.serving.iterations", "count"),
    ("models.serving.engine_fires", "count"),
    ("models.serving.logical_fires", "count"),
    ("models.serving.elided_ratio", "ratio"),
    ("models.serving.us_per_iteration", "us"),
    ("models.serving.plan_ms", "ms"),
    ("models.serving.call_ms_p50", "ms"),
    ("models.serving.call_ms_p90", "ms"),
    ("bench.service.worker_ms", "ms"),
    ("bench.service.queue_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("share.bench.round", "%"),
    ("share.bench.plan_cache", "%"),
    ("share.sim.plan", "%"),
    ("share.models.build", "%"),
    ("share.bench.service", "%"),
    ("share.sim.run", "%"),
    ("share.models.serving", "%"),
];

/// Untraced runs repeat at least this many rounds, so that `wall_s` is a
/// median of at least five rounds however fast the host runs.
pub const MIN_ROUNDS: usize = 5;
/// Traced runs repeat at least this many traced (and as many untraced)
/// rounds.
const MIN_TRACED_ROUNDS: usize = 2;
/// Set-up samples a warm workload takes before its timed phase. A cold
/// workload sets up afresh before each later round and samples that set-up
/// instead, so its samples spread over the whole run.
const WARM_SETUP_SAMPLES: usize = 3;
/// A set-up sample after the first repeats the set-up until this much
/// time has passed and takes the mean: `sweep`'s set-up of milliseconds
/// is averaged over several repetitions.
const MIN_SETUP_SAMPLE: Duration = Duration::from_millis(100);

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The cold paper-figure sweep.
    Sweep,
    /// Warm re-serving of a chunked serving cell.
    Replay,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "sweep" => Some(Kind::Sweep),
            "replay" => Some(Kind::Replay),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Sweep => "sweep",
            Kind::Replay => "replay",
        }
    }
}

/// Workload size: the benchmark's own, or a reduced one for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark as specified.
    Full,
    /// A few units of each kind, for tests.
    Smoke,
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload.
    pub kind: Kind,
    /// Seed of every generated trace.
    pub seed: u64,
    /// Host seconds the timed phase should last at least.
    pub seconds: f64,
    /// Whether to alternate traced rounds in and report per-layer metrics.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
}

/// Per-round counts, keyed by per-layer metric name.
pub type Counters = BTreeMap<&'static str, f64>;

/// What one round did.
#[derive(Debug, Default)]
pub struct Round {
    /// Host time of the round's units, speed probes excluded.
    pub wall: Duration,
    /// The same at the reference host speed ([`speed::Clock::scaled`]).
    pub scaled: Duration,
    /// Units run (points or passes), checks included.
    pub attempted: u64,
    /// Units that errored or failed a check.
    pub failed: u64,
    /// Layer counts observed in the round.
    pub counters: Counters,
}

/// A benchmark workload.
pub trait Workload {
    /// Builds fresh state for the next round: traces, units and caches.
    /// Everything done here is set-up time.
    fn setup(&mut self);

    /// Whether every round runs on the state of the last set-up (a warm
    /// workload) instead of a fresh set-up of its own.
    fn warm(&self) -> bool {
        false
    }

    /// Runs one round, recording spans when `tracer` is given.
    fn round(&mut self, tracer: Option<&Arc<Tracer>>) -> Round;

    /// Units run and failed during set-up, outside any round.
    fn setup_tally(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Digest lines of the simulated results of the first round.
    fn digest(&self) -> Vec<String>;

    /// Simulated cycles of the Fig 8 SwiGLU tiles, if the workload ran
    /// them.
    fn swiglu_cycles(&self) -> Option<Vec<fidelity::TileCycles>> {
        None
    }
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's result: human-readable lines and the final JSON object.
#[derive(Debug)]
pub struct Output {
    /// Whether every unit passed its checks.
    pub correct: bool,
    /// Units run.
    pub attempted: u64,
    /// Units that errored or failed a check.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Report lines printed before the JSON: run shape, digest, fidelity,
    /// and for a traced run the layer share table.
    pub lines: Vec<String>,
}

impl Output {
    /// The one-line JSON object the run ends with.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The workload a config names.
fn workload(cfg: &Config) -> Box<dyn Workload> {
    match cfg.kind {
        Kind::Sweep => Box::new(sweep::Sweep::new(cfg.seed, cfg.size)),
        Kind::Replay => Box::new(serving::Replay::new(cfg.seed, cfg.size)),
    }
}

/// Runs `cfg`'s workload. `started` is when the process began its work:
/// the first set-up sample runs from there to the timed phase.
pub fn run(cfg: &Config, started: Instant) -> Output {
    run_workload(cfg, workload(cfg).as_mut(), started)
}

/// Runs `w` under `cfg` (tests pass workloads with injected faults).
pub fn run_workload(cfg: &Config, w: &mut dyn Workload, started: Instant) -> Output {
    w.setup();
    let first = started.elapsed();
    let mut setups = vec![speed::scale(first, speed::probe())];
    if w.warm() {
        while setups.len() < WARM_SETUP_SAMPLES {
            setups.push(sample_setup(w));
        }
    }
    let tracer = Arc::new(Tracer::new());
    let (mut plain, mut traced): (Vec<Round>, Vec<Round>) = (Vec::new(), Vec::new());
    let mut timed = Duration::ZERO;
    let mut peak_rss = 0.0;
    for i in 0usize.. {
        if i > 0 && !w.warm() {
            setups.push(sample_setup(w));
        }
        let tracing = cfg.trace && i % 2 == 1;
        let round = w.round(tracing.then_some(&tracer));
        if i == 0 {
            // The peak of one set-up and one round, as a user who runs
            // the workload once sees it, and before the fidelity check
            // simulates anything of its own. Later rounds repeat the same
            // work, but each cold `sweep` round's worker is a new thread
            // whose allocations may land in another malloc arena, one
            // that still holds what an earlier round freed.
            peak_rss = peak_rss_mb();
        }
        timed += round.wall;
        if tracing {
            traced.push(round);
        } else {
            plain.push(round);
        }
        let enough = if cfg.trace {
            traced.len() >= MIN_TRACED_ROUNDS
        } else {
            plain.len() >= MIN_ROUNDS
        };
        if enough && timed.as_secs_f64() >= cfg.seconds {
            break;
        }
    }

    let (mut attempted, mut failed) = w.setup_tally();
    for r in plain.iter().chain(&traced) {
        attempted += r.attempted;
        failed += r.failed;
    }
    let mut lines = vec![format!(
        "workload {} seed {} rounds {} (traced {}) setups {}",
        cfg.kind.name(),
        cfg.seed,
        plain.len() + traced.len(),
        traced.len(),
        setups.len()
    )];
    let digest = w.digest();
    lines.push(format!("digest fnv64 {:016x}", digest_hash(&digest)));
    lines.extend(digest);

    let tiles = w
        .swiglu_cycles()
        .unwrap_or_else(|| fidelity::step_cycles(&fidelity::tiles(cfg.size)));
    attempted += tiles.len() as u64;
    let (fid, bad_tiles) = fidelity::compare(&tiles);
    failed += bad_tiles;
    lines.push(fid.line());

    let metrics = if cfg.trace {
        let spans = tracer.spans();
        let path = spans_path(cfg);
        match tracer.write_chrome(&path) {
            Ok(()) => lines.push(format!(
                "spans {} written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        per_layer(&plain, &traced, &spans, &mut lines)
    } else {
        end_to_end(&plain, &setups, peak_rss, fid.mape_pct, &mut lines)
    };
    Output {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
        lines,
    }
}

/// One set-up sample at the reference host speed: the mean time of
/// set-ups repeated until [`MIN_SETUP_SAMPLE`] has passed, between two
/// speed probes. The last set-up is the state the next round runs on.
fn sample_setup(w: &mut dyn Workload) -> Duration {
    let mut clock = speed::Clock::start(None);
    let t = Instant::now();
    let mut n = 0;
    while n == 0 || t.elapsed() < MIN_SETUP_SAMPLE {
        w.setup();
        n += 1;
    }
    clock.lap();
    clock.scaled() / n
}

/// Where a traced run writes its spans: inside the benchmark package,
/// under its (ignored) `out` directory.
fn spans_path(cfg: &Config) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.json", cfg.kind.name(), cfg.seed))
}

/// FNV-1a over the digest lines.
fn digest_hash(lines: &[String]) -> u64 {
    let mut fp = step_sim::Fingerprint::new("perfbench.digest");
    for l in lines {
        fp.push_str(l);
    }
    fp.finish()
}

fn end_to_end(
    rounds: &[Round],
    setups: &[Duration],
    peak_rss_mb: f64,
    ref_error_pct: f64,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall.as_secs_f64()).collect();
    let scaled: Vec<f64> = rounds.iter().map(|r| r.scaled.as_secs_f64()).collect();
    let setups: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    lines.push(format!(
        "timed rounds n={}: host time min {:.4} median {:.4} max {:.4} s; \
         at reference speed min {:.4} median {:.4} max {:.4} s",
        walls.len(),
        quantile(&walls, 0.0),
        quantile(&walls, 0.5),
        quantile(&walls, 1.0),
        quantile(&scaled, 0.0),
        quantile(&scaled, 0.5),
        quantile(&scaled, 1.0)
    ));
    lines.push(format!(
        "rounds at reference speed, s: {}",
        scaled
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    lines.push(format!(
        "setup samples n={} at reference speed min {:.6} median {:.6} max {:.6} s",
        setups.len(),
        quantile(&setups, 0.0),
        quantile(&setups, 0.5),
        quantile(&setups, 1.0)
    ));
    let values = [
        quantile(&scaled, 0.5),
        quantile(&setups, 0.5),
        peak_rss_mb,
        ref_error_pct,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

fn per_layer(
    plain: &[Round],
    traced: &[Round],
    spans: &[Span],
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let n = traced.len().max(1) as f64;
    let mut counts = Counters::new();
    for r in traced {
        for (k, v) in &r.counters {
            *counts.entry(k).or_default() += v;
        }
    }
    let count = |k: &str| counts.get(k).copied().unwrap_or(0.0) / n;
    let totals = layer_totals(spans);
    let ms = |d: Duration| d.as_secs_f64() * 1e3 / n;
    let layer = |k: &str| totals.get(k).copied().unwrap_or_default();
    // The plan-cache checkouts the serving driver made through the
    // timing `PlanSource`: checkout spans whose parent is a serving job.
    let serving_plan: Duration = spans
        .iter()
        .filter(|s| matches!(s.name, "sim.plan" | "bench.plan_cache"))
        .filter(|s| s.parent.is_some_and(|p| spans[p].name == "models.serving"))
        .map(Span::duration)
        .sum();
    // Host time per `ServeJob::run_memo` call: a warm `replay` pass.
    let calls_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "models.serving")
        .map(|s| s.duration().as_secs_f64() * 1e3)
        .collect();
    // Traced against untraced rounds at the reference speed, so a shift
    // of host speed between them does not read as tracing overhead.
    let traced_walls: Vec<f64> = traced.iter().map(|r| r.scaled.as_secs_f64()).collect();
    let plain_walls: Vec<f64> = plain.iter().map(|r| r.scaled.as_secs_f64()).collect();
    let traced_wall: Duration = traced.iter().map(|r| r.wall).sum();
    let overhead_s = quantile(&traced_walls, 0.5) - quantile(&plain_walls, 0.5);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let run_ms = ms(layer("sim.run").total);
    let fires = count("sim.fires");
    let iterations = count("models.serving.iterations");
    let engine = count("models.serving.engine_fires");
    let logical = count("models.serving.logical_fires");
    let rc_hits = count("sim.report_cache.hits");
    let rc_misses = count("sim.report_cache.misses");
    let mut values: BTreeMap<String, f64> = BTreeMap::from([
        ("sim.run_ms".into(), run_ms),
        ("sim.run_calls".into(), layer("sim.run").calls as f64 / n),
        ("sim.fires".into(), fires),
        ("sim.idle_fires".into(), count("sim.idle_fires")),
        (
            "sim.useful_fire_ratio".into(),
            ratio(fires - count("sim.idle_fires"), fires),
        ),
        ("sim.ns_per_fire".into(), ratio(run_ms * 1e6, fires)),
        ("sim.chan_tokens".into(), count("sim.chan_tokens")),
        ("sim.chan_runs".into(), count("sim.chan_runs")),
        ("sim.fresh_states".into(), count("sim.fresh_states")),
        ("sim.pool_resets".into(), count("sim.pool_resets")),
        ("sim.plan_ms".into(), ms(layer("sim.plan").self_time)),
        ("sim.plan_calls".into(), layer("sim.plan").calls as f64 / n),
        ("models.build_ms".into(), ms(layer("models.build").total)),
        (
            "models.build_calls".into(),
            layer("models.build").calls as f64 / n,
        ),
        (
            "bench.plan_cache.hits".into(),
            layer("bench.plan_cache").calls as f64 / n,
        ),
        (
            "bench.plan_cache.misses".into(),
            layer("sim.plan").calls as f64 / n,
        ),
        (
            "bench.plan_cache.entries".into(),
            count("bench.plan_cache.entries"),
        ),
        ("sim.report_cache.hits".into(), rc_hits),
        ("sim.report_cache.misses".into(), rc_misses),
        (
            "sim.report_cache.hit_ratio".into(),
            ratio(rc_hits, rc_hits + rc_misses),
        ),
        (
            "sim.report_cache.entries".into(),
            count("sim.report_cache.entries"),
        ),
        ("models.serving.iterations".into(), iterations),
        ("models.serving.engine_fires".into(), engine),
        ("models.serving.logical_fires".into(), logical),
        (
            "models.serving.elided_ratio".into(),
            ratio(logical - engine, logical),
        ),
        (
            "models.serving.us_per_iteration".into(),
            ratio(ms(layer("models.serving").total) * 1e3, iterations),
        ),
        ("models.serving.plan_ms".into(), ms(serving_plan)),
        (
            "models.serving.call_ms_p50".into(),
            quantile(&calls_ms, 0.5),
        ),
        (
            "models.serving.call_ms_p90".into(),
            quantile(&calls_ms, 0.9),
        ),
        ("bench.service.worker_ms".into(), run_ms),
        (
            "bench.service.queue_ms".into(),
            ms(layer("bench.service").self_time),
        ),
        ("trace.overhead_ms".into(), overhead_s * 1e3),
        (
            "trace.overhead_pct".into(),
            ratio(overhead_s * 100.0, quantile(&plain_walls, 0.5)),
        ),
        ("trace.spans".into(), spans.len() as f64 / n),
    ]);

    lines.push(format!(
        "layer share of traced wall ({} traced rounds, {:.1} ms per round):",
        traced.len(),
        ms(traced_wall)
    ));
    lines.push(format!(
        "  {:<18} {:>10} {:>8} {:>10}",
        "layer", "self ms", "share %", "calls"
    ));
    let mut shares: Vec<(&str, f64)> = Vec::new();
    for name in LAYERS {
        let t = layer(name);
        let share = ratio(t.self_time.as_secs_f64() * 100.0, traced_wall.as_secs_f64());
        lines.push(format!(
            "  {name:<18} {:>10.2} {share:>8.2} {:>10}",
            ms(t.self_time),
            t.calls as f64 / n
        ));
        shares.push((name, share));
        values.insert(format!("share.{name}"), share);
    }
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    lines.push(format!(
        "top layers: {}",
        shares
            .iter()
            .take(3)
            .map(|(k, v)| format!("{k} {v:.1}%"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    lines.push(format!(
        "tracing overhead: {:.3} ms per round ({:.2}%), traced median {:.4} s vs untraced {:.4} s \
         at reference speed",
        values["trace.overhead_ms"],
        values["trace.overhead_pct"],
        quantile(&traced_walls, 0.5),
        quantile(&plain_walls, 0.5)
    ));
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values[name],
            unit,
        })
        .collect()
}

/// The `q` quantile of `xs` by linear interpolation between closest
/// ranks (0 for an empty slice).
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The process's peak resident set (`VmHWM`), MB; 0 where
/// `/proc/self/status` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A derived seed: splitmix64 of `seed` and `salt`, so one workload seed
/// feeds several independent traces.
pub(crate) fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn every_layer_has_a_share_metric() {
        for layer in LAYERS {
            let key = format!("share.{layer}");
            assert!(PER_LAYER.iter().any(|(k, _)| *k == key), "{key}");
        }
    }
}
