//! Seeded request-arrival traces for the continuous-batching serving
//! driver.
//!
//! The paper's figures step a *fixed* batch through decode; a serving
//! system sees a churning one — requests arrive over time, are admitted
//! into batch slots, prefill, decode, and leave. This module generates
//! the arrival side of that workload as a deterministic, seeded trace:
//!
//! - **Poisson** arrivals: exponentially distributed inter-arrival times
//!   around a configured mean — the classic open-loop load model;
//! - **Bursty** arrivals: time alternates between *burst* windows (all
//!   the traffic, compressed by the duty cycle so the long-run rate
//!   matches the configured mean) and *idle* windows with no arrivals —
//!   the diurnal/batchy shape production traces show;
//! - per-request **prompt** and **output** lengths from independent
//!   log-normal distributions with hard clamps (the same long-tailed
//!   family as [`crate::kv_lengths`]).
//!
//! All times are in simulated cycles — the same clock the simulator
//! reports — so a serving driver can merge arrivals with simulated
//! iteration boundaries without unit conversion. Determinism per seed is
//! part of the contract: the full trace is a pure function of
//! [`ArrivalConfig`], byte for byte, across platforms and reruns
//! (`tests/prop_arrivals.rs` checks it).

use crate::rng::StdRng;
use crate::std_normal;

/// The arrival-time process of a request trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Poisson process: i.i.d. exponential inter-arrival times.
    Poisson,
    /// Duty-cycled bursts: arrivals only occur inside periodic burst
    /// windows; inter-arrival times inside a burst are compressed by the
    /// duty cycle `burst / (burst + idle)` so the *long-run* mean rate
    /// still matches [`ArrivalConfig::mean_interarrival`]. An arrival
    /// that would land in an idle window is deferred to the next burst
    /// start.
    Bursty {
        /// Burst window length in cycles.
        burst: u64,
        /// Idle window length in cycles (no arrivals).
        idle: u64,
    },
}

/// A log-normal token-length distribution with hard clamps.
#[derive(Debug, Clone, PartialEq)]
pub struct LenDist {
    /// Median length in tokens (the log-normal's `exp(mu)`).
    pub median: f64,
    /// Log-normal sigma (0 = constant `median`).
    pub sigma: f64,
    /// Minimum length in tokens (inclusive clamp).
    pub min: u32,
    /// Maximum length in tokens (inclusive clamp).
    pub max: u32,
}

impl LenDist {
    /// A distribution with the given median and sigma, clamped to
    /// `[min, max]`.
    pub fn new(median: f64, sigma: f64, min: u32, max: u32) -> LenDist {
        LenDist {
            median,
            sigma,
            min,
            max,
        }
    }

    fn sample(&self, rng: &mut StdRng) -> u32 {
        let x = (self.median.max(1.0).ln() + self.sigma * std_normal(rng)).exp();
        (x.round() as u32).clamp(self.min, self.max)
    }
}

/// Configuration of a request-arrival trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalConfig {
    /// Requests to generate.
    pub requests: usize,
    /// Mean inter-arrival time in cycles (offered load is its inverse).
    pub mean_interarrival: f64,
    /// Arrival-time process.
    pub pattern: ArrivalPattern,
    /// Prompt-length distribution (min is clamped to at least 1 — every
    /// request prefills at least one token).
    pub prompt: LenDist,
    /// Output-length distribution (tokens to generate; min is clamped to
    /// at least 1 — every request produces at least its first token).
    pub output: LenDist,
    /// RNG seed (the trace is a pure function of this config).
    pub seed: u64,
}

impl Default for ArrivalConfig {
    fn default() -> ArrivalConfig {
        ArrivalConfig {
            requests: 64,
            mean_interarrival: 500_000.0,
            pattern: ArrivalPattern::Poisson,
            prompt: LenDist::new(512.0, 0.55, 16, 8192),
            output: LenDist::new(64.0, 0.55, 1, 1024),
            seed: 0xA221,
        }
    }
}

/// One request of a serving trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Trace-order id (also the arrival order).
    pub id: u32,
    /// Arrival time in cycles.
    pub arrival: u64,
    /// Prompt length in tokens (prefill work; at least 1).
    pub prompt: u32,
    /// Output length in tokens (decode iterations; at least 1).
    pub output: u32,
}

impl Request {
    /// Final KV context length when the request completes:
    /// prompt plus every generated token.
    pub fn final_ctx(&self) -> u32 {
        self.prompt + self.output
    }
}

/// A sampled request-arrival trace, sorted by arrival time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// Requests in arrival order.
    pub requests: Vec<Request>,
}

impl RequestTrace {
    /// Arrival span in cycles (last minus first arrival).
    pub fn span(&self) -> u64 {
        match (self.requests.first(), self.requests.last()) {
            (Some(a), Some(b)) => b.arrival - a.arrival,
            _ => 0,
        }
    }

    /// Empirical mean inter-arrival time in cycles.
    pub fn mean_interarrival(&self) -> f64 {
        if self.requests.len() < 2 {
            return 0.0;
        }
        self.span() as f64 / (self.requests.len() - 1) as f64
    }

    /// Offered load in requests per million cycles.
    pub fn offered_per_mcycle(&self) -> f64 {
        let m = self.mean_interarrival();
        if m == 0.0 { 0.0 } else { 1e6 / m }
    }

    /// The admitted-set envelope: the largest KV context any request ever
    /// reaches (prompt + output). A serving driver provisions its
    /// attention plan's dispatch queues for this bound so one plan serves
    /// every iteration through source rebinding.
    pub fn max_ctx(&self) -> u32 {
        self.requests
            .iter()
            .map(Request::final_ctx)
            .max()
            .unwrap_or(1)
    }

    /// Total prompt tokens across the trace.
    pub fn total_prompt_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.prompt as u64).sum()
    }

    /// Total output tokens across the trace.
    pub fn total_output_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.output as u64).sum()
    }
}

/// Samples a request-arrival trace.
///
/// # Panics
///
/// Panics if `mean_interarrival` is not positive, or if a bursty pattern
/// has a zero-length burst window.
pub fn arrival_trace(cfg: &ArrivalConfig) -> RequestTrace {
    assert!(
        cfg.mean_interarrival > 0.0,
        "mean inter-arrival must be positive"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Under a duty cycle, in-burst gaps are compressed so the long-run
    // rate matches the configured mean.
    let duty = match cfg.pattern {
        ArrivalPattern::Poisson => 1.0,
        ArrivalPattern::Bursty { burst, idle } => {
            assert!(burst > 0, "burst window must be non-empty");
            burst as f64 / (burst + idle) as f64
        }
    };
    let mut t = 0.0f64;
    let mut requests = Vec::with_capacity(cfg.requests);
    for id in 0..cfg.requests {
        let u = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() * cfg.mean_interarrival * duty;
        if let ArrivalPattern::Bursty { burst, idle } = cfg.pattern {
            let period = (burst + idle) as f64;
            let pos = t.rem_euclid(period);
            if pos >= burst as f64 {
                // Defer an idle-window arrival to the next burst start.
                t += period - pos;
            }
        }
        // Round to nearest rather than truncate: `t as u64` biases every
        // arrival low by half a cycle on average, which a long trace
        // compounds into a measurable offered-load overstatement.
        let mut arrival = t.round();
        if let ArrivalPattern::Bursty { burst, idle } = cfg.pattern {
            // Rounding up can push an in-burst sample across the burst
            // end (t = burst - 0.3 rounds to the idle start); fall back
            // to floor, which provably stays inside the burst window:
            // burst starts are integral multiples of the period, so
            // `t >= start` implies `floor(t) >= start`, and
            // `t < start + burst` implies `floor(t) <= start + burst - 1`.
            // Monotonicity survives the mixed rounding: floor and round
            // are each monotone, and a floor fallback only fires when the
            // rounded value sits in idle — where no kept rounded arrival
            // can sit — so no later arrival can land before an earlier one.
            let period = (burst + idle) as f64;
            if arrival.rem_euclid(period) >= burst as f64 {
                arrival = t.floor();
            }
        }
        let prompt = cfg.prompt.sample(&mut rng).max(1);
        let output = cfg.output.sample(&mut rng).max(1);
        requests.push(Request {
            id: id as u32,
            arrival: arrival as u64,
            prompt,
            output,
        });
    }
    RequestTrace { requests }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_sorted_and_deterministic() {
        let cfg = ArrivalConfig::default();
        let a = arrival_trace(&cfg);
        let b = arrival_trace(&cfg);
        assert_eq!(a, b);
        assert!(a.requests.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let c = arrival_trace(&ArrivalConfig { seed: 9, ..cfg });
        assert_ne!(a, c);
    }

    #[test]
    fn outputs_are_at_least_one_token() {
        let t = arrival_trace(&ArrivalConfig {
            output: LenDist::new(1.0, 2.0, 0, 8),
            ..ArrivalConfig::default()
        });
        assert!(t.requests.iter().all(|r| r.output >= 1));
        // Prompts clamp the same way: a zero-token prompt has no KV
        // context to serve.
        let t = arrival_trace(&ArrivalConfig {
            prompt: LenDist::new(1.0, 1.0, 0, 8),
            ..ArrivalConfig::default()
        });
        assert!(t.requests.iter().all(|r| r.prompt >= 1));
    }

    #[test]
    fn bursty_never_lands_in_idle_windows() {
        let cfg = ArrivalConfig {
            requests: 500,
            mean_interarrival: 1000.0,
            pattern: ArrivalPattern::Bursty {
                burst: 20_000,
                idle: 60_000,
            },
            ..ArrivalConfig::default()
        };
        let t = arrival_trace(&cfg);
        for r in &t.requests {
            assert!(r.arrival % 80_000 < 20_000, "arrival {} in idle", r.arrival);
        }
    }
}
