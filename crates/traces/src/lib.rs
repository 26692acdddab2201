//! Deterministic synthetic workload traces.
//!
//! The paper's experiments are driven by two datasets:
//!
//! 1. **KV-cache lengths** sampled from the AzureLLMInference production
//!    trace \[32\], where batches are classified by the standard deviation
//!    of their per-request KV lengths (low/medium/high variability,
//!    Appendix B.3).
//! 2. **Expert-routing traces** from running Qwen3-30B-A3B and
//!    Mixtral-8x7B on the HH-RLHF requests \[10\], selecting iterations
//!    whose expert-bin-count standard deviation is near the average.
//!
//! Neither dataset is redistributable here, so this crate provides
//! seeded synthetic equivalents that control exactly the statistics the
//! experiments depend on: the *variance class* of KV lengths (Fig 14/15/
//! 21) and the *per-expert token histogram skew* (Fig 9/10/12/13). The
//! README's "Substitutions" section gives the preservation argument.
//!
//! # Serving workloads
//!
//! On top of the per-batch samplers, [`arrivals`] generates whole
//! *request-arrival traces* for the continuous-batching serving driver
//! (`step_models::serving`): seeded Poisson or duty-cycled bursty
//! arrival times in simulated cycles, with log-normal prompt and output
//! lengths per request. The seeding contract is the same as the rest of
//! the crate — a trace is a pure function of its [`ArrivalConfig`], so
//! same-seed serving runs replay the identical workload bit for bit
//! (`tests/prop_arrivals.rs` pins determinism, empirical rates, length
//! bounds, and the bursty duty cycle).

pub mod arrivals;
pub mod kv;
pub mod rng;
pub mod routing;

pub use arrivals::{ArrivalConfig, ArrivalPattern, LenDist, Request, RequestTrace, arrival_trace};
pub use kv::{KvTrace, KvTraceConfig, Variability, kv_lengths};
pub use routing::{RoutingConfig, RoutingTrace, expert_routing, tokens_per_expert};

use rng::StdRng;

/// A standard normal sample via Box–Muller (avoids extra dependencies).
pub(crate) fn std_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Population standard deviation of a sequence.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_normal_has_roughly_unit_variance() {
        let mut rng = StdRng::seed_from_u64(7);
        let xs: Vec<f64> = (0..20_000).map(|_| std_normal(&mut rng)).collect();
        let sd = std_dev(&xs);
        assert!((sd - 1.0).abs() < 0.05, "sd = {sd}");
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn std_dev_of_constants_is_zero() {
        assert_eq!(std_dev(&[3.0, 3.0, 3.0]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
    }
}
