//! Continuous-batching serving over a seeded arrival trace.
//!
//! Generates a Poisson request-arrival trace (seeded — every run of
//! this example sees the same workload), then drives it through the
//! serving loop: requests are admitted into batch slots as they arrive,
//! prefill is chunked and interleaved with decode under a per-iteration
//! token budget, finished requests are evicted, and every iteration's
//! batch composition is rebound onto one frozen plan per decoder phase.
//! Prints the per-iteration schedule (who is in the batch, what it
//! costs) and the per-request latency outcomes (TTFT / TPOT), plus the
//! aggregate serving metrics.
//!
//! Run with: `cargo run --release --example serving_loop`

use step::models::ModelConfig;
use step::models::e2e::E2eVariant;
use step::models::serving::{Percentiles, ServeCfg, ServeJob};
use step::traces::{ArrivalConfig, ArrivalPattern, LenDist, arrival_trace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A deliberately small model so the example runs in seconds even in
    // debug builds; the serving mechanics are identical at scale.
    let model = ModelConfig {
        name: "toy-moe",
        hidden: 128,
        moe_intermediate: 256,
        experts: 4,
        top_k: 2,
        q_heads: 4,
        kv_heads: 2,
        head_dim: 32,
        layers: 4,
    };
    let variant = E2eVariant::static_schedule("Static", 4);
    let trace = arrival_trace(&ArrivalConfig {
        requests: 10,
        mean_interarrival: 60_000.0,
        pattern: ArrivalPattern::Poisson,
        prompt: LenDist::new(48.0, 0.5, 16, 96),
        output: LenDist::new(4.0, 0.4, 2, 8),
        seed: 42,
    });
    let cfg = ServeCfg {
        slots: 4,
        token_budget: 24,
        prefill_chunk: Some(16),
        seed: 42,
        ..ServeCfg::default()
    };
    println!(
        "{}: {} requests over {} cycles, {} slots, token budget {}, prefill chunk {:?}",
        model.name,
        trace.requests.len(),
        trace.span(),
        cfg.slots,
        cfg.token_budget,
        cfg.prefill_chunk,
    );

    let job = ServeJob {
        label: "serving_loop".into(),
        model,
        variant,
        trace,
        cfg,
    };
    let report = job.run()?;
    println!(
        "\n{:>5} {:>10} {:>5} {:>4} {:>4} {:>7} {:>7} {:>10} {:>12}",
        "iter", "start", "live", "adm", "done", "tokens", "decode", "layer cyc", "slot ctx"
    );
    for it in &report.iterations {
        println!(
            "{:>5} {:>10} {:>5} {:>4} {:>4} {:>7} {:>7} {:>10} {:>12}",
            it.iter,
            it.start,
            it.live,
            it.admitted,
            it.completed,
            it.tokens,
            it.decode_tokens,
            it.layer_cycles,
            format!("{:?}", it.slot_ctx),
        );
    }

    println!(
        "\n{:>3} {:>10} {:>10} {:>12} {:>12} {:>7} {:>7} {:>10} {:>10}",
        "req", "arrival", "admitted", "first tok", "finished", "prompt", "output", "ttft", "tpot"
    );
    for o in &report.outcomes {
        println!(
            "{:>3} {:>10} {:>10} {:>12} {:>12} {:>7} {:>7} {:>10} {:>10.0}",
            o.id,
            o.arrival,
            o.admitted,
            o.first_token,
            o.finished,
            o.prompt,
            o.output,
            o.ttft(),
            o.tpot(),
        );
    }

    println!(
        "\nserved {} requests in {} cycles over {} iterations ({} admitted, {} evicted)",
        report.outcomes.len(),
        report.total_cycles,
        report.iterations.len(),
        report.admitted_total,
        report.evicted_total,
    );
    // An absent percentile set is an empty population (e.g. no
    // multi-token outputs for TPOT), not a zero latency.
    let pc = |p: &Option<Percentiles>| {
        p.as_ref().map_or_else(
            || "n/a".to_string(),
            |p| format!("{:.0}/{:.0}/{:.0}", p.p50, p.p95, p.p99),
        )
    };
    println!(
        "ttft p50/p95/p99: {} cycles, tpot p50/p95/p99: {}",
        pc(&report.ttft),
        pc(&report.tpot),
    );
    println!(
        "goodput {:.2}/Mcyc vs offered {:.2}/Mcyc, HBM {:.1} B/cyc ({:.1}% of peak)",
        report.goodput_per_mcycle,
        report.offered_per_mcycle,
        report.hbm_bytes_per_cycle,
        report.hbm_utilization * 100.0,
    );
    Ok(())
}
