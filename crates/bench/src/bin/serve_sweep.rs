//! Serving sweep: continuous batching under offered load.
//!
//! Runs [`step_bench::experiments::serve_sweep`] — Mixtral-8x7B decode
//! served from a seeded Poisson arrival trace across an offered-load
//! axis, with and without chunked prefill — and reports TTFT/TPOT
//! percentiles (p50/p95/p99, cycles), goodput vs offered load
//! (requests per million cycles), and HBM pressure (off-chip bytes per
//! busy cycle and utilization of peak), as a table plus
//! `results/serve_sweep.csv`.
//!
//! Determinism is asserted, not sampled: the sweep is re-run with the
//! same seeds and must be bit-identical (every cycle count, percentile,
//! and counter), which extends the engine's thread-count-independence
//! contract through the serving scheduler — and, since both sweeps run
//! on the process-wide [`step_bench::SweepService`], the rerun is served
//! from warm plan *and report* caches, making it the warm-vs-cold
//! identity check too. `--quick` shrinks the sweep to one cell, whose
//! counters `service_conformance.rs` pins.
//!
//! Run with: `cargo run --release -p step-bench --bin serve_sweep`
//! (`--quick` for the one-cell sweep).

use step_bench::experiments::{report_serve, serve_sweep};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // A failed sweep unit exits nonzero naming the failing point.
    let die = |e: step_bench::UnitFailure| -> ! {
        eprintln!("error: {e}");
        std::process::exit(1);
    };
    let rows = serve_sweep(quick).unwrap_or_else(|e| die(e));
    let rerun = serve_sweep(quick).unwrap_or_else(|e| die(e));
    assert_eq!(rows.len(), rerun.len());
    for (a, b) in rows.iter().zip(&rerun) {
        assert_eq!(
            a.report, b.report,
            "serving sweep cell (interarrival {:.0}, chunk {:?}) not deterministic",
            a.mean_interarrival, a.prefill_chunk
        );
    }

    report_serve(
        if quick {
            "serve_sweep_quick"
        } else {
            "serve_sweep"
        },
        &rows,
    );
    println!("\nsame-seed warm-cache rerun bit-identical on every cell: ok");
}
