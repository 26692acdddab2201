//! Quickstart: build a tiny STeP program, run it on the simulator, and
//! inspect both functional output and performance metrics.
//!
//! The program loads a 64x256 matrix from off-chip memory in 64x64 tiles,
//! applies ReLU, and stores the result — the "hello world" of explicit
//! memory-hierarchy streaming.
//!
//! Run with: `cargo run --example quickstart`

use step::core::func::{EwOp, MapFn};
use step::core::graph::GraphBuilder;
use step::core::metrics;
use step::core::ops::LinearLoadCfg;
use step::sim::{RunBinding, SimConfig, SimPlan};
use step_symbolic::Env;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the program graph. Shapes are inferred and verified as
    //    each operator is added (the symbolic frontend of §4.1).
    let mut g = GraphBuilder::new();
    let trigger = g.unit_source(1);
    let tiles = g.linear_offchip_load(&trigger, LinearLoadCfg::new(0x1000, (64, 256), (64, 64)))?;
    println!("loaded stream shape: {}", tiles.shape());
    let relu = g.map(&tiles, MapFn::Elementwise(EwOp::Relu), 1024)?;
    let sink = g.sink(&relu)?;
    g.linear_offchip_store(&relu, 0x9000).ok(); // relu already consumed: demonstrate the error
    let graph = g.finish();

    // 2. Symbolic metrics before running anything (§4.2): off-chip
    //    traffic and on-chip memory requirement.
    let analysis = metrics::analyze(&graph);
    let (traffic, memory) = analysis.eval(&Env::new())?;
    println!("predicted off-chip traffic: {traffic} bytes");
    println!("predicted on-chip memory:   {memory} bytes");

    // 3. Simulate with real data to see functional results. The plan
    //    (partition + channel topology) is immutable and reusable; the
    //    per-run binding carries the preloaded tensor.
    let plan = SimPlan::new(graph, SimConfig::default())?;
    let mut binding = RunBinding::new();
    binding.preload(
        0x1000,
        64,
        256,
        (0..64 * 256).map(|i| (i as f32 % 7.0) - 3.0).collect(),
    );
    let report = plan.run_with(&binding, None)?;
    println!("cycles: {}", report.cycles);
    println!(
        "measured off-chip traffic: {} bytes",
        report.offchip_traffic
    );

    // The sink recorded the ReLU'd tiles: all values non-negative.
    let tokens = report.sink_tokens(sink)?;
    let negatives = tokens
        .iter()
        .filter_map(|t| match t {
            step::core::Token::Val(step::core::Elem::Tile(t)) => t.values(),
            _ => None,
        })
        .flatten()
        .filter(|v| **v < 0.0)
        .count();
    println!("negative outputs after ReLU: {negatives}");
    assert_eq!(negatives, 0);
    Ok(())
}
