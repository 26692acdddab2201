//! Engine-overhead profiler: per-operator fire and wall-clock breakdown,
//! mono vs sharded, across horizon-step settings.
//!
//! The companion tool to `sched_bench` for *diagnosing* scheduler and
//! transport overhead rather than guarding it: it attributes fires, idle
//! fires, and — with `SimConfig::profile_fires` — host wall-clock to
//! operator kinds, so a regression flagged by the fire or channel-op
//! budget can be localized to the operator whose run-length rewrite
//! misbehaves. The horizon-step sweep shows how sensitive the schedule
//! still is to window granularity (with barrier elision it should be
//! nearly flat).
//!
//! Run with: `cargo run --release -p step-bench --bin fire_profile`
//! `--json` emits one JSON object per configuration (run summary plus
//! the per-op table); `TOPK=n` bounds the table to the n operator kinds
//! with the largest wall share (default 10, 0 = all). Each row carries
//! a `dispatch` column: the compiled executor variant
//! ([`step_sim::nodes::CompiledNode`] kind) the operator lowers to, so
//! wall time attributes to the static-dispatch arm that actually runs.
//!
//! `--serve` switches to the per-*phase* profile: a serving-shaped
//! iteration stream (chunked prefill ramp, then steady-state decode) is
//! driven through the QKV / attention / MoE phase plans twice over one
//! shared [`step_sim::ReportCache`] — a cold pass and a warm rerun —
//! attributing engine fires, cache resolutions, and host wall-clock to
//! each phase. This is the diagnostic view behind the serving memo
//! numbers: it shows where the fire work lives (MoE dominates), which
//! phase the report cache elides (QKV within a pass, QKV + MoE across
//! passes), and what attention — never cached, its slot-context vector
//! is effectively unique — costs per iteration.

use std::collections::BTreeMap;
use std::time::Instant;
use step_models::ModelConfig;
use step_models::attention::{AttentionCfg, ParallelStrategy, attention_graph_with_ports};
use step_models::moe::{MoeCfg, Tiling, moe_graph, moe_graph_with_ports};
use step_models::phases::{bind_attention, bind_moe, moe_sim_config, qkv_fingerprint, qkv_graph};
use step_models::serving::{ServeCfg, iteration_routing};
use step_sim::nodes::compiled_kind;
use step_sim::{ReportCache, Resolution, RunBinding, SimConfig, SimPlan, plan_content_key};
use step_traces::{KvTrace, RoutingConfig, RoutingTrace, expert_routing};

#[derive(Default)]
struct OpRow {
    dispatch: &'static str,
    fires: u64,
    idle: u64,
    wall_ns: u64,
    nodes: u64,
    tokens: u64,
}

/// Per-phase accumulator for one pass of the `--serve` profile.
#[derive(Default)]
struct PhaseRow {
    requests: u64,
    hits: u64,
    engine_runs: u64,
    engine_fires: u64,
    logical_fires: u64,
    wall_ns: u64,
}

impl PhaseRow {
    fn absorb(&mut self, fires: u64, resolution: Resolution, wall_ns: u64) {
        self.requests += 1;
        self.logical_fires += fires;
        self.wall_ns += wall_ns;
        if resolution == Resolution::Simulated {
            self.engine_runs += 1;
            self.engine_fires += fires;
        } else {
            self.hits += 1;
        }
    }
}

/// The `--serve` mode: per-phase fire/wall attribution over a
/// serving-shaped iteration stream, cold pass then warm rerun on one
/// shared report cache.
fn serve_profile(json: bool) {
    let model = ModelConfig::qwen3_30b_a3b();
    let cfg = ServeCfg {
        slots: 4,
        token_budget: 16,
        prefill_chunk: Some(16),
        seed: 7,
        ..ServeCfg::default()
    };
    // The iteration stream: a chunked-prefill ramp (full token budget),
    // then steady-state decode (one token per slot). Token counts
    // repeat, so QKV memoizes within a pass; routings re-seed per
    // iteration, so MoE memoizes only across passes — exactly the
    // serving driver's hit profile.
    let iters: Vec<u32> = (0..16u32)
        .map(|i| {
            if i < 4 {
                cfg.token_budget as u32
            } else {
                cfg.slots as u32
            }
        })
        .collect();

    let sim_cfg = SimConfig::default();
    // Attention plan provisioned for the longest bound context.
    let max_ctx = 64 + 4 * iters.len() as u32;
    let attn_cfg = AttentionCfg::new(model.clone(), ParallelStrategy::StaticInterleaved);
    let envelope = KvTrace {
        lengths: vec![max_ctx; cfg.slots],
    };
    let (attn_graph, attn_ports) =
        attention_graph_with_ports(&attn_cfg, &envelope).expect("attention graph");
    let attn_plan = SimPlan::new(attn_graph, sim_cfg.clone()).expect("attention plan");
    // MoE plan provisioned for the full token budget.
    let moe_cfg = MoeCfg::new(model.clone(), Tiling::Static { tile: 8 });
    let build = expert_routing(&RoutingConfig {
        experts: model.experts,
        top_k: model.top_k,
        batch: cfg.token_budget,
        skew: cfg.skew,
        seed: cfg.seed,
    });
    let (moe_graph, moe_ports) = moe_graph_with_ports(&moe_cfg, &build).expect("moe graph");
    let moe_sim_cfg = moe_sim_config();
    let moe_plan = SimPlan::new(moe_graph, moe_sim_cfg.clone()).expect("moe plan");
    let moe_key = plan_content_key(0xF19E_5E9F, &moe_sim_cfg);

    let reports = ReportCache::new();
    let phases = ["qkv", "attention", "moe"];
    for pass in ["cold", "warm"] {
        let mut rows: BTreeMap<&str, PhaseRow> = BTreeMap::new();
        for (i, &tokens) in iters.iter().enumerate() {
            // QKV: no rebindable sources — the content key is the whole
            // identity.
            let t0 = Instant::now();
            let key = plan_content_key(qkv_fingerprint(&model, tokens as usize), &sim_cfg);
            let qkv = reports
                .replay_or_run(key, &RunBinding::new(), &mut || {
                    SimPlan::new(qkv_graph(&model, tokens as usize)?, sim_cfg.clone())?.run()
                })
                .expect("qkv phase");
            rows.entry("qkv").or_default().absorb(
                qkv.report.total_fires(),
                qkv.resolution,
                t0.elapsed().as_nanos() as u64,
            );
            // Attention: slot contexts grow with the decode — always
            // simulated, never cached.
            let t0 = Instant::now();
            let kv = KvTrace {
                lengths: vec![64 + 4 * i as u32; cfg.slots],
            };
            let attn = attn_plan
                .run_bound(&bind_attention(&attn_cfg, &attn_ports, &kv))
                .expect("attention phase");
            rows.entry("attention").or_default().absorb(
                attn.total_fires(),
                Resolution::Simulated,
                t0.elapsed().as_nanos() as u64,
            );
            // MoE: per-iteration routing through the report cache.
            let t0 = Instant::now();
            let routing: RoutingTrace = iteration_routing(&model, &cfg, i as u32, tokens as usize);
            let moe_bind = bind_moe(&moe_ports, model.hidden, &routing);
            let moe = reports
                .replay_or_run(moe_key, &moe_bind, &mut || moe_plan.run_bound(&moe_bind))
                .expect("moe phase");
            rows.entry("moe").or_default().absorb(
                moe.report.total_fires(),
                moe.resolution,
                t0.elapsed().as_nanos() as u64,
            );
        }
        if json {
            let cells: Vec<String> = phases
                .iter()
                .map(|p| {
                    let r = &rows[p];
                    format!(
                        "{{\"phase\":\"{p}\",\"requests\":{},\"hits\":{},\
                         \"engine_runs\":{},\"engine_fires\":{},\
                         \"logical_fires\":{},\"wall_ms\":{:.2}}}",
                        r.requests,
                        r.hits,
                        r.engine_runs,
                        r.engine_fires,
                        r.logical_fires,
                        r.wall_ns as f64 / 1e6,
                    )
                })
                .collect();
            println!(
                "{{\"mode\":\"serve_profile\",\"pass\":\"{pass}\",\"iterations\":{},\
                 \"phases\":[{}]}}",
                iters.len(),
                cells.join(","),
            );
        } else {
            println!("== serve profile, {pass} pass ({} iterations)", iters.len());
            println!(
                "  {:>10} {:>9} {:>6} {:>12} {:>13} {:>14} {:>9}",
                "phase",
                "requests",
                "hits",
                "engine_runs",
                "engine_fires",
                "logical_fires",
                "wall(ms)"
            );
            for p in phases {
                let r = &rows[p];
                println!(
                    "  {p:>10} {:>9} {:>6} {:>12} {:>13} {:>14} {:>9.2}",
                    r.requests,
                    r.hits,
                    r.engine_runs,
                    r.engine_fires,
                    r.logical_fires,
                    r.wall_ns as f64 / 1e6,
                );
            }
        }
    }
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    if std::env::args().any(|a| a == "--serve") {
        serve_profile(json);
        return;
    }
    let topk: usize = std::env::var("TOPK")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let model = ModelConfig::qwen3_30b_a3b();
    let trace = expert_routing(&RoutingConfig {
        experts: model.experts,
        top_k: model.top_k,
        batch: 64,
        skew: 0.8,
        seed: 7,
    });
    let cfg = MoeCfg::new(model.clone(), Tiling::Static { tile: 8 });
    for (shards, horizon_step) in [(1usize, 64u64), (0, 64), (0, 1024)] {
        let graph = moe_graph(&cfg, &trace).expect("moe graph");
        let names: Vec<String> = graph
            .nodes()
            .iter()
            .map(|n| n.op.name().to_string())
            .collect();
        // Captured before the graph moves into the plan: which compiled
        // executor variant each operator dispatches to.
        let kinds: Vec<&'static str> = graph.nodes().iter().map(|n| compiled_kind(&n.op)).collect();
        let t0 = Instant::now();
        let report = SimPlan::new(
            graph,
            SimConfig {
                shards,
                horizon_step,
                profile_fires: true,
                ..SimConfig::default()
            },
        )
        .unwrap()
        .run()
        .unwrap();
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        let mut ops: BTreeMap<&str, OpRow> = BTreeMap::new();
        for (i, s) in report.node_stats.iter().enumerate() {
            let e = ops.entry(names[i].as_str()).or_default();
            e.dispatch = kinds[i];
            e.fires += s.fires;
            e.idle += s.idle_fires;
            e.wall_ns += s.wall_ns;
            e.nodes += 1;
            e.tokens += s.values_in;
        }
        let mut rows: Vec<_> = ops.into_iter().collect();
        // Top K by wall: the measured cost, not the fire count, names the
        // operator to optimize.
        rows.sort_by_key(|(_, r)| std::cmp::Reverse(r.wall_ns));
        let shown = if topk == 0 {
            rows.len()
        } else {
            topk.min(rows.len())
        };
        if json {
            let ops_json: Vec<String> = rows[..shown]
                .iter()
                .map(|(op, r)| {
                    format!(
                        "{{\"op\":\"{op}\",\"dispatch\":\"{}\",\"nodes\":{},\"fires\":{},\
                         \"idle\":{},\"tokens_in\":{},\"wall_ms\":{:.2}}}",
                        r.dispatch,
                        r.nodes,
                        r.fires,
                        r.idle,
                        r.tokens,
                        r.wall_ns as f64 / 1e6,
                    )
                })
                .collect();
            println!(
                "{{\"shards_cfg\":{shards},\"horizon_step\":{horizon_step},\"shards\":{},\
                 \"cycles\":{},\"rounds\":{},\"fires\":{},\"idle_fires\":{},\
                 \"chan_tokens\":{},\"chan_runs\":{},\"wall_ms\":{wall:.1},\"ops\":[{}]}}",
                report.shards,
                report.cycles,
                report.rounds,
                report.total_fires(),
                report.idle_fires(),
                report.chan_tokens,
                report.chan_runs,
                ops_json.join(","),
            );
        } else {
            println!(
                "== shards={shards} hstep={horizon_step} -> {} shards, cycles {}, rounds {}, \
                 fires {}, idle {}, sub_rounds {}, solo {}, elided {}, dedup {}, \
                 chan {} tokens / {} runs ({:.1}x), wall {wall:.0}ms",
                report.shards,
                report.cycles,
                report.rounds,
                report.total_fires(),
                report.idle_fires(),
                report.sched.sub_rounds,
                report.sched.solo_runs,
                report.sched.elided_runs,
                report.sched.wake_dedup,
                report.chan_tokens,
                report.chan_runs,
                report.chan_tokens as f64 / report.chan_runs.max(1) as f64,
            );
            println!(
                "  {:>22} {:>13} {:>6} {:>10} {:>10} {:>11} {:>9}",
                "op (top-K by wall)", "dispatch", "nodes", "fires", "idle", "tokens_in", "wall(ms)"
            );
            for (op, r) in &rows[..shown] {
                println!(
                    "  {op:>22} {:>13} {:>6} {:>10} {:>10} {:>11} {:>9.2}",
                    r.dispatch,
                    r.nodes,
                    r.fires,
                    r.idle,
                    r.tokens,
                    r.wall_ns as f64 / 1e6,
                );
            }
        }
    }
}
