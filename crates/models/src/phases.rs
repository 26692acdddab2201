//! Shared per-iteration phase plumbing for the multi-iteration drivers.
//!
//! Both the fixed-batch decode driver ([`crate::e2e::run_decode`]) and
//! the continuous-batching serving driver ([`crate::serving::run_serve`])
//! step the same three per-layer phases — QKV GEMM, attention, MoE —
//! across iterations by rebinding one frozen [`step_sim::SimPlan`] per phase
//! instead of rebuilding graphs. This module is the single home for the
//! rebinding and steady-state machinery so the two drivers cannot drift:
//!
//! - [`bind_attention`] / [`bind_moe`] build the per-iteration
//!   [`RunBinding`]s from a KV trace / routing trace;
//! - [`qkv_fingerprint`] / [`canonical_routing`] /
//!   [`moe_canonical_key`] are the report-memoization machinery for the
//!   two memoizable phases: the QKV graph has no rebindable inputs (its
//!   report is a pure function of `(model, tokens, SimConfig)`, so the
//!   graph identity *is* the key), and MoE routings that are the same
//!   multiset of expert sets can be **canonicalized** to one binding so
//!   they share one exact cache entry. The serving driver routes both
//!   phases through one [`step_sim::ReportCache`];
//! - [`debug_assert_steady`] pins the steady-state contract both drivers
//!   rely on: after the warmup iteration materializes the pooled run
//!   state, every later iteration must reset it in place
//!   (`run_allocs == 0`, `pool_resets == 1`) — plans are never rebuilt
//!   and run state is never reallocated inside the loop.

use crate::attention::{AttentionCfg, AttentionPorts, attention_request_tokens};
use crate::config::ModelConfig;
use crate::moe::{MoePorts, moe_router_tokens, moe_token_stream};
use crate::swiglu::{GemmCfg, build_gemm};
use step_core::Result;
use step_core::graph::GraphBuilder;
use step_sim::{Fingerprint, RunBinding, SimConfig, SimReport};
use step_traces::{KvTrace, RoutingTrace};

/// The per-iteration attention binding: the `attn.requests` source
/// replays the iteration's KV tile-address stream (one rank-1 group per
/// batch slot). The plan must have been built with queue provisioning
/// ([`AttentionCfg::kv_headroom`] or an envelope-length build trace)
/// covering every bound length.
pub fn bind_attention(cfg: &AttentionCfg, ports: &AttentionPorts, kv: &KvTrace) -> RunBinding {
    let mut b = RunBinding::new();
    b.bind_source(ports.requests, attention_request_tokens(cfg, kv));
    b
}

/// The per-iteration MoE binding: the `moe.router` selector source
/// replays the iteration's routing and the `moe.tokens` source a
/// matching-length token stream, so an iteration may route fewer (or
/// more) tokens than the build-time batch — the serving driver's ragged
/// iterations rebind both, the fixed-batch decode driver binds the same
/// count every iteration.
pub fn bind_moe(ports: &MoePorts, hidden: u64, routing: &RoutingTrace) -> RunBinding {
    let mut b = RunBinding::new();
    b.bind_source(ports.router, moe_router_tokens(routing));
    b.bind_source(
        ports.tokens,
        moe_token_stream(routing.assignments.len() as u64, hidden),
    );
    b
}

/// MoE graphs run multi-million-cycle simulations; a coarser execution
/// window is ordering-equivalent there and much faster.
pub fn moe_sim_config() -> SimConfig {
    SimConfig {
        horizon_step: 512,
        ..SimConfig::default()
    }
}

/// The QKV-generation + output-projection phase as one fused dense GEMM
/// graph over `tokens` tokens. Decode processes one token per request,
/// so the graph depends only on `(model, tokens)` — across iterations
/// with the same token count it is the same program.
pub fn qkv_graph(model: &ModelConfig, tokens: usize) -> Result<step_core::Graph> {
    let n = (model.q_heads + 2 * model.kv_heads) * model.head_dim + model.hidden;
    let tile_n = [256u64, 128, 64, 32]
        .into_iter()
        .find(|t| n.is_multiple_of(*t))
        .unwrap_or(n);
    let mut g = GraphBuilder::new();
    build_gemm(
        &mut g,
        &GemmCfg {
            batch: tokens as u64,
            hidden: model.hidden,
            n,
            tile_batch: 64.min(tokens as u64),
            tile_n,
            x_addr: 0x100_0000,
            w_addr: 0x1000_0000,
            out_addr: 0x8000_0000,
            compute_bw: 8192,
        },
    )?;
    Ok(g.finish())
}

/// The builder-fingerprint half of the QKV phase's report-cache key.
///
/// The QKV graph has no rebindable sources: its report is a pure
/// function of `(model, tokens, SimConfig)`, so the graph's identity is
/// the whole binding-independent key (the [`RunBinding`] half is the
/// empty binding's fingerprint). Folds exactly the model fields
/// [`qkv_graph`] reads, so two models whose QKV GEMMs coincide share
/// their reports.
pub fn qkv_fingerprint(model: &ModelConfig, tokens: usize) -> u64 {
    let mut fp = Fingerprint::new("phase.qkv");
    fp.push_u64(model.hidden)
        .push_u64(model.q_heads)
        .push_u64(model.kv_heads)
        .push_u64(model.head_dim)
        .push_u64(tokens as u64);
    fp.finish()
}

/// The canonical form of a routing trace: each per-token expert set
/// sorted and deduped (exactly the normalization `Selector::multi`
/// applies when the routing is bound, so this half changes nothing the
/// engine sees), then the whole collection sorted — erasing token
/// order. Two routings that are permutations of the same **multiset**
/// of expert sets canonicalize to the identical trace, and therefore to
/// the identical [`RunBinding`] and — by the determinism contract — the
/// identical report.
///
/// This is how the serving driver's
/// [`crate::serving::ServeCfg::moe_canonical`] mode makes order-permuted
/// iterations share one *exact* report-cache entry. Canonicalizing the
/// binding, rather than replaying one order's report for its
/// permutations, is deliberate: differential measurement
/// ([`step_sim::ReportCache::checked`]) refuted the folk invariance
/// that token order cannot matter — permuting which token carries which
/// expert set changes token adjacency, with it how the engine coalesces
/// channel runs, and through scheduling even `cycles` and `rounds`
/// drift (measured: 1979 vs 1981 cycles on a 4-expert plan), so an
/// order-permuted replay is *not* aggregate-equivalent and may not be
/// substituted. Re-simulating the canonical order is exact by
/// construction; `crates/models/tests/report_memo_conformance.rs`
/// carries both the proof and the refutation.
pub fn canonical_routing(routing: &RoutingTrace) -> RoutingTrace {
    let mut sets: Vec<Vec<u32>> = routing
        .assignments
        .iter()
        .map(|set| {
            let mut s = set.clone();
            s.sort_unstable();
            s.dedup();
            s
        })
        .collect();
    sets.sort_unstable();
    RoutingTrace {
        assignments: sets,
        experts: routing.experts,
    }
}

/// The order-invariant identity of a routing's expert-set multiset —
/// a fingerprint of [`canonical_routing`]: equal keys iff the two
/// routings canonicalize to the same trace. The histogram (per-expert
/// token counts) would be weaker — equal histograms with different
/// token↔set pairings change even the per-expert workloads — which is
/// why the key folds the multiset and not the histogram.
pub fn moe_canonical_key(routing: &RoutingTrace) -> u64 {
    let canon = canonical_routing(routing);
    let mut fp = Fingerprint::new("phase.moe.canonical");
    fp.push_u64(u64::from(canon.experts));
    fp.push_u64(canon.assignments.len() as u64);
    for set in &canon.assignments {
        fp.push_u64(set.len() as u64);
        for e in set {
            fp.push_u64(u64::from(*e));
        }
    }
    fp.finish()
}

/// Pins the steady-state contract of the multi-iteration drivers: once
/// `warmed` (any iteration after the first per phase), a pooled run must
/// have reset the parked state in place — no plan rebuilds, no run-state
/// reallocation (`run_allocs == 0`, `pool_resets == 1`). Debug-only, like
/// the invariant it documents; release builds rely on the conformance
/// suites instead.
pub fn debug_assert_steady(report: &SimReport, warmed: bool) {
    debug_assert!(
        !warmed || (report.run_allocs, report.pool_resets) == (0, 1),
        "steady-state iteration rebuilt run state (run_allocs {}, pool_resets {})",
        report.run_allocs,
        report.pool_resets
    );
}
