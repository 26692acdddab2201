//! Symbolic performance-metric equations (§4.2).
//!
//! The symbolic frontend derives, per operator, expressions for **off-chip
//! memory traffic** and **on-chip memory requirement**; summing them over
//! the program graph gives whole-program metrics. When dynamic dimensions
//! are present the expressions contain symbols, which are substituted with
//! simulator measurements afterwards ("handling data dependencies").
//!
//! Equations (paper §4.2):
//! - off-chip traffic: `||output stream|| * |output dtype|` for loads,
//!   `||input stream|| * |input dtype|` for stores, zero elsewhere;
//! - on-chip memory: `|out dtype| * 2` for off-chip operators (double
//!   buffering), `|in dtype| + ||buffer|| * |in dtype| * 2` for
//!   `Bufferize`, `|out dtype|` for `Accum`/`Scan`/`Expand`, and
//!   `16 * in_tile_col * bytes + |weight tile| + |out tile|` for matmul
//!   `Map`/`Accum` (the 16 mirrors the decomposition into the hardware's
//!   16x16 compute tiles).

use crate::DTYPE_BYTES;
use crate::elem::ElemKind;
use crate::func::MapFn;
use crate::graph::{Graph, Node};
use crate::ops::OpKind;
use step_symbolic::{Env, Expr};

/// Symbolic metrics of a single node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeMetrics {
    /// Off-chip traffic in bytes.
    pub offchip_traffic: Expr,
    /// On-chip memory requirement in bytes.
    pub onchip_memory: Expr,
}

/// Symbolic metrics of a whole program graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphMetrics {
    /// Per-node metrics, indexed like `graph.nodes()`.
    pub per_node: Vec<NodeMetrics>,
    /// Total off-chip traffic in bytes.
    pub offchip_traffic: Expr,
    /// Total on-chip memory requirement in bytes.
    pub onchip_memory: Expr,
}

impl GraphMetrics {
    /// Evaluates both totals under `env` (with dynamic symbols bound to
    /// simulator measurements).
    ///
    /// # Errors
    ///
    /// Returns [`crate::StepError::Exec`] if symbols remain unbound.
    pub fn eval(&self, env: &Env) -> crate::Result<(u64, u64)> {
        let t = self
            .offchip_traffic
            .eval(env)
            .map_err(|e| crate::StepError::Exec(e.to_string()))?;
        let m = self
            .onchip_memory
            .eval(env)
            .map_err(|e| crate::StepError::Exec(e.to_string()))?;
        Ok((t.max(0) as u64, m.max(0) as u64))
    }
}

/// Computes the symbolic metrics of `graph`.
pub fn analyze(graph: &Graph) -> GraphMetrics {
    let per_node: Vec<NodeMetrics> = graph
        .nodes()
        .iter()
        .map(|n| node_metrics(graph, n))
        .collect();
    let offchip_traffic = Expr::sum_of(per_node.iter().map(|m| m.offchip_traffic.clone()));
    let onchip_memory = Expr::sum_of(per_node.iter().map(|m| m.onchip_memory.clone()));
    GraphMetrics {
        per_node,
        offchip_traffic,
        onchip_memory,
    }
}

fn out_edge(graph: &Graph, node: &Node, port: usize) -> Option<(Expr, ElemKind)> {
    node.outputs.get(port).map(|e| {
        let edge = graph.edge(*e);
        (edge.shape.cardinality(), (*edge.kind).clone())
    })
}

fn in_edge(graph: &Graph, node: &Node, port: usize) -> Option<(Expr, ElemKind)> {
    node.inputs.get(port).map(|e| {
        let edge = graph.edge(*e);
        (edge.shape.cardinality(), (*edge.kind).clone())
    })
}

/// Matmul on-chip footprint: `16 * in_tile_col * bytes + |weight tile| +
/// |out tile|` (out tile only for `Accum`).
fn matmul_memory(in_kind: &ElemKind, out_kind: &ElemKind, include_out: bool) -> Expr {
    let (a, b) = match in_kind {
        ElemKind::Tuple(v) if v.len() == 2 => (&v[0], &v[1]),
        _ => return out_kind.bytes(),
    };
    let in_tile_col = match a.as_tile_dims() {
        Ok((_, c)) => c.expr(),
        Err(_) => Expr::from(0u64),
    };
    let partial_in = Expr::from(16u64) * in_tile_col * Expr::from(DTYPE_BYTES);
    let weight = b.bytes();
    let out = if include_out {
        out_kind.bytes()
    } else {
        Expr::from(0u64)
    };
    partial_in + weight + out
}

fn node_metrics(graph: &Graph, node: &Node) -> NodeMetrics {
    let zero = Expr::from(0u64);
    match &node.op {
        OpKind::LinearLoad(_) | OpKind::RandomLoad(_) => {
            let (card, kind) = out_edge(graph, node, 0).expect("load has an output");
            NodeMetrics {
                offchip_traffic: card * kind.bytes(),
                onchip_memory: out_edge(graph, node, 0)
                    .map(|(_, k)| k.bytes() * Expr::from(2u64))
                    .unwrap_or_else(|| zero.clone()),
            }
        }
        OpKind::LinearStore { .. } => {
            let (card, kind) = in_edge(graph, node, 0).expect("store has an input");
            NodeMetrics {
                offchip_traffic: card * kind.bytes(),
                onchip_memory: in_edge(graph, node, 0)
                    .map(|(_, k)| k.bytes() * Expr::from(2u64))
                    .unwrap_or_else(|| zero.clone()),
            }
        }
        OpKind::RandomStore(_) => {
            // Port 1 carries the write data.
            let (card, kind) = in_edge(graph, node, 1).expect("store has data input");
            NodeMetrics {
                offchip_traffic: card * kind.bytes(),
                onchip_memory: in_edge(graph, node, 1)
                    .map(|(_, k)| k.bytes() * Expr::from(2u64))
                    .unwrap_or_else(|| zero.clone()),
            }
        }
        OpKind::Bufferize { .. } => {
            let (_, in_kind) = in_edge(graph, node, 0).expect("bufferize input");
            let (_, out_kind) = out_edge(graph, node, 0).expect("bufferize output");
            let buffered = out_kind.buffer_bytes();
            NodeMetrics {
                offchip_traffic: zero.clone(),
                onchip_memory: in_kind.bytes() + buffered * Expr::from(2u64),
            }
        }
        OpKind::Map { func, .. } => {
            let mem = match func {
                MapFn::Matmul | MapFn::MatmulBt => {
                    let (_, in_kind) = in_edge(graph, node, 0).expect("map input");
                    let (_, out_kind) = out_edge(graph, node, 0).expect("map output");
                    matmul_memory(&in_kind, &out_kind, false)
                }
                _ => zero.clone(),
            };
            NodeMetrics {
                offchip_traffic: zero.clone(),
                onchip_memory: mem,
            }
        }
        OpKind::Accum { .. } | OpKind::Scan { .. } => {
            let (_, out_kind) = out_edge(graph, node, 0).expect("accum output");
            NodeMetrics {
                offchip_traffic: zero.clone(),
                onchip_memory: out_kind.bytes(),
            }
        }
        OpKind::Expand { .. } | OpKind::ExpandStatic { .. } => {
            let (_, out_kind) = out_edge(graph, node, 0).expect("expand output");
            NodeMetrics {
                offchip_traffic: zero.clone(),
                onchip_memory: out_kind.bytes(),
            }
        }
        // Everything else streams without materialization.
        _ => NodeMetrics {
            offchip_traffic: zero.clone(),
            onchip_memory: zero,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::ops::LinearLoadCfg;

    #[test]
    fn load_traffic_counts_rereads() {
        // A 64x256 BF16 tensor read 3 times: traffic = 3 * 64*256*2 bytes.
        let mut g = GraphBuilder::new();
        let r = g.unit_source(3);
        let tiles = g
            .linear_offchip_load(&r, LinearLoadCfg::new(0, (64, 256), (64, 64)))
            .unwrap();
        g.linear_offchip_store(&tiles, 0x10_0000).unwrap();
        let graph = g.finish();
        let m = analyze(&graph);
        let (traffic, _) = m.eval(&Env::new()).unwrap();
        let tensor_bytes = 64 * 256 * 2;
        // 3 loads + 3 stores of the same tensor.
        assert_eq!(traffic, 6 * tensor_bytes);
    }

    #[test]
    fn offchip_ops_double_buffer() {
        let mut g = GraphBuilder::new();
        let r = g.unit_source(1);
        let tiles = g
            .linear_offchip_load(&r, LinearLoadCfg::new(0, (64, 64), (64, 64)))
            .unwrap();
        g.linear_offchip_store(&tiles, 0).unwrap();
        let graph = g.finish();
        let m = analyze(&graph);
        let (_, mem) = m.eval(&Env::new()).unwrap();
        // load: 2 tiles, store: 2 tiles of 64*64*2 bytes each.
        assert_eq!(mem, 4 * 64 * 64 * 2);
    }

    #[test]
    fn bufferize_memory_includes_double_buffered_capacity() {
        let mut g = GraphBuilder::new();
        let tokens = crate::token::rank1_from_groups(&[vec![
            crate::elem::Elem::Tile(
                crate::tile::Tile::phantom(16, 16)
            );
            4
        ]]);
        let s = g
            .source(
                tokens,
                crate::shape::StreamShape::fixed(&[1, 4]),
                ElemKind::tile(16, 16),
            )
            .unwrap();
        let _bufs = g.bufferize(&s, 1).unwrap();
        let graph = g.finish();
        let m = analyze(&graph);
        let (_, mem) = m.eval(&Env::new()).unwrap();
        let tile = 16 * 16 * 2;
        assert_eq!(mem, tile + 2 * 4 * tile);
    }

    #[test]
    fn matmul_map_memory_rule() {
        let mut g = GraphBuilder::new();
        let a = {
            let tokens = crate::token::rank0_from_values(
                (0..2).map(|_| crate::elem::Elem::Tile(crate::tile::Tile::phantom(4, 64))),
            );
            g.source(
                tokens,
                crate::shape::StreamShape::fixed(&[2]),
                ElemKind::tile(4, 64),
            )
            .unwrap()
        };
        let b = {
            let tokens = crate::token::rank0_from_values(
                (0..2).map(|_| crate::elem::Elem::Tile(crate::tile::Tile::phantom(64, 256))),
            );
            g.source(
                tokens,
                crate::shape::StreamShape::fixed(&[2]),
                ElemKind::tile(64, 256),
            )
            .unwrap()
        };
        let _ = g.map2(&a, &b, MapFn::Matmul, 1024).unwrap();
        let graph = g.finish();
        let m = analyze(&graph);
        let (_, mem) = m.eval(&Env::new()).unwrap();
        // 16 * in_tile_col(64) * 2 + weight tile 64*256*2, no out tile.
        assert_eq!(mem, 16 * 64 * 2 + 64 * 256 * 2);
    }

    #[test]
    fn accum_memory_is_output_dtype() {
        let mut g = GraphBuilder::new();
        let tokens = crate::token::rank1_from_groups(&[vec![
            crate::elem::Elem::Tile(
                crate::tile::Tile::phantom(1, 64)
            );
            4
        ]]);
        let s = g
            .source(
                tokens,
                crate::shape::StreamShape::fixed(&[1, 4]),
                ElemKind::tile(1, 64),
            )
            .unwrap();
        let _ = g.accum(&s, 1, crate::func::AccumFn::RetileRow, 0).unwrap();
        let graph = g.finish();
        let m = analyze(&graph);
        let (_, mem) = m.eval(&Env::new()).unwrap();
        // Accumulator holds the packed 4x64 tile.
        assert_eq!(mem, 4 * 64 * 2);
    }

    #[test]
    fn pure_shape_ops_cost_nothing() {
        let mut g = GraphBuilder::new();
        let s = g.unit_source(4);
        let p = g.promote(&s).unwrap();
        let _ = g.flatten(&p, 0, 1).unwrap();
        let graph = g.finish();
        let m = analyze(&graph);
        let (traffic, mem) = m.eval(&Env::new()).unwrap();
        assert_eq!(traffic, 0);
        assert_eq!(mem, 0);
    }

    #[test]
    fn dynamic_traffic_resolves_with_env() {
        // Weight reloaded ⌈D/4⌉ times: traffic is symbolic until D is
        // measured.
        let mut g = GraphBuilder::new();
        let d = g.symbols().fresh("D");
        let shape = crate::shape::StreamShape::new(vec![crate::shape::Dim::DynRegular(
            step_symbolic::Expr::from(&d).ceil_div(4),
        )]);
        let r = g
            .source(vec![crate::token::Token::Done], shape, ElemKind::Unit)
            .unwrap();
        let _ = g
            .linear_offchip_load(&r, LinearLoadCfg::new(0, (64, 256), (64, 64)))
            .unwrap();
        let graph = g.finish();
        let m = analyze(&graph);
        assert!(!m.offchip_traffic.is_concrete());
        let mut env = Env::new();
        env.bind(&d, 10); // ⌈10/4⌉ = 3 reads
        let (traffic, _) = m.eval(&env).unwrap();
        assert_eq!(traffic, 3 * 64 * 256 * 2);
    }
}
