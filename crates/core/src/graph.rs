//! The STeP program graph and its shape-verifying builder (§3, §4.1).
//!
//! A STeP program is a dataflow graph of asynchronously executing operator
//! nodes connected by streams. [`GraphBuilder`] mirrors the paper's
//! symbolic Python frontend: each operator method infers the output stream
//! shape per the shape semantics of Tables 3–7 and *verifies* that
//! producer and consumer shapes align, so malformed programs are rejected
//! at build time rather than at simulation time. Every stream handle
//! ([`StreamRef`]) exposes its symbolic shape for inspection, like
//! `print(output.stream.shape)` in Listing 1.

use crate::elem::{Elem, ElemKind, buffer_kind};
use crate::error::{Result, StepError};
use crate::func::{AccumFn, FlatMapFn, MapFn};
use crate::ops::{LinearLoadCfg, OpKind, RandomAccessCfg, SinkCfg, SourceCfg, StreamifyCfg};
use crate::shape::{Dim, StreamShape};
use crate::token::{self, Token};
use std::collections::HashSet;
use std::hash::Hash;
use std::sync::Arc;
use step_symbolic::SymbolTable;

/// Identifier of a node within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of an edge (stream) within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

/// Key identifying an unfulfilled feedback stream opened with
/// [`GraphBuilder::feedback`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedbackKey(NodeId);

/// A handle to a not-yet-consumed output stream of a node under
/// construction. Carries the inferred symbolic shape and element kind,
/// sharing them with its [`Edge`].
#[derive(Debug, Clone)]
pub struct StreamRef {
    edge: EdgeId,
    shape: Arc<StreamShape>,
    kind: Arc<ElemKind>,
}

impl StreamRef {
    /// The symbolic stream shape (outermost dim first).
    pub fn shape(&self) -> &StreamShape {
        &self.shape
    }

    /// The stream's element kind.
    pub fn kind(&self) -> &ElemKind {
        &self.kind
    }

    /// The underlying edge id.
    pub fn edge(&self) -> EdgeId {
        self.edge
    }
}

/// A node of the program graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// The operator.
    pub op: OpKind,
    /// Input edges, in port order.
    pub inputs: Vec<EdgeId>,
    /// Output edges, in port order.
    pub outputs: Vec<EdgeId>,
    /// Optional human-readable label for diagnostics.
    pub label: String,
}

/// An edge (stream) of the program graph.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Producing node and output port.
    pub src: (NodeId, u16),
    /// Consuming node and input port (`None` until connected; `finish`
    /// auto-sinks dangling edges).
    pub dst: Option<(NodeId, u16)>,
    /// Symbolic stream shape, interned by the builder: every edge of a
    /// graph with an equal shape shares this allocation.
    pub shape: Arc<StreamShape>,
    /// Element kind, interned like `shape`.
    pub kind: Arc<ElemKind>,
    /// FIFO capacity in tokens (hardware queue depth).
    pub capacity: usize,
}

/// A finished STeP program graph.
#[derive(Debug, Clone)]
pub struct Graph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl Graph {
    /// The nodes, indexed by [`NodeId`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The edges, indexed by [`EdgeId`].
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0 as usize]
    }

    /// The one node carrying `label` ([`GraphBuilder::label_last`]).
    /// Model builders label their rebindable `Source` nodes, so a driver
    /// holding only a frozen plan can find its ports in the plan's graph.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Config`] if no node, or more than one,
    /// carries the label.
    pub fn node_labelled(&self, label: &str) -> Result<NodeId> {
        let mut found = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.label == label);
        match (found.next(), found.next()) {
            (Some((i, _)), None) => Ok(NodeId(i as u32)),
            (None, _) => Err(StepError::Config(format!("no node labelled `{label}`"))),
            (Some(_), Some(_)) => Err(StepError::Config(format!(
                "more than one node labelled `{label}`"
            ))),
        }
    }

    /// Total compute bandwidth allocated across all compute nodes, in
    /// FLOPs/cycle (the "allocated compute" resource metric of §5.3).
    pub fn allocated_compute(&self) -> u64 {
        self.nodes.iter().filter_map(|n| n.op.compute_bw()).sum()
    }
}

/// FIFO capacity of every new stream, in tokens
/// ([`GraphBuilder::set_capacity`] overrides one stream).
const DEFAULT_CAPACITY: usize = 16;

/// Builds a [`Graph`] operator by operator, verifying shapes.
///
/// See the crate-level example. Unconnected output streams are
/// automatically terminated with non-recording sinks by
/// [`GraphBuilder::finish`].
#[derive(Debug)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    syms: SymbolTable,
    pending_feedback: Vec<NodeId>,
    /// Every distinct edge shape and element kind built so far, so equal
    /// ones share one allocation; dropped by `finish`.
    shapes: HashSet<Arc<StreamShape>>,
    kinds: HashSet<Arc<ElemKind>>,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Checks one dimension for producer/consumer compatibility: static dims
/// must match exactly; dynamic dims are compatible with anything (their
/// concrete sizes are checked by the simulator).
fn dims_compatible(a: &Dim, b: &Dim) -> bool {
    match (a.as_static(), b.as_static()) {
        (Some(x), Some(y)) => x == y,
        _ => true,
    }
}

fn shapes_compatible(a: &StreamShape, b: &StreamShape) -> bool {
    a.dims().len() == b.dims().len()
        && a.dims()
            .iter()
            .zip(b.dims())
            .all(|(x, y)| dims_compatible(x, y))
}

fn kinds_compatible(a: &ElemKind, b: &ElemKind) -> bool {
    match (a, b) {
        (ElemKind::Tile { rows: r1, cols: c1 }, ElemKind::Tile { rows: r2, cols: c2 }) => {
            dims_compatible(r1, r2) && dims_compatible(c1, c2)
        }
        (ElemKind::Tuple(x), ElemKind::Tuple(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| kinds_compatible(a, b))
        }
        (x, y) => std::mem::discriminant(x) == std::mem::discriminant(y),
    }
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> GraphBuilder {
        GraphBuilder {
            nodes: Vec::new(),
            edges: Vec::new(),
            syms: SymbolTable::new(),
            pending_feedback: Vec::new(),
            shapes: HashSet::new(),
            kinds: HashSet::new(),
        }
    }

    /// Access to the symbol table (for minting dims in sources).
    pub fn symbols(&mut self) -> &mut SymbolTable {
        &mut self.syms
    }

    /// Overrides the FIFO capacity of a stream.
    pub fn set_capacity(&mut self, s: &StreamRef, cap: usize) {
        assert!(cap > 0, "capacity must be positive");
        self.edges[s.edge.0 as usize].capacity = cap;
    }

    /// The node producing stream `s` — stable across `finish`, so model
    /// builders can hand out the ids of rebindable `Source` nodes.
    pub fn node_of(&self, s: &StreamRef) -> NodeId {
        self.edges[s.edge.0 as usize].src.0
    }

    /// Attaches a diagnostic label to the most recently added node.
    pub fn label_last(&mut self, label: &str) -> &mut Self {
        if let Some(n) = self.nodes.last_mut() {
            n.label = label.to_string();
        }
        self
    }

    fn add_node(&mut self, op: OpKind, inputs: &[&StreamRef]) -> Result<NodeId> {
        let id = NodeId(self.nodes.len() as u32);
        let mut in_edges = Vec::with_capacity(inputs.len());
        for (port, s) in inputs.iter().enumerate() {
            let e = &mut self.edges[s.edge.0 as usize];
            if e.dst.is_some() {
                return Err(StepError::Config(format!(
                    "stream {:?} already consumed; use fork() for fan-out",
                    s.edge
                )));
            }
            e.dst = Some((id, port as u16));
            in_edges.push(s.edge);
        }
        self.nodes.push(Node {
            op,
            inputs: in_edges,
            outputs: Vec::new(),
            label: String::new(),
        });
        Ok(id)
    }

    fn add_output(
        &mut self,
        node: NodeId,
        shape: impl Interned<StreamShape>,
        kind: impl Interned<ElemKind>,
    ) -> StreamRef {
        let edge = EdgeId(self.edges.len() as u32);
        let port = self.nodes[node.0 as usize].outputs.len() as u16;
        let shape = shape.intern(&mut self.shapes);
        let kind = kind.intern(&mut self.kinds);
        self.edges.push(Edge {
            src: (node, port),
            dst: None,
            shape: Arc::clone(&shape),
            kind: Arc::clone(&kind),
            capacity: DEFAULT_CAPACITY,
        });
        self.nodes[node.0 as usize].outputs.push(edge);
        StreamRef { edge, shape, kind }
    }

    // ------------------------------------------------------------------
    // Sources and sinks
    // ------------------------------------------------------------------

    /// A source playing `tokens` (validated against `rank` of `shape`).
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Malformed`] if the tokens violate stop-token
    /// discipline for the shape's rank.
    pub fn source(
        &mut self,
        tokens: Vec<Token>,
        shape: StreamShape,
        kind: ElemKind,
    ) -> Result<StreamRef> {
        token::validate(&tokens, shape.rank())?;
        let node = self.add_node(
            OpKind::Source(SourceCfg {
                tokens,
                tokens_per_cycle: 1,
            }),
            &[],
        )?;
        Ok(self.add_output(node, shape, kind))
    }

    /// A rank-0 source of `n` unit (trigger) tokens.
    pub fn unit_source(&mut self, n: u64) -> StreamRef {
        let tokens = token::rank0_from_values((0..n).map(|_| Elem::Unit));
        self.source(tokens, StreamShape::fixed(&[n]), ElemKind::Unit)
            .expect("unit source tokens are well-formed")
    }

    /// A rank-0 source of selector values over `num_targets` targets.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Config`] if a selector exceeds `num_targets`.
    pub fn selector_source(
        &mut self,
        selectors: Vec<crate::elem::Selector>,
        num_targets: u32,
    ) -> Result<StreamRef> {
        let kind = ElemKind::Selector { num_targets };
        for s in &selectors {
            if !kind.admits(&Elem::Sel(s.clone())) {
                return Err(StepError::Config(format!(
                    "selector {s} out of range for {num_targets} targets"
                )));
            }
        }
        let n = selectors.len() as u64;
        let tokens = token::rank0_from_values(selectors.into_iter().map(Elem::Sel));
        self.source(tokens, StreamShape::fixed(&[n]), kind)
    }

    /// A recording sink; consumed tokens are retrievable from the
    /// simulator by the returned node id.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Config`] if the stream was already consumed.
    pub fn sink(&mut self, s: &StreamRef) -> Result<NodeId> {
        self.add_node(OpKind::Sink(SinkCfg { record: true }), &[s])
    }

    // ------------------------------------------------------------------
    // Off-chip memory operators (Table 3)
    // ------------------------------------------------------------------

    /// `LinearOffChipLoad`: one affine tiled read per reference element.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Config`] on invalid configuration or a
    /// consumed reference stream.
    pub fn linear_offchip_load(
        &mut self,
        reference: &StreamRef,
        cfg: LinearLoadCfg,
    ) -> Result<StreamRef> {
        if cfg.shape_tiled.0 == 0 || cfg.shape_tiled.1 == 0 {
            return Err(StepError::Config("empty affine extent".into()));
        }
        let (tr, tc) = cfg.tile_shape;
        let extra = [Dim::fixed(cfg.shape_tiled.0), Dim::fixed(cfg.shape_tiled.1)];
        let shape = reference.shape.append_inner(&extra);
        let kind = ElemKind::tile(tr, tc);
        let node = self.add_node(OpKind::LinearLoad(cfg), &[reference])?;
        Ok(self.add_output(node, shape, kind))
    }

    /// `LinearOffChipStore`: writes the stream's tiles linearly at
    /// `base_addr`.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::ElemType`] if the stream does not carry tiles.
    pub fn linear_offchip_store(&mut self, s: &StreamRef, base_addr: u64) -> Result<NodeId> {
        s.kind.as_tile_dims()?;
        self.add_node(OpKind::LinearStore { base_addr }, &[s])
    }

    /// `RandomOffChipLoad`: one tile per address element.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::ElemType`] if the address stream does not
    /// carry addresses.
    pub fn random_offchip_load(
        &mut self,
        raddr: &StreamRef,
        cfg: RandomAccessCfg,
    ) -> Result<StreamRef> {
        if !matches!(*raddr.kind, ElemKind::Addr) {
            return Err(StepError::ElemType(
                "RandomOffChipLoad needs an address stream".into(),
            ));
        }
        let kind = ElemKind::tile(cfg.tile_shape.0, cfg.tile_shape.1);
        let shape = raddr.shape.clone();
        let node = self.add_node(OpKind::RandomLoad(cfg), &[raddr])?;
        Ok(self.add_output(node, shape, kind))
    }

    /// `RandomOffChipStore`: writes `wdata` tiles at `waddr` addresses and
    /// emits an acknowledgement stream.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Shape`] if the address and data shapes differ.
    pub fn random_offchip_store(
        &mut self,
        waddr: &StreamRef,
        wdata: &StreamRef,
        cfg: RandomAccessCfg,
    ) -> Result<StreamRef> {
        if !matches!(*waddr.kind, ElemKind::Addr) {
            return Err(StepError::ElemType(
                "RandomOffChipStore needs an address stream".into(),
            ));
        }
        wdata.kind.as_tile_dims()?;
        if !shapes_compatible(&waddr.shape, &wdata.shape) {
            return Err(StepError::Shape(format!(
                "waddr {} vs wdata {}",
                waddr.shape, wdata.shape
            )));
        }
        let shape = waddr.shape.clone();
        let node = self.add_node(OpKind::RandomStore(cfg), &[waddr, wdata])?;
        Ok(self.add_output(node, shape, ElemKind::Bool))
    }

    // ------------------------------------------------------------------
    // On-chip memory operators (Table 4)
    // ------------------------------------------------------------------

    /// `Bufferize`: captures the `rank` innermost dims into on-chip
    /// buffers (Fig 3). Inner buffered dims may be dynamic-regular; only
    /// the outermost buffered dim may be ragged.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Shape`] on rank violations.
    pub fn bufferize(&mut self, s: &StreamRef, rank: u8) -> Result<StreamRef> {
        if rank == 0 || rank > s.shape.rank() {
            return Err(StepError::Shape(format!(
                "bufferize rank {rank} invalid for stream of rank {}",
                s.shape.rank()
            )));
        }
        let inner = s.shape.inner(rank as usize);
        if inner[1..].iter().any(Dim::is_ragged) {
            return Err(StepError::Shape(
                "only the outermost bufferized dim may be ragged".into(),
            ));
        }
        let kind = buffer_kind(&s.kind, &s.shape, rank);
        let shape = s.shape.drop_inner(rank as usize);
        let node = self.add_node(OpKind::Bufferize { rank }, &[s])?;
        Ok(self.add_output(node, shape, kind))
    }

    /// `Streamify`: reads each buffer per the reference stream (Fig 3).
    /// Static buffers support affine reads via `cfg`; dynamic buffers
    /// stream linearly.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::ElemType`] if `bufs` is not a buffer stream or
    /// [`StepError::Shape`] if the reference rank is too small.
    pub fn streamify(
        &mut self,
        bufs: &StreamRef,
        reference: &StreamRef,
        cfg: StreamifyCfg,
    ) -> Result<StreamRef> {
        let (inner, buf_shape) = match &*bufs.kind {
            ElemKind::Buffer { inner, shape } => ((**inner).clone(), shape.clone()),
            _ => {
                return Err(StepError::ElemType(
                    "Streamify needs a buffer stream".into(),
                ));
            }
        };
        if reference.shape.rank() < bufs.shape.rank() {
            return Err(StepError::Shape(format!(
                "reference rank {} below buffer stream rank {}",
                reference.shape.rank(),
                bufs.shape.rank()
            )));
        }
        let static_buf = buf_shape.iter().all(|d| !d.is_dynamic());
        let extra: Vec<Dim> = match (&cfg.shape, static_buf) {
            (Some((r, c)), true) => vec![Dim::fixed(*r), Dim::fixed(*c)],
            _ => buf_shape.clone(),
        };
        let shape = reference.shape.append_inner(&extra);
        let node = self.add_node(OpKind::Streamify(cfg), &[bufs, reference])?;
        Ok(self.add_output(node, shape, inner))
    }

    // ------------------------------------------------------------------
    // Dynamic routing and merging operators (Table 6)
    // ------------------------------------------------------------------

    /// `Partition`: routes rank-`rank` chunks of `s` to the outputs
    /// selected by each (multi-hot) selector element.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Shape`] on rank mismatches or
    /// [`StepError::ElemType`] if `sel` is not a selector stream.
    pub fn partition(
        &mut self,
        s: &StreamRef,
        sel: &StreamRef,
        rank: u8,
        num_consumers: u32,
    ) -> Result<Vec<StreamRef>> {
        match &*sel.kind {
            ElemKind::Selector { num_targets } if *num_targets == num_consumers => {}
            ElemKind::Selector { num_targets } => {
                return Err(StepError::Config(format!(
                    "selector targets {num_targets} != consumers {num_consumers}"
                )));
            }
            _ => {
                return Err(StepError::ElemType(
                    "Partition needs a selector stream".into(),
                ));
            }
        }
        if rank == 0 || rank > s.shape.rank() {
            return Err(StepError::Shape(format!(
                "partition rank {rank} invalid for stream of rank {}",
                s.shape.rank()
            )));
        }
        let expected_sel_rank = s.shape.rank() - rank;
        if sel.shape.rank() != expected_sel_rank {
            return Err(StepError::Shape(format!(
                "selector rank {} != input rank {} - partition rank {rank}",
                sel.shape.rank(),
                s.shape.rank()
            )));
        }
        let node = self.add_node(
            OpKind::Partition {
                rank,
                num_consumers,
            },
            &[s, sel],
        )?;
        let has_outer = s.shape.rank() > rank;
        let mut outs = Vec::with_capacity(num_consumers as usize);
        for _ in 0..num_consumers {
            let fresh = self.syms.fresh("Dpart");
            let dim = if has_outer {
                Dim::Ragged(step_symbolic::Expr::Sym(fresh))
            } else {
                Dim::DynRegular(step_symbolic::Expr::Sym(fresh))
            };
            let shape = s.shape.with_dim_at_level(rank, dim);
            outs.push(self.add_output(node, shape, s.kind.clone()));
        }
        Ok(outs)
    }

    /// `Reassemble`: per selector element, drains one rank-`rank` tensor
    /// from each selected input (in arrival order, non-interleaved) and
    /// adds a new dimension (Fig 4).
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Shape`]/[`StepError::ElemType`] on
    /// incompatible inputs.
    pub fn reassemble(
        &mut self,
        inputs: &[&StreamRef],
        sel: &StreamRef,
        rank: u8,
    ) -> Result<StreamRef> {
        if inputs.is_empty() {
            return Err(StepError::Config("Reassemble needs inputs".into()));
        }
        match &*sel.kind {
            ElemKind::Selector { num_targets } if *num_targets as usize == inputs.len() => {}
            ElemKind::Selector { num_targets } => {
                return Err(StepError::Config(format!(
                    "selector targets {num_targets} != inputs {}",
                    inputs.len()
                )));
            }
            _ => {
                return Err(StepError::ElemType(
                    "Reassemble needs a selector stream".into(),
                ));
            }
        }
        let first = inputs[0];
        for s in inputs {
            if s.shape.rank() != rank {
                return Err(StepError::Shape(format!(
                    "reassemble input rank {} != reassemble rank {rank}",
                    s.shape.rank()
                )));
            }
            if !kinds_compatible(&s.kind, &first.kind) {
                return Err(StepError::ElemType(
                    "reassemble inputs must share an element kind".into(),
                ));
            }
        }
        let mut all: Vec<&StreamRef> = inputs.to_vec();
        all.push(sel);
        let node = self.add_node(
            OpKind::Reassemble {
                rank,
                num_producers: inputs.len() as u32,
            },
            &all,
        )?;
        // Output shape: sel dims ++ [fresh chunk-count dim] ++ input inner
        // dims (Table 6).
        let fresh = Dim::DynRegular(step_symbolic::Expr::Sym(self.syms.fresh("Dsel")));
        let mut dims = sel.shape.dims().to_vec();
        dims.push(fresh);
        dims.extend_from_slice(first.shape.inner(rank as usize));
        Ok(self.add_output(node, StreamShape::new(dims), first.kind.clone()))
    }

    /// `EagerMerge`: merges whole tensors from `inputs` in arrival order;
    /// returns `(data, selector)` where the selector stream records each
    /// chunk's source index.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Shape`] if inputs disagree on rank.
    pub fn eager_merge(&mut self, inputs: &[&StreamRef]) -> Result<(StreamRef, StreamRef)> {
        if inputs.is_empty() {
            return Err(StepError::Config("EagerMerge needs inputs".into()));
        }
        let first = inputs[0];
        for s in inputs {
            if s.shape.rank() != first.shape.rank() {
                return Err(StepError::Shape(format!(
                    "eager-merge input ranks differ: {} vs {}",
                    s.shape.rank(),
                    first.shape.rank()
                )));
            }
            if !kinds_compatible(&s.kind, &first.kind) {
                return Err(StepError::ElemType(
                    "eager-merge inputs must share an element kind".into(),
                ));
            }
        }
        let node = self.add_node(
            OpKind::EagerMerge {
                num_producers: inputs.len() as u32,
            },
            inputs,
        )?;
        let total = Dim::DynRegular(step_symbolic::Expr::Sym(self.syms.fresh("Dsum")));
        let mut dims = first.shape.dims().to_vec();
        dims[0] = total.clone();
        let data = self.add_output(node, StreamShape::new(dims), first.kind.clone());
        let sel = self.add_output(
            node,
            StreamShape::new(vec![total]),
            ElemKind::Selector {
                num_targets: inputs.len() as u32,
            },
        );
        Ok((data, sel))
    }

    // ------------------------------------------------------------------
    // Higher-order operators (Table 5)
    // ------------------------------------------------------------------

    /// `Map`: applies `func` to every element; the stream shape is
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::ElemType`] if `func` cannot accept the
    /// stream's element kind.
    pub fn map(&mut self, s: &StreamRef, func: MapFn, compute_bw: u64) -> Result<StreamRef> {
        let kind = infer_map_kind(&func, &s.kind)?;
        let shape = s.shape.clone();
        let node = self.add_node(OpKind::Map { func, compute_bw }, &[s])?;
        Ok(self.add_output(node, shape, kind))
    }

    /// Convenience: zips `a` and `b` and maps a binary `func` over the
    /// pairs (the two-input `Map` of Listing 1).
    ///
    /// # Errors
    ///
    /// Propagates [`GraphBuilder::zip`] and [`GraphBuilder::map`] errors.
    pub fn map2(
        &mut self,
        a: &StreamRef,
        b: &StreamRef,
        func: MapFn,
        compute_bw: u64,
    ) -> Result<StreamRef> {
        let z = self.zip(a, b)?;
        self.map(&z, func, compute_bw)
    }

    /// `Accum`: folds the `rank` innermost dims with `func`. The
    /// accumulator may be dynamically sized (e.g. `RetileRow` over a
    /// dynamic dim — the mechanism behind dynamic tiling, §5.2).
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Shape`] on rank violations.
    pub fn accum(
        &mut self,
        s: &StreamRef,
        rank: u8,
        func: AccumFn,
        compute_bw: u64,
    ) -> Result<StreamRef> {
        if rank == 0 || rank > s.shape.rank() {
            return Err(StepError::Shape(format!(
                "accum rank {rank} invalid for stream of rank {}",
                s.shape.rank()
            )));
        }
        let kind = infer_accum_kind(&func, &s.kind, &s.shape, rank, &mut self.syms)?;
        let shape = s.shape.drop_inner(rank as usize);
        let node = self.add_node(
            OpKind::Accum {
                rank,
                func,
                compute_bw,
            },
            &[s],
        )?;
        Ok(self.add_output(node, shape, kind))
    }

    /// `Scan`: like `Accum` but emits the running state per element; the
    /// stream shape is unchanged. Only elementwise accumulation
    /// ([`AccumFn::AddTiles`]) keeps the element kind stable and is
    /// accepted.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Config`] for non-elementwise functions.
    pub fn scan(
        &mut self,
        s: &StreamRef,
        rank: u8,
        func: AccumFn,
        compute_bw: u64,
    ) -> Result<StreamRef> {
        if func != AccumFn::AddTiles {
            return Err(StepError::Config(
                "Scan requires an elementwise update (AddTiles)".into(),
            ));
        }
        if rank == 0 || rank > s.shape.rank() {
            return Err(StepError::Shape(format!(
                "scan rank {rank} invalid for stream of rank {}",
                s.shape.rank()
            )));
        }
        let shape = s.shape.clone();
        let kind = s.kind.clone();
        let node = self.add_node(
            OpKind::Scan {
                rank,
                func,
                compute_bw,
            },
            &[s],
        )?;
        Ok(self.add_output(node, shape, kind))
    }

    /// `FlatMap`: expands each element into a rank-`b` block; consecutive
    /// blocks concatenate along the new level-`b` dim (Table 5).
    ///
    /// # Errors
    ///
    /// Returns [`StepError::ElemType`] for non-tile streams.
    pub fn flat_map(&mut self, s: &StreamRef, func: FlatMapFn) -> Result<StreamRef> {
        let (rows, cols) = s.kind.as_tile_dims()?;
        let (rows, cols) = (rows.clone(), cols.clone());
        let b = func.block_rank();
        debug_assert_eq!(b, 1, "only rank-1 flat-map blocks are modeled");
        // Out element: `chunk`-sized slices (tail chunks may be short,
        // making the split dim ragged unless it divides evenly).
        let (split, keep, split_rows) = match func {
            FlatMapFn::SplitRows { chunk } => (rows.clone(), cols, (true, chunk)),
            FlatMapFn::SplitCols { chunk } => (cols.clone(), rows, (false, chunk)),
        };
        let chunk = split_rows.1;
        let out_split = match split.as_static() {
            Some(r) if r % chunk as u64 == 0 => Dim::fixed(chunk as u64),
            _ => Dim::Ragged(step_symbolic::Expr::Sym(self.syms.fresh("Tsplit"))),
        };
        let chunks_per_tile = split.ceil_div(chunk as u64, &mut self.syms);
        // Innermost dim D_0 becomes the block-count dim at level 1 with a
        // new innermost dim of chunks (Table 5's D'_b..D'_0).
        let mut dims = s.shape.dims().to_vec();
        dims.push(chunks_per_tile);
        let kind = if split_rows.0 {
            ElemKind::Tile {
                rows: out_split,
                cols: keep,
            }
        } else {
            ElemKind::Tile {
                rows: keep,
                cols: out_split,
            }
        };
        let node = self.add_node(OpKind::FlatMap { func }, &[s])?;
        Ok(self.add_output(node, StreamShape::new(dims), kind))
    }

    /// Address generator: per element carrying a target index `i`
    /// (selector or address), emits a rank-1 block of `count` addresses
    /// `base + (i*count + j)*stride` (weight fetch under configuration
    /// time-multiplexing, Fig 11).
    ///
    /// # Errors
    ///
    /// Returns [`StepError::ElemType`] for inadmissible input kinds.
    pub fn addr_gen(
        &mut self,
        s: &StreamRef,
        base: u64,
        count: u64,
        stride: u64,
    ) -> Result<StreamRef> {
        if !matches!(*s.kind, ElemKind::Selector { .. } | ElemKind::Addr) {
            return Err(StepError::ElemType(
                "AddrGen needs a selector or address stream".into(),
            ));
        }
        if count == 0 {
            return Err(StepError::Config("AddrGen count must be > 0".into()));
        }
        let mut dims = s.shape.dims().to_vec();
        dims.push(Dim::fixed(count));
        let node = self.add_node(
            OpKind::AddrGen {
                count,
                stride,
                base,
            },
            &[s],
        )?;
        Ok(self.add_output(node, StreamShape::new(dims), ElemKind::Addr))
    }

    // ------------------------------------------------------------------
    // Shape operators (Table 7)
    // ------------------------------------------------------------------

    /// `Flatten`: merges the dims between stop levels `min..=max`.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Shape`] for invalid ranges.
    pub fn flatten(&mut self, s: &StreamRef, min: u8, max: u8) -> Result<StreamRef> {
        let shape = s.shape.flatten(min, max, &mut self.syms)?;
        let kind = s.kind.clone();
        let node = self.add_node(OpKind::Flatten { min, max }, &[s])?;
        Ok(self.add_output(node, shape, kind))
    }

    /// `Reshape`: splits the innermost dim into chunks of `chunk`
    /// elements, padding short tails with `pad`; returns `(data, padding)`
    /// streams (Table 7).
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Config`] if padding is required but absent,
    /// or if `pad` is not admissible for the stream's element kind.
    pub fn reshape(
        &mut self,
        s: &StreamRef,
        chunk: u64,
        pad: Option<Elem>,
    ) -> Result<(StreamRef, StreamRef)> {
        if chunk == 0 {
            return Err(StepError::Config("reshape chunk must be > 0".into()));
        }
        let innermost = s.shape.dim_at_level(0);
        let statically_divisible =
            chunk == 1 || matches!(innermost.as_static(), Some(n) if n % chunk == 0);
        if !statically_divisible && pad.is_none() {
            return Err(StepError::Config(format!(
                "reshape of dim {innermost} by {chunk} requires a pad value"
            )));
        }
        if let Some(p) = &pad
            && !s.kind.admits(p)
        {
            return Err(StepError::Config(
                "pad value not admissible for stream element kind".into(),
            ));
        }
        let new_outer = s.shape.dim_at_level(0).ceil_div(chunk, &mut self.syms);
        let mut dims = s.shape.dims().to_vec();
        let last = dims.len() - 1;
        dims[last] = new_outer;
        dims.push(Dim::fixed(chunk));
        let shape = StreamShape::new(dims);
        let kind = s.kind.clone();
        let node = self.add_node(
            OpKind::Reshape {
                level: 0,
                chunk,
                pad,
            },
            &[s],
        )?;
        let data = self.add_output(node, shape, kind);
        let padding = self.add_output(node, Arc::clone(&data.shape), ElemKind::Bool);
        Ok((data, padding))
    }

    /// `Promote`: adds a new outermost dimension of extent 1 (0 for empty
    /// streams).
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Config`] if the stream was already consumed.
    pub fn promote(&mut self, s: &StreamRef) -> Result<StreamRef> {
        let mut dims = vec![Dim::fixed(1)];
        dims.extend_from_slice(s.shape.dims());
        let kind = s.kind.clone();
        let node = self.add_node(OpKind::Promote, &[s])?;
        Ok(self.add_output(node, StreamShape::new(dims), kind))
    }

    /// `Expand`: repeats input elements per the reference stream's
    /// structure below `level` (Fig 5). The input dims below `level` must
    /// be 1.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Shape`] on rank mismatch or non-unit inner
    /// dims.
    pub fn expand(&mut self, s: &StreamRef, reference: &StreamRef, level: u8) -> Result<StreamRef> {
        if s.shape.rank() != reference.shape.rank() {
            return Err(StepError::Shape(format!(
                "expand: input rank {} != reference rank {}",
                s.shape.rank(),
                reference.shape.rank()
            )));
        }
        for l in 0..level {
            if let Some(n) = s.shape.dim_at_level(l).as_static()
                && n != 1
            {
                return Err(StepError::Shape(format!(
                    "expand: input dim at level {l} must be 1, got {n}"
                )));
            }
        }
        let shape = reference.shape.clone();
        let kind = s.kind.clone();
        let node = self.add_node(OpKind::Expand { level }, &[s, reference])?;
        Ok(self.add_output(node, shape, kind))
    }

    /// Static `Expand`: repeats each element `factor` times, growing the
    /// innermost dim (footnote 6: every reference-driven operator has a
    /// static variant).
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Config`] for a zero factor.
    pub fn expand_static(&mut self, s: &StreamRef, factor: u64) -> Result<StreamRef> {
        if factor == 0 {
            return Err(StepError::Config("expand factor must be > 0".into()));
        }
        let inner = s.shape.dim_at_level(0);
        let new_inner = inner.multiply(&Dim::fixed(factor), &mut self.syms);
        let shape = s.shape.with_dim_at_level(0, new_inner);
        let kind = s.kind.clone();
        let node = self.add_node(OpKind::ExpandStatic { factor }, &[s])?;
        Ok(self.add_output(node, shape, kind))
    }

    /// `Zip`: groups two same-shaped streams into a tuple stream.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Shape`] if the shapes are incompatible.
    pub fn zip(&mut self, a: &StreamRef, b: &StreamRef) -> Result<StreamRef> {
        if !shapes_compatible(&a.shape, &b.shape) {
            return Err(StepError::Shape(format!("zip: {} vs {}", a.shape, b.shape)));
        }
        let kind = ElemKind::Tuple(vec![(*a.kind).clone(), (*b.kind).clone()]);
        let shape = a.shape.clone();
        let node = self.add_node(OpKind::Zip, &[a, b])?;
        Ok(self.add_output(node, shape, kind))
    }

    /// Replicates a stream to `ways` consumers (hardware FIFO fan-out).
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Config`] for zero ways or a consumed stream.
    pub fn fork(&mut self, s: &StreamRef, ways: u32) -> Result<Vec<StreamRef>> {
        if ways == 0 {
            return Err(StepError::Config("fork needs at least one way".into()));
        }
        let node = self.add_node(OpKind::Fork { ways }, &[s])?;
        let mut outs = Vec::with_capacity(ways as usize);
        for _ in 0..ways {
            outs.push(self.add_output(node, s.shape.clone(), s.kind.clone()));
        }
        Ok(outs)
    }

    /// Opens a feedback stream: a handle usable as an operator input
    /// *now*, whose producer is supplied later with
    /// [`GraphBuilder::fulfill_feedback`]. This is how cyclic dataflow —
    /// e.g. the availability signals of dynamic parallelization (Fig 16)
    /// — is expressed: downstream completion tokens feed back into an
    /// upstream selector merge.
    pub fn feedback(&mut self, shape: StreamShape, kind: ElemKind) -> (StreamRef, FeedbackKey) {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            op: OpKind::Fork { ways: 1 },
            inputs: Vec::new(),
            outputs: Vec::new(),
            label: "feedback".to_string(),
        });
        self.pending_feedback.push(id);
        let s = self.add_output(id, shape, kind);
        (s, FeedbackKey(id))
    }

    /// Connects the producer of a feedback stream opened with
    /// [`GraphBuilder::feedback`].
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Config`] if the key was already fulfilled or
    /// the stream is consumed, [`StepError::Shape`] on shape mismatch,
    /// and [`StepError::ElemType`] on element-kind mismatch.
    pub fn fulfill_feedback(&mut self, key: FeedbackKey, s: &StreamRef) -> Result<()> {
        let pos = self
            .pending_feedback
            .iter()
            .position(|&n| n == key.0)
            .ok_or_else(|| StepError::Config("feedback already fulfilled".into()))?;
        let node = key.0;
        let expected = &self.edges[self.nodes[node.0 as usize].outputs[0].0 as usize];
        if !shapes_compatible(&expected.shape, &s.shape) {
            return Err(StepError::Shape(format!(
                "feedback shape {} vs {}",
                expected.shape, s.shape
            )));
        }
        if !kinds_compatible(&expected.kind, &s.kind) {
            return Err(StepError::ElemType(format!(
                "feedback kind {:?} vs {:?}",
                expected.kind, s.kind
            )));
        }
        let e = &mut self.edges[s.edge.0 as usize];
        if e.dst.is_some() {
            return Err(StepError::Config(
                "feedback producer stream already consumed".into(),
            ));
        }
        e.dst = Some((node, 0));
        self.nodes[node.0 as usize].inputs.push(s.edge);
        self.pending_feedback.swap_remove(pos);
        Ok(())
    }

    /// Finalizes the graph, auto-terminating any unconnected streams with
    /// non-recording sinks. The graph keeps no spare capacity: its node and
    /// edge vectors, every node's port lists and every `Source`'s tokens
    /// are shrunk to fit, and the builder's intern sets are dropped.
    ///
    /// # Panics
    ///
    /// Panics if a feedback stream was opened but never fulfilled.
    pub fn finish(mut self) -> Graph {
        assert!(
            self.pending_feedback.is_empty(),
            "unfulfilled feedback streams: {:?}",
            self.pending_feedback
        );
        let dangling: Vec<EdgeId> = self
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.dst.is_none())
            .map(|(i, _)| EdgeId(i as u32))
            .collect();
        for edge in dangling {
            let id = NodeId(self.nodes.len() as u32);
            self.edges[edge.0 as usize].dst = Some((id, 0));
            self.nodes.push(Node {
                op: OpKind::Sink(SinkCfg { record: false }),
                inputs: vec![edge],
                outputs: Vec::new(),
                label: "auto-sink".to_string(),
            });
        }
        for node in &mut self.nodes {
            node.inputs.shrink_to_fit();
            node.outputs.shrink_to_fit();
            if let OpKind::Source(cfg) = &mut node.op {
                cfg.tokens.shrink_to_fit();
            }
        }
        self.nodes.shrink_to_fit();
        self.edges.shrink_to_fit();
        Graph {
            nodes: self.nodes,
            edges: self.edges,
        }
    }
}

/// An edge type on its way into `GraphBuilder::add_output`: a freshly
/// inferred value, interned there, or an input stream's `Arc`, which the
/// same builder interned already.
trait Interned<T> {
    fn intern(self, set: &mut HashSet<Arc<T>>) -> Arc<T>;
}

impl<T: Eq + Hash> Interned<T> for T {
    fn intern(self, set: &mut HashSet<Arc<T>>) -> Arc<T> {
        if let Some(shared) = set.get(&self) {
            return Arc::clone(shared);
        }
        let shared = Arc::new(self);
        set.insert(Arc::clone(&shared));
        shared
    }
}

impl<T> Interned<T> for Arc<T> {
    fn intern(self, _: &mut HashSet<Arc<T>>) -> Arc<T> {
        self
    }
}

/// Infers the output element kind of a `Map` function.
fn infer_map_kind(func: &MapFn, input: &ElemKind) -> Result<ElemKind> {
    let tuple2 = |input: &ElemKind| -> Result<(ElemKind, ElemKind)> {
        match input {
            ElemKind::Tuple(v) if v.len() == 2 => Ok((v[0].clone(), v[1].clone())),
            other => Err(StepError::ElemType(format!(
                "map function needs a 2-tuple stream, got {other:?}"
            ))),
        }
    };
    match func {
        MapFn::Matmul => {
            let (a, b) = tuple2(input)?;
            let (ar, ac) = a.as_tile_dims()?;
            let (br, bc) = b.as_tile_dims()?;
            if !dims_compatible(ac, br) {
                return Err(StepError::Shape(format!("matmul inner dims {ac} vs {br}")));
            }
            Ok(ElemKind::Tile {
                rows: ar.clone(),
                cols: bc.clone(),
            })
        }
        MapFn::MatmulBt => {
            let (a, b) = tuple2(input)?;
            let (ar, ac) = a.as_tile_dims()?;
            let (br, bc) = b.as_tile_dims()?;
            if !dims_compatible(ac, bc) {
                return Err(StepError::Shape(format!(
                    "matmul_bt inner dims {ac} vs {bc}"
                )));
            }
            Ok(ElemKind::Tile {
                rows: ar.clone(),
                cols: br.clone(),
            })
        }
        MapFn::Elementwise(_) => {
            input.as_tile_dims()?;
            Ok(input.clone())
        }
        MapFn::Binary(_) => {
            let (a, b) = tuple2(input)?;
            let (ar, ac) = a.as_tile_dims()?;
            let (br, bc) = b.as_tile_dims()?;
            if !dims_compatible(ar, br) || !dims_compatible(ac, bc) {
                return Err(StepError::Shape(
                    "binary map needs equal tile shapes".into(),
                ));
            }
            Ok(a.clone())
        }
        MapFn::RowReduce(_) => {
            let (rows, _) = input.as_tile_dims()?;
            Ok(ElemKind::Tile {
                rows: rows.clone(),
                cols: Dim::fixed(1),
            })
        }
    }
}

/// Infers the output element kind of an `Accum`.
fn infer_accum_kind(
    func: &AccumFn,
    input: &ElemKind,
    shape: &StreamShape,
    rank: u8,
    syms: &mut SymbolTable,
) -> Result<ElemKind> {
    let (rows, cols) = input.as_tile_dims()?;
    let (rows, cols) = (rows.clone(), cols.clone());
    let folded = shape.inner(rank as usize);
    let mut count = folded[0].clone();
    for d in &folded[1..] {
        count = count.multiply(d, syms);
    }
    match func {
        AccumFn::RetileRow => Ok(ElemKind::Tile {
            rows: rows.multiply(&count, syms),
            cols,
        }),
        AccumFn::RetileCol => Ok(ElemKind::Tile {
            rows,
            cols: cols.multiply(&count, syms),
        }),
        AccumFn::AddTiles => Ok(ElemKind::Tile { rows, cols }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elem::Selector;
    use crate::func::{BinOp, EwOp};

    fn tile_source(g: &mut GraphBuilder, n: u64, rows: u64, cols: u64) -> StreamRef {
        let tokens = token::rank0_from_values(
            (0..n).map(|_| Elem::Tile(crate::tile::Tile::phantom(rows as usize, cols as usize))),
        );
        g.source(tokens, StreamShape::fixed(&[n]), ElemKind::tile(rows, cols))
            .unwrap()
    }

    #[test]
    fn node_labelled_finds_exactly_one_node() {
        let mut g = GraphBuilder::new();
        let a = tile_source(&mut g, 2, 1, 1);
        g.label_last("in.a");
        for _ in 0..2 {
            tile_source(&mut g, 2, 1, 1);
            g.label_last("twin");
        }
        let a_id = g.node_of(&a);
        let graph = g.finish();
        assert_eq!(graph.node_labelled("in.a").unwrap(), a_id);
        assert!(matches!(
            graph.node_labelled("missing"),
            Err(StepError::Config(m)) if m.contains("no node labelled `missing`")
        ));
        assert!(matches!(
            graph.node_labelled("twin"),
            Err(StepError::Config(m)) if m.contains("more than one")
        ));
    }

    #[test]
    fn linear_load_shape_follows_fig2() {
        // Fig 2: 64x256 tensor, 64x64 tiles, ref shape [D1] -> out
        // [D1, 1, 4] of [64,64] tiles.
        let mut g = GraphBuilder::new();
        let d1 = g.symbols().fresh("D1");
        let r = g
            .source(
                token::rank0_from_values([Elem::Unit]),
                StreamShape::new(vec![Dim::dyn_regular(d1)]),
                ElemKind::Unit,
            )
            .unwrap();
        let out = g
            .linear_offchip_load(&r, LinearLoadCfg::new(0, (64, 256), (64, 64)))
            .unwrap();
        assert_eq!(out.shape().rank(), 2);
        assert_eq!(out.shape().dim_at_level(1), &Dim::fixed(1));
        assert_eq!(out.shape().dim_at_level(0), &Dim::fixed(4));
        assert_eq!(out.kind(), &ElemKind::tile(64, 64));
    }

    #[test]
    fn stream_cannot_be_consumed_twice() {
        let mut g = GraphBuilder::new();
        let s = tile_source(&mut g, 4, 16, 16);
        g.map(&s, MapFn::Elementwise(EwOp::Relu), 64).unwrap();
        let err = g.map(&s, MapFn::Elementwise(EwOp::Relu), 64);
        assert!(matches!(err, Err(StepError::Config(_))));
    }

    #[test]
    fn fork_enables_fanout() {
        let mut g = GraphBuilder::new();
        let s = tile_source(&mut g, 4, 16, 16);
        let outs = g.fork(&s, 2).unwrap();
        g.map(&outs[0], MapFn::Elementwise(EwOp::Relu), 64).unwrap();
        g.map(&outs[1], MapFn::Elementwise(EwOp::Silu), 64).unwrap();
        let graph = g.finish();
        // source + fork + 2 maps + 2 auto-sinks
        assert_eq!(graph.nodes().len(), 6);
    }

    #[test]
    fn bufferize_streamify_shapes_follow_fig3() {
        let mut g = GraphBuilder::new();
        let drag = g.symbols().fresh("Drag");
        let dreg = g.symbols().fresh("Dreg");
        // Input [2, Drag~, 2] of 16x16 tiles.
        let tokens = token::rank2_from_tensors(&[
            vec![vec![Elem::Tile(crate::tile::Tile::phantom(16, 16)); 2]; 1],
            vec![vec![Elem::Tile(crate::tile::Tile::phantom(16, 16)); 2]; 2],
        ]);
        let s = g
            .source(
                tokens,
                StreamShape::new(vec![Dim::fixed(2), Dim::ragged(drag), Dim::fixed(2)]),
                ElemKind::tile(16, 16),
            )
            .unwrap();
        let bufs = g.bufferize(&s, 2).unwrap();
        assert_eq!(bufs.shape(), &StreamShape::fixed(&[2]));
        assert!(matches!(bufs.kind(), ElemKind::Buffer { .. }));
        // Reference [2, Dreg] triggers Dreg reads per buffer.
        let r = g
            .source(
                token::rank1_from_groups(&[vec![Elem::Unit], vec![Elem::Unit]]),
                StreamShape::new(vec![Dim::fixed(2), Dim::dyn_regular(dreg)]),
                ElemKind::Unit,
            )
            .unwrap();
        let out = g.streamify(&bufs, &r, StreamifyCfg::default()).unwrap();
        // Out: [2, Dreg, Drag~, 2], rank 3.
        assert_eq!(out.shape().rank(), 3);
        assert!(out.shape().dim_at_level(1).is_ragged());
        assert_eq!(out.shape().dim_at_level(0), &Dim::fixed(2));
    }

    #[test]
    fn bufferize_rejects_inner_ragged() {
        let mut g = GraphBuilder::new();
        let drag = g.symbols().fresh("Drag");
        let s = g
            .source(
                vec![Token::Done],
                StreamShape::new(vec![Dim::fixed(2), Dim::fixed(2), Dim::ragged(drag)]),
                ElemKind::tile(16, 16),
            )
            .unwrap();
        assert!(matches!(g.bufferize(&s, 2), Err(StepError::Shape(_))));
    }

    #[test]
    fn partition_mints_dynamic_dims() {
        let mut g = GraphBuilder::new();
        let s = {
            // Rank-1: 10 rows of one [1,64] tile each.
            let groups: Vec<Vec<Elem>> = (0..10)
                .map(|_| vec![Elem::Tile(crate::tile::Tile::phantom(1, 64))])
                .collect();
            g.source(
                token::rank1_from_groups(&groups),
                StreamShape::fixed(&[10, 1]),
                ElemKind::tile(1, 64),
            )
            .unwrap()
        };
        let sel = g
            .selector_source((0..10).map(|i| Selector::one(i % 2)).collect(), 2)
            .unwrap();
        let outs = g.partition(&s, &sel, 1, 2).unwrap();
        assert_eq!(outs.len(), 2);
        for o in &outs {
            assert_eq!(o.shape().rank(), 1);
            assert!(o.shape().dim_at_level(1).is_dynamic());
            assert!(!o.shape().dim_at_level(1).is_ragged());
            assert_eq!(o.shape().dim_at_level(0), &Dim::fixed(1));
        }
    }

    #[test]
    fn partition_rank_and_selector_checks() {
        let mut g = GraphBuilder::new();
        let s = tile_source(&mut g, 4, 1, 64);
        let sel = g.selector_source(vec![Selector::one(0); 4], 2).unwrap();
        // rank 1 on a rank-0 stream is invalid
        assert!(g.partition(&s, &sel, 1, 2).is_err());
        // selector target count mismatch
        let s2 = tile_source(&mut g, 4, 1, 64);
        let sel3 = g.selector_source(vec![Selector::one(0); 4], 3).unwrap();
        assert!(g.partition(&s2, &sel3, 1, 2).is_err());
    }

    #[test]
    fn reassemble_shape_adds_dim() {
        let mut g = GraphBuilder::new();
        let groups: Vec<Vec<Elem>> = vec![vec![Elem::Tile(crate::tile::Tile::phantom(1, 64))]; 2];
        let a = g
            .source(
                token::rank1_from_groups(&groups),
                StreamShape::fixed(&[2, 1]),
                ElemKind::tile(1, 64),
            )
            .unwrap();
        let b = g
            .source(
                token::rank1_from_groups(&groups),
                StreamShape::fixed(&[2, 1]),
                ElemKind::tile(1, 64),
            )
            .unwrap();
        let sel = g
            .selector_source(vec![Selector::one(0), Selector::one(1)], 2)
            .unwrap();
        let out = g.reassemble(&[&a, &b], &sel, 1).unwrap();
        assert_eq!(out.shape().rank(), 2);
        assert_eq!(out.shape().dim_at_level(0), &Dim::fixed(1));
    }

    #[test]
    fn eager_merge_outputs_data_and_selector() {
        let mut g = GraphBuilder::new();
        let groups: Vec<Vec<Elem>> = vec![vec![Elem::Tile(crate::tile::Tile::phantom(1, 64))]; 2];
        let a = g
            .source(
                token::rank1_from_groups(&groups),
                StreamShape::fixed(&[2, 1]),
                ElemKind::tile(1, 64),
            )
            .unwrap();
        let b = g
            .source(
                token::rank1_from_groups(&groups),
                StreamShape::fixed(&[2, 1]),
                ElemKind::tile(1, 64),
            )
            .unwrap();
        let (data, sel) = g.eager_merge(&[&a, &b]).unwrap();
        assert_eq!(data.shape().rank(), 1);
        assert!(data.shape().dim_at_level(1).is_dynamic());
        assert_eq!(sel.shape().rank(), 0);
        assert!(matches!(sel.kind(), ElemKind::Selector { num_targets: 2 }));
    }

    #[test]
    fn map_matmul_kind_inference() {
        let mut g = GraphBuilder::new();
        let a = tile_source(&mut g, 2, 4, 64);
        let b = tile_source(&mut g, 2, 64, 256);
        let out = g.map2(&a, &b, MapFn::Matmul, 1024).unwrap();
        assert_eq!(out.kind(), &ElemKind::tile(4, 256));
    }

    #[test]
    fn map_matmul_rejects_bad_inner_dims() {
        let mut g = GraphBuilder::new();
        let a = tile_source(&mut g, 2, 4, 32);
        let b = tile_source(&mut g, 2, 64, 256);
        assert!(matches!(
            g.map2(&a, &b, MapFn::Matmul, 1024),
            Err(StepError::Shape(_))
        ));
    }

    #[test]
    fn map_binary_requires_equal_shapes() {
        let mut g = GraphBuilder::new();
        let a = tile_source(&mut g, 2, 4, 64);
        let b = tile_source(&mut g, 2, 4, 32);
        assert!(g.map2(&a, &b, MapFn::Binary(BinOp::Mul), 64).is_err());
    }

    #[test]
    fn accum_retile_row_grows_tile() {
        let mut g = GraphBuilder::new();
        let groups: Vec<Vec<Elem>> =
            vec![vec![Elem::Tile(crate::tile::Tile::phantom(1, 64)); 4]; 3];
        let s = g
            .source(
                token::rank1_from_groups(&groups),
                StreamShape::fixed(&[3, 4]),
                ElemKind::tile(1, 64),
            )
            .unwrap();
        let out = g.accum(&s, 1, AccumFn::RetileRow, 0).unwrap();
        assert_eq!(out.shape(), &StreamShape::fixed(&[3]));
        assert_eq!(out.kind(), &ElemKind::tile(4, 64));
    }

    #[test]
    fn flatten_reshape_pipeline_matches_moe_walkthrough() {
        // §3.3: [D_i, 1] --Flatten(0,1)--> [D_i'] --Reshape(4, pad)-->
        // [⌈D_i/4⌉, 4].
        let mut g = GraphBuilder::new();
        let di = g.symbols().fresh("Di");
        let s = g
            .source(
                vec![Token::Done],
                StreamShape::new(vec![Dim::dyn_regular(di), Dim::fixed(1)]),
                ElemKind::tile(1, 64),
            )
            .unwrap();
        let flat = g.flatten(&s, 0, 1).unwrap();
        assert_eq!(flat.shape().rank(), 0);
        let (data, padding) = g
            .reshape(&flat, 4, Some(Elem::Tile(crate::tile::Tile::zeros(1, 64))))
            .unwrap();
        assert_eq!(data.shape().rank(), 1);
        assert_eq!(data.shape().dim_at_level(0), &Dim::fixed(4));
        assert!(data.shape().dim_at_level(1).is_dynamic());
        assert!(matches!(padding.kind(), ElemKind::Bool));
    }

    #[test]
    fn reshape_requires_pad_for_indivisible() {
        let mut g = GraphBuilder::new();
        let s = tile_source(&mut g, 10, 1, 64);
        assert!(g.reshape(&s, 4, None).is_err());
        let s2 = tile_source(&mut g, 8, 1, 64);
        assert!(g.reshape(&s2, 4, None).is_ok());
    }

    #[test]
    fn reshape_rejects_inadmissible_pad() {
        let mut g = GraphBuilder::new();
        let s = tile_source(&mut g, 10, 1, 64);
        assert!(
            g.reshape(&s, 4, Some(Elem::Tile(crate::tile::Tile::zeros(2, 2))))
                .is_err()
        );
    }

    #[test]
    fn promote_prepends_unit_dim() {
        let mut g = GraphBuilder::new();
        let s = tile_source(&mut g, 4, 1, 64);
        let p = g.promote(&s).unwrap();
        assert_eq!(p.shape().dims()[0], Dim::fixed(1));
        assert_eq!(p.shape().rank(), 1);
    }

    #[test]
    fn expand_static_grows_innermost() {
        let mut g = GraphBuilder::new();
        let s = tile_source(&mut g, 4, 1, 64);
        let (data, _) = g.reshape(&s, 1, None).unwrap();
        let e = g.expand_static(&data, 4).unwrap();
        assert_eq!(e.shape().dim_at_level(0), &Dim::fixed(4));
    }

    #[test]
    fn zip_checks_shapes() {
        let mut g = GraphBuilder::new();
        let a = tile_source(&mut g, 4, 1, 64);
        let b = tile_source(&mut g, 5, 1, 64);
        assert!(matches!(g.zip(&a, &b), Err(StepError::Shape(_))));
    }

    #[test]
    fn finish_auto_sinks_dangling_streams() {
        let mut g = GraphBuilder::new();
        let _ = tile_source(&mut g, 4, 1, 64);
        let graph = g.finish();
        assert_eq!(graph.nodes().len(), 2);
        assert!(graph.edges().iter().all(|e| e.dst.is_some()));
    }

    #[test]
    fn allocated_compute_sums_bandwidth() {
        let mut g = GraphBuilder::new();
        let a = tile_source(&mut g, 2, 4, 64);
        let m = g.map(&a, MapFn::Elementwise(EwOp::Relu), 512).unwrap();
        let _ = g.accum(&m, 0, AccumFn::AddTiles, 256);
        let a2 = {
            let groups: Vec<Vec<Elem>> =
                vec![vec![Elem::Tile(crate::tile::Tile::phantom(4, 64))]; 2];
            g.source(
                token::rank1_from_groups(&groups),
                StreamShape::fixed(&[2, 1]),
                ElemKind::tile(4, 64),
            )
            .unwrap()
        };
        let _ = g.accum(&a2, 1, AccumFn::AddTiles, 256).unwrap();
        let graph = g.finish();
        assert_eq!(graph.allocated_compute(), 512 + 256);
    }

    #[test]
    fn fulfill_feedback_checks_the_element_kind() {
        let mut g = GraphBuilder::new();
        let (_, key) = g.feedback(
            StreamShape::fixed(&[4]),
            ElemKind::Selector { num_targets: 2 },
        );
        let units = g.unit_source(4);
        assert!(matches!(
            g.fulfill_feedback(key, &units),
            Err(StepError::ElemType(m)) if m.contains("feedback kind")
        ));
        let sel = g.selector_source(vec![Selector::one(0); 4], 2).unwrap();
        g.fulfill_feedback(key, &sel).unwrap();
    }

    #[test]
    fn finished_graphs_share_equal_edge_types_and_keep_no_spare_capacity() {
        let mut g = GraphBuilder::new();
        let s = tile_source(&mut g, 4, 16, 16);
        let outs = g.fork(&s, 2).unwrap();
        // Equal types share one allocation, whether passed through from an
        // input stream or inferred afresh; unequal ones do not.
        let twin = tile_source(&mut g, 4, 16, 16);
        let relu = g.map(&outs[0], MapFn::Elementwise(EwOp::Relu), 64).unwrap();
        let small = tile_source(&mut g, 5, 8, 8);
        for o in outs.iter().chain([&twin, &relu]) {
            assert!(Arc::ptr_eq(&o.shape, &s.shape));
            assert!(Arc::ptr_eq(&o.kind, &s.kind));
        }
        assert!(!Arc::ptr_eq(&small.shape, &s.shape));
        assert!(!Arc::ptr_eq(&small.kind, &s.kind));
        let graph = g.finish();
        let edge = graph.edge(outs[1].edge());
        assert!(Arc::ptr_eq(&edge.shape, &s.shape) && Arc::ptr_eq(&edge.kind, &s.kind));
        assert_eq!(graph.nodes.len(), graph.nodes.capacity());
        assert_eq!(graph.edges.len(), graph.edges.capacity());
        for n in &graph.nodes {
            assert_eq!(n.inputs.len(), n.inputs.capacity());
            assert_eq!(n.outputs.len(), n.outputs.capacity());
            if let OpKind::Source(cfg) = &n.op {
                assert_eq!(cfg.tokens.len(), cfg.tokens.capacity());
            }
        }
    }
}
