//! The compiled executor: a closed enum over every operator node.
//!
//! Freezing a plan lowers each operator into a [`CompiledNode`] variant
//! whose I/O harness carries shard-local dense channel indices, so the
//! engine's inner fire loop dispatches with one `match` (a jump table)
//! instead of a vtable call per fire, and a pooled rerun restores every
//! node in place via [`CompiledNode::reset`] without reallocating. It is
//! the engine's only executor.

use super::{Blocked, Ctx, Io, SimNode};
use crate::stats::NodeStats;
use step_core::error::Result;
use step_core::ops::OpKind;
use step_core::token::Token;

/// Generates [`CompiledNode`] and its dispatch surface from the variant
/// list. Each method is one exhaustive `match` delegating to the inner
/// node's inherent or [`SimNode`] implementation — the whole operator set
/// is visible to the optimizer at every call site.
macro_rules! compiled {
    ($($variant:ident($ty:ty)),+ $(,)?) => {
        /// A lowered operator executor: static dispatch, shard-local
        /// channel addressing, in-place reset for pooled reruns.
        #[derive(Clone)]
        pub enum CompiledNode {
            $(
                #[doc = concat!("The lowered `", stringify!($variant), "` operator.")]
                $variant($ty),
            )+
        }

        impl CompiledNode {
            /// The embedded I/O harness (freeze-time edge remapping).
            pub(crate) fn io_mut(&mut self) -> &mut Io {
                match self {
                    $(CompiledNode::$variant(n) => n.io_mut(),)+
                }
            }

            /// Restores the just-built state in place, keeping every
            /// allocation (pooled run reset).
            pub(crate) fn reset(&mut self) {
                match self {
                    $(CompiledNode::$variant(n) => n.reset(),)+
                }
            }

            /// The compiled kind this executor dispatches as.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(CompiledNode::$variant(_) => stringify!($variant),)+
                }
            }
        }

        impl SimNode for CompiledNode {
            fn fire(&mut self, ctx: &mut Ctx<'_>) -> Result<bool> {
                match self {
                    $(CompiledNode::$variant(n) => SimNode::fire(n, ctx),)+
                }
            }

            fn done(&self) -> bool {
                match self {
                    $(CompiledNode::$variant(n) => SimNode::done(n),)+
                }
            }

            fn stats(&self) -> &NodeStats {
                match self {
                    $(CompiledNode::$variant(n) => SimNode::stats(n),)+
                }
            }

            fn local_time(&self) -> u64 {
                match self {
                    $(CompiledNode::$variant(n) => SimNode::local_time(n),)+
                }
            }

            fn blocked_on(&self) -> Option<Blocked> {
                match self {
                    $(CompiledNode::$variant(n) => SimNode::blocked_on(n),)+
                }
            }

            fn recorded(&self) -> Option<&[Token]> {
                match self {
                    $(CompiledNode::$variant(n) => SimNode::recorded(n),)+
                }
            }
        }
    };
}

compiled! {
    Source(super::basic::SourceNode),
    Sink(super::basic::SinkNode),
    Fork(super::basic::ForkNode),
    Zip(super::basic::ZipNode),
    Flatten(super::basic::FlattenNode),
    Promote(super::basic::PromoteNode),
    ExpandStatic(super::basic::ExpandStaticNode),
    Expand(super::basic::ExpandNode),
    Reshape(super::basic::ReshapeNode),
    LinearLoad(super::offchip::LinearLoadNode),
    LinearStore(super::offchip::LinearStoreNode),
    RandomLoad(super::offchip::RandomLoadNode),
    RandomStore(super::offchip::RandomStoreNode),
    Bufferize(super::onchip::BufferizeNode),
    Streamify(super::onchip::StreamifyNode),
    Partition(super::routing_partition::PartitionNode),
    Reassemble(super::routing::ReassembleNode),
    EagerMerge(super::routing::EagerMergeNode),
    Map(super::compute::MapNode),
    Accum(super::compute::AccumNode),
    Scan(super::compute::ScanNode),
    FlatMap(super::compute::FlatMapNode),
    AddrGen(super::compute::AddrGenNode),
}

impl CompiledNode {
    /// Overrides a `Source` executor's played stream for this run.
    ///
    /// # Panics
    ///
    /// Panics if the executor is not a `Source`; the engine validates
    /// binding targets against the graph before lowering.
    pub(crate) fn bind_source(&mut self, tokens: Vec<Token>) {
        match self {
            CompiledNode::Source(n) => n.bind(tokens),
            other => unreachable!("binding target {} is not a Source", other.kind()),
        }
    }
}

/// The [`CompiledNode::kind`] an operator lowers to — the `dispatch`
/// attribution key reported by profiling tools.
pub fn compiled_kind(op: &OpKind) -> &'static str {
    match op {
        OpKind::Source(_) => "Source",
        OpKind::Sink(_) => "Sink",
        OpKind::Fork { .. } => "Fork",
        OpKind::Zip => "Zip",
        OpKind::Flatten { .. } => "Flatten",
        OpKind::Promote => "Promote",
        OpKind::ExpandStatic { .. } => "ExpandStatic",
        OpKind::Expand { .. } => "Expand",
        OpKind::Reshape { .. } => "Reshape",
        OpKind::LinearLoad(_) => "LinearLoad",
        OpKind::LinearStore { .. } => "LinearStore",
        OpKind::RandomLoad(_) => "RandomLoad",
        OpKind::RandomStore(_) => "RandomStore",
        OpKind::Bufferize { .. } => "Bufferize",
        OpKind::Streamify(_) => "Streamify",
        OpKind::Partition { .. } => "Partition",
        OpKind::Reassemble { .. } => "Reassemble",
        OpKind::EagerMerge { .. } => "EagerMerge",
        OpKind::Map { .. } => "Map",
        OpKind::Accum { .. } => "Accum",
        OpKind::Scan { .. } => "Scan",
        OpKind::FlatMap { .. } => "FlatMap",
        OpKind::AddrGen { .. } => "AddrGen",
    }
}
