//! Stream data types (§3.1).
//!
//! The data type of a STeP stream is a tile, a selector (multi-hot vector
//! driving routing/merging operators), a read-only reference to on-chip
//! memory, a scalar address, a boolean (padding flags), or a tuple of
//! these. [`Elem`] is the runtime value; [`ElemKind`] is the static
//! descriptor used by the graph builder for type checking and by the
//! symbolic metric equations for byte sizes.

use crate::DTYPE_BYTES;
use crate::error::{Result, StepError};
use crate::shape::{Dim, StreamShape};
use crate::tile::Tile;
use std::fmt;
use std::sync::Arc;
use step_symbolic::Expr;

/// A multi-hot selector choosing one or more targets (§3.2.3).
///
/// The targets are shared, so cloning a selector (as every stream that
/// replays one does) never allocates. `Debug`, `Hash` and equality see
/// the target list exactly as a `Vec<u32>` would.
///
/// # Examples
///
/// ```
/// use step_core::elem::Selector;
/// let s = Selector::multi(&[0, 7]);
/// assert!(s.contains(7));
/// assert_eq!(s.targets(), &[0, 7]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Selector {
    targets: Arc<[u32]>,
}

impl Selector {
    /// A one-hot selector.
    pub fn one(target: u32) -> Selector {
        Selector {
            targets: Arc::new([target]),
        }
    }

    /// A multi-hot selector; duplicate targets are collapsed and order is
    /// normalized ascending.
    pub fn multi(targets: &[u32]) -> Selector {
        let mut t = targets.to_vec();
        t.sort_unstable();
        t.dedup();
        Selector { targets: t.into() }
    }

    /// Selected target indices, ascending.
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// Whether `target` is selected.
    pub fn contains(&self, target: u32) -> bool {
        self.targets.binary_search(&target).is_ok()
    }

    /// Number of selected targets.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether no target is selected.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }
}

impl fmt::Display for Selector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sel{:?}", self.targets)
    }
}

/// A read-only reference to an on-chip buffer produced by `Bufferize`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BufRef {
    /// Identifier into the simulator's on-chip buffer arena.
    pub id: u64,
    /// Number of tiles stored, per buffered dimension (innermost last).
    pub dims: Vec<u64>,
}

impl fmt::Display for BufRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "buf#{}{:?}", self.id, self.dims)
    }
}

/// A runtime stream element.
#[derive(Debug, Clone, PartialEq)]
pub enum Elem {
    /// A two-dimensional tile.
    Tile(Tile),
    /// A multi-hot routing selector.
    Sel(Selector),
    /// A reference to on-chip memory.
    Buf(BufRef),
    /// A scalar address (for random off-chip access).
    Addr(u64),
    /// A boolean (padding streams).
    Bool(bool),
    /// A unit/trigger value whose contents do not matter (reference
    /// streams of load operators).
    Unit,
    /// A tuple of elements (from `Zip`).
    Tuple(Vec<Elem>),
}

impl Elem {
    /// The element's size in bytes under the modeled datatype widths.
    pub fn bytes(&self) -> u64 {
        match self {
            Elem::Tile(t) => t.bytes(),
            Elem::Sel(_) => 8,
            Elem::Buf(_) => 8,
            Elem::Addr(_) => 8,
            Elem::Bool(_) => 1,
            Elem::Unit => 0,
            Elem::Tuple(v) => v.iter().map(Elem::bytes).sum(),
        }
    }

    /// Unwraps a tile.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::ElemType`] if the element is not a tile.
    pub fn as_tile(&self) -> Result<&Tile> {
        match self {
            Elem::Tile(t) => Ok(t),
            other => Err(StepError::ElemType(format!("expected tile, got {other}"))),
        }
    }

    /// Unwraps a selector.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::ElemType`] if the element is not a selector.
    pub fn as_sel(&self) -> Result<&Selector> {
        match self {
            Elem::Sel(s) => Ok(s),
            other => Err(StepError::ElemType(format!(
                "expected selector, got {other}"
            ))),
        }
    }

    /// Unwraps a buffer reference.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::ElemType`] if the element is not a buffer ref.
    pub fn as_buf(&self) -> Result<&BufRef> {
        match self {
            Elem::Buf(b) => Ok(b),
            other => Err(StepError::ElemType(format!(
                "expected buffer ref, got {other}"
            ))),
        }
    }

    /// Unwraps an address.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::ElemType`] if the element is not an address.
    pub fn as_addr(&self) -> Result<u64> {
        match self {
            Elem::Addr(a) => Ok(*a),
            other => Err(StepError::ElemType(format!(
                "expected address, got {other}"
            ))),
        }
    }

    /// O(1)-per-level conservative equality for run coalescing: `true`
    /// only when the two elements are provably interchangeable (tiles
    /// defer to [`Tile::coalesces_with`] — same shape and phantom or
    /// payload-aliased; everything else compares by value, which is
    /// cheap for the scalar variants). False negatives are allowed and
    /// merely prevent coalescing; false positives would corrupt streams
    /// and are never produced.
    pub fn coalesces_with(&self, other: &Elem) -> bool {
        match (self, other) {
            (Elem::Tile(a), Elem::Tile(b)) => a.coalesces_with(b),
            (Elem::Sel(a), Elem::Sel(b)) => a == b,
            (Elem::Buf(a), Elem::Buf(b)) => a == b,
            (Elem::Addr(a), Elem::Addr(b)) => a == b,
            (Elem::Bool(a), Elem::Bool(b)) => a == b,
            (Elem::Unit, Elem::Unit) => true,
            (Elem::Tuple(a), Elem::Tuple(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.coalesces_with(y))
            }
            _ => false,
        }
    }

    /// Unwraps a tuple.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::ElemType`] if the element is not a tuple.
    pub fn as_tuple(&self) -> Result<&[Elem]> {
        match self {
            Elem::Tuple(v) => Ok(v),
            other => Err(StepError::ElemType(format!("expected tuple, got {other}"))),
        }
    }
}

impl fmt::Display for Elem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Elem::Tile(t) => write!(f, "{t}"),
            Elem::Sel(s) => write!(f, "{s}"),
            Elem::Buf(b) => write!(f, "{b}"),
            Elem::Addr(a) => write!(f, "addr:{a:#x}"),
            Elem::Bool(b) => write!(f, "{b}"),
            Elem::Unit => write!(f, "unit"),
            Elem::Tuple(v) => {
                f.write_str("(")?;
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str(")")
            }
        }
    }
}

/// Static descriptor of a stream's element type, with (possibly symbolic)
/// tile shapes. Used for build-time type checking and metric equations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ElemKind {
    /// Tiles of `rows x cols` elements; dims may be dynamic (dynamic
    /// tiling).
    Tile {
        /// Tile row count.
        rows: Dim,
        /// Tile column count.
        cols: Dim,
    },
    /// Multi-hot selectors over `num_targets` targets.
    Selector {
        /// Number of selectable targets.
        num_targets: u32,
    },
    /// References to on-chip buffers holding tiles of the `inner` kind
    /// arranged per `shape` (innermost dims of the bufferized stream).
    Buffer {
        /// Element kind stored in the buffer.
        inner: Box<ElemKind>,
        /// Buffered dimensions (outermost first).
        shape: Vec<Dim>,
    },
    /// Scalar addresses.
    Addr,
    /// Booleans.
    Bool,
    /// Trigger/reference values with no content.
    Unit,
    /// Tuples.
    Tuple(Vec<ElemKind>),
}

impl ElemKind {
    /// Tile kind with static shape.
    pub fn tile(rows: u64, cols: u64) -> ElemKind {
        ElemKind::Tile {
            rows: Dim::fixed(rows),
            cols: Dim::fixed(cols),
        }
    }

    /// Symbolic size in bytes of one element of this kind (`|dtype|` in the
    /// metric equations of §4.2).
    pub fn bytes(&self) -> Expr {
        match self {
            ElemKind::Tile { rows, cols } => rows.expr() * cols.expr() * Expr::from(DTYPE_BYTES),
            ElemKind::Selector { .. } => Expr::from(8u64),
            ElemKind::Buffer { .. } => Expr::from(8u64),
            ElemKind::Addr => Expr::from(8u64),
            ElemKind::Bool => Expr::from(1u64),
            ElemKind::Unit => Expr::from(0u64),
            ElemKind::Tuple(v) => Expr::sum_of(v.iter().map(ElemKind::bytes)),
        }
    }

    /// For buffer kinds: total bytes held by one buffer
    /// (`||buffer|| * |input dtype|`).
    pub fn buffer_bytes(&self) -> Expr {
        match self {
            ElemKind::Buffer { inner, shape } => {
                let card = Expr::product_of(shape.iter().map(Dim::expr));
                card * inner.bytes()
            }
            _ => Expr::from(0u64),
        }
    }

    /// Unwraps tile dims.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::ElemType`] if not a tile kind.
    pub fn as_tile_dims(&self) -> Result<(&Dim, &Dim)> {
        match self {
            ElemKind::Tile { rows, cols } => Ok((rows, cols)),
            other => Err(StepError::ElemType(format!(
                "expected tile kind, got {other:?}"
            ))),
        }
    }

    /// Checks that a runtime element is admissible for this kind (static
    /// dims must match exactly; dynamic dims admit any size).
    pub fn admits(&self, elem: &Elem) -> bool {
        match (self, elem) {
            (ElemKind::Tile { rows, cols }, Elem::Tile(t)) => {
                let row_ok = rows.as_static().is_none_or(|r| r == t.rows() as u64);
                let col_ok = cols.as_static().is_none_or(|c| c == t.cols() as u64);
                row_ok && col_ok
            }
            (ElemKind::Selector { num_targets }, Elem::Sel(s)) => {
                s.targets().iter().all(|t| t < num_targets)
            }
            (ElemKind::Buffer { .. }, Elem::Buf(_)) => true,
            (ElemKind::Addr, Elem::Addr(_)) => true,
            (ElemKind::Bool, Elem::Bool(_)) => true,
            (ElemKind::Unit, _) => true,
            (ElemKind::Tuple(ks), Elem::Tuple(es)) => {
                ks.len() == es.len() && ks.iter().zip(es).all(|(k, e)| k.admits(e))
            }
            _ => false,
        }
    }
}

/// Helper building the buffer kind produced by `Bufferize` over the `b`
/// innermost dims of a stream with `shape` and element kind `inner`.
pub fn buffer_kind(inner: &ElemKind, shape: &StreamShape, b: u8) -> ElemKind {
    ElemKind::Buffer {
        inner: Box::new(inner.clone()),
        shape: shape.inner(b as usize).to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use step_symbolic::SymbolTable;

    #[test]
    fn selector_normalizes() {
        let s = Selector::multi(&[7, 0, 7]);
        assert_eq!(s.targets(), &[0, 7]);
        assert_eq!(s.len(), 2);
        assert!(s.contains(0));
        assert!(!s.contains(3));
    }

    #[test]
    fn selector_debug_and_hash_match_a_target_vec() {
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        // Plan and binding keys fold selectors through `Debug` and
        // `Hash`: both must read exactly as they did over a `Vec<u32>`.
        let s = Selector::multi(&[7, 0]);
        assert_eq!(format!("{s:?}"), "Selector { targets: [0, 7] }");
        assert_eq!(s.to_string(), "sel[0, 7]");
        let hasher = BuildHasherDefault::<DefaultHasher>::default();
        assert_eq!(hasher.hash_one(&s), hasher.hash_one(vec![0u32, 7]));
        assert_eq!(s.clone(), Selector::multi(&[0, 7]));
    }

    #[test]
    fn elem_bytes() {
        assert_eq!(Elem::Tile(Tile::zeros(4, 64)).bytes(), 512);
        assert_eq!(Elem::Bool(true).bytes(), 1);
        assert_eq!(Elem::Unit.bytes(), 0);
        let t = Elem::Tuple(vec![Elem::Addr(0), Elem::Bool(false)]);
        assert_eq!(t.bytes(), 9);
    }

    #[test]
    fn elem_kind_bytes_symbolic() {
        let mut syms = SymbolTable::new();
        let d = syms.fresh("D");
        let k = ElemKind::Tile {
            rows: Dim::dyn_regular(d.clone()),
            cols: Dim::fixed(64),
        };
        let mut env = step_symbolic::Env::new();
        env.bind(&d, 4);
        assert_eq!(k.bytes().eval(&env).unwrap(), 4 * 64 * 2);
    }

    #[test]
    fn buffer_kind_bytes() {
        let inner = ElemKind::tile(16, 16);
        let shape = StreamShape::fixed(&[2, 3, 4]);
        let k = buffer_kind(&inner, &shape, 2);
        // buffer shape [3,4], 12 tiles of 512 bytes
        assert_eq!(k.buffer_bytes().as_const(), Some(12 * 512));
        assert_eq!(k.bytes().as_const(), Some(8));
    }

    #[test]
    fn admits_checks_static_dims() {
        let k = ElemKind::tile(4, 64);
        assert!(k.admits(&Elem::Tile(Tile::zeros(4, 64))));
        assert!(!k.admits(&Elem::Tile(Tile::zeros(3, 64))));
        let mut syms = SymbolTable::new();
        let dk = ElemKind::Tile {
            rows: Dim::ragged(syms.fresh("R")),
            cols: Dim::fixed(64),
        };
        assert!(dk.admits(&Elem::Tile(Tile::zeros(3, 64))));
        assert!(!dk.admits(&Elem::Tile(Tile::zeros(3, 65))));
    }

    #[test]
    fn admits_selector_range() {
        let k = ElemKind::Selector { num_targets: 8 };
        assert!(k.admits(&Elem::Sel(Selector::multi(&[0, 7]))));
        assert!(!k.admits(&Elem::Sel(Selector::one(8))));
    }

    #[test]
    fn unwrap_helpers_error_on_wrong_variant() {
        assert!(Elem::Bool(true).as_tile().is_err());
        assert!(Elem::Unit.as_sel().is_err());
        assert!(Elem::Addr(4).as_addr().unwrap() == 4);
        assert!(Elem::Tuple(vec![]).as_tuple().unwrap().is_empty());
    }
}
