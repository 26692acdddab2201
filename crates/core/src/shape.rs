//! Stream shape semantics (§3.1).
//!
//! A rank-`N` stream has a shape `[D_N, ..., D_1, D_0]` with `N + 1`
//! entries: `D_N` counts the rank-`N` tensors in the stream and
//! `D_{N-1}..D_0` are the tensor dimensions. Each dimension is
//! *static-regular*, *dynamic-regular* (a data-dependent constant), or
//! *ragged* (varies across slices). Ragged dimensions *absorb*: any
//! arithmetic combining a ragged dimension yields a fresh ragged symbol
//! (flattening `[2, D0_ragged]` gives `[D0']`, not `[2*D0]`).

use crate::error::{Result, StepError};
use std::fmt;
use step_symbolic::{Env, Expr, Symbol, SymbolTable};

/// One dimension of a stream (or buffer/tile) shape.
///
/// # Examples
///
/// ```
/// use step_core::shape::Dim;
/// use step_symbolic::SymbolTable;
///
/// let mut syms = SymbolTable::new();
/// let d = Dim::dyn_regular(syms.fresh("D"));
/// assert!(d.is_dynamic());
/// assert!(!d.is_ragged());
/// assert_eq!(Dim::fixed(4).as_static(), Some(4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Dim {
    /// Compile-time constant size.
    Static(u64),
    /// Data-dependent but constant across slices, tracked by a symbol or
    /// an expression over symbols (e.g. `⌈D/4⌉`).
    DynRegular(Expr),
    /// Varies across slices. The expression names the symbol standing for
    /// the (set of) sizes; the absorbing rule applies in arithmetic.
    Ragged(Expr),
}

impl Dim {
    /// A static dimension of size `n`.
    pub fn fixed(n: u64) -> Dim {
        Dim::Static(n)
    }

    /// A dynamic-regular dimension named by `sym`.
    pub fn dyn_regular(sym: Symbol) -> Dim {
        Dim::DynRegular(Expr::Sym(sym))
    }

    /// A ragged dimension named by `sym`.
    pub fn ragged(sym: Symbol) -> Dim {
        Dim::Ragged(Expr::Sym(sym))
    }

    /// The symbolic size of this dimension.
    pub fn expr(&self) -> Expr {
        match self {
            Dim::Static(n) => Expr::Const(*n as i64),
            Dim::DynRegular(e) | Dim::Ragged(e) => e.clone(),
        }
    }

    /// Returns the size if static.
    pub fn as_static(&self) -> Option<u64> {
        match self {
            Dim::Static(n) => Some(*n),
            _ => None,
        }
    }

    /// Whether the dimension is data-dependent (dynamic-regular or ragged).
    pub fn is_dynamic(&self) -> bool {
        !matches!(self, Dim::Static(_))
    }

    /// Whether the dimension is ragged.
    pub fn is_ragged(&self) -> bool {
        matches!(self, Dim::Ragged(_))
    }

    /// Multiplies two dimensions, applying the ragged absorbing rule: if
    /// either side is ragged the product is a fresh ragged symbol minted
    /// from `syms` (§3.1).
    pub fn multiply(&self, other: &Dim, syms: &mut SymbolTable) -> Dim {
        match (self, other) {
            (Dim::Static(a), Dim::Static(b)) => Dim::Static(a * b),
            (a, b) if a.is_ragged() || b.is_ragged() => Dim::Ragged(Expr::Sym(syms.fresh("Drag"))),
            (a, b) => Dim::DynRegular((a.expr() * b.expr()).simplify()),
        }
    }

    /// `⌈self / chunk⌉`, preserving dynamism class. A ragged dimension
    /// stays ragged (fresh symbol); a dynamic-regular dimension becomes a
    /// `ceil` expression; a static dimension folds.
    pub fn ceil_div(&self, chunk: u64, syms: &mut SymbolTable) -> Dim {
        match self {
            Dim::Static(n) => Dim::Static(n.div_ceil(chunk)),
            Dim::DynRegular(e) => Dim::DynRegular(e.clone().ceil_div(chunk as i64)),
            Dim::Ragged(_) => Dim::Ragged(Expr::Sym(syms.fresh("Drag"))),
        }
    }

    /// Evaluates the dimension size under `env`.
    ///
    /// # Errors
    ///
    /// Propagates [`step_symbolic::EvalError`] as a [`StepError::Exec`] if
    /// a symbol is unbound.
    pub fn eval(&self, env: &Env) -> Result<u64> {
        let v = self
            .expr()
            .eval(env)
            .map_err(|e| StepError::Exec(e.to_string()))?;
        u64::try_from(v).map_err(|_| StepError::Exec(format!("negative dimension {v}")))
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dim::Static(n) => write!(f, "{n}"),
            Dim::DynRegular(e) => write!(f, "{e}"),
            Dim::Ragged(e) => write!(f, "{e}~"),
        }
    }
}

impl From<u64> for Dim {
    fn from(n: u64) -> Dim {
        Dim::Static(n)
    }
}

impl From<usize> for Dim {
    fn from(n: usize) -> Dim {
        Dim::Static(n as u64)
    }
}

/// The shape of a stream: `[D_N, ..., D_0]`, outermost first.
///
/// A rank-`N` stream has `N + 1` dimensions (rank = number of stop-token
/// levels). Construct with [`StreamShape::new`] and query with
/// [`StreamShape::rank`] / [`StreamShape::dims`].
///
/// # Examples
///
/// ```
/// use step_core::shape::{Dim, StreamShape};
/// let s = StreamShape::new(vec![Dim::fixed(2), Dim::fixed(2), Dim::fixed(3)]);
/// assert_eq!(s.rank(), 2);
/// assert_eq!(s.dims().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StreamShape {
    dims: Vec<Dim>,
}

impl StreamShape {
    /// Creates a shape from dims listed outermost-first.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty — every stream has at least the outermost
    /// tensor-count dimension.
    pub fn new(dims: Vec<Dim>) -> StreamShape {
        assert!(!dims.is_empty(), "stream shape needs at least one dim");
        StreamShape { dims }
    }

    /// A shape with all-static dims, outermost first.
    pub fn fixed(sizes: &[u64]) -> StreamShape {
        StreamShape::new(sizes.iter().map(|&n| Dim::Static(n)).collect())
    }

    /// The stream rank: number of stop-token levels, `dims.len() - 1`.
    pub fn rank(&self) -> u8 {
        (self.dims.len() - 1) as u8
    }

    /// Dimensions, outermost first.
    pub fn dims(&self) -> &[Dim] {
        &self.dims
    }

    /// The dimension at stop-level `level` (level 0 = innermost).
    ///
    /// # Panics
    ///
    /// Panics if `level > rank`.
    pub fn dim_at_level(&self, level: u8) -> &Dim {
        let idx = self.dims.len() - 1 - level as usize;
        &self.dims[idx]
    }

    /// Replaces the dimension at stop-level `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level > rank`.
    pub fn with_dim_at_level(&self, level: u8, dim: Dim) -> StreamShape {
        let mut dims = self.dims.clone();
        let idx = dims.len() - 1 - level as usize;
        dims[idx] = dim;
        StreamShape { dims }
    }

    /// The `n` outermost dims.
    pub fn outer(&self, n: usize) -> &[Dim] {
        &self.dims[..n]
    }

    /// The `n` innermost dims.
    pub fn inner(&self, n: usize) -> &[Dim] {
        &self.dims[self.dims.len() - n..]
    }

    /// Appends `extra` as new innermost dims (used by operators that add
    /// dimensions, e.g. loads triggered by a reference stream).
    pub fn append_inner(&self, extra: &[Dim]) -> StreamShape {
        let mut dims = self.dims.clone();
        dims.extend_from_slice(extra);
        StreamShape { dims }
    }

    /// Drops the `n` innermost dims (e.g. `Bufferize` with rank `n`).
    ///
    /// # Panics
    ///
    /// Panics if `n >= dims.len()`.
    pub fn drop_inner(&self, n: usize) -> StreamShape {
        assert!(n < self.dims.len(), "cannot drop all dims");
        StreamShape {
            dims: self.dims[..self.dims.len() - n].to_vec(),
        }
    }

    /// Symbolic cardinality `||S||`: the product of all dimension sizes
    /// (§4.2). Ragged dims contribute their symbol (interpreted as the
    /// *total* across slices when measured).
    pub fn cardinality(&self) -> Expr {
        Expr::product_of(self.dims.iter().map(Dim::expr))
    }

    /// Flattens the dimensions between stop-levels `min..=max` into one
    /// dimension at level `min`, applying the ragged absorbing rule.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Shape`] if `min >= max` or `max > rank`.
    pub fn flatten(&self, min: u8, max: u8, syms: &mut SymbolTable) -> Result<StreamShape> {
        if min >= max {
            return Err(StepError::Shape(format!(
                "flatten needs min < max, got {min}..{max}"
            )));
        }
        if max > self.rank() {
            return Err(StepError::Shape(format!(
                "flatten level {max} exceeds rank {}",
                self.rank()
            )));
        }
        let lo = self.dims.len() - 1 - max as usize;
        let hi = self.dims.len() - 1 - min as usize;
        let mut merged = self.dims[lo].clone();
        for d in &self.dims[lo + 1..=hi] {
            merged = merged.multiply(d, syms);
        }
        let mut dims = Vec::with_capacity(self.dims.len() - (max - min) as usize);
        dims.extend_from_slice(&self.dims[..lo]);
        dims.push(merged);
        dims.extend_from_slice(&self.dims[hi + 1..]);
        Ok(StreamShape { dims })
    }
}

impl fmt::Display for StreamShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{d}")?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_and_levels() {
        let s = StreamShape::fixed(&[2, 3, 4]);
        assert_eq!(s.rank(), 2);
        assert_eq!(s.dim_at_level(0), &Dim::fixed(4));
        assert_eq!(s.dim_at_level(2), &Dim::fixed(2));
    }

    #[test]
    fn cardinality_static() {
        let s = StreamShape::fixed(&[2, 3, 4]);
        assert_eq!(s.cardinality(), Expr::Const(24));
    }

    #[test]
    fn flatten_static() {
        let mut syms = SymbolTable::new();
        let s = StreamShape::fixed(&[2, 3, 4]);
        let f = s.flatten(0, 1, &mut syms).unwrap();
        assert_eq!(f, StreamShape::fixed(&[2, 12]));
    }

    #[test]
    fn flatten_ragged_absorbs() {
        // Example (1) in the paper: flattening [2, 2, D0~] yields [2, D0'~]
        // with a fresh ragged symbol, not [2, 2*D0].
        let mut syms = SymbolTable::new();
        let d0 = syms.fresh("D0");
        let s = StreamShape::new(vec![Dim::fixed(2), Dim::fixed(2), Dim::ragged(d0)]);
        let f = s.flatten(0, 1, &mut syms).unwrap();
        assert_eq!(f.rank(), 1);
        assert!(f.dim_at_level(0).is_ragged());
        assert_ne!(f.dim_at_level(0), s.dim_at_level(0));
    }

    #[test]
    fn flatten_dynamic_regular_multiplies() {
        let mut syms = SymbolTable::new();
        let d = syms.fresh("D");
        let s = StreamShape::new(vec![
            Dim::fixed(2),
            Dim::dyn_regular(d.clone()),
            Dim::fixed(4),
        ]);
        let f = s.flatten(0, 1, &mut syms).unwrap();
        let mut env = Env::new();
        env.bind(&d, 5);
        assert_eq!(f.dim_at_level(0).eval(&env).unwrap(), 20);
    }

    #[test]
    fn flatten_bad_range_errors() {
        let mut syms = SymbolTable::new();
        let s = StreamShape::fixed(&[2, 3]);
        assert!(s.flatten(1, 1, &mut syms).is_err());
        assert!(s.flatten(0, 2, &mut syms).is_err());
    }

    #[test]
    fn ceil_div_classes() {
        let mut syms = SymbolTable::new();
        assert_eq!(Dim::fixed(10).ceil_div(4, &mut syms), Dim::fixed(3));
        let d = syms.fresh("D");
        let dr = Dim::dyn_regular(d.clone()).ceil_div(4, &mut syms);
        let mut env = Env::new();
        env.bind(&d, 10);
        assert_eq!(dr.eval(&env).unwrap(), 3);
        assert!(!dr.is_ragged());
        let rg = Dim::ragged(syms.fresh("R")).ceil_div(4, &mut syms);
        assert!(rg.is_ragged());
    }

    #[test]
    fn append_and_drop_inner() {
        let s = StreamShape::fixed(&[2]);
        let s2 = s.append_inner(&[Dim::fixed(1), Dim::fixed(4)]);
        assert_eq!(s2, StreamShape::fixed(&[2, 1, 4]));
        assert_eq!(s2.drop_inner(2), s);
    }

    #[test]
    fn with_dim_at_level_replaces() {
        let mut syms = SymbolTable::new();
        let s = StreamShape::fixed(&[10, 1]);
        let d = syms.fresh("Di");
        let s2 = s.with_dim_at_level(1, Dim::ragged(d));
        assert_eq!(s2.dim_at_level(0), &Dim::fixed(1));
        assert!(s2.dim_at_level(1).is_ragged());
    }

    #[test]
    fn display_marks_ragged() {
        let mut syms = SymbolTable::new();
        let s = StreamShape::new(vec![Dim::fixed(2), Dim::ragged(syms.fresh("D"))]);
        let txt = s.to_string();
        assert!(txt.starts_with("[2, D#"));
        assert!(txt.ends_with("~]"));
    }
}
