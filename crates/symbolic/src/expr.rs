//! The symbolic expression language.

use crate::env::Env;
use crate::symbol::Symbol;
use std::collections::BTreeSet;
use std::fmt;
use std::ops;

/// Error produced when evaluating an expression that still contains unbound
/// symbols, or whose arithmetic is undefined (division by zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A symbol had no binding in the environment.
    UnboundSymbol(Symbol),
    /// A `ceil_div`/`floor_div` divisor evaluated to zero.
    DivisionByZero,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundSymbol(s) => write!(f, "unbound symbol `{s}`"),
            EvalError::DivisionByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A symbolic integer expression.
///
/// Expressions are built from constants, [`Symbol`]s, and the operations
/// that arise in STeP shape semantics and metric equations: sums, products,
/// ceiling/floor division, and max/min. `+` and `*` operators are
/// overloaded; use [`Expr::ceil_div`], [`Expr::max_of`], etc. for the rest.
///
/// Expressions are kept in a lightly-canonicalized form by [`Expr::simplify`]
/// (constant folding, flattening, identity elimination); simplification
/// never changes the value of [`Expr::eval`] under any environment — a
/// property-tested invariant.
///
/// # Examples
///
/// ```
/// use step_symbolic::{Expr, SymbolTable, Env};
/// let mut t = SymbolTable::new();
/// let d = t.fresh("D");
/// let e = (Expr::from(d.clone()) + Expr::from(0)) * Expr::from(1);
/// assert_eq!(e.simplify(), Expr::from(d));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Expr {
    /// An integer constant.
    Const(i64),
    /// A symbolic variable.
    Sym(Symbol),
    /// A sum of subexpressions.
    Add(Vec<Expr>),
    /// A product of subexpressions.
    Mul(Vec<Expr>),
    /// `⌈lhs / rhs⌉`.
    CeilDiv(Box<Expr>, Box<Expr>),
    /// `⌊lhs / rhs⌋`.
    FloorDiv(Box<Expr>, Box<Expr>),
    /// Maximum of subexpressions.
    Max(Vec<Expr>),
    /// Minimum of subexpressions.
    Min(Vec<Expr>),
}

impl Expr {
    /// The constant zero.
    pub fn zero() -> Expr {
        Expr::Const(0)
    }

    /// The constant one.
    pub fn one() -> Expr {
        Expr::Const(1)
    }

    /// `⌈self / divisor⌉`, the pervasive tiling expression `⌈D/T⌉`.
    pub fn ceil_div(self, divisor: impl Into<Expr>) -> Expr {
        Expr::CeilDiv(Box::new(self), Box::new(divisor.into())).simplify()
    }

    /// `⌊self / divisor⌋`.
    pub fn floor_div(self, divisor: impl Into<Expr>) -> Expr {
        Expr::FloorDiv(Box::new(self), Box::new(divisor.into())).simplify()
    }

    /// Maximum over `items`. Returns `0` for an empty iterator.
    pub fn max_of(items: impl IntoIterator<Item = Expr>) -> Expr {
        let v: Vec<Expr> = items.into_iter().collect();
        if v.is_empty() {
            Expr::zero()
        } else {
            Expr::Max(v).simplify()
        }
    }

    /// Minimum over `items`. Returns `0` for an empty iterator.
    pub fn min_of(items: impl IntoIterator<Item = Expr>) -> Expr {
        let v: Vec<Expr> = items.into_iter().collect();
        if v.is_empty() {
            Expr::zero()
        } else {
            Expr::Min(v).simplify()
        }
    }

    /// Sum over `items`. Returns `0` for an empty iterator.
    pub fn sum_of(items: impl IntoIterator<Item = Expr>) -> Expr {
        Expr::Add(items.into_iter().collect()).simplify()
    }

    /// Product over `items`. Returns `1` for an empty iterator.
    pub fn product_of(items: impl IntoIterator<Item = Expr>) -> Expr {
        Expr::Mul(items.into_iter().collect()).simplify()
    }

    /// Returns the constant value if this expression is fully constant.
    pub fn as_const(&self) -> Option<i64> {
        match self {
            Expr::Const(c) => Some(*c),
            _ => None,
        }
    }

    /// The set of symbols occurring in this expression.
    pub fn symbols(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        self.collect_symbols(&mut out);
        out
    }

    fn collect_symbols(&self, out: &mut BTreeSet<Symbol>) {
        match self {
            Expr::Const(_) => {}
            Expr::Sym(s) => {
                out.insert(s.clone());
            }
            Expr::Add(v) | Expr::Mul(v) | Expr::Max(v) | Expr::Min(v) => {
                for e in v {
                    e.collect_symbols(out);
                }
            }
            Expr::CeilDiv(a, b) | Expr::FloorDiv(a, b) => {
                a.collect_symbols(out);
                b.collect_symbols(out);
            }
        }
    }

    /// Whether this expression contains no symbols.
    pub fn is_concrete(&self) -> bool {
        self.symbols().is_empty()
    }

    /// Evaluates the expression under `env`.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::UnboundSymbol`] if a symbol is missing from
    /// `env`, or [`EvalError::DivisionByZero`] for a zero divisor.
    pub fn eval(&self, env: &Env) -> Result<i64, EvalError> {
        match self {
            Expr::Const(c) => Ok(*c),
            Expr::Sym(s) => env
                .get_by_id(s.id())
                .ok_or_else(|| EvalError::UnboundSymbol(s.clone())),
            Expr::Add(v) => v.iter().try_fold(0i64, |acc, e| Ok(acc + e.eval(env)?)),
            Expr::Mul(v) => v.iter().try_fold(1i64, |acc, e| Ok(acc * e.eval(env)?)),
            Expr::CeilDiv(a, b) => {
                let (a, b) = (a.eval(env)?, b.eval(env)?);
                if b == 0 {
                    Err(EvalError::DivisionByZero)
                } else {
                    Ok(div_ceil(a, b))
                }
            }
            Expr::FloorDiv(a, b) => {
                let (a, b) = (a.eval(env)?, b.eval(env)?);
                if b == 0 {
                    Err(EvalError::DivisionByZero)
                } else {
                    Ok(a.div_euclid(b))
                }
            }
            Expr::Max(v) => v
                .iter()
                .map(|e| e.eval(env))
                .try_fold(i64::MIN, |acc, x| Ok(acc.max(x?))),
            Expr::Min(v) => v
                .iter()
                .map(|e| e.eval(env))
                .try_fold(i64::MAX, |acc, x| Ok(acc.min(x?))),
        }
    }

    /// Substitutes any bound symbols with their values and simplifies; the
    /// result may still contain symbols absent from `env`.
    pub fn subst(&self, env: &Env) -> Expr {
        self.subst_inner(env).simplify()
    }

    fn subst_inner(&self, env: &Env) -> Expr {
        match self {
            Expr::Const(c) => Expr::Const(*c),
            Expr::Sym(s) => match env.get_by_id(s.id()) {
                Some(v) => Expr::Const(v),
                None => Expr::Sym(s.clone()),
            },
            Expr::Add(v) => Expr::Add(v.iter().map(|e| e.subst_inner(env)).collect()),
            Expr::Mul(v) => Expr::Mul(v.iter().map(|e| e.subst_inner(env)).collect()),
            Expr::CeilDiv(a, b) => {
                Expr::CeilDiv(Box::new(a.subst_inner(env)), Box::new(b.subst_inner(env)))
            }
            Expr::FloorDiv(a, b) => {
                Expr::FloorDiv(Box::new(a.subst_inner(env)), Box::new(b.subst_inner(env)))
            }
            Expr::Max(v) => Expr::Max(v.iter().map(|e| e.subst_inner(env)).collect()),
            Expr::Min(v) => Expr::Min(v.iter().map(|e| e.subst_inner(env)).collect()),
        }
    }

    /// Canonicalizes the expression: folds constants, flattens nested
    /// sums/products, drops additive zeros and multiplicative ones, and
    /// collapses products containing zero. Value-preserving under `eval`.
    pub fn simplify(&self) -> Expr {
        match self {
            Expr::Const(_) | Expr::Sym(_) => self.clone(),
            Expr::Add(v) => {
                let mut terms: Vec<Expr> = Vec::new();
                let mut acc = 0i64;
                for e in v {
                    match e.simplify() {
                        Expr::Const(c) => acc += c,
                        Expr::Add(inner) => {
                            for t in inner {
                                match t {
                                    Expr::Const(c) => acc += c,
                                    other => terms.push(other),
                                }
                            }
                        }
                        other => terms.push(other),
                    }
                }
                if acc != 0 || terms.is_empty() {
                    terms.push(Expr::Const(acc));
                }
                if terms.len() == 1 {
                    terms.pop().expect("nonempty")
                } else {
                    terms.sort();
                    Expr::Add(terms)
                }
            }
            Expr::Mul(v) => {
                let mut factors: Vec<Expr> = Vec::new();
                let mut acc = 1i64;
                for e in v {
                    match e.simplify() {
                        Expr::Const(c) => acc *= c,
                        Expr::Mul(inner) => {
                            for t in inner {
                                match t {
                                    Expr::Const(c) => acc *= c,
                                    other => factors.push(other),
                                }
                            }
                        }
                        other => factors.push(other),
                    }
                }
                if acc == 0 {
                    return Expr::Const(0);
                }
                if acc != 1 || factors.is_empty() {
                    factors.push(Expr::Const(acc));
                }
                if factors.len() == 1 {
                    factors.pop().expect("nonempty")
                } else {
                    factors.sort();
                    Expr::Mul(factors)
                }
            }
            Expr::CeilDiv(a, b) => {
                let (a, b) = (a.simplify(), b.simplify());
                match (&a, &b) {
                    (Expr::Const(x), Expr::Const(y)) if *y != 0 => Expr::Const(div_ceil(*x, *y)),
                    (_, Expr::Const(1)) => a,
                    (Expr::Const(0), _) => Expr::Const(0),
                    _ => Expr::CeilDiv(Box::new(a), Box::new(b)),
                }
            }
            Expr::FloorDiv(a, b) => {
                let (a, b) = (a.simplify(), b.simplify());
                match (&a, &b) {
                    (Expr::Const(x), Expr::Const(y)) if *y != 0 => Expr::Const(x.div_euclid(*y)),
                    (_, Expr::Const(1)) => a,
                    (Expr::Const(0), _) => Expr::Const(0),
                    _ => Expr::FloorDiv(Box::new(a), Box::new(b)),
                }
            }
            Expr::Max(v) => simplify_lattice(v, true),
            Expr::Min(v) => simplify_lattice(v, false),
        }
    }
}

/// Shared simplification for Max (`is_max = true`) and Min.
fn simplify_lattice(v: &[Expr], is_max: bool) -> Expr {
    let mut items: Vec<Expr> = Vec::new();
    let mut acc: Option<i64> = None;
    let fold = |acc: &mut Option<i64>, c: i64| {
        *acc = Some(match *acc {
            None => c,
            Some(a) => {
                if is_max {
                    a.max(c)
                } else {
                    a.min(c)
                }
            }
        });
    };
    for e in v {
        let flattened: Vec<Expr> = match e.simplify() {
            Expr::Max(inner) if is_max => inner,
            Expr::Min(inner) if !is_max => inner,
            other => vec![other],
        };
        for item in flattened {
            match item {
                Expr::Const(c) => fold(&mut acc, c),
                other => items.push(other),
            }
        }
    }
    items.sort();
    items.dedup();
    if let Some(c) = acc {
        items.push(Expr::Const(c));
    }
    match items.len() {
        0 => Expr::Const(0),
        1 => items.pop().expect("nonempty"),
        _ => {
            if is_max {
                Expr::Max(items)
            } else {
                Expr::Min(items)
            }
        }
    }
}

fn div_ceil(a: i64, b: i64) -> i64 {
    let d = a.div_euclid(b);
    if a.rem_euclid(b) != 0 && (a >= 0) == (b >= 0) {
        d + 1
    } else {
        d
    }
}

impl From<i64> for Expr {
    fn from(c: i64) -> Self {
        Expr::Const(c)
    }
}

impl From<i32> for Expr {
    fn from(c: i32) -> Self {
        Expr::Const(i64::from(c))
    }
}

impl From<u64> for Expr {
    fn from(c: u64) -> Self {
        Expr::Const(c as i64)
    }
}

impl From<usize> for Expr {
    fn from(c: usize) -> Self {
        Expr::Const(c as i64)
    }
}

impl From<Symbol> for Expr {
    fn from(s: Symbol) -> Self {
        Expr::Sym(s)
    }
}

impl From<&Symbol> for Expr {
    fn from(s: &Symbol) -> Self {
        Expr::Sym(s.clone())
    }
}

impl ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Add(vec![self, rhs]).simplify()
    }
}

impl ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(vec![self, rhs]).simplify()
    }
}

impl ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Add(vec![self, Expr::Mul(vec![Expr::Const(-1), rhs])]).simplify()
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn join(f: &mut fmt::Formatter<'_>, v: &[Expr], sep: &str) -> fmt::Result {
            for (i, e) in v.iter().enumerate() {
                if i > 0 {
                    f.write_str(sep)?;
                }
                write_atom(f, e)?;
            }
            Ok(())
        }
        fn write_atom(f: &mut fmt::Formatter<'_>, e: &Expr) -> fmt::Result {
            match e {
                Expr::Add(_) | Expr::Mul(_) => write!(f, "({e})"),
                _ => write!(f, "{e}"),
            }
        }
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Sym(s) => write!(f, "{s}"),
            Expr::Add(v) => join(f, v, " + "),
            Expr::Mul(v) => join(f, v, "*"),
            Expr::CeilDiv(a, b) => write!(f, "ceil({a}, {b})"),
            Expr::FloorDiv(a, b) => write!(f, "floor({a}, {b})"),
            Expr::Max(v) => {
                f.write_str("max(")?;
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str(")")
            }
            Expr::Min(v) => {
                f.write_str("min(")?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolTable;

    fn sym() -> (Symbol, Env) {
        let mut t = SymbolTable::new();
        let d = t.fresh("D");
        let mut env = Env::new();
        env.bind(&d, 10);
        (d, env)
    }

    #[test]
    fn const_folding() {
        let e = Expr::from(2) + Expr::from(3) * Expr::from(4);
        assert_eq!(e, Expr::Const(14));
    }

    #[test]
    fn identity_elimination() {
        let (d, _) = sym();
        let e = (Expr::from(&d) + Expr::zero()) * Expr::one();
        assert_eq!(e.simplify(), Expr::Sym(d));
    }

    #[test]
    fn mul_by_zero_collapses() {
        let (d, _) = sym();
        let e = Expr::from(&d) * Expr::zero();
        assert_eq!(e, Expr::Const(0));
    }

    #[test]
    fn ceil_div_semantics() {
        let (d, env) = sym();
        let e = Expr::from(&d).ceil_div(4);
        assert_eq!(e.eval(&env).unwrap(), 3); // ceil(10/4)
        assert_eq!(Expr::from(8).ceil_div(4), Expr::Const(2));
        assert_eq!(Expr::from(9).ceil_div(4), Expr::Const(3));
        assert_eq!(Expr::from(0).ceil_div(4), Expr::Const(0));
    }

    #[test]
    fn ceil_div_by_one_is_identity() {
        let (d, _) = sym();
        assert_eq!(Expr::from(&d).ceil_div(1), Expr::Sym(d));
    }

    #[test]
    fn floor_div_semantics() {
        let (d, env) = sym();
        let e = Expr::from(&d).floor_div(4);
        assert_eq!(e.eval(&env).unwrap(), 2);
    }

    #[test]
    fn division_by_zero_errors() {
        let e = Expr::CeilDiv(Box::new(Expr::Const(4)), Box::new(Expr::Const(0)));
        assert_eq!(e.eval(&Env::new()), Err(EvalError::DivisionByZero));
    }

    #[test]
    fn unbound_symbol_errors() {
        let mut t = SymbolTable::new();
        let d = t.fresh("D");
        let e = Expr::from(&d);
        assert!(matches!(
            e.eval(&Env::new()),
            Err(EvalError::UnboundSymbol(_))
        ));
    }

    #[test]
    fn max_min_fold() {
        assert_eq!(Expr::max_of([Expr::from(3), Expr::from(7)]), Expr::Const(7));
        assert_eq!(Expr::min_of([Expr::from(3), Expr::from(7)]), Expr::Const(3));
        let (d, env) = sym();
        let e = Expr::max_of([Expr::from(&d), Expr::from(4)]);
        assert_eq!(e.eval(&env).unwrap(), 10);
    }

    #[test]
    fn max_of_empty_is_zero() {
        assert_eq!(Expr::max_of([]), Expr::Const(0));
        assert_eq!(Expr::min_of([]), Expr::Const(0));
    }

    #[test]
    fn sum_and_product_helpers() {
        let (d, env) = sym();
        let s = Expr::sum_of([Expr::from(&d), Expr::from(&d), Expr::from(1)]);
        assert_eq!(s.eval(&env).unwrap(), 21);
        let p = Expr::product_of([Expr::from(&d), Expr::from(3)]);
        assert_eq!(p.eval(&env).unwrap(), 30);
        assert_eq!(Expr::product_of([]), Expr::Const(1));
        assert_eq!(Expr::sum_of([]), Expr::Const(0));
    }

    #[test]
    fn sub_operator() {
        let (d, env) = sym();
        let e = Expr::from(&d) - Expr::from(4);
        assert_eq!(e.eval(&env).unwrap(), 6);
    }

    #[test]
    fn subst_partial() {
        let mut t = SymbolTable::new();
        let a = t.fresh("a");
        let b = t.fresh("b");
        let e = Expr::from(&a) * Expr::from(&b);
        let mut env = Env::new();
        env.bind(&a, 6);
        let sub = e.subst(&env);
        assert_eq!(sub.symbols().len(), 1);
        let mut env2 = Env::new();
        env2.bind(&b, 7);
        assert_eq!(sub.eval(&env2).unwrap(), 42);
    }

    #[test]
    fn symbols_collected() {
        let mut t = SymbolTable::new();
        let a = t.fresh("a");
        let b = t.fresh("b");
        let e = Expr::max_of([Expr::from(&a).ceil_div(Expr::from(&b)), Expr::from(3)]);
        let syms = e.symbols();
        assert!(syms.contains(&a) && syms.contains(&b));
        assert!(!e.is_concrete());
        assert!(Expr::from(3).is_concrete());
    }

    #[test]
    fn display_is_readable() {
        let mut t = SymbolTable::new();
        let d = t.fresh("D");
        let e = Expr::from(&d).ceil_div(4) * Expr::from(64);
        let s = e.to_string();
        assert!(s.contains("ceil"), "{s}");
        assert!(s.contains("64"), "{s}");
    }

    #[test]
    fn nested_flattening() {
        let (d, env) = sym();
        let e = Expr::Add(vec![
            Expr::Add(vec![Expr::from(&d), Expr::from(1)]),
            Expr::Add(vec![Expr::from(2), Expr::from(&d)]),
        ])
        .simplify();
        assert_eq!(e.eval(&env).unwrap(), 23);
        // Flattened: no nested Add nodes remain.
        if let Expr::Add(v) = &e {
            assert!(v.iter().all(|x| !matches!(x, Expr::Add(_))));
        } else {
            panic!("expected Add, got {e:?}");
        }
    }
}
