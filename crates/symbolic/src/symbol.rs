//! Symbols and symbol tables.

use std::fmt;
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide counter so that symbols minted by independent
/// [`SymbolTable`]s never collide. Symbol identity is the numeric id; the
/// name is a human-readable label only.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// A named symbolic variable, e.g. the size of a dynamic dimension `D0`.
///
/// Two symbols are equal iff they were minted by the same
/// [`SymbolTable::fresh`] call; names are labels and may repeat.
///
/// # Examples
///
/// ```
/// use step_symbolic::SymbolTable;
/// let mut t = SymbolTable::new();
/// let a = t.fresh("D");
/// let b = t.fresh("D");
/// assert_ne!(a, b); // same label, distinct symbols
/// ```
#[derive(Debug, Clone)]
pub struct Symbol {
    id: u64,
    name: Arc<str>,
}

// Identity, hashing and order are the id's alone: ids are unique, so the
// name never decides a comparison, and skipping it keeps hashing a
// symbol to one integer.
impl PartialEq for Symbol {
    fn eq(&self, other: &Symbol) -> bool {
        self.id == other.id
    }
}

impl Eq for Symbol {}

impl std::hash::Hash for Symbol {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Symbol) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Symbol) -> std::cmp::Ordering {
        self.id.cmp(&other.id)
    }
}

impl Symbol {
    /// The globally unique numeric id of this symbol.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The human-readable label this symbol was minted with (plus a
    /// uniquifying suffix).
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// Mints fresh [`Symbol`]s.
///
/// The paper's symbolic frontend introduces a new symbol for every dynamic
/// or ragged dimension it encounters (including fresh symbols created by the
/// ragged absorbing rule, §3.1); `SymbolTable` plays that role here.
#[derive(Debug, Default)]
pub struct SymbolTable {
    minted: Vec<Symbol>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mints a fresh symbol labelled `prefix` with a unique suffix.
    pub fn fresh(&mut self, prefix: &str) -> Symbol {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let sym = Symbol {
            id,
            name: Arc::from(format!("{prefix}#{id}")),
        };
        self.minted.push(sym.clone());
        sym
    }

    /// All symbols minted by this table, in creation order.
    pub fn iter(&self) -> impl Iterator<Item = &Symbol> {
        self.minted.iter()
    }

    /// Number of symbols minted by this table.
    pub fn len(&self) -> usize {
        self.minted.len()
    }

    /// Whether this table has minted no symbols.
    pub fn is_empty(&self) -> bool {
        self.minted.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_symbols_are_distinct() {
        let mut t = SymbolTable::new();
        let a = t.fresh("D");
        let b = t.fresh("D");
        assert_ne!(a.id(), b.id());
        assert_ne!(a, b);
    }

    #[test]
    fn symbols_from_distinct_tables_are_distinct() {
        let mut t1 = SymbolTable::new();
        let mut t2 = SymbolTable::new();
        assert_ne!(t1.fresh("x"), t2.fresh("x"));
    }

    #[test]
    fn display_uses_label() {
        let mut t = SymbolTable::new();
        let a = t.fresh("Dq");
        assert!(a.to_string().starts_with("Dq#"));
    }

    #[test]
    fn table_tracks_minted() {
        let mut t = SymbolTable::new();
        assert!(t.is_empty());
        let a = t.fresh("a");
        let b = t.fresh("b");
        assert_eq!(t.len(), 2);
        let minted: Vec<_> = t.iter().cloned().collect();
        assert_eq!(minted, vec![a, b]);
    }
}
