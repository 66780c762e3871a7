//! String interning: every distinct cell value is stored once and referred
//! to by a dense [`ValueId`], so equality checks and hash keys on the hot
//! paths are integer-sized.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Dense identifier of an interned value within one [`ValuePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(pub(crate) u32);

impl ValueId {
    /// The dense index of this value (0-based, interning order).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a value id from a dense index previously obtained from
    /// [`ValueId::index`] against the same pool.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        ValueId(u32::try_from(index).expect("value index exceeds u32"))
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An append-only interner mapping strings to dense [`ValueId`]s.
///
/// Each value is allocated once and shared by the id-ordered list and the
/// lookup map, so interning a new value allocates once and a clone of the
/// pool copies no text.
#[derive(Debug, Clone, Default)]
pub struct ValuePool {
    strings: Vec<Arc<str>>,
    lookup: HashMap<Arc<str>, ValueId>,
}

impl ValuePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `value`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, value: &str) -> ValueId {
        if let Some(&id) = self.lookup.get(value) {
            return id;
        }
        let id = ValueId::from_index(self.strings.len());
        let value: Arc<str> = Arc::from(value);
        self.strings.push(Arc::clone(&value));
        self.lookup.insert(value, id);
        id
    }

    /// Looks up the id of an already-interned value.
    #[inline]
    pub fn get(&self, value: &str) -> Option<ValueId> {
        self.lookup.get(value).copied()
    }

    /// Resolves an id back to its string.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this pool.
    #[inline]
    pub fn resolve(&self, id: ValueId) -> &str {
        &self.strings[id.index()]
    }

    /// Number of distinct values interned.
    #[inline]
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the pool is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterates over `(id, string)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (ValueId::from_index(i), &**s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut p = ValuePool::new();
        let a = p.intern("USA");
        let b = p.intern("America");
        let a2 = p.intern("USA");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(p.len(), 2);
        assert_eq!(p.resolve(a), "USA");
        assert_eq!(p.resolve(b), "America");
    }

    #[test]
    fn get_does_not_intern() {
        let mut p = ValuePool::new();
        assert_eq!(p.get("x"), None);
        let id = p.intern("x");
        assert_eq!(p.get("x"), Some(id));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn iter_preserves_order() {
        let mut p = ValuePool::new();
        for v in ["c", "a", "b"] {
            p.intern(v);
        }
        let got: Vec<&str> = p.iter().map(|(_, s)| s).collect();
        assert_eq!(got, vec!["c", "a", "b"]);
        for (id, s) in p.iter() {
            assert_eq!(p.resolve(id), s);
        }
    }

    #[test]
    fn ids_round_trip_through_index() {
        let id = ValueId::from_index(5);
        assert_eq!(id.index(), 5);
        assert_eq!(id.to_string(), "v5");
    }
}
