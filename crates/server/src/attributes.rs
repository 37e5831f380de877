//! Registry of secondary attributes (paper §VIII future work).
//!
//! A secondary attribute is a user-defined projection of the tuple onto a
//! `u64` value (e.g. "destination IP", "taxi id"), written as an [`Expr`]
//! whose value is the attribute (`None` when the tuple has none). Registered
//! attributes are indexed at chunk-flush time — a bloom filter over the
//! chunk's values plus per-hot-value leaf bitmaps (see
//! [`waterwheel_index::secondary`]) — and queries carrying an
//! [`attr_eq`](waterwheel_core::Query::attr_eq) constraint use those
//! structures to prune chunks and leaves.
//!
//! The registry is shared (via `Arc`) between the indexing servers (build
//! side) and the coordinator (query side); registrations apply to chunks
//! flushed *after* the registration.

use parking_lot::RwLock;
use std::collections::HashMap;
use waterwheel_core::Expr;
use waterwheel_index::secondary::AttrId;

/// Shared registry of attribute expressions.
#[derive(Default)]
pub struct AttrRegistry {
    map: RwLock<HashMap<AttrId, Expr>>,
}

impl AttrRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) an attribute.
    pub fn register(&self, attr: AttrId, value: Expr) {
        self.map.write().insert(attr, value);
    }

    /// The expression of an attribute, if registered.
    pub fn get(&self, attr: AttrId) -> Option<Expr> {
        self.map.read().get(&attr).cloned()
    }

    /// All registered attribute ids (build side iterates these at flush).
    pub fn ids(&self) -> Vec<AttrId> {
        let mut ids: Vec<AttrId> = self.map.read().keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waterwheel_core::Tuple;

    #[test]
    fn register_get_roundtrip() {
        let reg = AttrRegistry::new();
        assert!(reg.ids().is_empty());
        reg.register(1, Expr::key() % 10);
        reg.register(2, Expr::payload(0, 1));
        assert_eq!(reg.ids().len(), 2);
        assert_eq!(reg.ids(), vec![1, 2]);
        let f = reg.get(1).unwrap();
        assert_eq!(f.eval(&Tuple::bare(42, 0)), Some(2));
        assert!(reg.get(9).is_none());
    }

    #[test]
    fn extractors_can_decline() {
        let reg = AttrRegistry::new();
        // 7 when the payload holds four bytes, else no value.
        reg.register(1, Expr::from(7) >> Expr::payload(0, 4).lt(0));
        let f = reg.get(1).unwrap();
        assert_eq!(f.eval(&Tuple::bare(1, 1)), None);
        assert_eq!(f.eval(&Tuple::new(1, 1, vec![0u8; 4])), Some(7));
    }

    #[test]
    fn re_registration_replaces() {
        let reg = AttrRegistry::new();
        reg.register(1, Expr::from(1));
        reg.register(1, Expr::from(2));
        assert_eq!(reg.ids().len(), 1);
        assert_eq!(reg.get(1).unwrap().eval(&Tuple::bare(0, 0)), Some(2));
    }
}
