//! A membership-only set of node ids.
//!
//! Node-state maps are `plsim_des::DetHashMap`s, whose FNV-1a order is
//! the same in every run, because their iteration order reaches the
//! simulation. A set that is only ever asked about membership and size
//! has no order to keep stable, so it may change representation freely:
//! [`NodeSet`] is a dense bitmap over node ids.

use plsim_des::NodeId;

/// A set of node ids as a bitmap indexed by [`NodeId::index`], with a
/// member count. It has no iteration, so it cannot leak an order into the
/// simulation. Node ids are dense world indices, so a world of `n` nodes
/// costs about `n / 8` bytes a set; the words grow on insert only, ids
/// past them are absent, and an empty set owns no heap.
#[derive(Debug, Default)]
pub(crate) struct NodeSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeSet {
    fn slot(node: NodeId) -> (usize, u64) {
        (node.index() / 64, 1 << (node.index() % 64))
    }

    pub(crate) fn contains(&self, node: NodeId) -> bool {
        let (w, bit) = Self::slot(node);
        self.words.get(w).is_some_and(|&word| word & bit != 0)
    }

    /// Adds `node`; `true` when it was absent.
    pub(crate) fn insert(&mut self, node: NodeId) -> bool {
        let (w, bit) = Self::slot(node);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `node`; `true` when it was present.
    pub(crate) fn remove(&mut self, node: NodeId) -> bool {
        let (w, bit) = Self::slot(node);
        let Some(word) = self.words.get_mut(w) else {
            return false;
        };
        let present = *word & bit != 0;
        *word &= !bit;
        self.len -= usize::from(present);
        present
    }

    /// Empties the set, keeping its words for reuse.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32),
        Remove(u32),
        Contains(u32),
        Clear,
    }

    fn op() -> impl Strategy<Value = Op> {
        // Ids up to 300 span five words, so inserts grow the set past its
        // end and removals and lookups probe ids it never reached.
        (0u32..11, 0u32..300).prop_map(|(kind, n)| match kind {
            0..=3 => Op::Insert(n),
            4..=6 => Op::Remove(n),
            7..=9 => Op::Contains(n),
            _ => Op::Clear,
        })
    }

    proptest! {
        #[test]
        fn node_set_matches_an_ordered_set(ops in collection::vec(op(), 0..200)) {
            let mut set = NodeSet::default();
            let mut model = BTreeSet::new();
            for op in ops {
                match op {
                    Op::Insert(n) => {
                        prop_assert_eq!(set.insert(NodeId(n)), model.insert(NodeId(n)));
                    }
                    Op::Remove(n) => {
                        prop_assert_eq!(set.remove(NodeId(n)), model.remove(&NodeId(n)));
                    }
                    Op::Contains(n) => {
                        prop_assert_eq!(set.contains(NodeId(n)), model.contains(&NodeId(n)));
                    }
                    Op::Clear => {
                        set.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(set.len(), model.len());
                for n in 0..320 {
                    prop_assert_eq!(set.contains(NodeId(n)), model.contains(&NodeId(n)));
                }
            }
        }
    }

    #[test]
    fn an_empty_node_set_owns_no_heap() {
        let set = NodeSet::default();
        assert_eq!(set.words.capacity(), 0);
        assert!(!set.contains(NodeId(u32::MAX)));
    }
}
