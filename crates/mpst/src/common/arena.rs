//! Node identifiers for the graph representation of semantic trees.

use std::fmt;


/// Index of a node inside a semantic-tree arena.
///
/// Semantic trees ([`GlobalTree`], [`LocalTree`]) are stored as arenas of
/// nodes; a `NodeId` is only meaningful together with the arena that produced
/// it.
///
/// [`GlobalTree`]: crate::global::GlobalTree
/// [`LocalTree`]: crate::local::LocalTree
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Creates a node id from a raw index.
    pub(crate) fn new(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("semantic tree with more than u32::MAX nodes"))
    }

    /// The raw index of the node inside its arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        let id = NodeId::new(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "#7");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::new(3), NodeId::new(3));
    }
}
