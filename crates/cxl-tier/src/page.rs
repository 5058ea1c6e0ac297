//! Page identity and per-page metadata.

use serde::{Deserialize, Serialize};

use cxl_sim::SimTime;
use cxl_topology::NodeId;

/// Identifier of a simulated page.
///
/// A [`crate::TierManager`] hands out `PageId(0)`, `PageId(1)`, … in
/// allocation order and never reuses an id, even after a free, so a
/// caller that allocates every page of a manager can index its own
/// per-page arrays by `PageId.0` instead of keeping a directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PageId(pub u64);

/// Where a page currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Location {
    /// Resident on a NUMA node (DRAM or CXL).
    Node(NodeId),
    /// Spilled to the SSD swap tier.
    Ssd,
}

impl Location {
    /// The NUMA node, if resident.
    pub fn node(self) -> Option<NodeId> {
        match self {
            Location::Node(n) => Some(n),
            Location::Ssd => None,
        }
    }

    /// True when the page is on the SSD tier.
    pub fn is_ssd(self) -> bool {
        matches!(self, Location::Ssd)
    }
}

/// A [`Location`] packed into two bytes: the node index, or
/// [`PackedLocation::SSD`]. [`crate::TierManager::try_new`] rejects a
/// topology with [`PackedLocation::MAX_NODES`] or more nodes, so every
/// node index the manager places a page on packs below the sentinel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedLocation(u16);

impl PackedLocation {
    /// The SSD tier.
    pub(crate) const SSD: Self = PackedLocation(u16::MAX);
    /// Node counts at or above this collide with the SSD sentinel.
    pub(crate) const MAX_NODES: usize = u16::MAX as usize;

    /// Resident on `node`.
    pub(crate) fn node(node: NodeId) -> Self {
        debug_assert!(node.0 < Self::MAX_NODES, "{node:?} does not pack");
        PackedLocation(node.0 as u16)
    }

    pub(crate) fn is_ssd(self) -> bool {
        self == Self::SSD
    }

    pub(crate) fn unpack(self) -> Location {
        if self.is_ssd() {
            Location::Ssd
        } else {
            Location::Node(NodeId(self.0 as usize))
        }
    }
}

/// The per-page state every access reads or writes. It is 6 bytes so
/// that a store's whole page table stays cache-resident; the fault
/// history lives beside it in [`FaultHistory`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageMeta {
    pub location: PackedLocation,
    /// Page has been freed (touching or re-freeing it is a bug).
    pub freed: bool,
    /// A NUMA-balancing scan installed a hint (PROT_NONE) on this page.
    pub hint_installed: bool,
    /// Referenced since last demotion scan pass (CLOCK bit).
    pub referenced: bool,
}

impl PageMeta {
    pub(crate) fn new(location: PackedLocation) -> Self {
        Self {
            location,
            freed: false,
            hint_installed: false,
            referenced: false,
        }
    }
}

/// A page's hint-fault history. Only a hint fault, a migration and the
/// allocation that creates the page touch it, so it is kept out of the
/// [`PageMeta`] the access path reads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultHistory {
    /// Time of the most recent hint fault on this page, used by the MRU
    /// promotion check; `SimTime::MAX` when never faulted.
    pub last_hint_fault: SimTime,
    /// Consecutive hint faults that landed inside the hot threshold;
    /// reset by an out-of-window fault or a migration. Compared against
    /// `HotPageConfig::promote_after_faults`.
    pub fault_streak: u32,
}

impl Default for FaultHistory {
    fn default() -> Self {
        Self {
            last_hint_fault: SimTime::MAX,
            fault_streak: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn location_helpers() {
        let n = Location::Node(NodeId(3));
        assert_eq!(n.node(), Some(NodeId(3)));
        assert!(!n.is_ssd());
        assert_eq!(Location::Ssd.node(), None);
        assert!(Location::Ssd.is_ssd());
    }

    #[test]
    fn fresh_page_meta() {
        let m = PageMeta::new(PackedLocation::node(NodeId(0)));
        assert!(!m.freed);
        assert!(!m.hint_installed);
        assert!(!m.referenced);
        let f = FaultHistory::default();
        assert_eq!(f.last_hint_fault, SimTime::MAX);
        assert_eq!(f.fault_streak, 0);
    }

    #[test]
    fn page_meta_stays_small() {
        // The access path reads one `PageMeta` per touch; at 50,000
        // pages per store the table must stay within a few hundred KB.
        assert!(std::mem::size_of::<PageMeta>() <= 8);
        assert!(std::mem::size_of::<FaultHistory>() <= 16);
    }
}
