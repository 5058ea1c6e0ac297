//! Page identity and per-page metadata.

use serde::{Deserialize, Serialize};

use cxl_sim::SimTime;
use cxl_topology::NodeId;

/// Identifier of a simulated page (dense index into the page directory).
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

/// Metadata tracked per page.
#[derive(Debug, Clone)]
pub(crate) struct PageMeta {
    pub location: Location,
    /// Page has been freed (touching or re-freeing it is a bug).
    pub freed: bool,
    /// Time of the most recent hint fault on this page, used by the MRU
    /// promotion check; `SimTime::MAX` when never faulted.
    pub last_hint_fault: SimTime,
    /// A NUMA-balancing scan installed a hint (PROT_NONE) on this page.
    pub hint_installed: bool,
    /// Referenced since last demotion scan pass (CLOCK bit).
    pub referenced: bool,
    /// Consecutive hint faults that landed inside the hot threshold;
    /// reset by an out-of-window fault or a migration. Compared against
    /// `HotPageConfig::promote_after_faults`.
    pub fault_streak: u32,
}

impl PageMeta {
    pub(crate) fn new(location: Location) -> Self {
        Self {
            location,
            freed: false,
            last_hint_fault: SimTime::MAX,
            hint_installed: false,
            referenced: false,
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
        let m = PageMeta::new(Location::Node(NodeId(0)));
        assert!(!m.hint_installed);
        assert!(!m.referenced);
        assert_eq!(m.last_hint_fault, SimTime::MAX);
    }
}
