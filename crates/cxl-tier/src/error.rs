//! Typed errors for the tiering layer.
//!
//! Before fault injection, states like "page already on SSD" could only
//! arise from caller bugs and aborted the process with `panic!`. With
//! expanders that fail mid-run and user-supplied migration configs,
//! those states are ordinary runtime conditions; they surface as
//! [`TierError`] values a degraded-but-serving caller can handle.

use crate::manager::OutOfMemory;
use crate::page::PageId;
use cxl_topology::NodeId;

/// A recoverable tiering-layer failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TierError {
    /// An operation required a different migration mode (e.g.
    /// [`crate::TierManager::set_promote_rate`] without a rate-limited
    /// mode in force). Carries the requirement's description.
    WrongPolicy(&'static str),
    /// The page is already on SSD, so it cannot be evicted again.
    AlreadyOnSsd(PageId),
    /// The page is not on SSD, so it cannot be loaded from there.
    NotOnSsd(PageId),
    /// The page was freed; it holds no data to move and no capacity.
    Freed(PageId),
    /// No node (or SSD, if spill is disabled) can absorb the page(s).
    OutOfMemory(OutOfMemory),
    /// A user-supplied configuration is internally inconsistent; the
    /// message says which constraint failed.
    InvalidConfig(String),
    /// The node id is not part of the managed topology.
    UnknownNode(NodeId),
}

impl std::fmt::Display for TierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierError::WrongPolicy(req) => write!(f, "{req}"),
            TierError::AlreadyOnSsd(p) => write!(f, "page {p:?} already on SSD"),
            TierError::NotOnSsd(p) => write!(f, "page {p:?} not on SSD"),
            TierError::Freed(p) => write!(f, "page {p:?} was freed"),
            TierError::OutOfMemory(e) => write!(f, "{e}"),
            TierError::InvalidConfig(msg) => write!(f, "{msg}"),
            TierError::UnknownNode(n) => write!(f, "node {n:?} is not part of this topology"),
        }
    }
}

impl std::error::Error for TierError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TierError::OutOfMemory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OutOfMemory> for TierError {
    fn from(e: OutOfMemory) -> Self {
        TierError::OutOfMemory(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_legacy_panic_phrases() {
        // Callers that upgraded from catching panics grep these.
        assert!(TierError::AlreadyOnSsd(PageId(3))
            .to_string()
            .contains("already on SSD"));
        assert!(TierError::NotOnSsd(PageId(3))
            .to_string()
            .contains("not on SSD"));
        let e: TierError = OutOfMemory.into();
        assert!(matches!(e, TierError::OutOfMemory(_)));
    }
}
