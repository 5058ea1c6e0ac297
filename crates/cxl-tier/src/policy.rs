//! Allocation policies.

use serde::{Deserialize, Serialize};

use cxl_topology::NodeId;

/// Where new pages are placed.
///
/// Mirrors the placement tools the paper uses: `numactl` binding
/// (§4.1.1, §4.3.1), the N:M tiered interleave kernel patch (§2.3), and
/// default local-first allocation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocPolicy {
    /// Fill the listed nodes in order; spill to SSD (if enabled) when all
    /// are full. `Bind([dram])` models `numactl --membind`.
    Bind(Vec<NodeId>),
    /// Try the preferred node first, then the fallbacks in order.
    Preferred {
        /// First-choice node.
        node: NodeId,
        /// Fallback nodes, tried in order when the preferred one is full.
        fallback: Vec<NodeId>,
    },
    /// The N:M tiered interleave patch: per cycle, `n` pages go to the
    /// `top` nodes (round-robin) and `m` pages to the `low` nodes.
    ///
    /// The paper's "3:1" is `n = 3, m = 1` (75 % MMEM / 25 % CXL).
    InterleaveNm {
        /// Top-tier (DRAM) nodes.
        top: Vec<NodeId>,
        /// Lower-tier (CXL) nodes.
        low: Vec<NodeId>,
        /// Pages per cycle to the top tier.
        n: u32,
        /// Pages per cycle to the lower tier.
        m: u32,
    },
}

impl AllocPolicy {
    /// Builds an N:M interleave from the paper's ratio notation
    /// (`3:1`, `1:1`, `1:3`).
    ///
    /// # Panics
    ///
    /// Panics if `n + m == 0` or either node list is empty while its
    /// share is nonzero.
    pub fn interleave(top: Vec<NodeId>, low: Vec<NodeId>, n: u32, m: u32) -> Self {
        assert!(n + m > 0, "N:M interleave needs a nonzero cycle");
        assert!(n == 0 || !top.is_empty(), "top share with no top nodes");
        assert!(m == 0 || !low.is_empty(), "low share with no low nodes");
        AllocPolicy::InterleaveNm { top, low, n, m }
    }
}

/// Iterator-like cursor implementing a policy's placement order.
#[derive(Debug, Clone)]
pub(crate) struct PolicyCursor {
    policy: AllocPolicy,
    /// Position in the N+M interleave cycle.
    cycle_pos: u32,
    /// Round-robin counters within top/low node lists.
    top_rr: usize,
    low_rr: usize,
}

impl PolicyCursor {
    pub(crate) fn new(policy: AllocPolicy) -> Self {
        Self {
            policy,
            cycle_pos: 0,
            top_rr: 0,
            low_rr: 0,
        }
    }

    /// Returns the first node in the next allocation's candidate order
    /// for which `fits` holds, and advances the interleave state whether
    /// or not one does.
    ///
    /// The order is the policy's: the bound nodes; the preferred node
    /// then its fallbacks; or, for N:M interleave, the selected tier
    /// round-robin from its cursor, then the other tier in list order.
    pub(crate) fn next_fit(&mut self, mut fits: impl FnMut(NodeId) -> bool) -> Option<NodeId> {
        match &self.policy {
            AllocPolicy::Bind(nodes) => nodes.iter().copied().find(|&n| fits(n)),
            AllocPolicy::Preferred { node, fallback } => std::iter::once(*node)
                .chain(fallback.iter().copied())
                .find(|&n| fits(n)),
            AllocPolicy::InterleaveNm { top, low, n, m } => {
                let in_top = self.cycle_pos < *n;
                self.cycle_pos = (self.cycle_pos + 1) % (n + m);
                // Round-robin within the selected tier; if it is full the
                // manager falls through to the other tier's nodes.
                let (primary, secondary, rr) = if in_top {
                    let rr = self.top_rr;
                    self.top_rr = (self.top_rr + 1) % top.len().max(1);
                    (top, low, rr)
                } else {
                    let rr = self.low_rr;
                    self.low_rr = (self.low_rr + 1) % low.len().max(1);
                    (low, top, rr)
                };
                let (before, from_rr) = primary.split_at(rr);
                from_rr
                    .iter()
                    .chain(before)
                    .chain(secondary)
                    .copied()
                    .find(|&n| fits(n))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full candidate order of the next allocation: every node
    /// `next_fit` offers when none fits.
    fn order(c: &mut PolicyCursor) -> Vec<NodeId> {
        let mut seen = Vec::new();
        let fit = c.next_fit(|n| {
            seen.push(n);
            false
        });
        assert_eq!(fit, None);
        seen
    }

    /// The node the next allocation lands on when every node has room.
    fn first(c: &mut PolicyCursor) -> NodeId {
        c.next_fit(|_| true).expect("policy has a node")
    }

    #[test]
    fn bind_order_is_stable() {
        let mut c = PolicyCursor::new(AllocPolicy::Bind(vec![NodeId(2), NodeId(5)]));
        assert_eq!(order(&mut c), vec![NodeId(2), NodeId(5)]);
        assert_eq!(order(&mut c), vec![NodeId(2), NodeId(5)]);
        // The first node that fits wins.
        assert_eq!(c.next_fit(|n| n == NodeId(5)), Some(NodeId(5)));
    }

    #[test]
    fn preferred_puts_fallback_after() {
        let mut c = PolicyCursor::new(AllocPolicy::Preferred {
            node: NodeId(1),
            fallback: vec![NodeId(0)],
        });
        assert_eq!(order(&mut c), vec![NodeId(1), NodeId(0)]);
    }

    #[test]
    fn interleave_3_1_sends_three_quarters_to_top() {
        let mut c = PolicyCursor::new(AllocPolicy::interleave(
            vec![NodeId(0)],
            vec![NodeId(8)],
            3,
            1,
        ));
        let mut top = 0;
        for _ in 0..400 {
            if first(&mut c) == NodeId(0) {
                top += 1;
            }
        }
        assert_eq!(top, 300);
    }

    #[test]
    fn interleave_round_robins_within_tier() {
        let mut c = PolicyCursor::new(AllocPolicy::interleave(
            vec![NodeId(0), NodeId(1)],
            vec![NodeId(8)],
            2,
            1,
        ));
        let a = first(&mut c);
        let b = first(&mut c);
        assert_ne!(a, b);
        assert_eq!(first(&mut c), NodeId(8));
    }

    #[test]
    fn interleave_falls_through_to_the_other_tier_in_order() {
        let mut c = PolicyCursor::new(AllocPolicy::interleave(
            vec![NodeId(0), NodeId(1), NodeId(2)],
            vec![NodeId(8), NodeId(9)],
            2,
            1,
        ));
        // Top tier from its round-robin cursor, then the low tier as
        // listed; the cursor advances even when nothing fits.
        assert_eq!(order(&mut c), [0, 1, 2, 8, 9].map(NodeId));
        assert_eq!(order(&mut c), [1, 2, 0, 8, 9].map(NodeId));
        assert_eq!(order(&mut c), [8, 9, 0, 1, 2].map(NodeId));
        assert_eq!(order(&mut c), [2, 0, 1, 8, 9].map(NodeId));
        // A full selected tier falls through to the other one.
        assert_eq!(c.next_fit(|n| n.0 >= 8), Some(NodeId(8)));
    }

    #[test]
    #[should_panic(expected = "nonzero cycle")]
    fn zero_cycle_panics() {
        AllocPolicy::interleave(vec![NodeId(0)], vec![NodeId(1)], 0, 0);
    }

    #[test]
    #[should_panic(expected = "top share with no top nodes")]
    fn empty_top_panics() {
        AllocPolicy::interleave(vec![], vec![NodeId(1)], 1, 1);
    }
}
