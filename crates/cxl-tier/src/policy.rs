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

    /// Returns the candidate node order for the next allocation and
    /// advances interleave state.
    pub(crate) fn next_candidates(&mut self) -> Vec<NodeId> {
        match &self.policy {
            AllocPolicy::Bind(nodes) => nodes.clone(),
            AllocPolicy::Preferred { node, fallback } => {
                let mut v = vec![*node];
                v.extend_from_slice(fallback);
                v
            }
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
                let mut v = Vec::with_capacity(primary.len() + secondary.len());
                for i in 0..primary.len() {
                    v.push(primary[(rr + i) % primary.len()]);
                }
                v.extend_from_slice(secondary);
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_order_is_stable() {
        let mut c = PolicyCursor::new(AllocPolicy::Bind(vec![NodeId(2), NodeId(5)]));
        assert_eq!(c.next_candidates(), vec![NodeId(2), NodeId(5)]);
        assert_eq!(c.next_candidates(), vec![NodeId(2), NodeId(5)]);
    }

    #[test]
    fn preferred_puts_fallback_after() {
        let mut c = PolicyCursor::new(AllocPolicy::Preferred {
            node: NodeId(1),
            fallback: vec![NodeId(0)],
        });
        assert_eq!(c.next_candidates(), vec![NodeId(1), NodeId(0)]);
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
            if c.next_candidates()[0] == NodeId(0) {
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
        let a = c.next_candidates()[0];
        let b = c.next_candidates()[0];
        assert_ne!(a, b);
        assert_eq!(c.next_candidates()[0], NodeId(8));
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
