//! Event tracing for tiering decisions.
//!
//! Debugging tiered-memory policies needs the *timeline*: when pages
//! were promoted or demoted, when the SSD was hit, when the bandwidth
//! guard fired. The [`TraceRing`] is a bounded ring buffer of
//! [`TierEvent`]s the manager can record into at negligible cost; tools
//! drain it to print migration timelines (see the `tiering_trace`
//! example).

use std::collections::VecDeque;

use serde::Serialize;

use cxl_sim::SimTime;
use cxl_topology::NodeId;

use crate::page::PageId;

/// One traced tiering event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TierEvent {
    /// Page promoted from a slow node to a DRAM node.
    Promoted {
        /// The page.
        page: PageId,
        /// Source node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
    },
    /// Page demoted from DRAM to a slow node.
    Demoted {
        /// The page.
        page: PageId,
        /// Source node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
    },
    /// Page evicted to SSD.
    EvictedToSsd {
        /// The page.
        page: PageId,
    },
    /// Page loaded back from SSD.
    LoadedFromSsd {
        /// The page.
        page: PageId,
        /// Destination node.
        to: NodeId,
    },
    /// A promotion was suppressed by the bandwidth guard (§5.3).
    PromotionSuppressed {
        /// The page.
        page: PageId,
    },
}

/// A timestamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TracedEvent {
    /// Virtual time of the event.
    pub at: SimTime,
    /// What happened.
    pub event: TierEvent,
}

/// Bounded ring buffer of tiering events.
#[derive(Debug, Clone)]
pub struct TraceRing {
    buf: VecDeque<TracedEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceRing {
    /// Creates a ring holding up to `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring needs capacity");
        Self {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Records an event, evicting the oldest when full.
    pub fn record(&mut self, at: SimTime, event: TierEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TracedEvent { at, event });
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TracedEvent> {
        self.buf.iter()
    }

    /// Number of events evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Drains all retained events.
    pub fn drain(&mut self) -> Vec<TracedEvent> {
        self.buf.drain(..).collect()
    }

    /// Counts retained events matching a predicate.
    #[cfg(test)]
    pub(crate) fn count_matching(&self, pred: impl Fn(&TierEvent) -> bool) -> usize {
        self.buf.iter().filter(|e| pred(&e.event)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(page: u64) -> TierEvent {
        TierEvent::EvictedToSsd { page: PageId(page) }
    }

    #[test]
    fn records_in_order() {
        let mut r = TraceRing::new(8);
        for i in 0..5 {
            r.record(SimTime::from_ns(i), ev(i));
        }
        let times: Vec<u64> = r.events().map(|e| e.at.as_ns()).collect();
        assert_eq!(times, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.len(), 5);
        assert!(!r.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn evicts_oldest_when_full() {
        let mut r = TraceRing::new(3);
        for i in 0..10 {
            r.record(SimTime::from_ns(i), ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 7);
        let pages: Vec<u64> = r
            .events()
            .map(|e| match e.event {
                TierEvent::EvictedToSsd { page } => page.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pages, vec![7, 8, 9]);
    }

    #[test]
    fn drain_empties_the_ring() {
        let mut r = TraceRing::new(4);
        r.record(SimTime::ZERO, ev(1));
        let drained = r.drain();
        assert_eq!(drained.len(), 1);
        assert!(r.is_empty());
    }

    #[test]
    fn count_matching_filters() {
        let mut r = TraceRing::new(8);
        r.record(SimTime::ZERO, ev(1));
        r.record(
            SimTime::ZERO,
            TierEvent::Promoted {
                page: PageId(2),
                from: NodeId(2),
                to: NodeId(0),
            },
        );
        assert_eq!(
            r.count_matching(|e| matches!(e, TierEvent::Promoted { .. })),
            1
        );
        assert_eq!(
            r.count_matching(|e| matches!(e, TierEvent::EvictedToSsd { .. })),
            1
        );
    }

    #[test]
    #[should_panic(expected = "trace ring needs capacity")]
    fn zero_capacity_rejected() {
        TraceRing::new(0);
    }
}
