//! The pool's physical address space: slab-granular extent allocation,
//! fragmentation accounting, and compaction.
//!
//! A CXL 2.0 pool device carves its capacity into fixed-size slabs
//! (device-level interleave granules) and maps contiguous *extents* of
//! slabs into host decoders. Hosts lease and return capacity at
//! different times, so the address space fragments: a request may be
//! satisfiable in total slabs yet need several discontiguous extents
//! (consuming extra decoder entries), and compaction — migrating live
//! slabs downward to merge free space — costs data movement. Both
//! effects are modeled explicitly here rather than assumed away.

use serde::Serialize;

use crate::lease::LeaseId;

/// A contiguous run of slabs in the pool address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Extent {
    /// First slab index.
    pub start: u64,
    /// Run length in slabs.
    pub len: u64,
}

impl Extent {
    /// One-past-the-end slab index.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// Slab-granular extent allocator over the pool address space.
///
/// Allocations are first-fit: each request walks the free gaps in
/// address order and carves extents until the request is covered, so a
/// request larger than every gap is satisfied with multiple extents
/// (a *fragmented* grant). [`PoolAddressSpace::fragmentation`] reports
/// `1 − largest_free_run / free_slabs`, and [`PoolAddressSpace::defrag`]
/// compacts live extents downward, returning how many slabs moved.
#[derive(Debug, Clone)]
pub struct PoolAddressSpace {
    total_slabs: u64,
    /// Allocated extents with owners, sorted by `start`, non-overlapping.
    allocs: Vec<(Extent, LeaseId)>,
}

impl PoolAddressSpace {
    /// An empty address space of `total_slabs` slabs.
    pub fn new(total_slabs: u64) -> Self {
        Self {
            total_slabs,
            allocs: Vec::new(),
        }
    }

    /// Total capacity in slabs.
    pub fn total_slabs(&self) -> u64 {
        self.total_slabs
    }

    /// Currently mapped slabs.
    pub fn used_slabs(&self) -> u64 {
        self.allocs.iter().map(|(e, _)| e.len).sum()
    }

    /// Unmapped slabs.
    pub fn free_slabs(&self) -> u64 {
        self.total_slabs - self.used_slabs()
    }

    /// Free gaps in address order.
    pub fn free_runs(&self) -> Vec<Extent> {
        let mut runs = Vec::new();
        let mut cursor = 0;
        for (e, _) in &self.allocs {
            if e.start > cursor {
                runs.push(Extent {
                    start: cursor,
                    len: e.start - cursor,
                });
            }
            cursor = e.end();
        }
        if cursor < self.total_slabs {
            runs.push(Extent {
                start: cursor,
                len: self.total_slabs - cursor,
            });
        }
        runs
    }

    /// Length of the largest free gap, in slabs.
    pub fn largest_free_run(&self) -> u64 {
        self.free_runs().iter().map(|e| e.len).max().unwrap_or(0)
    }

    /// External fragmentation in `[0, 1]`: `1 − largest_free_run /
    /// free_slabs` (0 when nothing is free, or when all free space is
    /// one run).
    pub fn fragmentation(&self) -> f64 {
        let free = self.free_slabs();
        if free == 0 {
            return 0.0;
        }
        1.0 - self.largest_free_run() as f64 / free as f64
    }

    /// Allocates up to `slabs` slabs for `lease`, first-fit over the
    /// free gaps, and returns the extents carved (empty when the space
    /// is full). The sum of the returned extent lengths is
    /// `min(slabs, free_slabs)`.
    pub fn alloc(&mut self, slabs: u64, lease: LeaseId) -> Vec<Extent> {
        let mut remaining = slabs.min(self.free_slabs());
        let mut carved = Vec::new();
        while remaining > 0 {
            // Recompute gaps each round: the previous carve changed them.
            let gap = self.free_runs()[0];
            let take = gap.len.min(remaining);
            let ext = Extent {
                start: gap.start,
                len: take,
            };
            let pos = self
                .allocs
                .iter()
                .position(|(e, _)| e.start > ext.start)
                .unwrap_or(self.allocs.len());
            self.allocs.insert(pos, (ext, lease));
            remaining -= take;
            carved.push(ext);
        }
        self.coalesce();
        carved
    }

    /// Releases `slabs` slabs of `lease`, trimming its extents from the
    /// highest address downward (the most recently carved ends first).
    /// Returns the number of slabs actually released.
    pub fn release(&mut self, lease: LeaseId, slabs: u64) -> u64 {
        let mut remaining = slabs;
        for i in (0..self.allocs.len()).rev() {
            if remaining == 0 {
                break;
            }
            if self.allocs[i].1 != lease {
                continue;
            }
            let take = self.allocs[i].0.len.min(remaining);
            self.allocs[i].0.len -= take;
            remaining -= take;
        }
        self.allocs.retain(|(e, _)| e.len > 0);
        slabs - remaining
    }

    /// Releases every slab of `lease`, returning how many were mapped.
    pub fn release_all(&mut self, lease: LeaseId) -> u64 {
        self.release(lease, self.total_slabs)
    }

    /// Slabs currently mapped for `lease`.
    pub fn lease_slabs(&self, lease: LeaseId) -> u64 {
        self.allocs
            .iter()
            .filter(|(_, l)| *l == lease)
            .map(|(e, _)| e.len)
            .sum()
    }

    /// Number of extents backing `lease` (1 for an unfragmented lease).
    #[cfg(test)]
    fn lease_extents(&self, lease: LeaseId) -> usize {
        self.allocs.iter().filter(|(_, l)| *l == lease).count()
    }

    /// Compacts all live extents to the bottom of the address space
    /// (preserving address order, merging same-lease neighbours) so the
    /// free space becomes one contiguous run. Returns the number of
    /// slabs whose address changed — the data-movement cost the control
    /// plane must charge for.
    pub fn defrag(&mut self) -> u64 {
        let mut moved = 0;
        let mut cursor = 0;
        for (e, _) in self.allocs.iter_mut() {
            if e.start != cursor {
                moved += e.len;
                e.start = cursor;
            }
            cursor = e.end();
        }
        self.coalesce();
        moved
    }

    /// Merges adjacent extents owned by the same lease.
    fn coalesce(&mut self) {
        let mut i = 0;
        while i + 1 < self.allocs.len() {
            let (a, la) = self.allocs[i];
            let (b, lb) = self.allocs[i + 1];
            if la == lb && a.end() == b.start {
                self.allocs[i].0.len += b.len;
                self.allocs.remove(i + 1);
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L1: LeaseId = LeaseId(1);
    const L2: LeaseId = LeaseId(2);
    const L3: LeaseId = LeaseId(3);

    #[test]
    fn alloc_free_roundtrip() {
        let mut s = PoolAddressSpace::new(16);
        let e1 = s.alloc(6, L1);
        assert_eq!(e1, vec![Extent { start: 0, len: 6 }]);
        let e2 = s.alloc(4, L2);
        assert_eq!(e2, vec![Extent { start: 6, len: 4 }]);
        assert_eq!(s.used_slabs(), 10);
        assert_eq!(s.release_all(L1), 6);
        assert_eq!(s.free_slabs(), 12);
        assert_eq!(s.lease_slabs(L2), 4);
    }

    #[test]
    fn fragmented_grant_spans_multiple_extents() {
        let mut s = PoolAddressSpace::new(16);
        s.alloc(6, L1); // [0,6)
        s.alloc(4, L2); // [6,10)
        s.release_all(L1); // free: [0,6) + [10,16)
                           // 10 slabs free but the largest run is 6: the grant fragments.
        let e3 = s.alloc(9, L3);
        assert_eq!(e3.len(), 2);
        assert_eq!(s.lease_extents(L3), 2);
        assert_eq!(s.lease_slabs(L3), 9);
        assert!(s.fragmentation() == 0.0 || s.free_slabs() == 1);
    }

    #[test]
    fn fragmentation_of_degenerate_spaces_is_zero() {
        // Zero free slabs: the `1 − largest/free` denominator is 0 and
        // the accessor must return 0.0, not NaN.
        let mut s = PoolAddressSpace::new(4);
        s.alloc(4, L1);
        assert_eq!(s.free_slabs(), 0);
        assert_eq!(s.fragmentation(), 0.0);
        // All-free space is one run: also exactly 0.
        s.release_all(L1);
        assert_eq!(s.fragmentation(), 0.0);
    }

    #[test]
    fn fragmentation_metric_and_defrag() {
        let mut s = PoolAddressSpace::new(16);
        s.alloc(4, L1); // [0,4)
        s.alloc(4, L2); // [4,8)
        s.alloc(4, L3); // [8,12)
        s.release_all(L2); // free: [4,8) + [12,16)
        assert_eq!(s.free_slabs(), 8);
        assert_eq!(s.largest_free_run(), 4);
        assert!((s.fragmentation() - 0.5).abs() < 1e-12);
        // Compaction moves L3 down by 4 slabs and merges the free space.
        let moved = s.defrag();
        assert_eq!(moved, 4);
        assert_eq!(s.largest_free_run(), 8);
        assert_eq!(s.fragmentation(), 0.0);
        assert_eq!(s.lease_slabs(L1), 4);
        assert_eq!(s.lease_slabs(L3), 4);
    }

    #[test]
    fn release_trims_from_the_top() {
        let mut s = PoolAddressSpace::new(16);
        s.alloc(4, L1); // [0,4)
        s.alloc(4, L2); // [4,8)
        s.alloc(4, L1); // [8,12): L1 now has two extents
        assert_eq!(s.lease_extents(L1), 2);
        // Trimming 6 slabs removes the top extent and 2 from the bottom.
        assert_eq!(s.release(L1, 6), 6);
        assert_eq!(s.lease_slabs(L1), 2);
        assert_eq!(s.lease_extents(L1), 1);
        // Over-release is clamped.
        assert_eq!(s.release(L1, 100), 2);
        assert_eq!(s.lease_slabs(L1), 0);
    }

    #[test]
    fn oversized_alloc_is_clamped_to_free_space() {
        let mut s = PoolAddressSpace::new(8);
        s.alloc(6, L1);
        let e = s.alloc(10, L2);
        assert_eq!(e.iter().map(|x| x.len).sum::<u64>(), 2);
        assert_eq!(s.free_slabs(), 0);
        assert_eq!(s.fragmentation(), 0.0);
        assert!(s.alloc(1, L3).is_empty());
    }

    #[test]
    fn same_lease_extents_coalesce() {
        let mut s = PoolAddressSpace::new(8);
        s.alloc(2, L1);
        s.alloc(2, L1);
        assert_eq!(s.lease_extents(L1), 1);
        assert_eq!(s.lease_slabs(L1), 4);
    }
}
