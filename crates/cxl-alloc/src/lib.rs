#![warn(missing_docs)]

//! A user-space slab allocator over tiered memory.
//!
//! §4.1 grounds the KeyDB capacity study in allocator behaviour: "like
//! traditional memory allocators, Redis may not return memory to the
//! system after key deletion, particularly if deleted keys were on a
//! memory page with active ones. This necessitates memory provisioning
//! based on peak demand." This crate builds that allocator: jemalloc-style
//! size-class arenas carved from [`cxl_tier::TierManager`] pages, so
//! fragmentation, placement policy, and tiering interact the way they do
//! under a real in-memory store.
//!
//! # Examples
//!
//! ```
//! use cxl_alloc::{AllocConfig, TieredAllocator};
//! use cxl_sim::SimTime;
//! use cxl_tier::TierConfig;
//! use cxl_topology::{NodeId, SncMode, Topology};
//!
//! let topo = Topology::paper_testbed(SncMode::Disabled);
//! let mut a = TieredAllocator::new(
//!     &topo,
//!     TierConfig::bind(vec![NodeId(0)]),
//!     AllocConfig::default(),
//! );
//! let id = a.alloc(1000, SimTime::ZERO).unwrap();
//! assert!(a.live_bytes() >= 1000);
//! a.free(id);
//! assert_eq!(a.live_bytes(), 0);
//! // The backing page is only returned once every slot on it is free.
//! ```

use std::collections::HashMap;

use serde::Serialize;

use cxl_sim::SimTime;
use cxl_tier::{AccessOutcome, Location, OutOfMemory, PageId, Rw, TierConfig, TierManager};
use cxl_topology::Topology;

/// Allocator configuration.
#[derive(Debug, Clone, Serialize)]
pub struct AllocConfig {
    /// Size classes in bytes, ascending. Requests round up to the
    /// smallest class that fits; larger requests take whole pages.
    pub size_classes: Vec<u64>,
}

impl Default for AllocConfig {
    fn default() -> Self {
        // jemalloc-flavoured small/medium classes under the 4 KiB page.
        Self {
            size_classes: vec![64, 128, 256, 512, 1024, 2048],
        }
    }
}

/// Handle to a live allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct AllocId(u64);

#[derive(Debug, Clone)]
struct Slab {
    page: PageId,
    free_slots: Vec<u16>,
    live: u16,
}

#[derive(Debug, Clone, Copy)]
struct AllocMeta {
    class: usize,
    page: PageId,
    bytes: u64,
}

/// Per-size-class arena state.
#[derive(Debug, Default, Clone)]
struct Arena {
    /// Slabs with at least one free slot.
    partial: Vec<Slab>,
    /// Fully-occupied slabs, keyed by page.
    full: HashMap<PageId, Slab>,
}

/// The slab allocator.
pub struct TieredAllocator {
    tm: TierManager,
    cfg: AllocConfig,
    arenas: Vec<Arena>,
    allocations: HashMap<AllocId, AllocMeta>,
    next_id: u64,
    live_bytes: u64,
    /// Pages currently held from the tier manager (slabs + large).
    held_pages: u64,
}

impl TieredAllocator {
    /// Builds an allocator over a topology and placement policy.
    ///
    /// # Panics
    ///
    /// Panics if a size class exceeds the page size or the class list is
    /// empty/unsorted.
    pub fn new(topo: &Topology, tier_cfg: TierConfig, cfg: AllocConfig) -> Self {
        assert!(!cfg.size_classes.is_empty(), "need size classes");
        let page = tier_cfg.page_size;
        let mut prev = 0;
        for &c in &cfg.size_classes {
            assert!(c > prev, "size classes must be ascending");
            assert!(c <= page, "size class {c} exceeds page size {page}");
            prev = c;
        }
        // One extra arena: the implicit whole-page class for requests
        // larger than every configured class.
        let arenas = vec![Arena::default(); cfg.size_classes.len() + 1];
        Self {
            tm: TierManager::new(topo, tier_cfg),
            cfg,
            arenas,
            allocations: HashMap::new(),
            next_id: 0,
            live_bytes: 0,
            held_pages: 0,
        }
    }

    /// The underlying tier manager.
    pub fn tier(&self) -> &TierManager {
        &self.tm
    }

    /// Mutable access to the tier manager (ticks, utilization feedback).
    #[cfg(test)]
    fn tier_mut(&mut self) -> &mut TierManager {
        &mut self.tm
    }

    /// Bytes in live allocations.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Bytes of pages held from the memory system (resident set size).
    pub fn held_bytes(&self) -> u64 {
        self.held_pages * self.tm.page_size()
    }

    /// External fragmentation: held bytes not backing live data, as a
    /// fraction of held bytes. Zero when nothing is held.
    pub fn fragmentation(&self) -> f64 {
        let held = self.held_bytes();
        if held == 0 {
            return 0.0;
        }
        1.0 - self.live_bytes as f64 / held as f64
    }

    /// Index of the smallest class that fits, or the implicit
    /// whole-page class for anything larger.
    fn class_for(&self, bytes: u64) -> usize {
        self.cfg
            .size_classes
            .iter()
            .position(|&c| c >= bytes)
            .unwrap_or(self.cfg.size_classes.len())
    }

    fn class_bytes(&self, class: usize) -> u64 {
        self.cfg
            .size_classes
            .get(class)
            .copied()
            .unwrap_or_else(|| self.tm.page_size())
    }

    /// Allocates `bytes`, placing any new backing page via the tier
    /// policy. Requests larger than the page size are unsupported.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0` or `bytes` exceeds the page size.
    pub fn alloc(&mut self, bytes: u64, now: SimTime) -> Result<AllocId, OutOfMemory> {
        assert!(bytes > 0, "zero-byte allocation");
        assert!(
            bytes <= self.tm.page_size(),
            "allocation {bytes} exceeds page size"
        );
        let class = self.class_for(bytes);
        let class_bytes = self.class_bytes(class);

        // Grab a partial slab or start a new one.
        if self.arenas[class].partial.is_empty() {
            let page = self.tm.alloc(now)?;
            self.held_pages += 1;
            let slots = (self.tm.page_size() / class_bytes) as u16;
            self.arenas[class].partial.push(Slab {
                page,
                free_slots: (0..slots).rev().collect(),
                live: 0,
            });
        }
        let slab = self.arenas[class]
            .partial
            .last_mut()
            .expect("just ensured a partial slab");
        slab.free_slots.pop().expect("partial slab has a slot");
        slab.live += 1;
        let page = slab.page;
        if slab.free_slots.is_empty() {
            let slab = self.arenas[class].partial.pop().expect("it exists");
            self.arenas[class].full.insert(slab.page, slab);
        }

        let id = AllocId(self.next_id);
        self.next_id += 1;
        self.allocations.insert(
            id,
            AllocMeta {
                class,
                page,
                bytes: class_bytes,
            },
        );
        self.live_bytes += class_bytes;
        Ok(id)
    }

    /// Frees an allocation. The backing page returns to the memory
    /// system only when its slab becomes entirely empty — the §4.1
    /// fragmentation behaviour.
    ///
    /// # Panics
    ///
    /// Panics on an unknown (already freed) id.
    pub fn free(&mut self, id: AllocId) {
        let meta = self
            .allocations
            .remove(&id)
            .expect("free of unknown allocation");
        self.live_bytes -= meta.bytes;
        let arena = &mut self.arenas[meta.class];

        // The slab is either full (move back to partial) or partial.
        let mut slab = if let Some(s) = arena.full.remove(&meta.page) {
            arena.partial.push(s);
            arena.partial.pop().expect("just pushed")
        } else {
            let idx = arena
                .partial
                .iter()
                .position(|s| s.page == meta.page)
                .expect("slab must exist");
            arena.partial.swap_remove(idx)
        };
        slab.live -= 1;
        slab.free_slots.push(0); // Slot identity is not tracked; count is.
        if slab.live == 0 {
            // Whole slab free: return the page.
            self.tm.free(slab.page);
            self.held_pages -= 1;
        } else {
            arena.partial.push(slab);
        }
    }

    /// Touches an allocation's backing page (read or write of its bytes).
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn touch(&mut self, id: AllocId, rw: Rw, now: SimTime) -> AccessOutcome {
        let meta = self.allocations[&id];
        self.tm.touch(meta.page, rw, meta.bytes, now)
    }

    /// Location of an allocation's backing page.
    pub fn location(&self, id: AllocId) -> Location {
        self.tm.location(self.allocations[&id].page)
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.allocations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_topology::{NodeId, SncMode};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn allocator() -> TieredAllocator {
        let topo = Topology::paper_testbed(SncMode::Disabled);
        TieredAllocator::new(
            &topo,
            TierConfig::bind(vec![NodeId(0)]),
            AllocConfig::default(),
        )
    }

    #[test]
    fn alloc_rounds_up_to_size_class() {
        let mut a = allocator();
        let id = a.alloc(1000, SimTime::ZERO).unwrap();
        assert_eq!(a.live_bytes(), 1024);
        assert_eq!(a.live_count(), 1);
        a.free(id);
        assert_eq!(a.live_bytes(), 0);
        assert_eq!(a.held_bytes(), 0);
    }

    #[test]
    fn slab_packs_multiple_allocations_per_page() {
        let mut a = allocator();
        // 4 x 1 KiB fit one 4 KiB page.
        let ids: Vec<_> = (0..4)
            .map(|_| a.alloc(1024, SimTime::ZERO).unwrap())
            .collect();
        assert_eq!(a.held_bytes(), 4096);
        // A fifth spills to a second page.
        let extra = a.alloc(1024, SimTime::ZERO).unwrap();
        assert_eq!(a.held_bytes(), 8192);
        for id in ids {
            a.free(id);
        }
        a.free(extra);
        assert_eq!(a.held_bytes(), 0);
    }

    #[test]
    fn page_retained_while_any_slot_live() {
        // The §4.1 behaviour: deleting keys does not return memory when
        // a neighbour on the page is still live.
        let mut a = allocator();
        let first = a.alloc(1024, SimTime::ZERO).unwrap();
        let second = a.alloc(1024, SimTime::ZERO).unwrap();
        a.free(first);
        assert_eq!(a.live_bytes(), 1024);
        assert_eq!(a.held_bytes(), 4096, "page must stay resident");
        assert!(a.fragmentation() > 0.7);
        a.free(second);
        assert_eq!(a.held_bytes(), 0);
    }

    #[test]
    fn random_churn_fragmentation_is_substantial() {
        // Allocate many values, free a random half: RSS stays well above
        // live bytes — the reason Redis provisions for peak (§4.1).
        let mut a = allocator();
        let mut rng = SmallRng::seed_from_u64(42);
        let mut ids: Vec<AllocId> = (0..4096)
            .map(|_| a.alloc(1024, SimTime::ZERO).unwrap())
            .collect();
        // Shuffle and free half.
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        for id in ids.drain(..2048) {
            a.free(id);
        }
        let frag = a.fragmentation();
        assert!(
            frag > 0.25,
            "expected substantial fragmentation, got {frag}"
        );
        assert!(a.held_bytes() > a.live_bytes());
    }

    #[test]
    fn allocations_follow_placement_policy() {
        let topo = Topology::paper_testbed(SncMode::Disabled);
        let mut cfg = TierConfig::bind(vec![NodeId(0)]);
        cfg.policy = cxl_tier::AllocPolicy::interleave(vec![NodeId(0)], vec![NodeId(2)], 1, 1);
        let mut a = TieredAllocator::new(&topo, cfg, AllocConfig::default());
        // One allocation per page (2 KiB class leaves one slot... use
        // 2048 x 2 slots; to force multiple pages allocate many).
        let ids: Vec<_> = (0..64)
            .map(|_| a.alloc(2048, SimTime::ZERO).unwrap())
            .collect();
        let on_cxl = ids
            .iter()
            .filter(|&&id| a.location(id) == Location::Node(NodeId(2)))
            .count();
        assert!(on_cxl > 16, "interleave places some slabs on CXL: {on_cxl}");
    }

    #[test]
    fn between_class_and_page_takes_whole_page() {
        // 3000 B exceeds the largest (2048) class: whole-page allocation.
        let mut a = allocator();
        let id = a.alloc(3000, SimTime::ZERO).unwrap();
        assert_eq!(a.live_bytes(), 4096);
        assert_eq!(a.held_bytes(), 4096);
        let id2 = a.alloc(3000, SimTime::ZERO).unwrap();
        assert_eq!(a.held_bytes(), 8192, "whole-page class: one per page");
        a.free(id);
        a.free(id2);
        assert_eq!(a.held_bytes(), 0);
    }

    #[test]
    fn touch_reaches_the_backing_page() {
        let mut a = allocator();
        let id = a.alloc(512, SimTime::ZERO).unwrap();
        let out = a.touch(id, Rw::Read, SimTime::from_us(1));
        assert_eq!(out.location, a.location(id));
        let epoch = a.tier_mut().drain_epoch();
        assert_eq!(epoch.node_read_bytes[&NodeId(0)], 512);
    }

    #[test]
    fn oom_propagates() {
        let topo = Topology::paper_testbed(SncMode::Disabled);
        let mut cfg = TierConfig::bind(vec![NodeId(0)]);
        cfg.capacity_override = vec![(NodeId(0), 4096)];
        let mut a = TieredAllocator::new(&topo, cfg, AllocConfig::default());
        for _ in 0..4 {
            a.alloc(1024, SimTime::ZERO).unwrap();
        }
        assert!(a.alloc(1024, SimTime::ZERO).is_err());
    }

    #[test]
    #[should_panic(expected = "free of unknown allocation")]
    fn double_free_panics() {
        let mut a = allocator();
        let id = a.alloc(64, SimTime::ZERO).unwrap();
        a.free(id);
        a.free(id);
    }

    #[test]
    #[should_panic(expected = "exceeds page size")]
    fn oversized_request_panics() {
        allocator().alloc(8192, SimTime::ZERO).unwrap();
    }

    #[test]
    #[should_panic(expected = "size classes must be ascending")]
    fn unsorted_classes_rejected() {
        let topo = Topology::paper_testbed(SncMode::Disabled);
        TieredAllocator::new(
            &topo,
            TierConfig::bind(vec![NodeId(0)]),
            AllocConfig {
                size_classes: vec![256, 128],
            },
        );
    }
}
