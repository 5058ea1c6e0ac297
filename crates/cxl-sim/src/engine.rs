//! The event loop: a time-ordered heap over an arena of event slots.
//!
//! # Storage design
//!
//! Event closures live in a slab (`slots`) indexed by the heap entries;
//! a heap entry is `(time, seq, slot)` where `seq` is the FIFO
//! tie-break and `slot` the arena index. This replaces the former
//! `BinaryHeap<(SimTime, u64)>` + side `HashMap<(SimTime, u64),
//! Scheduled>` + `HashSet<EventId>` design: dispatch is an array index
//! instead of two sip-hashed map operations, the common
//! execute-then-reschedule path reuses the just-freed slot without
//! growing the arena, and cancellation tombstones the slot in place —
//! dropping the closure immediately and decrementing the live-event
//! count — so the old design's stale-cancel leak (and the `is_idle`
//! count-matching bug it caused) cannot be expressed.
//!
//! Slot reuse is guarded by a per-slot generation: an [`EventId`] packs
//! `(slot, generation)`, and a cancel whose generation no longer
//! matches the slot's is the documented no-op, never a hit on an
//! unrelated event that happens to reuse the slot.
//!
//! A long time-sorted batch (an open-loop arrival trace) goes in as a
//! *stream* ([`Engine::schedule_stream`]): one seq per item is reserved
//! up front, but only the next item occupies a slot and a heap entry,
//! so pending-event memory does not grow with the batch.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Handle to a scheduled event, usable for cancellation.
///
/// Packs the arena slot index and the slot's generation at scheduling
/// time; it is engine-specific and becomes stale (a cancel no-op) once
/// the event executes or is cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    fn pack(slot: u32, gen: u32) -> Self {
        EventId(((slot as u64) << 32) | gen as u64)
    }

    fn slot(self) -> usize {
        (self.0 >> 32) as usize
    }

    fn gen(self) -> u32 {
        self.0 as u32
    }
}

type EventFn<S> = Box<dyn FnOnce(&mut Engine<S>)>;

/// One arena slot: a generation guard plus the event closure.
///
/// `f` is `Some` while the event is live; a cancelled event keeps its
/// heap entry (a *tombstone*) but its closure is dropped eagerly, so
/// long-lead cancelled timers do not hold captured state for the rest
/// of the run.
struct Slot<S> {
    gen: u32,
    f: Option<EventFn<S>>,
}

/// A deterministic discrete-event engine over user state `S`.
///
/// Events are closures receiving `&mut Engine<S>`; they may read/mutate
/// the state via [`Engine::state_mut`] and schedule further events.
/// Simultaneous events run in scheduling order (FIFO tie-break).
pub struct Engine<S> {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    slots: Vec<Slot<S>>,
    free: Vec<u32>,
    /// Scheduled and neither executed nor cancelled, including stream
    /// items not yet in the heap.
    live: usize,
    state: S,
    executed: u64,
}

impl<S> Engine<S> {
    /// Creates an engine at time zero with the given state.
    pub fn new(state: S) -> Self {
        Self {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            state,
            executed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of live pending events (scheduled, not yet executed, not
    /// cancelled). Cancelled-but-unreaped tombstones are excluded.
    #[cfg(test)]
    fn live_events(&self) -> usize {
        self.live
    }

    /// Shared access to the user state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Mutable access to the user state.
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
    }

    /// Consumes the engine, returning the state.
    pub fn into_state(self) -> S {
        self.state
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut Engine<S>) + 'static,
    ) -> EventId {
        let id = self.push(at, self.seq, Box::new(f));
        self.seq += 1;
        self.live += 1;
        // True live depth: tombstones of cancelled events don't count.
        cxl_obs::counter_max("sim/heap_depth_max", self.live as u64);
        id
    }

    /// Files `f` in the heap under the key `(at, seq)`: the one insertion
    /// path, shared by [`Engine::schedule_at`] and stream items. Seq and
    /// live accounting are the caller's.
    fn push(&mut self, at: SimTime, seq: u64, f: EventFn<S>) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(Slot { gen: 0, f: None });
                debug_assert!(self.slots.len() <= u32::MAX as usize, "arena overflow");
                (self.slots.len() - 1) as u32
            }
        };
        let si = slot as usize;
        self.slots[si].f = Some(f);
        self.heap.push(Reverse((at, seq, slot)));
        EventId::pack(slot, self.slots[si].gen)
    }

    /// Schedules every item of a time-sorted stream, running `f` on each
    /// at its time, while only the next item sits in the heap.
    ///
    /// One seq per item is reserved here, so each item keeps the exact
    /// `(time, seq)` key — and so the execution order — that scheduling
    /// them all now with [`Engine::schedule_at`] would give it. Unfired
    /// items count as live: [`Engine::is_idle`] and `sim/heap_depth_max`
    /// mean "scheduled, not yet run" whether or not an item is in the
    /// heap yet. When an item fires, `f` runs and the item then pulls
    /// its successor from `items` into the heap. Exactly `items.len()`
    /// items are taken. Stream items cannot be cancelled.
    ///
    /// # Panics
    ///
    /// Panics if an item is in the past when it enters the heap: the
    /// first at install, a later one when it is earlier than the item
    /// before it. Also panics if `items` ends before its reported length.
    pub fn schedule_stream<T, I, F>(&mut self, items: I, f: F)
    where
        I: IntoIterator<Item = (SimTime, T)>,
        I::IntoIter: ExactSizeIterator + 'static,
        T: 'static,
        F: FnMut(&mut Engine<S>, T) + 'static,
    {
        let mut items = items.into_iter();
        let len = items.len();
        if len == 0 {
            return;
        }
        let (at, item) = items.next().expect(SHORT_STREAM);
        let seq = self.seq;
        Stream {
            items,
            f,
            left: len - 1,
        }
        .push_item(self, at, seq, item);
        self.seq += len as u64;
        self.live += len;
        cxl_obs::counter_max("sim/heap_depth_max", self.live as u64);
    }

    /// Schedules an event after a delay from now.
    pub fn schedule_after(
        &mut self,
        delay: SimTime,
        f: impl FnOnce(&mut Engine<S>) + 'static,
    ) -> EventId {
        let at = self.now + delay;
        self.schedule_at(at, f)
    }

    /// Schedules a repeating event: `f` runs every `period` starting one
    /// period from now, rescheduling itself while it returns `true`.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero (the loop would never advance time).
    pub fn schedule_every(
        &mut self,
        period: SimTime,
        f: impl FnMut(&mut Engine<S>) -> bool + 'static,
    ) {
        assert!(period > SimTime::ZERO, "repeating period must be positive");
        fn tick<S>(
            e: &mut Engine<S>,
            period: SimTime,
            mut f: impl FnMut(&mut Engine<S>) -> bool + 'static,
        ) {
            if f(e) {
                e.schedule_after(period, move |e| tick(e, period, f));
            }
        }
        self.schedule_after(period, move |e| tick(e, period, f));
    }

    /// Cancels a scheduled event, dropping its closure immediately.
    /// Cancelling an already-executed, already-cancelled, or unknown
    /// event is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        let si = id.slot();
        if let Some(slot) = self.slots.get_mut(si) {
            if slot.gen == id.gen() && slot.f.is_some() {
                slot.f = None; // Tombstone; the heap entry reaps lazily.
                self.live -= 1;
                cxl_obs::counter_add("sim/events_cancelled", 1);
                self.maybe_compact();
            }
        }
    }

    /// Rebuilds the heap without tombstones once they outnumber live
    /// events. An O(len) filter + heapify here replaces O(len · log
    /// len) sift-downs of lazy reaping, and since each compaction
    /// removes at least half the heap, the cost amortizes to O(1) per
    /// cancellation. Live events keep their `(time, seq, slot)` keys,
    /// so the pop order — and therefore execution order — is untouched.
    fn maybe_compact(&mut self) {
        const MIN_HEAP: usize = 16;
        if self.heap.len() < MIN_HEAP || self.live * 2 >= self.heap.len() {
            return;
        }
        let slots = &mut self.slots;
        let free = &mut self.free;
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.retain(|&Reverse((_, _, slot))| {
            let si = slot as usize;
            if slots[si].f.is_some() {
                true
            } else {
                slots[si].gen = slots[si].gen.wrapping_add(1);
                free.push(slot);
                false
            }
        });
        self.heap = BinaryHeap::from(entries);
    }

    /// Returns the slot to the free list, invalidating outstanding ids.
    fn free_slot(&mut self, si: usize) {
        self.slots[si].gen = self.slots[si].gen.wrapping_add(1);
        self.free.push(si as u32);
    }

    /// Executes the next live event with timestamp `<= until` (no bound
    /// when `None`), advancing time. Tombstones at the heap head are
    /// reaped regardless of their timestamp, but never count as
    /// execution and never let a live event beyond the boundary run.
    fn step_bounded(&mut self, until: Option<SimTime>) -> bool {
        while let Some(&Reverse((t, _, slot))) = self.heap.peek() {
            let si = slot as usize;
            if self.slots[si].f.is_none() {
                // Cancelled: reap the tombstone and keep looking.
                self.heap.pop();
                self.free_slot(si);
                continue;
            }
            if let Some(limit) = until {
                if t > limit {
                    return false;
                }
            }
            self.heap.pop();
            let f = self.slots[si].f.take().expect("live slot has a closure");
            // Free before dispatch: a reschedule inside `f` reuses this
            // slot without growing the arena.
            self.free_slot(si);
            self.live -= 1;
            self.now = t;
            self.executed += 1;
            cxl_obs::counter_add("sim/events_executed", 1);
            f(self);
            return true;
        }
        false
    }

    /// Executes the next event, advancing time. Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        self.step_bounded(None)
    }

    /// Runs until the queue drains.
    pub fn run(&mut self) {
        while self.step_bounded(None) {}
    }

    /// Runs events with timestamps `<= until`, then sets the clock to
    /// `until` (if it is later than the last event). Cancelled events
    /// before the boundary are skipped without ever letting a live
    /// event *beyond* the boundary run.
    pub fn run_until(&mut self, until: SimTime) {
        while self.step_bounded(Some(until)) {}
        if self.now < until {
            self.now = until;
        }
    }

    /// True when no live events remain (tombstones don't count).
    pub fn is_idle(&self) -> bool {
        self.live == 0
    }
}

const SHORT_STREAM: &str = "stream yielded fewer items than its len()";

/// The unfired tail of a [`Engine::schedule_stream`]: the items not yet
/// pulled, and the handler each item runs.
struct Stream<I, F> {
    items: I,
    f: F,
    /// Items still to pull from `items`.
    left: usize,
}

impl<I, F> Stream<I, F> {
    /// Files `item` under its reserved key `(at, seq)`. When it fires, it
    /// runs the handler and then files its successor under `seq + 1`;
    /// the clock is then at `at`, so a successor earlier than its
    /// predecessor trips the past-time check.
    fn push_item<S, T>(mut self, e: &mut Engine<S>, at: SimTime, seq: u64, item: T)
    where
        I: Iterator<Item = (SimTime, T)> + 'static,
        T: 'static,
        F: FnMut(&mut Engine<S>, T) + 'static,
    {
        let fire = move |e: &mut Engine<S>| {
            (self.f)(e, item);
            if self.left > 0 {
                self.left -= 1;
                let (next_at, next) = self.items.next().expect(SHORT_STREAM);
                self.push_item(e, next_at, seq + 1, next);
            }
        };
        e.push(at, seq, Box::new(fire));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut e: Engine<Vec<u32>> = Engine::new(Vec::new());
        e.schedule_after(SimTime::from_ns(30), |e| e.state_mut().push(3));
        e.schedule_after(SimTime::from_ns(10), |e| e.state_mut().push(1));
        e.schedule_after(SimTime::from_ns(20), |e| e.state_mut().push(2));
        e.run();
        assert_eq!(e.state(), &vec![1, 2, 3]);
        assert_eq!(e.now(), SimTime::from_ns(30));
        assert_eq!(e.executed(), 3);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut e: Engine<Vec<u32>> = Engine::new(Vec::new());
        for i in 0..10 {
            e.schedule_at(SimTime::from_ns(5), move |e| e.state_mut().push(i));
        }
        e.run();
        assert_eq!(e.state(), &(0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut e: Engine<u64> = Engine::new(0);
        fn tick(e: &mut Engine<u64>) {
            *e.state_mut() += 1;
            if *e.state() < 5 {
                e.schedule_after(SimTime::from_ns(100), tick);
            }
        }
        e.schedule_after(SimTime::from_ns(100), tick);
        e.run();
        assert_eq!(*e.state(), 5);
        assert_eq!(e.now(), SimTime::from_ns(500));
    }

    #[test]
    fn reschedule_reuses_the_arena_slot() {
        // The hot self-rescheduling pattern must not grow the arena:
        // one live event at a time needs exactly one slot.
        let mut e: Engine<u64> = Engine::new(0);
        fn tick(e: &mut Engine<u64>) {
            *e.state_mut() += 1;
            if *e.state() < 100 {
                e.schedule_after(SimTime::from_ns(10), tick);
            }
        }
        e.schedule_after(SimTime::from_ns(10), tick);
        e.run();
        assert_eq!(*e.state(), 100);
        assert_eq!(e.slots.len(), 1, "self-reschedule must reuse its slot");
    }

    #[test]
    fn schedule_every_repeats_until_false() {
        let mut e: Engine<u32> = Engine::new(0);
        e.schedule_every(SimTime::from_ns(10), |e| {
            *e.state_mut() += 1;
            *e.state() < 5
        });
        e.run();
        assert_eq!(*e.state(), 5);
        assert_eq!(e.now(), SimTime::from_ns(50));
    }

    #[test]
    #[should_panic(expected = "repeating period must be positive")]
    fn zero_period_rejected() {
        let mut e: Engine<u32> = Engine::new(0);
        e.schedule_every(SimTime::ZERO, |_| true);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut e: Engine<u32> = Engine::new(0);
        let id = e.schedule_after(SimTime::from_ns(10), |e| *e.state_mut() += 1);
        e.schedule_after(SimTime::from_ns(20), |e| *e.state_mut() += 100);
        e.cancel(id);
        e.run();
        assert_eq!(*e.state(), 100);
        assert_eq!(e.executed(), 1);
    }

    #[test]
    fn cancel_drops_the_closure_immediately() {
        use std::rc::Rc;
        let token = Rc::new(());
        let captured = token.clone();
        let mut e: Engine<u32> = Engine::new(0);
        let id = e.schedule_after(SimTime::from_ns(1_000_000), move |_| {
            let _keep = &captured;
        });
        assert_eq!(Rc::strong_count(&token), 2);
        e.cancel(id);
        // The closure (and its captures) must be gone at cancel time,
        // not when the clock eventually reaches the tombstone.
        assert_eq!(Rc::strong_count(&token), 1);
        e.run();
        assert_eq!(e.executed(), 0);
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut e: Engine<u32> = Engine::new(0);
        e.schedule_at(SimTime::from_ns(10), |e| *e.state_mut() += 1);
        e.schedule_at(SimTime::from_ns(50), |e| *e.state_mut() += 1);
        e.run_until(SimTime::from_ns(30));
        assert_eq!(*e.state(), 1);
        assert_eq!(e.now(), SimTime::from_ns(30));
        assert!(!e.is_idle());
        e.run();
        assert_eq!(*e.state(), 2);
    }

    #[test]
    fn run_until_exact_boundary_inclusive() {
        let mut e: Engine<u32> = Engine::new(0);
        e.schedule_at(SimTime::from_ns(10), |e| *e.state_mut() += 1);
        e.run_until(SimTime::from_ns(10));
        assert_eq!(*e.state(), 1);
    }

    #[test]
    fn run_until_does_not_overrun_past_cancelled_head() {
        // Regression: with a cancelled event at t=10 at the heap head,
        // run_until(30) used to pop past it and execute the next live
        // event even though that event's timestamp (50) was beyond the
        // boundary.
        let mut e: Engine<u32> = Engine::new(0);
        let early = e.schedule_at(SimTime::from_ns(10), |e| *e.state_mut() += 1);
        e.schedule_at(SimTime::from_ns(50), |e| *e.state_mut() += 100);
        e.cancel(early);
        e.run_until(SimTime::from_ns(30));
        assert_eq!(*e.state(), 0, "no event may execute before t=50");
        assert_eq!(e.executed(), 0);
        assert_eq!(e.now(), SimTime::from_ns(30));
        assert!(!e.is_idle(), "the t=50 event is still pending");
        e.run();
        assert_eq!(*e.state(), 100);
        assert_eq!(e.now(), SimTime::from_ns(50));
    }

    #[test]
    fn cancel_after_execute_does_not_corrupt_idle_accounting() {
        // Regression: `is_idle` used to compare heap and cancel-set
        // *counts*, so one stale cancel (of an already-executed id)
        // plus one genuinely pending event reported idle.
        let mut e: Engine<u32> = Engine::new(0);
        let a = e.schedule_at(SimTime::from_ns(10), |e| *e.state_mut() += 1);
        e.schedule_at(SimTime::from_ns(40), |e| *e.state_mut() += 100);
        e.run_until(SimTime::from_ns(20));
        assert_eq!(*e.state(), 1, "first event ran");
        e.cancel(a); // Stale: a already executed. Documented no-op.
        assert!(!e.is_idle(), "one live event remains");
        assert_eq!(e.live_events(), 1);
        e.run();
        assert_eq!(*e.state(), 101);
        assert!(e.is_idle());
    }

    #[test]
    fn stale_cancel_never_hits_a_slot_reuser() {
        // The slot of an executed event is recycled; a stale id into
        // that slot must not cancel the new tenant.
        let mut e: Engine<u32> = Engine::new(0);
        let old = e.schedule_at(SimTime::from_ns(10), |e| *e.state_mut() += 1);
        e.run();
        assert_eq!(*e.state(), 1);
        e.schedule_at(SimTime::from_ns(20), |e| *e.state_mut() += 100);
        e.cancel(old); // Generation mismatch: no-op.
        e.run();
        assert_eq!(*e.state(), 101, "reused slot's event must survive");
    }

    #[test]
    fn double_cancel_is_a_noop() {
        let mut e: Engine<u32> = Engine::new(0);
        let id = e.schedule_at(SimTime::from_ns(10), |e| *e.state_mut() += 1);
        e.schedule_at(SimTime::from_ns(20), |e| *e.state_mut() += 100);
        e.cancel(id);
        e.cancel(id);
        assert_eq!(e.live_events(), 1);
        e.run();
        assert_eq!(*e.state(), 100);
    }

    #[test]
    fn heap_depth_metric_reports_live_events_not_tombstones() {
        let reg = std::sync::Arc::new(cxl_obs::Registry::new());
        let guard = cxl_obs::scope(reg.clone());
        let mut e: Engine<u32> = Engine::new(0);
        let a = e.schedule_at(SimTime::from_ns(10), |_| {});
        let _b = e.schedule_at(SimTime::from_ns(20), |_| {});
        let _c = e.schedule_at(SimTime::from_ns(30), |_| {});
        e.cancel(a);
        // Live is 2; a fourth schedule may not report depth 4.
        e.schedule_at(SimTime::from_ns(40), |_| {});
        assert_eq!(reg.max("sim/heap_depth_max"), Some(3));
        // Unfired stream items are live although only one is in the heap
        // (next to the three live keys and a's tombstone).
        let stream = (50..55u32).map(|t| (SimTime::from_ns(t.into()), ()));
        e.schedule_stream(stream, |_, ()| {});
        assert_eq!(e.heap.len(), 5);
        assert_eq!(reg.max("sim/heap_depth_max"), Some(8));
        e.run_until(SimTime::from_ns(51));
        // Five ran (b, c, d and two stream items): live is 3, then 4.
        e.schedule_at(SimTime::from_ns(60), |_| {});
        assert_eq!(e.live_events(), 4);
        assert_eq!(reg.max("sim/heap_depth_max"), Some(8));
        drop(guard);
        assert_eq!(reg.counter("sim/events_cancelled"), Some(1));
    }

    #[test]
    fn long_stream_keeps_the_arena_small() {
        // 100k arrivals, each followed 3 ns later by a completion: the
        // eager form would hold 100k closures; a stream holds the next
        // arrival plus the few completions in flight.
        let mut e: Engine<u64> = Engine::new(0);
        let n = 100_000u32;
        e.schedule_stream((0..n).map(|t| (SimTime::from_ns(t.into()), ())), |e, ()| {
            e.schedule_after(SimTime::from_ns(3), |e| *e.state_mut() += 1);
        });
        assert_eq!(e.live_events(), n as usize);
        assert_eq!(e.slots.len(), 1);
        e.run();
        assert_eq!(*e.state(), u64::from(n));
        assert_eq!(e.executed(), 2 * u64::from(n));
        assert!(e.is_idle());
        assert!(e.slots.len() <= 6, "arena grew to {} slots", e.slots.len());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past: 15ns < 20ns")]
    fn decreasing_stream_times_panic() {
        let mut e: Engine<u32> = Engine::new(0);
        let times = [10, 20, 15, 30];
        e.schedule_stream(times.map(|t| (SimTime::from_ns(t), ())), |_, ()| {});
        e.run();
    }

    #[test]
    fn mass_cancellation_compacts_without_changing_execution() {
        // Cancel 97% of a large burst: compaction must kick in (heap
        // shrinks below the tombstone count) while the survivors still
        // run in exact time order.
        let mut e: Engine<Vec<u64>> = Engine::new(Vec::new());
        let ids: Vec<_> = (0..2_000u64)
            .map(|i| e.schedule_at(SimTime::from_ns(10 + i), move |e| e.state_mut().push(i)))
            .collect();
        for (i, id) in ids.into_iter().enumerate() {
            if i % 32 != 0 {
                e.cancel(id);
            }
        }
        assert!(
            e.heap.len() < 500,
            "compaction should have reaped tombstones (heap: {})",
            e.heap.len()
        );
        assert_eq!(e.live_events(), 63);
        e.run();
        let want: Vec<u64> = (0..2_000u64).filter(|i| i % 32 == 0).collect();
        assert_eq!(e.state(), &want);
        assert!(e.is_idle());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut e: Engine<u32> = Engine::new(0);
        e.schedule_at(SimTime::from_ns(10), |e| {
            e.schedule_at(SimTime::from_ns(5), |_| {});
        });
        e.run();
    }

    #[test]
    fn into_state_returns_final_state() {
        let mut e: Engine<String> = Engine::new(String::new());
        e.schedule_after(SimTime::ZERO, |e| e.state_mut().push('x'));
        e.run();
        assert_eq!(e.into_state(), "x");
    }
}
