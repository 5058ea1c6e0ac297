//! The event loop: a time-ordered heap of pending events.
//!
//! # Storage design
//!
//! Each heap entry is a pending event whole: its key `(time, seq)`,
//! where `seq` is the FIFO tie-break, and its boxed closure. Dispatch
//! pops the earliest entry and runs its closure; nothing else is kept
//! per event. An [`EventId`] is the event's `seq`, and
//! [`Engine::cancel`] removes the matching entry, dropping its closure
//! at once. That scans the heap, O(pending events), which is cheap
//! enough because no simulation path cancels.
//!
//! A long time-sorted batch (an open-loop arrival trace) goes in as a
//! *stream* ([`Engine::schedule_stream`]): one seq per item is reserved
//! up front, but only the next item sits in the heap, so pending-event
//! memory does not grow with the batch.
//!
//! # Counts
//!
//! The engine counts executed and cancelled events and the most events
//! live at once, and hands these to `cxl-obs` once, when it drops or
//! [`Engine::into_state`] returns, as `sim/events_executed`,
//! `sim/events_cancelled` and `sim/heap_depth_max`: each only when
//! nonzero, and nothing while the thread is panicking.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::time::SimTime;

/// Handle to a scheduled event, usable for cancellation.
///
/// Holds the event's seq, unique within its engine; it becomes stale (a
/// cancel no-op) once the event executes or is cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

type EventFn<S> = Box<dyn FnOnce(&mut Engine<S>)>;

/// A pending event, ordered by its `(at, seq)` key alone.
struct Pending<S> {
    at: SimTime,
    seq: u64,
    f: EventFn<S>,
}

impl<S> Pending<S> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<S> PartialEq for Pending<S> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<S> Eq for Pending<S> {}

impl<S> PartialOrd for Pending<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<S> Ord for Pending<S> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// The engine's tallies, handed to `cxl-obs` when they drop. A field of
/// their own, so that `Engine` has no `Drop` and [`Engine::into_state`]
/// can move the state out.
#[derive(Default)]
struct Counts {
    executed: u64,
    cancelled: u64,
    /// Most live events at once.
    depth_max: usize,
}

impl Drop for Counts {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        if self.executed > 0 {
            cxl_obs::counter_add("sim/events_executed", self.executed);
        }
        if self.cancelled > 0 {
            cxl_obs::counter_add("sim/events_cancelled", self.cancelled);
        }
        if self.depth_max > 0 {
            cxl_obs::counter_max("sim/heap_depth_max", self.depth_max as u64);
        }
    }
}

/// A deterministic discrete-event engine over user state `S`.
///
/// Events are closures receiving `&mut Engine<S>`; they may read/mutate
/// the state via [`Engine::state_mut`] and schedule further events.
/// Simultaneous events run in scheduling order (FIFO tie-break).
pub struct Engine<S> {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<Pending<S>>>,
    /// Scheduled and neither executed nor cancelled, including stream
    /// items not yet in the heap.
    live: usize,
    state: S,
    counts: Counts,
}

impl<S> Engine<S> {
    /// Creates an engine at time zero with the given state.
    pub fn new(state: S) -> Self {
        Self {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            live: 0,
            state,
            counts: Counts::default(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.counts.executed
    }

    /// Number of live pending events (scheduled, not yet executed, not
    /// cancelled).
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

    /// Consumes the engine, returning the state. The engine's counts go
    /// to `cxl-obs` here.
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
        let seq = self.seq;
        self.push(at, seq, Box::new(f));
        self.seq += 1;
        self.add_live(1);
        EventId(seq)
    }

    /// Files `f` in the heap under the key `(at, seq)`: the one insertion
    /// path, shared by [`Engine::schedule_at`] and stream items. Seq and
    /// live accounting are the caller's.
    fn push(&mut self, at: SimTime, seq: u64, f: EventFn<S>) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        self.heap.push(Reverse(Pending { at, seq, f }));
    }

    /// Counts `n` newly scheduled events as live.
    fn add_live(&mut self, n: usize) {
        self.live += n;
        self.counts.depth_max = self.counts.depth_max.max(self.live);
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
        self.add_live(len);
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
    /// event is a no-op. Scans every pending event.
    pub fn cancel(&mut self, id: EventId) {
        let pending = self.heap.len();
        self.heap.retain(|Reverse(p)| p.seq != id.0);
        if self.heap.len() < pending {
            self.live -= 1;
            self.counts.cancelled += 1;
        }
    }

    /// Executes the next event if its timestamp is `<= until` (no bound
    /// when `None`), advancing time.
    fn step_bounded(&mut self, until: Option<SimTime>) -> bool {
        let Some(next) = self.heap.peek_mut() else {
            return false;
        };
        if until.is_some_and(|limit| next.0.at > limit) {
            return false;
        }
        let Reverse(Pending { at, f, .. }) = PeekMut::pop(next);
        self.live -= 1;
        self.now = at;
        self.counts.executed += 1;
        f(self);
        true
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
    /// `until` (if it is later than the last event).
    pub fn run_until(&mut self, until: SimTime) {
        while self.step_bounded(Some(until)) {}
        if self.now < until {
            self.now = until;
        }
    }

    /// True when no live events remain.
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
        // The hot self-rescheduling pattern must not grow the heap: one
        // live event at a time needs exactly one entry.
        let mut e: Engine<u64> = Engine::new(0);
        fn tick(e: &mut Engine<u64>) {
            *e.state_mut() += 1;
            if *e.state() < 100 {
                e.schedule_after(SimTime::from_ns(10), tick);
            }
            assert!(e.heap.len() <= 1, "self-reschedule grew the heap");
        }
        e.schedule_after(SimTime::from_ns(10), tick);
        e.run();
        assert_eq!(*e.state(), 100);
        assert!(e.heap.is_empty());
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
        // not when the clock eventually reaches its timestamp.
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
        // A stale id, of an executed event, must not cancel an event
        // scheduled after it.
        let mut e: Engine<u32> = Engine::new(0);
        let old = e.schedule_at(SimTime::from_ns(10), |e| *e.state_mut() += 1);
        e.run();
        assert_eq!(*e.state(), 1);
        e.schedule_at(SimTime::from_ns(20), |e| *e.state_mut() += 100);
        e.cancel(old); // Executed: no-op.
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
        assert_eq!(e.counts.depth_max, 3);
        // Unfired stream items are live although only one is in the heap
        // (next to the three live events; a's entry is gone).
        let stream = (50..55u32).map(|t| (SimTime::from_ns(t.into()), ()));
        e.schedule_stream(stream, |_, ()| {});
        assert_eq!(e.heap.len(), 4);
        assert_eq!(e.counts.depth_max, 8);
        e.run_until(SimTime::from_ns(51));
        // Five ran (b, c, d and two stream items): live is 3, then 4.
        e.schedule_at(SimTime::from_ns(60), |_| {});
        assert_eq!(e.live_events(), 4);
        assert_eq!(e.counts.depth_max, 8);
        assert!(reg.is_empty(), "the counts wait for the engine to drop");
        drop(e);
        drop(guard);
        assert_eq!(reg.max("sim/heap_depth_max"), Some(8));
        assert_eq!(reg.counter("sim/events_executed"), Some(5));
        assert_eq!(reg.counter("sim/events_cancelled"), Some(1));
    }

    #[test]
    fn a_panicking_engine_hands_over_nothing() {
        let reg = std::sync::Arc::new(cxl_obs::Registry::new());
        let _guard = cxl_obs::scope(reg.clone());
        let run = std::panic::catch_unwind(|| {
            let mut e: Engine<u32> = Engine::new(0);
            e.schedule_at(SimTime::from_ns(10), |_| {});
            e.schedule_at(SimTime::from_ns(20), |_| panic!("event failed"));
            e.run();
        });
        assert!(run.is_err());
        assert!(reg.is_empty(), "a panicking engine touched the registry");
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
            assert!(e.heap.len() <= 6, "heap grew to {} entries", e.heap.len());
        });
        assert_eq!(e.live_events(), n as usize);
        assert_eq!(e.heap.len(), 1);
        e.run();
        assert_eq!(*e.state(), u64::from(n));
        assert_eq!(e.executed(), 2 * u64::from(n));
        assert!(e.is_idle());
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
        // Cancel 97% of a large burst: the cancelled entries must leave
        // the heap while the survivors still run in exact time order.
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
            "cancel should have removed the entries (heap: {})",
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
