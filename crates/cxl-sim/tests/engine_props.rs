//! Differential property test: the heap-based [`Engine`] against a
//! naive reference model.
//!
//! The reference stores every scheduled event in a flat `Vec` and scans
//! it linearly — trivially correct by inspection, with none of the
//! engine's moving parts (the keyed heap, cancel by removal,
//! boundary-aware stepping, streams). Random op scripts mixing
//! schedule, cancel (live / executed / repeated — the stale-id cases
//! behind the old `is_idle` bug), streams (which the reference schedules
//! eagerly, one consecutive seq per item), bounded runs (the old
//! `run_until` overrun, and boundaries inside a stream), and single
//! steps must leave both machines with identical execution order,
//! clock, executed count, and idleness. Every time sits on a 10 ns grid
//! so that equal timestamps, where only the seq decides, are common.
//! When the engine drops inside a scoped registry, its `sim/*` export
//! must match the model's executed count, peak live count and cancels of
//! live events, with no key for a zero count.

use cxl_sim::{Engine, EventId, SimTime};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// One entry per scheduled event or stream item, never removed: a stale
/// handle stays addressable so scripts can exercise cancel-after-execute.
struct RefEvent {
    at: u64,
    seq: u64,
    marker: u32,
    live: bool,
}

/// The obviously-correct model: linear scans over a grow-only vector.
#[derive(Default)]
struct RefModel {
    now: u64,
    seq: u64,
    executed: u64,
    /// Most events live at once, stream items included.
    peak_live: u64,
    /// Cancels that hit a live event.
    cancelled: u64,
    events: Vec<RefEvent>,
    log: Vec<u32>,
}

impl RefModel {
    /// Schedules one event at absolute time `at`; returns its index.
    fn schedule(&mut self, at: u64, marker: u32) -> usize {
        self.events.push(RefEvent {
            at,
            seq: self.seq,
            marker,
            live: true,
        });
        self.seq += 1;
        let live = self.events.iter().filter(|e| e.live).count() as u64;
        self.peak_live = self.peak_live.max(live);
        self.events.len() - 1
    }

    fn cancel(&mut self, idx: usize) {
        if let Some(e) = self.events.get_mut(idx) {
            if e.live {
                self.cancelled += 1;
            }
            e.live = false;
        }
    }

    fn next_live(&self) -> Option<usize> {
        self.events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.live)
            .min_by_key(|(_, e)| (e.at, e.seq))
            .map(|(i, _)| i)
    }

    fn step(&mut self) -> bool {
        match self.next_live() {
            Some(i) => {
                let e = &mut self.events[i];
                e.live = false;
                self.now = e.at;
                self.executed += 1;
                self.log.push(e.marker);
                true
            }
            None => false,
        }
    }

    fn run_until(&mut self, until: u64) {
        while let Some(i) = self.next_live() {
            if self.events[i].at > until {
                break;
            }
            self.step();
        }
        self.now = self.now.max(until);
    }

    fn is_idle(&self) -> bool {
        self.next_live().is_none()
    }
}

/// Script ops, decoded from `(selector, a, b)` triples so the strategy
/// stays a plain tuple vector.
enum Op {
    /// Schedule a no-op-with-marker event up to 990 ns from now.
    Schedule {
        delay: u64,
    },
    /// Cancel the `b`-th handle issued so far (mod count) — may be
    /// live, already executed, or already cancelled.
    Cancel {
        pick: u64,
    },
    /// Stream 0–16 marker items, the first up to 990 ns from now, each
    /// next one 0–30 ns after the previous (0 makes a tie).
    Stream {
        delay: u64,
        gaps: u64,
    },
    /// Run until up to 1490 ns past the current clock.
    RunUntil {
        delta: u64,
    },
    Step,
}

/// Grid step for every time in a script.
const GRID: u64 = 10;

fn decode(sel: u8, a: u64, b: u64) -> Op {
    match sel % 10 {
        // Weight scheduling heavily so scripts build real backlogs.
        0..=3 => Op::Schedule {
            delay: (a % 100) * GRID,
        },
        4 | 5 => Op::Cancel { pick: b },
        6 => Op::Stream {
            delay: (a % 100) * GRID,
            gaps: b,
        },
        7 | 8 => Op::RunUntil {
            delta: (a % 150) * GRID,
        },
        _ => Op::Step,
    }
}

/// The absolute item times of a stream op: the length is `gaps`' top
/// bits mod 17, and item `i`'s gap its bits `2i..2i+2`, in grid steps.
fn stream_times(start: u64, gaps: u64) -> Vec<u64> {
    let len = (gaps >> 40) % 17;
    let mut at = start;
    (0..len)
        .map(|i| {
            if i > 0 {
                at += ((gaps >> (2 * i)) & 3) * GRID;
            }
            at
        })
        .collect()
}

proptest! {
    /// Any op script drives both machines through identical histories.
    #[test]
    fn arena_engine_matches_reference_model(
        script in prop::collection::vec((any::<u8>(), 0u64..10_000, any::<u64>()), 1..120)
    ) {
        let reg = Arc::new(cxl_obs::Registry::new());
        let scope = cxl_obs::scope(reg.clone());
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let mut eng: Engine<()> = Engine::new(());
        // Each handle with the index of its event in the reference.
        let mut ids: Vec<(EventId, usize)> = Vec::new();
        let mut mref = RefModel::default();
        let mut marker: u32 = 0;

        for &(sel, a, b) in &script {
            match decode(sel, a, b) {
                Op::Schedule { delay } => {
                    let m = marker;
                    marker += 1;
                    let sink = log.clone();
                    let id = eng.schedule_after(
                        SimTime::from_ns(delay),
                        move |_| sink.borrow_mut().push(m),
                    );
                    ids.push((id, mref.schedule(mref.now + delay, m)));
                }
                Op::Cancel { pick } => {
                    if !ids.is_empty() {
                        let (id, idx) = ids[(pick % ids.len() as u64) as usize];
                        eng.cancel(id);
                        mref.cancel(idx);
                    }
                }
                Op::Stream { delay, gaps } => {
                    let items: Vec<(SimTime, u32)> = stream_times(mref.now + delay, gaps)
                        .into_iter()
                        .map(|at| {
                            let m = marker;
                            marker += 1;
                            mref.schedule(at, m);
                            (SimTime::from_ns(at), m)
                        })
                        .collect();
                    let sink = log.clone();
                    eng.schedule_stream(items, move |_, m| sink.borrow_mut().push(m));
                }
                Op::RunUntil { delta } => {
                    let until = mref.now + delta;
                    eng.run_until(SimTime::from_ns(until));
                    mref.run_until(until);
                }
                Op::Step => {
                    let stepped = eng.step();
                    prop_assert_eq!(stepped, mref.step(), "step disagreed");
                }
            }
            prop_assert_eq!(eng.now(), SimTime::from_ns(mref.now), "clock diverged");
            prop_assert_eq!(eng.executed(), mref.executed, "executed count diverged");
            prop_assert_eq!(eng.is_idle(), mref.is_idle(), "idleness diverged");
        }

        eng.run();
        while mref.step() {}
        prop_assert_eq!(eng.now(), SimTime::from_ns(mref.now));
        prop_assert_eq!(eng.executed(), mref.executed);
        prop_assert!(eng.is_idle() && mref.is_idle());
        prop_assert_eq!(&*log.borrow(), &mref.log, "execution order diverged");

        // The engine hands its counts to the registry current when it
        // drops, each under its key only when nonzero.
        drop(eng);
        drop(scope);
        let nonzero = |n: u64| (n > 0).then_some(n);
        prop_assert_eq!(reg.counter("sim/events_executed"), nonzero(mref.executed));
        prop_assert_eq!(reg.max("sim/heap_depth_max"), nonzero(mref.peak_live));
        prop_assert_eq!(reg.counter("sim/events_cancelled"), nonzero(mref.cancelled));
        let keys = [mref.executed, mref.peak_live, mref.cancelled];
        prop_assert_eq!(reg.len(), keys.iter().filter(|&&n| n > 0).count(), "stray key");
    }
}
