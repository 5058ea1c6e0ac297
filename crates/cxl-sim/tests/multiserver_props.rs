//! Differential test of [`cxl_sim::MultiServer::submit`]'s server pick.
//!
//! `submit` scans for the first earliest-free server with a strict `<`.
//! The reference below keeps the pick it replaced,
//! `min_by_key(|&(i, &t)| (t, i))`, and the two must agree on every
//! request, ties included.

use cxl_sim::queueing::Completion;
use cxl_sim::{MultiServer, SimTime};
use proptest::prelude::*;

/// `k` FIFO servers picked by `min_by_key` over `(horizon, index)`.
struct Reference {
    busy_until: Vec<SimTime>,
    completed: u64,
    busy_time: SimTime,
}

impl Reference {
    fn new(k: usize) -> Self {
        Self {
            busy_until: vec![SimTime::ZERO; k],
            completed: 0,
            busy_time: SimTime::ZERO,
        }
    }

    fn submit(&mut self, arrival: SimTime, service: SimTime) -> Completion {
        let (server, &free_at) = self
            .busy_until
            .iter()
            .enumerate()
            .min_by_key(|&(i, &t)| (t, i))
            .expect("at least one server");
        let start = free_at.max(arrival);
        let finish = start + service;
        self.busy_until[server] = finish;
        self.completed += 1;
        self.busy_time += service;
        Completion {
            server,
            start,
            finish,
        }
    }

    fn makespan(&self) -> SimTime {
        *self.busy_until.iter().max().expect("at least one server")
    }
}

/// Arrival instants and service times come from four values each, all
/// multiples of 10 ns, so server horizons tie often.
const ARRIVAL_NS: [u64; 4] = [0, 10, 20, 40];
const SERVICE_NS: [u64; 4] = [0, 10, 10, 30];

proptest! {
    #[test]
    fn submit_picks_what_min_by_key_picked(
        k in 1usize..=16,
        requests in prop::collection::vec((0usize..4, 0usize..4), 0..256),
    ) {
        let mut q = MultiServer::new(k);
        let mut reference = Reference::new(k);
        for (n, &(a, s)) in requests.iter().enumerate() {
            let arrival = SimTime::from_ns(ARRIVAL_NS[a] * (n as u64 / 8));
            let service = SimTime::from_ns(SERVICE_NS[s]);
            let got = q.submit(arrival, service);
            let want = reference.submit(arrival, service);
            prop_assert_eq!(got, want, "k = {}, request {}", k, n);
            prop_assert_eq!(q.makespan(), reference.makespan());
            prop_assert_eq!(q.completed(), reference.completed);
            prop_assert_eq!(q.busy_time(), reference.busy_time);
        }
    }
}
