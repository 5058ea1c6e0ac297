//! Multi-server FIFO queue bookkeeping.
//!
//! KeyDB runs several server threads over one event loop (§4.1.1); the
//! LLM router spreads requests over backends (§5). Both reduce to "k
//! identical servers, FIFO": given an arrival time and a service time,
//! the request starts on the earliest-free server.

use crate::time::SimTime;

/// Tracks the busy-until horizon of `k` identical FIFO servers.
///
/// # Examples
///
/// ```
/// use cxl_sim::{MultiServer, SimTime};
///
/// let mut q = MultiServer::new(2);
/// // Two requests arrive together; both start immediately.
/// let a = q.submit(SimTime::ZERO, SimTime::from_ns(100));
/// let b = q.submit(SimTime::ZERO, SimTime::from_ns(50));
/// assert_eq!(a.start, SimTime::ZERO);
/// assert_eq!(b.start, SimTime::ZERO);
/// // The third queues behind the earliest finisher.
/// let c = q.submit(SimTime::ZERO, SimTime::from_ns(10));
/// assert_eq!(c.start, SimTime::from_ns(50));
/// ```
#[derive(Debug, Clone)]
pub struct MultiServer {
    busy_until: Vec<SimTime>,
    completed: u64,
    busy_time: SimTime,
}

/// Outcome of submitting one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Index of the server that executed the request.
    pub server: usize,
    /// When service began.
    pub start: SimTime,
    /// When service finished.
    pub finish: SimTime,
}

impl Completion {
    /// Total sojourn time (queueing + service) from the given arrival.
    pub fn sojourn(&self, arrival: SimTime) -> SimTime {
        self.finish.saturating_sub(arrival)
    }
}

impl MultiServer {
    /// Creates `k` idle servers.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one server");
        Self {
            busy_until: vec![SimTime::ZERO; k],
            completed: 0,
            busy_time: SimTime::ZERO,
        }
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.busy_until.len()
    }

    /// Submits a request arriving at `arrival` requiring `service` time;
    /// it is assigned to the earliest-free server, the lowest-numbered
    /// one among ties.
    #[inline]
    pub fn submit(&mut self, arrival: SimTime, service: SimTime) -> Completion {
        // A strict `<` keeps the first minimum, so the scan picks what
        // `min_by_key(|(i, t)| (t, i))` would, without the tuple compare.
        let (mut server, mut free_at) = (0, self.busy_until[0]);
        for (i, &t) in self.busy_until.iter().enumerate().skip(1) {
            if t < free_at {
                (server, free_at) = (i, t);
            }
        }
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

    /// Earliest time any server becomes free.
    #[cfg(test)]
    fn earliest_free(&self) -> SimTime {
        *self.busy_until.iter().min().expect("at least one server")
    }

    /// Latest busy-until horizon (the makespan so far).
    pub fn makespan(&self) -> SimTime {
        *self.busy_until.iter().max().expect("at least one server")
    }

    /// Requests completed (submitted) so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Aggregate busy time across servers.
    pub fn busy_time(&self) -> SimTime {
        self.busy_time
    }

    /// Mean server utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.busy_time.as_secs_f64() / (horizon.as_secs_f64() * self.servers() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_server_serializes() {
        let mut q = MultiServer::new(1);
        let a = q.submit(SimTime::ZERO, SimTime::from_ns(10));
        let b = q.submit(SimTime::ZERO, SimTime::from_ns(10));
        assert_eq!(a.finish, SimTime::from_ns(10));
        assert_eq!(b.start, SimTime::from_ns(10));
        assert_eq!(b.finish, SimTime::from_ns(20));
        assert_eq!(q.makespan(), SimTime::from_ns(20));
    }

    #[test]
    fn parallel_servers_overlap() {
        let mut q = MultiServer::new(4);
        for _ in 0..4 {
            let c = q.submit(SimTime::ZERO, SimTime::from_ns(100));
            assert_eq!(c.start, SimTime::ZERO);
        }
        assert_eq!(q.earliest_free(), SimTime::from_ns(100));
    }

    #[test]
    fn idle_gap_respected() {
        let mut q = MultiServer::new(1);
        q.submit(SimTime::ZERO, SimTime::from_ns(10));
        let late = q.submit(SimTime::from_ns(100), SimTime::from_ns(5));
        assert_eq!(late.start, SimTime::from_ns(100));
        assert_eq!(late.finish, SimTime::from_ns(105));
    }

    #[test]
    fn sojourn_includes_queueing() {
        let mut q = MultiServer::new(1);
        q.submit(SimTime::ZERO, SimTime::from_ns(100));
        let c = q.submit(SimTime::from_ns(10), SimTime::from_ns(20));
        assert_eq!(c.sojourn(SimTime::from_ns(10)), SimTime::from_ns(110));
    }

    #[test]
    fn utilization_accounting() {
        let mut q = MultiServer::new(2);
        q.submit(SimTime::ZERO, SimTime::from_ns(50));
        q.submit(SimTime::ZERO, SimTime::from_ns(50));
        let u = q.utilization(SimTime::from_ns(100));
        assert!((u - 0.5).abs() < 1e-12);
        assert_eq!(q.completed(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        MultiServer::new(0);
    }
}
