//! Queueing-delay curves: flat until a knee, then super-linear growth.
//!
//! §3.2 observes that memory latency "remains relatively stable at low to
//! moderate bandwidth utilization levels" and "increases exponentially as
//! bandwidth approaches higher levels, primarily due to queuing delays in
//! the memory controller", with the knee at 75–83 % for reads and moving
//! left as the write share grows.

/// Maximum utilization used when evaluating queue curves; demands beyond
/// this are clamped by the bandwidth solver instead. A numerical guard
/// on the `1 / (1 − u)` pole, not a fitted model parameter.
const MAX_UTILIZATION: f64 = 0.995;

/// A per-resource queueing-delay model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueModel {
    /// Utilization at which queueing becomes significant for a read-only
    /// blend (write-heavy blends shift the knee left).
    pub knee: f64,
    /// How far left (in utilization) the knee moves for a write-only
    /// blend.
    pub knee_write_shift: f64,
    /// Delay scale in ns; multiplies the super-linear term.
    pub queue_scale_ns: f64,
    /// Gentle pre-knee growth: extra ns at 100 % utilization.
    pub linear_ns: f64,
}

impl QueueModel {
    /// Creates a model with a fixed knee (no write shift).
    pub fn fixed(knee: f64, queue_scale_ns: f64, linear_ns: f64) -> Self {
        Self {
            knee,
            knee_write_shift: 0.0,
            queue_scale_ns,
            linear_ns,
        }
    }

    /// Effective knee for a blend with the given write fraction.
    pub fn knee_for(&self, write_fraction: f64) -> f64 {
        (self.knee - self.knee_write_shift * write_fraction.clamp(0.0, 1.0)).max(0.05)
    }

    /// Queueing delay in ns at `utilization` for a blend with
    /// `write_fraction` writes.
    ///
    /// Utilization above [`MAX_UTILIZATION`] is clamped — the bandwidth
    /// solver prevents sustained demand beyond capacity, so the clamp
    /// only shapes the asymptote.
    pub fn delay_ns(&self, utilization: f64, write_fraction: f64) -> f64 {
        let u = utilization.clamp(0.0, MAX_UTILIZATION);
        let knee = self.knee_for(write_fraction);
        let linear = self.linear_ns * u;
        if u <= knee {
            return linear;
        }
        let x = (u - knee) / (1.0 - knee);
        linear + self.queue_scale_ns * x * x / (1.0 - u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> QueueModel {
        QueueModel {
            knee: 0.80,
            knee_write_shift: 0.18,
            queue_scale_ns: 55.0,
            linear_ns: 18.0,
        }
    }

    #[test]
    fn flat_before_knee() {
        let m = model();
        let at_half = m.delay_ns(0.5, 0.0);
        assert!(at_half <= m.linear_ns * 0.5 + 1e-9);
        assert!(m.delay_ns(0.0, 0.0) == 0.0);
    }

    #[test]
    fn monotone_in_utilization() {
        let m = model();
        let mut prev = -1.0;
        for i in 0..=99 {
            let u = i as f64 / 100.0;
            let d = m.delay_ns(u, 0.3);
            assert!(d >= prev, "delay not monotone at u={u}");
            prev = d;
        }
    }

    #[test]
    fn blows_up_near_saturation() {
        let m = model();
        let d95 = m.delay_ns(0.95, 0.0);
        let d99 = m.delay_ns(0.99, 0.0);
        assert!(d95 > 50.0, "d95={d95}");
        assert!(d99 > 3.0 * d95, "d99={d99} d95={d95}");
    }

    #[test]
    fn knee_shifts_left_with_writes() {
        let m = model();
        assert!((m.knee_for(0.0) - 0.80).abs() < 1e-12);
        assert!((m.knee_for(1.0) - 0.62).abs() < 1e-12);
        // At u = 0.7 a write-only blend already queues, a read-only one
        // does not (§3.3's leftward knee shift).
        let read = m.delay_ns(0.70, 0.0);
        let write = m.delay_ns(0.70, 1.0);
        assert!(write > read + 1.0, "write {write} read {read}");
    }

    #[test]
    fn clamped_beyond_max_utilization() {
        let m = model();
        assert_eq!(m.delay_ns(5.0, 0.0), m.delay_ns(1.0, 0.0));
        assert!(m.delay_ns(5.0, 0.0).is_finite());
    }

    #[test]
    fn knee_never_below_floor() {
        let m = QueueModel {
            knee: 0.1,
            knee_write_shift: 0.5,
            queue_scale_ns: 10.0,
            linear_ns: 0.0,
        };
        assert!(m.knee_for(1.0) >= 0.05);
    }
}
