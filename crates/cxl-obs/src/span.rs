//! Scoped wall-clock timing.

use std::time::Instant;

/// A wall-clock span: created by [`crate::span`], records its elapsed
/// nanoseconds into a [`crate::Class::Wall`] histogram when dropped.
///
/// When no registry is [`crate::active`] at start, the span is inert —
/// it never reads the clock and drop does nothing, keeping instrumented
/// hot paths at ~zero cost while metrics are off.
#[derive(Debug)]
pub struct Span {
    armed: Option<(String, Instant)>,
}

impl Span {
    /// Starts timing `name` if any registry is active on this thread.
    pub(crate) fn start(name: &str) -> Self {
        let armed = crate::active().then(|| (name.to_string(), Instant::now()));
        Span { armed }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, started)) = self.armed.take() {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            crate::wall_record(&name, ns);
        }
    }
}
