//! The run's one time base. The driver makes one [`Clock`] per run and
//! clones it into every tracer, node and world of every recovery epoch, so
//! trace stamps, progress clocks, the idle spin, heartbeat ages, backoff,
//! the send timeout and timed kills all count from one instant.
//! [`Clock::manual`] stands still until a test calls [`Clock::advance`]:
//! a timeout is tested by moving the clock past it, not by sleeping.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time since an epoch, on the wall or moved by hand. Clones share it.
#[derive(Debug, Clone)]
pub struct Clock(Base);

#[derive(Debug, Clone)]
enum Base {
    Real(Instant),
    Manual(Arc<AtomicU64>),
}

impl Clock {
    /// A wall clock whose epoch is now.
    pub fn real() -> Clock {
        Clock(Base::Real(wall()))
    }

    /// A clock at zero that moves only by [`Clock::advance`].
    pub fn manual() -> Clock {
        Clock(Base::Manual(Arc::default()))
    }

    /// Time since the epoch.
    #[inline]
    pub fn now(&self) -> Duration {
        match &self.0 {
            Base::Real(epoch) => wall().duration_since(*epoch),
            Base::Manual(nanos) => Duration::from_nanos(nanos.load(Ordering::Acquire)),
        }
    }

    /// [`Clock::now`] in nanoseconds, the form atomics keep.
    #[inline]
    pub fn nanos(&self) -> u64 {
        self.now().as_nanos() as u64
    }

    /// Move a manual clock, and every clone of it, forward by `d`.
    ///
    /// # Panics
    /// On a real clock, which only the wall moves.
    pub fn advance(&self, d: Duration) {
        let Base::Manual(nanos) = &self.0 else {
            panic!("a real clock cannot be advanced");
        };
        nanos.fetch_add(d.as_nanos() as u64, Ordering::AcqRel);
    }
}

/// The one read of the wall behind every clock.
#[allow(clippy::disallowed_methods, reason = "the real clock's read")]
fn wall() -> Instant {
    Instant::now()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_manual_clock_moves_only_when_advanced_and_clones_share_it() {
        let clock = Clock::manual();
        let clone = clock.clone();
        assert_eq!(clock.now(), Duration::ZERO);
        clone.advance(Duration::from_millis(3));
        assert_eq!(clock.now(), Duration::from_millis(3));
        assert_eq!(clock.nanos(), 3_000_000);
    }

    #[test]
    fn a_real_clock_is_monotone_and_cannot_be_advanced() {
        let clock = Clock::real();
        let (a, b) = (clock.now(), clock.now());
        assert!(a <= b);
        let moved = std::panic::catch_unwind(|| clock.advance(Duration::from_secs(1)));
        assert!(moved.is_err());
    }
}
