//! Network fault injection: the flaky-dial-up-link model.
//!
//! The tutorial's claim is that Notes replication is epidemic and
//! eventually consistent *even over unreliable links*. This module gives
//! the simulator the vocabulary to prove it, mirroring the storage
//! layer's `FaultDisk`/`FaultPlan` style: a seeded deterministic RNG
//! ([`FaultClock`]) drives per-message drops and transient link flaps
//! declared on [`LinkSpec`](crate::LinkSpec), plus scheduled per-server
//! [`Outage`] windows — and every injected fault is accounted so E14 can
//! report convergence cost as a function of loss.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use domino_types::{splitmix64, SPLITMIX64_GAMMA};

/// A seeded deterministic RNG shared by every fault decision in a
/// [`Network`](crate::Network). Clones share state (like `FaultPlan`), so
/// a transport handed to a replicator draws from the same stream as the
/// scheduler that created it — runs are reproducible tick-for-tick from
/// the seed alone.
#[derive(Debug, Clone)]
pub struct FaultClock {
    state: Arc<AtomicU64>,
}

impl Default for FaultClock {
    fn default() -> FaultClock {
        FaultClock::seeded(0xD011_1E7E)
    }
}

impl FaultClock {
    /// A fault clock whose whole decision stream is determined by `seed`.
    pub fn seeded(seed: u64) -> FaultClock {
        FaultClock {
            state: Arc::new(AtomicU64::new(seed)),
        }
    }

    /// Next raw 64-bit draw (SplitMix64 over a shared counter).
    pub fn next_u64(&self) -> u64 {
        let s = self
            .state
            .fetch_add(SPLITMIX64_GAMMA, Ordering::Relaxed)
            .wrapping_add(SPLITMIX64_GAMMA);
        splitmix64(s)
    }

    /// Bernoulli draw: true with probability `p` (clamped to [0, 1]).
    pub fn chance(&self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }

    /// Uniform draw in `[0, max]`.
    pub fn jitter(&self, max: u64) -> u64 {
        if max == 0 {
            0
        } else {
            self.next_u64() % (max + 1)
        }
    }
}

/// A scheduled per-server outage window: the server neither replicates nor
/// routes mail while `from <= now < until` (reboot, crash, maintenance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// Index of the affected server.
    pub server: usize,
    /// First tick of the outage (inclusive).
    pub from: u64,
    /// End of the outage (exclusive).
    pub until: u64,
}

impl Outage {
    /// Is the window active at `now`?
    pub fn active_at(&self, now: u64) -> bool {
        self.from <= now && now < self.until
    }
}

/// Per-link fault accounting (companion to
/// [`LinkTraffic`](crate::LinkTraffic)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkFaults {
    /// Messages lost in flight (per-message drop sampling).
    pub dropped: u64,
    /// Replication passes skipped because the link flapped down.
    pub flaps: u64,
    /// Passes (or mail hops) blocked by a server outage window.
    pub outages: u64,
    /// Passes abandoned with the retry policy exhausted.
    pub aborted_passes: u64,
}

impl LinkFaults {
    /// Fold another link's counters into this one.
    pub fn merge_from(&mut self, other: &LinkFaults) {
        self.dropped += other.dropped;
        self.flaps += other.flaps;
        self.outages += other.outages;
        self.aborted_passes += other.aborted_passes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_are_reproducible() {
        let a = FaultClock::seeded(42);
        let b = FaultClock::seeded(42);
        let da: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let db: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(da, db);
        assert_ne!(
            da,
            (0..16)
                .map(|_| FaultClock::seeded(43).next_u64())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn clones_share_the_stream() {
        let a = FaultClock::seeded(7);
        let b = a.clone();
        let x = a.next_u64();
        let y = b.next_u64();
        assert_ne!(x, y, "clone advanced the shared state");
    }

    #[test]
    fn chance_extremes() {
        let c = FaultClock::seeded(1);
        assert!(!c.chance(0.0));
        assert!(c.chance(1.0));
        // A 30% coin lands true roughly 30% of the time.
        let hits = (0..10_000).filter(|_| c.chance(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "{hits}");
    }

    #[test]
    fn outage_window_bounds() {
        let o = Outage {
            server: 1,
            from: 100,
            until: 200,
        };
        assert!(!o.active_at(99));
        assert!(o.active_at(100));
        assert!(o.active_at(199));
        assert!(!o.active_at(200));
    }
}
