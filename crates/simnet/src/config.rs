//! Simulator configuration: random seed and message-delay model.

use dcn_rng::Rng;

/// Distribution of per-hop message delays (in abstract time units).
///
/// The paper's model only requires delays to be *arbitrary but finite*; the
/// simulator lets tests and experiments pick a concrete adversary:
///
/// ```
/// use dcn_simnet::{DelayModel, SimConfig};
/// let cfg = SimConfig::new(42).with_delay(DelayModel::Uniform { min: 1, max: 16 });
/// assert_eq!(cfg.seed, 42);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelayModel {
    /// Every message takes exactly this many time units (a synchronous-like
    /// schedule, useful for debugging).
    Constant(u64),
    /// Delays drawn uniformly from `[min, max]`.
    Uniform {
        /// Minimum delay (clamped to at least 1).
        min: u64,
        /// Maximum delay.
        max: u64,
    },
    /// A bimodal adversary: most messages are fast (`fast`), but with
    /// probability `slow_percent`% a message is delayed by `slow` units.
    /// Exercises reordering between neighbouring requests.
    Bimodal {
        /// Common-case delay.
        fast: u64,
        /// Slow-path delay.
        slow: u64,
        /// Percentage (0..=100) of messages that take the slow path.
        slow_percent: u8,
    },
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel::Uniform { min: 1, max: 8 }
    }
}

impl DelayModel {
    /// Samples one delay; always at least 1.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        match *self {
            DelayModel::Constant(d) => d.max(1),
            DelayModel::Uniform { min, max } => {
                let lo = min.max(1);
                let hi = max.max(lo);
                rng.gen_range(lo..=hi)
            }
            DelayModel::Bimodal {
                fast,
                slow,
                slow_percent,
            } => {
                if rng.gen_range(0u8..100) < slow_percent.min(100) {
                    slow.max(1)
                } else {
                    fast.max(1)
                }
            }
        }
    }
}

/// Configuration of a [`Simulator`](crate::Simulator).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Seed for the simulator's deterministic RNG, whose one consumer is the
    /// per-hop delay ([`DelayModel::sample`]; `Constant` draws nothing).
    pub seed: u64,
    /// Message delay model.
    pub delay: DelayModel,
    /// Safety valve: the most events one
    /// [`Simulator::run_events`](crate::Simulator::run_events) slice may
    /// process before it gives up and reports an error. A slice with a
    /// budget of at most this many events never trips it.
    pub max_events: u64,
}

impl SimConfig {
    /// Creates a configuration with the given seed and default delays.
    pub fn new(seed: u64) -> Self {
        SimConfig {
            seed,
            delay: DelayModel::default(),
            max_events: 50_000_000,
        }
    }

    /// Sets the message delay model.
    pub fn with_delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Sets the event-count safety valve.
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_rng::{DetRng, SeedableRng};

    #[test]
    fn constant_delay_is_at_least_one() {
        let mut rng = DetRng::seed_from_u64(1);
        assert_eq!(DelayModel::Constant(0).sample(&mut rng), 1);
        assert_eq!(DelayModel::Constant(5).sample(&mut rng), 5);
    }

    #[test]
    fn uniform_delay_respects_bounds() {
        let mut rng = DetRng::seed_from_u64(2);
        let m = DelayModel::Uniform { min: 3, max: 9 };
        for _ in 0..200 {
            let d = m.sample(&mut rng);
            assert!((3..=9).contains(&d));
        }
    }

    #[test]
    fn uniform_delay_with_inverted_bounds_degenerates_gracefully() {
        let mut rng = DetRng::seed_from_u64(3);
        let m = DelayModel::Uniform { min: 7, max: 2 };
        for _ in 0..50 {
            assert_eq!(m.sample(&mut rng), 7);
        }
    }

    #[test]
    fn bimodal_produces_both_modes() {
        let mut rng = DetRng::seed_from_u64(4);
        let m = DelayModel::Bimodal {
            fast: 1,
            slow: 100,
            slow_percent: 50,
        };
        let samples: Vec<u64> = (0..300).map(|_| m.sample(&mut rng)).collect();
        assert!(samples.contains(&1));
        assert!(samples.contains(&100));
    }

    #[test]
    fn config_builder_sets_fields() {
        let cfg = SimConfig::new(9)
            .with_delay(DelayModel::Constant(2))
            .with_max_events(123);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.delay, DelayModel::Constant(2));
        assert_eq!(cfg.max_events, 123);
    }

    #[test]
    fn sampling_is_deterministic_for_a_fixed_seed() {
        let m = DelayModel::Uniform { min: 1, max: 100 };
        let mut a = DetRng::seed_from_u64(77);
        let mut b = DetRng::seed_from_u64(77);
        let sa: Vec<u64> = (0..50).map(|_| m.sample(&mut a)).collect();
        let sb: Vec<u64> = (0..50).map(|_| m.sample(&mut b)).collect();
        assert_eq!(sa, sb);
    }
}
