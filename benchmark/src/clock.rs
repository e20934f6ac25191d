//! The harness's one wall clock.
//!
//! Every time the benchmark reports is a difference of two [`now_ns`]
//! readings, so the repo-wide determinism lint has exactly this file to
//! audit: the clock feeds measurements only, never a generated input.

use std::sync::OnceLock;
use std::thread;
use std::time::Duration;
// determinism: a benchmark measures wall time by definition; readings go to
// reported metrics and span stamps, never into a request or a seed.
use std::time::Instant;

// determinism: process-wide origin, so stamps from different threads compare.
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process (monotonic).
pub fn now_ns() -> u64 {
    // determinism: see the import above — measurement only.
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Longest busy-wait before a deadline; anything further away is slept
/// first. Far above the longest gap of any open-loop schedule here, so the
/// generator in effect never sleeps and keeps one of the two cores to
/// itself. That is deliberate: with a generator that sleeps, the server's
/// wake-ups are at the mercy of the host's idle-state policy, and a 10 k
/// req/s run lands in one of two regimes (median latency 60 or 190 µs,
/// server CPU 15 or 35 µs per request) at random. A generator that spins
/// makes the regime constant and its own lateness negligible.
const SPIN_NS: u64 = 10_000_000;

/// Blocks until `deadline_ns` on the [`now_ns`] clock: a coarse sleep up to
/// [`SPIN_NS`] before the deadline, then a spin for the rest. Returns the
/// clock reading at wake-up, which is late by whatever the host added.
pub fn wait_until(deadline_ns: u64) -> u64 {
    loop {
        let now = now_ns();
        if now >= deadline_ns {
            return now;
        }
        let left = deadline_ns - now;
        if left > SPIN_NS {
            thread::sleep(Duration::from_nanos(left - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Iterations of one [`probe_ns`]: about 30 µs of a core's time.
const PROBE_ITERATIONS: u64 = 16_384;

/// What one probe takes at the reference clock, ns. The chain below is one
/// multiply, one add and one shift-xor, each waiting for the one before: a
/// fixed number of core cycles per iteration whatever else the core could
/// do beside it. Two nanoseconds an iteration is what the reference box
/// does in its fast spells.
pub const PROBE_REFERENCE_NS: f64 = PROBE_ITERATIONS as f64 * 2.0;

/// Times a fixed dependent chain on the calling thread: a reading of the
/// clock the core runs at *now*.
///
/// Why the harness needs one: the reference box is a guest whose virtual
/// CPUs flip between two clocks 1.3× apart (15 or 19 ms for the same eight
/// million iterations), for seconds to minutes at a time, with the host's
/// load. Identical work then reads 30 % slower from one run to the next,
/// and no statistic over the slices of one run removes what lasts longer
/// than the run. The probe runs beside every slice, and [`at_reference`]
/// restates the slice's times at one fixed clock.
pub fn probe_ns() -> u64 {
    let start = now_ns();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..PROBE_ITERATIONS {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        x ^= x >> 29;
    }
    std::hint::black_box(x);
    (now_ns() - start).max(1)
}

/// The factor that restates a duration measured beside a probe of
/// `probe_ns` at the reference clock (a rate divides by it). Of the probes
/// around a slice the caller passes the fastest: an interrupt can only make
/// a probe read slow.
pub fn at_reference(probe_ns: u64) -> f64 {
    PROBE_REFERENCE_NS / probe_ns.max(1) as f64
}

/// A duration as measured, and the faster of the probes taken before and
/// after it.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub seconds: f64,
    pub probe_ns: u64,
}

impl Timed {
    pub fn at_reference(&self) -> f64 {
        self.seconds * at_reference(self.probe_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_probe_at_the_reference_clock_changes_nothing() {
        assert_eq!(at_reference(PROBE_REFERENCE_NS as u64), 1.0);
        // A core at two thirds of the reference clock takes 1.5x as long,
        // and what was measured beside it shrinks by as much.
        assert!((at_reference((PROBE_REFERENCE_NS * 1.5) as u64) - 2.0 / 3.0).abs() < 1e-9);
        assert!(at_reference(0).is_finite());
    }

    #[test]
    fn the_probe_takes_tens_of_microseconds() {
        let fastest = (0..16).map(|_| probe_ns()).min().unwrap();
        assert!((5_000..500_000).contains(&fastest), "{fastest} ns");
    }
}
