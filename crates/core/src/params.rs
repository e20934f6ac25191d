//! Controller parameters and the level / distance arithmetic of the paper.
//!
//! For a fixed upper bound `U` on the number of nodes ever to exist, the paper
//! (§3.1) defines
//!
//! * `φ = max{⌊W / 2U⌋, 1}` — the granularity of static packages (a static
//!   package holds between 1 and `φ` permits, a mobile package of *level* `i`
//!   holds exactly `2^i · φ`);
//! * `ψ = 4⌈log U + 2⌉ · max{⌈U / W⌉, 1}` — the distance scale: a *filler
//!   node* for a request at `u` is an ancestor `w` holding a level-`j` mobile
//!   package with `d(u, w) ≤ 2ψ` when `j = 0`, or `2^j ψ < d(u, w) ≤ 2^{j+1}ψ`
//!   when `j ≥ 1`;
//! * during distribution, the level-`k` package left behind sits at the
//!   ancestor `u_k` of `u` at distance `3·2^{k−1}ψ`.
//!
//! All of this integer arithmetic is concentrated in [`Params`] so that the
//! centralized and distributed controllers share exactly the same math.

use crate::ControllerError;

/// The parameters `(M, W, U)` of a single (fixed-bound) controller instance,
/// together with the derived quantities `φ` and `ψ`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Params {
    /// Permit budget `M`.
    pub m: u64,
    /// Waste bound `W` (the base construction requires `W ≥ 1`).
    pub w: u64,
    /// Upper bound `U` on the number of nodes ever to exist (initial nodes
    /// plus all insertions).
    pub u: u64,
    /// Static-package granularity `φ`.
    pub phi: u64,
    /// Distance scale `ψ` (always a positive multiple of 4).
    pub psi: u64,
}

impl Params {
    /// Derives the parameters for an `(m, w)`-controller with node bound `u`.
    ///
    /// # Errors
    ///
    /// * [`ControllerError::ZeroWasteUnsupported`] if `w == 0` (the base
    ///   construction needs `W ≥ 1`; Observation 3.4's halving schedule,
    ///   whose rounds all have `W ≥ 1`, serves `W = 0`);
    /// * [`ControllerError::WasteExceedsBudget`] if `w > m`.
    pub fn new(m: u64, w: u64, u: u64) -> Result<Self, ControllerError> {
        if w == 0 {
            return Err(ControllerError::ZeroWasteUnsupported);
        }
        if w > m {
            return Err(ControllerError::WasteExceedsBudget { m, w });
        }
        let u = u.max(1);
        let phi = (w / (2 * u)).max(1);
        let log_term = ceil_log2(u) + 2;
        let psi = 4 * log_term * div_ceil(u, w).max(1);
        Ok(Params { m, w, u, phi, psi })
    }

    /// Size (number of permits) of a mobile package of level `level`.
    pub fn mobile_size(&self, level: u32) -> u64 {
        self.phi.saturating_mul(1u64 << level.min(63))
    }

    /// Returns `true` if an ancestor at hop distance `dist` holding a
    /// level-`level` mobile package is a *filler node* for the requesting
    /// node.
    pub fn is_filler_band(&self, dist: u64, level: u32) -> bool {
        if level == 0 {
            dist <= 2 * self.psi
        } else {
            let lo = self.psi.saturating_mul(1u64 << level.min(63));
            let hi = self.psi.saturating_mul(1u64 << (level + 1).min(63));
            lo < dist && dist <= hi
        }
    }

    /// The level `j(u)` used when no filler exists on the way to the root:
    /// the smallest `j ≥ 0` such that `d(u, root) ≤ 2^{j+1} ψ`.
    pub fn root_level_for_distance(&self, dist: u64) -> u32 {
        let mut j = 0u32;
        while self.psi.saturating_mul(1u64 << (j + 1).min(63)) < dist {
            j += 1;
        }
        j
    }

    /// Distance from the requesting node `u` to the deposit point `u_k`:
    /// `d(u, u_k) = 3·2^{k−1}·ψ` (an integer because `ψ` is a multiple of 4).
    pub fn deposit_distance(&self, k: u32) -> u64 {
        // 3 * 2^{k-1} * psi  ==  (3 * psi / 2) << k
        (3 * self.psi / 2).saturating_mul(1u64 << k.min(63))
    }

    /// The theoretical move/message bound of the fixed-bound controller
    /// (Lemma 3.3): `U · (M / W) · log² U`, used by experiments to compare the
    /// measured cost against the claimed shape.
    pub fn single_shot_bound(&self) -> f64 {
        let u = self.u as f64;
        let log2u = (self.u.max(2) as f64).log2();
        u * (self.m as f64 / self.w as f64) * log2u * log2u
    }

    /// The theoretical bound of the iterated controller (Observation 3.4):
    /// `U · log² U · log(M / (W+1))`.
    pub fn iterated_bound(&self) -> f64 {
        let u = self.u as f64;
        let log2u = (self.u.max(2) as f64).log2();
        let ratio = (self.m as f64 / (self.w as f64 + 1.0)).max(2.0);
        u * log2u * log2u * ratio.log2()
    }
}

/// `⌈log2(x)⌉` for `x ≥ 1` (0 for `x = 1`).
pub(crate) fn ceil_log2(x: u64) -> u64 {
    if x <= 1 {
        0
    } else {
        64 - (x - 1).leading_zeros() as u64
    }
}

/// `⌈a / b⌉` for `b > 0`.
pub(crate) fn div_ceil(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_matches_reference() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(matches!(
            Params::new(10, 0, 100),
            Err(ControllerError::ZeroWasteUnsupported)
        ));
        assert!(matches!(
            Params::new(3, 5, 100),
            Err(ControllerError::WasteExceedsBudget { .. })
        ));
    }

    #[test]
    fn phi_is_one_when_waste_is_small() {
        // W < 2U  =>  phi = 1  (the paper's "no static packages" regime).
        let p = Params::new(100, 10, 100).unwrap();
        assert_eq!(p.phi, 1);
    }

    #[test]
    fn phi_scales_with_large_waste() {
        let p = Params::new(10_000, 4_000, 100).unwrap();
        assert_eq!(p.phi, 4_000 / 200);
    }

    #[test]
    fn psi_is_a_positive_multiple_of_four() {
        for (m, w, u) in [
            (10u64, 1u64, 1u64),
            (100, 7, 64),
            (1000, 999, 512),
            (8, 8, 3),
        ] {
            let p = Params::new(m, w, u).unwrap();
            assert!(p.psi >= 4, "psi too small for {m},{w},{u}");
            assert_eq!(p.psi % 4, 0);
        }
    }

    #[test]
    fn mobile_sizes_double_per_level() {
        let p = Params::new(1000, 200, 10).unwrap();
        assert_eq!(p.mobile_size(0), p.phi);
        assert_eq!(p.mobile_size(3), 8 * p.phi);
    }

    #[test]
    fn filler_bands_partition_distances() {
        let p = Params::new(100, 5, 64).unwrap();
        let psi = p.psi;
        assert!(p.is_filler_band(0, 0));
        assert!(p.is_filler_band(2 * psi, 0));
        assert!(!p.is_filler_band(2 * psi + 1, 0));
        assert!(p.is_filler_band(2 * psi + 1, 1));
        assert!(p.is_filler_band(4 * psi, 1));
        assert!(!p.is_filler_band(4 * psi + 1, 1));
        assert!(p.is_filler_band(8 * psi, 2));
        assert!(!p.is_filler_band(2 * psi, 1));
        assert!(!p.is_filler_band(2 * psi, 2));
    }

    #[test]
    fn root_level_is_minimal() {
        let p = Params::new(100, 5, 64).unwrap();
        let psi = p.psi;
        assert_eq!(p.root_level_for_distance(0), 0);
        assert_eq!(p.root_level_for_distance(2 * psi), 0);
        assert_eq!(p.root_level_for_distance(2 * psi + 1), 1);
        assert_eq!(p.root_level_for_distance(4 * psi), 1);
        assert_eq!(p.root_level_for_distance(4 * psi + 1), 2);
        // Minimality: the band of the returned level always contains the
        // distance (for dist > 0).
        for dist in 1..(16 * psi) {
            let j = p.root_level_for_distance(dist);
            assert!(dist <= psi * (1 << (j + 1)));
            if j > 0 {
                assert!(dist > psi * (1 << j));
            }
        }
    }

    #[test]
    fn deposit_distances_follow_the_three_halves_rule() {
        let p = Params::new(100, 5, 64).unwrap();
        let psi = p.psi;
        assert_eq!(p.deposit_distance(0), 3 * psi / 2);
        assert_eq!(p.deposit_distance(1), 3 * psi);
        assert_eq!(p.deposit_distance(2), 6 * psi);
        // The deposit point for level k lies inside the filler band for level
        // k, so packages left behind are later discoverable.
        for k in 0..6u32 {
            let d = p.deposit_distance(k);
            assert!(
                p.is_filler_band(d, k),
                "deposit point of level {k} not in its band"
            );
        }
    }

    #[test]
    fn bounds_are_monotone_in_u() {
        let small = Params::new(1000, 10, 64).unwrap();
        let large = Params::new(1000, 10, 4096).unwrap();
        assert!(large.single_shot_bound() > small.single_shot_bound());
        assert!(large.iterated_bound() > small.iterated_bound());
    }
}
