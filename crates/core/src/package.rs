//! Permit packages and the per-node package store.
//!
//! Permits travel through the tree in *packages* (§3.1). A **mobile** package
//! of level `i` holds exactly `2^i · φ` permits and is what the distribution
//! procedure `Proc` moves and splits; a **static** package holds between 1 and
//! `φ` permits and only ever grants permits to requests arriving at its host
//! node; a **reject** package represents infinitely many rejects.
//!
//! For the name-assignment application (§5.2) every package may additionally
//! carry an explicit [`PermitInterval`]: the permits are then *serial numbers*
//! and a grant consumes one specific integer. Splitting a package splits its
//! interval in half, so intervals stay contiguous and disjoint.

use crate::params::Params;

/// A contiguous, inclusive range of permit serial numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PermitInterval {
    /// Smallest serial number in the interval.
    pub lo: u64,
    /// Largest serial number in the interval (inclusive).
    pub hi: u64,
}

impl PermitInterval {
    /// Creates the interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "interval bounds out of order: [{lo}, {hi}]");
        PermitInterval { lo, hi }
    }

    /// Number of permits in the interval.
    pub fn len(&self) -> u64 {
        self.hi - self.lo + 1
    }

    /// Intervals are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Splits off the first `count` serial numbers, returning `(taken, rest)`.
    /// `rest` is `None` when the whole interval is taken.
    pub fn split_off(self, count: u64) -> (PermitInterval, Option<PermitInterval>) {
        debug_assert!(count >= 1 && count <= self.len());
        let taken = PermitInterval::new(self.lo, self.lo + count - 1);
        let rest = if count == self.len() {
            None
        } else {
            Some(PermitInterval::new(self.lo + count, self.hi))
        };
        (taken, rest)
    }

    /// Splits the interval into two contiguous halves of equal size.
    ///
    /// # Panics
    ///
    /// Panics if the interval size is odd (package sizes are powers of two
    /// times `φ`, so this never happens in the controller).
    pub fn halves(self) -> (PermitInterval, PermitInterval) {
        let len = self.len();
        assert!(len % 2 == 0, "cannot halve an odd-sized interval");
        let mid = self.lo + len / 2;
        (
            PermitInterval::new(self.lo, mid - 1),
            PermitInterval::new(mid, self.hi),
        )
    }
}

/// A mobile permit package of a given level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MobilePackage {
    /// Identity of the package (unique per controller instance; used by the
    /// domain auditor and for deterministic tie-breaking).
    pub id: u64,
    /// Level `i`: the package holds `2^i · φ` permits.
    pub level: u32,
    /// Serial-number interval, when the controller runs in interval mode.
    pub interval: Option<PermitInterval>,
}

impl MobilePackage {
    /// Splits this package into two packages of one level lower, assigning
    /// them the given fresh identities. The interval (if any) is split into
    /// its two halves.
    ///
    /// # Panics
    ///
    /// Panics if the package has level 0.
    pub fn split(self, id_a: u64, id_b: u64) -> (MobilePackage, MobilePackage) {
        assert!(self.level > 0, "cannot split a level-0 package");
        let (ia, ib) = match self.interval {
            Some(iv) => {
                let (a, b) = iv.halves();
                (Some(a), Some(b))
            }
            None => (None, None),
        };
        (
            MobilePackage {
                id: id_a,
                level: self.level - 1,
                interval: ia,
            },
            MobilePackage {
                id: id_b,
                level: self.level - 1,
                interval: ib,
            },
        )
    }
}

/// The packages stored at one node: the merged static pool, the mobile
/// packages, and the reject flag.
///
/// Static packages at a node never move (except when the node is deleted and
/// the whole store is handed to the parent), so — as the paper notes in the
/// memory analysis (Claim 4.8) — they can be represented by a single combined
/// pool.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PackageStore {
    static_permits: u64,
    static_intervals: Vec<PermitInterval>,
    mobiles: Vec<MobilePackage>,
    reject: bool,
}

impl PackageStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if the node holds a reject package.
    pub fn has_reject(&self) -> bool {
        self.reject
    }

    /// Places a reject package at the node (idempotent).
    pub fn place_reject(&mut self) {
        self.reject = true;
    }

    /// Number of permits currently available in the static pool.
    pub fn static_permits(&self) -> u64 {
        self.static_permits
    }

    /// Adds `count` permits (optionally a specific serial interval of exactly
    /// that size) to the static pool.
    pub fn add_static(&mut self, count: u64, interval: Option<PermitInterval>) {
        debug_assert!(interval.map_or(true, |iv| iv.len() == count));
        self.static_permits += count;
        if let Some(iv) = interval {
            self.static_intervals.push(iv);
        }
    }

    /// Grants one permit from the static pool. Returns `None` if the pool is
    /// empty; otherwise returns the consumed serial number when the store is
    /// in interval mode.
    pub fn grant_static(&mut self) -> Option<Option<u64>> {
        if self.static_permits == 0 {
            return None;
        }
        self.static_permits -= 1;
        let serial = self.pop_serial();
        Some(serial)
    }

    /// Makes a carried level-0 package of `count` permits static here and
    /// grants one of them (the last step of item 4's distribution). Returns
    /// the consumed serial number when the store is in interval mode.
    #[expect(
        clippy::expect_used,
        reason = "a level-0 package holds phi >= 1 permits, so the pool it fills is non-empty"
    )]
    pub fn settle_and_grant(
        &mut self,
        count: u64,
        interval: Option<PermitInterval>,
    ) -> Option<u64> {
        self.add_static(count, interval);
        self.grant_static()
            .expect("a level-0 package holds at least one permit")
    }

    fn pop_serial(&mut self) -> Option<u64> {
        let last = self.static_intervals.last_mut()?;
        let serial = last.lo;
        if last.lo == last.hi {
            self.static_intervals.pop();
        } else {
            last.lo += 1;
        }
        Some(serial)
    }

    /// Adds a mobile package to the node.
    pub fn add_mobile(&mut self, package: MobilePackage) {
        self.mobiles.push(package);
    }

    /// The mobile packages currently hosted at the node.
    pub fn mobiles(&self) -> &[MobilePackage] {
        &self.mobiles
    }

    /// Number of mobile packages at the node.
    pub fn mobile_count(&self) -> usize {
        self.mobiles.len()
    }

    /// Finds the level of the "best" package that makes this node a filler for
    /// a request at distance `dist`: the smallest level `j` such that the node
    /// hosts a level-`j` mobile package and `dist` lies in the level-`j`
    /// filler band.
    pub fn filler_level(&self, dist: u64, params: &Params) -> Option<u32> {
        self.mobiles
            .iter()
            .filter(|p| params.is_filler_band(dist, p.level))
            .map(|p| p.level)
            .min()
    }

    /// Removes and returns one mobile package of the given level (the one with
    /// the smallest id, for determinism). Returns `None` if no such package is
    /// hosted here.
    pub fn take_mobile(&mut self, level: u32) -> Option<MobilePackage> {
        let idx = self
            .mobiles
            .iter()
            .enumerate()
            .filter(|(_, p)| p.level == level)
            .min_by_key(|(_, p)| p.id)
            .map(|(i, _)| i)?;
        Some(self.mobiles.swap_remove(idx))
    }

    /// Removes and returns the package that makes this node a filler for a
    /// request at distance `dist`: the smallest-id package of the
    /// [`filler_level`](Self::filler_level). `None` if the node is no filler.
    pub fn take_filler(&mut self, dist: u64, params: &Params) -> Option<MobilePackage> {
        let level = self.filler_level(dist, params)?;
        self.take_mobile(level)
    }

    /// Total number of permits stored at this node (static pool plus all
    /// mobile packages), used to count "unused" permits at iteration
    /// boundaries.
    pub fn total_permits(&self, params: &Params) -> u64 {
        self.static_permits
            + self
                .mobiles
                .iter()
                .map(|p| params.mobile_size(p.level))
                .sum::<u64>()
    }

    /// Returns `true` when the store holds neither permits nor a reject
    /// package.
    pub fn is_empty(&self) -> bool {
        self.static_permits == 0 && self.mobiles.is_empty() && !self.reject
    }

    /// Removes every package from the store and returns the number of
    /// permits that were reclaimed.
    pub fn clear(&mut self, params: &Params) -> u64 {
        let reclaimed = self.total_permits(params);
        self.static_permits = 0;
        self.static_intervals.clear();
        self.mobiles.clear();
        self.reject = false;
        reclaimed
    }

    /// Merges another store into this one (graceful hand-off from a deleted
    /// child). Returns the number of packages moved (an estimate of the
    /// hand-off message count).
    pub fn merge(&mut self, other: PackageStore) -> u64 {
        let moved = other.mobiles.len() as u64
            + u64::from(other.static_permits > 0)
            + u64::from(other.reject);
        self.static_permits += other.static_permits;
        self.static_intervals.extend(other.static_intervals);
        self.mobiles.extend(other.mobiles);
        self.reject |= other.reject;
        moved
    }

    /// Estimated memory footprint of this store in bits under the compressed
    /// representation of Claim 4.8: per-level counters of `O(log U)` bits for
    /// mobile packages, `O(log M)` bits for the merged static pool and one bit
    /// for the reject flag.
    pub fn memory_bits(&self, params: &Params) -> u64 {
        let log_u = (params.u.max(2) as f64).log2().ceil() as u64;
        let log_m = (params.m.max(2) as f64).log2().ceil() as u64;
        let levels_present: std::collections::BTreeSet<u32> =
            self.mobiles.iter().map(|p| p.level).collect();
        levels_present.len() as u64 * log_u + log_m + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::new(1_000, 100, 50).unwrap()
    }

    #[test]
    fn interval_arithmetic() {
        let iv = PermitInterval::new(10, 17);
        assert_eq!(iv.len(), 8);
        let (a, b) = iv.halves();
        assert_eq!(a, PermitInterval::new(10, 13));
        assert_eq!(b, PermitInterval::new(14, 17));
        let (taken, rest) = iv.split_off(3);
        assert_eq!(taken, PermitInterval::new(10, 12));
        assert_eq!(rest, Some(PermitInterval::new(13, 17)));
        let (taken, rest) = iv.split_off(8);
        assert_eq!(taken, iv);
        assert_eq!(rest, None);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn interval_rejects_reversed_bounds() {
        let _ = PermitInterval::new(5, 4);
    }

    #[test]
    fn splitting_a_package_halves_level_and_interval() {
        let p = MobilePackage {
            id: 1,
            level: 3,
            interval: Some(PermitInterval::new(0, 7)),
        };
        let (a, b) = p.split(10, 11);
        assert_eq!(a.level, 2);
        assert_eq!(b.level, 2);
        assert_eq!(a.interval, Some(PermitInterval::new(0, 3)));
        assert_eq!(b.interval, Some(PermitInterval::new(4, 7)));
        assert_eq!((a.id, b.id), (10, 11));
    }

    #[test]
    #[should_panic(expected = "level-0")]
    fn splitting_level_zero_panics() {
        let p = MobilePackage {
            id: 1,
            level: 0,
            interval: None,
        };
        let _ = p.split(2, 3);
    }

    #[test]
    fn static_pool_grants_until_empty() {
        let mut store = PackageStore::new();
        store.add_static(2, None);
        assert_eq!(store.static_permits(), 2);
        assert_eq!(store.grant_static(), Some(None));
        assert_eq!(store.grant_static(), Some(None));
        assert_eq!(store.grant_static(), None);
    }

    #[test]
    fn static_pool_with_intervals_returns_serials() {
        let mut store = PackageStore::new();
        store.add_static(3, Some(PermitInterval::new(100, 102)));
        let mut serials = Vec::new();
        while let Some(Some(s)) = store.grant_static() {
            serials.push(s);
        }
        serials.sort_unstable();
        assert_eq!(serials, vec![100, 101, 102]);
    }

    #[test]
    fn filler_level_picks_the_smallest_matching_level() {
        let p = params();
        let mut store = PackageStore::new();
        store.add_mobile(MobilePackage {
            id: 1,
            level: 2,
            interval: None,
        });
        store.add_mobile(MobilePackage {
            id: 2,
            level: 1,
            interval: None,
        });
        // A distance in the level-1 band only.
        let dist = 3 * p.psi;
        assert_eq!(store.filler_level(dist, &p), Some(1));
        // A distance matching neither band.
        assert_eq!(store.filler_level(16 * p.psi + 1, &p), None);
        // A distance in the level-2 band.
        assert_eq!(store.filler_level(6 * p.psi, &p), Some(2));
    }

    #[test]
    fn take_mobile_prefers_smallest_id_and_removes_it() {
        let mut store = PackageStore::new();
        store.add_mobile(MobilePackage {
            id: 7,
            level: 1,
            interval: None,
        });
        store.add_mobile(MobilePackage {
            id: 3,
            level: 1,
            interval: None,
        });
        store.add_mobile(MobilePackage {
            id: 5,
            level: 2,
            interval: None,
        });
        let taken = store.take_mobile(1).unwrap();
        assert_eq!(taken.id, 3);
        assert_eq!(store.mobile_count(), 2);
        assert!(store.take_mobile(4).is_none());
    }

    #[test]
    fn totals_and_clear_reclaim_permits() {
        let p = params();
        let mut store = PackageStore::new();
        store.add_static(3, None);
        store.add_mobile(MobilePackage {
            id: 1,
            level: 2,
            interval: None,
        });
        assert_eq!(store.total_permits(&p), 3 + 4 * p.phi);
        let reclaimed = store.clear(&p);
        assert_eq!(reclaimed, 3 + 4 * p.phi);
        assert!(store.is_empty());
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = PackageStore::new();
        a.add_static(1, None);
        let mut b = PackageStore::new();
        b.add_static(2, None);
        b.add_mobile(MobilePackage {
            id: 9,
            level: 0,
            interval: None,
        });
        b.place_reject();
        let moved = a.merge(b);
        assert!(moved >= 2);
        assert_eq!(a.static_permits(), 3);
        assert_eq!(a.mobile_count(), 1);
        assert!(a.has_reject());
    }

    #[test]
    fn memory_estimate_grows_with_distinct_levels() {
        let p = params();
        let mut store = PackageStore::new();
        let empty_bits = store.memory_bits(&p);
        store.add_mobile(MobilePackage {
            id: 1,
            level: 0,
            interval: None,
        });
        store.add_mobile(MobilePackage {
            id: 2,
            level: 3,
            interval: None,
        });
        store.add_mobile(MobilePackage {
            id: 3,
            level: 3,
            interval: None,
        });
        let with_packages = store.memory_bits(&p);
        assert!(with_packages > empty_bits);
    }
}
