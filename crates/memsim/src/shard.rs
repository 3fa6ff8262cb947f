//! Shard plans: how the `G`-region dimension is partitioned across shard
//! enclaves, and how the monolithic round's EPC charges stripe over them.
//!
//! A [`ShardPlan`] is a sorted list of stripe boundaries over `0..d`. The
//! sharded round keeps the *coordinator's* canonical accounting untouched
//! (it is what the round report and the hard bitwise invariants are
//! defined over) and mirrors a striped copy of every dimension-
//! proportional charge onto the shard budgets via [`split_charge`] — an
//! exact integer split: the per-shard charges always telescope back to
//! the original byte count, so shard budgets balance to zero exactly when
//! the coordinator's does.

use crate::digest::TraceDigest;

/// A partition of the model dimension `0..d` into `S` contiguous stripes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// Stripe boundaries: `bounds[i]..bounds[i+1]` is shard `i`'s stripe.
    /// Always starts at 0, ends at `d`, and is strictly increasing — every
    /// shard owns at least one coordinate.
    bounds: Vec<usize>,
}

impl ShardPlan {
    /// An even partition of `0..d` into `shards` stripes; the first
    /// `d mod shards` stripes get one extra coordinate.
    ///
    /// # Panics
    /// If `shards == 0` or `shards > d` (a stripe must be non-empty).
    pub fn even(d: usize, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(shards <= d, "cannot split {d} coordinates into {shards} non-empty stripes");
        let (base, extra) = (d / shards, d % shards);
        let mut bounds = Vec::with_capacity(shards + 1);
        let mut at = 0;
        bounds.push(at);
        for i in 0..shards {
            at += base + usize::from(i < extra);
            bounds.push(at);
        }
        ShardPlan { bounds }
    }

    /// A partition with explicit interior boundaries (sorted, strictly
    /// inside `0..d` and strictly increasing).
    ///
    /// # Panics
    /// If the boundaries are not strictly increasing within `1..d`.
    pub fn from_boundaries(d: usize, interior: &[usize]) -> Self {
        let mut bounds = Vec::with_capacity(interior.len() + 2);
        bounds.push(0);
        for &b in interior {
            assert!(b > *bounds.last().expect("non-empty") && b < d, "boundary {b} out of order");
            bounds.push(b);
        }
        bounds.push(d);
        ShardPlan { bounds }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The model dimension the plan partitions.
    pub fn d(&self) -> usize {
        *self.bounds.last().expect("non-empty")
    }

    /// Shard `i`'s stripe as a coordinate range.
    pub fn range(&self, i: usize) -> core::ops::Range<usize> {
        self.bounds[i]..self.bounds[i + 1]
    }

    /// Width of shard `i`'s stripe.
    pub fn span(&self, i: usize) -> usize {
        self.bounds[i + 1] - self.bounds[i]
    }

    /// The shard owning coordinate `index`.
    ///
    /// # Panics
    /// If `index >= d`.
    pub fn owner(&self, index: usize) -> usize {
        assert!(index < self.d(), "coordinate {index} outside dimension {}", self.d());
        // partition_point returns the count of bounds <= index; bounds[0]
        // is 0 so the count is >= 1, and the owner is that count - 1.
        self.bounds.partition_point(|&b| b <= index) - 1
    }

    /// Splits a dimension-proportional charge of `bytes` across the
    /// shards, proportionally to stripe width, rounding so the parts sum
    /// to exactly `bytes`: shard `i` is charged
    /// `bytes·bounds[i+1]/d − bytes·bounds[i]/d` (integer division), a
    /// telescoping series. Deterministic, so alloc and free splits always
    /// mirror each other and shard budgets balance exactly.
    pub fn split_charge(&self, bytes: u64) -> Vec<u64> {
        let d = self.d() as u128;
        let bytes = bytes as u128;
        (0..self.shards())
            .map(|i| {
                let hi = bytes * self.bounds[i + 1] as u128 / d;
                let lo = bytes * self.bounds[i] as u128 / d;
                (hi - lo) as u64
            })
            .collect()
    }

    /// Merges per-shard trace digests into one canonical digest,
    /// absorbing them in ascending shard order (the same digest-of-digests
    /// construction [`crate::ParallelTracer`] uses at thread join).
    pub fn merge_digests(&self, per_shard: &[TraceDigest]) -> TraceDigest {
        assert_eq!(per_shard.len(), self.shards(), "one digest per shard");
        let mut merged = TraceDigest::new();
        for d in per_shard {
            merged.absorb_child(*d);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_plan_covers_dimension() {
        let p = ShardPlan::even(10, 4);
        assert_eq!(p.shards(), 4);
        assert_eq!(p.d(), 10);
        // 10 = 3 + 3 + 2 + 2, front-loaded remainder.
        assert_eq!(
            (0..4).map(|i| p.span(i)).collect::<Vec<_>>(),
            vec![3, 3, 2, 2],
            "remainder coordinates go to the leading stripes"
        );
        assert_eq!(p.range(1), 3..6);
        let total: usize = (0..p.shards()).map(|i| p.span(i)).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn single_shard_plan_is_monolithic() {
        let p = ShardPlan::even(16384, 1);
        assert_eq!(p.shards(), 1);
        assert_eq!(p.range(0), 0..16384);
        assert_eq!(p.split_charge(12345), vec![12345]);
    }

    #[test]
    fn owner_matches_ranges() {
        let p = ShardPlan::from_boundaries(100, &[10, 55]);
        assert_eq!(p.shards(), 3);
        for i in 0..p.shards() {
            for idx in p.range(i) {
                assert_eq!(p.owner(idx), i, "coordinate {idx}");
            }
        }
        assert_eq!(p.owner(0), 0);
        assert_eq!(p.owner(99), 2);
    }

    #[test]
    #[should_panic(expected = "outside dimension")]
    fn owner_rejects_out_of_range() {
        ShardPlan::even(8, 2).owner(8);
    }

    #[test]
    fn split_charge_telescopes_exactly() {
        // Adversarial widths and byte counts: the parts must always sum
        // to the whole, with no drift for repeated alloc/free mirroring.
        let p = ShardPlan::from_boundaries(7, &[1, 2, 5]);
        for bytes in [0u64, 1, 6, 7, 8, 1000, u32::MAX as u64 * 13 + 5] {
            let parts = p.split_charge(bytes);
            assert_eq!(parts.iter().sum::<u64>(), bytes, "split of {bytes} must telescope");
        }
        // Proportionality: a stripe 5× wider gets (about) 5× the bytes.
        let parts = p.split_charge(7_000);
        assert_eq!(parts, vec![1_000, 1_000, 3_000, 2_000]);
    }

    #[test]
    fn split_charge_survives_huge_products() {
        // bytes·bound would overflow u64 (hence the u128 arithmetic):
        // 1 TiB over a 2^24 dimension.
        let p = ShardPlan::even(1 << 24, 8);
        let bytes = 1u64 << 40;
        let parts = p.split_charge(bytes);
        assert_eq!(parts.iter().sum::<u64>(), bytes);
        assert!(parts.iter().all(|&b| b == bytes / 8), "even plan, even split");
    }

    #[test]
    fn split_alloc_free_balances_shard_budgets() {
        let p = ShardPlan::even(1000, 3);
        let mut live = [0u64; 3];
        for bytes in [17u64, 999, 123_456] {
            for (l, part) in live.iter_mut().zip(p.split_charge(bytes)) {
                *l += part;
            }
        }
        for bytes in [17u64, 999, 123_456] {
            for (l, part) in live.iter_mut().zip(p.split_charge(bytes)) {
                *l -= part;
            }
        }
        assert_eq!(live, [0; 3], "mirrored alloc/free must balance exactly");
    }

    #[test]
    fn merge_digests_is_order_sensitive_and_deterministic() {
        use crate::tracer::Op;
        let p = ShardPlan::even(8, 2);
        let mut a = TraceDigest::new();
        a.absorb(1, 0, Op::Read);
        let mut b = TraceDigest::new();
        b.absorb(1, 64, Op::Write);
        let m1 = p.merge_digests(&[a, b]);
        let m2 = p.merge_digests(&[a, b]);
        assert_eq!(m1.value(), m2.value(), "deterministic");
        let swapped = p.merge_digests(&[b, a]);
        assert_ne!(m1.value(), swapped.value(), "shard order is canonical");
    }
}
