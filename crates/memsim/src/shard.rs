//! Shard plans: how the `G`-region dimension is partitioned across shard
//! enclaves.
//!
//! A [`ShardPlan`] is a sorted list of stripe boundaries over `0..d`. It
//! decides one thing and nothing else: which coordinates of the
//! finalized delta a shard is sent at egress. No EPC charge is derived
//! from it — a shard's budget carries what the shard actually decrypts
//! (a chunk descriptor, then its stripe), charged where that happens
//! (`olive_core::aggregation::sharded`).

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
            (0..4).map(|i| p.range(i).len()).collect::<Vec<_>>(),
            vec![3, 3, 2, 2],
            "remainder coordinates go to the leading stripes"
        );
        assert_eq!(p.range(1), 3..6);
        // Explicit boundaries: the stripes are exactly what was asked for.
        let p = ShardPlan::from_boundaries(100, &[10, 55]);
        assert_eq!((p.shards(), p.d()), (3, 100));
        assert_eq!([p.range(0), p.range(1), p.range(2)], [0..10, 10..55, 55..100]);
    }

    #[test]
    fn single_shard_plan_is_monolithic() {
        let p = ShardPlan::even(16384, 1);
        assert_eq!(p.shards(), 1);
        assert_eq!(p.range(0), 0..16384);
    }
}
