//! Shared driver for the performance figures (9–11) and the DO ablation.

use olive_core::aggregation::{aggregate, AggregatorKind};
use olive_core::olive::working_set_bytes;
use olive_fl::SparseGradient;
use olive_memsim::NullTracer;

use crate::time_once;

/// Times one aggregation of `updates` into dimension `d` with the given
/// algorithm (untraced, i.e. the enclave's real compute; the paper's
/// Figure 9 methodology) — pre-built updates, so generation amortizes
/// across kinds. Returns `(seconds, working-set bytes)`.
pub fn time_aggregation_prebuilt(
    kind: AggregatorKind,
    updates: &[SparseGradient],
    d: usize,
) -> (f64, u64) {
    let n = updates.len();
    let k = updates.first().map(|u| u.k()).unwrap_or(0);
    let mut sink = 0.0f32;
    let secs = time_once(|| {
        let out = aggregate(kind, updates, d, &mut NullTracer);
        sink += out[0];
    });
    std::hint::black_box(sink);
    (secs, working_set_bytes(kind, n, k, d, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic_updates;

    #[test]
    fn timing_runs_for_every_kind() {
        let updates = synthetic_updates(8, 16, 256, 1);
        for kind in [
            AggregatorKind::NonOblivious,
            AggregatorKind::Baseline { cacheline_weights: 16 },
            AggregatorKind::Advanced,
            AggregatorKind::Grouped { h: 4 },
        ] {
            let (t, ws) = time_aggregation_prebuilt(kind, &updates, 256);
            assert!(t > 0.0);
            assert!(ws > 0);
        }
    }

    #[test]
    fn advanced_beats_baseline_at_scale() {
        // The Figure 9 headline shape at a miniature size: O((nk+d)log²)
        // vs O(nk·d/16) separates by >10× at d = 64k.
        let d = 65_536;
        let updates = synthetic_updates(64, d / 100, d, 2);
        let (t_base, _) = time_aggregation_prebuilt(
            AggregatorKind::Baseline { cacheline_weights: 16 },
            &updates,
            d,
        );
        let (t_adv, _) = time_aggregation_prebuilt(AggregatorKind::Advanced, &updates, d);
        assert!(
            t_adv < t_base,
            "Advanced ({t_adv:.4}s) should beat Baseline ({t_base:.4}s) at d={d}"
        );
    }
}
