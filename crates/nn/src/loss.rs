//! Softmax cross-entropy loss.

/// Computes mean softmax cross-entropy loss over a batch and the gradient
/// with respect to the logits.
///
/// `logits` is `(n, num_classes)` row-major; `labels[i] < num_classes`.
/// Returns `(mean_loss, dL/dlogits)` with the gradient already divided by
/// the batch size.
pub fn softmax_cross_entropy(
    logits: &[f32],
    labels: &[usize],
    num_classes: usize,
) -> (f32, Vec<f32>) {
    let mut grad = Vec::new();
    let loss = softmax_cross_entropy_into(logits, labels, num_classes, &mut grad);
    (loss, grad)
}

/// [`softmax_cross_entropy`] with the gradient written into a reused
/// buffer (resized to `logits.len()`); returns the mean loss.
pub(crate) fn softmax_cross_entropy_into(
    logits: &[f32],
    labels: &[usize],
    num_classes: usize,
    grad: &mut Vec<f32>,
) -> f32 {
    let n = labels.len();
    assert_eq!(logits.len(), n * num_classes, "logits shape mismatch");
    grad.resize(logits.len(), 0.0);
    let mut loss = 0.0f64;
    for s in 0..n {
        let row = &logits[s * num_classes..(s + 1) * num_classes];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        // The row of `grad` holds the exponentials until they are normalised.
        let g = &mut grad[s * num_classes..(s + 1) * num_classes];
        for (e, &v) in g.iter_mut().zip(row) {
            *e = (v - max).exp();
        }
        let sum: f32 = g.iter().sum();
        let label = labels[s];
        assert!(label < num_classes, "label {label} out of range");
        let p_label = g[label] / sum;
        loss += -(p_label.max(1e-12) as f64).ln();
        for (c, e) in g.iter_mut().enumerate() {
            let p = *e / sum;
            *e = (p - if c == label { 1.0 } else { 0.0 }) / n as f32;
        }
    }
    (loss / n as f64) as f32
}

/// Softmax probabilities for one batch of logits (used by the attacker to
/// produce per-label scores).
pub fn softmax(logits: &[f32], num_classes: usize) -> Vec<f32> {
    assert_eq!(logits.len() % num_classes, 0);
    let mut out = vec![0.0f32; logits.len()];
    for (row, orow) in logits.chunks_exact(num_classes).zip(out.chunks_exact_mut(num_classes)) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (o, &v) in orow.iter_mut().zip(row.iter()) {
            *o = (v - max).exp();
            sum += *o;
        }
        for o in orow.iter_mut() {
            *o /= sum;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_loss_is_log_classes() {
        let (loss, _) = softmax_cross_entropy(&[0.0, 0.0, 0.0, 0.0], &[2], 4);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn perfect_prediction_near_zero_loss() {
        let (loss, _) = softmax_cross_entropy(&[100.0, 0.0], &[0], 2);
        assert!(loss < 1e-4);
    }

    #[test]
    fn gradient_sums_to_zero_per_sample() {
        let (_, g) = softmax_cross_entropy(&[1.0, 2.0, 3.0], &[1], 3);
        let sum: f32 = g.iter().sum();
        assert!(sum.abs() < 1e-6);
        assert!(g[1] < 0.0, "true-class gradient is negative");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = vec![0.3f32, -0.7, 1.1, 0.2, 0.9, -1.2];
        let labels = vec![2usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels, 3);
        let eps = 1e-3f32;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp[i] += eps;
            let (loss_p, _) = softmax_cross_entropy(&lp, &labels, 3);
            let mut lm = logits.clone();
            lm[i] -= eps;
            let (loss_m, _) = softmax_cross_entropy(&lm, &labels, 3);
            let fd = (loss_p - loss_m) / (2.0 * eps);
            assert!((fd - grad[i]).abs() < 1e-3, "logit {i}: fd {fd} vs {}", grad[i]);
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0, -1.0, 0.0, 1.0], 3);
        for row in p.chunks_exact(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!(p[2] > p[1] && p[1] > p[0]);
    }
}
