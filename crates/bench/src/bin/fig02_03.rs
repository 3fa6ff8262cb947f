//! Figures 2 & 3: dense gradients induce uniform access patterns; sparse
//! gradients induce biased (index-revealing) patterns.
//!
//! Prints the first accesses of the linear algorithm on dense vs sparse
//! inputs, and verifies Definition 2.1 digests: identical across dense
//! inputs, divergent across sparse inputs.
//!
//! Already seconds-scale; `--quick` trims the printed access prefix.

use olive_bench::Mode;
use olive_core::aggregation::linear::aggregate_dense_linear;
use olive_core::aggregation::{aggregate, AggregatorKind};
use olive_core::regions::{REGION_G, REGION_G_STAR};
use olive_fl::SparseGradient;
use olive_memsim::{Granularity, RecordingTracer};

/// Two users over d = 4, each transmitting k = 2 cells of value 0.5.
fn two_users(a: [u32; 2], b: [u32; 2]) -> [SparseGradient; 2] {
    [a, b].map(|indices| SparseGradient {
        dense_dim: 4,
        indices: indices.to_vec(),
        values: vec![0.5; 2],
    })
}

fn show(events: &[olive_memsim::Access], limit: usize) {
    for a in events.iter().take(limit) {
        let region = match a.region {
            REGION_G => "G ",
            REGION_G_STAR => "G*",
            _ => "? ",
        };
        println!("  ({region}[{:>3}], {:?})", a.offset, a.op);
    }
}

fn main() {
    let mode = Mode::from_args();
    let shown = mode.pick(6, 12, 12);
    println!("=== Figure 2: dense gradients → uniform access pattern ===");
    let dense = vec![0.5f32; 2 * 4]; // 2 users, d = 4
    let mut tr = RecordingTracer::with_events(Granularity::Element);
    aggregate_dense_linear(&dense, 4, 2, &mut tr);
    show(tr.events().unwrap(), shown);
    let d1 = tr.digest();
    let mut tr2 = RecordingTracer::with_events(Granularity::Element);
    aggregate_dense_linear(&[-9.0f32; 8], 4, 2, &mut tr2);
    println!(
        "  digest(input A) == digest(input B): {}  (Proposition 3.1: oblivious)",
        d1 == tr2.digest()
    );

    println!("\n=== Figure 3: sparse gradients → biased, index-revealing pattern ===");
    let sparse_a = two_users([0, 3], [3, 1]);
    let mut tr = RecordingTracer::with_events(Granularity::Element);
    aggregate(AggregatorKind::NonOblivious, &sparse_a, 4, &mut tr);
    show(tr.events().unwrap(), shown);
    let da = tr.digest();
    let sparse_b = two_users([2, 1], [0, 2]);
    let mut tr = RecordingTracer::with_events(Granularity::Element);
    aggregate(AggregatorKind::NonOblivious, &sparse_b, 4, &mut tr);
    println!(
        "  digest(input A) == digest(input B): {}  (Proposition 3.2: NOT oblivious — the\n\
         \x20 G* offsets above are exactly the users' secret top-k indices)",
        da == tr.digest()
    );
}
