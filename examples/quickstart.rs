//! Quickstart: product sparsity on the paper's running example (Fig. 1-3).
//!
//! Run with `cargo run --release --example quickstart`.

use prosperity::core::exec::prosparsity_gemm;
use prosperity::core::{MatchKind, ProSparsityPlan};
use prosperity::spikemat::gemm::{spiking_gemm, WeightMatrix};
use prosperity::spikemat::{SpikeMatrix, TileShape};

fn main() {
    // The 6×4 spike matrix of Fig. 1 (b).
    let spikes = SpikeMatrix::from_rows_of_bits(&[
        &[1, 0, 1, 0], // Row 0
        &[1, 0, 0, 1], // Row 1
        &[1, 0, 1, 1], // Row 2
        &[0, 0, 1, 0], // Row 3
        &[1, 1, 0, 1], // Row 4
        &[1, 1, 0, 1], // Row 5 (duplicate of Row 4)
    ]);
    println!("spike matrix:\n{spikes:?}\n");

    // Plan product sparsity: Detector -> Pruner -> Dispatcher.
    let plan = ProSparsityPlan::build(&spikes);
    let tile = &plan.tiles()[0];
    println!("ProSparsity forest (prefix per row):");
    for (i, meta) in tile.rows().enumerate() {
        let kind = match meta.kind {
            MatchKind::None => "root       ",
            MatchKind::Partial => "PartialMatch",
            MatchKind::Exact => "ExactMatch ",
        };
        match meta.prefix {
            Some(p) => println!(
                "  row {i}: {kind} prefix=row {p}, pattern {:?}",
                meta.pattern
            ),
            None => println!("  row {i}: {kind} pattern {:?}", meta.pattern),
        }
    }
    println!(
        "execution order (stable sort by popcount): {:?}\n",
        tile.dispatch_order()
    );

    let s = plan.stats();
    println!("dense ops / column      : {}", s.dense_ops);
    println!(
        "bit-sparse ops / column : {} (density {:.2}%)",
        s.bit_ops,
        100.0 * s.bit_density()
    );
    println!(
        "ProSparsity ops / column: {} (density {:.2}%)",
        s.pro_ops,
        100.0 * s.pro_density()
    );
    println!("computation reduction   : {:.2}x\n", s.reduction());

    // Lossless execution: identical to the bit-sparse reference.
    let weights = WeightMatrix::from_vec(4, 3, vec![3, -1, 5, -1, 2, 7, 4, -3, 1, 6, 0, -2]);
    let pro = prosparsity_gemm(&spikes, &weights, TileShape::new(6, 4));
    let reference = spiking_gemm(&spikes, &weights);
    assert_eq!(pro, reference, "ProSparsity must be lossless");
    println!("ProSparsity GeMM output (== bit-sparse reference):");
    for i in 0..pro.rows() {
        println!("  row {i}: {:?}", pro.row(i));
    }
    println!(
        "\nRows 4 and 5 share one result; the paper's 24 dense ops became {} ops.",
        s.pro_ops
    );
}
