//! Bit-packed binary spike matrices and reference spiking-GeMM kernels.
//!
//! This crate is the data-plane substrate of the Prosperity reproduction.
//! Spiking neural networks propagate *binary* spike events; the dominant
//! operation (>98 % of all ops, per the paper) is *spiking GeMM*: a binary
//! `M × K` spike matrix multiplied by a real-valued `K × N` weight matrix.
//! Because operands are bits, the inner product degenerates to a sparse
//! accumulation of the weight rows selected by the 1-bits of each spike row.
//!
//! Provided here:
//!
//! * [`BitRow`] — a bit-packed spike row with O(words) popcount / subset /
//!   XOR operations. `BitRow::is_subset_of` is the software semantic model of
//!   the paper's single-cycle TCAM subset search.
//! * [`SpikeMatrix`] — an `M × K` matrix of [`BitRow`]s with tiling support
//!   ([`SpikeMatrix::tiles`]) matching the accelerator's `m × k` spike tiles.
//! * [`gemm`] — dense, bit-sparse, and operation-counting reference kernels
//!   used as ground truth by every other crate.
//! * [`im2col`] — lowering of spiking convolution onto spiking GeMM.
//! * [`bitops`] — the 64×64 block bit-transpose the planner gathers
//!   column masks with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bitops;
mod bitrow;
mod error;
pub mod gemm;
pub mod im2col;
mod matrix;
mod tile;

pub use bitrow::BitRow;
pub use error::ShapeError;
pub use matrix::SpikeMatrix;
pub use tile::{Tile, TileIter, TileShape};

/// Number of bits per storage limb of a [`BitRow`].
pub const LIMB_BITS: usize = 64;
