//! Lowering spiking convolution onto spiking GeMM via im2col.
//!
//! The paper (Sec. II-B) lowers spiking CNN layers to spiking GeMM by the
//! classical im2col transform: every output pixel becomes one row of the
//! spike matrix, and every (input-channel, kernel-offset) pair becomes one
//! column. With `T` time steps unrolled, the spike matrix has
//! `M = T × OH × OW` rows and `K = C_in × KH × KW` columns.

use crate::gemm::{spiking_gemm, OutputMatrix, WeightMatrix};
use crate::matrix::SpikeMatrix;
use std::ops::AddAssign;

/// Geometry of a 2-D spiking convolution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Input feature-map height.
    pub in_h: usize,
    /// Input feature-map width.
    pub in_w: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Conv2dParams {
    /// Convenience constructor for a square kernel/input.
    pub fn square(
        in_channels: usize,
        out_channels: usize,
        in_size: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Self {
            in_channels,
            out_channels,
            in_h: in_size,
            in_w: in_size,
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding,
        }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.kernel_h) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.kernel_w) / self.stride + 1
    }

    /// Shape `(M, K, N)` of the lowered spiking GeMM for `time_steps` unrolled
    /// time steps: `M = T·OH·OW`, `K = C_in·KH·KW`, `N = C_out`.
    pub fn gemm_shape(&self, time_steps: usize) -> (usize, usize, usize) {
        (
            time_steps * self.out_h() * self.out_w(),
            self.in_channels * self.kernel_h * self.kernel_w,
            self.out_channels,
        )
    }
}

/// A binary (spiking) feature map of shape `C × H × W` for one time step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpikeFeatureMap {
    /// Channels.
    pub channels: usize,
    /// Height.
    pub height: usize,
    /// Width.
    pub width: usize,
    data: Vec<bool>,
}

impl SpikeFeatureMap {
    /// Creates an all-zero feature map.
    pub fn zeros(channels: usize, height: usize, width: usize) -> Self {
        Self {
            channels,
            height,
            width,
            data: vec![false; channels * height * width],
        }
    }

    /// Reads the spike at `(c, y, x)`.
    pub fn get(&self, c: usize, y: usize, x: usize) -> bool {
        self.data[(c * self.height + y) * self.width + x]
    }

    /// Writes the spike at `(c, y, x)`.
    pub fn set(&mut self, c: usize, y: usize, x: usize, value: bool) {
        self.data[(c * self.height + y) * self.width + x] = value;
    }
}

/// Lowers one time step of a spiking feature map to an im2col spike matrix.
///
/// Row `oy * OW + ox` holds the receptive field of output pixel `(oy, ox)`;
/// column `(c * KH + ky) * KW + kx` holds input `(c, oy·s − p + ky, ox·s − p + kx)`
/// (zero outside the padded input).
///
/// # Panics
///
/// Panics if the feature-map shape disagrees with `params`.
pub fn im2col(input: &SpikeFeatureMap, params: &Conv2dParams) -> SpikeMatrix {
    assert_eq!(input.channels, params.in_channels, "channel mismatch");
    assert_eq!(input.height, params.in_h, "height mismatch");
    assert_eq!(input.width, params.in_w, "width mismatch");
    let (oh, ow) = (params.out_h(), params.out_w());
    let k = params.in_channels * params.kernel_h * params.kernel_w;
    let mut m = SpikeMatrix::zeros(oh * ow, k);
    for oy in 0..oh {
        for ox in 0..ow {
            let row = oy * ow + ox;
            for c in 0..params.in_channels {
                for ky in 0..params.kernel_h {
                    for kx in 0..params.kernel_w {
                        let iy = (oy * params.stride + ky) as isize - params.padding as isize;
                        let ix = (ox * params.stride + kx) as isize - params.padding as isize;
                        if iy >= 0
                            && ix >= 0
                            && (iy as usize) < params.in_h
                            && (ix as usize) < params.in_w
                            && input.get(c, iy as usize, ix as usize)
                        {
                            let col = (c * params.kernel_h + ky) * params.kernel_w + kx;
                            m.set(row, col, true);
                        }
                    }
                }
            }
        }
    }
    m
}

/// Direct (nested-loop) spiking convolution, used as ground truth for im2col.
///
/// Returns an `OH·OW × C_out` output where row `oy·OW + ox` is the output
/// pixel `(oy, ox)` across output channels. Weight layout matches the im2col
/// GeMM: `weights.row((c·KH + ky)·KW + kx)[co]`.
pub fn direct_conv2d<T: Copy + Default + AddAssign>(
    input: &SpikeFeatureMap,
    weights: &WeightMatrix<T>,
    params: &Conv2dParams,
) -> OutputMatrix<T> {
    let lowered = im2col(input, params);
    // The *definition* of direct convolution, re-derived without the GeMM:
    let (oh, ow) = (params.out_h(), params.out_w());
    let mut out = OutputMatrix::zeros(oh * ow, params.out_channels);
    for oy in 0..oh {
        for ox in 0..ow {
            for c in 0..params.in_channels {
                for ky in 0..params.kernel_h {
                    for kx in 0..params.kernel_w {
                        let iy = (oy * params.stride + ky) as isize - params.padding as isize;
                        let ix = (ox * params.stride + kx) as isize - params.padding as isize;
                        if iy >= 0
                            && ix >= 0
                            && (iy as usize) < params.in_h
                            && (ix as usize) < params.in_w
                            && input.get(c, iy as usize, ix as usize)
                        {
                            let kr = (c * params.kernel_h + ky) * params.kernel_w + kx;
                            out.accumulate_row(oy * ow + ox, weights.row(kr));
                        }
                    }
                }
            }
        }
    }
    debug_assert_eq!(lowered.rows(), out.rows());
    out
}

/// Checks that `im2col` followed by [`spiking_gemm`] equals [`direct_conv2d`].
///
/// Exposed so integration/property tests across crates can reuse it.
pub fn im2col_equals_direct<T: Copy + Default + AddAssign + PartialEq + std::fmt::Debug>(
    input: &SpikeFeatureMap,
    weights: &WeightMatrix<T>,
    params: &Conv2dParams,
) -> bool {
    let lowered = im2col(input, params);
    let via_gemm = spiking_gemm(&lowered, weights);
    let direct = direct_conv2d(input, weights, params);
    via_gemm == direct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_dims() {
        let p = Conv2dParams::square(3, 8, 32, 3, 1, 1);
        assert_eq!((p.out_h(), p.out_w()), (32, 32));
        let p2 = Conv2dParams::square(3, 8, 32, 3, 2, 1);
        assert_eq!((p2.out_h(), p2.out_w()), (16, 16));
        let p3 = Conv2dParams::square(1, 1, 5, 3, 1, 0);
        assert_eq!((p3.out_h(), p3.out_w()), (3, 3));
    }

    #[test]
    fn gemm_shape_unrolls_time() {
        let p = Conv2dParams::square(64, 128, 16, 3, 1, 1);
        let (m, k, n) = p.gemm_shape(4);
        assert_eq!(m, 4 * 16 * 16);
        assert_eq!(k, 64 * 9);
        assert_eq!(n, 128);
    }

    fn checkerboard(c: usize, h: usize, w: usize) -> SpikeFeatureMap {
        let mut f = SpikeFeatureMap::zeros(c, h, w);
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    f.set(ci, y, x, (ci + y + x) % 2 == 0);
                }
            }
        }
        f
    }

    #[test]
    fn im2col_matches_direct_conv_no_padding() {
        let p = Conv2dParams::square(2, 3, 6, 3, 1, 0);
        let input = checkerboard(2, 6, 6);
        let w = WeightMatrix::from_fn(2 * 9, 3, |r, c| (r as i64 + 1) * (c as i64 + 1));
        assert!(im2col_equals_direct(&input, &w, &p));
    }

    #[test]
    fn im2col_matches_direct_conv_with_padding_and_stride() {
        let p = Conv2dParams::square(3, 4, 7, 3, 2, 1);
        let input = checkerboard(3, 7, 7);
        let w = WeightMatrix::from_fn(3 * 9, 4, |r, c| r as i64 * 7 - c as i64 * 3);
        assert!(im2col_equals_direct(&input, &w, &p));
    }

    #[test]
    fn im2col_identity_kernel_1x1() {
        // 1x1 conv: im2col matrix is the input flattened per pixel.
        let p = Conv2dParams::square(2, 2, 4, 1, 1, 0);
        let input = checkerboard(2, 4, 4);
        let m = im2col(&input, &p);
        assert_eq!(m.rows(), 16);
        assert_eq!(m.cols(), 2);
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(m.get(y * 4 + x, 0), input.get(0, y, x));
                assert_eq!(m.get(y * 4 + x, 1), input.get(1, y, x));
            }
        }
    }

    #[test]
    fn padding_region_reads_zero() {
        let p = Conv2dParams::square(1, 1, 2, 3, 1, 1);
        let mut input = SpikeFeatureMap::zeros(1, 2, 2);
        input.set(0, 0, 0, true);
        let m = im2col(&input, &p);
        // Output pixel (0,0) kernel covers rows -1..2, cols -1..2; only the
        // center (ky=1,kx=1) hits input (0,0).
        assert!(m.get(0, 4));
        assert_eq!(m.row(0).popcount(), 1);
    }
}
