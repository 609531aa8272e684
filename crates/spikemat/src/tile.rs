//! Tiling of spike matrices into accelerator-sized `m × k` tiles.

use crate::matrix::SpikeMatrix;

/// The `m × k` geometry of a spike tile (paper Sec. V-A).
///
/// Prosperity decomposes a spiking GeMM into `⌈M/m⌉ × ⌈K/k⌉` spike tiles; the
/// hardware default is `m = 256`, `k = 16` (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileShape {
    /// Rows per tile (`m`).
    pub m: usize,
    /// Columns per tile (`k`).
    pub k: usize,
}

impl TileShape {
    /// Creates a tile shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(m: usize, k: usize) -> Self {
        assert!(m > 0 && k > 0, "tile dimensions must be positive");
        Self { m, k }
    }

    /// The paper's default Prosperity tile geometry (`m = 256`, `k = 16`).
    pub fn prosperity_default() -> Self {
        Self::new(256, 16)
    }

    /// Number of tiles needed to cover an `M × K` matrix.
    pub fn grid(&self, rows: usize, cols: usize) -> (usize, usize) {
        (rows.div_ceil(self.m), cols.div_ceil(self.k))
    }
}

/// One zero-padded spike tile plus its position in the source matrix.
#[derive(Debug, Clone)]
pub struct Tile {
    /// The `m × k` padded spike sub-matrix.
    pub data: SpikeMatrix,
    /// First source row covered by this tile.
    pub row_start: usize,
    /// First source column covered by this tile.
    pub col_start: usize,
    /// Number of *valid* (non-padding) rows.
    pub valid_rows: usize,
    /// Number of *valid* (non-padding) columns.
    pub valid_cols: usize,
}

/// Row-major iterator over the tiles of a [`SpikeMatrix`].
///
/// Created by [`SpikeMatrix::tiles`].
#[derive(Debug)]
pub struct TileIter<'a> {
    source: &'a SpikeMatrix,
    shape: TileShape,
    grid: (usize, usize),
    next: usize,
}

impl<'a> TileIter<'a> {
    pub(crate) fn new(source: &'a SpikeMatrix, shape: TileShape) -> Self {
        let grid = shape.grid(source.rows(), source.cols());
        Self {
            source,
            shape,
            grid,
            next: 0,
        }
    }

    /// Total number of tiles this iterator will yield.
    pub fn tile_count(&self) -> usize {
        self.grid.0 * self.grid.1
    }
}

impl Iterator for TileIter<'_> {
    type Item = Tile;

    fn next(&mut self) -> Option<Tile> {
        let (gm, gk) = self.grid;
        if self.next >= gm * gk {
            return None;
        }
        let ti = self.next / gk;
        let tj = self.next % gk;
        self.next += 1;
        let row_start = ti * self.shape.m;
        let col_start = tj * self.shape.k;
        let valid_rows = (self.source.rows() - row_start).min(self.shape.m);
        let valid_cols = (self.source.cols() - col_start).min(self.shape.k);
        Some(Tile {
            data: self
                .source
                .submatrix(row_start, col_start, self.shape.m, self.shape.k),
            row_start,
            col_start,
            valid_rows,
            valid_cols,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.tile_count() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for TileIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_rounds_up() {
        let s = TileShape::new(256, 16);
        assert_eq!(s.grid(512, 32), (2, 2));
        assert_eq!(s.grid(513, 33), (3, 3));
        assert_eq!(s.grid(1, 1), (1, 1));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tile_dim_panics() {
        let _ = TileShape::new(0, 16);
    }

    #[test]
    fn tiles_cover_matrix_exactly_once() {
        let mut m = SpikeMatrix::zeros(10, 7);
        for i in 0..10 {
            for j in 0..7 {
                m.set(i, j, (i * 7 + j) % 3 == 0);
            }
        }
        let shape = TileShape::new(4, 3);
        let mut reconstructed = SpikeMatrix::zeros(10, 7);
        let iter = m.tiles(shape);
        assert_eq!(iter.tile_count(), 3 * 3);
        for t in iter {
            for r in 0..t.valid_rows {
                for c in 0..t.valid_cols {
                    if t.data.get(r, c) {
                        reconstructed.set(t.row_start + r, t.col_start + c, true);
                    }
                }
            }
            // Padding must be zero.
            for r in t.valid_rows..shape.m {
                assert!(t.data.row(r).is_zero());
            }
        }
        assert_eq!(m, reconstructed);
    }

    #[test]
    fn exact_size_iterator_agrees() {
        let m = SpikeMatrix::zeros(100, 50);
        let it = m.tiles(TileShape::new(32, 16));
        assert_eq!(it.len(), 4 * 4);
        assert_eq!(it.count(), 16);
    }

    #[test]
    fn prosperity_default_matches_table3() {
        let s = TileShape::prosperity_default();
        assert_eq!((s.m, s.k), (256, 16));
    }
}
