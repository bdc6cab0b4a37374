//! 8×8 block geometry and the block-to-plane merge. The split of pixels
//! into blocks, with edge replication, is
//! [`blockize_strip`](crate::stream::blockize_strip).

use crate::color::Plane;

/// Side length of a JPEG block.
pub const BLOCK_SIZE: usize = 8;

/// One 8×8 block of level-shifted samples (centered on 0, i.e. sample−128).
pub type Block = [f32; 64];

/// Number of blocks along each axis after padding `len` up to a multiple
/// of 8.
pub fn blocks_along(len: usize) -> usize {
    len.div_ceil(BLOCK_SIZE)
}

/// Reassembles raster-ordered blocks into a plane of the given size,
/// undoing the level shift and discarding padding.
///
/// # Panics
///
/// Panics if `blocks.len()` does not cover the plane.
pub fn blocks_to_plane(blocks: &[Block], width: usize, height: usize) -> Plane {
    let (bw, bh) = (blocks_along(width), blocks_along(height));
    assert_eq!(blocks.len(), bw * bh, "block count mismatch");
    let mut plane = Plane::new(width, height);
    for by in 0..bh {
        for bx in 0..bw {
            let blk = &blocks[by * bw + bx];
            for iy in 0..BLOCK_SIZE {
                let sy = by * BLOCK_SIZE + iy;
                if sy >= height {
                    break;
                }
                for ix in 0..BLOCK_SIZE {
                    let sx = bx * BLOCK_SIZE + ix;
                    if sx >= width {
                        break;
                    }
                    plane.samples[sy * width + sx] = blk[iy * BLOCK_SIZE + ix] + 128.0;
                }
            }
        }
    }
    plane
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_undoes_the_level_shift_and_drops_padding() {
        for (w, h) in [(16, 8), (9, 7), (1, 1), (8, 13), (17, 17)] {
            let (bw, bh) = (blocks_along(w), blocks_along(h));
            // Block sample = its padded-grid position, shifted down by 128.
            let blocks: Vec<Block> = (0..bw * bh)
                .map(|b| {
                    std::array::from_fn(|i| {
                        let x = (b % bw) * BLOCK_SIZE + i % BLOCK_SIZE;
                        let y = (b / bw) * BLOCK_SIZE + i / BLOCK_SIZE;
                        (y * 256 + x) as f32 - 128.0
                    })
                })
                .collect();
            let plane = blocks_to_plane(&blocks, w, h);
            for y in 0..h {
                for x in 0..w {
                    assert_eq!(
                        plane.at(x, y),
                        (y * 256 + x) as f32,
                        "{w}x{h} at ({x}, {y})"
                    );
                }
            }
        }
    }

    #[test]
    fn blocks_along_rounds_up() {
        assert_eq!(blocks_along(8), 1);
        assert_eq!(blocks_along(9), 2);
        assert_eq!(blocks_along(64), 8);
    }
}
