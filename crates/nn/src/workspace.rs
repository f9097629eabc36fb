//! Reusable scratch buffers for the convolution hot path.

use crate::tile::Pack;

/// Scratch space threaded through [`crate::Conv2d::forward_ws`] (and, one
/// level up, MC-dropout sample passes) so repeated forward passes reuse
/// their im2col patch buffer and every lane's packed weights instead of
/// reallocating them per call.
///
/// One `Workspace` belongs to one thread at a time; parallel runners keep
/// one per worker.
///
/// # Examples
///
/// ```
/// use fbcnn_nn::{Conv2d, Workspace};
/// use fbcnn_tensor::{Shape, Tensor};
///
/// let conv = Conv2d::new(1, 2, 3, 1, 1, true);
/// let input = Tensor::full(Shape::new(1, 6, 6), 1.0);
/// let mut ws = Workspace::new();
/// let fast = conv.forward_ws(&input, &mut ws);
/// assert_eq!(fast, conv.forward(&input));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    im2col: Vec<f32>,
    /// Weight-packing scratch per lane of a split call; the calling
    /// lane's is first.
    packs: Vec<Pack>,
}

impl Workspace {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// The im2col patch buffer, grown to at least `len` elements, and the
    /// lanes' weight-packing scratch. The patch buffer's contents are
    /// unspecified — callers overwrite every slot they read.
    #[inline]
    pub(crate) fn buffers(&mut self, len: usize) -> (&mut [f32], &mut Vec<Pack>) {
        if self.im2col.len() < len {
            self.im2col.resize(len, 0.0);
        }
        (&mut self.im2col[..len], &mut self.packs)
    }

    /// Capacity currently held by the im2col buffer, in elements (used by
    /// tests to verify buffers are retained across passes).
    pub fn im2col_capacity(&self) -> usize {
        self.im2col.len()
    }
}
