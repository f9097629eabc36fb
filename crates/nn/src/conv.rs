use crate::lanes;
use crate::simd::Level;
use crate::tile;
use crate::workspace::Workspace;
use fbcnn_tensor::{BitMask, Shape, Tensor};
use serde::{Deserialize, Serialize};

/// A 2-D convolution layer with optional fused ReLU.
///
/// Weight layout is `[m][n][i][j]` — output channel, input channel, kernel
/// row, kernel column — matching the paper's six convolution dimensions
/// `<M, N, R, C, I, J>`. The accelerator models in `fbcnn-accel` and the
/// prediction machinery in `fbcnn-predictor` address weights through
/// [`Conv2d::weight`] and [`Conv2d::kernel`].
///
/// The fused ReLU mirrors the hardware: the paper's PE applies ReLU before
/// the output buffer, and the *zero neuron* concept is defined on the
/// post-ReLU value.
///
/// # Examples
///
/// ```
/// use fbcnn_nn::Conv2d;
/// use fbcnn_tensor::{Shape, Tensor};
///
/// let mut conv = Conv2d::new(1, 1, 3, 1, 1, false);
/// conv.set_weight(0, 0, 1, 1, 2.0); // identity kernel scaled by 2
/// let input = Tensor::full(Shape::new(1, 4, 4), 1.5);
/// let out = conv.forward(&input);
/// assert_eq!(out[(0, 2, 2)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    k: usize,
    stride: usize,
    pad: usize,
    relu: bool,
    weights: Vec<f32>,
    bias: Vec<f32>,
}

impl Conv2d {
    /// Creates a zero-initialized convolution.
    ///
    /// # Panics
    ///
    /// Panics if any of `in_channels`, `out_channels`, `k` or `stride` is
    /// zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        k: usize,
        stride: usize,
        pad: usize,
        relu: bool,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0 && k > 0 && stride > 0,
            "convolution dimensions must be non-zero"
        );
        Self {
            in_channels,
            out_channels,
            k,
            stride,
            pad,
            relu,
            weights: vec![0.0; out_channels * in_channels * k * k],
            bias: vec![0.0; out_channels],
        }
    }

    /// Number of input channels (`N`).
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels / kernels (`M`).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel size (`K`).
    pub fn kernel_size(&self) -> usize {
        self.k
    }

    /// Convolution stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Symmetric zero padding.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// Whether ReLU is fused into this layer.
    pub fn has_relu(&self) -> bool {
        self.relu
    }

    /// The shape produced for a given input shape.
    ///
    /// # Panics
    ///
    /// Panics if the input channel count differs from
    /// [`Conv2d::in_channels`] or the kernel does not fit.
    pub fn output_shape(&self, input: Shape) -> Shape {
        assert_eq!(
            input.channels(),
            self.in_channels,
            "conv expects {} input channels, got {input}",
            self.in_channels
        );
        input.conv_output(self.out_channels, self.k, self.stride, self.pad)
    }

    /// Multiply-accumulates needed for one output neuron (`K² · N`).
    pub fn macs_per_neuron(&self) -> usize {
        self.k * self.k * self.in_channels
    }

    #[inline]
    fn widx(&self, m: usize, n: usize, i: usize, j: usize) -> usize {
        ((m * self.in_channels + n) * self.k + i) * self.k + j
    }

    /// Weight at `[m][n][i][j]`.
    #[inline]
    pub fn weight(&self, m: usize, n: usize, i: usize, j: usize) -> f32 {
        self.weights[self.widx(m, n, i, j)]
    }

    /// Sets the weight at `[m][n][i][j]`.
    #[inline]
    pub fn set_weight(&mut self, m: usize, n: usize, i: usize, j: usize, v: f32) {
        let idx = self.widx(m, n, i, j);
        self.weights[idx] = v;
    }

    /// The full kernel for output channel `m`, laid out `[n][i][j]`.
    pub fn kernel(&self, m: usize) -> &[f32] {
        let stride = self.in_channels * self.k * self.k;
        &self.weights[m * stride..(m + 1) * stride]
    }

    /// All weights, laid out `[m][n][i][j]`.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Mutable access to all weights (used by the trainer and by
    /// [`crate::init`]).
    pub fn weights_mut(&mut self) -> &mut [f32] {
        &mut self.weights
    }

    /// Bias per output channel.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable access to the bias vector.
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// Simultaneous mutable access to `(weights, bias)` — used by the
    /// trainer's parameter update.
    pub fn params_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut self.weights, &mut self.bias)
    }

    /// Runs the convolution (and fused ReLU, if enabled).
    ///
    /// # Panics
    ///
    /// Panics if the input shape is incompatible (see
    /// [`Conv2d::output_shape`]).
    pub fn forward(&self, input: &Tensor) -> Tensor {
        let out_shape = self.output_shape(input.shape());
        let mut out = Tensor::zeros(out_shape);
        for m in 0..self.out_channels {
            self.forward_channel_into(input, m, out.channel_mut(m));
        }
        out
    }

    /// Computes one output channel `m` into `plane` (length `R·C`)
    /// *without* the fused ReLU — the pre-activation values.
    ///
    /// Used by the activation-calibrated initialization in
    /// [`crate::init`], which needs the pre-ReLU distribution to place
    /// each kernel's bias.
    ///
    /// # Panics
    ///
    /// Panics if `plane.len()` is not the output plane size.
    pub fn forward_channel_preactivation(&self, input: &Tensor, m: usize, plane: &mut [f32]) {
        self.forward_channel_impl(input, m, plane, false);
    }

    /// Computes one output channel `m` into `plane` (length `R·C`) with
    /// the naive direct loop.
    ///
    /// A test oracle: inference runs the blocked kernels
    /// ([`Conv2d::forward_ws`], [`Conv2d::forward_skipping_ws`]), and the
    /// property tests check them against this loop.
    ///
    /// # Panics
    ///
    /// Panics if `plane.len()` is not the output plane size.
    pub fn forward_channel_into(&self, input: &Tensor, m: usize, plane: &mut [f32]) {
        self.forward_channel_impl(input, m, plane, self.relu);
    }

    fn forward_channel_impl(&self, input: &Tensor, m: usize, plane: &mut [f32], relu: bool) {
        let in_shape = input.shape();
        let out_shape = self.output_shape(in_shape);
        assert_eq!(plane.len(), out_shape.plane(), "output plane size mismatch");

        plane.fill(self.bias[m]);
        let (out_h, out_w) = (out_shape.height(), out_shape.width());
        let (in_h, in_w) = (in_shape.height(), in_shape.width());
        for n in 0..self.in_channels {
            let in_plane = input.channel(n);
            for i in 0..self.k {
                for j in 0..self.k {
                    let w = self.weight(m, n, i, j);
                    if w == 0.0 {
                        continue;
                    }
                    for r in 0..out_h {
                        let in_r = (r * self.stride + i) as isize - self.pad as isize;
                        if in_r < 0 || in_r as usize >= in_h {
                            continue;
                        }
                        let in_row = &in_plane[in_r as usize * in_w..(in_r as usize + 1) * in_w];
                        let out_row = &mut plane[r * out_w..(r + 1) * out_w];
                        for (c, out_v) in out_row.iter_mut().enumerate() {
                            let in_c = (c * self.stride + j) as isize - self.pad as isize;
                            if in_c < 0 || in_c as usize >= in_w {
                                continue;
                            }
                            *out_v += w * in_row[in_c as usize];
                        }
                    }
                }
            }
        }
        if relu {
            for v in plane.iter_mut() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
    }

    /// Runs the convolution through the im2col + register-tiled kernel,
    /// reusing the buffers in `ws` across calls.
    ///
    /// Produces output equal (`==`, i.e. up to the sign of zero) to
    /// [`Conv2d::forward`]: the patch matrix zero-fills out-of-bounds
    /// positions, so padding contributes `w * 0.0` terms that leave every
    /// accumulator unchanged, and all nonzero terms are accumulated in the
    /// same `(n, i, j)`-ascending order as the naive loop, bias first and
    /// ReLU last, with a separate multiply and add per term.
    ///
    /// The kernel computes tiles of output channels × output columns in
    /// vector registers, one channel per lane, with the widest body the
    /// host supports ([`crate::simd::Level::detected`]); every level gives
    /// the same bits.
    ///
    /// A call of at least 64 Ki weights (`M·N·K²`) splits its output
    /// channels over the
    /// host's free cores, with no setting to tune: lanes compute
    /// contiguous blocks of whole channel groups from the shared patch
    /// matrix, and a process-wide lane budget keeps the lanes of all
    /// concurrent calls at or below the core count (a call that finds every
    /// core busy runs inline). Every neuron is computed by the same
    /// arithmetic either way, so the result does not depend on the split.
    ///
    /// # Panics
    ///
    /// Panics if the input shape is incompatible (see
    /// [`Conv2d::output_shape`]).
    pub fn forward_ws(&self, input: &Tensor, ws: &mut Workspace) -> Tensor {
        self.forward_blocked(input, None, ws, None, Level::detected())
    }

    /// The skipping convolution: like [`Conv2d::forward_ws`], but the
    /// neurons set in `skip` (a mask of the output shape) read `+0.0`.
    ///
    /// The kernel computes every tile exactly as [`Conv2d::forward_ws`]
    /// does and then writes `+0.0` over the skipped neurons, so every kept
    /// neuron is bit-identical to it (and `==` to [`Conv2d::forward`]). A
    /// tile of `L` channels × up to 16 columns is almost never skipped
    /// whole, so the kernel does not look for such tiles. An empty mask
    /// reproduces [`Conv2d::forward_ws`] bit for bit. Large calls split
    /// over cores as [`Conv2d::forward_ws`] does.
    ///
    /// # Panics
    ///
    /// Panics if the input shape is incompatible (see
    /// [`Conv2d::output_shape`]) or `skip` does not have the output shape.
    pub fn forward_skipping_ws(
        &self,
        input: &Tensor,
        skip: &BitMask,
        ws: &mut Workspace,
    ) -> Tensor {
        self.forward_blocked(input, Some(skip), ws, None, Level::detected())
    }

    /// [`Conv2d::forward_ws`] (or, with `skip`,
    /// [`Conv2d::forward_skipping_ws`]) on exactly `lanes` lanes, capped
    /// at the channel groups of [`Conv2d::out_channels`], whatever the size
    /// of the call and the lane budget — for benches and for tests of the
    /// split. The output is bit-identical to the one-lane call.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero, if a lane panics, if the input shape is
    /// incompatible (see [`Conv2d::output_shape`]) or if `skip` does not
    /// have the output shape.
    pub fn forward_parallel(
        &self,
        input: &Tensor,
        lanes: usize,
        skip: Option<&BitMask>,
        ws: &mut Workspace,
    ) -> Tensor {
        self.forward_at_level(input, Level::detected(), lanes, skip, ws)
    }

    /// [`Conv2d::forward_parallel`] with the kernel body forced to `level`
    /// instead of the host's detected one — for tests and measurements of
    /// each level's body. The output is bit-identical at every level.
    ///
    /// # Panics
    ///
    /// Panics if this host does not support `level`, and as
    /// [`Conv2d::forward_parallel`] does.
    #[doc(hidden)]
    pub fn forward_at_level(
        &self,
        input: &Tensor,
        level: Level,
        lanes: usize,
        skip: Option<&BitMask>,
        ws: &mut Workspace,
    ) -> Tensor {
        assert!(lanes > 0, "lane count must be non-zero");
        assert!(
            level.is_supported(),
            "this host does not support the {level} kernel"
        );
        self.forward_blocked(input, skip, ws, Some(lanes), level)
    }

    /// The one blocked kernel: lowers `input` once, then computes the
    /// output planes with the `level` body on `lanes` lanes, or on as many
    /// as [`lanes::wanted_lanes`] and the lane budget allow when `None`.
    fn forward_blocked(
        &self,
        input: &Tensor,
        skip: Option<&BitMask>,
        ws: &mut Workspace,
        lanes: Option<usize>,
        level: Level,
    ) -> Tensor {
        let out_shape = self.output_shape(input.shape());
        if let Some(skip) = skip {
            assert_eq!(
                skip.shape(),
                out_shape,
                "skip mask must have the output shape"
            );
        }
        let plane = out_shape.plane();
        let (patches, packs) = ws.buffers(self.macs_per_neuron() * plane);
        self.fill_im2col(input, out_shape, patches);
        let group = level.lanes();
        let want = lanes.unwrap_or_else(|| {
            lanes::wanted_lanes(self.weights.len(), self.out_channels.div_ceil(group))
        });
        // Forced lane counts bypass the budget; automatic splits draw on it.
        let grant =
            (lanes.is_none() && want > 1).then(|| lanes::BUDGET.acquire(want, lanes::cores()));
        let lanes = grant.as_ref().map_or(want, lanes::LaneGrant::lanes);
        let job = tile::Job {
            patches,
            weights: &self.weights,
            bias: &self.bias,
            taps: self.macs_per_neuron(),
            plane,
            relu: self.relu,
            skip,
        };
        let mut out = Tensor::zeros(out_shape);
        lanes::for_each_block(
            out.as_mut_slice(),
            plane,
            group,
            lanes,
            packs,
            |pack, first, block| tile::run(level, &job, first, block, pack),
        );
        out
    }

    /// Lowers `input` into the patch matrix: row `kk = (n·K + i)·K + j`
    /// holds, for each output position `(r, c)`, the input value that
    /// weight `kk` multiplies — `0.0` where the window hangs over the
    /// border. Row layout matches [`Conv2d::kernel`], column layout matches
    /// the output plane.
    fn fill_im2col(&self, input: &Tensor, out_shape: Shape, patches: &mut [f32]) {
        let in_shape = input.shape();
        let (in_h, in_w) = (in_shape.height(), in_shape.width());
        let (out_h, out_w) = (out_shape.height(), out_shape.width());
        let plane = out_shape.plane();
        let pad = self.pad as isize;
        for n in 0..self.in_channels {
            let in_plane = input.channel(n);
            for i in 0..self.k {
                for j in 0..self.k {
                    let kk = (n * self.k + i) * self.k + j;
                    let row = &mut patches[kk * plane..(kk + 1) * plane];
                    for r in 0..out_h {
                        let in_r = (r * self.stride + i) as isize - pad;
                        let dst = &mut row[r * out_w..(r + 1) * out_w];
                        if in_r < 0 || in_r as usize >= in_h {
                            dst.fill(0.0);
                            continue;
                        }
                        let in_row = &in_plane[in_r as usize * in_w..(in_r as usize + 1) * in_w];
                        if self.stride == 1 {
                            // in_c = c + j - pad is valid for
                            // c ∈ [pad - j, in_w + pad - j) ∩ [0, out_w).
                            let lo = ((pad - j as isize).max(0) as usize).min(out_w);
                            let hi = ((in_w as isize + pad - j as isize).max(lo as isize) as usize)
                                .min(out_w);
                            dst[..lo].fill(0.0);
                            dst[hi..].fill(0.0);
                            let src = (lo + j) - self.pad;
                            dst[lo..hi].copy_from_slice(&in_row[src..src + (hi - lo)]);
                        } else {
                            for (c, v) in dst.iter_mut().enumerate() {
                                let in_c = (c * self.stride + j) as isize - pad;
                                *v = if in_c < 0 || in_c as usize >= in_w {
                                    0.0
                                } else {
                                    in_row[in_c as usize]
                                };
                            }
                        }
                    }
                }
            }
        }
    }

    /// Computes a single output neuron `(m, r, c)` with the same
    /// arithmetic as [`Conv2d::forward`].
    ///
    /// A test oracle: the skipping inference computes kept neurons with
    /// [`Conv2d::forward_skipping_ws`], not neuron by neuron.
    pub fn forward_neuron(&self, input: &Tensor, m: usize, r: usize, c: usize) -> f32 {
        let in_shape = input.shape();
        let (in_h, in_w) = (in_shape.height(), in_shape.width());
        let mut acc = self.bias[m];
        for n in 0..self.in_channels {
            let in_plane = input.channel(n);
            for i in 0..self.k {
                let in_r = (r * self.stride + i) as isize - self.pad as isize;
                if in_r < 0 || in_r as usize >= in_h {
                    continue;
                }
                for j in 0..self.k {
                    let in_c = (c * self.stride + j) as isize - self.pad as isize;
                    if in_c < 0 || in_c as usize >= in_w {
                        continue;
                    }
                    acc += self.weight(m, n, i, j) * in_plane[in_r as usize * in_w + in_c as usize];
                }
            }
        }
        if self.relu && acc < 0.0 {
            0.0
        } else {
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel_preserves_input() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, false);
        conv.set_weight(0, 0, 1, 1, 1.0);
        let input = Tensor::from_fn(Shape::new(1, 3, 3), |_, r, c| (r * 3 + c) as f32);
        let out = conv.forward(&input);
        assert_eq!(out, input);
    }

    #[test]
    fn padding_zeros_at_border() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, false);
        // Sum-of-window kernel.
        for i in 0..3 {
            for j in 0..3 {
                conv.set_weight(0, 0, i, j, 1.0);
            }
        }
        let input = Tensor::full(Shape::new(1, 3, 3), 1.0);
        let out = conv.forward(&input);
        assert_eq!(out[(0, 1, 1)], 9.0); // full window
        assert_eq!(out[(0, 0, 0)], 4.0); // corner sees 2x2
        assert_eq!(out[(0, 0, 1)], 6.0); // edge sees 2x3
    }

    #[test]
    fn stride_two_subsamples() {
        let mut conv = Conv2d::new(1, 1, 1, 2, 0, false);
        conv.set_weight(0, 0, 0, 0, 1.0);
        let input = Tensor::from_fn(Shape::new(1, 4, 4), |_, r, c| (r * 4 + c) as f32);
        let out = conv.forward(&input);
        assert_eq!(out.shape(), Shape::new(1, 2, 2));
        assert_eq!(out[(0, 0, 0)], 0.0);
        assert_eq!(out[(0, 0, 1)], 2.0);
        assert_eq!(out[(0, 1, 0)], 8.0);
        assert_eq!(out[(0, 1, 1)], 10.0);
    }

    #[test]
    fn multi_channel_sums_contributions() {
        let mut conv = Conv2d::new(2, 1, 1, 1, 0, false);
        conv.set_weight(0, 0, 0, 0, 1.0);
        conv.set_weight(0, 1, 0, 0, 10.0);
        let input = Tensor::from_fn(Shape::new(2, 2, 2), |ch, _, _| (ch + 1) as f32);
        let out = conv.forward(&input);
        assert!(out.iter().all(|&v| v == 21.0));
    }

    #[test]
    fn relu_clamps_output() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, true);
        conv.set_weight(0, 0, 0, 0, -1.0);
        let input = Tensor::full(Shape::new(1, 2, 2), 3.0);
        let out = conv.forward(&input);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn bias_is_applied_per_channel() {
        let mut conv = Conv2d::new(1, 2, 1, 1, 0, false);
        conv.bias_mut()[0] = 1.0;
        conv.bias_mut()[1] = -2.0;
        let input = Tensor::zeros(Shape::new(1, 2, 2));
        let out = conv.forward(&input);
        assert!(out.channel(0).iter().all(|&v| v == 1.0));
        assert!(out.channel(1).iter().all(|&v| v == -2.0));
    }

    #[test]
    fn forward_neuron_matches_forward() {
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, true);
        // Deterministic pseudo-random weights.
        let mut state = 11u64;
        for v in conv.weights_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *v = ((state >> 33) as f32 / u32::MAX as f32 * 2.0 - 1.0) * 0.5;
        }
        let input = Tensor::from_fn(Shape::new(3, 5, 5), |ch, r, c| {
            ((ch * 31 + r * 7 + c * 3) % 9) as f32 / 4.0
        });
        let full = conv.forward(&input);
        let out_shape = full.shape();
        for (m, r, c) in out_shape.coords() {
            assert_eq!(conv.forward_neuron(&input, m, r, c), full[(m, r, c)]);
        }
    }

    fn seeded_conv(
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        relu: bool,
        seed: u64,
    ) -> Conv2d {
        let mut conv = Conv2d::new(in_c, out_c, k, stride, pad, relu);
        let mut state = seed;
        for v in conv.weights_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            // ~25% exact zeros to exercise the w == 0.0 skip.
            *v = if state >> 62 == 0 {
                0.0
            } else {
                ((state >> 33) as f32 / u32::MAX as f32 * 2.0 - 1.0) * 0.5
            };
        }
        for b in conv.bias_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (state >> 33) as f32 / u32::MAX as f32 - 0.5;
        }
        conv
    }

    #[test]
    fn forward_ws_matches_forward_across_geometries() {
        // (in_c, out_c, k, stride, pad, dim) covering LeNet-ish shapes,
        // stride > 1, pad larger than needed, and 1x1 kernels.
        let cases = [
            (1, 1, 1, 1, 0, 4),
            (1, 6, 5, 1, 2, 14),
            (3, 4, 3, 1, 1, 6),
            (2, 3, 5, 2, 2, 9),
            (6, 16, 5, 1, 0, 14),
            (4, 2, 3, 3, 1, 10),
        ];
        let mut ws = Workspace::new();
        for (idx, &(in_c, out_c, k, stride, pad, dim)) in cases.iter().enumerate() {
            let conv = seeded_conv(
                in_c,
                out_c,
                k,
                stride,
                pad,
                idx.is_multiple_of(2),
                idx as u64 + 3,
            );
            let input = Tensor::from_fn(Shape::new(in_c, dim, dim), |ch, r, c| {
                ((ch * 31 + r * 7 + c * 3) % 11) as f32 / 5.0 - 1.0
            });
            assert_eq!(
                conv.forward_ws(&input, &mut ws),
                conv.forward(&input),
                "geometry {:?} diverged",
                (in_c, out_c, k, stride, pad, dim)
            );
        }
        assert!(ws.im2col_capacity() > 0);
    }

    #[test]
    fn forward_parallel_matches_forward_for_any_lane_count() {
        let conv = seeded_conv(3, 8, 3, 1, 1, true, 42);
        let input = Tensor::from_fn(Shape::new(3, 9, 9), |ch, r, c| {
            ((ch * 13 + r * 5 + c) % 7) as f32 / 3.0 - 1.0
        });
        let reference = conv.forward(&input);
        let mut ws = Workspace::new();
        for lanes in [1, 2, 3, 8, 16] {
            assert_eq!(
                conv.forward_parallel(&input, lanes, None, &mut ws),
                reference,
                "lanes={lanes} diverged"
            );
        }
    }

    #[test]
    fn automatic_split_above_the_grain_is_bit_identical_to_one_lane() {
        // 64 → 128 channels, 3×3: 73 728 weights, above the grain, so on a
        // multi-core host the automatic kernels split the call.
        let conv = seeded_conv(64, 128, 3, 1, 1, true, 5);
        let input = Tensor::from_fn(Shape::new(64, 12, 12), |ch, r, c| {
            ((ch * 13 + r * 5 + c) % 7) as f32 / 3.0 - 1.0
        });
        let out_shape = conv.output_shape(input.shape());
        assert!(conv.weights().len() >= lanes::SPLIT_GRAIN_WEIGHTS);
        let skip = BitMask::from_fn(out_shape, |i| i % 7 < 3 || i / 144 == 9);
        let bits = |t: Tensor| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut ws = Workspace::new();
        assert_eq!(
            bits(conv.forward_ws(&input, &mut ws)),
            bits(conv.forward_parallel(&input, 1, None, &mut ws))
        );
        assert_eq!(
            bits(conv.forward_skipping_ws(&input, &skip, &mut ws)),
            bits(conv.forward_parallel(&input, 1, Some(&skip), &mut ws))
        );
    }

    #[test]
    fn workspace_is_reused_across_layers() {
        let big = seeded_conv(2, 2, 3, 1, 1, false, 7);
        let small = seeded_conv(1, 1, 1, 1, 0, false, 8);
        let mut ws = Workspace::new();
        let _ = big.forward_ws(&Tensor::full(Shape::new(2, 8, 8), 1.0), &mut ws);
        let cap = ws.im2col_capacity();
        let _ = small.forward_ws(&Tensor::full(Shape::new(1, 4, 4), 1.0), &mut ws);
        assert_eq!(ws.im2col_capacity(), cap, "smaller layer must not shrink");
    }

    #[test]
    #[should_panic(expected = "lane count must be non-zero")]
    fn zero_lanes_rejected() {
        let conv = Conv2d::new(1, 1, 1, 1, 0, false);
        let _ = conv.forward_parallel(
            &Tensor::zeros(Shape::new(1, 2, 2)),
            0,
            None,
            &mut Workspace::new(),
        );
    }

    #[test]
    fn forcing_a_level_the_host_lacks_panics_instead_of_running_it() {
        let conv = seeded_conv(2, 20, 3, 1, 1, true, 9);
        let input = Tensor::full(Shape::new(2, 5, 5), 0.5);
        for level in Level::ALL {
            let forced = std::panic::catch_unwind(|| {
                conv.forward_at_level(&input, level, 1, None, &mut Workspace::new())
            });
            match forced {
                Ok(out) => {
                    assert!(level.is_supported(), "{level} ran on a host without it");
                    assert_eq!(out, conv.forward(&input), "{level}");
                }
                Err(_) => assert!(!level.is_supported(), "{level} is supported but panicked"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn wrong_channel_count_rejected() {
        let conv = Conv2d::new(3, 1, 3, 1, 1, false);
        let input = Tensor::zeros(Shape::new(2, 8, 8));
        let _ = conv.forward(&input);
    }
}
