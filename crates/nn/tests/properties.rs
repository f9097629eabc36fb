//! Property-based tests for the CNN substrate.

use fbcnn_nn::simd::Level;
use fbcnn_nn::{Conv2d, Dense, Pool2d, PoolKind, Workspace};
use fbcnn_tensor::{BitMask, Shape, Tensor};
use proptest::prelude::*;
use std::ops::Range;

fn arb_conv() -> impl Strategy<Value = (Conv2d, Tensor)> {
    (1usize..4, 1usize..5, 1usize..4, 0usize..2, 4usize..8).prop_flat_map(
        |(n, m, k_idx, pad, dim)| {
            let k = [1usize, 3, 5][k_idx % 3].min(dim);
            let pad = pad.min(k.saturating_sub(1));
            let wlen = m * n * k * k;
            (
                proptest::collection::vec(-1.0f32..1.0, wlen),
                proptest::collection::vec(-1.0f32..1.0, n * dim * dim),
                Just((n, m, k, pad, dim)),
            )
                .prop_map(|(weights, data, (n, m, k, pad, dim))| {
                    let mut conv = Conv2d::new(n, m, k, 1, pad, false);
                    conv.weights_mut().copy_from_slice(&weights);
                    let input = Tensor::from_vec(Shape::new(n, dim, dim), data);
                    (conv, input)
                })
        },
    )
}

/// Like [`arb_conv`], but additionally varies stride, fused ReLU and the
/// bias — the dimensions the fast conv paths must reproduce exactly.
fn arb_conv_fast() -> impl Strategy<Value = (Conv2d, Tensor)> {
    arb_conv_geometry(1..6, 1..3, 4..9)
}

/// Random convolutions with output channels, strides and input sizes
/// drawn from the given ranges (1–3 input channels, kernel 1, 3 or 5, pad
/// up to 2, ReLU on or off, random bias).
fn arb_conv_geometry(
    out_channels: Range<usize>,
    strides: Range<usize>,
    dims: Range<usize>,
) -> impl Strategy<Value = (Conv2d, Tensor)> {
    (
        (1usize..4, out_channels, 0usize..3),
        (0usize..3, strides, dims, any::<bool>()),
    )
        .prop_flat_map(|((n, m, k_idx), (pad, stride, dim, relu))| {
            let k = [1usize, 3, 5][k_idx % 3].min(dim);
            let pad = pad.min(k.saturating_sub(1));
            let wlen = m * n * k * k;
            (
                proptest::collection::vec(-1.0f32..1.0, wlen),
                proptest::collection::vec(-1.0f32..1.0, m),
                proptest::collection::vec(-1.0f32..1.0, n * dim * dim),
                Just((n, m, k, pad, stride, dim, relu)),
            )
                .prop_map(
                    |(weights, bias, data, (n, m, k, pad, stride, dim, relu))| {
                        let mut conv = Conv2d::new(n, m, k, stride, pad, relu);
                        conv.weights_mut().copy_from_slice(&weights);
                        conv.bias_mut().copy_from_slice(&bias);
                        let input = Tensor::from_vec(Shape::new(n, dim, dim), data);
                        (conv, input)
                    },
                )
        })
}

/// Which output neurons a skipping convolution is told to skip.
#[derive(Debug, Clone)]
enum SkipPattern {
    Empty,
    Full,
    /// Each neuron skipped with the given probability.
    Random {
        seed: u64,
        density: f64,
    },
    /// Each output channel skipped entirely or not at all.
    WholeChannels {
        seed: u64,
    },
    /// Per channel, one kept neuron in every run of `period` neurons.
    OneKeptPer {
        period: usize,
        offset: usize,
    },
}

impl SkipPattern {
    fn mask(&self, shape: Shape) -> BitMask {
        let plane = shape.plane();
        let hash = |seed: u64, i: usize| {
            let mut z = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        };
        match *self {
            SkipPattern::Empty => BitMask::zeros(shape),
            SkipPattern::Full => BitMask::ones(shape),
            SkipPattern::Random { seed, density } => BitMask::from_fn(shape, |i| {
                ((hash(seed, i) >> 11) as f64) < density * (1u64 << 53) as f64
            }),
            SkipPattern::WholeChannels { seed } => {
                BitMask::from_fn(shape, |i| hash(seed, i / plane) & 1 == 1)
            }
            SkipPattern::OneKeptPer { period, offset } => {
                BitMask::from_fn(shape, |i| !(i % plane + offset).is_multiple_of(period))
            }
        }
    }
}

fn arb_skip_pattern() -> impl Strategy<Value = SkipPattern> {
    (
        0usize..5,
        any::<u64>(),
        0.0f64..1.0,
        (0usize..4, 1usize..300),
    )
        .prop_map(|(kind, seed, density, (period_kind, period))| match kind {
            0 => SkipPattern::Empty,
            1 => SkipPattern::Full,
            2 => SkipPattern::Random { seed, density },
            3 => SkipPattern::WholeChannels { seed },
            _ => {
                let period = [64, 256].get(period_kind).copied().unwrap_or(period);
                SkipPattern::OneKeptPer {
                    period,
                    offset: seed as usize % period,
                }
            }
        })
}

/// A small deterministic generator for the per-level cases.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

/// Random convolutions for the per-level differential test, over what the
/// tiled kernel's shape depends on: 1–39 output channels (partial channel
/// groups for every lane width, and LeNet `conv1`'s 6), planes from 1×1
/// up with widths that leave tile tails, stride and pad. About 25 % of the
/// weights are exact zeros, a quarter of the biases are `-0.0` or `+0.0`,
/// and half the cases put ±inf and NaN among the activations. The NaN is
/// the one the host's arithmetic makes (`inf − inf`), so every NaN an
/// output can hold has one bit pattern whatever the operand order.
fn arb_level_case() -> impl Strategy<Value = (Conv2d, Tensor)> {
    (
        (1usize..4, 1usize..40, 0usize..3),
        (0usize..3, 1usize..4, 1usize..20, any::<bool>()),
        any::<u64>(),
    )
        .prop_map(|((n, m, k_idx), (pad, stride, dim, relu), seed)| {
            let k = [1usize, 3, 5][k_idx].min(dim);
            let pad = pad.min(k - 1);
            let mut rng = SplitMix(seed);
            let mut conv = Conv2d::new(n, m, k, stride, pad, relu);
            for w in conv.weights_mut() {
                *w = if rng.next().is_multiple_of(4) {
                    0.0
                } else {
                    rng.unit()
                };
            }
            for b in conv.bias_mut() {
                *b = match rng.next() % 8 {
                    0 => -0.0,
                    1 => 0.0,
                    _ => rng.unit(),
                };
            }
            let nan = std::hint::black_box(f32::INFINITY) - std::hint::black_box(f32::INFINITY);
            let specials = rng.next().is_multiple_of(2);
            let data = (0..n * dim * dim)
                .map(|_| match rng.next() % 128 {
                    0 if specials => f32::INFINITY,
                    1 if specials => f32::NEG_INFINITY,
                    2 if specials => nan,
                    3 => -0.0,
                    _ => rng.unit(),
                })
                .collect();
            (conv, Tensor::from_vec(Shape::new(n, dim, dim), data))
        })
}

/// The blocked kernels' arithmetic, neuron by neuron: the bias, then
/// `w·x` added in `(n, i, j)` order for every nonzero weight, where a
/// window position over the border reads `0.0` (the im2col patch value),
/// then ReLU (`< 0.0` becomes `+0.0`); skipped neurons read `+0.0`.
///
/// [`Conv2d::forward`] skips border positions instead of adding `w·0.0`,
/// so it agrees with this oracle only up to the sign of zero.
fn kernel_oracle_bits(conv: &Conv2d, input: &Tensor, skip: Option<&BitMask>) -> Vec<u32> {
    let in_shape = input.shape();
    let (h, w) = (in_shape.height() as isize, in_shape.width() as isize);
    let (k, stride, pad) = (conv.kernel_size(), conv.stride(), conv.pad() as isize);
    let out_shape = conv.output_shape(in_shape);
    out_shape
        .coords()
        .enumerate()
        .map(|(idx, (m, r, c))| {
            if skip.is_some_and(|s| s.get(idx)) {
                return 0.0f32.to_bits();
            }
            let mut acc = conv.bias()[m];
            for n in 0..conv.in_channels() {
                for i in 0..k {
                    for j in 0..k {
                        let wv = conv.weight(m, n, i, j);
                        if wv == 0.0 {
                            continue;
                        }
                        let ri = (r * stride + i) as isize - pad;
                        let ci = (c * stride + j) as isize - pad;
                        let x = if (0..h).contains(&ri) && (0..w).contains(&ci) {
                            input[(n, ri as usize, ci as usize)]
                        } else {
                            0.0
                        };
                        acc += wv * x;
                    }
                }
            }
            if conv.has_relu() && acc < 0.0 {
                acc = 0.0;
            }
            acc.to_bits()
        })
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn forward_ws_matches_naive_forward((conv, input) in arb_conv_fast()) {
        // The im2col + blocked kernel must agree with the naive reference
        // loop exactly (same accumulation order, so same rounding).
        let mut ws = Workspace::new();
        prop_assert_eq!(conv.forward_ws(&input, &mut ws), conv.forward(&input));
    }

    #[test]
    fn forced_lane_counts_are_bit_identical_to_one_lane(
        // Up to 11 output channels, so most lane counts do not divide them.
        (conv, input) in arb_conv_geometry(1..12, 1..4, 5..14),
        pattern in arb_skip_pattern(),
        skipping in any::<bool>(),
    ) {
        // Lanes own disjoint runs of output planes over one shared patch
        // matrix, so the lane count must not change a single bit. These
        // geometries are far below the split grain, so the automatic
        // kernels run on one lane.
        let skip = pattern.mask(conv.output_shape(input.shape()));
        let skip = skipping.then_some(&skip);
        let mut ws = Workspace::new();
        let one_lane = match skip {
            Some(skip) => conv.forward_skipping_ws(&input, skip, &mut ws),
            None => conv.forward_ws(&input, &mut ws),
        };
        let m = conv.out_channels();
        for lanes in [1, 2, 3, m, m + 3] {
            let got = conv.forward_parallel(&input, lanes, skip, &mut ws);
            prop_assert_eq!(got.shape(), one_lane.shape());
            prop_assert!(
                got.iter().zip(one_lane.iter()).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{} lanes over {} channels diverged from one lane",
                lanes,
                m
            );
        }
    }

    #[test]
    fn forward_skipping_ws_matches_the_zeroed_naive_oracle(
        // Output planes up to 24×24 = 576 neurons, mostly not a multiple
        // of the 64-bit mask word or the 16-column tile.
        (conv, input) in arb_conv_geometry(1..6, 1..4, 9..27),
        pattern in arb_skip_pattern(),
    ) {
        let skip = pattern.mask(conv.output_shape(input.shape()));
        let mut ws = Workspace::new();
        let got = conv.forward_skipping_ws(&input, &skip, &mut ws);
        let mut oracle = conv.forward(&input);
        oracle.apply_drop_mask(&skip);
        // Kept neurons equal the naive loop; skipped ones read +0.0.
        prop_assert_eq!(&got, &oracle);
        for i in skip.iter_set() {
            prop_assert_eq!(got.at(i).to_bits(), 0, "skipped neuron {} is not +0.0", i);
        }
        if skip.count_ones() == 0 {
            let dense = conv.forward_ws(&input, &mut ws);
            prop_assert!(
                got.iter().zip(dense.iter()).all(|(a, b)| a.to_bits() == b.to_bits()),
                "an empty skip mask must reproduce forward_ws bit for bit"
            );
        }
    }

    #[test]
    fn every_supported_level_matches_the_kernel_oracle_bit_for_bit(
        (conv, input) in arb_level_case(),
        pattern in arb_skip_pattern(),
    ) {
        let skip = pattern.mask(conv.output_shape(input.shape()));
        let dense = kernel_oracle_bits(&conv, &input, None);
        let skipped = kernel_oracle_bits(&conv, &input, Some(&skip));
        let mut ws = Workspace::new();
        // The automatic kernels run the detected level.
        prop_assert!(bits(&conv.forward_ws(&input, &mut ws)) == dense, "forward_ws diverged");
        prop_assert!(
            bits(&conv.forward_skipping_ws(&input, &skip, &mut ws)) == skipped,
            "forward_skipping_ws diverged"
        );
        for level in Level::supported() {
            for lanes in [1, 3] {
                let got = conv.forward_at_level(&input, level, lanes, None, &mut ws);
                prop_assert!(
                    bits(&got) == dense,
                    "{} on {} lanes diverged: {:?}",
                    level,
                    lanes,
                    (conv.in_channels(), conv.out_channels(), conv.kernel_size(), conv.stride(), conv.pad(), input.shape())
                );
                let got = conv.forward_at_level(&input, level, lanes, Some(&skip), &mut ws);
                prop_assert!(
                    bits(&got) == skipped,
                    "{} on {} lanes diverged under {:?}",
                    level,
                    lanes,
                    pattern
                );
            }
        }
    }

    #[test]
    fn convolution_is_linear_in_the_input((conv, input) in arb_conv(), scale in -2.0f32..2.0) {
        // With zero bias and no ReLU, conv(s·x) == s·conv(x).
        let scaled = input.map(|v| v * scale);
        let a = conv.forward(&scaled);
        let mut b = conv.forward(&input);
        b.scale_inplace(scale);
        prop_assert!(a.max_abs_diff(&b) < 1e-3, "nonlinearity detected: {}", a.max_abs_diff(&b));
    }

    #[test]
    fn convolution_is_additive((conv, input) in arb_conv()) {
        // conv(x + x) == conv(x) + conv(x) with zero bias.
        let doubled = input.map(|v| v + v);
        let a = conv.forward(&doubled);
        let single = conv.forward(&input);
        let mut b = single.clone();
        b.add_assign(&single);
        prop_assert!(a.max_abs_diff(&b) < 1e-3);
    }

    #[test]
    fn forward_neuron_agrees_with_forward((conv, input) in arb_conv()) {
        // `forward_neuron` is a test oracle; it must agree with `forward`.
        let full = conv.forward(&input);
        let s = full.shape();
        // Spot-check a handful of coordinates.
        for &i in &[0usize, s.len() / 3, s.len() / 2, s.len() - 1] {
            let (m, r, c) = s.unravel(i);
            prop_assert_eq!(conv.forward_neuron(&input, m, r, c), full.at(i));
        }
    }

    #[test]
    fn relu_only_clamps((conv, input) in arb_conv()) {
        let mut relu_conv = conv.clone();
        // Rebuild with fused ReLU by comparing manually.
        let plain = conv.forward(&input);
        let _ = &mut relu_conv;
        let clamped = plain.map(|v| v.max(0.0));
        let mut by_hand = plain.clone();
        by_hand.relu_inplace();
        prop_assert_eq!(clamped, by_hand);
    }

    #[test]
    fn max_pool_dominates_avg_pool(
        data in proptest::collection::vec(-5.0f32..5.0, 64),
        k in 1usize..4,
    ) {
        let input = Tensor::from_vec(Shape::new(1, 8, 8), data);
        let maxp = Pool2d::new(PoolKind::Max, k, k).forward(&input);
        let avgp = Pool2d::new(PoolKind::Avg, k, k).forward(&input);
        for i in 0..maxp.len() {
            prop_assert!(maxp.at(i) >= avgp.at(i) - 1e-6);
        }
    }

    #[test]
    fn max_pool_output_is_a_window_member(
        data in proptest::collection::vec(-5.0f32..5.0, 2 * 36),
    ) {
        let input = Tensor::from_vec(Shape::new(2, 6, 6), data);
        let pool = Pool2d::new(PoolKind::Max, 2, 2);
        let (out, arg) = pool.forward_with_argmax(&input);
        for (i, &src) in arg.iter().enumerate() {
            prop_assert_eq!(out.at(i), input.at(src));
        }
    }

    #[test]
    fn dense_is_linear(
        weights in proptest::collection::vec(-1.0f32..1.0, 12),
        x in proptest::collection::vec(-1.0f32..1.0, 4),
        s in -2.0f32..2.0,
    ) {
        let mut fc = Dense::new(4, 3, false);
        fc.weights_mut().copy_from_slice(&weights);
        let input = Tensor::from_vec(Shape::flat(4), x.clone());
        let scaled = Tensor::from_vec(Shape::flat(4), x.iter().map(|v| v * s).collect());
        let a = fc.forward(&scaled);
        let mut b = fc.forward(&input);
        b.scale_inplace(s);
        prop_assert!(a.max_abs_diff(&b) < 1e-4);
    }
}
