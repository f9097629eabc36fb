//! Property-based tests for the CNN substrate.

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
    /// Per channel, one kept neuron in every run of `period` neurons
    /// (period 256 = one per column tile of the blocked kernel).
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
        // of the 64-bit mask word or the 256-column tile.
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
