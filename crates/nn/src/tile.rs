//! The register-tiled convolution kernel: every blocked call
//! ([`crate::Conv2d::forward_ws`], [`crate::Conv2d::forward_skipping_ws`],
//! [`crate::Conv2d::forward_parallel`]) computes its output planes here.
//!
//! One tile is `L` output channels × `N` output columns held in `N`
//! vector registers of `L` lanes — the paper's PE computing `Tm` output
//! channels from one shared input stream. Lanes run over channels: for
//! each patch row `kk` the tile loads the `L` channels' weights (packed
//! `[kk][L]` per channel group into per-lane scratch) and multiplies them
//! by each column's patch value broadcast to every lane. Tiles are 16
//! columns wide at AVX-512 and 8 at AVX2 and portable, and narrow to 8, 4,
//! 2 and 1 columns for a plane's tail, so the 2×2 and 4×4 planes of deep
//! layers waste no registers on missing columns.
//!
//! The body is written once, generic over the vector type and the tile
//! width, and instantiated per [`Level`] under `#[target_feature]`
//! wrappers. Every neuron keeps the arithmetic of the naive loop
//! ([`crate::Conv2d::forward`]): bias first, then a separate multiply and
//! add per weight in `kk`-ascending order (never fused), zero weights
//! skipped per lane by a select, then ReLU (`v < 0.0` becomes `+0.0`).
//! Skipped neurons are written `+0.0` last, so the result is bit-identical
//! at every level and lane count.

use crate::simd::Level;
use fbcnn_tensor::BitMask;

/// The operands of one convolution call, shared read-only by its lanes.
pub(crate) struct Job<'a> {
    /// The im2col patch matrix: `taps` rows of `plane` columns.
    pub(crate) patches: &'a [f32],
    /// All weights, `[m][kk]`.
    pub(crate) weights: &'a [f32],
    /// Bias per output channel.
    pub(crate) bias: &'a [f32],
    /// Weights per output channel (`N·K²`), the patch matrix's rows.
    pub(crate) taps: usize,
    /// Neurons per output plane, the patch matrix's columns.
    pub(crate) plane: usize,
    /// Whether ReLU is fused.
    pub(crate) relu: bool,
    /// Output-shaped mask of neurons to skip (written `+0.0`).
    pub(crate) skip: Option<&'a BitMask>,
}

/// Per-lane scratch: one channel group's weights packed `[kk][L]`, and
/// what each packed row holds. Grown on first use, then reused (the
/// [`crate::Workspace`] keeps one per lane).
///
/// Aligned to two cache lines, so the lanes of a split call, which write
/// their own `Pack`s side by side in one `Vec`, never share a line.
#[derive(Debug, Clone, Default)]
#[repr(align(128))]
pub(crate) struct Pack {
    weights: Vec<f32>,
    rows: Vec<Row>,
}

/// What one packed weight row holds, over the group's real channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Row {
    /// Every weight is zero: the row adds nothing and is not visited.
    Zero,
    /// No weight is zero: a plain multiply and add per lane.
    Dense,
    /// Some weights are zero: lanes with a zero weight keep their sum.
    Mixed,
}

impl Pack {
    /// Packs the weights of channels `m0..m0 + channels` as `V::L`-wide
    /// rows, zero in the lanes past the last channel.
    ///
    /// On deep layers' small planes a weight serves only a few columns, so
    /// this transpose costs as much as the tiles unless it is vectorised:
    /// whole groups move `L × L` blocks through registers, and only a
    /// partial group or the last `taps mod L` rows go element by element.
    ///
    /// # Safety
    ///
    /// The caller's target features must cover `V`'s.
    #[inline(always)]
    unsafe fn load<V: Vector>(&mut self, job: &Job<'_>, m0: usize, channels: usize) {
        let (taps, lanes) = (job.taps, V::L);
        if self.weights.len() < taps * lanes {
            self.weights.resize(taps * lanes, 0.0);
        }
        let packed = &mut self.weights[..taps * lanes];
        let kernels = &job.weights[m0 * taps..(m0 + channels) * taps];
        let blocked = if channels == lanes {
            taps - taps % lanes
        } else {
            0
        };
        for kk in (0..blocked).step_by(lanes) {
            V::transpose(
                kernels.as_ptr().add(kk),
                taps,
                packed.as_mut_ptr().add(kk * lanes),
                lanes,
            );
        }
        pack_rows(
            kernels,
            taps,
            lanes,
            blocked,
            &mut packed[blocked * lanes..],
        );
        // A plain loop, not a closure: a closure passed to a std adapter
        // may be compiled outside this level, turning each vector
        // operation into a call.
        let real = u32::MAX >> (32 - channels);
        self.rows.clear();
        for row in packed.chunks_exact(lanes) {
            self.rows
                .push(match V::load(row.as_ptr()).nonzero_bits() & real {
                    0 => Row::Zero,
                    bits if bits == real => Row::Dense,
                    _ => Row::Mixed,
                });
        }
    }
}

/// Packs rows `first..` of `kernels` (one kernel of `taps` weights per
/// channel) as `lanes`-wide rows into `packed`, element by element; lanes
/// past the last kernel read zero.
///
/// Kept out of line so it is compiled for the baseline target: inlined into
/// a wide level, the compiler turns the strided reads into gathers, which
/// are slower than scalar loads on many hosts.
#[inline(never)]
fn pack_rows(kernels: &[f32], taps: usize, lanes: usize, first: usize, packed: &mut [f32]) {
    for (kk, row) in (first..taps).zip(packed.chunks_exact_mut(lanes)) {
        for (l, slot) in row.iter_mut().enumerate() {
            *slot = kernels.get(l * taps + kk).copied().unwrap_or(0.0);
        }
    }
}

/// Computes output channels `first..first + out.len() / plane` of `job`
/// into `out` (whole planes) with the `level` body.
///
/// # Panics
///
/// Panics if the host does not support `level` or `out` is not a run of
/// whole output planes of `job`.
pub(crate) fn run(level: Level, job: &Job<'_>, first: usize, out: &mut [f32], pack: &mut Pack) {
    assert!(
        level.is_supported(),
        "this host does not support the {level} kernel"
    );
    let plane = job.plane;
    assert!(plane > 0 && out.len().is_multiple_of(plane));
    assert!(first + out.len() / plane <= job.bias.len());
    assert!(job.patches.len() >= job.taps * plane);
    assert!(job.weights.len() == job.bias.len() * job.taps);
    // SAFETY: `level` is supported by this host (asserted above), so its
    // target features are present, and the operand sizes the tile's raw
    // reads rely on are asserted above.
    unsafe {
        match level {
            #[cfg(target_arch = "x86_64")]
            Level::Avx512 => x86::block_avx512(job, first, out, pack),
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => x86::block_avx2(job, first, out, pack),
            _ => block::<F32x4, 8>(job, first, out, pack),
        }
    }
}

/// One vector of `L` `f32` lanes, one per output channel of a tile.
///
/// # Safety
///
/// Every method may use the target features of the vector's level: call
/// them only from code compiled with those features (the level's entry
/// point in [`run`], after checking the host supports it). `load`,
/// `transpose` and the pointers they take must cover the `L` or `L × L`
/// values they read and write.
trait Vector: Copy {
    /// Lanes per vector.
    const L: usize;
    /// The lanes as an array: `[f32; L]`.
    type Array: AsRef<[f32]> + Copy;
    /// Loads `L` values from `src`.
    unsafe fn load(src: *const f32) -> Self;
    /// `x` in every lane.
    unsafe fn splat(x: f32) -> Self;
    unsafe fn mul(self, b: Self) -> Self;
    unsafe fn add(self, b: Self) -> Self;
    /// `self + t` in the lanes where `w` is not zero (`w != 0.0`, so a
    /// NaN weight counts), `self` elsewhere.
    unsafe fn add_where_nonzero(self, t: Self, w: Self) -> Self;
    /// `+0.0` in the lanes below zero, the lane unchanged elsewhere.
    unsafe fn relu(self) -> Self;
    /// Bit `l` set where lane `l` is not zero (`!= 0.0`).
    unsafe fn nonzero_bits(self) -> u32;
    unsafe fn to_array(self) -> Self::Array;
    /// Transposes the `L × L` block whose row `l` starts at
    /// `src + l·src_stride` into the block whose row `c` starts at
    /// `dst + c·dst_stride`: value `c` of row `l` becomes value `l` of row
    /// `c`.
    unsafe fn transpose(src: *const f32, src_stride: usize, dst: *mut f32, dst_stride: usize);
}

/// Computes every channel group of the block `out` (channels from
/// `first`), with tiles of up to `N` columns.
///
/// # Safety
///
/// The caller's target features must cover `V`'s, and `job` must satisfy
/// the size checks in [`run`].
#[inline(always)]
unsafe fn block<V: Vector, const N: usize>(
    job: &Job<'_>,
    first: usize,
    out: &mut [f32],
    pack: &mut Pack,
) {
    let plane = job.plane;
    for (g, group) in out.chunks_mut(V::L * plane).enumerate() {
        let m0 = first + g * V::L;
        let channels = group.len() / plane;
        pack.load::<V>(job, m0, channels);
        let mut bias = [0.0f32; 16];
        bias[..channels].copy_from_slice(&job.bias[m0..m0 + channels]);
        let bias = V::load(bias.as_ptr());
        let tile = Group {
            job,
            pack: &*pack,
            bias,
            channels,
        };
        // Full tiles, then one each of the narrower widths for the tail.
        let mut p0 = tile.run::<N>(group, 0);
        if N > 8 {
            p0 = tile.run::<8>(group, p0);
        }
        if N > 4 {
            p0 = tile.run::<4>(group, p0);
        }
        p0 = tile.run::<2>(group, p0);
        tile.run::<1>(group, p0);
        if let Some(skip) = job.skip {
            for (l, dst) in group.chunks_exact_mut(plane).enumerate() {
                zero_skipped(skip, (m0 + l) * plane, dst);
            }
        }
    }
}

/// One channel group of a block, packed and ready to tile.
struct Group<'a, V> {
    job: &'a Job<'a>,
    pack: &'a Pack,
    bias: V,
    /// Real channels in the group (`L` but in the last group).
    channels: usize,
}

impl<V: Vector> Group<'_, V> {
    /// Computes `N`-column tiles from column `p0` while they fit in the
    /// plane; returns the first column left.
    ///
    /// # Safety
    ///
    /// As [`block`]; `group` is the group's planes.
    #[inline(always)]
    unsafe fn run<const N: usize>(&self, group: &mut [f32], mut p0: usize) -> usize {
        while self.job.plane - p0 >= N {
            self.tile::<N>(group, p0);
            p0 += N;
        }
        p0
    }

    /// Computes columns `p0..p0 + N` of the group's planes.
    ///
    /// Skipped neurons are computed too and zeroed afterwards: a tile of
    /// `L` channels × `N` columns is almost never skipped whole (none of
    /// 21 504 tiles over 6 B-VGG16 requests), so checking costs more than
    /// it saves.
    ///
    /// # Safety
    ///
    /// As [`block`]; `group` is the group's planes and `p0 + N <= plane`.
    #[inline(always)]
    unsafe fn tile<const N: usize>(&self, group: &mut [f32], p0: usize) {
        let job = self.job;
        let plane = job.plane;
        let mut acc = [self.bias; N];
        let w = self.pack.weights.as_ptr();
        let patches = job.patches.as_ptr();
        for (kk, &row) in self.pack.rows.iter().enumerate() {
            // Column p0 of patch row kk: p0 + N <= plane and kk < taps keep
            // the N values read from it inside the patch matrix.
            debug_assert!(kk * plane + p0 + N <= job.patches.len());
            let x = patches.add(kk * plane + p0);
            match row {
                Row::Zero => {}
                Row::Dense => {
                    let wv = V::load(w.add(kk * V::L));
                    for (a, acc) in acc.iter_mut().enumerate() {
                        *acc = acc.add(wv.mul(V::splat(*x.add(a))));
                    }
                }
                Row::Mixed => {
                    let wv = V::load(w.add(kk * V::L));
                    for (a, acc) in acc.iter_mut().enumerate() {
                        *acc = acc.add_where_nonzero(wv.mul(V::splat(*x.add(a))), wv);
                    }
                }
            }
        }
        if job.relu {
            for acc in &mut acc {
                *acc = acc.relu();
            }
        }
        // `cols[j]` holds column p0 + j of every channel; the planes want
        // each channel's columns in a row.
        let mut cols = [self.bias.to_array(); N];
        for (col, acc) in cols.iter_mut().zip(acc) {
            *col = acc.to_array();
        }
        if self.channels == V::L && N.is_multiple_of(V::L) {
            for b in (0..N).step_by(V::L) {
                V::transpose(
                    cols.as_ptr().cast::<f32>().add(b * V::L),
                    V::L,
                    group.as_mut_ptr().add(p0 + b),
                    plane,
                );
            }
        } else {
            for (l, dst) in group
                .chunks_exact_mut(plane)
                .take(self.channels)
                .enumerate()
            {
                for (d, col) in dst[p0..p0 + N].iter_mut().zip(&cols) {
                    *d = col.as_ref()[l];
                }
            }
        }
    }
}

/// Writes `+0.0` over the neurons of `dst` whose bits are set in `skip`
/// from `start` on, walking the mask one packed word at a time.
fn zero_skipped(skip: &BitMask, start: usize, dst: &mut [f32]) {
    for (chunk, word_start) in dst.chunks_mut(64).zip((start..).step_by(64)) {
        let mut bits = skip.load_bits(word_start, chunk.len());
        while bits != 0 {
            chunk[bits.trailing_zeros() as usize] = 0.0;
            bits &= bits - 1;
        }
    }
}

/// The portable vector: four lanes in plain Rust, which the compiler maps
/// to the build target's baseline SIMD (SSE2 on x86-64).
#[derive(Clone, Copy)]
struct F32x4([f32; 4]);

impl Vector for F32x4 {
    const L: usize = 4;
    type Array = [f32; 4];

    #[inline(always)]
    unsafe fn load(src: *const f32) -> Self {
        F32x4(src.cast::<[f32; 4]>().read_unaligned())
    }

    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        F32x4([x; 4])
    }

    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        F32x4(std::array::from_fn(|i| self.0[i] * b.0[i]))
    }

    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        F32x4(std::array::from_fn(|i| self.0[i] + b.0[i]))
    }

    #[inline(always)]
    unsafe fn add_where_nonzero(self, t: Self, w: Self) -> Self {
        F32x4(std::array::from_fn(|i| {
            if w.0[i] != 0.0 {
                self.0[i] + t.0[i]
            } else {
                self.0[i]
            }
        }))
    }

    #[inline(always)]
    unsafe fn relu(self) -> Self {
        F32x4(self.0.map(|v| if v < 0.0 { 0.0 } else { v }))
    }

    #[inline(always)]
    unsafe fn nonzero_bits(self) -> u32 {
        (0..4).fold(0, |bits, l| bits | u32::from(self.0[l] != 0.0) << l)
    }

    #[inline(always)]
    unsafe fn to_array(self) -> [f32; 4] {
        self.0
    }

    #[inline(always)]
    unsafe fn transpose(src: *const f32, src_stride: usize, dst: *mut f32, dst_stride: usize) {
        for l in 0..4 {
            let row = F32x4::load(src.add(l * src_stride)).0;
            for (c, &v) in row.iter().enumerate() {
                *dst.add(c * dst_stride + l) = v;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2 and AVX-512 vectors and the kernel's entry points for
    //! those levels.

    use super::{block, Job, Pack, Vector};
    use std::arch::x86_64::*;

    /// [`block`] with 16-lane AVX-512 vectors and 16-column tiles.
    ///
    /// # Safety
    ///
    /// The host must support AVX-512F; see [`block`] for the rest.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn block_avx512(
        job: &Job<'_>,
        first: usize,
        out: &mut [f32],
        pack: &mut Pack,
    ) {
        block::<F32x16, 16>(job, first, out, pack)
    }

    /// [`block`] with 8-lane AVX2 vectors and 8-column tiles.
    ///
    /// # Safety
    ///
    /// The host must support AVX2; see [`block`] for the rest.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn block_avx2(job: &Job<'_>, first: usize, out: &mut [f32], pack: &mut Pack) {
        block::<F32x8, 8>(job, first, out, pack)
    }

    #[derive(Clone, Copy)]
    struct F32x16(__m512);

    impl Vector for F32x16 {
        const L: usize = 16;
        type Array = [f32; 16];

        #[inline(always)]
        unsafe fn load(src: *const f32) -> Self {
            F32x16(_mm512_loadu_ps(src))
        }

        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            F32x16(_mm512_set1_ps(x))
        }

        #[inline(always)]
        unsafe fn mul(self, b: Self) -> Self {
            F32x16(_mm512_mul_ps(self.0, b.0))
        }

        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            F32x16(_mm512_add_ps(self.0, b.0))
        }

        #[inline(always)]
        unsafe fn add_where_nonzero(self, t: Self, w: Self) -> Self {
            let nonzero = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(w.0, _mm512_setzero_ps());
            F32x16(_mm512_mask_add_ps(self.0, nonzero, self.0, t.0))
        }

        #[inline(always)]
        unsafe fn relu(self) -> Self {
            let zero = _mm512_setzero_ps();
            let negative = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(self.0, zero);
            F32x16(_mm512_mask_mov_ps(self.0, negative, zero))
        }

        #[inline(always)]
        unsafe fn nonzero_bits(self) -> u32 {
            u32::from(_mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(
                self.0,
                _mm512_setzero_ps(),
            ))
        }

        #[inline(always)]
        unsafe fn to_array(self) -> [f32; 16] {
            std::mem::transmute::<__m512, [f32; 16]>(self.0)
        }

        /// Unpacks pairs of rows, then pairs of pairs, so each 128-bit
        /// lane `k` of `s[4g + c]` holds rows `4g..4g + 4` of column
        /// `4k + c`; two rounds of 128-bit lane shuffles gather the four
        /// row groups of each column.
        #[inline(always)]
        unsafe fn transpose(src: *const f32, src_stride: usize, dst: *mut f32, dst_stride: usize) {
            let mut r = [_mm512_setzero_ps(); 16];
            for (l, row) in r.iter_mut().enumerate() {
                *row = _mm512_loadu_ps(src.add(l * src_stride));
            }
            let mut t = [_mm512_setzero_ps(); 16];
            for i in 0..8 {
                t[2 * i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
                t[2 * i + 1] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
            }
            let mut s = [_mm512_setzero_ps(); 16];
            for g in 0..4 {
                let (lo0, lo1) = (_mm512_castps_pd(t[4 * g]), _mm512_castps_pd(t[4 * g + 2]));
                let (hi0, hi1) = (
                    _mm512_castps_pd(t[4 * g + 1]),
                    _mm512_castps_pd(t[4 * g + 3]),
                );
                s[4 * g] = _mm512_castpd_ps(_mm512_unpacklo_pd(lo0, lo1));
                s[4 * g + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(lo0, lo1));
                s[4 * g + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(hi0, hi1));
                s[4 * g + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(hi0, hi1));
            }
            for c in 0..4 {
                let even = _mm512_shuffle_f32x4::<0x88>(s[c], s[4 + c]);
                let odd = _mm512_shuffle_f32x4::<0xdd>(s[c], s[4 + c]);
                let even2 = _mm512_shuffle_f32x4::<0x88>(s[8 + c], s[12 + c]);
                let odd2 = _mm512_shuffle_f32x4::<0xdd>(s[8 + c], s[12 + c]);
                let out = [
                    _mm512_shuffle_f32x4::<0x88>(even, even2),
                    _mm512_shuffle_f32x4::<0x88>(odd, odd2),
                    _mm512_shuffle_f32x4::<0xdd>(even, even2),
                    _mm512_shuffle_f32x4::<0xdd>(odd, odd2),
                ];
                for (k, v) in out.into_iter().enumerate() {
                    _mm512_storeu_ps(dst.add((4 * k + c) * dst_stride), v);
                }
            }
        }
    }

    #[derive(Clone, Copy)]
    struct F32x8(__m256);

    impl Vector for F32x8 {
        const L: usize = 8;
        type Array = [f32; 8];

        #[inline(always)]
        unsafe fn load(src: *const f32) -> Self {
            F32x8(_mm256_loadu_ps(src))
        }

        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            F32x8(_mm256_set1_ps(x))
        }

        #[inline(always)]
        unsafe fn mul(self, b: Self) -> Self {
            F32x8(_mm256_mul_ps(self.0, b.0))
        }

        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            F32x8(_mm256_add_ps(self.0, b.0))
        }

        #[inline(always)]
        unsafe fn add_where_nonzero(self, t: Self, w: Self) -> Self {
            let nonzero = _mm256_cmp_ps::<_CMP_NEQ_UQ>(w.0, _mm256_setzero_ps());
            F32x8(_mm256_blendv_ps(
                self.0,
                _mm256_add_ps(self.0, t.0),
                nonzero,
            ))
        }

        #[inline(always)]
        unsafe fn relu(self) -> Self {
            let negative = _mm256_cmp_ps::<_CMP_LT_OQ>(self.0, _mm256_setzero_ps());
            // All-zero bits, +0.0, where negative.
            F32x8(_mm256_andnot_ps(negative, self.0))
        }

        #[inline(always)]
        unsafe fn nonzero_bits(self) -> u32 {
            let nonzero = _mm256_cmp_ps::<_CMP_NEQ_UQ>(self.0, _mm256_setzero_ps());
            _mm256_movemask_ps(nonzero) as u32
        }

        #[inline(always)]
        unsafe fn to_array(self) -> [f32; 8] {
            std::mem::transmute::<__m256, [f32; 8]>(self.0)
        }

        /// Unpacks pairs of rows and shuffles pairs of pairs, so each
        /// 128-bit lane `k` of `s[4g + c]` holds rows `4g..4g + 4` of
        /// column `4k + c`; a 128-bit permute joins the two row groups.
        #[inline(always)]
        unsafe fn transpose(src: *const f32, src_stride: usize, dst: *mut f32, dst_stride: usize) {
            let mut r = [_mm256_setzero_ps(); 8];
            for (l, row) in r.iter_mut().enumerate() {
                *row = _mm256_loadu_ps(src.add(l * src_stride));
            }
            let mut s = [_mm256_setzero_ps(); 8];
            for g in 0..2 {
                let lo0 = _mm256_unpacklo_ps(r[4 * g], r[4 * g + 1]);
                let hi0 = _mm256_unpackhi_ps(r[4 * g], r[4 * g + 1]);
                let lo1 = _mm256_unpacklo_ps(r[4 * g + 2], r[4 * g + 3]);
                let hi1 = _mm256_unpackhi_ps(r[4 * g + 2], r[4 * g + 3]);
                s[4 * g] = _mm256_shuffle_ps::<0x44>(lo0, lo1);
                s[4 * g + 1] = _mm256_shuffle_ps::<0xee>(lo0, lo1);
                s[4 * g + 2] = _mm256_shuffle_ps::<0x44>(hi0, hi1);
                s[4 * g + 3] = _mm256_shuffle_ps::<0xee>(hi0, hi1);
            }
            for c in 0..4 {
                _mm256_storeu_ps(
                    dst.add(c * dst_stride),
                    _mm256_permute2f128_ps::<0x20>(s[c], s[4 + c]),
                );
                _mm256_storeu_ps(
                    dst.add((4 + c) * dst_stride),
                    _mm256_permute2f128_ps::<0x31>(s[c], s[4 + c]),
                );
            }
        }
    }
}
