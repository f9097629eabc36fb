//! The reference bracket: the yardstick the gated latencies are measured in.
//!
//! The cores of the shared host the benchmark runs on change speed by up
//! to 2× within a minute (other tenants; no CPU steal shows, CPU time
//! rises with wall time), so a wall-clock latency spreads more between
//! runs of the same code than any useful bound. The same slowdown hits
//! other code running on that core at that moment. So every measured
//! request is bracketed, on its own thread, by a fixed amount of work in
//! the benchmark's own code, and its latency is reported in units of that
//! bracket's time: a request that costs `k` brackets reads `k` on a fast
//! or a slow core. The program under test never runs this code, so a
//! change to the program moves only the numerator.
//!
//! A bracket has two parts, for the two ways the host slows a request:
//! small f32 matrix products whose operands stay in the core's own caches
//! (compute), and optionally one product that streams a weight matrix of
//! several MiB, which lives in the last-level cache other tenants share —
//! as the VGG16 conv layers stream their weights.

use std::hint::black_box;
use std::time::Instant;

/// Side of the small square matrices: one small product is `N³` f32
/// multiply-adds (262 144) over 48 KiB of operands.
pub const N: usize = 64;
/// Columns of the streamed weight matrix, and rows reusing each weight.
const STREAM_COLS: usize = 64;
const STREAM_ROWS: usize = 8;

/// The operands of one bracket, allocated once per thread so that timing
/// it touches no allocator.
pub struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    weights: Vec<f32>,
    small_reps: usize,
}

impl Reference {
    /// A bracket of `small_reps` small products and, when `weights_mib` is
    /// not 0, one pass over a streamed weight matrix of that many MiB.
    /// Fixed operands: the same values in every run.
    pub fn new(small_reps: usize, weights_mib: usize) -> Self {
        let weights = (weights_mib << 20) / std::mem::size_of::<f32>();
        Self {
            a: (0..N * N).map(|i| (i % 7) as f32 * 0.25).collect(),
            b: (0..N * N).map(|i| (i % 5) as f32 * 0.5).collect(),
            c: vec![0.0; N * N],
            weights: (0..weights).map(|i| (i % 11) as f32 * 0.125).collect(),
            small_reps,
        }
    }

    /// One small product `c = a·b`; returns a checksum of `c`.
    fn product(&mut self) -> f32 {
        let (a, b) = (black_box(&self.a), black_box(&self.b));
        self.c.fill(0.0);
        for i in 0..N {
            let row = &mut self.c[i * N..(i + 1) * N];
            for k in 0..N {
                let x = a[i * N + k];
                for (c, &y) in row.iter_mut().zip(&b[k * N..(k + 1) * N]) {
                    *c += x * y;
                }
            }
        }
        black_box(&self.c).iter().sum()
    }

    /// One pass `acc[8×64] = a[8×K]·w[K×64]` over the streamed weights;
    /// returns a checksum of `acc`.
    fn stream(&self) -> f32 {
        let mut acc = [[0f32; STREAM_COLS]; STREAM_ROWS];
        let a = black_box(&self.a);
        for (k, w) in black_box(&self.weights)
            .chunks_exact(STREAM_COLS)
            .enumerate()
        {
            for (r, acc) in acc.iter_mut().enumerate() {
                let x = a[(r * N + k) % (N * N)];
                for (acc, &y) in acc.iter_mut().zip(w) {
                    *acc += x * y;
                }
            }
        }
        acc.iter().flatten().sum()
    }

    /// Wall time of one bracket, ns.
    pub fn time_ns(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..self.small_reps {
            black_box(self.product());
        }
        if !self.weights.is_empty() {
            black_box(self.stream());
        }
        t.elapsed().as_nanos() as f64
    }
}

/// A latency in brackets: `latency_ns` over the mean of the bracket times
/// measured right before and right after it.
pub fn in_refs(latency_ns: f64, before_ns: f64, after_ns: f64) -> f64 {
    latency_ns / ((before_ns + after_ns) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_small_product_is_fixed() {
        let mut r = Reference::new(1, 0);
        let first = r.product();
        assert_eq!(first.to_bits(), r.product().to_bits());
        // Σ_ij Σ_k a_ik b_kj = Σ_k (Σ_i a_ik)(Σ_j b_kj): exact in f32 here,
        // every term being a multiple of 1/8 well below 2^21.
        let mut want = 0.0f64;
        for k in 0..N {
            let col: f64 = (0..N).map(|i| r.a[i * N + k] as f64).sum();
            let row: f64 = (0..N).map(|j| r.b[k * N + j] as f64).sum();
            want += col * row;
        }
        assert_eq!(first as f64, want);
        assert!(r.time_ns() > 0.0);
    }

    #[test]
    fn the_stream_reads_every_weight() {
        let r = Reference::new(0, 1);
        assert_eq!(r.weights.len(), 1 << 18);
        assert_eq!(r.stream().to_bits(), r.stream().to_bits());
        assert!(r.stream() > 0.0);
        assert!(Reference::new(0, 0).weights.is_empty());
    }

    #[test]
    fn latency_is_divided_by_the_mean_bracket() {
        assert_eq!(in_refs(300.0, 2.0, 4.0), 100.0);
        assert_eq!(in_refs(50.0, 5.0, 5.0), 10.0);
    }
}
