//! The open-loop rate ladder: seeded Poisson schedules, the latency limit
//! and the choice of the highest rate that meets it.

use crate::stats::percentile_rule;

/// Offered rates of the ladder, requests per second, ascending. They span
/// about 20 % to 120 % of the closed-loop capacity of `lenet-serve`
/// (about 290 req/s on the 2-CPU host the benchmark was sized on; see
/// `README.md`) in steps of 10–17 % of it.
pub const LADDER_RPS: [f64; 8] = [60.0, 90.0, 130.0, 160.0, 200.0, 250.0, 300.0, 350.0];
/// Index of the `low` step (about 30 % of capacity).
pub const LOW: usize = 1;
/// Index of the `high` step (about 70 % of capacity).
pub const HIGH: usize = 4;
/// A step meets the limit when its p99 is at most this.
pub const LIMIT_MS: f64 = 50.0;
/// ... and at least this share of its requests are good.
pub const MIN_GOOD_SHARE: f64 = 0.99;
/// ... and the generator's p99 lateness stays within this.
pub const MAX_LAG_MS: f64 = 10.0;
/// ... and the mean backlog of the second half of the step exceeds the
/// first half's by at most this many requests per connection.
pub const MAX_BACKLOG_GROWTH: f64 = 4.0;

/// splitmix64: the benchmark's only source of randomness.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Due times, in seconds from the step start, of a Poisson arrival process
/// at `rate` over `seconds`, drawn from `seed`.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut state = seed;
    let mut t = 0.0;
    let mut due = Vec::new();
    loop {
        state = mix64(state);
        // Uniform in (0, 1]: never ln(0).
        let u = ((state >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        t += -u.ln() / rate;
        if t >= seconds {
            return due;
        }
        due.push(t);
    }
}

/// What one ladder step measured.
#[derive(Debug, Clone, Default)]
pub struct StepStats {
    /// Offered rate of the step.
    pub rate: f64,
    /// Requests scheduled.
    pub sent: usize,
    /// Responses that were ok, pristine and within [`LIMIT_MS`].
    pub good: usize,
    /// Requests that failed: errors, sheds, expiries, degraded responses
    /// and requests never answered.
    pub failed: usize,
    /// Due-time-to-response latency of every request, ms; infinite for a
    /// request that failed or was never answered.
    pub latencies_ms: Vec<f64>,
    /// How late each request was sent, ms.
    pub lag_ms: Vec<f64>,
    /// `(due time s, requests outstanding on its connection)` at each send.
    pub backlog: Vec<(f64, usize)>,
}

impl StepStats {
    /// Mean backlog of the second half of the step minus that of the first.
    pub fn backlog_growth(&self) -> f64 {
        let Some(end) = self.backlog.iter().map(|b| b.0).reduce(f64::max) else {
            return 0.0;
        };
        let mean = |first: bool| {
            let xs: Vec<f64> = self
                .backlog
                .iter()
                .filter(|b| (b.0 < end / 2.0) == first)
                .map(|b| b.1 as f64)
                .collect();
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        mean(false) - mean(true)
    }

    /// Requests outstanding at the step's last send, over all connections.
    pub fn end_backlog(&self, connections: usize) -> usize {
        let mut last = self.backlog.clone();
        last.sort_by(|a, b| b.0.total_cmp(&a.0));
        last.iter().take(connections).map(|b| b.1).sum()
    }

    /// The generator's p99 lateness (percentile rule), ms.
    pub fn lag_p99_ms(&self) -> f64 {
        percentile_rule(&self.lag_ms, 0.99).map_or(0.0, |p| p.value)
    }

    /// Whether the step meets the latency limit (see the constants above).
    pub fn meets_limit(&self) -> bool {
        let Some(p99) = percentile_rule(&self.latencies_ms, 0.99) else {
            return false;
        };
        p99.value <= LIMIT_MS
            && self.sent > 0
            && self.good as f64 >= MIN_GOOD_SHARE * self.sent as f64
            && self.lag_p99_ms() <= MAX_LAG_MS
            && self.backlog_growth() <= MAX_BACKLOG_GROWTH
    }
}

/// The highest ladder rate such that it and every lower step meet the
/// limit; 0 when the first step already misses it.
pub fn max_rate(steps: &[StepStats]) -> f64 {
    steps
        .iter()
        .take_while(|s| s.meets_limit())
        .last()
        .map_or(0.0, |s| s.rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(7, 100.0, 2.0);
        assert_eq!(a, poisson_schedule(7, 100.0, 2.0));
        assert_ne!(a, poisson_schedule(8, 100.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
    }

    #[test]
    fn schedule_offers_the_requested_rate() {
        let n = poisson_schedule(3, 200.0, 50.0).len() as f64;
        // 10 000 expected arrivals; 5 standard deviations is 500.
        assert!((n - 10_000.0).abs() < 500.0, "{n}");
    }

    fn step(rate: f64, latency_ms: f64, backlog: impl Fn(f64) -> usize) -> StepStats {
        let due = poisson_schedule(rate as u64, rate, 2.0);
        StepStats {
            rate,
            sent: due.len(),
            good: due.len(),
            failed: 0,
            latencies_ms: vec![latency_ms; due.len()],
            lag_ms: vec![0.1; due.len()],
            backlog: due.iter().map(|&t| (t, backlog(t))).collect(),
        }
    }

    #[test]
    fn max_rate_is_the_last_step_before_the_first_miss() {
        let steps = vec![
            step(60.0, 5.0, |_| 0),
            step(90.0, 8.0, |_| 1),
            step(130.0, 70.0, |_| 1), // p99 over the limit
            step(180.0, 5.0, |_| 0),  // passes, but after a miss
        ];
        assert!(steps[3].meets_limit());
        assert_eq!(max_rate(&steps), 90.0);
        assert_eq!(max_rate(&steps[2..]), 0.0);
    }

    #[test]
    fn a_growing_backlog_misses_the_limit() {
        // Latency alone would pass; the queue grows by ~10 per connection.
        let growing = step(130.0, 20.0, |t| (t * 10.0) as usize);
        assert!(growing.backlog_growth() > MAX_BACKLOG_GROWTH);
        assert!(!growing.meets_limit());
        let steady = step(130.0, 20.0, |t| (t * 10.0) as usize % 3);
        assert!(steady.meets_limit());
        assert_eq!(max_rate(&[steady, growing]), 130.0);
    }

    #[test]
    fn a_late_generator_or_bad_responses_miss_the_limit() {
        let mut late = step(60.0, 5.0, |_| 0);
        late.lag_ms = vec![25.0; late.sent];
        assert!(!late.meets_limit());
        let mut bad = step(60.0, 5.0, |_| 0);
        bad.good = bad.sent * 9 / 10;
        assert!(!bad.meets_limit());
    }
}
