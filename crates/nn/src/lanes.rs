//! Intra-call parallelism of the blocked convolution: how many lanes
//! (threads) one call gets, and how its output planes are split over them.
//!
//! The split follows the paper's feature-map `<Tm, Tn>` parallelism: lanes
//! compute disjoint, contiguous blocks of whole channel groups (the
//! register tile's `L` output channels) and all read the same im2col patch
//! matrix, so nothing is duplicated and every neuron is computed by the
//! same arithmetic whatever the lane count.
//!
//! A call is split only when it is large enough to pay for the scoped
//! threads ([`SPLIT_GRAIN_WEIGHTS`]), and only onto cores no other conv call
//! is using: the process-wide [`BUDGET`] keeps the lanes held by all calls
//! at or below the core count, so request- or sample-level worker pools
//! (which already fill the cores) make every call run inline.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Weights (`M·N·K²`) below which a conv call always runs inline.
///
/// What lanes share best is the register tile's per-call weight packing,
/// which grows with the weights and dominates the deep layers' small
/// planes; each helper also pays a thread spawn and pulls the whole patch
/// matrix into its own cache. Measured on B-VGG16 `BENCH` (EXPERIMENTS.md):
/// two lanes break even on `conv3_1` (72 Ki weights) and speed up every
/// larger layer, but slow down `conv1_2` (9 Ki weights, yet 9.4 M MACs)
/// and `conv2_x`; a grain in MACs cannot tell `conv1_2` from `conv4_2`.
/// Every B-LeNet-5 layer stays below it.
pub(crate) const SPLIT_GRAIN_WEIGHTS: usize = 1 << 16;

/// The process-wide lane budget shared by every automatically split call.
pub(crate) static BUDGET: LaneBudget = LaneBudget::new();

/// Cores available to this process (`available_parallelism`, read once).
pub(crate) fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The lanes a call with `weights` weights over `groups` channel groups
/// (the kernel's unit of work) would like: 1 below the grain, else one per
/// core (at most one per group).
pub(crate) fn wanted_lanes(weights: usize, groups: usize) -> usize {
    if weights < SPLIT_GRAIN_WEIGHTS {
        1
    } else {
        cores().min(groups)
    }
}

/// A count of the lanes held by running conv calls, bounded by the core
/// count each caller passes in.
///
/// The counts publish no other data (a call's output reaches the caller
/// through `thread::scope`'s join), so every access is `Relaxed`; the
/// compare-exchange alone keeps `held` at or below `cores`.
#[derive(Debug)]
pub(crate) struct LaneBudget {
    /// Lanes granted and not yet released; never above `cores`.
    held: AtomicUsize,
    /// Callers running inline because no lane was free. They hold no lane
    /// but occupy a core, so no helper lane is granted over them.
    overflow: AtomicUsize,
}

impl LaneBudget {
    pub(crate) const fn new() -> Self {
        Self {
            held: AtomicUsize::new(0),
            overflow: AtomicUsize::new(0),
        }
    }

    /// Lanes currently held.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        self.held.load(Ordering::Relaxed)
    }

    /// Grants up to `want` lanes out of `cores`, fewer when other calls
    /// hold lanes or run over budget. A grant of zero lanes still lets
    /// the caller run inline ([`LaneGrant::lanes`] is at least 1).
    pub(crate) fn acquire(&self, want: usize, cores: usize) -> LaneGrant<'_> {
        let mut cur = self.held.load(Ordering::Relaxed);
        loop {
            let busy = cur + self.overflow.load(Ordering::Relaxed);
            let got = want.min(cores.saturating_sub(busy));
            if got == 0 {
                self.overflow.fetch_add(1, Ordering::Relaxed);
                return LaneGrant {
                    budget: self,
                    held: 0,
                };
            }
            match self.held.compare_exchange_weak(
                cur,
                cur + got,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return LaneGrant {
                        budget: self,
                        held: got,
                    }
                }
                Err(now) => cur = now,
            }
        }
    }
}

/// Lanes taken from a [`LaneBudget`]; released on drop, unwinding included.
#[derive(Debug)]
pub(crate) struct LaneGrant<'a> {
    budget: &'a LaneBudget,
    held: usize,
}

impl LaneGrant<'_> {
    /// How many lanes the call may run on.
    pub(crate) fn lanes(&self) -> usize {
        self.held.max(1)
    }
}

impl Drop for LaneGrant<'_> {
    fn drop(&mut self) {
        if self.held == 0 {
            self.budget.overflow.fetch_sub(1, Ordering::Relaxed);
        } else {
            self.budget.held.fetch_sub(self.held, Ordering::Relaxed);
        }
    }
}

/// Contiguous blocks of output planes per lane in a split call.
///
/// Lanes claim blocks in order instead of owning one fixed share: when
/// another caller's conv shares a helper's core and the OS deschedules the
/// helper, the other lanes take its unclaimed blocks instead of idling at
/// the join.
const BLOCKS_PER_LANE: usize = 4;

/// Runs `block(scratch, first, planes)` over the output planes of `out`
/// (planes of `plane` elements) on `lanes` lanes, in blocks of whole
/// `group`s of planes (only the last block may end in a partial group):
/// the caller and `lanes − 1` scoped helper threads claim contiguous
/// blocks of `div_ceil(planes, lanes · BLOCKS_PER_LANE)` planes, rounded
/// up to a multiple of `group`, in order until none is left. Lane `i`
/// works in `scratch[i]` (the caller's lane in `scratch[0]`); `scratch`
/// grows with `S::default()` to the lane count and keeps every lane's
/// scratch for the next call. A panic in any lane is re-raised in the
/// caller once all lanes have stopped.
pub(crate) fn for_each_block<S, F>(
    out: &mut [f32],
    plane: usize,
    group: usize,
    lanes: usize,
    scratch: &mut Vec<S>,
    block: F,
) where
    S: Default + Send,
    F: Fn(&mut S, usize, &mut [f32]) + Sync,
{
    let planes = out.len() / plane;
    let lanes = lanes.min(planes.div_ceil(group)).max(1);
    if scratch.len() < lanes {
        scratch.resize_with(lanes, S::default);
    }
    let (mine, helpers) = scratch.split_at_mut(1);
    let mine = &mut mine[0];
    if lanes == 1 {
        block(mine, 0, out);
        return;
    }
    let size = planes
        .div_ceil(lanes * BLOCKS_PER_LANE)
        .next_multiple_of(group);
    let blocks = Mutex::new(out.chunks_mut(size * plane).enumerate());
    let lane = |scratch: &mut S| loop {
        let claimed = blocks
            .lock()
            .expect("the block lock is never held across a panic")
            .next();
        let Some((b, block_out)) = claimed else {
            break;
        };
        block(scratch, b * size, block_out);
    };
    let lane = &lane;
    std::thread::scope(|scope| {
        for helper in &mut helpers[..lanes - 1] {
            scope.spawn(move || lane(helper));
        }
        lane(mine);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    #[test]
    fn small_calls_want_one_lane() {
        assert_eq!(wanted_lanes(SPLIT_GRAIN_WEIGHTS - 1, 64), 1);
        assert_eq!(wanted_lanes(SPLIT_GRAIN_WEIGHTS, 1), 1);
        assert_eq!(wanted_lanes(SPLIT_GRAIN_WEIGHTS, 4096), cores());
    }

    #[test]
    fn every_plane_is_visited_once_for_any_lane_count() {
        let plane = 3;
        for (planes, group) in [(7, 1), (7, 4), (37, 16), (64, 8), (5, 16)] {
            for lanes in [1, 2, 3, 7, 10] {
                let (mut out, mut none) = (vec![0.0f32; planes * plane], vec![()]);
                for_each_block(&mut out, plane, group, lanes, &mut none, |_, first, dst| {
                    assert!(first.is_multiple_of(group), "block starts mid-group");
                    let n = dst.len() / plane;
                    assert!(
                        n.is_multiple_of(group) || first + n == planes,
                        "only the last block may end in a partial group"
                    );
                    for (dm, p) in dst.chunks_mut(plane).enumerate() {
                        p.iter_mut().for_each(|v| *v += (first + dm) as f32 + 1.0);
                    }
                });
                let want: Vec<f32> = (0..planes)
                    .flat_map(|m| std::iter::repeat_n(m as f32 + 1.0, plane))
                    .collect();
                assert_eq!(
                    out, want,
                    "planes = {planes}, group = {group}, lanes = {lanes}"
                );
            }
        }
    }

    #[test]
    fn every_lane_keeps_its_scratch_across_calls() {
        // Each lane counts the blocks it computed in its own scratch.
        let mut scratch = vec![0usize; 1];
        for lanes in [3, 2, 3] {
            let mut out = vec![0.0f32; 24 * 2];
            for_each_block(&mut out, 2, 1, lanes, &mut scratch, |count, _, _| {
                *count += 1
            });
        }
        assert_eq!(scratch.len(), 3, "one scratch per lane, kept");
        // 24 planes on 3, 2 and 3 lanes: blocks of 2, 3 and 2 planes.
        assert_eq!(scratch.iter().sum::<usize>(), 12 + 8 + 12);
    }

    #[test]
    fn concurrent_callers_never_hold_more_lanes_than_cores() {
        // A budget of its own, so no other test's conv calls show up.
        let budget = LaneBudget::new();
        let cores = cores().max(2);
        let callers = cores + 2;
        let start = Barrier::new(callers);
        let over = AtomicBool::new(false);
        let split = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..callers {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..200 {
                        let grant = budget.acquire(cores, cores);
                        if grant.lanes() > 1 {
                            split.store(true, Ordering::Relaxed);
                        }
                        let (mut out, mut none) = (vec![0.0f32; 8 * 16], vec![()]);
                        for_each_block(&mut out, 16, 1, grant.lanes(), &mut none, |_, _, dst| {
                            if budget.held() > cores {
                                over.store(true, Ordering::Relaxed);
                            }
                            dst.fill(1.0);
                        });
                        assert!(out.iter().all(|&v| v == 1.0));
                    }
                });
            }
        });
        assert!(!over.load(Ordering::Relaxed), "more lanes held than cores");
        assert!(split.load(Ordering::Relaxed), "no call was ever split");
        assert_eq!(budget.held(), 0);
        assert_eq!(budget.overflow.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_busy_budget_runs_callers_inline() {
        let budget = LaneBudget::new();
        let all = budget.acquire(4, 4);
        assert_eq!(all.lanes(), 4);
        let inline = budget.acquire(4, 4);
        assert_eq!(inline.lanes(), 1, "no free lane: run inline");
        drop(all);
        // The inline caller still occupies a core.
        assert_eq!(budget.acquire(4, 4).lanes(), 3);
        drop(inline);
        assert_eq!(budget.acquire(4, 4).lanes(), 4);
        assert_eq!(budget.held(), 0);
    }

    #[test]
    fn the_budget_is_released_when_a_split_call_panics() {
        let budget = LaneBudget::new();
        let result = std::panic::catch_unwind(|| {
            let grant = budget.acquire(3, 3);
            assert_eq!(grant.lanes(), 3);
            let (mut out, mut none) = (vec![0.0f32; 6 * 4], vec![()]);
            for_each_block(&mut out, 4, 1, grant.lanes(), &mut none, |_, first, dst| {
                assert!(!(first..first + dst.len() / 4).contains(&5), "lane fault");
            });
        });
        assert!(result.is_err(), "a lane's panic must reach the caller");
        assert_eq!(budget.held(), 0);
        assert_eq!(budget.acquire(3, 3).lanes(), 3);
    }
}
