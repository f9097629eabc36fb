//! Intra-call parallelism of the blocked convolution: how many lanes
//! (threads) one call gets, and how its output planes are split over them.
//!
//! The split follows the paper's feature-map `<Tm, Tn>` parallelism: lanes
//! compute disjoint, contiguous blocks of output channels and all read the
//! same im2col patch matrix, so nothing is duplicated and every output
//! plane is computed by the same routine whatever the lane count.
//!
//! A call is split only when it is large enough to pay for the scoped
//! threads ([`SPLIT_GRAIN_MACS`]), and only onto cores no other conv call
//! is using: the process-wide [`BUDGET`] keeps the lanes held by all calls
//! at or below the core count, so request- or sample-level worker pools
//! (which already fill the cores) make every call run inline.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Multiply-accumulates below which a conv call always runs inline.
///
/// 1 Mi MACs is a few hundred microseconds of blocked kernel, well above
/// the cost of spawning a scoped helper. Every B-LeNet-5 layer and the
/// first VGG16 layer stay below it.
pub(crate) const SPLIT_GRAIN_MACS: usize = 1 << 20;

/// The process-wide lane budget shared by every automatically split call.
pub(crate) static BUDGET: LaneBudget = LaneBudget::new();

/// Cores available to this process (`available_parallelism`, read once).
pub(crate) fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The lanes a call of `macs` multiply-accumulates over `out_channels`
/// output planes would like: 1 below the grain, else one per core (at most
/// one per plane).
pub(crate) fn wanted_lanes(macs: usize, out_channels: usize) -> usize {
    if macs < SPLIT_GRAIN_MACS {
        1
    } else {
        cores().min(out_channels)
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

/// Runs `channel(m, plane_m)` for every output plane of `out` (planes of
/// `plane` elements) on `lanes` lanes: the caller and `lanes − 1` scoped
/// helper threads claim contiguous blocks of `div_ceil(planes, lanes ·
/// BLOCKS_PER_LANE)` planes in order until none is left. A panic in any
/// lane is re-raised in the caller once all lanes have stopped.
pub(crate) fn for_each_plane<F>(out: &mut [f32], plane: usize, lanes: usize, channel: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let planes = out.len() / plane;
    let lanes = lanes.min(planes);
    let run = |first: usize, block_out: &mut [f32]| {
        for (dm, plane_out) in block_out.chunks_mut(plane).enumerate() {
            channel(first + dm, plane_out);
        }
    };
    if lanes <= 1 {
        run(0, out);
        return;
    }
    let block = planes.div_ceil(lanes * BLOCKS_PER_LANE);
    let blocks = Mutex::new(out.chunks_mut(block * plane).enumerate());
    let lane = || loop {
        let claimed = blocks
            .lock()
            .expect("the block lock is never held across a panic")
            .next();
        let Some((b, block_out)) = claimed else {
            break;
        };
        run(b * block, block_out);
    };
    let lane = &lane;
    std::thread::scope(|scope| {
        for _ in 1..lanes {
            scope.spawn(lane);
        }
        lane();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    #[test]
    fn small_calls_want_one_lane() {
        assert_eq!(wanted_lanes(SPLIT_GRAIN_MACS - 1, 64), 1);
        assert_eq!(wanted_lanes(SPLIT_GRAIN_MACS, 1), 1);
        assert_eq!(wanted_lanes(SPLIT_GRAIN_MACS, 4096), cores());
    }

    #[test]
    fn every_plane_is_visited_once_for_any_lane_count() {
        let (planes, plane) = (7, 3);
        for lanes in [1, 2, 3, 7, 10] {
            let mut out = vec![0.0f32; planes * plane];
            for_each_plane(&mut out, plane, lanes, |m, dst| {
                assert_eq!(dst.len(), plane);
                dst.iter_mut().for_each(|v| *v += m as f32 + 1.0);
            });
            let want: Vec<f32> = (0..planes)
                .flat_map(|m| std::iter::repeat_n(m as f32 + 1.0, plane))
                .collect();
            assert_eq!(out, want, "lanes = {lanes}");
        }
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
                        let mut out = vec![0.0f32; 8 * 16];
                        for_each_plane(&mut out, 16, grant.lanes(), |_, dst| {
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
            let mut out = vec![0.0f32; 6 * 4];
            for_each_plane(&mut out, 4, grant.lanes(), |m, _| {
                assert_ne!(m, 5, "lane fault");
            });
        });
        assert!(result.is_err(), "a lane's panic must reach the caller");
        assert_eq!(budget.held(), 0);
        assert_eq!(budget.acquire(3, 3).lanes(), 3);
    }
}
