//! The host's SIMD level, detected once, for the kernels compiled once per
//! level: the register-tiled convolution ([`crate::Conv2d::forward_ws`]
//! and its skipping and split forms) and the prediction unit's counting
//! lanes in `fbcnn-predictor`.
//!
//! The build targets the baseline instruction set of its architecture
//! (SSE2 on x86-64). A kernel with per-level bodies instantiates one
//! generic body under `#[target_feature]` wrappers and calls the one
//! [`Level::detected`] names, so one binary runs the widest code the host
//! supports and nothing is configured.

use std::sync::OnceLock;

/// An instruction-set level a kernel body is compiled for, narrowest
/// first: each level's features include the previous level's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// The build target's baseline (SSE2 on x86-64); runs on any host.
    Portable,
    /// AVX2 and `popcnt` (x86-64).
    Avx2,
    /// AVX-512F on top of [`Level::Avx2`] (x86-64).
    Avx512,
}

impl Level {
    /// Every level, widest first.
    pub const ALL: [Level; 3] = [Level::Avx512, Level::Avx2, Level::Portable];

    /// The widest level this host supports, detected on the first call.
    pub fn detected() -> Level {
        static DETECTED: OnceLock<Level> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            Self::ALL
                .into_iter()
                .find(|level| level.is_supported())
                .unwrap_or(Level::Portable)
        })
    }

    /// Whether this host can run code compiled for the level.
    pub fn is_supported(self) -> bool {
        match self {
            Level::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("popcnt")
            }
            #[cfg(target_arch = "x86_64")]
            Level::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f") && Level::Avx2.is_supported()
            }
            #[cfg(not(target_arch = "x86_64"))]
            Level::Avx2 | Level::Avx512 => false,
        }
    }

    /// The levels this host supports, widest first.
    pub fn supported() -> impl Iterator<Item = Level> {
        Self::ALL.into_iter().filter(|level| level.is_supported())
    }

    /// `f32` lanes in one vector of the level: the output channels one
    /// convolution tile computes at once.
    pub fn lanes(self) -> usize {
        match self {
            Level::Portable => 4,
            Level::Avx2 => 8,
            Level::Avx512 => 16,
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Level::Portable => "portable",
            Level::Avx2 => "avx2",
            Level::Avx512 => "avx512",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_never_picks_a_level_the_host_lacks() {
        let detected = Level::detected();
        let supported: Vec<String> = Level::supported().map(|l| l.to_string()).collect();
        println!("detected SIMD level: {detected} (supported: {supported:?})");
        assert!(detected.is_supported(), "{detected} is not supported");
        // It is the widest supported level, and every narrower level runs.
        assert_eq!(Level::supported().next(), Some(detected));
        for level in Level::ALL {
            assert_eq!(level.is_supported(), level <= detected, "{level}");
        }
        assert!(Level::Portable.is_supported());
    }

    #[test]
    fn levels_widen_in_order() {
        let lanes: Vec<usize> = Level::ALL.iter().map(|l| l.lanes()).collect();
        assert_eq!(lanes, [16, 8, 4]);
        assert!(Level::Portable < Level::Avx2 && Level::Avx2 < Level::Avx512);
    }
}
