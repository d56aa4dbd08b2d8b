//! Algorithm parameters.

use mmhew_spectrum::ChannelSetRef;
use serde::Serialize;
use std::fmt;

/// Errors constructing a protocol instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A node cannot participate with an empty available channel set.
    EmptyChannelSet,
    /// The degree estimate must be at least 1.
    ZeroDegreeEstimate,
    /// Continuous-discovery periods (re-announce, stale timeout) must be
    /// at least 1 slot.
    ZeroContinuousParameter,
    /// Writing the Perfetto tee file requested via
    /// `Scenario::with_perfetto` failed (payload: the I/O error text).
    TraceWrite(String),
    /// An asynchronous run's clock horizon does not fit the `u64`
    /// nanosecond clock (see `mmhew_engine::AsyncRunConfig::horizon`).
    ClockHorizon {
        /// The configured frame budget.
        max_frames: u64,
        /// The configured local frame length, in nanoseconds.
        frame_len: u64,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::EmptyChannelSet => {
                write!(f, "available channel set is empty")
            }
            ProtocolError::ZeroDegreeEstimate => {
                write!(f, "degree estimate must be at least 1")
            }
            ProtocolError::ZeroContinuousParameter => {
                write!(f, "continuous-discovery periods must be at least 1 slot")
            }
            ProtocolError::TraceWrite(e) => {
                write!(f, "writing the Perfetto trace failed: {e}")
            }
            ProtocolError::ClockHorizon {
                max_frames,
                frame_len,
            } => write!(
                f,
                "{max_frames} frames of {frame_len} ns, with the clock offsets, starts and \
                 drift bound, overflow the 64-bit nanosecond clock"
            ),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Parameters of the degree-aware synchronous algorithms (1 and 3): the
/// common upper bound `Δ_est` on the maximum per-channel node degree that
/// all nodes agree on.
///
/// # Examples
///
/// ```
/// use mmhew_discovery::SyncParams;
///
/// let p = SyncParams::new(10)?;
/// assert_eq!(p.delta_est(), 10);
/// // Algorithm 1 stages have ⌈log₂ Δ_est⌉ slots (at least 1).
/// assert_eq!(p.stage_len(), 4);
/// # Ok::<(), mmhew_discovery::ProtocolError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct SyncParams {
    delta_est: u64,
}

impl SyncParams {
    /// Creates parameters with the given degree upper bound.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::ZeroDegreeEstimate`] if `delta_est == 0`.
    pub fn new(delta_est: u64) -> Result<Self, ProtocolError> {
        if delta_est == 0 {
            return Err(ProtocolError::ZeroDegreeEstimate);
        }
        Ok(Self { delta_est })
    }

    /// The degree upper bound `Δ_est`.
    pub fn delta_est(&self) -> u64 {
        self.delta_est
    }

    /// Slots per stage of Algorithm 1: `⌈log₂ Δ_est⌉`, but at least 1 so a
    /// stage is never empty (`Δ_est = 1` still needs one slot to transmit
    /// in).
    pub fn stage_len(&self) -> u64 {
        ceil_log2(self.delta_est).max(1)
    }
}

/// Parameters of the asynchronous algorithm (4): the degree bound `Δ_est`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct AsyncParams {
    delta_est: u64,
}

impl AsyncParams {
    /// Creates parameters with the given degree upper bound.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::ZeroDegreeEstimate`] if `delta_est == 0`.
    pub fn new(delta_est: u64) -> Result<Self, ProtocolError> {
        if delta_est == 0 {
            return Err(ProtocolError::ZeroDegreeEstimate);
        }
        Ok(Self { delta_est })
    }

    /// The degree upper bound `Δ_est`.
    pub fn delta_est(&self) -> u64 {
        self.delta_est
    }
}

/// `⌈log₂ x⌉` for `x ≥ 1`.
pub(crate) fn ceil_log2(x: u64) -> u64 {
    debug_assert!(x >= 1);
    64 - (x - 1).leading_zeros() as u64
}

/// The transmission probability `min(1/2, |A(u)|/denominator)` common to
/// all the paper's algorithms.
pub(crate) fn tx_probability(available: ChannelSetRef<'_>, denominator: f64) -> f64 {
    debug_assert!(denominator > 0.0);
    (available.len() as f64 / denominator).min(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn stage_lengths() {
        assert_eq!(SyncParams::new(1).expect("valid").stage_len(), 1);
        assert_eq!(SyncParams::new(2).expect("valid").stage_len(), 1);
        assert_eq!(SyncParams::new(3).expect("valid").stage_len(), 2);
        assert_eq!(SyncParams::new(16).expect("valid").stage_len(), 4);
        assert_eq!(SyncParams::new(100).expect("valid").stage_len(), 7);
    }

    #[test]
    fn zero_estimate_rejected() {
        assert_eq!(SyncParams::new(0), Err(ProtocolError::ZeroDegreeEstimate));
        assert_eq!(AsyncParams::new(0), Err(ProtocolError::ZeroDegreeEstimate));
        assert_eq!(AsyncParams::new(5).expect("valid").delta_est(), 5);
    }

    #[test]
    fn tx_probability_caps_at_half() {
        use mmhew_spectrum::ChannelSet;
        let small: ChannelSet = [0u16].into_iter().collect();
        let big = ChannelSet::full(40);
        assert_eq!(tx_probability(big.view(), 8.0), 0.5);
        assert!((tx_probability(small.view(), 8.0) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            ProtocolError::EmptyChannelSet.to_string(),
            "available channel set is empty"
        );
    }
}
