//! Sliding windows over content streams (paper §2.1).
//!
//! A query's window `w` is either *tuple-based* (the last `c` updates of
//! each writer) or *time-based* (updates within the last `T` time units).
//! Each writer maintains a [`WindowBuffer`]; a write produces the inserted
//! value plus any values that simultaneously expire, and time passing can
//! expire values on its own (the engine propagates both as
//! [`DeltaOp`](crate::DeltaOp)s).
//!
//! The paper's running example uses `c = 1` ("the most recent value written
//! by each neighbor"), which is [`WindowSpec::Tuple`]`(1)`.

use std::collections::VecDeque;

/// Sliding-window specification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowSpec {
    /// Keep the last `c` values (tuple/count-based). `c ≥ 1`.
    Tuple(usize),
    /// Keep values with timestamp `> now − duration` (time-based).
    Time(u64),
    /// Keep everything (landmark window / running aggregate).
    Unbounded,
}

impl WindowSpec {
    /// Expected number of in-window values for cost modeling (§4.2 assigns
    /// a writer `w` inputs where `w` is the average window fill).
    ///
    /// `avg_write_interval` is the mean time between two writes of one
    /// writer; `stream_horizon` is the stream length (in the same time
    /// units) the plan is expected to serve. A landmark window
    /// ([`WindowSpec::Unbounded`]) never expires anything, so its fill is
    /// the writer's entire history — writer rate × stream horizon — not the
    /// single value it was previously modeled as holding (which made the §4
    /// cost model wildly underestimate the pull cost of running
    /// aggregates).
    pub fn expected_size(&self, avg_write_interval: f64, stream_horizon: f64) -> f64 {
        match self {
            WindowSpec::Tuple(c) => *c as f64,
            WindowSpec::Time(t) => {
                if avg_write_interval <= 0.0 {
                    1.0
                } else {
                    (*t as f64 / avg_write_interval).max(1.0)
                }
            }
            WindowSpec::Unbounded => {
                if avg_write_interval <= 0.0 {
                    1.0
                } else {
                    (stream_horizon / avg_write_interval).max(1.0)
                }
            }
        }
    }
}

/// Per-writer buffer of in-window `(timestamp, value)` pairs.
#[derive(Clone, Debug)]
pub struct WindowBuffer {
    spec: WindowSpec,
    buf: VecDeque<(u64, i64)>,
}

impl WindowBuffer {
    /// Empty buffer with the given window semantics.
    pub fn new(spec: WindowSpec) -> Self {
        Self {
            spec,
            buf: VecDeque::new(),
        }
    }

    /// The window spec.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Number of in-window values.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no values are in the window.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Iterate over in-window values (oldest first).
    pub fn values(&self) -> impl Iterator<Item = i64> + '_ {
        self.buf.iter().map(|&(_, v)| v)
    }

    /// Iterate over in-window `(timestamp, value)` entries (oldest first).
    /// This is the wire-encoding view: [`from_entries`](Self::from_entries)
    /// rebuilds an identical buffer from it on the far side of a socket.
    pub fn entries(&self) -> impl Iterator<Item = (u64, i64)> + '_ {
        self.buf.iter().copied()
    }

    /// Rebuild a buffer from its spec and `(timestamp, value)` entries as
    /// produced by [`entries`](Self::entries) (oldest first). The entries
    /// are installed verbatim — callers must pass a sequence that already
    /// respects the spec, which any [`entries`](Self::entries) output does.
    pub fn from_entries(spec: WindowSpec, entries: impl IntoIterator<Item = (u64, i64)>) -> Self {
        Self {
            spec,
            buf: entries.into_iter().collect(),
        }
    }

    /// Record a write at time `now`; expired values are appended to
    /// `expired` (oldest first). Timestamps must be non-decreasing across
    /// calls.
    pub fn push(&mut self, now: u64, value: i64, expired: &mut impl Extend<i64>) {
        debug_assert!(self.buf.back().is_none_or(|&(t, _)| t <= now));
        self.buf.push_back((now, value));
        match self.spec {
            WindowSpec::Tuple(c) => {
                while self.buf.len() > c.max(1) {
                    expired.extend(self.buf.pop_front().map(|(_, v)| v));
                }
            }
            WindowSpec::Time(t) => {
                if let Some(cutoff) = now.checked_sub(t) {
                    self.expire_before(cutoff, expired);
                }
            }
            WindowSpec::Unbounded => {}
        }
    }

    /// Advance time without a write (time-based windows only); expired
    /// values are appended to `expired` (oldest first).
    pub fn advance(&mut self, now: u64, expired: &mut impl Extend<i64>) {
        if let WindowSpec::Time(t) = self.spec {
            if let Some(cutoff) = now.checked_sub(t) {
                self.expire_before(cutoff, expired);
            }
        }
    }

    fn expire_before(&mut self, cutoff: u64, expired: &mut impl Extend<i64>) {
        while let Some(&(t, v)) = self.buf.front() {
            if t <= cutoff {
                self.buf.pop_front();
                expired.extend(Some(v));
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_window_keeps_last_c() {
        let mut w = WindowBuffer::new(WindowSpec::Tuple(2));
        let mut ex = Vec::new();
        w.push(1, 10, &mut ex);
        w.push(2, 20, &mut ex);
        assert!(ex.is_empty());
        w.push(3, 30, &mut ex);
        assert_eq!(ex, vec![10]);
        assert_eq!(w.values().collect::<Vec<_>>(), vec![20, 30]);
    }

    #[test]
    fn tuple_window_c1_is_latest_value() {
        // The paper's running example: c = 1.
        let mut w = WindowBuffer::new(WindowSpec::Tuple(1));
        let mut ex = Vec::new();
        w.push(1, 5, &mut ex);
        w.push(2, 9, &mut ex);
        assert_eq!(ex, vec![5]);
        assert_eq!(w.values().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn time_window_expiry_on_push() {
        let mut w = WindowBuffer::new(WindowSpec::Time(10));
        let mut ex = Vec::new();
        w.push(0, 1, &mut ex);
        w.push(5, 2, &mut ex);
        w.push(11, 3, &mut ex);
        // cutoff = 11 - 10 = 1: the t=0 value expires.
        assert_eq!(ex, vec![1]);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn time_window_advance_without_write() {
        let mut w = WindowBuffer::new(WindowSpec::Time(10));
        let mut ex = Vec::new();
        w.push(0, 1, &mut ex);
        w.push(2, 2, &mut ex);
        w.advance(100, &mut ex);
        assert_eq!(ex, vec![1, 2]);
        assert!(w.is_empty());
    }

    #[test]
    fn unbounded_never_expires() {
        let mut w = WindowBuffer::new(WindowSpec::Unbounded);
        let mut ex = Vec::new();
        for i in 0..100 {
            w.push(i, i as i64, &mut ex);
        }
        assert!(ex.is_empty());
        assert_eq!(w.len(), 100);
    }

    #[test]
    fn advance_noop_for_tuple_windows() {
        let mut w = WindowBuffer::new(WindowSpec::Tuple(3));
        let mut ex = Vec::new();
        w.push(0, 7, &mut ex);
        w.advance(1_000_000, &mut ex);
        assert!(ex.is_empty());
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn expected_size() {
        assert_eq!(WindowSpec::Tuple(10).expected_size(123.0, 1e6), 10.0);
        assert_eq!(WindowSpec::Time(100).expected_size(10.0, 1e6), 10.0);
        assert_eq!(WindowSpec::Time(100).expected_size(1000.0, 1e6), 1.0);
        // Landmark fill = writer rate × stream horizon, not 1.
        assert_eq!(WindowSpec::Unbounded.expected_size(1.0, 10_000.0), 10_000.0);
        assert_eq!(WindowSpec::Unbounded.expected_size(4.0, 10_000.0), 2500.0);
        // Degenerate inputs clamp to one value.
        assert_eq!(WindowSpec::Unbounded.expected_size(0.0, 10_000.0), 1.0);
        assert_eq!(WindowSpec::Unbounded.expected_size(1.0, 0.0), 1.0);
    }
}
