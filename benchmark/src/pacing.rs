//! The open loop: batches fall due on a fixed schedule whatever the system
//! does, and each is timed from when it was *due*, not from when it was
//! sent — so a stall charges its wait to every batch queued behind it.

use std::time::{Duration, Instant};

/// Time source of the open loop (faked in tests to inject a stall).
pub trait Clock {
    /// Nanoseconds since the clock's origin.
    fn now_ns(&self) -> u64;
    /// Block until `now_ns() >= deadline_ns` (returns at once if it is).
    fn wait_until(&self, deadline_ns: u64);
}

/// Wall clock: sleeps to within 1 ms of the deadline, then spins. The
/// generator is the only thread that would otherwise run while it waits
/// (`ingest` is synchronous), so the spin takes no core from the system.
pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> Self {
        Self(Instant::now())
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, deadline_ns: u64) {
        const SPIN_NS: u64 = 1_000_000;
        loop {
            let now = self.now_ns();
            if now >= deadline_ns {
                return;
            }
            if deadline_ns - now > SPIN_NS {
                std::thread::sleep(Duration::from_nanos(deadline_ns - now - SPIN_NS));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// What one open-loop phase observed.
#[derive(Debug, Default)]
pub struct PacedOutcome {
    /// Batches that fell due in the phase.
    pub due: usize,
    /// Due time → completion, one per batch sent (ns).
    pub latency_ns: Vec<f64>,
    /// Due time → actual send, one per batch sent (ns): generator lateness.
    pub send_delay_ns: Vec<f64>,
    /// Batches never sent because the backlog outlived the cut-off.
    pub unsent: usize,
}

impl PacedOutcome {
    /// Due batches that missed `limit_ns` (unsent ones count).
    pub fn late(&self, limit_ns: f64) -> usize {
        self.latency_ns.iter().filter(|&&l| l > limit_ns).count() + self.unsent
    }
}

/// Run `due` batches, batch `i` due at `i * interval_ns` after the phase
/// starts. `send(i)` issues batch `i` synchronously and returns `false`
/// when the input is exhausted (the rest are not due). Sending stops once
/// the clock passes `cutoff_ns` after the start; what is left is `unsent`.
pub fn run_paced(
    clock: &impl Clock,
    due: usize,
    interval_ns: u64,
    cutoff_ns: u64,
    mut send: impl FnMut(usize) -> bool,
) -> PacedOutcome {
    let start = clock.now_ns();
    let mut out = PacedOutcome {
        due,
        latency_ns: Vec::with_capacity(due),
        send_delay_ns: Vec::with_capacity(due),
        unsent: 0,
    };
    for i in 0..due {
        let due_at = start + i as u64 * interval_ns;
        clock.wait_until(due_at);
        let sent_at = clock.now_ns();
        if sent_at - start > cutoff_ns {
            out.unsent = due - i;
            break;
        }
        if !send(i) {
            out.due = i;
            break;
        }
        out.latency_ns.push((clock.now_ns() - due_at) as f64);
        out.send_delay_ns.push((sent_at - due_at) as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to (waiting jumps to the deadline).
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, deadline_ns: u64) {
            self.0.set(self.0.get().max(deadline_ns));
        }
    }

    #[test]
    fn later_batches_inherit_a_stall() {
        let clock = FakeClock(Cell::new(1_000));
        // Due every 10 ns; each send takes 2 ns, except batch 2 stalls 35 ns.
        let out = run_paced(&clock, 8, 10, u64::MAX, |i| {
            clock.0.set(clock.0.get() + if i == 2 { 35 } else { 2 });
            true
        });
        // Batch 2 is due at 20 and done at 55; batches 3, 4, 5 were due at
        // 30, 40, 50 but could only be sent at 55, 57, 59: they carry the
        // wait. Batch 6 (due 60) starts on time again.
        assert_eq!(out.latency_ns, [2.0, 2.0, 35.0, 27.0, 19.0, 11.0, 3.0, 2.0]);
        assert_eq!(
            out.send_delay_ns,
            [0.0, 0.0, 0.0, 25.0, 17.0, 9.0, 1.0, 0.0]
        );
        assert_eq!((out.due, out.unsent), (8, 0));
        assert_eq!(out.late(20.0), 2);
    }

    #[test]
    fn backlog_past_the_cutoff_counts_as_late() {
        let clock = FakeClock(Cell::new(0));
        // Each send takes 30 ns against a 10 ns schedule; cut off at 100 ns.
        let out = run_paced(&clock, 10, 10, 100, |_| {
            clock.0.set(clock.0.get() + 30);
            true
        });
        assert_eq!(out.latency_ns.len(), 4);
        assert_eq!(out.unsent, 6);
        // Sent batches finished at 30, 60, 90, 120 against due 0, 10, 20, 30.
        assert_eq!(out.late(50.0), 2 + 6);
    }

    #[test]
    fn exhausted_input_shrinks_the_due_count() {
        let clock = FakeClock(Cell::new(0));
        let out = run_paced(&clock, 10, 10, u64::MAX, |i| i < 3);
        assert_eq!((out.due, out.latency_ns.len(), out.unsent), (3, 3, 0));
    }
}
