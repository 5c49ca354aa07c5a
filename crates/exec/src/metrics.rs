//! Execution instrumentation: throughput computation (the headline
//! evaluation metric of §5.1).

use std::time::Duration;

/// End-to-end throughput: operations per second over a wall-clock duration
/// (the paper's headline metric: "the total number of read and write
/// queries served per second").
pub fn throughput(ops: usize, elapsed: Duration) -> f64 {
    if elapsed.is_zero() {
        return 0.0;
    }
    ops as f64 / elapsed.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        assert_eq!(throughput(1000, Duration::from_secs(2)), 500.0);
        assert_eq!(throughput(10, Duration::ZERO), 0.0);
    }
}
