//! The metric run (`--trace 0`): three times over — set-up, warm-up, rounds
//! of a closed-loop window and an open-loop (paced) window, and the
//! correctness check — all through the public facade with no tracing.

use crate::facade::{build_system, peak_rss_mb, verify, Reported, System, Tally};
use crate::pacing::{run_paced, WallClock};
use crate::spec::{Feeder, Inputs, Metric, Metrics, Spec, CLOSED_BATCH, END_TO_END};
use crate::spec::{BATCH_TAIL, PACED_BATCH, PACED_TAIL, READS_PER_BATCH, READ_TAIL};
use crate::stats::{median, Timing};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rounds measured on each system.
const ROUNDS_PER_SETUP: usize = 2;

/// Systems built per run: `setup_s` is the median of their build times.
const SETUPS: usize = 3;
/// Share of the stream ingested before timing starts.
const WARMUP_SHARE: f64 = 0.05;

/// Everything one metric run reports.
pub struct E2eRun {
    pub metrics: Metrics,
    /// Informational values: printed and written out, never bounded.
    pub info: Vec<Metric>,
    pub tally: Tally,
}

/// Ingest the warm-up share of the stream, untimed.
fn warm_up(sys: &System, inputs: &Inputs, feeder: &mut Feeder, reported: &mut Reported) {
    let warm = (inputs.pool.len() as f64 * WARMUP_SHARE) as usize;
    while feeder.taken < warm {
        let Some(chunk) = feeder.next(CLOSED_BATCH) else {
            break;
        };
        reported.add(&sys.ingest(chunk));
    }
}

pub fn run(spec: &Spec, inputs: &Inputs, seconds: f64, seed: u64) -> E2eRun {
    let mut metrics = Metrics::declared(&END_TO_END);
    let mut tally = Tally::default();

    // Every window is one closed-loop window then one paced window.
    let windows = SETUPS * ROUNDS_PER_SETUP;
    let window = Duration::from_secs_f64(seconds / (2 * windows) as f64);
    let interval_ns = ((PACED_BATCH as f64 / spec.paced_rate * 1e9) as u64).max(1);
    let paced_due = (window.as_nanos() as u64 / interval_ns) as usize;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut batch_ms: Vec<Vec<f64>> = Vec::with_capacity(windows);
    let mut read_us: Vec<Vec<f64>> = Vec::with_capacity(windows);
    let mut paced_ms: Vec<Vec<f64>> = Vec::with_capacity(windows);
    let mut delay_us: Vec<Vec<f64>> = Vec::with_capacity(windows);
    // Events ingested and time spent in `ingest`, per closed-loop window.
    let mut closed: Vec<(usize, f64)> = Vec::with_capacity(windows);
    let mut reads = 0usize;
    let (mut due, mut late, mut unsent) = (0usize, 0usize, 0usize);
    let mut peak_mb = 0.0f64;

    // The measured rounds are spread over the set-ups — build, warm up,
    // measure, check, drop; three times — so that both span the whole run
    // and see the same mix of the machine's fast and slow spells. (Only
    // one system is alive at a time: two would double the peak memory.)
    for _ in 0..SETUPS {
        let t = Instant::now();
        let sys = build_system(spec, inputs);
        setups.push(t.elapsed().as_secs_f64());
        let mut reported = Reported::default();
        let mut feeder = Feeder::new(inputs);
        warm_up(&sys, inputs, &mut feeder, &mut reported);

        for round in 0..ROUNDS_PER_SETUP {
            // A non-cyclic stream keeps the later paced windows' share back.
            let reserve = (ROUNDS_PER_SETUP - round) * paced_due * PACED_BATCH;

            // Closed loop: the next call goes out when the previous returned.
            let mut batches = Vec::with_capacity(1 << 10);
            let mut point_reads = Vec::with_capacity(1 << 14);
            let (mut events, mut ingest_s) = (0usize, 0.0f64);
            let phase = Instant::now();
            while phase.elapsed() < window && feeder.remaining() > reserve {
                let Some(chunk) = feeder.next(CLOSED_BATCH) else {
                    break;
                };
                let t = Instant::now();
                let report = sys.ingest(chunk);
                let took = t.elapsed().as_secs_f64();
                batches.push(took * 1e3);
                ingest_s += took;
                events += chunk.len();
                reported.add(&report);
                for _ in 0..READS_PER_BATCH {
                    let v = inputs.read_target(reads);
                    reads += 1;
                    let t = Instant::now();
                    black_box(sys.read(black_box(v)));
                    point_reads.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
            closed.push((events, ingest_s));
            batch_ms.push(batches);
            read_us.push(point_reads);

            // Open loop: batches fall due at the pinned rate; a backlog gets
            // half the window again to clear before the rest count as missed.
            let clock = WallClock::start();
            let cutoff_ns = window.as_nanos() as u64 * 3 / 2;
            let paced = run_paced(&clock, paced_due, interval_ns, cutoff_ns, |_| match feeder
                .next(PACED_BATCH)
            {
                Some(chunk) => {
                    reported.add(&sys.ingest(chunk));
                    true
                }
                None => false,
            });
            due += paced.due;
            late += paced.late(spec.late_limit_ms * 1e6);
            unsent += paced.unsent;
            paced_ms.push(paced.latency_ns.iter().map(|ns| ns / 1e6).collect());
            delay_us.push(paced.send_delay_ns.iter().map(|ns| ns / 1e3).collect());
        }
        verify(&sys, inputs, feeder.taken, &reported, seed, &mut tally);
        peak_mb = peak_mb.max(peak_rss_mb(&sys));
    }
    tally.attempted += reads;
    // A batch that was due and never sent failed its operations.
    tally.attempted += unsent * PACED_BATCH;
    tally.failed += unsent * PACED_BATCH;
    metrics.set("setup_s", median(&setups), setups.len());
    metrics.set("peak_rss_mb", peak_mb, SETUPS);

    let timing = |windows: Vec<Vec<f64>>, tail: u32| {
        let windows = if spec.pooled() {
            vec![windows.concat()]
        } else {
            windows
        };
        Timing::of(windows, tail)
    };
    // Events per second of time inside `ingest`: the point reads between
    // the calls have metrics of their own and stay out of this one.
    let events: usize = closed.iter().map(|w| w.0).sum();
    let rate = events as f64 / closed.iter().map(|w| w.1).sum::<f64>();
    let best_rate = closed
        .iter()
        .map(|&(events, s)| events as f64 / s)
        .fold(rate, f64::max);
    metrics.set("events_per_s", rate, events);
    let batch = timing(batch_ms, BATCH_TAIL);
    metrics.set("batch_p50_ms", batch.p50, batch.samples);
    metrics.set("batch_p90_ms", batch.tail, batch.samples);
    let read = timing(read_us, READ_TAIL);
    let paced_t = timing(paced_ms, PACED_TAIL);
    metrics.set("paced_p50_ms", paced_t.p50, paced_t.samples);
    metrics.set("paced_p90_ms", paced_t.tail, paced_t.samples);
    let delay = timing(delay_us, PACED_TAIL);

    let late_share = late as f64 / due.max(1) as f64;
    let info = [
        ("read_p50_us", "us", read.p50, read.samples),
        ("read_p99_us", "us", read.tail, read.samples),
        ("events_per_s_best", "1/s", best_rate, events),
        ("batch_p50_ms_best", "ms", batch.best_p50, batch.samples),
        ("batch_p90_ms_best", "ms", batch.best_tail, batch.samples),
        ("read_p50_us_best", "us", read.best_p50, read.samples),
        ("read_p99_us_best", "us", read.best_tail, read.samples),
        ("paced_p50_ms_best", "ms", paced_t.best_p50, paced_t.samples),
        (
            "paced_p90_ms_best",
            "ms",
            paced_t.best_tail,
            paced_t.samples,
        ),
        (
            "batch_supported_percent",
            "%",
            batch.supported_percent as f64,
            batch.samples,
        ),
        (
            "read_supported_percent",
            "%",
            read.supported_percent as f64,
            read.samples,
        ),
        (
            "paced_supported_percent",
            "%",
            paced_t.supported_percent as f64,
            paced_t.samples,
        ),
        ("batch_p999_ms", "ms", batch.p999, batch.samples),
        ("read_p999_us", "us", read.p999, read.samples),
        ("paced_p999_ms", "ms", paced_t.p999, paced_t.samples),
        ("paced_rate", "1/s", spec.paced_rate, due),
        ("paced_late_share", "ratio", late_share, due),
        ("paced_send_delay_p50_us", "us", delay.p50, delay.samples),
        ("paced_send_delay_tail_us", "us", delay.tail, delay.samples),
        ("failed_share", "ratio", tally.share(), tally.attempted),
    ]
    .map(|(name, unit, value, samples)| Metric {
        name,
        unit,
        value,
        samples,
    })
    .to_vec();
    E2eRun {
        metrics,
        info,
        tally,
    }
}
