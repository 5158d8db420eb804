//! Open-loop load: requests are due on a fixed schedule whether or not
//! earlier ones were answered, and each is timed from its due time, so a
//! stall also charges the requests that queued behind it.

use std::time::{Duration, Instant};

use crate::stats;

/// A fixed-rate send schedule: request `k` is due at `start + k * gap`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    gap: Duration,
}

impl Schedule {
    /// Requests at `rate` per second, the first due at `start`.
    pub fn new(start: Instant, rate: f64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        Self {
            start,
            gap: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When request `k` is due.
    pub fn due(&self, k: usize) -> Instant {
        self.start + self.gap.mul_f64(k as f64)
    }

    /// Sleeps until request `k` is due (returns at once when late).
    pub fn wait_for(&self, k: usize) -> Instant {
        let due = self.due(k);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        due
    }
}

/// Latency of a request answered at `done`, counted from when it was
/// due, not from when the generator got round to sending it.
pub fn latency_from_due(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

/// How late the generator itself sent a request.
pub fn generator_lag(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

/// One answered request of a fixed-rate step: its due offset from the
/// step start and its due-time latency, both in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Answered {
    /// Seconds from the step start to the request's due time.
    pub due_s: f64,
    /// Seconds from due time to the answer.
    pub latency_s: f64,
}

/// Latency growth that marks a backlog: the last quarter's median
/// latency exceeds twice the first quarter's plus this slack.
pub const BACKLOG_SLACK_S: f64 = 0.005;

/// Whether latency grew across the step, the sign that requests arrive
/// faster than they are served and the queue is building. Compares the
/// median latency of the last quarter of requests (by due time) with the
/// first quarter's. Needs at least eight answers to say yes.
pub fn backlog_growing(answered: &[Answered]) -> bool {
    if answered.len() < 8 {
        return false;
    }
    let mut by_due = answered.to_vec();
    by_due.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    let quarter = by_due.len() / 4;
    let lat =
        |part: &[Answered]| stats::median(&part.iter().map(|a| a.latency_s).collect::<Vec<_>>());
    let first = lat(&by_due[..quarter]);
    let last = lat(&by_due[by_due.len() - quarter..]);
    last > 2.0 * first + BACKLOG_SLACK_S
}

/// Outcome of one rung of a rate ladder.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests that failed or were refused.
    pub failed: usize,
    /// Answered requests per second over the rung.
    pub achieved: f64,
    /// Tail latency (seconds) under the percentile rule.
    pub tail: stats::Tail,
    /// Whether latency grew across the rung.
    pub backlog: bool,
}

impl Rung {
    /// Summarises one rung from its answers.
    pub fn new(rate: f64, sent: usize, answered: &[Answered], wall_s: f64, want_q: f64) -> Self {
        let lat = stats::sorted(&answered.iter().map(|a| a.latency_s).collect::<Vec<_>>());
        Self {
            rate,
            failed: sent - answered.len(),
            achieved: answered.len() as f64 / wall_s,
            tail: stats::tail(&lat, want_q),
            backlog: backlog_growing(answered),
        }
    }

    /// Meets the latency limit with no failures and no growing backlog.
    /// A failed request misses every limit.
    pub fn passes(&self, limit_s: f64) -> bool {
        self.failed == 0 && !self.backlog && self.tail.value <= limit_s
    }
}

/// The highest-rate rung that passes `limit_s`, if any.
pub fn max_passing(rungs: &[Rung], limit_s: f64) -> Option<&Rung> {
    rungs
        .iter()
        .filter(|r| r.passes(limit_s))
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
}
