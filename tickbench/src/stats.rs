//! Order statistics over measured samples.

use std::ops::Range;
use std::time::{Duration, Instant};

/// Tick timing of an untraced run: several passes through the same
/// pre-generated inputs, each from a freshly built state. The first pass
/// runs for its share of the run's seconds and fixes how many ticks every
/// later pass replays; the ticks it finished in the first tenth of its
/// share warm caches and lazy set-up in every pass and are not timed. A
/// tick's time is the upper quartile (nearest rank, the second slowest of
/// five) of its passes.
///
/// A shared host runs the same code at different speeds: other tenants
/// contend for the shared cache and memory most of the time, with quieter
/// spells of a few seconds at irregular times. How many quiet spells a run
/// happens to catch decides its fastest passes, so statistics that lean on
/// them (a tick's fastest pass, a low percentile) spread most between
/// runs; the upper quartile of the passes is the tick on the loaded host,
/// which a run meets every time, and one disturbed pass does not move it.
/// The work repeats exactly from pass to pass, so a slower program is
/// slower in every pass.
pub struct Passes {
    share: Duration,
    started: Instant,
    first: bool,
    /// Every pass's time of each tick, in tick order.
    ticks: Vec<Vec<Duration>>,
    /// Leading ticks that are warm-up, not timed.
    warmup: usize,
}

impl Passes {
    /// Passes in one run.
    pub const COUNT: usize = 5;

    /// Passes sharing `seconds` of measurement.
    pub fn new(seconds: Duration) -> Self {
        Passes {
            share: seconds / Self::COUNT as u32,
            started: Instant::now(),
            first: true,
            ticks: Vec::new(),
            warmup: 0,
        }
    }

    /// Start the next pass (the first on the first call).
    pub fn begin(&mut self) {
        self.first = self.ticks.is_empty();
        self.started = Instant::now();
    }

    /// Whether tick `i` of the current pass runs: on the first pass while
    /// its share of the time lasts, on later passes the first pass's ticks.
    pub fn runs(&self, i: usize) -> bool {
        if self.first {
            self.started.elapsed() < self.share
        } else {
            i < self.ticks.len()
        }
    }

    /// Record that tick `i` of the current pass took `took`.
    pub fn record(&mut self, i: usize, took: Duration) {
        if self.first {
            debug_assert_eq!(i, self.ticks.len(), "ticks run in order");
            if i == self.warmup && self.started.elapsed() < self.share / 10 {
                self.warmup += 1;
            }
            self.ticks.push(Vec::with_capacity(Self::COUNT));
        }
        self.ticks[i].push(took);
    }

    /// The indices of the timed ticks.
    pub fn timed(&self) -> Range<usize> {
        self.warmup..self.ticks.len()
    }

    /// Each timed tick's time, in milliseconds, in tick order: the upper
    /// quartile of its passes.
    pub fn tick_ms(&self) -> Vec<f64> {
        self.ticks[self.timed()]
            .iter()
            .map(|passes| percentile(&passes.iter().copied().map(ms).collect::<Vec<_>>(), 0.75))
            .collect()
    }
}

/// Milliseconds, with every digit the clock gave.
pub fn ms(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// Nearest-rank percentile (`q` in `0.0..=1.0`); `0.0` for no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The nearest rank of the `q` percentile of `n` samples if at least ten
/// samples lie beyond it, else the highest rank that has ten beyond it (the
/// last when there are ten samples or fewer).
pub fn upper_rank(n: usize, q: f64) -> usize {
    if n <= 10 {
        return n;
    }
    ((q * n as f64).ceil() as usize).clamp(1, n - 10)
}

/// The sample at [`upper_rank`]; `0.0` for no samples.
pub fn upper_percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[upper_rank(sorted.len(), q) - 1]
}

/// The median (nearest rank); `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_ticks_time_is_the_upper_quartile_of_its_passes() {
        // No time for the first pass, so no warm-up either.
        let mut passes = Passes::new(Duration::ZERO);
        let times = [[5, 9], [6, 3], [4, 4], [8, 2], [7, 1]];
        for row in times {
            passes.begin();
            for (i, t) in row.into_iter().enumerate() {
                passes.record(i, Duration::from_millis(t));
            }
        }
        assert!(passes.runs(1) && !passes.runs(2));
        assert_eq!(passes.timed(), 0..2);
        // Tick 0 took 5, 6, 4, 8, 7 ms; tick 1 took 9, 3, 4, 2, 1 ms.
        assert_eq!(passes.tick_ms(), vec![7.0, 4.0]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&samples), 50.0);
        assert_eq!(percentile(&samples, 0.9), 90.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(upper_percentile(&samples, 0.9), 90.0);
        assert_eq!(upper_percentile(&samples[..50], 0.9), 40.0);
        assert_eq!(upper_percentile(&[7.0, 8.0], 0.9), 8.0);
        assert_eq!(median(&[]), 0.0);
    }
}
