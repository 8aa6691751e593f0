//! Metric recorders used by every experiment harness.
//!
//! The paper reports mean response times (Figures 4 & 6), CPU-share time
//! series (Figure 5), availability under attack (Section 5) and absolute
//! durations (Table 2). The recorders here cover those shapes:
//!
//! * [`Counter`] — monotone event counts (requests served per node).
//! * [`Summary`] — running mean/min/max/variance without storing samples.
//! * [`Histogram`] — log-bucketed latency distribution with percentile
//!   queries (HDR-style: exact bucket boundaries, bounded relative error).
//! * [`TimeSeries`] — `(t, value)` samples for "versus time" plots.
//! * [`WindowedMean`] — per-window averages (Figure 5's per-second shares).
//! * [`Availability`] — up/down interval tracking for the attack-isolation
//!   experiment.

use crate::time::{SimDuration, SimTime};

/// A monotonically increasing event counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Add `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// Running summary statistics (Welford's algorithm — numerically stable,
/// O(1) memory).
#[derive(Clone, Debug, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Record a duration in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Population variance (0 with < 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Maximum (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merge another summary into this one (parallel sweeps reduce with
    /// this; Chan et al.'s pairwise update).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Log-bucketed histogram over non-negative `u64` values (we use
/// nanoseconds). Buckets have bounded relative width (~1/32), so
/// percentile queries carry bounded relative error.
///
/// Storage is sparse: only populated buckets are kept, 16 bytes each
/// (a `u16` bucket index and a `u64` count, padded), in ascending
/// bucket order, out of 65 × 32 possible. An empty histogram allocates
/// nothing, and recording into a bucket that is already populated
/// never allocates. Simulated latencies span a few binary exponents,
/// so a latency histogram touches a small share of the buckets.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    /// `(exp * SUBBUCKETS + sub, count)` for every bucket with a
    /// non-zero count, ascending by bucket index.
    buckets: Vec<(u16, u64)>,
    total: u64,
    sum: u128,
}

impl Histogram {
    const SUBBUCKETS: usize = 32;

    /// An empty histogram covering the full `u64` range.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            total: 0,
            sum: 0,
        }
    }

    /// `(exp, sub)`: values with bit-length `exp`, linearly sub-bucketed
    /// into `SUBBUCKETS` slots; values below 32 are exact under `exp` 0.
    fn bucket(value: u64) -> (usize, usize) {
        if value == 0 {
            return (0, 0);
        }
        let exp = 64 - value.leading_zeros() as usize; // bit length, 1..=64
        if exp <= 5 {
            // Values < 32 go into exact buckets under exponent 0.
            (0, value as usize)
        } else {
            let shift = exp - 6; // top 6 bits: 1 implicit + 5 sub-bucket
            let sub = ((value >> shift) & 0x1f) as usize;
            (exp - 5, sub)
        }
    }

    /// Adds `n` to bucket `key`, inserting it in order if absent.
    fn add(&mut self, key: u16, n: u64) {
        match self.buckets.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.buckets[i].1 += n,
            Err(i) => self.buckets.insert(i, (key, n)),
        }
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        let (e, s) = Self::bucket(value);
        self.add((e * Self::SUBBUCKETS + s) as u16, 1);
        self.total += 1;
        self.sum += value as u128;
    }

    /// Record a duration in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]` (returns a bucket's lower bound,
    /// so the result is `<=` the true quantile and within one bucket width
    /// of it). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based.
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for &(key, c) in &self.buckets {
            seen += c;
            if seen >= target {
                let key = key as usize;
                return Self::bucket_floor(key / Self::SUBBUCKETS, key % Self::SUBBUCKETS);
            }
        }
        Self::bucket_floor(64, Self::SUBBUCKETS - 1)
    }

    fn bucket_floor(exp: usize, sub: usize) -> u64 {
        if exp == 0 {
            sub as u64
        } else {
            let shift = exp - 1;
            (32u64 + sub as u64) << shift
        }
    }

    /// Median shortcut.
    pub fn median(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 99th percentile shortcut.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for &(key, n) in &other.buckets {
            self.add(key, n);
        }
        self.total += other.total;
        self.sum += other.sum;
    }
}

/// A `(time, value)` series for "versus time" plots (Figure 5).
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample. Samples are expected in non-decreasing time order
    /// (the engine guarantees this when recording from event handlers).
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(lt, _)| t >= lt),
            "time series must be recorded in order"
        );
        self.points.push((t, v));
    }

    /// All samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of the values (unweighted).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
        }
    }

    /// Mean of values with `t >= from`.
    pub fn mean_since(&self, from: SimTime) -> f64 {
        let mut sum = 0.0;
        let mut n = 0u64;
        for &(t, v) in &self.points {
            if t >= from {
                sum += v;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// Accumulates values into fixed-width time windows and reports the mean
/// per window — Figure 5's per-interval CPU shares.
#[derive(Clone, Debug)]
pub struct WindowedMean {
    width: SimDuration,
    current_window: u64,
    acc: f64,
    n: u64,
    finished: Vec<(SimTime, f64)>,
}

impl WindowedMean {
    /// Windows of the given width starting at t=0. Panics on a zero width.
    pub fn new(width: SimDuration) -> Self {
        assert!(!width.is_zero(), "window width must be positive");
        WindowedMean {
            width,
            current_window: 0,
            acc: 0.0,
            n: 0,
            finished: Vec::new(),
        }
    }

    fn window_of(&self, t: SimTime) -> u64 {
        t.as_nanos() / self.width.as_nanos()
    }

    /// Record a sample at time `t`. Windows between the previous sample and
    /// `t` that received no samples are emitted with a mean of 0.
    pub fn record(&mut self, t: SimTime, v: f64) {
        let w = self.window_of(t);
        while self.current_window < w {
            self.flush_current();
        }
        self.acc += v;
        self.n += 1;
    }

    fn flush_current(&mut self) {
        let end = SimTime::from_nanos((self.current_window + 1) * self.width.as_nanos());
        let mean = if self.n == 0 {
            0.0
        } else {
            self.acc / self.n as f64
        };
        self.finished.push((end, mean));
        self.current_window += 1;
        self.acc = 0.0;
        self.n = 0;
    }

    /// Close the window containing `now` and return all completed windows
    /// as `(window-end-time, mean)`.
    pub fn finish(mut self, now: SimTime) -> Vec<(SimTime, f64)> {
        let w = self.window_of(now);
        while self.current_window <= w {
            self.flush_current();
        }
        self.finished
    }

    /// Completed windows so far without consuming the recorder.
    pub fn completed(&self) -> &[(SimTime, f64)] {
        &self.finished
    }
}

/// Tracks up/down state over time and reports total uptime fraction —
/// used by the attack-isolation experiment ("the honeypot is constantly
/// attacked and crashed; the web content service is not affected").
#[derive(Clone, Debug)]
pub struct Availability {
    up: bool,
    since: SimTime,
    up_total: SimDuration,
    down_total: SimDuration,
    transitions: u32,
}

impl Availability {
    /// Start tracking at `t0` in the given state.
    pub fn starting(t0: SimTime, up: bool) -> Self {
        Availability {
            up,
            since: t0,
            up_total: SimDuration::ZERO,
            down_total: SimDuration::ZERO,
            transitions: 0,
        }
    }

    /// Record a state change at time `t`. Idempotent if the state is
    /// unchanged.
    pub fn set(&mut self, t: SimTime, up: bool) {
        if up == self.up {
            return;
        }
        self.accumulate(t);
        self.up = up;
        self.transitions += 1;
    }

    fn accumulate(&mut self, t: SimTime) {
        let span = t.saturating_since(self.since);
        if self.up {
            self.up_total += span;
        } else {
            self.down_total += span;
        }
        self.since = t;
    }

    /// Close the record at `t` and return the uptime fraction in `[0,1]`.
    /// Returns 1.0 if no time has elapsed.
    pub fn uptime_fraction(mut self, t: SimTime) -> f64 {
        self.accumulate(t);
        let total = self.up_total + self.down_total;
        if total.is_zero() {
            1.0
        } else {
            self.up_total.as_secs_f64() / total.as_secs_f64()
        }
    }

    /// Number of up/down transitions observed.
    pub fn transitions(&self) -> u32 {
        self.transitions
    }

    /// Current state.
    pub fn is_up(&self) -> bool {
        self.up
    }
}

/// Reference implementation: a dense table of all 65 × 32 buckets,
/// populated or not. The differential proptests check the sparse
/// [`Histogram`] against it.
#[cfg(test)]
#[derive(Clone, Debug)]
struct DenseHistogram {
    counts: Vec<[u64; Histogram::SUBBUCKETS]>,
    total: u64,
    sum: u128,
}

#[cfg(test)]
impl DenseHistogram {
    fn new() -> Self {
        DenseHistogram {
            counts: vec![[0; Histogram::SUBBUCKETS]; 65],
            total: 0,
            sum: 0,
        }
    }

    fn record(&mut self, value: u64) {
        let (e, s) = Histogram::bucket(value);
        self.counts[e][s] += 1;
        self.total += 1;
        self.sum += value as u128;
    }

    fn count(&self) -> u64 {
        self.total
    }

    fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (e, subs) in self.counts.iter().enumerate() {
            for (s, &c) in subs.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                seen += c;
                if seen >= target {
                    return Histogram::bucket_floor(e, s);
                }
            }
        }
        Histogram::bucket_floor(64, Histogram::SUBBUCKETS - 1)
    }

    fn merge(&mut self, other: &DenseHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            for (x, y) in a.iter_mut().zip(b.iter()) {
                *x += *y;
            }
        }
        self.total += other.total;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn summary_statistics() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn summary_merge_equals_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let mut whole = Summary::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        // Merging an empty summary is a no-op; merging into empty copies.
        let mut e = Summary::new();
        e.merge(&whole);
        assert_eq!(e.count(), whole.count());
        whole.merge(&Summary::new());
        assert_eq!(whole.count(), xs.len() as u64);
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 31);
        // Median of 0..=31 — rank 16 is value 15.
        assert_eq!(h.median(), 15);
    }

    #[test]
    fn histogram_quantile_bounded_error() {
        let mut h = Histogram::new();
        // Values spanning several orders of magnitude.
        for i in 1..=10_000u64 {
            h.record(i * 1000);
        }
        let q50 = h.quantile(0.5) as f64;
        let expect = 5_000_000.0;
        assert!((q50 - expect).abs() / expect < 0.05, "q50 {q50}");
        let q99 = h.p99() as f64;
        assert!((q99 - 9_900_000.0).abs() / 9_900_000.0 < 0.05, "q99 {q99}");
        assert!((h.mean() - 5_000_500.0 * 1.0).abs() / 5_000_500.0 < 1e-9);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 0..500u64 {
            a.record(i);
            b.record(i + 500);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        let q50 = a.quantile(0.5);
        assert!((400..=520).contains(&q50), "q50 {q50}");
    }

    #[test]
    fn timeseries_means() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(1), 1.0);
        ts.push(SimTime::from_secs(2), 2.0);
        ts.push(SimTime::from_secs(3), 6.0);
        assert_eq!(ts.len(), 3);
        assert!((ts.mean() - 3.0).abs() < 1e-12);
        assert!((ts.mean_since(SimTime::from_secs(2)) - 4.0).abs() < 1e-12);
        assert_eq!(ts.mean_since(SimTime::from_secs(10)), 0.0);
    }

    #[test]
    fn windowed_mean_basic() {
        let mut w = WindowedMean::new(SimDuration::from_secs(1));
        w.record(SimTime::from_nanos(100), 2.0);
        w.record(SimTime::from_nanos(200), 4.0);
        w.record(SimTime::from_secs(1) + SimDuration::from_nanos(1), 10.0);
        let out = w.finish(SimTime::from_secs(2));
        assert_eq!(out.len(), 3);
        assert!((out[0].1 - 3.0).abs() < 1e-12);
        assert!((out[1].1 - 10.0).abs() < 1e-12);
        assert_eq!(out[2].1, 0.0); // empty window
    }

    #[test]
    fn windowed_mean_gap_emits_zero_windows() {
        let mut w = WindowedMean::new(SimDuration::from_secs(1));
        w.record(SimTime::from_nanos(1), 1.0);
        w.record(SimTime::from_secs(3), 5.0);
        let out = w.finish(SimTime::from_secs(4));
        assert_eq!(out.len(), 5);
        assert_eq!(out[1].1, 0.0);
        assert_eq!(out[2].1, 0.0);
        assert!((out[3].1 - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "window width")]
    fn windowed_mean_zero_width_panics() {
        WindowedMean::new(SimDuration::ZERO);
    }

    #[test]
    fn availability_tracks_fraction() {
        let mut a = Availability::starting(SimTime::ZERO, true);
        a.set(SimTime::from_secs(6), false);
        a.set(SimTime::from_secs(8), true);
        assert_eq!(a.transitions(), 2);
        assert!(a.is_up());
        let f = a.uptime_fraction(SimTime::from_secs(10));
        assert!((f - 0.8).abs() < 1e-12, "uptime {f}");
    }

    #[test]
    fn availability_idempotent_set() {
        let mut a = Availability::starting(SimTime::ZERO, true);
        a.set(SimTime::from_secs(1), true);
        assert_eq!(a.transitions(), 0);
        let f = a.uptime_fraction(SimTime::from_secs(2));
        assert_eq!(f, 1.0);
    }

    #[test]
    fn availability_zero_span() {
        let a = Availability::starting(SimTime::from_secs(5), false);
        assert_eq!(a.uptime_fraction(SimTime::from_secs(5)), 1.0);
    }

    proptest! {
        /// Histogram quantiles are monotone in q and bracket recorded
        /// values within a bucket's relative error.
        #[test]
        fn prop_histogram_quantile_monotone(
            values in proptest::collection::vec(1u64..1_000_000_000, 1..300)
        ) {
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut last = 0u64;
            for i in 0..=20 {
                let q = i as f64 / 20.0;
                let v = h.quantile(q);
                prop_assert!(v >= last, "quantile not monotone");
                last = v;
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            // q=1 lower bound must be <= max and within 1/32 relative error.
            let max = *sorted.last().unwrap();
            let q1 = h.quantile(1.0);
            prop_assert!(q1 <= max);
            prop_assert!(q1 as f64 >= max as f64 * (1.0 - 1.0/16.0) - 1.0,
                "q1 {} too far below max {}", q1, max);
        }

        /// Welford summary matches naive mean/variance.
        #[test]
        fn prop_summary_matches_naive(
            values in proptest::collection::vec(-1e6f64..1e6, 2..200)
        ) {
            let mut s = Summary::new();
            for &v in &values {
                s.record(v);
            }
            let n = values.len() as f64;
            let mean = values.iter().sum::<f64>() / n;
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
            prop_assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
            prop_assert!((s.variance() - var).abs() <= 1e-5 * (1.0 + var.abs()));
        }

        /// The sparse histogram answers every query exactly as the dense
        /// reference table does.
        #[test]
        fn prop_sparse_histogram_matches_dense(values in histogram_values()) {
            let (sparse, dense) = both_from(&values);
            prop_assert_same(&sparse, &dense)?;
        }

        /// Merging is exact in either order and into an empty histogram.
        #[test]
        fn prop_sparse_histogram_merge_matches_dense(
            a in histogram_values(),
            b in histogram_values(),
        ) {
            let (sa, da) = both_from(&a);
            let (sb, db) = both_from(&b);
            let mut dense = da.clone();
            dense.merge(&db);

            let mut ab = sa.clone();
            ab.merge(&sb);
            prop_assert_same(&ab, &dense)?;
            let mut ba = sb.clone();
            ba.merge(&sa);
            prop_assert_same(&ba, &dense)?;
            prop_assert_eq!(&ab.buckets, &ba.buckets);

            let mut empty = Histogram::new();
            empty.merge(&sa);
            prop_assert_same(&empty, &da)?;
            prop_assert_eq!(&empty.buckets, &sa.buckets);
        }
    }

    /// Value streams that stress the bucket function: the exact range
    /// below 32, both sides of every power of two, the top of the `u64`
    /// range and a log-uniform spread.
    fn histogram_values() -> impl Strategy<Value = Vec<u64>> {
        let value = prop_oneof![
            0u64..32,
            (0u32..64).prop_map(|k| (1u64 << k) - 1),
            (0u32..64).prop_map(|k| 1u64 << k),
            (u64::MAX - 1024)..=u64::MAX,
            (0u32..64, any::<u64>()).prop_map(|(k, r)| (1u64 << k) | (r & ((1u64 << k) - 1))),
        ];
        proptest::collection::vec(value, 0..400)
    }

    fn both_from(values: &[u64]) -> (Histogram, DenseHistogram) {
        let mut sparse = Histogram::new();
        let mut dense = DenseHistogram::new();
        for &v in values {
            sparse.record(v);
            dense.record(v);
        }
        (sparse, dense)
    }

    fn prop_assert_same(sparse: &Histogram, dense: &DenseHistogram) -> Result<(), TestCaseError> {
        prop_assert_eq!(sparse.count(), dense.count());
        prop_assert_eq!(sparse.mean().to_bits(), dense.mean().to_bits());
        for q in [0.0, 0.001, 0.5, 0.99, 0.999, 1.0] {
            prop_assert_eq!(sparse.quantile(q), dense.quantile(q), "q = {}", q);
        }
        prop_assert!(sparse.buckets.windows(2).all(|w| w[0].0 < w[1].0));
        prop_assert!(sparse.buckets.iter().all(|&(_, c)| c > 0));
        Ok(())
    }
}
