//! Measurement primitives shared by the workloads and the layer
//! microbenchmarks: sample sets with their quartiles, batch
//! timing under a time budget, process memory readings, and the FNV-1a
//! digest that pins a repetition's outputs.

use std::fmt;
use std::time::{Duration, Instant};

/// A set of measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// An empty set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds one measurement.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether nothing was measured.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The measurements, in the order they were made.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.0.iter().copied()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The typical undisturbed cost: the first quartile (0 for an empty
    /// set). A shared machine disturbs both ways — neighbours slow a
    /// batch down for seconds to minutes, and now and then a quiet phase
    /// runs a fifth faster than usual — so the minimum chases the lucky
    /// phase and the median the unlucky one. Over minutes of recorded
    /// repetitions the lower quartile was the steadiest estimator on
    /// every workload (README, "Noise").
    pub fn typical(&self) -> f64 {
        self.quartiles().0
    }

    /// First and third quartile, computed like Python's
    /// `statistics.quantiles(values, n=4)` so the spreads printed here
    /// are the ones an outside checker recomputes.
    pub fn quartiles(&self) -> (f64, f64) {
        let v = self.sorted();
        (quantile(&v, 0.25), quantile(&v, 0.75))
    }

    /// Folds a set of timings into a named metric: [`Samples::typical`]
    /// with the sample count and both quartiles.
    pub fn metric(&self, name: impl Into<String>) -> Measured {
        let (q1, q3) = self.quartiles();
        Measured {
            name: name.into(),
            value: q1,
            n: self.len(),
            q1,
            q3,
        }
    }

    /// A copy with every measurement multiplied by `factor` (unit
    /// conversion).
    pub fn scaled(&self, factor: f64) -> Samples {
        Samples(self.0.iter().map(|v| v * factor).collect())
    }
}

/// The `p`-quantile of an ascending slice by the "exclusive" method
/// (position `p·(n+1)`, linear interpolation, clamped to the ends).
fn quantile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
            let lo = pos.floor() as usize;
            let frac = pos - lo as f64;
            let a = sorted[lo - 1];
            let b = sorted[lo.min(n - 1)];
            a + (b - a) * frac
        }
    }
}

/// Nearest-rank percentile of an ascending integer slice (the method
/// the library's own histogram summaries use).
pub fn percentile(sorted: &[u64], permille: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * permille).div_ceil(1000).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The median of an integer slice (0 when empty); sorts in place.
pub fn median_u64(values: &mut [u64]) -> u64 {
    values.sort_unstable();
    percentile(values, 500)
}

/// One reported number: the first quartile of a set of timings (or an
/// exact count) with the sample count and quartiles it rests on.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The reported value.
    pub value: f64,
    /// Samples behind it.
    pub n: usize,
    /// First quartile of the samples.
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
}

impl Measured {
    /// A number that is not a quartile of timings: a deterministic
    /// count, a ratio of two timings.
    pub fn exact(name: impl Into<String>, value: f64, n: usize) -> Self {
        Measured {
            name: name.into(),
            value,
            n,
            q1: value,
            q3: value,
        }
    }
}

/// How much time the batches of one microbenchmark may take.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Time available for one unit of weight.
    pub slice: Duration,
    /// Batches measured even when the slice is already spent.
    pub min_batches: usize,
}

/// Nanoseconds per operation of one batch.
fn per_op((elapsed, ops): (Duration, u64)) -> f64 {
    elapsed.as_nanos() as f64 / ops.max(1) as f64
}

impl Budget {
    /// Runs one untimed warm-up batch, then measures batches until both
    /// `min_batches` and `weight` slices are spent. `batch` performs its
    /// operations and returns `(elapsed, operations)`; the samples are
    /// nanoseconds per operation.
    pub fn sample(&self, weight: f64, mut batch: impl FnMut() -> (Duration, u64)) -> Samples {
        batch();
        let limit = self.slice.mul_f64(weight);
        let start = Instant::now();
        let mut out = Samples::new();
        while out.len() < self.min_batches || start.elapsed() < limit {
            out.push(per_op(batch()));
        }
        out
    }

    /// [`Budget::sample`] for two variants of one benchmark whose ratio
    /// is reported: their batches alternate, so a machine that drifts
    /// between slow and fast over seconds disturbs both alike.
    pub fn sample_pair(
        &self,
        weight: f64,
        mut a: impl FnMut() -> (Duration, u64),
        mut b: impl FnMut() -> (Duration, u64),
    ) -> (Samples, Samples) {
        a();
        b();
        let limit = self.slice.mul_f64(weight);
        let start = Instant::now();
        let mut out = (Samples::new(), Samples::new());
        while out.0.len() < self.min_batches || start.elapsed() < limit {
            out.0.push(per_op(a()));
            out.1.push(per_op(b()));
        }
        out
    }
}

/// Times `f` once.
pub fn time<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set of this process in KiB (`VmHWM`), 0 without procfs.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

/// Current resident set of this process in KiB (`VmRSS`), 0 without
/// procfs.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

/// Streaming FNV-1a over everything written into it; hashing a value's
/// `Debug` rendering pins every field without materialising the string.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty digest.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds the `Debug` rendering of `value` in.
    pub fn debug(&mut self, value: &impl fmt::Debug) {
        use fmt::Write;
        write!(self, "{value:?}").expect("hashing cannot fail");
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut s = Samples::new();
        for v in 1..=10 {
            s.push(v as f64);
        }
        assert_eq!(s.quartiles(), (2.75, 8.25));
        assert_eq!(s.typical(), 2.75);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let mut s = Samples::new();
        for v in [3.0, 1.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.quartiles(), (1.0, 3.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 500), 500);
        assert_eq!(percentile(&v, 990), 990);
        assert_eq!(percentile(&[7], 990), 7);
        assert_eq!(percentile(&[], 500), 0);
    }

    #[test]
    fn digest_depends_on_every_byte() {
        let mut a = Fnv::new();
        a.debug(&(1u32, "x"));
        let mut b = Fnv::new();
        b.debug(&(1u32, "y"));
        assert_ne!(a.finish(), b.finish());
    }
}
