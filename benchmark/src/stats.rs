//! Order statistics over measurement windows.

/// A metric over the windows of one run: the reported value (the median
/// unless said otherwise), with min, max, count and spread (IQR / median)
/// beside it.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
    pub spread: f64,
}

impl Summary {
    pub fn single(v: f64) -> Self {
        Summary {
            value: v,
            min: v,
            max: v,
            n: 1,
            spread: 0.0,
        }
    }

    /// The median of `samples` as the value.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let median = quantile(&v, 0.5);
        let iqr = quantile(&v, 0.75) - quantile(&v, 0.25);
        Summary {
            value: median,
            min: v[0],
            max: v[v.len() - 1],
            n: v.len(),
            spread: if median == 0.0 { 0.0 } else { iqr / median },
        }
    }

    /// `samples` summarised around a value computed elsewhere (a rate
    /// over all windows together, say).
    pub fn around(value: f64, samples: &[f64]) -> Self {
        Summary {
            value,
            ..Summary::of(samples)
        }
    }
}

/// Linear-interpolated quantile of an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).value
}

/// A latency histogram of constant size: 64 linear buckets per power of
/// two, so a bucket is at most 1.6 % wide. Constant memory keeps
/// `peak_rss_mb` independent of how many transactions a run commits.
#[derive(Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u32>,
    count: u64,
}

const SUB: u64 = 64;
/// Octaves above the linear range: values up to 2^40 ns (18 minutes).
const OCTAVES: u64 = 34;

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; (SUB * (OCTAVES + 1)) as usize],
            count: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let octave = (63 - u64::from(ns.leading_zeros()) - 6).min(OCTAVES - 1);
        let sub = ((ns >> octave) - SUB).min(SUB - 1);
        (SUB + octave * SUB + sub) as usize
    }

    /// The bucket's lowest value and its width.
    fn bounds(index: usize) -> (u64, u64) {
        let i = index as u64;
        if i < SUB {
            return (i, 1);
        }
        let (octave, sub) = ((i - SUB) / SUB, (i - SUB) % SUB);
        ((SUB + sub) << octave, 1 << octave)
    }

    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
    }

    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    pub fn clear(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `p` quantile, interpolated inside its bucket; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let rank = (self.count as f64 * p).max(1.0);
        let mut seen = 0.0;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 && seen + f64::from(n) >= rank {
                let (low, width) = Self::bounds(i);
                return low as f64 + width as f64 * (rank - seen) / f64::from(n);
            }
            seen += f64::from(n);
        }
        0.0
    }
}
