//! Order statistics, a latency histogram, and what the harness reads
//! from the host: peak RSS and the fingerprint every output carries.

use std::time::Duration;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the midpoint rule; 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in 0..=100); 0 for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The value a quarter of the sample lies at or below. Over the windows
/// of a run it is "the quieter quarter": what disturbs a window on this
/// host (a stalled vCPU, a busy neighbour) only ever adds time.
pub fn lower_quartile(xs: &[f64]) -> f64 {
    percentile(xs, 25.0)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Latency percentiles of one window of requests: a rep, or one second of
/// an open or closed loop.
#[derive(Clone, Copy)]
pub struct Tail {
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
}

impl Tail {
    pub fn of(samples: &[f64]) -> Tail {
        Tail {
            p50: median(samples),
            p95: percentile(samples, 95.0),
            p99: percentile(samples, 99.0),
        }
    }

    /// Each percentile's lower quartile over `windows`, and the lower
    /// quartile of the windows' own `p95 / p50`. On the authoring host a
    /// fifth to a third of the one-second windows of an open loop hold a
    /// 5-40 ms stall of a vCPU (their `p95 / p50` reads 10 to 300 where
    /// the others read 1.8 to 2.3), in a bad minute more than half; the
    /// pooled percentiles, and in that minute the median over windows, are
    /// decided by how many stalls the run happened to catch, the quieter
    /// quarter of the windows is not.
    pub fn over(windows: &[Tail]) -> (Tail, f64) {
        let quiet =
            |f: &dyn Fn(&Tail) -> f64| lower_quartile(&windows.iter().map(f).collect::<Vec<f64>>());
        let tail = Tail {
            p50: quiet(&|w| w.p50),
            p95: quiet(&|w| w.p95),
            p99: quiet(&|w| w.p99),
        };
        (tail, quiet(&|w| w.p95 / w.p50))
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let q = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Nanosecond latency histogram with 64 sub-buckets per power of two
/// (under 1.6 % wide), so a closed-loop reader can time millions of
/// operations in constant memory. Percentiles interpolate by rank inside
/// the bucket.
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
}

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: vec![0; (64 * SUB) as usize],
            count: 0,
        }
    }
}

impl Hist {
    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let shift = exp - SUB_BITS;
        (((shift + 1) as u64 * SUB) + ((ns >> shift) - SUB)) as usize
    }

    /// Lower edge and width of bucket `i`.
    fn edge(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, 1.0);
        }
        let shift = i / SUB - 1;
        let lo = (SUB + i % SUB) << shift;
        (lo as f64, (1u64 << shift) as f64)
    }

    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `p`-th percentile in nanoseconds; 0 when empty.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = p / 100.0 * self.count as f64;
        let mut seen = 0.0;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 && seen + c as f64 >= target {
                let (lo, width) = Self::edge(i);
                return lo + width * ((target - seen) / c as f64);
            }
            seen += c as f64;
        }
        unreachable!("target rank lies within the counted samples")
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU model, core count, rustc version and git commit of this run.
/// The commit is read from `.git` under the working directory only (the
/// driver's checkout has none, and the harness must not look outside it).
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let commit = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok(),
            None => Some(head),
        })
        .map(|c| c.trim().chars().take(12).collect())
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("cpu", cpu),
        ("nproc", nproc.to_string()),
        ("rustc", rustc),
        ("commit", commit),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 198.0);
        assert_eq!(percentile(&v[..20], 99.0), 20.0);
    }

    #[test]
    fn hist_buckets_are_contiguous_and_narrow() {
        for ns in [0u64, 1, 63, 64, 65, 127, 128, 1000, 123_456, 9_876_543_210] {
            let (lo, width) = Hist::edge(Hist::index(ns));
            assert!(lo <= ns as f64 && (ns as f64) < lo + width, "{ns}");
            assert!(width <= (ns as f64 / 64.0).max(1.0), "{ns}");
        }
        let mut h = Hist::default();
        (1..=1000).for_each(|ns| h.record(ns));
        let p99 = h.percentile_ns(99.0);
        assert!((985.0..=995.0).contains(&p99), "{p99}");
    }
}
