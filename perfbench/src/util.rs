//! Small shared pieces: the seeded generator, sample statistics, the span
//! recorder of the traced run, process memory and the scratch directory.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// SplitMix64: tiny, seedable and identical on every platform, so one seed
/// names one input set everywhere.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Linear-interpolated quantile of a sample (`q` in `[0, 1]`), numpy's
/// default definition.  0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Accumulated spans of the traced run: per stage name, total time and
/// call count.  Spans are recorded from the benchmark's own files around
/// calls into each layer's public functions; nothing inside the program is
/// instrumented.
#[derive(Default)]
pub struct Tracer {
    stages: BTreeMap<&'static str, (Duration, u64)>,
    off: bool,
}

impl Tracer {
    /// A recorder whose spans run their call and record nothing.
    pub fn off() -> Tracer {
        Tracer {
            off: true,
            ..Tracer::default()
        }
    }

    /// Time one call into a layer and account it to `stage`.
    pub fn span<T>(&mut self, stage: &'static str, f: impl FnOnce() -> T) -> T {
        if self.off {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add(stage, start.elapsed());
        out
    }

    pub fn add(&mut self, stage: &'static str, d: Duration) {
        let slot = self.stages.entry(stage).or_default();
        slot.0 += d;
        slot.1 += 1;
    }

    pub fn total_ms(&self, stage: &str) -> f64 {
        self.stages.get(stage).map_or(0.0, |s| ms(s.0))
    }

    pub fn calls(&self, stage: &str) -> u64 {
        self.stages.get(stage).map_or(0, |s| s.1)
    }

    /// Mean milliseconds per call (0 when the stage never ran).
    pub fn mean_ms(&self, stage: &str) -> f64 {
        ratio(self.total_ms(stage), self.calls(stage) as f64)
    }

    /// Σ of the given stages' totals, in milliseconds.
    pub fn sum_ms(&self, stages: &[&str]) -> f64 {
        stages.iter().map(|s| self.total_ms(s)).sum()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host's aggregate CPU time counters `(steal, total)` from
/// `/proc/stat`, in clock ticks.  Steal is time the benchmark's virtual CPUs
/// were runnable but the hypervisor ran something else; runs taken under
/// heavy steal are slower for reasons outside the program.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// A scratch directory inside the checkout (`.bench_work/<pid>`), removed
/// again when dropped.
pub struct WorkDir {
    root: PathBuf,
    next: std::cell::Cell<u64>,
}

impl WorkDir {
    pub fn create() -> std::io::Result<WorkDir> {
        let root = Path::new(".bench_work").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A fresh, not yet existing path under the scratch root.
    pub fn fresh(&self, label: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("{label}-{n}"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still owns a sibling directory).
        let _ = std::fs::remove_dir(Path::new(".bench_work"));
    }
}

/// Copy every regular file of `from` into a new directory `to` (a store is
/// a flat directory of segment files).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
