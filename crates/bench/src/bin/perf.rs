//! Live perf gate: times the registry suite against the disk-persisted store
//! and at pinned worker budgets, then checks every relation in [`RELATIONS`]
//! on the medians of this very run and exits 1 if one is violated.
//!
//! ```text
//! cargo run --release -p soap-bench --bin perf -- [--out bench.json]
//! ```
//!
//! Each relation compares two benches of the same run, so host speed cancels
//! and no committed snapshot is read.  `--out` writes the benches, the store
//! accounting and one record per relation as JSON.  `perfbench/` is the
//! benchmark of record; this binary measures only what a relation reads.

#![forbid(unsafe_code)]

use serde_json::{json, Value};
use soap_bench::suite_program;
use soap_sdg::{analyze_suite_with, set_worker_budget, SolveCache, SuiteProgram};
use std::collections::BTreeMap;
use std::time::Instant;

/// Timed repetitions per bench; the median is what the relations read.
const REPS: usize = 5;

/// `lhs ≤ bound · rhs` on the medians of one run, asserted only on hosts
/// with at least `min_cores` cores (below that it is reported as skipped).
struct Relation {
    lhs: &'static str,
    rhs: &'static str,
    bound: f64,
    min_cores: usize,
}

const RELATIONS: &[Relation] = &[
    // What the finished-report layer buys over solve-only replay.
    Relation {
        lhs: "suite/registry_warm_report",
        rhs: "suite/registry_warm",
        bound: 0.25,
        min_cores: 1,
    },
    // What the disk-persisted store buys over a cold, flushing run.
    Relation {
        lhs: "suite/registry_warm",
        rhs: "suite/registry_cold",
        bound: 0.5,
        min_cores: 1,
    },
    // The parallel front half; a host with fewer cores cannot show it.
    Relation {
        lhs: "thread_scaling/8",
        rhs: "thread_scaling/1",
        bound: 0.8,
        min_cores: 4,
    },
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Pass,
    Fail,
    Skipped,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::Skipped => "skipped",
        }
    }
}

/// One relation evaluated on one run.
struct Check {
    relation: &'static Relation,
    ratio: f64,
    verdict: Verdict,
}

impl Check {
    /// One line naming the relation, its ratio on this run and the verdict.
    fn describe(&self) -> String {
        let r = self.relation;
        format!(
            "{} <= {} x {}   ratio {:.3}   {}",
            r.lhs,
            r.bound,
            r.rhs,
            self.ratio,
            self.verdict.as_str()
        )
    }
}

/// Evaluate every relation on `medians` (bench name → median ms) for a host
/// with `cores` cores.  A missing bench or a NaN ratio fails its relation.
fn check_relations(medians: &BTreeMap<String, f64>, cores: usize) -> Vec<Check> {
    let median = |name: &str| medians.get(name).copied().unwrap_or(f64::NAN);
    RELATIONS
        .iter()
        .map(|relation| {
            let ratio = median(relation.lhs) / median(relation.rhs);
            let verdict = if cores < relation.min_cores {
                Verdict::Skipped
            } else if ratio <= relation.bound {
                Verdict::Pass
            } else {
                Verdict::Fail
            };
            Check {
                relation,
                ratio,
                verdict,
            }
        })
        .collect()
}

/// Median and minimum wall-clock milliseconds of [`REPS`] runs of `f`.
fn time_ms(mut f: impl FnMut()) -> (f64, f64) {
    let mut samples: Vec<f64> = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    // Shared NaN-last total order: a rogue NaN sample surfaces as a NaN
    // minimum instead of panicking the run, and a NaN median fails its
    // relation.
    samples.sort_by(|a, b| soap_symbolic::nan_last(*a, *b));
    (samples[samples.len() / 2], samples[0])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--out" => Some(path.clone()),
        _ => {
            eprintln!("usage: perf [--out FILE]");
            std::process::exit(2);
        }
    };

    let jobs: Vec<SuiteProgram> = soap_kernels::registry().iter().map(suite_program).collect();
    let mut benches: Vec<(String, f64, f64)> = Vec::new();
    let mut record = |name: &str, (median, min): (f64, f64)| {
        println!("{name:<40} median {median:>10.3} ms   min {min:>10.3} ms");
        benches.push((name.to_string(), median, min));
        median
    };

    // --- suite cold vs warm: the disk-persisted canonical-solution store ---
    // `registry_cold` opens an *empty* store, analyzes the whole registry and
    // flushes the solved structures to disk (the full first-process cost,
    // solves + serialization included); `registry_warm` re-opens the
    // populated store in a fresh cache — simulating a new process — and
    // re-analyzes the registry without solving a single cached structure.
    let store_root = std::env::temp_dir().join(format!("soap-perf-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_root);
    let cold_dir = store_root.join("cold");
    let cold = record(
        "suite/registry_cold",
        time_ms(|| {
            let _ = std::fs::remove_dir_all(&cold_dir);
            let cache = SolveCache::with_store(&cold_dir).expect("store opens");
            analyze_suite_with(&jobs, &cache);
            cache.flush_store().expect("store flushes");
        }),
    );
    // Seed the warm store once from a cold run.
    let warm_dir = store_root.join("warm");
    {
        let cache = SolveCache::with_store(&warm_dir).expect("store opens");
        analyze_suite_with(&jobs, &cache);
        cache.flush_store().expect("store flushes");
    }
    // Both warm benches hydrate the store ONCE, outside the timed region: a
    // long-lived warm process (the daemon, a batch server) pays startup
    // hydration one time and then answers suite after suite, and it is that
    // steady-state answer cost the two benches bracket.
    //
    // `registry_warm` hydrates *solve-only*: the full front half runs and
    // every solve is answered from the store.  `registry_warm_report` also
    // enables the finished-report layer, so whole analyses replay without
    // enumeration, merging or solving; the ratio between the two is exactly
    // what the report layer buys.
    let warm = {
        let cache = SolveCache::with_store_solve_only(&warm_dir).expect("store re-opens");
        record(
            "suite/registry_warm",
            time_ms(|| {
                analyze_suite_with(&jobs, &cache);
            }),
        )
    };
    let report = {
        let cache = SolveCache::with_store(&warm_dir).expect("store re-opens");
        record(
            "suite/registry_warm_report",
            time_ms(|| {
                analyze_suite_with(&jobs, &cache);
            }),
        )
    };
    // Accounting of one instrumented run per warm path: the solve-only run
    // must answer every cacheable structure from the store — zero misses —
    // and the report run must replay every program whole.
    let cache = SolveCache::with_store_solve_only(&warm_dir).expect("store re-opens");
    let warm_run = analyze_suite_with(&jobs, &cache);
    let load = cache.store_load_stats().expect("store-backed").clone();
    let c = &warm_run.summary.cache;
    let report_cache = SolveCache::with_store(&warm_dir).expect("store re-opens");
    let report_run = analyze_suite_with(&jobs, &report_cache);
    let reports_hydrated = report_cache
        .report_load_stats()
        .map(|r| r.entries)
        .unwrap_or(0);
    let rc = &report_run.summary.cache;
    println!(
        "suite/registry store: {} entries hydrated, warm run: {} store hits, {} misses, {} uncacheable, cold/warm {:.2}x",
        load.entries,
        c.store_hits,
        c.misses,
        c.uncacheable,
        cold / warm.max(1e-9),
    );
    println!(
        "suite/registry reports: {} reports hydrated, warm run: {} report hits, {} misses, warm/report {:.2}x",
        reports_hydrated,
        rc.report_hits,
        rc.misses,
        warm / report.max(1e-9),
    );
    let store_stats = json!({
        "entries_hydrated": load.entries,
        "segments": load.segments,
        "store_bytes": load.bytes,
        "warm_store_hits": c.store_hits,
        "warm_misses": c.misses,
        "warm_uncacheable": c.uncacheable,
        "reports_hydrated": reports_hydrated,
        "warm_report_hits": rc.report_hits,
        "warm_report_misses": rc.misses,
    });
    let _ = std::fs::remove_dir_all(&store_root);

    // --- thread_scaling: the registry suite at fixed worker budgets ---
    // Output is byte-identical across budgets (the determinism tests pin
    // that); only the wall clock may move, and only up to the host's cores.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for t in [1usize, 2, 4, 8] {
        set_worker_budget(t);
        record(
            &format!("thread_scaling/{t}"),
            time_ms(|| {
                analyze_suite_with(&jobs, &SolveCache::new());
            }),
        );
    }
    println!("thread_scaling: host has {cores} core(s)");

    let medians: BTreeMap<String, f64> = benches
        .iter()
        .map(|(name, median, _)| (name.clone(), *median))
        .collect();
    let checks = check_relations(&medians, cores);
    println!();
    for check in &checks {
        println!("relation {}", check.describe());
    }

    if let Some(out_path) = out_path {
        let report = json!({
            "schema": "soap-bench-perf/2",
            "reps": REPS,
            "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
            "host_cores": cores,
            "benches": Value::Array(
                benches
                    .iter()
                    .map(|(name, median, min)| json!({ "name": name, "median_ms": median, "min_ms": min }))
                    .collect()
            ),
            "store_stats": store_stats,
            "relations": Value::Array(
                checks
                    .iter()
                    .map(|check| json!({
                        "lhs": check.relation.lhs,
                        "rhs": check.relation.rhs,
                        "ratio": check.ratio,
                        "bound": check.relation.bound,
                        "verdict": check.verdict.as_str(),
                    }))
                    .collect()
            ),
        });
        let text = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(&out_path, text).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
        println!("wrote {out_path}");
    }

    let mut failed = false;
    for check in checks.iter().filter(|c| c.verdict == Verdict::Fail) {
        eprintln!("perf gate FAILED: {}", check.describe());
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(n, m)| (n.to_string(), *m)).collect()
    }

    fn healthy() -> BTreeMap<String, f64> {
        snapshot(&[
            ("suite/registry_cold", 400.0),
            ("suite/registry_warm", 90.0),
            ("suite/registry_warm_report", 6.0),
            ("thread_scaling/1", 300.0),
            ("thread_scaling/8", 120.0),
        ])
    }

    fn verdict(checks: &[Check], lhs: &str) -> Verdict {
        checks
            .iter()
            .find(|c| c.relation.lhs == lhs)
            .map(|c| c.verdict)
            .expect("relation exists")
    }

    #[test]
    fn healthy_snapshot_passes_every_relation() {
        let checks = check_relations(&healthy(), 8);
        assert_eq!(checks.len(), RELATIONS.len());
        assert!(checks.iter().all(|c| c.verdict == Verdict::Pass));
    }

    #[test]
    fn slow_report_replay_fails_and_names_its_relation() {
        let mut medians = healthy();
        medians.insert("suite/registry_warm_report".to_string(), 45.0);
        let checks = check_relations(&medians, 8);
        let failed: Vec<String> = checks
            .iter()
            .filter(|c| c.verdict == Verdict::Fail)
            .map(Check::describe)
            .collect();
        assert_eq!(
            failed,
            ["suite/registry_warm_report <= 0.25 x suite/registry_warm   ratio 0.500   fail"]
        );
    }

    #[test]
    fn thread_scaling_is_skipped_below_four_cores() {
        let mut medians = healthy();
        // Flat on a small host: would fail if it were asserted.
        medians.insert("thread_scaling/8".to_string(), 300.0);
        for cores in [1, 2, 3] {
            let checks = check_relations(&medians, cores);
            assert_eq!(verdict(&checks, "thread_scaling/8"), Verdict::Skipped);
            assert_eq!(verdict(&checks, "suite/registry_warm"), Verdict::Pass);
        }
        assert_eq!(
            verdict(&check_relations(&medians, 4), "thread_scaling/8"),
            Verdict::Fail
        );
    }

    #[test]
    fn missing_bench_fails_its_relation() {
        let mut medians = healthy();
        medians.remove("suite/registry_cold");
        let checks = check_relations(&medians, 8);
        assert_eq!(verdict(&checks, "suite/registry_warm"), Verdict::Fail);
        assert!(checks[1].ratio.is_nan());
    }
}
