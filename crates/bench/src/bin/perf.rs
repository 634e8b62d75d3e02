//! Machine-readable performance snapshot: times the pipeline's hot paths and
//! writes a `BENCH_*.json` record for regression tracking across PRs.
//!
//! ```text
//! cargo run --release -p soap-bench --bin perf -- [--out BENCH_PR1.json] [--quick]
//! ```
//!
//! The binary emits one JSON object per hot path with median/min
//! milliseconds over a fixed number of repetitions, plus the
//! naive-vs-bitset subgraph-enumeration comparison that captures the
//! before/after of the interning + bitset rewrite (the naive reference
//! implements the seed's string-set algorithm).

#![forbid(unsafe_code)]

use serde_json::{json, Value};
use soap_bench::fixtures::{chain_of_matmuls, dense_star, skewed_hub};
use soap_bench::load::{run_load, LoadConfig};
use soap_bench::validation::{validate_kernel, ValidationCase};
use soap_bench::{analyze_kernel, suite_program, suite_summary_record};
use soap_pebbling::{min_dominator_size, Cdag, VertexKind};
use soap_sdg::subgraphs::{enumerate_connected_subgraphs, enumerate_connected_subgraphs_naive};
use soap_sdg::{
    analyze_program_with_cache, analyze_suite_with, set_worker_budget, worker_budget,
    ProgramAnalysis, Sdg, SdgOptions, SolveCache, SuiteProgram,
};
use soap_symbolic::{reset_solver_counters, solver_counters, KKT_HISTOGRAM_EDGES};
use std::collections::BTreeMap;
use std::time::Instant;

/// One instrumented analysis run: resets the process-wide solver counters,
/// runs `f`, and records the KKT/solve/cache accounting as a JSON object.
fn solver_stats_record(name: &str, f: impl FnOnce() -> ProgramAnalysis) -> Value {
    reset_solver_counters();
    let analysis = f();
    let counters = solver_counters();
    let s = analysis.solver;
    println!(
        "solver_stats/{name:<30} models {:>4}   solved {:>4}   cache hits {:>4} ({:>3} max)   uncacheable {:>3}   kkt iters {:>7}   cap hits {:>3}",
        s.subgraphs_enumerated,
        counters.solves,
        s.cache_hits,
        s.max_cache_hits,
        s.uncacheable,
        counters.kkt_iterations,
        counters.kkt_cap_hits,
    );
    let p = analysis.phases;
    println!(
        "    phases: enumerate {:>8.3} ms   merge {:>8.3} ms   instantiate {:>8.3} ms   solve {:>8.3} ms",
        p.enumerate_ms, p.merge_ms, p.instantiate_ms, p.solve_ms
    );
    let histogram: Vec<Value> = KKT_HISTOGRAM_EDGES
        .iter()
        .map(|e| json!(format!("<{e}")))
        .chain([json!(">=400")])
        .zip(counters.kkt_histogram)
        .map(|(bucket, count)| json!({ "bucket": bucket, "solves": count }))
        .collect();
    println!(
        "    kkt histogram: {}",
        KKT_HISTOGRAM_EDGES
            .iter()
            .map(|e| format!("<{e}"))
            .chain([">=400".to_string()])
            .zip(counters.kkt_histogram)
            .map(|(b, c)| format!("{b}:{c}"))
            .collect::<Vec<_>>()
            .join("  ")
    );
    json!({
        "name": name,
        "subgraphs_enumerated": s.subgraphs_enumerated,
        "cache_hits": s.cache_hits,
        "cache_misses": s.cache_misses,
        "uncacheable": s.uncacheable,
        "max_cache_hits": s.max_cache_hits,
        "max_cache_misses": s.max_cache_misses,
        "cross_program_hits": s.cross_program_hits,
        "kkt_cap_hits": s.kkt_cap_hits,
        "merge_failures": s.merge_failures,
        "solve_failures": s.solve_failures,
        "panic_failures": s.panic_failures,
        "phases": json!({
            "enumerate_ms": p.enumerate_ms,
            "merge_ms": p.merge_ms,
            "instantiate_ms": p.instantiate_ms,
            "solve_ms": p.solve_ms,
        }),
        "solves": counters.solves,
        "compiled_solves": counters.compiled_solves,
        "max_form_solves": counters.max_form_solves,
        "kkt_iterations": counters.kkt_iterations,
        "kkt_histogram": json!(histogram),
    })
}

/// Median and minimum wall-clock milliseconds of `reps` runs of `f`.
fn time_ms(reps: usize, mut f: impl FnMut()) -> (f64, f64) {
    let mut samples: Vec<f64> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    // Shared NaN-last total order: a rogue NaN sample surfaces as a NaN
    // minimum in the snapshot instead of panicking the whole bench run.
    samples.sort_by(|a, b| soap_symbolic::nan_last(*a, *b));
    (samples[samples.len() / 2], samples[0])
}

fn record(name: &str, median_ms: f64, min_ms: f64) -> Value {
    println!("{name:<40} median {median_ms:>10.3} ms   min {min_ms:>10.3} ms");
    json!({ "name": name, "median_ms": median_ms, "min_ms": min_ms })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH.json".to_string();
    let mut reps = 5usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args.get(i).cloned().unwrap_or(out_path);
            }
            "--quick" => reps = 3,
            other => {
                eprintln!("unknown argument {other} (expected --out FILE or --quick)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let mut benches: Vec<Value> = Vec::new();

    // --- sdg_scaling: chains of k matmuls, the paper's scaling experiment ---
    let opts = SdgOptions {
        max_subgraph_size: 3,
        max_subgraphs: 512,
        ..SdgOptions::default()
    };
    for k in [1usize, 4, 8, 16, 35] {
        let program = chain_of_matmuls(k);
        let (median, min) = time_ms(reps, || {
            analyze_program_with_cache(&program, &opts, &SolveCache::new())
                .expect("analysis succeeds");
        });
        benches.push(record(&format!("sdg_scaling/{k}"), median, min));
    }

    // --- analysis_runtime: representative kernels end-to-end ---
    let registry = soap_kernels::registry();
    for name in ["gemm", "fdtd-2d", "bert-encoder", "lulesh"] {
        let entry = registry
            .iter()
            .find(|e| e.name == name)
            .expect("kernel exists");
        let (median, min) = time_ms(reps, || {
            analyze_kernel(entry);
        });
        benches.push(record(&format!("analysis_runtime/{name}"), median, min));
    }

    // --- solver_stats: compiled-solver + cache accounting per workload ---
    let mut solver_stats: Vec<Value> = Vec::new();
    {
        let chain = chain_of_matmuls(35);
        let chain_opts = opts.clone();
        solver_stats.push(solver_stats_record("chain35", || {
            analyze_program_with_cache(&chain, &chain_opts, &SolveCache::new())
                .expect("analysis succeeds")
        }));
        let registry = soap_kernels::registry();
        for name in ["bert-encoder", "lulesh"] {
            let entry = registry
                .iter()
                .find(|e| e.name == name)
                .expect("kernel exists");
            solver_stats.push(solver_stats_record(name, || analyze_kernel(entry)));
        }
    }

    // --- suite: the whole 38-kernel registry through the batch engine ---
    // `registry_sequential` is the PR 3 behavior (one private cache per
    // program, Table-2 options); `registry_batch` shares one sharded cache
    // across the suite, so renamed structures (the 2mm/3mm/bert matmuls, the
    // stencil family) are solved once per run instead of once per kernel.
    let suite_stats_record;
    {
        let jobs: Vec<SuiteProgram> = soap_kernels::registry().iter().map(suite_program).collect();
        let (seq_median, seq_min) = time_ms(reps, || {
            for job in &jobs {
                analyze_program_with_cache(&job.program, &job.opts, &SolveCache::new())
                    .expect("analysis succeeds");
            }
        });
        benches.push(record("suite/registry_sequential", seq_median, seq_min));
        let (batch_median, batch_min) = time_ms(reps, || {
            analyze_suite_with(&jobs, &SolveCache::new());
        });
        benches.push(record("suite/registry_batch", batch_median, batch_min));
        let batch = analyze_suite_with(&jobs, &SolveCache::new());
        let s = &batch.summary;
        println!(
            "suite/registry cache: {} structures solved, {} hits ({} cross-program), {} uncacheable, speedup {:.2}x",
            s.cache.misses,
            s.cache.hits,
            s.cache.cross_program_hits,
            s.cache.uncacheable,
            seq_median / batch_median.max(1e-9),
        );
        suite_stats_record = suite_summary_record(s);
    }

    // --- thread_scaling: the registry suite at fixed worker budgets ---
    // The same end-to-end batch run with the process-wide worker budget
    // pinned to 1/2/4/8.  Output is byte-identical across budgets (the
    // determinism tests pin that); only the wall clock may move, and only up
    // to the host's core count — on a single-core host the family is flat.
    {
        let jobs: Vec<SuiteProgram> = soap_kernels::registry().iter().map(suite_program).collect();
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let prev = worker_budget();
        for t in [1usize, 2, 4, 8] {
            set_worker_budget(t);
            let (median, min) = time_ms(reps, || {
                analyze_suite_with(&jobs, &SolveCache::new());
            });
            benches.push(record(&format!("thread_scaling/{t}"), median, min));
        }
        set_worker_budget(prev);
        println!("thread_scaling: host has {host} core(s); budgets beyond that cannot help");
    }

    // --- suite cold vs warm: the disk-persisted canonical-solution store ---
    // `registry_cold` opens an *empty* store, analyzes the whole registry and
    // flushes the solved structures to disk (the full first-process cost,
    // solves + serialization included); `registry_warm` re-opens the
    // populated store in a fresh cache — simulating a new process — and
    // re-analyzes the registry without solving a single cached structure.
    // The gap is the cross-process win the store exists for.
    let store_stats_record;
    {
        let jobs: Vec<SuiteProgram> = soap_kernels::registry().iter().map(suite_program).collect();
        let store_root =
            std::env::temp_dir().join(format!("soap-perf-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_root);
        let cold_dir = store_root.join("cold");
        let (cold_median, cold_min) = time_ms(reps, || {
            let _ = std::fs::remove_dir_all(&cold_dir);
            let cache = SolveCache::with_store(&cold_dir).expect("store opens");
            analyze_suite_with(&jobs, &cache);
            cache.flush_store().expect("store flushes");
        });
        benches.push(record("suite/registry_cold", cold_median, cold_min));
        // Seed the warm store once from a cold run.
        let warm_dir = store_root.join("warm");
        {
            let cache = SolveCache::with_store(&warm_dir).expect("store opens");
            analyze_suite_with(&jobs, &cache);
            cache.flush_store().expect("store flushes");
        }
        // Both warm benches hydrate the store ONCE, outside the timed
        // region: a long-lived warm process (the daemon, a batch server)
        // pays startup hydration one time and then answers suite after
        // suite, and it is that steady-state answer cost the two benches
        // bracket — timing the open would measure segment-file parsing, the
        // same for both paths, and drown the signal.
        //
        // `registry_warm` deliberately hydrates *solve-only*: it measures
        // the canonical-solution replay path (run the full front half,
        // answer every solve from the store).  The finished-report fast
        // path is measured separately below as `registry_warm_report`
        // (whole analyses replayed, no front half at all), so the ratio
        // between the two is exactly what the report layer buys.
        let (warm_median, warm_min) = {
            let cache = SolveCache::with_store_solve_only(&warm_dir).expect("store re-opens");
            time_ms(reps, || {
                analyze_suite_with(&jobs, &cache);
            })
        };
        benches.push(record("suite/registry_warm", warm_median, warm_min));
        let (report_median, report_min) = {
            let cache = SolveCache::with_store(&warm_dir).expect("store re-opens");
            time_ms(reps, || {
                analyze_suite_with(&jobs, &cache);
            })
        };
        benches.push(record(
            "suite/registry_warm_report",
            report_median,
            report_min,
        ));
        // Accounting of one instrumented run per warm path: the solve-only
        // run must answer every cacheable structure from the store — zero
        // misses — and the report run must replay every program whole.
        let cache = SolveCache::with_store_solve_only(&warm_dir).expect("store re-opens");
        let warm = analyze_suite_with(&jobs, &cache);
        let load = cache.store_load_stats().expect("store-backed").clone();
        let c = &warm.summary.cache;
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
            cold_median / warm_median.max(1e-9),
        );
        println!(
            "suite/registry reports: {} reports hydrated, warm run: {} report hits, {} misses, warm/report {:.2}x",
            reports_hydrated,
            rc.report_hits,
            rc.misses,
            warm_median / report_median.max(1e-9),
        );
        store_stats_record = json!({
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
    }

    // --- serve: the analysis daemon under mixed load (in-process, real TCP).
    // The timed window measures the dedup steady state — registry kernels
    // and renamed sources answered from the response memo — which is the
    // serving path's whole value proposition; p50/p99 land in `benches` so
    // future snapshots ratio-guard them, throughput and the dedup accounting
    // in `serve_stats`.
    let serve_stats_record;
    {
        let report = run_load(&LoadConfig {
            duration: std::time::Duration::from_millis(if reps <= 3 { 1500 } else { 3000 }),
            ..LoadConfig::default()
        })
        .expect("serve load run succeeds");
        println!(
            "serve/load: {:>8.0} req/s   p50 {:.3} ms   p99 {:.3} ms   dedup {:.3}   analyses {}   5xx {}",
            report.throughput_rps,
            report.p50_ms,
            report.p99_ms,
            report.dedup_ratio,
            report.analyses,
            report.status_5xx,
        );
        assert_eq!(report.status_5xx, 0, "serve load run must be 5xx-free");
        benches.push(record("serve/latency_p50", report.p50_ms, report.p50_ms));
        benches.push(record("serve/latency_p99", report.p99_ms, report.p99_ms));
        serve_stats_record = report.to_value();
    }

    // --- subgraph_enumeration: bitset fast path vs the seed's algorithm ---
    let mut enumeration: Vec<Value> = Vec::new();
    for (label, program, max_size) in [
        ("chain35", chain_of_matmuls(35), 4usize),
        ("dense16", dense_star(16), 4),
        ("dense20", dense_star(20), 3),
        // High skew: one dominant 14-array hub component among 40 cheap chain
        // statements — the shape the self-scheduled workers exist for.
        ("skew14x20", skewed_hub(14, 20), 3),
    ] {
        let sdg = Sdg::from_program(&program);
        let (bitset_median, _) = time_ms(reps, || {
            enumerate_connected_subgraphs(&sdg, max_size, 1_000_000);
        });
        let (naive_median, _) = time_ms(reps, || {
            enumerate_connected_subgraphs_naive(&sdg, max_size, 1_000_000);
        });
        let speedup = naive_median / bitset_median.max(1e-9);
        println!(
            "subgraph_enumeration/{label:<26} bitset {bitset_median:>9.3} ms   naive(seed) {naive_median:>9.3} ms   speedup {speedup:>6.1}x"
        );
        enumeration.push(json!({
            "case": label,
            "max_size": max_size,
            "bitset_median_ms": bitset_median,
            "naive_median_ms": naive_median,
            "speedup": speedup,
        }));
    }

    // --- pebbling_validation: simulate + validate full games ---
    for case in [
        ValidationCase {
            kernel: "gemm",
            size: 12,
            s: 48,
        },
        ValidationCase {
            kernel: "jacobi-1d",
            size: 32,
            s: 16,
        },
    ] {
        let (median, min) = time_ms(reps, || {
            validate_kernel(&case).expect("validation case runs");
        });
        benches.push(record(
            &format!("pebbling_validation/{}", case.kernel),
            median,
            min,
        ));
    }

    // --- dominator_minflow: exact min vertex cut on MMM tiles ---
    let entry = soap_kernels::by_name("gemm").expect("gemm exists");
    for n in [4i64, 6, 8] {
        let params: BTreeMap<String, i64> = entry
            .program
            .parameters()
            .into_iter()
            .map(|p| (p, n))
            .collect();
        let cdag = Cdag::from_program(&entry.program, &params);
        let tile: Vec<usize> = cdag
            .compute_vertices()
            .into_iter()
            .filter(|&v| match &cdag.kinds[v] {
                VertexKind::Compute { iteration, .. } => iteration.iter().all(|&x| x < n / 2),
                _ => false,
            })
            .collect();
        let (median, min) = time_ms(reps, || {
            min_dominator_size(&cdag, &tile);
        });
        benches.push(record(&format!("dominator_minflow/{n}"), median, min));
    }

    let report = json!({
        "schema": "soap-bench-perf/1",
        "reps": reps,
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "benches": json!(benches),
        "solver_stats": json!(solver_stats),
        "suite_stats": suite_stats_record,
        "store_stats": store_stats_record,
        "serve_stats": serve_stats_record,
        "subgraph_enumeration": json!(enumeration),
        "notes": json!([
            "naive_median_ms times enumerate_connected_subgraphs_naive, a faithful retention of the seed's BTreeSet<Vec<String>> algorithm, so the speedup column is the before/after of the bitset rewrite on the same build",
            "absolute numbers are machine-dependent; compare ratios across records taken on the same host",
            "thread_scaling/{t} runs the registry suite with the worker budget pinned to t; the family is flat on hosts with fewer cores than t, and output bytes are identical across budgets by construction",
            "suite_stats.phases and solver_stats[].phases decompose analyses into enumerate/merge/instantiate/solve; the last three are summed across workers and can exceed wall clock on multi-threaded runs",
            "serve_stats measures the soap-serve daemon's dedup steady state over real TCP (loadgen's default mix); serve/latency_p50 and serve/latency_p99 record the same run's client-side percentiles as benches (median_ms = the percentile, not a median of repetitions)",
            "suite/registry_warm hydrates the populated store solve-only, once, outside the timed region (canonical solutions replayed, front half still runs); suite/registry_warm_report hydrates it once with the finished-report layer enabled, so whole analyses replay without enumeration, merging or solving — one-time startup hydration is excluded from both, and the ratio between the two is the report layer's steady-state win"
        ]),
    });
    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, text).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("\nwrote {out_path}");
}
