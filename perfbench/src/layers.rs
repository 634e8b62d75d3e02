//! The traced decomposition of one program analysis: the same pipeline the
//! product runs, replayed from the benchmark through each layer's public
//! functions so every layer's share of the time gets a name.
//!
//! Stages are either *top level* — together they cover the work of an
//! analysis and their sum is reconciled against the untraced wall clock — or
//! *components*: an extra call that re-does part of a top-level stage only to
//! time it in isolation (canonicalisation and the symbolic solve run inside
//! `SolveCache::solve`).  Component time is never added to the sum.

use crate::util::{ms, ratio, Tracer};
use crate::Outcome;
use soap_core::{solve_model, AnalysisOptions};
use soap_ir::Program;
use soap_sdg::{
    analyze_program_with_cache, canonical_program_hash, canonicalize,
    enumerate_connected_subgraphs, merged_model, structural_program_key, CacheStats, Sdg,
    SdgOptions, SolveCache, SuiteProgram,
};
use soap_symbolic::SolverCounters;
use std::time::Instant;

/// Top-level stages of an analysis (the reconciled sum).
pub const ANALYSIS_STAGES: [&str; 5] = [
    "service.structural_key",
    "graph.build",
    "subgraphs.enumerate",
    "merge",
    "cache.solve_call",
];

/// Counts of one or more replayed analyses.
#[derive(Default, Clone, Copy)]
pub struct ReplayCounts {
    pub subgraphs: u64,
    pub merge_calls: u64,
    pub merge_failures: u64,
    pub cache: CacheStats,
}

impl ReplayCounts {
    pub fn add(&mut self, other: &ReplayCounts) {
        self.subgraphs += other.subgraphs;
        self.merge_calls += other.merge_calls;
        self.merge_failures += other.merge_failures;
        let (a, b) = (&mut self.cache, &other.cache);
        a.hits += b.hits;
        a.misses += b.misses;
        a.uncacheable += b.uncacheable;
        a.store_hits += b.store_hits;
        a.report_hits += b.report_hits;
    }
}

/// Replay the analysis of `program` against `cache`, recording spans into
/// `t`.  The Theorem-1 composition is deliberately not replayed: no public
/// function exposes it, so it shows up as the unattributed residual.
pub fn replay_analysis(
    program: &Program,
    opts: &SdgOptions,
    cache: &SolveCache,
    t: &mut Tracer,
) -> ReplayCounts {
    let mut counts = ReplayCounts::default();
    t.span("service.structural_key", || {
        structural_program_key(program, opts)
    });
    let sdg = t.span("graph.build", || Sdg::from_program(program));
    let enumeration = t.span("subgraphs.enumerate", || {
        enumerate_connected_subgraphs(&sdg, opts.max_subgraph_size, opts.max_subgraphs)
    });
    counts.subgraphs = enumeration.subgraphs.len() as u64;
    let core_opts = AnalysisOptions {
        assume_injective: opts.assume_injective,
    };
    let session = cache.session();
    for arrays in &enumeration.subgraphs {
        counts.merge_calls += 1;
        let Ok(model) = t.span("merge", || merged_model(program, arrays, &core_opts)) else {
            counts.merge_failures += 1;
            continue;
        };
        t.span("cache.canonicalize", || canonicalize(&model));
        let before = session.stats();
        let _ = t.span("cache.solve_call", || session.solve(&model));
        let delta = session.stats().since(&before);
        if delta.misses + delta.uncacheable > 0 {
            let _ = t.span("symbolic.solve", || solve_model(&model));
        }
    }
    counts.cache = session.stats();
    counts
}

/// Time `canonical_program_hash` — the memo key of the daemon — as a
/// component: the analysis path only computes it inside the structural key.
pub fn time_program_hash(program: &Program, t: &mut Tracer) {
    t.span("service.program_hash", || canonical_program_hash(program));
}

/// Components re-done only to be timed (never part of the reconciled sum).
pub const COMPONENT_STAGES: [&str; 3] = [
    "cache.canonicalize",
    "symbolic.solve",
    "service.program_hash",
];

/// Set the analysis-layer metrics of `ops` replayed operations: stage times
/// as totals per op (`_ms`) or means per call (`_us`), counts per op.
pub fn set_analysis_metrics(out: &mut Outcome, t: &Tracer, counts: &ReplayCounts, ops: f64) {
    let per_op = |v: f64| ratio(v, ops);
    out.set("symbolic.solve_ms", per_op(t.total_ms("symbolic.solve")));
    out.set("merge.ms", per_op(t.total_ms("merge")));
    out.set("merge.calls", per_op(counts.merge_calls as f64));
    out.set("merge.failures", per_op(counts.merge_failures as f64));
    out.set(
        "cache.canonicalize_ms",
        per_op(t.total_ms("cache.canonicalize")),
    );
    out.set(
        "cache.solve_call_ms",
        per_op(t.total_ms("cache.solve_call")),
    );
    out.set("graph.build_us", t.mean_ms("graph.build") * 1e3);
    out.set(
        "subgraphs.enumerate_ms",
        per_op(t.total_ms("subgraphs.enumerate")),
    );
    out.set("subgraphs.count", per_op(counts.subgraphs as f64));
    out.set(
        "service.structural_key_us",
        t.mean_ms("service.structural_key") * 1e3,
    );
    out.set(
        "service.program_hash_us",
        t.mean_ms("service.program_hash") * 1e3,
    );
}

/// Set the product-side cache counters (per op) of an untraced run.
pub fn set_cache_metrics(out: &mut Outcome, cache: &CacheStats, ops: f64) {
    let per_op = |v: u64| ratio(v as f64, ops);
    out.set("cache.hits", per_op(cache.hits));
    out.set("cache.misses", per_op(cache.misses));
    out.set("cache.uncacheable", per_op(cache.uncacheable));
    out.set("cache.store_hits", per_op(cache.store_hits));
    out.set("cache.report_hits", per_op(cache.report_hits));
    out.set(
        "cache.hit_ratio",
        ratio(
            cache.hits as f64,
            (cache.hits + cache.misses + cache.uncacheable) as f64,
        ),
    );
}

/// Set the numeric solver's counters (per op) from two snapshots of the
/// process-wide `solver_counters()` around an untraced run.
pub fn set_solver_metrics(
    out: &mut Outcome,
    before: &SolverCounters,
    after: &SolverCounters,
    ops: f64,
) {
    let per_op = |a: u64, b: u64| ratio(a.saturating_sub(b) as f64, ops);
    out.set("symbolic.solves", per_op(after.solves, before.solves));
    out.set(
        "symbolic.kkt_iterations",
        per_op(after.kkt_iterations, before.kkt_iterations),
    );
    out.set(
        "symbolic.kkt_cap_hits",
        per_op(after.kkt_cap_hits, before.kkt_cap_hits),
    );
    out.set(
        "symbolic.max_form_solves",
        per_op(after.max_form_solves, before.max_form_solves),
    );
}

/// The traced run's reconciliation over `ops` ops, from totals in
/// milliseconds:
///
/// * `trace.unattributed_share` = (untraced wall − Σ top-level stages) /
///   untraced wall — work no public function exposes (Theorem-1
///   composition, pool and bookkeeping overheads);
/// * `trace.overhead_share` = (traced wall − component re-runs − Σ top-level
///   stages) / untraced wall — what the traced replay spends outside every
///   stage it times: the span recorder itself and its loop.
pub fn set_reconciliation(
    out: &mut Outcome,
    ops: usize,
    untraced_ms: f64,
    traced_wall_ms: f64,
    top_ms: f64,
    component_ms: f64,
) {
    out.set(
        "trace.unattributed_share",
        ratio(untraced_ms - top_ms, untraced_ms),
    );
    out.set(
        "trace.overhead_share",
        ratio(traced_wall_ms - component_ms - top_ms, untraced_ms),
    );
    note_trace_sample(out, ops, untraced_ms, traced_wall_ms, top_ms);
}

/// Record the traced sample's size and its per-op walls in the metadata.
pub fn note_trace_sample(
    out: &mut Outcome,
    ops: usize,
    untraced_ms: f64,
    traced_wall_ms: f64,
    top_ms: f64,
) {
    let per_op = |v: f64| ratio(v, ops as f64);
    out.note("samples.trace_ops", ops);
    out.note("trace.untraced_ms_per_op", per_op(untraced_ms));
    out.note("trace.traced_ms_per_op", per_op(traced_wall_ms));
    out.note("trace.stage_sum_ms_per_op", per_op(top_ms));
}

/// Set the store metrics of a cache hydrated from a store that holds the
/// registry's reports: the store's size (both record families), and the
/// mean cost of answering each of `jobs` from its persisted report.  Every
/// job must be a report replay.
pub fn set_store_metrics(out: &mut Outcome, cache: &SolveCache, jobs: &[SuiteProgram]) {
    let solves = cache.store_load_stats().cloned().unwrap_or_default();
    let reports = cache.report_load_stats().cloned().unwrap_or_default();
    out.set("store.entries", (solves.entries + reports.entries) as f64);
    out.set("store.bytes", (solves.bytes + reports.bytes) as f64);
    let mut total_ms = 0.0;
    for job in jobs {
        let start = Instant::now();
        let replayed = analyze_program_with_cache(&job.program, &job.opts, cache);
        total_ms += ms(start.elapsed());
        out.op(replayed.is_ok_and(|a| a.solver.report_hits == 1));
    }
    out.set(
        "store.report_replay_us",
        ratio(total_ms, jobs.len() as f64) * 1e3,
    );
}
