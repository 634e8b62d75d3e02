//! `edit_warm`: a long-lived warm process fed one-statement edits.
//!
//! Set-up persists the registry's solves and reports into a warm store and
//! hydrates it once.  Every pass then restores that pristine store into a
//! fresh directory, hydrates it, and analyses every edit of the corpus in a
//! seeded order.  One op is one edited-program analysis: it always misses the
//! report layer (asserted) and mostly hits the solve cache, so the work lands
//! in enumeration, merge, canonicalisation and instantiation.
//!
//! Restoring the store per pass is what keeps the workload honest: a store
//! reused across passes absorbs the benchmark's own edits (on drop the cache
//! flushes both solves and reports), after which the "edits" are report
//! replays.  Each result is compared byte for byte with a from-scratch
//! analysis of the same edit on a store-less cache, computed in set-up.

use crate::corpus::{self, analysis_record, Edit};
use crate::layers::{self, ReplayCounts, ANALYSIS_STAGES, COMPONENT_STAGES};
use crate::util::{copy_dir, ms, quantile, ratio, Rng, Tracer};
use crate::{repeated_setup, set_closed_loop, Ctx, Outcome, Window, QUIET_WINDOWS};
use soap_sdg::{
    analyze_program_with_cache, analyze_suite_with, CacheStats, Sdg, SolveCache, SuiteProgram,
};
use soap_symbolic::solver_counters;
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Setup {
    jobs: Vec<SuiteProgram>,
    edits: Vec<Edit>,
    /// From-scratch analysis records, parallel to `edits`.
    references: Vec<String>,
    /// Σ SDG vertices (arrays) over the corpus.
    corpus_vertices: u64,
    pristine: PathBuf,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let jobs = corpus::registry_jobs();
    let edits = corpus::edit_corpus(&jobs);
    let pristine = ctx.work.fresh("warm");
    {
        let cache = SolveCache::with_store(&pristine).map_err(|e| format!("open store: {e}"))?;
        let batch = analyze_suite_with(&jobs, &cache);
        if batch.summary.failures > 0 {
            return Err("registry analysis failed while building the warm store".into());
        }
        cache
            .flush_store()
            .map_err(|e| format!("flush store: {e}"))?;
    }
    // One hydration, as a restarted process would pay it.
    drop(SolveCache::with_store(&pristine).map_err(|e| format!("hydrate store: {e}"))?);
    let scratch = SolveCache::new();
    let mut references = Vec::with_capacity(edits.len());
    for edit in &edits {
        let analysis = analyze_program_with_cache(&edit.job.program, &edit.job.opts, &scratch)
            .map_err(|e| format!("reference analysis of {}: {e}", edit.label))?;
        references.push(analysis_record(&analysis));
    }
    let corpus_vertices = edits
        .iter()
        .map(|e| Sdg::from_program(&e.job.program).num_vertices() as u64)
        .sum();
    Ok(Setup {
        jobs,
        edits,
        references,
        corpus_vertices,
        pristine,
    })
}

/// A fresh copy of the pristine warm store, hydrated.  Returns the cache,
/// its directory and the hydration time in milliseconds.
fn restore(ctx: &Ctx, s: &Setup) -> Result<(SolveCache, PathBuf, f64), String> {
    let dir = ctx.work.fresh("pass");
    copy_dir(&s.pristine, &dir).map_err(|e| format!("restore warm store: {e}"))?;
    let start = Instant::now();
    let cache = SolveCache::with_store(&dir).map_err(|e| format!("hydrate store: {e}"))?;
    Ok((cache, dir, ms(start.elapsed())))
}

/// Drop a pass's cache and delete its directory; returns the time of the
/// explicit end-of-pass flush in milliseconds.
fn finish(cache: SolveCache, dir: &Path) -> f64 {
    let start = Instant::now();
    let _ = cache.flush_store();
    let flush_ms = ms(start.elapsed());
    drop(cache);
    let _ = std::fs::remove_dir_all(dir);
    flush_ms
}

/// One timed op.  Errors if the warm store answered it from a report: the
/// op would no longer measure an edited-program analysis.
fn edit_op(
    s: &Setup,
    i: usize,
    cache: &SolveCache,
    stats: &mut CacheStats,
) -> Result<(f64, bool), String> {
    let edit = &s.edits[i];
    let start = Instant::now();
    let result = analyze_program_with_cache(&edit.job.program, &edit.job.opts, cache);
    let elapsed = ms(start.elapsed());
    let ok = match result {
        Ok(analysis) => {
            let solver = &analysis.solver;
            if solver.report_hits != 0 {
                return Err(format!(
                    "edit {} was answered from a stored report; the warm store is no longer pristine",
                    edit.label
                ));
            }
            stats.hits += solver.cache_hits;
            stats.misses += solver.cache_misses;
            stats.uncacheable += solver.uncacheable;
            stats.store_hits += solver.store_hits;
            analysis_record(&analysis) == s.references[i]
        }
        Err(_) => false,
    };
    Ok((elapsed, ok))
}

fn seeded_pass(s: &Setup, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..s.edits.len()).collect();
    rng.shuffle(&mut order);
    order
}

/// Passes per window of `op_ms.p99` (at least).  Two edits of 181
/// (lenet-5's) take 100-250 ms; p99 lies inside their mode only once a
/// window holds five or more passes, while one or three passes would put it
/// between them and the rest.
const WINDOW_PASSES: usize = 5;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let s = repeated_setup(&mut out, || setup(ctx))?;
    let mut rng = Rng::new(ctx.seed);
    let mut stats = CacheStats::default();
    // Whole passes only, so every run measures the same multiset of edits.
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let order = seeded_pass(&s, &mut rng);
        let (cache, dir, _) = restore(ctx, &s)?;
        let mut op_ms = Vec::with_capacity(order.len());
        for i in order {
            let (elapsed, ok) = edit_op(&s, i, &cache, &mut stats)?;
            out.op(ok);
            op_ms.push(elapsed);
        }
        finish(cache, &dir);
        passes.push(op_ms);
    }
    // One window per pass, so a burst of host interference spoils a few of
    // the ~15 windows rather than the figure...
    let windows: Vec<Window> = passes
        .iter()
        .map(|op_ms| Window {
            op_ms: op_ms.clone(),
            programs: op_ms.len() as f64,
            vertices: s.corpus_vertices as f64,
        })
        .collect();
    set_closed_loop(&mut out, &windows);
    // ...except for p99, whose windows need WINDOW_PASSES whole passes
    // (as even as possible).
    let groups = (passes.len() / WINDOW_PASSES).max(1);
    let p99: Vec<f64> = (0..groups)
        .map(|g| {
            let group = &passes[g * passes.len() / groups..(g + 1) * passes.len() / groups];
            quantile(&group.concat(), 0.99)
        })
        .collect();
    out.set("op_ms.p99", quantile(&p99, QUIET_WINDOWS));
    out.note("samples.op_ms_p99_windows", groups);
    out.note("edits", s.edits.len());
    out.note(
        "solve_hit_share",
        ratio(
            stats.hits as f64,
            (stats.hits + stats.misses + stats.uncacheable) as f64,
        ),
    );
    Ok(out)
}

pub fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let s = setup(ctx)?;
    let mut rng = Rng::new(ctx.seed);
    let order = seeded_pass(&s, &mut rng);
    let n = order.len() as f64;
    let budget = soap_sdg::set_worker_budget(1);

    // One untraced pass on one worker.
    let (cache, dir, hydrate_ms) = restore(ctx, &s)?;
    let counters_before = solver_counters();
    let mut stats = CacheStats::default();
    let mut untraced = 0.0;
    for &i in &order {
        let (elapsed, ok) = edit_op(&s, i, &cache, &mut stats)?;
        out.op(ok);
        untraced += elapsed;
    }
    layers::set_solver_metrics(&mut out, &counters_before, &solver_counters(), n);
    layers::set_cache_metrics(&mut out, &stats, n);
    out.set("store.hydrate_ms", hydrate_ms);
    out.set("store.flush_ms", finish(cache, &dir));

    // The same pass replayed stage by stage.
    let (cache, dir, _) = restore(ctx, &s)?;
    let mut t = Tracer::default();
    let mut counts = ReplayCounts::default();
    let start = Instant::now();
    for &i in &order {
        let job = &s.edits[i].job;
        layers::time_program_hash(&job.program, &mut t);
        counts.add(&layers::replay_analysis(
            &job.program,
            &job.opts,
            &cache,
            &mut t,
        ));
    }
    let traced_wall = ms(start.elapsed());
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
    soap_sdg::set_worker_budget(budget);
    layers::set_analysis_metrics(&mut out, &t, &counts, n);
    layers::set_reconciliation(
        &mut out,
        order.len(),
        untraced,
        traced_wall,
        t.sum_ms(&ANALYSIS_STAGES),
        t.sum_ms(&COMPONENT_STAGES),
    );

    // The warm store itself: its size, and answering the unedited registry
    // from its reports.
    let (cache, dir, _) = restore(ctx, &s)?;
    layers::set_store_metrics(&mut out, &cache, &s.jobs);
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
    out.note("edits", s.edits.len());
    Ok(out)
}
