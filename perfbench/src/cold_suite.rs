//! `cold_suite`: the whole 38-kernel registry with the Table-2 options,
//! analysed by `analyze_suite_with` on a fresh store-backed `SolveCache` and
//! flushed — the first-process cost of `soap-cli batch --all`.  One op is one
//! whole suite in a seeded program order; every kernel's bound, σ and ρ are
//! compared with the committed golden file.

use crate::layers::{self, ReplayCounts, ANALYSIS_STAGES, COMPONENT_STAGES};
use crate::util::{ms, ratio, Rng, Tracer};
use crate::{corpus, repeated_setup, set_closed_loop, Ctx, Outcome, Window};
use soap_kernels::KernelEntry;
use soap_sdg::{analyze_suite_with, BatchAnalysis, Sdg, SolveCache, SuiteProgram};
use soap_symbolic::solver_counters;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

struct Setup {
    entries: Vec<KernelEntry>,
    jobs: Vec<SuiteProgram>,
    golden: BTreeMap<String, String>,
    /// Σ SDG vertices (arrays) over the registry.
    suite_vertices: u64,
}

fn setup() -> Result<Setup, String> {
    let entries = soap_kernels::registry();
    let jobs = entries.iter().map(soap_bench::suite_program).collect();
    let golden = corpus::golden_blocks()?;
    let suite_vertices = entries
        .iter()
        .map(|e| Sdg::from_program(&e.program).num_vertices() as u64)
        .sum();
    Ok(Setup {
        entries,
        jobs,
        golden,
        suite_vertices,
    })
}

/// The registry permuted by `rng`: `(registry index, job)` pairs.
fn seeded_order(s: &Setup, rng: &mut Rng) -> (Vec<usize>, Vec<SuiteProgram>) {
    let mut order: Vec<usize> = (0..s.jobs.len()).collect();
    rng.shuffle(&mut order);
    let jobs = order.iter().map(|&i| s.jobs[i].clone()).collect();
    (order, jobs)
}

/// One op: open a fresh store, analyse the suite, flush.  Returns the op's
/// wall clock and the batch result; `keep` leaves the store on disk.
fn suite_op(
    ctx: &Ctx,
    jobs: &[SuiteProgram],
    keep: bool,
) -> Result<(f64, BatchAnalysis, std::path::PathBuf), String> {
    let dir = ctx.work.fresh("suite");
    let start = Instant::now();
    let cache = SolveCache::with_store(&dir).map_err(|e| format!("open store: {e}"))?;
    let batch = analyze_suite_with(jobs, &cache);
    cache
        .flush_store()
        .map_err(|e| format!("flush store: {e}"))?;
    drop(cache);
    let elapsed = ms(start.elapsed());
    if !keep {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok((elapsed, batch, dir))
}

/// Every kernel's analysis succeeded and renders exactly its golden block.
fn suite_correct(s: &Setup, order: &[usize], batch: &BatchAnalysis) -> bool {
    batch.reports.len() == order.len()
        && order.iter().zip(&batch.reports).all(|(&i, report)| {
            let entry = &s.entries[i];
            report.outcome.as_ref().is_ok_and(|analysis| {
                s.golden.get(entry.name) == Some(&corpus::golden_block(entry, analysis))
            })
        })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let s = repeated_setup(&mut out, setup)?;
    let mut rng = Rng::new(ctx.seed);
    let mut op_ms = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let (order, jobs) = seeded_order(&s, &mut rng);
        let (elapsed, batch, _) = suite_op(ctx, &jobs, false)?;
        out.op(suite_correct(&s, &order, &batch));
        op_ms.push(elapsed);
    }
    let windows: Vec<Window> = op_ms
        .chunks(WINDOW_SUITES)
        .map(|w| Window {
            op_ms: w.to_vec(),
            programs: (w.len() * s.jobs.len()) as f64,
            vertices: w.len() as f64 * s.suite_vertices as f64,
        })
        .collect();
    set_closed_loop(&mut out, &windows);
    Ok(out)
}

/// Suites per window of [`set_closed_loop`]: about two seconds.
const WINDOW_SUITES: usize = 25;

/// Suites per phase of the traced run.
const TRACE_SUITES: usize = 3;

pub fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let s = setup()?;
    let mut rng = Rng::new(ctx.seed);
    let orders: Vec<(Vec<usize>, Vec<SuiteProgram>)> = (0..TRACE_SUITES)
        .map(|_| seeded_order(&s, &mut rng))
        .collect();
    let n = TRACE_SUITES as f64;

    // Batch layer at the full worker budget.
    let (mut wall, mut busy) = (0.0, 0.0);
    for (order, jobs) in &orders {
        let (_, batch, _) = suite_op(ctx, jobs, false)?;
        out.op(suite_correct(&s, order, &batch));
        wall += batch.summary.wall_ms;
        busy += batch.reports.iter().map(|r| r.analysis_ms).sum::<f64>();
    }
    out.set("batch.wall_ms", wall / n);
    out.set("batch.busy_ms", busy / n);
    out.set(
        "batch.parallel_efficiency",
        ratio(busy, wall * soap_sdg::worker_budget() as f64),
    );

    // Reconciliation on one worker: the untraced suites, then the same
    // suites replayed stage by stage.
    let budget = soap_sdg::set_worker_budget(1);
    let counters_before = solver_counters();
    let mut untraced = 0.0;
    let mut cache_stats = soap_sdg::CacheStats::default();
    let mut last_store = None;
    for (order, jobs) in &orders {
        let (elapsed, batch, dir) = suite_op(ctx, jobs, true)?;
        out.op(suite_correct(&s, order, &batch));
        untraced += elapsed;
        if let Some(previous) = last_store.replace(dir) {
            let _ = std::fs::remove_dir_all(previous);
        }
        let c = &batch.summary.cache;
        cache_stats.hits += c.hits;
        cache_stats.misses += c.misses;
        cache_stats.uncacheable += c.uncacheable;
        cache_stats.store_hits += c.store_hits;
        cache_stats.report_hits += c.report_hits;
    }
    layers::set_solver_metrics(&mut out, &counters_before, &solver_counters(), n);
    layers::set_cache_metrics(&mut out, &cache_stats, n);

    let mut t = Tracer::default();
    let mut counts = ReplayCounts::default();
    let mut traced_wall = 0.0;
    for (_, jobs) in &orders {
        let dir = ctx.work.fresh("suite");
        let start = Instant::now();
        let cache = t
            .span("store.hydrate", || SolveCache::with_store(&dir))
            .map_err(|e| format!("open store: {e}"))?;
        for job in jobs {
            layers::time_program_hash(&job.program, &mut t);
            counts.add(&layers::replay_analysis(
                &job.program,
                &job.opts,
                &cache,
                &mut t,
            ));
        }
        t.span("store.flush", || cache.flush_store())
            .map_err(|e| format!("flush store: {e}"))?;
        drop(cache);
        traced_wall += ms(start.elapsed());
        let _ = std::fs::remove_dir_all(&dir);
    }
    soap_sdg::set_worker_budget(budget);
    layers::set_analysis_metrics(&mut out, &t, &counts, n);
    out.set("store.hydrate_ms", t.mean_ms("store.hydrate"));
    out.set("store.flush_ms", t.mean_ms("store.flush"));
    let top = t.sum_ms(&ANALYSIS_STAGES) + t.sum_ms(&["store.hydrate", "store.flush"]);
    layers::set_reconciliation(
        &mut out,
        TRACE_SUITES,
        untraced,
        traced_wall,
        top,
        t.sum_ms(&COMPONENT_STAGES),
    );

    // The store one untraced suite leaves behind, and replaying its reports.
    let dir = last_store.expect("at least one untraced suite");
    report_replay(&mut out, &s, &dir)?;
    Ok(out)
}

/// Reopen a suite's store: its size, and the cost of answering each
/// registry program from its persisted report.
fn report_replay(out: &mut Outcome, s: &Setup, dir: &Path) -> Result<(), String> {
    let cache = SolveCache::with_store(dir).map_err(|e| format!("reopen store: {e}"))?;
    layers::set_store_metrics(out, &cache, &s.jobs);
    drop(cache);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}
