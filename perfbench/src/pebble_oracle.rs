//! `pebble_oracle`: the red-blue pebbling oracle over the registry.
//!
//! The grid holds, for every registry kernel, the smallest size whose CDAG
//! has at least 10³ vertices and the smallest with at least 10⁴ (heat-3d
//! lands on N = 12), each with a fast-memory size `S` the kernel's cases
//! cycle through.  One op is one case: the analytic bound evaluated at the
//! case, the CDAG build, and the program-order and tiled schedules.  A run
//! plays whole passes over the grid, each in a seeded order, so every run
//! measures the same cases; every schedule's I/O must repeat exactly from
//! pass to pass.  Cases whose schedule beats the analytic bound are counted
//! as `pebbling.bound_violations` — reported, never dropped from the grid.

use crate::util::{ms, ratio, Rng, Tracer};
use crate::{repeated_setup, set_closed_loop, Ctx, Outcome, Window};
use soap_core::{analyze_statement, AnalysisOptions, IntensityResult};
use soap_ir::Program;
use soap_pebbling::{simulate_program_order, simulate_tiled, Cdag};
use soap_sdg::{analyze_program_with_cache, SdgOptions, SolveCache};
use soap_symbolic::Expr;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Vertex-count tiers of the grid: per kernel, the smallest size reaching
/// each tier is a case.
const TIERS: [f64; 2] = [1.0e3, 1.0e4];
/// Sizes above this many estimated vertices are never drawn.
const MAX_VERTICES: f64 = 1.0e5;
/// Largest size parameter the grid search tries.
const MAX_SIZE: i64 = 128;
/// Fast-memory sizes: each kernel's cases cycle through the four smallest
/// that can pebble it at all.
const S_CHOICES: [usize; 7] = [8, 16, 32, 64, 128, 256, 512];

struct Kernel {
    name: &'static str,
    program: Program,
    bound: Expr,
    /// Per statement, its single-statement intensity (for tile shapes).
    statements: Vec<Option<IntensityResult>>,
}

#[derive(Clone, Copy)]
struct Case {
    kernel: usize,
    size: i64,
    s: usize,
}

struct Setup {
    kernels: Vec<Kernel>,
    cases: Vec<Case>,
}

fn params(program: &Program, size: i64) -> BTreeMap<String, i64> {
    program
        .parameters()
        .into_iter()
        .map(|p| (p, size))
        .collect()
}

fn estimated_vertices(program: &Program, size: i64) -> f64 {
    let bindings: BTreeMap<String, f64> = params(program, size)
        .into_iter()
        .map(|(k, v)| (k, v as f64))
        .collect();
    program
        .total_vertex_count()
        .eval(&bindings)
        .unwrap_or(f64::INFINITY)
}

fn setup() -> Result<Setup, String> {
    let cache = SolveCache::new();
    let mut kernels = Vec::new();
    let mut cases = Vec::new();
    for entry in soap_kernels::registry() {
        let core = AnalysisOptions {
            assume_injective: entry.assume_injective,
        };
        let opts = SdgOptions {
            assume_injective: entry.assume_injective,
            ..SdgOptions::default()
        };
        let analysis = analyze_program_with_cache(&entry.program, &opts, &cache)
            .map_err(|e| format!("analysis of {}: {e}", entry.name))?;
        let statements = entry
            .program
            .statements
            .iter()
            .map(|st| analyze_statement(st, &core).ok().map(|a| a.intensity))
            .collect();
        let k = kernels.len();
        // A schedule needs every operand of a vertex and the vertex itself
        // red at once; smaller budgets admit no pebbling at all.
        let min_s = entry
            .program
            .statements
            .iter()
            .map(|st| {
                st.inputs.iter().map(|a| a.num_components()).sum::<usize>()
                    + usize::from(st.is_update)
                    + 1
            })
            .max()
            .unwrap_or(1);
        let feasible: Vec<usize> = S_CHOICES
            .iter()
            .copied()
            .filter(|&s| s >= min_s)
            .take(4)
            .collect();
        let mut tier = 0;
        for size in 2..=MAX_SIZE {
            let v = estimated_vertices(&entry.program, size);
            if v > MAX_VERTICES || tier == TIERS.len() {
                break;
            }
            if v >= TIERS[tier] {
                cases.push(Case {
                    kernel: k,
                    size,
                    s: feasible[cases.len() % feasible.len()],
                });
                while tier < TIERS.len() && v >= TIERS[tier] {
                    tier += 1;
                }
            }
        }
        kernels.push(Kernel {
            name: entry.name,
            program: entry.program,
            bound: analysis.bound,
            statements,
        });
    }
    Ok(Setup { kernels, cases })
}

/// The measured result of one case.
#[derive(Clone, Copy, PartialEq)]
struct Played {
    vertices: usize,
    order_io: usize,
    tiled_io: usize,
    tiled_legal: bool,
    bound: f64,
}

/// Tile sizes per statement at fast-memory size `s`: each statement's
/// optimal tile shape from its own intensity, where one exists.
fn tiles(kernel: &Kernel, s: usize) -> BTreeMap<usize, Vec<i64>> {
    let mut out = BTreeMap::new();
    for (i, (st, intensity)) in kernel
        .program
        .statements
        .iter()
        .zip(&kernel.statements)
        .enumerate()
    {
        let Some(tiles) = intensity.as_ref().and_then(|r| r.tiles_at(s as f64)) else {
            continue;
        };
        let by_var: HashMap<String, f64> = tiles.into_iter().collect();
        let shape = st
            .loop_variables()
            .iter()
            .map(|v| {
                by_var
                    .get(&format!("D_{v}"))
                    .map_or(1, |t| (t.round() as i64).max(1))
            })
            .collect();
        out.insert(i, shape);
    }
    out
}

/// Play one case, timing each layer call into `t`.
fn play(s: &Setup, case: Case, t: &mut Tracer) -> Result<Played, String> {
    let kernel = &s.kernels[case.kernel];
    let params = params(&kernel.program, case.size);
    let bound = t.span("pebbling.bound", || {
        let mut bindings: BTreeMap<String, f64> =
            params.iter().map(|(k, v)| (k.clone(), *v as f64)).collect();
        bindings.insert("S".to_string(), case.s as f64);
        kernel.bound.eval(&bindings).unwrap_or(f64::NAN)
    });
    let cdag = t.span("pebbling.cdag_build", || {
        Cdag::from_program(&kernel.program, &params)
    });
    let order = t
        .span("pebbling.simulate_order", || {
            simulate_program_order(&cdag, case.s)
        })
        .map_err(|e| format!("{} program order: {e:?}", kernel.name))?;
    let tile_map = tiles(kernel, case.s);
    // Tiles ignore dependences, so a tiled order can be no legal schedule
    // (seidel-2d's in-place sweeps); the case then keeps its program-order
    // I/O, as `soap_bench::validation` does.
    let tiled = t.span("pebbling.simulate_tiled", || {
        simulate_tiled(&cdag, &tile_map, case.s)
    });
    Ok(Played {
        vertices: cdag.len(),
        order_io: order.io(),
        tiled_io: tiled.as_ref().map_or(order.io(), |t| t.io()),
        tiled_legal: tiled.is_ok(),
        bound,
    })
}

/// Top-level stages of a case.
const STAGES: [&str; 4] = [
    "pebbling.bound",
    "pebbling.cdag_build",
    "pebbling.simulate_order",
    "pebbling.simulate_tiled",
];

/// One pass over the grid in a seeded order.  Returns per-case wall times;
/// `first` holds each case's first result, which later passes must repeat.
fn pass(
    s: &Setup,
    rng: &mut Rng,
    out: &mut Outcome,
    first: &mut [Option<Played>],
    t: &mut Tracer,
) -> Result<Vec<(usize, f64, Played)>, String> {
    let mut order: Vec<usize> = (0..s.cases.len()).collect();
    rng.shuffle(&mut order);
    let mut results = Vec::with_capacity(order.len());
    for i in order {
        let start = Instant::now();
        let played = play(s, s.cases[i], t)?;
        let elapsed = ms(start.elapsed());
        let repeated = *first[i].get_or_insert(played) == played;
        out.op(repeated && played.bound.is_finite());
        results.push((i, elapsed, played));
    }
    Ok(results)
}

fn violations(results: &[(usize, f64, Played)]) -> usize {
    results
        .iter()
        .filter(|(_, _, p)| (p.order_io.min(p.tiled_io) as f64) < p.bound)
        .count()
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let s = repeated_setup(&mut out, setup)?;
    let mut rng = Rng::new(ctx.seed ^ 0x7065_6262);
    let mut first = vec![None; s.cases.len()];
    let mut t = Tracer::off();
    // One window per pass.
    let mut windows = Vec::new();
    let mut last = Vec::new();
    let start = Instant::now();
    let mut pass_s = 0.0;
    // Whole passes that fit the run (the last pass's length predicts the
    // next), and at least two so every case's I/O is checked to repeat.
    while windows.len() < 2 || start.elapsed().as_secs_f64() + pass_s <= ctx.seconds {
        let pass_start = Instant::now();
        last = pass(&s, &mut rng, &mut out, &mut first, &mut t)?;
        pass_s = pass_start.elapsed().as_secs_f64();
        windows.push(Window {
            op_ms: last.iter().map(|r| r.1).collect(),
            programs: last.len() as f64,
            vertices: last.iter().map(|r| r.2.vertices as f64).sum(),
        });
    }
    set_closed_loop(&mut out, &windows);
    out.note("cases", s.cases.len());
    out.note("bound_violations", violations(&last));
    out.note(
        "tiled_illegal",
        last.iter().filter(|(_, _, p)| !p.tiled_legal).count(),
    );
    Ok(out)
}

pub fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let s = setup()?;
    let mut rng = Rng::new(ctx.seed ^ 0x7065_6262);
    let mut first = vec![None; s.cases.len()];
    // The untraced pass times whole cases only; the traced pass repeats the
    // same cases with every layer call timed.
    let mut untimed = Tracer::off();
    let untraced = pass(&s, &mut rng, &mut out, &mut first, &mut untimed)?;
    let untraced_ms: f64 = untraced.iter().map(|r| r.1).sum();
    let mut t = Tracer::default();
    let start = Instant::now();
    let traced = pass(&s, &mut rng, &mut out, &mut first, &mut t)?;
    let traced_ms = ms(start.elapsed());
    let n = s.cases.len() as f64;
    let per_op = |stage: &str| ratio(t.total_ms(stage), n);
    out.set("pebbling.cdag_build_ms", per_op("pebbling.cdag_build"));
    out.set(
        "pebbling.simulate_order_ms",
        per_op("pebbling.simulate_order"),
    );
    out.set(
        "pebbling.simulate_tiled_ms",
        per_op("pebbling.simulate_tiled"),
    );
    out.set(
        "pebbling.vertices",
        ratio(traced.iter().map(|r| r.2.vertices as f64).sum(), n),
    );
    out.set("pebbling.bound_violations", violations(&traced) as f64);
    crate::layers::set_reconciliation(
        &mut out,
        s.cases.len(),
        untraced_ms,
        traced_ms,
        t.sum_ms(&STAGES),
        0.0,
    );
    out.note("cases", s.cases.len());
    Ok(out)
}
