//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_suite|edit_warm|serve_mixed|pebble_oracle> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root.  The seed generates every input; the
//! program under test only ever sees the generated inputs.  With `--trace 0`
//! the last stdout line reports the end-to-end metrics, with `--trace 1` the
//! per-layer metrics of a traced run; the line before it carries the run's
//! metadata (host, budget, build, sample counts).  See `perfbench/README.md`.

mod cold_suite;
mod corpus;
mod edit_warm;
mod layers;
mod pebble_oracle;
mod serve_mixed;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.  Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("op_ms.p99", "ms"),
    ("programs_per_s", "1/s"),
    ("max_rps", "1/s"),
    ("vertices_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.  A workload that
/// does not exercise a layer reports 0 for it and lists it under
/// `not_applicable` in the metadata line.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("symbolic.solve_ms", "ms"),
    ("symbolic.solves", "count"),
    ("symbolic.kkt_iterations", "count"),
    ("symbolic.kkt_cap_hits", "count"),
    ("symbolic.max_form_solves", "count"),
    ("merge.ms", "ms"),
    ("merge.calls", "count"),
    ("merge.failures", "count"),
    ("cache.canonicalize_ms", "ms"),
    ("cache.solve_call_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.store_hits", "count"),
    ("cache.report_hits", "count"),
    ("cache.uncacheable", "count"),
    ("graph.build_us", "us"),
    ("subgraphs.enumerate_ms", "ms"),
    ("subgraphs.count", "count"),
    ("service.structural_key_us", "us"),
    ("service.program_hash_us", "us"),
    ("store.hydrate_ms", "ms"),
    ("store.flush_ms", "ms"),
    ("store.entries", "count"),
    ("store.bytes", "B"),
    ("store.report_replay_us", "us"),
    ("batch.wall_ms", "ms"),
    ("batch.busy_ms", "ms"),
    ("batch.parallel_efficiency", "ratio"),
    ("frontend.parse_us", "us"),
    ("frontend.bytes_per_s", "B/s"),
    ("serve.handle_us", "us"),
    ("httpd.roundtrip_overhead_us", "us"),
    ("serve.memo_hit_ratio", "ratio"),
    ("serve.analyses", "count"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("load.generator_lag_ms.p99", "ms"),
    ("load.fresh_analysis_share", "ratio"),
    ("pebbling.cdag_build_ms", "ms"),
    ("pebbling.simulate_order_ms", "ms"),
    ("pebbling.simulate_tiled_ms", "ms"),
    ("pebbling.vertices", "count"),
    ("pebbling.bound_violations", "count"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("failed_share", "ratio"),
];

const WORKLOADS: [&str; 4] = ["cold_suite", "edit_warm", "serve_mixed", "pebble_oracle"];

/// How one run is configured.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    pub work: util::WorkDir,
}

/// What one workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra metadata, as `(key, JSON text)`.
    pub meta: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a sample count (or any other number) in the metadata line.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Account one operation and whether its output was right.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds expects a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The metric tables above must be the ones `BENCHMARK.json` declares, so
/// the two cannot drift apart silently.
fn check_declared() -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(());
    };
    let doc: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared: Vec<(&str, &str)> = doc
            .get(key)
            .and_then(serde_json::Value::as_array)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(serde_json::Value::as_str).unwrap_or("");
                (field("name"), field("unit"))
            })
            .collect();
        if declared != table {
            return Err(format!(
                "BENCHMARK.json {key} does not match the metrics this benchmark reports"
            ));
        }
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    check_declared()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Analyses run with the worker budget clamped to the host's cores.
    soap_sdg::set_worker_budget(nproc);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc,
        work: util::WorkDir::create().map_err(|e| format!("scratch directory: {e}"))?,
    };
    let ticks_before = util::cpu_ticks();
    let mut outcome = match (args.workload.as_str(), args.trace) {
        ("cold_suite", false) => cold_suite::run(&ctx)?,
        ("cold_suite", true) => cold_suite::traced(&ctx)?,
        ("edit_warm", false) => edit_warm::run(&ctx)?,
        ("edit_warm", true) => edit_warm::traced(&ctx)?,
        ("serve_mixed", false) => serve_mixed::run(&ctx)?,
        ("serve_mixed", true) => serve_mixed::traced(&ctx)?,
        ("pebble_oracle", false) => pebble_oracle::run(&ctx)?,
        ("pebble_oracle", true) => pebble_oracle::traced(&ctx)?,
        _ => unreachable!("workload names are checked in parse_args"),
    };
    let ticks_after = util::cpu_ticks();
    outcome.note(
        "host.steal_share",
        util::ratio(
            ticks_after.0.saturating_sub(ticks_before.0) as f64,
            ticks_after.1.saturating_sub(ticks_before.1) as f64,
        ),
    );
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        outcome.set("peak_rss_mb", util::peak_rss_mb());
    } else {
        outcome.set(
            "failed_share",
            util::ratio(outcome.failed as f64, outcome.attempted as f64),
        );
    }
    let mut not_applicable = Vec::new();
    for (name, _) in declared {
        if !outcome.metrics.contains_key(name) {
            if !args.trace {
                return Err(format!("workload did not report end-to-end metric {name}"));
            }
            not_applicable.push(json_str(name));
            outcome.set(name, 0.0);
        }
    }
    if let Some(extra) = outcome
        .metrics
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("workload reported undeclared metric {extra}"));
    }
    if outcome.attempted == 0 {
        return Err("no operation completed".into());
    }

    let mut meta = format!(
        "{{\"meta\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"worker_budget\":{},\"profile\":{},\"rustc\":{}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        nproc,
        soap_sdg::worker_budget(),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_str(env!("PERFBENCH_RUSTC")),
    );
    for (key, value) in &outcome.meta {
        let _ = write!(meta, ",{}:{}", json_str(key), value);
    }
    let _ = write!(
        meta,
        ",\"not_applicable\":[{}]}}}}",
        not_applicable.join(",")
    );
    println!("{meta}");

    let mut metrics = Vec::new();
    for (name, unit) in declared {
        metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            json_num(outcome.metrics[name]),
            json_str(unit)
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

/// `setup_s` is the median of at least this many complete set-ups…
const SETUP_REPEATS: usize = 3;
/// …repeated while their total stays under this many seconds (cheap set-ups
/// are noisy and get more repeats), up to [`SETUP_REPEATS_MAX`].
const SETUP_BUDGET_S: f64 = 1.0;
const SETUP_REPEATS_MAX: usize = 25;

/// Run a workload's set-up repeatedly, report the median time as `setup_s`
/// and keep the last result.
pub fn repeated_setup<T>(
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut times: Vec<f64> = Vec::new();
    let mut state = None;
    while times.len() < SETUP_REPEATS
        || (times.len() < SETUP_REPEATS_MAX && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Tear the previous state down first, outside the timed region.
        drop(state.take());
        let start = std::time::Instant::now();
        state = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    out.set("setup_s", util::median(&times));
    out.note("samples.setup_s", times.len());
    Ok(state.expect("at least one set-up ran"))
}

/// Which of a run's windows a figure comes from: the lower quartile of the
/// per-window latencies (and the upper quartile of the per-window rates).
/// Host interference only ever adds time — a hypervisor can take 0–17% of a
/// virtual machine's CPU time, in bursts of seconds — so the quieter windows
/// estimate the program's own cost best, the way the minimum of repeated
/// timings does, while still moving with every change to the program.
pub const QUIET_WINDOWS: f64 = 0.25;

/// Set `op_ms.p50/p90/p99` from a run's op latencies grouped into
/// consecutive windows: each is the [`QUIET_WINDOWS`] quantile, over the
/// windows, of that window's percentile.
pub fn set_windowed_latency(out: &mut Outcome, windows: &[Vec<f64>]) {
    let of = |q: f64| {
        util::quantile(
            &windows
                .iter()
                .map(|w| util::quantile(w, q))
                .collect::<Vec<_>>(),
            QUIET_WINDOWS,
        )
    };
    out.set("op_ms.p50", of(0.50));
    out.set("op_ms.p90", of(0.90));
    out.set("op_ms.p99", of(0.99));
    out.note("samples.op_ms", windows.iter().map(Vec::len).sum::<usize>());
    out.note("samples.op_ms_windows", windows.len());
}

/// One window of a closed-loop run: its ops' latencies, and the programs
/// and graph vertices those ops processed.
pub struct Window {
    pub op_ms: Vec<f64>,
    pub programs: f64,
    pub vertices: f64,
}

/// Set every end-to-end metric but `setup_s` of a closed-loop run: the
/// latency percentiles as in [`set_windowed_latency`], and each rate as the
/// upper [`QUIET_WINDOWS`] quantile over windows of that window's rate per
/// second of op time.
pub fn set_closed_loop(out: &mut Outcome, windows: &[Window]) {
    let latencies: Vec<Vec<f64>> = windows.iter().map(|w| w.op_ms.clone()).collect();
    set_windowed_latency(out, &latencies);
    let rate = |count: &dyn Fn(&Window) -> f64| {
        util::quantile(
            &windows
                .iter()
                .map(|w| count(w) / (w.op_ms.iter().sum::<f64>() / 1e3))
                .collect::<Vec<_>>(),
            1.0 - QUIET_WINDOWS,
        )
    };
    out.set("programs_per_s", rate(&|w| w.programs));
    // A closed loop starts each op as soon as the last one finished: its
    // completion rate is the highest rate it sustains without a backlog.
    out.set("max_rps", rate(&|w| w.op_ms.len() as f64));
    out.set("vertices_per_s", rate(&|w| w.vertices));
}
