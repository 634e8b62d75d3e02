//! `serve_mixed`: `soap-serve` in-process over real TCP, driven as an open
//! loop.
//!
//! Requests are due at a fixed rate below capacity, whether or not earlier
//! ones have finished; each is timed from the moment it was due, so a stall
//! also charges the requests queued behind it, and the generator's own
//! lateness is reported.  The seeded mix:
//!
//! * registry `GET /analyze?kernel=…` and `POST`ed Python renderings of the
//!   registry with renamed loop variables — memo hits once warmed up;
//! * [`FRESH_SHARE`] of freshly generated programs, each structurally
//!   distinct from every earlier request of the run, so each runs a full
//!   analysis.
//!
//! p50 therefore measures HTTP, parse, hash and memo; p90 and p99 land
//! inside the fresh-analysis mode.  After the main window a short ladder of
//! rates finds `max_rps`.  Every 200 body's bound is checked against an
//! in-process analysis of the same program.

use crate::corpus::{self, to_python};
use crate::layers::{self, ReplayCounts, ANALYSIS_STAGES};
use crate::util::{median, ms, quantile, ratio, Rng, Tracer};
use crate::{repeated_setup, set_windowed_latency, Ctx, Outcome};
use serde_json::Value;
use soap_sdg::{analyze_program_with_cache, canonical_program_hash, Sdg, SdgOptions, SolveCache};
use soap_serve::{AnalysisService, RunningServer, ServeConfig};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Share of requests that carry a fresh program.  At 20% p90 and p99 both
/// land inside the fresh-analysis mode (the top half and top twentieth of
/// it) and p50 inside the memo mode; a share near 10% would put p90 on the
/// boundary between the two, and near 1% p99.
const FRESH_SHARE: f64 = 0.2;
/// Offered rate of the main window, in requests per second: a quarter of
/// the 1000/s rung this mix sustains on a 2-core host.
const RATE: f64 = 250.0;
/// The `max_rps` ladder: each rung runs briefly; the highest rung whose p99
/// meets [`P99_LIMIT_MS`] without a growing backlog wins.
const LADDER: [f64; 4] = [250.0, 500.0, 1000.0, 4000.0];
/// The p99 latency limit of a ladder rung.
const P99_LIMIT_MS: f64 = 50.0;
/// A rung's backlog is growing when the median lateness of its last quarter
/// exceeds that of its first quarter by more than this.
const BACKLOG_MS: f64 = 5.0;
/// Share of `--seconds` spent in the main window, and in each ladder rung.
const MAIN_SHARE: f64 = 0.7;
const RUNG_SHARE: f64 = 0.075;
/// Requests of the traced run's sequential reconciliation sample.
const TRACE_SAMPLE: usize = 1500;

/// A registry kernel requested by name.
struct GetTemplate {
    path: String,
    bound: String,
    vertices: u64,
}

/// A registry program POSTed as Python source under loop-variable renamings.
struct PostTemplate {
    path: String,
    variants: Vec<Vec<u8>>,
    bound: String,
    vertices: u64,
}

/// One request of a schedule.
#[derive(Clone, Copy)]
enum Kind {
    Get(usize),
    Post(usize, usize),
    Fresh(usize),
}

#[derive(Clone, Copy)]
struct Req {
    due: Duration,
    kind: Kind,
}

/// What the client saw for one request.
struct Rec {
    lag_ms: f64,
    latency_ms: f64,
    status: u16,
    body: Vec<u8>,
}

struct Corpus {
    gets: Vec<GetTemplate>,
    posts: Vec<PostTemplate>,
    /// Fresh program sources, each used by exactly one request.
    fresh: Vec<String>,
    seen: HashSet<u64>,
    /// The fresh programs' own generator.  It does not follow `--seed`:
    /// every run sends the same sequence of fresh programs (the seed picks
    /// which requests carry them), because the cost of a few hundred
    /// generated programs varies by ±15% at their 95th percentile from one
    /// draw to the next, and p99 sits there.
    fresh_rng: Rng,
}

/// Seed of [`Corpus::fresh_rng`].
const FRESH_SEED: u64 = 0x0f4e_5a11;

impl Corpus {
    fn build() -> Result<Corpus, String> {
        let reference = SolveCache::new();
        let mut seen = HashSet::new();
        let mut gets = Vec::new();
        let mut posts = Vec::new();
        for entry in soap_kernels::registry() {
            let opts = SdgOptions {
                assume_injective: entry.assume_injective,
                ..SdgOptions::default()
            };
            let analysis = analyze_program_with_cache(&entry.program, &opts, &reference)
                .map_err(|e| format!("analysis of {}: {e}", entry.name))?;
            seen.insert(canonical_program_hash(&entry.program));
            gets.push(GetTemplate {
                path: format!("/analyze?kernel={}", entry.name),
                bound: analysis.bound_string(),
                vertices: Sdg::from_program(&entry.program).num_vertices() as u64,
            });
            // Three renamings of the loop variables: one canonical structure.
            let variants: Vec<String> = (0..3)
                .map(|v| to_python(&entry.program, &|name| format!("{}{name}", "z".repeat(v))))
                .collect();
            let parsed: Vec<_> = variants
                .iter()
                .map(|src| soap_frontend::parse_python(entry.name, src))
                .collect();
            let Ok(program) = parsed[0].clone() else {
                continue;
            };
            let hash = canonical_program_hash(&program);
            if parsed.iter().any(|p| {
                p.as_ref()
                    .map_or(true, |p| canonical_program_hash(p) != hash)
            }) {
                continue;
            }
            let Ok(analysis) = analyze_program_with_cache(&program, &opts, &reference) else {
                continue;
            };
            seen.insert(hash);
            posts.push(PostTemplate {
                path: format!(
                    "/analyze?lang=python&name={}{}",
                    entry.name,
                    if entry.assume_injective {
                        "&injective=1"
                    } else {
                        ""
                    }
                ),
                variants: variants.into_iter().map(String::into_bytes).collect(),
                bound: analysis.bound_string(),
                vertices: Sdg::from_program(&program).num_vertices() as u64,
            });
        }
        Ok(Corpus {
            gets,
            posts,
            fresh: Vec::new(),
            seen,
            fresh_rng: Rng::new(FRESH_SEED),
        })
    }

    /// A new program, structurally distinct from everything seen so far.
    fn fresh_program(&mut self) -> usize {
        loop {
            let source = corpus::fresh_program(&mut self.fresh_rng);
            let Ok(program) = soap_frontend::parse_python("fresh", &source) else {
                continue;
            };
            if self.seen.insert(canonical_program_hash(&program)) {
                self.fresh.push(source);
                return self.fresh.len() - 1;
            }
        }
    }

    /// A seeded open-loop schedule: requests every `1 / rate` seconds for
    /// `window` seconds, their kinds drawn from the mix.
    fn schedule(&mut self, rng: &mut Rng, rate: f64, window: f64) -> Vec<Req> {
        let mut reqs = Vec::new();
        for i in 1.. {
            let t = i as f64 / rate;
            if t >= window {
                break;
            }
            let kind = if rng.chance(FRESH_SHARE) {
                Kind::Fresh(self.fresh_program())
            } else if rng.chance(0.5) {
                Kind::Get(rng.below(self.gets.len()))
            } else {
                Kind::Post(rng.below(self.posts.len()), rng.below(3))
            };
            reqs.push(Req {
                due: Duration::from_secs_f64(t),
                kind,
            });
        }
        reqs
    }

    fn send(&self, client: &mut httpd::Client, kind: Kind) -> std::io::Result<httpd::Response> {
        match kind {
            Kind::Get(i) => client.get(&self.gets[i].path),
            Kind::Post(i, v) => {
                let p = &self.posts[i];
                client.post(&p.path, "text/x-python", &p.variants[v])
            }
            Kind::Fresh(i) => client.post(
                &format!("/analyze?lang=python&name=fresh{i}"),
                "text/x-python",
                self.fresh[i].as_bytes(),
            ),
        }
    }
}

/// Drive `reqs` open-loop from `connections` client threads, each with its
/// own keep-alive connection; whichever connection is free takes the next
/// request, no earlier than its due time.
fn drive(corpus: &Corpus, addr: SocketAddr, reqs: &[Req], connections: usize) -> Vec<Rec> {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let mut recs: Vec<(usize, Rec)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    let Ok(mut client) = httpd::Client::connect(addr) else {
                        return done;
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = reqs.get(i) else {
                            return done;
                        };
                        let due = start + req.due;
                        // Wait by yielding, not sleeping: a sleeping
                        // generator lets the virtual CPUs halt, and waking a
                        // halted one through the hypervisor costs more than
                        // the memo path being measured.
                        while Instant::now() < due {
                            std::thread::yield_now();
                        }
                        let sent = Instant::now();
                        let (status, body) = match corpus.send(&mut client, req.kind) {
                            Ok(resp) => (resp.status, resp.body),
                            Err(_) => (0, Vec::new()),
                        };
                        let finished = Instant::now();
                        done.push((
                            i,
                            Rec {
                                lag_ms: ms(sent.saturating_duration_since(due)),
                                latency_ms: ms(finished.saturating_duration_since(due)),
                                status,
                                body,
                            },
                        ));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load generator thread panicked"))
            .collect()
    });
    recs.sort_by_key(|(i, _)| *i);
    recs.into_iter().map(|(_, r)| r).collect()
}

/// Checks response bodies against in-process analyses.
struct Checker {
    reference: SolveCache,
}

impl Checker {
    /// The expected bound and SDG vertex count of a request's program.
    fn expected(&self, corpus: &Corpus, kind: Kind) -> (Option<String>, u64) {
        match kind {
            Kind::Get(i) => (Some(corpus.gets[i].bound.clone()), corpus.gets[i].vertices),
            Kind::Post(i, _) => (
                Some(corpus.posts[i].bound.clone()),
                corpus.posts[i].vertices,
            ),
            Kind::Fresh(i) => match soap_frontend::parse_python("fresh", &corpus.fresh[i]) {
                Ok(program) => {
                    let vertices = Sdg::from_program(&program).num_vertices() as u64;
                    let bound = analyze_program_with_cache(
                        &program,
                        &SdgOptions::default(),
                        &self.reference,
                    )
                    .ok()
                    .map(|a| a.bound_string());
                    (bound, vertices)
                }
                Err(_) => (None, 0),
            },
        }
    }

    /// Account every request; returns Σ SDG vertices of the correct ones.
    fn check(&self, out: &mut Outcome, corpus: &Corpus, reqs: &[Req], recs: &[Rec]) -> u64 {
        let mut vertices = 0;
        for (req, rec) in reqs.iter().zip(recs) {
            let (expected, v) = self.expected(corpus, req.kind);
            let body_bound = std::str::from_utf8(&rec.body)
                .ok()
                .and_then(|b| serde_json::from_str::<Value>(b).ok())
                .and_then(|v| v.get("bound").and_then(Value::as_str).map(str::to_string));
            let ok = rec.status == 200 && expected.is_some() && body_bound == expected;
            out.op(ok);
            if ok {
                vertices += v;
            }
        }
        // Requests no connection could send.
        for _ in recs.len()..reqs.len() {
            out.op(false);
        }
        vertices
    }
}

fn config(ctx: &Ctx) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        http_threads: ctx.nproc,
        ..ServeConfig::default()
    }
}

/// Send every registry GET and every POST renaming once, so the memo holds
/// the whole non-fresh mix before anything is timed.
fn warm_up(corpus: &Corpus, addr: SocketAddr) -> Result<(), String> {
    let mut client = httpd::Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let kinds = (0..corpus.gets.len())
        .map(Kind::Get)
        .chain((0..corpus.posts.len()).flat_map(|i| (0..3).map(move |v| Kind::Post(i, v))));
    for kind in kinds {
        let resp = corpus
            .send(&mut client, kind)
            .map_err(|e| format!("warm-up request: {e}"))?;
        if resp.status != 200 {
            return Err(format!("warm-up request answered {}", resp.status));
        }
    }
    Ok(())
}

/// The server's `/stats` counters.
fn stats(addr: SocketAddr) -> Result<Value, String> {
    let mut client = httpd::Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let resp = client.get("/stats").map_err(|e| format!("/stats: {e}"))?;
    let body = resp.body_utf8().ok_or("/stats body is not UTF-8")?;
    serde_json::from_str(body).map_err(|e| format!("/stats: {e:?}"))
}

fn counter(stats: &Value, key: &str) -> f64 {
    stats.get(key).and_then(Value::as_i128).unwrap_or(0) as f64
}

struct Setup {
    corpus: Corpus,
    server: RunningServer,
    main: Vec<Req>,
    rungs: Vec<Vec<Req>>,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let mut rng = Rng::new(ctx.seed);
    let mut corpus = Corpus::build()?;
    let main = corpus.schedule(&mut rng, RATE, ctx.seconds * MAIN_SHARE);
    let rungs = LADDER
        .iter()
        .map(|&rate| corpus.schedule(&mut rng, rate, ctx.seconds * RUNG_SHARE))
        .collect();
    let server = RunningServer::start(config(ctx)).map_err(|e| format!("start server: {e}"))?;
    warm_up(&corpus, server.addr())?;
    Ok(Setup {
        corpus,
        server,
        main,
        rungs,
    })
}

/// Length of the windows of due times that `op_ms.*` is taken over (see
/// [`set_windowed_latency`]).
const WINDOW_S: f64 = 2.0;

/// The open loop's latencies grouped by [`WINDOW_S`] windows of due times.
fn latency_windows(reqs: &[Req], recs: &[Rec]) -> Vec<Vec<f64>> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for (req, rec) in reqs.iter().zip(recs) {
        let w = (req.due.as_secs_f64() / WINDOW_S) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(rec.latency_ms);
    }
    windows.retain(|w| !w.is_empty());
    windows
}

/// The wall clock of a driven schedule: first due time to last completion.
fn window_s(reqs: &[Req], recs: &[Rec]) -> f64 {
    reqs.iter()
        .zip(recs)
        .map(|(req, rec)| req.due.as_secs_f64() + rec.latency_ms / 1e3)
        .fold(0.0, f64::max)
}

/// Whether a driven rung kept up: p99 within the limit, no growing backlog.
fn rung_passes(recs: &[Rec]) -> bool {
    let lat: Vec<f64> = recs.iter().map(|r| r.latency_ms).collect();
    let quarter = recs.len() / 4;
    if quarter == 0 {
        return false;
    }
    let lag = |rs: &[Rec]| median(&rs.iter().map(|r| r.lag_ms).collect::<Vec<_>>());
    let growing = lag(&recs[recs.len() - quarter..]) - lag(&recs[..quarter]) > BACKLOG_MS;
    quantile(&lat, 0.99) <= P99_LIMIT_MS && !growing
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let s = repeated_setup(&mut out, || setup(ctx))?;
    let addr = s.server.addr();
    let checker = Checker {
        reference: SolveCache::new(),
    };

    let recs = drive(&s.corpus, addr, &s.main, ctx.nproc);
    let window = window_s(&s.main, &recs);
    let vertices = checker.check(&mut out, &s.corpus, &s.main, &recs);
    let latency: Vec<f64> = recs.iter().map(|r| r.latency_ms).collect();
    set_windowed_latency(&mut out, &latency_windows(&s.main, &recs));
    out.note(
        "op_ms.whole_window",
        format!(
            "{{\"p50\":{},\"p90\":{},\"p99\":{}}}",
            quantile(&latency, 0.5),
            quantile(&latency, 0.9),
            quantile(&latency, 0.99)
        ),
    );
    let of = |fresh: bool| -> Vec<f64> {
        s.main
            .iter()
            .zip(&recs)
            .filter(|(req, _)| matches!(req.kind, Kind::Fresh(_)) == fresh)
            .map(|(_, rec)| rec.latency_ms)
            .collect()
    };
    for (label, sample) in [("fresh", of(true)), ("memo", of(false))] {
        out.note(
            &format!("op_ms.{label}"),
            format!(
                "{{\"p50\":{},\"p99\":{},\"samples\":{}}}",
                quantile(&sample, 0.5),
                quantile(&sample, 0.99),
                sample.len()
            ),
        );
    }
    out.note(
        "lag_ms.p99",
        quantile(&recs.iter().map(|r| r.lag_ms).collect::<Vec<_>>(), 0.99),
    );
    out.set("programs_per_s", recs.len() as f64 / window);
    out.set("vertices_per_s", vertices as f64 / window);

    let mut max_rps = 0.0;
    for (rate, reqs) in LADDER.iter().zip(&s.rungs) {
        let recs = drive(&s.corpus, addr, reqs, ctx.nproc);
        checker.check(&mut out, &s.corpus, reqs, &recs);
        let passed = rung_passes(&recs);
        out.note(
            &format!("ladder.{rate}"),
            format!(
                "{{\"p99_ms\":{},\"passed\":{passed},\"requests\":{}}}",
                quantile(&recs.iter().map(|r| r.latency_ms).collect::<Vec<_>>(), 0.99),
                recs.len()
            ),
        );
        if !passed {
            break;
        }
        max_rps = recs.len() as f64 / window_s(reqs, &recs);
    }
    out.set("max_rps", max_rps);
    out.note("rate_rps", RATE);
    out.note("fresh_share", FRESH_SHARE);
    out.note("connections", ctx.nproc);
    out.note("p99_limit_ms", P99_LIMIT_MS);
    s.server.stop().map_err(|e| format!("stop server: {e}"))?;
    Ok(out)
}

pub fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let s = setup(ctx)?;
    let addr = s.server.addr();
    let checker = Checker {
        reference: SolveCache::new(),
    };

    // The open loop, for the load generator's and the service's own view.
    let before = stats(addr)?;
    let recs = drive(&s.corpus, addr, &s.main, ctx.nproc);
    let after = stats(addr)?;
    checker.check(&mut out, &s.corpus, &s.main, &recs);
    let delta = |key: &str| counter(&after, key) - counter(&before, key);
    let requests = delta("analyze_requests");
    out.set(
        "load.generator_lag_ms.p99",
        quantile(&recs.iter().map(|r| r.lag_ms).collect::<Vec<_>>(), 0.99),
    );
    out.set(
        "load.fresh_analysis_share",
        ratio(delta("analyses"), requests),
    );
    out.set(
        "serve.memo_hit_ratio",
        ratio(delta("response_cache_hits"), requests),
    );
    out.set("serve.analyses", delta("analyses"));
    out.set("serve.coalesced", delta("coalesced"));
    out.set("serve.rejected", delta("rejected"));
    s.server.stop().map_err(|e| format!("stop server: {e}"))?;

    reconcile(ctx, &mut out, &checker)?;
    Ok(out)
}

/// The sequential reconciliation sample: the same requests through the
/// product server (untraced) and through a benchmark-mounted server whose
/// handler times `AnalysisService::handle`, plus the frontend, hash and
/// analysis stages of each request replayed in-process.
fn reconcile(ctx: &Ctx, out: &mut Outcome, checker: &Checker) -> Result<(), String> {
    let mut rng = Rng::new(ctx.seed ^ 0x7261_6365);
    let mut corpus = Corpus::build()?;
    let mut sample = Vec::with_capacity(TRACE_SAMPLE);
    while sample.len() < TRACE_SAMPLE {
        sample.extend(corpus.schedule(&mut rng, 1.0, TRACE_SAMPLE as f64));
    }
    sample.truncate(TRACE_SAMPLE);
    let n = sample.len() as f64;
    let sequential = |addr: SocketAddr| -> Result<Vec<(f64, u16, Vec<u8>)>, String> {
        let mut client = httpd::Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        sample
            .iter()
            .map(|req| {
                let start = Instant::now();
                let resp = corpus
                    .send(&mut client, req.kind)
                    .map_err(|e| format!("request: {e}"))?;
                Ok((ms(start.elapsed()), resp.status, resp.body))
            })
            .collect()
    };
    let account = |out: &mut Outcome, results: &[(f64, u16, Vec<u8>)]| {
        let recs: Vec<Rec> = results
            .iter()
            .map(|(rtt, status, body)| Rec {
                lag_ms: 0.0,
                latency_ms: *rtt,
                status: *status,
                body: body.clone(),
            })
            .collect();
        checker.check(out, &corpus, &sample, &recs);
    };

    // Untraced: the product server, on one worker.
    let budget = soap_sdg::set_worker_budget(1);
    let server = RunningServer::start(config(ctx)).map_err(|e| format!("start server: {e}"))?;
    warm_up(&corpus, server.addr())?;
    let counters_before = soap_symbolic::solver_counters();
    let untraced = sequential(server.addr())?;
    layers::set_solver_metrics(out, &counters_before, &soap_symbolic::solver_counters(), n);
    server.stop().map_err(|e| format!("stop server: {e}"))?;
    account(out, &untraced);

    // Traced: the same service mounted by the benchmark, `handle` timed.
    let service = Arc::new(AnalysisService::new(config(ctx)).map_err(|e| e.to_string())?);
    let handle_ms: Arc<Mutex<Vec<f64>>> = Arc::default();
    let handler = {
        let service = Arc::clone(&service);
        let handle_ms = Arc::clone(&handle_ms);
        Arc::new(move |req: &httpd::Request| {
            let start = Instant::now();
            let resp = service.handle(req);
            let elapsed = ms(start.elapsed());
            if req.path == "/analyze" {
                handle_ms.lock().expect("span log").push(elapsed);
            }
            resp
        })
    };
    let http = httpd::Server::serve("127.0.0.1:0", ctx.nproc, handler)
        .map_err(|e| format!("start server: {e}"))?;
    warm_up(&corpus, http.local_addr())?;
    handle_ms.lock().expect("span log").clear();
    let traced = sequential(http.local_addr())?;
    http.stop();
    account(out, &traced);
    let handles = std::mem::take(&mut *handle_ms.lock().expect("span log"));

    // Off-path: each request's frontend, hash and analysis stages, against
    // a mirror cache that has analysed what the server analysed.
    let mut t = Tracer::default();
    let mirror = SolveCache::new();
    for entry in soap_kernels::registry() {
        let opts = SdgOptions {
            assume_injective: entry.assume_injective,
            ..SdgOptions::default()
        };
        let _ = analyze_program_with_cache(&entry.program, &opts, &mirror);
    }
    for p in &corpus.posts {
        if let Ok(program) =
            soap_frontend::parse_python("warm", &String::from_utf8_lossy(&p.variants[0]))
        {
            let _ = analyze_program_with_cache(&program, &SdgOptions::default(), &mirror);
        }
    }
    let registry = soap_kernels::registry();
    let mut counts = ReplayCounts::default();
    let mut parsed_bytes = 0usize;
    for req in &sample {
        let program = match req.kind {
            Kind::Get(i) => registry[i].program.clone(),
            Kind::Post(i, v) => {
                let src = String::from_utf8_lossy(&corpus.posts[i].variants[v]).into_owned();
                parsed_bytes += src.len();
                t.span("frontend.parse", || {
                    soap_frontend::parse_python("post", &src)
                })
                .map_err(|e| format!("parse: {e}"))?
            }
            Kind::Fresh(i) => {
                let src = &corpus.fresh[i];
                parsed_bytes += src.len();
                t.span("frontend.parse", || {
                    soap_frontend::parse_python("fresh", src)
                })
                .map_err(|e| format!("parse: {e}"))?
            }
        };
        t.span("service.program_hash", || canonical_program_hash(&program));
        if let Kind::Fresh(_) = req.kind {
            counts.add(&layers::replay_analysis(
                &program,
                &SdgOptions::default(),
                &mirror,
                &mut t,
            ));
        }
    }
    soap_sdg::set_worker_budget(budget);

    let rtt: f64 = traced.iter().map(|r| r.0).sum();
    let handle: f64 = handles.iter().sum();
    let transport = rtt - handle;
    layers::set_analysis_metrics(out, &t, &counts, n);
    layers::set_cache_metrics(out, &counts.cache, n);
    out.set(
        "service.program_hash_us",
        t.mean_ms("service.program_hash") * 1e3,
    );
    out.set("frontend.parse_us", t.mean_ms("frontend.parse") * 1e3);
    out.set(
        "frontend.bytes_per_s",
        ratio(parsed_bytes as f64, t.total_ms("frontend.parse") / 1e3),
    );
    out.set("serve.handle_us", ratio(handle, handles.len() as f64) * 1e3);
    out.set(
        "httpd.roundtrip_overhead_us",
        ratio(transport, handles.len() as f64) * 1e3,
    );
    let untraced_ms: f64 = untraced.iter().map(|r| r.0).sum();
    let top = transport
        + t.sum_ms(&["frontend.parse", "service.program_hash"])
        + t.sum_ms(&ANALYSIS_STAGES);
    out.set(
        "trace.unattributed_share",
        ratio(untraced_ms - top, untraced_ms),
    );
    out.set(
        "trace.overhead_share",
        ratio(rtt - untraced_ms, untraced_ms),
    );
    layers::note_trace_sample(out, sample.len(), untraced_ms, rtt, top);
    out.note("samples.handle", handles.len());
    Ok(())
}
