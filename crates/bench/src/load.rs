//! Load harness for the `soap-serve` analysis daemon.
//!
//! Drives a mixed workload — registry-kernel `GET`s plus `POST`ed source
//! programs that are loop-variable renamings of each other — against one
//! server over real keep-alive TCP connections, and reports client-side
//! latency percentiles and throughput together with the server's own
//! `/stats` accounting (dedup ratio, coalescing, solve-cache hits).
//!
//! The workload is deterministic by construction: worker `w`'s `n`-th
//! request is a pure function of `(w, n)`, so two runs of the same
//! configuration exercise the same request mix.  The renamed-source variants
//! are the point of the mix: they hash to the same canonical key, so a
//! healthy server answers all but the first from the response memo — the
//! measured steady state is the dedup path the daemon exists for.
//!
//! Used by the `loadgen` binary (standalone runs and the CI serve smoke
//! test).

use serde_json::Value;
use soap_serve::{RunningServer, ServeConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Registry kernels cycled by the `GET /analyze?kernel=` share of the mix —
/// the cheap Polybench end of Table 2, so warm-up stays fast while still
/// exercising many distinct memo entries.
const KERNEL_MIX: &[&str] = &[
    "atax",
    "bicg",
    "gemm",
    "gemver",
    "gesummv",
    "mvt",
    "2mm",
    "3mm",
    "jacobi-1d",
    "jacobi-2d",
    "trmm",
    "syrk",
];

/// Distinct program structures in the POSTed-source share of the mix (array
/// names differ, so each is a separate canonical key)…
const STRUCTURES: usize = 6;
/// …and loop-variable renamings of each (hash-identical, so every variant
/// beyond the first is a guaranteed dedup hit).
const VARIANTS: usize = 3;

/// One configured load run.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Target server address; `None` starts an in-process [`RunningServer`]
    /// on an ephemeral port (still exercised over real TCP).
    pub addr: Option<String>,
    /// Length of the timed window (after warm-up).
    pub duration: Duration,
    /// Concurrent client connections, one OS thread each.
    pub connections: usize,
    /// Untimed requests per connection before the clock starts, so the timed
    /// window measures the dedup steady state rather than first-solve cost.
    pub warmup_requests: usize,
    /// Store directory for the in-process server (ignored with `addr`).
    pub cache_dir: Option<String>,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            addr: None,
            duration: Duration::from_millis(2000),
            connections: 8,
            warmup_requests: 96,
            cache_dir: None,
        }
    }
}

/// What one load run measured: client-side latency/throughput plus the
/// server-side counter deltas over the timed window.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Timed requests completed (excludes warm-up).
    pub requests: u64,
    /// Wall clock of the timed window in milliseconds.
    pub elapsed_ms: f64,
    /// `requests / elapsed`, in requests per second.
    pub throughput_rps: f64,
    /// Median request latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency in milliseconds.
    pub p99_ms: f64,
    /// Slowest single request in milliseconds.
    pub max_ms: f64,
    /// Responses by status class (client-side counts; `status_429` is the
    /// backpressure slice of `status_4xx`).
    pub status_2xx: u64,
    /// 4xx responses (includes 429).
    pub status_4xx: u64,
    /// 429 responses (queue-full backpressure).
    pub status_429: u64,
    /// 5xx responses — zero on a healthy server.
    pub status_5xx: u64,
    /// Server-side over the whole run: deduplicated `/analyze` requests
    /// (memo hits + coalesced followers) divided by `/analyze` requests.
    pub dedup_ratio: f64,
    /// Server-side delta: `/analyze` requests observed.
    pub analyze_requests: u64,
    /// Server-side delta: analyses actually executed.
    pub analyses: u64,
    /// Server-side delta: responses answered from the memo.
    pub response_cache_hits: u64,
    /// Server-side delta: followers that coalesced onto an in-flight leader.
    pub coalesced: u64,
    /// Cumulative solve-cache disk-store hits (nonzero when the server was
    /// started over a pre-populated `--cache-dir`).
    pub store_hits: u64,
    /// Cumulative finished-report replays (nonzero when the server was
    /// started over a `--cache-dir` holding report records: whole analyses
    /// answered without running the pipeline at all).
    pub report_hits: u64,
    /// Largest `Retry-After` value observed on a 429, in seconds (0 when no
    /// request was rejected).  Under saturation this grows with the queue
    /// depth the server observed at rejection.
    pub retry_after_max_secs: u64,
    /// The server's final `/stats` snapshot, verbatim.
    pub stats: Value,
}

impl LoadReport {
    /// The report as a JSON object (written by `loadgen --out`).
    pub fn to_value(&self) -> Value {
        let int = |n: u64| Value::Int(n as i128);
        Value::Object(vec![
            ("requests".to_string(), int(self.requests)),
            ("elapsed_ms".to_string(), Value::Float(self.elapsed_ms)),
            (
                "throughput_rps".to_string(),
                Value::Float(self.throughput_rps),
            ),
            ("p50_ms".to_string(), Value::Float(self.p50_ms)),
            ("p99_ms".to_string(), Value::Float(self.p99_ms)),
            ("max_ms".to_string(), Value::Float(self.max_ms)),
            ("status_2xx".to_string(), int(self.status_2xx)),
            ("status_4xx".to_string(), int(self.status_4xx)),
            ("status_429".to_string(), int(self.status_429)),
            ("status_5xx".to_string(), int(self.status_5xx)),
            ("dedup_ratio".to_string(), Value::Float(self.dedup_ratio)),
            ("analyze_requests".to_string(), int(self.analyze_requests)),
            ("analyses".to_string(), int(self.analyses)),
            (
                "response_cache_hits".to_string(),
                int(self.response_cache_hits),
            ),
            ("coalesced".to_string(), int(self.coalesced)),
            ("store_hits".to_string(), int(self.store_hits)),
            ("report_hits".to_string(), int(self.report_hits)),
            (
                "retry_after_max_secs".to_string(),
                int(self.retry_after_max_secs),
            ),
        ])
    }
}

/// Per-worker measurement accumulator.
#[derive(Default)]
struct WorkerTally {
    latencies_us: Vec<u64>,
    status_2xx: u64,
    status_4xx: u64,
    status_429: u64,
    status_5xx: u64,
    retry_after_max_secs: u64,
}

/// The POSTed-source corpus: `STRUCTURES` distinct matmul-shaped programs
/// (distinct array names), each in `VARIANTS` loop-variable renamings.
/// Variant `v` of structure `s` sits at index `s * VARIANTS + v`.
fn mutated_sources() -> Vec<String> {
    let prefixes = ["i", "u", "w"];
    let mut sources = Vec::with_capacity(STRUCTURES * VARIANTS);
    for s in 0..STRUCTURES {
        for prefix in prefixes.iter().take(VARIANTS) {
            let (a, b, c) = (
                format!("{prefix}0"),
                format!("{prefix}1"),
                format!("{prefix}2"),
            );
            sources.push(format!(
                "for {a} in range(0, N):\n    for {b} in range(0, N):\n        for {c} in range(0, N):\n            LC{s}[{a}][{b}] += LA{s}[{a}][{c}] * LB{s}[{c}][{b}]\n"
            ));
        }
    }
    sources
}

/// Issue worker `w`'s `seq`-th request: every third request is a registry
/// kernel `GET`, the rest POST renamed sources.  Returns the HTTP status and
/// the `Retry-After` advice (429 rejections only), in seconds.
fn issue(
    client: &mut httpd::Client,
    sources: &[String],
    worker: usize,
    seq: usize,
) -> std::io::Result<(u16, Option<u64>)> {
    let step = seq.wrapping_add(worker.wrapping_mul(7));
    let resp = if step.is_multiple_of(3) {
        let kernel = KERNEL_MIX[(step / 3) % KERNEL_MIX.len()];
        client.get(&format!("/analyze?kernel={kernel}"))?
    } else {
        let structure = step % STRUCTURES;
        let variant = (step / STRUCTURES) % VARIANTS;
        let body = &sources[structure * VARIANTS + variant];
        client.post(
            &format!("/analyze?lang=python&name=load{structure}"),
            "text/plain",
            body.as_bytes(),
        )?
    };
    let retry_after = resp
        .header("retry-after")
        .and_then(|h| h.parse::<u64>().ok());
    Ok((resp.status, retry_after))
}

fn fetch_stats(addr: &str) -> Result<Value, String> {
    let mut client =
        httpd::Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let resp = client
        .get("/stats")
        .map_err(|e| format!("GET /stats failed: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET /stats returned {}", resp.status));
    }
    let body = resp.body_utf8().ok_or("stats body is not UTF-8")?;
    serde_json::from_str(body).map_err(|e| format!("stats body is not JSON: {e:?}"))
}

fn counter(stats: &Value, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(|v| v.as_i128())
        .and_then(|n| u64::try_from(n).ok())
        .unwrap_or(0)
}

/// `p`-th percentile (0..=1) of an ascending `sorted` sample, in
/// milliseconds.
fn percentile_ms(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64 / 1e3
}

/// Run one configured load test.  Starts (and cleanly stops) an in-process
/// server unless `config.addr` points at an external one.
pub fn run_load(config: &LoadConfig) -> Result<LoadReport, String> {
    let (server, addr) = match &config.addr {
        Some(addr) => (None, addr.clone()),
        None => {
            let server = RunningServer::start(ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                cache_dir: config.cache_dir.clone(),
                ..ServeConfig::default()
            })
            .map_err(|e| format!("cannot start in-process server: {e}"))?;
            let addr = server.addr().to_string();
            (Some(server), addr)
        }
    };
    let connections = config.connections.max(1);
    let before = fetch_stats(&addr)?;

    let stop = Arc::new(AtomicBool::new(false));
    // All workers warm up before any worker's clock starts (+1: the main
    // thread owns the duration timer).
    let barrier = Arc::new(Barrier::new(connections + 1));
    let sources = Arc::new(mutated_sources());
    let workers: Vec<_> = (0..connections)
        .map(|worker| {
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            let sources = Arc::clone(&sources);
            let addr = addr.clone();
            let warmup = config.warmup_requests;
            std::thread::spawn(move || -> Result<WorkerTally, String> {
                let mut client = httpd::Client::connect(addr.as_str())
                    .map_err(|e| format!("worker {worker}: cannot connect: {e}"))?;
                for seq in 0..warmup {
                    issue(&mut client, &sources, worker, seq)
                        .map_err(|e| format!("worker {worker}: warm-up request failed: {e}"))?;
                }
                barrier.wait();
                let mut tally = WorkerTally::default();
                let mut seq = warmup;
                while !stop.load(Ordering::Relaxed) {
                    // lint:allow(instant-now): the load harness measures wall-clock latency by design; reporting-only
                    let t = Instant::now();
                    let (status, retry_after) = issue(&mut client, &sources, worker, seq)
                        .map_err(|e| format!("worker {worker}: request failed: {e}"))?;
                    tally.latencies_us.push(t.elapsed().as_micros() as u64);
                    match status {
                        200..=299 => tally.status_2xx += 1,
                        429 => {
                            tally.status_429 += 1;
                            tally.status_4xx += 1;
                            if let Some(secs) = retry_after {
                                tally.retry_after_max_secs = tally.retry_after_max_secs.max(secs);
                            }
                        }
                        400..=499 => tally.status_4xx += 1,
                        _ => tally.status_5xx += 1,
                    }
                    seq += 1;
                }
                Ok(tally)
            })
        })
        .collect();

    barrier.wait();
    // lint:allow(instant-now): the load harness measures wall-clock latency by design; reporting-only
    let window = Instant::now();
    std::thread::sleep(config.duration);
    stop.store(true, Ordering::Relaxed);
    let mut latencies: Vec<u64> = Vec::new();
    let mut tally = WorkerTally::default();
    for worker in workers {
        let t = worker.join().map_err(|_| "worker panicked".to_string())??;
        latencies.extend(&t.latencies_us);
        tally.status_2xx += t.status_2xx;
        tally.status_4xx += t.status_4xx;
        tally.status_429 += t.status_429;
        tally.status_5xx += t.status_5xx;
        tally.retry_after_max_secs = tally.retry_after_max_secs.max(t.retry_after_max_secs);
    }
    // Includes the tail until the last worker observed `stop`, so the
    // throughput denominator never undercounts the measured window.
    let elapsed = window.elapsed();
    latencies.sort_unstable();

    let after = fetch_stats(&addr)?;
    if let Some(server) = server {
        server
            .stop()
            .map_err(|e| format!("in-process server failed to stop cleanly: {e}"))?;
    }

    let delta = |key: &str| counter(&after, key).saturating_sub(counter(&before, key));
    let analyze_requests = delta("analyze_requests");
    let deduped = delta("response_cache_hits") + delta("coalesced");
    let requests = latencies.len() as u64;
    let elapsed_ms = elapsed.as_secs_f64() * 1e3;
    Ok(LoadReport {
        requests,
        elapsed_ms,
        throughput_rps: requests as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_ms: percentile_ms(&latencies, 0.50),
        p99_ms: percentile_ms(&latencies, 0.99),
        max_ms: latencies.last().copied().unwrap_or(0) as f64 / 1e3,
        status_2xx: tally.status_2xx,
        status_4xx: tally.status_4xx,
        status_429: tally.status_429,
        status_5xx: tally.status_5xx,
        dedup_ratio: deduped as f64 / (analyze_requests as f64).max(1.0),
        analyze_requests,
        analyses: delta("analyses"),
        response_cache_hits: delta("response_cache_hits"),
        coalesced: delta("coalesced"),
        store_hits: after
            .get("solve_cache")
            .map(|c| counter(c, "store_hits"))
            .unwrap_or(0),
        report_hits: after
            .get("solve_cache")
            .map(|c| counter(c, "report_hits"))
            .unwrap_or(0),
        retry_after_max_secs: tally.retry_after_max_secs,
        stats: after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renamed_variants_exist_and_registry_mix_resolves() {
        let sources = mutated_sources();
        assert_eq!(sources.len(), STRUCTURES * VARIANTS);
        for name in KERNEL_MIX {
            assert!(
                soap_kernels::by_name(name).is_some(),
                "kernel {name} missing from the registry"
            );
        }
    }

    #[test]
    fn saturated_server_scales_retry_after_with_queue_depth() {
        // One slot, two queue seats: any rejection necessarily observes both
        // seats taken (the gate only rejects at running + queued == 3), so
        // every 429 must advertise base × (1 + 2) = 3 seconds — grown from
        // the empty-queue base of 1.
        let server = RunningServer::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            analysis_slots: 1,
            queue_capacity: 2,
            http_threads: 16,
            ..ServeConfig::default()
        })
        .expect("server starts");
        let addr = server.addr().to_string();
        let observed = Arc::new(std::sync::Mutex::new(Vec::<u64>::new()));
        let threads: Vec<_> = (0..8)
            .map(|w| {
                let addr = addr.clone();
                let observed = Arc::clone(&observed);
                std::thread::spawn(move || {
                    let mut client =
                        httpd::Client::connect(addr.as_str()).expect("worker connects");
                    // Every request is a structurally fresh program (array
                    // names embed worker and sequence), so nothing is memoized
                    // or coalesced — each one needs the single analysis slot.
                    for n in 0..40 {
                        let src = format!(
                            "for i in range(0, N):\n    for j in range(0, N):\n        C{w}x{n}[i][j] += A{w}x{n}[i][j] * B{w}x{n}[j][i]\n"
                        );
                        let resp = client
                            .post(
                                &format!("/analyze?lang=python&name=sat{w}_{n}"),
                                "text/plain",
                                src.as_bytes(),
                            )
                            .expect("post succeeds");
                        if resp.status == 429 {
                            let secs = resp
                                .header("retry-after")
                                .and_then(|h| h.parse::<u64>().ok())
                                .expect("429 carries a numeric Retry-After");
                            observed.lock().unwrap().push(secs);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker thread");
        }
        server.stop().expect("clean stop");
        let observed = observed.lock().unwrap();
        assert!(
            !observed.is_empty(),
            "8 workers of fresh programs against one slot must overflow the queue"
        );
        assert!(
            observed.iter().all(|&secs| secs == 3),
            "rejections at full queue advertise the scaled back-off: {observed:?}"
        );
    }

    #[test]
    fn short_in_process_run_is_clean_and_deduplicated() {
        let report = run_load(&LoadConfig {
            duration: Duration::from_millis(250),
            connections: 4,
            warmup_requests: 24,
            ..LoadConfig::default()
        })
        .expect("load run succeeds");
        assert!(report.requests > 0, "{report:?}");
        assert_eq!(report.status_5xx, 0, "{report:?}");
        assert_eq!(report.status_4xx, 0, "{report:?}");
        assert!(
            report.dedup_ratio > 0.5,
            "steady state should be memo-served: {report:?}"
        );
        assert!(report.p99_ms >= report.p50_ms);
    }
}
