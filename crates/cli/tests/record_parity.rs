//! The analysis record is one schema on two surfaces: for every registry
//! kernel, the `/analyze?kernel=K` body of a `soap-cli serve` daemon must
//! equal `soap-cli batch --all`'s line for K, byte for byte.  Both sides run
//! as real processes of the built binary (`CARGO_BIN_EXE_soap-cli`), so the
//! check covers rendering, HTTP framing and the serve memo's name splicing.
//!
//! The degraded case uses a deterministic fault plan (`cancel_at_subgraph`)
//! instead of a wall-clock budget: which subgraphs a 1 ms deadline cancels
//! varies from run to run, a plan-tripped cancellation does not.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

/// A spawned daemon, killed on drop so a failed assertion cannot leak it.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A `soap-cli` command with every `SOAP_*` variable of the test's own
/// environment removed, then `env` applied.
fn soap_cli(args: &[&str], env: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_soap-cli"));
    cmd.args(args);
    for (key, _) in std::env::vars() {
        if key.starts_with("SOAP_") {
            cmd.env_remove(key);
        }
    }
    cmd.envs(env.iter().copied());
    cmd
}

/// `soap-cli batch --all`'s per-program lines, keyed by program name.
fn batch_lines(env: &[(&str, &str)]) -> BTreeMap<String, String> {
    let output = soap_cli(&["batch", "--all"], env)
        .output()
        .expect("spawn soap-cli batch");
    assert!(output.status.success(), "batch failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8 stdout");
    stdout
        .lines()
        .filter(|line| !line.starts_with("{\"suite\""))
        .map(|line| {
            let record: serde_json::Value = serde_json::from_str(line).expect("json line");
            let name = record
                .get("program")
                .and_then(|p| p.as_str())
                .expect("program field")
                .to_string();
            (name, line.to_string())
        })
        .collect()
}

/// The `/analyze?kernel=K` body of a fresh `soap-cli serve` daemon for every
/// registry kernel, keyed by kernel name.
fn serve_bodies(env: &[(&str, &str)]) -> BTreeMap<String, String> {
    let mut daemon = Daemon(
        soap_cli(&["serve", "--addr", "127.0.0.1:0"], env)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn soap-cli serve"),
    );
    let mut banner = String::new();
    BufReader::new(daemon.0.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("read listen banner");
    let addr = banner
        .trim()
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();
    let mut client = httpd::Client::connect(addr.as_str()).expect("connect");
    let bodies = soap_kernels::registry()
        .into_iter()
        .map(|entry| {
            let resp = client
                .get(&format!("/analyze?kernel={}", entry.name))
                .expect("analyze request");
            assert_eq!(resp.status, 200, "{}: {:?}", entry.name, resp.body_utf8());
            let body = resp.body_utf8().expect("utf8 body").to_string();
            (entry.name.to_string(), body)
        })
        .collect();
    let stop = client
        .post("/shutdown", "text/plain", b"")
        .expect("shutdown");
    assert_eq!(stop.status, 200);
    assert!(daemon.0.wait().expect("serve exits").success());
    bodies
}

fn assert_same_records(env: &[(&str, &str)]) -> BTreeMap<String, String> {
    let batch = batch_lines(env);
    let served = serve_bodies(env);
    assert_eq!(batch.len(), soap_kernels::registry().len());
    for (name, line) in &batch {
        assert_eq!(
            served.get(name),
            Some(line),
            "{name}: /analyze body differs from the batch line"
        );
    }
    batch
}

#[test]
fn serve_body_equals_batch_line_for_every_kernel() {
    let lines = assert_same_records(&[]);
    assert!(lines.values().all(|l| !l.contains("\"degraded\"")));
}

#[test]
fn degraded_records_match_across_surfaces() {
    let lines = assert_same_records(&[("SOAP_FAULT_PLAN", "seed=42,cancel_at_subgraph=3")]);
    assert!(
        lines.values().any(|l| l.contains("\"degraded\":true")),
        "the fault plan degraded no kernel, so the degraded fields went unchecked"
    );
}
