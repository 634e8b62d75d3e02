//! Registry-wide golden-bound regression net.
//!
//! Analyzes **every** kernel in `soap_kernels::registry()` with the Table-2
//! options and snapshots, per kernel: the symbolic bound, its numeric value
//! at the fixed reference bindings, and each array's σ and ρ.  The snapshot
//! is compared line-by-line against the committed golden file, so any future
//! refactor that bends a Table-2 row — a coefficient drifting, a σ snapping
//! differently, an array dropping out of the bound — fails here with a
//! readable diff instead of slipping through the tolerance-based checks.
//!
//! **Update path** (after an *intentional* change to bound values):
//!
//! ```text
//! SOAP_UPDATE_GOLDEN=1 cargo test --test registry_golden_bounds
//! git diff tests/golden/registry_bounds.txt   # review every changed line!
//! ```

use soap_bench::{analyze_kernel, reference_bindings};
use std::fmt::Write as _;

mod common;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/registry_bounds.txt"
);

/// Render the current registry snapshot.  Numeric values are formatted to 9
/// significant digits: far tighter than any honest tolerance, loose enough
/// not to flake on libm differences across hosts.
fn snapshot() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Golden per-kernel bounds at the Table-2 reference bindings \
         (size params = 256, S = 1024; see soap_bench::reference_bindings)."
    );
    let _ = writeln!(
        out,
        "# Regenerate with: SOAP_UPDATE_GOLDEN=1 cargo test --test registry_golden_bounds"
    );
    for entry in soap_kernels::registry() {
        let analysis = analyze_kernel(&entry);
        let bindings = reference_bindings(&entry);
        let q = analysis.bound.eval(&bindings).unwrap_or(f64::NAN);
        let _ = writeln!(out, "kernel {}", entry.name);
        let _ = writeln!(out, "  bound {}", analysis.bound);
        let _ = writeln!(out, "  Q(ref) {q:.8e}");
        for a in &analysis.per_array {
            let _ = writeln!(out, "  array {} sigma={} rho={}", a.array, a.sigma, a.rho);
        }
    }
    out
}

#[test]
fn registry_bounds_match_the_committed_golden_file() {
    common::check_golden(GOLDEN_PATH, &snapshot(), "registry_golden_bounds");
}

#[test]
fn golden_file_covers_every_registry_kernel() {
    // 100% coverage guard: a kernel added to the registry without a golden
    // entry (or renamed) must fail loudly.
    if std::env::var("SOAP_UPDATE_GOLDEN").is_ok() {
        // The sibling test is rewriting the file right now.
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file exists");
    for entry in soap_kernels::registry() {
        assert!(
            golden
                .lines()
                .any(|l| l == format!("kernel {}", entry.name)),
            "kernel {} missing from {GOLDEN_PATH} — regenerate the golden file",
            entry.name
        );
    }
}
