//! Empirical validation of the analytic bounds: simulate red-blue pebblings
//! of small kernel instances and compare their I/O against the derived lower
//! bounds.
//!
//! ```text
//! cargo run --release -p soap-bench --bin validate_pebbling
//! ```
//!
//! Exits 1 when a schedule beats its bound or a case yields no report (an
//! unknown kernel, or a failed analysis or simulation): a case that cannot
//! run checks nothing, so it must not pass.

#![forbid(unsafe_code)]

use soap_bench::validation::{validate_kernel, CASES};

fn main() {
    println!("kernel        size   S     bound      naive    tiled    tiled/bound");
    println!("{}", "-".repeat(78));
    let mut violations = 0;
    let mut skipped = 0;
    for case in &CASES {
        match validate_kernel(case) {
            Some(report) => {
                let ok = report.naive_io as f64 >= report.lower_bound * 0.999
                    && report.tiled_io as f64 >= report.lower_bound * 0.999;
                if !ok {
                    violations += 1;
                }
                println!("{report}{}", if ok { "" } else { "   <-- VIOLATION" });
            }
            None => {
                skipped += 1;
                println!(
                    "{} size={} S={}: SKIPPED (analysis or simulation unavailable)",
                    case.kernel, case.size, case.s
                );
            }
        }
    }
    if violations > 0 || skipped > 0 {
        eprintln!("{violations} lower-bound violation(s), {skipped} case(s) that could not run");
        std::process::exit(1);
    }
    println!("\nAll simulated schedules respect the derived lower bounds.");
}
