//! Shared synthetic workloads used by the `perf` binary.
//!
//! `soap-sdg`'s own tests (`perf_smoke.rs`, `solver_differential.rs`) carry a
//! private copy of `chain_of_matmuls` in `crates/sdg/tests/common/fixtures.rs`
//! — depending on this crate from there would be a dependency cycle — so
//! changes here must be mirrored there.  The root-level
//! `tests/fixture_sync.rs` test compares the built `Program`s of both copies
//! and fails if they drift.

use soap_ir::{Program, ProgramBuilder};

/// A chain of `k` matrix-multiplication statements
/// (`T_{s+1}[i,j] += T_s[i,k]·W_{s+1}[k,j]`), the paper's SDG scaling
/// workload.
pub fn chain_of_matmuls(k: usize) -> Program {
    let mut b = ProgramBuilder::new(format!("chain{k}"));
    for s in 0..k {
        let src = if s == 0 {
            "A0".to_string()
        } else {
            format!("T{s}")
        };
        let dst = format!("T{}", s + 1);
        let w = format!("W{}", s + 1);
        b = b.statement(move |st| {
            st.loops(&[("i", "0", "N"), ("j", "0", "N"), ("k", "0", "N")])
                .update(&dst, "i,j")
                .read(&src, "i,k")
                .read(&w, "k,j")
        });
    }
    // lint:allow(unwrap-expect): builder inputs are static fixture tables; failure is an authoring bug caught by tier-1 tests
    b.build().expect("chain builds")
}

/// `k` independent writers of a shared read-only input — a dense SDG star.
pub fn dense_star(k: usize) -> Program {
    let mut b = ProgramBuilder::new(format!("dense{k}"));
    for s in 0..k {
        let dst = format!("D{s}");
        b = b.statement(move |st| st.loops(&[("i", "0", "N")]).write(&dst, "i").read("A", "i"));
    }
    // lint:allow(unwrap-expect): builder inputs are static fixture tables; failure is an authoring bug caught by tier-1 tests
    b.build().expect("dense builds")
}

/// A skewed SDG: a dense `hub`-statement cluster sharing one read-only input
/// (every pair of hub arrays is adjacent, so one seed component generates
/// almost all connected subsets) plus `tail` disjoint two-statement chains
/// contributing almost none.  The imbalance workload for the self-scheduled
/// enumeration: a static one-chunk-per-core split serializes behind the hub.
pub fn skewed_hub(hub: usize, tail: usize) -> Program {
    let mut b = ProgramBuilder::new(format!("skew{hub}x{tail}"));
    for s in 0..hub {
        let dst = format!("H{s}");
        b = b.statement(move |st| {
            st.loops(&[("i", "0", "N")])
                .write(&dst, "i")
                .read("HUB", "i")
        });
    }
    for s in 0..tail {
        let mid = format!("M{s}");
        let src = format!("X{s}");
        b = b.statement(move |st| {
            st.loops(&[("i", "0", "N")])
                .write(&mid, "i")
                .read(&src, "i")
        });
        let mid_in = format!("M{s}");
        let dst = format!("E{s}");
        b = b.statement(move |st| {
            st.loops(&[("i", "0", "N")])
                .write(&dst, "i")
                .read(&mid_in, "i")
        });
    }
    // lint:allow(unwrap-expect): builder inputs are static fixture tables; failure is an authoring bug caught by tier-1 tests
    b.build().expect("skewed hub builds")
}
