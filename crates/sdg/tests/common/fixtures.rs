//! Synthetic workloads shared by `soap-sdg`'s integration tests
//! (`perf_smoke.rs`, `solver_differential.rs`).

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
    b.build().expect("chain builds")
}
