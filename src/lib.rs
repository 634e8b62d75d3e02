//! # soap — Automated I/O lower bounds for statically analyzable programs
//!
//! This is the umbrella crate of the `soap-rs` workspace, a reproduction of
//! *"Pebbles, Graphs, and a Pinch of Combinatorics: Towards Tight I/O Lower
//! Bounds for Statically Analyzable Programs"* (SPAA 2021).
//!
//! It re-exports the individual crates so examples and downstream users can
//! depend on a single crate:
//!
//! * [`symbolic`] — exact rational/symbolic math, the optimization solvers.
//! * [`ir`] — the SOAP intermediate representation (statements, accesses).
//! * [`frontend`] — parsers for a Python-like and a C-like loop-nest dialect.
//! * [`core`] — single-statement SOAP analysis (Lemmas 1–4, Eq. 9, tilings).
//! * [`sdg`] — the Symbolic Directed Graph and multi-statement bounds.
//! * [`pebbling`] — explicit CDAGs and the red-blue pebble game simulator.
//! * [`kernels`] — the 38 evaluated applications as SOAP programs.
//! * [`baselines`] — previously published bounds and a projection baseline.
//!
//! ## Quickstart
//!
//! ```
//! use soap::prelude::*;
//!
//! // Analyze matrix multiplication: C[i,j] += A[i,k] * B[k,j]
//! let program = soap::kernels::polybench::gemm();
//! let report = soap::sdg::analyze_program(&program).expect("analysis succeeds");
//! // The leading term of the bound is 2*N^3/sqrt(S) for square matrices.
//! println!("{}", report.bound);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use soap_baselines as baselines;
pub use soap_core as core;
pub use soap_frontend as frontend;
pub use soap_ir as ir;
pub use soap_kernels as kernels;
pub use soap_pebbling as pebbling;
pub use soap_sdg as sdg;
pub use soap_symbolic as symbolic;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use soap_core::{analyze_statement, AnalysisOptions, StatementAnalysis};
    pub use soap_ir::{
        ArrayAccess, IterationDomain, Program, ProgramBuilder, Statement, StatementBuilder,
    };
    pub use soap_sdg::{
        analyze_program, analyze_program_with_cache, ProgramAnalysis, SdgOptions, SolveCache,
    };
    pub use soap_symbolic::{Expr, Polynomial, Rational};
}
