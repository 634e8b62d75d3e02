//! # soap-bench
//!
//! The evaluation harness: everything needed to regenerate the paper's
//! Table 2 (per-kernel leading-order I/O lower bounds and improvement factors
//! over the previous state of the art) and the pebbling validation (simulated
//! schedules vs. analytic bounds).
//!
//! The library part contains the shared row-building code, the pebbling
//! [`validation`] cases and the serve [`load`] harness.  The binaries are
//! `table2` and `validate_pebbling` (human-readable tables plus JSON
//! records), `loadgen` (the serve smoke client), and `perf`, the live CI perf
//! gate that asserts timing relations within one fresh run.
#![forbid(unsafe_code)]

pub mod load;
pub mod validation;

use serde::Serialize;
use soap_baselines::{loomis_whitney_bound, sota_bound};
use soap_kernels::{registry, KernelEntry, KernelGroup};
use soap_sdg::{
    analyze_program_with_cache, analyze_suite_with, ProgramAnalysis, SdgOptions, SolveCache,
    SuiteProgram, SuiteSummary,
};
use std::collections::BTreeMap;

/// Reference problem size used for the numeric columns of the table.
pub const REFERENCE_SIZE: f64 = 256.0;
/// Reference fast-memory size (words) used for the numeric columns.
pub const REFERENCE_S: f64 = 1024.0;

/// One row of the reproduced Table 2.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Kernel name.
    pub kernel: String,
    /// Table-2 group ("polybench", "nn", "various").
    pub group: String,
    /// The leading-order bound derived by this repository.
    pub derived_bound: String,
    /// The bound reported in the paper.
    pub paper_bound: String,
    /// Derived bound evaluated at the reference sizes.
    pub derived_numeric: f64,
    /// Paper bound evaluated at the reference sizes.
    pub paper_numeric: f64,
    /// `derived / paper` at the reference sizes (1.0 = exact reproduction of
    /// the constant; < 1 means our bound is more conservative).
    pub ratio_to_paper: f64,
    /// The improvement factor over the previous state of the art, recomputed
    /// from our derived bound (`derived / prior`).
    pub derived_improvement: f64,
    /// The improvement factor reported in the paper.
    pub paper_improvement: f64,
    /// The executable Loomis–Whitney projection baseline at the reference
    /// sizes (the style of bound prior automated tools produce).
    pub projection_baseline_numeric: f64,
    /// Source of the prior bound.
    pub prior_source: String,
    /// Analysis wall-clock time in milliseconds.
    pub analysis_ms: f64,
}

impl Serialize for Table2Row {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("kernel".to_string(), self.kernel.to_value()),
            ("group".to_string(), self.group.to_value()),
            ("derived_bound".to_string(), self.derived_bound.to_value()),
            ("paper_bound".to_string(), self.paper_bound.to_value()),
            (
                "derived_numeric".to_string(),
                self.derived_numeric.to_value(),
            ),
            ("paper_numeric".to_string(), self.paper_numeric.to_value()),
            ("ratio_to_paper".to_string(), self.ratio_to_paper.to_value()),
            (
                "derived_improvement".to_string(),
                self.derived_improvement.to_value(),
            ),
            (
                "paper_improvement".to_string(),
                self.paper_improvement.to_value(),
            ),
            (
                "projection_baseline_numeric".to_string(),
                self.projection_baseline_numeric.to_value(),
            ),
            ("prior_source".to_string(), self.prior_source.to_value()),
            ("analysis_ms".to_string(), self.analysis_ms.to_value()),
        ])
    }
}

fn group_name(group: KernelGroup) -> &'static str {
    match group {
        KernelGroup::Polybench => "polybench",
        KernelGroup::NeuralNetworks => "nn",
        KernelGroup::Various => "various",
    }
}

/// Reference bindings: every symbolic size parameter of the program is bound
/// to [`REFERENCE_SIZE`] and `S` to [`REFERENCE_S`].
///
/// Networks whose published formula assumes dimensionally-linked parameters
/// (BERT's model width `E = H·P`, feed-forward width `F = 4·H·P`; LeNet-5's
/// fixed layer sizes) get realistic shapes instead, so the paper formula and
/// the program describe the same computation.
pub fn reference_bindings(entry: &KernelEntry) -> BTreeMap<String, f64> {
    let mut b: BTreeMap<String, f64> = entry
        .program
        .parameters()
        .into_iter()
        .map(|p| (p, REFERENCE_SIZE))
        .collect();
    b.insert("S".to_string(), REFERENCE_S);
    let mut set = |pairs: &[(&str, f64)]| {
        for (k, v) in pairs {
            b.insert((*k).to_string(), *v);
        }
    };
    match entry.name {
        "bert-encoder" => set(&[
            ("B", 8.0),
            ("L", 512.0),
            ("H", 8.0),
            ("P", 64.0),
            ("E", 512.0),
            ("F", 2048.0),
        ]),
        "lenet-5" => set(&[
            ("BATCH", 256.0),
            ("CH", 1.0),
            ("C1N", 6.0),
            ("C2N", 16.0),
            ("H", 28.0),
            ("W", 28.0),
            ("FLAT", 400.0),
            ("FC1", 120.0),
            ("FC2", 84.0),
            ("CLASSES", 10.0),
        ]),
        "direct-conv" => set(&[("WKER", 5.0), ("HKER", 5.0), ("CIN", 64.0), ("COUT", 64.0)]),
        _ => {}
    }
    b
}

/// Analyze one kernel with the Table-2 options (the §5.3 injective case for
/// the direct convolution, the conservative case otherwise).
pub fn analyze_kernel(entry: &KernelEntry) -> ProgramAnalysis {
    let opts = SdgOptions {
        assume_injective: entry.assume_injective,
        ..SdgOptions::default()
    };
    analyze_program_with_cache(&entry.program, &opts, &SolveCache::new())
        .unwrap_or_else(|e| panic!("analysis of {} failed: {e}", entry.name))
}

/// The Table-2 analysis options of a kernel, as one [`SuiteProgram`] for the
/// batch engine.
pub fn suite_program(entry: &KernelEntry) -> SuiteProgram {
    SuiteProgram::new(
        entry.program.clone(),
        SdgOptions {
            assume_injective: entry.assume_injective,
            ..SdgOptions::default()
        },
    )
}

/// Build one Table-2 row.
pub fn build_row(entry: &KernelEntry) -> Table2Row {
    // lint:allow(instant-now): harness wall-clock timing is reporting-only and never feeds analysis results
    let start = std::time::Instant::now();
    let analysis = analyze_kernel(entry);
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    build_row_from(entry, &analysis, elapsed)
}

/// Build one Table-2 row from an already-computed analysis (the batch engine
/// produces the analyses; this derives the comparison columns).
pub fn build_row_from(entry: &KernelEntry, analysis: &ProgramAnalysis, elapsed: f64) -> Table2Row {
    let bindings = reference_bindings(entry);
    let derived_numeric = analysis.bound.eval(&bindings).unwrap_or(f64::NAN);
    // lint:allow(unwrap-expect): the Table-2 record set covers every bundled kernel; a miss is a fixture authoring bug
    let table = sota_bound(entry.name).expect("every kernel has a Table-2 record");
    let paper_numeric = table.paper_soap_bound.eval(&bindings).unwrap_or(f64::NAN);
    let prior_numeric = table.prior_bound().eval(&bindings).unwrap_or(f64::NAN);
    let paper_improvement = table.improvement.eval(&bindings).unwrap_or(f64::NAN);
    let projection = loomis_whitney_bound(&entry.program)
        .eval(&bindings)
        .unwrap_or(f64::NAN);
    Table2Row {
        kernel: entry.name.to_string(),
        group: group_name(entry.group).to_string(),
        derived_bound: format!("{}", analysis.bound),
        paper_bound: format!("{}", table.paper_soap_bound),
        derived_numeric,
        paper_numeric,
        ratio_to_paper: derived_numeric / paper_numeric,
        derived_improvement: derived_numeric / prior_numeric,
        paper_improvement,
        projection_baseline_numeric: projection,
        prior_source: table.source.to_string(),
        analysis_ms: elapsed,
    }
}

/// Build all rows of a group (or all groups when `group` is `None`) through
/// the cross-program batch engine: one shared solve cache across the whole
/// suite, so renamed structures (gemm/2mm/3mm, the stencil family) are solved
/// once per run.  Returns the rows plus the suite-level cache accounting.
pub fn table2_suite(group: Option<KernelGroup>) -> (Vec<Table2Row>, SuiteSummary) {
    let entries: Vec<KernelEntry> = registry()
        .into_iter()
        .filter(|e| group.map(|g| e.group == g).unwrap_or(true))
        .collect();
    let jobs: Vec<SuiteProgram> = entries.iter().map(suite_program).collect();
    let batch = analyze_suite_with(&jobs, &SolveCache::new());
    let rows = entries
        .iter()
        .zip(&batch.reports)
        .map(|(entry, report)| {
            let analysis = report
                .outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("analysis of {} failed: {e}", entry.name));
            build_row_from(entry, analysis, report.analysis_ms)
        })
        .collect();
    (rows, batch.summary)
}

/// Build all rows of a group (or all groups when `group` is `None`).
pub fn table2(group: Option<KernelGroup>) -> Vec<Table2Row> {
    table2_suite(group).0
}

/// One-line human rendering of a batch run's suite-level cache accounting.
pub fn render_suite_summary(summary: &SuiteSummary) -> String {
    let c = summary.cache;
    format!(
        "suite: {} programs in {:.1} ms — {} structures solved, {} cache hits ({} from disk store, {} cross-program, {} intra-program), {} uncacheable",
        summary.programs,
        summary.wall_ms,
        c.misses,
        c.hits,
        c.store_hits,
        c.cross_program_hits,
        // Saturating like the CacheStats serializer: the stats are deltas of
        // non-atomic multi-counter snapshots, so under concurrent cache use
        // the classification counters can momentarily exceed `hits`.
        c.hits
            .saturating_sub(c.cross_program_hits)
            .saturating_sub(c.store_hits),
        c.uncacheable,
    )
}

/// Render rows as a fixed-width text table.
pub fn render_table(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>12} {:>12} {:>8} {:>10} {:>10} {:>9}\n",
        "kernel", "derived", "paper", "ratio", "impr(ours)", "impr(paper)", "time[ms]"
    ));
    out.push_str(&"-".repeat(92));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:>12.3e} {:>12.3e} {:>8.3} {:>10.2} {:>10.2} {:>9.1}\n",
            r.kernel,
            r.derived_numeric,
            r.paper_numeric,
            r.ratio_to_paper,
            r.derived_improvement,
            r.paper_improvement,
            r.analysis_ms,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_row_reproduces_the_paper_constant() {
        let entry = soap_kernels::by_name("gemm").unwrap();
        let row = build_row(&entry);
        assert!(
            (row.ratio_to_paper - 1.0).abs() < 0.05,
            "ratio {}",
            row.ratio_to_paper
        );
        assert!(row.projection_baseline_numeric <= row.derived_numeric * 1.01);
    }

    #[test]
    fn rendering_contains_all_rows() {
        let entry = soap_kernels::by_name("mvt").unwrap();
        let rows = vec![build_row(&entry)];
        let text = render_table(&rows);
        assert!(text.contains("mvt"));
    }
}
