//! The inputs every workload draws from: the Table-2 registry with its
//! golden bounds, one-statement edits of registry programs, Python-dialect
//! renderings of programs, and a generator of fresh small programs.

use crate::util::Rng;
use soap_ir::{Program, Statement};
use soap_sdg::{structural_program_key, ProgramAnalysis, SuiteProgram};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

/// The committed golden registry bounds, read-only.
pub const GOLDEN_PATH: &str = "tests/golden/registry_bounds.txt";

/// The registry as batch jobs with the Table-2 options.
pub fn registry_jobs() -> Vec<SuiteProgram> {
    soap_kernels::registry()
        .iter()
        .map(soap_bench::suite_program)
        .collect()
}

/// Golden blocks (`kernel <name>` through its last `array` line), by name.
pub fn golden_blocks() -> Result<BTreeMap<String, String>, String> {
    let text = std::fs::read_to_string(GOLDEN_PATH)
        .map_err(|e| format!("cannot read {GOLDEN_PATH}: {e}"))?;
    let mut blocks = BTreeMap::new();
    let mut current: Option<(String, String)> = None;
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        if let Some(name) = line.strip_prefix("kernel ") {
            if let Some((n, b)) = current.take() {
                blocks.insert(n, b);
            }
            current = Some((name.to_string(), String::new()));
        }
        if let Some((_, block)) = current.as_mut() {
            block.push_str(line);
            block.push('\n');
        }
    }
    if let Some((n, b)) = current {
        blocks.insert(n, b);
    }
    if blocks.len() != soap_kernels::registry().len() {
        return Err(format!(
            "{GOLDEN_PATH} holds {} kernels, the registry {}",
            blocks.len(),
            soap_kernels::registry().len()
        ));
    }
    Ok(blocks)
}

/// One kernel's analysis in the golden file's format: bound, its value at
/// the Table-2 reference bindings, and every array's σ and ρ.
pub fn golden_block(entry: &soap_kernels::KernelEntry, analysis: &ProgramAnalysis) -> String {
    let q = analysis
        .bound
        .eval(&soap_bench::reference_bindings(entry))
        .unwrap_or(f64::NAN);
    let mut out = String::new();
    let _ = writeln!(out, "kernel {}", entry.name);
    let _ = writeln!(out, "  bound {}", analysis.bound);
    let _ = writeln!(out, "  Q(ref) {q:.8e}");
    for a in &analysis.per_array {
        let _ = writeln!(out, "  array {} sigma={} rho={}", a.array, a.sigma, a.rho);
    }
    out
}

/// Everything an analysis says about the program — bound, per-array terms,
/// every subgraph intensity, notes and degradation — and nothing about how
/// it was computed (cache counters and phase timings differ between a warm
/// and a cold run by design).  Two equal records are byte-identical results.
pub fn analysis_record(a: &ProgramAnalysis) -> String {
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{} {}",
        a.bound, a.per_array, a.subgraphs, a.notes, a.degraded, a.arrays_deferred
    )
}

/// One-statement edit of a registry program.
pub struct Edit {
    pub label: String,
    pub job: SuiteProgram,
}

/// Every one-statement edit of the registry that is a valid program and
/// structurally new — distinct from every registry program and from every
/// other edit, so that none of them can be answered by a stored report:
///
/// * append a copy of statement `k` that writes a fresh array;
/// * drop statement `k` (programs of two or more statements).
pub fn edit_corpus(jobs: &[SuiteProgram]) -> Vec<Edit> {
    let mut seen: HashSet<u64> = jobs
        .iter()
        .map(|j| structural_program_key(&j.program, &j.opts))
        .collect();
    let mut edits = Vec::new();
    for job in jobs {
        let p = &job.program;
        let mut candidates: Vec<(String, Program)> = Vec::new();
        for k in 0..p.statements.len() {
            candidates.push((format!("{}+copy{k}", p.name), append_copy(p, k)));
        }
        if p.statements.len() >= 2 {
            for k in 0..p.statements.len() {
                let mut statements = p.statements.clone();
                statements.remove(k);
                candidates.push((
                    format!("{}-drop{k}", p.name),
                    Program::new(p.name.clone(), statements),
                ));
            }
        }
        for (label, program) in candidates {
            if program.validate().is_err() {
                continue;
            }
            if seen.insert(structural_program_key(&program, &job.opts)) {
                edits.push(Edit {
                    label,
                    job: SuiteProgram::new(program, job.opts.clone()),
                });
            }
        }
    }
    edits
}

/// `p` plus a copy of statement `k` whose output is a fresh array.
fn append_copy(p: &Program, k: usize) -> Program {
    let arrays: HashSet<String> = p.arrays().into_iter().map(|a| a.name).collect();
    let mut copy: Statement = p.statements[k].clone();
    let mut fresh = format!("{}_copy", copy.output.array);
    while arrays.contains(&fresh) {
        fresh.push('_');
    }
    copy.output.array = fresh;
    copy.name = format!("{}_copy", copy.name);
    let mut statements = p.statements.clone();
    statements.push(copy);
    Program::new(p.name.clone(), statements)
}

/// Render a program in the Python-like dialect, one full loop nest per
/// statement, loop variables renamed through `rename`.
pub fn to_python(p: &Program, rename: &dyn Fn(&str) -> String) -> String {
    let rename_affine = |text: String, vars: &[String]| -> String {
        // Loop variables are whole identifiers inside affine text.
        let mut out = String::new();
        let mut ident = String::new();
        let flush = |ident: &mut String, out: &mut String| {
            if vars.iter().any(|v| v == ident) {
                out.push_str(&rename(ident));
            } else {
                out.push_str(ident);
            }
            ident.clear();
        };
        for ch in text.chars() {
            if ch.is_alphanumeric() || ch == '_' {
                ident.push(ch);
            } else {
                flush(&mut ident, &mut out);
                out.push(ch);
            }
        }
        flush(&mut ident, &mut out);
        out
    };
    let mut out = String::new();
    for st in &p.statements {
        let vars = st.loop_variables();
        for (level, lv) in st.domain.loops.iter().enumerate() {
            let _ = writeln!(
                out,
                "{}for {} in range({}, {}):",
                "    ".repeat(level),
                rename(&lv.name),
                rename_affine(lv.lower.to_string(), &vars),
                rename_affine(lv.upper.to_string(), &vars)
            );
        }
        let subscript = |indices: &[soap_ir::LinIndex]| -> String {
            let parts: Vec<String> = indices
                .iter()
                .map(|ix| rename_affine(ix.to_string(), &vars))
                .collect();
            format!("[{}]", parts.join(", "))
        };
        let lhs = format!(
            "{}{}",
            st.output.array,
            subscript(&st.output.components[0].indices)
        );
        let rhs: Vec<String> = st
            .inputs
            .iter()
            .flat_map(|acc| {
                acc.components
                    .iter()
                    .map(move |c| format!("{}{}", acc.array, subscript(&c.indices)))
            })
            .collect();
        let op = if st.is_update { "+=" } else { "=" };
        let _ = writeln!(
            out,
            "{}{lhs} {op} {}",
            "    ".repeat(st.domain.loops.len()),
            rhs.join(" + ")
        );
    }
    out
}

/// A fresh small program in the Python-like dialect: four or five affine
/// loop nests chained through the arrays they write.  Loop depth, bounds,
/// subscripts, offsets, reductions and the producer/consumer wiring are all
/// drawn from `rng`; callers reject drafts whose structure they have seen.
pub fn fresh_program(rng: &mut Rng) -> String {
    const VARS: [&str; 3] = ["i", "j", "k"];
    const PARAMS: [&str; 3] = ["N", "M", "K"];
    let statements = 4 + rng.below(2);
    // (array name, dimension) of every array written so far.
    let mut written: Vec<(String, usize)> = Vec::new();
    let mut out = String::new();
    for s in 0..statements {
        let depth = 2 + rng.below(2);
        let vars = &VARS[..depth];
        for (level, v) in vars.iter().enumerate() {
            let lo = if rng.chance(0.2) { "1" } else { "0" };
            let _ = writeln!(
                out,
                "{}for {v} in range({lo}, {}):",
                "    ".repeat(level),
                PARAMS[rng.below(PARAMS.len())]
            );
        }
        let index = |rng: &mut Rng, dim: usize| -> String {
            let mut picked: Vec<String> = Vec::new();
            for _ in 0..dim {
                let v = vars[rng.below(vars.len())];
                if rng.chance(0.2) {
                    picked.push(format!("{v} + {}", 1 + rng.below(2)));
                } else {
                    picked.push(v.to_string());
                }
            }
            format!("[{}]", picked.join(", "))
        };
        // The output keeps an ordered subset of the loop variables; the
        // dropped ones are reductions, so the statement accumulates.
        let mut out_vars: Vec<&str> = vars.iter().copied().filter(|_| rng.chance(0.7)).collect();
        if out_vars.is_empty() {
            out_vars.push(vars[rng.below(vars.len())]);
        }
        let reduction = out_vars.len() < vars.len();
        let output = format!("X{s}");
        let lhs = format!("{output}[{}]", out_vars.join(", "));
        let mut rhs: Vec<String> = Vec::new();
        for n in 0..1 + rng.below(3) {
            if !written.is_empty() && rng.chance(0.6) {
                let (name, dim) = written[rng.below(written.len())].clone();
                rhs.push(format!("{name}{}", index(rng, dim)));
            } else {
                let dim = 1 + rng.below(depth.min(2));
                rhs.push(format!("A{s}{n}{}", index(rng, dim)));
            }
        }
        let op = if reduction || rng.chance(0.3) {
            "+="
        } else {
            "="
        };
        let _ = writeln!(
            out,
            "{}{lhs} {op} {}",
            "    ".repeat(depth),
            rhs.join(" * ")
        );
        written.push((output, out_vars.len()));
    }
    out
}
