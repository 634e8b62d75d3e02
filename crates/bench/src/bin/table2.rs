//! Regenerate the paper's Table 2: per-kernel I/O lower bounds, the
//! comparison against the paper's reported bounds, and the improvement factor
//! over the previous state of the art.
//!
//! ```text
//! cargo run --release -p soap-bench --bin table2 [-- --group polybench|nn|various] [--json out.json] [--suite-json suite.json]
//! ```
//!
//! The rows are produced by the cross-program batch engine (one shared solve
//! cache across the whole table), so the suite-level cache accounting printed
//! at the end — and written by `--suite-json` — shows how many structures
//! were deduplicated *across* kernels.

#![forbid(unsafe_code)]

use soap_bench::{render_suite_summary, render_table, table2_suite, Table2Row};
use soap_kernels::KernelGroup;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut group = None;
    let mut json_path: Option<String> = None;
    let mut suite_json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--suite-json" => {
                i += 1;
                suite_json_path = args.get(i).cloned();
            }
            "--group" => {
                i += 1;
                group = match args.get(i).map(|s| s.as_str()) {
                    Some("polybench") => Some(KernelGroup::Polybench),
                    Some("nn") => Some(KernelGroup::NeuralNetworks),
                    Some("various") => Some(KernelGroup::Various),
                    other => {
                        eprintln!("unknown group {other:?} (expected polybench|nn|various)");
                        std::process::exit(2);
                    }
                };
            }
            "--json" => {
                i += 1;
                json_path = args.get(i).cloned();
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let (rows, suite): (Vec<Table2Row>, _) = table2_suite(group);
    println!("{}", render_table(&rows));
    println!(
        "reference sizes: every size parameter = {}, S = {} words",
        soap_bench::REFERENCE_SIZE,
        soap_bench::REFERENCE_S
    );
    println!("{}", render_suite_summary(&suite));
    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&rows).expect("rows serialize to JSON");
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }
    if let Some(path) = suite_json_path {
        // `SuiteSummary`'s `Serialize` impl in `soap-sdg`: the same record
        // `soap-cli batch` emits.
        let json = serde_json::to_string_pretty(&suite).expect("suite summary serializes");
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }
}
