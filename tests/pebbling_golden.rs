//! Golden pebbling schedules over the registry.
//!
//! For every registry kernel, the smallest size whose CDAG has at least 10³
//! vertices (the first tier of the `pebble_oracle` benchmark grid), with the
//! fast-memory size `S` cycling through the smallest budgets that can pebble
//! the kernel at all.  Per case the snapshot records the CDAG's vertex, edge
//! and output counts, an FNV-1a-64 digest of its vertex kinds, both adjacency
//! directions and its outputs, and the `(loads, stores, computes)` of the
//! program-order and tiled schedules — or the error a schedule returns.  Any
//! change to the CDAG build or the executor that moves a single vertex, edge
//! or I/O fails here with the differing lines.
//!
//! **Update path** (after an *intentional* change to CDAGs or schedules):
//!
//! ```text
//! SOAP_UPDATE_GOLDEN=1 cargo test --test pebbling_golden
//! git diff tests/golden/pebbling_schedules.txt   # review every changed line!
//! ```

use soap_core::{analyze_statement, AnalysisOptions};
use soap_ir::Program;
use soap_pebbling::{simulate_program_order, simulate_tiled, Cdag, ScheduleStats, VertexKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

mod common;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/pebbling_schedules.txt"
);

/// The vertex tier: per kernel, the smallest size reaching it is the case.
const TIER: f64 = 1.0e3;
/// Sizes above this many estimated vertices are never drawn.
const MAX_VERTICES: f64 = 1.0e5;
/// Largest size parameter the search tries.
const MAX_SIZE: i64 = 128;
/// Fast-memory sizes: the cases cycle through each kernel's four smallest
/// feasible ones.
const S_CHOICES: [usize; 7] = [8, 16, 32, 64, 128, 256, 512];

fn params(program: &Program, size: i64) -> BTreeMap<String, i64> {
    program
        .parameters()
        .into_iter()
        .map(|p| (p, size))
        .collect()
}

fn estimated_vertices(program: &Program, size: i64) -> f64 {
    let bindings: BTreeMap<String, f64> = params(program, size)
        .into_iter()
        .map(|(k, v)| (k, v as f64))
        .collect();
    program
        .total_vertex_count()
        .eval(&bindings)
        .unwrap_or(f64::INFINITY)
}

/// Per statement, its optimal tile shape at `s` from its own intensity.
fn tiles(program: &Program, assume_injective: bool, s: usize) -> BTreeMap<usize, Vec<i64>> {
    let opts = AnalysisOptions { assume_injective };
    let mut out = BTreeMap::new();
    for (i, st) in program.statements.iter().enumerate() {
        let Some(tiles) = analyze_statement(st, &opts)
            .ok()
            .and_then(|a| a.intensity.tiles_at(s as f64))
        else {
            continue;
        };
        let by_var: BTreeMap<String, f64> = tiles.into_iter().collect();
        let shape = st
            .loop_variables()
            .iter()
            .map(|v| {
                by_var
                    .get(&format!("D_{v}"))
                    .map_or(1, |t| (t.round() as i64).max(1))
            })
            .collect();
        out.insert(i, shape);
    }
    out
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn ints(&mut self, xs: &[i64]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.bytes(&x.to_le_bytes());
        }
    }

    fn ids(&mut self, xs: &[usize]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(x as u64);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn digest(g: &Cdag) -> u64 {
    let mut h = Fnv::new();
    for (v, kind) in g.kinds.iter().enumerate() {
        match kind {
            VertexKind::Input { array, index } => {
                h.word(0);
                h.text(array);
                h.ints(index);
            }
            VertexKind::Compute {
                statement,
                iteration,
                array,
                index,
            } => {
                h.word(1);
                h.word(*statement as u64);
                h.ints(iteration);
                h.text(array);
                h.ints(index);
            }
        }
        h.ids(g.parents(v));
        h.ids(g.children(v));
    }
    h.ids(&g.outputs);
    h.0
}

fn schedule(r: Result<ScheduleStats, soap_pebbling::PebblingError>) -> String {
    match r {
        Ok(s) => format!(
            "loads={} stores={} computes={}",
            s.loads, s.stores, s.computes
        ),
        Err(e) => format!("error {e:?}"),
    }
}

/// Render the current snapshot.
fn snapshot() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Golden pebbling schedules: per registry kernel, the smallest size with >= 1e3 \
         estimated CDAG vertices, S cycling through the kernel's smallest feasible budgets."
    );
    let _ = writeln!(
        out,
        "# Regenerate with: SOAP_UPDATE_GOLDEN=1 cargo test --test pebbling_golden"
    );
    let mut cases = 0usize;
    for entry in soap_kernels::registry() {
        let program = &entry.program;
        // A schedule needs every operand of a vertex and the vertex itself
        // red at once; smaller budgets admit no pebbling at all.
        let min_s = program
            .statements
            .iter()
            .map(|st| {
                st.inputs.iter().map(|a| a.num_components()).sum::<usize>()
                    + usize::from(st.is_update)
                    + 1
            })
            .max()
            .unwrap_or(1);
        let feasible: Vec<usize> = S_CHOICES
            .iter()
            .copied()
            .filter(|&s| s >= min_s)
            .take(4)
            .collect();
        let Some(size) = (2..=MAX_SIZE)
            .take_while(|&n| estimated_vertices(program, n) <= MAX_VERTICES)
            .find(|&n| estimated_vertices(program, n) >= TIER)
        else {
            let _ = writeln!(out, "kernel {} skipped (no size in the tier)", entry.name);
            continue;
        };
        let s = feasible[cases % feasible.len()];
        cases += 1;
        let g = Cdag::from_program(program, &params(program, size));
        let edges: usize = (0..g.len()).map(|v| g.parents(v).len()).sum();
        let _ = writeln!(out, "kernel {} size={size} S={s}", entry.name);
        let _ = writeln!(
            out,
            "  cdag vertices={} edges={edges} outputs={} fnv={:016x}",
            g.len(),
            g.outputs.len(),
            digest(&g)
        );
        let _ = writeln!(out, "  order {}", schedule(simulate_program_order(&g, s)));
        let tile_map = tiles(program, entry.assume_injective, s);
        let _ = writeln!(
            out,
            "  tiled {}",
            schedule(simulate_tiled(&g, &tile_map, s))
        );
    }
    out
}

#[test]
fn pebbling_schedules_match_the_committed_golden_file() {
    common::check_golden(GOLDEN_PATH, &snapshot(), "pebbling_golden");
}
