//! Explicit CDAG construction from a SOAP program and concrete parameters.

use soap_ir::{AccessComponent, ArrayAccess, LinIndex, Program, Statement};
use std::collections::{BTreeMap, HashMap};

/// Vertex identifier (dense, 0-based).
pub type VertexId = usize;

/// What a CDAG vertex represents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VertexKind {
    /// A program input: an array element that is read before ever being
    /// written (it starts with a blue pebble).
    Input {
        /// Array name.
        array: String,
        /// Element index.
        index: Vec<i64>,
    },
    /// One statement execution producing a new version of an array element.
    Compute {
        /// Index of the statement in the program.
        statement: usize,
        /// The iteration vector.
        iteration: Vec<i64>,
        /// Array written.
        array: String,
        /// Element index written.
        index: Vec<i64>,
    },
}

/// A Computational DAG: vertices are array-element versions, edges point from
/// operands to results.
///
/// Adjacency is stored in CSR (compressed sparse row) form — one flat target
/// array plus per-vertex offsets in each direction — so walking a vertex's
/// operands or consumers is a contiguous slice read with no per-vertex `Vec`
/// allocations.  Vertices are created with their parents already known, which
/// makes the parent CSR buildable append-only during construction.
#[derive(Clone, Debug)]
pub struct Cdag {
    /// Vertex metadata.
    pub kinds: Vec<VertexKind>,
    /// CSR offsets into `parent_targets`; vertex `v`'s operands are
    /// `parent_targets[parent_offsets[v]..parent_offsets[v + 1]]`.
    parent_offsets: Vec<usize>,
    parent_targets: Vec<VertexId>,
    /// CSR offsets into `child_targets` (derived from the parent edges).
    child_offsets: Vec<usize>,
    child_targets: Vec<VertexId>,
    /// Vertices that hold the final version of an array element written by the
    /// program (the program outputs; they must end with a blue pebble).
    pub outputs: Vec<VertexId>,
}

// CSR invariant: offsets always hold one entry per vertex plus a trailing
// total, so an empty graph still needs `[0]` — a derived Default would break
// `parents(v)`/`children(v)` for any graph built outside `from_program`.
impl Default for Cdag {
    fn default() -> Cdag {
        Cdag {
            kinds: Vec::new(),
            parent_offsets: vec![0],
            parent_targets: Vec::new(),
            child_offsets: vec![0],
            child_targets: Vec::new(),
            outputs: Vec::new(),
        }
    }
}

impl Cdag {
    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// The operands of vertex `v` (empty for inputs).
    #[inline]
    pub fn parents(&self, v: VertexId) -> &[VertexId] {
        &self.parent_targets[self.parent_offsets[v]..self.parent_offsets[v + 1]]
    }

    /// The consumers of vertex `v`.
    #[inline]
    pub fn children(&self, v: VertexId) -> &[VertexId] {
        &self.child_targets[self.child_offsets[v]..self.child_offsets[v + 1]]
    }

    /// True if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Indices of the input vertices.
    pub fn inputs(&self) -> Vec<VertexId> {
        (0..self.len())
            .filter(|&v| matches!(self.kinds[v], VertexKind::Input { .. }))
            .collect()
    }

    /// Indices of the compute vertices.
    pub fn compute_vertices(&self) -> Vec<VertexId> {
        (0..self.len())
            .filter(|&v| matches!(self.kinds[v], VertexKind::Compute { .. }))
            .collect()
    }

    /// Build the CDAG of `program` for concrete parameter values.
    ///
    /// Statements are enumerated in program order and loop order; every
    /// execution creates a fresh vertex for the written element (so updates
    /// and stencil sweeps produce version chains), and reads refer to the
    /// latest version of the element, creating an input vertex on first use.
    ///
    /// Each statement's subscripts are compiled once against `params`, so an
    /// iteration evaluates them with a few multiply-adds and probes a
    /// per-array map without allocating.
    pub fn from_program(program: &Program, params: &BTreeMap<String, i64>) -> Cdag {
        let mut arrays: BTreeMap<&str, usize> = BTreeMap::new();
        let statements: Vec<CompiledStatement<'_>> = program
            .statements
            .iter()
            .map(|st| CompiledStatement::new(st, params, &mut arrays))
            .collect();
        let mut b = Builder {
            g: Cdag::default(),
            latest: vec![HashMap::new(); arrays.len()],
            superseded: Vec::new(),
        };
        for (sidx, (st, cst)) in program.statements.iter().zip(&statements).enumerate() {
            b.statement(sidx, st, cst, params);
        }
        let Builder {
            mut g, superseded, ..
        } = b;
        // Final *computed* versions are the program outputs (read-only arrays
        // have only input vertices and never need storing back).
        g.outputs = (0..g.len())
            .filter(|&v| !superseded[v] && matches!(g.kinds[v], VertexKind::Compute { .. }))
            .collect();
        // Derive the child CSR from the parent edges: count in-degrees, take
        // prefix sums, then scatter.
        let mut degree = vec![0usize; g.len()];
        for &p in &g.parent_targets {
            degree[p] += 1;
        }
        g.child_offsets = Vec::with_capacity(g.len() + 1);
        let mut total = 0;
        g.child_offsets.push(0);
        for d in &degree {
            total += d;
            g.child_offsets.push(total);
        }
        g.child_targets = vec![0; total];
        let mut cursor = g.child_offsets.clone();
        for v in 0..g.len() {
            for i in g.parent_offsets[v]..g.parent_offsets[v + 1] {
                let p = g.parent_targets[i];
                g.child_targets[cursor[p]] = v;
                cursor[p] += 1;
            }
        }
        g
    }

    fn add_vertex(&mut self, kind: VertexKind, parents: &[VertexId]) -> VertexId {
        let id = self.kinds.len();
        self.kinds.push(kind);
        self.parent_targets.extend_from_slice(parents);
        self.parent_offsets.push(self.parent_targets.len());
        id
    }
}

/// One array subscript compiled against concrete parameters: `offset` has the
/// parameters folded in, and `terms` holds `(loop slot, coefficient)` for the
/// loop variables it reads.
struct Subscript {
    offset: i64,
    terms: Vec<(usize, i64)>,
}

impl Subscript {
    /// Compile `ix` under the bindings the iteration vector and `params`
    /// give (a parameter shadows a loop variable of the same name); `None` if
    /// it names an unbound symbol.
    fn new(ix: &LinIndex, loops: &[String], params: &BTreeMap<String, i64>) -> Option<Subscript> {
        let mut offset = ix.offset;
        let mut terms = Vec::new();
        for (name, &coeff) in &ix.coeffs {
            if let Some(&p) = params.get(name) {
                offset += coeff * p;
            } else {
                terms.push((loops.iter().rposition(|l| l == name)?, coeff));
            }
        }
        Some(Subscript { offset, terms })
    }

    fn eval(&self, iteration: &[i64]) -> i64 {
        self.terms.iter().fold(self.offset, |acc, &(slot, coeff)| {
            acc + coeff * iteration[slot]
        })
    }
}

/// An access component compiled to one [`Subscript`] per array dimension.
struct Component(Vec<Subscript>);

impl Component {
    /// `None` if any subscript names an unbound symbol: such a component
    /// addresses no element and is skipped.
    fn new(c: &AccessComponent, loops: &[String], params: &BTreeMap<String, i64>) -> Option<Self> {
        c.indices
            .iter()
            .map(|ix| Subscript::new(ix, loops, params))
            .collect::<Option<Vec<_>>>()
            .map(Component)
    }

    /// Write the element index at `iteration` into `out`.
    fn eval_into(&self, iteration: &[i64], out: &mut Vec<i64>) {
        out.clear();
        out.extend(self.0.iter().map(|s| s.eval(iteration)));
    }
}

/// An array access with its array interned to a dense id.
struct CompiledAccess<'p> {
    array: usize,
    name: &'p str,
    components: Vec<Component>,
}

impl<'p> CompiledAccess<'p> {
    fn new(
        acc: &'p ArrayAccess,
        loops: &[String],
        params: &BTreeMap<String, i64>,
        arrays: &mut BTreeMap<&'p str, usize>,
    ) -> Self {
        CompiledAccess {
            array: intern(arrays, &acc.array),
            name: &acc.array,
            components: acc
                .components
                .iter()
                .filter_map(|c| Component::new(c, loops, params))
                .collect(),
        }
    }
}

/// The dense id of array `name`, assigned in order of first appearance.
fn intern<'p>(arrays: &mut BTreeMap<&'p str, usize>, name: &'p str) -> usize {
    let next = arrays.len();
    *arrays.entry(name).or_insert(next)
}

struct CompiledStatement<'p> {
    inputs: Vec<CompiledAccess<'p>>,
    /// The written array's id.
    output: usize,
    /// The output's first component, if every subscript is bound.
    written: Option<Component>,
}

impl<'p> CompiledStatement<'p> {
    fn new(
        st: &'p Statement,
        params: &BTreeMap<String, i64>,
        arrays: &mut BTreeMap<&'p str, usize>,
    ) -> Self {
        let loops = st.loop_variables();
        let inputs = st
            .inputs
            .iter()
            .map(|acc| CompiledAccess::new(acc, &loops, params, arrays))
            .collect();
        let output = intern(arrays, &st.output.array);
        let written = st
            .output
            .components
            .first()
            .and_then(|c| Component::new(c, &loops, params));
        CompiledStatement {
            inputs,
            output,
            written,
        }
    }
}

/// Construction state: the graph so far and, per interned array, the vertex
/// holding each element's latest version.
struct Builder {
    g: Cdag,
    latest: Vec<HashMap<Vec<i64>, VertexId>>,
    /// Per vertex, whether a later write replaced it as its element's latest
    /// version.
    superseded: Vec<bool>,
}

impl Builder {
    fn add_vertex(&mut self, kind: VertexKind, parents: &[VertexId]) -> VertexId {
        self.superseded.push(false);
        self.g.add_vertex(kind, parents)
    }

    /// The latest version of element `index` of array `array` (named
    /// `name`), creating an input vertex on first use.
    fn read(&mut self, array: usize, name: &str, index: &[i64]) -> VertexId {
        if let Some(&v) = self.latest[array].get(index) {
            return v;
        }
        let v = self.add_vertex(
            VertexKind::Input {
                array: name.to_string(),
                index: index.to_vec(),
            },
            &[],
        );
        self.latest[array].insert(index.to_vec(), v);
        v
    }

    fn statement(
        &mut self,
        sidx: usize,
        st: &Statement,
        cst: &CompiledStatement<'_>,
        params: &BTreeMap<String, i64>,
    ) {
        let mut parents = Vec::new();
        let mut index = Vec::new();
        let mut out_index = Vec::new();
        for iteration in st.domain.enumerate(params) {
            parents.clear();
            for acc in &cst.inputs {
                for comp in &acc.components {
                    comp.eval_into(&iteration, &mut index);
                    parents.push(self.read(acc.array, acc.name, &index));
                }
            }
            cst.written
                .as_ref()
                // lint:allow(unwrap-expect): Statement::validate admits only loop variables in subscripts
                .expect("output subscripts evaluate under loop bindings")
                .eval_into(&iteration, &mut out_index);
            if st.is_update {
                // The previous version of the output element is also an operand.
                parents.push(self.read(cst.output, &st.output.array, &out_index));
            }
            parents.sort_unstable();
            parents.dedup();
            let v = self.add_vertex(
                VertexKind::Compute {
                    statement: sidx,
                    iteration,
                    array: st.output.array.clone(),
                    index: out_index.clone(),
                },
                &parents,
            );
            match self.latest[cst.output].get_mut(out_index.as_slice()) {
                Some(slot) => {
                    self.superseded[*slot] = true;
                    *slot = v;
                }
                None => {
                    self.latest[cst.output].insert(out_index.clone(), v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soap_ir::ProgramBuilder;

    fn params(pairs: &[(&str, i64)]) -> BTreeMap<String, i64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    fn mmm(n: i64) -> (Program, BTreeMap<String, i64>) {
        let p = ProgramBuilder::new("gemm")
            .statement(|st| {
                st.loops(&[("i", "0", "N"), ("j", "0", "N"), ("k", "0", "N")])
                    .update("C", "i,j")
                    .read("A", "i,k")
                    .read("B", "k,j")
            })
            .build()
            .unwrap();
        (p, params(&[("N", n)]))
    }

    #[test]
    fn mmm_cdag_has_expected_counts() {
        let (p, pr) = mmm(4);
        let g = Cdag::from_program(&p, &pr);
        // Inputs: A (16) + B (16) + initial C (16) = 48; compute: 64.
        assert_eq!(g.inputs().len(), 48);
        assert_eq!(g.compute_vertices().len(), 64);
        assert_eq!(g.len(), 112);
        // Outputs: the final version of each C element.
        assert_eq!(g.outputs.len(), 16);
        // Every compute vertex of MMM has exactly 3 parents (A, B, previous C).
        for v in g.compute_vertices() {
            assert_eq!(g.parents(v).len(), 3);
        }
    }

    #[test]
    fn update_chains_are_linked() {
        let (p, pr) = mmm(3);
        let g = Cdag::from_program(&p, &pr);
        // For a fixed (i,j), the k-loop creates a chain of 3 versions; the
        // last one must be reachable from the first through parent links.
        let computes = g.compute_vertices();
        let first = computes[0];
        let second = computes[1];
        assert!(g.parents(second).contains(&first));
    }

    #[test]
    fn stencil_cdag_links_time_steps() {
        let p = ProgramBuilder::new("jacobi1d")
            .statement(|st| {
                st.loops(&[("t", "1", "T"), ("i", "1", "N - 1")])
                    .write("A", "i,t")
                    .read_multi("A", &["i-1,t-1", "i,t-1", "i+1,t-1"])
            })
            .build()
            .unwrap();
        let g = Cdag::from_program(&p, &params(&[("N", 6), ("T", 3)]));
        // Compute vertices: (T-1)·(N-2) = 2·4 = 8.
        assert_eq!(g.compute_vertices().len(), 8);
        // Second-sweep vertices read first-sweep results, not only inputs.
        let second_sweep: Vec<_> = g
            .compute_vertices()
            .into_iter()
            .filter(|&v| matches!(&g.kinds[v], VertexKind::Compute { iteration, .. } if iteration[0] == 2))
            .collect();
        assert!(!second_sweep.is_empty());
        assert!(second_sweep.iter().any(|&v| {
            g.parents(v)
                .iter()
                .any(|&pv| matches!(g.kinds[pv], VertexKind::Compute { .. }))
        }));
    }

    #[test]
    fn children_are_consistent_with_parents() {
        let (p, pr) = mmm(3);
        let g = Cdag::from_program(&p, &pr);
        for v in 0..g.len() {
            for &c in g.children(v) {
                assert!(g.parents(c).contains(&v));
            }
            for &par in g.parents(v) {
                assert!(g.children(par).contains(&v));
            }
        }
    }
}
