//! Schedule generators: turn a CDAG into a valid pebbling and count its I/O.
//!
//! Two schedules are provided:
//!
//! * [`simulate_program_order`] — compute vertices in program order;
//! * [`simulate_tiled`] — compute vertices reordered by a loop tiling (the
//!   tile sizes typically come from the analysis' optimal `|D_t|(X₀)`), which
//!   is the schedule the paper's constructive bound suggests.
//!
//! Both use the same executor: operands are loaded on demand, red pebbles are
//! evicted with Belady's rule (furthest next use), and computed values still
//! needed later (or program outputs) are written back before eviction.  The
//! executor produces a *valid* pebbling, so its I/O is an upper bound that can
//! be compared against the analytic lower bound.
//!
//! Cost: the executor keeps each vertex's use times in CSR form with a
//! forward-only cursor, and the red pebbles in an ordered set keyed by next
//! use, so each move costs O(log S).  On top of that every move is validated
//! twice through [`crate::game`]: online as it is made, and by replaying the
//! whole move sequence on a fresh game at the end.

use crate::cdag::{Cdag, VertexId, VertexKind};
use crate::game::{Move, PebbleGame, PebblingError};
use soap_bitset::BitSet;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

/// Statistics of one simulated schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Number of load moves.
    pub loads: usize,
    /// Number of store moves.
    pub stores: usize,
    /// Number of compute moves.
    pub computes: usize,
}

impl ScheduleStats {
    /// Total I/O (loads + stores).
    pub fn io(&self) -> usize {
        self.loads + self.stores
    }
}

/// Next-use time of a vertex that is never used again.
const NEVER: usize = usize::MAX;

/// Plays a compute order as pebbling moves with Belady eviction.
struct Executor<'a> {
    cdag: &'a Cdag,
    game: PebbleGame<'a>,
    moves: Vec<Move>,
    budget: usize,
    outputs: BitSet,
    /// Vertex `v` is an operand at the compute steps
    /// `use_times[use_offsets[v]..use_offsets[v + 1]]`, ascending.
    use_offsets: Vec<usize>,
    use_times: Vec<usize>,
    /// Per vertex, the index into `use_times` of its next use; it only moves
    /// forward.
    cursor: Vec<usize>,
    /// The red pebbles keyed by `(next use, vertex)`: the last entry is
    /// Belady's victim, ties going to the largest vertex id.
    red: BTreeSet<(usize, VertexId)>,
}

impl<'a> Executor<'a> {
    fn new(cdag: &'a Cdag, order: &[VertexId], budget: usize) -> Self {
        let mut use_offsets = vec![0usize; cdag.len() + 1];
        for &v in order {
            for &p in cdag.parents(v) {
                use_offsets[p + 1] += 1;
            }
        }
        for v in 0..cdag.len() {
            use_offsets[v + 1] += use_offsets[v];
        }
        let mut cursor = use_offsets[..cdag.len()].to_vec();
        let mut use_times = vec![0usize; use_offsets[cdag.len()]];
        for (t, &v) in order.iter().enumerate() {
            for &p in cdag.parents(v) {
                use_times[cursor[p]] = t;
                cursor[p] += 1;
            }
        }
        cursor.copy_from_slice(&use_offsets[..cdag.len()]);
        let mut outputs = BitSet::new(cdag.len());
        for &v in &cdag.outputs {
            outputs.insert(v);
        }
        Executor {
            cdag,
            game: PebbleGame::new(cdag, budget),
            moves: Vec::new(),
            budget,
            outputs,
            use_offsets,
            use_times,
            cursor,
            red: BTreeSet::new(),
        }
    }

    /// The use time under `v`'s cursor.
    fn key(&self, v: VertexId) -> usize {
        let c = self.cursor[v];
        if c < self.use_offsets[v + 1] {
            self.use_times[c]
        } else {
            NEVER
        }
    }

    /// Move `v`'s cursor to its first use at or after step `now`.
    fn advance(&mut self, v: VertexId, now: usize) -> usize {
        let end = self.use_offsets[v + 1];
        while self.cursor[v] < end && self.use_times[self.cursor[v]] < now {
            self.cursor[v] += 1;
        }
        self.key(v)
    }

    fn apply(&mut self, mv: Move) -> Result<(), PebblingError> {
        self.game.apply(mv)?;
        self.moves.push(mv);
        Ok(())
    }

    /// Evict red pebbles (storing values that are outputs or still needed)
    /// until a free slot is available.
    fn make_room(&mut self) -> Result<(), PebblingError> {
        while self.red.len() >= self.budget {
            let Some((next, victim)) = self.red.pop_last() else {
                break;
            };
            // Only computed values lack a blue pebble: inputs start with one.
            if (next != NEVER || self.outputs.contains(victim)) && !self.game.is_blue(victim) {
                self.apply(Move::Store(victim))?;
            }
            self.apply(Move::DiscardRed(victim))?;
        }
        Ok(())
    }

    /// Compute `v` as step `t`, loading its missing operands first.
    fn step(&mut self, t: usize, v: VertexId) -> Result<(), PebblingError> {
        let parents = self.cdag.parents(v);
        for &p in parents {
            if self.game.is_red(p) {
                continue;
            }
            self.make_room()?;
            // Every operand is an input or a computed value the executor
            // stored before evicting it, so it carries a blue pebble.
            self.apply(Move::Load(p))?;
            let key = self.advance(p, t);
            self.red.insert((key, p));
        }
        self.make_room()?;
        if self.game.is_red(v) {
            // A recomputation: drop the value's old key.
            self.red.remove(&(self.key(v), v));
        }
        self.apply(Move::Compute(v))?;
        let key = self.advance(v, t);
        self.red.insert((key, v));
        // The operands were just used at step `t`: move their keys past it.
        for &p in parents {
            self.red.remove(&(self.key(p), p));
            let key = self.advance(p, t + 1);
            self.red.insert((key, p));
        }
        Ok(())
    }
}

/// Simulate the schedule that computes vertices in the given order.
///
/// A budget `s` below the in-degree + 1 of the widest vertex in `order`
/// admits no pebbling and returns [`PebblingError::RedBudgetExceeded`] for
/// that vertex.  Every move is checked against the game rules as it is made,
/// and the whole sequence is replayed on a fresh game before the statistics
/// are returned.
pub fn simulate_order(
    cdag: &Cdag,
    order: &[VertexId],
    s: usize,
) -> Result<ScheduleStats, PebblingError> {
    let widest = order
        .iter()
        .copied()
        .min_by_key(|&v| Reverse(cdag.parents(v).len()));
    if let Some(vertex) = widest.filter(|&v| s < cdag.parents(v).len() + 1) {
        return Err(PebblingError::RedBudgetExceeded { vertex, budget: s });
    }
    let mut ex = Executor::new(cdag, order, s);
    for (t, &v) in order.iter().enumerate() {
        ex.step(t, v)?;
    }
    // Store any outputs still only in fast memory.
    for &v in &cdag.outputs {
        if ex.game.is_red(v) && !ex.game.is_blue(v) {
            ex.apply(Move::Store(v))?;
        }
    }
    // Re-validate the whole sequence from scratch as a safety net.
    let io = PebbleGame::new(cdag, s).run(&ex.moves)?;
    debug_assert_eq!(io, ex.game.io());
    Ok(ScheduleStats {
        loads: ex.game.loads(),
        stores: ex.game.stores(),
        computes: order.len(),
    })
}

/// Program-order schedule: compute vertices in CDAG creation order.
pub fn simulate_program_order(cdag: &Cdag, s: usize) -> Result<ScheduleStats, PebblingError> {
    let order = cdag.compute_vertices();
    simulate_order(cdag, &order, s)
}

/// Compute vertices grouped by the tile block of their iteration vector:
/// ordered by statement, then block, then iteration.
fn tiled_order(cdag: &Cdag, tiles: &BTreeMap<usize, Vec<i64>>) -> Vec<VertexId> {
    let mut order = cdag.compute_vertices();
    order.sort_by_cached_key(|&v| match &cdag.kinds[v] {
        VertexKind::Compute {
            statement,
            iteration,
            ..
        } => {
            let tile = tiles.get(statement);
            let block: Vec<i64> = iteration
                .iter()
                .enumerate()
                .map(|(d, &x)| match tile.and_then(|t| t.get(d)) {
                    Some(&ts) if ts > 0 => x.div_euclid(ts),
                    _ => 0,
                })
                .collect();
            (*statement, block, iteration.clone())
        }
        VertexKind::Input { .. } => unreachable!("compute_vertices returns compute vertices"),
    });
    order
}

/// Tiled schedule: compute vertices grouped by the tile block of their
/// iteration vector (per-statement tile sizes given by `tiles`, one entry per
/// loop variable in loop order; missing entries default to the full extent).
pub fn simulate_tiled(
    cdag: &Cdag,
    tiles: &BTreeMap<usize, Vec<i64>>,
    s: usize,
) -> Result<ScheduleStats, PebblingError> {
    simulate_order(cdag, &tiled_order(cdag, tiles), s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soap_ir::ProgramBuilder;
    use std::collections::BTreeMap;

    fn mmm_cdag(n: i64) -> Cdag {
        let p = ProgramBuilder::new("gemm")
            .statement(|st| {
                st.loops(&[("i", "0", "N"), ("j", "0", "N"), ("k", "0", "N")])
                    .update("C", "i,j")
                    .read("A", "i,k")
                    .read("B", "k,j")
            })
            .build()
            .unwrap();
        let mut params = BTreeMap::new();
        params.insert("N".to_string(), n);
        Cdag::from_program(&p, &params)
    }

    #[test]
    fn program_order_schedule_is_valid_and_counts_io() {
        let g = mmm_cdag(6);
        let stats = simulate_program_order(&g, 16).unwrap();
        assert_eq!(stats.computes, 216);
        // Compulsory traffic: at least all of A and B loaded once and all of C
        // stored once.
        assert!(stats.loads >= 72, "loads {}", stats.loads);
        assert!(stats.stores >= 36, "stores {}", stats.stores);
    }

    #[test]
    fn tiled_schedule_beats_program_order_with_small_cache() {
        let g = mmm_cdag(8);
        let s = 24;
        let naive = simulate_program_order(&g, s).unwrap();
        // Tile i,j,k by 2x2x8 — roughly the sqrt(S/3)-shaped tile.
        let mut tiles = BTreeMap::new();
        tiles.insert(0usize, vec![2, 2, 8]);
        let tiled = simulate_tiled(&g, &tiles, s).unwrap();
        assert!(
            tiled.io() <= naive.io(),
            "tiled {} should not exceed naive {}",
            tiled.io(),
            naive.io()
        );
    }

    #[test]
    fn larger_cache_never_hurts() {
        let g = mmm_cdag(6);
        let small = simulate_program_order(&g, 8).unwrap();
        let large = simulate_program_order(&g, 64).unwrap();
        assert!(large.io() <= small.io());
    }

    #[test]
    fn budget_below_the_widest_vertex_is_rejected_up_front() {
        // Every gemm update reads A, B and the previous C: four red pebbles.
        let g = mmm_cdag(3);
        match simulate_program_order(&g, 3) {
            Err(PebblingError::RedBudgetExceeded { vertex, budget }) => {
                assert_eq!(budget, 3);
                assert_eq!(g.parents(vertex).len(), 3);
            }
            other => panic!("expected RedBudgetExceeded, got {other:?}"),
        }
        assert!(simulate_program_order(&g, 4).is_ok());
    }

    #[test]
    fn copy_chain_needs_only_two_red_pebbles() {
        let p = ProgramBuilder::new("chain")
            .statement(|st| st.loops(&[("i", "0", "N")]).write("B", "i").read("A", "i"))
            .statement(|st| st.loops(&[("i", "0", "N")]).write("C", "i").read("B", "i"))
            .build()
            .unwrap();
        let mut params = BTreeMap::new();
        params.insert("N".to_string(), 4i64);
        let g = Cdag::from_program(&p, &params);
        let stats = simulate_program_order(&g, 2).unwrap();
        assert_eq!(stats.computes, 8);
        // A is loaded once; B and C are stored once as outputs, and every
        // B is loaded back once for its C.
        assert_eq!((stats.loads, stats.stores), (8, 8));
    }

    #[test]
    fn tiles_block_negative_coordinates_by_floor() {
        let p = ProgramBuilder::new("shifted")
            .statement(|st| {
                st.loops(&[("i", "-N", "N"), ("j", "0", "2")])
                    .write("B", "i,j")
                    .read("A", "i,j")
            })
            .build()
            .unwrap();
        let mut params = BTreeMap::new();
        params.insert("N".to_string(), 3i64);
        let g = Cdag::from_program(&p, &params);
        let mut tiles = BTreeMap::new();
        tiles.insert(0usize, vec![2, 1]);
        let order: Vec<Vec<i64>> = tiled_order(&g, &tiles)
            .into_iter()
            .map(|v| match &g.kinds[v] {
                VertexKind::Compute { iteration, .. } => iteration.clone(),
                VertexKind::Input { .. } => unreachable!(),
            })
            .collect();
        // Tiles of 2 along i start at even i: [-4, -2), [-2, 0), [0, 2), [2, 4).
        let expected: Vec<Vec<i64>> = [
            [-3, 0],
            [-3, 1],
            [-2, 0],
            [-1, 0],
            [-2, 1],
            [-1, 1],
            [0, 0],
            [1, 0],
            [0, 1],
            [1, 1],
            [2, 0],
            [2, 1],
        ]
        .iter()
        .map(|x| x.to_vec())
        .collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn io_is_at_least_compulsory_traffic() {
        let g = mmm_cdag(5);
        let stats = simulate_program_order(&g, 12).unwrap();
        // 25 A + 25 B + 25 C_init loads minimum, 25 C stores minimum.
        assert!(stats.io() >= 50 + 25);
    }
}
