//! The red-blue pebble game (Hong & Kung) on an explicit CDAG.

use crate::cdag::Cdag;
use crate::cdag::VertexId;
use soap_bitset::BitSet;

/// One pebbling move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Move {
    /// Place a red pebble on a vertex carrying a blue pebble (a load).
    Load(VertexId),
    /// Place a blue pebble on a vertex carrying a red pebble (a store).
    Store(VertexId),
    /// Place a red pebble on a vertex whose parents all carry red pebbles.
    Compute(VertexId),
    /// Remove the red pebble from a vertex.
    DiscardRed(VertexId),
}

/// Errors raised while validating a pebbling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PebblingError {
    /// A load targeted a vertex without a blue pebble.
    LoadWithoutBlue(VertexId),
    /// A store targeted a vertex without a red pebble.
    StoreWithoutRed(VertexId),
    /// A compute targeted a vertex whose parents are not all red.
    MissingOperands(VertexId),
    /// A discard targeted a vertex without a red pebble.
    DiscardWithoutRed(VertexId),
    /// The number of red pebbles exceeded the budget `S`.
    RedBudgetExceeded {
        /// The offending vertex.
        vertex: VertexId,
        /// The budget.
        budget: usize,
    },
    /// At the end of the game some program output lacks a blue pebble.
    OutputsNotStored(Vec<VertexId>),
}

/// The state of a red-blue pebble game played on a [`Cdag`] with a red-pebble
/// budget of `S`.
///
/// The red and blue pebble sets are bitsets indexed by vertex id, so every
/// rule check in [`PebbleGame::apply`] is a constant-time bit probe and a
/// whole-game validation costs O(moves · degree).
#[derive(Clone, Debug)]
pub struct PebbleGame<'a> {
    cdag: &'a Cdag,
    budget: usize,
    red: BitSet,
    blue: BitSet,
    reds_in_use: usize,
    loads: usize,
    stores: usize,
}

impl<'a> PebbleGame<'a> {
    /// Start a game: all program inputs carry blue pebbles.
    pub fn new(cdag: &'a Cdag, budget: usize) -> Self {
        let mut blue = BitSet::new(cdag.len());
        for v in cdag.inputs() {
            blue.insert(v);
        }
        PebbleGame {
            cdag,
            budget,
            red: BitSet::new(cdag.len()),
            blue,
            reds_in_use: 0,
            loads: 0,
            stores: 0,
        }
    }

    /// Number of load moves so far.
    pub fn loads(&self) -> usize {
        self.loads
    }

    /// Number of store moves so far.
    pub fn stores(&self) -> usize {
        self.stores
    }

    /// Total I/O cost so far.
    pub fn io(&self) -> usize {
        self.loads + self.stores
    }

    /// Current number of red pebbles.
    pub fn reds_in_use(&self) -> usize {
        self.reds_in_use
    }

    /// True if the vertex currently carries a red pebble.
    pub fn is_red(&self, v: VertexId) -> bool {
        self.red.contains(v)
    }

    /// True if the vertex currently carries a blue pebble.
    pub fn is_blue(&self, v: VertexId) -> bool {
        self.blue.contains(v)
    }

    /// Apply one move, validating the game rules.
    pub fn apply(&mut self, mv: Move) -> Result<(), PebblingError> {
        match mv {
            Move::Load(v) => {
                if !self.blue.contains(v) {
                    return Err(PebblingError::LoadWithoutBlue(v));
                }
                self.place_red(v)?;
                self.loads += 1;
            }
            Move::Store(v) => {
                if !self.red.contains(v) {
                    return Err(PebblingError::StoreWithoutRed(v));
                }
                self.blue.insert(v);
                self.stores += 1;
            }
            Move::Compute(v) => {
                if !self.cdag.parents(v).iter().all(|&p| self.red.contains(p)) {
                    return Err(PebblingError::MissingOperands(v));
                }
                self.place_red(v)?;
            }
            Move::DiscardRed(v) => {
                if !self.red.remove(v) {
                    return Err(PebblingError::DiscardWithoutRed(v));
                }
                self.reds_in_use -= 1;
            }
        }
        Ok(())
    }

    fn place_red(&mut self, v: VertexId) -> Result<(), PebblingError> {
        if !self.red.contains(v) && self.reds_in_use >= self.budget {
            return Err(PebblingError::RedBudgetExceeded {
                vertex: v,
                budget: self.budget,
            });
        }
        if self.red.insert(v) {
            self.reds_in_use += 1;
        }
        Ok(())
    }

    /// Apply a whole move sequence, then check that every program output
    /// carries a blue pebble.  Returns the total I/O cost.
    pub fn run(&mut self, moves: &[Move]) -> Result<usize, PebblingError> {
        for &mv in moves {
            self.apply(mv)?;
        }
        let missing: Vec<VertexId> = self
            .cdag
            .outputs
            .iter()
            .copied()
            .filter(|&v| !self.blue.contains(v))
            .collect();
        if missing.is_empty() {
            Ok(self.io())
        } else {
            Err(PebblingError::OutputsNotStored(missing))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdag::Cdag;
    use soap_ir::ProgramBuilder;
    use std::collections::BTreeMap;

    fn tiny_chain() -> Cdag {
        // B[i] = A[i]; C[i] = B[i]  for i in 0..2
        let p = ProgramBuilder::new("chain")
            .statement(|st| st.loops(&[("i", "0", "N")]).write("B", "i").read("A", "i"))
            .statement(|st| st.loops(&[("i", "0", "N")]).write("C", "i").read("B", "i"))
            .build()
            .unwrap();
        let mut params = BTreeMap::new();
        params.insert("N".to_string(), 2i64);
        Cdag::from_program(&p, &params)
    }

    #[test]
    fn legal_sequence_counts_io() {
        let g = tiny_chain();
        let mut game = PebbleGame::new(&g, 3);
        // Work element by element: load A[i], compute B[i], compute C[i], store C[i].
        let mut moves = Vec::new();
        let computes = g.compute_vertices();
        // computes are ordered: B[0], B[1], C[0], C[1]; inputs A[0], A[1].
        let a: Vec<_> = g.inputs();
        for i in 0..2 {
            moves.push(Move::Load(a[i]));
            moves.push(Move::Compute(computes[i])); // B[i]
            moves.push(Move::DiscardRed(a[i]));
            moves.push(Move::Compute(computes[2 + i])); // C[i]
            moves.push(Move::Store(computes[2 + i]));
            moves.push(Move::DiscardRed(computes[i]));
            moves.push(Move::DiscardRed(computes[2 + i]));
        }
        // B is never stored, which is fine: only C's final versions are outputs
        // of this CDAG... but note B elements are also "latest versions" of B,
        // so they are outputs too and must be stored.
        for i in 0..2 {
            // replay storing B as well
            moves.push(Move::Load(a[i]));
            moves.push(Move::Compute(computes[i]));
            moves.push(Move::Store(computes[i]));
            moves.push(Move::DiscardRed(a[i]));
            moves.push(Move::DiscardRed(computes[i]));
        }
        let io = game.run(&moves).expect("legal pebbling");
        assert_eq!(io, game.loads() + game.stores());
        assert!(game.loads() >= 2 && game.stores() >= 4);
    }

    #[test]
    fn compute_requires_red_parents() {
        let g = tiny_chain();
        let mut game = PebbleGame::new(&g, 2);
        let computes = g.compute_vertices();
        assert_eq!(
            game.apply(Move::Compute(computes[0])),
            Err(PebblingError::MissingOperands(computes[0]))
        );
    }

    #[test]
    fn red_budget_is_enforced() {
        let g = tiny_chain();
        let mut game = PebbleGame::new(&g, 1);
        let inputs = g.inputs();
        game.apply(Move::Load(inputs[0])).unwrap();
        assert!(matches!(
            game.apply(Move::Load(inputs[1])),
            Err(PebblingError::RedBudgetExceeded { .. })
        ));
    }

    #[test]
    fn load_requires_blue() {
        let g = tiny_chain();
        let mut game = PebbleGame::new(&g, 4);
        let computes = g.compute_vertices();
        assert_eq!(
            game.apply(Move::Load(computes[0])),
            Err(PebblingError::LoadWithoutBlue(computes[0]))
        );
    }

    #[test]
    fn store_requires_red() {
        let g = tiny_chain();
        let mut game = PebbleGame::new(&g, 4);
        let inputs = g.inputs();
        assert_eq!(
            game.apply(Move::Store(inputs[0])),
            Err(PebblingError::StoreWithoutRed(inputs[0]))
        );
        game.apply(Move::Load(inputs[0])).unwrap();
        assert_eq!(game.apply(Move::Store(inputs[0])), Ok(()));
    }

    #[test]
    fn discard_requires_red() {
        let g = tiny_chain();
        let mut game = PebbleGame::new(&g, 4);
        let inputs = g.inputs();
        game.apply(Move::Load(inputs[0])).unwrap();
        game.apply(Move::DiscardRed(inputs[0])).unwrap();
        assert_eq!(
            game.apply(Move::DiscardRed(inputs[0])),
            Err(PebblingError::DiscardWithoutRed(inputs[0]))
        );
        assert_eq!(game.reds_in_use(), 0);
    }

    #[test]
    fn missing_outputs_are_reported() {
        let g = tiny_chain();
        let mut game = PebbleGame::new(&g, 4);
        assert!(matches!(
            game.run(&[]),
            Err(PebblingError::OutputsNotStored(_))
        ));
    }
}
