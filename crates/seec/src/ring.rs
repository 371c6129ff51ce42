//! The seeker side-band path: a closed walk over all routers.
//!
//! The paper embeds the seeker path as a ring through every router (§3.3,
//! Fig 3). On a mesh we use a boustrophedon (snake) sweep followed by a
//! return segment to the start; the return segment revisits some routers,
//! which is harmless — the seeker simply transits them.

use noc_types::{Coord, NodeId};

/// A closed walk over all routers of a `cols`×`rows` mesh: consecutive
/// entries are mesh neighbours and the last entry is a neighbour of the
/// first. Every router appears at least once.
#[derive(Clone, Debug)]
pub struct SeekerRing {
    seq: Vec<NodeId>,
    /// First occurrence of each node in `seq`.
    first_pos: Vec<usize>,
}

impl SeekerRing {
    /// Builds the snake-plus-return ring.
    pub fn new(cols: u8, rows: u8) -> SeekerRing {
        assert!(cols >= 2 && rows >= 1, "ring needs at least a 2x1 mesh");
        let mut seq = Vec::new();
        // Boustrophedon sweep.
        for y in 0..rows {
            if y % 2 == 0 {
                for x in 0..cols {
                    seq.push(Coord::new(x, y).to_node(cols));
                }
            } else {
                for x in (0..cols).rev() {
                    seq.push(Coord::new(x, y).to_node(cols));
                }
            }
        }
        // Return toward (0,0): walk up the ending column, then west along
        // row 0, stopping one hop short of the start so the walk closes with
        // a single hop (no duplicate of the start node).
        let end = seq
            .last()
            .expect("the serpentine walk visits at least row zero")
            .to_coord(cols);
        let stop_y = if end.x == 0 { 1 } else { 0 };
        for y in (stop_y..end.y).rev() {
            seq.push(Coord::new(end.x, y).to_node(cols));
        }
        if end.x > 0 {
            for x in (1..end.x).rev() {
                seq.push(Coord::new(x, 0).to_node(cols));
            }
        }
        // `seq` now ends adjacent to (0,0) (or at it for 1-row meshes, where
        // the snake ends on row 0 already).
        let n = cols as usize * rows as usize;
        let mut first_pos = vec![usize::MAX; n];
        for (i, &node) in seq.iter().enumerate() {
            if first_pos[node.idx()] == usize::MAX {
                first_pos[node.idx()] = i;
            }
        }
        debug_assert!(first_pos.iter().all(|&p| p != usize::MAX));
        SeekerRing { seq, first_pos }
    }

    /// Length of the walk in hops (one full seeker revolution).
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Router at walk position `pos` (wraps around).
    pub fn at(&self, pos: usize) -> NodeId {
        self.seq[pos % self.seq.len()]
    }

    /// First position of `node` in the walk.
    pub fn position_of(&self, node: NodeId) -> usize {
        self.first_pos[node.idx()]
    }

    /// The underlying sequence.
    pub fn seq(&self) -> &[NodeId] {
        &self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_valid_ring(cols: u8, rows: u8) {
        let ring = SeekerRing::new(cols, rows);
        let n = cols as usize * rows as usize;
        // Visits every router.
        let mut seen = vec![false; n];
        for &node in ring.seq() {
            seen[node.idx()] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "{cols}x{rows}: ring misses routers"
        );
        // Consecutive entries (cyclically) are neighbours.
        for i in 0..ring.len() {
            let a = ring.at(i).to_coord(cols);
            let b = ring.at(i + 1).to_coord(cols);
            assert_eq!(a.manhattan(b), 1, "{cols}x{rows}: {a}->{b} not a hop");
        }
    }

    #[test]
    fn rings_are_valid_closed_walks() {
        for k in [2u8, 3, 4, 8, 16] {
            assert_valid_ring(k, k);
        }
        assert_valid_ring(4, 2);
        assert_valid_ring(2, 4);
    }

    #[test]
    fn ring_starts_at_origin() {
        let ring = SeekerRing::new(4, 4);
        assert_eq!(ring.at(0), NodeId(0));
        assert_eq!(ring.position_of(NodeId(0)), 0);
    }

    #[test]
    fn walking_full_length_covers_all_from_any_offset() {
        let ring = SeekerRing::new(4, 4);
        for start in 0..ring.len() {
            let mut seen = [false; 16];
            for i in 0..ring.len() {
                seen[ring.at(start + i).idx()] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }
}
