//! Minimal routing functions on the mesh.
//!
//! These are pure: they compute the set of *legal* next-hop directions for a
//! routing algorithm; the router combines them with downstream credit state
//! and the RNG to pick one (adaptive = weighted by free VCs, oblivious =
//! uniform random, deterministic = single candidate).

use crate::fault::RouteMask;
use noc_types::{BaseRouting, Coord, Direction};

/// A small fixed-capacity set of candidate directions (a minimal route on a
/// mesh never has more than two productive directions, but west-first can be
/// given non-minimal candidates by forced moves, so capacity is four).
#[derive(Clone, Copy, Debug)]
pub struct Candidates {
    dirs: [Direction; 4],
    len: u8,
}

impl Candidates {
    pub const EMPTY: Candidates = Candidates {
        dirs: [Direction::Local; 4],
        len: 0,
    };

    pub fn push(&mut self, d: Direction) {
        debug_assert!((self.len as usize) < 4);
        self.dirs[self.len as usize] = d;
        self.len += 1;
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn contains(&self, d: Direction) -> bool {
        self.as_slice().contains(&d)
    }

    pub fn as_slice(&self) -> &[Direction] {
        &self.dirs[..self.len as usize]
    }
}

impl FromIterator<Direction> for Candidates {
    fn from_iter<T: IntoIterator<Item = Direction>>(iter: T) -> Self {
        let mut c = Candidates::EMPTY;
        for d in iter {
            c.push(d);
        }
        c
    }
}

/// The productive (distance-reducing) directions from `from` toward `to`
/// as a bitmask over [`Direction::index`]. Zero when `from == to`.
#[inline]
pub fn productive_mask(from: Coord, to: Coord) -> u8 {
    use std::cmp::Ordering::{Greater, Less};
    let bit = |d: Direction| 1u8 << d.index();
    let x = match to.x.cmp(&from.x) {
        Greater => bit(Direction::East),
        Less => bit(Direction::West),
        _ => 0,
    };
    let y = match to.y.cmp(&from.y) {
        Greater => bit(Direction::South),
        Less => bit(Direction::North),
        _ => 0,
    };
    x | y
}

/// The productive directions from `from` toward `to`, x direction first.
/// Empty when `from == to` (the packet ejects locally).
pub fn productive(from: Coord, to: Coord) -> Candidates {
    let m = productive_mask(from, to);
    [
        Direction::East,
        Direction::West,
        Direction::South,
        Direction::North,
    ]
    .into_iter()
    .filter(|d| m & (1 << d.index()) != 0)
    .collect()
}

/// Dimension-ordered XY: all X hops, then all Y hops. Deterministic and
/// deadlock-free.
pub fn xy(from: Coord, to: Coord) -> Candidates {
    let mut c = Candidates::EMPTY;
    if to.x > from.x {
        c.push(Direction::East);
    } else if to.x < from.x {
        c.push(Direction::West);
    } else if to.y > from.y {
        c.push(Direction::South);
    } else if to.y < from.y {
        c.push(Direction::North);
    }
    c
}

/// West-first turn model: if the destination lies to the west, the packet
/// must route west first (single candidate); otherwise it may route
/// adaptively among the remaining productive directions (E/N/S). Deadlock-
/// free: no turn into West ever occurs after a non-West hop.
pub fn west_first(from: Coord, to: Coord) -> Candidates {
    if to.x < from.x {
        let mut c = Candidates::EMPTY;
        c.push(Direction::West);
        c
    } else {
        productive(from, to)
    }
}

/// Candidate directions for `algo` from `from` toward `to`. For the two
/// random algorithms this is the full productive set; the adaptive/oblivious
/// distinction is in how the router *chooses* among them.
pub fn candidates(algo: BaseRouting, from: Coord, to: Coord) -> Candidates {
    match algo {
        BaseRouting::Xy => xy(from, to),
        BaseRouting::WestFirst => west_first(from, to),
        BaseRouting::ObliviousMinimal | BaseRouting::AdaptiveMinimal => productive(from, to),
    }
}

/// Candidate directions for `algo` on a degraded mesh: the mask's live
/// distance-decreasing directions intersected with `algo`'s own, or the mask
/// alone when that intersection is empty (the detour case). The router and
/// the `noc-verify` certifier both route by this one rule.
pub fn masked_candidates(
    algo: BaseRouting,
    mask: &RouteMask,
    from: Coord,
    to: Coord,
) -> Candidates {
    let masked = mask.candidates(from, to);
    let both: Candidates = candidates(algo, from, to)
        .as_slice()
        .iter()
        .copied()
        .filter(|d| masked.contains(*d))
        .collect();
    if both.is_empty() {
        masked
    } else {
        both
    }
}

/// The full minimal path from `from` to `to` in XY order, excluding `from`,
/// including `to`. Used for Free-Flow path construction and tests.
pub fn xy_path(from: Coord, to: Coord) -> Vec<Coord> {
    let mut path = Vec::with_capacity(from.manhattan(to) as usize);
    let mut cur = from;
    while cur.x != to.x {
        cur.x = if to.x > cur.x { cur.x + 1 } else { cur.x - 1 };
        path.push(cur);
    }
    while cur.y != to.y {
        cur.y = if to.y > cur.y { cur.y + 1 } else { cur.y - 1 };
        path.push(cur);
    }
    path
}

/// The direction of the single hop from `a` to adjacent `b`, or `None` when
/// the coordinates are not mesh neighbours.
pub fn try_hop_dir(a: Coord, b: Coord) -> Option<Direction> {
    if b.x == a.x + 1 && b.y == a.y {
        Some(Direction::East)
    } else if a.x == b.x + 1 && b.y == a.y {
        Some(Direction::West)
    } else if b.y == a.y + 1 && b.x == a.x {
        Some(Direction::South)
    } else if a.y == b.y + 1 && b.x == a.x {
        Some(Direction::North)
    } else {
        None
    }
}

/// The direction of the single hop from `a` to adjacent `b`.
///
/// # Panics
/// Panics if `a` and `b` are not mesh neighbours; use [`try_hop_dir`] when
/// adjacency is not already guaranteed.
pub fn hop_dir(a: Coord, b: Coord) -> Direction {
    match try_hop_dir(a, b) {
        Some(d) => d,
        None => panic!("{a} and {b} are not neighbours"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::NodeId;

    const fn c(x: u8, y: u8) -> Coord {
        Coord::new(x, y)
    }

    #[test]
    fn productive_covers_both_dims() {
        let p = productive(c(1, 1), c(3, 0));
        assert_eq!(p.len(), 2);
        assert!(p.contains(Direction::East));
        assert!(p.contains(Direction::North));
        assert!(productive(c(2, 2), c(2, 2)).is_empty());
    }

    #[test]
    fn productive_mask_matches_productive_on_every_pair() {
        for (cols, rows) in [(8u8, 8u8), (3, 5)] {
            for f in 0..u16::from(cols) * u16::from(rows) {
                for t in 0..u16::from(cols) * u16::from(rows) {
                    let (from, to) = (NodeId(f).to_coord(cols), NodeId(t).to_coord(cols));
                    let set = productive(from, to);
                    let bits = set.as_slice().iter().fold(0u8, |m, d| m | 1 << d.index());
                    assert_eq!(productive_mask(from, to), bits, "{from} -> {to}");
                    // And both are the distance-reducing hops.
                    let closer = Direction::CARDINAL
                        .into_iter()
                        .filter(|d| {
                            d.step(from, cols, rows)
                                .is_some_and(|n| n.manhattan(to) < from.manhattan(to))
                        })
                        .fold(0u8, |m, d| m | 1 << d.index());
                    assert_eq!(bits, closer, "{from} -> {to}");
                }
            }
        }
    }

    #[test]
    fn productive_lists_x_before_y() {
        use Direction::{East, North, South, West};
        assert_eq!(productive(c(1, 1), c(3, 0)).as_slice(), &[East, North]);
        assert_eq!(productive(c(3, 0), c(1, 2)).as_slice(), &[West, South]);
        assert_eq!(productive(c(2, 0), c(2, 3)).as_slice(), &[South]);
        assert_eq!(productive(c(2, 3), c(0, 3)).as_slice(), &[West]);
    }

    #[test]
    fn network_coords_table_matches_to_coord() {
        let mut cfg = noc_types::NetConfig::synth(4, 2);
        (cfg.cols, cfg.rows) = (5, 3);
        let net = crate::network::Network::new(cfg);
        assert_eq!(net.coords.len(), 15);
        for (i, &at) in net.coords.iter().enumerate() {
            assert_eq!(at, NodeId(i as u16).to_coord(5), "node {i}");
        }
    }

    #[test]
    fn xy_is_deterministic_x_then_y() {
        assert_eq!(xy(c(0, 0), c(2, 2)).as_slice(), &[Direction::East]);
        assert_eq!(xy(c(2, 0), c(2, 2)).as_slice(), &[Direction::South]);
        assert_eq!(xy(c(3, 3), c(1, 1)).as_slice(), &[Direction::West]);
        assert!(xy(c(1, 1), c(1, 1)).is_empty());
    }

    #[test]
    fn west_first_forces_west() {
        assert_eq!(west_first(c(3, 1), c(0, 3)).as_slice(), &[Direction::West]);
        let adaptive = west_first(c(0, 0), c(2, 3));
        assert_eq!(adaptive.len(), 2);
        assert!(adaptive.contains(Direction::East));
        assert!(adaptive.contains(Direction::South));
    }

    #[test]
    fn west_first_never_turns_into_west_late() {
        // Walk any west-first route greedily; once a non-West hop is taken,
        // West must never reappear as a candidate.
        for sx in 0..4u8 {
            for sy in 0..4u8 {
                for dx in 0..4u8 {
                    for dy in 0..4u8 {
                        let (mut cur, dst) = (c(sx, sy), c(dx, dy));
                        let mut gone_nonwest = false;
                        while cur != dst {
                            let cand = west_first(cur, dst);
                            assert!(!cand.is_empty());
                            if gone_nonwest {
                                assert!(!cand.contains(Direction::West));
                            }
                            let d = cand.as_slice()[0];
                            if d != Direction::West {
                                gone_nonwest = true;
                            }
                            cur = d.step(cur, 4, 4).unwrap();
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn xy_path_reaches_destination_minimally() {
        let from = c(1, 3);
        let to = c(3, 0);
        let path = xy_path(from, to);
        assert_eq!(path.len() as u32, from.manhattan(to));
        assert_eq!(*path.last().unwrap(), to);
        // consecutive entries are neighbours
        let mut prev = from;
        for &p in &path {
            assert_eq!(prev.manhattan(p), 1);
            prev = p;
        }
    }

    #[test]
    fn hop_dir_matches_step() {
        let a = c(2, 2);
        for d in Direction::CARDINAL {
            let b = d.step(a, 5, 5).unwrap();
            assert_eq!(hop_dir(a, b), d);
        }
    }
}
