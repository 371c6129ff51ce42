//! Synthetic traffic patterns (Garnet-compatible definitions).

use noc_types::{Coord, NodeId};
use rand::rngs::SmallRng;
use rand::Rng;

/// A synthetic destination pattern on a `cols`×`rows` mesh.
///
/// Bit-permutation patterns (`BitRotation`, `Shuffle`, `BitComplement`)
/// operate on the `log2(N)`-bit node id and therefore require a
/// power-of-two node count, as in Garnet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrafficPattern {
    /// Destination drawn uniformly among all other nodes.
    UniformRandom,
    /// `(x, y) → (y, x)`.
    Transpose,
    /// Rotate the node-id bits right by one.
    BitRotation,
    /// Rotate the node-id bits left by one (perfect shuffle).
    Shuffle,
    /// Complement every node-id bit.
    BitComplement,
    /// Half-way around the ring in X: `x → (x + ⌈k/2⌉ - 1) mod k`.
    Tornado,
    /// Nearest neighbour in X: `x → (x + 1) mod k`.
    Neighbor,
    /// A fraction of traffic targets node 0 (the hotspot), the rest is
    /// uniform random. Percentage is fixed at 10%.
    Hotspot,
}

impl TrafficPattern {
    /// All patterns exercised by the paper's synthetic experiments.
    pub const PAPER: [TrafficPattern; 4] = [
        TrafficPattern::UniformRandom,
        TrafficPattern::Transpose,
        TrafficPattern::BitRotation,
        TrafficPattern::Shuffle,
    ];

    /// Label used in result tables.
    pub fn label(self) -> &'static str {
        match self {
            TrafficPattern::UniformRandom => "uniform_random",
            TrafficPattern::Transpose => "transpose",
            TrafficPattern::BitRotation => "bit_rotation",
            TrafficPattern::Shuffle => "shuffle",
            TrafficPattern::BitComplement => "bit_complement",
            TrafficPattern::Tornado => "tornado",
            TrafficPattern::Neighbor => "neighbor",
            TrafficPattern::Hotspot => "hotspot",
        }
    }

    /// Every pattern, in declaration order.
    pub const ALL: [TrafficPattern; 8] = [
        TrafficPattern::UniformRandom,
        TrafficPattern::Transpose,
        TrafficPattern::BitRotation,
        TrafficPattern::Shuffle,
        TrafficPattern::BitComplement,
        TrafficPattern::Tornado,
        TrafficPattern::Neighbor,
        TrafficPattern::Hotspot,
    ];

    /// Inverse of [`TrafficPattern::label`].
    pub fn from_label(label: &str) -> Result<TrafficPattern, String> {
        TrafficPattern::ALL
            .into_iter()
            .find(|p| p.label() == label)
            .ok_or_else(|| format!("unknown pattern label '{label}'"))
    }

    /// The destination for a packet injected at `src`, or `None` when the
    /// pattern maps `src` to itself (that node does not inject, matching
    /// Garnet). `cols`/`rows` describe the mesh; random patterns use `rng`.
    pub fn dest(self, src: NodeId, cols: u8, rows: u8, rng: &mut SmallRng) -> Option<NodeId> {
        let n = cols as u16 * rows as u16;
        let dest = match self {
            TrafficPattern::UniformRandom => {
                if n < 2 {
                    return None;
                }
                // Uniform among the other n-1 nodes.
                let mut d = rng.gen_range(0..n - 1);
                if d >= src.0 {
                    d += 1;
                }
                NodeId(d)
            }
            TrafficPattern::Transpose => {
                let c = src.to_coord(cols);
                debug_assert_eq!(cols, rows, "transpose needs a square mesh");
                Coord::new(c.y, c.x).to_node(cols)
            }
            TrafficPattern::BitRotation => {
                let bits = log2(n);
                NodeId((src.0 >> 1) | ((src.0 & 1) << (bits - 1)))
            }
            TrafficPattern::Shuffle => {
                let bits = log2(n);
                let mask = n - 1;
                NodeId(((src.0 << 1) | (src.0 >> (bits - 1))) & mask)
            }
            TrafficPattern::BitComplement => {
                let mask = n - 1;
                NodeId(!src.0 & mask)
            }
            TrafficPattern::Tornado => {
                let c = src.to_coord(cols);
                let shift = (cols as u16).div_ceil(2) - 1;
                let x = ((c.x as u16 + shift) % cols as u16) as u8;
                Coord::new(x, c.y).to_node(cols)
            }
            TrafficPattern::Neighbor => {
                let c = src.to_coord(cols);
                let x = ((c.x as u16 + 1) % cols as u16) as u8;
                Coord::new(x, c.y).to_node(cols)
            }
            TrafficPattern::Hotspot => {
                if rng.gen_bool(0.10) && src != NodeId(0) {
                    NodeId(0)
                } else {
                    return TrafficPattern::UniformRandom.dest(src, cols, rows, rng);
                }
            }
        };
        (dest != src).then_some(dest)
    }
}

fn log2(n: u16) -> u16 {
    debug_assert!(n.is_power_of_two(), "bit patterns need power-of-two nodes");
    n.trailing_zeros() as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn uniform_random_never_self_and_covers_nodes() {
        let mut r = rng();
        let mut seen = [false; 16];
        for _ in 0..2000 {
            let d = TrafficPattern::UniformRandom
                .dest(NodeId(5), 4, 4, &mut r)
                .unwrap();
            assert_ne!(d, NodeId(5));
            seen[d.idx()] = true;
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 15);
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let mut r = rng();
        // (1,2) = node 9 on 4x4 → (2,1) = node 6.
        assert_eq!(
            TrafficPattern::Transpose.dest(NodeId(9), 4, 4, &mut r),
            Some(NodeId(6))
        );
        // Diagonal nodes map to themselves → no injection.
        assert_eq!(
            TrafficPattern::Transpose.dest(NodeId(5), 4, 4, &mut r),
            None
        );
    }

    #[test]
    fn bit_rotation_rotates_right() {
        let mut r = rng();
        // 16 nodes, 4 bits: 0b0011 → 0b1001.
        assert_eq!(
            TrafficPattern::BitRotation.dest(NodeId(0b0011), 4, 4, &mut r),
            Some(NodeId(0b1001))
        );
    }

    #[test]
    fn shuffle_rotates_left() {
        let mut r = rng();
        // 0b1001 → 0b0011.
        assert_eq!(
            TrafficPattern::Shuffle.dest(NodeId(0b1001), 4, 4, &mut r),
            Some(NodeId(0b0011))
        );
    }

    #[test]
    fn bit_complement_is_involution() {
        let mut r = rng();
        for s in 0..64u16 {
            if let Some(d) = TrafficPattern::BitComplement.dest(NodeId(s), 8, 8, &mut r) {
                assert_eq!(
                    TrafficPattern::BitComplement.dest(d, 8, 8, &mut r),
                    Some(NodeId(s))
                );
            }
        }
    }

    #[test]
    fn tornado_moves_halfway_in_x() {
        let mut r = rng();
        // 8 wide: shift = 3. (1,0)=node 1 → (4,0)=node 4.
        assert_eq!(
            TrafficPattern::Tornado.dest(NodeId(1), 8, 8, &mut r),
            Some(NodeId(4))
        );
    }

    #[test]
    fn neighbor_wraps_in_x() {
        let mut r = rng();
        assert_eq!(
            TrafficPattern::Neighbor.dest(NodeId(3), 4, 4, &mut r),
            Some(NodeId(0))
        );
    }

    #[test]
    fn patterns_always_stay_on_mesh() {
        let mut r = rng();
        for p in TrafficPattern::ALL {
            for s in 0..64u16 {
                if let Some(d) = p.dest(NodeId(s), 8, 8, &mut r) {
                    assert!(d.0 < 64, "{p:?} left the mesh: {s} → {d}");
                    assert_ne!(d, NodeId(s));
                }
            }
        }
    }

    #[test]
    fn from_label_round_trips_all_eight_patterns() {
        let mut labels: Vec<&str> = TrafficPattern::ALL.iter().map(|p| p.label()).collect();
        for p in TrafficPattern::ALL {
            assert_eq!(TrafficPattern::from_label(p.label()), Ok(p));
        }
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 8, "labels must be unique");
        assert_eq!(
            TrafficPattern::from_label("Transpose").unwrap_err(),
            "unknown pattern label 'Transpose'"
        );
        assert_eq!(
            TrafficPattern::from_label("").unwrap_err(),
            "unknown pattern label ''"
        );
    }
}
