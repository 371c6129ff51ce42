//! Base SEEC: one seeker, one Free-Flow packet at a time.

use crate::ring::SeekerRing;
use crate::turn::{Controller, Schedule, Stop};
use noc_types::{Cycle, MessageClass, NetConfig, NodeId, SchemeKind};

/// Base SEEC: a single global round-robin token over (NIC, message class)
/// pairs; the holder reserves an ejection VC, circulates a seeker over the
/// ring, and — on a find — launches exactly one Free-Flow packet.
pub type SeecMechanism = Controller<Ring>;

/// The base SEEC schedule: one engine, the global token, the ring walk, XY
/// flights.
pub struct Ring {
    ring: SeekerRing,
    /// Where the seeker-turn token sits: NIC × message class.
    token: (usize, u8),
    /// Per (NIC, class): ring position after the router that produced the
    /// last FF packet — where the next search begins (round-robin fairness,
    /// §3.3's `<router-id, inport-id>` tracker).
    search_start: Vec<usize>,
    nodes: usize,
    classes: u8,
}

impl Ring {
    fn slot(&self) -> usize {
        self.token.0 * self.classes as usize + self.token.1 as usize
    }
}

impl Schedule for Ring {
    const KIND: SchemeKind = SchemeKind::Seec;
    const COLUMN_FIRST: bool = false;

    fn new(cfg: &NetConfig) -> Ring {
        Ring {
            ring: SeekerRing::new(cfg.cols, cfg.rows),
            token: (0, 0),
            search_start: vec![0; cfg.num_nodes() * cfg.classes as usize],
            nodes: cfg.num_nodes(),
            classes: cfg.classes,
        }
    }

    fn engines(&self) -> usize {
        1
    }

    fn seek_time(&self) -> Cycle {
        self.ring.len() as Cycle
    }

    fn turn(&self, _e: usize) -> (NodeId, MessageClass) {
        (NodeId(self.token.0 as u16), MessageClass(self.token.1))
    }

    /// Moves the token to the next (class, then NIC) position.
    fn advance(&mut self, _e: usize) -> bool {
        self.token.1 += 1;
        if self.token.1 == self.classes {
            self.token = ((self.token.0 + 1) % self.nodes, 0);
        }
        true
    }

    /// Transit, without searching, from the origin to the slot's round-robin
    /// start position; then search one full revolution.
    fn walk(&self, _e: usize) -> Vec<Stop> {
        let len = self.ring.len();
        let from = self.ring.position_of(NodeId(self.token.0 as u16));
        let transit = (self.search_start[self.slot()] + len - from) % len;
        (0..transit + len)
            .map(|i| (self.ring.at(from + i), i >= transit))
            .collect()
    }

    fn found(&mut self, _e: usize, at: NodeId) {
        let slot = self.slot();
        self.search_start[slot] = (self.ring.position_of(at) + 1) % self.ring.len();
    }

    fn describe(&self) -> String {
        format!("seec token=(nic {}, class {})", self.token.0, self.token.1)
    }
}
