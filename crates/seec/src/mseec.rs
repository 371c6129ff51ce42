//! mSEEC: multiple simultaneous seekers over column partitions (§3.8).
//!
//! Partitions are the mesh columns, groups are the rows (Fig 5). In phase
//! `p`, the NICs of row `p` are active; in step `s` of that phase, the NIC
//! in column `j` seeks within column `(j + s) mod k`. Seekers travel along
//! row `p` to their target column, then sweep the column; FF packets return
//! column-first. The paper guarantees non-intersection with a static
//! schedule; here the same invariant is enforced structurally by the
//! space-time reservation table (a flight that would cross another's path
//! is delayed by the bounded residual occupancy — see DESIGN.md).

use crate::turn::{Controller, Schedule, Stop};
use noc_types::{Coord, Cycle, MessageClass, NetConfig, NodeId, SchemeKind};

/// The mSEEC mechanism: one concurrent engine per column, phase/step
/// schedule.
pub type MSeecMechanism = Controller<Columns>;

/// The mSEEC schedule: engine `j` is the NIC of column `j` in the active
/// row; each serves its classes in order, then all wait for the slowest
/// before the partitions rotate.
pub struct Columns {
    cols: u8,
    rows: u8,
    classes: u8,
    /// Active group (row).
    phase: u8,
    /// Step within the phase: engine `j` searches column `(j+step) % cols`.
    step: u8,
    /// Per engine: the class it serves next in this step.
    cursor: Vec<u8>,
}

impl Schedule for Columns {
    const KIND: SchemeKind = SchemeKind::MSeec;
    /// Column-first flights stay in the partition as long as possible.
    const COLUMN_FIRST: bool = true;

    fn new(cfg: &NetConfig) -> Columns {
        assert!(
            cfg.cols >= 2 && cfg.rows >= 2,
            "mSEEC needs at least a 2x2 mesh"
        );
        Columns {
            cols: cfg.cols,
            rows: cfg.rows,
            classes: cfg.classes,
            phase: 0,
            step: 0,
            cursor: vec![0; cfg.cols as usize],
        }
    }

    fn engines(&self) -> usize {
        self.cols as usize
    }

    fn seek_time(&self) -> Cycle {
        Cycle::from(self.cols) * Cycle::from(self.rows)
    }

    fn turn(&self, e: usize) -> (NodeId, MessageClass) {
        let origin = Coord::new(e as u8, self.phase).to_node(self.cols);
        (origin, MessageClass(self.cursor[e]))
    }

    fn advance(&mut self, e: usize) -> bool {
        self.cursor[e] += 1;
        self.cursor[e] < self.classes
    }

    /// From the origin along row `phase` to the target column, up to the
    /// column's top, then down to its bottom (revisits are transit-cheap).
    /// Only the target column and the origin are searched: row-transit
    /// routers belong to other engines' turf.
    fn walk(&self, e: usize) -> Vec<Stop> {
        let (j, p) = (e as u8, self.phase);
        let c = (j + self.step) % self.cols;
        let stop = |x, y| {
            let node = Coord::new(x, y).to_node(self.cols);
            (node, x == c || (x, y) == (j, p))
        };
        let mut x = j;
        let mut walk = vec![stop(j, p)];
        while x != c {
            x = if c > x { x + 1 } else { x - 1 };
            walk.push(stop(x, p));
        }
        walk.extend((0..p).rev().map(|y| stop(c, y)));
        walk.extend((0..self.rows).map(|y| stop(c, y)));
        walk
    }

    /// Everyone finished the step: rotate partitions, then groups.
    fn barrier(&mut self) {
        self.step += 1;
        if self.step == self.cols {
            self.step = 0;
            self.phase = (self.phase + 1) % self.rows;
        }
        self.cursor.fill(0);
    }

    fn describe(&self) -> String {
        format!(
            "mseec phase={} step={} cursors={:?}",
            self.phase, self.step, self.cursor
        )
    }
}
