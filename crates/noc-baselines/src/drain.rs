//! DRAIN (Parasar et al., HPCA '20) — subactive deadlock freedom via
//! periodic network-wide packet movement along an embedded Hamiltonian ring.
//!
//! Every `period` cycles (the artifact's `--spin-freq=1024`), a *drain
//! event* moves blocked packets one hop along the ring, obliviously — i.e.
//! regardless of where they want to go. Any routing-dependency cycle is
//! perturbed, so deadlocks dissolve without detection; the cost is periodic
//! misrouting, which shows up as DRAIN's elevated link energy and the worst
//! tail latency in the paper's Figs 11 and 15.

use noc_sim::network::Network;
use noc_sim::Mechanism;
use noc_types::{Cycle, Flit, NodeId, SchemeKind, NUM_PORTS};
use seec_ring::ring_successors;

/// Ring construction shared with the seec crate's seeker path concept but
/// kept dependency-free: boustrophedon successor mapping.
mod seec_ring {
    use noc_types::{Coord, NodeId};

    /// For each node, its successor along a Hamiltonian-ish ring (snake plus
    /// wrap through the first column).
    pub fn ring_successors(cols: u8, rows: u8) -> Vec<NodeId> {
        let n = cols as usize * rows as usize;
        let mut order = Vec::with_capacity(n);
        for y in 0..rows {
            if y % 2 == 0 {
                for x in 0..cols {
                    order.push(Coord::new(x, y).to_node(cols));
                }
            } else {
                for x in (0..cols).rev() {
                    order.push(Coord::new(x, y).to_node(cols));
                }
            }
        }
        let mut succ = vec![NodeId(0); n];
        for i in 0..n {
            succ[order[i].idx()] = order[(i + 1) % n];
        }
        succ
    }
}

/// The DRAIN baseline mechanism.
pub struct DrainMechanism {
    /// Drain period in cycles (`--spin-freq`).
    pub period: Cycle,
    /// Ring shifts per drain event (`--spin-mult`).
    pub shifts: u32,
    succ: Vec<NodeId>,
    /// Diagnostics.
    pub drains_done: u64,
    pub packets_moved: u64,
}

impl DrainMechanism {
    pub fn new(cols: u8, rows: u8, period: Cycle, shifts: u32) -> DrainMechanism {
        DrainMechanism {
            period,
            shifts,
            succ: ring_successors(cols, rows),
            drains_done: 0,
            packets_moved: 0,
        }
    }

    pub fn for_net(cfg: &noc_types::NetConfig) -> DrainMechanism {
        DrainMechanism::new(cfg.cols, cfg.rows, 1024, 1)
    }

    /// One synchronized ring shift: every *blocked, fully-buffered* packet
    /// is pulled out of its VC and re-installed at its router's ring
    /// successor. Packets that cannot be placed (successor full) return to
    /// their original slot — the network-wide vacate-then-place models
    /// DRAIN's lock-step circular movement.
    fn shift_once(&mut self, net: &mut Network) {
        let cols = net.cfg.cols;
        // Vacate.
        let mut staged: Vec<(NodeId, usize, usize, Vec<Flit>)> = Vec::new();
        for i in 0..net.routers.len() {
            let node = NodeId(i as u16);
            for p in 0..NUM_PORTS {
                if net.credits.occ(i, p) == 0 {
                    continue; // nothing buffered behind this port
                }
                for v in 0..net.routers[i].inputs[p].vcs.len() {
                    let vc = &net.routers[i].inputs[p].vcs[v];
                    if vc.packet_fully_buffered() && vc.route.is_none() {
                        let flits = net.drain_packet(node, p, v);
                        staged.push((node, p, v, flits));
                    }
                }
            }
        }
        // Place at successors. Placement cascades: successor first; packets
        // that do not fit stay at their own router; as a last resort (their
        // own slots stolen by predecessors' packets) any free slot in the
        // network takes them — guaranteed to exist because exactly as many
        // slots were vacated as packets staged.
        let mut unplaced: Vec<(NodeId, Vec<Flit>)> = Vec::new();
        for (node, _p, _v, flits) in staged {
            let to = self.succ[node.idx()];
            let productive = {
                let dest = flits[0].dest.to_coord(cols);
                to.to_coord(cols).manhattan(dest) < node.to_coord(cols).manhattan(dest)
            };
            match install_anywhere_at(net, to, flits, true) {
                Ok(len) => {
                    net.stats.link_flit_hops += len as u64;
                    if !productive {
                        // Oblivious ring moves usually point away from the
                        // destination — DRAIN's misroute cost.
                        net.stats.misroute_hops += len as u64;
                    }
                    net.stats.forced_moves += 1;
                    self.packets_moved += 1;
                }
                Err(flits) => unplaced.push((node, flits)),
            }
        }
        for (node, flits) in std::mem::take(&mut unplaced) {
            match install_anywhere_at(net, node, flits, false) {
                Ok(_) => {} // stayed home: no movement, no energy
                Err(flits) => unplaced.push((node, flits)),
            }
        }
        for (_, flits) in unplaced {
            let placed = (0..net.routers.len() as u16)
                .find_map(|r| install_anywhere_at(net, NodeId(r), flits.clone(), true).ok());
            assert!(
                placed.is_some(),
                "drain: no free slot anywhere despite vacating one per packet"
            );
            net.stats.forced_moves += 1;
        }
    }
}

/// Tries every input port/VC of `node` within the packet's `VNet`; installs
/// and returns the flit count, or hands the flits back on failure.
fn install_anywhere_at(
    net: &mut Network,
    node: NodeId,
    flits: Vec<Flit>,
    count_hop: bool,
) -> Result<usize, Vec<Flit>> {
    let vnet = net.cfg.vnet_of(flits[0].class);
    let range = net.cfg.vc_range(vnet);
    for p in 0..NUM_PORTS {
        for v in range.clone() {
            if net.vc_installable(node, p, v) {
                let len = flits.len();
                let mut fl = flits;
                if count_hop {
                    for f in &mut fl {
                        f.hops = f.hops.saturating_add(1);
                    }
                }
                net.install_packet(node, p, v, fl);
                return Ok(len);
            }
        }
    }
    Err(flits)
}

impl Mechanism for DrainMechanism {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Drain
    }

    fn pre_cycle(&mut self, net: &mut Network) {
        let now = net.cycle;
        if now == 0 || !now.is_multiple_of(self.period) {
            return;
        }
        self.drains_done += 1;
        net.stats.recovery_events += 1;
        for _ in 0..self.shifts {
            self.shift_once(net);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{Coord, NetConfig};

    #[test]
    fn ring_successors_form_one_cycle() {
        for (c, r) in [(4u8, 4u8), (8, 8), (3, 3)] {
            let succ = ring_successors(c, r);
            let n = c as usize * r as usize;
            let mut cur = NodeId(0);
            let mut seen = vec![false; n];
            for _ in 0..n {
                assert!(!seen[cur.idx()], "{c}x{r}: ring revisits {cur}");
                seen[cur.idx()] = true;
                cur = succ[cur.idx()];
            }
            assert_eq!(cur, NodeId(0), "{c}x{r}: ring does not close");
        }
    }

    #[test]
    fn successors_are_adjacent_except_wrap() {
        // Snake successors are mesh neighbours except the single wrap edge;
        // DRAIN treats the wrap as a multi-hop move, which we charge as one
        // (conservative for energy, irrelevant for correctness).
        let succ = ring_successors(4, 4);
        let mut non_adjacent = 0;
        for i in 0..16u16 {
            let a = NodeId(i).to_coord(4);
            let b = succ[i as usize].to_coord(4);
            if a.manhattan(b) != 1 {
                non_adjacent += 1;
                assert_eq!(b, Coord::new(0, 0), "only the wrap edge may jump");
            }
        }
        assert_eq!(non_adjacent, 1);
    }

    #[test]
    fn quiet_network_drains_nothing() {
        let cfg = NetConfig::synth(4, 2);
        let mut net = Network::new(cfg.clone());
        let mut drain = DrainMechanism::for_net(&cfg);
        for c in 0..4096 {
            net.cycle = c;
            drain.pre_cycle(&mut net);
        }
        assert!(drain.drains_done >= 3);
        assert_eq!(drain.packets_moved, 0);
    }
}
