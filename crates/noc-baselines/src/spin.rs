//! SPIN (Ramrakhyani et al., ISCA '18) — reactive deadlock recovery via
//! probes and synchronized packet movement.
//!
//! A router whose head packet has been blocked for `dd_thresh` cycles sends
//! a *probe* that walks the packet's dependency chain one hop per cycle on
//! the data links (stealing link bandwidth — this is where SPIN's energy
//! spike and tail-latency damage come from). If the probe returns to its
//! origin VC, a dependency cycle exists; the mechanism then performs a
//! *spin*: every packet on the recorded loop moves simultaneously one hop
//! forward into the buffer it was waiting for. Packets always move in their
//! desired direction, so SPIN never misroutes (Table 1).

use noc_sim::network::Network;
use noc_sim::routing::candidates;
use noc_sim::Mechanism;
use noc_types::{Cycle, Direction, NodeId, PacketId, PortId, SchemeKind};

/// One position in a dependency chain: a blocked packet's VC.
type Slot = (NodeId, PortId, usize);

/// State of the single outstanding probe (the paper serializes recovery with
/// rotating priority among routers; we model one probe at a time).
#[derive(Debug)]
enum ProbeState {
    Idle,
    /// Walking the chain; `path` holds visited slots, front is the origin.
    Walking {
        path: Vec<Slot>,
        started: Cycle,
    },
    /// Cycle found: synchronize for `ready_at`, then rotate the loop.
    Spinning {
        cycle_slots: Vec<Slot>,
        ready_at: Cycle,
    },
}

/// The SPIN baseline mechanism.
pub struct SpinMechanism {
    /// Deadlock-detection timeout (the artifact's `--dd-thresh`, 1024).
    pub dd_thresh: Cycle,
    state: ProbeState,
    /// Rotating scan start (the artifact's `--enable-rotating-priority`).
    scan_from: usize,
    /// Diagnostics.
    pub probes_sent: u64,
    pub spins_done: u64,
}

impl SpinMechanism {
    pub fn new(dd_thresh: Cycle) -> SpinMechanism {
        SpinMechanism {
            dd_thresh,
            state: ProbeState::Idle,
            scan_from: 0,
            probes_sent: 0,
            spins_done: 0,
        }
    }

    pub fn for_net(_cfg: &noc_types::NetConfig) -> SpinMechanism {
        SpinMechanism::new(1024)
    }

    /// Finds a VC whose head has been blocked past the threshold, scanning
    /// from the rotating start position.
    fn find_timed_out(&mut self, net: &Network) -> Option<Slot> {
        let n = net.routers.len();
        let now = net.cycle;
        for k in 0..n {
            let i = (self.scan_from + k) % n;
            let r = &net.routers[i];
            for p in 0..r.inputs.len() {
                if net.credits.occ(i, p) == 0 {
                    continue; // empty VCs have no waiting head
                }
                for (v, vc) in r.inputs[p].vcs.iter().enumerate() {
                    let Some(since) = vc.head_wait_since else {
                        continue;
                    };
                    if now.saturating_sub(since) >= self.dd_thresh
                        && vc.packet_fully_buffered()
                        && vc.route.is_none()
                    {
                        self.scan_from = (i + 1) % n;
                        return Some((NodeId(i as u16), p, v));
                    }
                }
            }
        }
        None
    }

    /// One probe step: extend the chain from its last slot. Returns
    /// `Ok(true)` if a cycle closed, `Ok(false)` to keep walking, `Err(())`
    /// if the chain broke (no deadlock).
    fn extend_chain(net: &Network, path: &mut Vec<Slot>) -> Result<bool, ()> {
        let &(node, port, vc) = path.last().unwrap();
        let r = &net.routers[node.idx()];
        let v = &r.inputs[port].vcs[vc];
        let Some(front) = v.front() else {
            return Err(()); // packet moved; chain broken
        };
        if !front.kind.is_head() || v.route.is_some() {
            return Err(());
        }
        let dest = front.dest.to_coord(net.cfg.cols);
        if dest == r.coord {
            return Err(()); // waits on ejection, always drains
        }
        let algo = if v.is_escape_resident {
            noc_types::BaseRouting::WestFirst
        } else {
            net.cfg.routing.normal()
        };
        let vnet = net.cfg.vnet_of(front.class);
        let range = net.cfg.vc_range(vnet);
        // Follow the first desired direction whose downstream VCs (in this
        // VNet) are all occupied by blocked packets; the chain continues at
        // the longest-blocked of them.
        for &d in candidates(algo, r.coord, dest).as_slice() {
            let Some(nb) = net.neighbor(node, d) else {
                continue;
            };
            let their_in = d.opposite().index();
            let down = &net.routers[nb.idx()].inputs[their_in];
            let mut best: Option<(Cycle, usize)> = None;
            let mut all_occupied = true;
            for dv in range.clone() {
                let dvc = &down.vcs[dv];
                if dvc.is_free() {
                    all_occupied = false;
                    break;
                }
                if dvc.packet_fully_buffered() && dvc.route.is_none() {
                    let since = dvc.head_wait_since.unwrap_or(u64::MAX);
                    if best.is_none_or(|(b, _)| since < b) {
                        best = Some((since, dv));
                    }
                }
            }
            if !all_occupied {
                continue; // this direction has room; packet just lost SA
            }
            let Some((_, dv)) = best else {
                return Err(()); // occupied but by moving packets: transient
            };
            let next = (nb, their_in, dv);
            if let Some(pos) = path.iter().position(|s| *s == next) {
                // Cycle closed: keep only the loop.
                path.drain(..pos);
                return Ok(true);
            }
            path.push(next);
            return Ok(false);
        }
        Err(())
    }

    /// Executes the synchronized spin: every packet in the loop moves into
    /// the next slot (the buffer it was waiting for). The shift is a
    /// permutation along the loop, so it always succeeds if the loop is
    /// still intact; any disturbance aborts (a normal move already broke the
    /// deadlock).
    fn do_spin(net: &mut Network, slots: &[Slot]) -> bool {
        // Validate: every slot still holds a fully-buffered blocked packet.
        for &(n, p, v) in slots {
            let vc = &net.routers[n.idx()].inputs[p].vcs[v];
            if !vc.packet_fully_buffered() || vc.route.is_some() {
                return false;
            }
        }
        let k = slots.len();
        let mut packets = Vec::with_capacity(k);
        for &(n, p, v) in slots {
            packets.push(net.drain_packet(n, p, v));
        }
        let now = net.cycle;
        for i in 0..k {
            let (n2, p2, v2) = slots[(i + 1) % k];
            let mut flits = std::mem::take(&mut packets[i]);
            for f in &mut flits {
                f.hops = f.hops.saturating_add(1);
            }
            net.stats.link_flit_hops += flits.len() as u64;
            net.stats.forced_moves += 1;
            // All slots were just vacated, so installation cannot fail on
            // occupancy; upstream claims cannot exist for fully-buffered
            // packets' VCs... except the upstream may have *just* allocated
            // the vacated VC — in that case we abort that single move by
            // putting the packet back (its own slot is free).
            if net.vc_installable(n2, p2, v2) {
                net.install_packet(n2, p2, v2, flits);
            } else {
                let (n1, p1, v1) = slots[i];
                net.install_packet(n1, p1, v1, flits);
            }
            let _ = now;
        }
        true
    }
}

impl Mechanism for SpinMechanism {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Spin
    }

    fn pre_cycle(&mut self, net: &mut Network) {
        let now = net.cycle;
        match std::mem::replace(&mut self.state, ProbeState::Idle) {
            ProbeState::Idle => {
                if let Some(origin) = self.find_timed_out(net) {
                    self.probes_sent += 1;
                    net.stats.recovery_events += 1;
                    self.state = ProbeState::Walking {
                        path: vec![origin],
                        started: now,
                    };
                }
            }
            ProbeState::Walking { mut path, started } => {
                // One chain hop per cycle, riding the data links with
                // priority (reserve the slot so SA yields — the probe's
                // bandwidth theft).
                net.stats.count_probe_hop(now);
                if let Some(&(n, _, _)) = path.last() {
                    // Reserve an arbitrary cardinal output of the current
                    // router for this cycle to model the stolen slot.
                    let port = Direction::East.index();
                    if !net.reservations.is_reserved(n, port, now) {
                        net.reservations.reserve(n, port, now, now);
                    }
                }
                match Self::extend_chain(net, &mut path) {
                    Ok(true) => {
                        // Synchronization takes one more round trip over the
                        // loop before the atomic move.
                        let ready_at = now + path.len() as Cycle;
                        self.state = ProbeState::Spinning {
                            cycle_slots: path,
                            ready_at,
                        };
                    }
                    Ok(false) => {
                        // Give up on absurdly long walks (the artifact's
                        // max-turn-capacity); the timeout will refire.
                        if now - started > 4 * net.routers.len() as Cycle {
                            self.state = ProbeState::Idle;
                        } else {
                            self.state = ProbeState::Walking { path, started };
                        }
                    }
                    Err(()) => self.state = ProbeState::Idle,
                }
            }
            ProbeState::Spinning {
                cycle_slots,
                ready_at,
            } => {
                if now < ready_at {
                    // Coordination traffic occupies the loop's links.
                    net.stats.count_probe_hop(now);
                    self.state = ProbeState::Spinning {
                        cycle_slots,
                        ready_at,
                    };
                } else {
                    if Self::do_spin(net, &cycle_slots) {
                        self.spins_done += 1;
                    }
                    self.state = ProbeState::Idle;
                }
            }
        }
    }

    fn on_recovery_drain(&mut self, _net: &mut Network, _victim: PacketId) {
        // The drained victim may sit on the probe's recorded chain. The
        // validation in `extend_chain` / `do_spin` would catch the ghost
        // slot and abort, but the walk itself is stolen link bandwidth —
        // restart from Idle and let the timeout refire if a cycle remains.
        self.state = ProbeState::Idle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::NetConfig;

    #[test]
    fn idle_network_sends_no_probes() {
        let cfg = NetConfig::synth(4, 2);
        let mut net = Network::new(cfg.clone());
        let mut spin = SpinMechanism::for_net(&cfg);
        for _ in 0..10 {
            net.cycle += 1;
            spin.pre_cycle(&mut net);
        }
        assert_eq!(spin.probes_sent, 0);
    }
}
