//! Runtime invariant checking (the `check-invariants` feature).
//!
//! When enabled, [`Sim::step`](crate::Sim::step) sweeps the whole network
//! state at the end of every cycle and records violations of the structural
//! invariants the simulator's correctness rests on:
//!
//! * **VC occupancy bounds** — an input VC never holds more flits than its
//!   capacity (one packet under VCT, `vc_depth` under wormhole), and all its
//!   flits belong to the resident packet.
//! * **Credit conservation** — every router's per-VC in-flight counter
//!   equals the number of flits actually on the wire toward that VC.
//! * **Claim consistency** — a claimed downstream VC is only ever occupied
//!   by the claiming packet; ejection VCs never interleave packets.
//! * **Flit conservation** (*strict* mode) — every injected flit is either
//!   still in the network or has been consumed: `injected = consumed +
//!   in-flight`, exactly, every cycle.
//! * **Hop-count ceiling** (*strict* mode) — a delivered packet never took
//!   more link hops than its Manhattan distance (all base routing
//!   algorithms are minimal).
//!
//! Strict mode ([`InvariantState::strict`]) is opt-in because mechanisms
//! that take custody of packets (SEEC Free Flow, SPIN, SWAP, DRAIN) move
//! flits outside the `Network`-visible buffers and deliberately exceed
//! minimal hop counts; it is sound for `NoMechanism`, escape-VC and TFC
//! runs, where the network alone owns every flit.

use crate::network::Network;
use crate::stats::DeliveredPacket;
use noc_types::{BufferOrg, Direction, NodeId};

/// Maximum number of violation messages retained (the count keeps rising).
const MAX_RECORDED: usize = 32;

/// Counters and findings of the invariant layer. Lives in
/// [`Network`](crate::network::Network) when `check-invariants` is enabled.
#[derive(Clone, Debug, Default)]
pub struct InvariantState {
    /// Enables flit conservation and the hop ceiling — sound only when no
    /// mechanism takes custody of flits (see module docs).
    pub strict: bool,
    /// Flits pushed onto the injection link since construction.
    pub injected_flits: u64,
    /// Flits of consumed packets since construction.
    pub consumed_flits: u64,
    /// First [`MAX_RECORDED`] violation messages.
    pub violations: Vec<String>,
    /// Total violations observed (may exceed `violations.len()`).
    pub violation_count: u64,
    /// Number of end-of-cycle sweeps performed.
    pub sweeps: u64,
    /// Clean credit lanes compared against a fresh recompute so far. Zero
    /// after a run means the snapshot-coherence check compared nothing.
    pub clean_lanes_checked: u64,
}

impl InvariantState {
    fn record(&mut self, msg: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(msg);
        }
    }

    /// Bookkeeping at packet consumption; checks the hop ceiling in strict
    /// mode. `detours_legal` suspends the ceiling — set on degraded meshes,
    /// where routing around dead links legitimately exceeds the Manhattan
    /// distance (transient-fault retransmissions never add hops, so the
    /// ceiling stays in force for them).
    pub fn on_consume(&mut self, d: &DeliveredPacket, cols: u8, detours_legal: bool) {
        self.consumed_flits += u64::from(d.len_flits);
        if self.strict && !detours_legal {
            let s = d.src.to_coord(cols);
            let t = d.dest.to_coord(cols);
            let manhattan = s.x.abs_diff(t.x) as u16 + s.y.abs_diff(t.y) as u16;
            if u16::from(d.hops) > manhattan {
                self.record(format!(
                    "hop ceiling: packet {:?} {}->{} took {} hops, Manhattan {}",
                    d.id, d.src.0, d.dest.0, d.hops, manhattan
                ));
            }
        }
    }

    /// Panics with every recorded violation if any sweep found one.
    pub fn assert_clean(&self) {
        assert!(
            self.violation_count == 0,
            "{} invariant violations over {} sweeps:\n{}",
            self.violation_count,
            self.sweeps,
            self.violations.join("\n")
        );
    }
}

impl Network {
    /// End-of-cycle invariant sweep (see module docs). Findings accumulate
    /// in [`Network::inv`]; call [`InvariantState::assert_clean`] to fail
    /// loudly.
    pub fn check_invariants(&mut self) {
        let mut found: Vec<String> = Vec::new();
        let now = self.cycle;
        let wormhole = self.cfg.buffer_org == BufferOrg::Wormhole;
        let depth = self.cfg.vc_depth as usize;

        for (i, r) in self.routers.iter().enumerate() {
            // Occupancy + single-resident packet per input VC.
            for (p, port) in r.inputs.iter().enumerate() {
                for (v, vc) in port.vcs.iter().enumerate() {
                    if let Some(front) = vc.buf.front() {
                        let cap = if wormhole { depth } else { front.len as usize };
                        if vc.buf.len() > cap {
                            found.push(format!(
                                "occupancy: router {i} in[{p}] vc {v} holds {} flits, cap {cap}",
                                vc.buf.len()
                            ));
                        }
                        match vc.resident {
                            Some(res) => {
                                if vc.buf.iter().any(|f| f.packet != res) {
                                    found.push(format!(
                                        "residency: router {i} in[{p}] vc {v} mixes packets"
                                    ));
                                }
                            }
                            None => found.push(format!(
                                "residency: router {i} in[{p}] vc {v} buffers flits with no resident"
                            )),
                        }
                    }
                }
            }
            // Credit conservation + claim consistency per cardinal output.
            for dir in Direction::CARDINAL {
                let p = dir.index();
                let out = &r.outputs[p];
                let Some(nb) = out.neighbor else { continue };
                let their_in = dir.opposite().index();
                let down = &self.routers[nb.idx()].inputs[their_in];
                for v in 0..out.inflight.len() {
                    // Under retransmission, flits between send and
                    // acceptance live in the link-layer windows, not the
                    // inboxes; the counter must match that view instead.
                    let flying = match self.fault.as_ref().and_then(|f| f.retrans.as_ref()) {
                        Some(rt) => rt.wire_in_flight_vc(i, p, v),
                        None => self.inbox_router[nb.idx()]
                            .iter()
                            .filter(|(_, (port, f))| *port == their_in && f.vc as usize == v)
                            .count(),
                    };
                    if usize::from(out.inflight[v]) != flying {
                        found.push(format!(
                            "credits: router {i} out[{p}] vc {v} inflight {} but {flying} on the wire",
                            out.inflight[v]
                        ));
                    }
                    if let Some(pkt) = out.vc_claimed[v] {
                        if down.vcs[v].resident.is_some_and(|res| res != pkt) {
                            found.push(format!(
                                "claims: router {i} out[{p}] vc {v} claimed by {pkt:?} \
                                 but occupied by {:?}",
                                down.vcs[v].resident
                            ));
                        }
                    }
                }
            }
        }
        // NIC side: injection claims and ejection VC integrity.
        for (i, nic) in self.nics.iter().enumerate() {
            let lp = Direction::Local.index();
            for (v, claim) in nic.local_claims.iter().enumerate() {
                if let Some(pkt) = *claim {
                    let down = &self.routers[i].inputs[lp].vcs[v];
                    if down.resident.is_some_and(|res| res != pkt) {
                        found.push(format!(
                            "claims: nic {i} local vc {v} claimed by {pkt:?} \
                             but occupied by {:?}",
                            down.resident
                        ));
                    }
                }
            }
            for (e, ej) in nic.ejection.iter().enumerate() {
                if let Some(front) = ej.buf.front() {
                    if ej.buf.iter().any(|f| f.packet != front.packet) {
                        found.push(format!("ejection: nic {i} ej vc {e} mixes packets"));
                    }
                }
            }
        }
        // Occupancy-counter coherence: the running per-port counts that gate
        // the empty router/port skips in router compute must match the
        // buffers.
        for (i, r) in self.routers.iter().enumerate() {
            let tracked = self.buffered_count(i);
            for (p, port) in r.inputs.iter().enumerate() {
                let actual: u16 = port.vcs.iter().map(|vc| vc.buf.len() as u16).sum();
                if tracked[p] != actual {
                    found.push(format!(
                        "occupancy counter: router {i} in[{p}] tracked {} but buffers hold \
                         {actual}",
                        tracked[p]
                    ));
                }
            }
        }
        // Credit-snapshot coherence: a lane whose stale bit is clear claims
        // "nothing my snapshot reads has changed since my last refresh" — so
        // a fresh recompute must match exactly. Stale lanes are refreshed
        // before the next SA pass and are skipped here. The recompute runs
        // in place on the clean SoA lanes only and the original is restored
        // afterwards, so the sweep itself never perturbs engine state.
        for i in 0..self.routers.len() {
            let clean = crate::soa::ALL_LANES & !self.credits.dirty_lanes(i);
            if clean == 0 {
                continue;
            }
            self.inv.clean_lanes_checked += u64::from(clean.count_ones());
            let (free, slots) = self.credits.router_lanes(i);
            self.credits.recompute_router(
                &self.routers,
                &self.nics,
                i,
                clean,
                wormhole,
                self.cfg.vc_depth,
                self.fault.as_ref().map(|f| &f.dead),
            );
            let (fresh_free, fresh_slots) = self.credits.router_lanes(i);
            // Only clean lanes were recomputed, so any difference is theirs.
            if fresh_free != free || (wormhole && fresh_slots != slots) {
                found.push(format!(
                    "credit snapshot: router {i} lanes {clean:#07b} marked clean but stale: \
                     free masks {free:x?}, fresh {fresh_free:x?}"
                ));
            }
            self.credits.restore_router_lanes(i, &free, &slots);
        }
        // Strict: exact flit conservation across the whole network.
        if self.inv.strict {
            let in_network = self.flits_in_network() as u64
                + self.inbox_nic.iter().map(|b| b.len() as u64).sum::<u64>()
                + self
                    .nics
                    .iter()
                    .flat_map(|n| n.ejection.iter())
                    .map(|e| e.buf.len() as u64)
                    .sum::<u64>();
            // Flits removed by the chaos stranded-purge left the network by
            // design (their route was severed); they are accounted for
            // explicitly rather than silently lost.
            let accounted = self.inv.consumed_flits + in_network + self.stats.chaos_purged_flits;
            if self.inv.injected_flits != accounted {
                found.push(format!(
                    "conservation: injected {} but consumed {} + in-network {} + purged {} \
                     = {accounted}",
                    self.inv.injected_flits,
                    self.inv.consumed_flits,
                    in_network,
                    self.stats.chaos_purged_flits
                ));
            }
        }
        self.inv.sweeps += 1;
        for msg in found {
            self.inv.record(format!("cycle {now}: {msg}"));
        }
    }
}

/// Manhattan-distance helper reused by tests.
pub fn manhattan(a: NodeId, b: NodeId, cols: u8) -> u16 {
    let (s, t) = (a.to_coord(cols), b.to_coord(cols));
    s.x.abs_diff(t.x) as u16 + s.y.abs_diff(t.y) as u16
}
