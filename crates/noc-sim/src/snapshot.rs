//! Compact state snapshot / restore over the live engine.
//!
//! The bounded model checker (`noc-model`) certifies *abstract* states; its
//! concrete counterpart needs to drive the real engine through candidate
//! traces and rewind — replaying a reachable-deadlock witness from several
//! branch points without rebuilding the [`Network`] each time. A
//! [`NetSnapshot`] captures every dynamic field of the engine (buffers,
//! in-flight inboxes, the credit core with its stale-lane masks, RNG,
//! statistics) so that `restore` + identical inputs reproduce identical
//! behaviour, bit-for-bit.
//!
//! **Scope boundary.** Snapshots cover the core engine only: the
//! fault-injection layer, the runtime recovery layer and the flight
//! recorder hold their own evolving state and are *not* captured.
//! [`Network::snapshot`] therefore refuses (panics on) networks with an
//! active fault or recovery layer — exactly the configurations the model
//! checker targets (mechanism-free wedge replay). Mechanism state
//! (`seec`, baselines) lives outside the [`Network`] and is likewise out
//! of scope; replay harnesses drive `NoMechanism` runs.

use crate::inbox::Inbox;
use crate::network::Network;
use crate::nic::Nic;
use crate::reservation::ReservationTable;
use crate::router::Router;
use crate::soa::CreditSoA;
use crate::stats::Stats;
use noc_types::fault::fnv1a;
use noc_types::{Cycle, Flit, PortId};
use rand::rngs::SmallRng;

/// A point-in-time copy of every dynamic engine field. Opaque by design:
/// the only supported operations are [`Network::restore`] and dropping it.
#[derive(Clone, Debug)]
pub struct NetSnapshot {
    cycle: Cycle,
    routers: Vec<Router>,
    nics: Vec<Nic>,
    credits: CreditSoA,
    inbox_router: Vec<Inbox<(PortId, Flit)>>,
    inbox_nic: Vec<Inbox<(usize, Flit)>>,
    reservations: ReservationTable,
    stats: Stats,
    rng: SmallRng,
    last_progress: Cycle,
}

impl Network {
    /// Captures the engine's dynamic state. Panics when the fault or
    /// recovery layer is active (see the module docs for the scope
    /// boundary).
    pub fn snapshot(&self) -> NetSnapshot {
        assert!(
            self.fault.is_none() && self.recovery.is_none(),
            "snapshots cover the core engine only; fault/recovery layers \
             hold unsnapshotted state"
        );
        NetSnapshot {
            cycle: self.cycle,
            routers: self.routers.clone(),
            nics: self.nics.clone(),
            credits: self.credits.clone(),
            inbox_router: self.inbox_router.clone(),
            inbox_nic: self.inbox_nic.clone(),
            reservations: self.reservations.clone(),
            stats: self.stats.clone(),
            rng: self.rng.clone(),
            last_progress: self.last_progress,
        }
    }

    /// Rewinds the engine to `snap`. The snapshot must come from this very
    /// network (same configuration). Every field is copied, the derived
    /// caches included (credit lanes, their stale masks, buffered-flit
    /// counts), so the restored state is the snapshotted one exactly.
    pub fn restore(&mut self, snap: &NetSnapshot) {
        assert_eq!(
            self.routers.len(),
            snap.routers.len(),
            "snapshot belongs to a different network"
        );
        self.cycle = snap.cycle;
        self.routers.clone_from(&snap.routers);
        self.nics.clone_from(&snap.nics);
        self.credits.clone_from(&snap.credits);
        self.inbox_router.clone_from(&snap.inbox_router);
        self.inbox_nic.clone_from(&snap.inbox_nic);
        self.reservations = snap.reservations.clone();
        self.stats = snap.stats.clone();
        self.rng = snap.rng.clone();
        self.last_progress = snap.last_progress;
    }

    /// Stable 64-bit digest of the observable engine state (everything a
    /// snapshot captures except the RNG). Two runs that restore the same
    /// snapshot and step identically produce identical digests; divergence
    /// pinpoints the first cycle at which determinism broke.
    pub fn state_digest(&self) -> u64 {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(s, "c={};lp={};", self.cycle, self.last_progress);
        let _ = write!(s, "r={:?};", self.routers);
        let _ = write!(s, "n={:?};", self.nics);
        let _ = write!(s, "d={:?};", self.credits);
        for ib in &self.inbox_router {
            for (at, item) in ib.iter() {
                let _ = write!(s, "ir={at}:{item:?};");
            }
        }
        for ib in &self.inbox_nic {
            for (at, item) in ib.iter() {
                let _ = write!(s, "in={at}:{item:?};");
            }
        }
        let _ = write!(s, "res={:?};", self.reservations);
        fnv1a(s.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use crate::network::Sim;
    use crate::workload::IdleWorkload;
    use noc_types::{MessageClass, NetConfig, NodeId, Packet, PacketId};

    fn packet(id: u64, src: u16, dest: u16, len: u8, birth: u64) -> Packet {
        Packet {
            id: PacketId(id),
            src: NodeId(src),
            dest: NodeId(dest),
            class: MessageClass(0),
            len_flits: len,
            birth,
            measured: true,
        }
    }

    fn busy_sim() -> Sim {
        let cfg = NetConfig::synth(4, 2);
        let mut sim = Sim::new(cfg, Box::new(IdleWorkload), Box::new(crate::NoMechanism));
        for i in 0..8u16 {
            let dest = 15 - i;
            sim.net.nics[i as usize].enqueue(packet(u64::from(i), i, dest, 3, 0));
        }
        sim
    }

    #[test]
    fn restore_replays_bit_identically() {
        let mut sim = busy_sim();
        for _ in 0..10 {
            sim.step();
        }
        let snap = sim.net.snapshot();
        let base = sim.net.state_digest();

        // First run: twenty further steps, recording the digest stream.
        let first: Vec<u64> = (0..20)
            .map(|_| {
                sim.step();
                sim.net.state_digest()
            })
            .collect();

        // Rewind and replay: the digest stream must match exactly.
        sim.net.restore(&snap);
        assert_eq!(sim.net.state_digest(), base, "restore must be lossless");
        let second: Vec<u64> = (0..20)
            .map(|_| {
                sim.step();
                sim.net.state_digest()
            })
            .collect();
        assert_eq!(first, second, "replay diverged after restore");
    }

    #[test]
    fn restore_keeps_clean_lanes_clean() {
        // The stale-lane masks are state (the digest hashes them): a
        // snapshot taken while only part of the credit snapshot is stale
        // must come back with exactly those lanes stale, not all of them.
        let masks = |sim: &Sim| -> Vec<u8> {
            (0..sim.net.routers.len())
                .map(|r| sim.net.credits.dirty_lanes(r))
                .collect()
        };
        let mut sim = busy_sim();
        let mut at_snap = masks(&sim);
        while !(at_snap.contains(&0) && at_snap.iter().any(|&m| m != 0)) {
            assert!(sim.net.cycle < 200, "never partially clean");
            sim.step();
            at_snap = masks(&sim);
        }
        let snap = sim.net.snapshot();
        let base = sim.net.state_digest();
        for _ in 0..7 {
            sim.step();
        }
        sim.net.restore(&snap);
        assert_eq!(masks(&sim), at_snap, "restore re-dirtied clean lanes");
        assert_eq!(sim.net.state_digest(), base, "restore must be lossless");
    }

    #[test]
    fn digest_tracks_state_changes() {
        let mut sim = busy_sim();
        let d0 = sim.net.state_digest();
        sim.step();
        sim.step();
        assert_ne!(d0, sim.net.state_digest(), "injection must change state");
    }

    #[test]
    #[should_panic(expected = "core engine only")]
    fn snapshot_refuses_fault_layer() {
        use noc_types::FaultConfig;
        let cfg = NetConfig::synth(4, 2).with_fault(FaultConfig::transient(0.01));
        let sim = Sim::new(cfg, Box::new(IdleWorkload), Box::new(crate::NoMechanism));
        let _ = sim.net.snapshot();
    }
}
