//! Lockstep batched execution: N same-shape simulations through one shared
//! per-cycle skeleton.
//!
//! Experiment sweeps run many design points that differ only in scheme,
//! offered load and seed — the mesh dimensions, VC partitioning and buffer
//! depths (everything that sizes the engine's struct-of-arrays core) are
//! identical. [`LockstepBatch`] exploits that: it drives N such lanes
//! cycle-by-cycle *together*, so the per-cycle loop machinery is shared and
//! the identically-shaped credit/occupancy arrays of consecutive lanes walk
//! the cache in a regular pattern, instead of each run paying the full
//! skeleton cost in isolation.
//!
//! Each lane still executes *exactly* the cycle sequence the scalar
//! `Sim::run` would, so batched results are byte-identical to scalar runs
//! (the `batch_differential` test in `noc-experiments` checks this).
//!
//! What may be batched together is governed by [`ShapeKey`]: the structural
//! fields of [`NetConfig`] that determine array sizes and per-cycle phase
//! structure. Scheme, routing, rates, seeds, fault scenarios and recovery
//! arming may all differ freely between lanes — they live in lane-local
//! state.

use crate::network::Sim;
use crate::stats::Stats;
use noc_types::fault::fnv1a;
use noc_types::{BufferOrg, Cycle, NetConfig};

/// The structural shape of a network configuration: every field that sizes
/// the engine's flat arrays or changes the per-cycle skeleton. Two configs
/// with equal shape keys may share a [`LockstepBatch`]; everything *not*
/// captured here (routing algorithm, seed, warmup, fault and recovery
/// scenarios) is lane-local and free to differ.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShapeKey {
    pub cols: u8,
    pub rows: u8,
    pub vnets: u8,
    pub classes: u8,
    pub vcs_per_vnet: u8,
    pub vc_depth: u8,
    pub buffer_org: BufferOrg,
    pub router_latency: u8,
    pub ejection_vcs_per_class: u8,
}

impl ShapeKey {
    /// Extracts the shape of `cfg`.
    pub fn of(cfg: &NetConfig) -> ShapeKey {
        ShapeKey {
            cols: cfg.cols,
            rows: cfg.rows,
            vnets: cfg.vnets,
            classes: cfg.classes,
            vcs_per_vnet: cfg.vcs_per_vnet,
            vc_depth: cfg.vc_depth,
            buffer_org: cfg.buffer_org,
            router_latency: cfg.router_latency,
            ejection_vcs_per_class: cfg.ejection_vcs_per_class,
        }
    }

    /// Stable 64-bit digest — the batch-compatibility grouping key used by
    /// the sweep runner (equal digests ⇔ equal shapes, up to FNV collision).
    pub fn digest(&self) -> u64 {
        fnv1a(format!("{self:?}").as_bytes())
    }
}

/// N same-shape simulations advanced in lockstep. See the module docs.
pub struct LockstepBatch {
    lanes: Vec<Sim>,
    key: ShapeKey,
}

impl LockstepBatch {
    /// Wraps `lanes` into a batch.
    ///
    /// # Panics
    /// Panics when `lanes` is empty or the lanes' configurations disagree
    /// on [`ShapeKey`] — mixing shapes would defeat the shared skeleton and
    /// is always a caller bug.
    pub fn new(lanes: Vec<Sim>) -> LockstepBatch {
        assert!(!lanes.is_empty(), "a batch needs at least one lane");
        let key = ShapeKey::of(&lanes[0].net.cfg);
        for (i, lane) in lanes.iter().enumerate() {
            let k = ShapeKey::of(&lane.net.cfg);
            assert_eq!(k, key, "lane {i} shape {k:?} incompatible with {key:?}");
        }
        LockstepBatch { lanes, key }
    }

    /// The batch's shared shape.
    pub fn key(&self) -> ShapeKey {
        self.key
    }

    /// Number of lanes.
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    pub fn lanes(&self) -> &[Sim] {
        &self.lanes
    }

    pub fn lanes_mut(&mut self) -> &mut [Sim] {
        &mut self.lanes
    }

    /// Unwraps the batch back into its lanes.
    pub fn into_lanes(self) -> Vec<Sim> {
        self.lanes
    }

    /// Runs every lane for `cycles` cycles (from each lane's own current
    /// cycle), in lockstep on a shared clock.
    ///
    /// Each round steps exactly the lanes sitting at the batch's earliest
    /// in-progress cycle. Per lane this reproduces the scalar `Sim::run`
    /// sequence verbatim — the interleaving *between* lanes is the only
    /// thing lockstep changes, and lanes share no state.
    pub fn run(&mut self, cycles: u64) {
        let ends: Vec<Cycle> = self.lanes.iter().map(|l| l.net.cycle + cycles).collect();
        loop {
            let now = self
                .lanes
                .iter()
                .zip(&ends)
                .filter(|(l, &end)| l.net.cycle < end)
                .map(|(l, _)| l.net.cycle)
                .min();
            let Some(now) = now else {
                break;
            };
            for (lane, &end) in self.lanes.iter_mut().zip(&ends) {
                if lane.net.cycle == now && now < end {
                    lane.step();
                }
            }
        }
    }

    /// Finalizes every lane and returns the statistics, in lane order.
    pub fn finish(&mut self) -> Vec<Stats> {
        self.lanes.iter_mut().map(|l| l.finish().clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::IdleWorkload;
    use crate::NoMechanism;
    use noc_types::{MessageClass, NodeId, Packet, PacketId};

    fn packet(id: u64, src: u16, dest: u16, len: u8) -> Packet {
        Packet {
            id: PacketId(id),
            src: NodeId(src),
            dest: NodeId(dest),
            class: MessageClass(0),
            len_flits: len,
            birth: 0,
            measured: true,
        }
    }

    /// A deterministic busy sim: `seed` varies the preloaded packet set so
    /// lanes do genuinely different work.
    fn busy_sim(seed: u64) -> Sim {
        let cfg = NetConfig::synth(4, 2).with_seed(seed);
        let mut sim = Sim::new(cfg, Box::new(IdleWorkload), Box::new(NoMechanism));
        for i in 0..8u16 {
            let dest = (15 - i + (seed as u16 % 3)) % 16;
            let dest = if dest == i { (dest + 1) % 16 } else { dest };
            sim.net.nics[i as usize].enqueue(packet(u64::from(i), i, dest, 3));
        }
        sim
    }

    #[test]
    fn batched_lanes_match_scalar_runs_bit_for_bit() {
        let seeds = [1u64, 7, 42, 1000];
        // Scalar reference: each lane run alone, default flags.
        let scalar: Vec<(u64, String)> = seeds
            .iter()
            .map(|&s| {
                let mut sim = busy_sim(s);
                sim.run(500);
                (sim.net.state_digest(), format!("{:?}", sim.net.stats))
            })
            .collect();
        // Batched: same lanes, lockstep.
        let mut batch = LockstepBatch::new(seeds.iter().map(|&s| busy_sim(s)).collect());
        batch.run(500);
        for (lane, want) in batch.lanes().iter().zip(&scalar) {
            assert_eq!(lane.net.cycle, 500);
            assert_eq!(lane.net.state_digest(), want.0, "state diverged");
            assert_eq!(format!("{:?}", lane.net.stats), want.1, "stats diverged");
        }
    }

    #[test]
    fn shape_key_ignores_seed_and_routing_but_not_structure() {
        let a = NetConfig::synth(8, 4).with_seed(1);
        let b = NetConfig::synth(8, 4).with_seed(999);
        assert_eq!(ShapeKey::of(&a), ShapeKey::of(&b));
        assert_eq!(ShapeKey::of(&a).digest(), ShapeKey::of(&b).digest());
        let mut c = NetConfig::synth(8, 4);
        c.vc_depth = 4;
        assert_ne!(ShapeKey::of(&a), ShapeKey::of(&c));
        assert_ne!(ShapeKey::of(&a), ShapeKey::of(&NetConfig::synth(8, 2)));
        assert_ne!(ShapeKey::of(&a), ShapeKey::of(&NetConfig::synth(4, 4)));
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn mixed_shapes_are_refused() {
        let a = Sim::new(
            NetConfig::synth(4, 2),
            Box::new(IdleWorkload),
            Box::new(NoMechanism),
        );
        let b = Sim::new(
            NetConfig::synth(4, 4),
            Box::new(IdleWorkload),
            Box::new(NoMechanism),
        );
        let _ = LockstepBatch::new(vec![a, b]);
    }
}
