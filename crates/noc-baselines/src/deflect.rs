//! Bufferless deflection networks: CHIPPER (Fallin et al., HPCA '11) and
//! `MinBD` (Fallin et al., NOCS '12).
//!
//! A different router microarchitecture from the VC design: flits never wait
//! for credits. Each cycle, all flits present at a router are permuted onto
//! output ports — productive if possible, *deflected* otherwise. `MinBD` adds
//! a small side buffer that absorbs one would-be-deflected flit per cycle
//! and re-injects it when the router has a spare slot, cutting the
//! deflection rate. Livelock freedom comes from oldest-first priority (a
//! simplification of CHIPPER's golden-packet scheme with the same effect at
//! the loads we evaluate; see DESIGN.md). Flits route independently and are
//! reassembled at the destination NIC.

use noc_sim::network::HOP_LATENCY;
use noc_sim::stats::{DeliveredPacket, Stats};
use noc_sim::workload::Workload;
use noc_types::{Coord, Cycle, Direction, Flit, NetConfig, NodeId, PacketId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Which deflection design to model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeflectionKind {
    /// Pure bufferless (CHIPPER).
    Chipper,
    /// Minimally-buffered: 4-flit side buffer per router.
    MinBd,
}

/// Per-destination packet reassembly slot.
#[derive(Clone, Debug)]
struct Reassembly {
    received: u8,
    head: Flit,
    max_hops: u8,
}

/// A deflection-network simulation (router + workload).
pub struct DeflectionSim {
    pub cfg: NetConfig,
    pub kind: DeflectionKind,
    pub cycle: Cycle,
    pub stats: Stats,
    workload: Box<dyn Workload>,
    rng: SmallRng,
    /// Flits in flight toward each router: `(arrival, flit)`.
    inflight: Vec<Vec<(Cycle, Flit)>>,
    /// `MinBD` side buffers.
    side: Vec<Vec<Flit>>,
    /// Per-node flit injection queues (packets are flitized on entry).
    inj: Vec<Vec<Flit>>,
    /// Per-node reassembly state.
    reasm: Vec<HashMap<PacketId, Reassembly>>,
    /// Ejected flits per node per cycle.
    eject_bw: usize,
    /// `MinBD` side-buffer capacity.
    side_cap: usize,
}

impl DeflectionSim {
    pub fn new(cfg: NetConfig, kind: DeflectionKind, workload: Box<dyn Workload>) -> Self {
        let n = cfg.num_nodes();
        let rng = SmallRng::seed_from_u64(cfg.seed ^ 0xDEF1EC7);
        let mut stats = Stats::default();
        stats.measure_start = cfg.warmup;
        DeflectionSim {
            kind,
            cycle: 0,
            stats,
            workload,
            rng,
            inflight: vec![Vec::new(); n],
            side: vec![Vec::new(); n],
            inj: vec![Vec::new(); n],
            reasm: vec![HashMap::new(); n],
            eject_bw: 1,
            side_cap: 4,
            cfg,
        }
    }

    fn coord(&self, n: usize) -> Coord {
        NodeId(n as u16).to_coord(self.cfg.cols)
    }

    /// Valid output directions at `c` (on-mesh only).
    fn valid_dirs(&self, c: Coord) -> Vec<Direction> {
        Direction::CARDINAL
            .iter()
            .copied()
            .filter(|d| d.step(c, self.cfg.cols, self.cfg.rows).is_some())
            .collect()
    }

    fn deliver_flit(&mut self, node: usize, flit: Flit, now: Cycle) {
        let entry = self.reasm[node]
            .entry(flit.packet)
            .or_insert_with(|| Reassembly {
                received: 0,
                head: flit,
                max_hops: 0,
            });
        entry.received += 1;
        entry.max_hops = entry.max_hops.max(flit.hops);
        if entry.received as usize == flit.len as usize {
            let r = self.reasm[node].remove(&flit.packet).unwrap();
            let d = DeliveredPacket {
                id: r.head.packet,
                src: r.head.src,
                dest: r.head.dest,
                class: r.head.class,
                len_flits: r.head.len,
                birth: r.head.birth,
                inject: r.head.inject,
                eject: now,
                hops: r.max_hops,
                ff_upgrade: None,
                measured: r.head.measured,
            };
            // Deflection networks in the paper run open-loop synthetic
            // traffic; consumption is unconditional.
            let _ = self.workload.deliver(now, &d);
            self.stats.record_delivery(&d);
        }
    }

    fn step_once(&mut self) {
        let now = self.cycle;
        if now == self.cfg.warmup {
            self.stats.measure_start = now;
        }
        let n = self.cfg.num_nodes();

        // Traffic generation: flitize packets straight into inj queues.
        {
            let mut new_pkts: Vec<(NodeId, noc_types::Packet)> = Vec::new();
            self.workload.generate(now, &mut |node, pkt| {
                new_pkts.push((node, pkt));
            });
            for (node, pkt) in new_pkts {
                if pkt.measured {
                    self.stats.generated_packets += 1;
                }
                for s in 0..pkt.len_flits {
                    self.inj[node.idx()].push(Flit::from_packet(&pkt, s, 0));
                }
            }
        }

        for i in 0..n {
            let c = self.coord(i);
            // Arrivals due now.
            let mut contenders: Vec<Flit> = Vec::new();
            let inbox = &mut self.inflight[i];
            let mut k = 0;
            while k < inbox.len() {
                if inbox[k].0 <= now {
                    contenders.push(inbox.swap_remove(k).1);
                } else {
                    k += 1;
                }
            }

            // Ejection (up to eject_bw flits destined here).
            let mut ejected = 0;
            let mut kept: Vec<Flit> = Vec::with_capacity(contenders.len());
            // Oldest first so reassembly drains in order.
            contenders.sort_by_key(|f| (f.inject, f.packet.0, f.seq));
            for f in contenders {
                if ejected < self.eject_bw && f.dest.idx() == i {
                    self.deliver_flit(i, f, now);
                    ejected += 1;
                } else {
                    kept.push(f);
                }
            }
            let mut contenders = kept;
            let degree = self.valid_dirs(c).len();

            // MinBD: re-inject one side-buffered flit if there is headroom.
            if self.kind == DeflectionKind::MinBd
                && contenders.len() < degree
                && !self.side[i].is_empty()
            {
                contenders.push(self.side[i].remove(0));
            }

            // Injection: one new flit if a slot remains.
            if contenders.len() < degree && !self.inj[i].is_empty() {
                let mut f = self.inj[i].remove(0);
                f.inject = now;
                self.stats.record_injected_flit(&f);
                contenders.push(f);
            }

            // MinBD: if more contenders than ports minus one would force
            // deflections, absorb one into the side buffer.
            if self.kind == DeflectionKind::MinBd
                && contenders.len() > 1
                && self.side[i].len() < self.side_cap
            {
                // Buffer the *youngest* flit (oldest keep moving — age
                // priority preserves livelock freedom).
                let will_deflect = contenders.iter().filter(|f| f.dest.idx() != i).count()
                    > degree.saturating_sub(1);
                if will_deflect {
                    let f = contenders.pop().unwrap();
                    self.side[i].push(f);
                    self.stats.buffer_writes += 1;
                }
            }

            // Permutation: oldest first takes a productive port if free.
            debug_assert!(contenders.len() <= degree, "router oversubscribed");
            let mut port_taken = [false; 4]; // indexed by Direction::index()
            for mut f in contenders {
                let dest = f.dest.to_coord(self.cfg.cols);
                let productive = noc_sim::routing::productive(c, dest);
                let mut pick: Option<Direction> = None;
                for &d in productive.as_slice() {
                    if d.step(c, self.cfg.cols, self.cfg.rows).is_some() && !port_taken[d.index()] {
                        pick = Some(d);
                        break;
                    }
                }
                let deflected = pick.is_none();
                if pick.is_none() {
                    // Deflect: random free valid port.
                    let free: Vec<Direction> = self
                        .valid_dirs(c)
                        .into_iter()
                        .filter(|d| !port_taken[d.index()])
                        .collect();
                    debug_assert!(!free.is_empty());
                    pick = Some(free[self.rng.gen_range(0..free.len())]);
                }
                let d = pick.unwrap();
                port_taken[d.index()] = true;
                let nb = d.step(c, self.cfg.cols, self.cfg.rows).unwrap();
                f.hops = f.hops.saturating_add(1);
                self.stats
                    .count_link_hop_at(now, NodeId(i as u16), d.index());
                if deflected {
                    self.stats.misroute_hops += 1;
                }
                self.inflight[nb.to_node(self.cfg.cols).idx()].push((now + HOP_LATENCY, f));
            }
        }
        self.cycle += 1;
    }

    /// Runs for `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step_once();
        }
    }

    /// Finalizes and returns the statistics.
    pub fn finish(&mut self) -> Stats {
        let c = self.cycle;
        self.stats.finish(c);
        self.stats.clone()
    }

    /// Flits currently anywhere in the network (diagnostics).
    pub fn flits_in_network(&self) -> usize {
        self.inflight.iter().map(Vec::len).sum::<usize>()
            + self.side.iter().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_traffic::{SyntheticWorkload, TrafficPattern};

    fn sim(kind: DeflectionKind, rate: f64, seed: u64) -> DeflectionSim {
        let cfg = NetConfig::synth(4, 1).with_seed(seed);
        let wl =
            SyntheticWorkload::new(TrafficPattern::UniformRandom, rate, 4, 4, cfg.warmup, seed);
        DeflectionSim::new(cfg, kind, Box::new(wl))
    }

    #[test]
    fn chipper_delivers_at_low_load() {
        let mut s = sim(DeflectionKind::Chipper, 0.02, 3);
        s.run(20_000);
        let st = s.finish();
        assert!(st.ejected_packets > 0);
        assert!(
            st.ejected_packets as f64 >= 0.95 * st.injected_packets as f64,
            "ejected {} of {}",
            st.ejected_packets,
            st.injected_packets
        );
    }

    #[test]
    fn minbd_deflects_less_than_chipper() {
        let mut a = sim(DeflectionKind::Chipper, 0.10, 5);
        a.run(20_000);
        let sa = a.finish();
        let mut b = sim(DeflectionKind::MinBd, 0.10, 5);
        b.run(20_000);
        let sb = b.finish();
        assert!(sa.misroute_hops > 0, "chipper never deflected at 10% load?");
        let ra = sa.misroute_hops as f64 / sa.link_flit_hops.max(1) as f64;
        let rb = sb.misroute_hops as f64 / sb.link_flit_hops.max(1) as f64;
        assert!(rb < ra, "minBD deflection rate {rb} !< chipper {ra}");
    }

    #[test]
    fn deflection_never_loses_flits() {
        let mut s = sim(DeflectionKind::MinBd, 0.15, 7);
        s.run(30_000);
        // Everything injected is either delivered or still in the network.
        let inflight = s.flits_in_network() as u64;
        let reasm: u64 = s
            .reasm
            .iter()
            .map(|m| m.values().map(|r| r.received as u64).sum::<u64>())
            .sum();
        let st = s.finish();
        // Measured flits still travelling are a subset of everything inside.
        assert!(
            st.injected_flits - st.ejected_flits <= inflight + reasm,
            "flit conservation violated: {} injected, {} ejected, {} inside",
            st.injected_flits,
            st.ejected_flits,
            inflight + reasm
        );
    }
}
