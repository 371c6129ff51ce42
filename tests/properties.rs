//! Property-based tests (proptest) over the core data structures and
//! invariants: routing legality, seeker-ring coverage, reservation-table
//! algebra, traffic-pattern ranges, and end-to-end conservation.

use proptest::prelude::*;
use seec_repro::seec::SeekerRing;
use seec_repro::sim::routing::{candidates, hop_dir, productive, try_hop_dir, west_first, xy_path};
use seec_repro::sim::ReservationTable;
use seec_repro::traffic::TrafficPattern;
use seec_repro::types::{BaseRouting, Coord, NodeId};

fn coord_strategy(k: u8) -> impl Strategy<Value = Coord> {
    (0..k, 0..k).prop_map(|(x, y)| Coord::new(x, y))
}

proptest! {
    /// Productive candidates always reduce Manhattan distance by one.
    #[test]
    fn productive_moves_strictly_closer(
        from in coord_strategy(16),
        to in coord_strategy(16),
    ) {
        for &d in productive(from, to).as_slice() {
            let next = d.step(from, 16, 16).expect("productive dir left the mesh");
            prop_assert_eq!(next.manhattan(to) + 1, from.manhattan(to));
        }
    }

    /// Every algorithm's candidate set is a subset of the productive set and
    /// is non-empty whenever from != to.
    #[test]
    fn all_algorithms_are_minimal_and_total(
        from in coord_strategy(16),
        to in coord_strategy(16),
        algo_idx in 0usize..4,
    ) {
        let algo = [
            BaseRouting::Xy,
            BaseRouting::WestFirst,
            BaseRouting::ObliviousMinimal,
            BaseRouting::AdaptiveMinimal,
        ][algo_idx];
        let cands = candidates(algo, from, to);
        if from != to {
            prop_assert!(!cands.is_empty(), "{algo:?} has no route {from}->{to}");
        }
        let prod = productive(from, to);
        for &d in cands.as_slice() {
            prop_assert!(prod.contains(d), "{algo:?} proposed unproductive {d}");
        }
    }

    /// Following west-first greedily always terminates in exactly the
    /// Manhattan distance (no livelock, no detour).
    #[test]
    fn west_first_routes_terminate_minimally(
        from in coord_strategy(12),
        to in coord_strategy(12),
    ) {
        let mut cur = from;
        let mut hops = 0u32;
        while cur != to {
            let cands = west_first(cur, to);
            prop_assert!(!cands.is_empty());
            cur = cands.as_slice()[0].step(cur, 12, 12).unwrap();
            hops += 1;
            prop_assert!(hops <= 24, "west-first looped");
        }
        prop_assert_eq!(hops, from.manhattan(to));
    }

    /// XY paths are minimal, connected, and end at the destination.
    #[test]
    fn xy_paths_are_minimal_walks(
        from in coord_strategy(16),
        to in coord_strategy(16),
    ) {
        let path = xy_path(from, to);
        prop_assert_eq!(path.len() as u32, from.manhattan(to));
        let mut prev = from;
        for &c in &path {
            prop_assert_eq!(prev.manhattan(c), 1);
            // hop_dir accepts exactly the neighbours xy_path emits, and the
            // direction it names really performs the step.
            let d = hop_dir(prev, c);
            prop_assert_eq!(try_hop_dir(prev, c), Some(d));
            prop_assert_eq!(d.step(prev, 16, 16), Some(c));
            prev = c;
        }
        if from != to {
            prop_assert_eq!(*path.last().unwrap(), to);
        }
    }

    /// On arbitrary mesh shapes, every algorithm terminates in exactly the
    /// Manhattan distance even under adversarial candidate choice (any
    /// productive pick strictly reduces distance, so the bound is tight).
    #[test]
    fn every_algorithm_terminates_within_manhattan(
        cols in 2u8..12,
        rows in 2u8..12,
        fx in 0u8..12, fy in 0u8..12,
        tx in 0u8..12, ty in 0u8..12,
        algo_idx in 0usize..4,
        choice in 0usize..997,
    ) {
        let algo = [
            BaseRouting::Xy,
            BaseRouting::WestFirst,
            BaseRouting::ObliviousMinimal,
            BaseRouting::AdaptiveMinimal,
        ][algo_idx];
        let from = Coord::new(fx % cols, fy % rows);
        let to = Coord::new(tx % cols, ty % rows);
        let mut cur = from;
        let mut hops = 0u32;
        while cur != to {
            let cands = candidates(algo, cur, to);
            prop_assert!(!cands.is_empty(), "{algo:?} stuck at {cur}->{to}");
            // Adversarial pick: rotate through the candidate set by `choice`.
            let d = cands.as_slice()[(choice + hops as usize) % cands.len()];
            let next = d.step(cur, cols, rows);
            prop_assert!(next.is_some(), "{algo:?} stepped off {cols}x{rows}");
            cur = next.expect("checked above");
            hops += 1;
            prop_assert!(hops <= u32::from(cols) + u32::from(rows), "{algo:?} detoured");
        }
        prop_assert_eq!(hops, from.manhattan(to));
    }

    /// XY is deterministic: exactly one candidate, X-dimension first.
    #[test]
    fn xy_is_deterministic_dimension_ordered(
        from in coord_strategy(16),
        to in coord_strategy(16),
    ) {
        let cands = candidates(BaseRouting::Xy, from, to);
        if from == to {
            prop_assert!(cands.is_empty());
        } else {
            prop_assert_eq!(cands.len(), 1);
            let d = cands.as_slice()[0];
            if from.x != to.x {
                prop_assert!(d == seec_repro::types::Direction::East
                    || d == seec_repro::types::Direction::West);
            }
        }
    }

    /// West-first turn legality: while the destination lies to the west, West
    /// is the only legal direction (the turns the algorithm forbids).
    #[test]
    fn west_first_goes_west_first(
        from in coord_strategy(16),
        to in coord_strategy(16),
    ) {
        let cands = west_first(from, to);
        if to.x < from.x {
            prop_assert_eq!(cands.len(), 1);
            prop_assert_eq!(cands.as_slice()[0], seec_repro::types::Direction::West);
        } else {
            // Destination not west: West never appears.
            prop_assert!(!cands.contains(seec_repro::types::Direction::West));
        }
    }

    /// `try_hop_dir` is total: Some exactly for unit-distance pairs, and the
    /// direction returned inverts to the starting coordinate.
    #[test]
    fn try_hop_dir_characterizes_adjacency(
        a in coord_strategy(16),
        b in coord_strategy(16),
    ) {
        match try_hop_dir(a, b) {
            Some(d) => {
                prop_assert_eq!(a.manhattan(b), 1);
                prop_assert_eq!(d.step(a, 16, 16), Some(b));
                prop_assert_eq!(try_hop_dir(b, a), Some(d.opposite()));
            }
            None => prop_assert_ne!(a.manhattan(b), 1),
        }
    }

    /// The seeker ring is a closed neighbour walk covering all routers, for
    /// any mesh shape.
    #[test]
    fn seeker_ring_covers_everything(cols in 2u8..10, rows in 1u8..10) {
        let ring = SeekerRing::new(cols, rows);
        let n = cols as usize * rows as usize;
        let mut seen = vec![false; n];
        for i in 0..ring.len() {
            seen[ring.at(i).idx()] = true;
            let a = ring.at(i).to_coord(cols);
            let b = ring.at(i + 1).to_coord(cols);
            prop_assert_eq!(a.manhattan(b), 1, "non-adjacent ring step {}->{}", a, b);
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Reservation-table algebra: reserved slots are reported busy, disjoint
    /// slots stay free, and pruning removes exactly the expired intervals.
    #[test]
    fn reservation_table_algebra(
        spans in prop::collection::vec((0u64..500, 1u64..6), 1..20),
    ) {
        let mut t = ReservationTable::new();
        let node = NodeId(1);
        let mut accepted: Vec<(u64, u64)> = Vec::new();
        for (start, len) in spans {
            let end = start + len - 1;
            if !t.conflicts(node, 0, start, end) {
                t.reserve(node, 0, start, end);
                accepted.push((start, end));
            }
        }
        for &(a, b) in &accepted {
            prop_assert!(t.is_reserved(node, 0, a));
            prop_assert!(t.is_reserved(node, 0, b));
        }
        // Prune at a midpoint and re-check.
        let cut = 250;
        t.prune(cut);
        for &(a, b) in &accepted {
            if b >= cut {
                prop_assert!(t.is_reserved(node, 0, b.max(cut)));
            } else {
                prop_assert!(!t.is_reserved(node, 0, a));
            }
        }
    }

    /// Every traffic pattern stays on the mesh and never targets the source.
    #[test]
    fn patterns_stay_on_mesh(src in 0u16..64, seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        for p in [
            TrafficPattern::UniformRandom,
            TrafficPattern::Transpose,
            TrafficPattern::BitRotation,
            TrafficPattern::Shuffle,
            TrafficPattern::BitComplement,
            TrafficPattern::Tornado,
            TrafficPattern::Neighbor,
            TrafficPattern::Hotspot,
        ] {
            if let Some(d) = p.dest(NodeId(src), 8, 8, &mut rng) {
                prop_assert!(d.0 < 64);
                prop_assert_ne!(d, NodeId(src));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End-to-end conservation at low load: everything injected is delivered
    /// once the pipe drains, for arbitrary seeds and patterns — through the
    /// full engine with SEEC active.
    #[test]
    fn low_load_conservation_with_seec(seed in 0u64..1000, pat_idx in 0usize..4) {
        use seec_repro::seec::SeecMechanism;
        use seec_repro::sim::Sim;
        use seec_repro::traffic::SyntheticWorkload;
        use seec_repro::types::{NetConfig, RoutingAlgo};

        let pattern = TrafficPattern::PAPER[pat_idx];
        let cfg = NetConfig::synth(4, 2)
            .with_routing(RoutingAlgo::Uniform(BaseRouting::AdaptiveMinimal))
            .with_seed(seed);
        let wl = SyntheticWorkload::new(pattern, 0.02, 4, 4, cfg.warmup, seed);
        let mech = SeecMechanism::for_net(&cfg);
        let mut sim = Sim::new(cfg, Box::new(wl), Box::new(mech));
        sim.run(8_000);
        let s = sim.finish();
        prop_assert!(s.injected_packets > 0);
        prop_assert!(
            s.ejected_packets as f64 >= 0.95 * s.injected_packets as f64,
            "seed {}: {} of {} delivered",
            seed,
            s.ejected_packets,
            s.injected_packets
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Wormhole conservation: with shallow VCs and XY routing, everything
    /// injected at low load still arrives, for arbitrary depth and seed.
    #[test]
    fn wormhole_low_load_conservation(depth in 1u8..5, seed in 0u64..500) {
        use seec_repro::sim::{NoMechanism, Sim};
        use seec_repro::traffic::SyntheticWorkload;
        use seec_repro::types::{NetConfig, RoutingAlgo};

        let cfg = NetConfig::synth(4, 2)
            .with_wormhole(depth)
            .with_routing(RoutingAlgo::Uniform(BaseRouting::Xy))
            .with_seed(seed);
        let wl = SyntheticWorkload::new(
            TrafficPattern::UniformRandom, 0.02, 4, 4, cfg.warmup, seed);
        let mut sim = Sim::new(cfg, Box::new(wl), Box::new(NoMechanism));
        sim.run(10_000);
        let s = sim.finish();
        prop_assert!(s.injected_packets > 0);
        prop_assert!(
            s.ejected_packets as f64 >= 0.95 * s.injected_packets as f64,
            "depth {}: {} of {}",
            depth,
            s.ejected_packets,
            s.injected_packets
        );
    }

    /// The FF latency decomposition always sums over its window, every
    /// post-warm-up delivery, across seeds: queued + buffered + bufferless
    /// is the FF packets' total latency, and buffered + bufferless plus the
    /// regular packets' network latency is the window's network latency.
    #[test]
    fn ff_latency_decomposition_sums(seed in 0u64..200) {
        use seec_repro::seec::SeecMechanism;
        use seec_repro::sim::{DeliveredPacket, Sim, Workload};
        use seec_repro::traffic::SyntheticWorkload;
        use seec_repro::types::{Cycle, NetConfig, NodeId, Packet, RoutingAlgo};
        use std::cell::Cell;
        use std::rc::Rc;

        /// Sums over the window: FF deliveries, their total latency, and
        /// every delivery's network latency.
        #[derive(Clone, Copy, Default, Debug, PartialEq)]
        struct Sums {
            ff: u64,
            ff_total: u64,
            network: u64,
        }
        /// Uniform random traffic that tallies each delivery it takes.
        struct Tally {
            traffic: SyntheticWorkload,
            warmup: Cycle,
            sums: Rc<Cell<Sums>>,
        }
        impl Workload for Tally {
            fn generate(&mut self, cycle: Cycle, inject: &mut dyn FnMut(NodeId, Packet)) {
                self.traffic.generate(cycle, inject);
            }
            fn deliver(&mut self, cycle: Cycle, p: &DeliveredPacket) -> bool {
                let taken = self.traffic.deliver(cycle, p);
                if taken && p.eject >= self.warmup {
                    let mut s = self.sums.get();
                    s.network += p.network_latency();
                    if p.ff_upgrade.is_some() {
                        s.ff += 1;
                        s.ff_total += p.total_latency();
                    }
                    self.sums.set(s);
                }
                taken
            }
        }

        let cfg = NetConfig::synth(4, 1)
            .with_routing(RoutingAlgo::Uniform(BaseRouting::AdaptiveMinimal))
            .with_seed(seed);
        let sums = Rc::new(Cell::new(Sums::default()));
        let tally = Tally {
            traffic: SyntheticWorkload::new(
                TrafficPattern::UniformRandom, 0.25, 4, 4, cfg.warmup, seed),
            warmup: cfg.warmup,
            sums: Rc::clone(&sums),
        };
        let mech = SeecMechanism::for_net(&cfg);
        let mut sim = Sim::new(cfg, Box::new(tally), Box::new(mech));
        sim.run(12_000);
        let s = sim.finish();
        let want = sums.get();
        prop_assert!(want.ff > 0, "no FF delivery past warm-up");
        prop_assert_eq!(s.ff_packets_all, want.ff);
        prop_assert_eq!(
            s.sum_ff_queued + s.sum_ff_buffered + s.sum_ff_bufferless,
            want.ff_total
        );
        prop_assert_eq!(
            s.sum_ff_buffered + s.sum_ff_bufferless + s.sum_regular_latency,
            want.network
        );
    }
}
