//! The VC-based mesh router: route computation, combined VA+SA (1-cycle
//! pipeline), and the data structures the network engine drives.

use crate::routing::{candidates, masked_candidates, west_first, Candidates};
use crate::soa::CreditView;
use crate::vc::VirtualChannel;
use noc_types::{
    BaseRouting, Coord, Direction, Flit, NetConfig, NodeId, PacketId, PortId, NUM_PORTS,
};
use rand::rngs::SmallRng;
use rand::Rng;

/// One router input port and its virtual channels.
#[derive(Clone, Debug)]
pub struct InputPort {
    pub vcs: Vec<VirtualChannel>,
}

/// One router output port: the neighbour it connects to and this router's
/// outstanding claims on the downstream input VCs.
///
/// A claim is set when this router (the unique upstream of that input port)
/// allocates a downstream VC to a packet, and cleared when the packet's tail
/// flit is sent. Claims close the window between allocation and the head
/// flit's arrival during which the downstream VC still *looks* empty.
#[derive(Clone, Debug)]
pub struct OutputPort {
    /// Downstream router for cardinal ports; `None` for the local port and
    /// for ports that would leave the mesh.
    pub neighbor: Option<NodeId>,
    /// Per-downstream-VC claims. For the local port this is sized and
    /// indexed like the NIC's flattened ejection VCs.
    pub vc_claimed: Vec<Option<PacketId>>,
    /// Flits sent toward each downstream VC that have not yet arrived
    /// (wormhole flit-credit accounting; unused for the local port).
    pub inflight: Vec<u8>,
}

/// A mesh router.
#[derive(Clone, Debug)]
pub struct Router {
    pub id: NodeId,
    pub coord: Coord,
    pub inputs: Vec<InputPort>,
    pub outputs: Vec<OutputPort>,
    /// Per-input-port round-robin pointer over VCs (switch-allocation stage 1).
    pub sa_in_rr: [usize; NUM_PORTS],
    /// Per-output-port round-robin pointer over input ports (stage 2).
    pub sa_out_rr: [usize; NUM_PORTS],
}

impl Router {
    pub fn new(id: NodeId, cfg: &NetConfig) -> Router {
        let coord = id.to_coord(cfg.cols);
        let vcs = cfg.vcs_per_port();
        let inputs = (0..NUM_PORTS)
            .map(|_| InputPort {
                vcs: vec![VirtualChannel::default(); vcs],
            })
            .collect();
        let outputs = Direction::ALL
            .iter()
            .map(|&d| {
                let neighbor = if d.is_cardinal() {
                    d.step(coord, cfg.cols, cfg.rows)
                        .map(|c| c.to_node(cfg.cols))
                } else {
                    None
                };
                let claim_slots = if d == Direction::Local {
                    cfg.classes as usize * cfg.ejection_vcs_per_class as usize
                } else {
                    vcs
                };
                OutputPort {
                    neighbor,
                    vc_claimed: vec![None; claim_slots],
                    inflight: vec![0; claim_slots],
                }
            })
            .collect();
        Router {
            id,
            coord,
            inputs,
            outputs,
            sa_in_rr: [0; NUM_PORTS],
            sa_out_rr: [0; NUM_PORTS],
        }
    }

    /// Total buffered flits (diagnostics / invariant checks).
    pub fn buffered_flits(&self) -> usize {
        self.inputs
            .iter()
            .flat_map(|p| p.vcs.iter())
            .map(|vc| vc.buf.len())
            .sum()
    }
}

/// A granted switch-allocation move, produced by [`decide_router`] and
/// applied by the network engine.
#[derive(Clone, Copy, Debug)]
pub struct Move {
    pub node: usize,
    pub in_port: PortId,
    pub in_vc: usize,
    pub out_port: PortId,
    /// `Some((out_vc, escape))` when this move also performs VC allocation
    /// (head flits); `None` for body/tail flits following an allocated route.
    pub alloc: Option<(usize, bool)>,
}

/// Route computation: picks the output port for the packet in `(in_port,vc)`.
/// Called once per router visit (the choice then sticks, as in Garnet).
/// Adaptive routing consults the credit view for free-VC counts; oblivious
/// picks uniformly at random; XY/west-first are (near-)deterministic.
///
/// On a degraded mesh (`mask` present) the candidates are
/// [`masked_candidates`], so XY stays XY wherever its path is live. Degraded
/// configurations are certified routable up front: that set is never empty.
#[allow(clippy::too_many_arguments)]
pub fn route_compute(
    algo: BaseRouting,
    from: Coord,
    dest: Coord,
    vnet: u8,
    down: CreditView<'_>,
    mask: Option<&crate::fault::RouteMask>,
    rng: &mut SmallRng,
) -> PortId {
    debug_assert_ne!(from, dest);
    let cands = match mask {
        None => candidates(algo, from, dest),
        Some(m) => masked_candidates(algo, m, from, dest),
    };
    assert!(
        !cands.is_empty(),
        "no live route from {from} to {dest}: degraded mesh not certified"
    );
    let slice = cands.as_slice();
    if slice.len() == 1 {
        return slice[0].index();
    }
    match algo {
        BaseRouting::AdaptiveMinimal | BaseRouting::WestFirst => {
            // Weight by downstream free VCs; random tie-break. Allocation-
            // free: this runs once per waiting head per cycle.
            let mut tied = [Direction::Local; 4];
            let mut n = 0;
            let mut best = 0usize;
            for &d in slice {
                let free = down.free_normal(d.index(), vnet);
                if n == 0 || free > best {
                    best = free;
                    tied[0] = d;
                    n = 1;
                } else if free == best {
                    tied[n] = d;
                    n += 1;
                }
            }
            tied[rng.gen_range(0..n)].index()
        }
        _ => slice[rng.gen_range(0..slice.len())].index(),
    }
}

/// Attempted VC allocation for a head flit whose output port has been chosen
/// (`pending`). Returns `(out_port, out_vc, escape)`.
///
/// Duato escape fallback: when no normal VC is free on the pending port, the
/// packet may instead enter the *escape VC* of any west-first-legal
/// productive port (and then stays in escape VCs until ejection).
pub fn try_alloc(
    flit: &Flit,
    in_escape: bool,
    pending: PortId,
    here: Coord,
    cfg: &NetConfig,
    down: CreditView<'_>,
) -> Option<(PortId, usize, bool)> {
    let vnet = cfg.vnet_of(flit.class);
    if in_escape {
        // Restricted to west-first candidates, escape VCs only.
        let dest = flit.dest.to_coord(cfg.cols);
        for &d in west_first(here, dest).as_slice() {
            if let Some(vc) = down.free_escape(d.index(), vnet) {
                return Some((d.index(), vc, true));
            }
        }
        return None;
    }
    if let Some(vc) = down.first_free_normal(pending, vnet) {
        return Some((pending, vc, false));
    }
    if cfg.routing.has_escape() {
        let dest = flit.dest.to_coord(cfg.cols);
        for &d in west_first(here, dest).as_slice() {
            if let Some(vc) = down.free_escape(d.index(), vnet) {
                return Some((d.index(), vc, true));
            }
        }
    }
    None
}

/// Attempted ejection-VC allocation for a head flit at its destination
/// router. The local-port lane mask is indexed like flattened NIC ejection
/// VCs.
pub fn try_alloc_ejection(flit: &Flit, cfg: &NetConfig, down: CreditView<'_>) -> Option<usize> {
    let per = cfg.ejection_vcs_per_class as usize;
    let s = flit.class.idx() * per;
    down.first_free_in(Direction::Local.index(), s, per)
}

/// The west-first candidate set from `here` toward `dest` (exposed for the
/// escape-VC and TFC baselines).
pub fn wf_candidates(here: Coord, dest: Coord) -> Candidates {
    west_first(here, dest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::CreditSoA;
    use noc_types::{MessageClass, Packet, PacketId, RoutingAlgo};
    use rand::SeedableRng;

    fn cfg() -> NetConfig {
        NetConfig::synth(4, 2)
    }

    fn port_lanes(cfg: &NetConfig, p: usize) -> usize {
        if p == Direction::Local.index() {
            cfg.classes as usize * cfg.ejection_vcs_per_class as usize
        } else {
            cfg.vcs_per_port()
        }
    }

    fn credits_all(cfg: &NetConfig, free: bool) -> CreditSoA {
        let mut soa = CreditSoA::new(cfg, 1);
        for p in 0..NUM_PORTS {
            for v in 0..port_lanes(cfg, p) {
                soa.set_free(0, p, v, free);
            }
        }
        soa
    }

    fn flit_to(dest: NodeId) -> Flit {
        let p = Packet {
            id: PacketId(1),
            src: NodeId(0),
            dest,
            class: MessageClass(0),
            len_flits: 1,
            birth: 0,
            measured: true,
        };
        Flit::from_packet(&p, 0, 0)
    }

    #[test]
    fn router_construction_wires_neighbors() {
        let c = cfg();
        let r = Router::new(NodeId(5), &c); // coord (1,1)
        assert_eq!(r.coord, Coord::new(1, 1));
        assert_eq!(
            r.outputs[Direction::North.index()].neighbor,
            Some(NodeId(1))
        );
        assert_eq!(
            r.outputs[Direction::South.index()].neighbor,
            Some(NodeId(9))
        );
        assert_eq!(r.outputs[Direction::East.index()].neighbor, Some(NodeId(6)));
        assert_eq!(r.outputs[Direction::West.index()].neighbor, Some(NodeId(4)));
        assert_eq!(r.outputs[Direction::Local.index()].neighbor, None);

        let corner = Router::new(NodeId(0), &c);
        assert_eq!(corner.outputs[Direction::North.index()].neighbor, None);
        assert_eq!(corner.outputs[Direction::West.index()].neighbor, None);
    }

    #[test]
    fn route_compute_xy_is_deterministic() {
        let c = cfg().with_routing(RoutingAlgo::Uniform(BaseRouting::Xy));
        let d = credits_all(&c, true);
        let mut rng = SmallRng::seed_from_u64(0);
        let p = route_compute(
            BaseRouting::Xy,
            Coord::new(0, 0),
            Coord::new(3, 2),
            0,
            d.view(0),
            None,
            &mut rng,
        );
        assert_eq!(p, Direction::East.index());
    }

    #[test]
    fn adaptive_prefers_less_congested_port() {
        let c = cfg();
        let mut d = credits_all(&c, true);
        // Congest East entirely; South stays free.
        for v in 0..c.vcs_per_port() {
            d.set_free(0, Direction::East.index(), v, false);
        }
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..20 {
            let p = route_compute(
                BaseRouting::AdaptiveMinimal,
                Coord::new(0, 0),
                Coord::new(2, 2),
                0,
                d.view(0),
                None,
                &mut rng,
            );
            assert_eq!(p, Direction::South.index());
        }
    }

    #[test]
    fn try_alloc_picks_first_free_normal_vc() {
        let c = cfg();
        let mut d = credits_all(&c, true);
        d.set_free(0, Direction::East.index(), 0, false);
        let f = flit_to(NodeId(3));
        let got = try_alloc(
            &f,
            false,
            Direction::East.index(),
            Coord::new(0, 0),
            &c,
            d.view(0),
        );
        assert_eq!(got, Some((Direction::East.index(), 1, false)));
    }

    #[test]
    fn escape_fallback_requires_west_first_legality() {
        let mut c = cfg();
        c.routing = RoutingAlgo::EscapeVc {
            normal: BaseRouting::AdaptiveMinimal,
        };
        // All normal VCs busy everywhere; only escape VCs free.
        let mut d = credits_all(&c, false);
        for p in 0..4 {
            d.set_free(0, p, c.vcs_per_port() - 1, true);
        }
        // Dest to the south-east: WF candidates are E and S.
        let f = flit_to(NodeId(10)); // (2,2) from (0,0)
        let got = try_alloc(
            &f,
            false,
            Direction::East.index(),
            Coord::new(0, 0),
            &c,
            d.view(0),
        );
        let (port, vc, esc) = got.unwrap();
        assert!(esc);
        assert_eq!(vc, c.vcs_per_port() - 1);
        assert!(port == Direction::East.index() || port == Direction::South.index());

        // Dest to the west: WF forces West.
        let f2 = flit_to(NodeId(4)); // (0,1) from coord (2,1)
        let got2 = try_alloc(
            &f2,
            false,
            Direction::West.index(),
            Coord::new(2, 1),
            &c,
            d.view(0),
        );
        assert_eq!(got2.unwrap().0, Direction::West.index());
    }

    #[test]
    fn escape_resident_stays_in_escape() {
        let mut c = cfg();
        c.routing = RoutingAlgo::EscapeVc {
            normal: BaseRouting::AdaptiveMinimal,
        };
        let d = credits_all(&c, true); // everything free
        let f = flit_to(NodeId(10));
        let got = try_alloc(
            &f,
            true,
            Direction::East.index(),
            Coord::new(0, 0),
            &c,
            d.view(0),
        );
        let (_, vc, esc) = got.unwrap();
        assert!(esc, "escape resident must stay in escape VCs");
        assert_eq!(vc, c.vcs_per_port() - 1);
    }

    #[test]
    fn ejection_alloc_is_class_scoped() {
        let c = NetConfig::full_system(4, 6, 2);
        let mut d = credits_all(&c, true);
        let mut f = flit_to(NodeId(0));
        f.class = MessageClass(3);
        d.set_free(0, Direction::Local.index(), 6, false);
        assert_eq!(try_alloc_ejection(&f, &c, d.view(0)), Some(7));
        d.set_free(0, Direction::Local.index(), 7, false);
        assert_eq!(try_alloc_ejection(&f, &c, d.view(0)), None);
    }
}
