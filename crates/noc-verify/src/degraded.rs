//! Degraded-mesh certification: re-runs the channel-dependency analysis
//! against the mesh that remains after [`noc_types::FaultConfig`] permanent
//! faults (dead links and routers) are applied.
//!
//! Permanent faults change the routing relation: the simulator switches to
//! the [`RouteMask`] (shortest paths over the degraded graph, intersected
//! with the base algorithm where possible), so the healthy mesh's
//! certificate no longer says anything. This module answers three
//! questions, in order:
//!
//! 1. **Is every pair still routable?** If the dead set disconnects the
//!    live mesh, the configuration is [`RoutingVerdict::Unroutable`] and
//!    the sweep runner must skip it (the simulator would panic at
//!    construction).
//! 2. **Does the escape layer survive?** West-first cannot detour, so an
//!    escape-VC configuration whose required west-first path crosses a dead
//!    link is [`RoutingVerdict::EscapeSevered`]: routable, but the Duato
//!    certificate is gone.
//! 3. **Is the degraded CDG still acyclic / Duato-certifiable?** The
//!    healthy mesh's pipeline answers this, on the CDG of the masked
//!    relation. The masked routing admits detour turns the healthy
//!    algorithm forbade, so e.g. XY with a dead link generally *loses* its
//!    acyclicity certificate — an honest downgrade: on a degraded mesh,
//!    deadlock freedom must come from a recovery mechanism (the paper's
//!    point), not the routing function.

use crate::cdg::Cdg;
use crate::{describe_config, judge, protocol, DeadHardware, Report, RoutingVerdict};
use noc_sim::fault::{DeadSet, RouteMask};
use noc_types::{NetConfig, NodeId};

/// Resolves `cfg`'s permanent faults, checks routability of the live mesh,
/// and certifies the masked routing relation's channel dependency graph.
/// With no permanent faults this is [`crate::certify`] — same CDG, same
/// verdict — reported as a degraded mesh with nothing dead.
pub fn certify_degraded(cfg: &NetConfig) -> Report {
    if !cfg.fault.has_permanent() {
        return Report {
            dead: Some(DeadHardware::default()),
            ..crate::certify(cfg)
        };
    }
    let dead = DeadSet::resolve(cfg);
    let (cols, rows) = (cfg.cols, cfg.rows);
    let hardware = DeadHardware {
        links: dead.dead_link_list(cols, rows),
        routers: (0..cfg.num_nodes())
            .filter(|&i| dead.router_dead(i))
            .map(|i| NodeId(i as u16))
            .collect(),
    };
    let config = format!(
        "{} + {} dead link(s), {} dead router(s)",
        describe_config(cfg),
        hardware.links.len(),
        hardware.routers.len()
    );
    let routing = match RouteMask::build(cols, rows, &dead) {
        Err(u) => RoutingVerdict::Unroutable {
            src: u.src,
            dest: u.dest,
        },
        Ok(mask) => {
            // The escape layer survives only if west-first still reaches
            // everywhere over live links; since west-first cannot detour, a
            // severed path voids the Duato certificate (the config still
            // *runs* — on regular VCs).
            let (wf, severed) = if cfg.routing.has_escape() {
                match RouteMask::build_west_first(cols, rows, &dead) {
                    Ok(m) => (Some(m), None),
                    Err(u) => (None, Some(u)),
                }
            } else {
                (None, None)
            };
            judge(
                cfg,
                &Cdg::build_degraded(cfg, &dead, &mask, wf.as_ref()),
                severed,
            )
        }
    };
    Report {
        config,
        dead: Some(hardware),
        routing,
        protocol: protocol::analyze(cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Witness;
    use noc_types::{BaseRouting, Direction, FaultConfig, RoutingAlgo};

    fn dead(report: &Report) -> &DeadHardware {
        report
            .dead
            .as_ref()
            .expect("a degraded report names what is dead")
    }

    fn cfg(routing: RoutingAlgo, fault: FaultConfig) -> NetConfig {
        NetConfig::synth(4, 4)
            .with_routing(routing)
            .with_fault(fault)
    }

    #[test]
    fn no_permanent_faults_reduces_to_the_healthy_certificate() {
        let healthy = cfg(
            RoutingAlgo::Uniform(BaseRouting::Xy),
            FaultConfig::transient(0.01),
        );
        let report = certify_degraded(&healthy);
        assert!(dead(&report).links.is_empty());
        assert!(matches!(
            report.routing,
            RoutingVerdict::CertifiedAcyclic { .. }
        ));
        assert!(report.certified());
    }

    #[test]
    fn disconnected_corner_is_unroutable() {
        let report = certify_degraded(&cfg(
            RoutingAlgo::Uniform(BaseRouting::AdaptiveMinimal),
            FaultConfig::default().with_dead_links(vec![
                (NodeId(0), Direction::East),
                (NodeId(0), Direction::South),
            ]),
        ));
        match report.routing {
            RoutingVerdict::Unroutable { src, dest } => {
                assert!(src == NodeId(0) || dest == NodeId(0));
            }
            other => panic!("expected Unroutable, got {other:?}"),
        }
        assert!(!report.certified());
    }

    #[test]
    fn dead_row_link_severs_the_escape_layer() {
        // West-first must cross 1→2 for the (1, 2) pair; no detour exists.
        let report = certify_degraded(&cfg(
            RoutingAlgo::EscapeVc {
                normal: BaseRouting::AdaptiveMinimal,
            },
            FaultConfig::default().with_dead_links(vec![(NodeId(1), Direction::East)]),
        ));
        assert!(
            matches!(report.routing, RoutingVerdict::EscapeSevered { .. }),
            "got {:?}",
            report.routing
        );
        assert!(report.routing.routable(), "mesh is still connected");
        assert!(!report.certified());
    }

    #[test]
    fn adaptive_on_a_degraded_mesh_yields_a_witness() {
        let report = certify_degraded(&cfg(
            RoutingAlgo::Uniform(BaseRouting::AdaptiveMinimal),
            FaultConfig::default().with_dead_links(vec![(NodeId(5), Direction::East)]),
        ));
        match &report.routing {
            RoutingVerdict::Deadlockable { witness, .. } => {
                assert!(witness.cycle.len() >= 2);
            }
            other => panic!("expected Deadlockable, got {other:?}"),
        }
        // The report names the dead link.
        assert_eq!(dead(&report).links, vec![(NodeId(5), Direction::East)]);
        assert!(report.render().contains("NOT certifiable"));
    }

    #[test]
    fn dead_router_in_the_interior_stays_routable() {
        let report = certify_degraded(&cfg(
            RoutingAlgo::Uniform(BaseRouting::AdaptiveMinimal),
            FaultConfig::default().with_dead_routers(vec![NodeId(5)]),
        ));
        assert!(report.routing.routable(), "got {:?}", report.routing);
        assert_eq!(dead(&report).routers, vec![NodeId(5)]);
        // All four of the router's links are dead with it.
        assert_eq!(dead(&report).links.len(), 4);
    }

    #[test]
    fn degraded_cdg_omits_dead_channels() {
        let fault = FaultConfig::default().with_dead_links(vec![(NodeId(5), Direction::East)]);
        let c = cfg(RoutingAlgo::Uniform(BaseRouting::Xy), fault);
        let dead = DeadSet::resolve(&c);
        let mask = RouteMask::build(c.cols, c.rows, &dead).unwrap();
        let cdg = Cdg::build_degraded(&c, &dead, &mask, None);
        assert!(cdg
            .channels()
            .iter()
            .all(|ch| !(ch.from.to_node(c.cols) == NodeId(5) && ch.dir == Direction::East)));
        assert!(cdg
            .channels()
            .iter()
            .all(|ch| !(ch.from.to_node(c.cols) == NodeId(6) && ch.dir == Direction::West)));
        // The healthy build has exactly two more channels (one per lost
        // direction, times one vnet).
        let healthy = Cdg::build(&c);
        assert_eq!(healthy.channel_count(), cdg.channel_count() + 2);
    }

    /// The comparable shape of a verdict: variant, CDG size and witness.
    fn shape(v: &RoutingVerdict) -> (&'static str, usize, usize, Option<&Witness>) {
        match v {
            RoutingVerdict::CertifiedAcyclic { channels, edges } => {
                ("acyclic", *channels, *edges, None)
            }
            RoutingVerdict::CertifiedEscape {
                channels, edges, ..
            } => ("escape", *channels, *edges, None),
            RoutingVerdict::Deadlockable {
                witness,
                channels,
                edges,
            } => ("deadlockable", *channels, *edges, Some(witness)),
            other => panic!("a healthy mesh cannot be {other:?}"),
        }
    }

    #[test]
    fn healthy_and_faultless_degraded_certificates_agree_on_the_matrix() {
        for row in crate::matrix::all_configs() {
            let healthy = crate::certify(&row.cfg);
            let degraded =
                certify_degraded(&row.cfg.clone().with_fault(FaultConfig::transient(0.01)));
            let (h, d) = (shape(&healthy.routing), shape(&degraded.routing));
            assert_eq!((h.0, h.1, h.2), (d.0, d.1, d.2), "{}", healthy.config);
            assert_eq!(
                h.3.map(|w| (&w.cycle, w.cols, w.rows)),
                d.3.map(|w| (&w.cycle, w.cols, w.rows)),
                "{}: witnesses differ",
                healthy.config
            );
            assert!(healthy.dead.is_none());
            assert!(dead(&degraded).links.is_empty() && dead(&degraded).routers.is_empty());
        }
    }

    /// The one Duato check: a degraded mesh, like the healthy one, needs a
    /// regular VC beside the escape VC. A dead corner router leaves
    /// west-first routable, so only the VC count decides.
    #[test]
    fn degraded_duato_needs_a_regular_vc_beside_the_escape_vc() {
        let escape = RoutingAlgo::EscapeVc {
            normal: BaseRouting::AdaptiveMinimal,
        };
        let corner = |vcs| {
            NetConfig::synth(4, vcs)
                .with_routing(escape)
                .with_fault(FaultConfig::default().with_dead_routers(vec![NodeId(3)]))
        };
        let two = certify_degraded(&corner(2));
        assert!(
            matches!(two.routing, RoutingVerdict::CertifiedEscape { .. }),
            "{}",
            two.render()
        );
        let one = certify_degraded(&corner(1));
        assert!(
            matches!(one.routing, RoutingVerdict::Deadlockable { .. }),
            "{}",
            one.render()
        );
        assert!(!crate::certify(&NetConfig::synth(4, 1).with_routing(escape)).certified());
    }
}
