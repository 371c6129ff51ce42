//! Per-epoch certification of a fault *schedule*: replays the kill/heal
//! timeline of a [`noc_types::FaultSchedule`] in the pure configuration
//! domain and certifies the degraded mesh the network will be running on
//! after each event.
//!
//! The chaos soak harness (noc-experiments) calls [`certify_schedule`] to
//! fill the `recert` column of the engine's epoch trace: for every scheduled
//! event, what would the static certifier say about the topology from that
//! event onward? The replay mirrors the engine's own state machine exactly —
//! a router kill takes its live links down with it, a router heal revives
//! only links that are not *independently* dead and whose far endpoint is
//! alive — but stays entirely in `noc-types` terms: each epoch is rendered
//! as a synthetic static [`noc_types::FaultConfig`] and pushed through
//! [`crate::certify_degraded`].

use crate::{certify_degraded, Report, RoutingVerdict};
use noc_types::{Direction, FaultAction, NetConfig, NodeId};

/// The certification of one epoch of a fault schedule.
#[derive(Clone, Debug)]
pub struct EpochCertification {
    /// Cycle the epoch opens.
    pub at: u64,
    /// Canonical rendering of the event that opened it (matches the engine's
    /// `EpochRecord::action` format: `cycle:code:node[:dir]`).
    pub action: String,
    /// Full degraded-mesh certification of the post-event topology.
    pub report: Report,
}

impl EpochCertification {
    /// Compact verdict tag for trace rows: `acyclic`, `escape`,
    /// `escape-severed`, `deadlockable`, or `unroutable`.
    pub fn short_verdict(&self) -> &'static str {
        short_verdict(&self.report.routing)
    }
}

/// Compact tag for a [`RoutingVerdict`].
pub fn short_verdict(v: &RoutingVerdict) -> &'static str {
    match v {
        RoutingVerdict::Unroutable { .. } => "unroutable",
        RoutingVerdict::EscapeSevered { .. } => "escape-severed",
        RoutingVerdict::CertifiedAcyclic { .. } => "acyclic",
        RoutingVerdict::CertifiedEscape { .. } => "escape",
        RoutingVerdict::Deadlockable { .. } => "deadlockable",
    }
}

/// Replays `cfg`'s fault schedule and certifies the degraded mesh after
/// every event. Returns one [`EpochCertification`] per event, in timeline
/// order. Errors if the fault configuration (including the schedule) fails
/// validation against the mesh.
///
/// Epochs whose topology cannot run at all report
/// [`RoutingVerdict::Unroutable`] rather than erroring: a schedule is
/// allowed to partition the mesh mid-run (the engine's partial mask and
/// stranded purge handle it), and the harness wants that fact in the trace.
pub fn certify_schedule(cfg: &NetConfig) -> Result<Vec<EpochCertification>, String> {
    cfg.fault.validate(cfg.cols, cfg.rows)?;
    let (cols, rows) = (cfg.cols, cfg.rows);

    // Canonical physical-link id: named from its lower-numbered endpoint.
    let canon = |node: NodeId, d: Direction| -> (NodeId, Direction) {
        match d.step(node.to_coord(cols), cols, rows) {
            Some(p) if p.to_node(cols).0 < node.0 => (p.to_node(cols), d.opposite()),
            _ => (node, d),
        }
    };

    // Independently-dead links and dead routers, tracked exactly like the
    // engine's chaos state: router kills do NOT enter `link_down` (healing
    // the router revives its links), schedule link kills do.
    let mut link_down: Vec<(NodeId, Direction)> = cfg
        .fault
        .dead_links
        .iter()
        .map(|&(n, d)| canon(n, d))
        .collect();
    let mut router_down: Vec<NodeId> = cfg.fault.dead_routers.clone();

    let mut events = cfg.fault.schedule.events.clone();
    events.sort_by_key(|e| e.at);

    let mut out = Vec::with_capacity(events.len());
    for ev in &events {
        let action = match ev.action {
            FaultAction::KillLink(n, d) => {
                let id = canon(n, d);
                if !link_down.contains(&id) {
                    link_down.push(id);
                }
                format!("{}:kl:{}:{}", ev.at, n.0, d.index())
            }
            FaultAction::HealLink(n, d) => {
                let id = canon(n, d);
                link_down.retain(|&l| l != id);
                format!("{}:hl:{}:{}", ev.at, n.0, d.index())
            }
            FaultAction::KillRouter(n) => {
                if !router_down.contains(&n) {
                    router_down.push(n);
                }
                format!("{}:kr:{}", ev.at, n.0)
            }
            FaultAction::HealRouter(n) => {
                router_down.retain(|&r| r != n);
                format!("{}:hr:{}", ev.at, n.0)
            }
        };
        // Synthesize the epoch's topology as a static fault config. Links
        // adjacent to dead routers are implied by the router list (DeadSet
        // resolution expands them), so only independently-dead links are
        // listed — and only once each, thanks to the canonical ids.
        let epoch_fault = noc_types::FaultConfig::default()
            .with_dead_links(link_down.clone())
            .with_dead_routers(router_down.clone());
        let epoch_cfg = cfg.clone().with_fault(epoch_fault);
        out.push(EpochCertification {
            at: ev.at,
            action,
            report: certify_degraded(&epoch_cfg),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{BaseRouting, FaultConfig, FaultSchedule, RoutingAlgo};

    fn dead(epoch: &EpochCertification) -> &crate::DeadHardware {
        epoch
            .report
            .dead
            .as_ref()
            .expect("epochs are degraded reports")
    }

    fn base(routing: RoutingAlgo) -> NetConfig {
        NetConfig::synth(4, 4).with_routing(routing)
    }

    #[test]
    fn flap_certifies_each_epoch_and_recovers_the_healthy_certificate() {
        let cfg = base(RoutingAlgo::Uniform(BaseRouting::Xy)).with_fault(
            FaultConfig::default().with_schedule(FaultSchedule::link_flap(
                NodeId(5),
                Direction::East,
                100,
                900,
            )),
        );
        let epochs = certify_schedule(&cfg).unwrap();
        assert_eq!(epochs.len(), 2);
        assert_eq!(epochs[0].at, 100);
        assert!(epochs[0].action.contains(":kl:"));
        // XY with a detour loses acyclicity (the honest downgrade)...
        assert_eq!(epochs[0].short_verdict(), "deadlockable");
        // ...and the heal restores the healthy acyclic certificate exactly.
        assert_eq!(epochs[1].short_verdict(), "acyclic");
        assert!(dead(&epochs[1]).links.is_empty());
    }

    #[test]
    fn router_kill_epochs_expand_links_and_heal_revives_them() {
        let cfg = base(RoutingAlgo::Uniform(BaseRouting::AdaptiveMinimal)).with_fault(
            FaultConfig::default().with_schedule(FaultSchedule::new(vec![
                noc_types::FaultEvent {
                    at: 50,
                    action: FaultAction::KillRouter(NodeId(5)),
                },
                noc_types::FaultEvent {
                    at: 500,
                    action: FaultAction::HealRouter(NodeId(5)),
                },
            ])),
        );
        let epochs = certify_schedule(&cfg).unwrap();
        assert_eq!(epochs.len(), 2);
        assert_eq!(dead(&epochs[0]).routers, vec![NodeId(5)]);
        assert_eq!(dead(&epochs[0]).links.len(), 4);
        assert!(epochs[0].report.routing.routable());
        assert!(dead(&epochs[1]).routers.is_empty());
        assert!(dead(&epochs[1]).links.is_empty());
    }

    #[test]
    fn partitioning_epochs_report_unroutable_instead_of_erroring() {
        // Cutting both links of the corner node partitions the mesh for the
        // middle epoch; the schedule then heals one of them.
        let cfg = base(RoutingAlgo::Uniform(BaseRouting::AdaptiveMinimal)).with_fault(
            FaultConfig::default().with_schedule(FaultSchedule::new(vec![
                noc_types::FaultEvent {
                    at: 10,
                    action: FaultAction::KillLink(NodeId(0), Direction::East),
                },
                noc_types::FaultEvent {
                    at: 20,
                    action: FaultAction::KillLink(NodeId(0), Direction::South),
                },
                noc_types::FaultEvent {
                    at: 30,
                    action: FaultAction::HealLink(NodeId(0), Direction::East),
                },
            ])),
        );
        let epochs = certify_schedule(&cfg).unwrap();
        assert_eq!(epochs.len(), 3);
        assert!(epochs[0].report.routing.routable());
        assert_eq!(epochs[1].short_verdict(), "unroutable");
        assert!(epochs[2].report.routing.routable());
    }

    #[test]
    fn invalid_schedules_are_rejected() {
        // Healing a live link is a state-machine violation.
        let cfg = base(RoutingAlgo::Uniform(BaseRouting::Xy)).with_fault(
            FaultConfig::default().with_schedule(FaultSchedule::new(vec![noc_types::FaultEvent {
                at: 10,
                action: FaultAction::HealLink(NodeId(5), Direction::East),
            }])),
        );
        assert!(certify_schedule(&cfg).is_err());
    }
}
