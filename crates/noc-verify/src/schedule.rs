//! Per-epoch certification of a fault *schedule*: certifies the degraded
//! mesh the network runs on after each event of a
//! [`noc_types::FaultSchedule`].
//!
//! The chaos soak harness (noc-experiments) calls [`certify_schedule`] to
//! fill the `recert` column of the engine's epoch trace: for every scheduled
//! event, what would the static certifier say about the topology from that
//! event onward? The epochs are [`noc_types::FaultConfig::epochs`], the one
//! walk the engine's chaos layer reads too, so the certifier and the engine
//! agree on what is dead by construction. Each epoch's dead set is a static
//! fault config, pushed through [`crate::certify_degraded`].

use crate::{certify_degraded, Report, RoutingVerdict};
use noc_types::NetConfig;

/// The certification of one epoch of a fault schedule.
#[derive(Clone, Debug)]
pub struct EpochCertification {
    /// Cycle the epoch opens.
    pub at: u64,
    /// Key of the event that opened it (the engine's `EpochRecord::action`:
    /// `cycle:code:node[:dir]`).
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

/// Certifies the degraded mesh after every event of `cfg`'s fault schedule.
/// Returns one [`EpochCertification`] per event, in timeline order. Errors
/// if the fault configuration (including the schedule) fails validation
/// against the mesh.
///
/// Epochs whose topology cannot run at all report
/// [`RoutingVerdict::Unroutable`] rather than erroring: a schedule is
/// allowed to partition the mesh mid-run (the engine's partial mask and
/// stranded purge handle it), and the harness wants that fact in the trace.
pub fn certify_schedule(cfg: &NetConfig) -> Result<Vec<EpochCertification>, String> {
    let epochs = cfg.fault.epochs(cfg.cols, cfg.rows)?;
    Ok(epochs
        .into_iter()
        .map(|e| EpochCertification {
            at: e.event.at,
            action: e.key,
            report: certify_degraded(&cfg.clone().with_fault(e.dead)),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{
        BaseRouting, Direction, FaultAction, FaultConfig, FaultSchedule, NodeId, RoutingAlgo,
    };

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
