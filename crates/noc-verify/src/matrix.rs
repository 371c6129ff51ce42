//! The shared certification expectation matrix, plus the cross-check API
//! used by external reachability analyzers (`noc-model`).
//!
//! `--all-configs` (CI's certification gate) and the `model_check`
//! differential harness must agree on *which* configurations the paper
//! cares about and what verdict each must receive; this module is the
//! single source of truth both consume. The [`cross_check`] function
//! encodes the soundness relation between the two analyzers:
//!
//! * the CDG certifier is **sound**: a certified configuration admits no
//!   reachable wedge under *any* arbiter, so an external analyzer that
//!   reaches one has found a bug in one of the two tools;
//! * the CDG certifier is **conservative**: a `Deadlockable` verdict only
//!   proves a cyclic wait *could* close. On the paper's minimal-adaptive
//!   and oblivious configurations the cycle is genuinely closable, so the
//!   bounded model checker must exhibit a concrete reachable wedge — a
//!   `Deadlockable` row with no witness within the bound means either the
//!   bound is too small or one analyzer is wrong. Both cases must fail CI.

use crate::RoutingVerdict;
use noc_types::{BaseRouting, NetConfig, RecoveryConfig, RoutingAlgo};

/// One row of the expectation matrix.
#[derive(Clone, Debug)]
pub struct MatrixRow {
    /// The configuration to certify.
    pub cfg: NetConfig,
    /// Whether [`crate::certify`] (or [`crate::certify_recovery`] for the
    /// recovery matrix) must report it certified.
    pub expect_certified: bool,
    /// Human-readable expectation, printed on mismatch.
    pub why: &'static str,
}

/// The expectation matrix exercised by `noc-verify --all-configs` (and CI):
/// every headline configuration of the paper, with the verdict it must
/// receive.
pub fn all_configs() -> Vec<MatrixRow> {
    let mut out = Vec::new();
    let mut push = |cfg: NetConfig, expect_certified: bool, why: &'static str| {
        out.push(MatrixRow {
            cfg,
            expect_certified,
            why,
        });
    };
    for k in [4u8, 8] {
        for (routing, certified) in [
            (RoutingAlgo::Uniform(BaseRouting::Xy), true),
            (RoutingAlgo::Uniform(BaseRouting::WestFirst), true),
            (RoutingAlgo::Uniform(BaseRouting::ObliviousMinimal), false),
            (RoutingAlgo::Uniform(BaseRouting::AdaptiveMinimal), false),
            (
                RoutingAlgo::EscapeVc {
                    normal: BaseRouting::AdaptiveMinimal,
                },
                true,
            ),
        ] {
            push(
                NetConfig::synth(k, 4).with_routing(routing),
                certified,
                if certified {
                    "must certify"
                } else {
                    "must produce a witness"
                },
            );
        }
        // Full-system: six VNets isolate the protocol's class dependencies…
        push(
            NetConfig::full_system(k, 6, 2).with_routing(RoutingAlgo::Uniform(BaseRouting::Xy)),
            true,
            "six VNets must certify both layers",
        );
        // …a single shared VNet must be flagged at the protocol layer.
        push(
            NetConfig::full_system(k, 1, 2).with_routing(RoutingAlgo::Uniform(BaseRouting::Xy)),
            false,
            "one shared VNet must fail the protocol layer",
        );
    }
    out
}

/// The recovery-channel expectation matrix: armed meshes must certify,
/// degenerate arrangements must be refused.
pub fn all_recovery_configs() -> Vec<MatrixRow> {
    let mut out = Vec::new();
    for k in [4u8, 8] {
        out.push(MatrixRow {
            cfg: NetConfig::synth(k, 4).with_recovery(RecoveryConfig::drain()),
            expect_certified: true,
            why: "armed recovery channel must certify",
        });
    }
    out.push(MatrixRow {
        cfg: NetConfig::synth(8, 4)
            .with_recovery(RecoveryConfig::drain().with_stuck_threshold(1_000_000)),
        expect_certified: false,
        why: "a drain threshold above the watchdog's must be refused",
    });
    out
}

/// Reachability verdict produced by an external exhaustive analyzer (the
/// `noc-model` bounded model checker) for one configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReachVerdict {
    /// Exhaustive exploration (within the stated bound) found no state in
    /// which some packet is in the network and no transition is enabled.
    NoReachableWedge,
    /// A concrete reachable wedge exists; the analyzer holds a trace.
    WedgeReachable,
    /// Packets can circulate forever without any ejecting (a reachable
    /// lasso over movement-only transitions).
    LivelockSuspect,
}

/// Cross-checks a CDG routing verdict against an external reachability
/// verdict for the *same* configuration. `Ok` when the pair is consistent;
/// `Err` carries a description of the disagreement — which, per the
/// soundness relation documented on this module, is always a bug in one of
/// the two analyzers (or an under-provisioned exploration bound).
pub fn cross_check(routing: &RoutingVerdict, reach: ReachVerdict) -> Result<(), String> {
    match (routing.certified(), reach) {
        (true, ReachVerdict::NoReachableWedge) | (false, ReachVerdict::WedgeReachable) => Ok(()),
        (true, ReachVerdict::WedgeReachable) => Err(
            "CDG certifier says deadlock-free but the model checker reached a wedge: \
             the certificate is unsound or the abstract model admits an illegal move"
                .into(),
        ),
        (false, ReachVerdict::NoReachableWedge) => Err(
            "CDG certifier produced a cyclic witness but no wedge is reachable within \
             the bound: the witness cycle cannot close (certifier too conservative) or \
             the exploration bound is too small"
                .into(),
        ),
        (_, ReachVerdict::LivelockSuspect) => Err(
            "model checker found a reachable movement lasso: minimal routing cannot \
             cycle, so the abstract transition relation admits an unproductive hop"
                .into(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify;

    #[test]
    fn matrix_rows_match_their_expectations() {
        for row in all_configs() {
            let report = certify(&row.cfg);
            assert_eq!(
                report.certified(),
                row.expect_certified,
                "{}: {}",
                report.config,
                row.why
            );
        }
    }

    #[test]
    fn cross_check_accepts_agreement_and_rejects_disagreement() {
        let rows = all_configs();
        let certified = rows
            .iter()
            .find(|r| r.expect_certified)
            .map(|r| certify(&r.cfg).routing)
            .expect("matrix has certified rows");
        let deadlockable = rows
            .iter()
            .map(|r| certify(&r.cfg).routing)
            .find(|v| !v.certified())
            .expect("matrix has deadlockable rows");

        assert!(cross_check(&certified, ReachVerdict::NoReachableWedge).is_ok());
        assert!(cross_check(&certified, ReachVerdict::WedgeReachable).is_err());
        assert!(cross_check(&certified, ReachVerdict::LivelockSuspect).is_err());
        assert!(cross_check(&deadlockable, ReachVerdict::WedgeReachable).is_ok());
        assert!(cross_check(&deadlockable, ReachVerdict::NoReachableWedge).is_err());
    }

    #[test]
    fn cross_check_accepts_a_degraded_verdict() {
        use noc_types::{Direction, FaultConfig, NodeId};
        let cfg = NetConfig::synth(4, 4)
            .with_routing(RoutingAlgo::Uniform(BaseRouting::AdaptiveMinimal))
            .with_fault(FaultConfig::default().with_dead_links(vec![(NodeId(5), Direction::East)]));
        let routing = crate::certify_degraded(&cfg).routing;
        assert!(matches!(routing, RoutingVerdict::Deadlockable { .. }));
        assert!(cross_check(&routing, ReachVerdict::WedgeReachable).is_ok());
        assert!(cross_check(&routing, ReachVerdict::NoReachableWedge).is_err());
    }
}
