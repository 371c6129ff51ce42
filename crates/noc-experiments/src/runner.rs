//! Scheme registry and single-point runners.

use noc_baselines::{
    escape_vc_config, DeflectionKind, DeflectionSim, DrainMechanism, SpinMechanism, SwapMechanism,
    TfcMechanism,
};
use noc_protocol::{ProtocolConfig, ProtocolWorkload};
use noc_sim::network::NocModel;
use noc_sim::{Mechanism, NoMechanism, Sim, Stats};
use noc_traffic::apps::AppProfile;
use noc_traffic::{SyntheticWorkload, TrafficPattern};
use noc_types::{BaseRouting, NetConfig, RoutingAlgo, SchemeKind};

/// Every `NoC` design point the paper evaluates (Table 4's baseline column
/// plus SEEC/mSEEC). Routing defaults follow the paper: the reactive and
/// subactive schemes use fully-adaptive minimal random; the `routing` fields
/// allow Fig 12/15's variants.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Scheme {
    Xy,
    WestFirst,
    /// Fully-adaptive minimal routing with **no** escape mechanism — the
    /// statically deadlockable baseline the paper motivates SEEC with. Only
    /// runnable behind an armed (and certified) runtime recovery channel.
    Adaptive,
    Tfc,
    EscapeVc {
        normal: BaseRouting,
    },
    Spin,
    Swap,
    Drain,
    Seec {
        routing: BaseRouting,
    },
    MSeec {
        routing: BaseRouting,
    },
    MinBd,
    Chipper,
}

impl Scheme {
    /// The paper's default variants for headline comparisons.
    pub const HEADLINE: [Scheme; 8] = [
        Scheme::Xy,
        Scheme::WestFirst,
        Scheme::Tfc,
        Scheme::EscapeVc {
            normal: BaseRouting::AdaptiveMinimal,
        },
        Scheme::Spin,
        Scheme::Swap,
        Scheme::Drain,
        Scheme::Seec {
            routing: BaseRouting::AdaptiveMinimal,
        },
    ];

    pub fn seec() -> Scheme {
        Scheme::Seec {
            routing: BaseRouting::AdaptiveMinimal,
        }
    }

    pub fn mseec() -> Scheme {
        Scheme::MSeec {
            routing: BaseRouting::AdaptiveMinimal,
        }
    }

    pub fn escape() -> Scheme {
        Scheme::EscapeVc {
            normal: BaseRouting::AdaptiveMinimal,
        }
    }

    pub fn kind(self) -> SchemeKind {
        match self {
            Scheme::Xy | Scheme::WestFirst | Scheme::Adaptive => SchemeKind::None,
            Scheme::Tfc => SchemeKind::Tfc,
            Scheme::EscapeVc { .. } => SchemeKind::EscapeVc,
            Scheme::Spin => SchemeKind::Spin,
            Scheme::Swap => SchemeKind::Swap,
            Scheme::Drain => SchemeKind::Drain,
            Scheme::Seec { .. } => SchemeKind::Seec,
            Scheme::MSeec { .. } => SchemeKind::MSeec,
            Scheme::MinBd => SchemeKind::MinBd,
            Scheme::Chipper => SchemeKind::Chipper,
        }
    }

    /// Inverse of [`Scheme::label`] for the labels that appear in sweep
    /// rows and job specs. `None` for a label no variant produces, so a
    /// typo in a job submission is a 400, not a silent default.
    pub fn from_label(label: &str) -> Option<Scheme> {
        let s = match label {
            "XY" => Scheme::Xy,
            "WF" => Scheme::WestFirst,
            "ADAPT" => Scheme::Adaptive,
            "TFC" => Scheme::Tfc,
            "EscVC" => Scheme::escape(),
            "EscVC-obl" => Scheme::EscapeVc {
                normal: BaseRouting::ObliviousMinimal,
            },
            "SPIN" => Scheme::Spin,
            "SWAP" => Scheme::Swap,
            "DRAIN" => Scheme::Drain,
            "SEEC" => Scheme::seec(),
            "SEEC-obl" => Scheme::Seec {
                routing: BaseRouting::ObliviousMinimal,
            },
            "SEEC-XY" => Scheme::Seec {
                routing: BaseRouting::Xy,
            },
            "SEEC-WF" => Scheme::Seec {
                routing: BaseRouting::WestFirst,
            },
            "mSEEC" => Scheme::mseec(),
            "mSEEC-obl" => Scheme::MSeec {
                routing: BaseRouting::ObliviousMinimal,
            },
            "minBD" => Scheme::MinBd,
            "CHIPPER" => Scheme::Chipper,
            _ => return None,
        };
        Some(s)
    }

    /// Legend label, matching the paper's figures.
    pub fn label(self) -> String {
        match self {
            Scheme::Xy => "XY".into(),
            Scheme::WestFirst => "WF".into(),
            Scheme::Adaptive => "ADAPT".into(),
            Scheme::Tfc => "TFC".into(),
            Scheme::EscapeVc { normal } => match normal {
                BaseRouting::ObliviousMinimal => "EscVC-obl".into(),
                BaseRouting::AdaptiveMinimal => "EscVC".into(),
                _ => format!("EscVC-{normal:?}"),
            },
            Scheme::Spin => "SPIN".into(),
            Scheme::Swap => "SWAP".into(),
            Scheme::Drain => "DRAIN".into(),
            Scheme::Seec { routing } => match routing {
                BaseRouting::AdaptiveMinimal => "SEEC".into(),
                BaseRouting::ObliviousMinimal => "SEEC-obl".into(),
                BaseRouting::Xy => "SEEC-XY".into(),
                BaseRouting::WestFirst => "SEEC-WF".into(),
            },
            Scheme::MSeec { routing } => match routing {
                BaseRouting::AdaptiveMinimal => "mSEEC".into(),
                BaseRouting::ObliviousMinimal => "mSEEC-obl".into(),
                _ => format!("mSEEC-{routing:?}"),
            },
            Scheme::MinBd => "minBD".into(),
            Scheme::Chipper => "CHIPPER".into(),
        }
    }

    /// Network configuration for this scheme: routing algorithm and — for
    /// escape VC — VC partitioning.
    pub fn configure(self, mut cfg: NetConfig) -> NetConfig {
        match self {
            Scheme::Xy => cfg.with_routing(RoutingAlgo::Uniform(BaseRouting::Xy)),
            Scheme::WestFirst | Scheme::Tfc => {
                cfg.with_routing(RoutingAlgo::Uniform(BaseRouting::WestFirst))
            }
            Scheme::EscapeVc { normal } => escape_vc_config(cfg, normal),
            Scheme::Adaptive | Scheme::Spin | Scheme::Swap | Scheme::Drain => {
                cfg.with_routing(RoutingAlgo::Uniform(BaseRouting::AdaptiveMinimal))
            }
            Scheme::Seec { routing } | Scheme::MSeec { routing } => {
                cfg.with_routing(RoutingAlgo::Uniform(routing))
            }
            Scheme::MinBd | Scheme::Chipper => {
                // Deflection ignores VC routing; keep the default.
                cfg.vcs_per_vnet = 1;
                cfg
            }
        }
    }

    /// Builds the mechanism object (for VC-router schemes).
    pub fn mechanism(self, cfg: &NetConfig) -> Box<dyn Mechanism> {
        match self {
            Scheme::Tfc => Box::new(TfcMechanism::for_net(cfg)),
            Scheme::Spin => Box::new(SpinMechanism::for_net(cfg)),
            Scheme::Swap => Box::new(SwapMechanism::for_net(cfg)),
            Scheme::Drain => Box::new(DrainMechanism::for_net(cfg)),
            Scheme::Seec { .. } => Box::new(seec::SeecMechanism::for_net(cfg)),
            Scheme::MSeec { .. } => Box::new(seec::MSeecMechanism::for_net(cfg)),
            _ => Box::new(NoMechanism),
        }
    }

    pub fn is_deflection(self) -> bool {
        matches!(self, Scheme::MinBd | Scheme::Chipper)
    }

    /// True when the scheme's deadlock freedom is its routing relation alone
    /// (XY, WF, ADAPT, escape VC, TFC), so a run needs a certificate. The
    /// reactive and subactive schemes rest on a runtime argument instead.
    pub(crate) fn routing_reliant(self) -> bool {
        matches!(
            self.kind(),
            SchemeKind::None | SchemeKind::EscapeVc | SchemeKind::Tfc
        )
    }
}

/// Why [`admit`] refused a run: the row status it records (`unroutable`,
/// `escape-severed`, `uncertified`, `recovery-uncertified`, or `invalid`
/// for a schedule the mesh rejects) and the reason beside it.
#[derive(Debug)]
pub struct Refusal {
    pub status: &'static str,
    pub reason: String,
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.status, self.reason)
    }
}

/// The one admission rule for every simulated run — the runner, the fault
/// sweep and the chaos loop. A run is refused when:
///
/// * its **start state** (the static dead set, through
///   [`noc_verify::certify_degraded`], which is plain certification when
///   nothing is dead) is unroutable, or, for a routing-reliant scheme,
///   severs the escape layer;
/// * **without armed recovery** (drain disabled), some schedule epoch
///   ([`noc_verify::certify_schedule`]) is unroutable, or a routing-reliant
///   scheme lacks a certificate in the start state (routing and protocol)
///   or in any epoch;
/// * **any recovery machinery** is set up and the channel fails
///   [`noc_verify::certify_recovery`].
///
/// A healthy mesh is routable and keeps its escape layer, so a healthy run
/// of a scheme that needs no certificate does no certifier work.
pub fn admit(scheme: Scheme, cfg: &NetConfig) -> Result<(), Refusal> {
    use noc_verify::RoutingVerdict as V;
    let reliant = scheme.routing_reliant();
    let armed = cfg.recovery.enabled;
    // A routing verdict — of the start state or of one epoch (`at` names
    // it) — that binds this run, as its refusal.
    let check = |verdict: &V, start: bool, at: &str| {
        let (status, why) = match verdict {
            V::Unroutable { src, dest } if start || !armed => (
                "unroutable",
                format!("dead set disconnects node {} from node {}", src.0, dest.0),
            ),
            V::EscapeSevered { src, dest } if reliant && (start || !armed) => (
                "escape-severed",
                format!(
                    "no live west-first path from node {} to node {}; Duato certificate void",
                    src.0, dest.0
                ),
            ),
            V::Deadlockable { .. } if reliant && !armed => (
                "uncertified",
                "degraded CDG has a cyclic witness and the scheme has no runtime recovery".into(),
            ),
            _ => return Ok(()),
        };
        let reason = format!("{at}{why}");
        Err(Refusal { status, reason })
    };

    if cfg.fault.has_permanent() || (reliant && !armed) {
        let start = noc_verify::certify_degraded(cfg);
        check(&start.routing, true, "")?;
        if reliant && !armed && !start.protocol.certified() {
            let reason = "protocol classes share a VNet cyclically and the scheme has no runtime \
                          recovery";
            return Err(Refusal {
                status: "uncertified",
                reason: reason.into(),
            });
        }
    }
    if cfg.fault.has_schedule() {
        let invalid = |reason| Refusal {
            status: "invalid",
            reason,
        };
        let epochs = noc_verify::certify_schedule(cfg).map_err(invalid)?;
        for e in &epochs {
            check(&e.report.routing, false, &format!("epoch {}: ", e.action))?;
        }
    }
    if cfg.recovery.any() {
        let rec = noc_verify::certify_recovery(cfg);
        if !rec.certified() {
            let rendered = rec.render();
            let line = rendered.lines().find(|l| l.starts_with("recovery:"));
            return Err(Refusal {
                status: "recovery-uncertified",
                reason: line.unwrap_or("recovery channel refused").into(),
            });
        }
    }
    Ok(())
}

/// [`admit`] for the runner: a figure never plots a run whose deadlock
/// freedom nothing vouches for.
fn admitted(scheme: Scheme, cfg: &NetConfig) {
    if let Err(refusal) = admit(scheme, cfg) {
        panic!(
            "refusing to run uncertified configuration for scheme {}: {refusal}",
            scheme.label()
        );
    }
}

/// One synthetic-traffic design point.
#[derive(Clone, Copy, Debug)]
pub struct SynthSpec {
    pub k: u8,
    pub vcs: u8,
    pub scheme: Scheme,
    pub pattern: TrafficPattern,
    /// Packets per node per cycle.
    pub rate: f64,
    pub cycles: u64,
    pub seed: u64,
}

impl SynthSpec {
    pub fn new(k: u8, vcs: u8, scheme: Scheme, pattern: TrafficPattern, rate: f64) -> SynthSpec {
        SynthSpec {
            k,
            vcs,
            scheme,
            pattern,
            rate,
            cycles: 30_000,
            seed: 0xA11CE,
        }
    }

    pub fn with_cycles(mut self, cycles: u64) -> Self {
        self.cycles = cycles;
        self
    }
}

/// Runs one synthetic point to completion and returns its statistics.
pub fn run_synth(spec: SynthSpec) -> Stats {
    let cfg = spec
        .scheme
        .configure(NetConfig::synth(spec.k, spec.vcs))
        .with_seed(spec.seed);
    admitted(spec.scheme, &cfg);
    let wl = SyntheticWorkload::new(
        spec.pattern,
        spec.rate,
        cfg.cols,
        cfg.rows,
        cfg.warmup,
        spec.seed,
    );
    let mut model: Box<dyn NocModel> = if spec.scheme.is_deflection() {
        let kind = if spec.scheme == Scheme::MinBd {
            DeflectionKind::MinBd
        } else {
            DeflectionKind::Chipper
        };
        Box::new(DeflectionSim::new(cfg, kind, Box::new(wl)))
    } else {
        let mech = spec.scheme.mechanism(&cfg);
        Box::new(Sim::new(cfg, Box::new(wl), mech))
    };
    model.run_for(spec.cycles);
    model.finalize()
}

/// One application (closed-loop protocol) design point.
#[derive(Clone, Copy, Debug)]
pub struct AppSpec {
    pub k: u8,
    /// `VNets`: 6 for the proactive/reactive baselines, 1 for DRAIN/SEEC.
    pub vnets: u8,
    /// VCs per `VNet`.
    pub vcs: u8,
    pub scheme: Scheme,
    pub app: AppProfile,
    /// Transactions per core (fixed work → runtime metric).
    pub txns_per_core: u64,
    pub max_cycles: u64,
    pub seed: u64,
}

/// Result of an application run: network statistics plus the runtime in
/// cycles (the Fig 14 metric).
#[derive(Clone, Debug)]
pub struct AppResult {
    pub stats: Stats,
    pub runtime: u64,
    pub finished: bool,
}

/// Runs one application point: fixed work per core, closed loop.
pub fn run_app(spec: AppSpec) -> AppResult {
    let cfg = spec
        .scheme
        .configure(NetConfig::full_system(spec.k, spec.vnets, spec.vcs))
        .with_seed(spec.seed);
    admitted(spec.scheme, &cfg);
    let pcfg = ProtocolConfig {
        txns_per_core: Some(spec.txns_per_core),
        ..ProtocolConfig::default()
    };
    let wl = ProtocolWorkload::new(
        spec.app,
        pcfg,
        cfg.num_nodes() as u16,
        cfg.warmup,
        spec.seed,
    );
    let mech = spec.scheme.mechanism(&cfg);
    let mut sim = Sim::new(cfg, Box::new(wl), mech);
    let finished = sim.run_until_done(spec.max_cycles);
    let runtime = sim.net.cycle;
    let stats = sim.finish().clone();
    AppResult {
        stats,
        runtime,
        finished,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_headline_scheme_runs_a_small_point() {
        for scheme in Scheme::HEADLINE {
            let spec = SynthSpec::new(4, 2, scheme, TrafficPattern::UniformRandom, 0.05)
                .with_cycles(5_000);
            let s = run_synth(spec);
            assert!(
                s.ejected_packets > 50,
                "{}: only {} delivered",
                scheme.label(),
                s.ejected_packets
            );
        }
    }

    #[test]
    fn from_label_round_trips_every_named_scheme() {
        let all = [
            Scheme::Xy,
            Scheme::WestFirst,
            Scheme::Adaptive,
            Scheme::Tfc,
            Scheme::escape(),
            Scheme::EscapeVc {
                normal: BaseRouting::ObliviousMinimal,
            },
            Scheme::Spin,
            Scheme::Swap,
            Scheme::Drain,
            Scheme::seec(),
            Scheme::Seec {
                routing: BaseRouting::ObliviousMinimal,
            },
            Scheme::Seec {
                routing: BaseRouting::Xy,
            },
            Scheme::Seec {
                routing: BaseRouting::WestFirst,
            },
            Scheme::mseec(),
            Scheme::MSeec {
                routing: BaseRouting::ObliviousMinimal,
            },
            Scheme::MinBd,
            Scheme::Chipper,
        ];
        for s in all {
            assert_eq!(Scheme::from_label(&s.label()), Some(s), "{}", s.label());
        }
        assert_eq!(Scheme::from_label("SEEK"), None);
        assert_eq!(Scheme::from_label(""), None);
    }

    #[test]
    fn deflection_schemes_run_too() {
        for scheme in [Scheme::MinBd, Scheme::Chipper] {
            let spec = SynthSpec::new(4, 1, scheme, TrafficPattern::UniformRandom, 0.05)
                .with_cycles(5_000);
            let s = run_synth(spec);
            assert!(s.ejected_packets > 50, "{}", scheme.label());
        }
    }

    #[test]
    #[should_panic(expected = "refusing to run uncertified configuration")]
    fn gate_refuses_protocol_cyclic_vnet_mapping() {
        // XY on one shared VNet: routing certifies but the protocol layer
        // self-loops, so the gate must refuse before the simulation starts.
        let spec = AppSpec {
            k: 4,
            vnets: 1,
            vcs: 2,
            scheme: Scheme::Xy,
            app: noc_traffic::apps::APPS[0],
            txns_per_core: 1,
            max_cycles: 100,
            seed: 1,
        };
        let _ = run_app(spec);
    }

    #[test]
    fn admit_is_one_rule_for_start_states_epochs_and_arming() {
        use noc_types::{Direction, FaultConfig, FaultSchedule, NodeId, RecoveryConfig};
        let flap = |node: u16, dir| FaultSchedule::link_flap(NodeId(node), dir, 300, 1_500);
        let severed = FaultConfig::default().with_dead_links(vec![(NodeId(5), Direction::East)]);
        let severed_epoch = FaultConfig::default().with_schedule(flap(5, Direction::East));
        let cut_corner = FaultConfig::default()
            .with_schedule(flap(0, Direction::East).merged(flap(0, Direction::South)));
        let healthy = FaultConfig::default();
        let unarmed = RecoveryConfig::default();
        let drain = RecoveryConfig::drain();
        let e2e_only = RecoveryConfig::default().with_e2e(600, 50);
        let status = |scheme: Scheme, fault: &FaultConfig, recovery: &RecoveryConfig| {
            let cfg = scheme
                .configure(NetConfig::synth(4, 2))
                .with_fault(fault.clone())
                .with_recovery(recovery.clone());
            admit(scheme, &cfg).err().map(|r| r.status)
        };
        // The start state binds armed or not; an epoch only when unarmed.
        assert_eq!(
            status(Scheme::escape(), &severed, &drain),
            Some("escape-severed")
        );
        assert_eq!(
            status(Scheme::escape(), &severed_epoch, &unarmed),
            Some("escape-severed")
        );
        assert_eq!(status(Scheme::escape(), &severed_epoch, &drain), None);
        assert_eq!(
            status(Scheme::seec(), &cut_corner, &unarmed),
            Some("unroutable")
        );
        assert_eq!(status(Scheme::seec(), &cut_corner, &drain), None);
        // End-to-end retransmission alone is not armed recovery.
        assert_eq!(
            status(Scheme::Adaptive, &healthy, &e2e_only),
            Some("uncertified")
        );
        assert_eq!(status(Scheme::Adaptive, &healthy, &drain), None);
        assert_eq!(status(Scheme::seec(), &healthy, &unarmed), None);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<String> = Scheme::HEADLINE.iter().map(|s| s.label()).collect();
        labels.push(Scheme::mseec().label());
        labels.push(Scheme::Adaptive.label());
        labels.push(Scheme::MinBd.label());
        labels.push(Scheme::Chipper.label());
        let n = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), n);
    }
}
