//! Static deadlock-freedom certification for the SEEC `NoC` simulator.
//!
//! For any mesh size, routing algorithm ([`noc_types::BaseRouting`] uniform
//! or Duato escape-VC composite) and VNet/message-class configuration, this
//! crate builds the extended channel dependency graph (see [`cdg`]), runs
//! Tarjan SCC over it, analyses the protocol-level message-class
//! dependencies (see [`protocol`]), and emits a [`Report`]. The healthy
//! mesh ([`certify`]) is the degraded mesh ([`certify_degraded`]) with
//! nothing dead: one CDG builder, one verdict pipeline, one report.
//! Verdicts:
//!
//! * **certified deadlock-free** — the CDG is acyclic (XY, west-first), or
//!   the configuration satisfies Duato's escape condition (acyclic escape
//!   subnetwork that is always requestable and never exited);
//! * **a minimal cyclic witness** — the exact channel cycle, printable as an
//!   ASCII mesh diagram, proving the routing relation alone cannot guarantee
//!   progress (minimal-adaptive/oblivious without escape VCs — the paper's
//!   motivation for SEEC);
//! * plus the protocol verdict: whether resource-gated message classes
//!   (Request/Writeback vs. Unblock) can wedge their shared `VNet`.
//!
//! `noc-experiments` consults [`certify`] before running a configuration
//! whose correctness rests on the routing relation and refuses uncertified
//! ones unless explicitly overridden.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cdg;
pub mod degraded;
pub mod matrix;
pub mod protocol;
pub mod recovery;
pub mod scc;
pub mod schedule;
pub mod witness;

pub use cdg::{Cdg, Channel, VcClass};
pub use degraded::certify_degraded;
pub use matrix::{cross_check, MatrixRow, ReachVerdict};
pub use protocol::ProtocolVerdict;
pub use recovery::{certify_recovery, RecoveryReport, RecoveryVerdict};
pub use schedule::{certify_schedule, EpochCertification};
pub use witness::Witness;

use noc_sim::fault::Unroutable;
use noc_types::{Direction, NetConfig, NodeId, RoutingAlgo};

/// Routing-level verdict for one configuration, on the healthy mesh or on
/// the mesh its permanent faults leave behind.
#[derive(Clone, Debug)]
pub enum RoutingVerdict {
    /// The dead set disconnects the live mesh: `src` cannot reach `dest`.
    /// The configuration cannot run at all.
    Unroutable { src: NodeId, dest: NodeId },
    /// Every pair is routable, but the west-first escape layer is not:
    /// `src` has no live west-first path to `dest`. Escape-VC
    /// configurations lose their Duato certificate.
    EscapeSevered { src: NodeId, dest: NodeId },
    /// The channel dependency graph is acyclic.
    CertifiedAcyclic {
        /// CDG node count.
        channels: usize,
        /// CDG edge count.
        edges: usize,
    },
    /// The CDG has cycles among regular VCs, but Duato's condition holds:
    /// the escape subnetwork is acyclic, always requestable, and never
    /// exited.
    CertifiedEscape {
        /// CDG node count (all classes).
        channels: usize,
        /// CDG edge count (all classes).
        edges: usize,
        /// Escape-class node count.
        escape_channels: usize,
    },
    /// No certificate: a concrete cyclic wait exists.
    Deadlockable {
        /// A minimal channel cycle.
        witness: Witness,
        /// CDG node count.
        channels: usize,
        /// CDG edge count.
        edges: usize,
    },
}

impl RoutingVerdict {
    /// True only for the two certificate variants.
    pub fn certified(&self) -> bool {
        matches!(
            self,
            RoutingVerdict::CertifiedAcyclic { .. } | RoutingVerdict::CertifiedEscape { .. }
        )
    }

    /// True when the configuration can run at all (every pair routable).
    pub fn routable(&self) -> bool {
        !matches!(self, RoutingVerdict::Unroutable { .. })
    }
}

/// The permanently dead hardware a degraded certificate was computed on.
#[derive(Clone, Debug, Default)]
pub struct DeadHardware {
    /// Dead physical links (each named once from its west/north endpoint).
    pub links: Vec<(NodeId, Direction)>,
    /// Dead routers.
    pub routers: Vec<NodeId>,
}

/// Combined certification report for one configuration.
#[derive(Clone, Debug)]
pub struct Report {
    /// One-line description of the analysed configuration.
    pub config: String,
    /// `None` for a [`certify`] report; for a [`certify_degraded`] report,
    /// what is dead (possibly nothing).
    pub dead: Option<DeadHardware>,
    /// Routing-level (channel dependency graph) verdict.
    pub routing: RoutingVerdict,
    /// Protocol-level (message-class / `VNet`) verdict. Faults do not change
    /// it: classes and `VNets` are a property of the protocol, not the
    /// topology.
    pub protocol: ProtocolVerdict,
}

impl Report {
    /// True when both layers are certified deadlock-free.
    pub fn certified(&self) -> bool {
        self.routing.certified() && self.protocol.certified()
    }

    /// Human-readable multi-line report, including the witness diagram for
    /// uncertified configurations. A degraded report also names what is
    /// dead and qualifies each verdict line.
    pub fn render(&self) -> String {
        let mut s = format!("config: {}\n", self.config);
        let degraded = self.dead.is_some();
        let (layer, cdg, mesh) = if degraded {
            ("degraded routing", "degraded CDG", " (degraded)")
        } else {
            ("routing", "CDG", "")
        };
        if let Some(dead) = &self.dead {
            let links: Vec<String> = dead
                .links
                .iter()
                .map(|(n, d)| format!("{}→{d}", n.0))
                .collect();
            let routers: Vec<String> = dead.routers.iter().map(|n| n.0.to_string()).collect();
            s.push_str(&format!(
                "faults: {} dead link(s) [{}], {} dead router(s) [{}]\n",
                links.len(),
                links.join(", "),
                routers.len(),
                routers.join(", ")
            ));
        }
        match &self.routing {
            RoutingVerdict::Unroutable { src, dest } => {
                s.push_str(&format!(
                    "{layer}: UNROUTABLE — node {} cannot reach node {} on the live mesh\n",
                    src.0, dest.0
                ));
            }
            RoutingVerdict::EscapeSevered { src, dest } => {
                s.push_str(&format!(
                    "{layer}: ESCAPE SEVERED — no live west-first path from node {} to \
                     node {}; the Duato escape certificate is void\n",
                    src.0, dest.0
                ));
            }
            RoutingVerdict::CertifiedAcyclic { channels, edges } => {
                s.push_str(&format!(
                    "{layer}: CERTIFIED deadlock-free — {cdg} acyclic \
                     ({channels} channels, {edges} dependencies)\n"
                ));
            }
            RoutingVerdict::CertifiedEscape {
                channels,
                edges,
                escape_channels,
            } => {
                let (holds, kind) = if degraded {
                    (" holds on the degraded mesh", "")
                } else {
                    ("", "acyclic, always-requestable ")
                };
                s.push_str(&format!(
                    "{layer}: CERTIFIED deadlock-free — Duato escape condition{holds} \
                     ({channels} channels, {edges} dependencies; {kind}escape \
                     subnetwork of {escape_channels} channels)\n"
                ));
            }
            RoutingVerdict::Deadlockable {
                witness,
                channels,
                edges,
            } => {
                let recovery = if degraded {
                    "; deadlock freedom must come from a recovery mechanism"
                } else {
                    ""
                };
                s.push_str(&format!(
                    "{layer}: NOT certifiable — minimal cyclic witness of {} channels \
                     ({cdg}: {channels} channels, {edges} dependencies){recovery}\n",
                    witness.cycle.len()
                ));
                s.push_str(&witness.describe());
                s.push_str(&witness.render_ascii());
            }
        }
        match &self.protocol {
            ProtocolVerdict::NoProtocolTraffic => {
                s.push_str("protocol: no resource-gated message classes\n");
            }
            ProtocolVerdict::Acyclic { vnets, deps } => {
                s.push_str(&format!(
                    "protocol: CERTIFIED — {deps} class dependencies map \
                     acyclically onto {vnets} VNets\n"
                ));
            }
            ProtocolVerdict::Cyclic { offending } => {
                s.push_str("protocol: NOT certifiable — gated and gating classes share a VNet:\n");
                for (a, b) in offending {
                    s.push_str(&format!(
                        "  consumption of class {} waits on delivery of class {} in the same VNet\n",
                        a.0, b.0
                    ));
                }
            }
        }
        let verdict = if self.certified() {
            "CERTIFIED DEADLOCK-FREE"
        } else {
            "NOT CERTIFIED"
        };
        s.push_str(&format!("verdict: {verdict}{mesh}\n"));
        s
    }
}

/// View of a [`Cdg`] as a [`scc::Digraph`].
struct CdgGraph<'a>(&'a Cdg);

impl scc::Digraph for CdgGraph<'_> {
    fn len(&self) -> usize {
        self.0.channel_count()
    }
    fn succ(&self, v: usize) -> &[usize] {
        self.0.successors(v)
    }
}

/// Escape-class subgraph of a [`Cdg`] (remapped to dense indices).
fn escape_subgraph(cdg: &Cdg) -> scc::AdjGraph {
    let ids = cdg.escape_channel_ids();
    let remap: std::collections::HashMap<usize, usize> =
        ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let succ = ids
        .iter()
        .map(|&id| {
            cdg.successors(id)
                .iter()
                .filter_map(|s| remap.get(s).copied())
                .collect()
        })
        .collect();
    scc::AdjGraph { succ }
}

/// The one pipeline from a routing relation's CDG to a verdict, on the
/// healthy and the degraded mesh alike. `severed` names a pair the
/// west-first escape layer cannot route on a degraded mesh.
///
/// The Duato check: an escape layer exists, leaves at least one regular VC
/// beside the escape VC (`vcs_per_vnet ≥ 2`), is always requestable, is
/// never exited (no escape→normal edge), and its subnetwork is acyclic.
fn judge(cfg: &NetConfig, cdg: &Cdg, severed: Option<Unroutable>) -> RoutingVerdict {
    let g = CdgGraph(cdg);
    let channels = cdg.channel_count();
    let edges = cdg.edge_count();
    if !scc::has_cycle(&g) {
        RoutingVerdict::CertifiedAcyclic { channels, edges }
    } else if let Some(Unroutable { src, dest }) = severed {
        RoutingVerdict::EscapeSevered { src, dest }
    } else if cdg.has_escape
        && cfg.vcs_per_vnet >= 2
        && cdg.escape_always_requestable()
        && !cdg.escape_leaks_to_normal()
        && !scc::has_cycle(&escape_subgraph(cdg))
    {
        RoutingVerdict::CertifiedEscape {
            channels,
            edges,
            escape_channels: cdg.escape_channel_ids().len(),
        }
    } else {
        let cycle_ids = scc::minimal_cycle(&g).expect("cyclic CDG must yield a minimal cycle");
        RoutingVerdict::Deadlockable {
            witness: Witness {
                cycle: cycle_ids.into_iter().map(|i| cdg.channel(i)).collect(),
                cols: cfg.cols,
                rows: cfg.rows,
            },
            channels,
            edges,
        }
    }
}

/// Certifies `cfg`'s routing relation on the healthy mesh, plus the
/// protocol layer: the degraded certificate's special case with nothing
/// dead, built straight from the `noc_sim::routing` functions.
pub fn certify(cfg: &NetConfig) -> Report {
    Report {
        config: describe_config(cfg),
        dead: None,
        routing: judge(cfg, &Cdg::build(cfg), None),
        protocol: protocol::analyze(cfg),
    }
}

pub(crate) fn describe_config(cfg: &NetConfig) -> String {
    let routing = match cfg.routing {
        RoutingAlgo::Uniform(b) => format!("{b:?}"),
        RoutingAlgo::EscapeVc { normal } => format!("EscapeVc({normal:?})"),
    };
    format!(
        "{}x{} mesh, routing {}, {} vnets x {} vcs, {} classes",
        cfg.cols, cfg.rows, routing, cfg.vnets, cfg.vcs_per_vnet, cfg.classes
    )
}
