//! Network configuration (the paper's Table 4).

use crate::fault::{fnv1a, FaultConfig};
use crate::message::MessageClass;
use crate::recovery::RecoveryConfig;
use std::ops::Range;

/// Routing algorithm applied while a packet occupies *regular* VCs.
///
/// All algorithms are minimal. `Xy` and `WestFirst` are deadlock-free turn
/// models; the two random algorithms have full path diversity and are
/// deadlock-*prone* — they rely on a mechanism (escape VC, SPIN, SWAP, DRAIN,
/// SEEC, ...) for correctness.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BaseRouting {
    /// Dimension-ordered: X first, then Y. Deadlock-free.
    Xy,
    /// West-first turn model: all westward hops first, then adaptive among
    /// the remaining productive directions. Deadlock-free.
    WestFirst,
    /// Minimal oblivious random: pick uniformly among productive directions.
    ObliviousMinimal,
    /// Minimal adaptive random: pick among productive directions weighted by
    /// downstream free-VC count (ties broken randomly).
    AdaptiveMinimal,
}

/// Full routing configuration, including the escape-VC composite used by the
/// Duato baseline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoutingAlgo {
    /// Every VC uses the same base algorithm.
    Uniform(BaseRouting),
    /// Duato-style escape VC: the last VC of each `VNet` is an escape VC
    /// restricted to west-first routing; all other VCs use `normal`.
    /// Packets that enter the escape VC stay in escape VCs until ejection.
    EscapeVc { normal: BaseRouting },
}

impl RoutingAlgo {
    /// The algorithm used by regular (non-escape) VCs.
    pub fn normal(self) -> BaseRouting {
        match self {
            RoutingAlgo::Uniform(b) => b,
            RoutingAlgo::EscapeVc { normal } => normal,
        }
    }

    /// Whether the last VC of each `VNet` is a west-first escape VC.
    pub fn has_escape(self) -> bool {
        matches!(self, RoutingAlgo::EscapeVc { .. })
    }
}

/// Which deadlock-freedom / flow-control scheme a simulation runs. Used for
/// labelling results and by the area/energy models; the mechanism objects
/// themselves live in the `seec` and `noc-baselines` crates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SchemeKind {
    /// Plain VC router; correctness (if any) comes from the routing algorithm.
    None,
    EscapeVc,
    Tfc,
    Spin,
    Swap,
    Drain,
    Seec,
    MSeec,
    MinBd,
    Chipper,
}

impl SchemeKind {
    /// Short label used in result tables, matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::None => "base",
            SchemeKind::EscapeVc => "EscVC",
            SchemeKind::Tfc => "TFC",
            SchemeKind::Spin => "SPIN",
            SchemeKind::Swap => "SWAP",
            SchemeKind::Drain => "DRAIN",
            SchemeKind::Seec => "SEEC",
            SchemeKind::MSeec => "mSEEC",
            SchemeKind::MinBd => "minBD",
            SchemeKind::Chipper => "CHIPPER",
        }
    }
}

/// Buffer management discipline (§3.11 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BufferOrg {
    /// Virtual cut-through: a VC is allocated to a whole packet and is deep
    /// enough to hold it (Table 4's configuration).
    Vct,
    /// Wormhole: VCs may be shallower than the largest packet; body flits
    /// advance on flit-granularity credits. Still one packet per VC (the
    /// paper's constraint for adaptive routing under wormhole).
    Wormhole,
}

/// Full network configuration. Defaults mirror Table 4 of the paper.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Mesh columns.
    pub cols: u8,
    /// Mesh rows.
    pub rows: u8,
    /// Number of virtual networks the in-NoC VCs are partitioned into.
    /// Baselines that need protocol-deadlock freedom use one `VNet` per message
    /// class (6); DRAIN and SEEC use 1.
    pub vnets: u8,
    /// Number of protocol message classes carried (classes map onto `VNets` by
    /// `class % vnets`).
    pub classes: u8,
    /// VCs per `VNet` at every router input port.
    pub vcs_per_vnet: u8,
    /// VC buffer depth in flits. Virtual cut-through with a single packet per
    /// VC: the depth equals the largest packet (5 flits). Wormhole allows
    /// any depth ≥ 1.
    pub vc_depth: u8,
    /// Buffer management discipline.
    pub buffer_org: BufferOrg,
    /// Router pipeline depth in cycles (Table 4: 1). The TFC baseline's
    /// bypass only has something to skip when this exceeds 1 (footnote 4).
    pub router_latency: u8,
    /// Routing algorithm.
    pub routing: RoutingAlgo,
    /// Ejection VCs per message class at every NIC.
    pub ejection_vcs_per_class: u8,
    /// Link width in bits (used by the energy model only).
    pub link_width_bits: u16,
    /// Cycles of warm-up before statistics collection starts.
    pub warmup: u64,
    /// RNG seed; every run with the same config and seed is bit-identical.
    pub seed: u64,
    /// Fault-injection scenario. Defaults to fully disabled, in which case
    /// the simulator is bit-identical to a build without the fault layer.
    pub fault: FaultConfig,
    /// Runtime recovery scenario (drain recovery + end-to-end
    /// retransmission). Defaults to fully disabled, in which case the
    /// simulator is bit-identical to a build without the recovery layer.
    pub recovery: RecoveryConfig,
}

impl NetConfig {
    /// Synthetic-traffic configuration: `k`×`k` mesh, one `VNet` and one
    /// message class (the paper's `--inj-vnet=0` runs), `vcs` VCs per port.
    pub fn synth(k: u8, vcs: u8) -> NetConfig {
        NetConfig {
            cols: k,
            rows: k,
            vnets: 1,
            classes: 1,
            vcs_per_vnet: vcs,
            vc_depth: 5,
            buffer_org: BufferOrg::Vct,
            router_latency: 1,
            routing: RoutingAlgo::Uniform(BaseRouting::AdaptiveMinimal),
            ejection_vcs_per_class: 2,
            link_width_bits: 128,
            warmup: 1000,
            seed: 1,
            fault: FaultConfig::default(),
            recovery: RecoveryConfig::default(),
        }
    }

    /// Full-system-style configuration: `k`×`k` mesh, six message classes.
    /// `vnets` is 6 for the proactive/reactive baselines and 1 for
    /// DRAIN/SEEC/mSEEC; `vcs` is the per-VNet VC count.
    pub fn full_system(k: u8, vnets: u8, vcs: u8) -> NetConfig {
        NetConfig {
            cols: k,
            rows: k,
            vnets,
            classes: 6,
            vcs_per_vnet: vcs,
            vc_depth: 5,
            buffer_org: BufferOrg::Vct,
            router_latency: 1,
            routing: RoutingAlgo::Uniform(BaseRouting::AdaptiveMinimal),
            ejection_vcs_per_class: 2,
            link_width_bits: 128,
            warmup: 1000,
            seed: 1,
            fault: FaultConfig::default(),
            recovery: RecoveryConfig::default(),
        }
    }

    /// Builder-style override of the router pipeline depth.
    pub fn with_router_latency(mut self, cycles: u8) -> Self {
        assert!(cycles >= 1);
        self.router_latency = cycles;
        self
    }

    /// Builder-style override to wormhole buffering with `depth`-flit VCs.
    pub fn with_wormhole(mut self, depth: u8) -> Self {
        assert!(depth >= 1);
        self.buffer_org = BufferOrg::Wormhole;
        self.vc_depth = depth;
        self
    }

    /// Builder-style override of the routing algorithm.
    pub fn with_routing(mut self, routing: RoutingAlgo) -> Self {
        self.routing = routing;
        self
    }

    /// Builder-style override of the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style override of the fault scenario.
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Builder-style override of the recovery scenario.
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = recovery;
        self
    }

    /// Validates the fault and recovery sub-configurations against this
    /// mesh, returning a descriptive error instead of letting a malformed
    /// scenario panic somewhere deep in network construction.
    pub fn validate(&self) -> Result<(), String> {
        self.fault.validate(self.cols, self.rows)?;
        self.recovery.validate()
    }

    /// Stable 64-bit digest of every behaviour-affecting field, used to key
    /// checkpoint rows so a resumed sweep never mixes incompatible configs.
    pub fn digest(&self) -> u64 {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "{}x{};vn={};cl={};vc={};d={};org={:?};rl={};rt={:?};ej={};lw={};wu={};seed={};",
            self.cols,
            self.rows,
            self.vnets,
            self.classes,
            self.vcs_per_vnet,
            self.vc_depth,
            self.buffer_org,
            self.router_latency,
            self.routing,
            self.ejection_vcs_per_class,
            self.link_width_bits,
            self.warmup,
            self.seed,
        );
        s.push_str(&self.fault.canonical());
        s.push(';');
        s.push_str(&self.recovery.canonical());
        fnv1a(s.as_bytes())
    }

    /// Total number of nodes (routers/NICs) on the mesh.
    pub fn num_nodes(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// Total VCs at each router input port (`vnets * vcs_per_vnet`).
    pub fn vcs_per_port(&self) -> usize {
        self.vnets as usize * self.vcs_per_vnet as usize
    }

    /// `VNet` a message class travels in.
    pub fn vnet_of(&self, class: MessageClass) -> u8 {
        class.0 % self.vnets
    }

    /// Range of VC indices (within a port) belonging to `vnet`.
    pub fn vc_range(&self, vnet: u8) -> Range<usize> {
        let per = self.vcs_per_vnet as usize;
        let start = vnet as usize * per;
        start..start + per
    }

    /// Index of the escape VC *within* `vnet`'s VC range (relative, add
    /// `vc_range(vnet).start` for the flattened port index), if the routing
    /// algorithm uses one — always the last VC of the `VNet`.
    pub fn escape_vc(&self, vnet: u8) -> Option<usize> {
        let _ = vnet;
        if self.routing.has_escape() {
            Some(self.vcs_per_vnet as usize - 1)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_preset_matches_table4() {
        let c = NetConfig::synth(8, 4);
        assert_eq!(c.num_nodes(), 64);
        assert_eq!(c.vnets, 1);
        assert_eq!(c.vc_depth, 5);
        assert_eq!(c.link_width_bits, 128);
        assert_eq!(c.warmup, 1000);
        assert_eq!(c.vcs_per_port(), 4);
    }

    #[test]
    fn vnet_partitioning() {
        let c = NetConfig::full_system(4, 6, 2);
        assert_eq!(c.vcs_per_port(), 12);
        assert_eq!(c.vnet_of(MessageClass(0)), 0);
        assert_eq!(c.vnet_of(MessageClass(5)), 5);
        assert_eq!(c.vc_range(0), 0..2);
        assert_eq!(c.vc_range(5), 10..12);

        let one = NetConfig::full_system(4, 1, 2);
        assert_eq!(one.vnet_of(MessageClass(5)), 0);
        assert_eq!(one.vcs_per_port(), 2);
    }

    #[test]
    fn escape_vc_is_last_of_vnet() {
        let mut c = NetConfig::synth(8, 2);
        assert_eq!(c.escape_vc(0), None);
        c.routing = RoutingAlgo::EscapeVc {
            normal: BaseRouting::AdaptiveMinimal,
        };
        assert_eq!(c.escape_vc(0), Some(1));
    }
}

#[cfg(test)]
mod escape_regression {
    use super::*;

    /// Regression: with multiple `VNets` the escape index must be *relative*
    /// to the `VNet`'s range — adding it to `range.start` must stay in bounds
    /// for every `VNet` (it used to be absolute, overflowing `VNet` 1+).
    #[test]
    fn escape_index_is_relative_across_vnets() {
        let mut c = NetConfig::full_system(4, 6, 2);
        c.routing = RoutingAlgo::EscapeVc {
            normal: BaseRouting::AdaptiveMinimal,
        };
        for vnet in 0..6 {
            let esc = c.escape_vc(vnet).unwrap();
            let flat = c.vc_range(vnet).start + esc;
            assert!(
                flat < c.vcs_per_port(),
                "vnet {vnet}: index {flat} overflows"
            );
            assert_eq!(flat, c.vc_range(vnet).end - 1);
        }
    }
}
