//! Struct-of-arrays engine core: the per-cycle hot state — credit
//! snapshots, wormhole flit-credit slots, per-port occupancy counters and
//! per-router dirty-lane masks — stored as flat, contiguous arrays indexed
//! by `(router, port, vc)` instead of per-router structs of `Vec`s.
//!
//! The free-VC snapshot of one `(router, port)` pair is a single `u32`
//! bitmask (bit `v` set ⇔ downstream VC `v` is free), so the allocation
//! queries that dominate router compute become mask-and-popcount /
//! trailing-zeros operations over precomputed per-VNet masks — and a whole
//! port's "anything free?" pre-filter is one `!= 0` test. Bit order is
//! ascending VC index, so every scan (`first_free_normal`, class-scoped
//! ejection, escape lookup) selects exactly the VC the old `Vec<bool>`
//! iteration did: the refactor is behaviour- and byte-identical.

use crate::nic::Nic;
use crate::router::Router;
use noc_types::{Direction, NetConfig, PortId, NUM_PORTS};

/// Dirty mask with every lane of a router set.
pub(crate) const ALL_LANES: u8 = (1 << NUM_PORTS) - 1;

/// Flat `SoA` storage for the engine's per-cycle hot state. Lives on
/// [`crate::Network`]; routers see it through [`CreditView`].
#[derive(Clone, Debug)]
pub struct CreditSoA {
    /// Lanes (VC slots) per `(router, port)` entry: the maximum of the
    /// cardinal-port VC count and the local port's flattened ejection-VC
    /// count, so one stride serves every port.
    stride: usize,
    /// Free-VC bitmask per `(router, port)`, indexed `r * NUM_PORTS + p`.
    free: Vec<u32>,
    /// Wormhole flit-credit slots, indexed `(r * NUM_PORTS + p) * stride + v`
    /// (depth − buffered − in flight). Only read under wormhole.
    slots: Vec<u8>,
    /// Buffered flits per `(router, input port)`, indexed `r * NUM_PORTS + p`.
    /// Gates the empty-router/empty-port skips in router compute.
    occupancy: Vec<u16>,
    /// Per-router mask of stale snapshot lanes: bit `p` set ⇔ lane
    /// `(r, p)` must be recomputed before the next switch allocation.
    dirty: Vec<u8>,
    /// Per-VNet mask of *normal* (non-escape) VC bits.
    normal_mask: Vec<u32>,
    /// Per-VNet mask of the escape VC bit (0 when the routing has none).
    escape_mask: Vec<u32>,
    /// Flattened port index of each `VNet`'s escape VC (valid iff the
    /// corresponding `escape_mask` is non-zero).
    escape_idx: Vec<usize>,
}

impl CreditSoA {
    pub fn new(cfg: &NetConfig, n: usize) -> CreditSoA {
        let ej = cfg.classes as usize * cfg.ejection_vcs_per_class as usize;
        let stride = cfg.vcs_per_port().max(ej);
        assert!(stride <= 32, "more than 32 VC lanes per port");
        let mut normal_mask = Vec::with_capacity(cfg.vnets as usize);
        let mut escape_mask = Vec::with_capacity(cfg.vnets as usize);
        let mut escape_idx = Vec::with_capacity(cfg.vnets as usize);
        for vnet in 0..cfg.vnets {
            let range = cfg.vc_range(vnet);
            let esc = cfg.escape_vc(vnet).map(|e| range.start + e);
            let mut nm = 0u32;
            for v in range {
                if Some(v) != esc {
                    nm |= 1 << v;
                }
            }
            normal_mask.push(nm);
            escape_mask.push(esc.map_or(0, |e| 1 << e));
            escape_idx.push(esc.unwrap_or(0));
        }
        CreditSoA {
            stride,
            free: vec![0; n * NUM_PORTS],
            slots: vec![cfg.vc_depth; n * NUM_PORTS * stride],
            occupancy: vec![0; n * NUM_PORTS],
            dirty: vec![ALL_LANES; n],
            normal_mask,
            escape_mask,
            escape_idx,
        }
    }

    /// Read-only per-router view for route computation and VC allocation.
    pub fn view(&self, r: usize) -> CreditView<'_> {
        CreditView { soa: self, r }
    }

    #[inline]
    fn lane(&self, r: usize, p: PortId) -> usize {
        r * NUM_PORTS + p
    }

    /// Whether downstream VC `v` behind `(r, p)` is free.
    pub fn is_free(&self, r: usize, p: PortId, v: usize) -> bool {
        self.free[self.lane(r, p)] & (1 << v) != 0
    }

    /// Sets the free bit of downstream VC `v` behind `(r, p)`.
    pub fn set_free(&mut self, r: usize, p: PortId, v: usize, val: bool) {
        let l = self.lane(r, p);
        if val {
            self.free[l] |= 1 << v;
        } else {
            self.free[l] &= !(1 << v);
        }
    }

    /// The free-VC bitmask of `(r, p)`.
    pub fn port_mask(&self, r: usize, p: PortId) -> u32 {
        self.free[self.lane(r, p)]
    }

    /// Count of free VCs behind `(r, p)` (TFC token input).
    pub fn free_count(&self, r: usize, p: PortId) -> usize {
        self.port_mask(r, p).count_ones() as usize
    }

    /// Wormhole flit-credit slots of downstream VC `(r, p, v)`.
    pub fn slot(&self, r: usize, p: PortId, v: usize) -> u8 {
        self.slots[self.lane(r, p) * self.stride + v]
    }

    // --- occupancy counters -------------------------------------------

    /// Buffered flits behind input port `(r, p)`.
    pub fn occ(&self, r: usize, p: PortId) -> u16 {
        self.occupancy[self.lane(r, p)]
    }

    /// Copy of router `r`'s per-port occupancy counters.
    pub fn occ_array(&self, r: usize) -> [u16; NUM_PORTS] {
        let s = r * NUM_PORTS;
        let mut out = [0; NUM_PORTS];
        out.copy_from_slice(&self.occupancy[s..s + NUM_PORTS]);
        out
    }

    /// Whether router `r` buffers any flit at all.
    pub fn router_busy(&self, r: usize) -> bool {
        let s = r * NUM_PORTS;
        self.occupancy[s..s + NUM_PORTS].iter().any(|&o| o != 0)
    }

    /// Total flits buffered across every router (idle-skip quiescence).
    pub fn total_buffered(&self) -> u64 {
        self.occupancy.iter().map(|&o| u64::from(o)).sum()
    }

    pub fn occ_add(&mut self, r: usize, p: PortId, d: u16) {
        let l = self.lane(r, p);
        self.occupancy[l] += d;
    }

    pub fn occ_sub(&mut self, r: usize, p: PortId, d: u16) {
        let l = self.lane(r, p);
        self.occupancy[l] -= d;
    }

    // --- dirty lanes ---------------------------------------------------

    /// Router `r`'s stale-lane mask.
    pub fn dirty_lanes(&self, r: usize) -> u8 {
        self.dirty[r]
    }

    /// Marks lane `(r, p)` stale: something its snapshot reads changed.
    #[inline]
    pub fn mark_lane(&mut self, r: usize, p: PortId) {
        self.dirty[r] |= 1 << p;
    }

    /// Marks all five lanes of router `r` stale (the coarse form, for
    /// sites that are not per-flit).
    pub fn mark_dirty(&mut self, r: usize) {
        self.dirty[r] = ALL_LANES;
    }

    pub fn mark_all_dirty(&mut self) {
        self.dirty.fill(ALL_LANES);
    }

    /// Returns router `r`'s stale-lane mask and clears it.
    pub(crate) fn take_dirty(&mut self, r: usize) -> u8 {
        std::mem::take(&mut self.dirty[r])
    }

    // --- snapshot refresh ---------------------------------------------

    /// Recomputes the lanes in `lanes` of router `i`'s
    /// downstream-availability snapshot from scratch (shared by the
    /// per-cycle refresh and the invariant layer's cross-check). A cardinal
    /// lane reads the neighbour's input VCs plus this router's claims and
    /// in-flight counts on that port; the local lane reads the NIC's
    /// ejection VCs plus the local claims.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn recompute_router(
        &mut self,
        routers: &[Router],
        nics: &[Nic],
        i: usize,
        lanes: u8,
        wormhole: bool,
        depth: u8,
        dead: Option<&crate::fault::DeadSet>,
    ) {
        let r = &routers[i];
        for dir in Direction::CARDINAL {
            let p = dir.index();
            if lanes & (1 << p) == 0 {
                continue;
            }
            let l = self.lane(i, p);
            match r.outputs[p].neighbor {
                Some(nb) => {
                    // A link flagged dead but still wired is draining towards
                    // a quiescence cut: no *new* VC claims may form on it
                    // (the escape fallback in `try_alloc` consults the free
                    // bits without the routing mask), but in-flight worms
                    // keep their credit view so they can finish streaming.
                    let closing = dead.is_some_and(|ds| ds.link_dead(i, dir));
                    let their_in = dir.opposite().index();
                    let down = &routers[nb.idx()].inputs[their_in];
                    let mut mask = 0u32;
                    for (v, vc) in down.vcs.iter().enumerate() {
                        if !closing && vc.is_free() && r.outputs[p].vc_claimed[v].is_none() {
                            mask |= 1 << v;
                        }
                    }
                    self.free[l] = mask;
                    if wormhole {
                        for (v, vc) in down.vcs.iter().enumerate() {
                            let used = vc.buf.len() as u8 + r.outputs[p].inflight[v];
                            self.slots[l * self.stride + v] = depth.saturating_sub(used);
                        }
                    }
                }
                None => self.free[l] = 0,
            }
        }
        let lp = Direction::Local.index();
        if lanes & (1 << lp) != 0 {
            let mut mask = 0u32;
            for (v, ej) in nics[i].ejection.iter().enumerate() {
                if ej.is_free() && r.outputs[lp].vc_claimed[v].is_none() {
                    mask |= 1 << v;
                }
            }
            let l = self.lane(i, lp);
            self.free[l] = mask;
        }
    }

    /// Copies router `i`'s snapshot lanes out (invariant cross-check).
    #[cfg(feature = "check-invariants")]
    pub(crate) fn router_lanes(&self, i: usize) -> ([u32; NUM_PORTS], Vec<u8>) {
        let s = i * NUM_PORTS;
        let mut free = [0; NUM_PORTS];
        free.copy_from_slice(&self.free[s..s + NUM_PORTS]);
        let slots = self.slots[s * self.stride..(s + NUM_PORTS) * self.stride].to_vec();
        (free, slots)
    }

    /// Writes router `i`'s snapshot lanes back (invariant cross-check).
    #[cfg(feature = "check-invariants")]
    pub(crate) fn restore_router_lanes(&mut self, i: usize, free: &[u32; NUM_PORTS], slots: &[u8]) {
        let s = i * NUM_PORTS;
        self.free[s..s + NUM_PORTS].copy_from_slice(free);
        self.slots[s * self.stride..(s + NUM_PORTS) * self.stride].copy_from_slice(slots);
    }
}

/// One router's read-only window onto the [`CreditSoA`]: what route
/// computation and VC allocation consult. All scans are ascending-VC, via
/// `trailing_zeros` over the lane masks.
#[derive(Clone, Copy)]
pub struct CreditView<'a> {
    soa: &'a CreditSoA,
    r: usize,
}

impl CreditView<'_> {
    /// Whether downstream VC `v` behind `port` is free.
    pub fn is_free(&self, port: PortId, v: usize) -> bool {
        self.soa.is_free(self.r, port, v)
    }

    /// Whether any downstream VC behind `port` is free (the per-port
    /// pre-filter in switch allocation: one compare instead of a scan).
    pub fn any_free(&self, port: PortId) -> bool {
        self.soa.port_mask(self.r, port) != 0
    }

    /// Number of free *normal* (non-escape) VCs of `vnet` behind `port`.
    pub fn free_normal(&self, port: PortId, vnet: u8) -> usize {
        let m = self.soa.port_mask(self.r, port) & self.soa.normal_mask[vnet as usize];
        m.count_ones() as usize
    }

    /// First free normal VC of `vnet` behind `port` (ascending VC index,
    /// matching the old `Vec<bool>` scan order exactly).
    pub fn first_free_normal(&self, port: PortId, vnet: u8) -> Option<usize> {
        let m = self.soa.port_mask(self.r, port) & self.soa.normal_mask[vnet as usize];
        (m != 0).then(|| m.trailing_zeros() as usize)
    }

    /// The escape VC of `vnet` behind `port`, if configured and free.
    pub fn free_escape(&self, port: PortId, vnet: u8) -> Option<usize> {
        let m = self.soa.port_mask(self.r, port) & self.soa.escape_mask[vnet as usize];
        (m != 0).then(|| self.soa.escape_idx[vnet as usize])
    }

    /// First free ejection VC of the class range `[start, start + per)`
    /// behind the local port (ascending, class-scoped).
    pub fn first_free_in(&self, port: PortId, start: usize, per: usize) -> Option<usize> {
        let lanes = ((1u64 << per) - 1) as u32;
        let m = (self.soa.port_mask(self.r, port) >> start) & lanes;
        (m != 0).then(|| start + m.trailing_zeros() as usize)
    }

    /// Wormhole flit-credit slots of downstream VC `(port, v)`.
    pub fn slot(&self, port: PortId, v: usize) -> u8 {
        self.soa.slot(self.r, port, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::NetConfig;

    #[test]
    fn masks_partition_vnet_ranges() {
        let mut cfg = NetConfig::synth(4, 4);
        cfg.routing = noc_types::RoutingAlgo::EscapeVc {
            normal: noc_types::BaseRouting::AdaptiveMinimal,
        };
        let soa = CreditSoA::new(&cfg, 1);
        for vnet in 0..cfg.vnets {
            let range = cfg.vc_range(vnet);
            let all: u32 = range.clone().map(|v| 1u32 << v).sum();
            assert_eq!(
                soa.normal_mask[vnet as usize] | soa.escape_mask[vnet as usize],
                all
            );
            assert_eq!(
                soa.normal_mask[vnet as usize] & soa.escape_mask[vnet as usize],
                0
            );
        }
    }

    #[test]
    fn ascending_scan_matches_naive_order() {
        let cfg = NetConfig::synth(4, 4);
        let mut soa = CreditSoA::new(&cfg, 1);
        soa.set_free(0, 2, 1, true);
        soa.set_free(0, 2, 3, true);
        let v = soa.view(0);
        assert_eq!(v.first_free_normal(2, 0), Some(1));
        assert!(v.any_free(2));
        assert!(!v.any_free(1));
        assert_eq!(v.free_normal(2, 0), 2);
        soa.set_free(0, 2, 1, false);
        assert_eq!(soa.view(0).first_free_normal(2, 0), Some(3));
    }

    #[test]
    fn class_scoped_lookup_is_ascending() {
        let cfg = NetConfig::full_system(4, 6, 2);
        let mut soa = CreditSoA::new(&cfg, 1);
        let lp = Direction::Local.index();
        for v in 0..(cfg.classes as usize * cfg.ejection_vcs_per_class as usize) {
            soa.set_free(0, lp, v, true);
        }
        soa.set_free(0, lp, 6, false);
        assert_eq!(soa.view(0).first_free_in(lp, 6, 2), Some(7));
        soa.set_free(0, lp, 7, false);
        assert_eq!(soa.view(0).first_free_in(lp, 6, 2), None);
    }

    #[test]
    fn occupancy_counters_track_adds_and_subs() {
        let cfg = NetConfig::synth(4, 2);
        let mut soa = CreditSoA::new(&cfg, 4);
        assert!(!soa.router_busy(2));
        soa.occ_add(2, 1, 3);
        assert!(soa.router_busy(2));
        assert_eq!(soa.occ(2, 1), 3);
        assert_eq!(soa.total_buffered(), 3);
        soa.occ_sub(2, 1, 3);
        assert!(!soa.router_busy(2));
    }
}
