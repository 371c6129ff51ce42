//! Router area model (Fig 7).
//!
//! Per-scheme router configurations follow §4.2: the *minimum* buffering
//! each scheme needs for correctness — Escape VC 7 VCs (one per `VNet` plus a
//! shared adaptive VC), West-first/TFC/SPIN/SWAP 6 VCs (one per `VNet`), DRAIN
//! and SEEC 1 VC. mSEEC adds no router complexity over SEEC (footnote 3).

use noc_types::{NetConfig, SchemeKind, NUM_PORTS};

/// Area units: one unit ≈ one bit-cell of SRAM-based buffering; logic
/// components are expressed in the same unit via published relative sizes.
const FLIT_BITS: f64 = 128.0;
/// Crossbar area coefficient (per bit² of the 5×5 switch).
const XBAR_COEF: f64 = 0.025;
/// Per-VC allocator/bookkeeping logic.
const ALLOC_PER_VC: f64 = 90.0;
/// Fixed switch-allocator + pipeline + output-unit logic.
const FIXED_LOGIC: f64 = 1700.0;
/// SEEC extras (§3.9–3.10): seeker generator, prev-FF-origin tracker,
/// 9-bit parallel comparators per VC, bypass muxes, lookahead logic.
const SEEC_EXTRA_FIXED: f64 = 260.0;
const SEEC_EXTRA_PER_VC: f64 = 12.0;
/// SPIN extras: per-VC timeout counters, probe FSM, path table.
const SPIN_EXTRA_FIXED: f64 = 420.0;
const SPIN_EXTRA_PER_VC: f64 = 30.0;
/// SWAP extras: swap FSM and reverse muxes.
const SWAP_EXTRA_FIXED: f64 = 300.0;
/// DRAIN extras: drain FSM, timeout counter, U-turn crossbar inputs.
const DRAIN_EXTRA_FIXED: f64 = 280.0;
/// TFC extras: token tracking and bypass latches.
const TFC_EXTRA_FIXED: f64 = 350.0;
/// `MinBD`: 4-flit side buffer + permutation/golden logic, no VC buffers.
const MINBD_SIDE_FLITS: f64 = 4.0;
const DEFLECT_LOGIC: f64 = 900.0;

/// Component-level router area.
#[derive(Clone, Copy, Debug)]
pub struct AreaBreakdown {
    pub scheme: SchemeKind,
    /// VCs per input port this scheme needs for correctness.
    pub vcs_per_port: usize,
    pub buffers: f64,
    pub crossbar: f64,
    pub allocators: f64,
    /// Scheme-specific additions (seeker logic, probes, FSMs, side buffer).
    pub extras: f64,
}

impl AreaBreakdown {
    pub fn total(&self) -> f64 {
        self.buffers + self.crossbar + self.allocators + self.extras
    }
}

/// The minimum VC count per input port each scheme needs to be correct on a
/// 6-message-class protocol (§4.2).
pub fn min_vcs_for_correctness(scheme: SchemeKind) -> usize {
    match scheme {
        SchemeKind::EscapeVc => 7,
        SchemeKind::None | SchemeKind::Tfc | SchemeKind::Spin | SchemeKind::Swap => 6,
        SchemeKind::Drain | SchemeKind::Seec | SchemeKind::MSeec => 1,
        SchemeKind::MinBd | SchemeKind::Chipper => 0,
    }
}

/// Router area for `scheme` with `vcs_per_port` VCs of `vc_depth` flits at
/// every input port. Use [`min_vcs_for_correctness`] for the Fig 7
/// comparison, or the experiment's actual VC count for iso-hardware studies.
pub fn router_area_with(scheme: SchemeKind, vcs_per_port: usize, vc_depth: usize) -> AreaBreakdown {
    let deflection = matches!(scheme, SchemeKind::MinBd | SchemeKind::Chipper);
    let buffers = if deflection {
        if scheme == SchemeKind::MinBd {
            MINBD_SIDE_FLITS * FLIT_BITS
        } else {
            0.0
        }
    } else {
        NUM_PORTS as f64 * vcs_per_port as f64 * vc_depth as f64 * FLIT_BITS
    };
    let crossbar = (NUM_PORTS as f64 * FLIT_BITS).powi(2) * XBAR_COEF / NUM_PORTS as f64;
    let allocators = if deflection {
        DEFLECT_LOGIC
    } else {
        FIXED_LOGIC + ALLOC_PER_VC * NUM_PORTS as f64 * vcs_per_port as f64
    };
    let extras = match scheme {
        SchemeKind::Seec | SchemeKind::MSeec => {
            SEEC_EXTRA_FIXED + SEEC_EXTRA_PER_VC * NUM_PORTS as f64 * vcs_per_port as f64
        }
        SchemeKind::Spin => {
            SPIN_EXTRA_FIXED + SPIN_EXTRA_PER_VC * NUM_PORTS as f64 * vcs_per_port as f64
        }
        SchemeKind::Swap => SWAP_EXTRA_FIXED,
        SchemeKind::Drain => DRAIN_EXTRA_FIXED,
        SchemeKind::Tfc => TFC_EXTRA_FIXED,
        _ => 0.0,
    };
    AreaBreakdown {
        scheme,
        vcs_per_port,
        buffers,
        crossbar,
        allocators,
        extras,
    }
}

/// Router area at the scheme's minimum correct configuration, depth from
/// `cfg` (5-flit VCT).
pub fn router_area(scheme: SchemeKind, cfg: &NetConfig) -> AreaBreakdown {
    router_area_with(
        scheme,
        min_vcs_for_correctness(scheme),
        cfg.vc_depth as usize,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NetConfig {
        NetConfig::full_system(8, 6, 1)
    }

    #[test]
    fn seec_saves_roughly_three_quarters_vs_escape_vc() {
        // The paper: SEEC reduces router area by ~73% vs Escape VC and ~70%
        // vs SPIN/SWAP.
        let seec = router_area(SchemeKind::Seec, &cfg()).total();
        let esc = router_area(SchemeKind::EscapeVc, &cfg()).total();
        let spin = router_area(SchemeKind::Spin, &cfg()).total();
        let swap = router_area(SchemeKind::Swap, &cfg()).total();
        let r_esc = 1.0 - seec / esc;
        let r_spin = 1.0 - seec / spin;
        let r_swap = 1.0 - seec / swap;
        assert!((0.68..0.78).contains(&r_esc), "esc saving {r_esc}");
        assert!((0.63..0.75).contains(&r_spin), "spin saving {r_spin}");
        assert!((0.63..0.75).contains(&r_swap), "swap saving {r_swap}");
    }

    #[test]
    fn drain_and_seec_are_comparable() {
        let seec = router_area(SchemeKind::Seec, &cfg()).total();
        let drain = router_area(SchemeKind::Drain, &cfg()).total();
        let ratio = seec / drain;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn buffers_dominate_multi_vnet_schemes() {
        let esc = router_area(SchemeKind::EscapeVc, &cfg());
        assert!(esc.buffers > 0.6 * esc.total());
    }

    #[test]
    fn mseec_adds_nothing_over_seec() {
        let a = router_area(SchemeKind::Seec, &cfg());
        let b = router_area(SchemeKind::MSeec, &cfg());
        assert_eq!(a.total(), b.total());
    }

    #[test]
    fn minbd_is_smaller_than_any_vc_router() {
        let minbd = router_area(SchemeKind::MinBd, &cfg()).total();
        let seec = router_area(SchemeKind::Seec, &cfg()).total();
        assert!(minbd < seec);
        let chipper = router_area(SchemeKind::Chipper, &cfg()).total();
        assert!(chipper < minbd);
    }
}
