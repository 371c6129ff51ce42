//! Fault-injection configuration.
//!
//! A [`FaultConfig`] rides on [`crate::NetConfig`] and describes which faults
//! the simulator must inject and how the recovery layer is tuned. The default
//! value is fully disabled; the engine promises bit-identical behaviour to a
//! fault-free build whenever [`FaultConfig::enabled`] is false.
//!
//! Two fault classes are modelled:
//!
//! * **Transient** — every link traversal independently corrupts the flit
//!   with probability [`FaultConfig::transient_rate`] (a soft error on the
//!   wires). The link-layer retransmission protocol in `noc-sim` detects the
//!   corruption by checksum and heals it by ack/nack + resend: latency cost,
//!   never loss.
//! * **Permanent** — whole physical links (both directions) or whole routers
//!   are dead for the entire run, either by explicit list or by drawing
//!   [`FaultConfig::random_dead_links`] kills from [`FaultConfig::fault_seed`].
//!   The simulator routes around dead hardware with a degraded-mesh routing
//!   mask, re-certified by `noc-verify`.
//!
//! All randomness (corruption draws, random kills) comes from a dedicated RNG
//! seeded by `fault_seed`, never from the traffic RNG, so a fault scenario is
//! reproducible independently of the workload seed.

use crate::direction::Direction;
use crate::geometry::NodeId;
use crate::schedule::{Epoch, FaultAction, FaultEvent, FaultSchedule};
use crate::Cycle;

/// Fault-injection knobs carried by [`crate::NetConfig`].
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Probability that a single inter-router link traversal corrupts the
    /// flit. `0.0` disables transient faults entirely.
    pub transient_rate: f64,
    /// Physical links to kill permanently, each named from one endpoint as
    /// `(node, direction)`. A dead link is dead in *both* directions.
    pub dead_links: Vec<(NodeId, Direction)>,
    /// Routers to kill permanently; all four of a dead router's mesh links
    /// die with it (its NIC neither injects nor receives).
    pub dead_routers: Vec<NodeId>,
    /// Number of additional physical links to kill at random, drawn
    /// deterministically from [`FaultConfig::fault_seed`].
    pub random_dead_links: u8,
    /// Seed for the dedicated fault RNG (corruption draws + random kills).
    pub fault_seed: u64,
    /// Cycles a sender waits for an ack before re-sending its oldest
    /// unacknowledged flit.
    pub retransmit_timeout: u32,
    /// Extra wait cycles added per further resend of the same flit, so a
    /// persistently unlucky flit backs off instead of hammering the link.
    pub resend_backoff: u32,
    /// Deterministic timeline of mid-run kill/heal events (fault epochs).
    /// Empty by default; see [`crate::schedule::FaultSchedule`].
    pub schedule: FaultSchedule,
}

impl Default for FaultConfig {
    /// Fully disabled: no transient faults, no dead hardware. The recovery
    /// knobs keep sane values so enabling faults later needs only a rate or
    /// a kill list.
    fn default() -> Self {
        FaultConfig {
            transient_rate: 0.0,
            dead_links: Vec::new(),
            dead_routers: Vec::new(),
            random_dead_links: 0,
            fault_seed: 0xFA17,
            retransmit_timeout: 16,
            resend_backoff: 8,
            schedule: FaultSchedule::none(),
        }
    }
}

impl FaultConfig {
    /// A transient-only fault scenario at the given corruption rate.
    pub fn transient(rate: f64) -> Self {
        FaultConfig {
            transient_rate: rate,
            ..FaultConfig::default()
        }
    }

    /// True when any fault is configured; false means the simulator must be
    /// bit-identical to a build without the fault layer.
    pub fn enabled(&self) -> bool {
        self.transient_rate > 0.0 || self.has_permanent() || self.has_schedule()
    }

    /// True when any permanent (link/router kill) fault is configured.
    pub fn has_permanent(&self) -> bool {
        !self.dead_links.is_empty() || !self.dead_routers.is_empty() || self.random_dead_links > 0
    }

    /// True when a dynamic fault schedule (mid-run kill/heal events) is set.
    pub fn has_schedule(&self) -> bool {
        !self.schedule.is_empty()
    }

    /// Builder: kill the listed physical links.
    #[must_use]
    pub fn with_dead_links(mut self, links: Vec<(NodeId, Direction)>) -> Self {
        self.dead_links = links;
        self
    }

    /// Builder: kill the listed routers (all their links die with them).
    #[must_use]
    pub fn with_dead_routers(mut self, routers: Vec<NodeId>) -> Self {
        self.dead_routers = routers;
        self
    }

    /// Builder: kill `n` physical links drawn from the fault seed.
    #[must_use]
    pub fn with_random_dead_links(mut self, n: u8) -> Self {
        self.random_dead_links = n;
        self
    }

    /// Builder: replace the fault RNG seed.
    #[must_use]
    pub fn with_fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = seed;
        self
    }

    /// Builder: attach a dynamic kill/heal schedule.
    #[must_use]
    pub fn with_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Validates the scenario against a `cols`×`rows` mesh: the walk of
    /// [`FaultConfig::epochs`] with its result dropped.
    pub fn validate(&self, cols: u8, rows: u8) -> Result<(), String> {
        self.epochs(cols, rows).map(drop)
    }

    /// The one walk over the scenario's fault timeline. It validates the
    /// scenario against a `cols`×`rows` mesh and returns one [`Epoch`] per
    /// schedule event, in order: the event, its key and the hardware dead
    /// from it on. The validator, the certifier (`certify_schedule`) and
    /// the engine's chaos layer all read this one answer.
    ///
    /// Errors describe configurations that could only fail later as a panic
    /// deep inside network construction: corruption rates outside [0, 1],
    /// dead links/routers that are not on the mesh (or listed twice), more
    /// random kills than physical links, retransmission windows of zero
    /// (the go-back-N sender would spin-resend every cycle), and schedules
    /// that are unordered, off the mesh, or inconsistent — killing dead
    /// hardware, healing live hardware, or touching a link whose endpoint
    /// router is down. Schedules cannot be checked against *random* initial
    /// kills, so the two are rejected together.
    pub fn epochs(&self, cols: u8, rows: u8) -> Result<Vec<Epoch>, String> {
        let n = usize::from(cols) * usize::from(rows);
        if !self.transient_rate.is_finite() || !(0.0..=1.0).contains(&self.transient_rate) {
            return Err(format!(
                "fault config: transient_rate {} is not a probability in [0, 1]",
                self.transient_rate
            ));
        }
        // Links dead on their own account, each named once: the same link
        // named from either side collides. Duplicates are configuration
        // bugs, not requests to kill harder; reject them here instead of
        // silently deduping when the routing mask is built.
        let mut links: Vec<(NodeId, Direction)> = Vec::with_capacity(self.dead_links.len());
        for &(node, d) in &self.dead_links {
            let (id, _) = link_id(cols, rows, node, d, "fault config: dead link")?;
            if links.contains(&id) {
                return Err(format!(
                    "fault config: dead link ({node}, {d:?}) names a physical link \
                     already listed (a dead link is dead in both directions; list \
                     each link once)"
                ));
            }
            links.push(id);
        }
        let mut routers: Vec<NodeId> = Vec::with_capacity(self.dead_routers.len());
        for &node in &self.dead_routers {
            if node.idx() >= n {
                return Err(format!(
                    "fault config: dead router {} is outside the {cols}x{rows} mesh \
                     ({n} nodes)",
                    node.0
                ));
            }
            if routers.contains(&node) {
                return Err(format!(
                    "fault config: dead router {} is listed twice",
                    node.0
                ));
            }
            routers.push(node);
        }
        if self.has_schedule() && self.random_dead_links > 0 {
            return Err("fault config: a fault schedule cannot be combined with \
                 random_dead_links (the schedule's kill/heal consistency cannot \
                 be checked against random initial kills); list the initial dead \
                 links explicitly"
                .to_string());
        }
        let mut epochs = Vec::with_capacity(self.schedule.len());
        let mut prev_at: Cycle = 0;
        for &ev in &self.schedule.events {
            if ev.at == 0 {
                return Err(format!(
                    "fault schedule: event {:?} at cycle 0; initial faults belong in \
                     dead_links/dead_routers",
                    ev.action
                ));
            }
            if ev.at < prev_at {
                return Err(format!(
                    "fault schedule: event {:?} at cycle {} is out of order (previous \
                     event was at cycle {prev_at}); sort events by cycle",
                    ev.action, ev.at
                ));
            }
            prev_at = ev.at;
            match ev.action {
                FaultAction::KillLink(node, d) | FaultAction::HealLink(node, d) => {
                    let (id, peer) = link_id(cols, rows, node, d, "fault schedule: link event")?;
                    if let Some(r) = [node, peer].into_iter().find(|r| routers.contains(r)) {
                        return Err(format!(
                            "fault schedule: link event ({node}, {d:?}) at cycle {} \
                             touches router {} which is down at that point; heal the \
                             router first",
                            ev.at, r.0
                        ));
                    }
                    toggle(&mut links, id, &ev, &format!("link ({node}, {d:?})"))?;
                }
                FaultAction::KillRouter(node) | FaultAction::HealRouter(node) => {
                    if node.idx() >= n {
                        return Err(format!(
                            "fault schedule: router event for node {} outside the \
                             {cols}x{rows} mesh ({n} nodes)",
                            node.0
                        ));
                    }
                    toggle(&mut routers, node, &ev, &format!("router {}", node.0))?;
                }
            }
            epochs.push(Epoch {
                event: ev,
                key: ev.to_string(),
                dead: FaultConfig::default()
                    .with_dead_links(links.clone())
                    .with_dead_routers(routers.clone()),
            });
        }
        let physical_links = usize::from(cols) * usize::from(rows.saturating_sub(1))
            + usize::from(rows) * usize::from(cols.saturating_sub(1));
        if usize::from(self.random_dead_links) > physical_links {
            return Err(format!(
                "fault config: {} random dead links requested but the {cols}x{rows} \
                 mesh only has {physical_links} physical links",
                self.random_dead_links
            ));
        }
        if self.transient_rate > 0.0 && self.retransmit_timeout == 0 {
            return Err(
                "fault config: retransmit_timeout of 0 with transient faults enabled \
                 would resend every cycle; use a window of at least 1"
                    .to_string(),
            );
        }
        Ok(epochs)
    }

    /// Canonical single-line rendering, used in checkpoint keys and dump
    /// headers. Stable across runs: field order is fixed and floats are
    /// printed through their bit pattern.
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(s, "tr={:016x}", self.transient_rate.to_bits());
        let _ = write!(s, ";dl=");
        for (n, d) in &self.dead_links {
            let _ = write!(s, "{}:{},", n.0, d.index());
        }
        let _ = write!(s, ";dr=");
        for n in &self.dead_routers {
            let _ = write!(s, "{},", n.0);
        }
        let _ = write!(
            s,
            ";rk={};fs={};to={};bo={}",
            self.random_dead_links, self.fault_seed, self.retransmit_timeout, self.resend_backoff
        );
        // Schedules extend the digest; empty schedules keep pre-schedule
        // renderings (and therefore existing checkpoint keys) unchanged.
        if self.has_schedule() {
            let _ = write!(s, ";ev={}", self.schedule.canonical());
        }
        s
    }
}

/// Names the physical link leaving `node` toward `d` once: from its
/// lower-numbered endpoint, so `(u, East)` and `(u + 1, West)` are one link.
/// Returns that name and the far endpoint, or — prefixed by `what` — why
/// `(node, d)` names no link of a `cols`×`rows` mesh.
fn link_id(
    cols: u8,
    rows: u8,
    node: NodeId,
    d: Direction,
    what: &str,
) -> Result<((NodeId, Direction), NodeId), String> {
    let n = usize::from(cols) * usize::from(rows);
    if !d.is_cardinal() {
        return Err(format!(
            "{what} ({node}, {d:?}) is not a mesh link (only cardinal directions \
             name links)"
        ));
    }
    if node.idx() >= n {
        return Err(format!(
            "{what} ({node}, {d:?}) names node {} outside the {cols}x{rows} mesh \
             ({n} nodes)",
            node.0
        ));
    }
    let Some(to) = d.step(node.to_coord(cols), cols, rows) else {
        return Err(format!(
            "{what} ({node}, {d:?}) points off the edge of the {cols}x{rows} mesh"
        ));
    };
    let peer = to.to_node(cols);
    let id = if peer.0 < node.0 {
        (peer, d.opposite())
    } else {
        (node, d)
    };
    Ok((id, peer))
}

/// Applies `ev`, a kill or a heal of `x` (named `what` in errors), to the
/// dead set `v`: killing dead or healing live hardware is an error.
fn toggle<T: PartialEq>(v: &mut Vec<T>, x: T, ev: &FaultEvent, what: &str) -> Result<(), String> {
    match (ev.action.is_kill(), v.contains(&x)) {
        (true, true) => Err(format!(
            "fault schedule: kill of already-dead {what} at cycle {}",
            ev.at
        )),
        (false, false) => Err(format!(
            "fault schedule: heal of live {what} at cycle {}",
            ev.at
        )),
        (true, false) => {
            v.push(x);
            Ok(())
        }
        (false, true) => {
            v.retain(|y| *y != x);
            Ok(())
        }
    }
}

/// FNV-1a hash of a byte string; used for stable config digests in
/// checkpoint keys (no external hash crates in the workspace).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        let f = FaultConfig::default();
        assert!(!f.enabled());
        assert!(!f.has_permanent());
    }

    #[test]
    fn transient_and_permanent_enable() {
        assert!(FaultConfig::transient(0.01).enabled());
        assert!(FaultConfig::default()
            .with_dead_links(vec![(NodeId(3), Direction::East)])
            .enabled());
        assert!(FaultConfig::default().with_random_dead_links(2).enabled());
    }

    #[test]
    fn validate_accepts_sane_scenarios() {
        assert!(FaultConfig::default().validate(4, 4).is_ok());
        assert!(FaultConfig::transient(0.1).validate(4, 4).is_ok());
        assert!(FaultConfig::default()
            .with_dead_links(vec![(NodeId(5), Direction::East)])
            .validate(4, 4)
            .is_ok());
        assert!(FaultConfig::default()
            .with_random_dead_links(3)
            .validate(4, 4)
            .is_ok());
    }

    #[test]
    fn validate_rejects_bad_rates() {
        for rate in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let err = FaultConfig::transient(rate).validate(4, 4).unwrap_err();
            assert!(err.contains("transient_rate"), "{err}");
        }
    }

    #[test]
    fn validate_rejects_off_mesh_hardware() {
        let err = FaultConfig::default()
            .with_dead_links(vec![(NodeId(99), Direction::East)])
            .validate(4, 4)
            .unwrap_err();
        assert!(err.contains("outside the 4x4 mesh"), "{err}");

        // Node 3 is the NE corner of a 4x4 mesh: East points off the edge.
        let err = FaultConfig::default()
            .with_dead_links(vec![(NodeId(3), Direction::East)])
            .validate(4, 4)
            .unwrap_err();
        assert!(err.contains("off the edge"), "{err}");

        let err = FaultConfig::default()
            .with_dead_links(vec![(NodeId(3), Direction::Local)])
            .validate(4, 4)
            .unwrap_err();
        assert!(err.contains("not a mesh link"), "{err}");

        let err = FaultConfig::default()
            .with_dead_routers(vec![NodeId(16)])
            .validate(4, 4)
            .unwrap_err();
        assert!(err.contains("dead router"), "{err}");
    }

    #[test]
    fn validate_rejects_degenerate_windows_and_overkill() {
        let bad = FaultConfig {
            retransmit_timeout: 0,
            ..FaultConfig::transient(0.01)
        };
        assert!(bad
            .validate(4, 4)
            .unwrap_err()
            .contains("retransmit_timeout"));
        // ...but a zero window is fine when transients are off.
        let off = FaultConfig {
            retransmit_timeout: 0,
            ..FaultConfig::default()
        };
        assert!(off.validate(4, 4).is_ok());

        // A 2x2 mesh has 4 physical links.
        let err = FaultConfig::default()
            .with_random_dead_links(5)
            .validate(2, 2)
            .unwrap_err();
        assert!(err.contains("4 physical links"), "{err}");
    }

    #[test]
    fn validate_rejects_duplicate_and_aliased_dead_links() {
        // Exact duplicate.
        let err = FaultConfig::default()
            .with_dead_links(vec![
                (NodeId(5), Direction::East),
                (NodeId(5), Direction::East),
            ])
            .validate(4, 4)
            .unwrap_err();
        assert!(err.contains("already listed"), "{err}");

        // Same physical link named from the other endpoint.
        let err = FaultConfig::default()
            .with_dead_links(vec![
                (NodeId(5), Direction::East),
                (NodeId(6), Direction::West),
            ])
            .validate(4, 4)
            .unwrap_err();
        assert!(err.contains("already listed"), "{err}");

        // Vertical alias: (1, South) and (5, North) are one link.
        let err = FaultConfig::default()
            .with_dead_links(vec![
                (NodeId(1), Direction::South),
                (NodeId(5), Direction::North),
            ])
            .validate(4, 4)
            .unwrap_err();
        assert!(err.contains("already listed"), "{err}");

        // Two genuinely different links are fine.
        assert!(FaultConfig::default()
            .with_dead_links(vec![
                (NodeId(5), Direction::East),
                (NodeId(5), Direction::South),
            ])
            .validate(4, 4)
            .is_ok());

        // Duplicate dead routers.
        let err = FaultConfig::default()
            .with_dead_routers(vec![NodeId(3), NodeId(3)])
            .validate(4, 4)
            .unwrap_err();
        assert!(err.contains("listed twice"), "{err}");
    }

    #[test]
    fn validate_checks_schedules() {
        use crate::schedule::FaultSchedule;

        let ok = FaultConfig::default().with_schedule(FaultSchedule::link_flap(
            NodeId(5),
            Direction::East,
            100,
            200,
        ));
        assert!(ok.enabled());
        assert!(!ok.has_permanent());
        assert!(ok.has_schedule());
        assert!(ok.validate(4, 4).is_ok());

        // Schedule inconsistent with the initial dead set.
        let bad = FaultConfig::default()
            .with_dead_links(vec![(NodeId(5), Direction::East)])
            .with_schedule(FaultSchedule::link_flap(
                NodeId(5),
                Direction::East,
                100,
                200,
            ));
        assert!(bad.validate(4, 4).unwrap_err().contains("already-dead"));

        // Schedules cannot ride on random kills.
        let bad = FaultConfig::default()
            .with_random_dead_links(1)
            .with_schedule(FaultSchedule::link_flap(
                NodeId(5),
                Direction::East,
                100,
                200,
            ));
        assert!(bad
            .validate(4, 4)
            .unwrap_err()
            .contains("random_dead_links"));
    }

    #[test]
    fn epochs_name_each_dead_link_once_and_keep_listed_links_past_a_router_heal() {
        use crate::schedule::{FaultAction, FaultEvent};

        let ev = |at, action| FaultEvent { at, action };
        // (6, West) is (5, East) named from the far side; it is dead on its
        // own account, so it outlives the heal of router 5 beside it.
        let fault = FaultConfig::default()
            .with_dead_routers(vec![NodeId(5)])
            .with_dead_links(vec![(NodeId(6), Direction::West)])
            .with_schedule(FaultSchedule::new(vec![
                ev(100, FaultAction::HealRouter(NodeId(5))),
                ev(200, FaultAction::KillLink(NodeId(9), Direction::North)),
                ev(300, FaultAction::KillRouter(NodeId(10))),
            ]));
        let epochs = fault.epochs(4, 4).unwrap();
        type Row<'a> = (&'a str, &'a [(NodeId, Direction)], &'a [NodeId]);
        let got: Vec<Row> = epochs
            .iter()
            .map(|e| {
                assert_eq!(e.key, e.event.to_string());
                (
                    e.key.as_str(),
                    e.dead.dead_links.as_slice(),
                    e.dead.dead_routers.as_slice(),
                )
            })
            .collect();
        let (east, south) = ((NodeId(5), Direction::East), (NodeId(5), Direction::South));
        assert_eq!(
            got,
            [
                ("100:hr:5", &[east][..], &[][..]),
                ("200:kl:9:0", &[east, south][..], &[][..]),
                ("300:kr:10", &[east, south][..], &[NodeId(10)][..]),
            ]
        );
        assert!(FaultConfig::default().epochs(4, 4).unwrap().is_empty());
    }

    #[test]
    fn canonical_folds_in_schedule() {
        use crate::schedule::FaultSchedule;

        let plain = FaultConfig::default();
        let flap = FaultConfig::default().with_schedule(FaultSchedule::link_flap(
            NodeId(5),
            Direction::East,
            100,
            200,
        ));
        assert!(!plain.canonical().contains(";ev="));
        assert!(flap.canonical().contains(";ev="));
        assert_ne!(plain.canonical(), flap.canonical());

        let other = FaultConfig::default().with_schedule(FaultSchedule::link_flap(
            NodeId(5),
            Direction::East,
            100,
            201,
        ));
        assert_ne!(flap.canonical(), other.canonical());
    }

    #[test]
    fn canonical_is_stable_and_distinguishes() {
        let a = FaultConfig::transient(0.05);
        let b = FaultConfig::transient(0.05);
        assert_eq!(a.canonical(), b.canonical());
        let c = FaultConfig::transient(0.06);
        assert_ne!(a.canonical(), c.canonical());
        assert_ne!(
            fnv1a(a.canonical().as_bytes()),
            fnv1a(c.canonical().as_bytes())
        );
    }
}
