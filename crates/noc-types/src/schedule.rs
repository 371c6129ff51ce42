//! Dynamic fault schedules: a deterministic timeline of kill/heal events.
//!
//! A [`FaultSchedule`] rides on [`crate::fault::FaultConfig`] and turns the
//! static fault model of PR 3 (hardware dead at construction time, forever)
//! into a time-varying one: links and routers can die *and heal* mid-run at
//! pre-declared cycles. The engine applies each event at the start of its
//! cycle, opening a new **fault epoch** — routing masks are rebuilt, escape
//! paths re-armed, and (under `check-invariants`) the degraded mesh can be
//! re-certified online by the chaos harness.
//!
//! Schedules are plain data: ordered, validated against the mesh and against
//! the initial dead set, and folded into the config digest via
//! [`FaultSchedule::canonical`], so two runs with the same digest replay the
//! same timeline bit-for-bit. All the *choice* of what to kill lives in the
//! harness (noc-experiments' chaos generator); this type only records and
//! checks the outcome.

use crate::direction::Direction;
use crate::fault::FaultConfig;
use crate::geometry::NodeId;
use crate::Cycle;
use std::fmt;

/// One reconfiguration action applied at a scheduled cycle.
///
/// Link actions name a *physical* (bidirectional) link from one endpoint,
/// exactly like `FaultConfig::dead_links`; killing `(n, East)` severs both
/// directions between `n` and its eastern neighbour. Router actions take the
/// router's four links down (or restore them) together with its NIC.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultAction {
    /// Sever a live physical link (both directions).
    KillLink(NodeId, Direction),
    /// Restore a previously-killed physical link.
    HealLink(NodeId, Direction),
    /// Take a live router (and its four links + NIC) offline.
    KillRouter(NodeId),
    /// Restore a previously-killed router.
    HealRouter(NodeId),
}

impl FaultAction {
    /// Short stable code used in canonical renderings and trace rows.
    pub fn code(&self) -> &'static str {
        match self {
            FaultAction::KillLink(..) => "kl",
            FaultAction::HealLink(..) => "hl",
            FaultAction::KillRouter(_) => "kr",
            FaultAction::HealRouter(_) => "hr",
        }
    }

    /// True for the two kill variants.
    pub fn is_kill(&self) -> bool {
        matches!(self, FaultAction::KillLink(..) | FaultAction::KillRouter(_))
    }
}

/// A single timed event in a fault schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultEvent {
    /// Cycle the action takes effect (applied at the start of this cycle,
    /// before any flit moves). Must be ≥ 1: cycle-0 state belongs to the
    /// static `FaultConfig` lists.
    pub at: Cycle,
    pub action: FaultAction,
}

impl fmt::Display for FaultEvent {
    /// The event's key, `at:code:node[:dir]`: the form
    /// [`FaultSchedule::canonical`] joins, the engine's epoch trace records
    /// and the certifier's epochs carry.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.at, self.action.code())?;
        match self.action {
            FaultAction::KillLink(n, d) | FaultAction::HealLink(n, d) => {
                write!(f, ":{}:{}", n.0, d.index())
            }
            FaultAction::KillRouter(n) | FaultAction::HealRouter(n) => write!(f, ":{}", n.0),
        }
    }
}

/// One event of a validated fault timeline and the hardware it leaves dead
/// (see [`FaultConfig::epochs`]). The mesh from this event until the next
/// is an *epoch*.
#[derive(Clone, Debug, PartialEq)]
pub struct Epoch {
    pub event: FaultEvent,
    /// The event's key, `at:code:node[:dir]`.
    pub key: String,
    /// What is dead from the event on, as a static fault config with only
    /// its two lists set: the links dead on their own account, each named
    /// once from its lower-numbered endpoint, and the dead routers. A dead
    /// router's links are implied, so a link listed here stays dead when an
    /// adjacent router heals.
    pub dead: FaultConfig,
}

/// A deterministic timeline of kill/heal events.
///
/// Events must be ordered by cycle (ties allowed — e.g. a brownout killing
/// several links in the same cycle — and applied in list order), and must
/// describe a *consistent* state machine: no killing dead hardware, no
/// healing live hardware. [`FaultConfig::epochs`] enforces both against the
/// initial dead set.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultSchedule {
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (no dynamic events; static fault model only).
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// A schedule from an explicit event list.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        FaultSchedule { events }
    }

    /// True when the schedule contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Cycle of the last event, or `None` for an empty schedule.
    pub fn last_event_cycle(&self) -> Option<Cycle> {
        self.events.last().map(|e| e.at)
    }

    /// A single kill + heal *flap* of one physical link.
    pub fn link_flap(node: NodeId, dir: Direction, kill_at: Cycle, heal_at: Cycle) -> Self {
        FaultSchedule::new(vec![
            FaultEvent {
                at: kill_at,
                action: FaultAction::KillLink(node, dir),
            },
            FaultEvent {
                at: heal_at,
                action: FaultAction::HealLink(node, dir),
            },
        ])
    }

    /// A periodic flap train: `count` kill/heal pairs on one link, each kill
    /// lasting `down` cycles with `up` live cycles between pairs.
    pub fn flap_train(
        node: NodeId,
        dir: Direction,
        start: Cycle,
        down: Cycle,
        up: Cycle,
        count: u32,
    ) -> Self {
        let mut events = Vec::with_capacity(count as usize * 2);
        let period = down + up;
        for i in 0..u64::from(count) {
            let kill = start + i * period;
            events.push(FaultEvent {
                at: kill,
                action: FaultAction::KillLink(node, dir),
            });
            events.push(FaultEvent {
                at: kill + down,
                action: FaultAction::HealLink(node, dir),
            });
        }
        FaultSchedule::new(events)
    }

    /// A brownout window: every listed link dies at `start` and heals at
    /// `start + duration` (all in the same pair of epochs).
    pub fn brownout(links: &[(NodeId, Direction)], start: Cycle, duration: Cycle) -> Self {
        let mut events = Vec::with_capacity(links.len() * 2);
        for &(n, d) in links {
            events.push(FaultEvent {
                at: start,
                action: FaultAction::KillLink(n, d),
            });
        }
        for &(n, d) in links {
            events.push(FaultEvent {
                at: start + duration,
                action: FaultAction::HealLink(n, d),
            });
        }
        FaultSchedule::new(events)
    }

    /// Merges another schedule into this one, re-sorting by cycle (stable, so
    /// same-cycle events keep their relative order: self's first).
    #[must_use]
    pub fn merged(mut self, other: FaultSchedule) -> Self {
        self.events.extend(other.events);
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// Canonical single-line rendering folded into `FaultConfig::canonical`
    /// (and therefore the config digest): every event's key followed by a
    /// comma. Empty schedules render as the empty string so pre-schedule
    /// digests are unchanged.
    pub fn canonical(&self) -> String {
        self.events.iter().map(|ev| format!("{ev},")).collect()
    }

    /// Inverse of [`FaultSchedule::canonical`] (`at:code:node[:dir],`
    /// repeated). Parses structure only; [`FaultConfig::epochs`] judges the
    /// timeline.
    pub fn from_canonical(canon: &str) -> Result<FaultSchedule, String> {
        let mut events = Vec::new();
        for tok in canon.split(',').filter(|t| !t.is_empty()) {
            let parts: Vec<&str> = tok.split(':').collect();
            let err = |what: &str| format!("bad schedule event '{tok}': {what}");
            if parts.len() < 3 {
                return Err(err("too few fields"));
            }
            let at: Cycle = parts[0].parse().map_err(|_| err("bad cycle"))?;
            let node = NodeId(parts[2].parse().map_err(|_| err("bad node"))?);
            let dir = || -> Result<Direction, String> {
                let idx: usize = parts
                    .get(3)
                    .ok_or_else(|| err("missing direction"))?
                    .parse()
                    .map_err(|_| err("bad direction"))?;
                if idx >= 4 {
                    return Err(err("direction out of range"));
                }
                Ok(Direction::from_index(idx))
            };
            let action = match parts[1] {
                "kl" => FaultAction::KillLink(node, dir()?),
                "hl" => FaultAction::HealLink(node, dir()?),
                "kr" => FaultAction::KillRouter(node),
                "hr" => FaultAction::HealRouter(node),
                other => return Err(err(&format!("unknown action '{other}'"))),
            };
            events.push(FaultEvent { at, action });
        }
        Ok(FaultSchedule::new(events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one walk's verdict on `s` over the given initial dead lists of a
    /// 4x4 mesh.
    fn walk(
        s: &FaultSchedule,
        links: &[(NodeId, Direction)],
        routers: &[NodeId],
    ) -> Result<(), String> {
        FaultConfig::default()
            .with_dead_links(links.to_vec())
            .with_dead_routers(routers.to_vec())
            .with_schedule(s.clone())
            .validate(4, 4)
    }

    fn kl(at: Cycle, node: u16, d: Direction) -> FaultEvent {
        FaultEvent {
            at,
            action: FaultAction::KillLink(NodeId(node), d),
        }
    }

    fn hl(at: Cycle, node: u16, d: Direction) -> FaultEvent {
        FaultEvent {
            at,
            action: FaultAction::HealLink(NodeId(node), d),
        }
    }

    #[test]
    fn flap_constructors_are_ordered_and_valid() {
        let s = FaultSchedule::link_flap(NodeId(5), Direction::East, 100, 200);
        assert_eq!(s.len(), 2);
        assert!(walk(&s, &[], &[]).is_ok());

        let t = FaultSchedule::flap_train(NodeId(5), Direction::East, 50, 20, 30, 3);
        assert_eq!(t.len(), 6);
        assert_eq!(t.last_event_cycle(), Some(50 + 2 * 50 + 20));
        assert!(walk(&t, &[], &[]).is_ok());

        let b = FaultSchedule::brownout(
            &[(NodeId(1), Direction::South), (NodeId(5), Direction::East)],
            80,
            40,
        );
        assert_eq!(b.len(), 4);
        assert!(walk(&b, &[], &[]).is_ok());
    }

    #[test]
    fn validate_rejects_structural_errors() {
        // Cycle-0 event.
        let s = FaultSchedule::new(vec![kl(0, 5, Direction::East)]);
        assert!(walk(&s, &[], &[]).unwrap_err().contains("cycle 0"));

        // Out of order.
        let s = FaultSchedule::new(vec![
            kl(200, 5, Direction::East),
            hl(100, 5, Direction::East),
        ]);
        assert!(walk(&s, &[], &[]).unwrap_err().contains("out of order"));

        // Off-edge link.
        let s = FaultSchedule::new(vec![kl(10, 3, Direction::East)]);
        assert!(walk(&s, &[], &[]).unwrap_err().contains("off the edge"));

        // Non-cardinal.
        let s = FaultSchedule::new(vec![kl(10, 3, Direction::Local)]);
        assert!(walk(&s, &[], &[]).unwrap_err().contains("not a mesh link"));

        // Off-mesh router.
        let s = FaultSchedule::new(vec![FaultEvent {
            at: 10,
            action: FaultAction::KillRouter(NodeId(16)),
        }]);
        assert!(walk(&s, &[], &[]).unwrap_err().contains("outside the 4x4"));
    }

    #[test]
    fn validate_tracks_live_state() {
        // Double kill, including via the aliased name from the other side:
        // (5, East) and (6, West) are the same physical link.
        let s = FaultSchedule::new(vec![kl(10, 5, Direction::East), kl(20, 6, Direction::West)]);
        assert!(walk(&s, &[], &[]).unwrap_err().contains("already-dead"));

        // Heal of a live link.
        let s = FaultSchedule::new(vec![hl(10, 5, Direction::East)]);
        assert!(walk(&s, &[], &[])
            .unwrap_err()
            .contains("heal of live link"));

        // Heal of an *initially* dead link is legal.
        let s = FaultSchedule::new(vec![hl(10, 5, Direction::East)]);
        assert!(walk(&s, &[(NodeId(6), Direction::West)], &[]).is_ok());

        // Kill → heal → kill again is a legal flap.
        let s = FaultSchedule::new(vec![
            kl(10, 5, Direction::East),
            hl(20, 5, Direction::East),
            kl(30, 6, Direction::West),
        ]);
        assert!(walk(&s, &[], &[]).is_ok());

        // Router state machine.
        let s = FaultSchedule::new(vec![
            FaultEvent {
                at: 10,
                action: FaultAction::KillRouter(NodeId(5)),
            },
            FaultEvent {
                at: 20,
                action: FaultAction::KillRouter(NodeId(5)),
            },
        ]);
        assert!(walk(&s, &[], &[])
            .unwrap_err()
            .contains("already-dead router"));

        // Link event under a dead router is rejected.
        let s = FaultSchedule::new(vec![
            FaultEvent {
                at: 10,
                action: FaultAction::KillRouter(NodeId(5)),
            },
            kl(20, 5, Direction::East),
        ]);
        assert!(walk(&s, &[], &[])
            .unwrap_err()
            .contains("router 5 which is down"));
    }

    #[test]
    fn canonical_is_stable_and_distinguishes() {
        let a = FaultSchedule::link_flap(NodeId(5), Direction::East, 100, 200);
        let b = FaultSchedule::link_flap(NodeId(5), Direction::East, 100, 200);
        assert_eq!(a.canonical(), b.canonical());
        let c = FaultSchedule::link_flap(NodeId(5), Direction::East, 100, 201);
        assert_ne!(a.canonical(), c.canonical());
        assert_eq!(FaultSchedule::none().canonical(), "");
    }

    #[test]
    fn from_canonical_round_trips_every_action_code() {
        let router = |at: Cycle, action: fn(NodeId) -> FaultAction| FaultEvent {
            at,
            action: action(NodeId(15)),
        };
        let mut events = Vec::new();
        for d in [
            Direction::North,
            Direction::South,
            Direction::East,
            Direction::West,
        ] {
            events.push(kl(10, 5, d));
            events.push(hl(20, 5, d));
        }
        events.push(router(30, FaultAction::KillRouter));
        events.push(router(40, FaultAction::HealRouter));
        let s = FaultSchedule::new(events);
        let canon = s.canonical();
        for code in [":kl:", ":hl:", ":kr:", ":hr:"] {
            assert!(canon.contains(code), "{canon}");
        }
        let back = FaultSchedule::from_canonical(&canon).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.canonical(), canon);
        assert_eq!(
            FaultSchedule::from_canonical("").unwrap(),
            FaultSchedule::none()
        );
    }

    #[test]
    fn from_canonical_rejects_garbage_with_the_event_named() {
        for (canon, want) in [
            ("10:kl", "bad schedule event '10:kl': too few fields"),
            ("x:kl:5:2", "bad schedule event 'x:kl:5:2': bad cycle"),
            ("10:kl:y:2", "bad schedule event '10:kl:y:2': bad node"),
            ("10:kl:5", "bad schedule event '10:kl:5': missing direction"),
            ("10:hl:5:z", "bad schedule event '10:hl:5:z': bad direction"),
            (
                "10:kl:5:4",
                "bad schedule event '10:kl:5:4': direction out of range",
            ),
            (
                "10:zz:5",
                "bad schedule event '10:zz:5': unknown action 'zz'",
            ),
        ] {
            assert_eq!(
                FaultSchedule::from_canonical(canon).unwrap_err(),
                want,
                "{canon}"
            );
        }
    }

    #[test]
    fn merged_keeps_cycle_order() {
        let a = FaultSchedule::link_flap(NodeId(5), Direction::East, 100, 300);
        let b = FaultSchedule::link_flap(NodeId(1), Direction::South, 150, 250);
        let m = a.merged(b);
        let cycles: Vec<Cycle> = m.events.iter().map(|e| e.at).collect();
        assert_eq!(cycles, vec![100, 150, 250, 300]);
        assert!(walk(&m, &[], &[]).is_ok());
    }
}
