//! Extended channel-dependency-graph construction.
//!
//! Nodes are *(link, VC class)* channels: a unidirectional mesh link together
//! with the class of virtual channels a packet occupies on it. All VCs of one
//! class at one link are interchangeable under the simulator's allocation
//! policy (any free VC of the class may be granted), so collapsing them to a
//! single node loses nothing: a cyclic wait among the full VC set exists if
//! and only if one exists among the collapsed classes.
//!
//! Edges are the *dest-consistent* dependencies induced by the routing
//! relation: channel `A = (u→v, c)` depends on `B = (v→w, c′)` when there is
//! some destination `d` such that a packet headed for `d` may legally hold
//! `A` and next request `B` (`d ≠ v`, `A` legal for `(u,d)` under class `c`'s
//! routing function, and `c→c′`/`v→w` a legal continuation toward `d`). This
//! is Dally–Seitz/Duato's construction specialised to the simulator's actual
//! routing functions in `noc_sim::routing`, including the escape-VC
//! transition rules of `noc_sim::router::try_alloc`: normal→normal,
//! normal→escape (west-first-legal directions only), escape→escape, and
//! never escape→normal.

use noc_sim::fault::{DeadSet, RouteMask};
use noc_sim::routing::{candidates, masked_candidates, west_first, Candidates};
use noc_types::{Coord, Direction, NetConfig};

/// The VC class a channel carries: which `VNet`, and whether these are the
/// regular (adaptive) VCs or the Duato escape VC.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum VcClass {
    /// Regular VCs of a `VNet`, routed by the configured base algorithm.
    Normal(u8),
    /// The west-first escape VC of a `VNet` (`RoutingAlgo::EscapeVc` only).
    Escape(u8),
}

impl VcClass {
    /// The `VNet` this class belongs to.
    pub fn vnet(self) -> u8 {
        match self {
            VcClass::Normal(v) | VcClass::Escape(v) => v,
        }
    }

    /// True for escape-VC classes.
    pub fn is_escape(self) -> bool {
        matches!(self, VcClass::Escape(_))
    }
}

/// One node of the extended channel dependency graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Channel {
    /// Upstream router of the link.
    pub from: Coord,
    /// Link direction (always cardinal).
    pub dir: Direction,
    /// VC class occupied on the link.
    pub class: VcClass,
}

impl Channel {
    /// Downstream router of the link.
    pub fn to(&self, cols: u8, rows: u8) -> Coord {
        self.dir
            .step(self.from, cols, rows)
            .expect("channel links never leave the mesh")
    }
}

impl std::fmt::Display for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (kind, vnet) = match self.class {
            VcClass::Normal(v) => ("normal", v),
            VcClass::Escape(v) => ("escape", v),
        };
        write!(f, "{} -{}-> [vnet {} {}]", self.from, self.dir, vnet, kind)
    }
}

/// The extended channel dependency graph of one network configuration.
#[derive(Clone, Debug)]
pub struct Cdg {
    /// Mesh columns.
    pub cols: u8,
    /// Mesh rows.
    pub rows: u8,
    /// Whether the configuration uses a Duato escape VC.
    pub has_escape: bool,
    channels: Vec<Channel>,
    /// Adjacency lists, indexed like `channels`.
    succ: Vec<Vec<usize>>,
    /// Dense lookup from (node, dir, class-slot) to channel index.
    index: Vec<Option<usize>>,
    vnets: u8,
    /// Whether the escape relation offers an escape channel from every live
    /// router toward every other (false without an escape layer).
    escape_requestable: bool,
}

impl Cdg {
    /// Builds the graph for `cfg` on the healthy mesh, from the
    /// `noc_sim::routing` functions themselves. Routing-level only; the
    /// protocol-level message-class dependencies are analysed separately
    /// (they couple `VNets`, not individual channels).
    pub fn build(cfg: &NetConfig) -> Cdg {
        let normal = cfg.routing.normal();
        Cdg::from_relation(
            cfg,
            None,
            |u, d| candidates(normal, u, d),
            cfg.routing.has_escape().then_some(&west_first),
        )
    }

    /// Builds the CDG of a *degraded* mesh: channels on dead links (or
    /// touching dead routers) do not exist, normal-class legality is
    /// [`masked_candidates`] over `mask` — the rule the simulator's router
    /// uses — and escape-class legality follows the degraded west-first
    /// mask `wf` when one survives the faults (`Some` only for escape-VC
    /// routing).
    ///
    /// Dead routers are excluded as sources *and* destinations: nothing is
    /// routed to or from them, so they induce no dependencies.
    pub fn build_degraded(
        cfg: &NetConfig,
        dead: &DeadSet,
        mask: &RouteMask,
        wf: Option<&RouteMask>,
    ) -> Cdg {
        let normal = cfg.routing.normal();
        let escape = wf.map(|wf| move |u, d| wf.candidates(u, d));
        Cdg::from_relation(
            cfg,
            Some(dead),
            |u, d| masked_candidates(normal, mask, u, d),
            escape.as_ref(),
        )
    }

    /// The one builder. The relation it certifies is which links are live
    /// (`dead`, or every on-mesh link when `None`), the directions a
    /// normal-class packet at `u` headed for `d` may request, and those of
    /// the escape class if there is one.
    fn from_relation<N, E>(
        cfg: &NetConfig,
        dead: Option<&DeadSet>,
        normal: N,
        escape: Option<&E>,
    ) -> Cdg
    where
        N: Fn(Coord, Coord) -> Candidates,
        E: Fn(Coord, Coord) -> Candidates,
    {
        let (cols, rows) = (cfg.cols, cfg.rows);
        let vnets = cfg.vnets;
        let has_escape = escape.is_some();
        let kinds: usize = if has_escape { 2 } else { 1 };
        let slots = cols as usize * rows as usize * 4 * vnets as usize * kinds;

        let mut g = Cdg {
            cols,
            rows,
            has_escape,
            channels: Vec::new(),
            succ: Vec::new(),
            index: vec![None; slots],
            vnets,
            escape_requestable: false,
        };

        let router_dead = |c: Coord| dead.is_some_and(|s| s.router_dead(c.to_node(cols).idx()));
        // Live routers in row-major order: the sources and destinations.
        let routers: Vec<Coord> = (0..rows)
            .flat_map(|y| (0..cols).map(move |x| Coord::new(x, y)))
            .filter(|&c| !router_dead(c))
            .collect();

        // Enumerate channels: every live link × vnet × class kind. Each
        // router's live directions are kept as a bitmask, by `Direction::index`.
        let mut live_dirs = vec![0u8; routers.len()];
        for (&u, live) in routers.iter().zip(&mut live_dirs) {
            for dir in Direction::CARDINAL {
                let alive = dir.step(u, cols, rows).is_some_and(|v| {
                    !router_dead(v) && dead.is_none_or(|s| !s.link_dead(u.to_node(cols).idx(), dir))
                });
                if !alive {
                    continue;
                }
                *live |= 1 << dir.index();
                for vnet in 0..vnets {
                    g.insert(Channel {
                        from: u,
                        dir,
                        class: VcClass::Normal(vnet),
                    });
                    if has_escape {
                        g.insert(Channel {
                            from: u,
                            dir,
                            class: VcClass::Escape(vnet),
                        });
                    }
                }
            }
        }

        // Dest-consistent edges. For each channel A = (u→v, c) and each
        // live destination d routable over A with d ≠ v, every continuation
        // channel at v toward d is a dependency.
        let mut seen = vec![false; g.channels.len()];
        for a in 0..g.channels.len() {
            let ch = g.channels[a];
            let u = ch.from;
            let v = ch.to(cols, rows);
            let vnet = ch.class.vnet();
            let mut out: Vec<usize> = Vec::new();
            for &d in &routers {
                if d == u || d == v {
                    continue;
                }
                match (ch.class, escape) {
                    (VcClass::Normal(_), _) if normal(u, d).contains(ch.dir) => {
                        g.push_edges(&mut out, &mut seen, v, normal(v, d), VcClass::Normal(vnet));
                        if let Some(esc) = escape {
                            // The escape fallback at the next router.
                            g.push_edges(&mut out, &mut seen, v, esc(v, d), VcClass::Escape(vnet));
                        }
                    }
                    // Escape residents stay in escape VCs (Duato).
                    (VcClass::Escape(_), Some(esc)) if esc(u, d).contains(ch.dir) => {
                        g.push_edges(&mut out, &mut seen, v, esc(v, d), VcClass::Escape(vnet));
                    }
                    _ => {}
                }
            }
            for &b in &out {
                seen[b] = false;
            }
            g.succ[a] = out;
        }

        // Duato requestability, checked rather than assumed: toward every
        // other live router, every live router offers a blocked packet at
        // least one escape direction, and only directions over live links
        // (each of which carries an escape channel).
        g.escape_requestable = escape.is_some_and(|esc| {
            routers.iter().zip(&live_dirs).all(|(&u, &live)| {
                routers.iter().all(|&d| {
                    u == d || {
                        let dirs = esc(u, d);
                        let on_live_links = |dir: &Direction| live & (1 << dir.index()) != 0;
                        !dirs.is_empty() && dirs.as_slice().iter().all(on_live_links)
                    }
                })
            })
        });
        g
    }

    fn insert(&mut self, ch: Channel) {
        let slot = self.slot(ch);
        let id = self.channels.len();
        self.index[slot] = Some(id);
        self.channels.push(ch);
        self.succ.push(Vec::new());
    }

    fn slot(&self, ch: Channel) -> usize {
        let node = ch.from.y as usize * self.cols as usize + ch.from.x as usize;
        let (kind, vnet) = match ch.class {
            VcClass::Normal(v) => (0usize, v as usize),
            VcClass::Escape(v) => (1usize, v as usize),
        };
        let kinds = if self.has_escape { 2 } else { 1 };
        ((node * 4 + ch.dir.index()) * self.vnets as usize + vnet) * kinds + kind
    }

    fn push_edges(
        &self,
        out: &mut Vec<usize>,
        seen: &mut [bool],
        at: Coord,
        dirs: Candidates,
        class: VcClass,
    ) {
        for &dir in dirs.as_slice() {
            if dir.step(at, self.cols, self.rows).is_none() {
                continue;
            }
            let id = self.index[self.slot(Channel {
                from: at,
                dir,
                class,
            })]
            .expect("on-mesh continuation channel must exist");
            if !seen[id] {
                seen[id] = true;
                out.push(id);
            }
        }
    }

    /// Channel (node) count.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Dependency (edge) count.
    pub fn edge_count(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// The channel with index `id`.
    pub fn channel(&self, id: usize) -> Channel {
        self.channels[id]
    }

    /// Successor indices of channel `id`.
    pub fn successors(&self, id: usize) -> &[usize] {
        &self.succ[id]
    }

    /// Indices of all escape-class channels.
    pub fn escape_channel_ids(&self) -> Vec<usize> {
        (0..self.channels.len())
            .filter(|&i| self.channels[i].class.is_escape())
            .collect()
    }

    /// Every channel, for iteration in reports.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// True when an escape layer exists and a blocked packet can always
    /// *request* one of its channels (Duato's requestability).
    pub(crate) fn escape_always_requestable(&self) -> bool {
        self.escape_requestable
    }

    /// True if some edge leaves an escape channel for a normal channel —
    /// forbidden by Duato's condition and by construction; checked as a
    /// structural self-test.
    pub fn escape_leaks_to_normal(&self) -> bool {
        (0..self.channels.len()).any(|i| {
            self.channels[i].class.is_escape()
                && self.succ[i]
                    .iter()
                    .any(|&j| !self.channels[j].class.is_escape())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    type Key = (u8, u8, usize, VcClass);

    fn key(ch: Channel) -> Key {
        (ch.from.x, ch.from.y, ch.dir.index(), ch.class)
    }

    /// The channel set and edge set, independent of insertion order.
    fn sets(g: &Cdg) -> (BTreeSet<Key>, BTreeSet<(Key, Key)>) {
        let channels = g.channels().iter().map(|&c| key(c)).collect();
        let edges = (0..g.channel_count())
            .flat_map(|a| {
                g.successors(a)
                    .iter()
                    .map(move |&b| (key(g.channel(a)), key(g.channel(b))))
            })
            .collect();
        (channels, edges)
    }

    /// On a fully alive mesh the route masks are the routing functions
    /// (DESIGN.md §9): the masked relation's CDG is the healthy one.
    #[test]
    fn masked_relation_on_a_live_mesh_is_the_healthy_relation() {
        for row in crate::matrix::all_configs() {
            let cfg = &row.cfg;
            let dead = DeadSet::resolve(cfg.cols, cfg.rows, &noc_types::FaultConfig::default());
            let mask = RouteMask::build(cfg.cols, cfg.rows, &dead).expect("live mesh routes");
            let wf = cfg.routing.has_escape().then(|| {
                RouteMask::build_west_first(cfg.cols, cfg.rows, &dead).expect("live mesh routes")
            });
            let masked = Cdg::build_degraded(cfg, &dead, &mask, wf.as_ref());
            let healthy = Cdg::build(cfg);
            assert_eq!(sets(&masked), sets(&healthy), "{}", row.why);
            assert_eq!(masked.edge_count(), healthy.edge_count());
            assert_eq!(
                masked.escape_always_requestable(),
                healthy.escape_always_requestable()
            );
        }
    }
}
