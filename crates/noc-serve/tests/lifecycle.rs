//! Property tests for the job lifecycle state machine: the runtime
//! [`Stage`] relation is pinned to an explicit edge list, random walks
//! prove every reachable sequence stays legal, and terminal states —
//! CANCELLED and FAILED in particular — admit **no** resurrection, however
//! the walk continues (the restart-adoption path depends on this).

use noc_serve::lifecycle::Stage;
use proptest::prelude::*;

/// The lifecycle's ground truth, spelled out edge by edge. `permits` must
/// equal exactly this set — nothing extra, nothing missing.
const EDGES: &[(Stage, Stage)] = &[
    (Stage::Queued, Stage::Running),
    (Stage::Queued, Stage::Cancelled),
    (Stage::Running, Stage::Done),
    (Stage::Running, Stage::Failed),
    (Stage::Running, Stage::Cancelled),
    (Stage::Running, Stage::Checkpointed),
    (Stage::Checkpointed, Stage::Running),
    (Stage::Checkpointed, Stage::Cancelled),
    (Stage::Checkpointed, Stage::Failed),
];

fn stage(code: u8) -> Stage {
    Stage::ALL[usize::from(code) % Stage::ALL.len()]
}

#[test]
fn permits_is_exactly_the_documented_edge_set() {
    for from in Stage::ALL {
        for to in Stage::ALL {
            let expected = EDGES.contains(&(from, to));
            assert_eq!(from.permits(to), expected, "{from} -> {to}");
        }
    }
}

#[test]
fn every_stage_is_reachable_and_nonterminals_have_exits() {
    // Reachability from QUEUED over the edge relation.
    let mut reached = vec![Stage::Queued];
    let mut frontier = vec![Stage::Queued];
    while let Some(s) = frontier.pop() {
        for t in Stage::ALL {
            if s.permits(t) && !reached.contains(&t) {
                reached.push(t);
                frontier.push(t);
            }
        }
    }
    for s in Stage::ALL {
        assert!(reached.contains(&s), "{s} unreachable from QUEUED");
        let exits = Stage::ALL.into_iter().filter(|t| s.permits(*t)).count();
        if s.is_terminal() {
            assert_eq!(exits, 0, "{s} is terminal but has exits");
        } else {
            assert!(exits >= 2, "{s} must be able to progress and cancel");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// Random walks: apply each proposed transition only when the relation
    /// permits it, and check the invariants the scheduler relies on along
    /// the way. Once a walk hits a terminal stage, **every** further
    /// proposal must be rejected — cancelled and failed jobs stay dead.
    #[test]
    fn walks_stay_legal_and_terminals_never_resurrect(codes in prop::collection::vec(0u8..6, 1..40)) {
        let mut cur = Stage::Queued;
        let mut died_at: Option<(usize, Stage)> = None;
        for (i, &c) in codes.iter().enumerate() {
            let proposal = stage(c);
            if let Some((when, grave)) = died_at {
                prop_assert!(
                    !cur.permits(proposal),
                    "step {i}: {grave} (terminal since step {when}) permitted {proposal}"
                );
                continue;
            }
            if cur.permits(proposal) {
                // Legal edge: take it and re-check basic sanity.
                prop_assert!(!cur.is_terminal(), "left terminal stage {cur}");
                prop_assert!(Stage::parse(proposal.label()) == Some(proposal));
                cur = proposal;
                if cur.is_terminal() {
                    died_at = Some((i, cur));
                }
            }
        }

    }
}
