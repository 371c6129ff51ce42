//! Golden pins for the fault vocabulary: the exact message of every way a
//! fault configuration (its static lists and its kill/heal schedule) can be
//! rejected, and the canonical rendering and config digest of the schedule
//! shapes the chaos harness builds. Checkpoint keys and chaos repro files
//! are derived from these strings, so they must never move; never
//! regenerate.

use noc_types::{
    Direction, FaultAction, FaultConfig, FaultEvent, FaultSchedule, NetConfig, NodeId,
};

fn ev(at: u64, action: FaultAction) -> FaultEvent {
    FaultEvent { at, action }
}

fn sched(events: Vec<FaultEvent>) -> FaultConfig {
    FaultConfig::default().with_schedule(FaultSchedule::new(events))
}

#[test]
fn every_rejection_message_is_pinned() {
    use Direction::{East, Local, North, West};
    use FaultAction::{HealLink, HealRouter, KillLink, KillRouter};
    let n = NodeId;
    let cases: Vec<(u8, FaultConfig, &str)> =
        vec![
        (
            4,
            FaultConfig::transient(1.5),
            "fault config: transient_rate 1.5 is not a probability in [0, 1]",
        ),
        (
            4,
            FaultConfig::default().with_dead_links(vec![(n(3), Local)]),
            "fault config: dead link (n3, Local) is not a mesh link (only cardinal \
             directions name links)",
        ),
        (
            4,
            FaultConfig::default().with_dead_links(vec![(n(99), East)]),
            "fault config: dead link (n99, East) names node 99 outside the 4x4 mesh \
             (16 nodes)",
        ),
        (
            4,
            FaultConfig::default().with_dead_links(vec![(n(3), East)]),
            "fault config: dead link (n3, East) points off the edge of the 4x4 mesh",
        ),
        (
            4,
            FaultConfig::default().with_dead_links(vec![(n(5), East), (n(6), West)]),
            "fault config: dead link (n6, West) names a physical link already listed \
             (a dead link is dead in both directions; list each link once)",
        ),
        (
            4,
            FaultConfig::default().with_dead_routers(vec![n(16)]),
            "fault config: dead router 16 is outside the 4x4 mesh (16 nodes)",
        ),
        (
            4,
            FaultConfig::default().with_dead_routers(vec![n(3), n(3)]),
            "fault config: dead router 3 is listed twice",
        ),
        (
            4,
            sched(vec![ev(10, KillLink(n(5), East))]).with_random_dead_links(1),
            "fault config: a fault schedule cannot be combined with random_dead_links \
             (the schedule's kill/heal consistency cannot be checked against random \
             initial kills); list the initial dead links explicitly",
        ),
        (
            2,
            FaultConfig::default().with_random_dead_links(5),
            "fault config: 5 random dead links requested but the 2x2 mesh only has 4 \
             physical links",
        ),
        (
            4,
            FaultConfig {
                retransmit_timeout: 0,
                ..FaultConfig::transient(0.01)
            },
            "fault config: retransmit_timeout of 0 with transient faults enabled would \
             resend every cycle; use a window of at least 1",
        ),
        (
            4,
            sched(vec![ev(0, KillLink(n(5), East))]),
            "fault schedule: event KillLink(NodeId(5), East) at cycle 0; initial faults belong \
             in dead_links/dead_routers",
        ),
        (
            4,
            sched(vec![
                ev(200, KillLink(n(5), East)),
                ev(100, HealLink(n(5), East)),
            ]),
            "fault schedule: event HealLink(NodeId(5), East) at cycle 100 is out of order \
             (previous event was at cycle 200); sort events by cycle",
        ),
        (
            4,
            sched(vec![ev(10, KillLink(n(3), Local))]),
            "fault schedule: link event (n3, Local) is not a mesh link (only cardinal \
             directions name links)",
        ),
        (
            4,
            sched(vec![ev(10, HealLink(n(40), North))]),
            "fault schedule: link event (n40, North) names node 40 outside the 4x4 mesh \
             (16 nodes)",
        ),
        (
            4,
            sched(vec![ev(10, KillLink(n(3), East))]),
            "fault schedule: link event (n3, East) points off the edge of the 4x4 mesh",
        ),
        (
            4,
            sched(vec![ev(10, KillRouter(n(6))), ev(20, KillLink(n(5), East))]),
            "fault schedule: link event (n5, East) at cycle 20 touches router 6 which is \
             down at that point; heal the router first",
        ),
        (
            4,
            FaultConfig::default()
                .with_dead_routers(vec![n(5)])
                .with_schedule(FaultSchedule::new(vec![ev(20, HealLink(n(5), East))])),
            "fault schedule: link event (n5, East) at cycle 20 touches router 5 which is \
             down at that point; heal the router first",
        ),
        (
            4,
            sched(vec![ev(10, KillLink(n(5), East)), ev(20, KillLink(n(6), West))]),
            "fault schedule: kill of already-dead link (n6, West) at cycle 20",
        ),
        (
            4,
            FaultConfig::default()
                .with_dead_links(vec![(n(5), East)])
                .with_schedule(FaultSchedule::new(vec![ev(20, KillLink(n(5), East))])),
            "fault schedule: kill of already-dead link (n5, East) at cycle 20",
        ),
        (
            4,
            sched(vec![ev(10, HealLink(n(5), East))]),
            "fault schedule: heal of live link (n5, East) at cycle 10",
        ),
        (
            4,
            sched(vec![ev(10, KillRouter(n(16)))]),
            "fault schedule: router event for node 16 outside the 4x4 mesh (16 nodes)",
        ),
        (
            4,
            sched(vec![ev(10, KillRouter(n(5))), ev(20, KillRouter(n(5)))]),
            "fault schedule: kill of already-dead router 5 at cycle 20",
        ),
        (
            4,
            FaultConfig::default()
                .with_dead_routers(vec![n(2)])
                .with_schedule(FaultSchedule::new(vec![ev(30, KillRouter(n(2)))])),
            "fault schedule: kill of already-dead router 2 at cycle 30",
        ),
        (
            4,
            sched(vec![ev(10, HealRouter(n(5)))]),
            "fault schedule: heal of live router 5 at cycle 10",
        ),
    ];
    for (k, fault, want) in cases {
        assert_eq!(
            fault.validate(k, k).unwrap_err(),
            want,
            "{}",
            fault.canonical()
        );
    }
}

#[test]
fn canonical_renderings_and_digests_are_pinned() {
    let kill_heal = FaultConfig::default()
        .with_dead_links(vec![(NodeId(10), Direction::South)])
        .with_schedule(FaultSchedule::new(vec![
            ev(50, FaultAction::KillRouter(NodeId(5))),
            ev(500, FaultAction::HealRouter(NodeId(5))),
        ]));
    let faults = [
        sched(FaultSchedule::link_flap(NodeId(5), Direction::East, 100, 200).events),
        sched(FaultSchedule::flap_train(NodeId(9), Direction::North, 250, 450, 350, 2).events),
        sched(
            FaultSchedule::brownout(
                &[(NodeId(5), Direction::East), (NodeId(9), Direction::South)],
                200,
                600,
            )
            .events,
        ),
        kill_heal,
    ];
    let got: Vec<(String, u64)> = faults
        .into_iter()
        .map(|fault| {
            assert!(fault.validate(4, 4).is_ok(), "{}", fault.canonical());
            let cfg = NetConfig::synth(4, 2).with_fault(fault);
            (cfg.fault.canonical(), cfg.digest())
        })
        .collect();
    let want: [(&str, u64); 4] = [
        (
            "tr=0000000000000000;dl=;dr=;rk=0;fs=64023;to=16;bo=8;ev=100:kl:5:2,200:hl:5:2,",
            0x4efd_dfce_66c1_900b,
        ),
        (
            "tr=0000000000000000;dl=;dr=;rk=0;fs=64023;to=16;bo=8;ev=250:kl:9:0,700:hl:9:0,1050:kl:9:0,1500:hl:9:0,",
            0x49fe_a99d_fee7_55cb,
        ),
        (
            "tr=0000000000000000;dl=;dr=;rk=0;fs=64023;to=16;bo=8;ev=200:kl:5:2,200:kl:9:1,800:hl:5:2,800:hl:9:1,",
            0x1c2a_344c_ac61_e8d7,
        ),
        (
            "tr=0000000000000000;dl=10:1,;dr=;rk=0;fs=64023;to=16;bo=8;ev=50:kr:5,500:hr:5,",
            0x6bb8_46a2_788d_56fe,
        ),
    ];
    assert_eq!(got, want.map(|(c, d)| (c.to_string(), d)));
}
