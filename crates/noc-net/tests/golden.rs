//! Old repro schedules replay bit-for-bit.
//!
//! Every vector below was recorded at commit b8dde81, when
//! `noc_store::FaultPlan` and `noc_net::NetFaultPlan` were two hand-written
//! twins. A repro file names a plan by its canonical string, digest and
//! seed; it replays only while parsing, printing, hashing and the seeded
//! draws stay exactly what they were. (This crate is the lowest one that
//! sees both kinds, hence the home.)

use noc_net::NetFaultKind;
use noc_store::{FaultKind, Kind, Plan};

/// The first 256 draws of `seeded(seed)`, fingerprinted as the digest of
/// the explicit plan that schedules exactly those draws.
fn draws_digest<K: Kind>(seed: u64) -> u64 {
    let seeded = Plan::<K>::seeded(seed);
    (0..256)
        .filter_map(|op| Some((op, seeded.kind_at(op)?)))
        .fold(Plan::default(), |plan, (op, kind)| {
            plan.with_event(op, kind)
        })
        .digest()
}

fn replays<K: Kind>(plan: Option<Plan<K>>, canonical: &str, digest: u64) {
    let plan = plan.expect("a plan is configured");
    assert_eq!(plan.canonical(), canonical);
    assert_eq!(plan.digest(), digest, "{canonical}");
}

#[test]
fn recorded_vectors_replay() {
    assert_eq!(draws_digest::<FaultKind>(42), 0xbcea_aedb_19ab_28b1);
    assert_eq!(draws_digest::<NetFaultKind>(42), 0x7c8f_707d_4d1d_e17a);
    replays::<FaultKind>(
        Plan::parse_schedule("7:torn@12, 3:enospc ,9:rename,2:stuck,8:heal").ok(),
        "2:stuck,3:enospc,7:torn@12,8:heal,9:rename",
        0x18b1_4278_e3c3_cdea,
    );
    replays::<NetFaultKind>(
        Plan::parse_schedule("7:torn@12, 3:reset ,9:slow@5,2:partition,8:heal").ok(),
        "2:partition,3:reset,7:torn@12,8:heal,9:slow@5",
        0x6b19_fb95_df50_624b,
    );
    // The canonical form parses back to the same plan.
    replays::<NetFaultKind>(
        Plan::parse_schedule("2:partition,3:reset,7:torn@12,8:heal,9:slow@5").ok(),
        "2:partition,3:reset,7:torn@12,8:heal,9:slow@5",
        0x6b19_fb95_df50_624b,
    );
    replays::<FaultKind>(
        Plan::from_env(Some("0:eio"), Some("9")).unwrap(),
        "0:eio,seed=9",
        0x8ea4_0cbf_a622_1ecd,
    );
    replays::<NetFaultKind>(
        Plan::from_env(Some("0:reset"), Some("9")).unwrap(),
        "0:reset,seed=9",
        0x59df_e6a5_eaba_b31d,
    );
}
