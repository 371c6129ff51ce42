//! Deflection-network behaviour: livelock freedom under stress, reassembly
//! correctness, and the MinBD-vs-CHIPPER ordering the paper relies on.

use noc_baselines::{DeflectionKind, DeflectionSim};
use noc_traffic::{SyntheticWorkload, TrafficPattern};
use noc_types::NetConfig;

fn sim(kind: DeflectionKind, k: u8, rate: f64, seed: u64) -> DeflectionSim {
    let cfg = NetConfig::synth(k, 1).with_seed(seed);
    let wl = SyntheticWorkload::new(TrafficPattern::UniformRandom, rate, k, k, cfg.warmup, seed);
    DeflectionSim::new(cfg, kind, Box::new(wl))
}

/// Oldest-first priority keeps the network livelock-free: even past
/// saturation, deliveries continue steadily.
#[test]
fn deflection_is_livelock_free_past_saturation() {
    for kind in [DeflectionKind::Chipper, DeflectionKind::MinBd] {
        let mut s = sim(kind, 4, 0.40, 3);
        let mut last = 0;
        for block in 1..=10 {
            s.run(3_000);
            let now = s.stats.ejected_packets_all;
            assert!(
                now > last,
                "{kind:?}: no deliveries in block {block} ({now} total)"
            );
            last = now;
        }
    }
}

/// Multi-flit packets reassemble exactly once each, with no flit loss, even
/// though flits route independently and arrive out of order.
#[test]
fn reassembly_delivers_every_packet_exactly_once() {
    let mut s = sim(DeflectionKind::Chipper, 4, 0.05, 9);
    s.run(30_000);
    let st = s.finish();
    assert!(st.injected_packets > 500);
    // At 5% load the pipe drains: essentially everything injected arrives.
    assert!(
        st.ejected_packets as f64 >= 0.97 * st.injected_packets as f64,
        "{} of {}",
        st.ejected_packets,
        st.injected_packets
    );
    // Flit-level conservation: ejected flits ≤ injected flits.
    assert!(st.ejected_flits <= st.injected_flits);
}

/// `MinBD`'s side buffer pays off where it was designed to: accepted
/// throughput under heavy load (fewer deflections waste less bandwidth).
/// At light load the buffer can *add* latency — that is expected.
#[test]
fn minbd_throughput_beats_chipper_under_heavy_load() {
    let mut a = sim(DeflectionKind::Chipper, 4, 0.35, 5);
    a.run(30_000);
    let ca = a.finish();
    let mut b = sim(DeflectionKind::MinBd, 4, 0.35, 5);
    b.run(30_000);
    let cb = b.finish();
    assert!(
        cb.throughput(16) >= 0.95 * ca.throughput(16),
        "MinBD {:.4} vs CHIPPER {:.4}",
        cb.throughput(16),
        ca.throughput(16)
    );
}

/// Hop counts reflect deflections: average hops exceed the minimal distance
/// under contention (the deflection energy story of Fig 11).
#[test]
fn deflections_inflate_hop_counts() {
    let mut s = sim(DeflectionKind::Chipper, 4, 0.25, 7);
    s.run(20_000);
    let st = s.finish();
    // 4x4 uniform random minimal average ≈ 2.67.
    assert!(
        st.avg_hops() > 2.8,
        "expected deflection-inflated hops, got {:.2}",
        st.avg_hops()
    );
    assert!(st.misroute_hops > 0);
}

/// Deflection runs are deterministic per seed (the permutation stage uses
/// the seeded RNG only).
#[test]
fn deflection_is_deterministic() {
    let go = |seed| {
        let mut s = sim(DeflectionKind::MinBd, 4, 0.20, seed);
        s.run(10_000);
        let st = s.finish();
        (st.ejected_packets, st.misroute_hops, st.link_flit_hops)
    };
    assert_eq!(go(11), go(11));
    assert_ne!(go(11), go(12));
}
