//! Golden pin for the engine's per-flit phases on the benchmark's point
//! shapes: the seven engine schemes (XY, WF, `EscVC`, SEEC, mSEEC, SPIN,
//! DRAIN) on an 8x8 mesh with 2 VCs, uniform random and transpose, at the
//! knee rates (0.07 / 0.09) and past it (0.10 / 0.13), plus one 4x4 run
//! whose links corrupt flits so the link-layer retransmission delivery
//! path is inside the fingerprint too.
//!
//! Each row pins the FNV-1a of the finished `Stats` Debug rendering and the
//! engine's `state_digest()`. The rows were recorded on the code before
//! switch allocation and delivery were rewritten for speed. Never
//! regenerate them: a mismatch means simulated behaviour moved. The
//! computed rows print on mismatch.

use noc_experiments::runner::Scheme;
use noc_sim::Sim;
use noc_traffic::{SyntheticWorkload, TrafficPattern};
use noc_types::fault::fnv1a;
use noc_types::{BaseRouting, FaultConfig, NetConfig};

const CYCLES: u64 = 4_000;
const SEED: u64 = 0xE61E;

const SCHEMES: [Scheme; 7] = [
    Scheme::Xy,
    Scheme::WestFirst,
    Scheme::EscapeVc {
        normal: BaseRouting::AdaptiveMinimal,
    },
    Scheme::Seec {
        routing: BaseRouting::AdaptiveMinimal,
    },
    Scheme::MSeec {
        routing: BaseRouting::AdaptiveMinimal,
    },
    Scheme::Spin,
    Scheme::Drain,
];

/// Runs one point and renders its row.
fn row(k: u8, scheme: Scheme, pattern: TrafficPattern, rate: f64, transient: f64) -> String {
    let mut cfg = scheme.configure(NetConfig::synth(k, 2)).with_seed(SEED);
    if transient > 0.0 {
        cfg = cfg.with_fault(FaultConfig::transient(transient));
    }
    let wl = SyntheticWorkload::new(pattern, rate, cfg.cols, cfg.rows, cfg.warmup, SEED);
    let mech = scheme.mechanism(&cfg);
    let mut sim = Sim::new(cfg, Box::new(wl), mech);
    sim.run(CYCLES);
    let digest = sim.net.state_digest();
    let stats = sim.finish();
    if transient > 0.0 {
        assert!(
            stats.corrupted_flits > 0,
            "no corruption drawn: retransmission not exercised"
        );
    }
    format!(
        "{k}x{k} {} {}@{rate:.2} corrupt={transient}: stats={:#018x} digest={digest:#018x}",
        scheme.label(),
        pattern.label(),
        fnv1a(format!("{stats:?}").as_bytes()),
    )
}

fn rows() -> Vec<String> {
    let mut out = Vec::new();
    for scheme in SCHEMES {
        // (uniform random, transpose) rates: at the knee, then past it.
        for rates in [[0.07, 0.09], [0.10, 0.13]] {
            let patterns = [TrafficPattern::UniformRandom, TrafficPattern::Transpose];
            for (pattern, rate) in patterns.into_iter().zip(rates) {
                out.push(row(8, scheme, pattern, rate, 0.0));
            }
        }
    }
    let esc = SCHEMES[2];
    out.push(row(4, esc, TrafficPattern::UniformRandom, 0.10, 0.02));
    out
}

const RECORDED: [&str; 29] = [
    "8x8 XY uniform_random@0.07 corrupt=0: stats=0x169204ffd2c8f6ac digest=0xec6ca4ad8af11b6b",
    "8x8 XY transpose@0.09 corrupt=0: stats=0x45b3cd2c7dfa74f7 digest=0x38e3d13e76f6a365",
    "8x8 XY uniform_random@0.10 corrupt=0: stats=0x0b2df0323eb692de digest=0xad1b28ebe985bd5d",
    "8x8 XY transpose@0.13 corrupt=0: stats=0x09e1dd45bc039971 digest=0xe56f30b08825559f",
    "8x8 WF uniform_random@0.07 corrupt=0: stats=0x2020eb8b053e07bd digest=0xcb3fb6c17c2ca12a",
    "8x8 WF transpose@0.09 corrupt=0: stats=0x3a0b58c88f7b9871 digest=0xe3e4c0c01cd5a8dd",
    "8x8 WF uniform_random@0.10 corrupt=0: stats=0x457cd4d28e645a8f digest=0xf180513335df49da",
    "8x8 WF transpose@0.13 corrupt=0: stats=0x02b1496ece89fbcf digest=0xcb3cba6f9425819b",
    "8x8 EscVC uniform_random@0.07 corrupt=0: stats=0x7fe444f2a1096148 digest=0x7b1ca08958af1b41",
    "8x8 EscVC transpose@0.09 corrupt=0: stats=0xcb1c9ca5ca41568a digest=0x8b232eda95d48227",
    "8x8 EscVC uniform_random@0.10 corrupt=0: stats=0x17fb639041b1944d digest=0xa63deb25e40bf0cc",
    "8x8 EscVC transpose@0.13 corrupt=0: stats=0x4fa29c108fd4e9e6 digest=0x0dc42e3b96606b25",
    "8x8 SEEC uniform_random@0.07 corrupt=0: stats=0x36bfa9f76569c749 digest=0x7dc139747751c6c1",
    "8x8 SEEC transpose@0.09 corrupt=0: stats=0xdf0c955c81718670 digest=0xdd9a4494820956d6",
    "8x8 SEEC uniform_random@0.10 corrupt=0: stats=0x5b28da7b4ab8fe13 digest=0xe09f3dbc26b22ca4",
    "8x8 SEEC transpose@0.13 corrupt=0: stats=0x8603c41e741cb7ed digest=0x71341198a6b62588",
    "8x8 mSEEC uniform_random@0.07 corrupt=0: stats=0xc323444398c28042 digest=0x0150fc7c3d6f8525",
    "8x8 mSEEC transpose@0.09 corrupt=0: stats=0x39514576e6116abf digest=0xe3ff9b90bd39b0aa",
    "8x8 mSEEC uniform_random@0.10 corrupt=0: stats=0xd5ed4948219d26f1 digest=0x896736d7c70673ce",
    "8x8 mSEEC transpose@0.13 corrupt=0: stats=0x8c9fc8aa39d51e3f digest=0xcbe45f7e9c197d4d",
    "8x8 SPIN uniform_random@0.07 corrupt=0: stats=0x0b776622c28f6894 digest=0xca8b60d3e8de6d8d",
    "8x8 SPIN transpose@0.09 corrupt=0: stats=0x64f16282d9f36d72 digest=0xfe3bab27c02db183",
    "8x8 SPIN uniform_random@0.10 corrupt=0: stats=0xee1481c22a9ae765 digest=0x41c65fa66f8e44af",
    "8x8 SPIN transpose@0.13 corrupt=0: stats=0x6fbff768b6975d6f digest=0xe256a5f6672293f1",
    "8x8 DRAIN uniform_random@0.07 corrupt=0: stats=0x5bda23e74141bebb digest=0xcadd44cd2f8f5c41",
    "8x8 DRAIN transpose@0.09 corrupt=0: stats=0xc119f0b7c714df87 digest=0xa710386c8cdcd7df",
    "8x8 DRAIN uniform_random@0.10 corrupt=0: stats=0x505a81b0384da401 digest=0xb9651c7717abbceb",
    "8x8 DRAIN transpose@0.13 corrupt=0: stats=0xe349eb4d4993b0c5 digest=0xbbada74835f2a593",
    "4x4 EscVC uniform_random@0.10 corrupt=0.02: stats=0x16d70d56e14ae4f0 digest=0x9923b1911bc89ad1",
];

#[test]
fn engine_points_replay_as_recorded() {
    let got = rows();
    let diverged: Vec<String> = got
        .iter()
        .zip(RECORDED)
        .filter(|(g, r)| g.as_str() != *r)
        .map(|(g, r)| format!("got    {g}\npinned {r}"))
        .collect();
    assert_eq!(got.len(), RECORDED.len(), "rows:\n{}", got.join("\n"));
    assert!(diverged.is_empty(), "{}", diverged.join("\n"));
}
