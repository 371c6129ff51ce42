//! `noc-verify` — static deadlock-freedom certification CLI.
//!
//! ```text
//! noc-verify --mesh 8 --routing escape:adaptive --vnets 1 --vcs 4
//! noc-verify --all-configs          # expectation matrix, used by CI
//! ```
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use noc_types::{
    BaseRouting, Direction, FaultConfig, NetConfig, NodeId, RecoveryConfig, RoutingAlgo,
};
use noc_verify::{certify, certify_degraded, certify_recovery};

const USAGE: &str = "\
noc-verify: static channel-dependency-graph deadlock certifier

USAGE:
    noc-verify [OPTIONS]
    noc-verify --all-configs

OPTIONS:
    --mesh <K | CxR>      mesh size (default 8)
    --routing <ALGO>      xy | west-first | oblivious | adaptive |
                          escape[:<base>]   (default xy)
    --vnets <N>           virtual networks (default 1)
    --vcs <N>             VCs per VNet (default 4)
    --classes <N>         message classes (default = vnets)
    --dead-links <SPEC>   comma-separated dead links, each NODE:DIR with DIR
                          one of N/E/S/W (e.g. 5:E,10:S); switches to
                          degraded-mesh certification
    --dead-routers <LIST> comma-separated dead router ids (e.g. 5,9)
    --random-dead <N>     kill N random links drawn from the fault seed
    --fault-seed <SEED>   fault RNG seed for --random-dead (default 0xFA17)
    --recovery[=<T>]      additionally certify the runtime recovery channel,
                          armed at drain stuck-threshold T (default 512)
    --all-configs         check the expectation matrix over the paper's
                          configurations; exit nonzero on any mismatch
    -h, --help            show this help

Exit status: 0 when the analysed configuration is certified deadlock-free
(or, with --all-configs, every verdict matches its expectation); 1 otherwise.
";

fn parse_routing(s: &str) -> Result<RoutingAlgo, String> {
    let base = |name: &str| -> Result<BaseRouting, String> {
        match name {
            "xy" => Ok(BaseRouting::Xy),
            "west-first" | "wf" => Ok(BaseRouting::WestFirst),
            "oblivious" => Ok(BaseRouting::ObliviousMinimal),
            "adaptive" => Ok(BaseRouting::AdaptiveMinimal),
            other => Err(format!("unknown routing algorithm '{other}'")),
        }
    };
    if let Some(normal) = s.strip_prefix("escape") {
        let normal = normal.strip_prefix(':').unwrap_or("adaptive");
        Ok(RoutingAlgo::EscapeVc {
            normal: base(normal)?,
        })
    } else {
        Ok(RoutingAlgo::Uniform(base(s)?))
    }
}

fn parse_mesh(s: &str) -> Result<(u8, u8), String> {
    let dims: Vec<&str> = s.split(['x', 'X']).collect();
    let parse = |t: &str| {
        t.parse::<u8>()
            .map_err(|_| format!("bad mesh dimension '{t}'"))
            .and_then(|v| {
                if v >= 2 {
                    Ok(v)
                } else {
                    Err(format!("mesh dimension {v} < 2"))
                }
            })
    };
    match dims.as_slice() {
        [k] => parse(k).map(|k| (k, k)),
        [c, r] => Ok((parse(c)?, parse(r)?)),
        _ => Err(format!("bad mesh spec '{s}' (want K or CxR)")),
    }
}

/// Parses a `--dead-links` spec: comma-separated `NODE:DIR` with DIR one of
/// N/E/S/W (case-insensitive).
fn parse_dead_links(s: &str) -> Result<Vec<(NodeId, Direction)>, String> {
    s.split(',')
        .filter(|t| !t.is_empty())
        .map(|t| {
            let (node, dir) = t
                .split_once(':')
                .ok_or_else(|| format!("bad dead-link '{t}' (want NODE:DIR)"))?;
            let node: u16 = node
                .parse()
                .map_err(|_| format!("bad node id '{node}' in dead-link '{t}'"))?;
            let dir = match dir.to_ascii_uppercase().as_str() {
                "N" => Direction::North,
                "E" => Direction::East,
                "S" => Direction::South,
                "W" => Direction::West,
                other => return Err(format!("bad direction '{other}' (want N/E/S/W)")),
            };
            Ok((NodeId(node), dir))
        })
        .collect()
}

fn parse_dead_routers(s: &str) -> Result<Vec<NodeId>, String> {
    s.split(',')
        .filter(|t| !t.is_empty())
        .map(|t| {
            t.parse::<u16>()
                .map(NodeId)
                .map_err(|_| format!("bad router id '{t}'"))
        })
        .collect()
}

struct Args {
    cols: u8,
    rows: u8,
    routing: RoutingAlgo,
    vnets: u8,
    vcs: u8,
    classes: Option<u8>,
    fault: FaultConfig,
    recovery: Option<RecoveryConfig>,
    all_configs: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cols: 8,
        rows: 8,
        routing: RoutingAlgo::Uniform(BaseRouting::Xy),
        vnets: 1,
        vcs: 4,
        classes: None,
        fault: FaultConfig::default(),
        recovery: None,
        all_configs: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--mesh" => {
                let (c, r) = parse_mesh(&value("--mesh")?)?;
                args.cols = c;
                args.rows = r;
            }
            "--routing" => args.routing = parse_routing(&value("--routing")?)?,
            "--vnets" => {
                args.vnets = value("--vnets")?
                    .parse()
                    .map_err(|e| format!("--vnets: {e}"))?;
            }
            "--vcs" => {
                args.vcs = value("--vcs")?.parse().map_err(|e| format!("--vcs: {e}"))?;
            }
            "--classes" => {
                args.classes = Some(
                    value("--classes")?
                        .parse()
                        .map_err(|e| format!("--classes: {e}"))?,
                );
            }
            "--dead-links" => {
                args.fault.dead_links = parse_dead_links(&value("--dead-links")?)?;
            }
            "--dead-routers" => {
                args.fault.dead_routers = parse_dead_routers(&value("--dead-routers")?)?;
            }
            "--random-dead" => {
                args.fault.random_dead_links = value("--random-dead")?
                    .parse()
                    .map_err(|e| format!("--random-dead: {e}"))?;
            }
            "--fault-seed" => {
                args.fault.fault_seed = value("--fault-seed")?
                    .parse()
                    .map_err(|e| format!("--fault-seed: {e}"))?;
            }
            "--recovery" => args.recovery = Some(RecoveryConfig::drain()),
            arg if arg.starts_with("--recovery=") => {
                let t = arg["--recovery=".len()..]
                    .parse()
                    .map_err(|e| format!("--recovery: {e}"))?;
                args.recovery = Some(RecoveryConfig::drain().with_stuck_threshold(t));
            }
            "--all-configs" => args.all_configs = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.vnets == 0 || args.vcs == 0 {
        return Err("--vnets and --vcs must be at least 1".into());
    }
    // Off-mesh links and routers, or more random kills than links, are
    // argument errors here, not panics inside the certifier.
    args.fault.validate(args.cols, args.rows)?;
    Ok(args)
}

fn config_of(args: &Args) -> NetConfig {
    let mut cfg = if args.rows == args.cols {
        NetConfig::synth(args.cols, args.vcs)
    } else {
        let mut c = NetConfig::synth(args.cols.max(args.rows), args.vcs);
        c.cols = args.cols;
        c.rows = args.rows;
        c
    };
    cfg.vnets = args.vnets;
    cfg.classes = args.classes.unwrap_or(args.vnets);
    cfg.vcs_per_vnet = args.vcs;
    cfg = cfg
        .with_routing(args.routing)
        .with_fault(args.fault.clone());
    if let Some(rec) = &args.recovery {
        cfg = cfg.with_recovery(rec.clone());
    }
    cfg
}

fn run_all_configs() -> i32 {
    let mut mismatches = 0usize;
    let mut total = 0usize;
    let mut check = |config: String, got: bool, expect: bool, why: &str, rendered: String| {
        total += 1;
        let status = if got == expect { "ok " } else { "FAIL" };
        println!(
            "[{status}] {config:<60} expected {:<13} got {}",
            if expect { "certified" } else { "not-certified" },
            if got { "certified" } else { "not-certified" },
        );
        if got != expect {
            mismatches += 1;
            eprintln!("--- expectation: {why} ---");
            eprint!("{rendered}");
        }
    };
    for row in noc_verify::matrix::all_configs() {
        let report = certify(&row.cfg);
        let got = report.certified();
        let rendered = report.render();
        check(report.config, got, row.expect_certified, row.why, rendered);
    }
    for row in noc_verify::matrix::all_recovery_configs() {
        let report = certify_recovery(&row.cfg);
        let got = report.certified();
        let rendered = report.render();
        check(report.config, got, row.expect_certified, row.why, rendered);
    }
    if mismatches == 0 {
        println!("all {total} configurations match their expected verdicts");
        0
    } else {
        eprintln!("{mismatches}/{total} configurations MISMATCHED");
        1
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = if args.all_configs {
        run_all_configs()
    } else {
        let cfg = config_of(&args);
        let report = if args.fault.has_permanent() {
            certify_degraded(&cfg)
        } else {
            certify(&cfg)
        };
        print!("{}", report.render());
        let mut failed = !report.certified();
        if args.recovery.is_some() {
            let report = certify_recovery(&cfg);
            print!("{}", report.render());
            failed |= !report.certified();
        }
        i32::from(failed)
    };
    std::process::exit(code);
}
