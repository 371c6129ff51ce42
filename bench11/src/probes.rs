//! The per-layer numbers: fixed-size probes around each crate's public
//! calls, run after the traced workload and identical on every workload,
//! so a layer's unit cost reads the same wherever it is looked up.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

use noc_experiments::sweep::Checkpoint;
use noc_net::{FaultNet, NetFaultKind, NetFaultPlan, Transport};
use noc_sim::Workload;
use noc_store::{FaultKind, FaultPlan, FaultVfs, StdVfs, Vfs};
use noc_traffic::{SyntheticWorkload, TrafficPattern};
use noc_types::NetConfig;

use crate::metrics::{Outcome, Value};
use crate::serve::probe_row;
use crate::{Run, TempDir};

pub fn run(run: &Run, out: &mut Outcome) {
    crate::engine::probe(run, out);
    traffic(run, out);
    verify(out);
    crate::sweep::probe(run, out);
    store(run, out);
    net(out);
    crate::serve::probe(run, out);
}

fn per(t0: Instant, n: usize, scale: f64) -> Value {
    Value::one(t0.elapsed().as_secs_f64() * scale / n as f64)
}

/// A `SyntheticWorkload` driven alone: generation cost per node-cycle.
fn traffic(run: &Run, out: &mut Outcome) {
    let cfg = NetConfig::synth(8, 2);
    let cycles = run.scale.probe_cycles * 4;
    let mut wl = SyntheticWorkload::new(
        TrafficPattern::UniformRandom,
        0.07,
        cfg.cols,
        cfg.rows,
        cfg.warmup,
        run.seed,
    );
    let mut packets = 0u64;
    let t0 = Instant::now();
    for cycle in 0..cycles {
        wl.generate(cycle, &mut |_, _| packets += 1);
    }
    std::hint::black_box(packets);
    out.set(
        "noc-traffic.gen_ns_per_node_cycle",
        per(t0, cycles as usize * 64, 1e9),
    );
}

/// What `run_synth`'s gate pays for an 8x8 escape-VC config, and what the
/// sweep runner's `gate_point` pays per 4x4 point.
fn verify(out: &mut Outcome) {
    let reps = 5;
    let big = noc_experiments::Scheme::escape().configure(NetConfig::synth(8, 2));
    let t0 = Instant::now();
    for _ in 0..reps {
        assert!(std::hint::black_box(noc_verify::certify(&big)).certified());
    }
    out.set("noc-verify.certify_ms", per(t0, reps, 1e3));
    let small = noc_experiments::Scheme::escape().configure(NetConfig::synth(4, 4));
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(noc_verify::certify_degraded(&small));
    }
    out.set("noc-verify.certify_degraded_ms", per(t0, reps, 1e3));
}

/// Row framing, journal appends, checkpoint record and load, the atomic
/// write, and the same appends through a `FaultVfs` that never fires.
fn store(run: &Run, out: &mut Outcome) {
    let tmp = TempDir::new(&run.out, "store-probe");
    let n = run.scale.probe_rows;
    let rows: Vec<String> = (0..n).map(probe_row).collect();

    let t0 = Instant::now();
    let sealed: Vec<String> = rows.iter().map(|r| noc_store::seal_line(r)).collect();
    out.set("noc-store.seal_ns_per_row", per(t0, n, 1e9));
    let t0 = Instant::now();
    for line in &sealed {
        assert!(matches!(
            noc_store::open_line(line),
            noc_store::LineCheck::Sealed(_)
        ));
    }
    out.set("noc-store.open_line_ns_per_row", per(t0, n, 1e9));

    let append = |vfs: &dyn Vfs, file: &str| {
        let t0 = Instant::now();
        let mut log = vfs
            .open_append(&tmp.path().join(file))
            .expect("open journal");
        for line in &sealed {
            log.append(format!("{line}\n").as_bytes())
                .expect("append row");
        }
        per(t0, n, 1e6)
    };
    out.set("noc-store.append_us_per_row", append(&StdVfs, "std.jsonl"));
    // Its only event lies beyond any run: armed, silent.
    let silent = FaultVfs::new(FaultPlan::default().with_event(u64::MAX, FaultKind::Eio));
    out.set(
        "noc-store.faultvfs_silent_append_us_per_row",
        append(&silent, "fault.jsonl"),
    );

    let journal = tmp.path().join("ckpt.jsonl");
    let ckpt = Checkpoint::open(&journal).expect("open checkpoint");
    let t0 = Instant::now();
    for row in &rows {
        assert!(ckpt.record(row));
    }
    out.set("noc-store.ckpt_record_us_per_row", per(t0, n, 1e6));
    drop(ckpt);
    let t0 = Instant::now();
    let ckpt = Checkpoint::open(&journal).expect("reopen checkpoint");
    out.set("noc-store.ckpt_open_ms_per_krow", per(t0, n, 1e3 * 1e3));
    out.check(ckpt.done_count() == n, || {
        format!("checkpoint reloaded {} of {n} rows", ckpt.done_count())
    });

    // 1 KiB: temp file + fsync + rename + directory fsync.
    let blob = vec![b'x'; 1024];
    let mut write_ms = Vec::new();
    for i in 0..n.div_ceil(40) {
        let t0 = Instant::now();
        StdVfs
            .write_atomic(&tmp.path().join(format!("atomic-{}.json", i % 4)), &blob)
            .expect("atomic write");
        write_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    out.set("noc-store.write_atomic_ms", Value::median_of(&write_ms));
}

/// 256-byte echo round trips over one loopback connection, through the
/// passthrough transport and through a `FaultNet` that never fires.
fn net(out: &mut Outcome) {
    const ROUND_TRIPS: usize = 2_000;
    let rtt = |transport: &Transport| -> std::io::Result<Value> {
        let listener = transport.listener(TcpListener::bind("127.0.0.1:0")?);
        let addr = listener.local_addr()?.to_string();
        std::thread::scope(|scope| {
            let echo = scope.spawn(move || -> std::io::Result<()> {
                // Polled with a deadline so a client that never connects
                // cannot leave this thread, and the scope, waiting.
                listener.set_nonblocking(true)?;
                let t0 = Instant::now();
                let mut stream = loop {
                    match listener.accept() {
                        Ok((stream, _)) => break stream,
                        Err(e) if t0.elapsed() > Duration::from_secs(5) => return Err(e),
                        Err(_) => std::thread::sleep(Duration::from_millis(1)),
                    }
                };
                let mut buf = [0u8; 256];
                for _ in 0..ROUND_TRIPS {
                    stream.read_exact(&mut buf)?;
                    stream.write_all(&buf)?;
                }
                Ok(())
            });
            let mut stream = transport.connect(&addr, Duration::from_secs(5))?;
            let mut buf = [7u8; 256];
            let t0 = Instant::now();
            for _ in 0..ROUND_TRIPS {
                stream.write_all(&buf)?;
                stream.read_exact(&mut buf)?;
            }
            let v = per(t0, ROUND_TRIPS, 1e6);
            echo.join().expect("echo thread")?;
            Ok(v)
        })
    };
    let silent = Transport::faulted(FaultNet::new(
        NetFaultPlan::default().with_event(u64::MAX, NetFaultKind::Reset),
    ));
    for (name, transport) in [
        ("noc-net.passthrough_rtt_us", Transport::passthrough()),
        ("noc-net.faultnet_silent_rtt_us", silent),
    ] {
        match rtt(&transport) {
            Ok(v) => out.set(name, v),
            Err(e) => out.fail(format!("{name}: {e}")),
        }
    }
}
