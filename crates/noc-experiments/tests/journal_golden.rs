//! Golden pins for the journal protocol's read side: crafted journals
//! through `Checkpoint::open` and `rows()`, and one line of every row shape
//! the repo writes through `jsonio::parse_flat`, `jsonio::parse_value` and
//! `noc_client::verify_rows`. The digests are FNV-1a over a rendered
//! transcript and were recorded once; never regenerate them. A mismatch
//! means a row is read differently, a line is classified differently, or
//! the repair writes different bytes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use noc_experiments::jsonio::{parse_flat, parse_value, JsonValue};
use noc_experiments::sweep::Checkpoint;
use noc_store::{seal_line, StdVfs};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("journal_golden_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Checks every `(name, transcript)` against its pinned digest and reports
/// all mismatches at once.
fn assert_pinned(got: &[(String, String)], want: &[(&str, u64)]) {
    let mut bad = Vec::new();
    for (name, text) in got {
        let digest = fnv1a(text.as_bytes());
        match want.iter().find(|(n, _)| n == name) {
            Some(&(_, w)) if w == digest => {}
            _ => bad.push(format!("(\"{name}\", {digest:#018x}),\n{text}")),
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
    assert_eq!(got.len(), want.len(), "case count");
}

const R1: &str = r#"{"key": "aaaa", "status": "ok", "rate": 0.0600, "cycles": 3000}"#;
const R2: &str =
    r#"{"key": "bbbb", "status": "failed", "reason": "has } and \" and \\ inside #c=00000000"}"#;
const R3: &str = r#"{"key": "cccc", "status": "ok", "note": "café \u0001 tab\tnl\n"}"#;
const NESTED: &str = r#"{"key": "dddd", "nested": {"a": 1}}"#;
const SURROGATE: &str = r#"{"key": "eeee", "s": "\ud800"}"#;
const R4: &str = r#"{"key": "gggg", "status": "pass", "delivered": 4628}"#;
const BIG: &str =
    r#"{"key": "ffff", "seed": 18446744073709551615, "fault_seed": 9007199254740993}"#;

fn sealed(lines: &[&str]) -> String {
    lines.iter().map(|l| seal_line(l) + "\n").collect()
}

fn flip(text: &str, at: usize) -> String {
    let mut b = text.as_bytes().to_vec();
    b[at] ^= 0x01;
    String::from_utf8(b).unwrap()
}

/// The crafted journals: every line class the loader knows, alone and
/// mixed.
fn journals() -> Vec<(String, String)> {
    let s1 = seal_line(R1);
    let s2 = seal_line(R2);
    let s4 = seal_line(R4);
    let marker = s4.rfind("#c=").unwrap();
    let mut out = vec![
        ("empty".to_string(), String::new()),
        ("clean".to_string(), sealed(&[R1, R2, R3])),
        ("legacy".to_string(), format!("{R1}\n{R2}\n")),
        ("legacy_then_sealed".to_string(), format!("{R1}\n{s2}\n")),
        ("no_final_newline".to_string(), format!("{s1}\n{s2}")),
        (
            "blank_resync".to_string(),
            format!("{s1}\n\n\n{s2}\n\n{}\n", seal_line(R3)),
        ),
        (
            "crc_flip_payload".to_string(),
            format!("{}\n{s2}\n", flip(&s1, 10)),
        ),
        (
            "crc_flip_trailer".to_string(),
            format!("{s1}\n{}\n", flip(&s2, s2.len() - 2)),
        ),
        (
            "merged_lines".to_string(),
            flip(&format!("{s1}\n{s2}\n"), s1.len()),
        ),
        ("sealed_nested".to_string(), sealed(&[R1, NESTED])),
        ("legacy_nested".to_string(), format!("{R1}\n{NESTED}\n")),
        ("unicode_escapes".to_string(), sealed(&[R3, SURROGATE])),
        (
            "legacy_surrogate".to_string(),
            format!("{R1}\n{SURROGATE}\n"),
        ),
        ("big_integers".to_string(), sealed(&[BIG])),
        (
            "garbage_between".to_string(),
            format!("{s1}\nnot json at all\n{{\"a\"}}\n{s2}\n"),
        ),
    ];
    for cut in [1, 10, marker - 1, marker, marker + 2, s4.len() - 1] {
        out.push((
            format!("torn_sealed_{cut}"),
            format!("{s1}\n{}", &s4[..cut]),
        ));
    }
    // A tear inside a payload that carries the marker bytes itself.
    let inner = s2.rfind("#c=").unwrap();
    out.push((
        "torn_inner_marker".to_string(),
        format!("{s1}\n{}", &s2[..inner]),
    ));
    for cut in [1, 10, R4.len() - 1] {
        out.push((
            format!("torn_legacy_{cut}"),
            format!("{R1}\n{}", &R4[..cut]),
        ));
    }
    out
}

fn read_or_empty(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Opens `text` as a checkpoint journal twice and renders everything the
/// loader decided: the counts, the compacted journal, the quarantine, the
/// rows read back, and the second open's counts (repair is sticky).
fn open_transcript(dir: &Path, name: &str, text: &str) -> String {
    let path = dir.join(format!("{name}.ckpt.jsonl"));
    let quarantine = dir.join(format!("{name}.ckpt.jsonl.quarantine"));
    if name != "missing" {
        std::fs::write(&path, text).unwrap();
    }
    let vfs: Arc<dyn noc_store::Vfs> = Arc::new(StdVfs);
    let ckpt = Checkpoint::open_with_vfs(&path, Arc::clone(&vfs)).unwrap();
    let mut out = format!(
        "torn {} corrupt {} repaired {} done {}\n",
        ckpt.torn_dropped(),
        ckpt.corrupt_dropped(),
        ckpt.repaired_lines(),
        ckpt.done_count()
    );
    for key in ["aaaa", "bbbb", "cccc", "dddd", "eeee", "ffff", "gggg"] {
        out.push_str(&format!("{key} done {}\n", ckpt.is_done(key)));
    }
    out.push_str(&format!("journal {:?}\n", read_or_empty(&path)));
    out.push_str(&format!("quarantine {:?}\n", read_or_empty(&quarantine)));
    out.push_str(&format!("rows {:?}\n", ckpt.rows()));
    drop(ckpt);
    let again = Checkpoint::open_with_vfs(&path, vfs).unwrap();
    out.push_str(&format!(
        "reopen torn {} corrupt {} done {}\n",
        again.torn_dropped(),
        again.corrupt_dropped(),
        again.done_count()
    ));
    out
}

#[test]
fn crafted_journals_open_and_read_back_as_pinned() {
    let dir = tmpdir("ckpt");
    let mut got: Vec<(String, String)> = journals()
        .into_iter()
        .map(|(name, text)| {
            let t = open_transcript(&dir, &name, &text);
            (name, t)
        })
        .collect();
    got.push(("missing".to_string(), open_transcript(&dir, "missing", "")));
    let _ = std::fs::remove_dir_all(&dir);
    assert_pinned(&got, JOURNALS);
}

const JOURNALS: &[(&str, u64)] = &[
    ("empty", 0x372b_80a6_381b_440f),
    ("clean", 0x64e5_8dd6_98b3_137b),
    ("legacy", 0x6dcd_f64f_717d_4ae8),
    ("legacy_then_sealed", 0x1a42_26e3_6493_07da),
    ("no_final_newline", 0x03c3_0b12_de63_b9ce),
    ("blank_resync", 0x64e5_8dd6_98b3_137b),
    ("crc_flip_payload", 0xd20a_d26e_7f35_c27b),
    ("crc_flip_trailer", 0xb09e_486e_4d64_ff66),
    ("merged_lines", 0xa116_5ccb_d3ad_869c),
    ("sealed_nested", 0x3b65_779a_c63f_d491),
    ("legacy_nested", 0x1716_6ff3_31da_7726),
    ("unicode_escapes", 0xdd7e_8251_ab07_e08d),
    ("legacy_surrogate", 0xaf18_16b3_3669_95f7),
    ("big_integers", 0xd553_b014_4dc8_ab1f),
    ("garbage_between", 0x368e_3676_dfb7_c7b8),
    ("torn_sealed_1", 0x0032_c602_aeb8_703b),
    ("torn_sealed_10", 0xfea7_ef58_9c9a_e29b),
    ("torn_sealed_51", 0x308e_526f_0257_9ead),
    ("torn_sealed_52", 0x066f_af8c_4958_6f11),
    ("torn_sealed_54", 0xe171_0534_a303_c712),
    ("torn_sealed_62", 0xbafe_b0d6_c464_580c),
    ("torn_inner_marker", 0x7b60_3d00_899e_1c52),
    ("torn_legacy_1", 0x93b6_972b_4ada_2385),
    ("torn_legacy_10", 0xc1a2_99f4_b1ec_dfc5),
    ("torn_legacy_51", 0x254a_b382_4f52_9b1f),
    ("missing", 0x372b_80a6_381b_440f),
];

/// One line of every row shape the repo writes. Numbers stay below 2^53
/// here; `BIG` covers wide integers on the flat path.
const ROWS: &[(&str, &str)] = &[
    (
        "sweep_ok",
        r#"{"key": "6fc76f7ed665c327", "series": "transient", "scheme": "SEEC", "pattern": "uniform_random", "k": 4, "vcs": 4, "rate": 0.0500, "transient": 0.000000, "dead_links": 0, "fault_seed": 64023, "recovery": "re=0;st=512;et=0;er=4", "cycles": 6000, "seed": 659918, "status": "ok", "avg_latency": 10.401, "p50_latency": 10, "p95_latency": 18, "p99_latency": 21, "throughput": 0.050375, "ejected_packets": 4016, "corrupted_flits": 0, "retransmitted_flits": 0, "link_acks": 0, "link_nacks": 0, "recovery_events": 0, "drain_recoveries": 0, "recovery_victim_hops": 0, "recovery_cycles_lost": 0, "e2e_retransmits": 0, "e2e_duplicates_dropped": 0, "e2e_abandoned": 0, "retx_overhead": 0.000000}"#,
    ),
    (
        "sweep_status",
        r#"{"key": "12163cba2f3e9dc9", "series": "dead-links", "scheme": "EscVC", "pattern": "uniform_random", "k": 4, "vcs": 4, "rate": 0.0500, "transient": 0.000000, "dead_links": 1, "fault_seed": 64023, "recovery": "re=0;st=512;et=0;er=4", "cycles": 6000, "seed": 659918, "status": "escape-severed", "reason": "no live west-first path from node 11 to node 0; Duato certificate void"}"#,
    ),
    (
        "sweep_failed",
        r#"{"key": "0e1d2c3b4a596877", "series": "test", "scheme": "SEEC", "pattern": "uniform_random", "k": 4, "vcs": 4, "rate": 0.0500, "transient": 0.000000, "dead_links": 0, "fault_seed": 64023, "recovery": "re=0;st=512;et=0;er=4", "cycles": 3000, "seed": 659918, "status": "failed", "reason": "point test:SEEC:uniform_random:0.0500 wedged: no progress for 2000 cycles at cycle 2560 — black-box dump at results/blackbox_0e1d2c3b4a596877.json", "blackbox": "results/blackbox_0e1d2c3b4a596877.json"}"#,
    ),
    (
        "chaos_log",
        r#"{"key": "adf091749304e787", "scheme": "EscVC", "k": 4, "vcs": 2, "pattern": "tornado", "rate": 0.049000, "cycles": 6000, "seed": 21, "events": "832:kl:6:1,1987:hl:6:1,", "recovery": "re=1;st=512;et=600;er=50", "status": "pass", "delivered": 4628, "purged_flits": 0, "recert": "escape-severed>escape", "digest": "d804498e234489d9"}"#,
    ),
    (
        "chaos_repro",
        r#"{"schema": "noc-chaos-repro-v1", "key": "5b1e0b8c2f6a7d93", "scheme": "ADAPT", "k": 4, "vcs": 1, "pattern": "uniform_random", "rate": 0.300000, "cycles": 6000, "seed": 43981, "events": "", "recovery": "re=0;st=512;et=0;er=4", "expect_status": "wedged", "expect_detail": "no progress for 2000 cycles at cycle 2560", "expect_digest": "9c0f3a61d2b84e57"}"#,
    ),
    (
        "state_accepted",
        r#"{"stage": "queued", "attempts": 0, "detail": "accepted"}"#,
    ),
    (
        "state_transition",
        r#"{"stage": "done", "attempts": 2, "detail": "sweep: 4 executed, 0 resumed, 0 deferred, 0 failed \"quoted\""}"#,
    ),
    (
        "job_status",
        r#"{"id": "8b0f3c1d2e4a5f60", "stage": "failed", "attempts": 3, "done": 0, "total": 1, "failed_units": 0, "repaired_lines": 1, "corrupt_lines": 2, "error": "quarantined after 3 attempts: injected service test panic (attempt 3/99)", "quarantine": "/data/jobs/8b0f3c1d2e4a5f60/quarantine.json"}"#,
    ),
    (
        "healthz",
        r#"{"status": "degraded", "storage": "read-only", "draining": false, "queued": 0, "connections_accepted": 12, "connections_shed": 1, "connections_reset": 0, "deadline_kills": 0, "header_rejects": 0, "dedupe_hits": 3, "storage_detail": "cannot journal 8b0f3c1d2e4a5f60 -> running: injected persistent write failure at op 6"}"#,
    ),
    (
        "job_spec",
        r#"{"kind": "sweep", "schemes": "SEEC,mSEEC", "transients": "0,0.01", "k": 4, "vcs": 2, "cycles": 3000, "seed": 659918, "rate": 0.050000, "deadline_ms": 60000, "fail_attempts": 1}"#,
    ),
    (
        "job_spec_chaos",
        r#"{"kind": "chaos", "seed": 11, "cases": 2, "pool": "smoke"}"#,
    ),
    (
        "quarantine_row",
        r#"{"schema": "noc-serve-quarantine-v1", "id": "8b0f3c1d2e4a5f60", "attempts": 3, "panic": "injected\u0001 \\ panic", "dumps": "/data/jobs/8b0f3c1d2e4a5f60/dumps"}"#,
    ),
    ("escapes", R3),
    ("marker_inside", R2),
    ("empty_object", "{}"),
    ("padded", "  { \"a\" : \"x\" , \"b\":1 }  "),
];

/// The malformed lines of `jsonio.rs`'s flat-parser tests.
const FLAT_MALFORMED: &[&str] = &[
    "",
    "{\"a\": 1",
    "{\"a\": {\"b\": 1}}",
    "not json at all",
    "{\"a\"}",
];

/// The malformed documents of `jsonio.rs`'s nested-parser tests.
const VALUE_MALFORMED: &[&str] = &[
    "",
    "{\"a\": [1, 2",
    "{\"a\": 1} trailing",
    "{\"a\" 1}",
    "[1 2]",
    "{\"a\": nul}",
];

/// Every leaf of a parsed document with its path and what each accessor
/// answers — never `JsonValue`'s `Debug`, whose payloads may change.
fn leaves(v: &JsonValue, path: &str, out: &mut String) {
    match v {
        JsonValue::Obj(m) => {
            out.push_str(&format!("{path} obj {}\n", m.len()));
            for (k, child) in m {
                leaves(child, &format!("{path}.{k}"), out);
            }
        }
        JsonValue::Bool(b) => out.push_str(&format!("{path} bool {b}\n")),
        _ => {
            if let Some(items) = v.as_array() {
                out.push_str(&format!("{path} arr {}\n", items.len()));
                for (i, child) in items.iter().enumerate() {
                    leaves(child, &format!("{path}[{i}]"), out);
                }
            } else {
                out.push_str(&format!(
                    "{path} str {:?} f64 {:?} u64 {:?} null {}\n",
                    v.as_str(),
                    v.as_f64(),
                    v.as_u64(),
                    v.is_null()
                ));
            }
        }
    }
}

fn value_transcript(text: &str) -> String {
    match parse_value(text) {
        Some(v) => {
            let mut out = String::new();
            leaves(&v, "$", &mut out);
            out
        }
        None => "none\n".to_string(),
    }
}

fn flat_transcript(text: &str) -> String {
    format!("{:?}\n", parse_flat(text))
}

fn verify_transcript(body: &str) -> String {
    format!("{:?}\n", noc_client::verify_rows(body))
}

#[test]
fn row_corpus_reads_as_pinned() {
    let mut got = Vec::new();
    for (name, line) in ROWS {
        got.push((format!("flat/{name}"), flat_transcript(line)));
        got.push((format!("value/{name}"), value_transcript(line)));
        got.push((format!("verify/{name}"), verify_transcript(line)));
        got.push((
            format!("verify_sealed/{name}"),
            verify_transcript(&seal_line(line)),
        ));
    }
    got.push(("flat/big".to_string(), flat_transcript(BIG)));
    for (i, line) in FLAT_MALFORMED.iter().enumerate() {
        got.push((format!("flat_malformed/{i}"), flat_transcript(line)));
        got.push((format!("verify_malformed/{i}"), verify_transcript(line)));
    }
    for (i, doc) in VALUE_MALFORMED.iter().enumerate() {
        got.push((format!("value_malformed/{i}"), value_transcript(doc)));
    }
    let bomb = "[".repeat(1000) + &"]".repeat(1000);
    got.push(("value_malformed/bomb".to_string(), value_transcript(&bomb)));
    let nested = r#"{
        "schema": "noc-blackbox-v1",
        "cycle": 4096,
        "ratio": -1.5e2,
        "config": {"cols": 4, "rows": 4},
        "occupancy": [
            {"node": 0, "routed": false, "head_wait_since": null},
            {"node": 1, "routed": true, "head_wait_since": 37}
        ],
        "wait_cycle": null,
        "empty_arr": [],
        "empty_obj": {}
    }"#;
    got.push(("value/nested".to_string(), value_transcript(nested)));
    let dump = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/blackbox_wedge.json"),
    )
    .unwrap();
    got.push(("value/blackbox".to_string(), value_transcript(&dump)));
    // A whole rows payload: sealed rows, a legacy row, resync blanks.
    let body: String = ROWS
        .iter()
        .take(4)
        .map(|(_, l)| seal_line(l) + "\n")
        .chain([String::from("\n"), format!("{R1}\n"), String::from("\n")])
        .collect();
    got.push(("verify/body".to_string(), verify_transcript(&body)));
    assert_pinned(&got, CORPUS);
}

const CORPUS: &[(&str, u64)] = &[
    ("flat/sweep_ok", 0xeda1_e991_8282_b13f),
    ("value/sweep_ok", 0x0127_e112_05a8_916e),
    ("verify/sweep_ok", 0xd496_6b90_1a03_ce15),
    ("verify_sealed/sweep_ok", 0xd496_6b90_1a03_ce15),
    ("flat/sweep_status", 0x401f_ec5f_8b54_e5b7),
    ("value/sweep_status", 0xef64_e9f2_4a2a_1f7f),
    ("verify/sweep_status", 0xace5_a155_59f3_4e47),
    ("verify_sealed/sweep_status", 0xace5_a155_59f3_4e47),
    ("flat/sweep_failed", 0x4d5e_3087_6947_7d98),
    ("value/sweep_failed", 0xeb3b_561d_09fb_87e4),
    ("verify/sweep_failed", 0x8d10_6290_e737_ce38),
    ("verify_sealed/sweep_failed", 0x8d10_6290_e737_ce38),
    ("flat/chaos_log", 0xd39a_0f56_a611_43a9),
    ("value/chaos_log", 0xa614_9665_432d_0927),
    ("verify/chaos_log", 0x9fb0_688e_5942_1bd7),
    ("verify_sealed/chaos_log", 0x9fb0_688e_5942_1bd7),
    ("flat/chaos_repro", 0x9ede_97e6_b656_3eab),
    ("value/chaos_repro", 0x2655_b226_c408_386e),
    ("verify/chaos_repro", 0x8fbf_bf41_e90c_1351),
    ("verify_sealed/chaos_repro", 0x8fbf_bf41_e90c_1351),
    ("flat/state_accepted", 0xd61c_4b16_ccf5_909b),
    ("value/state_accepted", 0x1dc5_2b28_e374_232a),
    ("verify/state_accepted", 0x144e_d85e_e240_0719),
    ("verify_sealed/state_accepted", 0x144e_d85e_e240_0719),
    ("flat/state_transition", 0x57b9_c9b0_59ff_7acf),
    ("value/state_transition", 0x20f2_a3b2_66ca_e63a),
    ("verify/state_transition", 0x8ae0_f026_69f4_65cb),
    ("verify_sealed/state_transition", 0x8ae0_f026_69f4_65cb),
    ("flat/job_status", 0x9746_910d_beb3_9adc),
    ("value/job_status", 0x9777_be5e_a065_0d0e),
    ("verify/job_status", 0x3a2d_bb96_267f_4a72),
    ("verify_sealed/job_status", 0x3a2d_bb96_267f_4a72),
    ("flat/healthz", 0x480e_fc5c_2667_3532),
    ("value/healthz", 0x1ea5_1130_fe69_3818),
    ("verify/healthz", 0x287b_c3d8_e3f4_5da2),
    ("verify_sealed/healthz", 0x287b_c3d8_e3f4_5da2),
    ("flat/job_spec", 0x9be2_afaf_952e_8ad3),
    ("value/job_spec", 0x845a_a275_1289_03c0),
    ("verify/job_spec", 0xefc9_1844_d071_42c1),
    ("verify_sealed/job_spec", 0xefc9_1844_d071_42c1),
    ("flat/job_spec_chaos", 0x05e6_387e_198b_3a97),
    ("value/job_spec_chaos", 0xafaf_38b3_ae3c_36a5),
    ("verify/job_spec_chaos", 0xb5f5_5019_bd18_6613),
    ("verify_sealed/job_spec_chaos", 0xb5f5_5019_bd18_6613),
    ("flat/quarantine_row", 0xfdcb_6116_6598_1090),
    ("value/quarantine_row", 0x9bc1_4814_1e05_5d90),
    ("verify/quarantine_row", 0xe1bf_c4b6_0f6e_154c),
    ("verify_sealed/quarantine_row", 0xe1bf_c4b6_0f6e_154c),
    ("flat/escapes", 0x8aa7_c74f_6f36_0b20),
    ("value/escapes", 0xe44d_6bdb_fbb6_c732),
    ("verify/escapes", 0xeedd_b0c3_9c54_4f74),
    ("verify_sealed/escapes", 0xeedd_b0c3_9c54_4f74),
    ("flat/marker_inside", 0x996e_11c2_ee79_f9da),
    ("value/marker_inside", 0x60e7_fb07_86f6_ac34),
    ("verify/marker_inside", 0x3a34_08ad_147c_ff5a),
    ("verify_sealed/marker_inside", 0x1fd3_c16c_b7c1_6bee),
    ("flat/empty_object", 0x562e_f4da_20cd_b400),
    ("value/empty_object", 0x784a_6d8f_1347_c5ac),
    ("verify/empty_object", 0x2809_b174_483c_f44a),
    ("verify_sealed/empty_object", 0x2809_b174_483c_f44a),
    ("flat/padded", 0x6ceb_86ef_6f56_0d24),
    ("value/padded", 0xfc01_9ed4_a7aa_be74),
    ("verify/padded", 0xfeba_66c2_ef77_4df2),
    ("verify_sealed/padded", 0xfeba_66c2_ef77_4df2),
    ("flat/big", 0x6716_9c72_949c_6271),
    ("flat_malformed/0", 0x3354_6ad8_4811_14a3),
    ("verify_malformed/0", 0xf2bc_c18e_3722_950a),
    ("flat_malformed/1", 0x3354_6ad8_4811_14a3),
    ("verify_malformed/1", 0xa12f_1b1a_644e_397f),
    ("flat_malformed/2", 0x3354_6ad8_4811_14a3),
    ("verify_malformed/2", 0xa12f_1b1a_644e_397f),
    ("flat_malformed/3", 0x3354_6ad8_4811_14a3),
    ("verify_malformed/3", 0xa12f_1b1a_644e_397f),
    ("flat_malformed/4", 0x3354_6ad8_4811_14a3),
    ("verify_malformed/4", 0xa12f_1b1a_644e_397f),
    ("value_malformed/0", 0x7394_c371_d5fc_2f03),
    ("value_malformed/1", 0x7394_c371_d5fc_2f03),
    ("value_malformed/2", 0x7394_c371_d5fc_2f03),
    ("value_malformed/3", 0x7394_c371_d5fc_2f03),
    ("value_malformed/4", 0x7394_c371_d5fc_2f03),
    ("value_malformed/5", 0x7394_c371_d5fc_2f03),
    ("value_malformed/bomb", 0x7394_c371_d5fc_2f03),
    ("value/nested", 0xaf99_727c_69e6_ebea),
    ("value/blackbox", 0x1f64_2b79_8c95_6973),
    ("verify/body", 0x7963_d467_0ea1_4162),
];

#[test]
fn flat_rows_keep_source_text() {
    let row: BTreeMap<String, String> = parse_flat(BIG).unwrap();
    assert_eq!(row["seed"], "18446744073709551615");
    assert_eq!(row["fault_seed"], "9007199254740993");
    assert_eq!(parse_flat(R1).unwrap()["rate"], "0.0600");
}
