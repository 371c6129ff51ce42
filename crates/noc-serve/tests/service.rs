//! Integration tests for the in-process service: deadline expiry,
//! retry-then-quarantine, queue-full load shedding, cancellation (with no
//! resurrection across restarts), content-address dedupe (racing
//! submitters included), and storage
//! faults (read-only DEGRADED mode, probe-write self-heal, journal repair
//! on adoption). All deterministic — panics are injected via the spec's
//! `fail_attempts` hook, overload via `workers: 0`, storage faults via a
//! scheduled `noc_store::FaultVfs` passed to `Service::open_with_vfs`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use noc_experiments::jsonio;
use noc_serve::{ServeOpts, Service, Stage, SubmitError};
use noc_store::{FaultKind, FaultPlan, FaultVfs};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("noc_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn row(line: &str) -> BTreeMap<String, String> {
    jsonio::parse_flat(line).expect("valid submission row")
}

fn opts(dir: &std::path::Path) -> ServeOpts {
    let mut o = ServeOpts::new(dir);
    o.workers = 2;
    o.queue_cap = 8;
    o.retry_base_ms = 5;
    o.max_attempts = 3;
    o.batch_width = 1;
    o
}

/// Polls until the job reaches a terminal stage (or panics after 60 s —
/// these jobs are seconds-scale at most).
fn await_terminal(service: &Service, id: &str) -> noc_serve::JobStatus {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let s = service.status(id).expect("job exists");
        if s.stage.is_terminal() {
            return s;
        }
        assert!(Instant::now() < deadline, "job {id} stuck in {}", s.stage);
        std::thread::sleep(Duration::from_millis(10));
    }
}

const QUICK_SWEEP: &str =
    r#"{"kind": "sweep", "schemes": "SEEC,mSEEC", "transients": "0.0,0.01", "cycles": "2000"}"#;

#[test]
fn sweep_job_runs_to_done_and_dedupes() {
    let dir = tmpdir("done");
    let service = Service::open(opts(&dir)).unwrap();
    let (status, created) = service.submit(&row(QUICK_SWEEP)).unwrap();
    assert!(created);
    assert_eq!(status.total, 4);
    let done = await_terminal(&service, &status.id);
    assert_eq!(done.stage, Stage::Done);
    assert_eq!((done.done, done.failed_units), (4, 0));
    assert!(done.summary.is_some());
    // Resubmission (even with different non-work knobs) dedupes onto the
    // finished job instead of re-running it.
    let resub = format!(
        r#"{}, "deadline_ms": "60000"}}"#,
        QUICK_SWEEP.trim_end_matches('}')
    );
    let (again, created) = service.submit(&row(&resub)).unwrap();
    assert!(!created, "content address must dedupe");
    assert_eq!(again.id, done.id);
    assert_eq!(again.stage, Stage::Done);
    // The rows journal exists and holds one row per point.
    let rows = std::fs::read_to_string(service.rows_path(&done.id).unwrap()).unwrap();
    assert_eq!(rows.lines().count(), 4);
    service.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_expiry_is_a_terminal_failure() {
    let dir = tmpdir("deadline");
    let service = Service::open(opts(&dir)).unwrap();
    // A 1 ms budget against a multi-point sweep: expires mid-run, at a
    // unit boundary, deterministically before the sweep can finish.
    let spec = r#"{"kind": "sweep", "schemes": "SEEC,mSEEC", "transients": "0.0,0.01,0.05", "cycles": "6000", "deadline_ms": "1"}"#;
    let (status, _) = service.submit(&row(spec)).unwrap();
    let done = await_terminal(&service, &status.id);
    assert_eq!(done.stage, Stage::Failed);
    let err = done.error.expect("failure detail");
    assert!(err.contains("deadline exceeded"), "{err}");
    // Expiry is not retried: one attempt only.
    assert_eq!(done.attempts, 1);
    service.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_job_retries_then_succeeds() {
    let dir = tmpdir("retry_ok");
    let service = Service::open(opts(&dir)).unwrap();
    // Panics on attempt 1, runs clean on attempt 2 (within max_attempts=3).
    let spec = r#"{"kind": "sweep", "schemes": "SEEC", "transients": "0.0", "cycles": "2000", "fail_attempts": "1"}"#;
    let (status, _) = service.submit(&row(spec)).unwrap();
    let done = await_terminal(&service, &status.id);
    assert_eq!(done.stage, Stage::Done, "{:?}", done.error);
    assert_eq!(done.attempts, 2, "one panic, one clean run");
    assert!(done.quarantine.is_none());
    service.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_job_is_quarantined_after_max_attempts() {
    let dir = tmpdir("quarantine");
    let service = Service::open(opts(&dir)).unwrap();
    // Panics forever: must exhaust max_attempts=3 and quarantine.
    let spec = r#"{"kind": "sweep", "schemes": "SEEC", "transients": "0.0", "cycles": "2000", "fail_attempts": "99"}"#;
    let (status, _) = service.submit(&row(spec)).unwrap();
    let done = await_terminal(&service, &status.id);
    assert_eq!(done.stage, Stage::Failed);
    assert_eq!(done.attempts, 3);
    let err = done.error.expect("quarantine detail");
    assert!(err.contains("quarantined after 3 attempts"), "{err}");
    assert!(err.contains("injected service test panic"), "{err}");
    // The black box exists and names the panic.
    let qpath = done.quarantine.expect("quarantine path");
    let body = std::fs::read_to_string(&qpath).unwrap();
    let qrow = jsonio::parse_flat(body.trim()).expect("quarantine row");
    assert_eq!(qrow["schema"], "noc-serve-quarantine-v1");
    assert!(qrow["panic"].contains("injected service test panic"));
    service.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_sheds_with_retry_after() {
    let dir = tmpdir("shed");
    let mut o = opts(&dir);
    o.workers = 0; // accept-only: nothing drains the queue
    o.queue_cap = 1;
    let service = Service::open(o).unwrap();
    let (first, created) = service.submit(&row(QUICK_SWEEP)).unwrap();
    assert!(created);
    assert_eq!(first.stage, Stage::Queued);
    // The queue (cap 1) is full: a different job is shed with Retry-After.
    let other = r#"{"kind": "chaos", "seed": "1", "cases": "1"}"#;
    match service.submit(&row(other)) {
        Err(SubmitError::Busy(full)) => assert!(full.retry_after_s >= 1),
        other => panic!("expected Busy, got {other:?}"),
    }
    // Shedding is before persistence: the shed job left no directory, and
    // resubmitting the *same* job dedupes instead of shedding.
    assert_eq!(service.list().len(), 1);
    let (again, created) = service.submit(&row(QUICK_SWEEP)).unwrap();
    assert!(!created);
    assert_eq!(again.id, first.id);
    service.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn draining_service_refuses_submissions() {
    let dir = tmpdir("drain");
    let service = Service::open(opts(&dir)).unwrap();
    service.drain();
    assert!(service.is_draining());
    match service.submit(&row(QUICK_SWEEP)) {
        Err(SubmitError::Draining) => {}
        other => panic!("expected Draining, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_specs_are_rejected_with_field_names() {
    let dir = tmpdir("invalid");
    let service = Service::open(opts(&dir)).unwrap();
    for (line, needle) in [
        (r#"{"kind": "warp"}"#, "unknown job kind"),
        (
            r#"{"kind": "sweep", "schemes": "SEEK"}"#,
            "unknown scheme label",
        ),
        (
            r#"{"kind": "replay", "repro": "/nonexistent/r.jsonl"}"#,
            "cannot read repro",
        ),
    ] {
        match service.submit(&row(line)) {
            Err(SubmitError::Invalid(e)) => assert!(e.contains(needle), "{line}: {e}"),
            other => panic!("{line}: expected Invalid, got {other:?}"),
        }
    }
    service.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Points the engine could only panic on are refused at submission: `k`
/// and `vcs` past `u8` no longer wrap onto an existing job, and meshes
/// under 2 nodes, zero VCs and rates outside [0, 1] never reach a worker.
#[test]
fn out_of_range_specs_are_refused_before_admission() {
    let dir = tmpdir("out_of_range");
    let service = Service::open(opts(&dir)).unwrap();
    let (first, created) = service.submit(&row(ONE_POINT)).unwrap();
    assert!(created);
    for (field, value) in [
        ("k", "260"),
        ("vcs", "258"),
        ("k", "1"),
        ("vcs", "0"),
        ("rate", "NaN"),
        ("transients", "2.0"),
    ] {
        let line = format!(r#"{{"kind": "sweep", "schemes": "SEEC", "{field}": "{value}"}}"#);
        match service.submit(&row(&line)) {
            Err(SubmitError::Invalid(e)) => assert!(e.contains(&format!("'{field}'")), "{e}"),
            other => panic!("{line}: expected Invalid, got {other:?}"),
        }
    }
    let listed: Vec<String> = service.list().into_iter().map(|s| s.id).collect();
    assert_eq!(listed, vec![first.id]);
    service.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelled_job_stays_cancelled_across_restart() {
    let dir = tmpdir("cancel");
    let mut o = opts(&dir);
    o.workers = 0; // keep the job parked so cancellation is immediate
    let service = Service::open(o.clone()).unwrap();
    let (status, _) = service.submit(&row(QUICK_SWEEP)).unwrap();
    assert_eq!(status.stage, Stage::Queued);
    let cancelled = service.cancel(&status.id).expect("cancellable");
    assert_eq!(cancelled.stage, Stage::Cancelled);
    // A second cancel reports the terminal stage.
    match service.cancel(&status.id) {
        Err(Some(Stage::Cancelled)) => {}
        other => panic!("expected terminal-cancel conflict, got {other:?}"),
    }
    // Resubmission dedupes onto the cancelled job — no resurrection.
    let (again, created) = service.submit(&row(QUICK_SWEEP)).unwrap();
    assert!(!created);
    assert_eq!(again.stage, Stage::Cancelled);
    service.drain();
    // Restart over the same data dir, now WITH workers: the journal's
    // terminal verdict must hold — the job is adopted as CANCELLED, never
    // requeued, never run.
    o.workers = 2;
    let reborn = Service::open(o).unwrap();
    let s = reborn.status(&status.id).expect("adopted");
    assert_eq!(s.stage, Stage::Cancelled);
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(reborn.status(&status.id).unwrap().stage, Stage::Cancelled);
    assert_eq!(reborn.queued(), 0, "cancelled job must not requeue");
    reborn.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn running_job_cancels_at_a_unit_boundary() {
    let dir = tmpdir("cancel_running");
    let service = Service::open(opts(&dir)).unwrap();
    // Enough points that the job is still running when cancel arrives.
    let spec = r#"{"kind": "sweep", "schemes": "SEEC,mSEEC,EscVC", "transients": "0.0,0.01,0.05", "cycles": "6000"}"#;
    let (status, _) = service.submit(&row(spec)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s = service.status(&status.id).unwrap();
        if s.stage == Stage::Running {
            break;
        }
        assert!(
            !s.stage.is_terminal(),
            "finished before cancel; enlarge the sweep"
        );
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(2));
    }
    service.cancel(&status.id).expect("cancellable");
    let done = await_terminal(&service, &status.id);
    assert_eq!(done.stage, Stage::Cancelled);
    service.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drained_jobs_are_adopted_and_finish_after_restart() {
    let dir = tmpdir("adopt");
    let mut o = opts(&dir);
    o.workers = 0; // park the job; drain leaves it QUEUED in the journal
    let service = Service::open(o.clone()).unwrap();
    let (status, _) = service.submit(&row(QUICK_SWEEP)).unwrap();
    service.drain();
    drop(service);
    // Restart with workers: the job is adopted, requeued and completes.
    o.workers = 2;
    let reborn = Service::open(o).unwrap();
    let done = await_terminal(&reborn, &status.id);
    assert_eq!(done.stage, Stage::Done);
    assert_eq!(done.done, 4);
    reborn.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One point, one worker: every storage op lands at a deterministic index.
///
/// Op map (`FaultVfs` counts appends + atomic writes, never reads):
///   0 spec.json · 1 state.jsonl acceptance · 2 RUNNING transition ·
///   3-5 the row append and its two resync retries (stuck) ·
///   6-8 the parked-by-storage transition retries (still stuck) ·
///   9+ the self-heal probe writes, one per worker tick.
const ONE_POINT: &str =
    r#"{"kind": "sweep", "schemes": "SEEC", "transients": "0.0", "cycles": "2000"}"#;

#[test]
fn storage_fault_parks_job_degrades_service_and_self_heals() {
    let dir = tmpdir("degraded");
    let mut o = opts(&dir);
    o.workers = 1;
    let plan = FaultPlan::default()
        .with_event(3, FaultKind::Stuck)
        .with_event(40, FaultKind::Heal);
    let vfs = FaultVfs::new(plan);
    let service = Service::open_with_vfs(o, Arc::new(vfs)).unwrap();
    let (status, created) = service.submit(&row(ONE_POINT)).unwrap();
    assert!(created);

    // The row append hits the stuck fault: the job parks (CHECKPOINTED,
    // rows intact, token NOT latched) and the service flips read-only.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !service.storage_degraded() {
        assert!(Instant::now() < deadline, "service never degraded");
        std::thread::sleep(Duration::from_millis(5));
    }
    let parked = service.status(&status.id).unwrap();
    assert!(
        !parked.stage.is_terminal(),
        "storage fault must park, not fail: {}",
        parked.stage
    );
    assert!(service.storage_detail().is_some());

    // Read-only mode: new submissions are shed with the failure detail.
    let other = r#"{"kind": "chaos", "seed": "1", "cases": "1", "pool": "smoke"}"#;
    match service.submit(&row(other)) {
        Err(SubmitError::StorageDegraded(why)) => {
            assert!(!why.is_empty(), "degraded error names the failure");
        }
        other => panic!("expected StorageDegraded, got {other:?}"),
    }

    // The probe writes burn through the schedule to the heal event; the
    // service then leaves read-only mode, requeues the parked job, and the
    // sweep finishes with its journal intact.
    let done = await_terminal(&service, &status.id);
    assert_eq!(done.stage, Stage::Done, "{:?}", done.error);
    assert_eq!(done.done, 1);
    assert!(!service.storage_degraded(), "heal must clear DEGRADED");
    assert!(service.storage_detail().is_none());
    let rows = std::fs::read_to_string(service.rows_path(&done.id).unwrap()).unwrap();
    assert_eq!(
        rows.lines().filter(|l| !l.trim().is_empty()).count(),
        1,
        "{rows}"
    );
    // Post-heal the service accepts work again.
    let (second, created) = service.submit(&row(other)).unwrap();
    assert!(created);
    let second = await_terminal(&service, &second.id);
    assert_eq!(second.stage, Stage::Done, "{:?}", second.error);
    service.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_state_journal_line_is_repaired_and_counted_on_adoption() {
    let dir = tmpdir("state_repair");
    let o = opts(&dir);
    let service = Service::open(o.clone()).unwrap();
    let (status, _) = service.submit(&row(ONE_POINT)).unwrap();
    let done = await_terminal(&service, &status.id);
    assert_eq!(done.stage, Stage::Done);
    assert_eq!(done.repaired_lines, 0);
    assert_eq!(done.corrupt_lines, 0);
    service.drain();
    drop(service);

    // Flip one byte inside the final (DONE) transition record. The CRC
    // trailer catches it: the next boot quarantines exactly that line,
    // compacts the journal, and the job — whose believable history now
    // ends at RUNNING — is adopted and re-run to completion from its row
    // journal.
    let state = dir.join("jobs").join(&status.id).join("state.jsonl");
    let mut bytes = std::fs::read(&state).unwrap();
    let line_starts: Vec<usize> = std::iter::once(0)
        .chain(
            bytes
                .iter()
                .enumerate()
                .filter(|(_, b)| **b == b'\n')
                .map(|(i, _)| i + 1),
        )
        .collect();
    let last_line = *line_starts
        .iter()
        .rev()
        .find(|&&s| s < bytes.len())
        .unwrap();
    bytes[last_line + 10] ^= 0x20;
    std::fs::write(&state, &bytes).unwrap();
    let flipped = String::from_utf8(bytes[last_line..].to_vec()).unwrap();

    let reborn = Service::open(o).unwrap();
    let s = reborn.status(&status.id).expect("adopted");
    assert_eq!(s.corrupt_lines, 1, "exact accounting of the dropped line");
    let quarantined = std::fs::read_to_string(state.with_file_name("state.jsonl.quarantine"));
    assert_eq!(quarantined.unwrap(), flipped, "the dropped bytes are kept");
    let redone = await_terminal(&reborn, &status.id);
    assert_eq!(redone.stage, Stage::Done, "{:?}", redone.error);
    // The journal was compacted: every surviving line verifies, so a third
    // boot counts zero repairs.
    reborn.drain();
    drop(reborn);
    let third = Service::open(opts(&dir)).unwrap();
    assert_eq!(third.status(&status.id).unwrap().repaired_lines, 0);
    assert_eq!(third.status(&status.id).unwrap().corrupt_lines, 0);
    third.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Submits one job to a service without workers, so it rests QUEUED, and
/// returns its id and journal path.
fn parked_job(dir: &std::path::Path) -> (String, PathBuf) {
    let mut o = opts(dir);
    o.workers = 0;
    let service = Service::open(o).unwrap();
    let (status, _) = service.submit(&row(ONE_POINT)).unwrap();
    service.drain();
    let state = dir.join("jobs").join(&status.id).join("state.jsonl");
    (status.id, state)
}

fn state_line(stage: &str, attempts: u64, detail: &str) -> String {
    jsonio::JsonObj::new()
        .str_field("stage", stage)
        .u64_field("attempts", attempts)
        .str_field("detail", detail)
        .finish()
}

/// A `kill -9` mid-append tears the journal's last transition: the next
/// boot quarantines the fragment, counts it as torn (`repaired_lines`, the
/// row journal's rule) and adopts the job from the history before it.
#[test]
fn torn_state_journal_tail_is_quarantined_and_counted_as_repaired() {
    let dir = tmpdir("state_torn");
    let (id, state) = parked_job(&dir);
    let done = noc_store::seal_line(&state_line("done", 1, "sweep: 1 executed"));
    let text = std::fs::read_to_string(&state).unwrap();
    let running = noc_store::seal_line(&state_line("running", 1, "start attempt 1"));
    std::fs::write(&state, format!("{text}{running}\n{}", &done[..20])).unwrap();
    let mut o = opts(&dir);
    o.workers = 0;
    let reborn = Service::open(o).unwrap();
    let s = reborn.status(&id).expect("adopted");
    assert_eq!((s.repaired_lines, s.corrupt_lines), (1, 0));
    assert_eq!(s.stage, Stage::Checkpointed, "history ends at RUNNING");
    let quarantined = std::fs::read_to_string(state.with_file_name("state.jsonl.quarantine"));
    assert_eq!(quarantined.unwrap(), format!("{}\n", &done[..20]));
    reborn.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Adoption over storage that refuses every write: the quarantine and the
/// compaction both fail, and the job is still adopted with its counts.
#[test]
fn failed_state_compaction_never_blocks_adoption() {
    let dir = tmpdir("state_stuck");
    let (id, state) = parked_job(&dir);
    let text = std::fs::read_to_string(&state).unwrap();
    std::fs::write(&state, format!("{text}garbage\n")).unwrap();
    let mut o = opts(&dir);
    o.workers = 0;
    let stuck = FaultVfs::new(FaultPlan::default().with_event(0, FaultKind::Stuck));
    let reborn = Service::open_with_vfs(o, Arc::new(stuck)).unwrap();
    let s = reborn
        .status(&id)
        .expect("adopted despite the failed compaction");
    assert_eq!((s.stage, s.repaired_lines), (Stage::Queued, 1));
    assert_eq!(
        std::fs::read_to_string(&state).unwrap(),
        format!("{text}garbage\n")
    );
    reborn.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crafted `state.jsonl` journals adopted by a fresh boot: the status row
/// and the journal left behind. Pinned when the state journal took the
/// row journal's repair; before that, a CRC-failed line was counted under
/// `repaired_lines`, nothing was quarantined and blank resync lines stayed.
#[test]
fn crafted_state_journals_adopt_as_pinned() {
    let a = noc_store::seal_line(&state_line("queued", 0, "accepted"));
    let r = noc_store::seal_line(&state_line("running", 1, "start attempt 1"));
    let d = noc_store::seal_line(&state_line("done", 1, "sweep: 1 executed"));
    let mut flipped = d.clone().into_bytes();
    flipped[10] ^= 0x20;
    let flipped = String::from_utf8(flipped).unwrap();
    let legacy = [
        state_line("queued", 0, "accepted"),
        state_line("running", 1, "start attempt 1"),
        state_line("done", 1, "sweep: 1 executed"),
    ]
    .join("\n");
    let counts = |stage: &str, repaired: u32, corrupt: u32| {
        let summary = if stage == "done" {
            r#", "summary": "sweep: 1 executed""#
        } else {
            ""
        };
        format!(
            r#"{{"id": "<id>", "stage": "{stage}", "attempts": 1, "done": 0, "total": 1, "failed_units": 0, "repaired_lines": {repaired}, "corrupt_lines": {corrupt}{summary}}}"#
        )
    };
    let adopted = noc_store::seal_line(&state_line("checkpointed", 1, "adopted after crash"));
    for (name, text, want_row, want_state, want_quarantine) in [
        (
            "clean",
            format!("{a}\n{r}\n{d}\n"),
            counts("done", 0, 0),
            format!("{a}\n{r}\n{d}\n"),
            None,
        ),
        (
            "torn_tail",
            format!("{a}\n{r}\n{}", &d[..20]),
            counts("checkpointed", 1, 0),
            format!("{a}\n{r}\n{adopted}\n"),
            Some(format!("{}\n", &d[..20])),
        ),
        (
            "crc_flip",
            format!("{a}\n{r}\n{flipped}\n"),
            counts("checkpointed", 0, 1),
            format!("{a}\n{r}\n{adopted}\n"),
            Some(format!("{flipped}\n")),
        ),
        (
            "blank_resync",
            format!("{a}\n\n{r}\n\n\n{d}\n"),
            counts("done", 0, 0),
            format!("{a}\n{r}\n{d}\n"),
            None,
        ),
        (
            "legacy",
            format!("{legacy}\n"),
            counts("done", 0, 0),
            format!("{legacy}\n"),
            None,
        ),
        (
            "garbage_middle",
            format!("{a}\nnot json\n{r}\n{d}\n"),
            counts("done", 1, 0),
            format!("{a}\n{r}\n{d}\n"),
            Some("not json\n".to_string()),
        ),
    ] {
        let dir = tmpdir(&format!("state_pin_{name}"));
        let (id, state) = parked_job(&dir);
        std::fs::write(&state, &text).unwrap();
        let mut o = opts(&dir);
        o.workers = 0;
        let reborn = Service::open(o).unwrap();
        let got = reborn.status(&id).expect("adopted").to_row();
        assert_eq!(got.replace(&id, "<id>"), want_row, "{name}");
        assert_eq!(
            std::fs::read_to_string(&state).unwrap(),
            want_state,
            "{name}"
        );
        let quarantine = std::fs::read_to_string(state.with_file_name("state.jsonl.quarantine"));
        assert_eq!(quarantine.ok(), want_quarantine, "{name}");
        reborn.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn chaos_job_completes_and_journals_cases() {
    let dir = tmpdir("chaos");
    let service = Service::open(opts(&dir)).unwrap();
    let spec = r#"{"kind": "chaos", "seed": "11", "cases": "2", "pool": "smoke"}"#;
    let (status, _) = service.submit(&row(spec)).unwrap();
    let done = await_terminal(&service, &status.id);
    assert_eq!(done.stage, Stage::Done, "{:?}", done.error);
    assert_eq!(done.done, 2);
    let rows = std::fs::read_to_string(service.rows_path(&done.id).unwrap()).unwrap();
    assert_eq!(rows.lines().count(), 2);
    service.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Eight threads released together onto one spec: what each got back.
fn submit_at_once(service: &Service) -> Vec<Result<(noc_serve::JobStatus, bool), SubmitError>> {
    let gate = Barrier::new(8);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    gate.wait();
                    service.submit(&row(ONE_POINT))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// The durable writes happen outside the registry lock, so identical
/// submissions genuinely race — and the admitting placeholder still makes
/// exactly one of them the creator: one `created`, seven dedupes, one
/// attempt, one journal whose first line is the acceptance record.
#[test]
fn racing_identical_submissions_admit_exactly_one() {
    let dir = tmpdir("race");
    let service = Service::open(opts(&dir)).unwrap();
    let results = submit_at_once(&service);
    let created = results
        .iter()
        .filter(|r| matches!(r, Ok((_, true))))
        .count();
    let deduped = results
        .iter()
        .filter(|r| matches!(r, Ok((_, false))))
        .count();
    assert_eq!((created, deduped), (1, 7), "{results:?}");
    assert_eq!(service.net().dedupe_hits.get(), 7);
    let id = results[0].as_ref().unwrap().0.id.clone();
    let done = await_terminal(&service, &id);
    assert_eq!(done.stage, Stage::Done, "{:?}", done.error);
    assert_eq!(done.attempts, 1, "ran once");
    assert_eq!(service.list().len(), 1);
    let state = std::fs::read_to_string(dir.join("jobs").join(&id).join("state.jsonl")).unwrap();
    let first = state.lines().next().unwrap();
    assert!(first.contains(r#""detail": "accepted""#), "{state}");
    assert_eq!(state.matches("accepted").count(), 1, "{state}");
    service.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same race with the creator's second `write_atomic` failing: every
/// caller is told `StorageDegraded` or is (after the rollback) cleanly
/// admitted or deduped onto a job that exists — never handed a `200`/`202`
/// for an id that then 404s.
#[test]
fn racing_submissions_over_a_failed_write_never_acknowledge_a_ghost() {
    let dir = tmpdir("race_fault");
    let mut o = opts(&dir);
    o.workers = 0;
    // Op 0 spec.json, op 1 the acceptance record.
    let vfs = FaultVfs::new(FaultPlan::default().with_event(1, FaultKind::Eio));
    let service = Service::open_with_vfs(o, Arc::new(vfs)).unwrap();
    let results = submit_at_once(&service);
    let degraded = results
        .iter()
        .filter(|r| matches!(r, Err(SubmitError::StorageDegraded(_))))
        .count();
    assert!(degraded >= 1, "the failed write must surface: {results:?}");
    for r in &results {
        match r {
            Ok((status, _)) => {
                assert!(
                    service.status(&status.id).is_some(),
                    "acknowledged a job that does not exist: {results:?}"
                );
            }
            Err(SubmitError::StorageDegraded(_)) => {}
            Err(other) => panic!("unexpected refusal {other:?}"),
        }
    }
    let created = results
        .iter()
        .filter(|r| matches!(r, Ok((_, true))))
        .count();
    assert!(created <= 1, "{results:?}");
    assert_eq!(service.list().len(), created);
    service.drain();
    let _ = std::fs::remove_dir_all(&dir);
}
