//! The Parallel API library alone: [`ApiCtx`] over the recording fake port,
//! no engine underneath. What every engine inherits from the one body of
//! each operation is held here — the fence before every synchronizing
//! operation, the barrier numbering, which answers are acquire points, and
//! the failures a caller's own mistake produces.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dse_api::{ApiCtx, Distribution, GlobalPid, NodeId, ParallelApi, AUTO_BARRIER_BASE};
use dse_msg::Message;
use dse_obs::TraceSpanKind;

#[path = "support/fake_port.rs"]
mod fake_port;
use fake_port::FakePort;

/// Rank 0 of four over 4 KiB: node 0 homes `[0, 1024)`, home `h` homes
/// `[1024 h, 1024 (h + 1))`; every cell starts at zero.
fn ctx() -> ApiCtx<FakePort> {
    over(FakePort::new(4, 4096, |_| 0), 0)
}

fn over(port: FakePort, rank: u32) -> ApiCtx<FakePort> {
    ApiCtx::new(port, rank, GlobalPid::new(NodeId(rank as u16), 1))
}

fn panic_text(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the call must fail");
    payload
        .downcast_ref::<String>()
        .expect("a formatted panic message")
        .clone()
}

/// Whether `msg` is one of the two staged requests (plain or batched).
fn is_gm_request(msg: &Message) -> bool {
    matches!(
        msg,
        Message::GmReadReq { .. } | Message::GmWriteReq { .. } | Message::GmBatchReq { .. }
    )
}

#[test]
fn every_synchronizing_operation_fences_staged_work_first() {
    type Op = fn(&mut ApiCtx<FakePort>);
    // Each operation, and whether it sends a message of its own.
    let ops: [(&str, Op, bool); 7] = [
        ("barrier", |c| c.barrier(), true),
        ("lock", |c| c.lock(3), true),
        ("unlock", |c| c.unlock(3), true),
        (
            "remote gm_fetch_add",
            |c| {
                let region = c.port.region;
                c.gm_fetch_add(region, 3072, 1);
            },
            true,
        ),
        (
            "own-node gm_fetch_add",
            |c| {
                let region = c.port.region;
                c.gm_fetch_add(region, 8, 1);
            },
            false,
        ),
        (
            "gm_alloc",
            |c| {
                c.gm_alloc(64, Distribution::Blocked);
            },
            false,
        ),
        ("exit", |c| c.finish(), true),
    ];
    for (name, op, sends) in ops {
        let mut c = ctx();
        let region = c.port.region;
        let _write = c.gm_write_nb(region, 1024, &[7; 16]);
        let _read = c.gm_read_nb(region, 2048, 16);
        assert!(c.port.sent.is_empty(), "{name}: split-phase work is staged");
        op(&mut c);
        let blocked = c.port.span_seqs(TraceSpanKind::GmBlock);
        let port = &c.port;
        let own = port.sent.iter().position(|(_, m)| !is_gm_request(m));
        assert_eq!(own.is_some(), sends, "{name}: {:?}", port.sent);
        let staged = own.unwrap_or(port.sent.len());
        assert_eq!(staged, 2, "{name}: both staged requests go first");
        assert_eq!(port.unanswered(), 0, "{name}: and are answered");
        // The first two completions are the staged requests; each was done
        // before the operation's own message went out.
        assert!(port.done.len() >= staged, "{name}: {:?}", port.done);
        assert!(
            port.done[..staged].iter().all(|&sent| sent == staged),
            "{name}: a staged request finished after the operation's own message: {:?}",
            port.done
        );
        let answered = port.samples("gm", "remote_read_ns") + port.samples("gm", "remote_write_ns");
        assert_eq!(answered, 2, "{name}");
        assert_eq!(
            blocked.first(),
            Some(&0),
            "{name}: the fence is the first wait"
        );
        assert_eq!(&port.contents()[1024..1040], &[7; 16], "{name}");
    }
}

#[test]
fn auto_barrier_ids_count_up_from_the_base() {
    let mut c = ctx();
    for _ in 0..3 {
        c.barrier();
    }
    let entered: Vec<u32> = c
        .port
        .sent
        .iter()
        .map(|(to, m)| match m {
            Message::BarrierEnter { barrier, pid } => {
                assert_eq!((*to, *pid), (NodeId(0), GlobalPid::new(NodeId(0), 1)));
                *barrier
            }
            other => panic!("unexpected {}", other.label()),
        })
        .collect();
    let want: Vec<u32> = (0..3).map(|i| AUTO_BARRIER_BASE + i).collect();
    assert_eq!(entered, want);
    let waited = c.port.span_seqs(TraceSpanKind::BarrierWait);
    assert!(waited.into_iter().eq(want.iter().map(|&b| u64::from(b))));
    assert_eq!(c.port.samples("sync", "barrier_wait_ns"), 3);
    assert!(c.port.answers.is_empty(), "every release was consumed");
}

#[test]
fn a_release_and_a_grant_are_acquire_points_and_an_unlock_is_not() {
    let mut c = ctx();
    c.barrier();
    assert_eq!(c.port.purges, 1, "barrier release");
    c.lock(9);
    assert_eq!(c.port.purges, 2, "lock grant");
    c.unlock(9);
    assert_eq!(c.port.purges, 2, "unlock only releases");
    assert!(c.port.answers.is_empty());
    let lock_req = match &c.port.sent[1].1 {
        Message::LockReq { req, lock: 9, .. } => req.0,
        other => panic!("unexpected {}", other.label()),
    };
    assert_eq!(c.port.span_seqs(TraceSpanKind::LockWait), [lock_req]);
    assert!(matches!(
        c.port.sent[2].1,
        Message::UnlockReq { lock: 9, .. }
    ));
    // A round completed in place (the simulator's node 0) is as much an
    // acquire point as one a release message ends, and waits for nothing.
    c.port.barriers_complete_in_place = true;
    c.barrier();
    assert_eq!(c.port.purges, 3);
    assert_eq!(c.port.samples("sync", "barrier_wait_ns"), 2);
    assert_eq!(c.port.samples("sync", "lock_wait_ns"), 1);
}

#[test]
fn fetch_add_returns_the_previous_value_own_node_and_remote() {
    let mut c = ctx();
    let region = c.port.region;
    for offset in [16, 2048] {
        assert_eq!(c.gm_fetch_add(region, offset, 5), 0);
        assert_eq!(c.gm_fetch_add(region, offset, -2), 5);
        let cell = &c.port.contents()[offset as usize..offset as usize + 8];
        assert_eq!(i64::from_le_bytes(cell.try_into().unwrap()), 3);
    }
    // Only the remote cell went on the wire, and only it is sampled; every
    // call is one operation.
    assert_eq!(c.port.sent.len(), 2);
    assert_eq!(c.port.done.len(), 2);
    assert_eq!(c.port.samples("gm", "fetch_add_ns"), 2);
    assert_eq!(c.port.span_seqs(TraceSpanKind::GmBlock), [0, 1]);
    assert_eq!(c.port.counter("gm_ops"), 4);
    assert_eq!(c.port.counter("fetch_adds"), 2, "own-node ones count here");
}

#[test]
fn a_size_mismatched_collective_alloc_fails_with_the_one_message() {
    let mut rank0 = ctx();
    let first = rank0.gm_alloc(100, Distribution::Blocked);
    let second = rank0.gm_alloc(8, Distribution::OnNode(NodeId(1)));
    // Another rank of the same cluster: a new context over the same store.
    let mut rank1 = over(rank0.port, 1);
    assert_eq!(rank1.gm_alloc(100, Distribution::Blocked), first);
    let text = panic_text(|| {
        rank1.gm_alloc(16, Distribution::OnNode(NodeId(1)));
    });
    assert_eq!(rank1.port.store.region_count(), 3, "nothing was allocated");
    assert!(
        text.contains("collective allocation #1 size mismatch: ranks disagree"),
        "{text}"
    );
    assert_ne!(first, second);
}

#[test]
fn a_bad_atomic_cell_fails_the_caller_before_anything_is_sent() {
    // Misaligned and past the end, both homed remotely; then a cell that
    // straddles two homes (chunks of 1020 bytes).
    let cases = [
        (FakePort::new(4, 4096, |_| 0), 1027, "bad atomic cell"),
        (FakePort::new(4, 4096, |_| 0), 4096, "out-of-bounds access"),
        (FakePort::new(4, 4080, |_| 0), 1016, "bad atomic cell"),
    ];
    for (port, offset, why) in cases {
        let mut c = over(port, 0);
        let region = c.port.region;
        let text = panic_text(|| {
            c.gm_fetch_add(region, offset, 1);
        });
        assert!(
            text.starts_with("gm_fetch_add failed: ") && text.contains(why),
            "offset {offset}: {text}"
        );
        assert!(c.port.sent.is_empty(), "offset {offset}: {:?}", c.port.sent);
        assert!(c.port.contents().iter().all(|&b| b == 0));
    }
}
