//! Property test of [`GmClient`] alone: random scripts of blocking and
//! split-phase reads and writes, waits, fences and acquires, driven against
//! the recording fake port with a randomly permuted (per-home FIFO)
//! completion order, with the replica cache on and off and with windows
//! small enough to backpressure, always equal a flat mirror. Reads come in
//! two sizes, so a handle may be a few bytes copied out of a response, a
//! view of a bulk response that covers it, or assembled from several homes,
//! the own node and replica hits: the bytes are the store's either way. Over
//! a lossy wire (seeded drops and duplicates of answers, the client
//! retransmitting) every handle still redeems the mirror's bytes, and each
//! request's answer is applied once.

use std::time::Duration;

use proptest::prelude::*;

use dse_api::{GmClient, GmHandle};
use dse_transport::RetryPolicy;

#[path = "support/fake_port.rs"]
mod fake_port;
use fake_port::FakePort;

/// Four homes of 16 KiB: one home can answer a bulk read whole, and a
/// longer one crosses into the next (for ranks of home 0: the own node).
const LEN: usize = 64 * 1024;

#[derive(Debug, Clone)]
enum Op {
    /// (offset, length): blocking read, checked at once.
    Read(u16, u16),
    /// (offset, length): blocking read into a caller's buffer.
    ReadInto(u16, u16),
    /// (offset, length): split-phase read, checked when redeemed.
    ReadNb(u16, u16),
    /// (length): split-phase read starting where the last read ended, so
    /// runs of them coalesce.
    ReadNbNext(u16),
    /// (offset, length, byte): blocking write.
    Write(u16, u8, u8),
    /// (offset, length, byte): split-phase write.
    WriteNb(u16, u8, u8),
    /// Redeem the n-th (mod count) outstanding handle.
    Wait(u8),
    Fence,
    Acquire,
}

/// A read length: a few bytes to three cache blocks, or bulk — up to past
/// a whole home.
fn arb_len() -> impl Strategy<Value = u16> {
    prop_oneof![1u16..1500, 4000u16..20_000]
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u16>(), arb_len()).prop_map(|(o, l)| Op::Read(o, l)),
            (any::<u16>(), arb_len()).prop_map(|(o, l)| Op::ReadInto(o, l)),
            (any::<u16>(), arb_len()).prop_map(|(o, l)| Op::ReadNb(o, l)),
            arb_len().prop_map(Op::ReadNbNext),
            (any::<u16>(), 1u8..200, any::<u8>()).prop_map(|(o, l, v)| Op::Write(o, l, v)),
            (any::<u16>(), 1u8..200, any::<u8>()).prop_map(|(o, l, v)| Op::WriteNb(o, l, v)),
            any::<u8>().prop_map(Op::Wait),
            Just(Op::Fence),
            Just(Op::Acquire),
        ],
        1..40,
    )
}

/// Clamp a scripted range into the region.
fn span(off: u16, len: usize) -> (usize, usize) {
    let off = off as usize % LEN;
    (off, len.min(LEN - off))
}

fn run_script(
    ops: Vec<Op>,
    seed: u64,
    window: usize,
    caching: bool,
    write_gates: usize,
    lossy: bool,
) {
    let mut port = FakePort::new(4, LEN, |i| (i % 251) as u8);
    port.seed = seed;
    port.caching = caching;
    port.write_gates = write_gates;
    if lossy {
        // One answer in four lost and one in four delivered twice; with 64
        // sends allowed, giving up is not a case this test meets.
        port.retry = Some(RetryPolicy {
            max_attempts: 64,
            base_delay: Duration::from_nanos(16),
            max_delay: Duration::from_nanos(1024),
        });
        (port.drop_one_in, port.dup_one_in) = (4, 4);
    }
    let region = port.region;
    let mut client = GmClient::new(window);
    let mut mirror: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
    // Outstanding handles with what redeeming them must yield: a read sees
    // the mirror as of its issue (program order per home, one client).
    let mut outstanding: Vec<(GmHandle, Option<Vec<u8>>)> = Vec::new();
    // Where the last scripted read ended.
    let mut cursor = 0u16;
    for op in ops {
        let op = match op {
            Op::ReadNbNext(l) => Op::ReadNb(cursor, l),
            op => op,
        };
        if let Op::Read(o, l) | Op::ReadInto(o, l) | Op::ReadNb(o, l) = op {
            let (off, len) = span(o, l as usize);
            cursor = ((off + len) % LEN) as u16;
        }
        match op {
            Op::Read(o, l) => {
                let (off, len) = span(o, l as usize);
                let got = client.read(&mut port, region, off as u64, len);
                assert_eq!(got, mirror[off..off + len], "blocking read at {off}+{len}");
            }
            Op::ReadInto(o, l) => {
                let (off, len) = span(o, l as usize);
                let mut got = vec![0xEE; len];
                client.read_into(&mut port, region, off as u64, &mut got);
                assert_eq!(got, mirror[off..off + len], "read_into at {off}+{len}");
            }
            Op::ReadNb(o, l) => {
                let (off, len) = span(o, l as usize);
                let h = client.read_nb(&mut port, region, off as u64, len);
                outstanding.push((h, Some(mirror[off..off + len].to_vec())));
            }
            Op::Write(o, l, v) => {
                let (off, len) = span(o, l as usize);
                mirror[off..off + len].fill(v);
                client.write(&mut port, region, off as u64, &vec![v; len]);
            }
            Op::WriteNb(o, l, v) => {
                let (off, len) = span(o, l as usize);
                mirror[off..off + len].fill(v);
                let h = client.write_nb(&mut port, region, off as u64, &vec![v; len]);
                outstanding.push((h, None));
            }
            Op::Wait(n) if !outstanding.is_empty() => {
                let (h, want) = outstanding.remove(n as usize % outstanding.len());
                assert_eq!(client.wait(&mut port, h), want, "redeemed handle");
            }
            Op::Wait(_) => {}
            Op::ReadNbNext(_) => unreachable!("rewritten above"),
            Op::Fence => client.fence(&mut port),
            Op::Acquire => client.acquire(&mut port),
        }
    }
    assert!(port.gauge("gm_inflight") <= window as u64, "window overrun");
    for (h, want) in outstanding {
        assert_eq!(
            client.wait(&mut port, h),
            want,
            "handle redeemed at the end"
        );
    }
    client.fence(&mut port);
    assert_eq!(client.inflight(), 0);
    assert_eq!(port.unanswered(), 0);
    // One latency sample per request: no answer, first or duplicate, was
    // applied twice.
    let applied: u64 = ["remote_read_ns", "remote_write_ns", "batch_ns"]
        .iter()
        .map(|name| port.samples("gm", name))
        .sum();
    assert_eq!(applied, port.counter("gm_request_msgs"));
    assert_eq!(
        port.contents(),
        mirror,
        "the homes diverged from the mirror"
    );
    let whole = client.read(&mut port, region, 0, LEN);
    assert_eq!(whole, mirror, "a final full read diverged from the mirror");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gm_client_scripts_match_flat_mirror(
        ops in arb_ops(),
        seed in any::<u64>(),
        window in 1usize..6,
        caching in any::<bool>(),
        write_gates in 0usize..3,
        lossy in any::<bool>(),
    ) {
        run_script(ops, seed, window, caching, write_gates, lossy);
    }

    /// A home that answers a read with the wrong number of bytes fails the
    /// request, whether the handle would have copied the payload or kept
    /// it: the length is checked before either.
    #[test]
    fn a_read_response_of_the_wrong_length_is_a_protocol_error(
        off in 0u64..8192,
        len in arb_len(),
        forged in arb_len(),
    ) {
        let (len, forged) = (len as usize % 8192 + 1, forged as usize % 8192 + 1);
        let mut port = FakePort::new(4, LEN, |i| (i % 251) as u8);
        port.forged_read_len = Some(forged);
        let region = port.region;
        let mut client = GmClient::new(4);
        // Entirely inside home 1, so one request, one response.
        let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            client.read(&mut port, region, 16 * 1024 + off, len)
        }));
        if forged == len {
            prop_assert_eq!(read.ok().map(|data| data.len()), Some(len));
        } else {
            // The fake port's `protocol_error` panics with the error.
            let panic = read.expect_err("a forged length must not be accepted");
            let text = panic.downcast_ref::<String>().expect("a formatted panic");
            let want = format!("GM request 0: expected {len} bytes, got {forged} bytes");
            prop_assert_eq!(text, &want);
        }
    }
}
