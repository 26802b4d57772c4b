//! Property test of [`GmClient`] alone: random scripts of blocking and
//! split-phase reads and writes, waits, fences and acquires, driven against
//! the recording fake port with a randomly permuted (per-home FIFO)
//! completion order, with the replica cache on and off and with windows
//! small enough to backpressure, always equal a flat mirror.

use proptest::prelude::*;

use dse_api::{GmClient, GmHandle};

#[path = "support/fake_port.rs"]
mod fake_port;
use fake_port::FakePort;

const LEN: usize = 4096;

#[derive(Debug, Clone)]
enum Op {
    /// (offset, length): blocking read, checked at once.
    Read(u16, u16),
    /// (offset, length): split-phase read, checked when redeemed.
    ReadNb(u16, u16),
    /// (offset, length, byte): blocking write.
    Write(u16, u8, u8),
    /// (offset, length, byte): split-phase write.
    WriteNb(u16, u8, u8),
    /// Redeem the n-th (mod count) outstanding handle.
    Wait(u8),
    Fence,
    Acquire,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u16>(), 1u16..1500).prop_map(|(o, l)| Op::Read(o, l)),
            (any::<u16>(), 1u16..1500).prop_map(|(o, l)| Op::ReadNb(o, l)),
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

fn run_script(ops: Vec<Op>, seed: u64, window: usize, caching: bool, write_gates: usize) {
    let mut port = FakePort::new(4, LEN, |i| (i % 251) as u8);
    port.seed = seed;
    port.caching = caching;
    port.write_gates = write_gates;
    let region = port.region;
    let mut client = GmClient::new(window);
    let mut mirror: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
    // Outstanding handles with what redeeming them must yield: a read sees
    // the mirror as of its issue (program order per home, one client).
    let mut outstanding: Vec<(GmHandle, Option<Vec<u8>>)> = Vec::new();
    for op in ops {
        match op {
            Op::Read(o, l) => {
                let (off, len) = span(o, l as usize);
                let got = client.read(&mut port, region, off as u64, len);
                assert_eq!(got, mirror[off..off + len], "blocking read at {off}+{len}");
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
            Op::Fence => client.fence(&mut port),
            Op::Acquire => client.acquire(&mut port),
        }
        assert!(port.max_inflight <= window, "window overrun");
    }
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
    ) {
        run_script(ops, seed, window, caching, write_gates);
    }
}
