//! Property tests: any structurally valid message survives an encode/decode
//! roundtrip, and arbitrary byte soup never panics the decoder.

use dse_msg::{
    encode_bye, encode_frame, encode_frame_ctx, FrameDecoder, FrameEvent, GlobalPid, GmOp, Message,
    NodeId, RegionId, ReqId, TraceCtx,
};
use proptest::prelude::*;

fn arb_pid() -> impl Strategy<Value = GlobalPid> {
    (any::<u16>(), any::<u16>()).prop_map(|(n, l)| GlobalPid::new(NodeId(n), l))
}

fn arb_gm_op() -> impl Strategy<Value = GmOp> {
    let data = proptest::collection::vec(any::<u8>(), 0..256);
    prop_oneof![
        (any::<u32>(), any::<u64>(), any::<u32>()).prop_map(|(g, o, l)| GmOp::Read {
            region: RegionId(g),
            offset: o,
            len: l,
        }),
        (any::<u32>(), any::<u64>(), data).prop_map(|(g, o, d)| GmOp::Write {
            region: RegionId(g),
            offset: o,
            data: d.into(),
        }),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    let data = proptest::collection::vec(any::<u8>(), 0..2048);
    let ops = proptest::collection::vec(arb_gm_op(), 0..8);
    let reads = proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..256), 0..8);
    prop_oneof![
        (any::<u64>(), ops).prop_map(|(r, ops)| Message::GmBatchReq { req: ReqId(r), ops }),
        (any::<u64>(), reads).prop_map(|(r, reads)| Message::GmBatchResp {
            req: ReqId(r),
            reads: reads.into_iter().map(Into::into).collect(),
        }),
        (any::<u64>(), any::<u32>(), any::<u64>(), any::<u32>()).prop_map(|(r, g, o, l)| {
            Message::GmReadReq {
                req: ReqId(r),
                region: RegionId(g),
                offset: o,
                len: l,
            }
        }),
        (any::<u64>(), data.clone()).prop_map(|(r, d)| Message::GmReadResp {
            req: ReqId(r),
            data: d.into()
        }),
        (any::<u64>(), any::<u32>(), any::<u64>(), data.clone()).prop_map(|(r, g, o, d)| {
            Message::GmWriteReq {
                req: ReqId(r),
                region: RegionId(g),
                offset: o,
                data: d.into(),
            }
        }),
        any::<u64>().prop_map(|r| Message::GmWriteAck { req: ReqId(r) }),
        (any::<u64>(), any::<u32>(), any::<u64>(), any::<i64>()).prop_map(|(r, g, o, d)| {
            Message::GmFetchAddReq {
                req: ReqId(r),
                region: RegionId(g),
                offset: o,
                delta: d,
            }
        }),
        (any::<u64>(), any::<i64>()).prop_map(|(r, p)| Message::GmFetchAddResp {
            req: ReqId(r),
            prev: p
        }),
        (any::<u64>(), any::<u32>(), any::<u64>(), any::<u32>()).prop_map(|(r, g, o, l)| {
            Message::GmInvalidate {
                req: ReqId(r),
                region: RegionId(g),
                offset: o,
                len: l,
            }
        }),
        any::<u64>().prop_map(|r| Message::GmInvalidateAck { req: ReqId(r) }),
        (any::<u64>(), any::<u32>(), data.clone()).prop_map(|(r, k, a)| Message::InvokeReq {
            req: ReqId(r),
            rank: k,
            args: a
        }),
        (any::<u64>(), arb_pid()).prop_map(|(r, p)| Message::InvokeAck {
            req: ReqId(r),
            pid: p
        }),
        (arb_pid(), any::<i32>()).prop_map(|(p, s)| Message::ExitNotice { pid: p, status: s }),
        (any::<u64>(), arb_pid()).prop_map(|(r, p)| Message::TerminateReq {
            req: ReqId(r),
            pid: p
        }),
        any::<u64>().prop_map(|r| Message::TerminateAck { req: ReqId(r) }),
        (any::<u32>(), arb_pid()).prop_map(|(b, p)| Message::BarrierEnter { barrier: b, pid: p }),
        (any::<u32>(), any::<u32>()).prop_map(|(b, e)| Message::BarrierRelease {
            barrier: b,
            epoch: e
        }),
        (any::<u64>(), any::<u32>(), arb_pid()).prop_map(|(r, l, p)| Message::LockReq {
            req: ReqId(r),
            lock: l,
            pid: p
        }),
        (any::<u64>(), any::<u32>()).prop_map(|(r, l)| Message::LockGrant {
            req: ReqId(r),
            lock: l
        }),
        (any::<u32>(), arb_pid()).prop_map(|(l, p)| Message::UnlockReq { lock: l, pid: p }),
        (arb_pid(), any::<u32>(), data.clone()).prop_map(|(f, t, d)| Message::UserData {
            from: f,
            tag: t,
            data: d
        }),
        (any::<u32>(), any::<u32>(), data).prop_map(|(pe, s, p)| Message::Telemetry {
            pe,
            seq: s,
            payload: p
        }),
        Just(Message::KernelShutdown),
    ]
}

/// A write request whose payload is `seed` repeated out to one of three
/// sizes: a few bytes, just past the bulk threshold, past the decoder's
/// high-water mark.
fn arb_sized_write() -> impl Strategy<Value = Message> {
    let seed = proptest::collection::vec(any::<u8>(), 1..48);
    (any::<u64>(), seed, 0usize..3).prop_map(|(r, seed, class)| {
        let len = [seed.len(), 4096 + seed.len(), 70_000 + seed.len()][class];
        Message::GmWriteReq {
            req: ReqId(r),
            region: RegionId(1),
            offset: r,
            data: seed
                .iter()
                .copied()
                .cycle()
                .take(len)
                .collect::<Vec<u8>>()
                .into(),
        }
    })
}

/// Everything a decoder says about `stream` cut at `cuts`: the events up
/// to the first framing error, and that error. `feed` pushes one piece.
fn decode_pieces(
    stream: &[u8],
    cuts: &[usize],
    feed: impl Fn(&mut FrameDecoder, &[u8]),
) -> (Vec<FrameEvent>, Option<dse_msg::CodecError>) {
    let mut dec = FrameDecoder::new();
    let mut events = Vec::new();
    let mut at = 0;
    for &cut in cuts.iter().chain([&stream.len()]) {
        feed(&mut dec, &stream[at..cut]);
        at = cut;
        loop {
            match dec.next_frame() {
                Ok(Some(ev)) => events.push(ev),
                Ok(None) => break,
                Err(e) => return (events, Some(e)),
            }
        }
    }
    (events, None)
}

proptest! {
    #[test]
    fn roundtrip(msg in arb_message()) {
        let buf = msg.encode();
        prop_assert_eq!(buf.len(), msg.wire_len());
        let back = Message::decode(&buf).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn truncation_always_detected(msg in arb_message(), cut in 1usize..32) {
        let buf = msg.encode();
        if cut < buf.len() {
            let short = &buf[..buf.len() - cut];
            // Either a decode error, or (if the prefix happens to parse as a
            // shorter valid message) a different message — never equal bytes.
            if let Ok(back) = Message::decode(short) {
                prop_assert_ne!(back.encode(), buf);
            }
        }
    }

    #[test]
    fn decode_prefix_walks_concatenated_messages(
        msgs in proptest::collection::vec(arb_message(), 1..6)
    ) {
        let mut buf = Vec::new();
        for m in &msgs {
            buf.extend_from_slice(&m.encode());
        }
        let mut at = 0usize;
        for m in &msgs {
            let (back, used) = Message::decode_prefix(&buf[at..]).unwrap();
            prop_assert_eq!(&back, m);
            prop_assert_eq!(used, m.wire_len());
            at += used;
        }
        prop_assert_eq!(at, buf.len());
    }

    #[test]
    fn framed_stream_survives_arbitrary_chunking(
        msgs in proptest::collection::vec(arb_message(), 1..6),
        chunk in 1usize..64
    ) {
        let mut stream = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            stream.extend_from_slice(&encode_frame(i as u64, m));
        }
        stream.extend_from_slice(&encode_bye(msgs.len() as u64));

        let mut dec = FrameDecoder::new();
        let mut events = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.push(piece);
            while let Some(ev) = dec.next_frame().unwrap() {
                events.push(ev);
            }
        }
        prop_assert_eq!(events.len(), msgs.len() + 1);
        for (i, m) in msgs.iter().enumerate() {
            prop_assert_eq!(
                &events[i],
                &FrameEvent::Msg { seq: i as u64, msg: m.clone(), ctx: None }
            );
        }
        prop_assert_eq!(&events[msgs.len()], &FrameEvent::Bye { seq: msgs.len() as u64 });
        prop_assert!(!dec.has_partial());
    }

    /// Zero-copy equivalence: frames decoded through the shared reassembly
    /// buffer (payload views borrow the decoder's storage) must be
    /// byte-identical to an owned decode of the same payloads, for any
    /// message mix and any chunk boundary. Events are held across
    /// subsequent pushes so live views force the decoder's copy-on-shared
    /// path as well as the in-place path.
    #[test]
    fn shared_buffer_decode_matches_owned_decode(
        msgs in proptest::collection::vec(arb_message(), 1..6),
        chunk in 1usize..64
    ) {
        let mut stream = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            stream.extend_from_slice(&encode_frame(i as u64, m));
        }
        let mut dec = FrameDecoder::new();
        let mut shared = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.push(piece);
            while let Some(ev) = dec.next_frame().unwrap() {
                shared.push(ev);
            }
        }
        let owned: Vec<Message> = msgs
            .iter()
            .map(|m| Message::decode(&m.encode()).unwrap())
            .collect();
        prop_assert_eq!(shared.len(), owned.len());
        for (ev, want) in shared.iter().zip(&owned) {
            match ev {
                FrameEvent::Msg { msg, .. } => {
                    prop_assert_eq!(msg, want);
                    prop_assert_eq!(msg.encode(), want.encode());
                }
                other => prop_assert!(false, "expected Msg frame, got {:?}", other),
            }
        }
    }

    /// Adoption is invisible: one byte stream — small, bulk and oversized
    /// frames, whole or cut anywhere, intact or with a corrupted byte — fed
    /// through `push` and through `push_owned` yields the same events and
    /// the same framing error. Events are held to the end, so adopted and
    /// copied-into buffers alike stay pinned by their views.
    #[test]
    fn push_owned_decodes_like_push(
        msgs in proptest::collection::vec(arb_sized_write(), 1..5),
        cuts_in in proptest::collection::vec(any::<u32>(), 0..6),
        corrupt in (any::<bool>(), any::<u32>(), 1u16..256),
    ) {
        let mut stream = Vec::new();
        let mut cuts: Vec<usize> = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            stream.extend_from_slice(&encode_frame(i as u64, m));
            // Most deliveries are whole frames, as on the channel transport.
            cuts.push(stream.len());
        }
        cuts.extend(cuts_in.iter().map(|&c| c as usize % stream.len()));
        cuts.sort_unstable();
        if let (true, at, flip) = corrupt {
            let at = at as usize % stream.len();
            stream[at] ^= flip as u8;
        }
        let copied = decode_pieces(&stream, &cuts, |d, piece| d.push(piece));
        let adopted = decode_pieces(&stream, &cuts, |d, piece| {
            d.push_owned(piece.to_vec());
        });
        prop_assert_eq!(&adopted, &copied);
        if !corrupt.0 {
            prop_assert_eq!(adopted.1, None);
            prop_assert_eq!(adopted.0.len(), msgs.len());
        }
    }

    /// Traced frames round-trip the context for any message and any id
    /// pair, under arbitrary stream chunking, interleaved with untraced
    /// frames — and an untraced frame never grows a context.
    #[test]
    fn traced_frames_roundtrip_ctx_under_chunking(
        msgs in proptest::collection::vec(
            (arb_message(), any::<bool>(), any::<u64>(), any::<u64>()),
            1..6
        ),
        chunk in 1usize..64
    ) {
        let msgs: Vec<(Message, Option<(u64, u64)>)> = msgs
            .into_iter()
            .map(|(m, traced, t, p)| (m, traced.then_some((t, p))))
            .collect();
        let mut stream = Vec::new();
        for (i, (m, ctx)) in msgs.iter().enumerate() {
            let ctx = ctx.map(|(trace, parent)| TraceCtx { trace, parent });
            stream.extend_from_slice(&encode_frame_ctx(i as u64, m, ctx));
        }
        let mut dec = FrameDecoder::new();
        let mut events = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.push(piece);
            while let Some(ev) = dec.next_frame().unwrap() {
                events.push(ev);
            }
        }
        prop_assert_eq!(events.len(), msgs.len());
        for (i, (m, ctx)) in msgs.iter().enumerate() {
            let want_ctx = ctx.map(|(trace, parent)| TraceCtx { trace, parent });
            prop_assert_eq!(
                &events[i],
                &FrameEvent::Msg { seq: i as u64, msg: m.clone(), ctx: want_ctx }
            );
        }
        prop_assert_eq!(dec.dropped_trace_ctx(), 0);
        prop_assert!(!dec.has_partial());
    }
}
