//! Length-prefixed framing for stream transports.
//!
//! The simulator delivers one encoded [`Message`] per simulated packet, so
//! message boundaries are implicit. A byte stream (TCP, Unix socket, or an
//! in-process pipe that models one) has no boundaries, so the live engine
//! wraps every message in a small frame:
//!
//! ```text
//! [u32 payload_len][u8 kind][u64 seq][payload: payload_len bytes]
//! ```
//!
//! * `payload_len` — length of the payload that follows the fixed header
//!   (little-endian, bounded by [`MAX_PAYLOAD`]);
//! * `kind` — [`FRAME_MSG`] for an encoded [`Message`], [`FRAME_BYE`] for
//!   the clean-shutdown handshake (empty payload). A peer that closes its
//!   stream *without* sending `Bye` is treated as dropped;
//! * `seq` — per-(sender → receiver) sequence number starting at 0 and
//!   incrementing by one per frame. Receivers verify continuity so a
//!   reordered or half-duplicated stream is caught immediately instead of
//!   corrupting global memory silently.
//!
//! When causal tracing is on, a message travels as a [`FRAME_MSG_TRACED`]
//! frame instead: the payload is prefixed with a small self-describing
//! trace-context extension —
//!
//! ```text
//! [u8 ext_len][u8 version=1][u64 trace_id][u64 parent_span][message payload]
//! ```
//!
//! The extension is *advisory*: a receiver that does not understand the
//! version (or finds the extension malformed) skips `ext_len` bytes, drops
//! the context, bumps [`dropped_trace_ctx`](FrameDecoder::dropped_trace_ctx)
//! and still decodes the message — a corrupt or future-version extension
//! never poisons the message it rides on. When tracing is off the plain
//! [`FRAME_MSG`] framing is byte-identical to the pre-extension format, so
//! the feature costs nothing on the wire for untraced runs and old frames
//! decode unchanged.
//!
//! [`FrameDecoder`] is the incremental counterpart: bytes arrive in
//! whatever chunks the kernel hands us and frames are reassembled across
//! chunk boundaries — concatenated frames in one read and a frame split
//! over many reads both decode to the same event stream.

use std::sync::Arc;

use crate::bytes::{is_bulk, Bytes};
use crate::codec::{CodecError, Reader, MAX_PAYLOAD};
use crate::message::Message;

/// Frame kind byte: the payload is one encoded [`Message`].
pub const FRAME_MSG: u8 = 0;
/// Frame kind byte: clean-shutdown handshake, empty payload.
pub const FRAME_BYE: u8 = 1;
/// Frame kind byte: a trace-context extension followed by one encoded
/// [`Message`].
pub const FRAME_MSG_TRACED: u8 = 2;

/// Fixed bytes before the payload: u32 length + u8 kind + u64 seq.
pub const FRAME_HEADER_LEN: usize = 4 + 1 + 8;

/// Trace-context extension version this codec emits.
pub const TRACE_EXT_VERSION: u8 = 1;
/// Byte length of a v1 trace-context extension: version + two span ids.
pub const TRACE_EXT_LEN: usize = 1 + 8 + 8;

/// Causal trace context carried alongside a message on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace this message belongs to (the root span's id).
    pub trace: u64,
    /// Span that caused this message (the receiver's parent span).
    pub parent: u64,
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameEvent {
    /// A message frame.
    Msg {
        /// Per-stream sequence number.
        seq: u64,
        /// The decoded message.
        msg: Message,
        /// Trace context, if the sender attached one and it survived.
        ctx: Option<TraceCtx>,
    },
    /// The peer announced a clean shutdown.
    Bye {
        /// Per-stream sequence number.
        seq: u64,
    },
}

/// Exact length of the frame [`encode_frame_ctx_into`] appends for `msg`.
pub fn frame_len(msg: &Message, ctx: Option<TraceCtx>) -> usize {
    let ext = if ctx.is_some() { 1 + TRACE_EXT_LEN } else { 0 };
    FRAME_HEADER_LEN + ext + msg.wire_len()
}

/// Append one message frame with sequence number `seq` to `buf`.
///
/// The payload is encoded straight into the frame buffer ([`Message::wire_len`]
/// is exact, so the length prefix is written up front) — no intermediate
/// payload `Vec`, and a pooled `buf` makes the whole send allocation-free.
pub fn encode_frame_into(buf: &mut Vec<u8>, seq: u64, msg: &Message) {
    let plen = msg.wire_len();
    buf.reserve(FRAME_HEADER_LEN + plen);
    buf.extend_from_slice(&(plen as u32).to_le_bytes());
    buf.push(FRAME_MSG);
    buf.extend_from_slice(&seq.to_le_bytes());
    msg.encode_into(buf);
}

/// Append one frame to `buf`, attaching `ctx` when present. With
/// `ctx == None` this is exactly [`encode_frame_into`] — untraced runs pay
/// nothing on the wire.
pub fn encode_frame_ctx_into(buf: &mut Vec<u8>, seq: u64, msg: &Message, ctx: Option<TraceCtx>) {
    let Some(ctx) = ctx else {
        return encode_frame_into(buf, seq, msg);
    };
    let total = 1 + TRACE_EXT_LEN + msg.wire_len();
    buf.reserve(FRAME_HEADER_LEN + total);
    buf.extend_from_slice(&(total as u32).to_le_bytes());
    buf.push(FRAME_MSG_TRACED);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.push(TRACE_EXT_LEN as u8);
    buf.push(TRACE_EXT_VERSION);
    buf.extend_from_slice(&ctx.trace.to_le_bytes());
    buf.extend_from_slice(&ctx.parent.to_le_bytes());
    msg.encode_into(buf);
}

/// Append a `Bye` (clean shutdown) frame with sequence number `seq`.
pub fn encode_bye_into(buf: &mut Vec<u8>, seq: u64) {
    buf.reserve(FRAME_HEADER_LEN);
    buf.extend_from_slice(&0u32.to_le_bytes());
    buf.push(FRAME_BYE);
    buf.extend_from_slice(&seq.to_le_bytes());
}

/// Encode `msg` as one message frame with sequence number `seq`.
pub fn encode_frame(seq: u64, msg: &Message) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + msg.wire_len());
    encode_frame_into(&mut buf, seq, msg);
    buf
}

/// Encode `msg` as one frame into a fresh buffer, attaching `ctx` when
/// present.
pub fn encode_frame_ctx(seq: u64, msg: &Message, ctx: Option<TraceCtx>) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_frame_ctx_into(&mut buf, seq, msg, ctx);
    buf
}

/// Encode a `Bye` (clean shutdown) frame with sequence number `seq`.
pub fn encode_bye(seq: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN);
    encode_bye_into(&mut buf, seq);
    buf
}

/// Consumed-prefix length that triggers compaction of the reassembly
/// buffer on the next [`FrameDecoder::push`].
const COMPACT_AT: usize = 4096;

/// Capacity high-water mark for the reassembly buffer: after a burst of
/// large frames (a big GM batch response), capacity above this is released
/// once the buffered remainder fits comfortably below it. Without the cap
/// every per-peer decoder quietly pins the largest frame it ever saw — at
/// 1,024 PEs that is real memory creep.
pub const DECODER_HIGH_WATER: usize = 64 * 1024;

/// Incremental frame reassembler for one receive direction of a stream.
///
/// Feed raw bytes with [`push`](FrameDecoder::push) as they arrive, then
/// drain complete frames with [`next_frame`](FrameDecoder::next_frame) until it
/// returns `Ok(None)` (meaning: need more bytes).
///
/// The reassembly buffer is shared storage: decoded messages' payload
/// fields are [`Bytes`] views into it, so draining a frame copies nothing.
/// Once those views drop, the buffer is unique again and the next `push`
/// appends in place — the steady-state receive path allocates nothing.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Arc<Vec<u8>>,
    start: usize,
    dropped_trace_ctx: u64,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder {
            buf: Arc::new(Vec::new()),
            start: 0,
            dropped_trace_ctx: 0,
        }
    }
}

impl FrameDecoder {
    /// Fresh decoder with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trace-context extensions this stream dropped because they were
    /// malformed or of an unknown version. The messages themselves were
    /// decoded normally.
    pub fn dropped_trace_ctx(&self) -> u64 {
        self.dropped_trace_ctx
    }

    /// Append a received buffer the caller no longer needs. A bulk buffer
    /// that arrives with nothing unconsumed in front of it *becomes* the
    /// reassembly buffer — no copy; whatever it displaces is dropped, or
    /// left to the payload views still pinning it. Anything else is copied
    /// as by [`push`](FrameDecoder::push) and handed back for recycling.
    pub fn push_owned(&mut self, bytes: Vec<u8>) -> Option<Vec<u8>> {
        if is_bulk(bytes.len()) && self.buffered() == 0 {
            self.buf = Arc::new(bytes);
            self.start = 0;
            return None;
        }
        self.push(&bytes);
        Some(bytes)
    }

    /// Append newly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        match Arc::get_mut(&mut self.buf) {
            Some(v) => {
                // Reclaim consumed prefix before growing, so long-lived
                // streams don't accumulate dead bytes.
                if self.start > 0 && (self.start >= COMPACT_AT || self.start == v.len()) {
                    v.drain(..self.start);
                    self.start = 0;
                }
                // Release capacity pinned by a past large frame once the
                // live remainder is small again.
                if v.capacity() > DECODER_HIGH_WATER
                    && v.len() + bytes.len() <= DECODER_HIGH_WATER / 2
                {
                    v.shrink_to(DECODER_HIGH_WATER / 2);
                }
                v.extend_from_slice(bytes);
            }
            None => {
                // Earlier frames' payload views still pin the buffer:
                // leave it to them and restart from the unconsumed tail.
                let tail = &self.buf[self.start..];
                let mut v = Vec::with_capacity(tail.len() + bytes.len());
                v.extend_from_slice(tail);
                v.extend_from_slice(bytes);
                self.buf = Arc::new(v);
                self.start = 0;
            }
        }
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Current capacity of the reassembly buffer (observability for the
    /// high-water shrink policy).
    pub fn buffer_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// True if a partial frame is sitting in the buffer — used to tell a
    /// clean EOF from a connection cut mid-frame.
    pub fn has_partial(&self) -> bool {
        self.buffered() > 0
    }

    /// Try to decode the next complete frame. `Ok(None)` means more bytes
    /// are needed; errors are fatal for the stream (corrupt framing).
    pub fn next_frame(&mut self) -> Result<Option<FrameEvent>, CodecError> {
        let pending = &self.buf[self.start..];
        if pending.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let mut r = Reader::new(pending);
        let payload_len = r.u32()? as usize;
        if payload_len > MAX_PAYLOAD {
            return Err(CodecError::BadLength(payload_len as u64));
        }
        let kind = r.u8()?;
        let seq = r.u64()?;
        if pending.len() < FRAME_HEADER_LEN + payload_len {
            return Ok(None);
        }
        let payload_at = self.start + FRAME_HEADER_LEN;
        let payload = &pending[FRAME_HEADER_LEN..FRAME_HEADER_LEN + payload_len];
        let event = match kind {
            FRAME_MSG => {
                let body = Bytes::from_arc(Arc::clone(&self.buf), payload_at, payload_len);
                FrameEvent::Msg {
                    seq,
                    msg: Message::decode_shared(&body)?,
                    ctx: None,
                }
            }
            FRAME_MSG_TRACED => {
                // [u8 ext_len][ext][message]. A truncated ext_len makes the
                // message boundary unrecoverable — that is fatal framing
                // corruption. A well-delimited but unintelligible extension
                // (wrong version, wrong size) is merely dropped.
                if payload_len == 0 {
                    return Err(CodecError::BadLength(0));
                }
                let ext_len = payload[0] as usize;
                if 1 + ext_len > payload_len {
                    return Err(CodecError::BadLength(ext_len as u64));
                }
                let ext = &payload[1..1 + ext_len];
                let ctx = if ext_len == TRACE_EXT_LEN && ext[0] == TRACE_EXT_VERSION {
                    let mut r = Reader::new(&ext[1..]);
                    let trace = r.u64()?;
                    let parent = r.u64()?;
                    Some(TraceCtx { trace, parent })
                } else {
                    self.dropped_trace_ctx += 1;
                    None
                };
                let body = Bytes::from_arc(
                    Arc::clone(&self.buf),
                    payload_at + 1 + ext_len,
                    payload_len - 1 - ext_len,
                );
                FrameEvent::Msg {
                    seq,
                    msg: Message::decode_shared(&body)?,
                    ctx,
                }
            }
            FRAME_BYE => {
                if payload_len != 0 {
                    return Err(CodecError::BadLength(payload_len as u64));
                }
                FrameEvent::Bye { seq }
            }
            other => return Err(CodecError::BadTag(other)),
        };
        self.start += FRAME_HEADER_LEN + payload_len;
        Ok(Some(event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Writer;
    use crate::ids::{RegionId, ReqId};

    fn sample_msg(i: u64) -> Message {
        Message::GmReadReq {
            req: ReqId(i),
            region: RegionId(7),
            offset: i * 8,
            len: 64,
        }
    }

    #[test]
    fn frame_roundtrip_single() {
        let msg = sample_msg(1);
        let buf = encode_frame(42, &msg);
        let mut d = FrameDecoder::new();
        d.push(&buf);
        assert_eq!(
            d.next_frame().unwrap(),
            Some(FrameEvent::Msg {
                seq: 42,
                msg,
                ctx: None
            })
        );
        assert_eq!(d.next_frame().unwrap(), None);
        assert!(!d.has_partial());
    }

    #[test]
    fn concatenated_frames_decode_in_order() {
        let mut buf = Vec::new();
        for i in 0..5u64 {
            buf.extend_from_slice(&encode_frame(i, &sample_msg(i)));
        }
        let mut d = FrameDecoder::new();
        d.push(&buf);
        for i in 0..5u64 {
            match d.next_frame().unwrap() {
                Some(FrameEvent::Msg { seq, msg, ctx }) => {
                    assert_eq!(seq, i);
                    assert_eq!(msg, sample_msg(i));
                    assert_eq!(ctx, None);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(d.next_frame().unwrap(), None);
    }

    #[test]
    fn split_delivery_reassembles() {
        let frame = encode_frame(0, &sample_msg(9));
        let mut d = FrameDecoder::new();
        // Byte-at-a-time delivery: no frame until the last byte lands.
        for (i, b) in frame.iter().enumerate() {
            d.push(std::slice::from_ref(b));
            if i + 1 < frame.len() {
                assert_eq!(d.next_frame().unwrap(), None, "premature frame at byte {i}");
            }
        }
        assert!(matches!(
            d.next_frame().unwrap(),
            Some(FrameEvent::Msg { seq: 0, .. })
        ));
    }

    #[test]
    fn bye_frame_roundtrip() {
        let mut d = FrameDecoder::new();
        d.push(&encode_bye(3));
        assert_eq!(d.next_frame().unwrap(), Some(FrameEvent::Bye { seq: 3 }));
    }

    #[test]
    fn bad_kind_rejected() {
        let mut raw = encode_bye(0);
        raw[4] = 0x77; // corrupt the kind byte
        let mut d = FrameDecoder::new();
        d.push(&raw);
        assert_eq!(d.next_frame(), Err(CodecError::BadTag(0x77)));
    }

    #[test]
    fn implausible_length_rejected() {
        let mut w = Writer::new();
        w.u32(u32::MAX);
        w.u8(FRAME_MSG);
        w.u64(0);
        let mut d = FrameDecoder::new();
        d.push(&w.finish());
        assert!(matches!(d.next_frame(), Err(CodecError::BadLength(_))));
    }

    #[test]
    fn buffer_compaction_does_not_lose_frames() {
        let mut d = FrameDecoder::new();
        // Enough frames to force the drain path several times over.
        for round in 0..200u64 {
            d.push(&encode_frame(round, &sample_msg(round)));
            match d.next_frame().unwrap() {
                Some(FrameEvent::Msg { seq, .. }) => assert_eq!(seq, round),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(!d.has_partial());
    }

    #[test]
    fn reassembly_buffer_shrinks_after_large_frame() {
        let mut d = FrameDecoder::new();
        // One huge write frame balloons the buffer well past the cap...
        let big = Message::GmWriteReq {
            req: ReqId(1),
            region: RegionId(0),
            offset: 0,
            data: vec![0xAB; 4 * DECODER_HIGH_WATER].into(),
        };
        d.push(&encode_frame(0, &big));
        assert!(matches!(
            d.next_frame().unwrap(),
            Some(FrameEvent::Msg { seq: 0, .. })
        ));
        assert!(d.buffer_capacity() > DECODER_HIGH_WATER);
        // ...then small steady-state traffic releases the excess capacity
        // instead of pinning largest-frame-ever forever.
        for i in 1..4u64 {
            d.push(&encode_frame(i, &sample_msg(i)));
            assert!(matches!(
                d.next_frame().unwrap(),
                Some(FrameEvent::Msg { .. })
            ));
        }
        assert!(
            d.buffer_capacity() <= DECODER_HIGH_WATER,
            "capacity {} still above high water",
            d.buffer_capacity()
        );
    }

    #[test]
    fn payload_views_share_reassembly_buffer() {
        // The decoded GmReadResp data must be a view into the decoder's
        // buffer (refcount > 1 while held), not a copy.
        let msg = Message::GmReadResp {
            req: ReqId(9),
            data: vec![0x5A; 256].into(),
        };
        let mut d = FrameDecoder::new();
        d.push(&encode_frame(0, &msg));
        let held = match d.next_frame().unwrap() {
            Some(FrameEvent::Msg { msg, .. }) => msg,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(Arc::strong_count(&d.buf), 2);
        // While the view is alive a push must not disturb its bytes.
        d.push(&encode_frame(1, &sample_msg(1)));
        match &held {
            Message::GmReadResp { data, .. } => assert_eq!(*data, vec![0x5A; 256]),
            other => panic!("unexpected {other:?}"),
        }
        drop(held);
        // View gone: the buffer is unique again for in-place appends.
        let _ = d.next_frame().unwrap();
        d.push(&[0u8]);
        assert_eq!(Arc::strong_count(&d.buf), 1);
    }

    fn write_of(len: usize) -> Message {
        Message::GmWriteReq {
            req: ReqId(1),
            region: RegionId(0),
            offset: 0,
            data: vec![0xAB; len].into(),
        }
    }

    #[test]
    fn frame_len_is_what_the_encoder_appends() {
        let ctx = Some(TraceCtx {
            trace: 1,
            parent: 2,
        });
        for msg in [sample_msg(1), write_of(5000)] {
            assert_eq!(encode_frame(0, &msg).len(), frame_len(&msg, None));
            assert_eq!(encode_frame_ctx(0, &msg, ctx).len(), frame_len(&msg, ctx));
        }
    }

    #[test]
    fn a_bulk_buffer_with_nothing_in_front_is_adopted_not_copied() {
        let mut d = FrameDecoder::new();
        // Small buffers are copied and come back for recycling.
        let small = encode_frame(0, &sample_msg(0));
        assert_eq!(d.push_owned(small.clone()), Some(small));
        assert!(d.next_frame().unwrap().is_some());
        // A bulk buffer behind a fully consumed one becomes the buffer.
        let bulk = encode_frame(1, &write_of(2 * DECODER_HIGH_WATER));
        let at = bulk.as_ptr();
        assert_eq!(d.push_owned(bulk), None);
        assert_eq!(d.buf.as_ptr(), at);
        let held = d.next_frame().unwrap().expect("the adopted frame");
        // Behind unconsumed bytes (half a frame) even a bulk buffer is copied.
        let next = encode_frame(2, &sample_msg(2));
        d.push(&next[..10]);
        let mut rest = next[10..].to_vec();
        rest.extend_from_slice(&encode_frame(3, &write_of(5000)));
        assert!(d.push_owned(rest).is_some());
        for seq in [2, 3] {
            assert!(matches!(
                d.next_frame().unwrap(),
                Some(FrameEvent::Msg { seq: s, .. }) if s == seq
            ));
        }
        // The held view kept the adopted buffer's bytes through all of it.
        match held {
            FrameEvent::Msg { msg, .. } => assert_eq!(msg, write_of(2 * DECODER_HIGH_WATER)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn capacity_falls_back_once_an_adopted_buffers_views_drop() {
        let mut d = FrameDecoder::new();
        assert_eq!(
            d.push_owned(encode_frame(0, &write_of(2 * DECODER_HIGH_WATER))),
            None
        );
        let held = d.next_frame().unwrap();
        assert!(d.buffer_capacity() > DECODER_HIGH_WATER);
        // Pinned by the view: the next push starts a buffer of its own size.
        d.push(&encode_frame(1, &sample_msg(1)));
        assert!(d.buffer_capacity() <= DECODER_HIGH_WATER);
        drop(held);
        // Unpinned and fully consumed: the next push shrinks it in place.
        let mut d = FrameDecoder::new();
        d.push_owned(encode_frame(0, &write_of(2 * DECODER_HIGH_WATER)));
        drop(d.next_frame().unwrap());
        d.push(&encode_frame(1, &sample_msg(1)));
        assert!(d.buffer_capacity() <= DECODER_HIGH_WATER);
        assert!(matches!(
            d.next_frame().unwrap(),
            Some(FrameEvent::Msg { seq: 1, .. })
        ));
    }

    // --- Trace-context extension (back-compat + degradation). -------------

    /// Byte image of the pre-extension format: `encode_frame` must still
    /// produce exactly `[len][kind=0][seq][payload]`, so frames written by
    /// an un-upgraded peer decode unchanged.
    #[test]
    fn pre_extension_frames_still_decode() {
        let msg = sample_msg(5);
        let payload = msg.encode();
        let mut legacy = Vec::new();
        legacy.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        legacy.push(FRAME_MSG);
        legacy.extend_from_slice(&11u64.to_le_bytes());
        legacy.extend_from_slice(&payload);
        assert_eq!(legacy, encode_frame(11, &msg));
        let mut d = FrameDecoder::new();
        d.push(&legacy);
        assert_eq!(
            d.next_frame().unwrap(),
            Some(FrameEvent::Msg {
                seq: 11,
                msg,
                ctx: None
            })
        );
        assert_eq!(d.dropped_trace_ctx(), 0);
    }

    #[test]
    fn encode_frame_ctx_without_ctx_is_plain_framing() {
        let msg = sample_msg(2);
        assert_eq!(encode_frame_ctx(7, &msg, None), encode_frame(7, &msg));
    }

    #[test]
    fn traced_frame_roundtrips() {
        let msg = sample_msg(3);
        let ctx = TraceCtx {
            trace: 0xDEAD_BEEF_0001,
            parent: 0xFACE_0002,
        };
        let buf = encode_frame_ctx(9, &msg, Some(ctx));
        let mut d = FrameDecoder::new();
        d.push(&buf);
        assert_eq!(
            d.next_frame().unwrap(),
            Some(FrameEvent::Msg {
                seq: 9,
                msg,
                ctx: Some(ctx)
            })
        );
        assert_eq!(d.dropped_trace_ctx(), 0);
    }

    #[test]
    fn corrupt_trace_ext_version_drops_ctx_not_message() {
        let msg = sample_msg(4);
        let ctx = TraceCtx {
            trace: 1,
            parent: 2,
        };
        let mut raw = encode_frame_ctx(0, &msg, Some(ctx));
        raw[FRAME_HEADER_LEN + 1] = 0x7F; // flip the ext version byte
        let mut d = FrameDecoder::new();
        d.push(&raw);
        assert_eq!(
            d.next_frame().unwrap(),
            Some(FrameEvent::Msg {
                seq: 0,
                msg,
                ctx: None
            })
        );
        assert_eq!(d.dropped_trace_ctx(), 1);
    }

    /// A future, longer extension we don't understand: skipped by length,
    /// counted, message intact.
    #[test]
    fn unknown_longer_ext_is_skipped_by_length() {
        let msg = sample_msg(6);
        let payload = msg.encode();
        let ext = [0u8; 24]; // version 0, 24 bytes — not ours
        let mut w = Writer::new();
        w.u32((1 + ext.len() + payload.len()) as u32);
        w.u8(FRAME_MSG_TRACED);
        w.u64(4);
        w.u8(ext.len() as u8);
        let mut raw = w.finish();
        raw.extend_from_slice(&ext);
        raw.extend_from_slice(&payload);
        let mut d = FrameDecoder::new();
        d.push(&raw);
        assert_eq!(
            d.next_frame().unwrap(),
            Some(FrameEvent::Msg {
                seq: 4,
                msg,
                ctx: None
            })
        );
        assert_eq!(d.dropped_trace_ctx(), 1);
    }

    /// An ext_len pointing past the payload leaves no recoverable message
    /// boundary — that is fatal framing corruption, like a bad kind byte.
    #[test]
    fn trace_ext_len_past_payload_is_fatal() {
        let msg = sample_msg(8);
        let mut raw = encode_frame_ctx(
            0,
            &msg,
            Some(TraceCtx {
                trace: 3,
                parent: 4,
            }),
        );
        raw[FRAME_HEADER_LEN] = 0xFF; // ext_len far beyond the payload
        let mut d = FrameDecoder::new();
        d.push(&raw);
        assert!(matches!(d.next_frame(), Err(CodecError::BadLength(_))));
    }
}
