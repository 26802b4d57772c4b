//! # dse-transport — the pluggable message-exchange substrate
//!
//! The paper's kernels talk to each other through a *message exchange
//! mechanism*: a request/response path over the LAN plus an own-node fast
//! path. This crate is that layer made pluggable. Everything above it —
//! the live engine's kernel loops, the Parallel API's request create /
//! response analyze modules, the telemetry plane — speaks [`Message`]s to
//! a [`Transport`] and never cares what carries the bytes.
//!
//! Two backends ship here, carrying the live engine's three transports
//! (channel, TCP, Unix sockets):
//!
//! * [`ChannelTransport`] — in-process queues carrying *encoded frames*.
//!   Even between threads of one process, every message is encoded, framed,
//!   sequence-checked, and decoded, so the wire path is always exercised.
//! * [`SocketTransport`] — real byte streams: framed TCP or Unix-domain
//!   sockets with connect retry under bounded exponential backoff, one
//!   poller thread per endpoint pumping bytes from every connection, and a
//!   `Bye` clean-shutdown handshake (an EOF without `Bye` is reported as a
//!   dropped peer).
//!
//! Both backends share frame format (see `dse_msg::frame`) and discipline,
//! one `FrameMux` per endpoint (`mux.rs`): length-prefixed frames,
//! per-(sender → receiver) sequence numbers verified on receipt, streaming
//! reassembly via `FrameDecoder` on the receiving thread. A backend only
//! says how bytes reach a peer's inbox.

#![warn(missing_docs)]

mod channel;
mod error;
mod fault;
mod mux;
mod socket;

use std::time::Duration;

use dse_msg::{Message, TraceCtx};

pub use channel::ChannelTransport;
pub use dse_msg::TraceCtx as MsgTraceCtx;
pub use error::TransportError;
pub use fault::{FaultPlan, FaultyTransport};
pub use mux::{BlockingQueue, Pop};
pub use socket::{RetryPolicy, SocketTransport};

/// One received message with its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sending PE.
    pub from: u32,
    /// Per-(sender → receiver) sequence number of the carrying frame.
    pub seq: u64,
    /// The decoded message.
    pub msg: Message,
    /// Causal trace context, when the sender attached one.
    pub ctx: Option<TraceCtx>,
}

/// A reliable, ordered, peer-addressed message carrier.
///
/// Implementations are internally synchronized: `send` may be called from
/// several threads (the kernel loop and the application thread both send),
/// while `recv` assumes a single consumer — the PE's kernel loop.
pub trait Transport: Send + Sync {
    /// This endpoint's PE rank.
    fn pe(&self) -> u32;

    /// Number of PEs in the cluster.
    fn npes(&self) -> u32;

    /// Send `msg` to PE `to` (sending to self is allowed and loops back).
    fn send(&self, to: u32, msg: &Message) -> Result<(), TransportError>;

    /// Send `msg` with a causal trace context riding the same frame,
    /// otherwise exactly like [`send`](Transport::send).
    fn send_ctx(&self, to: u32, msg: &Message, ctx: TraceCtx) -> Result<(), TransportError>;

    /// Send several messages to one peer as a single batch, in order.
    ///
    /// The default sends each message individually. Both backends override
    /// this to coalesce the frames into one delivery — one write or one
    /// inbox push instead of one per message (Nagle-for-GM at the frame
    /// layer, but driven by the caller's natural batch boundary, so it adds
    /// no delay). Sequence numbers are allocated per frame exactly
    /// as with individual sends, so receivers cannot tell the difference.
    fn send_batch(
        &self,
        to: u32,
        msgs: &[(Message, Option<TraceCtx>)],
    ) -> Result<(), TransportError> {
        for (msg, ctx) in msgs {
            match ctx {
                Some(c) => self.send_ctx(to, msg, *c)?,
                None => self.send(to, msg)?,
            }
        }
        Ok(())
    }

    /// Receive the next message. `None` timeout blocks indefinitely;
    /// `Ok(None)` means the timeout elapsed with nothing to deliver.
    fn recv(&self, timeout: Option<Duration>) -> Result<Option<Envelope>, TransportError>;

    /// Non-blocking receive: return an already-available message or
    /// `Ok(None)` immediately, never waiting. This is the readiness path a
    /// worker holding several kernels sweeps — it must be cheap when idle
    /// and must deliver any message a blocking [`recv`](Transport::recv)
    /// would have found ready.
    fn poll_recv(&self) -> Result<Option<Envelope>, TransportError>;

    /// Announce clean shutdown to all peers (`Bye` handshake) and release
    /// the endpoint. After this, `recv` drains already-delivered messages
    /// and then reports [`TransportError::Closed`].
    fn shutdown(&self);

    /// Kill the endpoint *without* the clean-shutdown handshake, as if the
    /// process died mid-run: no `Bye` is sent, local `recv` reports
    /// [`TransportError::Closed`] once drained, and peers observe the
    /// failure on their next interaction ([`TransportError::PeerDropped`]):
    /// a channel peer when it next sends, a socket peer when it next
    /// receives.
    fn abort(&self);

    /// Short backend name for diagnostics ("channel", "tcp", "uds").
    fn kind(&self) -> &'static str;
}
