//! # dse-msg — the DSE message exchange wire format
//!
//! The paper's software organization (Fig. 3) names two API-side modules —
//! the *global memory access request message create module* and the
//! *response message analyze module* — plus the kernel-side *message
//! exchange mechanism* that moves those buffers between nodes. This crate
//! is their common vocabulary:
//!
//! * [`Message`] — every runtime message (global-memory access, process
//!   invocation/termination, barriers/locks, user data), with a hand-rolled
//!   little-endian encoding whose size is exactly what the network model
//!   charges for;
//! * identifier types ([`NodeId`], [`GlobalPid`], [`RegionId`], [`ReqId`])
//!   shared by every layer;
//! * stream framing ([`encode_frame`], [`FrameDecoder`]) so the same
//!   messages travel over byte streams (TCP/Unix sockets) with explicit
//!   boundaries, per-peer sequence numbers, and a clean-shutdown frame.

#![warn(missing_docs)]

mod bytes;
mod codec;
mod frame;
mod ids;
mod message;

pub use bytes::{is_bulk, Bytes};
pub use codec::{CodecError, Reader, Writer, MAX_PAYLOAD};
pub use frame::{
    encode_bye, encode_bye_into, encode_frame, encode_frame_ctx, encode_frame_ctx_into,
    encode_frame_into, frame_len, FrameDecoder, FrameEvent, TraceCtx, DECODER_HIGH_WATER,
    FRAME_BYE, FRAME_HEADER_LEN, FRAME_MSG, FRAME_MSG_TRACED, TRACE_EXT_LEN, TRACE_EXT_VERSION,
};
pub use ids::{GlobalPid, NodeId, RegionId, ReqId, ReqIdGen};
pub use message::{GmOp, Message};
