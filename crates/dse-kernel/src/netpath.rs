//! The message exchange mechanism: how a runtime message actually travels.
//!
//! Three paths, as in the paper's Fig. 3:
//!
//! * **own node** — the API calls straight into the linked kernel library;
//!   no message exists (handled by the callers via `CostModel::local_call`);
//! * **loopback** — two kernels co-located on one physical machine (the
//!   virtual-cluster case): full protocol software cost on both sides, but
//!   no LAN transmission and no collisions;
//! * **LAN** — protocol software cost on both sides plus shared-bus
//!   Ethernet transmission booked on the [`dse_net::Network`] model.
//!
//! Every send charges the *sender's* machine CPU, every receive charges the
//! *receiver's* machine CPU (protocol receive + SIGIO signal delivery +
//! context switch — the async-I/O interruption the paper describes). Every
//! charge on a process's own clock goes through [`hold_cpu`], which reports
//! how long the CPU was queued for, for the caller's `cpu_queue` span.

use dse_msg::{Message, NodeId, TraceCtx};
use dse_obs::MetricKey;
use dse_sim::{ProcCtx, ProcId, SimDuration, SimTime};

use crate::counters::KernelCount;
use crate::shared::ClusterShared;
use crate::simmsg::SimMsg;

/// Hold `node`'s CPU for `dur` on the calling process's clock. Returns
/// `(asked_ns, granted_ns)`: when the process asked for the CPU and when it
/// got it — equal when the CPU was free.
pub fn hold_cpu(
    ctx: &mut ProcCtx<SimMsg>,
    shared: &ClusterShared,
    node: NodeId,
    dur: SimDuration,
) -> (u64, u64) {
    let asked = ctx.now().as_nanos();
    ctx.use_resource(shared.cpu_of(node), dur);
    // (A context released at shutdown does not advance: nothing queued.)
    let granted = ctx.now().as_nanos().saturating_sub(dur.as_nanos());
    (asked, granted.max(asked))
}

/// Send `msg` from `from_node` to the simulation process `to_proc` living
/// on `to_node`. Charges the sender-side software cost, books the wire (or
/// loopback), and dispatches the envelope. `reply_to` names the simulation
/// process any response should go to; `trace` rides beside the bytes.
/// Returns what [`hold_cpu`] did for the software cost.
#[allow(clippy::too_many_arguments)]
pub fn send_msg(
    ctx: &mut ProcCtx<SimMsg>,
    shared: &ClusterShared,
    from_node: NodeId,
    to_node: NodeId,
    to_proc: ProcId,
    reply_to: ProcId,
    msg: &Message,
    trace: Option<TraceCtx>,
) -> (u64, u64) {
    let (bytes, charge) = begin_send(shared, from_node, msg);
    let queued = hold_cpu(ctx, shared, from_node, charge);
    let latency = book_wire(shared, ctx.now(), from_node, to_node, bytes.len());
    ctx.send(
        to_proc,
        latency,
        SimMsg {
            from_node,
            reply_to,
            bytes,
            ctx: trace,
        },
    );
    queued
}

/// First half of a send, at the instant the sender starts it: encode
/// `msg` and count it. Returns the wire bytes and the sender software path
/// (syscall + protocol + copy) to charge to the sender's CPU before
/// [`book_wire`].
pub fn begin_send(
    shared: &ClusterShared,
    from_node: NodeId,
    msg: &Message,
) -> (Vec<u8>, SimDuration) {
    let bytes = msg.encode();
    shared
        .counters(from_node)
        .count(KernelCount::Sent(bytes.len()));
    let charge = shared.cost(from_node).msg_send(bytes.len());
    (bytes, charge)
}

/// Second half of a send, at the instant the sender's software charge
/// ends: book `wire_len` bytes on the LAN (or the loopback) and return the
/// delivery latency.
pub fn book_wire(
    shared: &ClusterShared,
    now: SimTime,
    from_node: NodeId,
    to_node: NodeId,
    wire_len: usize,
) -> SimDuration {
    let pe = from_node.0 as u32;
    let machine = shared.machine_of(from_node) as u32;
    if shared.same_machine(from_node, to_node) {
        shared
            .metrics
            .incr(MetricKey::pe("net", "loopback_msgs", pe).on_machine(machine));
        return shared.cost(from_node).loopback_delay();
    }
    let timing = shared.network.lock().send_message(
        now,
        shared.machine_of(from_node),
        shared.machine_of(to_node),
        wire_len,
    );
    let latency = timing.delivered_at - now;
    shared
        .metrics
        .incr(MetricKey::pe("net", "lan_msgs", pe).on_machine(machine));
    shared.metrics.record(
        MetricKey::pe("net", "wire_latency_ns", pe).on_machine(machine),
        latency.as_nanos(),
    );
    latency
}
