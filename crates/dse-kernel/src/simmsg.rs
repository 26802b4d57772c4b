//! The payload type carried by the simulation engine between DSE entities.

use dse_msg::{NodeId, TraceCtx};
use dse_sim::ProcId;

/// One inter-entity message: encoded wire bytes plus simulation routing.
///
/// The `bytes` are a real [`dse_msg::Message`] encoding — every exchange in
/// the simulator round-trips through the production codec, so the wire
/// format is exercised by every experiment, and `bytes.len()` is exactly
/// what the network model charged for. The causal trace context rides
/// *beside* them, never inside: a traced run puts the same bytes on the
/// simulated wire as an untraced one.
#[derive(Debug, Clone)]
pub struct SimMsg {
    /// Node whose kernel/process sent this.
    pub from_node: NodeId,
    /// Simulation process that should receive any *response*.
    pub reply_to: ProcId,
    /// Encoded [`dse_msg::Message`].
    pub bytes: Vec<u8>,
    /// Causal trace context (`None` on untraced runs and for messages no
    /// span hangs from).
    pub ctx: Option<TraceCtx>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_msg::Message;

    #[test]
    fn carries_encoded_messages() {
        let m = Message::KernelShutdown;
        let sm = SimMsg {
            from_node: NodeId(1),
            reply_to: ProcId::from_index(0),
            bytes: m.encode(),
            ctx: None,
        };
        assert_eq!(Message::decode(&sm.bytes).unwrap(), m);
    }
}
