//! Serving-side GM request dedup: bounded memory of recently served
//! requests keyed by `(from, req)`.
//!
//! A retransmit of an already-served request replays the cached response
//! instead of re-executing it, which is what makes requester-side retries
//! safe for non-idempotent operations (overlapping writes, fetch-add).
//! The memory is kept per requester, so traffic from other PEs can never
//! push out an answer a retransmit still needs: a requester blocked on an
//! atomic or a fence issues nothing further, and answers on one edge
//! arrive in order, so its unanswered requests are among its own last few.
//! (The memory is still bounded: a requester that keeps issuing split-phase
//! requests past a lost answer, never waiting on it, can outrun it.)
//! The cache also counts how many times each entry replayed: the causal
//! trace derives a distinct serve-span id per replay from that index, so
//! a retransmitted request shows up in the assembled cluster trace as one
//! fresh serve plus N dedup-replay serves, all linked to the same parent.

use std::collections::{HashMap, VecDeque};

use dse_msg::Message;

/// The last few served GM responses of each requester, keyed by
/// `(from, req)`.
#[derive(Debug)]
pub struct DedupCache {
    /// Allocated on the requester's first served request.
    peers: HashMap<u32, Peer>,
    per_peer: usize,
}

#[derive(Debug, Default)]
struct Peer {
    /// Highest `req` answered so far. Request ids grow, so a fresh request
    /// lies above it and is known to miss without a look at the answers.
    newest: u64,
    /// The most recent answers, oldest first.
    answers: VecDeque<Answer>,
}

#[derive(Debug)]
struct Answer {
    req: u64,
    resp: Message,
    replays: u32,
}

impl DedupCache {
    /// A cache remembering the last `per_peer` responses to each requester.
    pub fn new(per_peer: usize) -> DedupCache {
        DedupCache {
            peers: HashMap::new(),
            per_peer,
        }
    }

    /// Look up a retransmitted request. On a hit, counts the replay and
    /// returns the cached response together with the replay index (1 for
    /// the first replay, 2 for the second, ...).
    pub fn replay(&mut self, (from, req): (u32, u64)) -> Option<(Message, u32)> {
        let peer = self.peers.get_mut(&from)?;
        if req > peer.newest {
            return None;
        }
        let a = peer.answers.iter_mut().rev().find(|a| a.req == req)?;
        a.replays += 1;
        Some((a.resp.clone(), a.replays))
    }

    /// Remember the response to a freshly served request (one `replay`
    /// just missed), evicting that requester's oldest once past capacity.
    pub fn insert(&mut self, (from, req): (u32, u64), resp: Message) {
        let peer = self.peers.entry(from).or_default();
        peer.newest = peer.newest.max(req);
        if peer.answers.len() == self.per_peer {
            peer.answers.pop_front();
        }
        peer.answers.push_back(Answer {
            req,
            resp,
            replays: 0,
        });
    }
}

/// Dedup key for the GM request kinds subject to retransmission.
pub fn dedup_key(msg: &Message, from: u32) -> Option<(u32, u64)> {
    match msg {
        Message::GmReadReq { req, .. }
        | Message::GmWriteReq { req, .. }
        | Message::GmFetchAddReq { req, .. }
        | Message::GmBatchReq { req, .. } => Some((from, req.0)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_msg::ReqId;

    fn ack(req: u64) -> Message {
        Message::GmWriteAck { req: ReqId(req) }
    }

    #[test]
    fn replay_counts_and_returns_cached_response() {
        let mut c = DedupCache::new(4);
        assert!(c.replay((1, 7)).is_none(), "miss before insert");
        c.insert((1, 7), ack(7));
        let (resp, idx) = c.replay((1, 7)).unwrap();
        assert_eq!(resp, ack(7));
        assert_eq!(idx, 1);
        let (_, idx) = c.replay((1, 7)).unwrap();
        assert_eq!(idx, 2, "replay index advances per hit");
    }

    #[test]
    fn evicts_a_requesters_oldest_and_nobody_elses() {
        let mut c = DedupCache::new(2);
        c.insert((0, 1), ack(1));
        c.insert((1, 1), ack(1));
        c.insert((0, 2), ack(2));
        c.insert((0, 3), ack(3));
        assert!(c.replay((0, 1)).is_none(), "requester 0's oldest evicted");
        assert!(c.replay((0, 3)).is_some());
        assert!(c.replay((1, 1)).is_some(), "requester 1 is untouched");
    }

    #[test]
    fn key_covers_exactly_the_retriable_requests() {
        let from = 5;
        assert_eq!(
            dedup_key(
                &Message::GmFetchAddReq {
                    req: ReqId(9),
                    region: dse_msg::RegionId(0),
                    offset: 0,
                    delta: 1,
                },
                from
            ),
            Some((5, 9))
        );
        assert_eq!(dedup_key(&Message::KernelShutdown, from), None);
        assert_eq!(
            dedup_key(
                &Message::BarrierEnter {
                    barrier: 1,
                    pid: dse_msg::GlobalPid::new(dse_msg::NodeId(0), 1),
                },
                from
            ),
            None
        );
    }
}
