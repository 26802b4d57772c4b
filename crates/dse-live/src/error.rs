//! Structured failure reporting for the live engine.
//!
//! A live run that hits a transport fault, a GM request deadline, or a
//! dead kernel no longer panics its way down: every thread records what it
//! saw into the cluster's failure list, the run aborts cluster-wide via an
//! `Abort` control frame, and the harness returns a [`RunError`] carrying
//! one [`PeFailure`] per first-hand observer plus the flight recorder's
//! post-mortem dump of the events leading up to the failure.

use std::fmt;
use std::time::Duration;

use dse_transport::TransportError;

/// Which of a PE's two threads observed the failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureRole {
    /// The application thread (the rank's body and the API library under it).
    App,
    /// The kernel thread (the PE's message loop).
    Kernel,
}

impl fmt::Display for FailureRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureRole::App => write!(f, "app"),
            FailureRole::Kernel => write!(f, "kernel"),
        }
    }
}

/// What went wrong, as observed first-hand by one thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// A transport operation failed (send or receive).
    Transport(TransportError),
    /// A GM request exhausted its retry budget with no response.
    GmDeadline {
        /// Correlation id of the abandoned request.
        req: u64,
        /// Home PE the request was addressed to.
        home: u32,
        /// Send attempts made (initial send plus retransmits).
        attempts: u32,
    },
    /// A peer answered a GM request with a response that does not fit it
    /// (wrong kind, wrong payload length, missing batched result).
    Protocol {
        /// Correlation id of the request the response claimed to answer.
        req: u64,
        /// What was expected and what arrived.
        detail: String,
    },
    /// A peer sent this PE's kernel a message its protocol has no place for
    /// (a kind kernels never receive, an acknowledgement nothing waits on).
    PeerProtocol {
        /// The message's label, its sender and what was wrong with it.
        detail: String,
    },
    /// The application addressed global memory wrongly (out of range, or an
    /// atomic cell that is misaligned or split between two homes); nothing
    /// was sent.
    BadAccess {
        /// The entry point and the store's error.
        detail: String,
    },
    /// The co-resident kernel thread went away while the app still needed it.
    KernelGone,
    /// The transport mesh could not be constructed at startup.
    Mesh(TransportError),
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Transport(e) => write!(f, "transport failure: {e}"),
            FailureKind::GmDeadline {
                req,
                home,
                attempts,
            } => write!(
                f,
                "GM request {req} to home PE {home} unanswered after {attempts} attempts"
            ),
            FailureKind::Protocol { req, detail } => {
                write!(f, "GM request {req} got a malformed response: {detail}")
            }
            FailureKind::PeerProtocol { detail } => {
                write!(f, "peer protocol violation: {detail}")
            }
            FailureKind::BadAccess { detail } => write!(f, "bad global-memory access: {detail}"),
            FailureKind::KernelGone => write!(f, "kernel thread exited while the app was waiting"),
            FailureKind::Mesh(e) => write!(f, "transport mesh construction failed: {e}"),
        }
    }
}

/// One thread's first-hand failure observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeFailure {
    /// Processing element the observing thread belongs to.
    pub pe: u32,
    /// Which thread observed it.
    pub role: FailureRole,
    /// What it observed.
    pub kind: FailureKind,
}

impl fmt::Display for PeFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PE {} [{}]: {}", self.pe, self.role, self.kind)
    }
}

/// A live run that aborted instead of completing.
///
/// Only first-hand observations are listed: threads that stopped because
/// they received the `Abort` broadcast are casualties, not causes, and do
/// not appear. `flight_jsonl` is the flight recorder's ring at the moment
/// the run unwound — the post-mortem context (recent messages, stalls)
/// leading up to the failure.
#[derive(Debug, Clone)]
pub struct RunError {
    /// First-hand failure observations, in discovery order.
    pub failures: Vec<PeFailure>,
    /// Flight-recorder post-mortem dump (JSONL, oldest event first).
    pub flight_jsonl: String,
    /// Wall clock from run start to abort completion.
    pub elapsed: Duration,
}

impl RunError {
    /// Multi-line per-PE failure report suitable for stderr.
    pub fn report(&self) -> String {
        let mut out = format!(
            "live run aborted after {:.3}s with {} first-hand failure(s):\n",
            self.elapsed.as_secs_f64(),
            self.failures.len()
        );
        for f in &self.failures {
            out.push_str(&format!("  {f}\n"));
        }
        out.push_str(&format!(
            "flight recorder: {} post-mortem event(s) captured\n",
            self.flight_jsonl.lines().count()
        ));
        out
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.report().trim_end())
    }
}

impl std::error::Error for RunError {}

// `Abort` frame `code` values moved into the kernel with the task state
// machine; the live engine shares them.
pub(crate) use dse_kernel::task::abort_code;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_lists_each_failure_and_flight_size() {
        let err = RunError {
            failures: vec![
                PeFailure {
                    pe: 2,
                    role: FailureRole::Kernel,
                    kind: FailureKind::Transport(TransportError::Closed),
                },
                PeFailure {
                    pe: 0,
                    role: FailureRole::App,
                    kind: FailureKind::GmDeadline {
                        req: 41,
                        home: 2,
                        attempts: 5,
                    },
                },
            ],
            flight_jsonl: "{}\n{}\n{}\n".to_string(),
            elapsed: Duration::from_millis(1500),
        };
        let rep = err.report();
        assert!(rep.contains("2 first-hand failure(s)"));
        assert!(rep.contains("PE 2 [kernel]: transport failure: transport closed"));
        assert!(rep.contains("PE 0 [app]: GM request 41 to home PE 2 unanswered after 5 attempts"));
        assert!(rep.contains("3 post-mortem event(s)"));
        assert_eq!(format!("{err}").lines().count(), 4);
    }

    #[test]
    fn protocol_failure_names_the_request_and_the_mismatch() {
        let kind = FailureKind::Protocol {
            req: 7,
            detail: "expected a read response, got gm_write_ack".to_string(),
        };
        assert_eq!(
            kind.to_string(),
            "GM request 7 got a malformed response: expected a read response, got gm_write_ack"
        );
    }
}
