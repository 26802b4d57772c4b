//! Transport-layer errors. These compose with [`CodecError`] (which
//! implements `std::error::Error`) so callers can box or chain them.

use std::fmt;

use dse_msg::CodecError;

/// Errors surfaced by a [`crate::Transport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// A frame or message failed to decode — the stream is corrupt.
    Codec(CodecError),
    /// An I/O error on the underlying socket.
    Io(String),
    /// The peer's stream ended without a `Bye` handshake.
    PeerDropped {
        /// The PE whose connection vanished.
        peer: u32,
    },
    /// A frame arrived out of sequence — reordering or loss.
    SequenceGap {
        /// The sending PE.
        peer: u32,
        /// The sequence number we expected next.
        expected: u64,
        /// The sequence number the frame carried.
        got: u64,
    },
    /// The destination PE does not exist in this cluster.
    NoSuchPeer {
        /// The bogus destination rank.
        peer: u32,
    },
    /// Could not establish a connection within the retry budget.
    ConnectFailed {
        /// The PE we were dialing.
        peer: u32,
        /// How many attempts were made.
        attempts: u32,
        /// The final error, stringified.
        last: String,
    },
    /// A mesh peer's hello named a rank that may not connect here: out of
    /// range, not above ours, or already connected.
    BadHello {
        /// The rank the hello carried.
        rank: u32,
    },
    /// The endpoint has been shut down.
    Closed,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Codec(e) => write!(f, "codec error: {e}"),
            TransportError::Io(e) => write!(f, "i/o error: {e}"),
            TransportError::PeerDropped { peer } => {
                write!(f, "peer {peer} dropped (stream ended without Bye)")
            }
            TransportError::SequenceGap {
                peer,
                expected,
                got,
            } => write!(
                f,
                "sequence gap from peer {peer}: expected frame {expected}, got {got}"
            ),
            TransportError::NoSuchPeer { peer } => write!(f, "no such peer {peer}"),
            TransportError::ConnectFailed {
                peer,
                attempts,
                last,
            } => write!(
                f,
                "connect to peer {peer} failed after {attempts} attempts: {last}"
            ),
            TransportError::BadHello { rank } => {
                write!(f, "mesh hello from rank {rank}, which may not connect here")
            }
            TransportError::Closed => write!(f, "transport closed"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for TransportError {
    fn from(e: CodecError) -> Self {
        TransportError::Codec(e)
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e.to_string())
    }
}
