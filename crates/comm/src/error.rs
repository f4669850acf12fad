//! Typed communication failures.
//!
//! The paper's algorithms assume a reliable MPI substrate; this workspace
//! makes the failure modes of its substitute substrate *explicit*. Every
//! fallible receive path returns a [`CommError`] naming the blocked or
//! corrupted `(src, tag)` pair, so a fault injected by
//! [`ChaosComm`](crate::ChaosComm) is always *detected* — never silently
//! consumed as garbage data or an unbounded hang.

use std::fmt;

use crate::wire::FrameError;

/// A communication failure observed by one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A framed message failed its CRC32 integrity check.
    Corrupt {
        /// Source rank of the corrupt message.
        src: usize,
        /// Message tag of the corrupt message.
        tag: u32,
        /// CRC stored in the frame header.
        expected: u32,
        /// CRC recomputed over the received payload.
        actual: u32,
    },
    /// A message was too short to carry a frame header at all.
    Truncated {
        /// Source rank of the truncated message.
        src: usize,
        /// Message tag of the truncated message.
        tag: u32,
        /// Received length in bytes (below the frame header size).
        len: usize,
    },
    /// A CRC-valid payload did not decode to an integral number of typed
    /// values — an encode/decode schema mismatch between ranks.
    Decode {
        /// Source rank of the undecodable message.
        src: usize,
        /// Message tag of the undecodable message.
        tag: u32,
    },
    /// No matching message arrived within the transport's receive
    /// deadline.
    ///
    /// This is the diagnostic that replaces a silent deadlock: it names the
    /// `(src, tag)` key the rank is blocked on and snapshots the pending
    /// mailbox, which usually identifies the mismatched send immediately.
    Deadline {
        /// Source rank the receive was blocked on.
        src: usize,
        /// Tag the receive was blocked on.
        tag: u32,
        /// How long the rank waited before giving up, in milliseconds.
        waited_ms: u64,
        /// Pending mailbox contents: `(source, tag, queued_messages)` for
        /// every key holding buffered messages that did not match.
        pending: Vec<(usize, u32, usize)>,
    },
    /// A peer rank panicked; the poison machinery names *which* one.
    /// Recovery drivers print `peer` in their restart log line.
    PeerDead {
        /// The rank that died.
        peer: usize,
        /// Source rank of the receive in flight when the crash was seen.
        src: usize,
        /// Tag of the receive in flight when the crash was seen.
        tag: u32,
    },
}

impl CommError {
    /// The typed error of a message from `(src, tag)` that failed to
    /// unframe.
    pub(crate) fn bad_frame(src: usize, tag: u32, e: FrameError) -> Self {
        match e {
            FrameError::TooShort(len) => CommError::Truncated { src, tag, len },
            FrameError::Crc { expected, actual } => CommError::Corrupt {
                src,
                tag,
                expected,
                actual,
            },
        }
    }

    /// The `(src, tag)` key the failure is attributed to.
    pub fn key(&self) -> (usize, u32) {
        match *self {
            CommError::Corrupt { src, tag, .. }
            | CommError::Truncated { src, tag, .. }
            | CommError::Decode { src, tag }
            | CommError::Deadline { src, tag, .. }
            | CommError::PeerDead { src, tag, .. } => (src, tag),
        }
    }

    /// The index of the rank known to have died, if this failure
    /// identifies one.
    pub fn dead_peer(&self) -> Option<usize> {
        match *self {
            CommError::PeerDead { peer, .. } => Some(peer),
            _ => None,
        }
    }
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Corrupt {
                src,
                tag,
                expected,
                actual,
            } => write!(
                f,
                "corrupt message from (src {src}, tag {tag}): \
                 frame CRC {expected:#010x}, payload CRC {actual:#010x}"
            ),
            CommError::Truncated { src, tag, len } => write!(
                f,
                "truncated message from (src {src}, tag {tag}): \
                 {len} bytes is below the frame header size"
            ),
            CommError::Decode { src, tag } => write!(
                f,
                "message from (src {src}, tag {tag}) passed its CRC but \
                 does not decode to an integral number of values"
            ),
            CommError::Deadline {
                src,
                tag,
                waited_ms,
                pending,
            } => {
                write!(
                    f,
                    "receive deadline expired after {waited_ms} ms blocked \
                     on (src {src}, tag {tag}); pending mailbox: "
                )?;
                if pending.is_empty() {
                    write!(f, "empty")?;
                } else {
                    for (i, (s, t, n)) in pending.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "(src {s}, tag {t}) x{n}")?;
                    }
                }
                Ok(())
            }
            CommError::PeerDead { peer, src, tag } => write!(
                f,
                "peer rank {peer} died while this rank was blocked on \
                 (src {src}, tag {tag})"
            ),
        }
    }
}

impl std::error::Error for CommError {}
