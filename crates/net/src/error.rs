//! Error type for fabric operations.

use std::fmt;

use crate::NodeId;

/// Errors produced by fabric registration, messaging and region access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The target node was never registered or has been killed.
    Unreachable(NodeId),
    /// A node id was registered twice.
    AlreadyRegistered(NodeId),
    /// A blocking receive timed out.
    Timeout,
    /// The local endpoint has been shut down.
    Closed,
    /// A region access fell outside the region's bounds.
    OutOfBounds {
        /// Requested offset.
        offset: usize,
        /// Requested length.
        len: usize,
        /// Size of the region.
        region: usize,
    },
    /// A received frame or frame body was malformed: bad magic, an
    /// unsupported wire version, an oversized length, or a body that a
    /// codec could not decode. Decoders return this instead of
    /// panicking on arbitrary input.
    BadFrame(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Unreachable(n) => write!(f, "node {n} is unreachable"),
            NetError::AlreadyRegistered(n) => write!(f, "node {n} already registered"),
            NetError::Timeout => write!(f, "receive timed out"),
            NetError::Closed => write!(f, "endpoint closed"),
            NetError::OutOfBounds {
                offset,
                len,
                region,
            } => write!(
                f,
                "access [{offset}, {offset}+{len}) out of bounds for region of {region} bytes"
            ),
            NetError::BadFrame(why) => write!(f, "malformed frame: {why}"),
        }
    }
}

impl std::error::Error for NetError {}
