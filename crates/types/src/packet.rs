//! Memory access and network packet types.
//!
//! A [`MemAccess`] is what an SM issues (a load or store to a byte address).
//! An L1 miss turns it into a [`Request`] packet that traverses the NoC and
//! possibly the inter-chip ring, and eventually produces a [`Response`]
//! carrying the cache line back. The [`ResponseOrigin`] records where the
//! data was found, which drives the paper's Fig. 10 effective-LLC-bandwidth
//! breakdown.

use crate::addr::Address;
use crate::ids::{ChipId, ClusterId};

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read access (load).
    Read,
    /// A write access (store). L1s are write-through, so every store
    /// generates write traffic towards the LLC.
    Write,
}

impl AccessKind {
    /// Whether this is a write.
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// One memory instruction as issued by an SM cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Byte address accessed.
    pub addr: Address,
    /// Load or store.
    pub kind: AccessKind,
}

impl MemAccess {
    /// A read of `addr`.
    pub fn read(addr: impl Into<Address>) -> Self {
        MemAccess {
            addr: addr.into(),
            kind: AccessKind::Read,
        }
    }

    /// A write of `addr`.
    pub fn write(addr: impl Into<Address>) -> Self {
        MemAccess {
            addr: addr.into(),
            kind: AccessKind::Write,
        }
    }
}

/// Unique identifier of an in-flight request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// Size in bytes of a request packet header on the network.
pub const REQ_HEADER_BYTES: u64 = 16;
/// Size in bytes of the data payload carried by a write request (one
/// coalesced 32 B sector; GPUs coalesce stores at sector granularity).
pub const WRITE_PAYLOAD_BYTES: u64 = 32;
/// Size in bytes of a response header (acks, invalidations).
pub const RSP_HEADER_BYTES: u64 = 16;

/// A memory request travelling from an SM cluster towards an LLC slice or
/// memory partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Unique id; the matching [`Response`] carries the same id.
    pub id: RequestId,
    /// The cluster that issued the L1 miss.
    pub origin: ClusterId,
    /// The access being performed.
    pub access: MemAccess,
    /// The chip owning the memory page (first-touch home).
    pub home: ChipId,
}

impl Request {
    /// Bytes this request occupies on a network link.
    #[inline]
    pub fn wire_bytes(&self) -> u64 {
        match self.access.kind {
            AccessKind::Read => REQ_HEADER_BYTES,
            AccessKind::Write => REQ_HEADER_BYTES + WRITE_PAYLOAD_BYTES,
        }
    }
}

/// Where a response's data was found (Fig. 10 breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResponseOrigin {
    /// Hit in an LLC slice on the requesting chip.
    LocalLlc,
    /// Hit in an LLC slice on another chip.
    RemoteLlc,
    /// Served by the requesting chip's memory partition.
    LocalMem,
    /// Served by another chip's memory partition.
    RemoteMem,
}

impl ResponseOrigin {
    /// All origins, in the paper's Fig. 10 legend order.
    pub const ALL: [ResponseOrigin; 4] = [
        ResponseOrigin::LocalLlc,
        ResponseOrigin::RemoteLlc,
        ResponseOrigin::LocalMem,
        ResponseOrigin::RemoteMem,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ResponseOrigin::LocalLlc => "local LLC",
            ResponseOrigin::RemoteLlc => "remote LLC",
            ResponseOrigin::LocalMem => "local mem",
            ResponseOrigin::RemoteMem => "remote mem",
        }
    }
}

impl std::fmt::Display for ResponseOrigin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A response travelling back to the requesting SM cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Response {
    /// Id of the request this answers.
    pub id: RequestId,
    /// Destination cluster.
    pub dest: ClusterId,
    /// The access that was performed.
    pub access: MemAccess,
    /// Where the data was found.
    pub origin: ResponseOrigin,
}

impl Response {
    /// Bytes this response occupies on a network link: a full cache line for
    /// reads, a small ack for writes.
    #[inline]
    pub fn wire_bytes(&self, line_size: u64) -> u64 {
        match self.access.kind {
            AccessKind::Read => RSP_HEADER_BYTES + line_size,
            AccessKind::Write => RSP_HEADER_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClusterId;

    fn req(kind: AccessKind, origin_chip: u8, home: u8) -> Request {
        Request {
            id: RequestId(1),
            origin: ClusterId::new(ChipId(origin_chip), 0),
            access: MemAccess {
                addr: Address::new(0x1000),
                kind,
            },
            home: ChipId(home),
        }
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(req(AccessKind::Read, 0, 0).wire_bytes(), 16);
        assert_eq!(req(AccessKind::Write, 0, 0).wire_bytes(), 48);
        let rsp = Response {
            id: RequestId(1),
            dest: ClusterId::new(ChipId(0), 0),
            access: MemAccess::read(0u64),
            origin: ResponseOrigin::LocalLlc,
        };
        assert_eq!(rsp.wire_bytes(128), 144);
        let ack = Response {
            access: MemAccess::write(0u64),
            ..rsp
        };
        assert_eq!(ack.wire_bytes(128), 16);
    }

    #[test]
    fn origin_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            ResponseOrigin::ALL.iter().map(|o| o.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
