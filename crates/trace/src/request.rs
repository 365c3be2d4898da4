//! The unit of work: a single block-level I/O request.

use std::fmt;

use crate::time::SimTime;

/// Identifier of a request within one [`Workload`](crate::Workload).
///
/// Identifiers are dense indices assigned in arrival order, so they double as
/// positions into per-request result arrays.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Default, Debug)]
pub struct RequestId(u64);

impl RequestId {
    /// Creates an identifier from its dense index.
    pub const fn new(index: u64) -> Self {
        RequestId(index)
    }

    /// The dense index of this identifier.
    pub const fn index(self) -> u64 {
        self.0
    }

    /// The dense index as a `usize` for direct slice indexing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A logical block address on the backing device.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Default, Debug)]
pub struct LogicalBlock(u64);

impl LogicalBlock {
    /// Creates a logical block address.
    pub const fn new(lba: u64) -> Self {
        LogicalBlock(lba)
    }

    /// The raw logical block address.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for LogicalBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lba:{}", self.0)
    }
}

/// Direction of an I/O request.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Default, Debug)]
pub enum RequestKind {
    /// A read of the addressed blocks.
    #[default]
    Read,
    /// A write of the addressed blocks.
    Write,
}

impl fmt::Display for RequestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestKind::Read => f.write_str("read"),
            RequestKind::Write => f.write_str("write"),
        }
    }
}

/// One block-level I/O request.
///
/// The scheduling model of the paper treats requests as unit jobs — storage
/// requests are already split by the OS into roughly equal-sized block
/// requests — so `block`, `bytes`, and `kind` only matter to the mechanical
/// disk model, not to the QoS algorithms.
///
/// This is a passive data record; fields are public by design.
///
/// # Examples
///
/// ```
/// use gqos_trace::{Request, SimTime};
///
/// let r = Request::at(SimTime::from_millis(5));
/// assert_eq!(r.arrival, SimTime::from_millis(5));
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct Request {
    /// Dense identifier within the owning workload.
    pub id: RequestId,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Starting logical block address.
    pub block: LogicalBlock,
    /// Transfer size in bytes.
    pub bytes: u32,
    /// Read or write.
    pub kind: RequestKind,
}

/// Default transfer size: storage QoS work assumes OS-split block requests
/// of at most a few tens of KiB; 8 KiB is a typical OLTP page.
pub const DEFAULT_REQUEST_BYTES: u32 = 8 * 1024;

impl Request {
    /// Creates a request arriving at `arrival` with default block, size, and
    /// kind. The id is assigned when the request joins a workload.
    pub fn at(arrival: SimTime) -> Self {
        Request {
            id: RequestId::default(),
            arrival,
            block: LogicalBlock::default(),
            bytes: DEFAULT_REQUEST_BYTES,
            kind: RequestKind::default(),
        }
    }

    /// Returns this request with the given id.
    pub fn with_id(mut self, id: RequestId) -> Self {
        self.id = id;
        self
    }

    /// Returns this request with the given block address.
    pub fn with_block(mut self, block: LogicalBlock) -> Self {
        self.block = block;
        self
    }

    /// Returns this request with the given transfer size in bytes.
    pub fn with_bytes(mut self, bytes: u32) -> Self {
        self.bytes = bytes;
        self
    }

    /// Returns this request with the given kind.
    pub fn with_kind(mut self, kind: RequestKind) -> Self {
        self.kind = kind;
        self
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} @{} ({} B, {})",
            self.id, self.kind, self.arrival, self.bytes, self.block
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_id_round_trips() {
        let id = RequestId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.as_usize(), 42);
        assert_eq!(id.to_string(), "r42");
    }

    #[test]
    fn builder_style_setters() {
        let r = Request::at(SimTime::from_secs(1))
            .with_id(RequestId::new(7))
            .with_block(LogicalBlock::new(512))
            .with_bytes(4096)
            .with_kind(RequestKind::Write);
        assert_eq!(r.id, RequestId::new(7));
        assert_eq!(r.arrival, SimTime::from_secs(1));
        assert_eq!(r.block, LogicalBlock::new(512));
        assert_eq!(r.bytes, 4096);
        assert_eq!(r.kind, RequestKind::Write);
    }

    #[test]
    fn default_request_is_read_with_page_size() {
        let r = Request::at(SimTime::ZERO);
        assert_eq!(r.kind, RequestKind::Read);
        assert_eq!(r.bytes, DEFAULT_REQUEST_BYTES);
    }

    #[test]
    fn display_is_nonempty() {
        let r = Request::at(SimTime::from_millis(3));
        assert!(r.to_string().contains("read"));
        assert_eq!(RequestKind::Write.to_string(), "write");
    }
}
