//! Block I/O request model shared by the whole stack.

use iorch_simcore::SimTime;

/// Read or write.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IoKind {
    /// A read from the device.
    Read,
    /// A write to the device.
    Write,
}

impl IoKind {
    /// True for [`IoKind::Write`].
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, IoKind::Write)
    }
}

/// Identifies the logical submitter of a request at the storage layer —
/// one per virtual disk / guest domain. The storage crate is deliberately
/// ignorant of hypervisor domain types; upper layers map domains onto
/// streams.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct StreamId(pub u32);

/// Unique request id for tracing and completion matching.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RequestId(pub u64);

/// A block I/O request travelling from a guest to a physical device.
#[derive(Clone, Copy, Debug)]
pub struct IoRequest {
    /// Unique id.
    pub id: RequestId,
    /// Read or write.
    pub kind: IoKind,
    /// Submitting stream (virtual disk / domain).
    pub stream: StreamId,
    /// Byte offset on the device address space.
    pub offset: u64,
    /// Length in bytes; always > 0.
    pub len: u64,
    /// When the request entered the host storage subsystem.
    pub submitted: SimTime,
}

/// Allocates unique request ids.
#[derive(Debug, Default, Clone)]
pub struct RequestIdAlloc {
    next: u64,
}

impl RequestIdAlloc {
    /// Fresh allocator starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }
    /// Allocate the next id.
    pub fn alloc(&mut self) -> RequestId {
        let id = RequestId(self.next);
        self.next += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_alloc_is_sequential_and_unique() {
        let mut alloc = RequestIdAlloc::new();
        let a = alloc.alloc();
        let b = alloc.alloc();
        assert_ne!(a, b);
        assert_eq!(a, RequestId(0));
        assert_eq!(b, RequestId(1));
    }
}
