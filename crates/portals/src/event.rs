//! Events deposited in a process's event queue by completed operations.

use std::time::Instant;

use bytes::Bytes;
use lwfs_proto::ProcessId;

/// A completion event.
///
/// Mirrors the Portals event kinds the LWFS protocols consume. `Message`
/// carries the payload inline (eager delivery into a server-managed queue);
/// `PutEnd`/`GetEnd` only announce that a one-sided transfer touched a
/// posted memory descriptor.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// An eager message arrived on the given match bits, at `arrived`
    /// (stamped on delivery, so a receiver can time the wait in queue).
    Message { from: ProcessId, match_bits: u64, data: Bytes, arrived: Instant },
    /// A remote process wrote into a posted descriptor.
    PutEnd { from: ProcessId, match_bits: u64, offset: u64, len: usize },
    /// A remote process read from a posted descriptor.
    GetEnd { from: ProcessId, match_bits: u64, offset: u64, len: usize },
}

impl Event {
    pub fn match_bits(&self) -> u64 {
        match self {
            Event::Message { match_bits, .. }
            | Event::PutEnd { match_bits, .. }
            | Event::GetEnd { match_bits, .. } => *match_bits,
        }
    }

    pub fn from(&self) -> ProcessId {
        match self {
            Event::Message { from, .. }
            | Event::PutEnd { from, .. }
            | Event::GetEnd { from, .. } => *from,
        }
    }

    /// Payload bytes for `Message` events; `None` otherwise.
    pub fn message_data(&self) -> Option<&Bytes> {
        match self {
            Event::Message { data, .. } => Some(data),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let e = Event::Message {
            from: ProcessId::new(1, 2),
            match_bits: 99,
            data: Bytes::from_static(b"hi"),
            arrived: Instant::now(),
        };
        assert_eq!(e.match_bits(), 99);
        assert_eq!(e.from(), ProcessId::new(1, 2));
        assert_eq!(e.message_data().unwrap().as_ref(), b"hi");

        let p = Event::PutEnd { from: ProcessId::new(3, 0), match_bits: 1, offset: 0, len: 4 };
        assert!(p.message_data().is_none());
        assert_eq!(p.match_bits(), 1);
    }
}
