//! Checkpoint metadata: the single object rank 0 writes after the gather
//! (Figure 8, GATHERMETADATA + CREATENAME).
//!
//! The metadata describes "the checkpoint objects as a coherent dataset":
//! which object on which storage server holds which rank's state. On
//! restart the metadata object is looked up by name and each rank reads
//! its entry.

use bytes::{Buf, BytesMut};
use lwfs_proto::codec::{Decode, Encode};
use lwfs_proto::{impl_codec_struct, ObjId, Result};

/// One rank's contribution to a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkptEntry {
    pub rank: u32,
    /// Index of the storage server holding the object.
    pub server: u32,
    pub obj: ObjId,
    pub len: u64,
}

impl_codec_struct!(CkptEntry { rank, server, obj, len });

/// The metadata object contents for one checkpoint epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptMetadata {
    pub epoch: u64,
    pub entries: Vec<CkptEntry>,
}

impl CkptMetadata {
    /// The entry for `rank`, if present.
    pub fn entry(&self, rank: u32) -> Option<&CkptEntry> {
        self.entries.iter().find(|e| e.rank == rank)
    }

    /// Total checkpoint size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.len).sum()
    }

    /// Validate completeness: exactly one entry for every rank `0..n`.
    pub fn is_complete(&self, n: u32) -> bool {
        if self.entries.len() != n as usize {
            return false;
        }
        let mut seen = vec![false; n as usize];
        for e in &self.entries {
            match seen.get_mut(e.rank as usize) {
                Some(slot) if !*slot => *slot = true,
                _ => return false,
            }
        }
        true
    }
}

impl Encode for CkptMetadata {
    fn encode(&self, buf: &mut BytesMut) {
        self.epoch.encode(buf);
        self.entries.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.epoch.encoded_len() + self.entries.encoded_len()
    }
}

impl Decode for CkptMetadata {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        Ok(CkptMetadata { epoch: Decode::decode(buf)?, entries: Decode::decode(buf)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> CkptMetadata {
        CkptMetadata {
            epoch: 3,
            entries: vec![
                CkptEntry { rank: 0, server: 0, obj: ObjId(10), len: 100 },
                CkptEntry { rank: 1, server: 1, obj: ObjId(11), len: 200 },
                CkptEntry { rank: 2, server: 0, obj: ObjId(12), len: 300 },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let m = meta();
        let wire = m.to_bytes();
        let back = CkptMetadata::from_bytes(wire).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn lookup_and_totals() {
        let m = meta();
        assert_eq!(m.entry(1).unwrap().obj, ObjId(11));
        assert!(m.entry(9).is_none());
        assert_eq!(m.total_bytes(), 600);
    }

    #[test]
    fn completeness() {
        let m = meta();
        assert!(m.is_complete(3));
        assert!(!m.is_complete(2));
        assert!(!m.is_complete(4));
        let mut dup = meta();
        dup.entries[2].rank = 0;
        assert!(!dup.is_complete(3));
    }

    #[test]
    fn decode_junk_never_panics() {
        let _ = CkptMetadata::from_bytes(bytes::Bytes::from_static(&[1, 2, 3]));
    }
}
