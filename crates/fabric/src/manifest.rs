//! The cluster manifest: which socket address answers for each node id.
//!
//! Process-mode bootstrap is a file (or an in-memory table) mapping
//! `nid -> host:port` for every *service* node — compute processes are
//! deliberately absent, matching the paper's connectionless addressing:
//! servers never dial clients, they answer on the connection a client's
//! own request arrived on (a learned route), so only nodes that must be
//! dialable appear in the manifest.
//!
//! The file format is one `nid addr` pair per line, `#` comments and
//! blank lines ignored:
//!
//! ```text
//! # lwfs cluster manifest
//! 1000 127.0.0.1:41000
//! 1100 127.0.0.1:41100
//! ```

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;

use lwfs_proto::{Error, NodeId, Result};

/// Peer directory for a socket fabric: nid → socket address.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    addrs: BTreeMap<u32, SocketAddr>,
}

impl Manifest {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or replace) a node's address.
    pub fn insert(&mut self, nid: NodeId, addr: SocketAddr) {
        self.addrs.insert(nid.0, addr);
    }

    /// The address answering for `nid`, if the manifest names one.
    pub fn addr_of(&self, nid: NodeId) -> Option<SocketAddr> {
        self.addrs.get(&nid.0).copied()
    }

    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Serialize to the line-oriented file format.
    pub fn to_file_string(&self) -> String {
        let mut out = String::from("# lwfs cluster manifest: nid addr\n");
        for (nid, addr) in &self.addrs {
            out.push_str(&format!("{nid} {addr}\n"));
        }
        out
    }

    /// Parse the line-oriented file format.
    pub fn parse(text: &str) -> Result<Self> {
        let mut m = Manifest::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(nid), Some(addr), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(Error::Malformed(format!(
                    "manifest line {}: expected 'nid addr', got {line:?}",
                    lineno + 1
                )));
            };
            let nid: u32 = nid.parse().map_err(|e| {
                Error::Malformed(format!("manifest line {}: bad nid: {e}", lineno + 1))
            })?;
            let addr: SocketAddr = addr.parse().map_err(|e| {
                Error::Malformed(format!("manifest line {}: bad address: {e}", lineno + 1))
            })?;
            m.insert(NodeId(nid), addr);
        }
        Ok(m)
    }

    /// Load from a file on disk.
    pub fn load(path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error::StorageIo(format!("reading manifest {}: {e}", path.display())))?;
        Self::parse(&text)
    }

    /// Write to a file on disk.
    pub fn store(&self, path: &Path) -> Result<()> {
        std::fs::write(path, self.to_file_string())
            .map_err(|e| Error::StorageIo(format!("writing manifest {}: {e}", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_file_format() {
        let mut m = Manifest::new();
        m.insert(NodeId(1000), "127.0.0.1:41000".parse().unwrap());
        m.insert(NodeId(1100), "127.0.0.1:41100".parse().unwrap());
        let back = Manifest::parse(&m.to_file_string()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.addr_of(NodeId(1100)), Some("127.0.0.1:41100".parse().unwrap()));
        assert_eq!(back.addr_of(NodeId(9)), None);
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let m = Manifest::parse("# heading\n\n  1000 127.0.0.1:9000  \n# trailing\n").unwrap();
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Manifest::parse("1000").is_err());
        assert!(Manifest::parse("notanid 127.0.0.1:9000").is_err());
        assert!(Manifest::parse("1000 notanaddr").is_err());
        assert!(Manifest::parse("1000 127.0.0.1:9000 extra").is_err());
    }
}
