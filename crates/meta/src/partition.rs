//! The global key-partitioning schema (paper §III-A, §III-D).
//!
//! The key domain is range-partitioned across indexing servers; dispatchers
//! route each tuple by its key. The schema is versioned: adaptive key
//! partitioning (§III-D) installs a new version, and the overlap window
//! between the old and new assignments is handled by the metadata server
//! tracking *actual* key intervals per server.

use waterwheel_core::codec::{Decoder, Encoder, Wire};
use waterwheel_core::{Key, KeyInterval, Result, ServerId, WwError};

/// One partition entry: a key interval owned by an indexing server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionEntry {
    /// The assigned key interval.
    pub interval: KeyInterval,
    /// The owning indexing server.
    pub server: ServerId,
}

waterwheel_core::wire_struct!(PartitionEntry {
    interval: KeyInterval,
    server: ServerId,
});

/// A versioned range partition of the full key domain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionSchema {
    /// Monotone version; bumped on every repartition.
    pub version: u64,
    /// Entries in ascending key order, covering the domain exactly.
    pub entries: Vec<PartitionEntry>,
}

impl PartitionSchema {
    /// Splits the full key domain evenly across `servers` (bootstrap
    /// partitioning, before any frequency statistics exist).
    pub fn uniform(servers: &[ServerId]) -> Self {
        assert!(!servers.is_empty());
        let n = servers.len() as u128;
        let width = KeyInterval::full().width() / n;
        let mut entries = Vec::with_capacity(servers.len());
        let mut lo: u128 = 0;
        for (i, &server) in servers.iter().enumerate() {
            let hi = if i + 1 == servers.len() {
                u64::MAX as u128
            } else {
                lo + width - 1
            };
            entries.push(PartitionEntry {
                interval: KeyInterval::new(lo as Key, hi as Key),
                server,
            });
            lo = hi + 1;
        }
        Self {
            version: 0,
            entries,
        }
    }

    /// Builds a schema from `boundaries` (strictly increasing interior
    /// separator keys): server `i` owns `[boundaries[i−1], boundaries[i])`.
    pub fn from_boundaries(boundaries: &[Key], servers: &[ServerId], version: u64) -> Result<Self> {
        if boundaries.len() + 1 != servers.len() {
            return Err(WwError::Config(format!(
                "{} boundaries for {} servers",
                boundaries.len(),
                servers.len()
            )));
        }
        if !boundaries.windows(2).all(|w| w[0] < w[1]) {
            return Err(WwError::Config("boundaries not strictly increasing".into()));
        }
        if boundaries.first() == Some(&0) {
            return Err(WwError::Config(
                "first boundary would empty server 0".into(),
            ));
        }
        let mut entries = Vec::with_capacity(servers.len());
        let mut lo: Key = 0;
        for (i, &server) in servers.iter().enumerate() {
            let hi = if i < boundaries.len() {
                boundaries[i] - 1
            } else {
                Key::MAX
            };
            entries.push(PartitionEntry {
                interval: KeyInterval::new(lo, hi),
                server,
            });
            lo = hi.wrapping_add(1);
        }
        Ok(Self { version, entries })
    }

    /// The indexing server responsible for `key`.
    pub fn route(&self, key: Key) -> ServerId {
        let idx = self
            .entries
            .partition_point(|e| e.interval.hi() < key)
            .min(self.entries.len() - 1);
        self.entries[idx].server
    }

    /// The interval assigned to `server`, if any.
    pub fn interval_of(&self, server: ServerId) -> Option<KeyInterval> {
        self.entries
            .iter()
            .find(|e| e.server == server)
            .map(|e| e.interval)
    }

    /// Checks the schema covers the key domain exactly once.
    pub fn validate(&self) -> Result<()> {
        if self.entries.is_empty() {
            return Err(WwError::Config("empty partition schema".into()));
        }
        if self.entries[0].interval.lo() != 0 {
            return Err(WwError::Config("schema does not start at key 0".into()));
        }
        if self.entries.last().unwrap().interval.hi() != Key::MAX {
            return Err(WwError::Config("schema does not end at Key::MAX".into()));
        }
        for w in self.entries.windows(2) {
            if w[0].interval.hi().wrapping_add(1) != w[1].interval.lo() {
                return Err(WwError::Config(format!(
                    "gap or overlap between {:?} and {:?}",
                    w[0].interval, w[1].interval
                )));
            }
        }
        Ok(())
    }
}

/// The version, then the entries; bytes that do not form a valid schema
/// are damage, not a caller's configuration mistake.
impl Wire for PartitionSchema {
    const MIN_LEN: usize = 12;

    fn encode(&self, out: &mut impl Encoder) {
        self.version.encode(out);
        self.entries.encode(out);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let schema = Self {
            version: Wire::decode(dec)?,
            entries: Wire::decode(dec)?,
        };
        schema
            .validate()
            .map_err(|e| WwError::corrupt("partition schema", e.to_string()))?;
        Ok(schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn servers(n: u32) -> Vec<ServerId> {
        (0..n).map(ServerId).collect()
    }

    #[test]
    fn uniform_covers_domain_exactly() {
        for n in [1u32, 2, 3, 7, 16] {
            let schema = PartitionSchema::uniform(&servers(n));
            schema.validate().unwrap();
            assert_eq!(schema.entries.len(), n as usize);
        }
    }

    #[test]
    fn route_respects_interval_bounds() {
        let schema = PartitionSchema::from_boundaries(&[100, 200], &servers(3), 1).unwrap();
        assert_eq!(schema.route(0), ServerId(0));
        assert_eq!(schema.route(99), ServerId(0));
        assert_eq!(schema.route(100), ServerId(1));
        assert_eq!(schema.route(199), ServerId(1));
        assert_eq!(schema.route(200), ServerId(2));
        assert_eq!(schema.route(Key::MAX), ServerId(2));
    }

    #[test]
    fn interval_of_finds_assignments() {
        let schema = PartitionSchema::from_boundaries(&[1000], &servers(2), 3).unwrap();
        assert_eq!(
            schema.interval_of(ServerId(0)),
            Some(KeyInterval::new(0, 999))
        );
        assert_eq!(
            schema.interval_of(ServerId(1)),
            Some(KeyInterval::new(1000, Key::MAX))
        );
        assert_eq!(schema.interval_of(ServerId(9)), None);
    }

    #[test]
    fn from_boundaries_rejects_bad_input() {
        assert!(PartitionSchema::from_boundaries(&[5], &servers(3), 0).is_err());
        assert!(PartitionSchema::from_boundaries(&[5, 5], &servers(3), 0).is_err());
        assert!(PartitionSchema::from_boundaries(&[9, 5], &servers(3), 0).is_err());
        assert!(PartitionSchema::from_boundaries(&[0], &servers(2), 0).is_err());
    }

    #[test]
    fn validate_detects_gaps_and_overlaps() {
        let mut schema = PartitionSchema::uniform(&servers(2));
        schema.validate().unwrap();
        // Introduce a gap.
        schema.entries[0].interval = KeyInterval::new(0, 10);
        assert!(schema.validate().is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let schema = PartitionSchema::from_boundaries(&[42, 9_000], &servers(3), 7).unwrap();
        let mut buf = Vec::new();
        schema.encode(&mut buf);
        let got = PartitionSchema::decode(&mut Decoder::new(&buf, "test")).unwrap();
        assert_eq!(got, schema);
    }

    #[test]
    fn every_key_routes_to_exactly_one_server() {
        let schema = PartitionSchema::from_boundaries(&[10, 20, 30], &servers(4), 1).unwrap();
        for key in [0u64, 9, 10, 19, 20, 29, 30, 1_000, Key::MAX] {
            let owner = schema.route(key);
            let covering: Vec<_> = schema
                .entries
                .iter()
                .filter(|e| e.interval.contains(key))
                .collect();
            assert_eq!(covering.len(), 1);
            assert_eq!(covering[0].server, owner);
        }
    }
}
