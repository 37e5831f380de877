//! System-wide configuration, declared once.
//!
//! Every setting is one row of the table below — doc, name, type, default —
//! and the struct, its `Default`, the `name=value` setter
//! ([`SystemConfig::set`]) and its inverse (`Display`) are all derived from
//! that row. Embedded, TCP-loopback and multi-process deployments carry the
//! same struct (node processes receive its text form whole), so adding a
//! setting is a one-row change here that every deployment sees.
//!
//! Only values some test, bench or deployment actually varies are settings.
//! What the paper states as a constant (§III-C skew threshold 0.2, §III-D
//! 20 % imbalance, …) is a default or `const` beside the component that
//! uses it; README "Configuration" lists where each one lives.

use crate::{Result, WwError};
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// The text form of one setting's value.
trait Value: Sized {
    fn parse(s: &str) -> Option<Self>;
    fn render(&self) -> String;
}

macro_rules! plain_value {
    ($($ty:ty),*) => {$(
        impl Value for $ty {
            fn parse(s: &str) -> Option<Self> {
                s.parse().ok()
            }
            fn render(&self) -> String {
                self.to_string()
            }
        }
    )*};
}
plain_value!(usize, u32, u64, bool);

/// Durations are a whole number with a unit (`5s`, `2ms`, `750us`, `1ns`),
/// written in the coarsest unit that loses nothing.
impl Value for Duration {
    fn parse(s: &str) -> Option<Self> {
        let digits = s.trim_end_matches(|c: char| c.is_ascii_alphabetic());
        let n: u64 = digits.parse().ok()?;
        match &s[digits.len()..] {
            "s" => Some(Duration::from_secs(n)),
            "ms" => Some(Duration::from_millis(n)),
            "us" => Some(Duration::from_micros(n)),
            "ns" => Some(Duration::from_nanos(n)),
            _ => None,
        }
    }
    fn render(&self) -> String {
        let ns = self.as_nanos();
        for (unit, per) in [("s", 1_000_000_000), ("ms", 1_000_000), ("us", 1_000)] {
            if ns.is_multiple_of(per) {
                return format!("{}{unit}", ns / per);
            }
        }
        format!("{ns}ns")
    }
}

macro_rules! settings {
    ($( $(#[$doc:meta])* $name:ident: $ty:ty = $default:expr, )*) => {
        /// Configuration of a Waterwheel deployment.
        #[derive(Clone, Debug, PartialEq)]
        pub struct SystemConfig {
            $( $(#[$doc])* pub $name: $ty, )*
        }

        impl Default for SystemConfig {
            fn default() -> Self {
                Self { $( $name: $default, )* }
            }
        }

        impl SystemConfig {
            fn set_field(&mut self, name: &str, value: &str) -> Result<()> {
                match name {
                    $( stringify!($name) => {
                        self.$name = Value::parse(value).ok_or_else(|| {
                            WwError::Config(format!(
                                "{name}: {value:?} is not a valid {}",
                                stringify!($ty)
                            ))
                        })?;
                    } )*
                    _ => return Err(WwError::Config(format!("unknown setting {name:?}"))),
                }
                Ok(())
            }
        }

        /// One `name=value` line per field — the inverse of
        /// [`SystemConfig::set`], read back by `FromStr`.
        impl fmt::Display for SystemConfig {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                $( writeln!(f, "{}={}", stringify!($name), self.$name.render())?; )*
                Ok(())
            }
        }
    };
}

settings! {
    /// Chunk flush threshold in bytes (paper §III-A and §VI: 16 MB; the
    /// default is scaled down so test suites run in seconds). An indexing
    /// server seals its in-memory B+ tree into an immutable chunk once the
    /// accumulated tuple bytes reach this value.
    chunk_size_bytes: usize = 1 << 20,

    /// Late-visibility parameter Δt (paper §IV-D): tuples arriving no later
    /// than Δt behind an indexing server's high-water mark stay in the main
    /// tree and remain query-visible via widened region bounds; later ones
    /// go to the per-server side store.
    late_visibility: Duration = Duration::from_secs(5),

    /// Number of indexing servers (one per key interval, paper §III-A).
    indexing_servers: usize = 2,

    /// Number of query servers.
    query_servers: usize = 4,

    /// Number of dispatchers feeding the indexing servers.
    dispatchers: usize = 2,

    /// Replication factor for chunks in the simulated DFS (HDFS default: 3).
    dfs_replication: usize = 3,

    /// Query-server cache capacity in bytes (paper §VI: 1 GB per server;
    /// scaled default 64 MB).
    cache_capacity_bytes: usize = 64 << 20,

    /// Shards the block cache N ways by key hash: each shard holds its own
    /// LRU list and `capacity / N` byte budget, so concurrent subqueries
    /// stop contending on one mutex. `1` restores the single-mutex cache.
    cache_shards: usize = 8,

    /// How many tuples an indexing server inserts between skewness checks.
    skew_check_interval: usize = 4096,

    /// Maintain live wheels and seal chunk summaries (ablation switch; when
    /// off, aggregate queries fall back to the tuple-scan path end to end).
    agg_summaries_enabled: bool = true,

    /// Tuples at which a `Request::IngestBatch` envelope leaves an *idle*
    /// dispatcher → indexing link (paper §VI Fig. 15: ingest throughput
    /// comes from amortizing per-record overhead). While a link's batch is
    /// in flight, the next one leaves at 8× this many (or on linger). The
    /// in-process plane answers before a send returns, so there every batch
    /// is this size and `1` makes every tuple a batch of one — still
    /// sequence-numbered, deduplicated and journaled.
    ingest_batch_size: usize = 128,

    /// Per-attempt deadline for every cross-server RPC. An attempt whose
    /// transit exceeds the remaining budget fails with
    /// [`WwError::Timeout`](crate::WwError::Timeout).
    rpc_timeout: Duration = Duration::from_secs(1),

    /// Extra attempts after a retryable RPC failure (timeout/unreachable);
    /// `2` means up to three attempts in total. Answers from the
    /// destination — errors included — are never retried.
    rpc_retries: u32 = 2,

    /// Admission control: requests in flight (admitted, not yet answered)
    /// a server allows before shedding. Budgets are graduated by priority —
    /// metadata sheds at half this depth, queries at three quarters, ingest
    /// only at the full depth (control probes and shutdown are always
    /// admitted).
    admission_max_inflight: usize = 4_096,

    /// Retry-after hint stamped into [`WwError::Overloaded`](crate::WwError)
    /// responses when a request is shed by queue depth.
    admission_retry_after: Duration = Duration::from_millis(50),

    /// Per-client (per source server id) token-bucket refill rate in
    /// requests/second. Zero disables client rate limiting.
    client_rate_limit: u64 = 0,

    /// Token-bucket burst capacity: a client may send this many requests
    /// back-to-back before the refill rate governs.
    client_rate_burst: u64 = 256,

    /// When `true`, every durable commit point — an acked ingest batch in
    /// the message queue, a meta-service mutation, a sealed chunk file —
    /// is `fsync`ed before it is acknowledged, so acked data survives
    /// `kill -9` *and* machine crash. When `false`, commits reach the OS
    /// page cache only: they survive process death, not power loss.
    durability_fsync: bool = true,

    /// Rotation threshold for write-ahead log segments (message-queue
    /// partition logs and the meta-service mutation log). The meta service
    /// also compacts its log into a fresh snapshot once the log outgrows
    /// this bound.
    wal_segment_bytes: usize = 8 << 20,

    /// On-disk chunk format: `2` (columnar leaves with per-leaf and
    /// per-chunk MIN/MAX measure bounds) is the only value that validates.
    /// The row-tuple v1 layout is retired and a v1 chunk is refused by
    /// name. Flush writes v2 without reading this; the field stays because
    /// perfbench builds its chunk writer options from it.
    chunk_format_version: u32 = 2,

    /// Compress chunk payload blocks (byte-shuffle + LZ, whichever encoding
    /// is smallest per leaf).
    chunk_compression: bool = true,

    /// Interval between the membership heartbeats a server sends to the
    /// meta service to renew its lease (ZooKeeper session pings).
    heartbeat_interval: Duration = Duration::from_millis(500),

    /// Membership lease TTL granted per join/heartbeat. A server whose
    /// lease lapses is evicted from the membership view, its chunks are
    /// re-replicated, and routing tables move to the next epoch. Must be
    /// longer than `heartbeat_interval` (several missed beats, not one).
    lease_ttl: Duration = Duration::from_secs(3),
}

impl SystemConfig {
    /// The paper's cluster-scale settings (16 MB chunks, 1 GB cache,
    /// 2 indexing / 4 query servers and 2 dispatchers per node). The
    /// paper's 2–50 ms HDFS access cost (§VI-B) is not a config field:
    /// model it with `WaterwheelBuilder::dfs_latency`.
    pub fn paper_scale() -> Self {
        Self {
            chunk_size_bytes: 16 << 20,
            cache_capacity_bytes: 1 << 30,
            ..Self::default()
        }
    }

    /// Applies one `name=value` assignment. Unknown names and values that
    /// do not parse as the field's type are [`WwError::Config`]; the
    /// cross-field rules are [`Self::validate`]'s.
    pub fn set(&mut self, assignment: &str) -> Result<()> {
        let (name, value) = assignment
            .split_once('=')
            .ok_or_else(|| WwError::Config(format!("{assignment:?} is not name=value")))?;
        self.set_field(name, value)
    }

    /// Checks internal consistency; every deployment calls it at start.
    pub fn validate(&self) -> Result<()> {
        let positive = [
            ("indexing_servers", self.indexing_servers),
            ("query_servers", self.query_servers),
            ("dispatchers", self.dispatchers),
            ("dfs_replication", self.dfs_replication),
            ("chunk_size_bytes", self.chunk_size_bytes),
            ("ingest_batch_size", self.ingest_batch_size),
            ("cache_shards", self.cache_shards),
            ("admission_max_inflight", self.admission_max_inflight),
        ];
        let broken = if let Some((name, _)) = positive.iter().find(|(_, v)| *v == 0) {
            format!("{name} must be at least 1")
        } else if self.rpc_timeout.is_zero() {
            "rpc_timeout must be positive".into()
        } else if self.client_rate_limit > 0 && self.client_rate_burst == 0 {
            "client_rate_burst must be positive when rate limiting".into()
        } else if self.wal_segment_bytes < 4096 {
            "wal_segment_bytes must be at least 4096".into()
        } else if self.chunk_format_version != 2 {
            "chunk_format_version must be 2 (the v1 row format is retired)".into()
        } else if self.heartbeat_interval.is_zero() {
            "heartbeat_interval must be positive".into()
        } else if self.lease_ttl <= self.heartbeat_interval {
            "lease_ttl must exceed heartbeat_interval".into()
        } else {
            return Ok(());
        };
        Err(WwError::Config(broken))
    }
}

/// Defaults overlaid with whitespace-separated `name=value` assignments
/// (what `Display` writes), then validated.
impl FromStr for SystemConfig {
    type Err = WwError;

    fn from_str(text: &str) -> Result<Self> {
        let mut cfg = Self::default();
        for assignment in text.split_whitespace() {
            cfg.set(assignment)?;
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        SystemConfig::default().validate().unwrap();
        SystemConfig::paper_scale().validate().unwrap();
    }

    #[test]
    fn paper_scale_uses_paper_constants() {
        let c = SystemConfig::paper_scale();
        assert_eq!(c.chunk_size_bytes, 16 << 20);
        assert_eq!(c.cache_capacity_bytes, 1 << 30);
    }

    #[test]
    fn validate_rejects_degenerate_settings() {
        for breakage in [
            |c: &mut SystemConfig| c.indexing_servers = 0,
            |c: &mut SystemConfig| c.dfs_replication = 0,
            |c: &mut SystemConfig| c.chunk_size_bytes = 0,
            |c: &mut SystemConfig| c.ingest_batch_size = 0,
            |c: &mut SystemConfig| c.cache_shards = 0,
            |c: &mut SystemConfig| c.rpc_timeout = Duration::ZERO,
            |c: &mut SystemConfig| c.wal_segment_bytes = 0,
            |c: &mut SystemConfig| c.admission_max_inflight = 0,
            |c: &mut SystemConfig| {
                c.client_rate_limit = 100;
                c.client_rate_burst = 0;
            },
            |c: &mut SystemConfig| c.chunk_format_version = 0,
            |c: &mut SystemConfig| c.chunk_format_version = 1,
            |c: &mut SystemConfig| c.chunk_format_version = 3,
            |c: &mut SystemConfig| c.heartbeat_interval = Duration::ZERO,
            |c: &mut SystemConfig| c.lease_ttl = Duration::from_millis(1),
        ] {
            let mut c = SystemConfig::default();
            breakage(&mut c);
            assert!(matches!(c.validate(), Err(WwError::Config(_))));
        }
    }

    /// Every field, each with a value that differs from its default —
    /// except `chunk_format_version`, whose one valid value is its default.
    const OFF_DEFAULT: [&str; 23] = [
        "chunk_size_bytes=65536",
        "late_visibility=750us",
        "indexing_servers=3",
        "query_servers=5",
        "dispatchers=1",
        "dfs_replication=2",
        "cache_capacity_bytes=1048576",
        "cache_shards=2",
        "skew_check_interval=100",
        "agg_summaries_enabled=false",
        "ingest_batch_size=1",
        "rpc_timeout=10s",
        "rpc_retries=0",
        "admission_max_inflight=12",
        "admission_retry_after=1ns",
        "client_rate_limit=1000",
        "client_rate_burst=5",
        "durability_fsync=false",
        "wal_segment_bytes=4096",
        "chunk_format_version=2",
        "chunk_compression=false",
        "heartbeat_interval=100ms",
        "lease_ttl=1500ms",
    ];

    #[test]
    fn every_field_round_trips_through_the_text_form() {
        let defaults = SystemConfig::default().to_string();
        let mut cfg = SystemConfig::default();
        for assignment in OFF_DEFAULT {
            cfg.set(assignment).unwrap();
        }
        cfg.validate().unwrap();
        let text = cfg.to_string();
        // The table covers the struct: one line per field, in field order,
        // and none of them still at its default but the one-value field —
        // `chunk_format_version` accepts only `2` and stays a field because
        // perfbench reads it.
        assert_eq!(text.lines().collect::<Vec<_>>(), OFF_DEFAULT);
        for (changed, default) in text.lines().zip(defaults.lines()) {
            if changed.starts_with("chunk_format_version=") {
                assert_eq!(changed, default);
            } else {
                assert_ne!(changed, default);
            }
        }
        assert_eq!(text.parse::<SystemConfig>().unwrap(), cfg);
        assert_eq!(
            defaults.parse::<SystemConfig>().unwrap(),
            SystemConfig::default()
        );
        // Assignments overlay the defaults; a partial text is fine.
        let partial: SystemConfig = "dispatchers=7 lease_ttl=4s".parse().unwrap();
        assert_eq!(partial.dispatchers, 7);
        assert_eq!(partial.lease_ttl, Duration::from_secs(4));
        assert_eq!(partial.query_servers, SystemConfig::default().query_servers);
    }

    #[test]
    fn bad_text_is_a_typed_error_never_a_silent_default() {
        for bad in [
            "btree_fanout=16",        // a removed knob is an unknown name
            "query_workers=1",        // so is a retired ablation switch
            "no_such_setting=1",      // unknown name
            "dispatchers",            // not name=value
            "dispatchers=",           // empty value
            "dispatchers=two",        // malformed number
            "dispatchers=-1",         // out of the type's range
            "rpc_retries=4294967296", // overflows u32
            "chunk_compression=yes",  // not a bool
            "late_visibility=2",      // duration without a unit
            "late_visibility=2min",   // unknown unit
            "late_visibility=ms",     // unit without a number
            "dispatchers=0",          // parses, validate() rejects
            "chunk_format_version=1", // the retired row format
            "chunk_format_version=3",
            "heartbeat_interval=5s", // not below the default lease_ttl
        ] {
            let err = bad.parse::<SystemConfig>().err();
            assert!(
                matches!(err, Some(WwError::Config(_))),
                "{bad:?} gave {err:?}"
            );
        }
        let retired = "query_workers=1".parse::<SystemConfig>().unwrap_err();
        assert!(retired.to_string().contains("unknown setting"), "{retired}");
        let v1 = "chunk_format_version=1"
            .parse::<SystemConfig>()
            .unwrap_err();
        assert!(v1.to_string().contains("v1 row format is retired"), "{v1}");
        // A failed assignment leaves the field as it was.
        let mut cfg = SystemConfig::default();
        assert!(cfg.set("dispatchers=two").is_err());
        assert_eq!(cfg, SystemConfig::default());
    }
}
