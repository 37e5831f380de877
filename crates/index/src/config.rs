//! Index-level configuration. The structural constants (fanout, leaf
//! capacity, the paper's §III-C skew threshold, bloom sizing) are owned here
//! as defaults; the system-wide config contributes only what deployments
//! vary: the skew-check cadence.

use waterwheel_core::SystemConfig;

/// Configuration of the per-leaf temporal bloom filters (paper §IV-B).
#[derive(Clone, Copy, Debug)]
pub struct BloomConfig {
    /// Width of one time mini-range in milliseconds. Tuples are mapped to
    /// `ts / mini_range_ms` buckets before insertion into the filter.
    pub mini_range_ms: u64,
    /// Bits allocated per mini-range a leaf can cover: the smaller of the
    /// buckets its time span touches and its tuple count.
    pub bits_per_entry: usize,
}

impl Default for BloomConfig {
    fn default() -> Self {
        Self {
            mini_range_ms: 1_000,
            bits_per_entry: 10,
        }
    }
}

/// Tunables for the in-memory index structures.
#[derive(Clone, Copy, Debug)]
pub struct IndexConfig {
    /// Maximum children per inner node (and entries per baseline leaf).
    pub fanout: usize,
    /// Target tuples per leaf when building or rebuilding a template.
    pub leaf_capacity: usize,
    /// Skewness threshold that marks a template obsolete (paper §III-C: 0.2).
    pub skew_threshold: f64,
    /// Inserts between skewness checks.
    pub skew_check_interval: usize,
    /// Temporal bloom filters; `None` disables them (ablation knob).
    pub bloom: Option<BloomConfig>,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self {
            fanout: 16,
            leaf_capacity: 64,
            skew_threshold: 0.2,
            skew_check_interval: 4096,
            bloom: Some(BloomConfig::default()),
        }
    }
}

impl IndexConfig {
    /// Derives the index configuration from the system configuration.
    pub fn from_system(sys: &SystemConfig) -> Self {
        Self {
            skew_check_interval: sys.skew_check_interval,
            ..Self::default()
        }
    }

    /// Disables bloom filters (builder-style, for the component-level
    /// ablation bench).
    pub fn without_bloom(mut self) -> Self {
        self.bloom = None;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_system_takes_the_skew_check_cadence() {
        let mut sys = SystemConfig::default();
        sys.skew_check_interval = 77;
        let cfg = IndexConfig::from_system(&sys);
        assert_eq!(cfg.bloom.unwrap().bits_per_entry, 10);
        assert_eq!(cfg.skew_check_interval, 77);
    }

    #[test]
    fn without_bloom_clears_bloom() {
        assert!(IndexConfig::default().without_bloom().bloom.is_none());
    }
}
