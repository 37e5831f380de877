//! Synthetic T-Drive-like taxi trajectory workload (paper §VI).
//!
//! The paper's T-Drive dataset holds GPS records of 10,357 Beijing taxis —
//! `⟨taxi id, latitude, longitude, timestamp⟩`, z-ordered into a one-
//! dimensional key, 36 bytes per encoded tuple. We have no access to the
//! original traces, so this generator reproduces the properties Waterwheel
//! exploits and the evaluation depends on:
//!
//! * keys are **z-codes** of positions inside a fixed bounding box (Beijing:
//!   39.4–41.1 °N, 115.7–117.4 °E), computed with the same
//!   [`zorder`] pipeline the paper describes;
//! * the key distribution **evolves slowly**: each taxi performs a bounded
//!   random walk, so consecutive records of a taxi are spatially close and
//!   the fleet-level distribution drifts gently;
//! * timestamps are **almost ordered**: the fleet reports in rounds, with
//!   optional bounded disorder to exercise the Δt late-arrival machinery;
//! * each encoded tuple is exactly **36 bytes** (20-byte header + 16-byte
//!   payload: taxi id, quantized lat/lon, padding).

use crate::rng::Rng;
use bytes::Bytes;
use waterwheel_core::zorder;
use waterwheel_core::{KeyInterval, Timestamp, Tuple};

/// Beijing-like bounding box used by the generator and query converter.
pub const LAT_MIN: f64 = 39.4;
/// Northern latitude bound.
pub const LAT_MAX: f64 = 41.1;
/// Western longitude bound.
pub const LON_MIN: f64 = 115.7;
/// Eastern longitude bound.
pub const LON_MAX: f64 = 117.4;

/// Bounded timestamp disorder, exercising §IV-D's late-arrival handling.
#[derive(Clone, Copy, Debug, Default)]
pub struct Disorder {
    /// Probability that a tuple is delayed.
    pub probability: f64,
    /// Maximum delay in milliseconds (uniform in `[0, max_delay_ms]`).
    pub max_delay_ms: u64,
}

/// Configuration of the synthetic fleet.
#[derive(Clone, Copy, Debug)]
pub struct TDriveConfig {
    /// Number of taxis (paper: 10,357; scale down for unit tests).
    pub taxis: usize,
    /// Milliseconds between consecutive reports of one taxi.
    pub report_interval_ms: u64,
    /// Random-walk step as a fraction of the bounding box per report.
    pub step_fraction: f64,
    /// Timestamp disorder model.
    pub disorder: Disorder,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TDriveConfig {
    fn default() -> Self {
        Self {
            taxis: 1_000,
            report_interval_ms: 1_000,
            step_fraction: 0.002,
            disorder: Disorder::default(),
            seed: 0x7D21_7E01,
        }
    }
}

struct Taxi {
    lat: f64,
    lon: f64,
}

/// An infinite iterator of taxi report tuples.
pub struct TDriveGen {
    cfg: TDriveConfig,
    rng: Rng,
    taxis: Vec<Taxi>,
    /// Index of the taxi reporting next.
    cursor: usize,
    /// Wall-clock of the current reporting round.
    now_ms: Timestamp,
}

impl TDriveGen {
    /// Creates a fleet with uniformly scattered starting positions.
    pub fn new(cfg: TDriveConfig) -> Self {
        assert!(cfg.taxis > 0);
        let mut rng = Rng::new(cfg.seed);
        let taxis = (0..cfg.taxis)
            .map(|_| Taxi {
                lat: LAT_MIN + rng.next_f64() * (LAT_MAX - LAT_MIN),
                lon: LON_MIN + rng.next_f64() * (LON_MAX - LON_MIN),
            })
            .collect();
        Self {
            cfg,
            rng,
            taxis,
            cursor: 0,
            now_ms: 1_000_000, // arbitrary epoch, away from zero
        }
    }

    /// Current generator clock (the event time of the next round).
    pub fn now_ms(&self) -> Timestamp {
        self.now_ms
    }

    /// The z-code for a position, quantized to the bounding box.
    pub fn zcode(lat: f64, lon: f64) -> u64 {
        let x = zorder::quantize(lon, LON_MIN, LON_MAX);
        let y = zorder::quantize(lat, LAT_MIN, LAT_MAX);
        zorder::encode(x, y)
    }

    /// Converts a geographic rectangle into covering z-code intervals —
    /// the query-side transformation of §VI ("the geographical rectangle is
    /// converted to one or more intervals in z-code domain").
    pub fn georect_to_key_ranges(
        lat0: f64,
        lat1: f64,
        lon0: f64,
        lon1: f64,
        max_ranges: usize,
    ) -> Vec<KeyInterval> {
        let x0 = zorder::quantize(lon0, LON_MIN, LON_MAX);
        let x1 = zorder::quantize(lon1, LON_MIN, LON_MAX);
        let y0 = zorder::quantize(lat0, LAT_MIN, LAT_MAX);
        let y1 = zorder::quantize(lat1, LAT_MIN, LAT_MAX);
        zorder::cover_rect(x0.min(x1), x0.max(x1), y0.min(y1), y0.max(y1), max_ranges)
    }

    fn step(&mut self, idx: usize) {
        let lat_span = (LAT_MAX - LAT_MIN) * self.cfg.step_fraction;
        let lon_span = (LON_MAX - LON_MIN) * self.cfg.step_fraction;
        let taxi = &mut self.taxis[idx];
        taxi.lat =
            (taxi.lat + (self.rng.next_f64() - 0.5) * 2.0 * lat_span).clamp(LAT_MIN, LAT_MAX);
        taxi.lon =
            (taxi.lon + (self.rng.next_f64() - 0.5) * 2.0 * lon_span).clamp(LON_MIN, LON_MAX);
    }
}

impl Iterator for TDriveGen {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        let idx = self.cursor;
        self.cursor += 1;
        if self.cursor == self.taxis.len() {
            self.cursor = 0;
            self.now_ms += self.cfg.report_interval_ms;
        }
        self.step(idx);
        let taxi = &self.taxis[idx];
        let key = Self::zcode(taxi.lat, taxi.lon);
        let mut ts = self.now_ms;
        let d = self.cfg.disorder;
        if d.probability > 0.0 && self.rng.chance(d.probability) {
            ts = ts.saturating_sub(self.rng.below(d.max_delay_ms.max(1) + 1));
        }
        // 16-byte payload: taxi id + quantized lat/lon + padding → 36-byte
        // encoded tuple, matching the paper.
        let mut payload = Vec::with_capacity(16);
        payload.extend_from_slice(&(idx as u32).to_le_bytes());
        payload.extend_from_slice(&zorder::quantize(taxi.lat, LAT_MIN, LAT_MAX).to_le_bytes());
        payload.extend_from_slice(&zorder::quantize(taxi.lon, LON_MIN, LON_MAX).to_le_bytes());
        payload.extend_from_slice(&[0u8; 4]);
        Some(Tuple::new(key, ts, Bytes::from(payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(taxis: usize, seed: u64) -> TDriveGen {
        TDriveGen::new(TDriveConfig {
            taxis,
            seed,
            ..TDriveConfig::default()
        })
    }

    #[test]
    fn tuples_are_36_bytes_encoded() {
        let mut g = gen(10, 1);
        for _ in 0..20 {
            assert_eq!(g.next().unwrap().encoded_len(), 36);
        }
    }

    #[test]
    fn timestamps_are_nondecreasing_without_disorder() {
        let mut g = gen(5, 2);
        let mut last = 0;
        for _ in 0..100 {
            let t = g.next().unwrap();
            assert!(t.ts >= last);
            last = t.ts;
        }
    }

    #[test]
    fn disorder_produces_bounded_lateness() {
        let mut g = TDriveGen::new(TDriveConfig {
            taxis: 5,
            disorder: Disorder {
                probability: 0.5,
                max_delay_ms: 3_000,
            },
            seed: 3,
            ..TDriveConfig::default()
        });
        let mut high_water = 0u64;
        let mut late_seen = false;
        for _ in 0..1_000 {
            let t = g.next().unwrap();
            if t.ts < high_water {
                late_seen = true;
                assert!(high_water - t.ts <= 3_000 + 1_000);
            }
            high_water = high_water.max(t.ts);
        }
        assert!(late_seen, "disorder model produced no late tuples");
    }

    #[test]
    fn keys_drift_slowly_per_taxi() {
        // One taxi: consecutive positions stay near each other.
        let mut g = TDriveGen::new(TDriveConfig {
            taxis: 1,
            step_fraction: 0.001,
            seed: 4,
            ..TDriveConfig::default()
        });
        let decode = |t: &Tuple| {
            let lat = u32::from_le_bytes(t.payload[4..8].try_into().unwrap());
            let lon = u32::from_le_bytes(t.payload[8..12].try_into().unwrap());
            (lat as f64, lon as f64)
        };
        let mut prev = decode(&g.next().unwrap());
        for _ in 0..100 {
            let cur = decode(&g.next().unwrap());
            let max_step = u32::MAX as f64 * 0.003;
            assert!((cur.0 - prev.0).abs() <= max_step);
            assert!((cur.1 - prev.1).abs() <= max_step);
            prev = cur;
        }
    }

    #[test]
    fn georect_queries_cover_matching_tuples() {
        let mut g = gen(200, 5);
        let tuples: Vec<Tuple> = (&mut g).take(2_000).collect();
        // A central sub-rectangle of the bounding box.
        let (lat0, lat1) = (40.0, 40.5);
        let (lon0, lon1) = (116.2, 116.8);
        let ranges = TDriveGen::georect_to_key_ranges(lat0, lat1, lon0, lon1, 16);
        assert!(!ranges.is_empty());
        for t in &tuples {
            let lat_q = u32::from_le_bytes(t.payload[4..8].try_into().unwrap());
            let lon_q = u32::from_le_bytes(t.payload[8..12].try_into().unwrap());
            let inside = lat_q >= zorder::quantize(lat0, LAT_MIN, LAT_MAX)
                && lat_q <= zorder::quantize(lat1, LAT_MIN, LAT_MAX)
                && lon_q >= zorder::quantize(lon0, LON_MIN, LON_MAX)
                && lon_q <= zorder::quantize(lon1, LON_MIN, LON_MAX);
            let covered = ranges.iter().any(|r| r.contains(t.key));
            if inside {
                assert!(covered, "in-rect tuple not covered by z-ranges");
            }
        }
    }

    #[test]
    fn determinism_across_instances() {
        let a: Vec<Tuple> = gen(50, 9).take(500).collect();
        let b: Vec<Tuple> = gen(50, 9).take(500).collect();
        assert_eq!(a, b);
        let c: Vec<Tuple> = gen(50, 10).take(500).collect();
        assert_ne!(a, c);
    }
}
