//! Sealed, immutable aggregate summaries: the compact form of a wheel that
//! rides in a flushed chunk's footer and in metadata extents.

use crate::partial::PartialAgg;
use crate::plan::plan_slots;
use crate::wheel::{clip_to_hull, AggWheel, FoldOutcome, Granularity, Ring};
use waterwheel_core::codec::{checksum, fnv1a, Decoder, Encoder, Wire};
use waterwheel_core::{Result, TimeInterval, WwError};

/// Magic prefix of an encoded summary (`WWAGGSU2`): the trailing sum is
/// [`checksum`].
pub const SUMMARY_MAGIC: u64 = u64::from_le_bytes(*b"WWAGGSU2");
/// Magic prefix of a summary written before [`checksum`] (`WWAGGSU1`): the
/// same layout, summed with FNV-1a. Still read, no longer written.
pub const FNV_SUMMARY_MAGIC: u64 = u64::from_le_bytes(*b"WWAGGSU1");

/// A sealed aggregate wheel.
///
/// Unlike the live [`AggWheel`], rings whose cell count exceeded the
/// configured cap are *dropped* — finest first, which is safe because a
/// finer ring always has at least as many cells as a coarser one over the
/// same data. A fold over a summary therefore reports the time ranges it
/// could not answer as residues for the caller to tuple-scan, instead of
/// silently approximating.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WheelSummary {
    slice_bits: u8,
    rings: [Option<Ring>; 4],
    hull: Option<TimeInterval>,
}

impl WheelSummary {
    /// Seals a live wheel, dropping any ring with more than
    /// `max_cells_per_ring` cells. The flush seals the wheel it took at the
    /// swap, which holds exactly the chunk's tuples.
    pub fn seal(wheel: AggWheel, max_cells_per_ring: usize) -> Self {
        Self {
            slice_bits: wheel.slice_bits,
            rings: wheel
                .rings
                .map(|ring| (ring.len() <= max_cells_per_ring).then_some(ring)),
            hull: wheel.hull,
        }
    }

    /// Builds a summary directly from measured tuples: the same bytes the
    /// flush seals from its live wheel, however the tuples were batched.
    pub fn build(
        tuples: impl IntoIterator<Item = (u64, u64, u64)>,
        slice_bits: u8,
        max_cells_per_ring: usize,
    ) -> Self {
        let mut wheel = AggWheel::new(slice_bits);
        wheel.insert_batch(tuples);
        Self::seal(wheel, max_cells_per_ring)
    }

    /// Key-slice width exponent.
    pub fn slice_bits(&self) -> u8 {
        self.slice_bits
    }

    /// Raw time extent of the summarized data.
    pub fn hull(&self) -> Option<TimeInterval> {
        self.hull
    }

    /// Whether the ring at `gran` survived the cap.
    pub fn has_ring(&self, gran: Granularity) -> bool {
        self.rings[gran.index()].is_some()
    }

    /// Bitmask of surviving rings, bit i = `Granularity::ALL[i]`.
    pub fn levels(&self) -> u8 {
        let mut mask = 0u8;
        for gran in Granularity::ALL {
            if self.has_ring(gran) {
                mask |= 1 << gran.index();
            }
        }
        mask
    }

    /// Total cells across surviving rings.
    pub fn cell_count(&self) -> usize {
        self.rings.iter().flatten().map(|r| r.len()).sum()
    }

    /// Whether no data was summarized.
    pub fn is_empty(&self) -> bool {
        self.hull.is_none()
    }

    /// MIN/MAX of the measure over *every* summarized tuple, from any
    /// surviving ring. Each ring covers the full tuple set (sealing keeps
    /// or drops rings whole), so merging one ring's cells yields exact
    /// chunk-level bounds. `None` when empty or no ring survived the cap.
    pub fn measure_bounds(&self) -> Option<(u64, u64)> {
        // Coarsest surviving ring = fewest cells to merge.
        let ring = self.rings.iter().rev().flatten().next()?;
        let mut acc = PartialAgg::empty();
        for cell in ring.values() {
            acc.merge(cell);
        }
        Some((acc.min()?, acc.max()?))
    }

    /// Merges every answerable cell inside `slices × covered` and reports
    /// unanswerable time sub-ranges as coalesced residues. `covered` must
    /// be second-aligned (see `plan::plan_time`).
    pub fn fold(&self, slices: (u16, u16), covered: &TimeInterval) -> FoldOutcome {
        let mut out = FoldOutcome::default();
        let Some(covered) = clip_to_hull(covered, self.hull) else {
            return out;
        };
        let mut residues: Vec<TimeInterval> = Vec::new();
        for (gran, bucket) in plan_slots(&covered) {
            self.fold_slot(gran, bucket, slices, &mut out, &mut residues);
        }
        out.residues = coalesce(residues);
        out
    }

    fn fold_slot(
        &self,
        gran: Granularity,
        bucket: u64,
        slices: (u16, u16),
        out: &mut FoldOutcome,
        residues: &mut Vec<TimeInterval>,
    ) {
        if let Some(ring) = &self.rings[gran.index()] {
            for (_, cell) in ring.range((bucket, slices.0)..=(bucket, slices.1)) {
                out.agg.merge(cell);
                out.cells_merged += 1;
            }
            return;
        }
        // Ring capped away: refine into the next finer granularity if any
        // finer ring survived, else hand the whole slot back as a residue.
        let has_finer = (0..gran.index()).any(|i| self.rings[i].is_some());
        match gran.finer() {
            Some(finer) if has_finer => {
                let ratio = gran.span_ms() / finer.span_ms();
                for sub in bucket * ratio..(bucket + 1) * ratio {
                    self.fold_slot(finer, sub, slices, out, residues);
                }
            }
            _ => {
                let span = gran.span_ms();
                residues.push(TimeInterval::new(bucket * span, (bucket + 1) * span - 1));
            }
        }
    }

    /// Exact length of [`encode`](Self::encode)'s output, computed from the
    /// ring sizes alone (every cell is a fixed-width key plus a
    /// [`PartialAgg`]).
    pub fn encoded_len(&self) -> usize {
        const CELL: usize = 8 + 2 + 5 * 8;
        let rings: usize = self
            .rings
            .iter()
            .map(|ring| 4 + ring.as_ref().map_or(0, |r| r.len() * CELL))
            .sum();
        8 + 2 + 2 + 16 + rings + 8
    }

    /// Encodes the summary with a trailing [`checksum`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.put_u64(SUMMARY_MAGIC);
        out.put_u16(self.slice_bits as u16);
        match self.hull {
            Some(h) => {
                out.put_u16(1);
                out.put_u64(h.lo());
                out.put_u64(h.hi());
            }
            None => {
                out.put_u16(0);
                out.put_u64(0);
                out.put_u64(0);
            }
        }
        for gran in Granularity::ALL {
            match &self.rings[gran.index()] {
                None => out.put_u32(u32::MAX),
                Some(ring) => {
                    out.put_u32(ring.len() as u32);
                    for ((bucket, slice), cell) in ring {
                        out.put_u64(*bucket);
                        out.put_u16(*slice);
                        cell.encode(&mut out);
                    }
                }
            }
        }
        let sum = checksum(&out);
        out.put_u64(sum);
        out
    }

    /// Decodes a summary written by [`WheelSummary::encode`], verifying the
    /// magic and the checksum the magic names.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        if buf.len() < 8 + 8 {
            return Err(WwError::corrupt("summary", "too short"));
        }
        let (body, tail) = buf.split_at(buf.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().unwrap());
        let mut dec = Decoder::new(body, "summary");
        let sum = match dec.get_u64()? {
            SUMMARY_MAGIC => checksum,
            FNV_SUMMARY_MAGIC => fnv1a,
            _ => return Err(WwError::corrupt("summary", "bad magic")),
        };
        if sum(body) != stored {
            return Err(WwError::corrupt("summary", "checksum mismatch"));
        }
        let slice_bits = dec.get_u16()? as u8;
        if !(1..=16).contains(&slice_bits) {
            return Err(WwError::corrupt("summary", "slice_bits out of range"));
        }
        let has_hull = dec.get_u16()? != 0;
        let (h_lo, h_hi) = (dec.get_u64()?, dec.get_u64()?);
        let hull = if has_hull {
            Some(
                TimeInterval::checked(h_lo, h_hi)
                    .ok_or_else(|| WwError::corrupt("summary", "inverted hull"))?,
            )
        } else {
            None
        };
        let mut rings: [Option<Ring>; 4] = Default::default();
        for gran in Granularity::ALL {
            let n = dec.get_u32()?;
            if n == u32::MAX {
                continue;
            }
            let mut ring = Ring::new();
            for _ in 0..n {
                let bucket = dec.get_u64()?;
                let slice = dec.get_u16()?;
                let cell = PartialAgg::decode(&mut dec)?;
                ring.insert((bucket, slice), cell);
            }
            rings[gran.index()] = Some(ring);
        }
        Ok(Self {
            slice_bits,
            rings,
            hull,
        })
    }
}

/// Sorts and merges overlapping or adjacent intervals.
fn coalesce(mut ivs: Vec<TimeInterval>) -> Vec<TimeInterval> {
    if ivs.len() <= 1 {
        return ivs;
    }
    ivs.sort_by_key(|iv| iv.lo());
    let mut out: Vec<TimeInterval> = Vec::with_capacity(ivs.len());
    for iv in ivs {
        match out.last_mut() {
            Some(last) if iv.lo() <= last.hi().saturating_add(1) => {
                *last = TimeInterval::new(last.lo(), last.hi().max(iv.hi()));
            }
            _ => out.push(iv),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(n: u64) -> Vec<(u64, u64, u64)> {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x, x % 500_000, x % 997)
            })
            .collect()
    }

    fn naive(data: &[(u64, u64, u64)], covered: &TimeInterval) -> PartialAgg {
        let mut agg = PartialAgg::empty();
        for (_, ts, v) in data.iter().filter(|(_, ts, _)| covered.contains(*ts)) {
            let _ = ts;
            agg.insert(*v);
        }
        agg
    }

    #[test]
    fn uncapped_summary_matches_wheel() {
        let data = workload(2_000);
        let summary = WheelSummary::build(data.iter().copied(), 4, usize::MAX);
        assert_eq!(summary.levels(), 0b1111);
        for (lo_s, hi_s) in [(0u64, 499), (10, 30), (120, 360)] {
            let covered = TimeInterval::new(lo_s * 1_000, (hi_s + 1) * 1_000 - 1);
            let out = summary.fold((0, 15), &covered);
            assert!(out.residues.is_empty());
            assert_eq!(out.agg, naive(&data, &covered));
        }
    }

    #[test]
    fn measure_bounds_are_exact_over_all_tuples() {
        let data = workload(2_000);
        let want_min = data.iter().map(|&(_, _, v)| v).min().unwrap();
        let want_max = data.iter().map(|&(_, _, v)| v).max().unwrap();
        // Exact whether every ring survives or only the coarsest does:
        // each surviving ring covers the full tuple set.
        let full = WheelSummary::build(data.iter().copied(), 4, usize::MAX);
        assert_eq!(full.measure_bounds(), Some((want_min, want_max)));
        let capped = WheelSummary::build(data.iter().copied(), 4, 64);
        if !capped.is_empty() && capped.levels() != 0 {
            assert_eq!(capped.measure_bounds(), Some((want_min, want_max)));
        }
        assert_eq!(
            WheelSummary::build(std::iter::empty(), 4, usize::MAX).measure_bounds(),
            None
        );
    }

    #[test]
    fn capped_summary_reports_residues_not_wrong_answers() {
        let data = workload(2_000);
        // Cap low enough to drop the seconds ring (and likely minutes).
        let summary = WheelSummary::build(data.iter().copied(), 4, 64);
        assert!(!summary.has_ring(Granularity::Second));
        let covered = TimeInterval::new(0, 499_999); // not minute-aligned at top
        let out = summary.fold((0, 15), &covered);
        // Whatever was answered from coarse rings plus a naive fold over the
        // residues must equal the naive fold over everything.
        let mut together = out.agg;
        for r in &out.residues {
            together.merge(&naive(&data, r));
        }
        assert_eq!(together, naive(&data, &covered));
        // Residues stay inside the covered range.
        for r in &out.residues {
            assert!(covered.covers(r), "{r:?}");
        }
    }

    #[test]
    fn fully_capped_summary_is_all_residue() {
        let data = workload(200);
        let summary = WheelSummary::build(data.iter().copied(), 4, 0);
        assert_eq!(summary.levels(), 0);
        let covered = TimeInterval::new(0, 499_999);
        let out = summary.fold((0, 15), &covered);
        assert!(out.agg.is_empty());
        assert_eq!(out.residues.len(), 1);
        let mut got = PartialAgg::empty();
        for r in &out.residues {
            got.merge(&naive(&data, r));
        }
        assert_eq!(got, naive(&data, &covered));
    }

    #[test]
    fn codec_roundtrip_and_corruption_detection() {
        let data = workload(500);
        let summary = WheelSummary::build(data.iter().copied(), 4, 128);
        let bytes = summary.encode();
        assert_eq!(bytes.len(), summary.encoded_len());
        assert_eq!(WheelSummary::decode(&bytes).unwrap(), summary);

        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        assert!(WheelSummary::decode(&bad).is_err());
        assert!(WheelSummary::decode(&bytes[..10]).is_err());
    }

    #[test]
    fn a_summary_summed_with_fnv1a_reads_back_and_its_damage_is_refused() {
        let summary = WheelSummary::build(workload(500).iter().copied(), 4, 128);
        let current = summary.encode();
        let body_len = current.len() - 8;
        let mut legacy = current.clone();
        legacy[..8].copy_from_slice(&FNV_SUMMARY_MAGIC.to_le_bytes());
        let sum = fnv1a(&legacy[..body_len]);
        legacy[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(WheelSummary::decode(&legacy).unwrap(), summary);
        let mut bad = legacy.clone();
        bad[body_len / 2] ^= 0x04;
        let err = WheelSummary::decode(&bad).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // The magic picks the kernel: swapped, the sum fails closed.
        for (image, magic) in [(&legacy, SUMMARY_MAGIC), (&current, FNV_SUMMARY_MAGIC)] {
            let mut swapped = image.clone();
            swapped[..8].copy_from_slice(&magic.to_le_bytes());
            let err = WheelSummary::decode(&swapped).unwrap_err();
            assert!(err.to_string().contains("checksum"), "{err}");
        }
    }

    #[test]
    fn empty_summary_roundtrip() {
        let summary = WheelSummary::build(std::iter::empty(), 4, 1_024);
        assert!(summary.is_empty());
        let bytes = summary.encode();
        assert_eq!(bytes.len(), summary.encoded_len());
        let back = WheelSummary::decode(&bytes).unwrap();
        assert!(back.is_empty());
        let out = back.fold((0, 15), &TimeInterval::new(0, 999_999));
        assert!(out.agg.is_empty() && out.residues.is_empty());
    }

    #[test]
    fn coalesce_merges_adjacent() {
        let merged = coalesce(vec![
            TimeInterval::new(2_000, 2_999),
            TimeInterval::new(0, 999),
            TimeInterval::new(1_000, 1_999),
            TimeInterval::new(10_000, 10_999),
        ]);
        assert_eq!(
            merged,
            vec![
                TimeInterval::new(0, 2_999),
                TimeInterval::new(10_000, 10_999)
            ]
        );
    }
}
