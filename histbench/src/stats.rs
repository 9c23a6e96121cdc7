//! Arithmetic shared by the load generator and the trace: percentiles,
//! medians over slices and FNV-1a fingerprints.

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample; `0.0`
/// for an empty one. Sorts `values` in place.
pub fn percentile<T: Copy + Ord + Into<u64>>(values: &mut [T], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1].into() as f64
}

/// Median of an `f64` sample (mean of the two middle values for an even
/// count); `0.0` for an empty one.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median, minimum and maximum over the slices of one run: the median is the
/// reported value, min/max are printed beside it.
#[derive(Clone, Debug, PartialEq)]
pub struct OverSlices {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// The slices' values, in time order.
    pub values: Vec<f64>,
}

impl OverSlices {
    pub fn of(values: &[f64]) -> OverSlices {
        OverSlices {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            values: values.to_vec(),
        }
    }

    /// `(max - min) / median`: how far the slices of one run disagree.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median
        }
    }
}

/// 64-bit FNV-1a, fed incrementally.
#[derive(Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        let mut one = [7u32];
        assert_eq!(percentile(&mut one, 0.99), 7.0);
        assert_eq!(percentile::<u32>(&mut [], 0.5), 0.0);
    }

    #[test]
    fn median_of_slices_ignores_one_outlier() {
        let s = OverSlices::of(&[10.0, 11.0, 500.0, 9.0, 10.5]);
        assert_eq!(s.median, 10.5);
        assert_eq!((s.min, s.max), (9.0, 500.0));
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert!(s.spread() > 40.0);
    }

    #[test]
    fn fnv1a_known_vectors() {
        let mut h = Fnv1a::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
