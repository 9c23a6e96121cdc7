//! A small dynamically sized bitmap.
//!
//! Every element of the GraphPool (node, edge, or attribute value) carries
//! one of these; the bit at position `i` records whether the element belongs
//! to the active graph assigned bit `i`. "The bitmap size is dynamically
//! adjusted to accommodate more graphs if needed, and overall does not occupy
//! significant space" (Section 6) — bits beyond the allocated words read as
//! zero, and words are only allocated when a high bit is first set.

/// A growable bitmap indexed by bit position.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitMap {
    words: Vec<u64>,
}

impl BitMap {
    /// Creates an empty bitmap (all bits zero).
    pub fn new() -> Self {
        BitMap::default()
    }

    /// Sets bit `i` to `value`.
    pub fn set(&mut self, i: usize, value: bool) {
        let word = i / 64;
        let mask = 1u64 << (i % 64);
        if value {
            if word >= self.words.len() {
                self.words.resize(word + 1, 0);
            }
            self.words[word] |= mask;
        } else if word < self.words.len() {
            self.words[word] &= !mask;
        }
    }

    /// Reads bit `i` (bits never set read as `false`).
    pub fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// `true` if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Clears every bit set in `mask` (`self &= !mask`), a word at a time.
    pub fn clear_mask(&mut self, mask: &BitMap) {
        for (word, m) in self.words.iter_mut().zip(&mask.words) {
            *word &= !m;
        }
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Approximate heap size in bytes.
    pub fn approx_memory(&self) -> usize {
        self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_bits_read_as_false() {
        let bm = BitMap::new();
        assert!(!bm.get(0));
        assert!(!bm.get(1000));
        assert!(bm.is_empty());
        assert_eq!(bm.count_ones(), 0);
    }

    #[test]
    fn set_and_clear_round_trip() {
        let mut bm = BitMap::new();
        bm.set(3, true);
        bm.set(65, true);
        bm.set(200, true);
        assert!(bm.get(3) && bm.get(65) && bm.get(200));
        assert!(!bm.get(4) && !bm.get(64));
        assert_eq!(bm.count_ones(), 3);
        bm.set(65, false);
        assert!(!bm.get(65));
        assert_eq!(bm.count_ones(), 2);
        bm.clear();
        assert!(bm.is_empty());
    }

    #[test]
    fn clearing_a_bit_beyond_capacity_is_a_noop() {
        let mut bm = BitMap::new();
        bm.set(1, true);
        bm.set(500, false);
        assert_eq!(bm.count_ones(), 1);
        // no growth happened for the clear
        assert!(bm.approx_memory() <= 8);
    }

    #[test]
    fn clearing_a_mask_clears_exactly_its_bits() {
        let mut bm = BitMap::new();
        for bit in [0, 5, 63, 64, 130, 200] {
            bm.set(bit, true);
        }
        let mut mask = BitMap::new();
        for bit in [5, 64, 131, 900] {
            mask.set(bit, true);
        }
        bm.clear_mask(&mask);
        let left: Vec<usize> = (0..1000).filter(|&i| bm.get(i)).collect();
        assert_eq!(left, [0, 63, 130, 200]);
        // A mask shorter than the bitmap leaves the high words alone.
        bm.clear_mask(&BitMap::new());
        assert_eq!(bm.count_ones(), 4);
    }

    #[test]
    fn memory_grows_with_highest_set_bit() {
        let mut bm = BitMap::new();
        bm.set(0, true);
        let small = bm.approx_memory();
        bm.set(640, true);
        assert!(bm.approx_memory() > small);
    }
}
