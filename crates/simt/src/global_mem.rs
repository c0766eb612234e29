//! Global memory: the machine's word array plus a written-page set.
//!
//! Every store marks the 4 KiB page it lands in, so
//! [`GlobalMemory::reset`] returns the array to all zeros by clearing
//! only the pages written since the last reset. Reads go through
//! `Deref<Target = [u32]>`; there is no `DerefMut`, so a store that
//! would bypass the set does not compile.

use std::ops::Deref;

/// `log2` of the words per tracked page (1024 words, 4 KiB).
const PAGE_SHIFT: usize = 10;

/// Zero-initialised global memory that remembers which pages it wrote.
pub(crate) struct GlobalMemory {
    words: Vec<u32>,
    /// One bit per page: set once any word of the page was stored to,
    /// so every unset page is known to be all zeros.
    written: Vec<u64>,
}

impl GlobalMemory {
    /// `len` zeroed words with an empty written-page set.
    pub(crate) fn zeroed(len: usize) -> Self {
        let pages = len.div_ceil(1 << PAGE_SHIFT);
        Self {
            words: vec![0; len],
            written: vec![0; pages.div_ceil(64)],
        }
    }

    fn mark_page(&mut self, page: usize) {
        self.written[page / 64] |= 1 << (page % 64);
    }

    /// Stores one word. Callers bounds-check `idx` first (an
    /// out-of-range store is a typed `SimError`, raised before this).
    pub(crate) fn store(&mut self, idx: usize, value: u32) {
        self.words[idx] = value;
        self.mark_page(idx >> PAGE_SHIFT);
    }

    /// Copies `data` to `idx..idx + data.len()`, which the caller has
    /// bounds-checked.
    pub(crate) fn store_slice(&mut self, idx: usize, data: &[u32]) {
        self.words[idx..idx + data.len()].copy_from_slice(data);
        if let Some(last) = data.len().checked_sub(1).map(|n| idx + n) {
            for page in (idx >> PAGE_SHIFT)..=(last >> PAGE_SHIFT) {
                self.mark_page(page);
            }
        }
    }

    /// One word for an in-place upset (fault injection), with its page
    /// marked; `None` when `idx` is out of range.
    pub(crate) fn word_mut(&mut self, idx: usize) -> Option<&mut u32> {
        if idx < self.words.len() {
            self.mark_page(idx >> PAGE_SHIFT);
        }
        self.words.get_mut(idx)
    }

    /// Zeroes every written page and clears the set: the memory is
    /// then identical to [`GlobalMemory::zeroed`]'s, at a cost that
    /// scales with what was written.
    pub(crate) fn reset(&mut self) {
        for (chunk, bits) in self.written.iter_mut().enumerate() {
            let mut bits = std::mem::take(bits);
            while bits != 0 {
                let page = chunk * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let start = page << PAGE_SHIFT;
                let end = (start + (1 << PAGE_SHIFT)).min(self.words.len());
                self.words[start..end].fill(0);
            }
        }
    }
}

impl Deref for GlobalMemory {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_zeroes_exactly_the_marked_pages() {
        // 2.5 pages, so the last page is partial.
        let mut m = GlobalMemory::zeroed(2560);
        m.store(5, 1);
        m.store_slice(1020, &[2; 8]); // straddles pages 0 and 1
        *m.word_mut(2559).unwrap() ^= 4;
        assert!(m.word_mut(2560).is_none());
        assert_eq!(m.written, vec![0b111]);
        m.reset();
        assert!(m.iter().all(|&w| w == 0));
        assert_eq!(m.written, vec![0]);

        m.store_slice(1500, &[]);
        assert_eq!(m.written, vec![0], "an empty copy marks nothing");
        m.store(2048, 9);
        assert_eq!(m.written, vec![0b100]);
    }
}
