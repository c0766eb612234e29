//! Global memory: the machine's word array plus a written-page set.
//!
//! Every store marks the 4 KiB page it lands in, so
//! [`GlobalMemory::reset`] returns the array to all zeros by clearing
//! only the pages written since the last reset, and
//! [`GlobalMemory::save_pages`] / [`GlobalMemory::restore_pages`] copy
//! only the written pages out and back. Reads go through
//! `Deref<Target = [u32]>`; there is no `DerefMut`, so a store that
//! would bypass the set does not compile.

use std::ops::Deref;

/// `log2` of the words per tracked page (1024 words, 4 KiB). The fork
/// driver's pre-pass records the pages a run fills at the same size.
pub(crate) const PAGE_SHIFT: usize = 10;

/// Zero-initialised global memory that remembers which pages it wrote.
pub(crate) struct GlobalMemory {
    words: Vec<u32>,
    /// One bit per page: set once any word of the page was stored to,
    /// so every unset page is known to be all zeros.
    written: Vec<u64>,
}

/// A copy of the written pages of a [`GlobalMemory`], reused across
/// saves.
#[derive(Default)]
pub(crate) struct PageSnapshot {
    written: Vec<u64>,
    /// The written pages' words, in ascending page order.
    words: Vec<u32>,
}

/// The written pages of `written`, ascending.
fn pages(written: &[u64]) -> impl Iterator<Item = usize> + '_ {
    written.iter().enumerate().flat_map(|(chunk, &bits)| {
        let mut bits = bits;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let page = chunk * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                page
            })
        })
    })
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

    /// The word range of `page`.
    fn page_range(&self, page: usize) -> std::ops::Range<usize> {
        let start = page << PAGE_SHIFT;
        start..(start + (1 << PAGE_SHIFT)).min(self.words.len())
    }

    /// Copies the written pages and the set into `snap`.
    pub(crate) fn save_pages(&self, snap: &mut PageSnapshot) {
        snap.written.clone_from(&self.written);
        snap.words.clear();
        // Sized exactly: doubling growth would hold a fork's peak heap
        // up to twice the written pages.
        let words = pages(&self.written)
            .map(|page| self.page_range(page).len())
            .sum();
        snap.words.reserve_exact(words);
        for page in pages(&self.written) {
            snap.words
                .extend_from_slice(&self.words[self.page_range(page)]);
        }
    }

    /// Returns the memory to the state [`GlobalMemory::save_pages`]
    /// copied into `snap`, at a cost that scales with the written
    /// pages. Pages are only marked between the two calls, so every
    /// page marked now was either saved, and is copied back, or was
    /// all zeros, and is zeroed.
    pub(crate) fn restore_pages(&mut self, snap: &PageSnapshot) {
        let mut saved = snap.words.as_slice();
        for page in pages(&self.written) {
            let range = self.page_range(page);
            let was_written = snap.written[page / 64] & (1 << (page % 64)) != 0;
            if was_written {
                let (words, rest) = saved.split_at(range.len());
                self.words[range].copy_from_slice(words);
                saved = rest;
            } else {
                self.words[range].fill(0);
            }
        }
        self.written.clone_from(&snap.written);
    }

    /// Zeroes every written page and clears the set: the memory is
    /// then identical to [`GlobalMemory::zeroed`]'s, at a cost that
    /// scales with what was written.
    pub(crate) fn reset(&mut self) {
        for page in pages(&self.written) {
            let range = self.page_range(page);
            self.words[range].fill(0);
        }
        self.written.fill(0);
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

    #[test]
    fn restore_returns_saved_pages_and_zeroes_new_ones() {
        // 2.5 pages; pages 0 and 2 (the partial one) written before
        // the save, page 1 only after it.
        let mut m = GlobalMemory::zeroed(2560);
        m.store(3, 7);
        m.store(2559, 8);
        let before: Vec<u32> = m.to_vec();
        let mut snap = PageSnapshot::default();
        m.save_pages(&mut snap);
        assert_eq!(snap.words.len(), 1024 + 512);

        m.store(3, 1);
        m.store_slice(1500, &[5; 4]);
        *m.word_mut(2048).unwrap() ^= 1;
        m.restore_pages(&snap);
        assert_eq!(m.to_vec(), before);
        assert_eq!(m.written, vec![0b101]);
    }
}
