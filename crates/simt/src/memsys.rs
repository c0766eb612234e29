//! Timing model of the shared memory system: banked direct-mapped
//! write-back cache in front of the AXI external-memory interfaces.
//!
//! The cache is *shared by all CUs* (the FGPU's central cache), which
//! is what produces the paper's 8-CU saturation effects: bank
//! conflicts and AXI bandwidth limits put a floor under memory-bound
//! kernels, and working sets from many concurrent workgroups evict
//! each other in the direct-mapped array.

use crate::config::{CacheConfig, DramConfig};
use crate::global_mem::PAGE_SHIFT;

/// Counters accumulated by the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Cache lookups.
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Line fills from external memory.
    pub fills: u64,
    /// Dirty-line writebacks to external memory.
    pub writebacks: u64,
}

impl MemStats {
    /// Miss ratio (0 when no accesses).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            (self.accesses - self.hits) as f64 / self.accesses as f64
        }
    }
}

/// The AXI external-memory side.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    iface_free: Vec<u64>,
    /// `interfaces - 1` when the interface count is a power of two —
    /// striping then avoids a hardware divide per transfer (streaming
    /// kernels issue one or two transfers per missed line).
    iface_mask: Option<usize>,
    /// Precomputed occupancy of a full cache-line transfer, the only
    /// size the cache ever requests.
    line_bytes: u32,
    line_occupancy: u64,
}

impl Dram {
    /// Creates the interface set.
    pub fn new(cfg: DramConfig) -> Self {
        Self {
            cfg,
            iface_free: vec![0; cfg.interfaces as usize],
            iface_mask: (cfg.interfaces as usize)
                .is_power_of_two()
                .then(|| cfg.interfaces as usize - 1),
            line_bytes: 0,
            line_occupancy: 0,
        }
    }

    /// Schedules a line transfer starting no earlier than `now`;
    /// returns the completion time. Lines are striped across
    /// interfaces by line address.
    pub fn transfer(&mut self, now: u64, line_addr: u64, bytes: u32) -> u64 {
        let iface = match self.iface_mask {
            Some(m) => (line_addr as usize) & m,
            None => (line_addr as usize) % self.iface_free.len(),
        };
        let start = now.max(self.iface_free[iface]);
        let occupancy = if bytes == self.line_bytes {
            self.line_occupancy
        } else {
            u64::from(bytes.div_ceil(self.cfg.bytes_per_cycle))
        };
        self.iface_free[iface] = start + occupancy;
        start + occupancy + u64::from(self.cfg.latency)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
}

/// The shared data cache.
#[derive(Debug, Clone)]
pub struct SharedCache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    bank_free: Vec<u64>,
    dram: Dram,
    stats: MemStats,
    /// Shift/mask address split, valid when `pow2` is set — the
    /// address split then runs on shifts/masks instead of three
    /// hardware divides per access, behind a *single* predicted
    /// branch (this is the hottest loop of the whole simulator; the
    /// default 64 B / 512-line / 4-bank geometry always takes the
    /// fast path).
    line_shift: u32,
    index_mask: usize,
    bank_mask: usize,
    pow2: bool,
    /// One flag per 4 KiB page of global memory: a filled line covers
    /// part of it. `None` unless [`SharedCache::record_fills`] asked for
    /// the record, so plain runs only test it on a miss.
    filled: Option<Vec<bool>>,
}

impl SharedCache {
    /// Creates a cold cache in front of `dram`.
    pub fn new(cfg: CacheConfig, mut dram: Dram) -> Self {
        dram.line_bytes = cfg.line_bytes;
        dram.line_occupancy = u64::from(cfg.line_bytes.div_ceil(dram.cfg.bytes_per_cycle));
        let pow2 = cfg.line_bytes.is_power_of_two()
            && (cfg.lines() as usize).is_power_of_two()
            && (cfg.banks as usize).is_power_of_two();
        Self {
            lines: vec![Line::default(); cfg.lines() as usize],
            bank_free: vec![0; cfg.banks as usize],
            cfg,
            dram,
            stats: MemStats::default(),
            line_shift: cfg.line_bytes.trailing_zeros(),
            index_mask: (cfg.lines() as usize).wrapping_sub(1),
            bank_mask: (cfg.banks as usize).wrapping_sub(1),
            pow2,
            filled: None,
        }
    }

    /// Starts recording which of a global memory's `pages` 4 KiB pages
    /// the lines this cache fills cover. A launch starts cold and every
    /// global load and store accesses its line, so on a cache that
    /// records from the start the pages never filled are the pages the
    /// launch never read or wrote.
    pub(crate) fn record_fills(&mut self, pages: usize) {
        self.filled = Some(vec![false; pages]);
    }

    /// Ends the record [`SharedCache::record_fills`] started: one flag
    /// per page, set when a filled line covers part of it.
    pub(crate) fn take_fills(&mut self) -> Option<Vec<bool>> {
        self.filled.take()
    }

    /// Copies `src`'s lines, bank and interface queues and counters
    /// into `self`, reusing `self`'s buffers. Both caches must share one
    /// geometry (the fork snapshot starts as a clone of the live cache).
    pub(crate) fn save_from(&mut self, src: &Self) {
        debug_assert_eq!(self.cfg, src.cfg, "snapshot of another cache geometry");
        self.lines.copy_from_slice(&src.lines);
        self.bank_free.copy_from_slice(&src.bank_free);
        self.dram.iface_free.copy_from_slice(&src.dram.iface_free);
        self.stats = src.stats;
    }

    /// Accumulated counters.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// The line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.cfg.line_bytes
    }

    /// Performs one line access (read or write) starting no earlier
    /// than `now`; returns when the data is available.
    ///
    /// The hit path is kept small and inlinable — on warmed working
    /// sets it is the single most-executed piece of code in the
    /// simulator — and the fill/writeback machinery lives in a cold
    /// out-of-line helper.
    #[inline]
    pub fn access(&mut self, now: u64, byte_addr: u64, is_write: bool) -> u64 {
        let (line_addr, index, bank);
        if self.pow2 {
            line_addr = byte_addr >> self.line_shift;
            index = (line_addr as usize) & self.index_mask;
            bank = index & self.bank_mask;
        } else {
            line_addr = byte_addr / u64::from(self.cfg.line_bytes);
            index = (line_addr as usize) % self.lines.len();
            bank = index % self.bank_free.len();
        }

        // One access per cycle per bank.
        let start = now.max(self.bank_free[bank]);
        self.bank_free[bank] = start + 1;
        self.stats.accesses += 1;

        let line = &mut self.lines[index];
        if line.valid && line.tag == line_addr {
            self.stats.hits += 1;
            if is_write {
                line.dirty = true;
            }
            return start + u64::from(self.cfg.hit_latency);
        }
        self.access_miss(start, line_addr, index, is_write)
    }

    /// Miss path: write back the victim if dirty, then fill.
    #[cold]
    fn access_miss(&mut self, start: u64, line_addr: u64, index: usize, is_write: bool) -> u64 {
        let line = self.lines[index];
        if line.valid && line.dirty {
            self.stats.writebacks += 1;
            let victim_addr = line.tag;
            // The writeback occupies an interface but the requester
            // does not wait for it.
            let _ = self.dram.transfer(start, victim_addr, self.cfg.line_bytes);
        }
        self.stats.fills += 1;
        if let Some(filled) = &mut self.filled {
            // A line of an odd size can straddle two pages.
            let bytes = u64::from(self.cfg.line_bytes);
            let first = line_addr * bytes;
            let shift = PAGE_SHIFT + 2;
            for page in first >> shift..=(first + bytes - 1) >> shift {
                if let Some(f) = filled.get_mut(page as usize) {
                    *f = true;
                }
            }
        }
        let fill_done = self.dram.transfer(start, line_addr, self.cfg.line_bytes);
        let line = &mut self.lines[index];
        line.tag = line_addr;
        line.valid = true;
        line.dirty = is_write;
        fill_done + u64::from(self.cfg.hit_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> SharedCache {
        SharedCache::new(CacheConfig::default(), Dram::new(DramConfig::default()))
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = cache();
        let t1 = c.access(0, 0x1000, false);
        assert!(t1 > u64::from(CacheConfig::default().hit_latency));
        let t2 = c.access(t1, 0x1000, false);
        assert_eq!(t2, t1 + u64::from(CacheConfig::default().hit_latency));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().fills, 1);
    }

    #[test]
    fn same_line_words_share_a_line() {
        let mut c = cache();
        let _ = c.access(0, 0x1000, false);
        let _ = c.access(100, 0x103C, false); // same 64-byte line
        assert_eq!(c.stats().fills, 1);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn conflicting_lines_evict_each_other() {
        let mut c = cache();
        let stride = u64::from(CacheConfig::default().size_kib) * 1024; // same index
        let _ = c.access(0, 0x0, false);
        let _ = c.access(1000, stride, false);
        let _ = c.access(2000, 0x0, false);
        assert_eq!(c.stats().fills, 3, "direct-mapped conflict misses");
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = cache();
        let stride = u64::from(CacheConfig::default().size_kib) * 1024;
        let _ = c.access(0, 0x0, true);
        let _ = c.access(1000, stride, false);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn bank_conflicts_serialize() {
        let mut c = cache();
        // Two accesses to the same bank at the same cycle: the second
        // starts one cycle later. Warm both lines first.
        let banks = u64::from(CacheConfig::default().banks);
        let line = u64::from(CacheConfig::default().line_bytes);
        let a = 0u64;
        let b = banks * line; // same bank, different index? no: index+banks -> same bank
        let t = c.access(0, a, false).max(c.access(0, b, false));
        let ha = c.access(t, a, false);
        let hb = c.access(t, b, false);
        assert_eq!(hb, ha + 1, "same-bank accesses serialize");
    }

    #[test]
    fn dram_interfaces_stripe_and_queue() {
        let mut d = Dram::new(DramConfig::default());
        let t0 = d.transfer(0, 0, 64);
        let t1 = d.transfer(0, 1, 64);
        assert_eq!(t0, t1, "different interfaces run in parallel");
        let t2 = d.transfer(0, 4, 64); // interface 0 again
        assert!(t2 > t0, "same interface queues");
    }

    #[test]
    fn fill_record_covers_every_page_of_each_filled_line() {
        // 48-byte lines: line 85 spans bytes 4080..4128, pages 0 and 1.
        let cfg = CacheConfig {
            line_bytes: 48,
            ..CacheConfig::default()
        };
        let mut c = SharedCache::new(cfg, Dram::new(DramConfig::default()));
        let _ = c.access(0, 2 << 12, false); // before the record starts
        c.record_fills(3);
        let _ = c.access(10, 4100, false);
        let _ = c.access(20, 4100, true); // a hit fills nothing
        let _ = c.access(30, 5 << 12, true); // past the recorded pages
        assert_eq!(c.take_fills(), Some(vec![true, true, false]));
        assert_eq!(c.take_fills(), None);
    }

    #[test]
    fn miss_ratio_math() {
        let mut c = cache();
        let _ = c.access(0, 0, false);
        let _ = c.access(10, 0, false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(MemStats::default().miss_ratio(), 0.0);
    }
}

#[cfg(test)]
mod saturation_tests {
    use super::*;
    use crate::config::{CacheConfig, DramConfig};

    #[test]
    fn streaming_misses_are_bandwidth_bound() {
        // Stream 4096 distinct lines through the cache: total time is
        // set by the AXI transfer occupancy, not the request count.
        let dram_cfg = DramConfig::default();
        let mut c = SharedCache::new(CacheConfig::default(), Dram::new(dram_cfg));
        let line = u64::from(CacheConfig::default().line_bytes);
        let mut last = 0;
        for i in 0..4096u64 {
            last = last.max(c.access(0, i * line, false));
        }
        // Occupancy floor: lines * line_bytes / aggregate bytes-per-cycle.
        let floor = 4096 * u64::from(CacheConfig::default().line_bytes)
            / u64::from(dram_cfg.interfaces * dram_cfg.bytes_per_cycle);
        assert!(last >= floor, "{last} cycles vs floor {floor}");
        assert!(last < floor * 2, "should not be far above the floor");
    }

    #[test]
    fn bigger_cache_turns_conflicts_into_hits() {
        // A working set of 1024 lines revisited twice: with a 32 KiB
        // cache (512 lines) everything conflicts; 128 KiB holds it.
        let run = |size_kib: u32| {
            let cfg = CacheConfig {
                size_kib,
                ..CacheConfig::default()
            };
            let mut c = SharedCache::new(cfg, Dram::new(DramConfig::default()));
            let line = u64::from(cfg.line_bytes);
            for _pass in 0..2 {
                for i in 0..1024u64 {
                    let _ = c.access(u64::MAX / 2, i * line, false);
                }
            }
            c.stats().miss_ratio()
        };
        let small = run(32);
        let big = run(128);
        assert!(small > 0.9, "32 KiB thrashes: miss ratio {small}");
        assert!(big < 0.6, "128 KiB keeps the set: miss ratio {big}");
    }
}
