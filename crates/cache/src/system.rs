//! The multi-core memory system: private L1s over a shared L2.

use crate::cache::{CacheConfig, CacheStats, SetAssocCache};

/// Access latencies in cycles.
///
/// The core model is single-CPI, so an L1 hit costs no *extra* cycles; the
/// values here are penalties added on top of the base cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// Extra cycles for an access that hits in L2 (paper-era on-chip L2).
    pub l2_hit: u64,
    /// Extra cycles for an access that misses to memory.
    pub memory: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            l2_hit: 10,
            memory: 100,
        }
    }
}

/// Configuration of a [`MemSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSystemConfig {
    /// Number of cores (each gets a private L1I + L1D).
    pub cores: usize,
    /// Per-core L1 instruction-cache geometry.
    pub l1i: CacheConfig,
    /// Per-core L1 data-cache geometry.
    pub l1d: CacheConfig,
    /// Shared L2 geometry.
    pub l2: CacheConfig,
    /// Latency model.
    pub latencies: Latencies,
}

impl MemSystemConfig {
    /// The paper's dual-core configuration: application core 0 and
    /// lifeguard core 1, each with 16 KiB split L1s, sharing a 512 KiB L2.
    #[must_use]
    pub fn dual_core() -> Self {
        MemSystemConfig {
            cores: 2,
            l1i: CacheConfig::l1_default(),
            l1d: CacheConfig::l1_default(),
            l2: CacheConfig::l2_default(),
            latencies: Latencies::default(),
        }
    }

    /// A single-core configuration (unmonitored and DBI baselines).
    #[must_use]
    pub fn single_core() -> Self {
        MemSystemConfig {
            cores: 1,
            ..Self::dual_core()
        }
    }

    /// A configuration with `cores` cores (parallel-lifeguard extension).
    #[must_use]
    pub fn multi_core(cores: usize) -> Self {
        MemSystemConfig {
            cores,
            ..Self::dual_core()
        }
    }
}

#[derive(Debug, Clone)]
struct CoreCaches {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
}

/// Per-core cache statistics snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCacheStats {
    /// L1 instruction-cache counters.
    pub l1i: CacheStats,
    /// L1 data-cache counters.
    pub l1d: CacheStats,
}

/// The simulated memory hierarchy: per-core private split L1 caches over a
/// shared L2, with cycle-penalty accounting.
///
/// Accesses return the number of *extra* cycles (0 for an L1 hit). Accesses
/// that straddle a cache-line boundary touch both lines and sum their
/// penalties.
///
/// The model is timing only: the data lives in the machine's memory. So a
/// runner that reports no modeled clock builds no `MemSystem` and passes
/// `None` where one is asked for (`Machine::step`,
/// `DispatchEngine::deliver_batch`), paying no cache simulation.
///
/// # Examples
///
/// ```
/// use lba_cache::{MemSystem, MemSystemConfig};
///
/// let mut mem = MemSystem::new(MemSystemConfig::dual_core());
/// // Core 0 warms a line; core 1 then finds it in the shared L2.
/// let cold = mem.data_access(0, 0x8000, 8, false);
/// let from_l2 = mem.data_access(1, 0x8000, 8, false);
/// assert!(cold > from_l2);
/// assert!(from_l2 > 0);
/// ```
#[derive(Debug, Clone)]
pub struct MemSystem {
    config: MemSystemConfig,
    cores: Vec<CoreCaches>,
    l2: SetAssocCache,
}

impl MemSystem {
    /// Creates an empty (cold) memory system.
    ///
    /// # Panics
    ///
    /// Panics if `config.cores` is zero or any cache geometry is invalid.
    #[must_use]
    pub fn new(config: MemSystemConfig) -> Self {
        assert!(config.cores > 0, "memory system needs at least one core");
        let cores = (0..config.cores)
            .map(|_| CoreCaches {
                l1i: SetAssocCache::new(config.l1i),
                l1d: SetAssocCache::new(config.l1d),
            })
            .collect();
        MemSystem {
            cores,
            l2: SetAssocCache::new(config.l2),
            config,
        }
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &MemSystemConfig {
        &self.config
    }

    /// Number of cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    fn line_bytes(&self) -> u64 {
        self.config.l1d.line_bytes
    }

    /// Penalty for one line-sized access through an L1 (by kind) and the L2.
    fn access_line(&mut self, core: usize, icache: bool, addr: u64, write: bool) -> u64 {
        let l1 = if icache {
            &mut self.cores[core].l1i
        } else {
            &mut self.cores[core].l1d
        };
        if l1.access(addr, write).is_hit() {
            return 0;
        }
        // L1 miss: the fill goes through the shared L2. Writes still fetch
        // the line first (write-allocate); the fill itself is a read.
        if self.l2.access(addr, write).is_hit() {
            self.config.latencies.l2_hit
        } else {
            self.config.latencies.memory
        }
    }

    /// Accesses `width` bytes of data at `addr` from `core`, returning the
    /// extra cycles beyond the base CPI.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn data_access(&mut self, core: usize, addr: u64, width: u32, write: bool) -> u64 {
        let line = self.line_bytes();
        let first = addr & !(line - 1);
        let last = (addr + u64::from(width).saturating_sub(1)) & !(line - 1);
        let mut cycles = self.access_line(core, false, first, write);
        if last != first {
            cycles += self.access_line(core, false, last, write);
        }
        cycles
    }

    /// Fetches the instruction at `addr` for `core`, returning the extra
    /// cycles beyond the base CPI.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn inst_fetch(&mut self, core: usize, addr: u64) -> u64 {
        self.access_line(core, true, addr, false)
    }

    /// Cache statistics for one core's private L1s.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn core_stats(&self, core: usize) -> CoreCacheStats {
        CoreCacheStats {
            l1i: *self.cores[core].l1i.stats(),
            l1d: *self.cores[core].l1d.stats(),
        }
    }

    /// Shared-L2 statistics.
    #[must_use]
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(cores: usize) -> MemSystem {
        MemSystem::new(MemSystemConfig::multi_core(cores))
    }

    #[test]
    fn l1_hit_costs_nothing_extra() {
        let mut m = sys(1);
        let cold = m.data_access(0, 0x100, 4, false);
        assert_eq!(cold, Latencies::default().memory);
        assert_eq!(m.data_access(0, 0x100, 4, false), 0);
    }

    #[test]
    fn l2_hit_cheaper_than_memory() {
        let mut m = sys(2);
        let cold = m.data_access(0, 0x100, 4, false);
        let shared = m.data_access(1, 0x100, 4, false);
        assert_eq!(cold, Latencies::default().memory);
        assert_eq!(shared, Latencies::default().l2_hit);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut m = sys(1);
        // 64-byte lines: an 8-byte access at offset 60 spans two lines.
        let penalty = m.data_access(0, 60, 8, false);
        assert_eq!(penalty, 2 * Latencies::default().memory);
        assert_eq!(m.data_access(0, 60, 8, false), 0, "both lines now resident");
    }

    #[test]
    fn icache_and_dcache_are_split() {
        let mut m = sys(1);
        assert!(m.inst_fetch(0, 0x1000) > 0);
        assert_eq!(m.inst_fetch(0, 0x1000), 0);
        // Data access to the same address still misses L1D (it only primed
        // L1I and L2).
        assert_eq!(
            m.data_access(0, 0x1000, 4, false),
            Latencies::default().l2_hit
        );
    }

    #[test]
    fn per_core_l1s_are_private() {
        let mut m = sys(2);
        m.data_access(0, 0x200, 4, false);
        // Core 1 misses its own L1 (hits shared L2).
        assert_eq!(
            m.data_access(1, 0x200, 4, false),
            Latencies::default().l2_hit
        );
        let s0 = m.core_stats(0);
        let s1 = m.core_stats(1);
        assert_eq!(s0.l1d.accesses, 1);
        assert_eq!(s1.l1d.accesses, 1);
        assert_eq!(m.l2_stats().accesses, 2);
    }

    #[test]
    #[should_panic]
    fn out_of_range_core_panics() {
        let mut m = sys(1);
        let _ = m.data_access(1, 0, 4, false);
    }
}
