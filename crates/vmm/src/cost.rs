//! The simulated-cycle cost model.
//!
//! The paper decomposes its run-time overhead into exactly two sources
//! (§1, §4.1): *a system call on every allocation and deallocation*
//! (`mremap` at `poolalloc`, `mprotect` at `poolfree`) and *extra TLB misses*
//! because every object lives on its own virtual page. The simulator makes
//! that decomposition explicit: every event with a cost is charged against a
//! [`CostModel`], and the machine's clock is simply the sum of charges.
//!
//! The default constants are calibrated (see `dangle-bench::configs`) to a
//! mid-2000s x86 like the paper's Xeon: a syscall round-trip costs on the
//! order of a thousand cycles, a TLB fill on the order of a hundred, an L1
//! hit a couple of cycles.

/// Per-event cycle charges used by [`crate::Machine`].
///
/// All fields are public by design: the cost model is a passive table of
/// constants, and the ablation benchmarks sweep individual entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Base cost of a load or store that hits TLB and L1.
    pub mem_access: u64,
    /// Extra cycles for a TLB miss (page-walk).
    pub tlb_miss: u64,
    /// Extra cycles for an L1 data-cache miss.
    pub l1_miss: u64,
    /// `mmap` system call (fresh pages).
    pub syscall_mmap: u64,
    /// `mremap(old, 0, len)` system call creating a shadow mapping.
    pub syscall_mremap: u64,
    /// `mprotect` system call.
    pub syscall_mprotect: u64,
    /// `munmap` system call.
    pub syscall_munmap: u64,
    /// Per-page incremental cost of multi-page syscalls (PTE updates).
    pub syscall_per_page: u64,
    /// Per-range incremental cost of the vectored `munmap_batch`: argument
    /// validation and VMA lookup for each `(addr, len)` entry, in the style
    /// of `process_madvise`/io_uring submission entries. The batch still
    /// pays exactly one base (kernel entry/exit) charge.
    pub syscall_per_range: u64,
    /// A "dummy" syscall: kernel entry/exit with no work. Used by the
    /// `PA + dummy syscalls` configuration of Table 1/3 to isolate the
    /// system-call component of the overhead.
    pub syscall_dummy: u64,
    /// Cost of zeroing one fresh page when it is first handed out.
    pub page_zero: u64,
    /// Sending one cross-core TLB-shootdown IPI (charged to the
    /// *initiating* core, once per remote core, when a mapping-mutating
    /// syscall runs on a multi-core machine). Zero-cost on one core.
    pub ipi_send: u64,
    /// Servicing a received shootdown IPI (charged to each *remote*
    /// core's clock: interrupt entry, local TLB invalidation, exit).
    pub ipi_recv: u64,
}

impl CostModel {
    /// Calibrated defaults (see module docs).
    pub const fn calibrated() -> CostModel {
        CostModel {
            mem_access: 1,
            tlb_miss: 60,
            l1_miss: 20,
            syscall_mmap: 1600,
            syscall_mremap: 1500,
            syscall_mprotect: 1200,
            syscall_munmap: 1400,
            syscall_per_page: 40,
            syscall_per_range: 120,
            syscall_dummy: 1000,
            page_zero: 256,
            ipi_send: 300,
            ipi_recv: 450,
        }
    }

    /// A cost model in which everything is free. Useful in unit tests that
    /// assert on functional behaviour only.
    pub const fn free() -> CostModel {
        CostModel {
            mem_access: 0,
            tlb_miss: 0,
            l1_miss: 0,
            syscall_mmap: 0,
            syscall_mremap: 0,
            syscall_mprotect: 0,
            syscall_munmap: 0,
            syscall_per_page: 0,
            syscall_per_range: 0,
            syscall_dummy: 0,
            page_zero: 0,
            ipi_send: 0,
            ipi_recv: 0,
        }
    }
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_calibrated() {
        assert_eq!(CostModel::default(), CostModel::calibrated());
    }

    #[test]
    fn free_model_is_all_zero() {
        let f = CostModel::free();
        assert_eq!(f.mem_access, 0);
        assert_eq!(f.syscall_mremap, 0);
        assert_eq!(f.tlb_miss, 0);
    }

    #[test]
    fn syscalls_dominate_accesses() {
        // Sanity of calibration: the paper's whole design moves cost from
        // accesses to (de)allocation syscalls, which only pays off if a
        // syscall costs orders of magnitude more than an access.
        let c = CostModel::calibrated();
        assert!(c.syscall_mremap > 100 * c.mem_access);
        assert!(c.tlb_miss > c.mem_access);
    }
}
