//! Machine-level counters used by every benchmark harness.

/// Event counters maintained by [`crate::Machine`].
///
/// These are the raw series behind Tables 1–3 and the §4.3 address-space
/// study: syscall counts isolate the system-call overhead component,
/// TLB counters isolate the TLB component, and the page/frame high-water
/// marks quantify virtual-address wastage versus physical consumption.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Loads executed (of any width, including bulk reads per word).
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// `mmap` syscalls.
    pub mmap_calls: u64,
    /// `mremap` (shadow-aliasing) syscalls.
    pub mremap_calls: u64,
    /// `mprotect` syscalls.
    pub mprotect_calls: u64,
    /// `munmap` syscalls.
    pub munmap_calls: u64,
    /// Dummy (no-op) syscalls, for the `PA + dummy syscalls` configuration.
    pub dummy_calls: u64,
    /// Access-violation traps delivered (dangling uses detected).
    pub traps: u64,
    /// Virtual pages ever handed out (bump high-water: total distinct VPNs).
    pub virt_pages_allocated: u64,
    /// Virtual pages currently mapped.
    pub virt_pages_mapped: u64,
    /// High-water mark of `virt_pages_mapped`.
    pub virt_pages_mapped_peak: u64,
    /// Physical frames currently in use.
    pub phys_frames_in_use: u64,
    /// High-water mark of `phys_frames_in_use`.
    pub phys_frames_peak: u64,
    /// Total `(addr, len)` ranges submitted across every
    /// [`crate::Machine::munmap_batch`] call (each call also counts once in
    /// `munmap_calls`, so `total_syscalls` stays the crossing count).
    pub ranges_batched: u64,
    /// Cross-core TLB-shootdown interrupts delivered: one per *remote*
    /// core per mapping-mutating syscall when more than one core is
    /// configured. Always zero on a single-core machine.
    pub shootdown_ipis: u64,
}

impl MachineStats {
    /// Total kernel crossings of any kind.
    pub fn total_syscalls(&self) -> u64 {
        self.mmap_calls
            + self.mremap_calls
            + self.mprotect_calls
            + self.munmap_calls
            + self.dummy_calls
    }

    /// Total memory accesses.
    pub fn total_accesses(&self) -> u64 {
        self.loads + self.stores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_components() {
        let s = MachineStats {
            loads: 3,
            stores: 4,
            mmap_calls: 1,
            mremap_calls: 2,
            mprotect_calls: 3,
            munmap_calls: 4,
            dummy_calls: 5,
            ..MachineStats::default()
        };
        assert_eq!(s.total_accesses(), 7);
        assert_eq!(s.total_syscalls(), 15);
    }

    #[test]
    fn default_is_zeroed() {
        let s = MachineStats::default();
        assert_eq!(s.total_syscalls(), 0);
        assert_eq!(s.total_accesses(), 0);
        assert_eq!(s.traps, 0);
    }
}
