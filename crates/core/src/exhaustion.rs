//! §3.4 — the virtual-address-space lifetime analysis.
//!
//! The basic scheme never reuses a shadow page, so a long-running server
//! eventually exhausts virtual memory. The paper's back-of-the-envelope
//! argument: with 2^47 bytes of user VA on 64-bit Linux, "even an extreme
//! program that allocates a new 4K-page-size object every microsecond, with
//! no reuse of these pages, can operate for 9 hours before running out of
//! virtual pages (2^47/(2^12 · 10^6 · 86,400))".
//!
//! This module reproduces that calculation exactly and generalizes it
//! ([`time_to_exhaustion`]). The "reuse after a threshold" policy
//! (solution 1) is [`crate::ShadowConfig::recycle_threshold_pages`].

use dangle_vmm::PAGE_SHIFT;
use std::time::Duration;

/// User virtual-address budget the paper assumes for 64-bit Linux (bytes).
pub const VA_BYTES_64BIT: u128 = 1 << 47;

/// User virtual-address budget of the paper's 32-bit evaluation machine
/// (3 GiB user split).
pub const VA_BYTES_32BIT: u128 = 3 << 30;

/// How long a program that consumes `pages_per_second` fresh virtual pages
/// per second can run before exhausting `va_bytes` of address space.
///
/// With the paper's parameters (2^47 bytes, one 4 KiB page per microsecond)
/// this returns a little over nine hours.
pub fn time_to_exhaustion(va_bytes: u128, pages_per_second: u64) -> Duration {
    if pages_per_second == 0 {
        return Duration::MAX;
    }
    let total_pages = va_bytes >> PAGE_SHIFT;
    let secs = total_pages / pages_per_second as u128;
    let rem_pages = total_pages % pages_per_second as u128;
    let nanos = rem_pages * 1_000_000_000 / pages_per_second as u128;
    Duration::new(secs.min(u64::MAX as u128) as u64, nanos as u32)
}

/// The paper's headline §3.4 number: hours of operation for an adversarial
/// allocator (one fresh 4 KiB page per microsecond) on 64-bit Linux.
pub fn paper_adversarial_hours() -> f64 {
    time_to_exhaustion(VA_BYTES_64BIT, 1_000_000).as_secs_f64() / 3600.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_nine_hour_figure() {
        // 2^47 bytes / (4K * 1e6/s) = 2^35/1e6 seconds ≈ 9.54 hours.
        let h = paper_adversarial_hours();
        assert!((9.0..10.0).contains(&h), "expected ~9.5 hours, got {h}");
    }

    #[test]
    fn thirty_two_bit_exhausts_in_seconds() {
        // The same adversary on the 32-bit evaluation machine dies in under
        // a second — which is why §3.4 matters only off the evaluation box.
        let t = time_to_exhaustion(VA_BYTES_32BIT, 1_000_000);
        assert!(t < Duration::from_secs(1));
    }

    #[test]
    fn slower_allocators_last_proportionally_longer() {
        let fast = time_to_exhaustion(VA_BYTES_64BIT, 1_000_000);
        let slow = time_to_exhaustion(VA_BYTES_64BIT, 1_000);
        let ratio = slow.as_secs_f64() / fast.as_secs_f64();
        assert!((999.9..1000.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn zero_rate_never_exhausts() {
        assert_eq!(time_to_exhaustion(VA_BYTES_64BIT, 0), Duration::MAX);
    }
}
