//! # dangle-core — the paper's contribution
//!
//! Run-time detection of **all** dangling pointer uses (reads, writes and
//! frees of freed heap memory) with production-level overhead, reproducing
//! Dhurjati & Adve, *"Efficiently Detecting All Dangling Pointer Uses in
//! Production Servers"* (DSN 2006).
//!
//! Two insights, two types:
//!
//! * [`ShadowHeap`] — **Insight 1**: give every allocation a fresh *virtual*
//!   page mapped to the *same physical page* the underlying `malloc` used;
//!   protect it on `free`; let the MMU check every access for free. Works
//!   over any allocator, needs no source code, adds one word per object.
//! * [`ShadowPool`] — **Insight 2**: run the same mechanism inside the pools
//!   of the Automatic Pool Allocation transform (`dangle-apa`), whose escape
//!   analysis bounds pool lifetimes; at `pooldestroy` every canonical and
//!   shadow page of the pool returns to a shared free list, so virtual
//!   address consumption is bounded by the *live* pools.
//!
//! Both are one [`protect::Protector`] — shadow alias, hidden word,
//! `PROT_NONE` on free and sampling — over two kinds of canonical memory.
//! Each allocation pays one alias syscall and each free one `mprotect`,
//! issued before the call returns. On a multi-core machine every core
//! shares the one detector: the simulator charges nothing for sharing it,
//! while per-core TLBs and shootdown IPIs charge what the paper's mechanism
//! really costs on SMP.
//!
//! Supporting modules:
//!
//! * [`protect`] — the protection core both detectors share: site table,
//!   object registry, sampling decision and the hidden-word protocol on
//!   alloc and free.
//! * [`diag`] — site-tagged object registry, a table indexed by shadow
//!   page with call stacks interned in a stack depot; turns MMU traps into
//!   `"dangling write at 0x… allocated at `g:malloc`, freed at
//!   `free_all_but_head`"` reports.
//! * [`exhaustion`] — the §3.4 address-space lifetime analysis (the 9-hour
//!   calculation). The threshold recycling policy (solution 1) is
//!   [`ShadowConfig::recycle_threshold_pages`].
//! * [`gc`] — the §3.4 conservative pool GC (solution 2), which scans
//!   every live pool: no dynamic pool points-to graph is recorded.
//! * [`sampling`] — GWP-ASan-style budget-aware 1-in-N sampled protection
//!   (off by default; `N = 1` is an identity with the full detector).
//! * `os` (feature `os`) — a real Linux backend demonstrating Insight 1
//!   with actual `memfd`/`mmap`/`mprotect` and SIGSEGV.

pub mod diag;
pub mod exhaustion;
pub mod gc;
pub mod pool_shadow;
pub mod protect;
pub mod sampling;
pub mod shadow;

#[cfg(feature = "os")]
pub mod os;

pub use diag::{DanglingKind, DanglingReport, ObjectRecord, ObjectState, SiteId, SiteTable};
pub use gc::GcReport;
pub use pool_shadow::{DetectorConfig, FreedSpan, ShadowPool};
pub use protect::{Protector, SHADOW_WORD};
pub use sampling::{SampleDecision, SamplingConfig, SamplingPolicy};
pub use shadow::{ShadowConfig, ShadowHeap};

#[cfg(test)]
mod proptests;
