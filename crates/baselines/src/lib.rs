//! # dangle-baselines — the detectors the paper compares against
//!
//! Three families of prior work appear in the paper's §4.2 and §5; all
//! three are implemented here over the same simulated machine so the
//! comparison tables can be regenerated:
//!
//! * [`EFence`] — Electric Fence / PageHeap (§5.3): one object per virtual
//!   **and physical** page, pages protected on free and never reused.
//!   Sound, but physical memory and cache behaviour degrade severely — the
//!   paper notes enscript *runs out of physical memory* under Electric
//!   Fence.
//! * [`Memcheck`] — Valgrind-style heuristic checking (§4.2, §5.1):
//!   binary-instrumentation cost on *every* access, freed blocks kept in a
//!   quarantine; detection is **heuristic** — once quarantined memory is
//!   recycled, dangling uses are silently missed.
//! * [`CapabilityChecker`] — SafeC / Patil-Fisher / Xu et al. (§5.2): a
//!   unique capability per allocation kept in a global capability store,
//!   checked in software on every access. Sound, cheaper than Valgrind, but
//!   pays per-access software cost and 1.6–4× metadata memory overhead.
//!
//! All three are [`dangle_heap::Allocator`]s. The two software checkers
//! also expose `check` ([`Memcheck::check`], [`CapabilityChecker::check`]):
//! their backends in `dangle-interp` call it before every program access,
//! and it returns the address to access or, as `Err`, the dangling
//! address it flagged. `EFence` needs no such entry: the MMU checks its
//! accesses.
//!
//! Detection bookkeeping goes through the machine's telemetry registry:
//! every software check bumps `baseline.checks_performed`, every flagged
//! temporal error bumps `baseline.dangling_detected`.

pub mod capability;
pub mod efence;
pub mod memcheck;

pub use capability::CapabilityChecker;
pub use efence::EFence;
pub use memcheck::Memcheck;
