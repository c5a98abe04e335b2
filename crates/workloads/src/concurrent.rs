//! Concurrent server driver: thousands of interleaved sessions across the
//! machine's cores under a deterministic seeded scheduler.
//!
//! The single-threaded workloads in [`crate::servers`] run one connection
//! to completion before the next begins. A production server does not: at
//! any instant every core is somewhere in the middle of a different
//! session. This driver models that — each session is a small *resumable*
//! state machine (one request or command per step), pinned round-robin to
//! a core, and a scheduler repeatedly picks the core with the lowest
//! simulated clock (lowest index on ties) and advances one of that core's
//! runnable sessions, chosen by a seeded RNG.
//!
//! Determinism and invariance:
//!
//! * a `(mix, seed)` pair fully determines the interleaving — runs are
//!   bit-reproducible;
//! * *different* seeds produce different interleavings, but every
//!   session's own computation depends only on its session id, so the
//!   per-session checksums — folded in session-id order — and the set of
//!   **normalized** detection records are interleaving-invariant. Records
//!   are normalized to (session id, kind, object size) precisely because
//!   raw addresses *are* scheduling-dependent: which page a session's
//!   buffer lands on depends on who allocated first.
//!
//! Sessions with an injected use-after-free read a freed object once; on a
//! detecting backend the MMU trap is caught by the driver and recorded,
//! and the session carries on — detection, not crash, per the paper's
//! production-server goal.

use crate::{mix, Ctx, WResult};
use dangle_interp::backend::{Backend, BackendError, PoolHandle};
use dangle_testkit::SeededRng;
use dangle_vmm::{Machine, VirtAddr};

/// One normalized detection: everything about an injected dangling use
/// that is invariant under rescheduling.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Detection {
    /// Session that performed the dangling access.
    pub session: u32,
    /// What kind of access trapped.
    pub kind: &'static str,
    /// Size of the freed object, in bytes.
    pub bytes: u32,
}

/// Result of one concurrent run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConcurrentReport {
    /// Per-session checksums folded in session-id order.
    pub checksum: u64,
    /// Scheduling quanta executed (session steps).
    pub quanta: u64,
    /// Normalized detections, sorted. Empty when the backend does not
    /// detect or no UAFs were injected.
    pub detections: Vec<Detection>,
}

/// The concurrent session mix. Session shapes follow the §4.3 server
/// models: ids cycle ghttpd-keepalive → fingerd → ftpd, and the *last*
/// `injected_uafs` ids are use-after-free sessions instead.
#[derive(Clone, Copy, Debug)]
pub struct ConcurrentMix {
    /// Total sessions.
    pub sessions: usize,
    /// Requests (ghttpd) / commands (ftpd) / lookups (fingerd) per session.
    pub requests_per_session: usize,
    /// Bytes per response or transfer buffer.
    pub response_bytes: usize,
    /// Sessions (taken from the end of the id range) that read an object
    /// after freeing it.
    pub injected_uafs: usize,
    /// Scheduler seed: picks which runnable session of the lowest-clock
    /// core advances each quantum.
    pub seed: u64,
    /// When set, every non-UAF session is a ghttpd keep-alive connection —
    /// the access-dominated shape the scaling benchmark sweeps.
    pub ghttpd_only: bool,
}

impl Default for ConcurrentMix {
    fn default() -> ConcurrentMix {
        ConcurrentMix {
            sessions: 48,
            requests_per_session: 8,
            response_bytes: 2_000,
            injected_uafs: 0,
            seed: 1,
            ghttpd_only: false,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    GhttpdKeepAlive,
    Fingerd,
    Ftpd,
    InjectedUaf,
}

struct Session {
    id: u32,
    shape: Shape,
    /// Next step to run; a session is done when `step == steps`.
    step: usize,
    steps: usize,
    /// Session-lived pool (ghttpd/ftpd connection scope, UAF scope).
    pool: Option<PoolHandle>,
    /// ftpd per-command globals, read back before the pool dies; for the
    /// UAF session, the freed object's address.
    stash: Vec<VirtAddr>,
    acc: u64,
}

impl Session {
    fn new(id: u32, mix_cfg: &ConcurrentMix) -> Session {
        let uaf_from = mix_cfg.sessions - mix_cfg.injected_uafs;
        let shape = if (id as usize) >= uaf_from {
            Shape::InjectedUaf
        } else if mix_cfg.ghttpd_only {
            Shape::GhttpdKeepAlive
        } else {
            match id % 3 {
                0 => Shape::GhttpdKeepAlive,
                1 => Shape::Fingerd,
                _ => Shape::Ftpd,
            }
        };
        let steps = match shape {
            // +1: the final step destroys the connection pool.
            Shape::GhttpdKeepAlive | Shape::Ftpd => mix_cfg.requests_per_session + 1,
            Shape::Fingerd => mix_cfg.requests_per_session,
            // alloc+free, dangling use, destroy.
            Shape::InjectedUaf => 3,
        };
        Session { id, shape, step: 0, steps, pool: None, stash: Vec::new(), acc: 0 }
    }

    fn done(&self) -> bool {
        self.step >= self.steps
    }

    /// Size of the UAF session's freed object — derived from the id only,
    /// so the normalized detection record is interleaving-invariant.
    fn uaf_bytes(&self) -> usize {
        64 + (self.id as usize % 7) * 32
    }

    /// Runs one scheduling quantum of this session.
    fn run_step(&mut self, ctx: &mut Ctx, cfg: &ConcurrentMix) -> WResult<Option<Detection>> {
        let step = self.step;
        self.step += 1;
        match self.shape {
            Shape::GhttpdKeepAlive => {
                if step == 0 {
                    self.pool = Some(ctx.pool_create(0)?);
                }
                let pool = self.pool;
                if step == self.steps - 1 {
                    ctx.pool_destroy(self.pool.take().expect("created at step 0"))?;
                    return Ok(None);
                }
                ctx.span_enter("concurrent.ghttpd.req");
                let seed = (self.id as u64) * 8191 + step as u64;
                let hdr = ctx.alloc(4, pool)?;
                ctx.put(hdr, 0, seed)?;
                ctx.put(hdr, 1, step as u64)?;
                let buf = ctx.alloc_bytes(cfg.response_bytes, pool)?;
                ctx.memset(buf, (seed & 0xff) as u8, cfg.response_bytes)?;
                self.acc = mix(self.acc, ctx.get(hdr, 0)?);
                self.acc = mix(self.acc, ctx.get_u8(buf, cfg.response_bytes / 2)? as u64);
                ctx.compute(600);
                ctx.request_exit();
            }
            Shape::Fingerd => {
                // Every lookup is its own process: pool per step.
                ctx.span_enter("concurrent.fingerd.req");
                let handle = ctx.pool_create(0)?;
                let pool = Some(handle);
                let name = ctx.alloc_bytes(64, pool)?;
                for i in 0..8 {
                    ctx.put_u8(name, i, b'a' + ((self.id as usize + step + i) % 26) as u8)?;
                }
                let reply = ctx.alloc_bytes(cfg.response_bytes, pool)?;
                ctx.memset(reply, (self.id % 251) as u8, cfg.response_bytes)?;
                self.acc = mix(self.acc, ctx.get_u8(reply, cfg.response_bytes - 1)? as u64);
                for i in 0..8 {
                    self.acc = mix(self.acc, ctx.get_u8(name, i)? as u64);
                }
                ctx.compute(500);
                ctx.pool_destroy(handle)?;
                ctx.request_exit();
            }
            Shape::Ftpd => {
                if step == 0 {
                    self.pool = Some(ctx.pool_create(0)?);
                }
                let pool = self.pool;
                if step == self.steps - 1 {
                    for &g in &self.stash {
                        self.acc = mix(self.acc, ctx.get(g, 1)?);
                    }
                    self.stash.clear();
                    ctx.pool_destroy(self.pool.take().expect("created at step 0"))?;
                    return Ok(None);
                }
                ctx.span_enter("concurrent.ftpd.cmd");
                let seed = (self.id as u64) * 131 + step as u64;
                // 5-6 small allocations from the connection's global pool.
                for k in 0..5 + (step % 2) {
                    let g = ctx.alloc(4, pool)?;
                    ctx.put(g, 0, seed)?;
                    ctx.put(g, 1, k as u64)?;
                    self.stash.push(g);
                }
                // fb_realpath: a whole pool scope inside one command.
                let scratch_handle = ctx.pool_create(0)?;
                let scratch = Some(scratch_handle);
                let path = ctx.alloc_bytes(1024, scratch)?;
                for i in 0..16 {
                    ctx.put_u8(path, i, (97 + (seed as usize + i) % 26) as u8)?;
                }
                for i in 0..16 {
                    self.acc = mix(self.acc, ctx.get_u8(path, i)? as u64);
                }
                ctx.free(path, scratch)?;
                ctx.pool_destroy(scratch_handle)?;
                // The transfer buffer, freed at command end.
                let buf = ctx.alloc_bytes(cfg.response_bytes, pool)?;
                ctx.memset(buf, (seed & 0xff) as u8, cfg.response_bytes)?;
                self.acc = mix(self.acc, ctx.get_u8(buf, 0)? as u64);
                ctx.free(buf, pool)?;
                ctx.compute(800);
                ctx.request_exit();
            }
            Shape::InjectedUaf => match step {
                0 => {
                    let handle = ctx.pool_create(0)?;
                let pool = Some(handle);
                    self.pool = pool;
                    let buf = ctx.alloc_bytes(self.uaf_bytes(), pool)?;
                    ctx.put(buf, 0, self.id as u64)?;
                    self.acc = mix(self.acc, ctx.get(buf, 0)?);
                    ctx.free(buf, pool)?;
                    self.stash.push(buf);
                }
                1 => {
                    // The dangling use. A detecting backend traps here; the
                    // driver records the detection and the session carries
                    // on. An undetecting backend reads stale memory whose
                    // value depends on the interleaving — it is deliberately
                    // NOT folded into the checksum.
                    let buf = self.stash[0];
                    match ctx.get(buf, 0) {
                        Err(BackendError::Trap { .. }) => {
                            return Ok(Some(Detection {
                                session: self.id,
                                kind: "uaf-read",
                                bytes: self.uaf_bytes() as u32,
                            }));
                        }
                        Err(e) => return Err(e),
                        Ok(_) => {}
                    }
                }
                _ => {
                    ctx.pool_destroy(self.pool.take().expect("created at step 0"))?;
                }
            },
        }
        Ok(None)
    }
}

impl ConcurrentMix {
    /// Runs the mix to completion, interleaving sessions across all of
    /// `machine`'s cores.
    ///
    /// # Errors
    /// Propagates [`BackendError`] from any *non-injected* failure; the
    /// injected dangling reads are caught and reported, never propagated.
    ///
    /// # Panics
    /// Panics if `injected_uafs > sessions`.
    pub fn run(
        &self,
        machine: &mut Machine,
        backend: &mut dyn Backend,
    ) -> WResult<ConcurrentReport> {
        assert!(self.injected_uafs <= self.sessions, "more UAF sessions than sessions");
        let cores = machine.core_count();
        let mut sessions: Vec<Session> =
            (0..self.sessions as u32).map(|id| Session::new(id, self)).collect();
        // Per-core run queues: session ids pinned round-robin.
        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); cores];
        for (i, _) in sessions.iter().enumerate() {
            queues[i % cores].push(i);
        }
        let mut rng = SeededRng::new(self.seed);
        let mut detections = Vec::new();
        let mut quanta = 0u64;
        // Each quantum runs on the runnable core with the lowest clock —
        // the simulated analogue of "whichever CPU gets there first" —
        // with the lowest index breaking ties so runs are reproducible.
        while let Some(core) = (0..cores)
            .filter(|&c| !queues[c].is_empty())
            .min_by_key(|&c| (machine.core_clock(c), c))
        {
            let slot = rng.below(queues[core].len() as u64) as usize;
            let sid = queues[core][slot];
            machine.switch_core(core);
            let mut ctx = Ctx::new(machine, backend);
            if let Some(d) = sessions[sid].run_step(&mut ctx, self)? {
                detections.push(d);
            }
            quanta += 1;
            if sessions[sid].done() {
                queues[core].remove(slot);
            }
        }
        machine.switch_core(0);
        let checksum = sessions.iter().fold(0u64, |acc, s| mix(acc, s.acc));
        detections.sort();
        Ok(ConcurrentReport { checksum, quanta, detections })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangle_interp::backend::{ArenaBackend, ShadowPoolBackend};
    use dangle_vmm::{CostModel, MachineConfig};

    fn machine(cores: usize) -> Machine {
        Machine::with_config(MachineConfig {
            cores,
            cost: CostModel::calibrated(),
            ..MachineConfig::default()
        })
    }

    fn small_mix(injected: usize, seed: u64) -> ConcurrentMix {
        ConcurrentMix {
            sessions: 12,
            requests_per_session: 3,
            response_bytes: 256,
            injected_uafs: injected,
            seed,
            ..ConcurrentMix::default()
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let cfg = small_mix(2, 7);
        let run = || {
            let mut m = machine(4);
            let mut b = ShadowPoolBackend::new();
            let r = cfg.run(&mut m, &mut b).unwrap();
            (r, m.max_core_clock())
        };
        assert_eq!(run(), run(), "same mix + seed => bit-identical run");
    }

    #[test]
    fn checksum_and_detections_are_interleaving_invariant() {
        let mut reference = None;
        for seed in [1u64, 99, 123_456] {
            let mut m = machine(4);
            let mut b = ShadowPoolBackend::new();
            let r = small_mix(3, seed).run(&mut m, &mut b).unwrap();
            assert_eq!(r.detections.len(), 3, "every injected UAF detected");
            let key = (r.checksum, r.detections.clone());
            match &reference {
                None => reference = Some(key),
                Some(k) => assert_eq!(*k, key, "seed {seed} changed observable results"),
            }
        }
    }

    #[test]
    fn undetecting_backend_reports_nothing_but_same_checksum() {
        let mut m1 = machine(2);
        let mut b1 = ShadowPoolBackend::new();
        let detected = small_mix(2, 5).run(&mut m1, &mut b1).unwrap();
        let mut m2 = machine(2);
        let mut b2 = ArenaBackend::new(2);
        let undetected = small_mix(2, 5).run(&mut m2, &mut b2).unwrap();
        assert_eq!(detected.detections.len(), 2);
        assert!(undetected.detections.is_empty(), "arena malloc never traps");
        assert_eq!(detected.checksum, undetected.checksum, "semantics unchanged");
    }
}
