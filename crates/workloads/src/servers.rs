//! The server daemons of Table 1 and the §4.3 address-space study.
//!
//! The paper's key observation about servers: they **fork a new process per
//! connection**, perform *few* allocations per connection but *many* memory
//! accesses, and any virtual-address wastage dies with the connection's
//! process. Each model here runs a batch of connections; a connection
//! creates a per-process pool scope (what fork + APA yields), does its
//! protocol work against simulated buffers, and destroys the scope.
//!
//! Allocation counts per connection follow the paper's §4.3 measurements:
//!
//! * **ghttpd** — exactly **one** dynamic allocation per connection;
//! * **ftpd** — **5–6 allocations per command from global pools** (plus the
//!   `fb_realpath`-style local pool that APA makes reusable);
//! * **fingerd** — a handful of allocations, small responses;
//! * **tftpd** — a fresh process **per command**, block-oriented transfer;
//! * **telnetd** — **45 small allocations** at session start, then a long
//!   allocation-free interactive session.

use crate::{mix, Ctx, Prng, WResult, Workload};
use dangle_interp::backend::Backend;
use dangle_vmm::{Machine, VirtAddr};

/// Fills `buf` with a deterministic "file" and returns a content hash while
/// scanning it back out in `chunk`-byte sends — the access-heavy serve loop
/// every daemon shares.
fn serve_buffer(
    ctx: &mut Ctx,
    buf: VirtAddr,
    len: usize,
    chunk: usize,
    seed: u64,
) -> WResult<u64> {
    let mut rng = Prng::new(seed);
    for i in 0..len {
        ctx.put_u8(buf, i, (rng.below(251)) as u8)?;
    }
    let mut acc = 0u64;
    let mut sent = 0usize;
    while sent < len {
        let n = chunk.min(len - sent);
        for i in 0..n {
            acc = mix(acc, ctx.get_u8(buf, sent + i)? as u64);
            ctx.compute(10); // checksum/copy work per byte
        }
        ctx.compute(400); // per-send network syscall work outside the allocator
        sent += n;
    }
    Ok(acc)
}

// ---------------------------------------------------------------------
// ghttpd
// ---------------------------------------------------------------------

/// The `ghttpd` model: small-footprint web server, one allocation per
/// connection.
#[derive(Clone, Copy, Debug)]
pub struct Ghttpd {
    /// Connections served.
    pub connections: usize,
    /// Bytes per response body.
    pub response_bytes: usize,
}

impl Default for Ghttpd {
    fn default() -> Ghttpd {
        Ghttpd { connections: 40, response_bytes: 24_000 }
    }
}

impl Workload for Ghttpd {
    fn name(&self) -> &'static str {
        "ghttpd"
    }

    fn run(&self, machine: &mut Machine, backend: &mut dyn Backend) -> WResult<u64> {
        let mut ctx = Ctx::new(machine, backend);
        let mut acc = 0u64;
        for conn in 0..self.connections {
            ctx.span_enter("ghttpd.conn");
            // fork(): the connection's pool scope.
            let pool = ctx.pool_create(0)?;
            // The single allocation: the request/response buffer.
            let buf = ctx.alloc_bytes(self.response_bytes, Some(pool))?;
            acc = mix(acc, serve_buffer(&mut ctx, buf, self.response_bytes, 1460, conn as u64)?);
            // exit(): everything is reclaimed.
            ctx.pool_destroy(pool)?;
            ctx.request_exit();
        }
        Ok(acc)
    }
}

/// The keep-alive variant of [`Ghttpd`]: one pool per connection, many
/// requests per connection, each allocating a header and a response buffer
/// that live until the connection's pool dies wholesale. No individual
/// frees — the §4.3 server shape (few allocations, pool-scoped lifetimes)
/// taken to the keep-alive limit.
#[derive(Clone, Copy, Debug)]
pub struct GhttpdKeepAlive {
    /// Connections served.
    pub connections: usize,
    /// Requests per connection.
    pub requests_per_connection: usize,
    /// Bytes per response body.
    pub response_bytes: usize,
}

impl Default for GhttpdKeepAlive {
    fn default() -> GhttpdKeepAlive {
        GhttpdKeepAlive { connections: 16, requests_per_connection: 96, response_bytes: 8_000 }
    }
}

impl Workload for GhttpdKeepAlive {
    fn name(&self) -> &'static str {
        "ghttpd-keepalive"
    }

    fn run(&self, machine: &mut Machine, backend: &mut dyn Backend) -> WResult<u64> {
        let mut ctx = Ctx::new(machine, backend);
        let mut acc = 0u64;
        for conn in 0..self.connections {
            ctx.span_enter("ghttpd-keepalive.conn");
            let pool = ctx.pool_create(0)?;
            for req in 0..self.requests_per_connection {
                ctx.span_enter("ghttpd-keepalive.req");
                let seed = (conn * 8191 + req) as u64;
                // Request header + response buffer, both connection-lived.
                let hdr = ctx.alloc(4, Some(pool))?;
                ctx.put(hdr, 0, seed)?;
                ctx.put(hdr, 1, req as u64)?;
                let buf = ctx.alloc_bytes(self.response_bytes, Some(pool))?;
                ctx.memset(buf, (seed & 0xff) as u8, self.response_bytes)?;
                acc = mix(acc, ctx.get(hdr, 0)?);
                acc = mix(acc, ctx.get_u8(buf, self.response_bytes / 2)? as u64);
                ctx.compute(600); // parse + send work outside the allocator
                ctx.request_exit();
            }
            ctx.pool_destroy(pool)?;
            ctx.span_exit();
        }
        Ok(acc)
    }
}

// ---------------------------------------------------------------------
// ftpd
// ---------------------------------------------------------------------

/// The `wu-ftpd` model: per-connection process issuing several commands;
/// each command performs 5–6 allocations from connection-global pools and
/// one `fb_realpath`-style local pool episode.
#[derive(Clone, Copy, Debug)]
pub struct Ftpd {
    /// Connections served.
    pub connections: usize,
    /// Commands (e.g. `get file`) per connection.
    pub commands_per_connection: usize,
    /// Bytes per transferred file.
    pub file_bytes: usize,
}

impl Default for Ftpd {
    fn default() -> Ftpd {
        Ftpd { connections: 8, commands_per_connection: 6, file_bytes: 48_000 }
    }
}

impl Ftpd {
    /// `fb_realpath`: create a pool, allocate, compute, free, destroy —
    /// the pattern the paper highlights as benefiting from APA.
    fn fb_realpath(ctx: &mut Ctx, path_seed: u64) -> WResult<u64> {
        let pool = ctx.pool_create(0)?;
        let buf = ctx.alloc_bytes(1024, Some(pool))?;
        let mut rng = Prng::new(path_seed | 1);
        let mut h = 0u64;
        for i in 0..256 {
            ctx.put_u8(buf, i, (rng.below(26) + 97) as u8)?;
        }
        for i in 0..256 {
            h = mix(h, ctx.get_u8(buf, i)? as u64);
        }
        ctx.free(buf, Some(pool))?;
        ctx.pool_destroy(pool)?;
        Ok(h)
    }
}

impl Workload for Ftpd {
    fn name(&self) -> &'static str {
        "ftpd"
    }

    fn run(&self, machine: &mut Machine, backend: &mut dyn Backend) -> WResult<u64> {
        let mut ctx = Ctx::new(machine, backend);
        let mut acc = 0u64;
        for conn in 0..self.connections {
            ctx.span_enter("ftpd.conn");
            // fork(): connection-global pools live as long as the process.
            let global_pool = ctx.pool_create(0)?;
            let mut globals = Vec::new();
            for cmd in 0..self.commands_per_connection {
                ctx.span_enter("ftpd.cmd");
                let seed = (conn * 131 + cmd) as u64;
                // 5-6 allocations out of global pools per command (§4.3).
                for k in 0..5 + (cmd % 2) {
                    let g = ctx.alloc(4, Some(global_pool))?;
                    ctx.put(g, 0, seed)?;
                    ctx.put(g, 1, k as u64)?;
                    globals.push(g);
                }
                acc = mix(acc, Self::fb_realpath(&mut ctx, seed)?);
                // The transfer itself.
                let buf = ctx.alloc_bytes(self.file_bytes, Some(global_pool))?;
                acc = mix(acc, serve_buffer(&mut ctx, buf, self.file_bytes, 4096, seed)?);
                ctx.free(buf, Some(global_pool))?;
                ctx.request_exit();
            }
            for g in globals {
                acc = mix(acc, ctx.get(g, 1)?);
            }
            // Process killed at end of connection: pools die with it.
            ctx.pool_destroy(global_pool)?;
            ctx.span_exit();
        }
        Ok(acc)
    }
}

// ---------------------------------------------------------------------
// fingerd
// ---------------------------------------------------------------------

/// The `fingerd` model: tiny request, small response.
#[derive(Clone, Copy, Debug)]
pub struct Fingerd {
    /// Requests served.
    pub requests: usize,
}

impl Default for Fingerd {
    fn default() -> Fingerd {
        Fingerd { requests: 60 }
    }
}

impl Workload for Fingerd {
    fn name(&self) -> &'static str {
        "fingerd"
    }

    fn run(&self, machine: &mut Machine, backend: &mut dyn Backend) -> WResult<u64> {
        let mut ctx = Ctx::new(machine, backend);
        let mut acc = 0u64;
        for req in 0..self.requests {
            ctx.span_enter("fingerd.req");
            let pool = ctx.pool_create(0)?;
            // Parse the user name (one small allocation), build the reply.
            let name = ctx.alloc_bytes(64, Some(pool))?;
            for i in 0..32 {
                ctx.put_u8(name, i, b'a' + ((req + i) % 26) as u8)?;
            }
            let reply = ctx.alloc_bytes(16_384, Some(pool))?;
            acc = mix(acc, serve_buffer(&mut ctx, reply, 16_384, 512, req as u64)?);
            for i in 0..32 {
                acc = mix(acc, ctx.get_u8(name, i)? as u64);
            }
            ctx.pool_destroy(pool)?;
            ctx.request_exit();
        }
        Ok(acc)
    }
}

// ---------------------------------------------------------------------
// tftpd
// ---------------------------------------------------------------------

/// The `tftpd` model: every command forks a fresh process; files move in
/// 512-byte blocks.
#[derive(Clone, Copy, Debug)]
pub struct Tftpd {
    /// Commands (each a fresh process).
    pub commands: usize,
    /// Bytes per transferred file.
    pub file_bytes: usize,
}

impl Default for Tftpd {
    fn default() -> Tftpd {
        Tftpd { commands: 30, file_bytes: 32_000 }
    }
}

impl Workload for Tftpd {
    fn name(&self) -> &'static str {
        "tftpd"
    }

    fn run(&self, machine: &mut Machine, backend: &mut dyn Backend) -> WResult<u64> {
        let mut ctx = Ctx::new(machine, backend);
        let mut acc = 0u64;
        for cmd in 0..self.commands {
            ctx.span_enter("tftpd.cmd");
            // Fork per command (§4.3: "every command from the client forks
            // off a new process").
            let pool = ctx.pool_create(0)?;
            let block = ctx.alloc_bytes(512, Some(pool))?;
            let file = ctx.alloc_bytes(self.file_bytes, Some(pool))?;
            let h = serve_buffer(&mut ctx, file, self.file_bytes, 512, cmd as u64)?;
            // Re-block the file through the 512-byte buffer (the TFTP loop).
            let blocks = self.file_bytes / 512;
            for b in 0..blocks {
                for i in 0..512 {
                    let byte = ctx.get_u8(file, b * 512 + i)?;
                    ctx.put_u8(block, i, byte)?;
                    ctx.compute(6);
                }
                ctx.compute(400);
            }
            acc = mix(acc, h);
            ctx.pool_destroy(pool)?;
            ctx.request_exit();
        }
        Ok(acc)
    }
}

// ---------------------------------------------------------------------
// telnetd
// ---------------------------------------------------------------------

/// The `telnetd` model: 45 small allocations at session setup, then a long
/// allocation-free interactive session (§4.3).
#[derive(Clone, Copy, Debug)]
pub struct Telnetd {
    /// Sessions served.
    pub sessions: usize,
    /// Interactive exchanges per session.
    pub exchanges: usize,
}

impl Default for Telnetd {
    fn default() -> Telnetd {
        Telnetd { sessions: 8, exchanges: 3500 }
    }
}

/// The paper's measured per-session allocation count for telnetd.
pub const TELNETD_SESSION_ALLOCS: usize = 45;

impl Workload for Telnetd {
    fn name(&self) -> &'static str {
        "telnetd"
    }

    fn run(&self, machine: &mut Machine, backend: &mut dyn Backend) -> WResult<u64> {
        let mut ctx = Ctx::new(machine, backend);
        let mut acc = 0u64;
        for session in 0..self.sessions {
            ctx.span_enter("telnetd.session");
            let pool = ctx.pool_create(0)?;
            // 45 small setup allocations (terminal state, option tables...).
            let mut setup = Vec::new();
            for k in 0..TELNETD_SESSION_ALLOCS {
                let s = ctx.alloc(4, Some(pool))?;
                ctx.put(s, 0, (session * 100 + k) as u64)?;
                setup.push(s);
            }
            let line = ctx.alloc_bytes(256, Some(pool))?;
            // The interactive session: echo loops over the line buffer,
            // zero further allocations.
            for x in 0..self.exchanges {
                for i in 0..80 {
                    ctx.put_u8(line, i, ((x + i) % 251) as u8)?;
                    ctx.compute(4); // terminal option processing per byte
                }
                let mut h = 0u64;
                for i in 0..80 {
                    h = mix(h, ctx.get_u8(line, i)? as u64);
                    ctx.compute(4);
                }
                acc = mix(acc, h);
                ctx.compute(120);
            }
            for s in setup {
                acc = mix(acc, ctx.get(s, 0)?);
            }
            ctx.pool_destroy(pool)?;
            ctx.request_exit();
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangle_heap::Allocator as _;
    use dangle_interp::backend::{NativeBackend, ShadowPoolBackend};

    fn agree(w: &dyn Workload) {
        let mut m1 = Machine::free_running();
        let mut b1 = NativeBackend::new();
        let c1 = w.run(&mut m1, &mut b1).unwrap();
        let mut m2 = Machine::free_running();
        let mut b2 = ShadowPoolBackend::new();
        let c2 = w.run(&mut m2, &mut b2).unwrap();
        assert_eq!(c1, c2, "{}", w.name());
    }

    #[test]
    fn all_servers_backend_independent() {
        agree(&Ghttpd { connections: 3, response_bytes: 3000 });
        agree(&GhttpdKeepAlive {
            connections: 2,
            requests_per_connection: 8,
            response_bytes: 2000,
        });
        agree(&Ftpd { connections: 2, commands_per_connection: 2, file_bytes: 2000 });
        agree(&Fingerd { requests: 4 });
        agree(&Tftpd { commands: 3, file_bytes: 2048 });
        agree(&Telnetd { sessions: 2, exchanges: 10 });
    }

    #[test]
    fn ghttpd_one_allocation_per_connection() {
        let mut m = Machine::free_running();
        let mut b = NativeBackend::new();
        Ghttpd { connections: 5, response_bytes: 2000 }.run(&mut m, &mut b).unwrap();
        assert_eq!(b.heap().stats().allocs, 5);
    }

    #[test]
    fn telnetd_allocates_45_per_session() {
        let mut m = Machine::free_running();
        let mut b = NativeBackend::new();
        Telnetd { sessions: 2, exchanges: 4 }.run(&mut m, &mut b).unwrap();
        // 45 setup allocations + 1 line buffer per session.
        assert_eq!(b.heap().stats().allocs, 2 * (TELNETD_SESSION_ALLOCS + 1) as u64);
    }

    #[test]
    fn servers_have_high_access_to_alloc_ratio() {
        // The property the paper's low server overheads depend on.
        for w in crate::server_suite() {
            let mut m = Machine::free_running();
            let mut b = NativeBackend::new();
            w.run(&mut m, &mut b).unwrap();
            let accesses = m.stats().total_accesses();
            let allocs = b.heap().stats().allocs.max(1);
            assert!(
                accesses / allocs > 300,
                "{}: only {} accesses per allocation",
                w.name(),
                accesses / allocs
            );
        }
    }

    #[test]
    fn connection_pools_bound_va_growth_under_detector() {
        // §4.3: wastage is not carried across connections. After warm-up,
        // serving more connections must not consume more VA.
        let mut m1 = Machine::free_running();
        let mut b1 = ShadowPoolBackend::new();
        Ghttpd { connections: 2, response_bytes: 4000 }.run(&mut m1, &mut b1).unwrap();
        let two = m1.virt_pages_consumed();

        let mut m2 = Machine::free_running();
        let mut b2 = ShadowPoolBackend::new();
        Ghttpd { connections: 20, response_bytes: 4000 }.run(&mut m2, &mut b2).unwrap();
        assert_eq!(m2.virt_pages_consumed(), two, "VA reuse across connections");
    }
}
