//! The host the benchmark runs on: its memory, and how fast it is running.

use std::hint::black_box;
use std::time::Instant;

/// Host nanoseconds a reference slice takes on a host running at the
/// benchmark's nominal speed (a 2-vCPU 2.1 GHz Xeon VM takes 1.1 to 1.8
/// ms). Host times are reported scaled to this speed.
pub const NOMINAL_REFERENCE_NS: f64 = 1.5e6;

/// Reference slices timed after every measured pass.
pub const SLICES_PER_PASS: usize = 10;

pub struct Memory {
    /// Resident set now, KiB.
    pub rss: u64,
    /// The process's resident-set high-water mark, KiB.
    pub peak: u64,
}

/// The process's resident set, from its own `/proc/self/status`.
pub fn memory_kb() -> Memory {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .unwrap_or(0)
    };
    Memory {
        rss: field("VmRSS:"),
        peak: field("VmHWM:"),
    }
}

/// Fixed work that uses none of the code under test, timed to tell how
/// fast the host is running. Shared hosts drift by tens of percent over
/// minutes; dividing host times by the run's median slice time takes most
/// of that drift out, and leaves a change to the code under test in.
pub struct Reference {
    /// Opcodes of a small register machine, irregular like real bytecode.
    code: [u8; 61],
    /// A 4 MiB table of random read-modify-writes.
    table: Vec<u64>,
}

impl Reference {
    pub fn new() -> Reference {
        let mut code = [0u8; 61];
        let mut x = 12_345u64;
        for op in &mut code {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            *op = (x >> 60) as u8 & 7;
        }
        Reference {
            code,
            table: vec![0; 1 << 19],
        }
    }

    /// Host nanoseconds of one slice: a dispatch loop of the bytecode VM's
    /// shape, then random updates across the table, the shape of the
    /// simulator's memory traffic. Either alone tracked the host's drift
    /// worse than the two together.
    pub fn slice_ns(&mut self) -> f64 {
        let start = Instant::now();
        let (mut regs, mut mem, mut pc) = ([1u64; 16], [0u64; 256], 0usize);
        for step in 0..300_000u64 {
            let (a, b) = (step as usize & 15, (step as usize >> 4) & 15);
            match self.code[pc] {
                0 => regs[a] = regs[a].wrapping_add(regs[b]),
                1 => regs[a] = regs[a].wrapping_sub(regs[b] ^ step),
                2 => regs[a] = regs[a].wrapping_mul(regs[b] | 1),
                3 => regs[a] ^= regs[b].rotate_left(7),
                4 => mem[(regs[b] & 255) as usize] = regs[a],
                5 => regs[a] = mem[(regs[b] & 255) as usize].wrapping_add(step),
                6 => {
                    if regs[a] & 1 == 0 {
                        pc = (pc + 7) % self.code.len();
                    }
                }
                _ => regs[a] = regs[a] >> 3 | regs[b] << 5,
            }
            pc = (pc + 1) % self.code.len();
        }
        let mask = self.table.len() - 1;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..200_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 33) as usize & mask;
            self.table[i] = self.table[i].wrapping_add(x);
        }
        black_box((&regs, &mem, &self.table));
        start.elapsed().as_nanos() as f64
    }
}
