//! **simperf** — host-side throughput of the simulator itself.
//!
//! Unlike every other binary here, this one measures *host* wall-clock
//! time, not simulated cycles: it quantifies the payoff of the radix page
//! table + frame slab against the original `HashMap`-based implementation
//! (kept as [`PageTableImpl::Reference`] precisely for this comparison).
//!
//! ```text
//! cargo run --release -p dangle-bench --bin simperf
//! ```
//!
//! Two measurements, both run under each page-table implementation:
//!
//! 1. **microbench** — a mixed load/store loop over a multi-megabyte page
//!    working set (sequential sweeps + random page hops), reporting raw
//!    accesses/second;
//! 2. **end-to-end** — the Table 1 workloads under the `native` and `ours`
//!    configurations, reporting wall-clock per run.
//!
//! Simulated clocks and checksums are asserted identical across the two
//! implementations on every run — the optimization is host-only by
//! construction, and this binary re-proves it on real workloads.
//!
//! `SIMPERF_QUICK=1` shrinks the workload for CI smoke runs. The artifact
//! (`BENCH_simperf.json`) carries host timings and is therefore the one
//! BENCH file that is *not* byte-reproducible across machines.

use dangle_bench::{measure_with, render_table, Artifact, Config};
use dangle_telemetry::{Json, TelemetryConfig};
use dangle_vmm::{Machine, MachineConfig, PageTableImpl};
use dangle_workloads::{server_suite, utilities, Prng, Workload};
use std::time::Instant;

/// One timed microbench run: returns (accesses, seconds, simulated clock,
/// checksum).
///
/// The memory shape mirrors the detector's: `frames` physical pages
/// (cache-hot data) aliased by `views` virtual runs (shadow pages), so the
/// page table holds `frames * views` entries — exactly the VA ≫ PA ratio
/// the shadow-page scheme induces on a long-running server. Translation is
/// then the dominant host cost, which is what this bench isolates.
fn microbench(
    which: PageTableImpl,
    frames: usize,
    views: usize,
    sweeps: usize,
) -> (u64, f64, u64, u64) {
    let config = MachineConfig {
        page_table: which,
        telemetry: TelemetryConfig::disabled(),
        ..MachineConfig::default()
    };
    let mut m = Machine::with_config(config);
    let hot = m.mmap(frames).expect("map working set");
    let mut bases = vec![hot];
    for _ in 1..views {
        bases.push(m.mremap_alias(hot, frames).expect("alias view"));
    }
    let mut rng = Prng::new(0x51e7_f00d);
    let mut accesses = 0u64;
    let mut checksum = 0u64;
    // One access per page, like traversing an object-per-page heap: each
    // object is its own virtual page, so every pointer hop is a fresh
    // translation (the paper's §4 access pattern).
    let hops = (frames * views / 4) as u64;
    let start = Instant::now();
    for sweep in 0..sweeps as u64 {
        // Sequential sweep: walk every virtual page of every view in page
        // order, alternating stores and loads.
        for (v, base) in bases.iter().enumerate() {
            for pg in 0..frames as u64 {
                let w = (v as u64 + pg) & 7;
                let addr = base.add(pg * 4096 + w * 8);
                if pg & 1 == 0 {
                    m.store_u64(addr, sweep ^ ((v as u64) << 32) ^ (pg << 8) ^ w)
                        .expect("store");
                } else {
                    checksum ^= m.load_u64(addr).expect("load");
                }
                accesses += 1;
            }
        }
        // Random page hops across the whole aliased VA: translation
        // locality is gone entirely.
        for _ in 0..hops {
            let v = rng.below(views as u64) as usize;
            let pg = rng.below(frames as u64);
            let w = rng.below(8);
            let addr = bases[v].add(pg * 4096 + w * 8);
            if w & 1 == 0 {
                m.store_u64(addr, pg ^ w).expect("store");
            } else {
                checksum ^= m.load_u64(addr).expect("load");
            }
            accesses += 1;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    (accesses, secs, m.clock(), checksum)
}

/// Times one workload/config pair under `which`, returning (seconds,
/// simulated cycles, checksum).
fn end_to_end(w: &dyn Workload, config: Config, which: PageTableImpl) -> (f64, u64, u64) {
    let mc = MachineConfig { page_table: which, ..MachineConfig::default() };
    let start = Instant::now();
    let m = measure_with(w, config, mc);
    (start.elapsed().as_secs_f64(), m.cycles, m.checksum)
}

fn main() {
    let quick = std::env::var("SIMPERF_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    // Geometry: `frames` hot physical pages, aliased `views` times. The
    // page table must be *large* (hundreds of thousands of entries — what
    // a long-running shadow-heap server accumulates) for the comparison
    // to be representative; the data itself stays hot.
    let (frames, views, sweeps) = if quick { (256, 32, 2) } else { (1024, 1024, 3) };
    let pages = frames * views;

    // --- 1. microbench ---
    // Warm-up run (page faults, allocator growth) is not timed.
    microbench(PageTableImpl::Radix, frames.min(256), 2, 1);
    let (acc_ref, sec_ref, clk_ref, sum_ref) =
        microbench(PageTableImpl::Reference, frames, views, sweeps);
    let (acc_rad, sec_rad, clk_rad, sum_rad) =
        microbench(PageTableImpl::Radix, frames, views, sweeps);
    assert_eq!(acc_ref, acc_rad, "identical operation sequence");
    assert_eq!(clk_ref, clk_rad, "simulated clock must not depend on the page table");
    assert_eq!(sum_ref, sum_rad, "data must not depend on the page table");
    let aps_ref = acc_ref as f64 / sec_ref.max(1e-9);
    let aps_rad = acc_rad as f64 / sec_rad.max(1e-9);
    let micro_speedup = aps_rad / aps_ref.max(1e-9);

    println!("simperf: host-side simulator throughput (radix vs reference page table)\n");
    println!(
        "microbench: {frames} frames x {views} views = {pages} virtual pages, \
         {sweeps} sweeps, {acc_ref} accesses (sequential sweeps + random hops)"
    );
    println!("  reference: {aps_ref:>12.0} accesses/s   ({sec_ref:.3}s)");
    println!("  radix:     {aps_rad:>12.0} accesses/s   ({sec_rad:.3}s)");
    println!("  speedup:   {micro_speedup:.2}x\n");

    // --- 2. end-to-end ---
    let workloads: Vec<Box<dyn Workload>> = if quick {
        vec![utilities().remove(3), server_suite().remove(0)] // gzip + ghttpd
    } else {
        utilities().into_iter().chain(server_suite()).collect()
    };
    let configs = [Config::Native, Config::Ours];
    let header = ["Workload", "Config", "reference (s)", "radix (s)", "speedup"];
    let mut rows = Vec::new();
    let mut artifact_rows = Vec::new();
    let (mut total_ref, mut total_rad) = (0.0f64, 0.0f64);
    for w in &workloads {
        for config in configs {
            let (s_ref, c_ref, k_ref) = end_to_end(w.as_ref(), config, PageTableImpl::Reference);
            let (s_rad, c_rad, k_rad) = end_to_end(w.as_ref(), config, PageTableImpl::Radix);
            assert_eq!(c_ref, c_rad, "{}: cycles diverged", w.name());
            assert_eq!(k_ref, k_rad, "{}: checksum diverged", w.name());
            total_ref += s_ref;
            total_rad += s_rad;
            let sp = s_ref / s_rad.max(1e-9);
            rows.push(vec![
                w.name().to_string(),
                config.key().to_string(),
                format!("{s_ref:.4}"),
                format!("{s_rad:.4}"),
                format!("{sp:.2}"),
            ]);
            artifact_rows.push(Json::Obj(vec![
                ("workload".into(), Json::Str(w.name().to_string())),
                ("config".into(), Json::Str(config.key().to_string())),
                ("reference_seconds".into(), Json::Float(s_ref)),
                ("radix_seconds".into(), Json::Float(s_rad)),
                ("speedup".into(), Json::Float(sp)),
                ("cycles".into(), Json::from_u64(c_ref)),
            ]));
        }
    }
    let e2e_speedup = total_ref / total_rad.max(1e-9);
    println!("{}", render_table(&header, &rows));
    println!(
        "end-to-end: reference {total_ref:.3}s, radix {total_rad:.3}s, \
         speedup {e2e_speedup:.2}x"
    );
    println!("(simulated cycles and checksums asserted identical on every row.)");

    let mut artifact = Artifact::new("simperf");
    artifact.set("quick", Json::Bool(quick));
    artifact.set(
        "microbench",
        Json::Obj(vec![
            ("frames".into(), Json::from_u64(frames as u64)),
            ("views".into(), Json::from_u64(views as u64)),
            ("virtual_pages".into(), Json::from_u64(pages as u64)),
            ("sweeps".into(), Json::from_u64(sweeps as u64)),
            ("accesses".into(), Json::from_u64(acc_ref)),
            (
                "reference".into(),
                Json::Obj(vec![
                    ("seconds".into(), Json::Float(sec_ref)),
                    ("accesses_per_sec".into(), Json::Float(aps_ref)),
                ]),
            ),
            (
                "radix".into(),
                Json::Obj(vec![
                    ("seconds".into(), Json::Float(sec_rad)),
                    ("accesses_per_sec".into(), Json::Float(aps_rad)),
                ]),
            ),
            ("speedup".into(), Json::Float(micro_speedup)),
            ("simulated_cycles".into(), Json::from_u64(clk_ref)),
        ]),
    );
    artifact.set("end_to_end", Json::Arr(artifact_rows));
    artifact.set("end_to_end_speedup", Json::Float(e2e_speedup));
    artifact.write_cwd().expect("write BENCH artifact");
}
