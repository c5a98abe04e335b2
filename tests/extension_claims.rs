//! The flight recorder's claims, asserted as a test at small workload
//! scale: tracing is cycle-neutral and its attribution closes. Every check
//! depends only on the simulated clock or on identical results, so it is
//! exact on any host. Host speed is measured by `perfbench/` alone. The
//! page table keeps its differential test against a `HashMap` model in
//! `crates/vmm/src/pagetable.rs`. Lint elision, sampling and the
//! multi-core machine keep their claims in `lint.rs`, `sampling.rs` and
//! `concurrency.rs`, and the bytecode VM its equivalence with the AST
//! walker in `crates/interp/tests/engines.rs`.

use dangle::interp::backend::{Backend, BackendError, ShadowPoolBackend};
use dangle::telemetry::TelemetryConfig;
use dangle::vmm::{Machine, MachineConfig};
use dangle::workloads::servers::{Ftpd, GhttpdKeepAlive};
use dangle::workloads::{Workload, REQUEST_HISTOGRAM};

/// Runs `w` on a fresh machine built from `config`, returning its checksum
/// and the machine.
fn run_on(w: &dyn Workload, backend: &mut dyn Backend, config: MachineConfig) -> (u64, Machine) {
    let mut m = Machine::with_config(config);
    let checksum = w.run(&mut m, backend).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    (checksum, m)
}

fn ftpd() -> Ftpd {
    Ftpd { connections: 2, commands_per_connection: 3, file_bytes: 6_000 }
}

fn keepalive() -> GhttpdKeepAlive {
    GhttpdKeepAlive { connections: 4, requests_per_connection: 24, response_bytes: 2_000 }
}

/// The trap report of a use-after-free on the first allocation of a fresh
/// machine.
fn injected_uaf_report(backend: &mut dyn Backend, config: MachineConfig) -> String {
    let mut m = Machine::with_config(config);
    let p = backend.alloc(&mut m, 16, None).unwrap();
    backend.store(&mut m, p, 8, 0xdead).unwrap();
    backend.free(&mut m, p, None).unwrap();
    let BackendError::Trap { report, .. } = backend.load(&mut m, p, 8).unwrap_err() else {
        panic!("use-after-free not trapped")
    };
    report.expect("trap must be attributed")
}

#[test]
fn tracing_is_cycle_neutral_and_attribution_closes() {
    let traced = MachineConfig { telemetry: TelemetryConfig::traced(), ..MachineConfig::default() };
    let workloads: [&dyn Workload; 2] = [&ftpd(), &keepalive()];
    for w in workloads {
        let (off_sum, off) = run_on(w, &mut ShadowPoolBackend::new(), MachineConfig::default());
        let (on_sum, on) = run_on(w, &mut ShadowPoolBackend::new(), traced);
        assert_eq!(on_sum, off_sum, "{}: tracing changed the checksum", w.name());
        assert_eq!(on.stats().traps, off.stats().traps, "{}: traps", w.name());
        assert_eq!(on.clock(), off.clock(), "{}: tracing charged cycles", w.name());

        let tracer = on.telemetry().tracer().expect("tracing on");
        let categories = tracer.categories();
        let names: Vec<_> = categories.iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names,
            ["app", "detector_metadata", "protection_syscalls", "tlb_l1_penalty", "pool_recycling"]
        );
        let total: u64 = categories.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, on.clock(), "{}: attribution must sum to the clock", w.name());
        assert!(!tracer.fold().is_empty(), "{}: no collapsed stacks", w.name());

        let snapshot = on.metrics_snapshot();
        let latency = snapshot.histograms.iter().find(|h| h.name == REQUEST_HISTOGRAM);
        let latency = latency.expect("traced runs record request latency");
        assert!(latency.count > 0 && latency.p50 > 0, "{}: {latency:?}", w.name());
        assert!(latency.p99 > 0 && latency.p999 > 0, "{}: {latency:?}", w.name());
    }

    let off = injected_uaf_report(&mut ShadowPoolBackend::new(), MachineConfig::default());
    assert_eq!(off, injected_uaf_report(&mut ShadowPoolBackend::new(), traced));
}
