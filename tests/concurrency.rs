//! Differential tests pinning the detector's detections and its scaling
//! on a multi-core machine, where every core shares one detector.
//!
//! **Detections are interleaving-invariant.** The concurrent driver's
//! normalized detection records and checksum must not change across
//! scheduler seeds or core counts: rescheduling may move sessions in time
//! but can never add, lose, or misattribute a dangling use.
//!
//! **Cores scale.** 8 cores serve the keep-alive ghttpd mix at three
//! times the sessions per simulated second of one core, and one core never
//! sends a TLB-shootdown IPI.
//!
//! The backend is the one the golden Tables 1–3 pin on one core.

use dangle_interp::backend::ShadowPoolBackend;
use dangle_vmm::{Machine, MachineConfig};
use dangle_workloads::concurrent::ConcurrentMix;

fn machine(cores: usize) -> Machine {
    Machine::with_config(MachineConfig {
        cores,
        ..MachineConfig::default()
    })
}

#[test]
fn every_interleaving_reports_the_same_injected_uafs() {
    let mut reference = None;
    for cores in [1usize, 2, 4, 8] {
        for seed in [1u64, 42, 0xdead_beef] {
            let cfg = ConcurrentMix {
                sessions: 24,
                requests_per_session: 4,
                response_bytes: 512,
                injected_uafs: 5,
                seed,
                ..ConcurrentMix::default()
            };
            let mut m = machine(cores);
            let mut b = ShadowPoolBackend::new();
            let r = cfg.run(&mut m, &mut b).unwrap();
            assert_eq!(
                r.detections.len(),
                5,
                "cores {cores} seed {seed}: every injected UAF must be caught"
            );
            let key = (r.checksum, r.detections.clone());
            match &reference {
                None => reference = Some(key),
                Some(k) => {
                    assert_eq!(
                        *k, key,
                        "cores {cores} seed {seed}: observable results moved"
                    )
                }
            }
        }
    }
}

#[test]
fn eight_cores_serve_three_times_the_sessions_of_one() {
    let mix = ConcurrentMix {
        sessions: 160,
        requests_per_session: 6,
        response_bytes: 2_000,
        injected_uafs: 8,
        seed: 1,
        ghttpd_only: true,
    };
    let mut reference = None;
    let mut walls = Vec::new();
    for cores in [1usize, 2, 4, 8] {
        let mut m = machine(cores);
        let mut b = ShadowPoolBackend::new();
        let r = mix.run(&mut m, &mut b).unwrap();
        assert_eq!(r.detections.len(), 8, "{cores} cores: injected UAFs missed");
        let key = (r.checksum, r.detections);
        assert_eq!(
            reference.get_or_insert_with(|| key.clone()),
            &key,
            "{cores} cores: results moved"
        );
        if cores == 1 {
            assert_eq!(m.stats().shootdown_ipis, 0, "one core never shoots down");
        }
        for core in 0..cores {
            let c = m.core_report(core);
            // What is left after syscall and penalty cycles is plain work.
            assert!(c.syscall_cycles + c.penalty_cycles <= c.clock, "{cores} cores: {c:?}");
        }
        // The slowest core finishes last: its clock is the wall clock.
        walls.push(m.max_core_clock());
    }
    // Sessions per second go as 1 / wall clock; this mix reaches 6.28x.
    // The speed-up is the per-core clocks': the simulator charges nothing
    // for cores sharing the detector.
    assert!(walls[0] >= 3 * walls[3], "8 cores below 3x one core: {walls:?}");
}
