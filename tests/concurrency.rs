//! Differential test pinning the sharded multi-core detector's detections.
//!
//! **Detections are interleaving-invariant.** The concurrent driver's
//! normalized detection records and checksum must not change across
//! scheduler seeds or core counts: rescheduling may move sessions in time
//! but can never add, lose, or misattribute a dangling use.
//!
//! One shard needs no comparison with a separate detector: there is one
//! pool backend, and `ShardedPoolBackend::new(1)` builds the same value as
//! `ShadowPoolBackend::new()`. The golden Tables 1–3 pin the one-shard
//! numbers.

use dangle_interp::backend::ShardedPoolBackend;
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
            let mut b = ShardedPoolBackend::new(cores);
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
