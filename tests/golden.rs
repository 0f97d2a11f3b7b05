//! Golden digests of three fixed-seed runs, one per benchmark shape.
//!
//! Each test builds a small run through the public builders, hashes its
//! whole `RunReport` with a hand-written FNV-1a, and compares the digest
//! with a constant. The constants pin the simulated results: a change to
//! the program that moves any count, instant, histogram bucket or
//! per-layer charge changes a digest. A change that must not move the
//! simulation (a host-side speedup, a refactor) leaves all three intact.
//!
//! The hook engine is pinned to the interpreter, and the engine-dependent
//! `ExecSplit` fields are folded into their engine-independent total
//! before hashing, so the digests hold whatever `BPFSTOR_ENGINE` says.
//!
//! When a change is *meant* to move the simulation, run
//! `cargo test --test golden -- --nocapture`, check the printed digests
//! against the reason for the change, and update the constants.

use bpfstor::core::{
    Btree, CommitPolicy, DispatchMode, ExecEngine, FabricConfig, MachineConfig, PushdownSession,
    ReapMode, RunReport, TenantBreakdown, TenantGroup, TenantLimits, TransportConfig, YcsbMix,
};
use bpfstor::device::{DeviceProfile, DeviceStats, FabricStats, InitiatorStats};
use bpfstor::kernel::{CommitLog, ExecSplit, LayerTrace, ReapKind, ReaperStats};
use bpfstor::sim::{Histogram, SimRng, MILLISECOND};
use bpfstor::workload::OpMix;

const GOLDEN_BTREE_HOOK: u64 = 0x69c0_a885_134b_f779;
const GOLDEN_YCSB_USER_GROUP: u64 = 0x460a_af5a_1093_b096;
const GOLDEN_FABRIC_4INIT: u64 = 0xf2b2_a22e_f656_49fc;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn hist(&mut self, h: &Histogram) {
        self.u64(h.count());
        self.u64(h.min());
        self.u64(h.max());
        self.f64(h.mean());
        for &c in h.buckets() {
            self.u64(c);
        }
    }

    fn trace(&mut self, t: &LayerTrace) {
        for (_, ns) in t.rows() {
            self.u64(ns);
        }
        for v in [t.ios, t.write_ios, t.doorbells, t.irqs, t.polls] {
            self.u64(v);
        }
    }

    fn device(&mut self, d: &DeviceStats) {
        for v in [
            d.reads,
            d.writes,
            d.flushes,
            d.busy_ns,
            d.rejected,
            d.doorbells,
            d.write_doorbells,
            d.irqs,
            d.cqes,
            d.write_cqes,
            d.empty_polls,
            d.cq_backlog_hwm,
            d.reap_lag_ns,
        ] {
            self.u64(v);
        }
    }

    fn fabric(&mut self, f: &FabricStats) {
        for v in [
            f.capsules_sent,
            f.responses,
            f.target_local,
            f.wire_ns,
            f.capsule_stalls,
            f.max_inflight as u64,
            f.bytes_tx,
            f.bytes_rx,
            f.lost,
            f.retransmits,
            f.dups_suppressed,
            f.admit_wait_ns,
        ] {
            self.u64(v);
        }
    }

    fn initiator(&mut self, i: &InitiatorStats) {
        for v in [
            i.capsules_sent,
            i.responses,
            i.retransmits,
            i.bytes_tx,
            i.capsule_stalls,
        ] {
            self.u64(v);
        }
    }

    fn reaper(&mut self, r: &ReaperStats) {
        for v in [
            r.polls,
            r.empty_polls,
            r.poll_cpu_ns,
            r.irqs,
            r.irq_cpu_ns,
            r.mode_transitions,
            r.depth_widens,
            r.depth_narrows,
            u64::from(r.depth_hwm),
        ] {
            self.u64(v);
        }
        for t in &r.transitions {
            self.u64(t.at);
            self.u64(t.qp as u64);
            self.u64(matches!(t.to, ReapKind::Polled) as u64);
        }
    }

    fn commit(&mut self, c: &CommitLog) {
        for v in [
            c.commits,
            c.handles,
            c.records,
            c.barrier_ns,
            c.max_handles,
            c.fsyncs,
            c.barrier_joins,
            c.writeback_flushes,
        ] {
            self.u64(v);
        }
    }

    /// The engine-independent part of an execution split: total hops.
    /// Which engine ran them, and the measured host time, are not
    /// simulated results.
    fn exec(&mut self, e: &ExecSplit) {
        self.u64(e.interp_hops + e.compiled_hops);
    }

    fn tenant(&mut self, t: &TenantBreakdown) {
        for v in [
            u64::from(t.tenant),
            t.weight,
            t.chains,
            t.ios,
            t.errors,
            t.resubmissions,
            t.sq_parks,
            t.cqes,
            t.dev_reads,
            t.dev_writes,
            t.dev_flushes,
            t.fsyncs,
            t.barrier_joins,
            t.device_ns,
            t.bpf_ns,
        ] {
            self.u64(v);
        }
        self.exec(&t.exec);
        self.hist(&t.latency);
        self.hist(&t.fsync_latency);
    }
}

/// Digest of every simulated field of a report.
fn digest(r: &RunReport) -> u64 {
    let mut h = Fnv::new();
    for v in [r.sim_time, r.chains, r.ios, r.errors] {
        h.u64(v);
    }
    for v in [r.iops, r.chains_per_sec, r.cpu_util, r.device_util] {
        h.f64(v);
    }
    h.hist(&r.latency);
    h.hist(&r.read_latency);
    h.hist(&r.write_latency);
    h.hist(&r.fsync_latency);
    h.trace(&r.trace);
    h.device(&r.device);
    h.fabric(&r.fabric);
    h.u64(r.fabric_initiators.len() as u64);
    for i in &r.fabric_initiators {
        h.initiator(i);
    }
    let x = &r.extcache;
    for v in [x.hits, x.misses, x.invalidations, x.installs] {
        h.u64(v);
    }
    h.u64(r.resubmissions);
    h.u64(r.rearm_retries);
    h.reaper(&r.reaper);
    h.u64(r.tenants.len() as u64);
    for t in &r.tenants {
        h.tenant(t);
    }
    h.exec(&r.exec);
    h.commit(&r.commit);
    h.0
}

/// `rows` sorted rows with 48-byte values, deterministic in `seed`.
fn table(rows: usize, seed: u64) -> Vec<(u64, Vec<u8>)> {
    let mut rng = SimRng::seed(seed);
    let mut key = rng.below(16);
    (0..rows)
        .map(|_| {
            key += 1 + rng.below(4);
            let mut value = vec![0u8; 48];
            for chunk in value.chunks_mut(8) {
                chunk.copy_from_slice(&rng.next().to_le_bytes());
            }
            (key, value)
        })
        .collect()
}

/// The paper testbed's machine with every knob the digests depend on
/// set explicitly.
fn machine(seed: u64) -> MachineConfig {
    MachineConfig {
        cores: 6,
        profile: DeviceProfile::optane_gen2_p5800x(),
        seed,
        irq_coalesce_us: 0,
        irq_coalesce_depth: 1,
        reap_mode: ReapMode::Interrupt,
        transport: TransportConfig::Local,
        qp_affinity: None,
        exec_engine: ExecEngine::Interp,
        exec_clock: None,
        commit_policy: CommitPolicy::PerFsync,
        ..MachineConfig::default()
    }
}

fn mix(rows: usize, seed: u64) -> YcsbMix {
    YcsbMix::new(table(rows, seed), OpMix::paper_tokudb(), seed ^ 0x5eed)
        .write_size(512)
        .fsync_every(1)
}

/// A local driver-hook B-tree: depth 10, 12 closed-loop threads on six
/// cores, one interrupt per completion.
fn btree_hook_report() -> RunReport {
    let mut session = PushdownSession::builder(Btree::depth(10))
        .dispatch(DispatchMode::DriverHook)
        .machine_config(machine(11))
        .build()
        .expect("b-tree session");
    session.run_closed_loop(12, 2 * MILLISECOND).0
}

/// The YCSB mix under user dispatch through io_uring, fsync on every
/// write, group commit and interrupt coalescing.
fn ycsb_user_group_report() -> RunReport {
    let cfg = MachineConfig {
        irq_coalesce_us: 8,
        irq_coalesce_depth: 8,
        commit_policy: CommitPolicy::Group {
            max_wait_us: 30,
            max_handles: 16,
        },
        ..machine(12)
    };
    let mut session = PushdownSession::builder(mix(2_000, 21))
        .dispatch(DispatchMode::User)
        .machine_config(cfg)
        .build()
        .expect("ycsb session");
    session.run_uring(2, 16, 4 * MILLISECOND).0
}

/// Four NVMe-oF initiators, one tenant each, with credit windows,
/// admission and congestion on.
fn fabric_4init_report() -> RunReport {
    let cfg = MachineConfig {
        transport: TransportConfig::Fabric(
            FabricConfig::symmetric(20_000, 4_000)
                .with_initiators(4)
                .with_initiator_window(4)
                .with_admit_ns(500)
                .with_congestion(8, 250),
        ),
        ..machine(13)
    };
    let mut group = TenantGroup::builder()
        .dispatch(DispatchMode::DriverHook)
        .machine_config(cfg)
        .build();
    for t in 0..4 {
        group
            .add_tenant(mix(500, 31 + t), TenantLimits::default())
            .expect("tenant");
    }
    group.run_closed_loop(&[4; 4], 4 * MILLISECOND)
}

fn check(name: &str, report: &RunReport, golden: u64) {
    let got = digest(report);
    println!(
        "{name}: {got:#018x} ({} chains, {} I/Os)",
        report.chains, report.ios
    );
    assert!(report.chains > 0, "{name}: the run completed no chain");
    assert_eq!(got, golden, "{name}: simulated results moved ({got:#018x})");
}

#[test]
fn btree_hook_digest() {
    check("btree_hook", &btree_hook_report(), GOLDEN_BTREE_HOOK);
}

#[test]
fn ycsb_user_group_digest() {
    let r = ycsb_user_group_report();
    assert!(r.commit.commits > 0, "the group-commit arm committed");
    check("ycsb_user_group", &r, GOLDEN_YCSB_USER_GROUP);
}

#[test]
fn fabric_4init_digest() {
    let r = fabric_4init_report();
    assert_eq!(r.fabric_initiators.len(), 4);
    assert!(r.fabric.capsules_sent > 0, "the fabric carried capsules");
    check("fabric_4init", &r, GOLDEN_FABRIC_4INIT);
}

/// The digest is a function of the simulation alone: a second identical
/// run hashes the same.
#[test]
fn digest_is_deterministic() {
    assert_eq!(digest(&btree_hook_report()), digest(&btree_hook_report()));
}
