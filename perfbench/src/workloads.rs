//! The three benchmark workloads: their inputs, generated from the
//! workload seed alone, their fixed machine configurations, and one
//! trial of each (build a fresh session or group, then run it for a
//! fixed simulated time).
//!
//! Every knob the program would otherwise take from its defaults or the
//! environment is set here, the execution engine above all:
//! `MachineConfig::default()` reads `BPFSTOR_ENGINE`.

use std::time::Instant;

use bpfstor_core::{
    sst_get_program, Btree, CommitPolicy, DispatchMode, ExecClock, ExecEngine, FabricConfig,
    MachineConfig, PushdownSession, PushdownWorkload, ReapMode, RunReport, SessionError,
    SessionStats, TenantGroup, TenantLimits, TransportConfig, YcsbMix,
};
use bpfstor_device::DeviceProfile;
use bpfstor_sim::{Nanos, SimRng, MILLISECOND};
use bpfstor_vm::Program;
use bpfstor_workload::OpMix;

use crate::trace::{Layer, Shared, Timed};

/// Simulated cores (the paper's testbed).
pub const CORES: usize = 6;
/// B-tree depth of the Figure 3b point.
pub const BTREE_DEPTH: u32 = 10;
/// Simulated application threads of the Figure 3b point.
pub const BTREE_THREADS: usize = 12;
/// Rows in the `ycsb_user_fsync` table.
pub const YCSB_ROWS: usize = 20_000;
/// io_uring submitter threads of `ycsb_user_fsync`.
pub const YCSB_SUBMITTERS: usize = 2;
/// SQEs per `io_uring_enter` of `ycsb_user_fsync`.
pub const YCSB_BATCH: u32 = 16;
/// Journaled append size in bytes.
pub const WRITE_BYTES: usize = 512;
/// Fabric initiators, one tenant each.
pub const INITIATORS: usize = 4;
/// Closed-loop threads per initiator.
pub const FABRIC_THREADS: usize = 8;
/// Rows in each initiator's table.
pub const FABRIC_ROWS: usize = 4_000;
/// Value bytes per table row (the BPF parser needs a fixed stride).
pub const VALUE_BYTES: usize = 48;
/// Rearm-and-retry budget of every session.
pub const RETRY_BUDGET: u32 = 2;

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 3b's point: depth-10 B-tree, 12 threads, driver hook.
    BtreeHook,
    /// The paper's YCSB mix under user dispatch with fsynced appends.
    YcsbUserFsync,
    /// Four NVMe-oF initiators with pushdown and contention on.
    Fabric4Init,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::BtreeHook,
        Workload::YcsbUserFsync,
        Workload::Fabric4Init,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BtreeHook => "btree_hook",
            Workload::YcsbUserFsync => "ycsb_user_fsync",
            Workload::Fabric4Init => "fabric_4init",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated time one trial runs for.
    pub fn sim_ns(self) -> Nanos {
        match self {
            Workload::BtreeHook => 30 * MILLISECOND,
            Workload::YcsbUserFsync => 600 * MILLISECOND,
            Workload::Fabric4Init => 60 * MILLISECOND,
        }
    }

    /// Programs the workload's setup verifies and installs.
    pub fn installs(self) -> usize {
        match self {
            Workload::BtreeHook => 1,
            Workload::YcsbUserFsync => 0,
            Workload::Fabric4Init => INITIATORS,
        }
    }

    /// True for the workloads that write and fsync.
    pub fn writes(self) -> bool {
        self != Workload::BtreeHook
    }
}

/// A sorted table of fixed-size rows plus the seed of the YCSB request
/// stream that runs over it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// `(key, value)` rows, keys strictly increasing.
    pub entries: Vec<(u64, Vec<u8>)>,
    /// Seed of the YCSB operation and key stream.
    pub mix_seed: u64,
}

impl Table {
    fn generate(rows: usize, rng: &mut SimRng) -> Table {
        let mut key = rng.below(16);
        let entries = (0..rows)
            .map(|_| {
                key += 1 + rng.below(4);
                let mut value = vec![0u8; VALUE_BYTES];
                for chunk in value.chunks_mut(8) {
                    chunk.copy_from_slice(&rng.next().to_le_bytes()[..chunk.len()]);
                }
                (key, value)
            })
            .collect();
        Table {
            entries,
            mix_seed: rng.next(),
        }
    }

    fn mix(&self, entries: Vec<(u64, Vec<u8>)>) -> YcsbMix {
        YcsbMix::new(entries, OpMix::paper_tokudb(), self.mix_seed)
            .write_size(WRITE_BYTES)
            .fsync_every(1)
    }
}

/// Everything a workload's trials take from the workload seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// The workload these inputs drive.
    pub workload: Workload,
    /// The workload seed they were generated from.
    pub seed: u64,
    /// Seed of the simulated machine (device latencies, key choice of
    /// the B-tree threads).
    pub machine_seed: u64,
    /// One table per session or tenant; empty for the B-tree, whose
    /// shape is fixed by its depth.
    pub tables: Vec<Table>,
}

/// One trial's results.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Host time to build the session or group.
    pub setup_ns: u64,
    /// Host time of the run loop.
    pub run_ns: u64,
    /// The kernel's report of the run.
    pub report: RunReport,
    /// Session statistics of the run, summed over tenants.
    pub stats: SessionStats,
}

impl Inputs {
    /// Generates the workload's inputs from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut rng = SimRng::seed(seed ^ 0x9E4F_B3AC_71D2_0586);
        let machine_seed = rng.next();
        let tables = match workload {
            Workload::BtreeHook => Vec::new(),
            Workload::YcsbUserFsync => vec![Table::generate(YCSB_ROWS, &mut rng)],
            Workload::Fabric4Init => (0..INITIATORS)
                .map(|_| Table::generate(FABRIC_ROWS, &mut rng))
                .collect(),
        };
        Inputs {
            workload,
            seed,
            machine_seed,
            tables,
        }
    }

    /// The pushdown program the workload's sessions would install.
    pub fn program(&self) -> Program {
        match self.workload {
            Workload::BtreeHook => Btree::depth(BTREE_DEPTH).program(),
            Workload::YcsbUserFsync | Workload::Fabric4Init => sst_get_program(VALUE_BYTES as u32),
        }
    }

    /// The workload's machine, every knob pinned.
    fn machine_config(&self, clock: Option<ExecClock>) -> MachineConfig {
        let mut cfg = MachineConfig {
            cores: CORES,
            profile: DeviceProfile::optane_gen2_p5800x(),
            seed: self.machine_seed,
            irq_coalesce_us: 0,
            irq_coalesce_depth: 1,
            reap_mode: ReapMode::Interrupt,
            transport: TransportConfig::Local,
            qp_affinity: None,
            exec_engine: ExecEngine::Interp,
            exec_clock: clock,
            commit_policy: CommitPolicy::PerFsync,
            ..MachineConfig::default()
        };
        match self.workload {
            Workload::BtreeHook => {}
            Workload::YcsbUserFsync => {
                cfg.irq_coalesce_us = 8;
                cfg.irq_coalesce_depth = 8;
                cfg.commit_policy = CommitPolicy::Group {
                    max_wait_us: 30,
                    max_handles: 16,
                };
            }
            Workload::Fabric4Init => {
                cfg.transport = TransportConfig::Fabric(
                    FabricConfig::symmetric(20_000, 4_000)
                        .with_initiators(INITIATORS)
                        .with_initiator_window(4)
                        .with_admit_ns(500)
                        .with_congestion(8, 250)
                        .with_loss(0.0, 100_000, 0.0),
                );
            }
        }
        cfg
    }

    /// One trial of the workload: builds a fresh session or group and
    /// runs it for [`Workload::sim_ns`]. With a tracer the workload
    /// callbacks, the build, the run and every hook hop are timed.
    ///
    /// # Errors
    ///
    /// Session or tenant construction failures.
    pub fn trial(&self, tracer: Option<&Shared>) -> Result<Trial, SessionError> {
        match self.workload {
            Workload::BtreeHook => self.btree(DispatchMode::DriverHook, tracer),
            Workload::YcsbUserFsync => self.ycsb(tracer),
            Workload::Fabric4Init => self.fabric(tracer),
        }
    }

    /// The B-tree workload's same-seed user-dispatch arm, the baseline
    /// of Figure 3b's speedup.
    ///
    /// # Errors
    ///
    /// Session construction failures.
    pub fn btree_user_arm(&self) -> Result<Trial, SessionError> {
        self.btree(DispatchMode::User, None)
    }

    fn clock(tracer: Option<&Shared>) -> Option<ExecClock> {
        tracer.map(|t| {
            let epoch = t.borrow().epoch();
            ExecClock::new(move || epoch.elapsed().as_nanos() as u64)
        })
    }

    fn btree(&self, mode: DispatchMode, tracer: Option<&Shared>) -> Result<Trial, SessionError> {
        let cfg = self.machine_config(Self::clock(tracer));
        let lp = Loop::Closed(BTREE_THREADS, self.workload.sim_ns());
        match tracer {
            None => session_trial(|| Btree::depth(BTREE_DEPTH), mode, cfg, lp, None),
            Some(t) => session_trial(
                || Timed::new(Btree::depth(BTREE_DEPTH), t),
                mode,
                cfg,
                lp,
                tracer,
            ),
        }
    }

    fn ycsb(&self, tracer: Option<&Shared>) -> Result<Trial, SessionError> {
        let cfg = self.machine_config(Self::clock(tracer));
        let lp = Loop::Uring(YCSB_SUBMITTERS, YCSB_BATCH, self.workload.sim_ns());
        let table = &self.tables[0];
        let entries = table.entries.clone();
        let mode = DispatchMode::User;
        match tracer {
            None => session_trial(|| table.mix(entries), mode, cfg, lp, None),
            Some(t) => session_trial(|| Timed::new(table.mix(entries), t), mode, cfg, lp, tracer),
        }
    }

    fn fabric(&self, tracer: Option<&Shared>) -> Result<Trial, SessionError> {
        let cfg = self.machine_config(Self::clock(tracer));
        let tables: Vec<_> = self.tables.iter().map(|t| t.entries.clone()).collect();
        let start = Instant::now();
        let mut group = TenantGroup::builder()
            .dispatch(DispatchMode::DriverHook)
            .machine_config(cfg)
            .retry_budget(RETRY_BUDGET)
            .build();
        let mut tenants = Vec::with_capacity(tables.len());
        for (table, entries) in self.tables.iter().zip(tables) {
            let limits = TenantLimits::default();
            tenants.push(match tracer {
                None => group.add_tenant(table.mix(entries), limits)?,
                Some(t) => group.add_tenant(Timed::new(table.mix(entries), t), limits)?,
            });
        }
        let built = Instant::now();
        let report = group.run_closed_loop(&[FABRIC_THREADS; INITIATORS], self.workload.sim_ns());
        let done = Instant::now();
        if let Some(t) = tracer {
            let mut t = t.borrow_mut();
            t.record("kernel.build", Layer::Build, 0, start, built);
            t.record("kernel.run", Layer::Run, 0, built, done);
        }
        let mut stats = SessionStats::default();
        for id in tenants {
            add_stats(&mut stats, &group.stats(id));
        }
        Ok(Trial {
            setup_ns: (built - start).as_nanos() as u64,
            run_ns: (done - built).as_nanos() as u64,
            report,
            stats,
        })
    }
}

/// How a session's run issues requests.
#[derive(Debug, Clone, Copy)]
enum Loop {
    /// `threads` closed-loop threads for `sim_ns`.
    Closed(usize, Nanos),
    /// `threads` io_uring submitters keeping `batch` SQEs in flight,
    /// for `sim_ns`.
    Uring(usize, u32, Nanos),
}

/// Builds one session from `make`'s workload and runs it once.
fn session_trial<W: PushdownWorkload>(
    make: impl FnOnce() -> W,
    mode: DispatchMode,
    cfg: MachineConfig,
    lp: Loop,
    tracer: Option<&Shared>,
) -> Result<Trial, SessionError> {
    let start = Instant::now();
    let mut session = PushdownSession::builder(make())
        .dispatch(mode)
        .machine_config(cfg)
        .retry_budget(RETRY_BUDGET)
        .build()?;
    let built = Instant::now();
    let (report, stats) = match lp {
        Loop::Closed(threads, sim_ns) => session.run_closed_loop(threads, sim_ns),
        Loop::Uring(threads, batch, sim_ns) => session.run_uring(threads, batch, sim_ns),
    };
    let done = Instant::now();
    if let Some(t) = tracer {
        let mut t = t.borrow_mut();
        t.record("kernel.build", Layer::Build, 0, start, built);
        t.record("kernel.run", Layer::Run, 0, built, done);
    }
    Ok(Trial {
        setup_ns: (built - start).as_nanos() as u64,
        run_ns: (done - built).as_nanos() as u64,
        report,
        stats,
    })
}

/// Adds one tenant's session statistics into a total.
fn add_stats(total: &mut SessionStats, s: &SessionStats) {
    total.completed += s.completed;
    total.writes += s.writes;
    total.bytes_written += s.bytes_written;
    total.hits += s.hits;
    total.misses += s.misses;
    total.mismatches += s.mismatches;
    total.errors += s.errors;
    total.total_ios += s.total_ios;
    total.rearm_retries += s.rearm_retries;
    total.retries_exhausted += s.retries_exhausted;
}
