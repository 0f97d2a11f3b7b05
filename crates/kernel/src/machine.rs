//! The simulated machine: cores + kernel storage stack + NVMe device.
//!
//! `Machine` is a discrete-event simulation of the paper's testbed (a
//! 6-core i5-8500 with an Optane P5800X). Application threads drive I/O
//! *chains* through one of the three dispatch paths of Figure 2; every
//! software stage charges CPU time on the core model (so saturation
//! behaves like the paper's 6-thread knee), and the device model decides
//! service times. Real bytes flow end to end: completions carry the
//! stored block contents, BPF programs execute on them in the verifier-
//! backed VM, and harnesses check that offloaded lookups return exactly
//! the values written.
//!
//! What runs where:
//!
//! - **submission** (app → syscall → ext4 → bio → driver) is one CPU
//!   burst; costs follow [`crate::costs::LayerCosts`] (Table 1). The
//!   driver enqueues commands on the device's per-queue-pair submission
//!   ring and rings the doorbell once per batch ([`Ev::Doorbell`] —
//!   SQEs submitted at the same instant share the MMIO write);
//! - **device** service occupies a device channel, no CPU; a full
//!   submission queue is *backpressure*: the request parks and retries
//!   after the next completion interrupt frees queue slots;
//! - **completion** starts in the driver IRQ handler
//!   ([`Ev::IrqFire`]), whose firing is governed by the interrupt-
//!   coalescing knobs in [`MachineConfig`]: the interrupt is delayed
//!   until `irq_coalesce_depth` CQEs are pending or `irq_coalesce_us`
//!   has elapsed since the first, and one handler invocation reaps the
//!   whole completion ring. For tagged I/O in
//!   [`DispatchMode::DriverHook`] the BPF program runs right there; a
//!   `resubmit` recycles the descriptor (no allocation, no bio/fs) after
//!   translating the file offset through the extent soft-state cache;
//! - in [`DispatchMode::SyscallHook`] the completion climbs back up
//!   through bio and ext4 first, the program runs at the syscall
//!   dispatch layer, and the reissue pays the full fs+bio+driver
//!   submission path (but no boundary crossing);
//! - in [`DispatchMode::User`] everything unwinds to the application,
//!   which parses the block and issues a fresh `pread`.
//!
//! The ring→device hop itself is a [`Transport`]
//! ([`MachineConfig::transport`]): the default `LocalTransport` is the
//! PCIe pass-through described above, while a `FabricTransport` puts an
//! NVMe-oF-style network (capsule encode costs, per-direction latency
//! with jitter, an in-flight-capsule credit window) between the rings
//! and the device. Over a fabric, [`DispatchMode::Remote`] pays a round
//! trip per dependent hop, while [`DispatchMode::DriverHook`] chains
//! become *target-resident*: hops recycle on the target and only the
//! terminal response capsule crosses back ([`Ev::CapsuleRx`]).

use bpfstor_device::device::{NvmeCommand, NvmeOp};
use bpfstor_device::{
    DeviceProfile, FabricStats, NvmeCompletion, NvmeDevice, SubmitClass, Transport,
    TransportConfig, SECTOR_SIZE,
};
use bpfstor_fs::{ExtFs, ExtentEvent, PageCache};
use bpfstor_sim::{Cores, EventQueue, Histogram, IdMap, IdSet, Nanos, SimRng};
use bpfstor_vm::{
    action, compile, verify_bounded, CompiledProg, DecodedProg, ExecEngine, ExecEnv, MapSet,
    Program, ResourceBudget, RunCtx, DEFAULT_INSN_BUDGET, EMIT_MAX, SCRATCH_SIZE,
};

use crate::chain::{
    ChainDriver, ChainOutcome, ChainSpec, ChainStatus, ChainToken, ChainVerdict, DispatchMode, Fd,
    ProgHandle, RunReport, UserNext, WriteStart,
};
use crate::commit::{CommitLog, CommitPolicy, CommitStats};
use crate::costs::LayerCosts;
use crate::extcache::ExtentCache;
use crate::reaper::{FairSched, ReapKind, ReapMode, Reaper, ReaperStats};
use crate::tenant::{TenantBreakdown, TenantId, TenantLimits, DEFAULT_TENANT};
use crate::trace::{ExecSplit, LayerTrace};

/// A monotonic host-CPU clock the harness injects to *measure* real
/// per-hop execution time ([`MachineConfig::exec_clock`]). The machine
/// samples it around every hook invocation and accumulates the deltas
/// into [`RunReport::exec`]; it never feeds the simulated timeline, so
/// a machine without a clock stays fully deterministic.
#[derive(Clone)]
pub struct ExecClock(pub std::sync::Arc<dyn Fn() -> u64 + Send + Sync>);

impl ExecClock {
    /// Wraps a monotonic nanosecond counter.
    pub fn new(f: impl Fn() -> u64 + Send + Sync + 'static) -> Self {
        ExecClock(std::sync::Arc::new(f))
    }

    fn now(&self) -> u64 {
        (self.0)()
    }
}

impl std::fmt::Debug for ExecClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ExecClock(..)")
    }
}

/// Machine construction parameters.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// CPU cores (the paper's testbed has 6).
    pub cores: usize,
    /// Device model.
    pub profile: DeviceProfile,
    /// Layer cost model.
    pub costs: LayerCosts,
    /// RNG seed (device latencies, workload forks).
    pub seed: u64,
    /// File-system size in 512 B blocks.
    pub fs_blocks: u64,
    /// Page-cache capacity in blocks (buffered I/O only).
    pub pagecache_blocks: usize,
    /// NVMe-layer chained-resubmission bound (§4 fairness counter).
    pub resubmit_bound: u32,
    /// Interrupt-coalescing time budget in microseconds: a pending CQE
    /// fires an interrupt at most this long after it is posted. `0`
    /// fires immediately (no time-based coalescing).
    pub irq_coalesce_us: u64,
    /// Interrupt-coalescing aggregation threshold: the interrupt fires
    /// as soon as this many CQEs are pending, even inside the time
    /// budget. `1` (or `0`) disables depth-based coalescing.
    pub irq_coalesce_depth: u32,
    /// Completion-delivery policy: static interrupts (the default, using
    /// the two coalescing knobs above), adaptive interrupts, dedicated
    /// pollers, or the load-adaptive hybrid scheduler.
    pub reap_mode: ReapMode,
    /// The ring→device hop: PCIe pass-through (the default) or an
    /// NVMe-oF initiator/target pair over a modelled network.
    pub transport: TransportConfig,
    /// Explicit queue-pair→core interrupt affinity (MSI-X vector
    /// steering): entry `q` names the core whose IRQ handler serves
    /// queue pair `q`. `None` gives the identity mapping (`qp % cores`),
    /// which matches the per-thread queue-pair layout.
    pub qp_affinity: Option<Vec<usize>>,
    /// Which engine executes hook programs: the interpreter or the
    /// template-JIT compiled tier. Compiled execution is observably
    /// identical (same traps, same retired-instruction counts — so
    /// [`LayerCosts::bpf_exec`] simulated charging is bit-for-bit
    /// unchanged) but cheaper in real host CPU; programs the compiler
    /// declines transparently fall back to the interpreter. The default
    /// honours the `BPFSTOR_ENGINE` environment variable
    /// ([`ExecEngine::from_env`]), interpreter when unset.
    pub exec_engine: ExecEngine,
    /// Optional monotonic host clock sampled around each hook
    /// invocation to fill [`RunReport::exec`] with *measured*
    /// per-engine nanoseconds. `None` (the default) skips sampling:
    /// hop and fallback counters still move, the `_ns` fields stay 0.
    pub exec_clock: Option<ExecClock>,
    /// When the journal's running transaction seals and pays its flush
    /// barrier: per-fsync (the default — one barrier per fsyncing
    /// chain, bit-for-bit the historical write path), jbd2-style group
    /// commit, or group commit plus background writeback.
    pub commit_policy: CommitPolicy,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cores: 6,
            profile: DeviceProfile::optane_gen2_p5800x(),
            costs: LayerCosts::default(),
            seed: 0xB9F5_702E,
            fs_blocks: 1 << 22, // 2 GiB of 512 B blocks
            pagecache_blocks: 4096,
            resubmit_bound: 256,
            irq_coalesce_us: 0,
            irq_coalesce_depth: 1,
            reap_mode: ReapMode::Interrupt,
            transport: TransportConfig::Local,
            qp_affinity: None,
            exec_engine: ExecEngine::from_env(),
            exec_clock: None,
            commit_policy: CommitPolicy::PerFsync,
        }
    }
}

/// Errors from control-plane operations (open/install/attach/re-arm).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// Unknown file name.
    NoSuchFile,
    /// Unknown fd.
    BadFd(Fd),
    /// Stale or unknown program handle.
    BadHandle(ProgHandle),
    /// Program rejected by the verifier.
    Verifier(String),
    /// No program attached to the fd.
    NotInstalled,
    /// File-system failure.
    Fs(String),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::NoSuchFile => write!(f, "no such file"),
            KernelError::BadFd(fd) => write!(f, "bad fd {fd}"),
            KernelError::BadHandle(h) => {
                write!(f, "bad program handle (fd {}, slot {})", h.fd, h.slot)
            }
            KernelError::Verifier(e) => write!(f, "verifier rejected program: {e}"),
            KernelError::NotInstalled => write!(f, "no program attached to fd"),
            KernelError::Fs(e) => write!(f, "fs: {e}"),
        }
    }
}

impl std::error::Error for KernelError {}

/// A file-system mutation scheduled to run mid-simulation (drives the
/// invalidation experiments).
#[derive(Debug, Clone)]
pub enum Mutation {
    /// Move every block of the file (defragmenter-style): always unmaps.
    Relocate {
        /// File name.
        name: String,
    },
    /// Truncate the file to a byte size.
    Truncate {
        /// File name.
        name: String,
        /// New size.
        size: u64,
    },
}

#[derive(Debug, Clone, Copy)]
struct FdState {
    ino: u64,
    o_direct: bool,
    tenant: TenantId,
}

struct Install {
    code: HookCode,
    maps: MapSet,
    flags: u32,
}

/// The form an installed program runs in on every hop, built once at
/// install.
enum HookCode {
    /// Decoded for the interpreter: under [`ExecEngine::Interp`], or
    /// when the compiler declined the program, in which case the hops
    /// count as fallbacks.
    Decoded(DecodedProg),
    /// The template-JIT lowering, under [`ExecEngine::Compiled`].
    Compiled(CompiledProg),
}

/// Per-descriptor program table: several loaded programs, at most one
/// attached (running at the hook).
#[derive(Default)]
struct ProgTable {
    progs: IdMap<u32, Install>,
    attached: Option<u32>,
    next_slot: u32,
}

#[derive(Debug)]
enum Ev {
    AppStart {
        thread: usize,
    },
    DevSubmit {
        op: usize,
    },
    /// Page-cache hit: the request completes without touching the
    /// device (or its queues).
    CacheHit {
        op: usize,
    },
    /// The driver rings a queue pair's doorbell: the device batch-
    /// services everything queued on that SQ.
    Doorbell {
        qp: usize,
    },
    /// The completion interrupt for a queue pair fires: post ready
    /// CQEs and reap the completion ring.
    IrqFire {
        qp: usize,
    },
    /// The dedicated poller visits a queue pair's completion ring
    /// (polled/hybrid reaping): reap whatever has posted, productive
    /// or not, and re-arm while work is in flight.
    Poll {
        qp: usize,
    },
    Delivered {
        op: usize,
    },
    /// A terminal pushdown response capsule arrives at the host NIC:
    /// decode it and unwind the host-side completion path.
    CapsuleRx {
        op: usize,
    },
    Mutate {
        idx: usize,
    },
    /// The group-commit window timer expired: seal the running journal
    /// transaction (or defer to the in-flight barrier's CQE). The epoch
    /// invalidates timers superseded by an earlier seal or run reset —
    /// stale ones are skipped at pop time, before they can advance the
    /// clock.
    CommitSeal {
        epoch: u64,
    },
    /// The background writeback timer fired: flush un-fsynced journal
    /// records ([`CommitPolicy::Writeback`]). Epoch-guarded like
    /// [`Ev::CommitSeal`].
    WritebackTick {
        epoch: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    Sync,
    Uring,
}

/// What the op is doing on the device right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    /// A read chain (may hop).
    Read,
    /// A journaled write's data phase: payload `Write` commands are on
    /// the rings (or parked on backpressure).
    WriteData {
        /// Chase the data CQEs with a flush barrier + journal commit.
        fsync: bool,
    },
    /// The fsync flush barrier is on the rings; its CQE commits the
    /// journal transaction.
    WriteFlush,
}

struct Op {
    thread: usize,
    fd: Fd,
    /// The tenant that owns the chain's descriptor — the identity every
    /// per-tenant budget, bound, and counter keys on.
    tenant: TenantId,
    ino: u64,
    kind: OpKind,
    mode: DispatchMode,
    origin: Origin,
    token: ChainToken,
    /// First read of the chain, kept for [`ChainVerdict::RearmRetry`]
    /// restarts.
    first_off: u64,
    first_len: u32,
    attempts: u32,
    file_off: u64,
    len: u32,
    hop: u32,
    /// Instructions retired by the chain's hops so far: each hop runs
    /// under the owning tenant's instruction budget *minus* this, so a
    /// chain's cumulative execution traps at the tenant's bound (the
    /// verification-time budget covers the same whole-chain worst case).
    insns_used: u64,
    ios: u32,
    started: Nanos,
    data: Vec<u8>,
    device_ns: Nanos,
    scratch: Vec<u8>,
    emitted: Vec<u8>,
    status: Option<ChainStatus>,
    o_direct: bool,
    /// Per-segment read buffers of the in-flight device request; CQEs
    /// may land out of order across channels, so each fills its slot.
    seg_data: Vec<Option<Vec<u8>>>,
    /// Segments of the current device request still in flight.
    segs_pending: u32,
    /// When the current device request was submitted (queueing delay is
    /// charged to the device bucket).
    submitted_at: Nanos,
    /// A recycled driver-hook hop carries `(physical block, snapshot
    /// unmap generation)` from the extent-cache translation to the
    /// submission — the NVMe layer never consults live fs metadata.
    phys_target: Option<(u64, u64)>,
    /// Whether the current device request is a recycled hop (bypasses
    /// the page cache entirely).
    recycled: bool,
    /// A write chain's payload before submission planning.
    wr_data: Vec<u8>,
    /// Planned write segments `(physical block, payload)`, built once at
    /// first submission and preserved across backpressure parking.
    wr_segments: Option<Vec<(u64, Vec<u8>)>>,
    /// Logical block range of the write (page-cache coherence).
    wr_lb: u64,
    wr_nblocks: u64,
    /// Pushdown over fabric: the chain's hook runs on the NVMe-oF
    /// target, hops recycle target-side, and the terminal outcome
    /// returns as one response capsule.
    remote_pushdown: bool,
    /// This target-resident fsync released on a shared commit barrier
    /// and rides the barrier's single acknowledgement capsule instead
    /// of crossing on its own (its [`Ev::CapsuleRx`] skips the decode —
    /// the leader pays it once).
    capsule_joined: bool,
    /// Journal length right after this write's records were logged: the
    /// seal horizon its fsync needs durable. An fsync may park on an
    /// in-flight barrier only when the sealed transaction's end covers
    /// this point.
    journal_end: usize,
    /// Instant the chain's fsync requested its barrier (data CQEs
    /// already back) — the start of the fsync-latency measurement.
    fsync_from: Nanos,
    /// A synthetic kernel-side op carrying a background writeback
    /// flush: freed silently at the barrier's CQE, never delivered to
    /// the application and never counted as a chain.
    internal: bool,
}

/// A chain queued for re-issue after a rearm-retry verdict.
#[derive(Debug, Clone, Copy)]
struct RetrySpec {
    fd: Fd,
    file_off: u64,
    len: u32,
    arg: u64,
    attempts: u32,
}

enum PendingSub {
    NewChain,
    Continue(usize),
    Retry(RetrySpec),
}

struct UringState {
    batch: u32,
    pending: u32,
    queue: Vec<PendingSub>,
    reaped_since_enter: u32,
}

struct ThreadState {
    stopped: bool,
    uring: Option<UringState>,
}

struct HookEnv<'a> {
    resubmit_to: Option<u64>,
    resubmit_calls: u32,
    emitted: &'a mut Vec<u8>,
}

impl ExecEnv for HookEnv<'_> {
    fn resubmit(&mut self, file_off: u64) -> i64 {
        self.resubmit_calls += 1;
        if self.resubmit_calls > 1 {
            return -16; // EBUSY: one recycled descriptor per completion.
        }
        self.resubmit_to = Some(file_off);
        0
    }

    fn emit(&mut self, data: &[u8]) -> i64 {
        if self.emitted.len() + data.len() > EMIT_MAX {
            return -28; // ENOSPC
        }
        self.emitted.extend_from_slice(data);
        data.len() as i64
    }
}

/// The simulated machine.
pub struct Machine {
    /// Current simulated time.
    pub now: Nanos,
    events: EventQueue<Ev>,
    cores: Cores,
    /// The ring→device hop (local PCIe or NVMe-oF fabric).
    transport: Box<dyn Transport>,
    /// Cached `transport.is_fabric()` (hot paths branch on it).
    fabric: bool,
    /// Queue-pair→core interrupt affinity (MSI-X steering).
    qp_core: Vec<usize>,
    fs: ExtFs,
    pagecache: PageCache,
    extcache: ExtentCache,
    costs: LayerCosts,
    rng: SimRng,
    fds: IdMap<Fd, FdState>,
    next_fd: Fd,
    installs: IdMap<Fd, ProgTable>,
    next_chain_id: u64,
    rearm_retries: u64,
    ops: Vec<Option<Op>>,
    free_ops: Vec<usize>,
    threads: Vec<ThreadState>,
    /// Per-queue-pair: is a doorbell event already scheduled? Submits
    /// that land at the same instant share one MMIO write.
    doorbell_armed: Vec<bool>,
    /// The completion-reaping state machine: per-queue-pair pending
    /// instants, armed timers, adaptive coalescing, hybrid scheduling.
    reaper: Reaper,
    /// Parked ops keyed `[queue pair][tenant]`: queue-full backpressure
    /// and tenant SQ-budget parks both land here, re-issued after the
    /// next reap frees slots. Tenants' queues drain round-robin so no
    /// tenant's backlog can starve another's re-issue.
    stalled: Vec<Vec<Vec<usize>>>,
    /// Per-queue-pair rotation cursor for the round-robin un-park.
    unpark_cursor: Vec<usize>,
    /// Registered tenants; index = [`TenantId`]. Tenant 0 always exists.
    tenants: Vec<TenantLimits>,
    /// Per-run, per-tenant counters (index = tenant id).
    tstats: Vec<TenantBreakdown>,
    /// In-flight commands keyed `[queue pair][tenant]` — the SQ
    /// slot-budget meter.
    sq_inflight: Vec<Vec<usize>>,
    /// §4 resubmissions keyed `[tenant][thread]` — the per-thread view
    /// ([`Machine::resubmission_accounting`]) is kept separately so the
    /// single-tenant surface is unchanged.
    resub_matrix: Vec<Vec<u64>>,
    /// Deficit-round-robin state for weighted fair reaping.
    fair: FairSched,
    /// Whether reap batches are reordered by the fair scheduler
    /// (default off: FIFO, bit-for-bit the single-tenant behaviour).
    fair_reap: bool,
    /// Peak in-flight depth seen at doorbell time since the last
    /// productive reap: the hybrid scheduler's load signal. Sampling
    /// the instantaneous residue at reap time instead would read a
    /// promptly-polled queue as idle and a coalesced one as busy.
    load_peak: Vec<usize>,
    /// In-flight command id → (op slot, segment index).
    cid_map: IdMap<u64, (usize, usize)>,
    /// Completion instants of the current doorbell, reused across
    /// doorbells.
    doorbell_times: Vec<Nanos>,
    /// CQEs of the current reap, reused across reaps.
    reaped: Vec<NvmeCompletion>,
    /// Physical segments `(block, sectors)` of the read being planned,
    /// reused across submissions.
    read_segs: Vec<(u64, u32)>,
    /// Monotone per-run counter salting the per-chain RNG forks of the
    /// uring path, so every SQE in a batch draws an independent stream.
    rng_streams: u64,
    mutations: Vec<Mutation>,
    aborting_inos: IdSet<u64>,
    resubmit_bound: u32,
    /// Engine executing hook programs ([`MachineConfig::exec_engine`]).
    exec_engine: ExecEngine,
    /// Optional measured-time clock ([`MachineConfig::exec_clock`]).
    exec_clock: Option<ExecClock>,
    /// Per-run measured execution split (all tenants).
    exec: ExecSplit,
    trace: LayerTrace,
    latency: Histogram,
    lat_read: Histogram,
    lat_write: Histogram,
    chains: u64,
    ios: u64,
    errors: u64,
    /// §4 fairness accounting: chained resubmissions per thread, as the
    /// NVMe layer would periodically report them to the BIO layer.
    resubmissions: Vec<u64>,
    until: Nanos,
    /// When the journal's running transaction seals and flushes
    /// ([`MachineConfig::commit_policy`]).
    commit_policy: CommitPolicy,
    /// The op whose flush command carries the in-flight shared barrier,
    /// if a sealed transaction is awaiting its CQE.
    barrier_leader: Option<usize>,
    /// Fsyncs parked on the in-flight barrier, released at its CQE.
    barrier_joined: Vec<usize>,
    /// Seal point of the in-flight barrier's transaction (record index;
    /// fsyncs whose [`Op::journal_end`] falls under it may join).
    barrier_seal_end: usize,
    /// Records the in-flight barrier's transaction carries.
    barrier_records: usize,
    /// Writer handles joined to the in-flight barrier's transaction.
    barrier_handles: usize,
    /// Instant the in-flight barrier's transaction sealed.
    barrier_sealed_at: Nanos,
    /// Device time of the barrier's flush command, captured at its CQE
    /// and re-split proportionally across the released fsyncs' tenants.
    barrier_dev_ns: Nanos,
    /// Whether the in-flight barrier was sealed by the background
    /// writeback timer rather than an application fsync.
    barrier_background: bool,
    /// True while a barrier CQE is releasing its fsyncs: the first
    /// target-resident release sends the barrier's single shared
    /// acknowledgement capsule, the rest ride it.
    barrier_ack_pending: bool,
    /// Host arrival instant of that shared acknowledgement capsule.
    barrier_ack_arrive: Option<Nanos>,
    /// Fsyncs awaiting the next seal (the group-commit window).
    window: Vec<usize>,
    /// Seal again as soon as the in-flight barrier's CQE lands (fsyncs
    /// queued up behind it — jbd2's chained commit).
    window_due: bool,
    /// Whether a valid [`Ev::CommitSeal`] timer is outstanding.
    window_timer_armed: bool,
    /// Epoch of valid [`Ev::CommitSeal`] events; bumped on every seal
    /// and run reset so superseded timers die at pop time.
    window_epoch: u64,
    /// Whether a valid [`Ev::WritebackTick`] is outstanding.
    wb_armed: bool,
    /// Epoch of valid [`Ev::WritebackTick`] events.
    wb_epoch: u64,
    /// Per-run commit activity ([`RunReport::commit`]).
    commit_log: CommitLog,
    /// Per-run fsync-issue-to-barrier-CQE latency
    /// ([`RunReport::fsync_latency`]).
    fsync_lat: Histogram,
}

impl Machine {
    /// Builds a machine from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if an explicit [`MachineConfig::qp_affinity`] map does not
    /// name one in-range core per queue pair.
    pub fn new(cfg: MachineConfig) -> Self {
        let mut rng = SimRng::seed(cfg.seed);
        let dev_rng = rng.fork(1);
        let nr_queues = cfg.cores.max(1);
        let device = NvmeDevice::new(cfg.profile, nr_queues, dev_rng);
        // The local path must not consume parent randomness beyond the
        // device fork, so existing seeds reproduce bit-for-bit; only a
        // fabric forks a wire-latency stream.
        let transport: Box<dyn Transport> = match &cfg.transport {
            TransportConfig::Local => cfg.transport.build(device, SimRng::seed(0)),
            TransportConfig::Fabric(_) => cfg.transport.build(device, rng.fork(2)),
        };
        let fabric = transport.is_fabric();
        let qp_core: Vec<usize> = match cfg.qp_affinity {
            Some(map) => {
                assert_eq!(map.len(), nr_queues, "one affinity entry per queue pair");
                assert!(
                    map.iter().all(|&c| c < cfg.cores),
                    "affinity core out of range"
                );
                map
            }
            None => (0..nr_queues).map(|q| q % cfg.cores.max(1)).collect(),
        };
        Machine {
            now: 0,
            events: EventQueue::new(),
            cores: Cores::new(cfg.cores),
            transport,
            fabric,
            qp_core,
            fs: ExtFs::mkfs(cfg.fs_blocks),
            pagecache: PageCache::new(cfg.pagecache_blocks, SECTOR_SIZE),
            extcache: ExtentCache::new(),
            costs: cfg.costs,
            rng,
            fds: IdMap::default(),
            next_fd: 3,
            installs: IdMap::default(),
            next_chain_id: 0,
            rearm_retries: 0,
            ops: Vec::new(),
            free_ops: Vec::new(),
            threads: Vec::new(),
            doorbell_armed: vec![false; nr_queues],
            // A zero aggregation threshold is clamped to one ("fire
            // immediately"): a depth that can never be reached would
            // silently disable depth-based firing. The session builder
            // rejects 0 outright so misconfiguration is loud.
            reaper: Reaper::new(
                cfg.reap_mode.clone(),
                nr_queues,
                cfg.irq_coalesce_us.saturating_mul(1_000),
                cfg.irq_coalesce_depth.max(1),
            ),
            stalled: vec![vec![Vec::new()]; nr_queues],
            unpark_cursor: vec![0; nr_queues],
            tenants: vec![TenantLimits::default()],
            tstats: vec![TenantBreakdown::fresh(DEFAULT_TENANT, 1)],
            sq_inflight: vec![vec![0]; nr_queues],
            resub_matrix: vec![Vec::new()],
            fair: FairSched::new(nr_queues),
            fair_reap: false,
            load_peak: vec![0; nr_queues],
            cid_map: IdMap::default(),
            doorbell_times: Vec::new(),
            reaped: Vec::new(),
            read_segs: Vec::new(),
            rng_streams: 0,
            mutations: Vec::new(),
            aborting_inos: IdSet::default(),
            resubmit_bound: cfg.resubmit_bound,
            exec_engine: cfg.exec_engine,
            exec_clock: cfg.exec_clock,
            exec: ExecSplit::default(),
            trace: LayerTrace::default(),
            latency: Histogram::new(),
            lat_read: Histogram::new(),
            lat_write: Histogram::new(),
            chains: 0,
            ios: 0,
            errors: 0,
            resubmissions: Vec::new(),
            until: 0,
            commit_policy: cfg.commit_policy,
            barrier_leader: None,
            barrier_joined: Vec::new(),
            barrier_seal_end: 0,
            barrier_records: 0,
            barrier_handles: 0,
            barrier_sealed_at: 0,
            barrier_dev_ns: 0,
            barrier_background: false,
            barrier_ack_pending: false,
            barrier_ack_arrive: None,
            window: Vec::new(),
            window_due: false,
            window_timer_armed: false,
            window_epoch: 0,
            wb_armed: false,
            wb_epoch: 0,
            commit_log: CommitLog::default(),
            fsync_lat: Histogram::new(),
        }
    }

    // --- Control plane (untimed setup) -------------------------------------

    /// Creates a file with the given contents, bypassing timing (like
    /// imaging the disk before the experiment).
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn create_file(&mut self, name: &str, data: &[u8]) -> Result<u64, KernelError> {
        let ino = self
            .fs
            .create(name)
            .map_err(|e| KernelError::Fs(e.to_string()))?;
        self.fs
            .write(ino, 0, data, self.transport.device_mut().store_mut())
            .map_err(|e| KernelError::Fs(e.to_string()))?;
        self.fs.take_events();
        Ok(ino)
    }

    /// Opens a file for the default tenant, returning a descriptor.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchFile`] when absent.
    pub fn open(&mut self, name: &str, o_direct: bool) -> Result<Fd, KernelError> {
        self.open_for(DEFAULT_TENANT, name, o_direct)
    }

    /// Opens a file on behalf of `tenant`. Every chain issued on the
    /// descriptor is charged to that tenant: its SQ slot budget, its
    /// resubmission bound, its fair-reaping weight, and its slice of the
    /// run report.
    ///
    /// # Panics
    ///
    /// Panics on an unregistered tenant (register first with
    /// [`Machine::register_tenant`]).
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchFile`] when absent.
    pub fn open_for(
        &mut self,
        tenant: TenantId,
        name: &str,
        o_direct: bool,
    ) -> Result<Fd, KernelError> {
        assert!(
            (tenant as usize) < self.tenants.len(),
            "tenant {tenant} not registered"
        );
        let ino = self.fs.open(name).map_err(|_| KernelError::NoSuchFile)?;
        let fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(
            fd,
            FdState {
                ino,
                o_direct,
                tenant,
            },
        );
        Ok(fd)
    }

    /// Registers a tenant with its resource limits, returning its id.
    /// Tenant 0 (default limits) exists from construction; re-limiting
    /// it goes through [`Machine::set_tenant_limits`].
    pub fn register_tenant(&mut self, limits: TenantLimits) -> TenantId {
        let id = self.tenants.len() as TenantId;
        self.tenants.push(limits);
        self.tstats
            .push(TenantBreakdown::fresh(id, limits.weight.max(1)));
        self.resub_matrix.push(Vec::new());
        for qp in 0..self.sq_inflight.len() {
            self.sq_inflight[qp].push(0);
            self.stalled[qp].push(Vec::new());
        }
        self.fair.set_weight(id as usize, limits.weight);
        id
    }

    /// Replaces a registered tenant's limits (e.g. re-weighting the
    /// default tenant before a fairness experiment).
    ///
    /// # Panics
    ///
    /// Panics on an unregistered tenant.
    pub fn set_tenant_limits(&mut self, tenant: TenantId, limits: TenantLimits) {
        let t = tenant as usize;
        assert!(t < self.tenants.len(), "tenant {tenant} not registered");
        self.tenants[t] = limits;
        self.tstats[t].weight = limits.weight.max(1);
        self.fair.set_weight(t, limits.weight);
    }

    /// The limits a tenant was registered with.
    ///
    /// # Panics
    ///
    /// Panics on an unregistered tenant.
    pub fn tenant_limits(&self, tenant: TenantId) -> TenantLimits {
        self.tenants[tenant as usize]
    }

    /// Number of registered tenants (≥ 1: tenant 0 always exists).
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The tenant owning a descriptor.
    pub fn tenant_of(&self, fd: Fd) -> Option<TenantId> {
        self.fds.get(&fd).map(|s| s.tenant)
    }

    /// Enables or disables weighted fair reaping: when on, each reap
    /// batch is serviced deficit-round-robin across tenants by weight
    /// instead of FIFO. Off (the default) is bit-for-bit the
    /// single-tenant completion order.
    pub fn set_fair_reap(&mut self, on: bool) {
        self.fair_reap = on;
    }

    /// The install ioctl (§4): verifies the program, instantiates its
    /// maps, loads it into the descriptor's program table, attaches it
    /// (replacing any currently attached program at the hook), and
    /// pushes the file's extent snapshot to the NVMe layer.
    ///
    /// The returned [`ProgHandle`] names the loaded program for
    /// [`Machine::attach`] / [`Machine::detach`] / [`Machine::unload`]
    /// and [`Machine::map_value`]. A descriptor can hold several loaded
    /// programs and switch between them without re-verifying.
    ///
    /// # Errors
    ///
    /// Verifier rejections and bad descriptors.
    pub fn install(
        &mut self,
        fd: Fd,
        prog: Program,
        flags: u32,
    ) -> Result<ProgHandle, KernelError> {
        let st = *self.fds.get(&fd).ok_or(KernelError::BadFd(fd))?;
        let budget = self.tenants[st.tenant as usize]
            .insn_budget
            .map(|max_insns| ResourceBudget {
                chain_depth: self.bound_for(st.tenant) as u64,
                max_insns,
            });
        verify_bounded(&prog, budget).map_err(|e| KernelError::Verifier(e.to_string()))?;
        let maps =
            MapSet::instantiate(&prog.maps).map_err(|e| KernelError::Verifier(e.to_string()))?;
        self.snapshot_extents(st.ino)?;
        // Lower or decode up front (install is untimed, like a real JIT
        // running at load). A compiler decline is not an error — the hop
        // path falls back to the interpreter and counts it.
        let compiled = match self.exec_engine {
            ExecEngine::Compiled => compile(&prog).ok(),
            ExecEngine::Interp => None,
        };
        let code = match compiled {
            Some(cp) => HookCode::Compiled(cp),
            None => HookCode::Decoded(DecodedProg::new(&prog)),
        };
        let table = self.installs.entry(fd).or_default();
        let slot = table.next_slot;
        table.next_slot += 1;
        table.progs.insert(slot, Install { code, maps, flags });
        table.attached = Some(slot);
        Ok(ProgHandle { fd, slot })
    }

    /// Attaches a previously loaded program to its descriptor's hook
    /// (detaching whatever was attached) and re-arms the extent
    /// snapshot, as activating a program requires a fresh snapshot.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadHandle`] for unknown/unloaded handles.
    pub fn attach(&mut self, handle: ProgHandle) -> Result<(), KernelError> {
        let st = *self
            .fds
            .get(&handle.fd)
            .ok_or(KernelError::BadFd(handle.fd))?;
        let table = self
            .installs
            .get_mut(&handle.fd)
            .ok_or(KernelError::BadHandle(handle))?;
        if !table.progs.contains_key(&handle.slot) {
            return Err(KernelError::BadHandle(handle));
        }
        table.attached = Some(handle.slot);
        self.snapshot_extents(st.ino)
    }

    /// Detaches the program from its descriptor's hook; the program
    /// stays loaded and can be re-attached. Tagged I/O on the fd fails
    /// with a VM error until another program is attached.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadHandle`] if the handle is not loaded or not the
    /// attached program.
    pub fn detach(&mut self, handle: ProgHandle) -> Result<(), KernelError> {
        let table = self
            .installs
            .get_mut(&handle.fd)
            .ok_or(KernelError::BadHandle(handle))?;
        if table.attached != Some(handle.slot) {
            return Err(KernelError::BadHandle(handle));
        }
        table.attached = None;
        Ok(())
    }

    /// Unloads a program entirely (detaching it first if attached),
    /// dropping its maps.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadHandle`] for unknown handles.
    pub fn unload(&mut self, handle: ProgHandle) -> Result<(), KernelError> {
        let table = self
            .installs
            .get_mut(&handle.fd)
            .ok_or(KernelError::BadHandle(handle))?;
        if table.progs.remove(&handle.slot).is_none() {
            return Err(KernelError::BadHandle(handle));
        }
        if table.attached == Some(handle.slot) {
            table.attached = None;
        }
        Ok(())
    }

    /// The handle of the program currently attached to `fd`, if any.
    pub fn attached(&self, fd: Fd) -> Option<ProgHandle> {
        let table = self.installs.get(&fd)?;
        table.attached.map(|slot| ProgHandle { fd, slot })
    }

    /// Pushes a fresh extent snapshot for `ino` to the NVMe layer.
    fn snapshot_extents(&mut self, ino: u64) -> Result<(), KernelError> {
        let (_, unmap_gen) = self
            .fs
            .generations(ino)
            .map_err(|e| KernelError::Fs(e.to_string()))?;
        let snapshot = self
            .fs
            .extents_snapshot(ino)
            .map_err(|e| KernelError::Fs(e.to_string()))?;
        self.extcache.install(ino, snapshot, unmap_gen);
        self.aborting_inos.remove(&ino);
        Ok(())
    }

    /// Re-arms the extent snapshot after an invalidation (the paper's
    /// "rerun the ioctl" recovery).
    ///
    /// # Errors
    ///
    /// [`KernelError::NotInstalled`] when no program is attached.
    pub fn rearm(&mut self, fd: Fd) -> Result<(), KernelError> {
        let st = *self.fds.get(&fd).ok_or(KernelError::BadFd(fd))?;
        if self.attached(fd).is_none() {
            return Err(KernelError::NotInstalled);
        }
        self.snapshot_extents(st.ino)
    }

    /// Reads back a program's map value after a run (for stats maps).
    pub fn map_value(&mut self, handle: ProgHandle, map_id: u32, key: &[u8]) -> Option<Vec<u8>> {
        let install = self
            .installs
            .get_mut(&handle.fd)?
            .progs
            .get_mut(&handle.slot)?;
        install
            .maps
            .lookup(map_id, key)
            .ok()
            .flatten()
            .map(|v| v.to_vec())
    }

    /// Schedules a file-system mutation at simulated time `at` in the
    /// next run.
    pub fn schedule_mutation(&mut self, at: Nanos, m: Mutation) {
        let idx = self.mutations.len();
        self.mutations.push(m);
        self.events.push(at, Ev::Mutate { idx });
    }

    /// Direct FS access for setup/verification.
    pub fn fs(&self) -> &ExtFs {
        &self.fs
    }

    /// Direct mutable FS + store access for setup.
    pub fn fs_and_store(&mut self) -> (&mut ExtFs, &mut bpfstor_device::SectorStore) {
        (&mut self.fs, self.transport.device_mut().store_mut())
    }

    /// The extent-cache statistics.
    pub fn extcache_stats(&self) -> crate::extcache::ExtCacheStats {
        self.extcache.stats()
    }

    /// Resolves an fd to its inode (test helper).
    pub fn ino_of(&self, fd: Fd) -> Option<u64> {
        self.fds.get(&fd).map(|s| s.ino)
    }

    /// §4 fairness accounting: chained NVMe resubmissions per thread in
    /// the last run — the counters the paper proposes the NVMe layer
    /// periodically passes up to the BIO layer.
    pub fn resubmission_accounting(&self) -> &[u64] {
        &self.resubmissions
    }

    /// §4 fairness accounting keyed by (tenant, thread): chained NVMe
    /// resubmissions charged to one tenant in the last run, per thread.
    /// Summing a row gives [`crate::TenantBreakdown::resubmissions`];
    /// summing column `t` across all tenants gives
    /// [`Machine::resubmission_accounting`]`()[t]`.
    ///
    /// # Panics
    ///
    /// Panics on an unregistered tenant.
    pub fn resubmission_accounting_for(&self, tenant: TenantId) -> &[u64] {
        &self.resub_matrix[tenant as usize]
    }

    /// Device counters for the current/last run: doorbell rings,
    /// interrupts, reaped CQEs, and backpressure rejections. On a
    /// fabric transport these are target-side counters.
    pub fn device_stats(&self) -> bpfstor_device::DeviceStats {
        self.transport.device().stats()
    }

    /// Fabric counters for the current/last run (all zero on the local
    /// transport).
    pub fn fabric_stats(&self) -> FabricStats {
        self.transport.fabric_stats()
    }

    /// True when the ring→device hop crosses an NVMe-oF fabric.
    pub fn is_fabric(&self) -> bool {
        self.fabric
    }

    /// The core whose interrupt handler serves queue pair `qp` (MSI-X
    /// affinity), or `None` for an unknown queue pair.
    pub fn qp_core(&self, qp: usize) -> Option<usize> {
        self.qp_core.get(qp).copied()
    }

    /// Busy nanoseconds accumulated on `core` in the current/last run
    /// (affinity test hook).
    pub fn core_busy_ns(&self, core: usize) -> Nanos {
        self.cores.busy_ns(core)
    }

    // --- Synchronous file I/O through the rings ------------------------------

    /// Writes `data` at `off` in `ino` as a synchronous journaled write
    /// through the SQ/CQ rings, blocking (in simulated time) until the
    /// chain delivers. With `fsync`, an ordered flush barrier commits
    /// the journal after the data CQEs; `data` may be empty with
    /// `fsync: true` for a pure fsync. This is the path LSM flush and
    /// compaction I/O ride — it advances [`Machine::now`] and shares
    /// queue slots, doorbells, and interrupts with any later run.
    ///
    /// # Errors
    ///
    /// [`KernelError::Fs`] on metadata failures surfaced as a failed
    /// chain.
    pub fn write_file(
        &mut self,
        ino: u64,
        off: u64,
        data: &[u8],
        fsync: bool,
    ) -> Result<ChainOutcome, KernelError> {
        let fd = self.sync_fd(ino);
        let spec = ChainSpec::Write(WriteStart {
            fd,
            file_off: off,
            data: data.to_vec(),
            fsync,
            arg: 0,
        });
        let outcome = self.run_one_shot(spec)?;
        match outcome.status {
            ChainStatus::Written(_) => Ok(outcome),
            ref other => Err(KernelError::Fs(format!("write failed: {other:?}"))),
        }
    }

    /// Reads `len` bytes at `off` from `ino` as a synchronous one-hop
    /// read chain through the rings (no program, User-path completion).
    ///
    /// # Errors
    ///
    /// [`KernelError::Fs`] on unmapped ranges / failed chains, and on a
    /// range too long for one request (more than `u32::MAX` bytes from
    /// its containing block boundary).
    pub fn read_file(&mut self, ino: u64, off: u64, len: usize) -> Result<Vec<u8>, KernelError> {
        if len == 0 {
            return Ok(Vec::new());
        }
        // The device path reads whole blocks from the containing block
        // boundary: size the request to cover the unaligned head too,
        // then trim to the requested byte range.
        let skip = (off % SECTOR_SIZE as u64) as usize;
        let span = skip
            .checked_add(len)
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| KernelError::Fs(format!("read of {len} bytes exceeds a request")))?;
        let fd = self.sync_fd(ino);
        let spec = ChainSpec::Read(crate::chain::ChainStart {
            fd,
            file_off: off - skip as u64,
            len: span,
            arg: 0,
        });
        let outcome = self.run_one_shot(spec)?;
        match outcome.status {
            ChainStatus::Pass(data) => {
                let end = (skip + len).min(data.len());
                Ok(data.get(skip..end).map(<[u8]>::to_vec).unwrap_or_default())
            }
            ref other => Err(KernelError::Fs(format!("read failed: {other:?}"))),
        }
    }

    /// Control-plane unlink that also propagates the unmap events to the
    /// NVMe-layer caches (extent snapshot, page cache), exactly like a
    /// scheduled mutation would.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn unlink_file(&mut self, name: &str) -> Result<(), KernelError> {
        self.fs
            .unlink(name)
            .map_err(|e| KernelError::Fs(e.to_string()))?;
        self.apply_fs_events();
        Ok(())
    }

    fn apply_fs_events(&mut self) {
        for ev in self.fs.take_events() {
            if let ExtentEvent::Unmapped { ino, .. } = ev {
                self.extcache.invalidate(ino);
                self.aborting_inos.insert(ino);
                self.pagecache.invalidate_inode(ino);
            }
        }
    }

    /// A reusable internal descriptor for by-inode synchronous I/O.
    fn sync_fd(&mut self, ino: u64) -> Fd {
        const SYNC_FD: Fd = u32::MAX;
        self.fds.insert(
            SYNC_FD,
            FdState {
                ino,
                o_direct: true,
                tenant: DEFAULT_TENANT,
            },
        );
        SYNC_FD
    }

    /// Drives one chain to completion outside a benchmark run: pushes
    /// the app event and drains the event queue with a driver that
    /// issues exactly this chain. Simulated time advances monotonically
    /// across calls; counters reset at the next `run_*`.
    fn run_one_shot(&mut self, spec: ChainSpec) -> Result<ChainOutcome, KernelError> {
        struct OneShot {
            spec: Option<ChainSpec>,
            out: Option<ChainOutcome>,
        }
        impl ChainDriver for OneShot {
            fn mode(&self) -> DispatchMode {
                DispatchMode::User
            }
            fn next_op(&mut self, _thread: usize, _rng: &mut SimRng) -> Option<ChainSpec> {
                self.spec.take()
            }
            fn chain_done(&mut self, _thread: usize, outcome: &ChainOutcome) -> ChainVerdict {
                self.out = Some(outcome.clone());
                ChainVerdict::Done
            }
        }
        let saved_until = self.until;
        self.until = Nanos::MAX;
        if self.threads.is_empty() {
            self.threads.push(ThreadState {
                stopped: false,
                uring: None,
            });
        } else {
            self.threads[0].stopped = false;
            self.threads[0].uring = None;
        }
        let mut d = OneShot {
            spec: Some(spec),
            out: None,
        };
        self.events.push(self.now, Ev::AppStart { thread: 0 });
        // Drive only this chain to delivery — do NOT drain the whole
        // queue, which may hold mutations scheduled for a future run.
        // One-shot ops run between runs, so a queued event may predate
        // the current clock (runs reset `now` to 0): clamp instead of
        // asserting monotonicity.
        while d.out.is_none() {
            let Some((t, ev)) = self.events.pop() else {
                break;
            };
            if self.stale_timer(&ev) {
                continue;
            }
            self.now = self.now.max(t);
            self.dispatch_ev(ev, &mut d);
        }
        // Consume the op's own trailing bookkeeping (the AppStart pushed
        // at delivery, any already-due timers) without touching events
        // scheduled strictly in the future.
        while self.events.peek_time().is_some_and(|t| t <= self.now) {
            let (t, ev) = self.events.pop().expect("peeked");
            if self.stale_timer(&ev) {
                continue;
            }
            self.now = self.now.max(t);
            self.dispatch_ev(ev, &mut d);
        }
        self.until = saved_until;
        d.out
            .ok_or_else(|| KernelError::Fs("one-shot chain never delivered".to_string()))
    }

    // --- Charging helpers ---------------------------------------------------

    fn charge(&mut self, cost: Nanos) -> Nanos {
        self.cores.run(self.now, None, cost).end
    }

    /// Charges CPU time pinned to a specific core (MSI-X interrupt
    /// affinity: the queue pair's interrupt handler runs on its owning
    /// core, not on whichever core happens to be free).
    fn charge_on(&mut self, core: usize, cost: Nanos) -> Nanos {
        self.cores.run(self.now, Some(core), cost).end
    }

    /// Fabric only: the CPU cost of encoding `n` command capsules
    /// carrying `payload_bytes` of in-capsule data on the submitting
    /// side (write capsules haul their payload; read commands are
    /// header-only). A no-op on the local transport.
    fn charge_capsule_encode(&mut self, n: u64, payload_bytes: u64) {
        if !self.fabric || n == 0 {
            return;
        }
        let cost = self.costs.fab_encode * n + self.costs.fab_encode_per_kb * payload_bytes / 1024;
        self.charge(cost);
        self.trace.fabric += cost;
    }

    /// Terminal hop of a target-resident (pushdown-over-fabric) chain:
    /// the target runs its final work (`target_cost`), encodes the
    /// response capsule, and puts it on the wire; the host unwinds its
    /// completion path when the capsule arrives ([`Ev::CapsuleRx`]).
    /// Returns the capsule's host arrival instant so a grouped commit
    /// barrier can ack its other released fsyncs on the same capsule.
    fn send_response_capsule(&mut self, id: usize, target_cost: Nanos) -> Nanos {
        let cost = target_cost + self.costs.fab_encode;
        let end = self.charge(cost);
        self.trace.fabric += self.costs.fab_encode;
        let initiator = self.ops[id].as_ref().expect("op").tenant;
        let (arrive, wire) = self
            .transport
            .response_capsule(end, initiator)
            .expect("target-resident chains require a fabric transport");
        self.trace.fabric_wire += wire;
        self.events.push(arrive, Ev::CapsuleRx { op: id });
        arrive
    }

    /// True when the chain's outcome lives on the NVMe-oF target and
    /// must return as a response capsule: a pushdown-over-fabric chain
    /// that actually reached the device (a host page-cache hit never
    /// leaves the initiator).
    fn target_resident(&self, id: usize) -> bool {
        self.ops[id]
            .as_ref()
            .is_some_and(|op| op.remote_pushdown && op.ios > 0)
    }

    /// §4 fairness accounting: one chained kernel-side resubmission on
    /// behalf of `(tenant, thread)` (read hop recycle or write flush
    /// chase). The per-thread view sums across tenants; the per-tenant
    /// matrix keeps each tenant's charges separate so one tenant hitting
    /// its bound never bills another.
    fn note_resubmission(&mut self, tenant: TenantId, thread: usize) {
        if self.resubmissions.len() <= thread {
            self.resubmissions.resize(thread + 1, 0);
        }
        self.resubmissions[thread] += 1;
        let row = &mut self.resub_matrix[tenant as usize];
        if row.len() <= thread {
            row.resize(thread + 1, 0);
        }
        row[thread] += 1;
        self.tstats[tenant as usize].resubmissions += 1;
    }

    /// The §4 chained-resubmission bound in force for a tenant: its own
    /// override if registered with one, else the machine-wide bound.
    fn bound_for(&self, tenant: TenantId) -> u32 {
        self.tenants[tenant as usize]
            .resubmit_bound
            .unwrap_or(self.resubmit_bound)
    }

    /// True when `tenant` may put `n` more commands on `qp` under its
    /// SQ slot budget. A tenant with nothing in flight is always
    /// admitted, so a request wider than its budget cannot park forever.
    fn tenant_can_submit(&self, qp: usize, tenant: TenantId, n: usize) -> bool {
        let t = tenant as usize;
        match self.tenants[t].sq_slots {
            None => true,
            Some(budget) => {
                let inflight = self.sq_inflight[qp][t];
                inflight == 0 || inflight + n <= budget
            }
        }
    }

    /// Re-issues parked submissions after completions freed SQ slots or
    /// tenant budget: one op per tenant per round-robin pass, starting
    /// after the tenant served first on the previous unpark, so no
    /// tenant's parked queue starves behind another's. With a single
    /// tenant this is exactly the old FIFO drain.
    fn unpark(&mut self, qp: usize) {
        let nt = self.stalled[qp].len();
        let total: usize = self.stalled[qp].iter().map(Vec::len).sum();
        if total == 0 {
            return;
        }
        let mut queues: Vec<std::collections::VecDeque<usize>> = self.stalled[qp]
            .iter_mut()
            .map(|q| std::mem::take(q).into())
            .collect();
        let start = self.unpark_cursor[qp] % nt;
        let mut out = Vec::with_capacity(total);
        while out.len() < total {
            for i in 0..nt {
                if let Some(id) = queues[(start + i) % nt].pop_front() {
                    out.push(id);
                }
            }
        }
        self.unpark_cursor[qp] = (start + 1) % nt;
        for id in out {
            self.events.push(self.now, Ev::DevSubmit { op: id });
        }
    }

    /// Whether any submission is parked on `qp` (budget or backpressure).
    fn has_stalled(&self, qp: usize) -> bool {
        self.stalled[qp].iter().any(|q| !q.is_empty())
    }

    // --- Run loops -----------------------------------------------------------

    /// Runs a closed-loop workload: `nthreads` application threads, each
    /// issuing one chain at a time, until simulated time `until`.
    pub fn run_closed_loop(
        &mut self,
        nthreads: usize,
        until: Nanos,
        driver: &mut dyn ChainDriver,
    ) -> RunReport {
        self.begin_run(until);
        self.threads = (0..nthreads)
            .map(|_| ThreadState {
                stopped: false,
                uring: None,
            })
            .collect();
        for t in 0..nthreads {
            // Small stagger desynchronises thread start-up.
            self.events
                .push((t as Nanos) * 97, Ev::AppStart { thread: t });
        }
        self.event_loop(driver);
        self.finish_run()
    }

    /// Runs an io_uring workload: each thread keeps `batch` SQEs in
    /// flight per `io_uring_enter`, as in Figure 3d.
    pub fn run_uring(
        &mut self,
        nthreads: usize,
        batch: u32,
        until: Nanos,
        driver: &mut dyn ChainDriver,
    ) -> RunReport {
        self.begin_run(until);
        self.threads = (0..nthreads)
            .map(|_| ThreadState {
                stopped: false,
                uring: Some(UringState {
                    batch,
                    pending: 0,
                    queue: Vec::new(),
                    reaped_since_enter: 0,
                }),
            })
            .collect();
        for t in 0..nthreads {
            self.events
                .push((t as Nanos) * 97, Ev::AppStart { thread: t });
        }
        self.event_loop(driver);
        self.finish_run()
    }

    fn begin_run(&mut self, until: Nanos) {
        self.until = until;
        self.now = 0;
        self.cores.reset();
        self.transport.reset_timing();
        self.trace = LayerTrace::default();
        self.exec = ExecSplit::default();
        self.latency = Histogram::new();
        self.lat_read = Histogram::new();
        self.lat_write = Histogram::new();
        self.chains = 0;
        self.ios = 0;
        self.errors = 0;
        // next_chain_id deliberately NOT reset: token ids stay unique
        // across runs of one machine, so driver state keyed by token id
        // can never collide with a stale entry from an earlier run.
        self.rearm_retries = 0;
        self.resubmissions.clear();
        for armed in &mut self.doorbell_armed {
            *armed = false;
        }
        self.reaper.reset();
        for per_qp in &mut self.stalled {
            for q in per_qp.iter_mut() {
                q.clear();
            }
        }
        for c in &mut self.unpark_cursor {
            *c = 0;
        }
        for (t, stats) in self.tstats.iter_mut().enumerate() {
            *stats = TenantBreakdown::fresh(t as TenantId, self.tenants[t].weight.max(1));
        }
        for per_qp in &mut self.sq_inflight {
            for n in per_qp.iter_mut() {
                *n = 0;
            }
        }
        for row in &mut self.resub_matrix {
            row.clear();
        }
        self.fair.reset();
        self.cid_map.clear();
        self.rng_streams = 0;
        // Commit-layer state: a run never starts with a barrier in
        // flight (every prior chain delivered), so only the stats and
        // timer epochs reset — the epoch bumps kill any timer events
        // left in the queue by an earlier run or one-shot.
        debug_assert!(self.barrier_leader.is_none());
        debug_assert!(self.barrier_joined.is_empty() && self.window.is_empty());
        self.window_epoch += 1;
        self.window_timer_armed = false;
        self.window_due = false;
        self.wb_epoch += 1;
        self.wb_armed = false;
        self.commit_log = CommitLog::default();
        self.fsync_lat = Histogram::new();
    }

    fn finish_run(&mut self) -> RunReport {
        let sim_time = self.now.max(1);
        let secs = sim_time as f64 / 1e9;
        RunReport {
            sim_time,
            chains: self.chains,
            ios: self.ios,
            errors: self.errors,
            iops: self.ios as f64 / secs,
            chains_per_sec: self.chains as f64 / secs,
            latency: self.latency.clone(),
            read_latency: self.lat_read.clone(),
            write_latency: self.lat_write.clone(),
            fsync_latency: self.fsync_lat.clone(),
            cpu_util: self.cores.utilization(sim_time),
            device_util: self.transport.device().utilization(sim_time),
            device: self.transport.device().stats(),
            fabric: self.transport.fabric_stats(),
            fabric_initiators: self.transport.initiator_stats(),
            trace: self.trace,
            extcache: self.extcache.stats(),
            resubmissions: self.resubmissions.iter().sum(),
            rearm_retries: self.rearm_retries,
            reaper: self.reaper.stats().clone(),
            tenants: self.tstats.clone(),
            exec: self.exec,
            commit: self.commit_log,
        }
    }

    /// Commit activity accumulated since the last run began (also in
    /// [`RunReport::commit`]).
    pub fn commit_log(&self) -> CommitLog {
        self.commit_log
    }

    /// The commit policy the machine was built with.
    pub fn commit_policy(&self) -> CommitPolicy {
        self.commit_policy
    }

    /// Completion-reaping counters accumulated since the last run began.
    pub fn reaper_stats(&self) -> &ReaperStats {
        self.reaper.stats()
    }

    fn event_loop(&mut self, driver: &mut dyn ChainDriver) {
        while let Some((t, ev)) = self.events.pop() {
            // Superseded commit timers die *before* the clock advances,
            // so a stale tick from an earlier epoch can never inflate a
            // later run's sim_time.
            if self.stale_timer(&ev) {
                continue;
            }
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.dispatch_ev(ev, driver);
        }
    }

    /// True for an epoch-tagged commit timer superseded by a later seal
    /// or run reset. Checked at pop time in every event loop.
    fn stale_timer(&self, ev: &Ev) -> bool {
        match *ev {
            Ev::CommitSeal { epoch } => epoch != self.window_epoch,
            Ev::WritebackTick { epoch } => epoch != self.wb_epoch,
            _ => false,
        }
    }

    fn dispatch_ev(&mut self, ev: Ev, driver: &mut dyn ChainDriver) {
        match ev {
            Ev::AppStart { thread } => self.on_app_start(thread, driver),
            Ev::DevSubmit { op } => self.on_dev_submit(op),
            Ev::CacheHit { op } => self.on_device_done(op, driver),
            Ev::Doorbell { qp } => self.on_doorbell(qp),
            Ev::IrqFire { qp } => self.on_irq_fire(qp, driver),
            Ev::Poll { qp } => self.on_poll(qp, driver),
            Ev::Delivered { op } => self.on_delivered(op, driver),
            Ev::CapsuleRx { op } => self.on_capsule_rx(op),
            Ev::Mutate { idx } => self.on_mutate(idx),
            Ev::CommitSeal { .. } => self.on_commit_seal(),
            Ev::WritebackTick { .. } => self.on_writeback_tick(),
        }
    }

    /// A terminal pushdown response capsule reaches the host: decode it
    /// and unwind the initiator-side completion path to the application.
    /// A write chain unwinds the write completion path; an fsync that
    /// rode a shared barrier's acknowledgement capsule
    /// ([`Op::capsule_joined`]) skips the decode — the capsule was
    /// decoded once by the barrier leader.
    fn on_capsule_rx(&mut self, id: usize) {
        let Some(op) = self.ops[id].as_ref() else {
            return;
        };
        let unwind = match op.kind {
            OpKind::Read => self.costs.sync_complete(),
            _ => self.costs.sync_write_complete(),
        };
        let decode = if op.capsule_joined {
            0
        } else {
            self.costs.fab_decode
        };
        let end = self.charge(decode + unwind);
        self.trace.fabric += decode;
        self.account_complete_trace();
        self.events.push(end, Ev::Delivered { op: id });
    }

    // --- Op slab --------------------------------------------------------------

    fn alloc_op(&mut self, op: Op) -> usize {
        if let Some(i) = self.free_ops.pop() {
            self.ops[i] = Some(op);
            i
        } else {
            self.ops.push(Some(op));
            self.ops.len() - 1
        }
    }

    fn free_op(&mut self, id: usize) {
        self.ops[id] = None;
        self.free_ops.push(id);
    }

    // --- Event handlers ---------------------------------------------------------

    fn on_app_start(&mut self, thread: usize, driver: &mut dyn ChainDriver) {
        if self.threads[thread].stopped {
            return;
        }
        if self.threads[thread].uring.is_some() {
            self.uring_enter(thread, driver);
            return;
        }
        if self.now >= self.until {
            self.threads[thread].stopped = true;
            return;
        }
        let mut rng = self.rng.fork(thread as u64 * 7919 + self.chains);
        let Some(spec) = driver.next_op(thread, &mut rng) else {
            self.threads[thread].stopped = true;
            return;
        };
        let mode = driver.mode();
        self.start_chain(thread, spec, mode, Origin::Sync, 0);
    }

    fn start_chain(
        &mut self,
        thread: usize,
        spec: ChainSpec,
        mode: DispatchMode,
        origin: Origin,
        attempts: u32,
    ) -> Option<usize> {
        let (fd, file_off, len, arg, kind, wr_data) = match spec {
            ChainSpec::Read(s) => (s.fd, s.file_off, s.len, s.arg, OpKind::Read, Vec::new()),
            ChainSpec::Write(w) => {
                let len = w.data.len() as u32;
                (
                    w.fd,
                    w.file_off,
                    len,
                    w.arg,
                    OpKind::WriteData { fsync: w.fsync },
                    w.data,
                )
            }
        };
        let st = self.fds.get(&fd).copied()?;
        let mut scratch = vec![0u8; SCRATCH_SIZE];
        scratch[..8].copy_from_slice(&arg.to_le_bytes());
        let token = ChainToken {
            id: self.next_chain_id,
            tenant: st.tenant,
            arg,
            issued: self.now,
        };
        self.next_chain_id += 1;
        let op = Op {
            thread,
            fd,
            tenant: st.tenant,
            ino: st.ino,
            kind,
            mode,
            origin,
            token,
            first_off: file_off,
            first_len: len,
            attempts,
            file_off,
            len,
            hop: 0,
            insns_used: 0,
            ios: 0,
            started: self.now,
            data: Vec::new(),
            device_ns: 0,
            scratch,
            emitted: Vec::new(),
            status: None,
            o_direct: st.o_direct,
            seg_data: Vec::new(),
            segs_pending: 0,
            submitted_at: 0,
            phys_target: None,
            recycled: false,
            wr_data,
            wr_segments: None,
            wr_lb: 0,
            wr_nblocks: 0,
            remote_pushdown: self.fabric
                && mode == DispatchMode::DriverHook
                && matches!(kind, OpKind::Read | OpKind::WriteData { .. }),
            capsule_joined: false,
            journal_end: 0,
            fsync_from: 0,
            internal: false,
        };
        let id = self.alloc_op(op);
        if origin == Origin::Sync {
            // App think + full submission burst in one CPU job.
            let submit = match kind {
                OpKind::Read => self.costs.sync_submit(),
                _ => self.costs.sync_write_submit(),
            };
            let cost = self.costs.app_think + submit;
            let end = self.charge(cost);
            self.trace.app += self.costs.app_think;
            match kind {
                OpKind::Read => self.account_submit_trace(),
                _ => self.account_write_submit_trace(),
            }
            self.events.push(end, Ev::DevSubmit { op: id });
        }
        Some(id)
    }

    fn account_submit_trace(&mut self) {
        self.trace.crossing += self.costs.crossing_enter;
        self.trace.syscall += self.costs.syscall;
        self.trace.fs += self.costs.fs_submit;
        self.trace.bio += self.costs.bio_submit;
        self.trace.drv += self.costs.drv_submit;
    }

    fn account_write_submit_trace(&mut self) {
        self.trace.crossing += self.costs.crossing_enter;
        self.trace.syscall += self.costs.syscall;
        self.trace.fs += self.costs.wr_fs_submit;
        self.trace.journal += self.costs.journal_log;
        self.trace.bio += self.costs.bio_submit;
        self.trace.drv += self.costs.drv_submit;
    }

    /// Fails the op's current request and schedules delivery after the
    /// completion-side CPU burst. For a target-resident chain (a stale
    /// recycled hop caught at the target) the failure returns to the
    /// host as a response capsule first.
    fn fail_submit(&mut self, id: usize, status: ChainStatus, unwind_trace: bool) {
        let op = self.ops[id].as_mut().expect("op");
        op.status = Some(status);
        if self.target_resident(id) {
            self.send_response_capsule(id, 0);
            return;
        }
        let cost = self.costs.sync_complete();
        let end = self.charge(cost);
        if unwind_trace {
            self.account_complete_trace();
        }
        self.events.push(end, Ev::Delivered { op: id });
    }

    /// Issues the op's current target to the device: translate, enqueue
    /// every segment on the thread's submission ring, and arm the
    /// doorbell. First hops and user-path reissues translate through
    /// live FS metadata (the normal submission path did this work
    /// inside `fs_submit` cost); recycled driver-hook hops carry the
    /// extent-snapshot's physical target and *never* consult the FS —
    /// a snapshot that went stale aborts the chain instead of silently
    /// healing. A queue pair at capacity parks the op until the next
    /// completion interrupt frees slots (EBUSY-style backpressure).
    fn on_dev_submit(&mut self, id: usize) {
        let Some(op) = self.ops[id].as_ref() else {
            return;
        };
        match op.kind {
            OpKind::Read => self.submit_read(id),
            OpKind::WriteData { fsync } => self.submit_write_data(id, fsync),
            OpKind::WriteFlush => self.submit_write_flush(id),
        }
    }

    /// Plans (on the first attempt) and submits a write chain's payload
    /// as `Write` commands on the thread's queue pair: the file system
    /// performs the metadata half (allocation, journal records, size)
    /// and the data rides the same SQ/CQ rings as reads — paying
    /// queueing delay, the shared doorbell, and the coalesced interrupt.
    /// A full queue pair parks the op exactly like a read.
    fn submit_write_data(&mut self, id: usize, fsync: bool) {
        let op = self.ops[id].as_ref().expect("op");
        let (ino, file_off, thread, tenant) = (op.ino, op.file_off, op.thread, op.tenant);
        if op.wr_segments.is_none() {
            // First attempt: metadata plan + payload assembly. The plan
            // survives backpressure parking (no double allocation).
            let len = op.wr_data.len();
            if len == 0 {
                // Pure fsync: skip straight to the flush barrier.
                if fsync {
                    let journal_end = self.fs.journal_len();
                    let grouped = self.commit_policy.is_grouped();
                    let op = self.ops[id].as_mut().expect("op");
                    op.kind = OpKind::WriteFlush;
                    op.fsync_from = self.now;
                    // A pure fsync wants everything logged so far
                    // durable, not just its own (absent) records.
                    op.journal_end = journal_end;
                    self.commit_log.fsyncs += 1;
                    self.tstats[tenant as usize].fsyncs += 1;
                    if grouped {
                        self.fsync_request_barrier(id);
                    } else {
                        self.submit_write_flush(id);
                    }
                } else {
                    // Zero-byte write: nothing to do.
                    let op = self.ops[id].as_mut().expect("op");
                    op.status = Some(ChainStatus::Written(0));
                    let end = self.charge(self.costs.sync_write_complete());
                    self.account_complete_trace();
                    self.events.push(end, Ev::Delivered { op: id });
                }
                return;
            }
            let plan = match self.fs.plan_write(
                ino,
                file_off,
                len,
                self.transport.device_mut().store_mut(),
            ) {
                Ok(p) => p,
                Err(_) => {
                    self.fail_submit(id, ChainStatus::IoError, false);
                    return;
                }
            };
            // Assemble per-segment payloads, read-modify-writing the
            // partial edge blocks from the current stored bytes.
            let bs = SECTOR_SIZE as u64;
            let first_lb = file_off / bs;
            let last_lb = (file_off + len as u64 - 1) / bs;
            let nblocks = last_lb - first_lb + 1;
            let mut blocks: Vec<Vec<u8>> = Vec::with_capacity(nblocks as usize);
            {
                let op = self.ops[id].as_ref().expect("op");
                let mut pos = file_off;
                let mut remaining = &op.wr_data[..];
                let mut segs = plan.iter();
                let mut cur: Option<(u64, u64)> = None; // (phys base, blocks left)
                for lb in first_lb..=last_lb {
                    let (base, left) = match cur {
                        Some((b, l)) if l > 0 => (b, l),
                        _ => {
                            let &(b, l) = segs.next().expect("plan covers range");
                            (b, l)
                        }
                    };
                    let phys = base;
                    cur = Some((base + 1, left - 1));
                    let in_block = (pos % bs) as usize;
                    let chunk = remaining.len().min(SECTOR_SIZE - in_block);
                    let block = if in_block == 0 && chunk == SECTOR_SIZE {
                        remaining[..SECTOR_SIZE].to_vec()
                    } else {
                        let mut buf = self.transport.device_mut().store_mut().read(phys, 1);
                        buf[in_block..in_block + chunk].copy_from_slice(&remaining[..chunk]);
                        buf
                    };
                    let _ = lb;
                    blocks.push(block);
                    pos += chunk as u64;
                    remaining = &remaining[chunk..];
                }
            }
            // Re-chunk the per-block payloads into the plan's physically
            // contiguous segments (one SQE per segment, like the bio
            // layer merging adjacent blocks).
            let mut segments: Vec<(u64, Vec<u8>)> = Vec::with_capacity(plan.len());
            let mut block_iter = blocks.into_iter();
            for (phys, run) in &plan {
                let mut payload = Vec::with_capacity(*run as usize * SECTOR_SIZE);
                for _ in 0..*run {
                    payload.extend_from_slice(&block_iter.next().expect("block per plan slot"));
                }
                segments.push((*phys, payload));
            }
            let journal_end = self.fs.journal_len();
            let op = self.ops[id].as_mut().expect("op");
            op.wr_lb = first_lb;
            op.wr_nblocks = nblocks;
            op.wr_segments = Some(segments);
            op.wr_data = Vec::new();
            // The plan just logged this write's journal records: any
            // seal at or past this point covers them.
            op.journal_end = journal_end;
        }
        let nsegs = self.ops[id]
            .as_ref()
            .expect("op")
            .wr_segments
            .as_ref()
            .expect("planned")
            .len();
        let qp = thread % self.transport.nr_queues();
        if nsegs > self.transport.queue_capacity() {
            self.fail_submit(id, ChainStatus::IoError, false);
            return;
        }
        if !self.tenant_can_submit(qp, tenant, nsegs) {
            self.tstats[tenant as usize].sq_parks += 1;
            self.stalled[qp][tenant as usize].push(id);
            return;
        }
        // Write pushdown: the chain's *first* device phase crosses as
        // one capsule carrying the data payload; everything after it
        // (flush chase, rearm resubmissions) is already target-side.
        let class = {
            let op = self.ops[id].as_ref().expect("op");
            match (op.remote_pushdown, op.ios == 0) {
                (true, true) => SubmitClass::PushdownStart,
                (true, false) => SubmitClass::TargetLocal,
                (false, _) => SubmitClass::Host,
            }
        };
        if !self.transport.can_accept(qp, nsegs, tenant, class) {
            self.transport.record_rejection(tenant);
            self.stalled[qp][tenant as usize].push(id);
            return;
        }
        // Extra bio/driver work for each split segment beyond the first.
        let extra = (nsegs as u64 - 1) * (self.costs.bio_submit + self.costs.drv_submit);
        if extra > 0 {
            self.charge(extra);
            self.trace.bio += extra;
        }
        let op = self.ops[id].as_mut().expect("op");
        let segments = op.wr_segments.take().expect("planned");
        op.segs_pending = segments.len() as u32;
        op.seg_data.clear();
        op.seg_data.resize(segments.len(), None);
        op.submitted_at = self.now;
        op.ios += segments.len() as u32;
        self.trace.ios += segments.len() as u64;
        self.trace.write_ios += segments.len() as u64;
        self.sq_inflight[qp][tenant as usize] += segments.len();
        let ts = &mut self.tstats[tenant as usize];
        ts.ios += segments.len() as u64;
        ts.dev_writes += segments.len() as u64;
        if class != SubmitClass::TargetLocal {
            let payload: u64 = segments.iter().map(|(_, p)| p.len() as u64).sum();
            self.charge_capsule_encode(segments.len() as u64, payload);
        }
        for (seg, (phys, payload)) in segments.into_iter().enumerate() {
            let cid = self.ios;
            self.ios += 1;
            self.cid_map.insert(cid, (id, seg));
            self.transport
                .submit(
                    qp,
                    NvmeCommand {
                        cid,
                        op: NvmeOp::Write {
                            slba: phys,
                            data: payload,
                        },
                    },
                    class,
                    tenant,
                )
                .expect("capacity checked above");
        }
        if !self.doorbell_armed[qp] {
            self.doorbell_armed[qp] = true;
            self.events.push(self.now, Ev::Doorbell { qp });
        }
    }

    /// Submits the fsync flush barrier; its CQE commits the journal.
    fn submit_write_flush(&mut self, id: usize) {
        let (thread, tenant) = {
            let op = self.ops[id].as_ref().expect("op");
            (op.thread, op.tenant)
        };
        let qp = thread % self.transport.nr_queues();
        if !self.tenant_can_submit(qp, tenant, 1) {
            self.tstats[tenant as usize].sq_parks += 1;
            self.stalled[qp][tenant as usize].push(id);
            return;
        }
        // A pushdown chain's flush chase is already target-side; only a
        // pure fsync (no data phase) crosses as its own capsule.
        let class = {
            let op = self.ops[id].as_ref().expect("op");
            match (op.remote_pushdown, op.ios == 0) {
                (true, true) => SubmitClass::PushdownStart,
                (true, false) => SubmitClass::TargetLocal,
                (false, _) => SubmitClass::Host,
            }
        };
        if !self.transport.can_accept(qp, 1, tenant, class) {
            self.transport.record_rejection(tenant);
            self.stalled[qp][tenant as usize].push(id);
            return;
        }
        let op = self.ops[id].as_mut().expect("op");
        op.segs_pending = 1;
        op.seg_data.clear();
        op.seg_data.push(None);
        op.submitted_at = self.now;
        op.ios += 1;
        self.trace.ios += 1;
        self.trace.write_ios += 1;
        self.sq_inflight[qp][tenant as usize] += 1;
        let ts = &mut self.tstats[tenant as usize];
        ts.ios += 1;
        ts.dev_flushes += 1;
        let cid = self.ios;
        self.ios += 1;
        self.cid_map.insert(cid, (id, 0));
        if class != SubmitClass::TargetLocal {
            self.charge_capsule_encode(1, 0);
        }
        self.transport
            .submit(
                qp,
                NvmeCommand {
                    cid,
                    op: NvmeOp::Flush,
                },
                class,
                tenant,
            )
            .expect("capacity checked above");
        if !self.doorbell_armed[qp] {
            self.doorbell_armed[qp] = true;
            self.events.push(self.now, Ev::Doorbell { qp });
        }
    }

    fn submit_read(&mut self, id: usize) {
        let mut segments = std::mem::take(&mut self.read_segs);
        segments.clear();
        self.plan_and_submit_read(id, &mut segments);
        self.read_segs = segments;
    }

    /// [`Machine::submit_read`] with the segment list it fills lent by
    /// the caller.
    fn plan_and_submit_read(&mut self, id: usize, segments: &mut Vec<(u64, u32)>) {
        let Some(op) = self.ops[id].as_ref() else {
            return;
        };
        let (len, file_off, ino, o_direct, thread, tenant, phys_target) = (
            op.len,
            op.file_off,
            op.ino,
            op.o_direct,
            op.thread,
            op.tenant,
            op.phys_target,
        );
        let nblocks = (len as u64).div_ceil(SECTOR_SIZE as u64).max(1);
        let lb = file_off / SECTOR_SIZE as u64;
        // Buffered path: a whole-request page-cache hit skips the device
        // (and its queues) entirely.
        if !o_direct && phys_target.is_none() {
            let mut assembled = Vec::with_capacity((nblocks as usize) * SECTOR_SIZE);
            let mut complete = true;
            for i in 0..nblocks {
                match self.pagecache.get((ino, lb + i)) {
                    Some(block) => assembled.extend_from_slice(block),
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            if complete {
                let op = self.ops[id].as_mut().expect("op exists");
                op.data = assembled;
                let cost = self.costs.pagecache_hit * nblocks;
                let end = self.charge(cost);
                self.trace.fs += cost;
                self.events.push(end, Ev::CacheHit { op: id });
                return;
            }
        }
        if let Some((phys, snap_gen)) = phys_target {
            // Recycled hop: submit to the snapshot's physical target.
            // If the file's extents changed under the snapshot (its
            // unmap generation moved, or the entry died), the recycled
            // descriptor is discarded — §4's invalidation semantics —
            // rather than re-translated through live fs metadata.
            let live_gen = self.fs.generations(ino).ok().map(|(_, unmap)| unmap);
            if !self.extcache.is_armed(ino) || live_gen != Some(snap_gen) {
                self.fail_submit(id, ChainStatus::Invalidated, true);
                return;
            }
            segments.push((phys, nblocks as u32));
        } else {
            // Translate logical blocks to physical segments via the FS.
            let mut remaining = nblocks;
            let mut cur = lb;
            while remaining > 0 {
                match self.fs.map(ino, cur) {
                    Ok(Some((phys, run))) => {
                        let take = remaining.min(run) as u32;
                        segments.push((phys, take));
                        cur += take as u64;
                        remaining -= take as u64;
                    }
                    _ => break,
                }
            }
            if segments.is_empty() || remaining > 0 {
                self.fail_submit(id, ChainStatus::IoError, false);
                return;
            }
        }
        let qp = thread % self.transport.nr_queues();
        // A request that can never fit the SQ is an I/O error (a real
        // driver would split it; the workloads never get near this).
        if segments.len() > self.transport.queue_capacity() {
            self.fail_submit(id, ChainStatus::IoError, false);
            return;
        }
        // Tenant SQ budget: a tenant at its per-qp slot budget parks in
        // its own queue without consuming shared slots.
        if !self.tenant_can_submit(qp, tenant, segments.len()) {
            self.tstats[tenant as usize].sq_parks += 1;
            self.stalled[qp][tenant as usize].push(id);
            return;
        }
        // Over a fabric, a pushdown chain's first read crosses as a
        // command capsule whose completion stays target-side; recycled
        // hops never touch the wire at all. Everything else is an
        // ordinary host command (full round trip per hop).
        let class = {
            let op = self.ops[id].as_ref().expect("op");
            match (op.remote_pushdown, phys_target.is_some()) {
                (true, true) => SubmitClass::TargetLocal,
                (true, false) => SubmitClass::PushdownStart,
                (false, _) => SubmitClass::Host,
            }
        };
        // Backpressure: the whole request must fit, or the op parks
        // until the next interrupt frees queue slots.
        if !self.transport.can_accept(qp, segments.len(), tenant, class) {
            self.transport.record_rejection(tenant);
            self.stalled[qp][tenant as usize].push(id);
            return;
        }
        // Extra bio/driver work for each split segment beyond the first.
        let extra = (segments.len() as u64 - 1) * (self.costs.bio_submit + self.costs.drv_submit);
        if extra > 0 {
            let end = self.charge(extra);
            self.trace.bio += extra;
            let _ = end;
        }
        let op = self.ops[id].as_mut().expect("op");
        op.segs_pending = segments.len() as u32;
        op.seg_data.clear();
        op.seg_data.resize(segments.len(), None);
        op.submitted_at = self.now;
        op.recycled = phys_target.is_some();
        op.phys_target = None;
        op.ios += segments.len() as u32;
        self.trace.ios += segments.len() as u64;
        self.sq_inflight[qp][tenant as usize] += segments.len();
        let ts = &mut self.tstats[tenant as usize];
        ts.ios += segments.len() as u64;
        ts.dev_reads += segments.len() as u64;
        if class != SubmitClass::TargetLocal {
            self.charge_capsule_encode(segments.len() as u64, 0);
        }
        for (seg, (phys, take)) in segments.iter().enumerate() {
            let cid = self.ios;
            self.ios += 1;
            self.cid_map.insert(cid, (id, seg));
            self.transport
                .submit(
                    qp,
                    NvmeCommand {
                        cid,
                        op: NvmeOp::Read {
                            slba: *phys,
                            nlb: *take,
                        },
                    },
                    class,
                    tenant,
                )
                .expect("capacity checked above");
        }
        if !self.doorbell_armed[qp] {
            self.doorbell_armed[qp] = true;
            self.events.push(self.now, Ev::Doorbell { qp });
        }
    }

    /// The driver's doorbell MMIO write: the device batch-services the
    /// queue pair's SQ, and the live reaping mechanism (interrupt timer
    /// or poller) arms around the new completion instants. SQEs
    /// enqueued at the same instant share one ring (and one charge).
    fn on_doorbell(&mut self, qp: usize) {
        self.doorbell_armed[qp] = false;
        let cost = self.costs.doorbell;
        let _ = self.charge(cost);
        self.trace.drv += cost;
        self.trace.doorbells += 1;
        // The MMIO write is issued inline by the submitting path; the
        // charge accounts its CPU time but does not gate the device —
        // service starts at the ring instant.
        self.doorbell_times.clear();
        self.transport
            .ring_doorbell(self.now, qp, &mut self.doorbell_times)
            .expect("queue pair exists");
        if self.doorbell_times.is_empty() {
            return;
        }
        self.reaper.note_doorbell(qp, &self.doorbell_times);
        let depth = self.transport.outstanding(qp);
        self.load_peak[qp] = self.load_peak[qp].max(depth);
        self.arm_reap(qp);
    }

    /// One hybrid-scheduler load sample: the peak doorbell-time depth
    /// since the last productive reap (floored by what this reap
    /// drained plus the residue). The peak resets only on productive
    /// reaps so idle poll visits re-observe recent pressure instead of
    /// reporting a spurious lull.
    fn sample_load(&mut self, qp: usize, reaped: usize) -> usize {
        let load = self.load_peak[qp].max(self.transport.outstanding(qp) + reaped);
        if reaped > 0 {
            self.load_peak[qp] = 0;
        }
        load
    }

    /// Arms whichever reaping mechanism is live on `qp`: the coalescing
    /// interrupt timer from its pending completion instants, or the
    /// next poller visit (pollers park on an idle queue pair; the next
    /// doorbell wakes them).
    fn arm_reap(&mut self, qp: usize) {
        match self.reaper.active(qp) {
            ReapKind::Interrupt => {
                if let Some(fire) = self.reaper.arm_irq(qp) {
                    self.events.push(fire, Ev::IrqFire { qp });
                }
            }
            ReapKind::Polled => {
                if self.transport.outstanding(qp) > 0 {
                    let at = self.now + self.reaper.poll_interval();
                    if let Some(at) = self.reaper.arm_poll(qp, at) {
                        self.events.push(at, Ev::Poll { qp });
                    }
                }
            }
        }
    }

    /// Reaps `qp` at the current instant on behalf of either mechanism:
    /// post ready CQEs, drain the completion ring, run the completion
    /// path of every finished request, and re-issue ops parked on
    /// backpressure. Returns how many CQEs were drained.
    fn reap_qp(&mut self, qp: usize, driver: &mut dyn ChainDriver) -> usize {
        let cqes = self.take_reaped(qp);
        self.complete_reaped(qp, cqes, driver)
    }

    /// Posts and drains `qp`'s ready completions into the machine's
    /// reusable reap buffer, in delivery order, and lends the buffer
    /// out; [`Machine::complete_reaped`] hands it back.
    fn take_reaped(&mut self, qp: usize) -> Vec<NvmeCompletion> {
        let mut cqes = std::mem::take(&mut self.reaped);
        self.transport.post_ready(self.now, qp);
        self.transport.reap(self.now, qp, usize::MAX, &mut cqes);
        self.fair_order(qp, &mut cqes);
        cqes
    }

    /// Runs the completion path of every CQE in a reap batch, returns
    /// the emptied buffer for reuse, and re-issues ops parked on
    /// backpressure. Returns how many CQEs the batch held.
    fn complete_reaped(
        &mut self,
        qp: usize,
        mut cqes: Vec<NvmeCompletion>,
        driver: &mut dyn ChainDriver,
    ) -> usize {
        let reaped = cqes.len();
        for c in cqes.drain(..) {
            self.on_cqe(c, driver);
        }
        self.reaped = cqes;
        if reaped > 0 {
            // Freed queue slots un-park stalled submissions.
            self.unpark(qp);
        }
        reaped
    }

    /// Applies weighted deficit-round-robin across tenants to one reap
    /// batch, in place. Identity (FIFO) unless fair reaping is enabled
    /// and the batch holds more than one CQE; always a permutation of
    /// the input, so exactly-once delivery is policy-independent.
    fn fair_order(&mut self, qp: usize, cqes: &mut Vec<NvmeCompletion>) {
        if !self.fair_reap || cqes.len() <= 1 {
            return;
        }
        let tenants: Vec<u32> = cqes
            .iter()
            .map(|c| {
                self.cid_map
                    .get(&c.cid)
                    .and_then(|&(id, _)| self.ops[id].as_ref())
                    .map_or(DEFAULT_TENANT, |op| op.tenant)
            })
            .collect();
        let order = self.fair.order(qp, &tenants);
        let mut slots: Vec<Option<NvmeCompletion>> = cqes.drain(..).map(Some).collect();
        cqes.extend(
            order
                .into_iter()
                .map(|i| slots[i].take().expect("DRR order is a permutation")),
        );
    }

    /// The completion interrupt: one interrupt entry is charged no
    /// matter how many CQEs it reaps — the coalescing win. Feeds the
    /// adaptive-coalescing controller and the hybrid scheduler.
    fn on_irq_fire(&mut self, qp: usize, driver: &mut dyn ChainDriver) {
        if !self.reaper.irq_due(self.now, qp) {
            return; // stale timer — a newer arm (or a mode switch) superseded it
        }
        let cqes = self.take_reaped(qp);
        if !cqes.is_empty() {
            // MSI-X affinity: the interrupt lands on the queue pair's
            // owning core, not on whichever core is idle.
            let cost = self.costs.irq_entry;
            let _ = self.charge_on(self.qp_core[qp], cost);
            self.trace.drv += cost;
            self.trace.irqs += 1;
            self.reaper.charge_irq(cost);
        }
        let reaped = self.complete_reaped(qp, cqes, driver);
        let load = self.sample_load(qp, reaped);
        self.reaper
            .note_reap(self.now, qp, reaped, load, ReapKind::Interrupt);
        self.arm_reap(qp);
    }

    /// One poller visit: pay the poll-loop cost on the owning core
    /// whether or not anything has posted (an empty visit is the
    /// polling tax), reap what has, and re-arm while the queue pair
    /// has commands in flight.
    fn on_poll(&mut self, qp: usize, driver: &mut dyn ChainDriver) {
        if !self.reaper.poll_due(self.now, qp) {
            return; // stale visit — the pair switched to interrupts
        }
        let cost = self.costs.poll_loop;
        let end = self.charge_on(self.qp_core[qp], cost);
        self.trace.poll += cost;
        self.trace.polls += 1;
        let reaped = self.reap_qp(qp, driver);
        self.reaper.charge_poll(cost, reaped == 0);
        if reaped == 0 {
            self.transport.device_mut().record_empty_poll();
        }
        let load = self.sample_load(qp, reaped);
        self.reaper
            .note_reap(self.now, qp, reaped, load, ReapKind::Polled);
        match self.reaper.active(qp) {
            ReapKind::Polled => {
                if self.transport.outstanding(qp) > 0 || self.has_stalled(qp) {
                    // Next visit no sooner than the loop body finishes
                    // on a contended core.
                    let at = end.max(self.now + self.reaper.poll_interval());
                    if let Some(at) = self.reaper.arm_poll(qp, at) {
                        self.events.push(at, Ev::Poll { qp });
                    }
                }
            }
            ReapKind::Interrupt => self.arm_reap(qp),
        }
    }

    /// One reaped CQE: fill the op's segment slot (a single-segment
    /// request takes the payload as its buffer outright); when the last
    /// segment lands, assemble the buffer, warm the page cache (per
    /// block, buffered non-recycled requests only), and run the
    /// completion path.
    fn on_cqe(&mut self, c: NvmeCompletion, driver: &mut dyn ChainDriver) {
        let Some((id, seg)) = self.cid_map.remove(&c.cid) else {
            return;
        };
        let Some(op) = self.ops[id].as_mut() else {
            return;
        };
        // Time on the wire (fabric only) is accounted apart from the
        // device bucket so Table 1's device row stays a device row.
        let wire = c.fabric_ns;
        let dev_ns = c.complete_at.saturating_sub(op.submitted_at);
        op.device_ns += dev_ns.saturating_sub(wire);
        if op.seg_data.len() == 1 {
            op.data = c.data;
        } else {
            op.seg_data[seg] = Some(c.data);
        }
        op.segs_pending -= 1;
        let host_capsule = self.fabric && !op.remote_pushdown;
        let tenant = op.tenant as usize;
        let qp = op.thread % self.transport.nr_queues();
        self.sq_inflight[qp][tenant] = self.sq_inflight[qp][tenant].saturating_sub(1);
        let ts = &mut self.tstats[tenant];
        ts.cqes += 1;
        ts.device_ns += dev_ns.saturating_sub(wire);
        self.trace.device += dev_ns.saturating_sub(wire);
        self.trace.fabric_wire += wire;
        if self.barrier_leader == Some(id) {
            // The shared barrier's flush time, re-split across the
            // released fsyncs' tenants at the barrier's completion.
            self.barrier_dev_ns = dev_ns.saturating_sub(wire);
        }
        if host_capsule {
            // Each host-class CQE arrived as a response capsule the
            // initiator must decode.
            let dec = self.costs.fab_decode;
            self.charge(dec);
            self.trace.fabric += dec;
        }
        let op = self.ops[id].as_ref().expect("op");
        if op.segs_pending > 0 {
            return;
        }
        let op = self.ops[id].as_mut().expect("op");
        if op.seg_data.len() > 1 {
            op.data.clear();
            for d in &mut op.seg_data {
                op.data
                    .extend_from_slice(&d.take().expect("all segments completed"));
            }
        }
        op.seg_data.clear();
        // Buffered reads warm the host page cache — except target-
        // resident pushdown completions, whose data lives on the NVMe-oF
        // target and never reached the host.
        if op.kind == OpKind::Read && !op.o_direct && !op.recycled && !op.remote_pushdown {
            let lb = op.file_off / SECTOR_SIZE as u64;
            for (i, block) in op.data.chunks_exact(SECTOR_SIZE).enumerate() {
                self.pagecache.insert((op.ino, lb + i as u64), block);
            }
        }
        self.on_device_done(id, driver);
    }

    fn on_device_done(&mut self, id: usize, driver: &mut dyn ChainDriver) {
        let Some(op_ref) = self.ops[id].as_ref() else {
            return;
        };
        if op_ref.kind != OpKind::Read {
            self.on_write_device_done(id);
            let _ = driver;
            return;
        }
        // Mid-chain invalidation: discard recycled I/O (§4). Over a
        // fabric the target detects it and returns an error capsule.
        if op_ref.mode == DispatchMode::DriverHook && self.aborting_inos.contains(&op_ref.ino) {
            let op = self.ops[id].as_mut().expect("op");
            op.status = Some(ChainStatus::Invalidated);
            if self.target_resident(id) {
                self.send_response_capsule(id, 0);
                return;
            }
            let cost = self.costs.sync_complete();
            let end = self.charge(cost);
            self.account_complete_trace();
            self.events.push(end, Ev::Delivered { op: id });
            return;
        }
        match op_ref.mode {
            DispatchMode::User | DispatchMode::Remote => {
                let cost = self.costs.sync_complete();
                let end = self.charge(cost);
                self.account_complete_trace();
                self.events.push(end, Ev::Delivered { op: id });
            }
            DispatchMode::DriverHook => self.hook_at_driver(id),
            DispatchMode::SyscallHook => self.hook_at_syscall(id),
        }
        let _ = driver;
    }

    fn account_complete_trace(&mut self) {
        self.trace.drv += self.costs.drv_complete;
        self.trace.bio += self.costs.bio_complete;
        self.trace.fs += self.costs.fs_complete;
        self.trace.crossing += self.costs.crossing_exit;
    }

    /// A write chain's device phase finished: either chase the data
    /// CQEs with the fsync flush barrier (whose completion commits the
    /// journal), or unwind the completion path and deliver.
    fn on_write_device_done(&mut self, id: usize) {
        let tenant = self.ops[id].as_ref().expect("op").tenant;
        let bound = self.bound_for(tenant);
        let op = self.ops[id].as_mut().expect("op");
        match op.kind {
            OpKind::WriteData { fsync: true } => {
                // §4 fairness, write-aware: the ordered flush chase is a
                // kernel-side dependent resubmission exactly like a read
                // hop recycle, so it meters against the same per-tenant
                // budget. A write that hits the bound completes as
                // BoundExceeded with its journal transaction uncommitted
                // (crash-before-fsync durability).
                if op.hop + 1 >= bound {
                    op.status = Some(ChainStatus::BoundExceeded);
                    if self.target_resident(id) {
                        // The bound tripped on the target: the verdict
                        // returns as the chain's one response capsule.
                        self.send_response_capsule(id, 0);
                        return;
                    }
                    let cost = self.costs.sync_write_complete();
                    let end = self.charge(cost);
                    self.account_complete_trace();
                    self.events.push(end, Ev::Delivered { op: id });
                    return;
                }
                op.hop += 1;
                let thread = op.thread;
                // Ordered journal commit: the commit record + flush
                // barrier go to the device only after the data CQEs.
                op.kind = OpKind::WriteFlush;
                op.fsync_from = self.now;
                self.note_resubmission(tenant, thread);
                self.commit_log.fsyncs += 1;
                self.tstats[tenant as usize].fsyncs += 1;
                if self.commit_policy.is_grouped() {
                    // Shared barrier: park on the in-flight one or wait
                    // for the next seal — the journal_commit build and
                    // the flush itself are paid once per transaction by
                    // the seal, not per fsync.
                    self.fsync_request_barrier(id);
                    return;
                }
                let cost = self.costs.journal_commit + self.costs.drv_submit;
                let end = self.charge(cost);
                self.trace.journal += self.costs.journal_commit;
                self.trace.drv += self.costs.drv_submit;
                self.events.push(end, Ev::DevSubmit { op: id });
            }
            OpKind::WriteFlush => {
                if self.commit_policy.is_grouped() {
                    self.on_barrier_cqe(id);
                    return;
                }
                // The barrier is durable: the journal transaction
                // commits, then the completion path unwinds. The
                // commit log and fsync-latency histogram are pure
                // observation here — one commit per fsync, no new
                // charges or events, bit-for-bit the historical path.
                let committed_before = self.fs.journal().committed_records().len();
                let handles = self.fs.commit_journal();
                let records = self.fs.journal().committed_records().len() - committed_before;
                let op = self.ops[id].as_ref().expect("op");
                let (tenant, lat) = (op.tenant, self.now.saturating_sub(op.fsync_from));
                self.commit_log.absorb(CommitStats {
                    handles,
                    records,
                    barrier_ns: lat,
                });
                self.fsync_lat.record(lat);
                self.tstats[tenant as usize].fsync_latency.record(lat);
                self.complete_write(id);
            }
            OpKind::WriteData { fsync: false } => {
                self.maybe_arm_writeback();
                self.complete_write(id);
            }
            OpKind::Read => unreachable!("read handled by on_device_done"),
        }
    }

    /// Routes one fsync's barrier request under a grouped
    /// [`CommitPolicy`]: park on the in-flight barrier when its sealed
    /// transaction already covers the op's records, else join the
    /// window awaiting the next seal.
    fn fsync_request_barrier(&mut self, id: usize) {
        let (tenant, journal_end) = {
            let op = self.ops[id].as_ref().expect("op");
            (op.tenant, op.journal_end)
        };
        if self.barrier_leader.is_some() {
            if journal_end <= self.barrier_seal_end {
                // The committing transaction covers this fsync's
                // records: its CQE makes them durable, so ride it.
                self.barrier_joined.push(id);
                self.commit_log.barrier_joins += 1;
                self.tstats[tenant as usize].barrier_joins += 1;
            } else {
                // Records landed after the seal — they need the *next*
                // transaction, chained at the in-flight barrier's CQE.
                self.window.push(id);
                self.window_due = true;
            }
            return;
        }
        self.window.push(id);
        match self.commit_policy {
            CommitPolicy::Group {
                max_wait_us,
                max_handles,
            } => {
                if self.window.len() >= max_handles.max(1) as usize {
                    self.seal_and_issue(false);
                } else if !self.window_timer_armed {
                    self.window_timer_armed = true;
                    self.events.push(
                        self.now + max_wait_us.saturating_mul(1_000),
                        Ev::CommitSeal {
                            epoch: self.window_epoch,
                        },
                    );
                }
            }
            // Writeback batches opportunistically (joins + chaining)
            // but an explicit fsync never waits for company.
            CommitPolicy::Writeback { .. } => self.seal_and_issue(false),
            CommitPolicy::PerFsync => unreachable!("per-fsync never windows"),
        }
    }

    /// Seals the running journal transaction and puts its single flush
    /// barrier on the rings. The first windowed fsync leads — its op
    /// carries the flush through the submission path — and the rest
    /// park on the barrier. A background seal with no windowed fsync
    /// allocates a synthetic kernel op to carry the flush.
    fn seal_and_issue(&mut self, background: bool) {
        debug_assert!(self.barrier_leader.is_none(), "one barrier in flight");
        let sealed = self.fs.seal_journal();
        self.window_epoch += 1;
        self.window_timer_armed = false;
        self.window_due = false;
        let mut waiters = std::mem::take(&mut self.window);
        let leader = if waiters.is_empty() {
            debug_assert!(background, "an fsync-driven seal always has a waiter");
            self.alloc_internal_flush()
        } else {
            waiters.remove(0)
        };
        debug_assert!(self.barrier_joined.is_empty());
        self.barrier_joined = waiters;
        self.barrier_leader = Some(leader);
        self.barrier_seal_end = sealed.end;
        self.barrier_records = sealed.records;
        self.barrier_handles = sealed.handles;
        self.barrier_sealed_at = self.now;
        self.barrier_dev_ns = 0;
        self.barrier_background = background;
        // One amortized commit-record build + driver submission for the
        // whole transaction — the group-commit win.
        let cost = self.costs.journal_commit + self.costs.drv_submit;
        let end = self.charge(cost);
        self.trace.journal += self.costs.journal_commit;
        self.trace.drv += self.costs.drv_submit;
        self.events.push(end, Ev::DevSubmit { op: leader });
    }

    /// Allocates the synthetic op that carries a background writeback
    /// flush: it rides the rings like any flush but is freed silently
    /// at the barrier's CQE — no delivery, no chain counted.
    fn alloc_internal_flush(&mut self) -> usize {
        let token = ChainToken {
            id: self.next_chain_id,
            tenant: DEFAULT_TENANT,
            arg: 0,
            issued: self.now,
        };
        self.next_chain_id += 1;
        let op = Op {
            thread: 0,
            fd: 0,
            tenant: DEFAULT_TENANT,
            ino: 0,
            kind: OpKind::WriteFlush,
            mode: DispatchMode::User,
            origin: Origin::Sync,
            token,
            first_off: 0,
            first_len: 0,
            attempts: 0,
            file_off: 0,
            len: 0,
            hop: 0,
            insns_used: 0,
            ios: 0,
            started: self.now,
            data: Vec::new(),
            device_ns: 0,
            scratch: Vec::new(),
            emitted: Vec::new(),
            status: None,
            o_direct: true,
            seg_data: Vec::new(),
            segs_pending: 0,
            submitted_at: 0,
            phys_target: None,
            recycled: false,
            wr_data: Vec::new(),
            wr_segments: None,
            wr_lb: 0,
            wr_nblocks: 0,
            remote_pushdown: false,
            capsule_joined: false,
            journal_end: 0,
            fsync_from: self.now,
            internal: true,
        };
        self.alloc_op(op)
    }

    /// The shared barrier's CQE: the sealed transaction commits, every
    /// parked fsync releases at once, the flush's device time re-splits
    /// proportionally across their tenants, and the next seal chains
    /// immediately if fsyncs queued up behind the barrier.
    fn on_barrier_cqe(&mut self, id: usize) {
        debug_assert_eq!(
            self.barrier_leader,
            Some(id),
            "only the leader's flush reaps"
        );
        self.fs.commit_journal_sealed();
        self.commit_log.absorb(CommitStats {
            handles: self.barrier_handles,
            records: self.barrier_records,
            barrier_ns: self.now.saturating_sub(self.barrier_sealed_at),
        });
        if self.barrier_background {
            self.commit_log.writeback_flushes += 1;
        }
        self.barrier_leader = None;
        let joined = std::mem::take(&mut self.barrier_joined);
        let internal = self.ops[id].as_ref().expect("op").internal;
        // Per-tenant §4-style accounting for the shared barrier: the
        // flush's device time was billed to the leader's tenant at its
        // CQE; re-split it evenly across every released fsync's tenant
        // (each already paid its own resubmission charge when its
        // chain flipped to the flush chase).
        let mut parts: Vec<TenantId> = Vec::with_capacity(joined.len() + 1);
        if !internal {
            parts.push(self.ops[id].as_ref().expect("op").tenant);
        }
        for &j in &joined {
            parts.push(self.ops[j].as_ref().expect("op").tenant);
        }
        if !parts.is_empty() && self.barrier_dev_ns > 0 {
            let total = self.barrier_dev_ns;
            let leader_tenant = self.ops[id].as_ref().expect("op").tenant as usize;
            self.tstats[leader_tenant].device_ns =
                self.tstats[leader_tenant].device_ns.saturating_sub(total);
            let share = total / parts.len() as u64;
            let rem = total - share * parts.len() as u64;
            for (i, &t) in parts.iter().enumerate() {
                self.tstats[t as usize].device_ns += share + if i == 0 { rem } else { 0 };
            }
        }
        self.barrier_dev_ns = 0;
        // One return capsule acks every target-resident fsync this
        // barrier releases: the first release sends it, the rest join.
        self.barrier_ack_pending = true;
        self.barrier_ack_arrive = None;
        if internal {
            self.free_op(id);
        } else {
            self.record_fsync_latency(id);
            self.complete_write(id);
        }
        for j in joined {
            self.record_fsync_latency(j);
            self.complete_write(j);
        }
        self.barrier_ack_pending = false;
        self.barrier_ack_arrive = None;
        // jbd2-style chaining: fsyncs that arrived too late for this
        // transaction seal the next one right away.
        if self.window_due && !self.window.is_empty() {
            self.seal_and_issue(false);
        } else {
            self.window_due = false;
        }
    }

    fn record_fsync_latency(&mut self, id: usize) {
        let op = self.ops[id].as_ref().expect("op");
        let (tenant, lat) = (op.tenant, self.now.saturating_sub(op.fsync_from));
        self.fsync_lat.record(lat);
        self.tstats[tenant as usize].fsync_latency.record(lat);
    }

    /// The group-commit window timer: seal now, or defer to the
    /// in-flight barrier's CQE. Stale epochs never reach here — they
    /// are skipped at pop time.
    fn on_commit_seal(&mut self) {
        self.window_timer_armed = false;
        if self.barrier_leader.is_some() {
            self.window_due = true;
        } else if !self.window.is_empty() {
            self.seal_and_issue(false);
        }
    }

    /// Under [`CommitPolicy::Writeback`], (re-)arms the background
    /// flush tick after an un-fsynced write completes. No-op under the
    /// other policies, so the default path stays event-free.
    fn maybe_arm_writeback(&mut self) {
        let CommitPolicy::Writeback { flush_interval_us } = self.commit_policy else {
            return;
        };
        if self.wb_armed {
            return;
        }
        self.wb_armed = true;
        self.events.push(
            self.now + flush_interval_us.saturating_mul(1_000).max(1),
            Ev::WritebackTick {
                epoch: self.wb_epoch,
            },
        );
    }

    /// The background writeback timer: flush un-fsynced journal records
    /// with a background-sealed barrier. While a barrier is already in
    /// flight the tick re-arms and checks again next period; once the
    /// journal is clean it stays disarmed until the next un-fsynced
    /// write completes.
    fn on_writeback_tick(&mut self) {
        self.wb_armed = false;
        if self.barrier_leader.is_some() {
            self.maybe_arm_writeback();
            return;
        }
        if !self.window.is_empty() {
            // Shouldn't happen (a windowed fsync seals immediately
            // under writeback), but a seal is always safe.
            self.seal_and_issue(false);
            return;
        }
        if self.fs.journal_dirty() {
            self.seal_and_issue(true);
        }
    }

    fn complete_write(&mut self, id: usize) {
        let op = self.ops[id].as_mut().expect("op");
        op.status = Some(ChainStatus::Written(op.len));
        let (ino, lb, nblocks) = (op.ino, op.wr_lb, op.wr_nblocks);
        // Page-cache coherence: drop any cached copies of the written
        // blocks so buffered readers refetch the new bytes.
        for b in lb..lb + nblocks {
            self.pagecache.invalidate((ino, b));
        }
        if self.target_resident(id) {
            // The commit happened on the NVMe-oF target: the
            // acknowledgement returns as the chain's one response
            // capsule. When a shared barrier releases several pushdown
            // fsyncs at once, the first release carries them all —
            // the rest ride the same capsule ([`Op::capsule_joined`]).
            if let Some(arrive) = self.barrier_ack_arrive {
                self.ops[id].as_mut().expect("op").capsule_joined = true;
                self.events.push(arrive, Ev::CapsuleRx { op: id });
            } else {
                let arrive = self.send_response_capsule(id, 0);
                if self.barrier_ack_pending {
                    self.barrier_ack_arrive = Some(arrive);
                }
            }
            return;
        }
        let cost = self.costs.sync_write_complete();
        let end = self.charge(cost);
        self.account_complete_trace();
        self.events.push(end, Ev::Delivered { op: id });
    }

    /// Runs the installed program over the completed block; returns
    /// `(status_if_terminal, resubmit_target, insns)`.
    ///
    /// Execution runs under the owning tenant's *remaining* instruction
    /// budget (its `insn_budget` minus instructions retired by the
    /// chain's earlier hops) — the runtime backstop behind the
    /// verification-time check — and on the engine the machine was
    /// configured with; a program the compiler declined falls back to
    /// the interpreter and is counted in [`ExecSplit::fallbacks`].
    fn run_hook_program(&mut self, id: usize) -> (Option<ChainStatus>, Option<u64>, u64) {
        let op = self.ops[id].as_mut().expect("op exists");
        // Tenant budget, engine, and clock are read before the install
        // borrow: the remaining budget follows the tenant's *current*
        // limits, so tightening them mid-stream binds running chains.
        let budget = self.tenants[op.tenant as usize]
            .insn_budget
            .map(|b| b.saturating_sub(op.insns_used))
            .unwrap_or(DEFAULT_INSN_BUDGET);
        let engine = self.exec_engine;
        let clock = self.exec_clock.as_ref();
        let mut compiled_hop = false;
        let result = {
            let install = self
                .installs
                .get_mut(&op.fd)
                .and_then(|t| t.attached.and_then(|slot| t.progs.get_mut(&slot)));
            let Some(install) = install else {
                op.status = Some(ChainStatus::VmError("no program attached".to_string()));
                return (
                    Some(ChainStatus::VmError("no program attached".to_string())),
                    None,
                    0,
                );
            };
            let mut env = HookEnv {
                resubmit_to: None,
                resubmit_calls: 0,
                emitted: &mut op.emitted,
            };
            let ctx = RunCtx {
                data: &op.data,
                file_off: op.file_off,
                hop: op.hop,
                flags: install.flags,
                scratch: &mut op.scratch,
            };
            let t0 = clock.map(ExecClock::now);
            let r = match &install.code {
                HookCode::Compiled(cp) => {
                    compiled_hop = true;
                    cp.run_budgeted(budget, ctx, &mut install.maps, &mut env)
                }
                HookCode::Decoded(d) => d.run_budgeted(budget, ctx, &mut install.maps, &mut env),
            };
            let elapsed = t0
                .and_then(|t0| clock.map(|c| c.now().saturating_sub(t0)))
                .unwrap_or(0);
            let t = op.tenant as usize;
            if compiled_hop {
                self.exec.compiled_hops += 1;
                self.exec.compiled_ns += elapsed;
                self.tstats[t].exec.compiled_hops += 1;
                self.tstats[t].exec.compiled_ns += elapsed;
            } else {
                self.exec.interp_hops += 1;
                self.exec.interp_ns += elapsed;
                self.tstats[t].exec.interp_hops += 1;
                self.tstats[t].exec.interp_ns += elapsed;
                if engine == ExecEngine::Compiled {
                    self.exec.fallbacks += 1;
                    self.tstats[t].exec.fallbacks += 1;
                }
            }
            r.map(|out| (out, env.resubmit_to, env.resubmit_calls))
        };
        if let Ok((out, _, _)) = &result {
            op.insns_used += out.insns;
        }
        let ret = match result {
            Err(trap) => {
                let s = ChainStatus::VmError(trap.to_string());
                op.status = Some(s.clone());
                return (Some(s), None, 0);
            }
            Ok((out, resubmit_to, resubmit_calls)) => {
                let insns = out.insns;
                let status = match out.ret {
                    action::ACT_RESUBMIT => {
                        if resubmit_calls == 1 && resubmit_to.is_some() {
                            None // chain continues
                        } else {
                            Some(ChainStatus::VmError(
                                "ACT_RESUBMIT without exactly one resubmit call".to_string(),
                            ))
                        }
                    }
                    action::ACT_EMIT => {
                        if resubmit_calls > 0 {
                            Some(ChainStatus::VmError(
                                "resubmit called but action is EMIT".to_string(),
                            ))
                        } else {
                            Some(ChainStatus::Emitted(op.emitted.clone()))
                        }
                    }
                    action::ACT_PASS => Some(ChainStatus::Pass(op.data.clone())),
                    action::ACT_HALT => Some(ChainStatus::Halted),
                    other => Some(ChainStatus::VmError(format!("unknown action {other}"))),
                };
                (status, resubmit_to, insns)
            }
        };
        op.status = ret.0.clone();
        ret
    }

    /// Schedules terminal delivery of a driver-hook chain after
    /// `hook_cost` of hook-side CPU work: a target-resident chain
    /// returns its outcome as one response capsule over the wire; a
    /// local chain unwinds the completion stack directly.
    fn finish_driver_chain(&mut self, id: usize, hook_cost: Nanos) {
        if self.target_resident(id) {
            self.send_response_capsule(id, hook_cost);
            return;
        }
        let cost = hook_cost + self.costs.sync_complete();
        let end = self.charge(cost);
        self.account_complete_trace();
        self.events.push(end, Ev::Delivered { op: id });
    }

    fn hook_at_driver(&mut self, id: usize) {
        let (terminal, resubmit_to, insns) = self.run_hook_program(id);
        let bpf_cost = self.costs.bpf_exec(insns);
        self.trace.bpf += bpf_cost;
        let tenant = self.ops[id].as_ref().expect("op").tenant;
        let bound = self.bound_for(tenant);
        self.tstats[tenant as usize].bpf_ns += bpf_cost;
        match terminal {
            None => {
                let target = resubmit_to.expect("resubmit target");
                let op = self.ops[id].as_mut().expect("op");
                let nblocks = (op.len as u64).div_ceil(SECTOR_SIZE as u64).max(1);
                // §4 fairness: bound chained resubmissions per tenant.
                if op.hop + 1 >= bound {
                    op.status = Some(ChainStatus::BoundExceeded);
                    self.finish_driver_chain(id, bpf_cost);
                    return;
                }
                // Translate through the extent soft-state cache.
                let ino = op.ino;
                let lb = target / SECTOR_SIZE as u64;
                let cache_cost = self.costs.extent_cache_lookup;
                match self.extcache.lookup(ino, lb) {
                    Some((phys, run)) if run >= nblocks => {
                        // Carry the snapshot's physical target (and the
                        // generation it was taken at) to the recycled
                        // submission — the NVMe layer must never heal a
                        // stale snapshot through live fs metadata.
                        let snap_gen = self.extcache.generation(ino).unwrap_or(0);
                        let op = self.ops[id].as_mut().expect("op");
                        op.file_off = target;
                        op.phys_target = Some((phys, snap_gen));
                        op.hop += 1;
                        let thread = op.thread;
                        self.note_resubmission(tenant, thread);
                        let cost = self.costs.drv_complete
                            + bpf_cost
                            + cache_cost
                            + self.costs.recycle_submit;
                        let end = self.charge(cost);
                        self.trace.drv += self.costs.drv_complete + self.costs.recycle_submit;
                        self.trace.extent_cache += cache_cost;
                        self.events.push(end, Ev::DevSubmit { op: id });
                    }
                    Some(_) => {
                        // Crosses a physical extent boundary: BIO-path
                        // fallback; the buffer goes back to the app.
                        let op = self.ops[id].as_mut().expect("op");
                        op.file_off = target;
                        op.status = Some(ChainStatus::SplitFallback {
                            file_off: target,
                            data: op.data.clone(),
                        });
                        self.trace.extent_cache += cache_cost;
                        self.finish_driver_chain(id, bpf_cost);
                    }
                    None => {
                        let op = self.ops[id].as_mut().expect("op");
                        op.status = Some(ChainStatus::ExtentMiss);
                        self.trace.extent_cache += cache_cost;
                        self.finish_driver_chain(id, bpf_cost);
                    }
                }
            }
            Some(_) => {
                // Terminal: the completion unwinds the full stack once
                // (over a fabric, after the response capsule lands).
                self.finish_driver_chain(id, bpf_cost);
            }
        }
    }

    fn hook_at_syscall(&mut self, id: usize) {
        // Completion unwinds driver → bio → fs, then the hook runs at the
        // syscall dispatch layer.
        let (terminal, resubmit_to, insns) = self.run_hook_program(id);
        let bpf_cost = self.costs.bpf_exec(insns);
        self.trace.bpf += bpf_cost;
        let tenant = self.ops[id].as_ref().expect("op").tenant;
        let bound = self.bound_for(tenant);
        self.tstats[tenant as usize].bpf_ns += bpf_cost;
        let unwind = self.costs.drv_complete + self.costs.bio_complete + self.costs.fs_complete;
        match terminal {
            None => {
                let target = resubmit_to.expect("resubmit target");
                let op = self.ops[id].as_mut().expect("op");
                if op.hop + 1 >= bound {
                    op.status = Some(ChainStatus::BoundExceeded);
                    let cost = unwind + bpf_cost + self.costs.crossing_exit;
                    let end = self.charge(cost);
                    self.trace.drv += self.costs.drv_complete;
                    self.trace.bio += self.costs.bio_complete;
                    self.trace.fs += self.costs.fs_complete;
                    self.trace.crossing += self.costs.crossing_exit;
                    self.events.push(end, Ev::Delivered { op: id });
                    return;
                }
                op.file_off = target;
                op.hop += 1;
                // Reissue skips only the boundary crossing and the app:
                // syscall + fs + bio + driver submission all run again.
                let resubmit = self.costs.syscall
                    + self.costs.fs_submit
                    + self.costs.bio_submit
                    + self.costs.drv_submit;
                let cost = unwind + bpf_cost + resubmit;
                let end = self.charge(cost);
                self.trace.drv += self.costs.drv_complete + self.costs.drv_submit;
                self.trace.bio += self.costs.bio_complete + self.costs.bio_submit;
                self.trace.fs += self.costs.fs_complete + self.costs.fs_submit;
                self.trace.syscall += self.costs.syscall;
                self.events.push(end, Ev::DevSubmit { op: id });
            }
            Some(_) => {
                let cost = unwind + bpf_cost + self.costs.crossing_exit;
                let end = self.charge(cost);
                self.trace.drv += self.costs.drv_complete;
                self.trace.bio += self.costs.bio_complete;
                self.trace.fs += self.costs.fs_complete;
                self.trace.crossing += self.costs.crossing_exit;
                self.events.push(end, Ev::Delivered { op: id });
            }
        }
    }

    fn on_delivered(&mut self, id: usize, driver: &mut dyn ChainDriver) {
        let op = self.ops[id].as_ref().expect("op exists");
        let thread = op.thread;
        let origin = op.origin;
        // User-mode (and remote-initiator) chains may continue from the
        // application; over a fabric every such hop pays a round trip.
        if matches!(op.mode, DispatchMode::User | DispatchMode::Remote) && op.status.is_none() {
            match driver.user_step(thread, &op.token, &op.data) {
                UserNext::Continue(next_off) => {
                    let op = self.ops[id].as_mut().expect("op");
                    op.file_off = next_off;
                    op.hop += 1;
                    match origin {
                        Origin::Sync => {
                            let cost = self.costs.app_think + self.costs.sync_submit();
                            let end = self.charge(cost);
                            self.trace.app += self.costs.app_think;
                            self.account_submit_trace();
                            self.events.push(end, Ev::DevSubmit { op: id });
                        }
                        Origin::Uring => {
                            // Queue the continuation for the next enter.
                            let ur = self.threads[thread].uring.as_mut().expect("uring thread");
                            ur.queue.push(PendingSub::Continue(id));
                            self.uring_cqe_arrived(thread);
                        }
                    }
                    return;
                }
                UserNext::Done => {
                    let op = self.ops[id].as_mut().expect("op");
                    op.status = Some(ChainStatus::Pass(std::mem::take(&mut op.data)));
                }
            }
        }
        // Chain is terminal.
        let op = self.ops[id].as_ref().expect("op");
        let status = op.status.clone().unwrap_or(ChainStatus::IoError);
        let outcome = ChainOutcome {
            thread,
            token: op.token,
            status: status.clone(),
            ios: op.ios,
            attempts: op.attempts,
            latency: self.now.saturating_sub(op.started),
        };
        let verdict = driver.chain_done(thread, &outcome);
        // The retry protocol only applies to failures a re-arm repairs;
        // a RearmRetry verdict for any other status is treated as Done
        // (otherwise a driver retrying successes would loop forever).
        // restart_chain itself declines when the re-arm ioctl fails —
        // retrying against a dead snapshot would burn the budget on a
        // permanent error — in which case the chain completes normally
        // with its failure status.
        if verdict == ChainVerdict::RearmRetry && status.is_rearmable() && self.restart_chain(id) {
            return;
        }
        self.chains += 1;
        let tenant = self.ops[id].as_ref().expect("op").tenant as usize;
        self.tstats[tenant].chains += 1;
        if !status.is_ok() {
            self.errors += 1;
            self.tstats[tenant].errors += 1;
        }
        self.latency.record(outcome.latency);
        self.tstats[tenant].latency.record(outcome.latency);
        let op = self.ops[id].as_ref().expect("op");
        match op.kind {
            OpKind::Read => self.lat_read.record(outcome.latency),
            _ => self.lat_write.record(outcome.latency),
        }
        self.free_op(id);
        match origin {
            Origin::Sync => {
                self.events.push(self.now, Ev::AppStart { thread });
            }
            Origin::Uring => {
                let ur = self.threads[thread].uring.as_mut().expect("uring thread");
                ur.queue.push(PendingSub::NewChain);
                self.uring_cqe_arrived(thread);
            }
        }
    }

    /// The [`ChainVerdict::RearmRetry`] path: rerun the install ioctl's
    /// extent snapshot for the chain's descriptor and restart the
    /// request from its first read with `attempts + 1`. The failed
    /// attempt is absorbed (not counted as a completed chain). Returns
    /// `false` without restarting when the re-arm itself fails (file
    /// gone, program detached) — a permanent error retrying cannot fix.
    fn restart_chain(&mut self, id: usize) -> bool {
        let op = self.ops[id].as_ref().expect("op exists");
        let (thread, fd, origin, mode) = (op.thread, op.fd, op.origin, op.mode);
        // The rearm ioctl itself: boundary crossings, syscall dispatch,
        // and the file system's extent walk.
        let ioctl = self.costs.crossing() + self.costs.syscall + self.costs.fs_submit;
        self.charge(ioctl);
        self.trace.crossing += self.costs.crossing();
        self.trace.syscall += self.costs.syscall;
        self.trace.fs += self.costs.fs_submit;
        if self.rearm(fd).is_err() {
            return false;
        }
        let op = self.ops[id].as_ref().expect("op exists");
        let spec = RetrySpec {
            fd,
            file_off: op.first_off,
            len: op.first_len,
            arg: op.token.arg,
            attempts: op.attempts + 1,
        };
        self.free_op(id);
        self.rearm_retries += 1;
        match origin {
            Origin::Sync => {
                self.start_chain(
                    thread,
                    ChainSpec::Read(crate::chain::ChainStart {
                        fd: spec.fd,
                        file_off: spec.file_off,
                        len: spec.len,
                        arg: spec.arg,
                    }),
                    mode,
                    Origin::Sync,
                    spec.attempts,
                );
            }
            Origin::Uring => {
                let ur = self.threads[thread].uring.as_mut().expect("uring thread");
                ur.queue.push(PendingSub::Retry(spec));
                self.uring_cqe_arrived(thread);
            }
        }
        true
    }

    fn uring_cqe_arrived(&mut self, thread: usize) {
        let ur = self.threads[thread].uring.as_mut().expect("uring thread");
        ur.pending -= 1;
        ur.reaped_since_enter += 1;
        if ur.pending == 0 {
            // The blocked io_uring_enter wakes: charge the exit crossing.
            let cost = self.costs.crossing_exit;
            let end = self.charge(cost);
            self.trace.crossing += self.costs.crossing_exit;
            self.events.push(end, Ev::AppStart { thread });
        }
    }

    fn uring_enter(&mut self, thread: usize, driver: &mut dyn ChainDriver) {
        // Past the deadline, no *new* chains start, but queued
        // continuations and rearm-retries of in-flight logical requests
        // still submit (matching the sync path, which also finishes
        // in-flight work past the deadline).
        let past_deadline = self.now >= self.until;
        let (batch, queue_len) = {
            let ur = self.threads[thread].uring.as_ref().expect("uring");
            (ur.batch, ur.queue.len())
        };
        if past_deadline {
            let ur = self.threads[thread].uring.as_mut().expect("uring");
            ur.queue.retain(|s| !matches!(s, PendingSub::NewChain));
            if ur.queue.is_empty() {
                self.threads[thread].stopped = true;
                return;
            }
        } else if queue_len == 0 {
            // First enter of the run: fill the queue with fresh chains.
            let ur = self.threads[thread].uring.as_mut().expect("uring");
            for _ in 0..batch {
                ur.queue.push(PendingSub::NewChain);
            }
        }
        let queue = {
            let ur = self.threads[thread].uring.as_mut().expect("uring");
            ur.reaped_since_enter = 0;
            std::mem::take(&mut ur.queue)
        };
        let mode = driver.mode();
        let mut submitted: Vec<usize> = Vec::new();
        let mut n_writes: u64 = 0;
        let mut app_work: Nanos = 0;
        for sub in queue {
            match sub {
                PendingSub::NewChain => {
                    // Each SQE in a batch gets its own stream: salt the
                    // fork with a monotone sequence number, not the
                    // (batch-constant) completed-chain counter.
                    let stream = self.rng_streams;
                    self.rng_streams += 1;
                    let mut rng = self.rng.fork(thread as u64 * 6151 + stream);
                    let Some(spec) = driver.next_op(thread, &mut rng) else {
                        continue;
                    };
                    let is_write = matches!(spec, ChainSpec::Write(_));
                    app_work += self.costs.app_think;
                    if let Some(id) = self.start_chain(thread, spec, mode, Origin::Uring, 0) {
                        // Count the class only for accepted SQEs, or
                        // `n_reads = submitted - n_writes` underflows
                        // when a write spec names a bad fd.
                        if is_write {
                            n_writes += 1;
                        }
                        submitted.push(id);
                    }
                }
                PendingSub::Continue(id) => {
                    app_work += self.costs.app_think;
                    submitted.push(id);
                }
                PendingSub::Retry(spec) => {
                    app_work += self.costs.app_think;
                    if let Some(id) = self.start_chain(
                        thread,
                        ChainSpec::Read(crate::chain::ChainStart {
                            fd: spec.fd,
                            file_off: spec.file_off,
                            len: spec.len,
                            arg: spec.arg,
                        }),
                        mode,
                        Origin::Uring,
                        spec.attempts,
                    ) {
                        submitted.push(id);
                    }
                }
            }
        }
        if submitted.is_empty() {
            self.threads[thread].stopped = true;
            return;
        }
        // One crossing for the whole batch; per-SQE kernel work covers
        // the uring + fs + bio + driver submission of each request. The
        // ext4 share of a write SQE splits into allocation + journal
        // append (same total as a read SQE).
        let n_reads = submitted.len() as u64 - n_writes;
        let per_sqe = self.costs.uring_sqe
            + self.costs.fs_submit
            + self.costs.bio_submit
            + self.costs.drv_submit;
        let reap_cost = self.costs.uring_cqe * submitted.len() as u64;
        let cost =
            app_work + self.costs.crossing_enter + per_sqe * submitted.len() as u64 + reap_cost;
        let end = self.charge(cost);
        self.trace.app += app_work;
        self.trace.crossing += self.costs.crossing_enter;
        self.trace.syscall +=
            (self.costs.uring_sqe + self.costs.uring_cqe) * submitted.len() as u64;
        self.trace.fs += self.costs.fs_submit * n_reads + self.costs.wr_fs_submit * n_writes;
        self.trace.journal += self.costs.journal_log * n_writes;
        self.trace.bio += self.costs.bio_submit * submitted.len() as u64;
        self.trace.drv += self.costs.drv_submit * submitted.len() as u64;
        let n = submitted.len() as u32;
        for id in submitted {
            self.events.push(end, Ev::DevSubmit { op: id });
        }
        let ur = self.threads[thread].uring.as_mut().expect("uring");
        ur.pending = n;
    }

    fn on_mutate(&mut self, idx: usize) {
        let m = self.mutations[idx].clone();
        match m {
            Mutation::Relocate { name } => {
                if let Ok(ino) = self.fs.open(&name) {
                    let _ = self
                        .fs
                        .relocate(ino, self.transport.device_mut().store_mut());
                }
            }
            Mutation::Truncate { name, size } => {
                if let Ok(ino) = self.fs.open(&name) {
                    let _ = self
                        .fs
                        .truncate(ino, size, self.transport.device_mut().store_mut());
                }
            }
        }
        // The §4 invalidation hook: unmap events kill the NVMe-layer
        // snapshot and doom in-flight recycled I/Os on that inode.
        self.apply_fs_events();
    }
}
