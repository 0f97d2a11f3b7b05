//! One benchmark run: trials until the time is up, the correctness
//! gates, and the metrics.
//!
//! Every trial builds a fresh session (or tenant group) from the same
//! inputs and runs it for the workload's fixed simulated time, so every
//! trial of a run simulates exactly the same thing. The first trial's
//! [`RunReport`](bpfstor_core::RunReport) gives the simulated metrics;
//! it is also the run's warm-up and is left out of the host metrics.
//! Host speed is the I/Os of all later trials over their summed run
//! time, set-up time the median over them. A traced run alternates
//! untraced and traced trials: the untraced ones give the overhead
//! baseline, the traced ones the host time per layer, and every trial
//! must simulate exactly what the first one did.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use bpfstor_core::{SessionError, SessionStats};
use bpfstor_kernel::{ExtCacheStats, LayerTrace, ReaperStats};
use bpfstor_sim::Histogram;

use crate::quantile::quantile;
use crate::trace::{LayerTotals, Tracer};
use crate::workloads::{Inputs, Trial, Workload, WRITE_BYTES};

/// Fewest trials of each kind a run makes, however short `--seconds`.
const MIN_TRIALS: usize = 3;
/// Direct verifier calls timed per traced run.
const VERIFY_REPEATS: usize = 21;
/// Figure 3b's headline speedup at depth 10 (paper, §3).
const PAPER_FIG3B_SPEEDUP: f64 = 2.5;
/// The repository's calibration bound for the same point.
const FIG3B_SHAPE_BOUND: (f64, f64) = (1.8, 3.2);

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed; every input is generated from it.
    pub seed: u64,
    /// Host seconds to keep running trials for.
    pub seconds: u64,
    /// Traced run: print per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where a traced run writes its spans as JSON lines.
    pub spans_out: Option<PathBuf>,
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run prints.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Chains the run attempted, over every trial.
    pub attempted: u64,
    /// Chains that failed: error statuses (exhausted retries included)
    /// plus check mismatches.
    pub failed: u64,
    /// Correctness gates that did not hold; empty when correct.
    pub gate_failures: Vec<String>,
    /// The run's metrics: end-to-end, or per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// True when every gate held.
    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty()
    }
}

/// Everything a trial's simulation produced, host measurements left
/// out. Two trials of the same inputs must give equal digests.
#[derive(Debug, Clone, PartialEq)]
pub struct SimDigest {
    sim_time: u64,
    chains: u64,
    ios: u64,
    errors: u64,
    latency: [Hist; 4],
    cpu_util: f64,
    device_util: f64,
    trace: LayerTrace,
    device: bpfstor_device::DeviceStats,
    fabric: bpfstor_device::FabricStats,
    initiators: Vec<bpfstor_device::InitiatorStats>,
    extcache: ExtCacheStats,
    resubmissions: u64,
    rearm_retries: u64,
    reaper: ReaperStats,
    commit: bpfstor_kernel::CommitLog,
    hops: u64,
    tenants: Vec<[u64; 6]>,
    stats: SessionStats,
}

/// A histogram's exact summary.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Hist {
    count: u64,
    mean: f64,
    min: u64,
    max: u64,
    p50: u64,
    p99: u64,
}

impl Hist {
    fn of(h: &Histogram) -> Hist {
        Hist {
            count: h.count(),
            mean: h.mean(),
            min: h.min(),
            max: h.max(),
            p50: h.quantile(0.5),
            p99: h.quantile(0.99),
        }
    }
}

impl SimDigest {
    /// The digest of one trial.
    pub fn of(t: &Trial) -> SimDigest {
        let r = &t.report;
        SimDigest {
            sim_time: r.sim_time,
            chains: r.chains,
            ios: r.ios,
            errors: r.errors,
            latency: [
                Hist::of(&r.latency),
                Hist::of(&r.read_latency),
                Hist::of(&r.write_latency),
                Hist::of(&r.fsync_latency),
            ],
            cpu_util: r.cpu_util,
            device_util: r.device_util,
            trace: r.trace,
            device: r.device,
            fabric: r.fabric,
            initiators: r.fabric_initiators.clone(),
            extcache: r.extcache,
            resubmissions: r.resubmissions,
            rearm_retries: r.rearm_retries,
            reaper: r.reaper.clone(),
            commit: r.commit,
            hops: r.exec.hops(),
            tenants: r
                .tenants
                .iter()
                .map(|b| {
                    [
                        b.chains,
                        b.ios,
                        b.errors,
                        b.resubmissions,
                        b.cqes,
                        b.device_ns,
                    ]
                })
                .collect(),
            stats: t.stats,
        }
    }
}

/// Host measurements of one trial.
#[derive(Debug, Clone, Copy)]
struct Sample {
    setup_ns: u64,
    run_ns: u64,
    ios: u64,
    chains: u64,
    hops: u64,
    exec_ns: u64,
    layers: LayerTotals,
}

impl Sample {
    fn of(t: &Trial, layers: LayerTotals) -> Sample {
        Sample {
            setup_ns: t.setup_ns,
            run_ns: t.run_ns,
            ios: t.report.ios,
            chains: t.report.chains,
            hops: t.report.exec.hops(),
            exec_ns: t.report.exec.interp_ns + t.report.exec.compiled_ns,
            layers,
        }
    }
}

/// I/Os per host second over all of `samples`' run phases.
///
/// A sum over the run rather than a median of per-trial rates: the
/// host is shared, and its load moves every trial's speed between a
/// fast and a slow level; the median jumps between the two as their
/// mix shifts, the total moves with the mix.
fn ios_per_s(samples: &[Sample]) -> f64 {
    let ios: u64 = samples.iter().map(|s| s.ios).sum();
    let run_ns: u64 = samples.iter().map(|s| s.run_ns).sum();
    ios as f64 / (run_ns.max(1) as f64 / 1e9)
}

/// Chains attempted and failed over a run's trials.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    attempted: u64,
    errors: u64,
    mismatches: u64,
    retries_exhausted: u64,
}

impl Tally {
    fn add(&mut self, s: &SessionStats) {
        self.attempted += s.completed;
        self.errors += s.errors;
        self.mismatches += s.mismatches;
        self.retries_exhausted += s.retries_exhausted;
    }

    /// Exhausted retries end in an error status, so `errors` already
    /// counts them.
    fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }
}

/// Runs one benchmark run.
///
/// # Errors
///
/// Session construction failures, and a failure to read the process's
/// memory high-water mark.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let err = |e: SessionError| format!("{}: {e}", args.workload.name());
    let inputs = Inputs::generate(args.workload, args.seed);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let tracer = Tracer::shared();
    let mut gates = Gates::default();
    let mut tally = Tally::default();

    let reference = inputs.trial(None).map_err(err)?;
    tally.add(&reference.stats);
    let digest = SimDigest::of(&reference);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let user = match args.workload {
        Workload::BtreeHook => {
            let user = inputs.btree_user_arm().map_err(err)?;
            tally.add(&user.stats);
            gates.check(user.report.chains > 0, "the user arm completed no chain");
            Some(user)
        }
        _ => None,
    };

    while plain.len() < MIN_TRIALS
        || (args.trace && traced.len() < MIN_TRIALS)
        || Instant::now() < deadline
    {
        let trace_this = args.trace && traced.len() < plain.len();
        let trial = inputs.trial(trace_this.then_some(&tracer)).map_err(err)?;
        tally.add(&trial.stats);
        if trace_this {
            gates.check(
                SimDigest::of(&trial) == digest,
                "a traced trial simulated something else than the untraced one",
            );
            let layers = tracer.borrow_mut().take_totals();
            traced.push(Sample::of(&trial, layers));
        } else {
            gates.check(
                SimDigest::of(&trial) == digest,
                "two untraced trials of the same seed simulated different things",
            );
            plain.push(Sample::of(&trial, LayerTotals::default()));
        }
    }

    check_outputs(&mut gates, &inputs, &reference, &tally);
    let mut notes = describe(
        &inputs,
        &reference,
        user.as_ref(),
        &tally,
        plain.len(),
        traced.len(),
    );
    let metrics = if args.trace {
        let verify = time_verifier(&inputs, &mut gates);
        let mut m = host_layers(&plain, &traced, verify);
        m.extend(sim_layers(&reference));
        if let Some(path) = &args.spans_out {
            let file =
                std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
            tracer
                .borrow()
                .write_jsonl(std::io::BufWriter::new(file))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            notes.push(format!("spans written to {}", path.display()));
        }
        m
    } else {
        end_to_end(&plain, &reference)?
    };
    for m in &metrics {
        gates.check(
            m.value.is_finite(),
            &format!("{} is not a finite number", m.name),
        );
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed(),
        gate_failures: gates.failed,
        metrics,
        notes,
    })
}

/// Correctness gates that did not hold, each listed once.
#[derive(Debug, Default)]
struct Gates {
    failed: Vec<String>,
}

impl Gates {
    fn check(&mut self, ok: bool, what: &str) {
        if !ok && !self.failed.iter().any(|f| f == what) {
            self.failed.push(what.to_string());
        }
    }
}

/// The gates on the program's outputs.
fn check_outputs(gates: &mut Gates, inputs: &Inputs, reference: &Trial, tally: &Tally) {
    let (r, s) = (&reference.report, &reference.stats);
    gates.check(
        r.chains > 0 && s.completed > 0,
        "the run completed no chain",
    );
    gates.check(
        tally.mismatches == 0,
        "a checked read returned a wrong value",
    );
    gates.check(
        s.bytes_written == s.writes * WRITE_BYTES as u64,
        "completed writes do not account for the bytes written",
    );
    if inputs.workload.writes() {
        gates.check(s.writes > 0, "the write workload completed no write");
        gates.check(
            r.commit.fsyncs > 0 && r.fsync_latency.count() > 0,
            "the write workload committed no fsync",
        );
    }
    if inputs.workload == Workload::Fabric4Init {
        gates.check(
            r.tenants.len() == inputs.tables.len() && r.tenants.iter().all(|t| t.chains > 0),
            "an initiator completed no chain",
        );
    }
}

/// Times `bpfstor_vm::verify` on the workload's program and scales it
/// to the number of installs the workload's setup makes. Returns
/// `(ms, states)` of verifier work per setup.
fn time_verifier(inputs: &Inputs, gates: &mut Gates) -> (f64, f64) {
    let program = inputs.program();
    let mut ms = Vec::with_capacity(VERIFY_REPEATS);
    let mut states = 0;
    for _ in 0..VERIFY_REPEATS {
        let start = Instant::now();
        let verified = bpfstor_vm::verify(std::hint::black_box(&program));
        ms.push(start.elapsed().as_secs_f64() * 1e3);
        match verified {
            Ok(v) => states = v.states,
            Err(e) => gates.check(false, &format!("the verifier rejected the program: {e}")),
        }
    }
    let installs = inputs.workload.installs() as f64;
    (median(&mut ms) * installs, states as f64 * installs)
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The median of `xs` (mean of the middle two for an even count).
fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn median_of(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&mut samples.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(plain: &[Sample], reference: &Trial) -> Result<Vec<Metric>, String> {
    let r = &reference.report;
    Ok(vec![
        metric("host_ios_per_s", ios_per_s(plain), "IO/s"),
        metric(
            "setup_s",
            median_of(plain, |s| s.setup_ns as f64 / 1e9),
            "s",
        ),
        metric("peak_rss_mib", peak_rss_mib()?, "MiB"),
        metric("sim_iops", r.iops, "IO/s"),
        metric("sim_ops_per_s", r.chains_per_sec, "op/s"),
        metric("sim_p50_us", quantile(&r.latency, 0.5) / 1e3, "us"),
        metric("sim_p99_us", quantile(&r.latency, 0.99) / 1e3, "us"),
    ])
}

/// Host time per layer, from the traced trials.
fn host_layers(plain: &[Sample], traced: &[Sample], verify: (f64, f64)) -> Vec<Metric> {
    let ms = |ns: u64| ns as f64 / 1e6;
    let plain_rate = ios_per_s(plain);
    let traced_rate = ios_per_s(traced);
    vec![
        metric(
            "core.image_ms",
            median_of(traced, |s| ms(s.layers.image_ns)),
            "ms",
        ),
        metric(
            "kernel.install_ms",
            median_of(traced, |s| ms(s.setup_ns - s.layers.image_ns)),
            "ms",
        ),
        metric("vm.verify_ms", verify.0, "ms"),
        metric("vm.verify_states", verify.1, "count"),
        metric(
            "vm.exec_ns_per_hop",
            median_of(traced, |s| ratio(s.exec_ns as f64, s.hops as f64)),
            "ns",
        ),
        metric(
            "core.app_ns_per_chain",
            median_of(traced, |s| ratio(s.layers.app_ns as f64, s.chains as f64)),
            "ns",
        ),
        metric(
            "kernel.self_ns_per_io",
            median_of(traced, |s| {
                let own = s.run_ns.saturating_sub(s.exec_ns + s.layers.app_ns);
                ratio(own as f64, s.ios as f64)
            }),
            "ns",
        ),
        metric(
            "bench.trace_overhead_pct",
            (plain_rate / traced_rate - 1.0) * 100.0,
            "%",
        ),
    ]
}

/// Simulated counts per layer, from the first (untraced) trial.
fn sim_layers(reference: &Trial) -> Vec<Metric> {
    let (r, s) = (&reference.report, &reference.stats);
    let t = &r.trace;
    let chains = r.chains as f64;
    let buckets = [
        ("crossing", t.crossing),
        ("syscall", t.syscall),
        ("fs", t.fs),
        ("bio", t.bio),
        ("drv", t.drv),
        ("device", t.device),
        ("app", t.app),
        ("bpf", t.bpf),
        ("extent_cache", t.extent_cache),
        ("journal", t.journal),
        ("fabric", t.fabric),
        ("fabric_wire", t.fabric_wire),
        ("poll", t.poll),
    ];
    let mut m: Vec<Metric> = buckets
        .iter()
        .map(|&(name, ns)| metric(&format!("trace.{name}_ns_per_io"), t.per_io(ns), "ns"))
        .collect();
    let tenant_chains: Vec<f64> = r.tenants.iter().map(|b| b.chains as f64).collect();
    let mean_chains = tenant_chains.iter().sum::<f64>() / tenant_chains.len().max(1) as f64;
    let min_chains = tenant_chains.iter().copied().fold(f64::INFINITY, f64::min);
    let ext = &r.extcache;
    m.extend([
        metric(
            "device.doorbells_per_io",
            ratio(t.doorbells as f64, t.ios as f64),
            "count",
        ),
        metric(
            "device.irqs_per_io",
            ratio(t.irqs as f64, t.ios as f64),
            "count",
        ),
        metric(
            "device.reap_lag_ns_per_io",
            ratio(r.device.reap_lag_ns as f64, r.device.cqes as f64),
            "ns",
        ),
        metric("device.sq_rejected", r.device.rejected as f64, "count"),
        metric(
            "kernel.resubmissions_per_chain",
            ratio(r.resubmissions as f64, chains),
            "count",
        ),
        metric("kernel.rearm_retries", r.rearm_retries as f64, "count"),
        metric("sim.cpu_util", r.cpu_util, "ratio"),
        metric("device.util", r.device_util, "ratio"),
        metric(
            "kernel.extcache_hit_ratio",
            ratio(ext.hits as f64, (ext.hits + ext.misses) as f64),
            "ratio",
        ),
        metric(
            "vm.hops_per_chain",
            ratio(r.exec.hops() as f64, chains),
            "count",
        ),
        metric(
            "core.hit_ratio",
            ratio(s.hits as f64, (s.hits + s.misses) as f64),
            "ratio",
        ),
        metric(
            "kernel.commit.flushes_per_fsync",
            r.commit.flushes_per_fsync(),
            "ratio",
        ),
        metric(
            "kernel.commit.handles_per_commit",
            r.commit.mean_handles(),
            "count",
        ),
        metric(
            "kernel.commit.fsync_p99_us",
            quantile(&r.fsync_latency, 0.99) / 1e3,
            "us",
        ),
        metric(
            "device.fabric.capsules_per_chain",
            ratio(r.fabric.capsules_sent as f64, chains),
            "count",
        ),
        metric(
            "device.fabric.capsule_stalls",
            r.fabric.capsule_stalls as f64,
            "count",
        ),
        metric(
            "device.fabric.admit_wait_us_per_capsule",
            ratio(
                r.fabric.admit_wait_ns as f64 / 1e3,
                r.fabric.capsules_sent as f64,
            ),
            "us",
        ),
        metric(
            "device.fabric.bytes_tx_per_chain",
            ratio(r.fabric.bytes_tx as f64, chains),
            "B",
        ),
        metric(
            "kernel.tenant.min_share",
            ratio(min_chains, mean_chains),
            "ratio",
        ),
    ]);
    m
}

/// The process's resident-memory high-water mark.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading the memory high-water mark: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Human-readable lines: the configuration, the metrics that only some
/// workloads have, and the paper's reference numbers.
fn describe(
    inputs: &Inputs,
    reference: &Trial,
    user: Option<&Trial>,
    tally: &Tally,
    plain: usize,
    traced: usize,
) -> Vec<String> {
    let r = &reference.report;
    let mut notes = vec![
        format!(
            "workload {} seed {} engine interp (pinned) trials {plain} untraced, {traced} traced",
            inputs.workload.name(),
            inputs.seed
        ),
        format!(
            "sim_latency_samples {} chains over {} simulated ms",
            r.latency.count(),
            r.sim_time as f64 / 1e6
        ),
        format!(
            "failed_frac {} ratio ({} errors, {} exhausted retries, {} mismatches of {} chains)",
            ratio(tally.failed() as f64, tally.attempted as f64),
            tally.errors,
            tally.retries_exhausted,
            tally.mismatches,
            tally.attempted
        ),
    ];
    if inputs.workload.writes() {
        notes.push(format!(
            "sim_fsync_p99_us {} us over {} fsync barriers",
            quantile(&r.fsync_latency, 0.99) / 1e3,
            r.fsync_latency.count()
        ));
    }
    if let Some(user) = user {
        let speedup = r.chains_per_sec / user.report.chains_per_sec;
        let (lo, hi) = FIG3B_SHAPE_BOUND;
        notes.push(format!(
            "sim_speedup_vs_user {speedup} x (paper Figure 3b: ~{PAPER_FIG3B_SPEEDUP}x; \
             repository shape bound [{lo}, {hi}]: {})",
            if (lo..=hi).contains(&speedup) {
                "inside"
            } else {
                "OUTSIDE"
            }
        ));
    }
    if inputs.workload == Workload::YcsbUserFsync {
        let t = &r.trace;
        for (row, ns, paper) in [
            ("kernel crossing", t.crossing, 351),
            ("read syscall", t.syscall, 199),
            ("ext4", t.fs, 2006),
            ("bio", t.bio, 379),
            ("NVMe driver", t.drv, 113),
        ] {
            notes.push(format!(
                "table1 {row:<16} {:>8.1} ns/IO here, paper {paper} ns (512 B read on Optane gen 2)",
                t.per_io(ns)
            ));
        }
    }
    notes.push(
        "reference: the model has no hardware reference beyond the paper's figures".to_string(),
    );
    notes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
