//! At-scale cluster simulation (Figure 13 and beyond).
//!
//! A discrete-event simulation of one or more racks serving a request trace.
//! Each rack runs an instance pool governed by a [`ScalingPolicy`]: the
//! paper's fixed 200-instance cap, or elastic reactive/predictive autoscaling
//! between `min_instances` and `max_instances` with a modelled provisioning
//! delay on every scale-up. Arrivals beyond a bounded scheduler queue are
//! rejected; a front-end load balancer shards arrivals across racks. Runs
//! are specified through [`crate::experiment::ExperimentBuilder`]; with a
//! [`DataLayer`] attached, dispatch is data-aware: the locality balancer
//! routes requests toward the racks holding their object's replicas, and any
//! request started without a local replica is charged the modelled
//! cross-rack fetch (latency and joules).
//! Per-request service times come from the end-to-end model for the platform
//! under test, and cold starts — priced by
//! [`dscs_faas::coldstart::ColdStartModel`] and governed by the configured
//! [`KeepalivePolicy`] (including its prewarm window) — are charged onto the
//! request that finds its function's container cold. DSCS-Serverless
//! platforms cache evicted images on the drive's flash, so their repeat cold
//! starts pull over the P2P path instead of the remote registry.
//!
//! The outputs are the series Figure 13 plots (offered load, queued functions
//! over time, wall-clock request latency over time) plus cold-start counts,
//! autoscaling metrics (scaling lag, peak instances), prewarming metrics
//! (hits, wasted warm-seconds) and per-rack summaries for the at-scale policy
//! sweeps.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use dscs_core::benchmarks::Benchmark;
use dscs_core::endtoend::{EvalOptions, SystemModel};
use dscs_faas::coldstart::{ColdStartModel, ImageSource};
use dscs_platforms::{PlatformKind, PlatformLocation};
use dscs_simcore::events::EventQueue;
use dscs_simcore::quantity::Bytes;
use dscs_simcore::rng::DeterministicRng;
use dscs_simcore::series::TimeSeries;
use dscs_simcore::stats::{Measured, QuantileSketch};
use dscs_simcore::time::{SimDuration, SimTime};

use crate::coldpath::{ColdStartPath, IpcTransport};
use crate::data::DataLayer;
use crate::experiment::ConfigError;
use crate::policy::{
    KeepalivePolicy, KeepaliveState, LoadBalancer, ScalingPolicy, SchedQueue, SchedulerPolicy,
    StartKind,
};
use crate::trace::TraceRequest;

/// Per-rack cluster configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Maximum concurrent function instances per rack (the paper caps both
    /// systems at 200). A [`ScalingPolicy::Fixed`] rack always runs this
    /// many; elastic racks never exceed it.
    pub max_instances: u32,
    /// Minimum instances an elastic rack keeps provisioned (and the pool an
    /// autoscaled rack starts from). Ignored under [`ScalingPolicy::Fixed`].
    pub min_instances: u32,
    /// Scheduler queue depth per rack (requests beyond this are rejected).
    pub queue_depth: usize,
    /// Per-request service-time jitter: multiplicative lognormal sigma.
    pub service_jitter_sigma: f64,
    /// Bucket width for the reported time series.
    pub bucket: SimDuration,
    /// Queue discipline used when an instance frees up.
    pub scheduler: SchedulerPolicy,
    /// Container keepalive policy deciding when invocations run cold.
    pub keepalive: KeepalivePolicy,
    /// How the rack's instance pool grows and shrinks.
    pub scaling: ScalingPolicy,
    /// Modelled delay between a scale-up decision and the new instances
    /// coming online (scale-downs release immediately).
    pub provisioning_delay: SimDuration,
    /// Which modality cold starts pay (see [`ColdStartPath`]). The default,
    /// [`ColdStartPath::FlashReload`], reproduces the historical DSCS
    /// behaviour byte for byte.
    pub cold_path: ColdStartPath,
    /// Per-request IPC transport between the gateway and the function
    /// runtime, charged on every started invocation. The default,
    /// [`IpcTransport::SharedMem`], costs exactly zero.
    pub ipc: IpcTransport,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            max_instances: 200,
            min_instances: 8,
            queue_depth: 10_000,
            service_jitter_sigma: 0.15,
            bucket: SimDuration::from_secs(60),
            scheduler: SchedulerPolicy::Fcfs,
            keepalive: KeepalivePolicy::paper_default(),
            scaling: ScalingPolicy::Fixed,
            provisioning_delay: SimDuration::from_secs(2),
            cold_path: ColdStartPath::default(),
            ipc: IpcTransport::default(),
        }
    }
}

impl ClusterConfig {
    /// Checks the configuration, returning the first violation found: an
    /// invalid scaling policy ([`ScalingPolicy::check`]), or — for elastic
    /// policies — `min_instances` of zero (the rack could never start work)
    /// or above `max_instances`. This is the one validator behind
    /// [`crate::experiment::ExperimentBuilder::build`].
    pub fn check(&self) -> Result<(), ConfigError> {
        self.scaling.check()?;
        self.keepalive.check()?;
        if !matches!(self.scaling, ScalingPolicy::Fixed) {
            if self.min_instances == 0 {
                return Err(ConfigError::ZeroMinInstances);
            }
            if self.min_instances > self.max_instances {
                return Err(ConfigError::MinAboveMax {
                    min: self.min_instances,
                    max: self.max_instances,
                });
            }
        }
        Ok(())
    }
}

/// Result of one cluster simulation (aggregated over all racks).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// The platform simulated.
    pub platform: PlatformKind,
    /// Offered load per bucket (requests per second) — Figure 13a.
    pub offered_rps: Vec<f64>,
    /// Mean per-rack queue depth per bucket — Figure 13b. Each
    /// capacity-affecting event samples its own rack's queue depth, and the
    /// per-rack series merge bucket-wise, so the value reads as "how deep was
    /// a rack's queue when something happened on it" under every balancer.
    pub queued: Vec<f64>,
    /// Mean wall-clock latency per bucket in milliseconds — Figures 13c/13d.
    pub latency_ms: Vec<f64>,
    /// Number of completed requests.
    pub completed: u64,
    /// Number of rejected requests (queue overflow).
    pub rejected: u64,
    /// Number of requests that paid a cold start.
    pub cold_starts: u64,
    /// Total cold-start seconds charged onto invocations (the sum of every
    /// cold-start penalty, before this PR folded into latency only). This is
    /// the quantity the offline-optimal bound in [`crate::optimal`] lower
    /// bounds, so `coldstart_s - bound` is the policy's regret.
    pub coldstart_s: f64,
    /// The subset of [`ClusterReport::coldstart_s`] paid as snapshot
    /// restores (zero unless the run's [`ColdStartPath`] is
    /// [`ColdStartPath::SnapshotRestore`] and a repeat cold start hit).
    pub restore_s: f64,
    /// Per-request IPC transport latency charged across all started
    /// invocations, in seconds (zero under the default
    /// [`IpcTransport::SharedMem`]).
    pub ipc_overhead_s: f64,
    /// Invocations that found a proactively prewarmed instance (hybrid
    /// keepalive with a non-zero head percentile).
    pub prewarm_hits: u64,
    /// Container-idle seconds the keepalive policy held memory warm, summed
    /// over racks.
    pub warm_seconds: f64,
    /// The share of [`ClusterReport::warm_seconds`] held to eviction (or the
    /// end of the run) without a reuse.
    pub wasted_warm_seconds: f64,
    /// Scale-up decisions taken across all racks.
    pub scale_ups: u64,
    /// Scale-down decisions taken across all racks.
    pub scale_downs: u64,
    /// Total seconds racks spent waiting on instance provisioning (the sum
    /// of decision-to-commit delays over all scale-ups).
    pub scaling_lag_s: f64,
    /// Largest provisioned instance count any rack reached.
    pub peak_instances: u32,
    /// Requests that started on a rack holding a replica of their object
    /// (zero when the run has no [`DataLayer`] attached).
    pub locality_hits: u64,
    /// Requests that started on a rack *without* a replica and paid the
    /// modelled cross-rack fetch.
    pub remote_fetches: u64,
    /// Bytes moved across racks by those remote fetches.
    pub cross_rack_bytes: u64,
    /// Total fetch latency charged onto invocations, in seconds.
    pub fetch_latency_s: f64,
    /// Energy attributable to the bytes those fetches moved across racks
    /// (fabric NICs/switches plus the drive-side PCIe hop), in joules —
    /// [`dscs_storage::object_store::RemoteFetchModel::fetch_energy_joules`]
    /// summed over every remote fetch. Zero without a data layer.
    pub fetch_energy_j: f64,
    /// Streaming sketch of all wall-clock latencies (seconds), merged from
    /// the per-rack sketches in rack order. Constant ~16 KiB regardless of
    /// trace length; quantiles carry the sketch's 1% relative-error bound
    /// ([`dscs_simcore::stats::SKETCH_RELATIVE_ACCURACY`]), count/mean/min/
    /// max are exact.
    pub latency_summary: Option<QuantileSketch>,
    /// Total simulated time to drain the trace (wall-clock makespan).
    pub makespan: SimDuration,
    /// Discrete events the simulator processed — a deterministic measure of
    /// engine work for this run (arrivals, completions, scale ticks and
    /// commits).
    pub events: u64,
    /// Host wall-clock seconds the simulation took. A measurement, not a
    /// modelled result: excluded from report equality (see [`Measured`]).
    pub wall_s: Measured,
}

impl ClusterReport {
    /// Mean wall-clock latency over the whole run, in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        self.latency_summary
            .as_ref()
            .map_or(0.0, |s| s.mean() * 1e3)
    }

    /// The p99 wall-clock latency over the whole run, in milliseconds.
    pub fn p99_latency_ms(&self) -> f64 {
        self.latency_summary.as_ref().map_or(0.0, |s| s.p99() * 1e3)
    }

    /// Simulator throughput: events processed per host wall-clock second.
    /// A measurement (varies run to run); zero if the run took no measurable
    /// time.
    pub fn events_per_sec(&self) -> f64 {
        self.wall_s.per_sec(self.events)
    }

    /// Peak queue depth observed (per-bucket mean maximum).
    pub fn peak_queue(&self) -> f64 {
        self.queued.iter().copied().fold(0.0, f64::max)
    }

    /// Fraction of completed requests that found a prewarmed instance.
    pub fn prewarm_hit_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.prewarm_hits as f64 / self.completed as f64
        }
    }

    /// Fraction of started requests that ran on a rack holding a replica of
    /// their object. Zero when the run tracked no data placement.
    pub fn locality_hit_rate(&self) -> f64 {
        let tracked = self.locality_hits + self.remote_fetches;
        if tracked == 0 {
            0.0
        } else {
            self.locality_hits as f64 / tracked as f64
        }
    }
}

/// Per-rack outcome of a run, and the tally the event loop counts into:
/// every cluster-level total in [`ClusterReport`] is folded from these in
/// rack order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RackSummary {
    /// Rack index.
    pub rack: u32,
    /// Requests completed on this rack.
    pub completed: u64,
    /// Requests rejected by this rack's queue.
    pub rejected: u64,
    /// Cold starts paid on this rack.
    pub cold_starts: u64,
    /// Cold-start time charged on this rack.
    pub coldstart: SimDuration,
    /// The subset of `coldstart` this rack paid as snapshot restores.
    pub restore: SimDuration,
    /// Per-request IPC transport time this rack charged.
    pub ipc_overhead: SimDuration,
    /// Prewarm hits on this rack.
    pub prewarm_hits: u64,
    /// Container-idle seconds this rack's keepalive policy held warm.
    pub warm_seconds: f64,
    /// The share of `warm_seconds` held to eviction (or the end of the run)
    /// without a reuse.
    pub wasted_warm_seconds: f64,
    /// Maximum queue depth this rack reached.
    pub peak_queue: usize,
    /// Largest provisioned instance count this rack reached.
    pub peak_instances: u32,
    /// Smallest provisioned instance count this rack reached.
    pub low_instances: u32,
    /// Scale-up decisions this rack took.
    pub scale_ups: u64,
    /// Scale-down decisions this rack took.
    pub scale_downs: u64,
    /// Time this rack spent waiting on instance provisioning.
    pub scaling_lag: SimDuration,
    /// Requests this rack served with a local replica of their object.
    pub locality_hits: u64,
    /// Requests this rack served by fetching the object from a remote rack.
    pub remote_fetches: u64,
    /// Bytes this rack pulled across the fabric for those fetches.
    pub cross_rack_bytes: u64,
    /// Fetch latency this rack charged onto its invocations.
    pub fetch_latency: SimDuration,
    /// Joules this rack's remote fetches spent moving those bytes.
    pub fetch_energy_j: f64,
    /// Mean wall-clock latency of requests completed on this rack, in
    /// milliseconds (zero if the rack completed nothing). Exact.
    pub mean_latency_ms: f64,
    /// p99 wall-clock latency of requests completed on this rack, in
    /// milliseconds (zero if the rack completed nothing), from the rack's
    /// own latency sketch. Cluster-level tails come from *merging* the rack
    /// sketches — never from averaging these per-rack p99s, which
    /// understates the tail whenever racks are skewed.
    pub p99_latency_ms: f64,
}

/// How a run's racks were split across event loops.
///
/// Every run goes through the same event loop, which simulates a contiguous
/// slice of racks against a strided cursor over the sorted trace. Under
/// [`LoadBalancer::RoundRobin`] every arrival's rack is a pure function of
/// its trace index and all simulation state (queues, keepalive ledgers,
/// autoscaling, RNG streams) is per-rack, so each rack is a lane: a loop of
/// its own over every `racks`-th arrival, optionally on its own thread, with
/// the lanes merged deterministically in rack order. Coupled balancers
/// ([`LoadBalancer::LeastLoaded`], [`LoadBalancer::LocalityAware`]) read
/// every rack's load at dispatch time, so one loop simulates all racks over
/// every arrival; the selection is explicit and reported here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSelection {
    /// One loop per rack, merged in rack order. Lane results are identical
    /// regardless of `workers` — threads only change *who* simulates a lane.
    RackParallel {
        /// Worker threads that executed the lanes (capped at the rack count;
        /// 1 means the caller's thread ran every lane inline).
        workers: usize,
    },
    /// One loop over all racks.
    Sequential {
        /// Why the run could not be partitioned into independent rack lanes.
        reason: &'static str,
    },
}

impl EngineSelection {
    /// Whether the run simulated each rack in a lane of its own.
    pub fn is_rack_parallel(&self) -> bool {
        matches!(self, EngineSelection::RackParallel { .. })
    }

    /// The sequential-fallback reason, if the run could not be partitioned.
    pub fn fallback_reason(&self) -> Option<&'static str> {
        match self {
            EngineSelection::RackParallel { .. } => None,
            EngineSelection::Sequential { reason } => Some(reason),
        }
    }
}

/// Heap events of the event loop, each on one rack of the loop's slice
/// (indexed from the slice's first rack). Arrivals are not heap events: the
/// trace is sorted by construction, so arrivals stream into the loop from a
/// cursor and the heap only holds the O(pending) future events.
#[derive(Debug, Clone, Copy)]
enum RackEvent {
    Completion {
        rack: usize,
    },
    /// Periodic autoscaling evaluation on one rack.
    ScaleTick {
        rack: usize,
    },
    /// `add` provisioned instances come online on one rack.
    ScaleCommit {
        rack: usize,
        add: u32,
    },
}

/// Number of benchmarks the per-benchmark cost tables cover.
const BENCHMARKS: usize = Benchmark::ALL.len();

/// Precomputed cold-start penalties for one benchmark.
#[derive(Debug, Clone, Copy)]
struct ColdCosts {
    /// Image pulled from the remote registry (first cold start everywhere).
    remote: SimDuration,
    /// Image reloaded from the drive's flash over the P2P path (repeat cold
    /// starts on in-storage platforms).
    local: SimDuration,
    /// Process snapshot restored from local storage (repeat cold starts
    /// under [`ColdStartPath::SnapshotRestore`]).
    snapshot: SimDuration,
}

struct RackState {
    queue: SchedQueue,
    keepalive: KeepaliveState,
    rng: DeterministicRng,
    busy: u32,
    /// Instances currently provisioned and able to run requests.
    capacity: u32,
    /// Instances requested but still provisioning (in the scale-up pipeline).
    pending: u32,
    /// The rack's counters; [`ClusterSim::finalize`] fills in the keepalive
    /// and latency statistics.
    tally: RackSummary,
    /// Streaming sketch of this rack's wall-clock latencies (seconds).
    latency: QuantileSketch,
}

impl RackState {
    fn load(&self) -> usize {
        self.busy as usize + self.queue.len()
    }
}

/// One event loop's output: its racks' states in rack order, its share of
/// the Figure-13 series, its own clock and event counter.
struct RackRun {
    rack_states: Vec<RackState>,
    offered: TimeSeries,
    queued: TimeSeries,
    latency_series: TimeSeries,
    last_activity: SimTime,
    events: u64,
}

/// Deterministically merges loop outputs covering consecutive rack slices,
/// in rack order: rack states concatenated, series bucket-wise via
/// [`TimeSeries::merge`], the cluster clock as the maximum loop clock, the
/// event counter as the sum. Rack order — not execution order — fixes every
/// floating-point accumulation, so the merge is byte-stable across worker
/// counts.
fn merge_lanes(lanes: Vec<RackRun>) -> RackRun {
    let mut lanes = lanes.into_iter();
    let mut merged = lanes.next().expect("at least one rack");
    for lane in lanes {
        for (acc, series) in [
            (&mut merged.offered, lane.offered),
            (&mut merged.queued, lane.queued),
            (&mut merged.latency_series, lane.latency_series),
        ] {
            acc.merge(&series)
                .expect("rack lanes share bucket width and horizon");
        }
        merged.last_activity = merged.last_activity.max(lane.last_activity);
        merged.events += lane.events;
        merged.rack_states.extend(lane.rack_states);
    }
    merged
}

/// The cluster simulator.
#[derive(Debug)]
pub struct ClusterSim {
    platform: PlatformKind,
    config: ClusterConfig,
    /// Per-benchmark service times, indexed by `Benchmark as usize`.
    service_times: [SimDuration; BENCHMARKS],
    /// Unweighted mean service time over the benchmark suite, used by
    /// predictive autoscaling to convert arrival rates into instance demand.
    mean_service_s: f64,
    /// Per-benchmark cold-start penalties, indexed by `Benchmark as usize`.
    cold_costs: [ColdCosts; BENCHMARKS],
    /// Whether the platform's drive can cache evicted images on flash (the
    /// DSCS-Serverless P2P reload path).
    flash_cache: bool,
}

impl ClusterSim {
    /// Builds a simulator for `platform`, pre-computing per-benchmark service
    /// times from the end-to-end model (median storage latency; queueing, not
    /// the storage tail, dominates at scale) and cold-start penalties from the
    /// container-lifecycle model.
    pub fn new(platform: PlatformKind, config: ClusterConfig) -> Self {
        let system = SystemModel::new();
        let options = EvalOptions {
            quantile: 0.50,
            ..EvalOptions::default()
        };
        let service_times =
            Benchmark::ALL.map(|b| system.evaluate(b, platform, options).total_latency());

        let cold_model = ColdStartModel::default();
        let spec = platform.spec();
        let cold_costs = Benchmark::ALL.map(|b| {
            let bench = b.spec();
            let image: Bytes = bench
                .pipeline()
                .functions
                .iter()
                .map(|f| f.image_size)
                .sum();
            let weights = bench.model(1).weight_bytes();
            let weight_load = cold_model.weight_load_latency(weights, spec.memory_bandwidth);
            ColdCosts {
                remote: cold_model.cold_start_latency(image, ImageSource::RemoteRegistry)
                    + weight_load,
                local: cold_model.cold_start_latency(image, ImageSource::LocalFlash) + weight_load,
                snapshot: cold_model.cold_start_latency(image, ImageSource::SnapshotRestore)
                    + weight_load,
            }
        });

        let mean_service_s = service_times.iter().map(|s| s.as_secs_f64()).sum::<f64>()
            / Benchmark::ALL.len() as f64;

        ClusterSim {
            platform,
            config,
            service_times,
            mean_service_s,
            cold_costs,
            flash_cache: spec.location == PlatformLocation::InStorage,
        }
    }

    /// A copy of this simulator with a different cluster configuration,
    /// reusing the precomputed service times and cold-start costs (which
    /// depend only on the platform). Policy sweeps use this to avoid
    /// re-evaluating the end-to-end model for every policy cell.
    pub fn reconfigured(&self, config: ClusterConfig) -> ClusterSim {
        ClusterSim {
            platform: self.platform,
            config,
            service_times: self.service_times,
            mean_service_s: self.mean_service_s,
            cold_costs: self.cold_costs,
            flash_cache: self.flash_cache,
        }
    }

    /// The platform this simulator models.
    pub fn platform(&self) -> PlatformKind {
        self.platform
    }

    /// The configuration the simulator runs under.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// The service time used for one benchmark.
    pub fn service_time(&self, benchmark: Benchmark) -> SimDuration {
        self.service_times[benchmark as usize]
    }

    /// The cold-start penalty a first (registry) cold start of `benchmark`
    /// pays on this platform. Identical under every [`ColdStartPath`]: the
    /// first cold start of a function always pays the full registry spawn —
    /// there is no cached image or snapshot to reuse yet.
    pub fn cold_start_cost(&self, benchmark: Benchmark) -> SimDuration {
        self.cold_costs[benchmark as usize].remote
    }

    /// The cold-start penalty a *repeat* cold start of `benchmark` pays on
    /// this platform, under the configured [`ColdStartPath`]:
    ///
    /// * [`ColdStartPath::FreshSpawn`] — the registry spawn again, always.
    /// * [`ColdStartPath::FlashReload`] — on in-storage platforms the image
    ///   reloads from the drive's flash over the P2P path, everywhere else
    ///   it pulls from the remote registry (the historical behaviour).
    /// * [`ColdStartPath::SnapshotRestore`] — the process snapshot captured
    ///   after the first run restores from local storage.
    ///
    /// [`crate::optimal`] consumes this, so the offline bound automatically
    /// prices gaps against the same modality the simulated policy pays.
    pub fn repeat_cold_start_cost(&self, benchmark: Benchmark) -> SimDuration {
        let costs = self.cold_costs[benchmark as usize];
        if !self.reuses_cold_artifacts() {
            costs.remote
        } else if self.config.cold_path == ColdStartPath::SnapshotRestore {
            costs.snapshot
        } else {
            costs.local
        }
    }

    /// Whether a repeat cold start under the configured path reuses what the
    /// function's first cold start on the rack left behind: never for a
    /// fresh spawn, the flash-cached image only where the drive caches one,
    /// the process snapshot always.
    fn reuses_cold_artifacts(&self) -> bool {
        match self.config.cold_path {
            ColdStartPath::FreshSpawn => false,
            ColdStartPath::FlashReload => self.flash_cache,
            ColdStartPath::SnapshotRestore => true,
        }
    }

    /// The snapshot-restore penalty for `benchmark` on this platform
    /// (restore stream + page-fault warmup tail + model-weight load),
    /// regardless of the configured path.
    pub fn snapshot_restore_cost(&self, benchmark: Benchmark) -> SimDuration {
        self.cold_costs[benchmark as usize].snapshot
    }

    /// Whether this platform caches evicted images on the drive's flash
    /// (making repeat cold starts cheaper than the first one).
    pub fn caches_images_on_flash(&self) -> bool {
        self.flash_cache
    }

    /// The discrete-event core behind every run. Callers must have validated
    /// the inputs (see [`crate::experiment::validate_run`]);
    /// [`crate::experiment::Experiment`] instances have by construction.
    ///
    /// With a [`DataLayer`] attached, dispatch knows where each request's
    /// object lives: the locality-aware balancer prefers replica racks, and
    /// *any* request that starts on a rack without a replica — under any
    /// balancer — is charged the modelled cross-rack fetch latency, with the
    /// moved bytes, fetch time and fetch energy reported.
    ///
    /// Under [`ScalingPolicy::Fixed`] every rack runs `max_instances` for the
    /// whole trace. Elastic racks start at `min_instances` and are
    /// re-evaluated on their policy's interval; scale-ups come online
    /// `provisioning_delay` later.
    ///
    /// Every run goes through [`ClusterSim::run_loop`]; the balancer decides
    /// how the racks split across loops (see [`EngineSelection`]).
    /// Round-robin runs give each rack a lane of its own — `rack_jobs` worker
    /// threads (0 = all cores, 1 = inline) simulate them — while coupled
    /// balancers run one loop over all racks. Lanes are merged in rack order,
    /// so the report is byte-identical across every `rack_jobs` value.
    pub(crate) fn run_validated(
        &self,
        trace: &[TraceRequest],
        seed: u64,
        racks: u32,
        balancer: LoadBalancer,
        data: Option<&DataLayer>,
        rack_jobs: usize,
    ) -> (ClusterReport, Vec<RackSummary>, EngineSelection) {
        let wall_clock = std::time::Instant::now();
        // Forking consumes the master stream, so take every rack's RNG here,
        // in rack order — lane execution order can then never change which
        // stream a rack gets.
        let mut master = DeterministicRng::seeded(seed);
        let rack_rngs: Vec<DeterministicRng> =
            (0..racks).map(|r| master.fork(u64::from(r))).collect();
        let coupled = |reason| {
            let all = self.run_loop(trace, 0..rack_rngs.len(), 1, &rack_rngs, balancer, data);
            (vec![all], EngineSelection::Sequential { reason })
        };
        let (runs, engine) = match balancer {
            LoadBalancer::RoundRobin => {
                let (lanes, workers) = self.run_lanes(trace, &rack_rngs, data, rack_jobs);
                (lanes, EngineSelection::RackParallel { workers })
            }
            LoadBalancer::LeastLoaded => coupled("least-loaded dispatch reads every rack's load"),
            LoadBalancer::LocalityAware { .. } => {
                coupled("locality spill decisions read every rack's load")
            }
        };
        let (report, summaries) = self.finalize(merge_lanes(runs), wall_clock);
        (report, summaries, engine)
    }

    /// The instance pool every rack starts from.
    fn initial_capacity(&self) -> u32 {
        if matches!(self.config.scaling, ScalingPolicy::Fixed) {
            self.config.max_instances
        } else {
            self.config.min_instances
        }
    }

    fn new_rack_state(&self, rack: u32, rng: DeterministicRng) -> RackState {
        let initial_capacity = self.initial_capacity();
        RackState {
            queue: SchedQueue::new(self.config.scheduler),
            keepalive: KeepaliveState::new(self.config.keepalive),
            rng,
            busy: 0,
            capacity: initial_capacity,
            pending: 0,
            tally: RackSummary {
                rack,
                peak_instances: initial_capacity,
                low_instances: initial_capacity,
                ..Default::default()
            },
            latency: QuantileSketch::new(),
        }
    }

    /// Admits one arrival to `rack`'s scheduler queue, rejecting it when the
    /// queue is full.
    fn admit(&self, rack: &mut RackState, idx: usize, request: &TraceRequest, now: SimTime) {
        if matches!(self.config.scaling, ScalingPolicy::Predictive { .. }) {
            // Predictive scaling estimates demand from offered load, not the
            // (capacity-throttled) start rate.
            rack.keepalive.note_arrival(request.function, now);
        }
        if rack.queue.len() >= self.config.queue_depth {
            rack.tally.rejected += 1;
        } else {
            rack.queue.push(
                idx,
                request.benchmark,
                self.service_times[request.benchmark as usize],
            );
            rack.tally.peak_queue = rack.tally.peak_queue.max(rack.queue.len());
        }
    }

    /// Greedily starts queued requests on `rack`'s free instances, in the
    /// order the scheduler policy dictates, charging cold starts and remote
    /// fetches onto each started invocation. `schedule_completion` receives
    /// the service time of every started request.
    fn start_queued(
        &self,
        rack: &mut RackState,
        now: SimTime,
        trace: &[TraceRequest],
        data: Option<&DataLayer>,
        latency_series: &mut TimeSeries,
        mut schedule_completion: impl FnMut(SimDuration),
    ) {
        while rack.busy < rack.capacity {
            let Some(idx) = rack.queue.pop() else { break };
            let request = &trace[idx];
            let base = self.service_times[request.benchmark as usize];
            let jitter = (self.config.service_jitter_sigma * rack.rng.standard_normal()).exp();
            let mut service = base * jitter;
            // Every started invocation — warm and cold — pays the gateway's
            // IPC transport (zero for the default shared-memory path).
            let ipc_cost = self.config.ipc.per_request_cost();
            service += ipc_cost;
            rack.tally.ipc_overhead += ipc_cost;
            if let Some(data) = data {
                if data.home_rack(idx) == rack.tally.rack {
                    rack.tally.locality_hits += 1;
                } else {
                    // The object lives elsewhere: the invocation carries
                    // the cross-rack fetch before it can execute.
                    let fetch = data.fetch_cost(request.object_bytes);
                    service += fetch.latency;
                    rack.tally.remote_fetches += 1;
                    rack.tally.cross_rack_bytes += request.object_bytes.as_u64();
                    rack.tally.fetch_latency += fetch.latency;
                    rack.tally.fetch_energy_j += fetch.energy_j;
                }
            }
            // One keepalive slot lookup decides warm or cold and records the
            // invocation with the cold-start penalty added.
            let service = rack.keepalive.start(request.function, now, |kind| {
                let penalty = match kind {
                    StartKind::Warm => return service,
                    // A repeat cold start reuses whatever the function's
                    // first cold start left behind on this rack (the
                    // flash-cached image or the process snapshot) on paths
                    // that reuse it.
                    StartKind::RepeatCold => {
                        let repeat = self.repeat_cold_start_cost(request.benchmark);
                        if self.config.cold_path == ColdStartPath::SnapshotRestore {
                            rack.tally.restore += repeat;
                        }
                        repeat
                    }
                    StartKind::FirstCold => self.cold_start_cost(request.benchmark),
                };
                rack.tally.cold_starts += 1;
                rack.tally.coldstart += penalty;
                service + penalty
            });
            let wait = now.saturating_since(request.arrival);
            let wall = wait + service;
            rack.latency.record(wall.as_secs_f64());
            latency_series.record(request.arrival, wall.as_millis_f64());
            rack.tally.completed += 1;
            rack.busy += 1;
            schedule_completion(service);
        }
    }

    /// The event loop behind every run. It simulates the contiguous slice
    /// `racks` of the cluster, each rack drawing on its stream of `rngs`,
    /// against the arrivals `racks.start, racks.start + stride, …` of the
    /// trace. A round-robin lane is one rack `r` with stride `rngs.len()`;
    /// a coupled run is every rack with stride 1. Arrivals stream from the
    /// cursor (the trace is sorted by construction) against a heap holding
    /// only the O(pending) future completions and scaling events, and win
    /// ties against heap events, preserving the historical event order.
    fn run_loop(
        &self,
        trace: &[TraceRequest],
        racks: Range<usize>,
        stride: usize,
        rngs: &[DeterministicRng],
        balancer: LoadBalancer,
        data: Option<&DataLayer>,
    ) -> RackRun {
        let horizon =
            trace.last().expect("non-empty").arrival - SimTime::ZERO + SimDuration::from_secs(120);
        let mut offered = TimeSeries::new(self.config.bucket, horizon);
        let mut queued = TimeSeries::new(self.config.bucket, horizon);
        let mut latency_series = TimeSeries::new(self.config.bucket, horizon);
        let mut rack_states: Vec<RackState> = racks
            .clone()
            .map(|r| self.new_rack_state(r as u32, rngs[r].clone()))
            .collect();
        let mut heap: EventQueue<RackEvent> = EventQueue::new();
        if let Some(interval) = self.config.scaling.interval() {
            for rack in 0..rack_states.len() {
                heap.schedule(SimTime::ZERO + interval, RackEvent::ScaleTick { rack });
            }
        }
        let mut next_arrival = racks.start;
        let mut last_activity = SimTime::ZERO;
        let mut events: u64 = 0;
        loop {
            let take_arrival = match (
                trace.get(next_arrival).map(|request| request.arrival),
                heap.peek_time(),
            ) {
                (Some(arrival), Some(heap_at)) => arrival <= heap_at,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            events += 1;
            // Events that can free or add capacity (or enqueue work) run the
            // start loop on their rack afterwards; scale ticks only take
            // decisions.
            let (rack, now) = if take_arrival {
                let idx = next_arrival;
                next_arrival += stride;
                let request = &trace[idx];
                let now = request.arrival;
                last_activity = now;
                offered.record_event(now);
                let r = self.dispatch(&rack_states, balancer, idx, data);
                self.admit(&mut rack_states[r], idx, request, now);
                (Some(r), now)
            } else {
                let event = heap.pop().expect("a peeked event pops");
                let now = event.at;
                match event.payload {
                    RackEvent::Completion { rack } => {
                        rack_states[rack].busy -= 1;
                        last_activity = now;
                        (Some(rack), now)
                    }
                    RackEvent::ScaleTick { rack } => {
                        self.scale_decision(&mut rack_states[rack], now, |add| {
                            heap.schedule(
                                now + self.config.provisioning_delay,
                                RackEvent::ScaleCommit { rack, add },
                            );
                        });
                        // A rack keeps ticking while this loop has arrivals
                        // left or the rack still has work.
                        let r = &rack_states[rack];
                        if next_arrival < trace.len() || r.busy > 0 || !r.queue.is_empty() {
                            let interval = self
                                .config
                                .scaling
                                .interval()
                                .expect("ticks only run for elastic policies");
                            heap.schedule(now + interval, RackEvent::ScaleTick { rack });
                        }
                        (None, now)
                    }
                    RackEvent::ScaleCommit { rack, add } => {
                        let r = &mut rack_states[rack];
                        r.pending -= add;
                        r.capacity += add;
                        r.tally.peak_instances = r.tally.peak_instances.max(r.capacity);
                        r.tally.scaling_lag += self.config.provisioning_delay;
                        (Some(rack), now)
                    }
                }
            };
            let Some(r) = rack else { continue };
            self.start_queued(
                &mut rack_states[r],
                now,
                trace,
                data,
                &mut latency_series,
                |service| heap.schedule(now + service, RackEvent::Completion { rack: r }),
            );
            queued.record(now, rack_states[r].queue.len() as f64);
        }
        RackRun {
            rack_states,
            offered,
            queued,
            latency_series,
            last_activity,
            events,
        }
    }

    /// The rack of a loop's slice `states` that `balancer` sends `request`
    /// to.
    fn dispatch(
        &self,
        states: &[RackState],
        balancer: LoadBalancer,
        idx: usize,
        data: Option<&DataLayer>,
    ) -> usize {
        let least_loaded = || {
            states
                .iter()
                .enumerate()
                .min_by_key(|(i, rack)| (rack.load(), *i))
                .map(|(i, _)| i)
                .expect("at least one rack")
        };
        match balancer {
            // Round-robin sends trace index `i` to rack `i % racks`, so a
            // round-robin loop is a lane owning exactly the rack its stride
            // visits.
            LoadBalancer::RoundRobin => 0,
            // Coupled balancers run one loop over every rack, so slice
            // indices are cluster rack indices.
            LoadBalancer::LeastLoaded => least_loaded(),
            LoadBalancer::LocalityAware { spill_threshold } => {
                // Prefer the rack holding the request's object (every
                // replica stays in its home rack); once its queue exceeds
                // the spill threshold — or is full, which would reject the
                // request outright — the fetch is cheaper than the wait, so
                // fall back to least-loaded. Without a data layer there is
                // no placement to honour.
                let local = data.map(|d| d.home_rack(idx) as usize);
                let saturated = spill_threshold.min(self.config.queue_depth.saturating_sub(1));
                match local {
                    Some(r) if states[r].queue.len() <= saturated => r,
                    _ => least_loaded(),
                }
            }
        }
    }

    /// Runs every rack lane of a round-robin run, on `rack_jobs` worker
    /// threads (0 = one per available core, 1 = inline on the caller's
    /// thread; always capped at the rack count). Returns the lanes in rack
    /// order plus the worker count actually used.
    fn run_lanes(
        &self,
        trace: &[TraceRequest],
        rack_rngs: &[DeterministicRng],
        data: Option<&DataLayer>,
        rack_jobs: usize,
    ) -> (Vec<RackRun>, usize) {
        let racks = rack_rngs.len();
        let lane = |r: usize| {
            self.run_loop(
                trace,
                r..r + 1,
                racks,
                rack_rngs,
                LoadBalancer::RoundRobin,
                data,
            )
        };
        let workers = match rack_jobs {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
        .min(racks)
        .max(1);
        (crate::par::map_ordered(racks, workers, lane), workers)
    }

    /// Turns a merged run into the aggregate report and per-rack summaries,
    /// closing the warm-memory ledgers against the cluster-wide last activity
    /// first.
    fn finalize(
        &self,
        run: RackRun,
        wall_clock: std::time::Instant,
    ) -> (ClusterReport, Vec<RackSummary>) {
        let RackRun {
            mut rack_states,
            offered,
            queued: queued_series,
            latency_series,
            last_activity,
            events,
        } = run;
        // Close the warm-memory ledger: containers still warm at the end of
        // the run held their remaining window without a reuse.
        let makespan = last_activity - SimTime::ZERO;
        let summaries: Vec<RackSummary> = rack_states
            .iter_mut()
            .map(|rack| {
                rack.keepalive.finish_accounting(last_activity);
                let keepalive = rack.keepalive.stats();
                let (mean_latency_ms, p99_latency_ms) = if rack.latency.is_empty() {
                    (0.0, 0.0)
                } else {
                    (rack.latency.mean() * 1e3, rack.latency.p99() * 1e3)
                };
                RackSummary {
                    prewarm_hits: keepalive.prewarm_hits,
                    warm_seconds: keepalive.warm_seconds,
                    wasted_warm_seconds: keepalive.wasted_warm_seconds,
                    mean_latency_ms,
                    p99_latency_ms,
                    ..rack.tally
                }
            })
            .collect();
        // Cluster-level latency: merge the per-rack sketches in rack order.
        // Merging is the correct aggregation — averaging per-rack p99s would
        // understate the cluster tail whenever one rack runs hotter than the
        // rest (the merged p99 tracks the slow rack, the average dilutes it).
        let merged_latency = rack_states
            .iter()
            .fold(QuantileSketch::new(), |mut acc, r| {
                acc.merge(&r.latency);
                acc
            });
        // Every total folds from the summaries in rack order, which fixes
        // the floating-point accumulation order.
        let count = |f: fn(&RackSummary) -> u64| summaries.iter().map(f).sum::<u64>();
        let total = |f: fn(&RackSummary) -> f64| summaries.iter().map(f).sum::<f64>();
        let secs = |f: fn(&RackSummary) -> SimDuration| {
            summaries.iter().map(|r| f(r).as_secs_f64()).sum::<f64>()
        };
        let report = ClusterReport {
            platform: self.platform,
            offered_rps: offered.rates_per_sec(),
            queued: queued_series.means_filled(),
            latency_ms: latency_series.means_filled(),
            completed: count(|r| r.completed),
            rejected: count(|r| r.rejected),
            cold_starts: count(|r| r.cold_starts),
            coldstart_s: secs(|r| r.coldstart),
            restore_s: secs(|r| r.restore),
            ipc_overhead_s: secs(|r| r.ipc_overhead),
            prewarm_hits: count(|r| r.prewarm_hits),
            warm_seconds: total(|r| r.warm_seconds),
            wasted_warm_seconds: total(|r| r.wasted_warm_seconds),
            scale_ups: count(|r| r.scale_ups),
            scale_downs: count(|r| r.scale_downs),
            scaling_lag_s: secs(|r| r.scaling_lag),
            peak_instances: summaries
                .iter()
                .map(|r| r.peak_instances)
                .max()
                .unwrap_or(0),
            locality_hits: count(|r| r.locality_hits),
            remote_fetches: count(|r| r.remote_fetches),
            cross_rack_bytes: count(|r| r.cross_rack_bytes),
            fetch_latency_s: secs(|r| r.fetch_latency),
            fetch_energy_j: total(|r| r.fetch_energy_j),
            latency_summary: if merged_latency.is_empty() {
                None
            } else {
                Some(merged_latency)
            },
            makespan,
            events,
            wall_s: Measured(wall_clock.elapsed().as_secs_f64()),
        };
        (report, summaries)
    }

    /// One autoscaling evaluation on `rack`: reactive policies watch the
    /// queue depth, predictive policies size the pool to the learned
    /// arrival-rate estimate. Scale-ups enter the provisioning pipeline —
    /// `schedule_commit(add)` schedules the commit `provisioning_delay` out
    /// on the caller's heap; scale-downs release
    /// immediately (running requests finish, the freed instances just stop
    /// accepting new work).
    fn scale_decision(
        &self,
        rack: &mut RackState,
        now: SimTime,
        schedule_commit: impl FnOnce(u32),
    ) {
        let (min, max) = (self.config.min_instances, self.config.max_instances);
        match self.config.scaling {
            ScalingPolicy::Fixed => unreachable!("fixed racks never tick"),
            ScalingPolicy::Reactive {
                scale_up_queue,
                scale_down_queue,
                step,
                ..
            } => {
                let provisioned = rack.capacity + rack.pending;
                let depth = rack.queue.len();
                if depth >= scale_up_queue && provisioned < max {
                    let add = step.min(max - provisioned);
                    rack.pending += add;
                    rack.tally.scale_ups += 1;
                    schedule_commit(add);
                } else if depth <= scale_down_queue && rack.capacity > min {
                    let drop = step.min(rack.capacity - min);
                    rack.capacity -= drop;
                    rack.tally.scale_downs += 1;
                    rack.tally.low_instances = rack.tally.low_instances.min(rack.capacity);
                }
            }
            ScalingPolicy::Predictive { interval, headroom } => {
                // Steady-state demand from the learned arrival rate, plus a
                // backlog term sized to drain the current queue within one
                // decision interval — cold-start pileups would otherwise sit
                // behind a pool sized only for warm steady state.
                let rate = rack.keepalive.arrival_rate_estimate(now);
                let steady = rate * self.mean_service_s * headroom;
                let backlog =
                    rack.queue.len() as f64 * self.mean_service_s / interval.as_secs_f64();
                // Saturation escape hatch: warm service times underprice a
                // pool stuck in multi-second cold starts, so a fully busy
                // pool with work still queued doubles instead of trusting
                // the model.
                let provisioned = u64::from(rack.capacity) + u64::from(rack.pending);
                let pressured = if rack.busy >= rack.capacity && !rack.queue.is_empty() {
                    provisioned * 2
                } else {
                    0
                };
                let demand = (steady.max(backlog).ceil() as u64).max(pressured);
                let target = demand.clamp(u64::from(min), u64::from(max)) as u32;
                let provisioned = rack.capacity + rack.pending;
                if target > provisioned {
                    let add = target - provisioned;
                    rack.pending += add;
                    rack.tally.scale_ups += 1;
                    schedule_commit(add);
                } else if target < rack.capacity {
                    rack.capacity = target;
                    rack.tally.scale_downs += 1;
                    rack.tally.low_instances = rack.tally.low_instances.min(rack.capacity);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::trace::RateProfile;
    use dscs_simcore::time::SimDuration;

    fn short_trace(rate: f64, secs: u64, seed: u64) -> Vec<TraceRequest> {
        let profile = RateProfile {
            segments: vec![(SimDuration::from_secs(secs), rate)],
        };
        profile.generate(&mut DeterministicRng::seeded(seed))
    }

    /// One default-configuration single-rack run through the builder API.
    fn run_platform(platform: PlatformKind, trace: &[TraceRequest], seed: u64) -> ClusterReport {
        Experiment::builder(platform)
            .trace(trace.to_vec())
            .seed(seed)
            .build()
            .expect("valid experiment")
            .run()
            .report
    }

    #[test]
    fn all_requests_complete_under_light_load() {
        let trace = short_trace(50.0, 20, 1);
        let report = run_platform(PlatformKind::DscsDsa, &trace, 2);
        assert_eq!(report.completed + report.rejected, trace.len() as u64);
        assert_eq!(report.rejected, 0);
        assert!(report.mean_latency_ms() > 0.0);
    }

    /// Regression for the latent aggregation bug class: cluster tails must
    /// come from *merging* per-rack sketches, never from averaging per-rack
    /// p99s. With one fast rack (100 × 1 ms) and one slow rack (100 × 100 ms)
    /// the true cluster p99 tracks the slow rack (~100 ms) while the average
    /// of the two rack p99s dilutes it to ~50 ms — off by 2x.
    #[test]
    fn cluster_p99_comes_from_merged_rack_sketches_not_averaged_p99s() {
        let fast = QuantileSketch::from_samples(&vec![0.001; 100]);
        let slow = QuantileSketch::from_samples(&vec![0.1; 100]);
        let averaged_p99_ms = (fast.p99() + slow.p99()) / 2.0 * 1e3;
        let mut merged = fast.clone();
        merged.merge(&slow);
        let merged_p99_ms = merged.p99() * 1e3;
        assert!(
            merged_p99_ms > 95.0,
            "merged p99 {merged_p99_ms} ms must track the slow rack"
        );
        assert!(
            averaged_p99_ms < 55.0,
            "averaged p99 {averaged_p99_ms} ms is the wrong answer this test pins out"
        );
        assert!(
            merged_p99_ms > averaged_p99_ms * 1.8,
            "the two aggregations must diverge: merged {merged_p99_ms} vs averaged {averaged_p99_ms}"
        );
    }

    /// The sharded report's latency summary is the merge of the per-rack
    /// sketches: its count equals total completions, the completed-weighted
    /// rack means reproduce the cluster mean exactly, the cluster p99 never
    /// exceeds the worst rack p99 (beyond sketch tolerance), and the
    /// engine-throughput measurements are populated.
    #[test]
    fn sharded_report_merges_rack_sketches_and_measures_throughput() {
        let trace = short_trace(800.0, 30, 7);
        let outcome = Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace.clone())
            .racks(4)
            .balancer(LoadBalancer::RoundRobin)
            .seed(9)
            .build()
            .expect("valid experiment")
            .run();
        let report = &outcome.report;
        let sketch = report.latency_summary.as_ref().expect("ran");
        assert_eq!(sketch.count(), report.completed);
        let weighted_mean_ms = outcome
            .racks
            .iter()
            .map(|r| r.mean_latency_ms * r.completed as f64)
            .sum::<f64>()
            / report.completed as f64;
        assert!(
            (weighted_mean_ms - report.mean_latency_ms()).abs() < 1e-9,
            "weighted rack means {weighted_mean_ms} vs cluster mean {}",
            report.mean_latency_ms()
        );
        let worst_rack_p99 = outcome
            .racks
            .iter()
            .map(|r| r.p99_latency_ms)
            .fold(0.0, f64::max);
        assert!(worst_rack_p99 > 0.0);
        assert!(
            report.p99_latency_ms() <= worst_rack_p99 * 1.03,
            "cluster p99 {} must not exceed the worst rack p99 {worst_rack_p99}",
            report.p99_latency_ms()
        );
        // Every completed request contributes an arrival and a completion.
        assert!(report.events >= 2 * report.completed);
        assert!(report.events_per_sec() > 0.0);
    }

    #[test]
    fn dscs_sustains_more_load_than_the_baseline() {
        // At a load the DSCS cluster absorbs, the baseline CPU cluster builds a
        // queue and its wall-clock latency climbs (Figure 13c vs 13d).
        let trace = short_trace(1500.0, 60, 3);
        let dscs = run_platform(PlatformKind::DscsDsa, &trace, 4);
        let baseline = run_platform(PlatformKind::BaselineCpu, &trace, 4);
        assert!(baseline.peak_queue() > dscs.peak_queue());
        assert!(baseline.mean_latency_ms() > dscs.mean_latency_ms());
    }

    #[test]
    fn baseline_latency_grows_over_time_under_sustained_overload() {
        let trace = short_trace(2500.0, 120, 5);
        let report = run_platform(PlatformKind::BaselineCpu, &trace, 6);
        let series = &report.latency_ms;
        assert!(series.len() >= 2);
        assert!(
            series.last().expect("non-empty") > series.first().expect("non-empty"),
            "latency should climb: {series:?}"
        );
    }

    #[test]
    fn queue_overflow_rejects_requests() {
        let trace = short_trace(500.0, 20, 7);
        let requests = trace.len() as u64;
        let outcome = Experiment::builder(PlatformKind::BaselineCpu)
            .trace(trace)
            .instances(8, 2)
            .queue_depth(10)
            .seed(8)
            .build()
            .expect("fixed racks ignore min_instances")
            .run();
        assert!(outcome.report.rejected > 0);
        assert_eq!(outcome.report.completed + outcome.report.rejected, requests);
    }

    #[test]
    fn service_times_come_from_the_end_to_end_model() {
        let sim = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
        let light = sim.service_time(Benchmark::CreditRiskAssessment);
        let heavy = sim.service_time(Benchmark::ConversationalChatbot);
        assert!(heavy > light);
    }

    #[test]
    fn makespan_extends_past_the_trace_when_overloaded() {
        let trace = short_trace(2500.0, 60, 9);
        let report = run_platform(PlatformKind::BaselineCpu, &trace, 10);
        assert!(report.makespan > SimDuration::from_secs(60));
    }

    #[test]
    fn default_keepalive_pays_one_cold_start_per_function() {
        // With the 10-minute fixed window and a 20-second trace, each of the
        // eight benchmark functions runs cold exactly once.
        let trace = short_trace(50.0, 20, 11);
        let report = run_platform(PlatformKind::DscsDsa, &trace, 12);
        assert_eq!(report.cold_starts, 8, "one cold start per function");
    }

    #[test]
    fn no_keepalive_pays_many_more_cold_starts() {
        // Sparse arrivals so invocations rarely overlap.
        let trace = short_trace(5.0, 30, 13);
        let report = Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace.clone())
            .keepalive(KeepalivePolicy::NoKeepalive)
            .seed(14)
            .build()
            .expect("valid experiment")
            .run()
            .report;
        let warm = run_platform(PlatformKind::DscsDsa, &trace, 14);
        assert!(
            report.cold_starts > warm.cold_starts * 3,
            "no-keepalive {} vs fixed {}",
            report.cold_starts,
            warm.cold_starts
        );
        assert!(report.mean_latency_ms() > warm.mean_latency_ms());
    }

    /// The per-benchmark cost tables are indexed by `Benchmark as usize`,
    /// which must be the benchmark's position in `Benchmark::ALL`.
    #[test]
    fn benchmark_discriminants_are_their_suite_positions() {
        for (i, b) in Benchmark::ALL.into_iter().enumerate() {
            assert_eq!(b as usize, i, "{b}");
        }
    }

    #[test]
    fn flash_caching_makes_dscs_repeat_cold_starts_cheaper() {
        let sim = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
        let costs = sim.cold_costs[Benchmark::CreditRiskAssessment as usize];
        assert!(costs.local < costs.remote);
        // The baseline CPU never caches on drive flash.
        let cpu = ClusterSim::new(PlatformKind::BaselineCpu, ClusterConfig::default());
        assert!(!cpu.flash_cache);
        assert!(sim.flash_cache);
    }

    /// One function invoked `k` times, far apart, on one rack with no
    /// keepalive: the first cold start pays the registry spawn and every
    /// later one pays exactly the configured path's repeat price, on every
    /// platform. Only snapshot repeats count as restores.
    #[test]
    fn repeat_cold_starts_pay_the_configured_path_price_exactly() {
        let k: u64 = 5;
        let benchmark = Benchmark::ALL[0];
        let trace: Vec<TraceRequest> = (0..k)
            .map(|i| TraceRequest {
                arrival: SimTime::ZERO + SimDuration::from_secs(600 * i),
                benchmark,
                function: 0,
                object: 0,
                object_bytes: Bytes::from_kib(64),
            })
            .collect();
        for platform in PlatformKind::ALL {
            for cold_path in ColdStartPath::ALL {
                let sim = ClusterSim::new(
                    platform,
                    ClusterConfig {
                        cold_path,
                        ..ClusterConfig::default()
                    },
                );
                let report = Experiment::builder(platform)
                    .trace(trace.clone())
                    .keepalive(KeepalivePolicy::NoKeepalive)
                    .cold_path(cold_path)
                    .seed(1)
                    .build()
                    .expect("valid experiment")
                    .run()
                    .report;
                // The repeat price, spelled out from the cost table: only an
                // in-storage drive caches the image on its flash.
                let costs = sim.cold_costs[benchmark as usize];
                let repeat = match cold_path {
                    ColdStartPath::FreshSpawn => costs.remote,
                    ColdStartPath::FlashReload
                        if platform.spec().location == PlatformLocation::InStorage =>
                    {
                        costs.local
                    }
                    ColdStartPath::FlashReload => costs.remote,
                    ColdStartPath::SnapshotRestore => costs.snapshot,
                };
                assert_eq!(sim.repeat_cold_start_cost(benchmark), repeat);
                let repeats = repeat * (k - 1);
                let label = format!("{platform:?}/{}", cold_path.name());
                assert_eq!(report.cold_starts, k, "{label}");
                assert_eq!(
                    report.coldstart_s,
                    (sim.cold_start_cost(benchmark) + repeats).as_secs_f64(),
                    "{label}"
                );
                let restored = if cold_path == ColdStartPath::SnapshotRestore {
                    repeats.as_secs_f64()
                } else {
                    0.0
                };
                assert_eq!(report.restore_s, restored, "{label}");
                assert_eq!(
                    report.restore_s > 0.0,
                    cold_path == ColdStartPath::SnapshotRestore,
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn cold_start_costs_are_seconds_scale() {
        let sim = ClusterSim::new(PlatformKind::BaselineCpu, ClusterConfig::default());
        for b in Benchmark::ALL {
            let cost = sim.cold_start_cost(b);
            assert!(
                cost > SimDuration::from_millis(500) && cost < SimDuration::from_secs(120),
                "{b}: {cost}"
            );
        }
    }

    #[test]
    fn sharding_splits_work_and_preserves_totals() {
        let trace = std::sync::Arc::new(short_trace(800.0, 30, 15));
        let sim = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
        for balancer in LoadBalancer::ALL {
            let outcome = Experiment::builder(PlatformKind::DscsDsa)
                .trace(trace.clone())
                .racks(4)
                .balancer(balancer)
                .seed(16)
                .build()
                .expect("valid experiment")
                .run_on(&sim);
            assert_eq!(outcome.racks.len(), 4);
            assert_eq!(
                outcome.report.completed + outcome.report.rejected,
                trace.len() as u64
            );
            let per_rack: Vec<u64> = outcome.racks.iter().map(|r| r.completed).collect();
            assert!(
                per_rack.iter().all(|&c| c > 0),
                "{balancer:?}: every rack serves work: {per_rack:?}"
            );
        }
    }

    #[test]
    fn more_racks_absorb_more_load() {
        // A load that overwhelms one baseline rack is absorbed by four.
        let trace = std::sync::Arc::new(short_trace(2500.0, 60, 17));
        let sim = ClusterSim::new(PlatformKind::BaselineCpu, ClusterConfig::default());
        let sharded = |racks| {
            Experiment::builder(PlatformKind::BaselineCpu)
                .trace(trace.clone())
                .racks(racks)
                .seed(18)
                .build()
                .expect("valid experiment")
                .run_on(&sim)
                .report
        };
        let one = sharded(1);
        let four = sharded(4);
        assert!(four.mean_latency_ms() < one.mean_latency_ms() / 2.0);
        assert!(four.peak_queue() < one.peak_queue());
    }

    #[test]
    fn reactive_scaling_grows_under_load_and_stays_bounded() {
        let trace = short_trace(1500.0, 60, 21);
        let outcome = Experiment::builder(PlatformKind::BaselineCpu)
            .trace(trace)
            .scaling(ScalingPolicy::reactive_default())
            .racks(2)
            .seed(22)
            .build()
            .expect("valid experiment")
            .run();
        let config = ClusterConfig::default();
        let report = &outcome.report;
        assert!(report.scale_ups > 0, "overload must trigger scale-ups");
        assert!(report.scaling_lag_s > 0.0, "scale-ups pay provisioning lag");
        assert!(report.peak_instances > config.min_instances);
        assert!(report.peak_instances <= config.max_instances);
        for rack in &outcome.racks {
            assert!(rack.low_instances >= config.min_instances);
            assert!(rack.peak_instances <= config.max_instances);
        }
    }

    #[test]
    fn reactive_scaling_releases_instances_when_load_fades() {
        // A burst followed by a long quiet tail: the rack must shrink again.
        let profile = RateProfile {
            segments: vec![
                (SimDuration::from_secs(20), 1200.0),
                (SimDuration::from_secs(120), 2.0),
            ],
        };
        let trace = profile.generate(&mut DeterministicRng::seeded(23));
        let outcome = Experiment::builder(PlatformKind::BaselineCpu)
            .trace(trace)
            .scaling(ScalingPolicy::reactive_default())
            .seed(24)
            .build()
            .expect("valid experiment")
            .run();
        assert!(outcome.report.scale_ups > 0);
        assert!(
            outcome.report.scale_downs > 0,
            "quiet tail must release instances"
        );
        assert!(outcome.racks[0].low_instances < outcome.racks[0].peak_instances);
    }

    #[test]
    fn predictive_scaling_tracks_offered_load() {
        let trace = short_trace(1200.0, 60, 25);
        let requests = trace.len() as u64;
        let report = Experiment::builder(PlatformKind::BaselineCpu)
            .trace(trace)
            .scaling(ScalingPolicy::predictive_default())
            .racks(2)
            .seed(26)
            .build()
            .expect("valid experiment")
            .run()
            .report;
        let config = ClusterConfig::default();
        assert!(report.scale_ups > 0, "sustained load must provision");
        assert!(report.peak_instances > config.min_instances);
        assert!(report.peak_instances <= config.max_instances);
        assert_eq!(report.completed + report.rejected, requests);
    }

    #[test]
    fn fixed_scaling_matches_a_pinned_elastic_pool_bit_for_bit() {
        // An autoscaler whose bounds pin the pool at the fixed cap takes the
        // same decisions as no autoscaler at all: every series, summary and
        // rack outcome must be identical, which also proves the scale-tick
        // machinery perturbs neither the RNG stream nor the event ordering.
        let trace = std::sync::Arc::new(short_trace(700.0, 45, 27));
        let base = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
        let experiment = |scaling, min| {
            Experiment::builder(PlatformKind::DscsDsa)
                .trace(trace.clone())
                .scaling(scaling)
                .instances(min, 200)
                .racks(2)
                .balancer(LoadBalancer::LeastLoaded)
                .seed(28)
                .build()
                .expect("valid experiment")
                .run_on(&base)
        };
        let fixed = experiment(ScalingPolicy::Fixed, 8);
        let pinned = experiment(ScalingPolicy::reactive_default(), 200);
        // The pinned pool still runs its scale ticks — extra engine events
        // that never change a decision — so the engine-work counter is the
        // one field allowed to differ.
        let mut pinned_report = pinned.report.clone();
        assert!(pinned_report.events > fixed.report.events);
        pinned_report.events = fixed.report.events;
        assert_eq!(fixed.report, pinned_report);
        assert_eq!(fixed.racks, pinned.racks);
    }

    #[test]
    fn prewarming_reports_hits_and_saves_warm_seconds() {
        let trace = std::sync::Arc::new(short_trace(80.0, 60, 29));
        let base = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
        let run = |keepalive| {
            Experiment::builder(PlatformKind::DscsDsa)
                .trace(trace.clone())
                .keepalive(keepalive)
                .seed(30)
                .build()
                .expect("valid experiment")
                .run_on(&base)
                .report
        };
        let plain = run(KeepalivePolicy::hybrid_default());
        let warmed = run(KeepalivePolicy::prewarm_default());
        assert_eq!(plain.prewarm_hits, 0, "no head percentile, no hits");
        assert!(warmed.prewarm_hits > 0, "prewarmed instances get found");
        assert!(warmed.prewarm_hit_rate() > 0.0);
        assert!(
            warmed.cold_starts <= plain.cold_starts,
            "prewarm {} vs plain {}",
            warmed.cold_starts,
            plain.cold_starts
        );
        assert!(
            warmed.warm_seconds <= plain.warm_seconds,
            "released-then-prewarmed pools hold less memory"
        );
    }

    #[test]
    fn warm_second_accounting_orders_keepalive_policies() {
        // Memory cost: no-keepalive holds nothing, the 10-minute fixed
        // window holds the most, the hybrid histogram sits in between.
        let trace = std::sync::Arc::new(short_trace(40.0, 30, 31));
        let base = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
        let run = |keepalive| {
            Experiment::builder(PlatformKind::DscsDsa)
                .trace(trace.clone())
                .keepalive(keepalive)
                .seed(32)
                .build()
                .expect("valid experiment")
                .run_on(&base)
                .report
        };
        let none = run(KeepalivePolicy::NoKeepalive);
        let fixed = run(KeepalivePolicy::paper_default());
        assert_eq!(none.warm_seconds, 0.0);
        assert!(fixed.warm_seconds > 0.0);
        assert!(fixed.wasted_warm_seconds > 0.0, "final windows are wasted");
        assert!(fixed.wasted_warm_seconds <= fixed.warm_seconds);
    }

    /// A replica rack whose queue is *full* counts as saturated even when
    /// the spill threshold is deeper than the queue: the locality balancer
    /// must spill to an idle rack instead of dispatching into a rejection.
    #[test]
    fn locality_balancer_spills_before_rejecting_at_a_full_replica_rack() {
        use crate::data::DataLayer;
        use dscs_simcore::quantity::Bytes;

        // Every request reads the same object, whose single replica set
        // lives in one rack; the queue (10) is far below the spill
        // threshold (64). 400 near-simultaneous requests fit the two racks'
        // combined instances + queues (2 x (200 + 10)) only if the balancer
        // spills off the full replica rack.
        let trace: Vec<TraceRequest> = (0..400)
            .map(|i| TraceRequest {
                arrival: SimTime::from_nanos(i * 1_000),
                benchmark: Benchmark::ALL[0],
                function: 0,
                object: 0,
                object_bytes: Bytes::from_kib(256),
            })
            .collect();
        let racks = 2;
        let data = DataLayer::for_trace(&trace, racks, 5);
        let outcome = Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace)
            .racks(racks)
            .queue_depth(10)
            .balancer(LoadBalancer::locality_default())
            .data_layer(data)
            .seed(6)
            .build()
            .expect("valid experiment")
            .run();
        let (report, summaries) = (&outcome.report, &outcome.racks);
        assert_eq!(
            report.rejected, 0,
            "two racks hold 420 instance+queue slots for 400 requests; \
             a full replica rack must spill, not reject"
        );
        assert!(
            summaries.iter().all(|r| r.completed > 0),
            "spilling must actually reach the non-replica rack: {summaries:?}"
        );
        assert!(
            report.remote_fetches > 0,
            "spilled requests pay the cross-rack fetch"
        );
        assert!(
            report.fetch_energy_j > 0.0,
            "cross-rack fetches carry an energy charge"
        );
    }

    #[test]
    fn least_loaded_beats_round_robin_under_skewed_service_times() {
        // SJF-free comparison: with heterogeneous service times, least-loaded
        // should never do much worse than round-robin on mean latency.
        let trace = std::sync::Arc::new(short_trace(1800.0, 45, 19));
        let sim = ClusterSim::new(PlatformKind::BaselineCpu, ClusterConfig::default());
        let run = |balancer| {
            Experiment::builder(PlatformKind::BaselineCpu)
                .trace(trace.clone())
                .racks(3)
                .balancer(balancer)
                .seed(20)
                .build()
                .expect("valid experiment")
                .run_on(&sim)
                .report
        };
        let rr = run(LoadBalancer::RoundRobin);
        let ll = run(LoadBalancer::LeastLoaded);
        assert!(ll.mean_latency_ms() <= rr.mean_latency_ms() * 1.05);
    }
}
