//! Pluggable scheduling, keepalive and load-balancing policies.
//!
//! The paper's at-scale evaluation fixes one policy point: FCFS scheduling,
//! a 10-minute fixed keepalive, one rack. Serverless-platform studies (e.g.
//! *Serverless in the Wild*'s hybrid-histogram keepalive) show the policy
//! choice dominates cold-start behaviour and therefore tail latency, so the
//! cluster simulation threads three policy axes through every run:
//!
//! * [`SchedulerPolicy`] — which queued request starts next when an instance
//!   frees up (FCFS, shortest-job-first by model cost, per-benchmark fair).
//! * [`KeepalivePolicy`] — how long an idle function's container stays warm
//!   (none, fixed window, hybrid histogram learned from idle times), including
//!   the histogram's *prewarm window*: the head percentile of observed idle
//!   gaps, below which the container is released and proactively re-warmed in
//!   anticipation of the predicted next invocation.
//! * [`ScalingPolicy`] — how a rack's instance pool grows and shrinks (fixed
//!   cap, reactive queue-depth scaling, predictive scaling from the keepalive
//!   histograms' arrival-rate estimates).
//! * [`LoadBalancer`] — how a multi-rack front end shards arriving requests
//!   (round-robin, least-loaded, data-locality-aware with a spill
//!   threshold).

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, VecDeque};

use serde::{Deserialize, Serialize};

use dscs_core::benchmarks::Benchmark;
use dscs_simcore::fasthash::FastMap;
use dscs_simcore::time::{SimDuration, SimTime};

use crate::experiment::ConfigError;

/// Which queued request is started next when capacity frees up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerPolicy {
    /// First-come-first-served (the paper's policy).
    Fcfs,
    /// Shortest job first, by the platform's modelled service time for the
    /// request's benchmark. Starves heavy benchmarks under overload but
    /// minimises mean latency.
    ShortestJobFirst,
    /// Round-robin over per-benchmark FIFO queues, so one hot application
    /// cannot starve the others.
    FairPerBenchmark,
}

impl SchedulerPolicy {
    /// Every scheduler policy.
    pub const ALL: [SchedulerPolicy; 3] = [
        SchedulerPolicy::Fcfs,
        SchedulerPolicy::ShortestJobFirst,
        SchedulerPolicy::FairPerBenchmark,
    ];

    /// Machine-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerPolicy::Fcfs => "fcfs",
            SchedulerPolicy::ShortestJobFirst => "sjf",
            SchedulerPolicy::FairPerBenchmark => "fair",
        }
    }
}

/// How long an idle function's container stays warm before eviction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum KeepalivePolicy {
    /// Evict immediately: every non-concurrent invocation is a cold start.
    NoKeepalive,
    /// Keep every container warm for a fixed window after its last use
    /// (OpenWhisk-style; the paper assumes 10 minutes).
    FixedWindow(SimDuration),
    /// Hybrid histogram (after *Serverless in the Wild*): learn each
    /// function's idle-time distribution in a per-function histogram and keep
    /// the container warm to the tail percentile of observed idle times,
    /// falling back to `range` while the pattern is uncertain.
    ///
    /// With `head > 0`, the policy also *prewarms*: once a function's pattern
    /// is learned, its container is released at finish (freeing its memory)
    /// and proactively re-warmed at the head percentile of the observed idle
    /// gaps, so the predicted next invocation still finds a warm instance —
    /// the study's head/tail window pair. `head == 0` disables prewarming and
    /// keeps the container warm for the whole eviction window, the pre-PR-3
    /// behaviour.
    HybridHistogram {
        /// Maximum window (and histogram span).
        range: SimDuration,
        /// Histogram bin width.
        bin: SimDuration,
        /// Prewarm head percentile in `[0, 1)`; `0` disables prewarming.
        head: f64,
    },
}

impl KeepalivePolicy {
    /// The paper's fixed 10-minute keepalive.
    pub fn paper_default() -> Self {
        KeepalivePolicy::FixedWindow(SimDuration::from_secs(600))
    }

    /// The default hybrid-histogram configuration (10-minute range, 10-second
    /// bins — scaled-down analogues of the 4-hour/1-minute Azure study),
    /// without prewarming.
    pub fn hybrid_default() -> Self {
        KeepalivePolicy::HybridHistogram {
            range: SimDuration::from_secs(600),
            bin: SimDuration::from_secs(10),
            head: 0.0,
        }
    }

    /// The hybrid histogram with its prewarm window enabled at the study's
    /// 5th-percentile head.
    pub fn prewarm_default() -> Self {
        KeepalivePolicy::HybridHistogram {
            range: SimDuration::from_secs(600),
            bin: SimDuration::from_secs(10),
            head: 0.05,
        }
    }

    /// A representative instance of every keepalive policy.
    pub fn all_default() -> [KeepalivePolicy; 4] {
        [
            KeepalivePolicy::NoKeepalive,
            KeepalivePolicy::paper_default(),
            KeepalivePolicy::hybrid_default(),
            KeepalivePolicy::prewarm_default(),
        ]
    }

    /// Machine-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            KeepalivePolicy::NoKeepalive => "no-keepalive",
            KeepalivePolicy::FixedWindow(_) => "fixed-window",
            KeepalivePolicy::HybridHistogram { head, .. } if *head > 0.0 => "hybrid-prewarm",
            KeepalivePolicy::HybridHistogram { .. } => "hybrid-histogram",
        }
    }

    /// Checks the policy parameters, returning the first violation found.
    /// Today the one typed check is the hybrid histogram's prewarm head:
    /// it must stay *strictly below* the tail percentile the eviction window
    /// is sized from ([`HYBRID_TAIL`]) — a head at or above the tail would
    /// schedule the proactive re-warm at or after the container's own
    /// eviction, so the prewarm could never land. `head ∈ [0, 1)` alone
    /// (the historical assertion) admits that misconfiguration.
    pub fn check(&self) -> Result<(), ConfigError> {
        match self {
            KeepalivePolicy::HybridHistogram { head, .. } if *head >= HYBRID_TAIL => {
                Err(ConfigError::PrewarmHeadAboveTail {
                    head: *head,
                    tail: HYBRID_TAIL,
                })
            }
            _ => Ok(()),
        }
    }

    /// The eviction window a function gets under this policy: learned
    /// from the tail of `histogram` once it is trustworthy, the policy's
    /// conservative default otherwise.
    fn window_for(&self, histogram: &IdleHistogram) -> SimDuration {
        match *self {
            KeepalivePolicy::NoKeepalive => SimDuration::ZERO,
            KeepalivePolicy::FixedWindow(w) => w,
            KeepalivePolicy::HybridHistogram { range, bin, .. } => {
                if !histogram.learned() {
                    // Pattern unknown or too spread: stay conservative so a
                    // warm container is never evicted early.
                    return range;
                }
                let learned = bin * (u64::from(histogram.tail.bin) + 1);
                (learned * HYBRID_MARGIN).min(range)
            }
        }
    }

    /// The prewarm window a function gets under this policy from
    /// `histogram`, capped at its eviction `window`.
    fn prewarm_for(&self, histogram: &IdleHistogram, window: SimDuration) -> SimDuration {
        let KeepalivePolicy::HybridHistogram { bin, head, .. } = *self else {
            return SimDuration::ZERO;
        };
        if head <= 0.0 || !histogram.learned() {
            return SimDuration::ZERO;
        }
        (bin * u64::from(histogram.head.bin)).min(window)
    }
}

/// Default queue depth above which the locality-aware balancer abandons a
/// replica rack and spills to the least-loaded rack.
pub const DEFAULT_SPILL_THRESHOLD: usize = 64;

/// How a multi-rack front end shards arriving requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LoadBalancer {
    /// Rotate through racks in arrival order.
    RoundRobin,
    /// Send each request to the rack with the fewest in-flight plus queued
    /// requests (ties broken by lowest rack index, for determinism).
    LeastLoaded,
    /// Data-locality-aware: prefer the least-loaded rack holding a replica of
    /// the request's object (no cross-rack fetch), but spill to the globally
    /// least-loaded rack — paying the fetch — once the best replica rack's
    /// queue exceeds `spill_threshold`. This is the locality-vs-load tension
    /// the in-storage execution model lives on: data does not move, so either
    /// the request goes to the data or the bytes cross the fabric.
    LocalityAware {
        /// Queue depth at a replica rack beyond which the request spills to
        /// the least-loaded rack instead.
        spill_threshold: usize,
    },
}

impl LoadBalancer {
    /// Every balancer (the locality policy at its default spill threshold).
    pub const ALL: [LoadBalancer; 3] = [
        LoadBalancer::RoundRobin,
        LoadBalancer::LeastLoaded,
        LoadBalancer::LocalityAware {
            spill_threshold: DEFAULT_SPILL_THRESHOLD,
        },
    ];

    /// The locality-aware balancer at its default spill threshold.
    pub fn locality_default() -> Self {
        LoadBalancer::LocalityAware {
            spill_threshold: DEFAULT_SPILL_THRESHOLD,
        }
    }

    /// Machine-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            LoadBalancer::RoundRobin => "round-robin",
            LoadBalancer::LeastLoaded => "least-loaded",
            LoadBalancer::LocalityAware { .. } => "locality",
        }
    }
}

/// How a rack's function-instance pool grows and shrinks.
///
/// The paper pins each rack at a fixed 200-instance cap. Production
/// serverless platforms instead scale the pool elastically: reactively on
/// observed queue pressure, or predictively from learned arrival rates. Both
/// elastic policies respect the rack's `[min_instances, max_instances]`
/// bounds and pay a modelled provisioning delay on every scale-up, so the
/// simulation exposes the scaling-lag vs. cold-start tradeoff.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ScalingPolicy {
    /// The paper's policy: the rack always runs `max_instances`.
    Fixed,
    /// Queue-depth reactive scaling, evaluated every `interval`: grow by
    /// `step` while the queue is at or above `scale_up_queue`, shrink by
    /// `step` while it is at or below `scale_down_queue`.
    Reactive {
        /// Queue depth at or above which the rack requests more instances.
        scale_up_queue: usize,
        /// Queue depth at or below which the rack releases instances.
        scale_down_queue: usize,
        /// Instances added or removed per scaling decision.
        step: u32,
        /// Decision evaluation interval (the policy's reaction lag).
        interval: SimDuration,
    },
    /// Predictive scaling, evaluated every `interval`: size the pool to the
    /// keepalive histograms' aggregate arrival-rate estimate times the mean
    /// modelled service time, padded by `headroom`.
    Predictive {
        /// Decision evaluation interval.
        interval: SimDuration,
        /// Capacity multiplier on the predicted demand (>= 1 keeps slack).
        headroom: f64,
    },
}

impl ScalingPolicy {
    /// The default reactive configuration: react every 5 seconds, grow by 32
    /// instances when 32+ requests queue, shrink when the queue is nearly
    /// empty.
    pub fn reactive_default() -> Self {
        ScalingPolicy::Reactive {
            scale_up_queue: 32,
            scale_down_queue: 2,
            step: 32,
            interval: SimDuration::from_secs(5),
        }
    }

    /// The default predictive configuration: re-estimate every 5 seconds with
    /// 25% capacity headroom over the predicted demand.
    pub fn predictive_default() -> Self {
        ScalingPolicy::Predictive {
            interval: SimDuration::from_secs(5),
            headroom: 1.25,
        }
    }

    /// A representative instance of every scaling policy.
    pub fn all_default() -> [ScalingPolicy; 3] {
        [
            ScalingPolicy::Fixed,
            ScalingPolicy::reactive_default(),
            ScalingPolicy::predictive_default(),
        ]
    }

    /// Machine-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            ScalingPolicy::Fixed => "fixed",
            ScalingPolicy::Reactive { .. } => "reactive",
            ScalingPolicy::Predictive { .. } => "predictive",
        }
    }

    /// The decision interval, or `None` for the fixed cap (which never
    /// re-evaluates).
    pub fn interval(&self) -> Option<SimDuration> {
        match self {
            ScalingPolicy::Fixed => None,
            ScalingPolicy::Reactive { interval, .. }
            | ScalingPolicy::Predictive { interval, .. } => Some(*interval),
        }
    }

    /// Checks the policy parameters, returning the first violation found: a
    /// zero decision interval (the simulation would tick forever without
    /// advancing), a zero reactive step, overlapping reactive thresholds, or
    /// a non-finite / sub-unit predictive headroom.
    pub fn check(&self) -> Result<(), ConfigError> {
        match self {
            ScalingPolicy::Fixed => Ok(()),
            ScalingPolicy::Reactive {
                scale_up_queue,
                scale_down_queue,
                step,
                interval,
            } => {
                if interval.is_zero() {
                    return Err(ConfigError::ZeroScalingInterval { policy: "reactive" });
                }
                if *step == 0 {
                    return Err(ConfigError::ZeroReactiveStep);
                }
                if scale_down_queue >= scale_up_queue {
                    return Err(ConfigError::OverlappingReactiveThresholds {
                        scale_up_queue: *scale_up_queue,
                        scale_down_queue: *scale_down_queue,
                    });
                }
                Ok(())
            }
            ScalingPolicy::Predictive { interval, headroom } => {
                if interval.is_zero() {
                    return Err(ConfigError::ZeroScalingInterval {
                        policy: "predictive",
                    });
                }
                if !(headroom.is_finite() && *headroom >= 1.0) {
                    return Err(ConfigError::InvalidPredictiveHeadroom {
                        headroom: *headroom,
                    });
                }
                Ok(())
            }
        }
    }
}

/// A policy-driven scheduler queue over request indices into a trace.
///
/// All disciplines are deterministic: ties (equal service times, the
/// round-robin cursor) resolve by submission order.
///
/// `len`/`is_empty` are derived from the underlying per-policy structures
/// rather than a separately maintained counter. An earlier revision cached
/// the count and decremented it on pop, which under the fair round-robin
/// policy left the cached value trusting that no per-benchmark subqueue went
/// stale between a drain and the next audit; deriving the count makes the
/// accessors structurally consistent with the subqueues by construction.
#[derive(Debug)]
pub struct SchedQueue {
    policy: SchedulerPolicy,
    fcfs: VecDeque<usize>,
    // SJF: min-heap on (service nanos, submission seq), so equal service
    // times pop in FIFO order.
    sjf: BinaryHeap<Reverse<(u64, u64, usize)>>,
    seq: u64,
    per_bench: Vec<VecDeque<usize>>,
    cursor: usize,
}

impl SchedQueue {
    /// Creates an empty queue under `policy`.
    pub fn new(policy: SchedulerPolicy) -> Self {
        SchedQueue {
            policy,
            fcfs: VecDeque::new(),
            sjf: BinaryHeap::new(),
            seq: 0,
            per_bench: (0..Benchmark::ALL.len()).map(|_| VecDeque::new()).collect(),
            cursor: 0,
        }
    }

    /// Number of queued requests, counted from the live per-policy structures.
    pub fn len(&self) -> usize {
        match self.policy {
            SchedulerPolicy::Fcfs => self.fcfs.len(),
            SchedulerPolicy::ShortestJobFirst => self.sjf.len(),
            SchedulerPolicy::FairPerBenchmark => self.per_bench.iter().map(VecDeque::len).sum(),
        }
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues trace index `idx` for `benchmark` with modelled service time
    /// `service` (used by shortest-job-first ordering).
    pub fn push(&mut self, idx: usize, benchmark: Benchmark, service: SimDuration) {
        match self.policy {
            SchedulerPolicy::Fcfs => self.fcfs.push_back(idx),
            SchedulerPolicy::ShortestJobFirst => {
                self.sjf.push(Reverse((service.as_nanos(), self.seq, idx)));
                self.seq += 1;
            }
            SchedulerPolicy::FairPerBenchmark => {
                self.per_bench[benchmark as usize].push_back(idx);
            }
        }
    }

    /// Removes and returns the next request to start, per the policy.
    pub fn pop(&mut self) -> Option<usize> {
        match self.policy {
            SchedulerPolicy::Fcfs => self.fcfs.pop_front(),
            SchedulerPolicy::ShortestJobFirst => self.sjf.pop().map(|Reverse((_, _, idx))| idx),
            SchedulerPolicy::FairPerBenchmark => {
                let n = self.per_bench.len();
                let mut found = None;
                for step in 0..n {
                    let b = (self.cursor + step) % n;
                    if let Some(idx) = self.per_bench[b].pop_front() {
                        self.cursor = (b + 1) % n;
                        found = Some(idx);
                        break;
                    }
                }
                found
            }
        }
    }
}

/// Runtime warm/cold bookkeeping for one rack under a [`KeepalivePolicy`].
///
/// Tracks, per function id, when its most recent invocation finishes and (for
/// the hybrid policy, or whenever arrival tracking is requested) a histogram
/// of observed idle gaps. The decision rule is conservative in the
/// *Serverless in the Wild* sense: a container is never evicted before the
/// policy's current window for its function has elapsed. With a prewarm head
/// percentile configured, the container is instead *released* at finish and
/// proactively re-warmed at the head percentile of the learned idle gaps —
/// trading a sliver of cold-start risk for the memory the container would
/// have held during the gap the pattern says never sees an arrival.
///
/// The state also keeps the warm-memory ledger the Figure-17-style comparison
/// needs: warm-seconds held per function pool and the share of them wasted
/// (held to eviction without a reuse), plus prewarm hits (invocations that
/// found a proactively warmed instance).
///
/// Each invoked function has one `FunctionSlot` holding its last finish,
/// its histogram and the windows that histogram implies. The histogram keeps
/// its tail and head bins current as it observes each gap (every repeat
/// invocation observes one under the hybrid policy), so refreshing the
/// windows never scans the bins. [`KeepaliveState::start`] decides warm or
/// cold, takes the resulting service time and records the invocation on one
/// slot lookup; the public [`KeepaliveState::is_warm`] /
/// [`KeepaliveState::record_invocation`] pair runs the same slot logic in
/// two lookups.
#[derive(Debug)]
pub struct KeepaliveState {
    policy: KeepalivePolicy,
    slots: FastMap<u32, FunctionSlot>,
    /// Per-function arrival statistics backing the learned arrival-rate
    /// estimate the predictive autoscaler consumes (fed by
    /// [`KeepaliveState::note_arrival`]).
    arrivals: FastMap<u32, ArrivalTrack>,
    /// Whether idle gaps are observed into the histograms (the hybrid
    /// policy's learning signal).
    observe_gaps: bool,
    /// Histogram geometry used for gap observation.
    gap_bin: SimDuration,
    gap_range: SimDuration,
    /// The prewarm head percentile the histograms track (0 without one).
    gap_head: f64,
    stats: KeepaliveStats,
}

/// How a started invocation found its function's container on a rack, as
/// [`KeepaliveState::start`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartKind {
    /// A warm (or still running) container serves the invocation.
    Warm,
    /// The container is cold, but the function started on this rack before:
    /// a repeat cold start, which may reuse what the first one left behind.
    RepeatCold,
    /// The function's first start on this rack.
    FirstCold,
}

/// Keepalive state of one invoked function: when its latest invocation
/// finishes, its idle-gap histogram, and the windows that histogram implies.
#[derive(Debug)]
struct FunctionSlot {
    last_finish: SimTime,
    /// Observed idle gaps (empty unless the policy observes gaps).
    histogram: IdleHistogram,
    /// [`KeepaliveState::window`] as of the latest observed gap.
    window: SimDuration,
    /// [`KeepaliveState::prewarm_window`] as of the latest observed gap.
    prewarm: SimDuration,
}

impl FunctionSlot {
    /// Whether an arrival `idle` after the latest finish finds a warm
    /// container: within the eviction window, and either still running
    /// (zero idle) or past the prewarm point.
    fn warm_after(&self, idle: SimDuration) -> bool {
        idle <= self.window && (idle.is_zero() || idle >= self.prewarm)
    }
}

/// Per-function arrival statistics behind the exponentially-decayed rate
/// estimate: an event counter whose mass decays with time constant
/// [`ARRIVAL_RATE_TAU_S`], so recent arrivals dominate and a diurnal rate
/// shift is tracked within a few time constants instead of being averaged
/// against the whole observed history. (A binned idle-gap mean cannot
/// resolve sub-bin inter-arrivals, which is exactly where demand is highest —
/// the decayed counter resolves them exactly.)
#[derive(Debug, Clone, Copy)]
struct ArrivalTrack {
    count: u64,
    first: SimTime,
    last: SimTime,
    /// Exponentially-decayed arrival mass as of `last`.
    decayed: f64,
}

/// Warm-memory and prewarming counters accumulated by a [`KeepaliveState`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct KeepaliveStats {
    /// Warm starts the prewarm policy *predicted*: invocations of a
    /// learned-pattern function (under a non-zero head percentile) whose
    /// idle gap landed inside the prewarm-to-eviction band. When the
    /// function's prewarm window is non-zero the instance had actually been
    /// released and proactively re-warmed; with a zero window (all gaps
    /// inside the first bin) the prediction is degenerate — the container
    /// was simply kept warm — but the arrival still counts as anticipated.
    pub prewarm_hits: u64,
    /// Total container-idle seconds the policy held memory warm.
    pub warm_seconds: f64,
    /// The subset of [`KeepaliveStats::warm_seconds`] that never led to a
    /// warm start: windows held to eviction (or to the end of the run)
    /// without a reuse.
    pub wasted_warm_seconds: f64,
}

/// Minimum idle-gap observations before the hybrid histogram trusts its
/// learned tail over the conservative full range.
const HYBRID_MIN_SAMPLES: u32 = 10;
/// Fraction of observations the learned window must cover (the study's 99th
/// percentile). Public because it is also the exclusive upper bound on the
/// hybrid histogram's prewarm head percentile ([`KeepalivePolicy::check`]).
pub const HYBRID_TAIL: f64 = 0.99;
/// Safety margin multiplier on the learned tail window.
const HYBRID_MARGIN: f64 = 1.10;
/// Out-of-bounds rate above which the pattern is declared too spread to learn.
const HYBRID_OOB_LIMIT: f64 = 0.10;

/// A function's observed idle gaps. Counts are `u32`: each is bounded by the
/// number of requests in the trace.
#[derive(Debug, Default)]
struct IdleHistogram {
    bins: Vec<u32>,
    total: u32,
    out_of_bounds: u32,
    /// The bin covering [`HYBRID_TAIL`] of the observed mass.
    tail: QuantileBin,
    /// The bin covering the policy's prewarm head percentile.
    head: QuantileBin,
}

/// The first bin whose cumulative count covers a fraction `q` of a
/// histogram's mass, kept current as observations arrive: the bin index and
/// the count in the bins below it.
#[derive(Debug, Default, Clone, Copy)]
struct QuantileBin {
    bin: u32,
    below: u32,
}

impl QuantileBin {
    /// Re-seats the cursor after one observation landed in bin `landed` of
    /// `bins` (whose counts now sum to `total`). The cursor moves one bin at
    /// a time, so the cost is the distance it travels, not the bin count.
    fn observe(&mut self, bins: &[u32], total: u32, q: f64, landed: usize) {
        let (mut bin, mut below) = (self.bin as usize, self.below);
        if landed < bin {
            below += 1;
        }
        // Bin `i` covers `q` once the cumulative count through it reaches
        // `q * total`, compared in f64 exactly as the reference scan does.
        let need = q * f64::from(total);
        while bin > 0 && f64::from(below) >= need {
            bin -= 1;
            below -= bins[bin];
        }
        while f64::from(below + bins[bin]) < need {
            below += bins[bin];
            bin += 1;
        }
        *self = QuantileBin {
            bin: bin as u32,
            below,
        };
    }
}

impl IdleHistogram {
    fn observe(&mut self, idle: SimDuration, bin: SimDuration, range: SimDuration, head: f64) {
        let n_bins = (range.as_nanos().div_ceil(bin.as_nanos())) as usize;
        if self.bins.is_empty() {
            self.bins = vec![0; n_bins.max(1)];
        }
        let idx = (idle.as_nanos() / bin.as_nanos()) as usize;
        if idx < self.bins.len() {
            self.bins[idx] += 1;
            self.total += 1;
            self.tail.observe(&self.bins, self.total, HYBRID_TAIL, idx);
            self.head.observe(&self.bins, self.total, head, idx);
        } else {
            self.out_of_bounds += 1;
        }
    }

    /// The bin index covering `tail` of the observed mass, by a full scan
    /// (the reference the maintained [`QuantileBin`]s are tested against).
    #[cfg(test)]
    fn tail_bin(&self, tail: f64) -> usize {
        let mut seen = 0u64;
        for (i, &count) in self.bins.iter().enumerate() {
            seen += u64::from(count);
            if seen as f64 >= tail * f64::from(self.total) {
                return i;
            }
        }
        self.bins.len().saturating_sub(1)
    }

    fn oob_rate(&self) -> f64 {
        let all = self.total + self.out_of_bounds;
        if all == 0 {
            0.0
        } else {
            f64::from(self.out_of_bounds) / f64::from(all)
        }
    }

    /// Whether the histogram has learned a trustworthy pattern: enough
    /// samples, few out-of-range gaps.
    fn learned(&self) -> bool {
        self.total >= HYBRID_MIN_SAMPLES && self.oob_rate() <= HYBRID_OOB_LIMIT
    }
}

/// Histogram geometry used for arrival-rate tracking when the keepalive
/// policy itself is not histogram-based.
const TRACKING_RANGE: SimDuration = SimDuration::from_secs(600);
const TRACKING_BIN: SimDuration = SimDuration::from_secs(10);

/// Time constant (seconds) of the exponentially-decayed arrival-rate
/// estimator: arrivals older than a few minutes stop influencing the
/// predictive autoscaler's demand estimate.
const ARRIVAL_RATE_TAU_S: f64 = 60.0;

impl KeepaliveState {
    /// Creates empty state for `policy`.
    ///
    /// # Panics
    /// Panics if a hybrid-histogram policy has a zero bin width, a range
    /// smaller than one bin (the histogram would be degenerate), or a head
    /// percentile outside `[0, 1)`.
    pub fn new(policy: KeepalivePolicy) -> Self {
        let (observe_gaps, gap_bin, gap_range, gap_head) = match policy {
            KeepalivePolicy::HybridHistogram { range, bin, head } => {
                assert!(
                    !bin.is_zero(),
                    "hybrid-histogram bin width must be non-zero"
                );
                assert!(range >= bin, "hybrid-histogram range must cover one bin");
                assert!(
                    (0.0..1.0).contains(&head),
                    "hybrid-histogram head percentile must be in [0, 1)"
                );
                (true, bin, range, head)
            }
            _ => (false, TRACKING_BIN, TRACKING_RANGE, 0.0),
        };
        KeepaliveState {
            policy,
            slots: FastMap::default(),
            arrivals: FastMap::default(),
            observe_gaps,
            gap_bin,
            gap_range,
            gap_head,
            stats: KeepaliveStats::default(),
        }
    }

    /// The policy this state enforces.
    pub fn policy(&self) -> KeepalivePolicy {
        self.policy
    }

    /// The accumulated prewarm/warm-memory counters.
    pub fn stats(&self) -> KeepaliveStats {
        self.stats
    }

    /// The current keepalive window for `function`: how long past its last
    /// finish a warm container survives.
    pub fn window(&self, function: u32) -> SimDuration {
        match self.slots.get(&function) {
            Some(slot) => slot.window,
            None => self.policy.window_for(&IdleHistogram::default()),
        }
    }

    /// The current prewarm window for `function`: how long past its last
    /// finish the released container stays cold before it is proactively
    /// re-warmed. Zero — prewarming disabled, container warm from the finish
    /// on — unless the policy has a non-zero head percentile and the
    /// function's pattern is learned.
    ///
    /// The window is the left edge of the bin covering the head percentile of
    /// observed idle gaps (the study's 5th-percentile prewarm point): at most
    /// `head` of the observed mass lies below it, which is exactly the
    /// accepted cold-start risk the released memory buys. A function whose
    /// gaps all land in the first bin gets a zero window — its container is
    /// never released, and prewarming degenerates to the plain hybrid
    /// keepalive. Always `<=` the eviction window.
    pub fn prewarm_window(&self, function: u32) -> SimDuration {
        self.slots
            .get(&function)
            .map_or(SimDuration::ZERO, |slot| slot.prewarm)
    }

    /// Whether an invocation of `function` arriving at `now` finds a warm
    /// container, given its most recent finish time. A function whose
    /// previous invocation is still running (finish in the future) is always
    /// warm; with prewarming, an idle gap shorter than the prewarm window
    /// lands before the proactive re-warm and runs cold.
    pub fn is_warm(&self, function: u32, now: SimTime) -> bool {
        self.slots
            .get(&function)
            .is_some_and(|slot| slot.warm_after(now.saturating_since(slot.last_finish)))
    }

    /// Records that an invocation of `function` starting at `now` will finish
    /// at `finish`, feeding the observed idle gap to the learning policy and
    /// the warm-memory ledger.
    pub fn record_invocation(&mut self, function: u32, now: SimTime, finish: SimTime) {
        self.start_until(function, now, |_| finish);
    }

    /// Starts an invocation of `function` at `now` on one slot lookup: tells
    /// `service` how the invocation finds its container ([`StartKind`]),
    /// takes the service time that implies, and records the invocation as
    /// [`KeepaliveState::record_invocation`] would with a finish `service`
    /// later. Returns the service time. `StartKind::Warm` exactly when
    /// [`KeepaliveState::is_warm`] would have said so.
    pub fn start(
        &mut self,
        function: u32,
        now: SimTime,
        service: impl FnOnce(StartKind) -> SimDuration,
    ) -> SimDuration {
        let mut taken = SimDuration::ZERO;
        self.start_until(function, now, |kind| {
            taken = service(kind);
            now + taken
        });
        taken
    }

    /// The slot logic behind [`KeepaliveState::start`] and
    /// [`KeepaliveState::record_invocation`]: `finish` maps how the
    /// invocation found its container to the time it finishes.
    fn start_until(
        &mut self,
        function: u32,
        now: SimTime,
        finish: impl FnOnce(StartKind) -> SimTime,
    ) {
        let policy = self.policy;
        let slot = match self.slots.entry(function) {
            Entry::Vacant(vacant) => {
                let histogram = IdleHistogram::default();
                let window = policy.window_for(&histogram);
                vacant.insert(FunctionSlot {
                    last_finish: finish(StartKind::FirstCold),
                    histogram,
                    window,
                    prewarm: SimDuration::ZERO,
                });
                return;
            }
            Entry::Occupied(occupied) => occupied.into_mut(),
        };
        let idle = now.saturating_since(slot.last_finish);
        let (window, prewarm) = (slot.window, slot.prewarm);
        let warm = slot.warm_after(idle);
        let finish = finish(if warm {
            StartKind::Warm
        } else {
            StartKind::RepeatCold
        });
        if warm {
            // Warm start: the pool held memory from the prewarm point (or
            // the finish, without prewarming) until this arrival.
            self.stats.warm_seconds += idle.saturating_sub(prewarm).as_secs_f64();
            if !idle.is_zero() && self.gap_head > 0.0 && slot.histogram.learned() {
                self.stats.prewarm_hits += 1;
            }
        } else if idle > window {
            // Evicted before this arrival: the whole held window was
            // wasted.
            let held = window.saturating_sub(prewarm).as_secs_f64();
            self.stats.warm_seconds += held;
            self.stats.wasted_warm_seconds += held;
        }
        // Third case — cold because the arrival landed before the
        // prewarm point: the container was released at finish, so no
        // memory was held at all.
        if self.observe_gaps {
            slot.histogram
                .observe(idle, self.gap_bin, self.gap_range, self.gap_head);
            slot.window = policy.window_for(&slot.histogram);
            slot.prewarm = policy.prewarm_for(&slot.histogram, slot.window);
        }
        // Keep the furthest-out finish time: with many concurrent instances
        // the container pool stays warm until the last one drains.
        if finish > slot.last_finish {
            slot.last_finish = finish;
        }
    }

    /// Closes the warm-memory ledger at the end of a run: every container
    /// still warm at `end` held its (remaining) window without a further
    /// reuse, which counts as wasted. Functions are flushed in id order so
    /// the floating-point accumulation is deterministic.
    pub fn finish_accounting(&mut self, end: SimTime) {
        let mut functions: Vec<u32> = self.slots.keys().copied().collect();
        functions.sort_unstable();
        for function in functions {
            let slot = &self.slots[&function];
            let elapsed = end.saturating_since(slot.last_finish);
            let held = elapsed
                .min(slot.window)
                .saturating_sub(slot.prewarm)
                .as_secs_f64();
            self.stats.warm_seconds += held;
            self.stats.wasted_warm_seconds += held;
        }
    }

    /// Records that a request for `function` *arrived* at `now` (whether or
    /// not it could start immediately). The predictive autoscaler feeds this
    /// so its demand estimate tracks offered load rather than the throttled
    /// start rate a backlogged rack would otherwise observe.
    pub fn note_arrival(&mut self, function: u32, now: SimTime) {
        let track = self.arrivals.entry(function).or_insert(ArrivalTrack {
            count: 0,
            first: now,
            last: now,
            decayed: 0.0,
        });
        let dt = now.saturating_since(track.last).as_secs_f64();
        track.decayed = track.decayed * (-dt / ARRIVAL_RATE_TAU_S).exp() + 1.0;
        track.count += 1;
        track.last = now;
    }

    /// Aggregate arrival-rate estimate in requests/second at `now`, from the
    /// per-function arrival statistics kept alongside the keepalive
    /// histograms.
    ///
    /// Each function contributes an *exponentially-decayed* rate: its arrival
    /// mass decays with a 60-second time constant, is decayed
    /// further to `now`, de-biased by the half-event a discrete sum
    /// over-counts, and normalised by the effective window
    /// `tau * (1 - exp(-age/tau))` so the estimate is unbiased during warmup
    /// too. A whole-history mean — the previous implementation — adapts to a
    /// diurnal rate shift only as fast as the history grows; the decayed
    /// estimate forgets the stale rate within a few time constants, which is
    /// what lets the predictive autoscaler track shifting demand (see the
    /// step-change unit test).
    ///
    /// Functions are summed in id order so the floating-point accumulation is
    /// deterministic. Zero until at least one function has two arrivals (via
    /// [`KeepaliveState::note_arrival`]).
    pub fn arrival_rate_estimate(&self, now: SimTime) -> f64 {
        let mut functions: Vec<u32> = self.arrivals.keys().copied().collect();
        functions.sort_unstable();
        functions
            .iter()
            .map(|f| {
                let track = &self.arrivals[f];
                let age = now.saturating_since(track.first).as_secs_f64();
                if track.count < 2 || age <= 0.0 {
                    return 0.0;
                }
                let staleness = now.saturating_since(track.last).as_secs_f64();
                let mass = (track.decayed * (-staleness / ARRIVAL_RATE_TAU_S).exp() - 0.5).max(0.0);
                let window = ARRIVAL_RATE_TAU_S * (1.0 - (-age / ARRIVAL_RATE_TAU_S).exp());
                mass / window
            })
            .sum()
    }

    #[cfg(test)]
    fn last_finish_for_test(&self, function: u32) -> SimTime {
        self.slots[&function].last_finish
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscs_simcore::rng::DeterministicRng;

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn fcfs_pops_in_submission_order() {
        let mut q = SchedQueue::new(SchedulerPolicy::Fcfs);
        for i in 0..5 {
            q.push(
                i,
                Benchmark::ALL[i % 8],
                SimDuration::from_millis(5 - i as u64),
            );
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sjf_pops_cheapest_first_with_fifo_ties() {
        let mut q = SchedQueue::new(SchedulerPolicy::ShortestJobFirst);
        q.push(0, Benchmark::ALL[0], SimDuration::from_millis(30));
        q.push(1, Benchmark::ALL[1], SimDuration::from_millis(10));
        q.push(2, Benchmark::ALL[2], SimDuration::from_millis(10));
        q.push(3, Benchmark::ALL[3], SimDuration::from_millis(20));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    #[test]
    fn fair_round_robins_across_benchmarks() {
        let mut q = SchedQueue::new(SchedulerPolicy::FairPerBenchmark);
        // Three requests of benchmark 0, one of benchmark 1.
        q.push(10, Benchmark::ALL[0], SimDuration::from_millis(1));
        q.push(11, Benchmark::ALL[0], SimDuration::from_millis(1));
        q.push(12, Benchmark::ALL[0], SimDuration::from_millis(1));
        q.push(20, Benchmark::ALL[1], SimDuration::from_millis(1));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        // The lone benchmark-1 request is served second, not last.
        assert_eq!(order, vec![10, 20, 11, 12]);
        assert!(q.is_empty());
    }

    #[test]
    fn no_keepalive_is_always_cold_after_finish() {
        let mut s = KeepaliveState::new(KeepalivePolicy::NoKeepalive);
        assert!(!s.is_warm(0, secs(0)));
        s.record_invocation(0, secs(0), secs(1));
        // Still running: warm.
        assert!(s.is_warm(0, secs(1)));
        // One nanosecond after finish: cold.
        assert!(!s.is_warm(0, SimTime::from_nanos(1_000_000_001)));
    }

    #[test]
    fn fixed_window_honours_its_window() {
        let mut s = KeepaliveState::new(KeepalivePolicy::FixedWindow(SimDuration::from_secs(60)));
        s.record_invocation(7, secs(0), secs(10));
        assert!(s.is_warm(7, secs(70)));
        assert!(!s.is_warm(7, secs(71)));
    }

    /// A function's cached windows change at exactly two points: its 10th
    /// observed gap (the pattern is learned) and its out-of-range rate
    /// crossing 10% (unlearned again), under both histogram policies.
    #[test]
    fn hybrid_starts_conservative_then_learns_the_tail() {
        let range = SimDuration::from_secs(600);
        for (policy, learned_prewarm) in [
            (KeepalivePolicy::hybrid_default(), SimDuration::ZERO),
            (
                KeepalivePolicy::prewarm_default(),
                SimDuration::from_secs(20),
            ),
        ] {
            let name = policy.name();
            let mut s = KeepaliveState::new(policy);
            // Unknown function: full range, no prewarm.
            assert_eq!(s.window(3), range, "{name}");
            assert_eq!(s.prewarm_window(3), SimDuration::ZERO, "{name}");
            // Invocations every 26 s, each running 1 s: the 25 s idle gaps
            // land in the 20-30 s bin.
            let mut t = 0u64;
            s.record_invocation(3, secs(t), secs(t + 1));
            for gaps in 1..10 {
                t += 26;
                s.record_invocation(3, secs(t), secs(t + 1));
                assert_eq!(s.window(3), range, "{name}: {gaps} gaps");
                assert_eq!(s.prewarm_window(3), SimDuration::ZERO, "{name}");
            }
            t += 26;
            s.record_invocation(3, secs(t), secs(t + 1));
            // The 10th gap: the 30 s tail-bin edge plus the 10% margin.
            let learned = SimDuration::from_secs(33);
            assert_eq!(s.window(3), learned, "{name}");
            assert_eq!(s.prewarm_window(3), learned_prewarm, "{name}");
            // The learned window still covers the observed pattern.
            let finish = s.last_finish_for_test(3);
            assert!(s.is_warm(3, finish + SimDuration::from_secs(25)), "{name}");
            assert!(!s.is_warm(3, finish + SimDuration::from_secs(34)), "{name}");
            // One out-of-range gap in eleven stays within the 10% limit...
            t += 700;
            s.record_invocation(3, secs(t), secs(t + 1));
            assert_eq!(s.window(3), learned, "{name}");
            assert_eq!(s.prewarm_window(3), learned_prewarm, "{name}");
            // ...and a second crosses it: back to the conservative range.
            t += 700;
            s.record_invocation(3, secs(t), secs(t + 1));
            assert_eq!(s.window(3), range, "{name}");
            assert_eq!(s.prewarm_window(3), SimDuration::ZERO, "{name}");
            let finish = s.last_finish_for_test(3);
            assert!(s.is_warm(3, finish + SimDuration::from_secs(500)), "{name}");
        }
    }

    #[test]
    fn hybrid_never_shrinks_below_observed_tail() {
        let policy = KeepalivePolicy::HybridHistogram {
            range: SimDuration::from_secs(600),
            bin: SimDuration::from_secs(10),
            head: 0.0,
        };
        let mut s = KeepaliveState::new(policy);
        let mut t = 0u64;
        for _ in 0..50 {
            s.record_invocation(1, secs(t), secs(t + 1));
            t += 45; // 44 s idle gaps
        }
        // Window must cover the 44 s gaps (bin 4 -> >= 50 s).
        assert!(s.window(1) >= SimDuration::from_secs(45), "{}", s.window(1));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bin_hybrid_histogram_is_rejected() {
        let _ = KeepaliveState::new(KeepalivePolicy::HybridHistogram {
            range: SimDuration::from_secs(600),
            bin: SimDuration::ZERO,
            head: 0.0,
        });
    }

    #[test]
    #[should_panic(expected = "head percentile")]
    fn out_of_range_prewarm_head_is_rejected() {
        let _ = KeepaliveState::new(KeepalivePolicy::HybridHistogram {
            range: SimDuration::from_secs(600),
            bin: SimDuration::from_secs(10),
            head: 1.0,
        });
    }

    #[test]
    fn concurrent_instances_keep_the_pool_warm() {
        let mut s = KeepaliveState::new(KeepalivePolicy::FixedWindow(SimDuration::from_secs(5)));
        s.record_invocation(0, secs(0), secs(100));
        s.record_invocation(0, secs(1), secs(2)); // shorter, finishes earlier
        assert!(s.is_warm(0, secs(50)), "long-running instance keeps warm");
    }

    /// Satellite regression test: `len`/`is_empty` stay consistent with the
    /// fair round-robin subqueues across interleaved pushes, pops and full
    /// drains — including pops on an already-empty queue, which previously
    /// relied on a separately maintained counter.
    #[test]
    fn fair_queue_len_stays_consistent_through_drains() {
        let mut q = SchedQueue::new(SchedulerPolicy::FairPerBenchmark);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None, "pop on empty returns None");
        assert_eq!(q.len(), 0, "pop on empty must not desync len");

        // Uneven load: three requests on benchmark 0, one on benchmark 3.
        q.push(0, Benchmark::ALL[0], SimDuration::from_millis(1));
        q.push(1, Benchmark::ALL[0], SimDuration::from_millis(1));
        q.push(2, Benchmark::ALL[3], SimDuration::from_millis(1));
        q.push(3, Benchmark::ALL[0], SimDuration::from_millis(1));
        assert_eq!(q.len(), 4);

        let mut remaining = 4;
        while q.pop().is_some() {
            remaining -= 1;
            assert_eq!(q.len(), remaining, "len tracks the live subqueues");
            assert_eq!(q.is_empty(), remaining == 0);
        }
        assert_eq!(remaining, 0);

        // After a full drain the stale (empty) subqueues and the round-robin
        // cursor must not leak phantom length.
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);

        // The queue keeps working after the drain.
        q.push(9, Benchmark::ALL[5], SimDuration::from_millis(1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(9));
        assert!(q.is_empty());
    }

    #[test]
    fn scaling_policy_names_and_defaults() {
        assert_eq!(ScalingPolicy::Fixed.name(), "fixed");
        assert_eq!(ScalingPolicy::reactive_default().name(), "reactive");
        assert_eq!(ScalingPolicy::predictive_default().name(), "predictive");
        assert_eq!(ScalingPolicy::Fixed.interval(), None);
        for policy in ScalingPolicy::all_default() {
            assert_eq!(policy.check(), Ok(()));
        }
        assert!(ScalingPolicy::reactive_default().interval().is_some());
    }

    #[test]
    fn zero_interval_reactive_scaling_is_rejected() {
        let err = ScalingPolicy::Reactive {
            scale_up_queue: 1,
            scale_down_queue: 0,
            step: 1,
            interval: SimDuration::ZERO,
        }
        .check()
        .expect_err("zero interval");
        assert_eq!(err, ConfigError::ZeroScalingInterval { policy: "reactive" });
    }

    #[test]
    fn overlapping_reactive_thresholds_are_rejected() {
        let err = ScalingPolicy::Reactive {
            scale_up_queue: 4,
            scale_down_queue: 8,
            step: 1,
            interval: SimDuration::from_secs(5),
        }
        .check()
        .expect_err("overlap");
        assert_eq!(
            err,
            ConfigError::OverlappingReactiveThresholds {
                scale_up_queue: 4,
                scale_down_queue: 8
            }
        );
    }

    #[test]
    fn sub_unit_predictive_headroom_is_rejected() {
        let err = ScalingPolicy::Predictive {
            interval: SimDuration::from_secs(5),
            headroom: 0.5,
        }
        .check()
        .expect_err("sub-unit headroom");
        assert_eq!(
            err,
            ConfigError::InvalidPredictiveHeadroom { headroom: 0.5 }
        );
    }

    #[test]
    fn keepalive_check_rejects_a_head_at_or_above_the_tail() {
        let policy = |head| KeepalivePolicy::HybridHistogram {
            range: SimDuration::from_secs(600),
            bin: SimDuration::from_secs(10),
            head,
        };
        assert_eq!(policy(0.0).check(), Ok(()));
        assert_eq!(policy(0.05).check(), Ok(()));
        assert_eq!(policy(HYBRID_TAIL - 1e-9).check(), Ok(()));
        for head in [HYBRID_TAIL, 0.995] {
            assert_eq!(
                policy(head).check(),
                Err(ConfigError::PrewarmHeadAboveTail {
                    head,
                    tail: HYBRID_TAIL,
                }),
                "head {head} must be rejected"
            );
        }
        // The non-hybrid policies have nothing to misconfigure.
        assert_eq!(KeepalivePolicy::NoKeepalive.check(), Ok(()));
        assert_eq!(KeepalivePolicy::paper_default().check(), Ok(()));
    }

    #[test]
    fn prewarm_window_is_zero_until_the_pattern_is_learned() {
        let mut s = KeepaliveState::new(KeepalivePolicy::prewarm_default());
        assert_eq!(s.prewarm_window(0), SimDuration::ZERO);
        // Reliable 45 s gaps: the head percentile floor lands at the 40 s bin
        // edge once learned, and stays below the eviction window.
        let mut t = 0u64;
        for _ in 0..40 {
            s.record_invocation(0, secs(t), secs(t + 1));
            t += 46;
        }
        let prewarm = s.prewarm_window(0);
        assert_eq!(prewarm, SimDuration::from_secs(40), "head-bin left edge");
        assert!(prewarm <= s.window(0));
    }

    #[test]
    fn prewarm_releases_the_container_before_its_window() {
        let mut s = KeepaliveState::new(KeepalivePolicy::prewarm_default());
        let mut t = 0u64;
        for _ in 0..40 {
            s.record_invocation(7, secs(t), secs(t + 1));
            t += 46;
        }
        let finish = s.last_finish_for_test(7);
        // Before the prewarm point: released, cold (except while running).
        assert!(s.is_warm(7, finish), "still running/just finished is warm");
        assert!(
            !s.is_warm(7, finish + SimDuration::from_secs(10)),
            "released before the prewarm point"
        );
        // Between prewarm and eviction: proactively warmed.
        assert!(s.is_warm(7, finish + SimDuration::from_secs(45)));
        // Past the eviction window: evicted.
        assert!(!s.is_warm(7, finish + SimDuration::from_secs(599)));
    }

    #[test]
    fn prewarm_hits_and_warm_seconds_accumulate() {
        let mut s = KeepaliveState::new(KeepalivePolicy::prewarm_default());
        let mut t = 0u64;
        for _ in 0..40 {
            s.record_invocation(3, secs(t), secs(t + 1));
            t += 46;
        }
        let stats = s.stats();
        assert!(stats.prewarm_hits > 0, "learned arrivals count as hits");
        assert!(stats.warm_seconds > 0.0);
        // Without prewarming the same history holds strictly more memory.
        let mut baseline = KeepaliveState::new(KeepalivePolicy::hybrid_default());
        let mut t = 0u64;
        for _ in 0..40 {
            baseline.record_invocation(3, secs(t), secs(t + 1));
            t += 46;
        }
        assert_eq!(baseline.stats().prewarm_hits, 0);
        assert!(baseline.stats().warm_seconds > stats.warm_seconds);
    }

    #[test]
    fn finish_accounting_charges_residual_warmth_as_wasted() {
        let mut s = KeepaliveState::new(KeepalivePolicy::FixedWindow(SimDuration::from_secs(60)));
        s.record_invocation(0, secs(0), secs(10));
        s.finish_accounting(secs(1000));
        let stats = s.stats();
        assert!((stats.warm_seconds - 60.0).abs() < 1e-9, "{stats:?}");
        assert!((stats.wasted_warm_seconds - 60.0).abs() < 1e-9, "{stats:?}");

        let mut none = KeepaliveState::new(KeepalivePolicy::NoKeepalive);
        none.record_invocation(0, secs(0), secs(10));
        none.finish_accounting(secs(1000));
        assert_eq!(none.stats().warm_seconds, 0.0, "no-keepalive holds nothing");
    }

    #[test]
    fn arrival_rate_estimate_tracks_noted_arrivals() {
        // One arrival every 20 s => 0.05 req/s, under any keepalive policy.
        let mut s = KeepaliveState::new(KeepalivePolicy::paper_default());
        assert_eq!(s.arrival_rate_estimate(secs(0)), 0.0, "no observations yet");
        for i in 0..30u64 {
            s.note_arrival(0, secs(i * 20));
        }
        let rate = s.arrival_rate_estimate(secs(29 * 20));
        assert!(
            (rate - 0.05).abs() < 0.05 * 0.05,
            "estimate {rate} should be within 5% of 1/20"
        );
        // Two functions sum their rates; sub-second inter-arrivals resolve
        // exactly (a binned estimator could not see past its bin width).
        let mut s = KeepaliveState::new(KeepalivePolicy::paper_default());
        for i in 0..30u64 {
            s.note_arrival(0, secs(i * 20));
        }
        for i in 0..601u64 {
            s.note_arrival(1, secs(520) + SimDuration::from_millis(i * 100));
        }
        let rate = s.arrival_rate_estimate(secs(580));
        assert!(
            (rate - 10.05).abs() < 0.5,
            "estimate {rate} should be ~10.05"
        );
    }

    /// Satellite regression test: the exponentially-decayed estimator
    /// converges to a step change in the offered rate much faster than the
    /// whole-history mean it replaced — the lag the ROADMAP called out.
    #[test]
    fn decayed_estimate_tracks_a_rate_step_faster_than_whole_history() {
        let mut s = KeepaliveState::new(KeepalivePolicy::paper_default());
        // Phase 1: 600 s at 0.1 req/s (one arrival every 10 s).
        let mut count = 0u64;
        for i in 0..60u64 {
            s.note_arrival(0, secs(i * 10));
            count += 1;
        }
        // Phase 2: the rate steps to 1 req/s for 240 s (four time constants).
        let mut last = secs(590);
        for i in 0..241u64 {
            last = secs(600 + i);
            s.note_arrival(0, last);
            count += 1;
        }
        let windowed = s.arrival_rate_estimate(last);
        let whole_history = (count - 1) as f64 / last.saturating_since(secs(0)).as_secs_f64();
        let true_rate = 1.0;
        assert!(
            (windowed - true_rate).abs() < 0.1,
            "decayed estimate {windowed} should sit near the new rate"
        );
        assert!(
            (whole_history - true_rate).abs() > 5.0 * (windowed - true_rate).abs(),
            "whole-history {whole_history} must lag far behind windowed {windowed}"
        );
    }

    /// After a long silence the decayed estimate forgets the old rate; the
    /// whole-history mean cannot.
    #[test]
    fn decayed_estimate_fades_when_arrivals_stop() {
        let mut s = KeepaliveState::new(KeepalivePolicy::paper_default());
        for i in 0..120u64 {
            s.note_arrival(0, secs(i));
        }
        let active = s.arrival_rate_estimate(secs(119));
        assert!(active > 0.8, "active estimate {active}");
        let faded = s.arrival_rate_estimate(secs(119 + 600));
        assert!(
            faded < 0.01 * active,
            "ten time constants of silence must fade the estimate: {faded}"
        );
    }

    /// Random policies for the slot-logic properties: every default, plus
    /// hybrid histograms with random geometry and a random head below the
    /// tail.
    fn random_policies(rng: &mut DeterministicRng) -> Vec<KeepalivePolicy> {
        let mut policies = KeepalivePolicy::all_default().to_vec();
        let bin = SimDuration::from_secs(1 + rng.next_index(20) as u64);
        policies.push(KeepalivePolicy::HybridHistogram {
            range: bin * (1 + rng.next_index(60) as u64),
            bin,
            head: rng.uniform(0.0, HYBRID_TAIL),
        });
        policies
    }

    /// The tail and head bins `observe` maintains equal a full scan of the
    /// bins after every observation, over random gap streams (drifting
    /// between regimes so the cursors move both ways, with out-of-range
    /// gaps mixed in), random `(range, bin)` geometry and heads of 0, 0.05
    /// and random values below the tail.
    #[test]
    fn maintained_quantile_bins_equal_a_full_scan() {
        for case in 0..64u64 {
            let mut rng = DeterministicRng::seeded(0x7A11 ^ case);
            let bin = SimDuration::from_millis(1 + rng.next_index(20_000) as u64);
            // Not always a whole number of bins.
            let range = bin * (1 + rng.next_index(80) as u64)
                + SimDuration::from_nanos(rng.next_index(bin.as_nanos() as usize) as u64);
            let range_ns = range.as_nanos();
            for head in [0.0, 0.05, rng.uniform(0.0, HYBRID_TAIL)] {
                let mut histogram = IdleHistogram::default();
                let mut centre = rng.uniform(0.0, 1.0);
                for step in 0..600 {
                    if rng.next_index(50) == 0 {
                        centre = rng.uniform(0.0, 1.0);
                    }
                    let gap = if rng.next_index(10) == 0 {
                        // Out of range (or at its edge).
                        range_ns + rng.next_index(range_ns as usize + 1) as u64
                    } else {
                        let spread = rng.uniform(-0.1, 0.1);
                        ((centre + spread).clamp(0.0, 0.999) * range_ns as f64) as u64
                    };
                    histogram.observe(SimDuration::from_nanos(gap), bin, range, head);
                    for (name, q, cursor) in [
                        ("tail", HYBRID_TAIL, histogram.tail),
                        ("head", head, histogram.head),
                    ] {
                        let at = format!("case {case}, head {head}, step {step}: {name}");
                        assert_eq!(cursor.bin as usize, histogram.tail_bin(q), "{at}");
                        let below: u32 = histogram.bins[..cursor.bin as usize].iter().sum();
                        assert_eq!(cursor.below, below, "{at}");
                    }
                }
            }
        }
    }

    /// The engine's single-probe `start` and the public `is_warm` +
    /// `record_invocation` pair are the same slot logic: over random
    /// invocation streams and policies they agree on every warm/cold
    /// decision and leave identical stats, windows, prewarm windows and
    /// last finishes, before and after the end-of-run accounting.
    #[test]
    fn single_probe_start_matches_the_public_pair() {
        for case in 0..64u64 {
            let mut rng = DeterministicRng::seeded(0x57A7 ^ case);
            for policy in random_policies(&mut rng) {
                let mut pair = KeepaliveState::new(policy);
                let mut probe = KeepaliveState::new(policy);
                let functions = 1 + rng.next_index(6) as u32;
                let mut seen = vec![false; functions as usize];
                let mut now = SimTime::ZERO;
                for step in 0..400 {
                    // Mostly short gaps, now and then one past any window.
                    let gap_ms = match rng.next_index(20) {
                        0 => 700_000 + rng.next_index(300_000),
                        _ => rng.next_index(40_000),
                    };
                    now += SimDuration::from_millis(gap_ms as u64);
                    let function = rng.next_index(functions as usize) as u32;
                    let service = SimDuration::from_millis(rng.next_index(30_000) as u64);
                    let warm = pair.is_warm(function, now);
                    pair.record_invocation(function, now, now + service);
                    let taken = probe.start(function, now, |kind| {
                        let expected = match (seen[function as usize], warm) {
                            (false, _) => StartKind::FirstCold,
                            (true, true) => StartKind::Warm,
                            (true, false) => StartKind::RepeatCold,
                        };
                        assert_eq!(kind, expected, "case {case}, step {step}");
                        service
                    });
                    assert_eq!(taken, service);
                    seen[function as usize] = true;
                    assert_eq!(pair.stats(), probe.stats(), "case {case}, step {step}");
                    assert_eq!(pair.window(function), probe.window(function));
                    assert_eq!(
                        pair.prewarm_window(function),
                        probe.prewarm_window(function)
                    );
                    assert_eq!(
                        pair.last_finish_for_test(function),
                        probe.last_finish_for_test(function)
                    );
                }
                pair.finish_accounting(now);
                probe.finish_accounting(now);
                assert_eq!(pair.stats(), probe.stats(), "case {case}");
            }
        }
    }
}
