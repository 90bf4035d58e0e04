//! Property-based tests over the core data structures and invariants.
//!
//! The build environment has no registry access, so instead of `proptest`
//! these run on a small in-file harness: each property is exercised over many
//! randomized cases drawn from a [`DeterministicRng`], with the failing case's
//! seed index reported on assertion failure so it can be replayed exactly.

use dscs_serverless::compiler::{gemm_dims, select_tiling};
use dscs_serverless::dsa::config::{DsaConfig, MemoryKind, TechnologyNode};
use dscs_serverless::dsa::engine::MpuModel;
use dscs_serverless::nn::op::Operator;
use dscs_serverless::nn::tensor::DType;
use dscs_serverless::simcore::dist::{Distribution, LogNormalDist};
use dscs_serverless::simcore::fit::polyfit;
use dscs_serverless::simcore::pareto::{pareto_frontier, ParetoPoint};
use dscs_serverless::simcore::quantity::Bytes;
use dscs_serverless::simcore::rng::DeterministicRng;
use dscs_serverless::simcore::stats::{QuantileSketch, Summary, SKETCH_RELATIVE_ACCURACY};
use dscs_serverless::simcore::time::SimDuration;
use dscs_serverless::storage::object_store::ObjectStore;

/// Number of randomized cases per property (matches the proptest config the
/// suite originally used).
const CASES: u64 = 64;

/// Runs `body` over `CASES` independent generators derived from `seed`. The
/// case index is passed through so failure messages identify the exact case.
fn check(seed: u64, mut body: impl FnMut(u64, &mut DeterministicRng)) {
    for case in 0..CASES {
        let mut rng = DeterministicRng::seeded(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        body(case, &mut rng);
    }
}

/// Uniform integer in `[lo, hi)`, mirroring proptest's `lo..hi` ranges.
fn int_in(rng: &mut DeterministicRng, lo: u64, hi: u64) -> u64 {
    lo + rng.next_index((hi - lo) as usize) as u64
}

/// The Pareto frontier never contains a dominated point and never loses a
/// non-dominated one.
#[test]
fn pareto_frontier_is_exactly_the_non_dominated_set() {
    check(0xA1, |case, rng| {
        let len = int_in(rng, 1, 60) as usize;
        let candidates: Vec<ParetoPoint<usize>> = (0..len)
            .map(|i| ParetoPoint::new(rng.uniform(0.1, 100.0), rng.uniform(0.1, 100.0), i))
            .collect();
        let frontier = pareto_frontier(candidates.clone());
        for f in &frontier {
            assert!(
                !candidates.iter().any(|c| c.dominates(f)),
                "case {case}: frontier point dominated"
            );
        }
        for c in &candidates {
            let dominated = candidates.iter().any(|other| other.dominates(c));
            let on_frontier = frontier.iter().any(|f| f.tag == c.tag);
            if !dominated && !on_frontier {
                // A non-dominated point may be dropped only if an identical
                // (cost, benefit) pair is already on the frontier.
                let duplicate = frontier
                    .iter()
                    .any(|f| f.cost == c.cost && f.benefit == c.benefit);
                assert!(
                    duplicate,
                    "case {case}: non-dominated point missing from frontier"
                );
            }
        }
    });
}

/// Tiling always fits the double-buffered working set in the scratchpad
/// and always covers the full GEMM.
#[test]
fn tiling_fits_and_covers() {
    check(0xA2, |case, rng| {
        let (m, k, n) = (
            int_in(rng, 1, 5000),
            int_in(rng, 1, 5000),
            int_in(rng, 1, 5000),
        );
        let config = DsaConfig::paper_optimal();
        let tiling = select_tiling(&config, m, k, n);
        assert!(
            tiling.buffer_bytes() <= config.buffer_bytes,
            "case {case}: ({m},{k},{n})"
        );
        assert!(
            tiling.tile_m >= 1 && tiling.tile_k >= 1 && tiling.tile_n >= 1,
            "case {case}"
        );
        assert!(tiling.tile_count(m, k, n) >= 1, "case {case}");
    });
}

/// Convolution lowering to implicit GEMM preserves the FLOP count exactly.
#[test]
fn conv_lowering_preserves_flops() {
    check(0xA3, |case, rng| {
        let op = Operator::Conv2d {
            batch: int_in(rng, 1, 4),
            in_channels: int_in(rng, 1, 128),
            out_channels: int_in(rng, 1, 128),
            in_h: int_in(rng, 4, 64),
            in_w: int_in(rng, 4, 64),
            kernel: int_in(rng, 1, 5),
            stride: int_in(rng, 1, 3),
            dtype: DType::Int8,
        };
        let dims = gemm_dims(&op).expect("conv is GEMM-class");
        assert_eq!(
            2 * dims.m * dims.k * dims.n,
            op.flops(),
            "case {case}: {op:?}"
        );
    });
}

/// The systolic-array cycle count is monotone in each GEMM dimension.
#[test]
fn mpu_cycles_are_monotone() {
    check(0xA4, |case, rng| {
        let (m, k, n) = (
            int_in(rng, 1, 512),
            int_in(rng, 1, 512),
            int_in(rng, 1, 512),
        );
        let mpu = MpuModel::new(&DsaConfig::paper_optimal());
        let base = mpu.gemm_cycles(m, k, n);
        assert!(
            mpu.gemm_cycles(m + 1, k, n) >= base,
            "case {case}: ({m},{k},{n})"
        );
        assert!(
            mpu.gemm_cycles(m, k + 1, n) >= base,
            "case {case}: ({m},{k},{n})"
        );
        assert!(
            mpu.gemm_cycles(m, k, n + 1) >= base,
            "case {case}: ({m},{k},{n})"
        );
    });
}

/// Summary quantiles are monotone in the quantile and bounded by min/max.
#[test]
fn summary_quantiles_are_monotone() {
    check(0xA5, |case, rng| {
        let len = int_in(rng, 1, 200) as usize;
        let values: Vec<f64> = (0..len).map(|_| rng.uniform(0.0, 1e6)).collect();
        let summary = Summary::from_samples(&values);
        let mut previous = summary.min();
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = summary.quantile(q);
            assert!(
                v + 1e-9 >= previous,
                "case {case}: quantiles must not decrease"
            );
            assert!(
                v >= summary.min() - 1e-9 && v <= summary.max() + 1e-9,
                "case {case}: quantile out of bounds"
            );
            previous = v;
        }
    });
}

/// A calibrated lognormal reproduces its own median within sampling error.
#[test]
fn lognormal_calibration_roundtrips() {
    check(0xA6, |case, rng| {
        let median = rng.uniform(1.0, 100.0) / 1e3;
        let tail_factor = rng.uniform(1.1, 4.0);
        let dist = LogNormalDist::from_median_p99(median, median * tail_factor);
        let mut sample_rng = DeterministicRng::seeded(9);
        let samples: Vec<f64> = (0..4_000).map(|_| dist.sample(&mut sample_rng)).collect();
        let s = Summary::from_samples(&samples);
        assert!(
            (s.p50() - median).abs() / median < 0.15,
            "case {case}: p50 {} vs median {median}",
            s.p50()
        );
    });
}

/// Cubic polynomial fits recover exact cubic data.
#[test]
fn polyfit_recovers_cubics() {
    check(0xA7, |case, rng| {
        let a = rng.uniform(-2.0, 2.0);
        let b = rng.uniform(-2.0, 2.0);
        let c = rng.uniform(-0.5, 0.5);
        let d = rng.uniform(-0.05, 0.05);
        let pts: Vec<(f64, f64)> = (0..24)
            .map(|i| {
                let x = i as f64;
                (x, a + b * x + c * x * x + d * x * x * x)
            })
            .collect();
        let poly = polyfit(&pts, 3);
        for &(x, y) in &pts {
            let err = (poly.eval(x) - y).abs();
            assert!(
                err < 1e-5 * (1.0 + y.abs()),
                "case {case}: fit error {err} at {x}"
            );
        }
    });
}

/// Rack-aware placement invariants: for random rack layouts and object
/// streams, every replica rack is in `[0, racks)`, replicas span at most
/// `rack_spread` racks, replicas stay distinct, and acceleratable objects
/// always keep a DSCS replica.
#[test]
fn rack_aware_placement_invariants() {
    check(0xB1, |case, rng| {
        let racks = int_in(rng, 1, 6) as u32;
        let conventional = int_in(rng, 1, 4) as u32;
        let dscs = int_in(rng, 1, 3) as u32;
        let replication = int_in(rng, 1, 5) as usize;
        let rack_spread = int_in(rng, 1, u64::from(racks) + 1) as u32;
        let mut store =
            ObjectStore::with_rack_layout(racks, conventional, dscs, replication, rack_spread);
        let mut place_rng = DeterministicRng::seeded(int_in(rng, 0, 1000));
        for i in 0..int_in(rng, 1, 24) {
            let key = format!("obj-{i}");
            let acceleratable = rng.bernoulli(0.5);
            let meta = store
                .put(
                    &key,
                    Bytes::new(int_in(rng, 1, 8_000_000)),
                    acceleratable,
                    &mut place_rng,
                )
                .expect("rack layout always has DSCS nodes");
            let holding = store.racks_holding(&key).expect("placed");
            assert!(!holding.is_empty(), "case {case}: placed somewhere");
            assert!(
                holding.iter().all(|&r| r < racks),
                "case {case}: rack out of range: {holding:?}"
            );
            assert!(
                holding.len() <= rack_spread as usize,
                "case {case}: replicas span {holding:?} > spread {rack_spread}"
            );
            let mut unique = meta.replicas.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), meta.replicas.len(), "case {case}: distinct");
            if acceleratable {
                assert!(
                    store.dscs_replica(&key).expect("exists").is_some(),
                    "case {case}: acceleratable objects keep a DSCS replica"
                );
            }
        }
    });
}

/// Object-store placement always respects the replication factor and puts
/// acceleratable objects on a DSCS drive.
#[test]
fn object_store_placement_invariants() {
    check(0xA8, |case, rng| {
        let len = int_in(rng, 1, 40) as usize;
        let objects: Vec<(u64, bool)> = (0..len)
            .map(|_| (int_in(rng, 1, 32_000_000), rng.bernoulli(0.5)))
            .collect();
        let seed = int_in(rng, 0, 1000);
        let mut store = ObjectStore::with_node_counts(5, 3);
        let mut place_rng = DeterministicRng::seeded(seed);
        for (i, &(size, acceleratable)) in objects.iter().enumerate() {
            let key = format!("obj-{i}");
            let meta = store
                .put(&key, Bytes::new(size), acceleratable, &mut place_rng)
                .expect("store has DSCS nodes");
            assert_eq!(meta.replicas.len(), 3, "case {case}");
            let mut unique = meta.replicas.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), 3, "case {case}: replicas must be distinct");
            if acceleratable {
                assert!(
                    store.dscs_replica(&key).expect("exists").is_some(),
                    "case {case}"
                );
            }
        }
    });
}

/// Time arithmetic: converting seconds to a duration and back is stable to
/// nanosecond rounding.
#[test]
fn duration_roundtrip() {
    check(0xA9, |case, rng| {
        let seconds = rng.uniform(0.0, 10_000.0);
        let d = SimDuration::from_secs_f64(seconds);
        assert!(
            (d.as_secs_f64() - seconds).abs() < 1e-9 * (1.0 + seconds),
            "case {case}: {seconds}"
        );
    });
}

/// DSA configurations in the sweep ranges always validate.
#[test]
fn dsa_configs_validate() {
    check(0xAA, |case, rng| {
        let dim = 1u64 << int_in(rng, 2, 10);
        let buffer_mib = int_in(rng, 1, 32);
        let buffer = (buffer_mib * 1024 * 1024).max(6 * dim * dim);
        for memory in MemoryKind::ALL {
            let config = DsaConfig::square(dim, buffer, memory, TechnologyNode::Nm45);
            assert!(
                config.validate().is_ok(),
                "case {case}: dim {dim} buffer {buffer}"
            );
            assert!(config.peak_ops_per_sec() > 0.0, "case {case}");
        }
    });
}

/// Workload generators are pure functions of their seed and always produce
/// sorted, in-horizon traces with consistent function->benchmark bindings.
#[test]
fn workload_traces_are_deterministic_sorted_and_bounded() {
    use dscs_serverless::cluster::workload::{AzureWorkload, Workload};
    use dscs_serverless::simcore::time::SimTime;

    check(0xAB, |case, rng| {
        let workload = AzureWorkload {
            functions: int_in(rng, 1, 48) as u32,
            popularity_skew: rng.uniform(0.0, 2.0),
            base_rps: rng.uniform(5.0, 400.0),
            horizon: SimDuration::from_secs(int_in(rng, 5, 40)),
            diurnal_amplitude: rng.uniform(0.0, 0.9),
            diurnal_period: SimDuration::from_secs(int_in(rng, 5, 60)),
            burst_factor: rng.uniform(1.0, 4.0),
            burst_fraction: rng.uniform(0.0, 1.0),
            step: SimDuration::from_secs(int_in(rng, 1, 5)),
        };
        assert_eq!(workload.validate(), Ok(()), "case {case}");
        let seed = int_in(rng, 0, 1_000_000);
        let a = workload
            .generate(&mut DeterministicRng::seeded(seed))
            .expect("validated workload generates");
        let b = workload
            .generate(&mut DeterministicRng::seeded(seed))
            .expect("validated workload generates");
        assert_eq!(a, b, "case {case}: same seed, same trace");
        assert!(
            a.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "case {case}: sorted"
        );
        let end = SimTime::ZERO + workload.horizon;
        assert!(a.iter().all(|r| r.arrival < end), "case {case}: bounded");
        assert!(
            a.iter().all(|r| r.function < workload.functions
                && r.benchmark == AzureWorkload::benchmark_of(r.function)),
            "case {case}: function binding"
        );
    });
}

/// Rate-profile validation rejects exactly the malformed inputs: any
/// non-finite or negative rate, any zero-length segment, or no segments.
#[test]
fn rate_profile_validation_catches_malformed_segments() {
    use dscs_serverless::cluster::trace::RateProfile;
    use dscs_serverless::cluster::workload::{Workload, WorkloadError};

    check(0xAC, |case, rng| {
        let len = int_in(rng, 1, 8) as usize;
        let mut segments: Vec<(SimDuration, f64)> = (0..len)
            .map(|_| {
                (
                    SimDuration::from_secs(int_in(rng, 1, 30)),
                    rng.uniform(0.0, 500.0),
                )
            })
            .collect();
        let profile = RateProfile {
            segments: segments.clone(),
        };
        assert_eq!(profile.validate(), Ok(()), "case {case}: well-formed");

        // Corrupt one segment and expect a typed error naming it.
        let victim = rng.next_index(len);
        let bad_rate = *rng.choose(&[f64::NAN, f64::INFINITY, -1.0]);
        segments[victim].1 = bad_rate;
        let profile = RateProfile { segments };
        match profile.validate() {
            Err(WorkloadError::InvalidRate { segment, .. }) => {
                assert_eq!(segment, victim, "case {case}")
            }
            other => panic!("case {case}: expected InvalidRate, got {other:?}"),
        }
    });
}

/// The hybrid-histogram keepalive never evicts a warm container before its
/// current window: for any observation history, an invocation arriving within
/// the reported window of the last finish always finds the container warm.
#[test]
fn hybrid_histogram_never_evicts_before_its_window() {
    use dscs_serverless::cluster::policy::{KeepalivePolicy, KeepaliveState};
    use dscs_serverless::simcore::time::SimTime;

    check(0xAD, |case, rng| {
        let bin = SimDuration::from_secs(int_in(rng, 1, 20));
        let range = bin * int_in(rng, 2, 60);
        let policy = KeepalivePolicy::HybridHistogram {
            range,
            bin,
            head: 0.0,
        };
        let mut state = KeepaliveState::new(policy);
        let function = int_in(rng, 0, 4) as u32;
        let mut now = SimTime::ZERO;
        let mut last_finish = None;
        for _ in 0..int_in(rng, 1, 120) {
            // Random idle gaps, some beyond the histogram range.
            let gap = SimDuration::from_secs_f64(rng.uniform(0.0, 1.5 * range.as_secs_f64()));
            now += gap;
            let window = state.window(function);
            if let Some(finish) = last_finish {
                let idle = now.saturating_since(finish);
                // The invariant under test: inside the window => warm.
                if idle <= window {
                    assert!(
                        state.is_warm(function, now),
                        "case {case}: idle {idle} within window {window} but cold"
                    );
                }
            }
            let service = SimDuration::from_secs_f64(rng.uniform(0.01, 2.0));
            state.record_invocation(function, now, now + service);
            last_finish = Some(now + service);
            now += service;
        }
        // The window never collapses below one bin nor exceeds the range.
        let w = state.window(function);
        assert!(w >= bin.min(range), "case {case}: window {w} < bin {bin}");
        assert!(w <= range, "case {case}: window {w} exceeds range {range}");
    });
}

/// For any prewarm head percentile and any observation history, the prewarm
/// window never exceeds the eviction window, and it stays zero until the
/// pattern is learned.
#[test]
fn prewarm_window_never_exceeds_the_eviction_window() {
    use dscs_serverless::cluster::policy::{KeepalivePolicy, KeepaliveState};
    use dscs_serverless::simcore::time::SimTime;

    check(0xAE, |case, rng| {
        let bin = SimDuration::from_secs(int_in(rng, 1, 20));
        let range = bin * int_in(rng, 2, 60);
        let head = rng.uniform(0.0, 0.5);
        let policy = KeepalivePolicy::HybridHistogram { range, bin, head };
        let mut state = KeepaliveState::new(policy);
        let function = int_in(rng, 0, 4) as u32;
        assert_eq!(
            state.prewarm_window(function),
            SimDuration::ZERO,
            "case {case}: unlearned pattern must not prewarm"
        );
        let mut now = SimTime::ZERO;
        for _ in 0..int_in(rng, 1, 150) {
            let gap = SimDuration::from_secs_f64(rng.uniform(0.0, 1.3 * range.as_secs_f64()));
            now += gap;
            let service = SimDuration::from_secs_f64(rng.uniform(0.01, 2.0));
            state.record_invocation(function, now, now + service);
            now += service;
            let prewarm = state.prewarm_window(function);
            let window = state.window(function);
            assert!(
                prewarm <= window,
                "case {case}: prewarm {prewarm} exceeds eviction window {window}"
            );
        }
    });
}

/// Autoscaled racks never exceed `max_instances` nor drop below
/// `min_instances`, for random elastic policies over random workloads.
#[test]
fn autoscaler_respects_its_instance_bounds() {
    use dscs_serverless::cluster::experiment::Experiment;
    use dscs_serverless::cluster::policy::ScalingPolicy;
    use dscs_serverless::cluster::sim::{ClusterConfig, ClusterSim};
    use dscs_serverless::cluster::trace::RateProfile;
    use dscs_serverless::platforms::PlatformKind;

    // Evaluating the end-to-end model dominates the property's cost; the
    // per-case work is just the (tiny) trace replay, so share one base
    // simulator and reconfigure it per case.
    let base = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
    check(0xAF, |case, rng| {
        let min_instances = int_in(rng, 1, 12) as u32;
        let max_instances = min_instances + int_in(rng, 0, 80) as u32;
        let scaling = if rng.bernoulli(0.5) {
            let scale_up_queue = int_in(rng, 1, 64) as usize;
            ScalingPolicy::Reactive {
                scale_up_queue,
                scale_down_queue: int_in(rng, 0, scale_up_queue as u64) as usize,
                step: int_in(rng, 1, 40) as u32,
                interval: SimDuration::from_millis(int_in(rng, 200, 3000)),
            }
        } else {
            ScalingPolicy::Predictive {
                interval: SimDuration::from_millis(int_in(rng, 200, 3000)),
                headroom: rng.uniform(1.0, 2.0),
            }
        };
        let profile = RateProfile {
            segments: vec![
                (
                    SimDuration::from_secs(int_in(rng, 1, 6)),
                    rng.uniform(5.0, 400.0),
                ),
                (
                    SimDuration::from_secs(int_in(rng, 1, 6)),
                    rng.uniform(5.0, 400.0),
                ),
            ],
        };
        let trace = profile.generate(&mut DeterministicRng::seeded(int_in(rng, 0, 1000)));
        if trace.is_empty() {
            return;
        }
        let racks = 1 + int_in(rng, 0, 2) as u32;
        let outcome = Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace.clone())
            .instances(min_instances, max_instances)
            .scaling(scaling)
            .racks(racks)
            .seed(int_in(rng, 0, 1000))
            .build()
            .unwrap_or_else(|err| panic!("case {case}: bounded random config rejected: {err}"))
            .run_on(&base);
        let (report, summaries) = (&outcome.report, &outcome.racks);
        assert!(
            report.peak_instances <= max_instances,
            "case {case}: peak {} exceeds max {max_instances}",
            report.peak_instances
        );
        for rack in summaries {
            assert!(
                rack.low_instances >= min_instances,
                "case {case}: rack {} dropped to {} below min {min_instances}",
                rack.rack,
                rack.low_instances
            );
            assert!(rack.peak_instances <= max_instances, "case {case}");
        }
        assert_eq!(
            report.completed + report.rejected,
            trace.len() as u64,
            "case {case}: every request accounted for"
        );
    });
}

/// Locality-aware balancing invariants, for random traces, rack counts and
/// spill thresholds: every request is accounted for on some in-range rack
/// (the per-rack summaries are the racks the balancer selected), and a
/// request whose object has a replica on an un-saturated rack is never
/// charged a cross-rack fetch — with an unreachable spill threshold no rack
/// ever saturates, so the whole run must complete with zero remote fetches
/// and a locality hit rate of one.
#[test]
fn locality_aware_balancing_never_fetches_when_replica_racks_are_unsaturated() {
    use std::sync::Arc;

    use dscs_serverless::cluster::data::DataLayer;
    use dscs_serverless::cluster::experiment::Experiment;
    use dscs_serverless::cluster::policy::LoadBalancer;
    use dscs_serverless::cluster::sim::{ClusterConfig, ClusterSim};
    use dscs_serverless::cluster::trace::RateProfile;
    use dscs_serverless::platforms::PlatformKind;

    let base = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
    check(0xB2, |case, rng| {
        let racks = 1 + int_in(rng, 0, 4) as u32;
        let profile = RateProfile {
            segments: vec![(
                SimDuration::from_secs(int_in(rng, 1, 6)),
                rng.uniform(10.0, 300.0),
            )],
        };
        let trace = Arc::new(profile.generate(&mut DeterministicRng::seeded(int_in(rng, 0, 1000))));
        if trace.is_empty() {
            return;
        }
        let data = Arc::new(DataLayer::for_trace(&trace, racks, int_in(rng, 0, 1000)));
        let run = |spill_threshold, seed| {
            Experiment::builder(PlatformKind::DscsDsa)
                .trace(trace.clone())
                .racks(racks)
                .queue_depth(usize::MAX)
                .balancer(LoadBalancer::LocalityAware { spill_threshold })
                .data_layer(data.clone())
                .seed(seed)
                .build()
                .unwrap_or_else(|err| panic!("case {case}: valid config rejected: {err}"))
                .run_on(&base)
        };
        // An unreachable spill threshold: replica racks never count as
        // saturated, so locality dispatch must always stay local.
        let outcome = run(usize::MAX, int_in(rng, 0, 1000));
        let (report, summaries) = (&outcome.report, &outcome.racks);
        assert_eq!(summaries.len(), racks as usize, "case {case}");
        assert_eq!(
            report.completed,
            trace.len() as u64,
            "case {case}: unbounded queues complete everything"
        );
        assert_eq!(
            report.remote_fetches, 0,
            "case {case}: un-saturated replica racks must never be bypassed"
        );
        assert_eq!(report.cross_rack_bytes, 0, "case {case}");
        assert_eq!(report.fetch_latency_s, 0.0, "case {case}");
        assert_eq!(
            report.fetch_energy_j, 0.0,
            "case {case}: no moved bytes, no joules"
        );
        assert_eq!(
            report.locality_hit_rate(),
            1.0,
            "case {case}: every start is local"
        );
        // And with a random (possibly tiny) spill threshold the run still
        // accounts for every request on in-range racks.
        let spill = int_in(rng, 0, 64) as usize;
        let spilled = run(spill, int_in(rng, 0, 1000));
        assert_eq!(spilled.racks.len(), racks as usize, "case {case}");
        assert_eq!(
            spilled.report.completed + spilled.report.rejected,
            trace.len() as u64,
            "case {case}: every request lands on a real rack"
        );
        assert_eq!(
            spilled.report.locality_hits + spilled.report.remote_fetches,
            spilled.report.completed,
            "case {case}: every started request is classified local or remote"
        );
        assert_eq!(
            spilled.report.fetch_energy_j > 0.0,
            spilled.report.cross_rack_bytes > 0,
            "case {case}: joules flow exactly when bytes move"
        );
    });
}

/// Draws one sample from the case's randomly chosen distribution family:
/// uniform, two-point (adversarial for interpolating estimators), or
/// heavy-tailed (inverse-power of a uniform, stressing the log buckets).
fn sketch_sample(rng: &mut DeterministicRng, family: u64) -> f64 {
    match family {
        0 => rng.uniform(1e-6, 1e6),
        1 => {
            if rng.bernoulli(0.9) {
                1.0
            } else {
                1e4
            }
        }
        _ => {
            // Pareto-like tail: u^(-2) over u in (0, 1], values in [1, 1e8).
            let u = rng.uniform(1e-4, 1.0);
            (u * u).recip()
        }
    }
}

/// Merging sketches of disjoint sample sets is lossless: for any random
/// split of any sample stream, `merge(sketch(a), sketch(b))` agrees with
/// `sketch(a ∪ b)` bit-for-bit on count, min, max and every quantile.
#[test]
fn sketch_merge_equals_the_union_sketch() {
    check(0xB3, |case, rng| {
        let family = int_in(rng, 0, 3);
        let len = int_in(rng, 2, 400) as usize;
        let samples: Vec<f64> = (0..len).map(|_| sketch_sample(rng, family)).collect();
        let split = int_in(rng, 1, len as u64) as usize;
        let union = QuantileSketch::from_samples(&samples);
        let mut merged = QuantileSketch::from_samples(&samples[..split]);
        merged.merge(&QuantileSketch::from_samples(&samples[split..]));
        assert_eq!(union.count(), merged.count(), "case {case}");
        assert_eq!(
            union.min().to_bits(),
            merged.min().to_bits(),
            "case {case}: min is tracked exactly"
        );
        assert_eq!(
            union.max().to_bits(),
            merged.max().to_bits(),
            "case {case}: max is tracked exactly"
        );
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            assert_eq!(
                union.quantile(q).to_bits(),
                merged.quantile(q).to_bits(),
                "case {case}: q={q} must be merge-invariant"
            );
        }
        // The running sum is the one field where only summation *order*
        // differs, so the mean agrees to floating-point round-off.
        let scale = union.mean().abs().max(1.0);
        assert!(
            (union.mean() - merged.mean()).abs() <= 1e-9 * scale,
            "case {case}: mean {} vs {}",
            union.mean(),
            merged.mean()
        );
    });
}

/// The sketch's quantiles stay within the advertised relative accuracy of
/// the exact order statistic (rank `⌈q·n⌉`), across uniform, two-point and
/// heavy-tailed sample sets, and its exact statistics match
/// [`Summary::from_samples`] on the same data.
#[test]
fn sketch_quantiles_track_exact_order_statistics() {
    check(0xB4, |case, rng| {
        let family = int_in(rng, 0, 3);
        let len = int_in(rng, 1, 300) as usize;
        let samples: Vec<f64> = (0..len).map(|_| sketch_sample(rng, family)).collect();
        let sketch = QuantileSketch::from_samples(&samples);
        let summary = Summary::from_samples(&samples);

        // Exact statistics agree with the buffering summary bit-for-bit
        // (count/min/max) or to round-off (mean: different summation order).
        assert_eq!(sketch.count(), summary.count() as u64, "case {case}");
        assert_eq!(
            sketch.min().to_bits(),
            summary.min().to_bits(),
            "case {case}"
        );
        assert_eq!(
            sketch.max().to_bits(),
            summary.max().to_bits(),
            "case {case}"
        );
        assert!(
            (sketch.mean() - summary.mean()).abs() <= 1e-9 * summary.mean().abs().max(1.0),
            "case {case}: mean {} vs {}",
            sketch.mean(),
            summary.mean()
        );

        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let rank = ((q * len as f64).ceil() as usize).max(1);
            let exact = sorted[rank - 1];
            let approx = sketch.quantile(q);
            // The bucket representative is within α of anything in its
            // bucket; allow a hair of floating-point slack on top.
            assert!(
                (approx - exact).abs() <= exact * SKETCH_RELATIVE_ACCURACY * 1.0001 + 1e-12,
                "case {case}: q={q} exact={exact} sketch={approx}"
            );
        }
    });
}

/// Sketch quantiles are monotone in `q` and bounded by the exact min/max —
/// the same invariant [`summary_quantiles_are_monotone`] pins for the
/// buffering summary.
#[test]
fn sketch_quantiles_are_monotone_and_bounded() {
    check(0xB5, |case, rng| {
        let family = int_in(rng, 0, 3);
        let len = int_in(rng, 1, 300) as usize;
        let samples: Vec<f64> = (0..len).map(|_| sketch_sample(rng, family)).collect();
        let sketch = QuantileSketch::from_samples(&samples);
        let mut previous = sketch.min();
        for i in 0..=40 {
            let q = i as f64 / 40.0;
            let v = sketch.quantile(q);
            assert!(v + 1e-12 >= previous, "case {case}: q={q} decreased");
            assert!(
                v >= sketch.min() && v <= sketch.max(),
                "case {case}: q={q} out of [min, max]"
            );
            previous = v;
        }
    });
}

/// The sketch rejects the same malformed inputs as [`Summary`]: an empty
/// sample set and non-finite values, plus negatives (it buckets by
/// logarithm).
#[test]
#[should_panic(expected = "cannot summarise an empty sample set")]
fn sketch_rejects_an_empty_sample_set() {
    let _ = QuantileSketch::from_samples(&[]);
}

#[test]
#[should_panic(expected = "sketch samples must be non-negative and finite")]
fn sketch_rejects_nan_samples() {
    let mut sketch = QuantileSketch::new();
    sketch.record(f64::NAN);
}

#[test]
#[should_panic(expected = "sketch samples must be non-negative and finite")]
fn sketch_rejects_negative_samples() {
    let mut sketch = QuantileSketch::new();
    sketch.record(-1.0);
}

#[test]
#[should_panic(expected = "cannot summarise an empty sketch")]
fn sketch_rejects_quantiles_of_nothing() {
    let _ = QuantileSketch::new().p99();
}

/// With `ScalingPolicy::Fixed` the simulator is bit-identical to an elastic
/// pool pinned at the cap (`min == max`): the scale-tick machinery must not
/// perturb the RNG stream, the event ordering, or any reported series.
#[test]
fn fixed_scaling_is_bit_identical_to_a_pinned_pool() {
    use std::sync::Arc;

    use dscs_serverless::cluster::experiment::Experiment;
    use dscs_serverless::cluster::policy::ScalingPolicy;
    use dscs_serverless::cluster::sim::{ClusterConfig, ClusterSim};
    use dscs_serverless::cluster::trace::RateProfile;
    use dscs_serverless::platforms::PlatformKind;

    let fixed_sim = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
    check(0xB0, |case, rng| {
        let profile = RateProfile {
            segments: vec![(
                SimDuration::from_secs(int_in(rng, 2, 8)),
                rng.uniform(20.0, 600.0),
            )],
        };
        let trace = Arc::new(profile.generate(&mut DeterministicRng::seeded(int_in(rng, 0, 1000))));
        if trace.is_empty() {
            return;
        }
        let scale_up_queue = int_in(rng, 1, 100) as usize;
        let pinned_scaling = ScalingPolicy::Reactive {
            scale_up_queue,
            scale_down_queue: int_in(rng, 0, scale_up_queue as u64) as usize,
            step: int_in(rng, 1, 50) as u32,
            interval: SimDuration::from_millis(int_in(rng, 100, 2000)),
        };
        let seed = int_in(rng, 0, 1000);
        let racks = 1 + int_in(rng, 0, 2) as u32;
        let run = |scaling, min| {
            Experiment::builder(PlatformKind::DscsDsa)
                .trace(trace.clone())
                .scaling(scaling)
                .instances(min, 200)
                .racks(racks)
                .seed(seed)
                .build()
                .unwrap_or_else(|err| panic!("case {case}: valid config rejected: {err}"))
                .run_on(&fixed_sim)
        };
        let a = run(ScalingPolicy::Fixed, 8);
        let b = run(pinned_scaling, 200);
        // The pinned-elastic run processes extra scale-tick engine events
        // that never change a decision; `events` counts them, so it is the
        // one deterministic field allowed to differ. Everything modelled
        // must still be bit-identical.
        let mut pinned_report = b.report.clone();
        assert!(
            pinned_report.events >= a.report.events,
            "case {case}: scale ticks only add events"
        );
        pinned_report.events = a.report.events;
        assert_eq!(
            a.report, pinned_report,
            "case {case}: reports must be bit-identical"
        );
        assert_eq!(a.racks, b.racks, "case {case}");
    });
}

/// Snapshot-restore latency is monotone in snapshot size for any valid
/// configuration: more pages always cost more to stream back and fault in,
/// the warmup tail never exceeds the restore it is part of, and a zero-size
/// snapshot is free.
#[test]
fn snapshot_restore_latency_is_monotone_in_snapshot_size() {
    use dscs_serverless::simcore::quantity::Bandwidth;
    use dscs_serverless::storage::snapshot::{SnapshotConfig, SnapshotStore};

    check(0xB7, |case, rng| {
        let store = SnapshotStore::new(SnapshotConfig {
            restore_bandwidth: Bandwidth::from_mbps(rng.uniform(100.0, 5000.0)),
            restore_setup: SimDuration::from_millis(int_in(rng, 0, 200)),
            warmup_fault_fraction: rng.uniform(0.0, 1.0),
            fault_bandwidth: Bandwidth::from_mbps(rng.uniform(10.0, 1000.0)),
        });
        let mut sizes: Vec<u64> = (0..12).map(|_| int_in(rng, 0, 4_000_000_000)).collect();
        sizes.sort_unstable();
        let mut previous = SimDuration::ZERO;
        let mut previous_size = 0u64;
        for &size in &sizes {
            let latency = store.restore_latency(Bytes::new(size));
            assert!(
                latency >= previous,
                "case {case}: {size} B restores faster than {previous_size} B"
            );
            assert!(
                store.warmup_tail(Bytes::new(size)) <= latency,
                "case {case}: tail exceeds the restore it is part of"
            );
            previous = latency;
            previous_size = size;
        }
        assert_eq!(
            store.restore_latency(Bytes::ZERO),
            SimDuration::ZERO,
            "case {case}: zero-size snapshots are free"
        );
    });
}

/// The offline-optimal cold-start bound is a true floor: for random traces,
/// rack counts, seeds and every scheduler / keepalive / scaling / balancer /
/// cold-start-path / IPC-transport combination, the measured aggregate
/// cold-start seconds never dip below the bound priced under the cell's own
/// modality, and the derived regret is therefore non-negative.
#[test]
fn offline_optimal_bound_floors_every_policys_cold_start_seconds() {
    use dscs_serverless::cluster::coldpath::{ColdStartPath, IpcTransport};
    use dscs_serverless::cluster::experiment::Experiment;
    use dscs_serverless::cluster::optimal::{optimal_coldstart_seconds, regret_pct};
    use dscs_serverless::cluster::policy::{
        KeepalivePolicy, LoadBalancer, ScalingPolicy, SchedulerPolicy,
    };
    use dscs_serverless::cluster::sim::{ClusterConfig, ClusterSim};
    use dscs_serverless::cluster::trace::RateProfile;
    use dscs_serverless::platforms::PlatformKind;

    // Model evaluation dominates; share one base simulator per platform and
    // replay the (tiny) random traces against it.
    let bases: Vec<ClusterSim> = [PlatformKind::BaselineCpu, PlatformKind::DscsDsa]
        .into_iter()
        .map(|p| ClusterSim::new(p, ClusterConfig::default()))
        .collect();
    check(0xB0, |case, rng| {
        let profile = RateProfile {
            segments: vec![
                (
                    SimDuration::from_secs(int_in(rng, 1, 8)),
                    rng.uniform(5.0, 300.0),
                ),
                (
                    SimDuration::from_secs(int_in(rng, 1, 8)),
                    rng.uniform(5.0, 300.0),
                ),
            ],
        };
        let trace = profile.generate(&mut DeterministicRng::seeded(int_in(rng, 0, 1000)));
        if trace.is_empty() {
            return;
        }
        let base = &bases[int_in(rng, 0, 2) as usize];
        let scheduler = SchedulerPolicy::ALL[int_in(rng, 0, 3) as usize];
        let keepalive = KeepalivePolicy::all_default()[int_in(rng, 0, 4) as usize];
        let scaling = ScalingPolicy::all_default()[int_in(rng, 0, 3) as usize];
        let balancer = LoadBalancer::ALL[int_in(rng, 0, 3) as usize];
        let cold_path = ColdStartPath::ALL[int_in(rng, 0, 3) as usize];
        let ipc = IpcTransport::ALL[int_in(rng, 0, 3) as usize];
        let outcome = Experiment::builder(base.platform())
            .trace(trace.clone())
            .racks(1 + int_in(rng, 0, 3) as u32)
            .scheduler(scheduler)
            .keepalive(keepalive)
            .scaling(scaling)
            .balancer(balancer)
            .cold_path(cold_path)
            .ipc(ipc)
            .seed(int_in(rng, 0, 1000))
            .build()
            .unwrap_or_else(|err| panic!("case {case}: valid config rejected: {err}"))
            .run_on(base);
        // Price the bound under the cell's own cold-start modality (the IPC
        // transport charges the request path, not cold starts, so it is not
        // part of the bound's pricing).
        let priced = base.reconfigured(ClusterConfig {
            cold_path,
            ..ClusterConfig::default()
        });
        let bound = optimal_coldstart_seconds(&trace, &priced);
        assert_eq!(
            outcome.optimal_coldstart_s,
            Some(bound),
            "case {case}: the outcome carries exactly the recomputed bound"
        );
        // The floor is exact in real arithmetic; allow one part in 1e9 for
        // summation-order noise (racks accumulate in event order, the bound
        // in trace order).
        assert!(
            outcome.report.coldstart_s >= bound * (1.0 - 1e-9),
            "case {case} ({} / {} / {} / {} / {} / {}): measured {} below the bound {bound}",
            scheduler.name(),
            keepalive.name(),
            scaling.name(),
            balancer.name(),
            cold_path.name(),
            ipc.name(),
            outcome.report.coldstart_s,
        );
        assert!(
            regret_pct(outcome.report.coldstart_s, bound) >= 0.0,
            "case {case}"
        );
    });
}

/// The straightforward trace-file ingest the byte-level parser and the
/// per-minute expansion replaced, kept as the oracle they must match:
/// `BufRead::lines` plus `split_record` per line, and a collect-then-sort
/// expansion over `(arrival, function, draw)`.
mod ingest_reference {
    use std::io::BufRead;

    use dscs_serverless::cluster::ingest::{
        IngestError, TraceFileWorkload, TraceFunction, MEMORY_COLUMN_PREFIX, MINUTES_PER_DAY,
    };
    use dscs_serverless::cluster::trace::TraceRequest;
    use dscs_serverless::cluster::workload::{
        AzureWorkload, ObjectCatalog, Workload, WorkloadError,
    };
    use dscs_serverless::simcore::csv::split_record;
    use dscs_serverless::simcore::rng::DeterministicRng;
    use dscs_serverless::simcore::time::{SimDuration, SimTime};

    const META_COLUMNS: usize = 4;

    struct HeaderLayout {
        minutes: u32,
        percentiles: Vec<u32>,
    }

    fn parse_header(fields: &[String]) -> Result<HeaderLayout, IngestError> {
        let mut minutes = 0u32;
        let mut percentiles = Vec::new();
        for (offset, name) in fields.iter().skip(META_COLUMNS).enumerate() {
            let unknown = || IngestError::UnknownHeaderColumn {
                column: offset + 1,
                name: name.clone(),
            };
            if let Some(level) = name.strip_prefix(MEMORY_COLUMN_PREFIX) {
                match level.parse::<u32>() {
                    Ok(level) if (1..=100).contains(&level) => percentiles.push(level),
                    _ => return Err(unknown()),
                }
            } else if !percentiles.is_empty() {
                return Err(unknown());
            } else if name.parse::<u32>().is_ok() {
                minutes += 1;
            } else {
                return Err(unknown());
            }
        }
        Ok(HeaderLayout {
            minutes,
            percentiles,
        })
    }

    pub fn from_reader(
        reader: impl BufRead,
        source: &str,
        day: u32,
    ) -> Result<TraceFileWorkload, IngestError> {
        let mut functions: Vec<TraceFunction> = Vec::new();
        let mut minutes = 0u32;
        let mut header: Option<HeaderLayout> = None;
        for (index, line) in reader.lines().enumerate() {
            let line_no = index + 1;
            let line = line.map_err(|err| IngestError::Io {
                path: "<reader>".into(),
                message: err.to_string(),
            })?;
            if line.trim().is_empty() {
                continue;
            }
            let fields = split_record(&line, line_no)?;
            if line_no == 1 && fields.first().map(String::as_str) == Some("HashOwner") {
                header = Some(parse_header(&fields)?);
                continue;
            }
            if fields.len() < META_COLUMNS {
                return Err(IngestError::MissingColumns {
                    line: line_no,
                    found: fields.len(),
                });
            }
            let layout = header.as_ref().filter(|h| !h.percentiles.is_empty());
            let data = &fields[META_COLUMNS..];
            if let Some(layout) = layout {
                let expected = layout.minutes as usize + layout.percentiles.len();
                if data.len() > expected {
                    return Err(IngestError::RowTooWide {
                        line: line_no,
                        found: data.len(),
                        expected,
                    });
                }
            }
            let count_columns = layout
                .map(|h| h.minutes as usize)
                .unwrap_or(data.len())
                .min(data.len());
            let mut counts = Vec::with_capacity(count_columns);
            for (offset, field) in data[..count_columns].iter().enumerate() {
                if field.is_empty() {
                    counts.push(0);
                    continue;
                }
                let count = field
                    .parse::<u32>()
                    .map_err(|_| IngestError::MalformedCount {
                        line: line_no,
                        column: offset + 1,
                        value: field.clone(),
                    })?;
                counts.push(count);
            }
            let mut memory_mb = Vec::new();
            if let Some(layout) = layout {
                for (offset, field) in data[count_columns..].iter().enumerate() {
                    if field.is_empty() {
                        memory_mb.push(0);
                        continue;
                    }
                    let mb = field
                        .parse::<u32>()
                        .map_err(|_| IngestError::MalformedMemory {
                            line: line_no,
                            percentile: layout.percentiles[offset],
                            value: field.clone(),
                        })?;
                    memory_mb.push(mb);
                }
                memory_mb.resize(layout.percentiles.len(), 0);
            }
            minutes = minutes.max(counts.len() as u32);
            let mut fields = fields.into_iter();
            functions.push(TraceFunction {
                owner: fields.next().expect("checked above"),
                app: fields.next().expect("checked above"),
                function: fields.next().expect("checked above"),
                trigger: fields.next().expect("checked above"),
                counts,
                memory_mb,
            });
        }
        if functions.is_empty() {
            return Err(IngestError::EmptyFile);
        }
        let memory_percentiles = match header {
            Some(layout) if !layout.percentiles.is_empty() => {
                minutes = layout.minutes;
                layout.percentiles
            }
            _ => Vec::new(),
        };
        if day == 0 {
            return Err(IngestError::DayZero);
        }
        if u64::from(day - 1) * u64::from(MINUTES_PER_DAY) >= u64::from(minutes) {
            return Err(IngestError::DayOutOfRange { day, minutes });
        }
        for function in &mut functions {
            function.counts.resize(minutes as usize, 0);
        }
        Ok(TraceFileWorkload {
            source: source.into(),
            functions,
            minutes,
            day,
            memory_percentiles,
        })
    }

    pub fn generate(
        workload: &TraceFileWorkload,
        rng: &mut DeterministicRng,
    ) -> Result<Vec<TraceRequest>, WorkloadError> {
        workload.validate()?;
        let start = ((workload.day - 1) * MINUTES_PER_DAY) as usize;
        let end = (workload.day * MINUTES_PER_DAY).min(workload.minutes) as usize;
        let ids: Vec<u32> = workload.functions.iter().map(TraceFunction::id).collect();
        let mut arrivals: Vec<(SimTime, u32, u64)> = Vec::new();
        let mut draw = 0u64;
        for minute in start..end {
            let minute_start = 60.0 * (minute - start) as f64;
            for (row, function) in workload.functions.iter().enumerate() {
                for _ in 0..function.counts[minute] {
                    let jitter = rng.uniform(0.0, 60.0);
                    arrivals.push((
                        SimTime::ZERO + SimDuration::from_secs_f64(minute_start + jitter),
                        ids[row],
                        draw,
                    ));
                    draw += 1;
                }
            }
        }
        arrivals.sort_by_key(|&(arrival, function, draw)| (arrival, function, draw));
        let catalog = ObjectCatalog::new(workload.objects());
        Ok(arrivals
            .into_iter()
            .enumerate()
            .map(|(id, (arrival, function, _))| {
                let object = catalog.object_for(function, id as u64);
                TraceRequest {
                    arrival,
                    benchmark: AzureWorkload::benchmark_of(function),
                    function,
                    object,
                    object_bytes: catalog.size_of(function, object),
                }
            })
            .collect())
    }
}

/// True with probability `p`.
fn chance(rng: &mut DeterministicRng, p: f64) -> bool {
    rng.next_f64() < p
}

/// One random count or memory field as the dataset (or a careless export)
/// might write it: empty, small, up to nine digits, ten digits within
/// `u32`, or zero-padded.
fn random_count_field(rng: &mut DeterministicRng) -> String {
    match int_in(rng, 0, 10) {
        0 => String::new(),
        1 => int_in(rng, 0, 1_000_000_000).to_string(),
        2 => int_in(rng, 1_000_000_000, u64::from(u32::MAX) + 1).to_string(),
        3 => format!("{:03}", int_in(rng, 0, 100)),
        _ => int_in(rng, 0, 20).to_string(),
    }
}

/// Quotes `field` when it needs it, and at random when it does not.
fn quote_field(rng: &mut DeterministicRng, field: &str) -> String {
    if field.contains([',', '"']) || chance(rng, 0.1) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// A random Azure-schema table: an optional header with optional trailing
/// memory-percentile columns, metadata fields with embedded commas and
/// quotes, ragged and over-wide rows, empty count fields, blank lines, LF
/// or CRLF line ends, and an optional final newline.
fn random_trace_csv(rng: &mut DeterministicRng) -> Vec<u8> {
    let minutes = int_in(rng, 0, 9) as usize;
    let header = chance(rng, 0.6);
    let percentiles: Vec<u64> = if header && chance(rng, 0.4) {
        (0..int_in(rng, 1, 3))
            .map(|_| int_in(rng, 1, 101))
            .collect()
    } else {
        Vec::new()
    };
    let mut lines: Vec<String> = Vec::new();
    if header {
        let mut fields: Vec<String> = ["HashOwner", "HashApp", "HashFunction", "Trigger"]
            .iter()
            .map(|name| name.to_string())
            .collect();
        fields.extend((1..=minutes).map(|m| m.to_string()));
        fields.extend(
            percentiles
                .iter()
                .map(|p| format!("AverageAllocatedMb_pct{p}")),
        );
        if chance(rng, 0.05) {
            fields.push("Bogus".into());
        }
        lines.push(fields.join(","));
    }
    const META_ALPHABET: &[char] = &['a', 'b', 'Z', '0', '9', ' ', ',', '"', '-'];
    for _ in 0..int_in(rng, 0, 6) {
        if chance(rng, 0.1) {
            lines.push(if chance(rng, 0.5) {
                String::new()
            } else {
                "  ".into()
            });
        }
        let mut fields: Vec<String> = (0..4)
            .map(|_| {
                let text: String = (0..int_in(rng, 0, 6))
                    .map(|_| META_ALPHABET[rng.next_index(META_ALPHABET.len())])
                    .collect();
                quote_field(rng, &text)
            })
            .collect();
        let full = minutes + percentiles.len();
        let width = if chance(rng, 0.3) {
            full.saturating_sub(int_in(rng, 0, 4) as usize)
        } else if chance(rng, 0.1) {
            full + int_in(rng, 1, 3) as usize
        } else {
            full
        };
        for _ in 0..width {
            let field = random_count_field(rng);
            fields.push(if chance(rng, 0.05) {
                format!("\"{field}\"")
            } else {
                field
            });
        }
        lines.push(fields.join(","));
    }
    let newline = if chance(rng, 0.5) { "\r\n" } else { "\n" };
    let mut text = lines.join(newline);
    if chance(rng, 0.8) {
        text.push_str(newline);
    }
    text.into_bytes()
}

/// Damages `bytes` the way real files get damaged: truncation, flipped
/// bits, signed / overflowing / zero-padded numbers, stray quotes, line
/// ends and separators, and invalid UTF-8.
fn mutate_trace_csv(rng: &mut DeterministicRng, bytes: &mut Vec<u8>) {
    const TOKENS: &[&[u8]] = &[
        b"+7",
        b"-1",
        b"4294967296",
        b"007",
        b"\"",
        b",",
        b"\r",
        b"\n",
        b"\r\n",
        b"  ",
        b"\xff",
        b"\xc3",
        b"\xef\xbb\xbf",
    ];
    for _ in 0..int_in(rng, 1, 4) {
        match int_in(rng, 0, 4) {
            0 => bytes.truncate(rng.next_index(bytes.len() + 1)),
            1 if !bytes.is_empty() => {
                let at = rng.next_index(bytes.len());
                bytes[at] ^= 1 << rng.next_index(8);
            }
            _ => {
                let at = rng.next_index(bytes.len() + 1);
                let token = TOKENS[rng.next_index(TOKENS.len())];
                bytes.splice(at..at, token.iter().copied());
            }
        }
    }
}

/// The byte-level parser returns exactly what the `lines()` +
/// `split_record` parser returns — the same workload, or the same error
/// down to its line, column and value — on valid tables and on damaged
/// ones, and never panics. The only intended difference is a leading
/// byte-order mark, which the parser drops and the reference does not know
/// about, so the reference reads the input without it.
#[test]
fn trace_file_parser_matches_the_line_splitting_reference() {
    use dscs_serverless::cluster::ingest::TraceFileWorkload;

    const BOM: &[u8] = b"\xef\xbb\xbf";
    let mut parsed_ok = 0;
    let mut inputs = 0;
    check(0xB1, |case, rng| {
        for _ in 0..4 {
            let mut bytes = random_trace_csv(rng);
            if chance(rng, 0.2) {
                bytes.splice(0..0, BOM.iter().copied());
            }
            for mutation in 0..5 {
                if mutation > 0 {
                    mutate_trace_csv(rng, &mut bytes);
                }
                let day = match int_in(rng, 0, 20) {
                    0 => 0,
                    1 => 2,
                    2 => u32::MAX,
                    _ => 1,
                };
                let fast = TraceFileWorkload::from_reader(&bytes[..], "t", day);
                let reference = ingest_reference::from_reader(
                    bytes.strip_prefix(BOM).unwrap_or(&bytes),
                    "t",
                    day,
                );
                assert_eq!(
                    fast,
                    reference,
                    "case {case}, mutation {mutation}: {:?}",
                    String::from_utf8_lossy(&bytes)
                );
                inputs += 1;
                parsed_ok += usize::from(fast.is_ok());
            }
        }
    });
    // The generator is not degenerate: a fair share of inputs parse.
    assert!(
        parsed_ok * 10 >= inputs,
        "only {parsed_ok} of {inputs} inputs parsed"
    );
}

/// A random sparse trace-file table over one to two days (the last one
/// partial), with rows that sometimes share a function hash.
fn random_trace_table(
    rng: &mut DeterministicRng,
) -> dscs_serverless::cluster::ingest::TraceFileWorkload {
    use dscs_serverless::cluster::ingest::{TraceFileWorkload, TraceFunction, MINUTES_PER_DAY};

    let days = int_in(rng, 1, 3) as u32;
    let minutes = (days - 1) * MINUTES_PER_DAY + int_in(rng, 1, 1441) as u32;
    let functions = (0..int_in(rng, 1, 6))
        .map(|_| {
            let mut counts = vec![0u32; minutes as usize];
            for _ in 0..int_in(rng, 0, 60) {
                counts[rng.next_index(minutes as usize)] += int_in(rng, 1, 30) as u32;
            }
            TraceFunction {
                owner: "o".into(),
                app: "a".into(),
                function: format!("f{}", int_in(rng, 0, 4)),
                trigger: "http".into(),
                counts,
                memory_mb: Vec::new(),
            }
        })
        .collect();
    TraceFileWorkload {
        source: "random".into(),
        functions,
        minutes,
        day: int_in(rng, 1, u64::from(days) + 2) as u32,
        memory_percentiles: Vec::new(),
    }
}

/// The per-minute expansion is bit-equal to the collect-then-global-sort
/// reference over random tables, days (in range or not) and seeds.
#[test]
fn trace_file_expansion_matches_the_global_sort_reference() {
    use dscs_serverless::cluster::workload::Workload;

    check(0xB2, |case, rng| {
        let table = random_trace_table(rng);
        let seed = rng.next_u64();
        assert_eq!(
            table.generate(&mut DeterministicRng::seeded(seed)),
            ingest_reference::generate(&table, &mut DeterministicRng::seeded(seed)),
            "case {case}: day {} of {} minutes",
            table.day,
            table.minutes
        );
    });
}

/// Minutes dense enough that jitter draws collide on the nanosecond, both
/// within one function and across two: the tied requests still come out
/// in the reference's (function, draw) order, objects included.
#[test]
fn trace_file_expansion_matches_the_reference_on_dense_ties() {
    use dscs_serverless::cluster::ingest::{TraceFileWorkload, TraceFunction};
    use dscs_serverless::cluster::workload::Workload;

    let row = |function: &str, counts: Vec<u32>| TraceFunction {
        owner: "o".into(),
        app: "a".into(),
        function: function.into(),
        trigger: "http".into(),
        counts,
        memory_mb: Vec::new(),
    };
    let table = TraceFileWorkload {
        source: "dense".into(),
        // "warm" hashes to a larger id than "hot" but draws first, so the
        // draw order and the function order disagree on cross-function ties.
        functions: vec![
            row("warm", vec![350_000, 5]),
            row("hot", vec![350_000, 3]),
            row("warm", vec![1, 0]),
        ],
        minutes: 2,
        day: 1,
        memory_percentiles: Vec::new(),
    };
    let seed = 1;
    let trace = table
        .generate(&mut DeterministicRng::seeded(seed))
        .expect("valid table");
    let tied = |same_function: bool| {
        trace
            .windows(2)
            .filter(|w| {
                w[0].arrival == w[1].arrival && (w[0].function == w[1].function) == same_function
            })
            .count()
    };
    assert!(tied(true) > 0, "the table must tie within a function");
    assert!(tied(false) > 0, "the table must tie across functions");
    assert_eq!(
        Ok(trace),
        ingest_reference::generate(&table, &mut DeterministicRng::seeded(seed))
    );
}

/// Draws one CSV field from the pieces that stress the quoting rules:
/// separators, quotes, line breaks, the empty string and multi-byte UTF-8.
fn csv_field(rng: &mut DeterministicRng) -> String {
    const PIECES: [&str; 10] = [",", "\"", "\r", "\n", "", "a", " ", "é", "数据", "🦀"];
    (0..int_in(rng, 0, 6))
        .map(|_| *rng.choose(&PIECES))
        .collect()
}

/// `render_record` is the exact inverse of `split_record` for any non-empty
/// field list.
#[test]
fn csv_records_roundtrip_through_render_and_split() {
    use dscs_serverless::simcore::csv::{render_record, split_record};
    check(0xC5, |case, rng| {
        let fields: Vec<String> = (0..int_in(rng, 1, 8)).map(|_| csv_field(rng)).collect();
        let line = int_in(rng, 1, 1 << 20) as usize;
        assert_eq!(
            split_record(&render_record(&fields), line),
            Ok(fields),
            "case {case}"
        );
    });
}

/// `split_record` never panics: a random line, or a rendered record with a
/// few characters inserted, deleted or replaced, either splits or fails
/// with an error addressed to the line number it was given.
#[test]
fn csv_split_errors_carry_their_line_and_never_panic() {
    use dscs_serverless::simcore::csv::{render_record, split_record};
    let (mut split, mut rejected) = (0, 0);
    check(0xC6, |case, rng| {
        let fields: Vec<String> = (0..int_in(rng, 1, 8)).map(|_| csv_field(rng)).collect();
        let mut chars: Vec<char> = if rng.bernoulli(0.5) {
            render_record(&fields).chars().collect()
        } else {
            fields.concat().chars().collect()
        };
        for _ in 0..int_in(rng, 0, 4) {
            let at = rng.next_index(chars.len() + 1);
            let c = *rng.choose(&['"', ',', '\r', '\n', 'x', 'é']);
            match (int_in(rng, 0, 3), at < chars.len()) {
                (0, _) | (_, false) => chars.insert(at, c),
                (1, true) => {
                    chars.remove(at);
                }
                (_, true) => chars[at] = c,
            }
        }
        let record: String = chars.into_iter().collect();
        let line = int_in(rng, 1, 1 << 20) as usize;
        match split_record(&record, line) {
            Ok(_) => split += 1,
            Err(err) => {
                assert_eq!(err.line, line, "case {case}: {record:?}");
                rejected += 1;
            }
        }
    });
    assert!(
        split > 0 && rejected > 0,
        "{split} split, {rejected} rejected"
    );
}
