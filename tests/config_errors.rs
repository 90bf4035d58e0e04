//! The builder error matrix: every invalid run specification yields the
//! matching typed [`ConfigError`] from `ExperimentBuilder::build`, in the
//! historical check order, and rejected [`WorkloadSpec`]s fold into
//! `ConfigError::WorkloadSpec` with their typed source preserved.
//!
//! [`WorkloadSpec`]: dscs_serverless::cluster::workload::WorkloadSpec

use dscs_serverless::cluster::data::{DataLayer, MAX_RACKS};
use dscs_serverless::cluster::experiment::{ConfigError, Experiment};
use dscs_serverless::cluster::policy::ScalingPolicy;
use dscs_serverless::cluster::trace::{RateProfile, TraceRequest};
use dscs_serverless::platforms::PlatformKind;
use dscs_serverless::simcore::rng::DeterministicRng;
use dscs_serverless::simcore::time::SimDuration;

fn short_trace(seed: u64) -> Vec<TraceRequest> {
    let profile = RateProfile {
        segments: vec![(SimDuration::from_secs(4), 60.0)],
    };
    profile.generate(&mut DeterministicRng::seeded(seed))
}

/// Every invalid input class maps to its own `ConfigError` variant, and
/// the builder reports the *first* violation in the historical check order.
#[test]
fn every_formerly_panicking_input_yields_the_matching_typed_error() {
    // 1. Empty trace (and the no-trace-at-all case).
    assert_eq!(
        Experiment::builder(PlatformKind::DscsDsa)
            .trace(Vec::new())
            .build()
            .expect_err("empty trace"),
        ConfigError::EmptyTrace
    );
    assert_eq!(
        Experiment::builder(PlatformKind::DscsDsa)
            .build()
            .expect_err("missing trace"),
        ConfigError::EmptyTrace
    );

    // 2. Zero racks.
    assert_eq!(
        Experiment::builder(PlatformKind::DscsDsa)
            .trace(short_trace(1))
            .racks(0)
            .build()
            .expect_err("zero racks"),
        ConfigError::ZeroRacks
    );

    // 3. Data layer built for a different rack count.
    let trace = short_trace(2);
    let data = DataLayer::for_trace(&trace, 4, 9);
    assert_eq!(
        Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace)
            .racks(2)
            .data_layer(data)
            .build()
            .expect_err("mismatched data layer"),
        ConfigError::DataLayerRackMismatch {
            layer_racks: 4,
            racks: 2
        }
    );

    // 3b. More racks than a data layer can index, with or without a layer
    // to place: rejected before any placement is built.
    for builder in [
        Experiment::builder(PlatformKind::DscsDsa),
        Experiment::builder(PlatformKind::DscsDsa).place_data(9),
    ] {
        assert_eq!(
            builder
                .trace(short_trace(2))
                .racks(MAX_RACKS + 1)
                .build()
                .expect_err("too many racks"),
            ConfigError::TooManyRacks {
                racks: MAX_RACKS + 1,
                max: MAX_RACKS
            }
        );
    }

    // 4. Elastic pool with zero min_instances.
    assert_eq!(
        Experiment::builder(PlatformKind::DscsDsa)
            .trace(short_trace(3))
            .scaling(ScalingPolicy::reactive_default())
            .instances(0, 200)
            .build()
            .expect_err("zero min"),
        ConfigError::ZeroMinInstances
    );

    // 5. min_instances above max_instances.
    assert_eq!(
        Experiment::builder(PlatformKind::DscsDsa)
            .trace(short_trace(4))
            .scaling(ScalingPolicy::predictive_default())
            .instances(128, 16)
            .build()
            .expect_err("min above max"),
        ConfigError::MinAboveMax { min: 128, max: 16 }
    );
}

/// A data layer's per-request home racks describe only the trace it was
/// placed for: attaching it to a reordered or truncated copy of that trace
/// is a typed error, while the trace itself (or an equal copy) is accepted.
#[test]
fn a_layer_placed_for_another_trace_is_rejected() {
    let trace = short_trace(6);
    let data = std::sync::Arc::new(DataLayer::for_trace(&trace, 2, 9));
    let attach = |trace: Vec<TraceRequest>| {
        Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace)
            .racks(2)
            .data_layer(data.clone())
            .build()
            .map(|_| ())
    };
    assert_eq!(attach(trace.clone()), Ok(()));

    let truncated = trace[..trace.len() - 1].to_vec();
    assert_eq!(
        attach(truncated),
        Err(ConfigError::DataLayerTraceMismatch {
            layer_requests: trace.len(),
            requests: trace.len() - 1
        })
    );

    // Swap the first two requests that read different objects: the same
    // length and the same multiset of objects, in another order.
    let mut reordered = trace.clone();
    let differs = (1..trace.len())
        .find(|&i| (trace[i].function, trace[i].object) != (trace[0].function, trace[0].object))
        .expect("the trace reads more than one object");
    reordered.swap(0, differs);
    assert_eq!(
        attach(reordered),
        Err(ConfigError::DataLayerTraceMismatch {
            layer_requests: trace.len(),
            requests: trace.len()
        })
    );
}

/// The scaling-parameter violations surface as typed errors, both from
/// `check()` and through the builder.
#[test]
fn scaling_parameter_violations_are_typed_errors() {
    let zero_reactive = ScalingPolicy::Reactive {
        scale_up_queue: 8,
        scale_down_queue: 2,
        step: 4,
        interval: SimDuration::ZERO,
    };
    assert_eq!(
        zero_reactive.check().expect_err("zero interval"),
        ConfigError::ZeroScalingInterval { policy: "reactive" }
    );
    let zero_predictive = ScalingPolicy::Predictive {
        interval: SimDuration::ZERO,
        headroom: 1.5,
    };
    assert_eq!(
        zero_predictive.check().expect_err("zero interval"),
        ConfigError::ZeroScalingInterval {
            policy: "predictive"
        }
    );
    let zero_step = ScalingPolicy::Reactive {
        scale_up_queue: 8,
        scale_down_queue: 2,
        step: 0,
        interval: SimDuration::from_secs(5),
    };
    assert_eq!(
        zero_step.check().expect_err("zero step"),
        ConfigError::ZeroReactiveStep
    );
    let overlapping = ScalingPolicy::Reactive {
        scale_up_queue: 4,
        scale_down_queue: 4,
        step: 4,
        interval: SimDuration::from_secs(5),
    };
    assert_eq!(
        overlapping.check().expect_err("overlap"),
        ConfigError::OverlappingReactiveThresholds {
            scale_up_queue: 4,
            scale_down_queue: 4
        }
    );
    for headroom in [0.99, f64::NAN, f64::INFINITY] {
        let policy = ScalingPolicy::Predictive {
            interval: SimDuration::from_secs(5),
            headroom,
        };
        assert!(matches!(
            policy.check().expect_err("bad headroom"),
            ConfigError::InvalidPredictiveHeadroom { .. }
        ));
        // The same violation through the builder (scaling checked before the
        // elastic bounds).
        let err = Experiment::builder(PlatformKind::DscsDsa)
            .trace(short_trace(5))
            .scaling(policy)
            .build()
            .expect_err("builder relays the scaling error");
        assert!(matches!(err, ConfigError::InvalidPredictiveHeadroom { .. }));
    }
}

/// `ConfigError` is a real `std::error::Error`: displayable, and the
/// workload-spec variant exposes its source.
#[test]
fn config_errors_display_and_expose_sources() {
    use dscs_serverless::cluster::ingest::IngestError;
    use dscs_serverless::cluster::workload::{WorkloadSpec, WorkloadSpecError};
    use std::error::Error;

    let missing = WorkloadSpec::TraceFile {
        path: "/nonexistent/trace.csv".into(),
        day: 1,
    };
    let err = Experiment::builder(PlatformKind::DscsDsa)
        .workload_spec(&missing)
        .build()
        .expect_err("missing trace file");
    assert!(matches!(
        err,
        ConfigError::WorkloadSpec(WorkloadSpecError::Ingest(_))
    ));
    let source = err.source().expect("spec errors carry their source");
    assert!(source.downcast_ref::<WorkloadSpecError>().is_some());
    assert!(matches!(
        source
            .source()
            .and_then(|e| e.downcast_ref::<IngestError>()),
        Some(IngestError::Io { .. })
    ));
    assert!(!err.to_string().is_empty());
    assert!(
        ConfigError::ZeroRacks.source().is_none(),
        "leaf errors have no source"
    );
}

/// Every way a declarative `WorkloadSpec` can be rejected maps to its own
/// typed `WorkloadSpecError`, and the build-time ones fold into
/// `ConfigError::WorkloadSpec` with the source chain intact.
#[test]
fn rejected_workload_specs_fold_into_config_errors() {
    use dscs_serverless::cluster::at_scale::SweepScale;
    use dscs_serverless::cluster::ingest::IngestError;
    use dscs_serverless::cluster::workload::{WorkloadSpec, WorkloadSpecError};
    use std::error::Error;
    use std::sync::Arc;

    // Parse-time rejections: unknown kind, malformed day.
    assert_eq!(
        WorkloadSpec::parse("tide", SweepScale::Smoke, 1).expect_err("unknown kind"),
        WorkloadSpecError::UnknownKind {
            kind: "tide".into()
        }
    );
    assert_eq!(
        WorkloadSpec::parse("trace:f.csv@zero", SweepScale::Smoke, 1).expect_err("bad day"),
        WorkloadSpecError::InvalidDay {
            value: "zero".into()
        }
    );

    // Build-time rejection: a missing trace file surfaces as a typed ingest
    // error wrapped in `ConfigError::WorkloadSpec`, source chain intact.
    let missing = WorkloadSpec::TraceFile {
        path: "/nonexistent/trace.csv".into(),
        day: 1,
    };
    let err = Experiment::builder(PlatformKind::DscsDsa)
        .workload_spec(&missing)
        .build()
        .expect_err("missing trace file");
    assert!(matches!(
        err,
        ConfigError::WorkloadSpec(WorkloadSpecError::Ingest(IngestError::Io { .. }))
    ));
    assert!(err.source().is_some(), "spec errors chain their source");
    assert!(err.to_string().contains("workload spec rejected"));

    // An inline spec with no requests is its own variant.
    let empty = WorkloadSpec::Inline {
        name: "empty".into(),
        source: "synthetic".into(),
        horizon_s: 1.0,
        trace: Arc::new(Vec::new()),
    };
    assert_eq!(
        Experiment::builder(PlatformKind::DscsDsa)
            .workload_spec(&empty)
            .build()
            .expect_err("empty inline trace"),
        ConfigError::WorkloadSpec(WorkloadSpecError::EmptyInline)
    );
}
