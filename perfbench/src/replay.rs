//! Layer replays: the workload's own realised trace driven through the
//! engine's hot building blocks one at a time, through public functions
//! only, so each block's cost per operation shows on its own.

use std::hint::black_box;
use std::time::Instant;

use dscs_cluster::{
    ClusterSim, DataLayer, KeepalivePolicy, KeepaliveState, SchedQueue, SchedulerPolicy,
    TraceRequest,
};
use dscs_simcore::events::EventQueue;
use dscs_simcore::stats::QuantileSketch;

/// Requests replayed per trace: enough for a steady per-operation figure,
/// few enough that the 10⁷-request trace replays in well under a second.
pub const REPLAY_REQUESTS: usize = 1 << 20;

/// Queue depth the scheduler-queue replay holds: requests wait in the queue
/// this deep before the next pop, as a backlogged rack's does.
const SCHED_DEPTH: usize = 64;

/// Sketches the merge replay folds together.
const MERGE_PARTS: usize = 64;

/// One trace with the data layer and simulator it ran against.
pub struct ReplayInput<'a> {
    pub trace: &'a [TraceRequest],
    pub data: &'a DataLayer,
    pub sim: &'a ClusterSim,
}

fn ns_per(ops: u64, started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Runs every replay over each input's trace prefix and returns
/// `(metric name, value)` pairs, each averaged over all inputs' operations.
pub fn run(inputs: &[ReplayInput]) -> Vec<(&'static str, f64)> {
    let mut total = [(0u64, 0.0f64); 8];
    for input in inputs {
        let trace = &input.trace[..input.trace.len().min(REPLAY_REQUESTS)];
        let service: Vec<_> = trace
            .iter()
            .map(|r| input.sim.service_time(r.benchmark))
            .collect();
        let n = trace.len() as u64;
        let mut add = |slot: usize, ops: u64, ns: f64| {
            total[slot].0 += ops;
            total[slot].1 += ns * ops as f64;
        };

        // Keepalive bookkeeping: the warm check and the invocation record
        // every started request pays.
        let started = Instant::now();
        let mut keepalive = KeepaliveState::new(KeepalivePolicy::hybrid_default());
        let mut warm = 0u64;
        for (r, &s) in trace.iter().zip(&service) {
            warm += u64::from(keepalive.is_warm(r.function, r.arrival));
            keepalive.record_invocation(r.function, r.arrival, r.arrival + s);
        }
        black_box(warm);
        add(0, n, ns_per(n, started));

        // Replica lookups on the dispatch path.
        let started = Instant::now();
        let mut replicas = 0usize;
        for r in trace {
            replicas += input.data.replica_racks(r.function, r.object).len();
        }
        black_box(replicas);
        add(1, n, ns_per(n, started));

        // Event queue: each arrival pops the completions due before it and
        // schedules its own completion.
        let started = Instant::now();
        let mut queue = EventQueue::new();
        let mut ops = 0u64;
        for (i, (r, &s)) in trace.iter().zip(&service).enumerate() {
            while queue.peek_time().is_some_and(|t| t <= r.arrival) {
                black_box(queue.pop());
                ops += 1;
            }
            queue.schedule(r.arrival + s, i);
            ops += 1;
        }
        while let Some(event) = queue.pop() {
            black_box(event);
            ops += 1;
        }
        add(2, ops, ns_per(ops, started));

        // Scheduler queues, one per discipline, held SCHED_DEPTH deep.
        for (slot, policy) in [
            (3, SchedulerPolicy::Fcfs),
            (4, SchedulerPolicy::ShortestJobFirst),
            (5, SchedulerPolicy::FairPerBenchmark),
        ] {
            let started = Instant::now();
            let mut queue = SchedQueue::new(policy);
            let mut ops = 0u64;
            for (i, (r, &s)) in trace.iter().zip(&service).enumerate() {
                queue.push(i, r.benchmark, s);
                ops += 1;
                if queue.len() > SCHED_DEPTH {
                    black_box(queue.pop());
                    ops += 1;
                }
            }
            while let Some(i) = queue.pop() {
                black_box(i);
                ops += 1;
            }
            add(slot, ops, ns_per(ops, started));
        }

        // Latency sketch: one record per request (its modelled service
        // time), then the merge of MERGE_PARTS partial sketches the way
        // per-rack sketches merge into a cell's.
        let started = Instant::now();
        let mut parts: Vec<QuantileSketch> =
            (0..MERGE_PARTS).map(|_| QuantileSketch::new()).collect();
        for (i, s) in service.iter().enumerate() {
            parts[i % MERGE_PARTS].record(s.as_secs_f64() * 1e3);
        }
        add(6, n, ns_per(n, started));
        let started = Instant::now();
        let mut merged = QuantileSketch::new();
        for part in &parts {
            merged.merge(part);
        }
        black_box(merged.p99());
        add(7, MERGE_PARTS as u64, ns_per(MERGE_PARTS as u64, started));
    }
    let mean = |slot: usize| total[slot].1 / total[slot].0.max(1) as f64;
    vec![
        ("policy.keepalive.ns_per_req", mean(0)),
        ("data.lookup_ns", mean(1)),
        ("events.queue.ns_per_op", mean(2)),
        ("policy.schedq.fcfs.ns_per_op", mean(3)),
        ("policy.schedq.sjf.ns_per_op", mean(4)),
        ("policy.schedq.fair.ns_per_op", mean(5)),
        ("stats.sketch.record_ns", mean(6)),
        ("stats.sketch.merge_us", mean(7) / 1e3),
    ]
}
