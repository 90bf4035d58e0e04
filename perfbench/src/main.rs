//! The repository benchmark's measuring program. `run.py` drives it; each
//! subcommand is one process so peak RSS and allocator state belong to one
//! pass only.
//!
//! ```text
//! perfbench gen-csv  --workload trace-locality --seed N --out DIR
//! perfbench untraced --workload W --seed N --out DIR
//! perfbench setup    --workload W --seed N --out DIR --seconds S
//! perfbench traced   --workload W --seed N --out DIR
//! ```
//!
//! Each prints one JSON object on its last stdout line.

mod replay;
mod spans;

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use dscs_cluster::ingest::sample_workload;
use dscs_cluster::workload::azure_generation_rng;
use dscs_cluster::{
    optimal_coldstart_seconds, regret_pct, AtScaleOptions, AtScaleReport, AzureWorkload,
    ClusterConfig, ClusterSim, ColdStartPath, DataLayer, Experiment, IpcTransport, KeepalivePolicy,
    LoadBalancer, RealizedWorkload, ScalingPolicy, SchedulerPolicy, SweepCell, SweepScale,
    SweepSpec, TraceFileWorkload, TraceRequest, Workload, WorkloadSpec,
};
use dscs_platforms::PlatformKind;
use dscs_simcore::json::JsonValue;
use dscs_simcore::rng::DeterministicRng;
use dscs_simcore::stats::Measured;
use dscs_simcore::time::SimDuration;

use spans::{Recorder, SpanId};

/// Salts `SweepSpec::run` derives the placement and cell seeds with. The
/// traced pass must use the same ones; the cell-for-cell identity check
/// fails if they drift apart.
const PLACEMENT_SALT: u64 = 0xDA7A;
const CELL_SALT: u64 = 0x5EED;

struct Args {
    command: String,
    workload: String,
    seed: u64,
    out: String,
    seconds: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing subcommand")?;
    let mut args = Args {
        command,
        workload: String::new(),
        seed: 0,
        out: String::new(),
        seconds: 10.0,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "--seed must be an integer")?,
            "--out" => args.out = value,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds must be a number")?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.out.is_empty() {
        return Err("--out is required".into());
    }
    Ok(args)
}

/// The CSV `trace-locality` ingests: one simulated day in the Azure
/// Functions schema, bucketed from a synthetic azure generator.
fn locality_source() -> AzureWorkload {
    AzureWorkload {
        functions: 20_000,
        base_rps: 60.0,
        horizon: SimDuration::from_secs(24 * 3600),
        diurnal_period: SimDuration::from_secs(24 * 3600),
        step: SimDuration::from_secs(60),
        ..AzureWorkload::default()
    }
}

fn csv_path(args: &Args) -> String {
    format!("{}/trace-locality-seed{}.csv", args.out, args.seed)
}

/// The sweep each workload runs: one closed-loop batch on at most two
/// threads.
fn sweep_spec(args: &Args) -> Result<SweepSpec, String> {
    let seed = args.seed;
    // One policy point: the restricted grid of the large preset.
    let one_point = |scale, workloads, platforms, balancer, jobs, rack_jobs| SweepSpec {
        scale,
        seed,
        racks: 4,
        workloads,
        platforms,
        schedulers: vec![SchedulerPolicy::Fcfs],
        keepalives: vec![KeepalivePolicy::hybrid_default()],
        scalings: vec![ScalingPolicy::reactive_default()],
        balancers: vec![balancer],
        cold_paths: vec![ColdStartPath::default()],
        ipcs: vec![IpcTransport::default()],
        jobs,
        rack_jobs,
    };
    match args.workload.as_str() {
        "sweep-quick" => Ok(SweepSpec::from(AtScaleOptions {
            seed,
            jobs: 2,
            ..AtScaleOptions::quick()
        })),
        // The paper's platform only: the 10⁷-request trace on both platforms
        // would not fit the run-time budget.
        "large-rr" => Ok(one_point(
            SweepScale::Large,
            vec![WorkloadSpec::Azure {
                scale: SweepScale::Large,
                seed,
            }],
            vec![PlatformKind::DscsDsa],
            LoadBalancer::RoundRobin,
            1,
            2,
        )),
        // The scale only labels the report: the trace comes from the file.
        "trace-locality" => Ok(one_point(
            SweepScale::Full,
            vec![WorkloadSpec::TraceFile {
                path: csv_path(args),
                day: 1,
            }],
            dscs_cluster::at_scale::SWEEP_PLATFORMS.to_vec(),
            LoadBalancer::locality_default(),
            2,
            1,
        )),
        other => Err(format!("unknown workload {other}")),
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of every modelled field of a cell (the measured `wall_s` zeroed).
fn cell_digest(cell: &SweepCell) -> u64 {
    let modelled = SweepCell {
        wall_s: Measured(0.0),
        ..cell.clone()
    };
    fnv1a(format!("{modelled:?}").as_bytes())
}

/// Digest of a cell's outcome alone, with its policy labels blanked: two
/// cells with equal keys modelled the same result.
fn outcome_digest(cell: &SweepCell) -> u64 {
    let outcome = SweepCell {
        scheduler: SchedulerPolicy::Fcfs,
        keepalive: KeepalivePolicy::paper_default(),
        scaling: ScalingPolicy::reactive_default(),
        balancer: LoadBalancer::RoundRobin,
        cold_path: ColdStartPath::default(),
        ipc: IpcTransport::default(),
        wall_s: Measured(0.0),
        ..cell.clone()
    };
    fnv1a(format!("{outcome:?}").as_bytes())
}

/// The per-cell correctness gate. The bound check allows a relative 1e-9
/// because the bound and the cell sum the same cold-start costs in different
/// orders (`regret_pct` clamps the same last-ulp noise).
fn cell_ok(cell: &SweepCell) -> bool {
    cell.completed + cell.rejected == cell.requests
        && cell.rack_completed.iter().sum::<u64>() == cell.completed
        && cell.optimal_coldstart_s <= cell.coldstart_s * (1.0 + 1e-9)
        && cell.events > 0
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix(field)?
                    .strip_prefix(':')?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`, 100 on
/// every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) this process has used so far.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    fields.iter().sum::<f64>() / USER_HZ
}

/// Seconds the hypervisor ran something else on this machine's CPUs,
/// summed over CPUs (the `steal` column of `/proc/stat`).
fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            stat.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

fn digests_json(cells: &[SweepCell]) -> JsonValue {
    JsonValue::Array(
        cells
            .iter()
            .map(|c| JsonValue::from(format!("{:016x}", cell_digest(c))))
            .collect(),
    )
}

fn cmd_gen_csv(args: &Args) -> Result<JsonValue, String> {
    let path = csv_path(args);
    let started = Instant::now();
    let bucketed = TraceFileWorkload::from_workload(
        &locality_source(),
        &mut azure_generation_rng(args.seed),
        "trace-locality",
    )
    .map_err(|e| e.to_string())?;
    let csv = bucketed.to_csv();
    // Write then rename, so an interrupted run never leaves a truncated
    // file that a later run would take for a finished one.
    let partial = format!("{path}.partial");
    std::fs::write(&partial, &csv).map_err(|e| format!("{partial}: {e}"))?;
    std::fs::rename(&partial, &path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = JsonValue::object();
    out.push("path", path);
    out.push("csv_mb", csv.len() as f64 / 1e6);
    out.push("functions", bucketed.functions.len());
    out.push("minutes", bucketed.minutes);
    out.push("invocations", bucketed.invocations());
    out.push("gen_s", started.elapsed().as_secs_f64());
    Ok(out)
}

fn cmd_untraced(args: &Args) -> Result<JsonValue, String> {
    let spec = sweep_spec(args)?;
    let (cpu_before, steal_before) = (process_cpu_s(), steal_s());
    let started = Instant::now();
    let report = spec.run().map_err(|e| e.to_string())?;
    let json = report.to_json_with_throughput();
    let run_s = started.elapsed().as_secs_f64();
    black_box(&json);
    let (cpu_s, stolen_s) = (process_cpu_s() - cpu_before, steal_s() - steal_before);
    let peak_rss_mib = status_mib("VmHWM");
    let mut out = JsonValue::object();
    out.push("run_s", run_s);
    out.push("cpu_s", cpu_s);
    out.push("steal_s", stolen_s);
    out.push("events", report.total_events());
    out.push(
        "engine_s",
        report.cells.iter().map(|c| c.wall_s.get()).sum::<f64>(),
    );
    out.push("peak_rss_mib", peak_rss_mib);
    out.push("cells", report.cells.len());
    out.push(
        "failed",
        report.cells.iter().filter(|c| !cell_ok(c)).count(),
    );
    out.push(
        "requests",
        report.workloads.iter().map(|w| w.requests).sum::<u64>(),
    );
    out.push(
        "digest",
        format!("{:016x}", fnv1a(report.to_json().as_bytes())),
    );
    out.push("cell_digests", digests_json(&report.cells));
    Ok(out)
}

/// Everything `SweepSpec::run` builds before its first cell can start.
struct Setup {
    workloads: Vec<RealizedWorkload>,
    base_sims: Vec<ClusterSim>,
    data_layers: Vec<Arc<DataLayer>>,
    /// Indexed `[workload][platform][cold_path]`.
    bounds: Vec<Vec<Vec<f64>>>,
    realize_s: f64,
    model_s: f64,
    place_s: f64,
    bound_s: f64,
    place_rss_delta_mib: f64,
}

impl Setup {
    fn seconds(&self) -> f64 {
        self.realize_s + self.model_s + self.place_s + self.bound_s
    }
}

/// The set-up half of `SweepSpec::run`, one span per layer call, in the
/// order the sweep makes them.
fn setup(spec: &SweepSpec, rec: &Recorder, parent: SpanId) -> Result<Setup, String> {
    let mut realize_s = 0.0;
    let mut workloads = Vec::new();
    for w in &spec.workloads {
        let (realized, s) = rec.time("workload.realize", Some(parent), |_| w.realize());
        realize_s += s;
        workloads.push(realized.map_err(|e| e.to_string())?);
    }
    let mut model_s = 0.0;
    let mut base_sims = Vec::new();
    for &platform in &spec.platforms {
        let (sim, s) = rec.time("model.eval", Some(parent), |_| {
            ClusterSim::new(platform, ClusterConfig::default())
        });
        model_s += s;
        base_sims.push(sim);
    }
    let rss_before = status_mib("VmRSS");
    let mut place_s = 0.0;
    let mut data_layers = Vec::new();
    for w in &workloads {
        let (layer, s) = rec.time("data.place", Some(parent), |_| {
            DataLayer::for_trace(&w.trace, spec.racks, spec.seed ^ PLACEMENT_SALT)
        });
        place_s += s;
        data_layers.push(Arc::new(layer));
    }
    let place_rss_delta_mib = status_mib("VmRSS") - rss_before;
    let mut bound_s = 0.0;
    let mut bounds = Vec::new();
    for w in &workloads {
        let mut per_platform = Vec::new();
        for sim in &base_sims {
            let mut per_path = Vec::new();
            for &cold_path in &spec.cold_paths {
                let priced = sim.reconfigured(ClusterConfig {
                    cold_path,
                    ..ClusterConfig::default()
                });
                let (bound, s) = rec.time("optimal.bound", Some(parent), |_| {
                    optimal_coldstart_seconds(&w.trace, &priced)
                });
                bound_s += s;
                per_path.push(bound);
            }
            per_platform.push(per_path);
        }
        bounds.push(per_platform);
    }
    Ok(Setup {
        workloads,
        base_sims,
        data_layers,
        bounds,
        realize_s,
        model_s,
        place_s,
        bound_s,
        place_rss_delta_mib,
    })
}

fn distinct_functions(workloads: &[RealizedWorkload]) -> usize {
    workloads
        .iter()
        .map(|w| {
            w.trace
                .iter()
                .map(|r| r.function)
                .collect::<BTreeSet<u32>>()
                .len()
        })
        .sum()
}

/// Sets the sweep up repeatedly: at least three times, and while the total
/// stays under `--seconds`, up to 25 times.
fn cmd_setup(args: &Args) -> Result<JsonValue, String> {
    let spec = sweep_spec(args)?;
    let mut totals = Vec::new();
    let mut requests = BTreeSet::new();
    let mut functions = 0;
    let started = Instant::now();
    while totals.len() < 3 || (totals.len() < 25 && started.elapsed().as_secs_f64() < args.seconds)
    {
        let rec = Recorder::new(args.seed);
        let root = rec.open("setup", None);
        let built = setup(&spec, &rec, root)?;
        rec.close(root);
        totals.push(built.seconds());
        requests.insert(built.workloads.iter().map(|w| w.trace.len()).sum::<usize>());
        if functions == 0 {
            functions = distinct_functions(&built.workloads);
        }
    }
    let mut out = JsonValue::object();
    out.push(
        "setup_s",
        JsonValue::Array(totals.into_iter().map(JsonValue::from).collect()),
    );
    // Every repeat must realise the same trace.
    out.push("consistent", requests.len() == 1);
    out.push("requests", requests.first().copied().unwrap_or(0));
    out.push("functions", functions);
    Ok(out)
}

/// Grid coordinates of one cell, enumerated in `SweepSpec::run`'s order.
struct Point {
    workload: usize,
    platform: usize,
    scheduler: SchedulerPolicy,
    keepalive: KeepalivePolicy,
    scaling: ScalingPolicy,
    balancer: LoadBalancer,
    cold_path: usize,
    ipc: IpcTransport,
}

fn grid(spec: &SweepSpec) -> Vec<Point> {
    let mut points = Vec::new();
    for workload in 0..spec.workloads.len() {
        for platform in 0..spec.platforms.len() {
            for &scheduler in &spec.schedulers {
                for &keepalive in &spec.keepalives {
                    for &scaling in &spec.scalings {
                        for &balancer in &spec.balancers {
                            for cold_path in 0..spec.cold_paths.len() {
                                for &ipc in &spec.ipcs {
                                    points.push(Point {
                                        workload,
                                        platform,
                                        scheduler,
                                        keepalive,
                                        scaling,
                                        balancer,
                                        cold_path,
                                        ipc,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    points
}

/// One cell's result with the host time its layers took.
struct CellRun {
    cell: SweepCell,
    lane: bool,
    engine_s: f64,
    build_s: f64,
    cell_s: f64,
}

fn run_cell(
    spec: &SweepSpec,
    built: &Setup,
    point: &Point,
    rack_jobs: usize,
    rec: &Recorder,
    parent: SpanId,
) -> Result<CellRun, String> {
    let span = rec.open("cell", Some(parent));
    let workload = &built.workloads[point.workload];
    let cold_path = spec.cold_paths[point.cold_path];
    let bound = built.bounds[point.workload][point.platform][point.cold_path];
    let (experiment, build_s) = rec.time("experiment.build", Some(span), |_| {
        Experiment::builder(spec.platforms[point.platform])
            .trace(workload.trace.clone())
            .racks(spec.racks)
            .balancer(point.balancer)
            .scheduler(point.scheduler)
            .keepalive(point.keepalive)
            .scaling(point.scaling)
            .cold_path(cold_path)
            .ipc(point.ipc)
            .data_layer(built.data_layers[point.workload].clone())
            .seed(spec.seed ^ CELL_SALT)
            .optimal_coldstart(bound)
            .rack_jobs(rack_jobs)
            .build()
    });
    let experiment = experiment.map_err(|e| e.to_string())?;
    let engine = rec.open("engine", Some(span));
    let outcome = experiment.run_on(&built.base_sims[point.platform]);
    let lane = outcome.engine.is_rack_parallel();
    let engine_s = rec.close_as(
        engine,
        if lane {
            "engine.lane"
        } else {
            "engine.coupled"
        },
    );
    let report = &outcome.report;
    let cell = SweepCell {
        workload: workload.name.clone(),
        workload_source: workload.source.clone(),
        platform: spec.platforms[point.platform],
        scheduler: point.scheduler,
        keepalive: point.keepalive,
        scaling: point.scaling,
        balancer: point.balancer,
        cold_path,
        ipc: point.ipc,
        requests: workload.trace.len() as u64,
        completed: report.completed,
        rejected: report.rejected,
        cold_starts: report.cold_starts,
        coldstart_s: report.coldstart_s,
        optimal_coldstart_s: bound,
        regret_pct: regret_pct(report.coldstart_s, bound),
        restore_s: report.restore_s,
        ipc_overhead_s: report.ipc_overhead_s,
        prewarm_hits: report.prewarm_hits,
        prewarm_hit_rate: report.prewarm_hit_rate(),
        wasted_warm_s: report.wasted_warm_seconds,
        scale_ups: report.scale_ups,
        scale_downs: report.scale_downs,
        scaling_lag_s: report.scaling_lag_s,
        peak_instances: report.peak_instances,
        locality_hit_rate: report.locality_hit_rate(),
        cross_rack_bytes: report.cross_rack_bytes,
        fetch_latency_s: report.fetch_latency_s,
        fetch_energy_j: report.fetch_energy_j,
        mean_latency_ms: report.mean_latency_ms(),
        p99_latency_ms: report.p99_latency_ms(),
        peak_queue: report.peak_queue(),
        makespan_s: report.makespan.as_secs_f64(),
        events: report.events,
        wall_s: report.wall_s,
        rack_completed: outcome.racks.iter().map(|r| r.completed).collect(),
    };
    let cell_s = rec.close(span);
    Ok(CellRun {
        cell,
        lane,
        engine_s,
        build_s,
        cell_s,
    })
}

/// Runs every cell on the sweep's worker pool: workers claim the next cell
/// index and fill that cell's slot, as `SweepSpec::run` does.
fn run_cells(
    spec: &SweepSpec,
    built: &Setup,
    rec: &Recorder,
    parent: SpanId,
) -> Result<(Vec<CellRun>, usize), String> {
    let points = grid(spec);
    let jobs = spec.effective_jobs().min(points.len()).max(1);
    let rack_jobs = spec.effective_rack_jobs(jobs);
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<Result<CellRun, String>>> =
        (0..points.len()).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                // The index publishes no other data: each slot is written
                // once by the worker that claimed it and read after the
                // scope joins.
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(point) = points.get(index) else {
                    break;
                };
                let _ = slots[index].set(run_cell(spec, built, point, rack_jobs, rec, parent));
            });
        }
    });
    let runs = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every slot filled"))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((runs, jobs))
}

/// Runs one cell of the engine the sweep never used, on a prefix of the
/// workload's own trace, so both engines' speeds are measured on every
/// workload. Returns (host seconds, events).
fn probe_engine(
    spec: &SweepSpec,
    built: &Setup,
    lane: bool,
    rec: &Recorder,
    parent: SpanId,
) -> Result<(f64, u64), String> {
    let trace = &built.workloads[0].trace;
    let prefix: Vec<TraceRequest> = trace[..trace.len().min(replay::REPLAY_REQUESTS)].to_vec();
    let experiment = Experiment::builder(spec.platforms[0])
        .trace(prefix)
        .racks(spec.racks)
        .balancer(if lane {
            LoadBalancer::RoundRobin
        } else {
            LoadBalancer::LeastLoaded
        })
        .place_data(spec.seed ^ PLACEMENT_SALT)
        .seed(spec.seed ^ CELL_SALT)
        .build()
        .map_err(|e| e.to_string())?;
    let name = if lane {
        "engine.lane"
    } else {
        "engine.coupled"
    };
    let (outcome, seconds) = rec.time(name, Some(parent), |_| {
        experiment.run_on(&built.base_sims[0])
    });
    if outcome.engine.is_rack_parallel() != lane {
        return Err(format!("probe ran the wrong engine for {name}"));
    }
    Ok((seconds, outcome.report.events))
}

/// Parses and expands the workload's CSV (or, for synthetic workloads, a
/// sample-sized CSV generated from the seed). Returns (parse s, MB, expand
/// s, expanded requests).
fn ingest_replay(
    args: &Args,
    rec: &Recorder,
    parent: SpanId,
) -> Result<(f64, f64, f64, usize), String> {
    let (parsed, parse_s, mb) = if args.workload == "trace-locality" {
        let path = csv_path(args);
        let mb = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64 / 1e6;
        let (parsed, s) = rec.time("ingest.parse", Some(parent), |_| {
            TraceFileWorkload::from_csv_path(&path, 1)
        });
        (parsed, s, mb)
    } else {
        let csv = TraceFileWorkload::from_workload(
            &sample_workload(),
            &mut azure_generation_rng(args.seed),
            "sample",
        )
        .map_err(|e| e.to_string())?
        .to_csv();
        let (parsed, s) = rec.time("ingest.parse", Some(parent), |_| {
            TraceFileWorkload::from_csv_str(&csv, "sample", 1)
        });
        (parsed, s, csv.len() as f64 / 1e6)
    };
    let parsed = parsed.map_err(|e| e.to_string())?;
    let (expanded, expand_s) = rec.time("ingest.expand", Some(parent), |_| {
        parsed.generate(&mut DeterministicRng::seeded(args.seed))
    });
    let expanded = expanded.map_err(|e| e.to_string())?;
    Ok((parse_s, mb, expand_s, expanded.len()))
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn cmd_traced(args: &Args) -> Result<JsonValue, String> {
    let spec = sweep_spec(args)?;
    let rec = Recorder::new(args.seed);
    let sweep = rec.open("sweep", None);
    let setup_span = rec.open("setup", Some(sweep));
    let built = setup(&spec, &rec, setup_span)?;
    rec.close(setup_span);
    let cells_span = rec.open("cells", Some(sweep));
    let (runs, jobs) = run_cells(&spec, &built, &rec, cells_span)?;
    let cells_s = rec.close(cells_span);
    let cells: Vec<SweepCell> = runs.iter().map(|r| r.cell.clone()).collect();
    let report = AtScaleReport {
        spec: spec.clone(),
        workloads: built
            .workloads
            .iter()
            .map(|w| dscs_cluster::at_scale::WorkloadSummary {
                name: w.name.clone(),
                source: w.source.clone(),
                requests: w.trace.len() as u64,
                horizon_s: w.horizon_s,
            })
            .collect(),
        cells,
        wall_s: Measured(0.0),
    };
    let (json, emit_s) = rec.time("emit.json", Some(sweep), |_| report.to_json());
    let sweep_s = rec.close(sweep);

    // Layer replays, outside the sweep span.
    let replays = rec.open("replay", None);
    let (parse_s, csv_mb, expand_s, expanded) = ingest_replay(args, &rec, replays)?;
    if args.workload == "trace-locality" && expanded != built.workloads[0].trace.len() {
        return Err(format!(
            "ingest replay expanded {expanded} requests, the sweep realised {}",
            built.workloads[0].trace.len()
        ));
    }
    let mut engine = [(0.0f64, 0u64); 2];
    for run in &runs {
        let slot = &mut engine[usize::from(!run.lane)];
        slot.0 += run.engine_s;
        slot.1 += run.cell.events;
    }
    for (slot, lane) in [(0, true), (1, false)] {
        if engine[slot].1 == 0 {
            engine[slot] = probe_engine(&spec, &built, lane, &rec, replays)?;
        }
    }
    let inputs: Vec<replay::ReplayInput> = built
        .workloads
        .iter()
        .zip(&built.data_layers)
        .map(|(w, data)| replay::ReplayInput {
            trace: &w.trace,
            data,
            sim: &built.base_sims[0],
        })
        .collect();
    let (layer_metrics, _) = rec.time("replay.layers", Some(replays), |_| replay::run(&inputs));
    rec.close(replays);

    let spans = rec.spans();
    let self_times = spans::self_times(&spans);
    let trace_path = format!(
        "{}/trace-{}-seed{}.json",
        args.out, args.workload, args.seed
    );
    rec.write_chrome_trace(&trace_path)
        .map_err(|e| format!("{trace_path}: {e}"))?;
    for (name, seconds) in &self_times {
        eprintln!("self time {name:<20} {seconds:>10.4} s");
    }

    let mut cell_ms: Vec<f64> = runs.iter().map(|r| r.cell_s * 1e3).collect();
    cell_ms.sort_by(f64::total_cmp);
    let distinct: BTreeSet<u64> = report.cells.iter().map(outcome_digest).collect();
    let busy_s: f64 = runs.iter().map(|r| r.cell_s).sum();
    let requests: usize = built.workloads.iter().map(|w| w.trace.len()).sum();
    let sum = |f: fn(&SweepCell) -> u64| report.cells.iter().map(f).sum::<u64>();
    let own = |names: &[&str]| {
        names
            .iter()
            .map(|n| self_times.get(n).copied().unwrap_or(0.0))
            .sum::<f64>()
    };

    let mut metrics = JsonValue::object();
    metrics.push("workload.realize_s", built.realize_s);
    metrics.push("workload.requests", requests);
    metrics.push(
        "workload.trace_mib",
        (requests * std::mem::size_of::<TraceRequest>()) as f64 / (1u64 << 20) as f64,
    );
    metrics.push("ingest.parse_s", parse_s);
    metrics.push("ingest.mb_per_s", csv_mb / parse_s);
    metrics.push("ingest.expand_s", expand_s);
    metrics.push("model.eval_s", built.model_s);
    metrics.push("data.place_s", built.place_s);
    metrics.push(
        "data.objects",
        built
            .data_layers
            .iter()
            .map(|d| d.object_count())
            .sum::<usize>(),
    );
    metrics.push("data.rss_delta_mib", built.place_rss_delta_mib);
    metrics.push("optimal.bound_s", built.bound_s);
    metrics.push(
        "experiment.build_s",
        runs.iter().map(|r| r.build_s).sum::<f64>(),
    );
    for (slot, prefix) in [(0, "engine.lane"), (1, "engine.coupled")] {
        let (seconds, events) = engine[slot];
        metrics.push(format!("{prefix}.s"), seconds);
        metrics.push(format!("{prefix}.events"), events);
        metrics.push(format!("{prefix}.events_per_s"), events as f64 / seconds);
    }
    metrics.push("engine.cell_ms_p50", percentile(&cell_ms, 0.50));
    metrics.push("engine.cell_ms_p95", percentile(&cell_ms, 0.95));
    metrics.push("sweep.cells", report.cells.len());
    metrics.push(
        "sweep.distinct_frac",
        distinct.len() as f64 / report.cells.len() as f64,
    );
    metrics.push("sweep.worker_busy_frac", busy_s / (jobs as f64 * cells_s));
    metrics.push("sweep.self_s", own(&["sweep", "setup", "cells"]));
    metrics.push("emit.json_s", emit_s);
    metrics.push("emit.json_mib", json.len() as f64 / (1u64 << 20) as f64);
    for (name, value) in layer_metrics {
        metrics.push(name, value);
    }
    metrics.push("sim.events", sum(|c| c.events));
    metrics.push("sim.cold_starts", sum(|c| c.cold_starts));
    metrics.push("sim.rejected", sum(|c| c.rejected));
    metrics.push("sim.prewarm_hits", sum(|c| c.prewarm_hits));
    metrics.push(
        "sim.cross_rack_gib",
        sum(|c| c.cross_rack_bytes) as f64 / (1u64 << 30) as f64,
    );

    let mut out = JsonValue::object();
    out.push("sweep_s", sweep_s);
    out.push("cells", report.cells.len());
    out.push(
        "failed",
        report.cells.iter().filter(|c| !cell_ok(c)).count(),
    );
    out.push("digest", format!("{:016x}", fnv1a(json.as_bytes())));
    out.push("cell_digests", digests_json(&report.cells));
    out.push("trace_file", trace_path);
    out.push("metrics", metrics);
    Ok(out)
}

fn main() {
    let result = parse_args().and_then(|args| match args.command.as_str() {
        "gen-csv" => cmd_gen_csv(&args),
        "untraced" => cmd_untraced(&args),
        "setup" => cmd_setup(&args),
        "traced" => cmd_traced(&args),
        other => Err(format!("unknown subcommand {other}")),
    });
    match result {
        Ok(json) => println!("{}", json.render()),
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(1);
        }
    }
}
