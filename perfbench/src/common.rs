//! What the workloads share: arguments, the host header, the scratch
//! directory, seeded inputs, set-up timing and the output check against
//! recorded per-set MAE.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use urcl_core::TrainerConfig;
use urcl_json::Value;
use urcl_perfbench::cpuclock::Stopwatch;
use urcl_perfbench::layers::{self, PhaseCounters};
use urcl_perfbench::reference;
use urcl_perfbench::report::{Values, END_TO_END};
use urcl_perfbench::stats;
use urcl_tensor::Rng;
use urcl_trace::SpanStats;

/// Seed of every model's initialisation and of the trainer's draws
/// (shuffles, RMIR pools, augmentations, mixup). Fixed: training is
/// bitwise deterministic, so per-set MAE is one recorded value checked on
/// every run, and run-to-run spread is measurement noise alone. The run
/// seed picks the request windows the serving workloads send.
pub const MODEL_SEED: u64 = 7;

/// Tensor threads of every workload. One: on a host of a few shared
/// cores, more threads than one per core measure the scheduler, and the
/// serving workload's shard and connection threads need the second core.
pub const TENSOR_THREADS: usize = 1;

/// Workloads the benchmark runs.
pub const WORKLOADS: [&str; 2] = ["train_stream", "serve_wire"];

/// Set-up runs at least this many times per run; the median is reported.
pub const SETUP_REPEATS: usize = 5;

/// Cheap set-ups repeat until this much time is spent (at most
/// [`SETUP_MAX_REPEATS`] times), so their median is steady too.
const SETUP_BUDGET_S: f64 = 0.5;
const SETUP_MAX_REPEATS: usize = 50;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        let seconds = seconds.ok_or("missing --seconds")?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        let trace = match trace.ok_or("missing --trace")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        };
        Ok(Self {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace,
        })
    }
}

/// What a workload measured and checked.
pub struct Outcome {
    pub end_to_end: Values,
    pub per_layer: Values,
    /// Operations attempted: requests, swaps, training protocols and
    /// output checks, each counted once.
    pub attempted: u64,
    /// Attempts that failed, were refused, or failed their check.
    pub failed: u64,
    /// Workload-specific readings printed on the `detail` line.
    pub detail: Value,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host header printed before every result.
pub fn host(args: &Args) -> Value {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    Value::object()
        .with("nproc", nproc())
        .with("detected_isa", format!("{:?}", urcl_tensor::detected_isa()))
        .with("threads", TENSOR_THREADS)
        .with("rustflags", env!("PERFBENCH_RUSTFLAGS"))
        .with("commit", commit)
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
}

/// `count` evenly spaced samples of `all`, starting at a seed-chosen
/// offset: which windows a run sends is one of its seeded inputs.
pub fn pick<T>(all: Vec<T>, count: usize, seed: u64) -> Vec<T> {
    let stride = (all.len() / count).max(1);
    let offset = Rng::seed_from_u64(seed).below(stride);
    all.into_iter()
        .skip(offset)
        .step_by(stride)
        .take(count)
        .collect()
}

/// Paper-default URCL (replay, RMIR, STMixup, augmentation, STSimSiam)
/// with one epoch per set over every 6th window: per-step work is the
/// paper default, and a protocol is short enough (40 steps) that a run
/// repeats it several times and reports medians over the repeats, so a
/// burst of host noise moves one protocol rather than the run.
pub fn urcl_config() -> TrainerConfig {
    TrainerConfig {
        epochs_base: 1,
        epochs_incremental: 1,
        window_stride: 6,
        seed: MODEL_SEED,
        ..TrainerConfig::default()
    }
}

/// Median set-up time over the repeats.
pub struct Setup {
    /// Process CPU seconds at the reference core speed: the gated figure.
    pub at_ref_s: f64,
    /// Process CPU and wall seconds, for the detail line.
    pub cpu_s: f64,
    pub wall_s: f64,
    pub repeats: usize,
}

/// Runs `build` [`SETUP_REPEATS`] times, and more while under
/// [`SETUP_BUDGET_S`], with the reference kernel before and after each;
/// returns the median times and the last result (earlier ones are
/// dropped, which tears them down).
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (Setup, T) {
    let (mut at_ref, mut cpu, mut wall) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let start = Instant::now();
    for i in 0..SETUP_MAX_REPEATS {
        if i >= SETUP_REPEATS && start.elapsed().as_secs_f64() >= SETUP_BUDGET_S {
            break;
        }
        drop(last.take());
        let before = reference::kernel_s();
        let clock = Stopwatch::start();
        let built = build();
        let (cpu_s, wall_s) = (clock.cpu_s(), clock.wall_s());
        at_ref.push(reference::at_reference(
            cpu_s,
            before,
            reference::kernel_s(),
        ));
        cpu.push(cpu_s);
        wall.push(wall_s);
        last = Some(built);
    }
    let setup = Setup {
        at_ref_s: stats::median(&at_ref),
        cpu_s: stats::median(&cpu),
        wall_s: stats::median(&wall),
        repeats: cpu.len(),
    };
    (setup, last.expect("at least one set-up"))
}

impl Setup {
    /// The detail-line record of the set-up.
    pub fn detail(&self) -> Value {
        Value::object()
            .with("at_ref_s", self.at_ref_s)
            .with("cpu_s", self.cpu_s)
            .with("wall_s", self.wall_s)
            .with("repeats", self.repeats)
    }
}

/// Runs `job` once, then again while one more run of the last one's
/// length still ends within `seconds` of the start; exactly once when
/// `once` (the traced run, whose counts are then per job). `job`
/// returns its wall seconds with its result.
pub fn repeat_within<T>(seconds: f64, once: bool, mut job: impl FnMut() -> (f64, T)) -> Vec<T> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut results = Vec::new();
    loop {
        let (wall_s, result) = job();
        results.push(result);
        if once || Instant::now() + Duration::from_secs_f64(wall_s) > deadline {
            return results;
        }
    }
}

/// Whether two MAE sequences are identical bit for bit.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Median seconds of `f` over `reps` calls.
pub fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

/// Cumulative CPU ticks of the whole machine from `/proc/stat`:
/// `(total, steal)`. `None` where that file does not exist.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// Share of CPU time the hypervisor took from this machine between
/// [`StealMeter::start`] and [`StealMeter::share`]: a virtualised host's
/// noise, reported so that a slow run can be told from a slow program.
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> Self {
        Self(cpu_ticks())
    }

    pub fn share(&self) -> Value {
        match (self.0, cpu_ticks()) {
            (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => {
                Value::from((s1 - s0) as f64 / (t1 - t0) as f64)
            }
            _ => Value::Null,
        }
    }
}

/// A scratch directory inside the working directory, removed on drop.
/// Each one is new: set-up repeats and protocol repeats never share one.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(name: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(".perfbench").join(format!("{name}-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create the benchmark's scratch directory");
        Self(dir)
    }

    pub fn join(&self, part: &str) -> PathBuf {
        self.0.join(part)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Per-set MAE recorded for `workload`, as f32 bit patterns.
fn recorded_mae(workload: &str) -> Option<Vec<u32>> {
    let doc = Value::parse(include_str!("../expected_mae.json")).expect("expected_mae.json parses");
    let sets = doc.get(workload)?.as_array()?;
    Some(
        sets.iter()
            .map(|v| {
                u32::from_str_radix(v.as_str().expect("hex string"), 16).expect("f32 bits in hex")
            })
            .collect(),
    )
}

/// Checks per-set MAE: finite, and bit-for-bit equal to the value
/// recorded in `expected_mae.json`. Returns whether it passed and the
/// hex bits for the detail line.
pub fn check_mae(workload: &str, maes: &[f32]) -> (bool, Value) {
    let bits: Vec<u32> = maes.iter().map(|m| m.to_bits()).collect();
    let finite = maes.iter().all(|m| m.is_finite() && *m > 0.0);
    let matches = recorded_mae(workload).is_some_and(|want| want == bits);
    let hex = Value::Array(
        bits.iter()
            .map(|b| Value::from(format!("{b:08x}")))
            .collect(),
    );
    let detail = Value::object()
        .with("mae_bits", hex)
        .with("matches_record", matches);
    (finite && matches, detail)
}

/// Untraced runs record their end-to-end values; a traced run of the
/// same workload and seed reports traced minus untraced for each.
pub fn trace_overhead(args: &Args, values: &Values) -> Value {
    let path =
        PathBuf::from(".perfbench").join(format!("untraced-{}-{}.json", args.workload, args.seed));
    if !args.trace {
        let mut doc = Value::object();
        for (name, v) in values {
            doc.set(name, *v);
        }
        std::fs::create_dir_all(".perfbench").ok();
        std::fs::write(&path, doc.to_string_compact()).ok();
        return Value::Null;
    }
    let Some(untraced) = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| Value::parse(&text).ok())
    else {
        return Value::from("no untraced run of this workload and seed yet");
    };
    let mut diff = Value::object();
    for &(name, _) in END_TO_END {
        if let (Some(t), Some(u)) = (values.get(name), untraced.get(name).and_then(Value::as_f64)) {
            diff.set(name, t - u);
        }
    }
    diff
}

/// The tail of an ascending latency sample for the detail line: p99 (or
/// the highest percentile the sample supports), with its sample counts.
pub fn tail_detail(sorted_s: &[f64]) -> Value {
    let p99 = stats::tail(sorted_s, 0.99);
    Value::object()
        .with("samples", sorted_s.len())
        .with("p99_ms", p99.value * 1e3)
        .with("quantile", p99.q)
        .with("beyond", stats::beyond(sorted_s.len(), p99.q))
}

/// Every per-layer metric at 0: a layer a workload does not exercise
/// did no work and took no time.
pub fn zero_layers() -> Values {
    urcl_perfbench::report::PER_LAYER
        .iter()
        .map(|&(name, _)| (name, 0.0))
        .collect()
}

/// Per-layer readings every training workload shares: RMIR, augmentation
/// and mixup, then [`engine_layers`].
pub fn training_layers(
    layer: &mut Values,
    spans: &BTreeMap<String, SpanStats>,
    counters: &PhaseCounters,
) {
    let rounds = layers::span_count(spans, "rmir");
    let per_round = |total: f64| {
        if rounds == 0 {
            0.0
        } else {
            total / rounds as f64
        }
    };
    let rmir_ms = layers::span_ms(spans, "rmir");
    let step_ms = layers::span_ms(spans, "step");
    layer.insert(
        "rmir.share",
        if step_ms > 0.0 {
            rmir_ms / step_ms
        } else {
            0.0
        },
    );
    layer.insert(
        "rmir.virtual_update_ms",
        per_round(layers::span_ms(spans, "virtual_update")),
    );
    // Scoring has no span of its own: it is the rmir span's self time,
    // once the virtual update and plan compiles are taken out.
    layer.insert(
        "rmir.scoring_ms",
        per_round(rmir_ms - layers::children_ms(spans, "rmir")),
    );
    layer.insert(
        "rmir.selected_per_round",
        per_round(urcl_trace::counter_value("rmir.selected") as f64),
    );
    layer.insert("augment.ms", layers::span_mean_ms(spans, "augment"));
    layer.insert("stmixup.ms", layers::span_mean_ms(spans, "stmixup"));
    engine_layers(layer, spans, counters);
}

/// Plan, buffer-pool, thread-pool and attribution readings, common to
/// every workload.
pub fn engine_layers(
    layer: &mut Values,
    spans: &BTreeMap<String, SpanStats>,
    counters: &PhaseCounters,
) {
    // Training replays record `plan_exec`, serving replays `serve_forward`.
    let replays =
        layers::span_count(spans, "plan_exec") + layers::span_count(spans, "serve_forward");
    let replay_ms = layers::span_ms(spans, "plan_exec") + layers::span_ms(spans, "serve_forward");
    layer.insert("plan.compiles", counters.plan.compiles as f64);
    layer.insert("plan.replays", counters.plan.replays as f64);
    layer.insert(
        "plan.compile_s",
        layers::span_ms(spans, "plan_compile") / 1e3,
    );
    layer.insert(
        "plan.exec_ms",
        if replays == 0 {
            0.0
        } else {
            replay_ms / replays as f64
        },
    );
    layer.insert("plan.cache_evictions", counters.plan.cache_evictions as f64);
    let takes = counters.pool.hits + counters.pool.misses;
    layer.insert(
        "pool.hit_ratio",
        if takes == 0 {
            0.0
        } else {
            counters.pool.hits as f64 / takes as f64
        },
    );
    layer.insert(
        "pool.peak_resident_mb",
        counters.pool.peak_live_f32 as f64 * 4.0 / 1e6,
    );
    layer.insert(
        "parallel.inline_calls",
        counters.parallel.inline_calls as f64,
    );
    layer.insert(
        "persist.load_ms",
        layers::span_mean_ms(spans, "checkpoint_load"),
    );
    layer.insert(
        "bench.unattributed_share",
        layers::unattributed_share(spans),
    );
}
