//! `serve_wire`: four tenants (METR-LA, PEMS-BAY, PEMS04, PEMS08
//! analogues) behind `HttpServer` with the default `ServeConfig` (cache
//! off, exact activations, stealing on). One client process holds two
//! pipelined keep-alive connections. No training runs.
//!
//! Each of [`ROUNDS`] rounds runs a fixed-rate open loop below the knee
//! (latency from due time), a closed-loop block (process CPU time of a
//! fixed amount of work) and one checkpoint hot-swap per tenant (its
//! process CPU time). A rate ladder follows: the highest rate meeting the
//! latency limit without a growing backlog.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use urcl_core::{CheckpointDir, TrainerConfig, UrclPipeline};
use urcl_json::Value;
use urcl_models::Backbone;
use urcl_perfbench::cpuclock::Stopwatch;
use urcl_perfbench::layers::Phase;
use urcl_perfbench::openloop::{self, Answered, Rung, Schedule};
use urcl_perfbench::report::Values;
use urcl_perfbench::stats;
use urcl_serve::{
    forward_batch, HttpConfig, HttpServer, ServeConfig, TenantClient, TenantStats, Tenants,
};
use urcl_stdata::{DatasetConfig, Sample, SequenceData, SyntheticDataset};
use urcl_tensor::Tensor;

use crate::common::{self, Args, Outcome, WorkDir};

/// Connections the client holds open.
const CONNECTIONS: usize = 2;
/// Offered rate of the fixed-rate phase, requests per second: well below
/// the knee of two connections (~550 req/s on an idle 2-core host, ~400
/// when neighbours slow it), so the median reflects service time rather
/// than a queue that swells whenever the host slows down.
const FIXED_RATE: f64 = 200.0;
/// Offered rates of the ladder, requests per second.
const LADDER: [f64; 5] = [200.0, 350.0, 500.0, 650.0, 800.0];
/// Latency limit on the ladder's p99.
const LIMIT_S: f64 = 0.020;
/// Rounds of fixed-rate load, closed-loop block and hot-swaps.
const ROUNDS: usize = 12;
/// Requests per closed-loop block, and requests each connection keeps in
/// flight.
const BLOCK: usize = 250;
const BLOCK_DEPTH: usize = 4;
/// Request windows drawn from each tenant's stream.
const WINDOWS_PER_TENANT: usize = 256;

type Preset = fn() -> DatasetConfig;
const TENANTS: [(&str, Preset); 4] = [
    ("metr-la", DatasetConfig::metr_la),
    ("pems-bay", DatasetConfig::pems_bay),
    ("pems04", DatasetConfig::pems04),
    ("pems08", DatasetConfig::pems08),
];

struct TenantFx {
    pipe: UrclPipeline,
    slots: CheckpointDir,
    client: TenantClient,
    /// The tenant's architecture, for timing forwards from outside.
    model: Box<dyn Backbone + Send + Sync>,
    target_channel: usize,
    /// Windows in physical units with their true next values.
    windows: Vec<Sample>,
    /// The same windows as ready-to-send request bytes.
    requests: Vec<Vec<u8>>,
}

// Field order is drop order: the listener drains before the tenants,
// and the checkpoint directory goes last.
struct Fixture {
    server: HttpServer,
    tenants: Vec<TenantFx>,
    _registry: Arc<Tenants>,
    _dir: WorkDir,
}

impl Fixture {
    fn new(seed: u64) -> Self {
        let dir = WorkDir::new("wire");
        let registry = Arc::new(Tenants::new());
        let tenants: Vec<TenantFx> = TENANTS
            .iter()
            .map(|&(name, preset)| {
                let ds = SyntheticDataset::generate(preset());
                let cfg = ds.config.clone();
                let mut pipe = UrclPipeline::new(
                    ds.network.clone(),
                    cfg.clone(),
                    TrainerConfig::default(),
                    common::MODEL_SEED,
                );
                pipe.observe_period_statistics_only(&ds.continual_split(4).base.series);
                let slots = CheckpointDir::new(dir.join(name)).expect("tenant checkpoint dir");
                pipe.save_checkpoint(&slots, "rev 0")
                    .expect("publish the first checkpoint");
                let (model, template) =
                    UrclPipeline::serving_parts_dyn(&ds.network, &cfg, &TrainerConfig::default());
                let client = registry
                    .add(
                        name,
                        model,
                        template,
                        CheckpointDir::new(dir.join(name)).expect("tenant checkpoint dir"),
                        ServeConfig {
                            target_channel: cfg.target_channel,
                            ..ServeConfig::default()
                        },
                    )
                    .expect("register tenant");
                assert!(client.has_snapshot(), "tenant {name} loads its checkpoint");
                let all = SequenceData {
                    name: name.into(),
                    series: ds.series.clone(),
                }
                .windows(&cfg);
                let windows = common::pick(all, WINDOWS_PER_TENANT, seed);
                let requests = windows.iter().map(|w| request_bytes(name, &w.x)).collect();
                let (model, _) =
                    UrclPipeline::serving_parts_dyn(&ds.network, &cfg, &TrainerConfig::default());
                TenantFx {
                    pipe,
                    slots,
                    client,
                    model,
                    target_channel: cfg.target_channel,
                    windows,
                    requests,
                }
            })
            .collect();
        let server = HttpServer::bind(Arc::clone(&registry), HttpConfig::default())
            .expect("bind the HTTP listener");
        let fx = Self {
            server,
            tenants,
            _registry: registry,
            _dir: dir,
        };
        // Warm-up: the first forward of each tenant compiles its plan.
        let replies = drive(&fx, 0, 2 * TENANTS.len(), Load::Closed(1));
        assert!(
            replies.iter().all(|r| r.status == 200),
            "warm-up requests must succeed"
        );
        fx
    }

    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Request `k` of the stream: tenants round-robin, windows cycling.
    fn request(&self, k: usize) -> (usize, usize) {
        (
            k % self.tenants.len(),
            (k / self.tenants.len()) % WINDOWS_PER_TENANT,
        )
    }
}

/// Serializes a `[M, N, C]` window as a forecast request.
fn request_bytes(tenant: &str, window: &Tensor) -> Vec<u8> {
    let [m, n, c] = [window.shape()[0], window.shape()[1], window.shape()[2]];
    let data = window.data();
    let steps: Vec<Value> = (0..m)
        .map(|i| {
            Value::Array(
                (0..n)
                    .map(|j| urcl_json::f32_array(&data[(i * n + j) * c..(i * n + j + 1) * c]))
                    .collect(),
            )
        })
        .collect();
    let body = Value::object()
        .with("window", Value::Array(steps))
        .to_string_compact();
    format!(
        "POST /v1/tenants/{tenant}/forecast HTTP/1.1\r\nHost: perfbench\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// How requests are paced.
#[derive(Clone, Copy)]
enum Load {
    /// Open loop at this many requests per second across all connections.
    Rate(f64),
    /// Closed loop: each connection keeps this many requests in flight.
    Closed(usize),
}

/// One request as the client saw it.
struct Reply {
    k: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
    /// HTTP status; 0 when the connection failed before an answer.
    status: u16,
    body: Vec<u8>,
}

/// Sends requests `first..first + count` over [`CONNECTIONS`] keep-alive
/// connections (request `j` goes to connection `j % CONNECTIONS`), reads
/// the pipelined answers in order, and returns one [`Reply`] per request
/// sent, ordered by `k`. Requests never sent are missing from the result.
fn drive(fx: &Fixture, first: usize, count: usize, load: Load) -> Vec<Reply> {
    let start = Instant::now() + Duration::from_millis(2);
    let schedule = match load {
        Load::Rate(rate) => Some(Schedule::new(start, rate)),
        Load::Closed(_) => None,
    };
    let mut replies: Vec<Reply> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let jobs: Vec<usize> = (c..count).step_by(CONNECTIONS).collect();
                    connection(fx, first, &jobs, schedule, load)
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("connection thread"))
            .collect()
    });
    replies.sort_by_key(|r| r.k);
    replies
}

/// One connection: a writer sending on schedule and a reader matching
/// answers to requests in order.
fn connection(
    fx: &Fixture,
    first: usize,
    jobs: &[usize],
    schedule: Option<Schedule>,
    load: Load,
) -> Vec<Reply> {
    let Ok(stream) = TcpStream::connect(fx.addr()) else {
        return Vec::new();
    };
    stream.set_nodelay(true).ok();
    let Ok(mut reader) = stream.try_clone() else {
        return Vec::new();
    };
    let mut writer = stream;
    let depth = match load {
        Load::Rate(_) => jobs.len().max(1),
        Load::Closed(depth) => depth,
    };
    let (tx, rx) = mpsc::sync_channel::<(usize, Instant, Instant)>(depth);
    std::thread::scope(|s| {
        s.spawn(move || {
            for &j in jobs {
                let k = first + j;
                let due = schedule.map_or_else(Instant::now, |sch| sch.wait_for(j));
                let sent = Instant::now();
                let (tenant, window) = fx.request(k);
                if writer
                    .write_all(&fx.tenants[tenant].requests[window])
                    .is_err()
                {
                    break;
                }
                if tx.send((k, due, sent)).is_err() {
                    break;
                }
            }
        });
        let mut carry = Vec::new();
        let mut replies = Vec::with_capacity(jobs.len());
        for (k, due, sent) in rx.iter() {
            let (status, body) = read_response(&mut reader, &mut carry).unwrap_or((0, Vec::new()));
            replies.push(Reply {
                k,
                due,
                sent,
                done: Instant::now(),
                status,
                body,
            });
            if status == 0 {
                // The connection is gone: unblock the writer and stop.
                reader.shutdown(std::net::Shutdown::Both).ok();
                break;
            }
        }
        replies
    })
}

/// Reads one response off a pipelined stream. `carry` holds bytes read
/// past the previous response.
fn read_response(stream: &mut TcpStream, carry: &mut Vec<u8>) -> std::io::Result<(u16, Vec<u8>)> {
    let mut chunk = [0u8; 8192];
    let head_end = loop {
        if let Some(pos) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        carry.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&carry[..head_end]).to_string();
    let bad = || std::io::Error::from(std::io::ErrorKind::InvalidData);
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .and_then(|v| v.trim().parse().ok())
        })
        .ok_or_else(bad)?;
    while carry.len() < head_end + len {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        carry.extend_from_slice(&chunk[..n]);
    }
    let body = carry[head_end..head_end + len].to_vec();
    carry.drain(..head_end + len);
    Ok((status, body))
}

/// Due-time latencies (seconds, ascending) of the answered requests.
fn due_latencies(replies: &[Reply]) -> Vec<f64> {
    stats::sorted(
        &replies
            .iter()
            .filter(|r| r.status == 200)
            .map(|r| openloop::latency_from_due(r.due, r.done).as_secs_f64())
            .collect::<Vec<_>>(),
    )
}

/// A forecast parsed off the wire: generation and `[H, N]` values.
fn parse_forecast(body: &[u8]) -> Option<(u64, Vec<f32>)> {
    let doc = Value::parse(std::str::from_utf8(body).ok()?).ok()?;
    let generation = doc.get("generation")?.as_u64()?;
    let mut values = Vec::new();
    for row in doc.get("prediction")?.as_array()? {
        for v in row.as_array()? {
            values.push(v.as_f64()? as f32);
        }
    }
    Some((generation, values))
}

/// Whether a wire answer carries exactly the bits `predict` gives for the
/// same window on the same snapshot generation.
fn matches_in_process(fx: &Fixture, reply: &Reply) -> bool {
    let (tenant, window) = fx.request(reply.k);
    let t = &fx.tenants[tenant];
    let Some((generation, values)) = parse_forecast(&reply.body) else {
        return false;
    };
    let Ok(local) = t.client.predict(&t.windows[window].x) else {
        return false;
    };
    local.generation == generation
        && local.prediction.data().len() == values.len()
        && local
            .prediction
            .data()
            .iter()
            .zip(&values)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Summed tenant counters.
fn tenant_totals(fx: &Fixture) -> TenantStats {
    fx.tenants
        .iter()
        .map(|t| t.client.stats())
        .fold(TenantStats::default(), |acc, s| acc.merge(&s))
}

pub fn run(args: &Args) -> Outcome {
    let (setup, fx) = common::timed_setup(|| Fixture::new(args.seed));
    let before = tenant_totals(&fx);
    let http_before = fx.server.stats();
    let phase = Phase::begin();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut next_k = 0usize;

    // Rounds interleave the fixed-rate load, a closed-loop block and one
    // hot-swap per tenant, so a burst of host noise lands in one round.
    // CPU times are medians over the rounds. Latency is the median of the
    // quietest round: steal time stretches every wake-up of a round it
    // hits, by up to half in a run at 15-20 % steal, while a slower
    // program is slower in every round.
    let round_requests = (FIXED_RATE * args.seconds * 0.6) as usize / ROUNDS;
    let mut round_p50 = Vec::new();
    let mut round_p90 = Vec::new();
    let mut latency = Vec::new();
    let mut lag = Vec::new();
    let mut service = Vec::new();
    let mut abs_err = vec![(0.0f64, 0usize); fx.tenants.len()];
    let mut block_walls = Vec::new();
    let mut block_cpus = Vec::new();
    let mut swaps = Vec::new();
    let mut swap_cpus = Vec::new();
    let mut saves = Vec::new();
    let mut reloads = Vec::new();
    let mut save_bytes = Vec::new();
    for round in 1..=ROUNDS {
        // Fixed rate, timed from due time; one answer per tenant is
        // checked bit for bit against the in-process path.
        let fixed = drive(&fx, next_k, round_requests, Load::Rate(FIXED_RATE));
        next_k += round_requests;
        attempted += round_requests as u64;
        let ok: Vec<&Reply> = fixed.iter().filter(|r| r.status == 200).collect();
        failed += (round_requests - ok.len()) as u64;
        let round_latency = due_latencies(&fixed);
        round_p50.push(stats::quantile(&round_latency, 0.5));
        round_p90.push(stats::quantile(&round_latency, 0.9));
        latency.extend(round_latency);
        lag.extend(
            fixed
                .iter()
                .map(|r| openloop::generator_lag(r.due, r.sent).as_secs_f64()),
        );
        service.extend(ok.iter().map(|r| (r.done - r.sent).as_secs_f64()));
        let mut checked = vec![false; fx.tenants.len()];
        for r in &ok {
            let (tenant, window) = fx.request(r.k);
            match parse_forecast(&r.body) {
                Some((_, values)) => {
                    let truth = fx.tenants[tenant].windows[window].y.data();
                    for (p, y) in values.iter().zip(truth) {
                        abs_err[tenant].0 += f64::from((p - y).abs());
                        abs_err[tenant].1 += 1;
                    }
                }
                None => failed += 1,
            }
            if !checked[tenant] {
                checked[tenant] = true;
                attempted += 1;
                failed += u64::from(!matches_in_process(&fx, r));
            }
        }

        // Closed loop: the cost of a fixed amount of work.
        let clock = Stopwatch::start();
        let replies = drive(&fx, next_k, BLOCK, Load::Closed(BLOCK_DEPTH));
        block_cpus.push(clock.cpu_s());
        block_walls.push(clock.wall_s());
        next_k += BLOCK;
        attempted += BLOCK as u64;
        failed += (BLOCK - replies.iter().filter(|r| r.status == 200).count()) as u64;

        // Hot-swap: publish a checkpoint, reload, and check the next
        // answer comes from the new generation with the in-process bits.
        for (ti, t) in fx.tenants.iter().enumerate() {
            attempted += 1;
            let generation = t.client.generation();
            let clock = Stopwatch::start();
            let t0 = Instant::now();
            let bytes = {
                let _sp = urcl_trace::span("bench_save");
                t.pipe.save_checkpoint(&t.slots, &format!("rev {round}"))
            };
            let t1 = Instant::now();
            let reloaded = {
                let _sp = urcl_trace::span("bench_reload");
                t.client.reload_now()
            };
            let t2 = Instant::now();
            swap_cpus.push(clock.cpu_s());
            let live =
                matches!(reloaded, Ok(true)) && t.client.generation() == generation.map(|g| g + 1);
            // The next request index that lands on this tenant.
            let k = next_k.div_ceil(TENANTS.len()) * TENANTS.len() + ti;
            let probe = drive(&fx, k, 1, Load::Closed(1));
            next_k = k + 1;
            let probe_ok = probe
                .first()
                .is_some_and(|r| r.status == 200 && matches_in_process(&fx, r));
            failed += u64::from(!(bytes.is_ok() && live && probe_ok));
            swaps.push((t2 - t0).as_secs_f64());
            saves.push((t1 - t0).as_secs_f64());
            reloads.push((t2 - t1).as_secs_f64());
            save_bytes.push(bytes.unwrap_or(0) as f64);
        }
    }
    let latency = stats::sorted(&latency);
    let lag = stats::sorted(&lag);
    let mae = abs_err
        .iter()
        .map(|&(sum, n)| sum / n.max(1) as f64)
        .sum::<f64>()
        / abs_err.len() as f64;

    // Rate ladder.
    let rung_s = args.seconds * 0.025;
    let rungs: Vec<Rung> = LADDER
        .iter()
        .map(|&rate| {
            let count = (rate * rung_s) as usize;
            let start = Instant::now();
            let replies = drive(&fx, next_k, count, Load::Rate(rate));
            next_k += count;
            let wall = start.elapsed().as_secs_f64();
            let first_due = replies.first().map_or(start, |r| r.due);
            let answered: Vec<Answered> = replies
                .iter()
                .filter(|r| r.status == 200)
                .map(|r| Answered {
                    due_s: (r.due - first_due).as_secs_f64(),
                    latency_s: openloop::latency_from_due(r.due, r.done).as_secs_f64(),
                })
                .collect();
            Rung::new(rate, count, &answered, wall, 0.99)
        })
        .collect();
    let max_rps = openloop::max_passing(&rungs, LIMIT_S).map_or(0.0, |r| r.achieved);
    let spans = urcl_trace::span_stats();
    let counters = phase.counters();
    let after = tenant_totals(&fx);
    let http_after = fx.server.stats();

    let mut e2e = Values::new();
    e2e.insert("setup_s", setup.at_ref_s);
    e2e.insert("work_s", stats::median(&block_cpus));
    e2e.insert("update_s", stats::median(&swap_cpus));
    e2e.insert("p50_ms", stats::sorted(&round_p50)[0] * 1e3);
    e2e.insert("mae", mae);
    e2e.insert("ok_ratio", (attempted - failed) as f64 / attempted as f64);

    let mut layer = common::zero_layers();
    if args.trace {
        serving_layers(&fx, &mut layer, args, stats::median(&service));
    }
    layer.insert("persist.save_ms", stats::median(&saves) * 1e3);
    layer.insert("persist.save_bytes", stats::median(&save_bytes));
    layer.insert("tenant.reload_ms", stats::median(&reloads) * 1e3);
    layer.insert("tenant.swap_ms", stats::median(&swaps) * 1e3);
    layer.insert("tenant.swaps", (after.swaps - before.swaps) as f64);
    layer.insert("tenant.steals", (after.steals - before.steals) as f64);
    layer.insert("tenant.shed", (after.shed - before.shed) as f64);
    let batches = after.batches - before.batches;
    layer.insert(
        "shard.mean_batch",
        (after.requests - before.requests) as f64 / batches.max(1) as f64,
    );
    layer.insert("shard.max_batch", after.max_batch as f64);
    layer.insert(
        "shard.peak_queue_depth",
        fx.tenants
            .iter()
            .flat_map(|t| t.client.peak_queue_depths())
            .max()
            .unwrap_or(0) as f64,
    );
    layer.insert(
        "http.requests",
        (http_after.requests - http_before.requests) as f64,
    );
    layer.insert(
        "http.parse_errors",
        (http_after.parse_errors - http_before.parse_errors) as f64,
    );
    layer.insert("http.max_rps", max_rps);
    layer.insert(
        "bench.generator_lag_ms",
        stats::tail(&lag, 0.99).value * 1e3,
    );
    common::engine_layers(&mut layer, &spans, &counters);

    let ladder = Value::Array(
        rungs
            .iter()
            .map(|r| {
                Value::object()
                    .with("rate", r.rate)
                    .with("achieved", r.achieved)
                    .with("tail_ms", r.tail.value * 1e3)
                    .with("tail_q", r.tail.q)
                    .with("failed", r.failed)
                    .with("backlog", r.backlog)
                    .with("passes", r.passes(LIMIT_S))
            })
            .collect(),
    );
    let seconds = |xs: &[f64]| Value::Array(xs.iter().map(|&x| Value::from(x)).collect());
    let detail = Value::object()
        .with("setup", setup.detail())
        .with("fixed_rate", FIXED_RATE)
        .with("rounds", ROUNDS)
        .with("fixed_requests", round_requests * ROUNDS)
        .with("p50_all_rounds_ms", stats::quantile(&latency, 0.5) * 1e3)
        .with(
            "round_p50_ms",
            Value::Array(round_p50.iter().map(|&v| Value::from(v * 1e3)).collect()),
        )
        .with("p90_ms", stats::median(&round_p90) * 1e3)
        .with(
            "round_p90_ms",
            Value::Array(round_p90.iter().map(|&v| Value::from(v * 1e3)).collect()),
        )
        .with("latency_tail", common::tail_detail(&latency))
        .with("generator_lag_p50_ms", stats::quantile(&lag, 0.5) * 1e3)
        .with(
            "generator_lag_max_ms",
            lag.last().copied().unwrap_or(0.0) * 1e3,
        )
        .with("block_cpu_s", seconds(&block_cpus))
        .with("block_wall_s", seconds(&block_walls))
        .with("limit_ms", LIMIT_S * 1e3)
        .with("max_rps", max_rps)
        .with("ladder", ladder)
        .with("swap_ms", stats::median(&swaps) * 1e3)
        .with("swap_cpu_s", seconds(&swap_cpus));
    Outcome {
        end_to_end: e2e,
        per_layer: layer,
        attempted,
        failed,
        detail,
    }
}

/// Traced-run decomposition of a served request: forward time at batch
/// 1 and 8 (timed through each snapshot's forward plan), the in-process
/// round trip at the fixed rate, and the JSON decode of a request body.
fn serving_layers(fx: &Fixture, layer: &mut Values, args: &Args, wire_service: f64) {
    let mut b1 = Vec::new();
    let mut b8 = Vec::new();
    for t in &fx.tenants {
        let snapshot = t.client.snapshot().expect("tenant has a snapshot");
        let one = [t.windows[0].x.clone()];
        let eight: Vec<Tensor> = t.windows[..8].iter().map(|w| w.x.clone()).collect();
        let _sp = urcl_trace::span("bench_forward");
        b1.push(common::median_time(20, || {
            std::hint::black_box(forward_batch(
                t.model.as_ref(),
                &snapshot,
                &one,
                t.target_channel,
            ));
        }));
        b8.push(common::median_time(20, || {
            std::hint::black_box(forward_batch(
                t.model.as_ref(),
                &snapshot,
                &eight,
                t.target_channel,
            ));
        }));
    }
    let forward_b1 = b1.iter().sum::<f64>() / b1.len() as f64;
    layer.insert("forward.b1_ms", forward_b1 * 1e3);
    layer.insert(
        "forward.b8_ms",
        b8.iter().sum::<f64>() / b8.len() as f64 * 1e3,
    );

    // In-process open loop at the fixed rate: one sequential caller per
    // connection, as the server's connection workers are.
    let count = (FIXED_RATE * args.seconds * 0.1) as usize;
    let schedule = Schedule::new(Instant::now() + Duration::from_millis(2), FIXED_RATE);
    let service: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let _sp = urcl_trace::span("bench_inprocess");
                    (c..count)
                        .step_by(CONNECTIONS)
                        .filter_map(|j| {
                            schedule.wait_for(j);
                            let (tenant, window) = fx.request(j);
                            let t0 = Instant::now();
                            let t = &fx.tenants[tenant];
                            t.client.predict(&t.windows[window].x).ok()?;
                            Some(t0.elapsed().as_secs_f64())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("in-process caller"))
            .collect()
    });
    let in_process = stats::median(&service);
    layer.insert("http.overhead_ms", (wire_service - in_process) * 1e3);
    layer.insert("shard.coalesce_wait_ms", (in_process - forward_b1) * 1e3);

    let request = &fx.tenants[0].requests[0];
    let split = request
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("request head")
        + 4;
    let body = std::str::from_utf8(&request[split..]).expect("utf-8 body");
    let decode = common::median_time(100, || {
        std::hint::black_box(Value::parse(body).expect("request body parses"));
    });
    layer.insert("http.json_decode_us", decode * 1e6);
}
