//! Tests of the benchmark harness's own logic: the CPU clock and the
//! reference speed, the percentile rule, due-time latency accounting,
//! backlog detection for the rate ladder, phase isolation of the
//! process-global counters, span attribution, and agreement of the metric
//! tables with `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use urcl_json::Value;
use urcl_perfbench::cpuclock::{self, Stopwatch};
use urcl_perfbench::layers::{self, Phase};
use urcl_perfbench::openloop::{self, Answered, Rung, Schedule};
use urcl_perfbench::reference;
use urcl_perfbench::report::{self, Values, END_TO_END, PER_LAYER};
use urcl_perfbench::stats::{self, MIN_BEYOND};
use urcl_trace::SpanStats;

fn ascending(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn cpu_clock_counts_work_not_sleep() {
    // Other tests run on other threads of this process, so exact
    // accounting is checked on the thread clock; the process clock must
    // count at least this thread's work.
    let clock = Stopwatch::start();
    let t0 = cpuclock::thread_cpu();
    std::thread::sleep(Duration::from_millis(60));
    let t1 = cpuclock::thread_cpu();
    let mut x = 0u64;
    let busy = Instant::now();
    while busy.elapsed() < Duration::from_millis(60) {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
    }
    let t2 = cpuclock::thread_cpu();
    let slept = (t1 - t0).as_secs_f64();
    let worked = (t2 - t1).as_secs_f64();
    assert!(slept < 0.01, "sleeping took {slept} s of CPU");
    assert!(
        worked > 0.02,
        "60 ms of spinning took only {worked} s of CPU"
    );
    assert!(clock.cpu_s() >= worked);
    assert!(clock.wall_s() >= 0.12);
}

#[test]
fn reference_speed_scales_by_the_kernel_at_both_ends() {
    let r = reference::REFERENCE_S;
    // A core running the kernel at the reference speed reads raw time.
    assert!((reference::at_reference(3.0, r, r) - 3.0).abs() < 1e-12);
    // A core twice as slow at both ends reads half its CPU time.
    assert!((reference::at_reference(3.0, 2.0 * r, 2.0 * r) - 1.5).abs() < 1e-12);
    // A speed change within the interval counts at the mean of its ends.
    assert!((reference::at_reference(3.0, r, 3.0 * r) - 1.5).abs() < 1e-12);
    let k = reference::kernel_s();
    assert!(k > 0.0 && k < 1.0, "kernel took {k} s");
}

#[test]
fn quantile_is_nearest_rank() {
    let xs = ascending(100);
    assert_eq!(stats::quantile(&xs, 0.5), 50.0);
    assert_eq!(stats::quantile(&xs, 0.99), 99.0);
    assert_eq!(stats::quantile(&xs, 1.0), 100.0);
    assert_eq!(stats::quantile(&xs, 0.0), 1.0);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
    assert!(stats::quantile(&[], 0.5).is_nan());
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    // 1000 samples support p99 exactly: ten lie beyond it.
    let t = stats::tail(&ascending(1000), 0.99);
    assert_eq!(t.q, 0.99);
    assert_eq!(t.value, 990.0);
    assert_eq!(stats::beyond(1000, t.q), MIN_BEYOND);

    // Fewer samples: the highest percentile with ten beyond it instead.
    for n in [11, 50, 362, 999] {
        let t = stats::tail(&ascending(n), 0.99);
        assert!(t.q < 0.99, "n = {n}");
        assert_eq!(stats::beyond(n, t.q), MIN_BEYOND, "n = {n}");
        assert_eq!(t.value, (n - MIN_BEYOND) as f64, "n = {n}");
    }

    // More samples never push the reported quantile past the request.
    let t = stats::tail(&ascending(5000), 0.99);
    assert_eq!(t.q, 0.99);
    assert!(stats::beyond(5000, t.q) >= MIN_BEYOND);

    // Too few to satisfy the rule at all: the minimum, never a panic.
    assert_eq!(stats::tail(&ascending(5), 0.99).value, 1.0);
    assert!(stats::tail(&[], 0.99).value.is_nan());
}

#[test]
fn latency_counts_from_due_time_not_send_time() {
    let t0 = Instant::now();
    let schedule = Schedule::new(t0, 100.0); // one request every 10 ms
    assert_eq!(schedule.due(0), t0);
    assert_eq!(schedule.due(3), t0 + Duration::from_millis(30));

    // The generator stalled 25 ms and sent request 1 late; the server
    // answered 2 ms after the send. From its due time the request waited
    // 17 ms more than the server's 2 ms.
    let due = schedule.due(1);
    let sent = t0 + Duration::from_millis(35);
    let done = sent + Duration::from_millis(2);
    assert_eq!(
        openloop::generator_lag(due, sent),
        Duration::from_millis(25)
    );
    assert_eq!(
        openloop::latency_from_due(due, done),
        Duration::from_millis(27)
    );

    // An answer can never be early.
    assert_eq!(openloop::latency_from_due(done, due), Duration::ZERO);
    assert_eq!(openloop::generator_lag(sent, due), Duration::ZERO);
}

#[test]
fn schedule_waits_until_due() {
    let start = Instant::now() + Duration::from_millis(20);
    let schedule = Schedule::new(start, 1000.0);
    let due = schedule.wait_for(5);
    assert_eq!(due, start + Duration::from_millis(5));
    assert!(Instant::now() >= due);
    // Overdue requests go at once.
    let t = Instant::now();
    schedule.wait_for(0);
    assert!(t.elapsed() < Duration::from_millis(5));
}

fn answered(latency: impl Fn(f64) -> f64, n: usize, rate: f64) -> Vec<Answered> {
    (0..n)
        .map(|i| {
            let due_s = i as f64 / rate;
            Answered {
                due_s,
                latency_s: latency(due_s),
            }
        })
        .collect()
}

#[test]
fn backlog_shows_as_latency_growing_across_the_step() {
    // Steady service: flat latency with noise is no backlog.
    let steady = answered(|t| 0.004 + 0.001 * ((t * 37.0).sin()), 400, 200.0);
    assert!(!openloop::backlog_growing(&steady));
    // Arrivals outpace service: each request waits for all before it.
    let growing = answered(|t| 0.004 + 0.3 * t, 400, 200.0);
    assert!(openloop::backlog_growing(&growing));
    // Order of the input does not matter; only due times do.
    let mut shuffled = growing.clone();
    shuffled.reverse();
    assert!(openloop::backlog_growing(&shuffled));
    // A single late spike in the middle is a tail event, not a backlog.
    let spike = answered(
        |t| if (0.9..1.0).contains(&t) { 0.2 } else { 0.004 },
        400,
        200.0,
    );
    assert!(!openloop::backlog_growing(&spike));
    // Too few answers to judge.
    assert!(!openloop::backlog_growing(&growing[..7]));
}

#[test]
fn max_rps_is_the_highest_rung_meeting_the_limit() {
    let limit = 0.020;
    let flat = |ms: f64| move |_t: f64| ms / 1e3;
    let rung = |rate: f64, lat: &[Answered], sent: usize| Rung::new(rate, sent, lat, 2.0, 0.99);
    let a = answered(flat(4.0), 1000, 200.0);
    let b = answered(flat(30.0), 1000, 300.0); // over the limit
    let c = answered(flat(6.0), 1000, 400.0);
    let d = answered(|t| 0.004 + 0.3 * t, 1000, 500.0); // backlog
    let rungs = vec![
        rung(200.0, &a, 1000),
        rung(300.0, &b, 1000),
        rung(400.0, &c, 1000),
        rung(500.0, &d, 1000),
    ];
    assert!(rungs[0].passes(limit));
    assert!(!rungs[1].passes(limit));
    assert!(rungs[3].backlog && !rungs[3].passes(limit));
    // A noisy middle rung does not hide a higher one that passes.
    assert_eq!(
        openloop::max_passing(&rungs, limit).map(|r| r.rate),
        Some(400.0)
    );
    assert_eq!(rungs[2].achieved, 500.0);

    // A failed request misses the limit, however fast the rest were.
    let lossy = rung(600.0, &a[..999], 1000);
    assert_eq!(lossy.failed, 1);
    assert!(!lossy.passes(limit));
    assert!(openloop::max_passing(&[lossy], limit).is_none());
}

/// The phase test is the only one in this binary that touches the
/// process-global counters and the trace.
#[test]
fn a_phase_sees_only_its_own_work() {
    urcl_trace::enable();
    let parallel_calls = |n: usize| {
        for _ in 0..n {
            urcl_tensor::parallel_for(64, 1, |r| {
                std::hint::black_box(r);
            });
        }
    };
    // Earlier work: set-up, or a previous phase.
    parallel_calls(5);
    {
        let _sp = urcl_trace::span("setup");
    }
    urcl_trace::counter_add("rmir.selected", 3);

    let first = Phase::begin();
    parallel_calls(2);
    let c = first.counters();
    assert_eq!(c.parallel.par_calls + c.parallel.inline_calls, 2);
    assert!(urcl_trace::span_stats().is_empty());
    assert_eq!(urcl_trace::counter_value("rmir.selected"), 0);
    {
        let _sp = urcl_trace::span("measured");
    }
    assert_eq!(layers::span_count(&urcl_trace::span_stats(), "measured"), 1);

    let second = Phase::begin();
    parallel_calls(3);
    let c = second.counters();
    assert_eq!(c.parallel.par_calls + c.parallel.inline_calls, 3);
    assert_eq!(c.plan.compiles, 0);
    assert_eq!(layers::span_count(&urcl_trace::span_stats(), "measured"), 0);
    urcl_trace::disable();
}

fn span(total_ms: u64, count: u64) -> SpanStats {
    SpanStats {
        count,
        total_ns: total_ms * 1_000_000,
        max_ns: total_ms * 1_000_000,
    }
}

#[test]
fn unattributed_time_is_self_time_of_spans_with_children() {
    let spans: BTreeMap<String, SpanStats> = [
        ("step", span(100, 10)),
        ("step/plan_exec", span(60, 10)),
        ("step/replay", span(30, 10)),
        ("step/replay/rmir", span(10, 5)),
        // Another thread's root: a leaf, fully attributed.
        ("serve_batch", span(100, 40)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    // step self 10 ms + replay self 20 ms, over 200 ms of root time.
    assert!((layers::unattributed_share(&spans) - 0.15).abs() < 1e-12);
    assert_eq!(layers::span_ms(&spans, "rmir"), 10.0);
    assert_eq!(layers::span_count(&spans, "rmir"), 5);
    assert_eq!(layers::span_mean_ms(&spans, "rmir"), 2.0);
    assert_eq!(layers::span_mean_ms(&spans, "absent"), 0.0);
    // Direct children only: rmir is a grandchild of step.
    assert_eq!(layers::children_ms(&spans, "step"), 90.0);
    assert_eq!(layers::children_ms(&spans, "replay"), 10.0);
    assert_eq!(layers::children_ms(&spans, "serve_batch"), 0.0);
    assert_eq!(layers::unattributed_share(&BTreeMap::new()), 0.0);
}

#[test]
fn result_line_carries_exactly_the_table() {
    let values: Values = END_TO_END.iter().map(|&(n, _)| (n, 1.5)).collect();
    let line = report::result_line(true, 10, 0, &values, END_TO_END);
    let doc = Value::parse(&line).expect("result line is JSON");
    assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(10));
    assert_eq!(doc.get("failed").and_then(Value::as_u64), Some(0));
    let metrics = doc.get("metrics").expect("metrics");
    for &(name, unit) in END_TO_END {
        let m = metrics.get(name).expect(name);
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.5));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
    }
    assert!(metrics.get(PER_LAYER[0].0).is_none());
}

#[test]
#[should_panic(expected = "did not measure")]
fn result_line_refuses_a_missing_metric() {
    report::result_line(true, 1, 0, &Values::new(), END_TO_END);
}

/// The tables the binary prints are the ones `BENCHMARK.json` declares.
#[test]
fn tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Value::parse(&text).expect("BENCHMARK.json parses");
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared: Vec<(String, String)> = doc
            .get(key)
            .and_then(Value::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect();
        let printed: Vec<(String, String)> = table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared, printed, "{key}");
    }
}
