//! The metric tables and the result line the benchmark prints last.

use std::collections::BTreeMap;

use urcl_json::Value;

/// End-to-end metrics `(name, unit)`, reported by every workload with
/// tracing off. README.md defines each one per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_s", "s"),
    ("update_s", "s"),
    ("p50_ms", "ms"),
    ("mae", "phys"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload in the
/// traced run; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trainer.step_ms.p50", "ms"),
    ("trainer.step_ms.p99", "ms"),
    ("trainer.eval_s", "s"),
    ("trainer.steps", "count"),
    ("trainer.period_update_s", "s"),
    ("rmir.share", "ratio"),
    ("rmir.virtual_update_ms", "ms"),
    ("rmir.scoring_ms", "ms"),
    ("rmir.selected_per_round", "count"),
    ("augment.ms", "ms"),
    ("stmixup.ms", "ms"),
    ("plan.compiles", "count"),
    ("plan.replays", "count"),
    ("plan.compile_s", "s"),
    ("plan.exec_ms", "ms"),
    ("plan.cache_evictions", "count"),
    ("pool.hit_ratio", "ratio"),
    ("pool.peak_resident_mb", "MB"),
    ("parallel.inline_calls", "count"),
    ("persist.save_ms", "ms"),
    ("persist.save_bytes", "bytes"),
    ("persist.load_ms", "ms"),
    ("tenant.reload_ms", "ms"),
    ("tenant.swap_ms", "ms"),
    ("tenant.swaps", "count"),
    ("tenant.steals", "count"),
    ("tenant.shed", "count"),
    ("shard.mean_batch", "count"),
    ("shard.max_batch", "count"),
    ("shard.peak_queue_depth", "count"),
    ("shard.coalesce_wait_ms", "ms"),
    ("forward.b1_ms", "ms"),
    ("forward.b8_ms", "ms"),
    ("http.requests", "count"),
    ("http.parse_errors", "count"),
    ("http.json_decode_us", "us"),
    ("http.overhead_ms", "ms"),
    ("http.max_rps", "1/s"),
    ("bench.unattributed_share", "ratio"),
    ("bench.generator_lag_ms", "ms"),
];

/// Named metric values gathered by a workload.
pub type Values = BTreeMap<&'static str, f64>;

/// Renders the result line for `table`. Every metric of the table must
/// be present and finite: a gap is a bug in the workload, not a reading.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &Values,
    table: &[(&str, &str)],
) -> String {
    let mut metrics = Value::object();
    for &(name, unit) in table {
        let value = *values
            .get(name)
            .unwrap_or_else(|| panic!("workload did not measure {name}"));
        assert!(value.is_finite(), "{name} is not finite: {value}");
        metrics.set(
            name,
            Value::object().with("value", value).with("unit", unit),
        );
    }
    Value::object()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics)
        .to_string_compact()
}
