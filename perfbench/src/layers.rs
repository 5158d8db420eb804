//! Per-layer readings: the program's process-global counters scoped to
//! one benchmark phase, and attribution of time over the span tree.

use std::collections::BTreeMap;

use urcl_tensor::{BufferPoolStats, PlanStats, PoolStats};
use urcl_trace::SpanStats;

/// Counter readings of one phase. The plan, buffer-pool and parallel
/// counters are process-global and also count set-up work, so a phase
/// zeroes them (and the trace) when it begins: what it reads at the end
/// is its own work only.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseCounters {
    /// Plan-engine counters.
    pub plan: PlanStats,
    /// Thread-pool dispatch counters.
    pub parallel: PoolStats,
    /// Buffer-pool counters; the peak covers buffers taken in the phase.
    pub pool: BufferPoolStats,
}

/// A measured phase: begins with zeroed counters and trace.
pub struct Phase(());

impl Phase {
    /// Zeroes the trace and the tensor counters, opening a phase.
    pub fn begin() -> Self {
        urcl_trace::reset();
        Phase(())
    }

    /// The counters accumulated since [`Phase::begin`].
    pub fn counters(&self) -> PhaseCounters {
        PhaseCounters {
            plan: urcl_tensor::plan_stats(),
            parallel: urcl_tensor::pool_stats(),
            pool: urcl_tensor::buffer_pool_stats(),
        }
    }
}

/// Total milliseconds spent in spans whose last path segment is `name`,
/// on any thread and under any parent.
pub fn span_ms(spans: &BTreeMap<String, SpanStats>, name: &str) -> f64 {
    matching(spans, name).map(|s| s.total_ns as f64 / 1e6).sum()
}

/// Entries of spans whose last path segment is `name`.
pub fn span_count(spans: &BTreeMap<String, SpanStats>, name: &str) -> u64 {
    matching(spans, name).map(|s| s.count).sum()
}

/// Mean milliseconds per entry of spans named `name` (0 if never entered).
pub fn span_mean_ms(spans: &BTreeMap<String, SpanStats>, name: &str) -> f64 {
    match span_count(spans, name) {
        0 => 0.0,
        n => span_ms(spans, name) / n as f64,
    }
}

/// Total milliseconds in the direct children of spans named `parent`.
pub fn children_ms(spans: &BTreeMap<String, SpanStats>, parent: &str) -> f64 {
    spans
        .iter()
        .filter(|(path, _)| {
            let mut segs = path.rsplit('/');
            segs.next();
            segs.next() == Some(parent)
        })
        .map(|(_, s)| s.total_ns as f64 / 1e6)
        .sum()
}

fn matching<'a>(
    spans: &'a BTreeMap<String, SpanStats>,
    name: &'a str,
) -> impl Iterator<Item = &'a SpanStats> + 'a {
    spans
        .iter()
        .filter(move |(path, _)| path.rsplit('/').next() == Some(name))
        .map(|(_, s)| s)
}

/// Share of span time that no leaf span covers.
///
/// Every root span (one per thread entry point) counts its wall time.
/// A span with children contributes its self time — its duration minus
/// its direct children's — as unattributed: time spent inside a layer
/// that no finer span explains. Leaves are attributed by definition.
pub fn unattributed_share(spans: &BTreeMap<String, SpanStats>) -> f64 {
    let mut children: BTreeMap<&str, u64> = BTreeMap::new();
    for (path, s) in spans {
        if let Some((parent, _)) = path.rsplit_once('/') {
            *children.entry(parent).or_insert(0) += s.total_ns;
        }
    }
    let roots: u64 = spans
        .iter()
        .filter(|(path, _)| !path.contains('/'))
        .map(|(_, s)| s.total_ns)
        .sum();
    let unattributed: u64 = children
        .iter()
        .filter_map(|(parent, &child_ns)| {
            spans
                .get(*parent)
                .map(|s| s.total_ns.saturating_sub(child_ns))
        })
        .sum();
    if roots == 0 {
        0.0
    } else {
        unattributed as f64 / roots as f64
    }
}
