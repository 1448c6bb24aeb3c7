//! Turning samples into the named metrics and the final JSON line.

use std::collections::BTreeMap;

use crate::client::{Class, Run, DEPTH};
use crate::stats::{highest_supported_percentile, median, percentile};

/// Metric name → (value, unit), in name order.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The metrics a complete untraced run reports.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "query_hot_p50_us",
    "query_fresh_p50_us",
    "mquery_p50_us",
    "pipeline_qps",
    "commit_p50_ms",
    "recover_p50_ms",
    "rss_mb",
    "snapshot_bytes_per_node",
];

/// The metrics a complete traced run reports.
pub const PER_LAYER: &[&str] = &[
    "service.wire_decode_us",
    "service.wire_encode_us",
    "service.catalog_pin_us",
    "service.response_bytes.query_hot",
    "service.response_bytes.query_fresh",
    "service.response_bytes.mquery",
    "service.response_bytes.span_query",
    "service.format_us",
    "service.unaccounted_us.query_hot",
    "service.unaccounted_us.text_query",
    "service.unaccounted_us.query_fresh",
    "service.unaccounted_us.mquery",
    "service.unaccounted_us.pipeline",
    "service.unaccounted_us.span_query",
    "service.unaccounted_us.ruid_query",
    "service.unaccounted_us.commit",
    "service.unaccounted_us.ingest",
    "service.unaccounted_us.recover",
    "service.apply_update_ms",
    "service.build_bundle_ms",
    "service.from_recovered_ms",
    "plan.cache_lookup_us",
    "plan.cache_hit_ratio",
    "plan.cache_evictions",
    "plan.cache_invalidations",
    "plan.plan_us",
    "plan.exec_us",
    "plan.rows_examined_per_result",
    "plan.summary_patch_us",
    "plan.summary_build_ms",
    "xpath.parse_us",
    "xpath.span_eval_us",
    "xpath.ruid_eval_ms",
    "xpath.axis_steps_per_query",
    "xpath.name_index_patch_us",
    "xpath.name_index_build_ms",
    "core.relabel_us",
    "core.relabeled_per_commit",
    "core.ruid_build_ms",
    "schemes.span_update_ms",
    "schemes.span_build_ms",
    "xmldom.arena_clone_ms",
    "xmldom.order_build_ms",
    "xmldom.parse_ms",
    "xmlstore.load_ms",
    "durable.wal_append_us",
    "durable.wal_fsync_us",
    "durable.wal_bytes_per_commit",
    "durable.recover_ms",
    "durable.replayed_records",
    "host.calib_ms",
];

/// The end-to-end metrics of a finished untraced run. A class without
/// samples leaves its metric out, which fails the run.
///
/// Five classes are timed but not reported here, because over the
/// stability runs they moved between seeds or between sets of runs by
/// more than the largest bound a metric may have (a quarter of its
/// median): the fresh-query p90 (it sits on the slow first queries after
/// each commit or restart), the span-engine and ruid-engine medians
/// (memory-bound), the ingest median (a parallel build, it slowed most
/// when the host did) and the text-protocol median (two thread wake-ups
/// per request). All five stay on the class reference lines.
pub fn end_to_end(run: &Run, rss_mb: Option<f64>) -> Metrics {
    let mut m = Metrics::new();
    let mut put = |name: &str, value: Option<f64>, unit: &'static str| {
        if let Some(v) = value {
            m.insert(name.to_owned(), (v, unit));
        }
    };
    let class = |c: Class| run.samples.get(&c).map(Vec::as_slice).unwrap_or(&[]);
    let p50_ms = |c: Class| median(class(c)).map(|us| us / 1e3);
    put("setup_s", median(&run.setup_s), "s");
    put("query_hot_p50_us", median(class(Class::Hot)), "us");
    put("query_fresh_p50_us", median(class(Class::Fresh)), "us");
    put("mquery_p50_us", median(class(Class::MQuery)), "us");
    put(
        "pipeline_qps",
        median(class(Class::Pipeline)).map(|us| DEPTH as f64 / (us / 1e6)),
        "1/s",
    );
    put("commit_p50_ms", p50_ms(Class::Commit), "ms");
    put("recover_p50_ms", p50_ms(Class::Recover), "ms");
    put("rss_mb", rss_mb, "MB");
    let nodes = (run.docs[0].nodes + run.docs[1].nodes) as f64;
    put(
        "snapshot_bytes_per_node",
        (run.last_snapshot_bytes > 0).then(|| run.last_snapshot_bytes as f64 / nodes),
        "B",
    );
    m
}

/// One reference line per class: sample count, median, p90 once there
/// are 100 samples, and the highest percentile with at least ten samples
/// beyond it.
pub fn class_lines(run: &Run) -> Vec<String> {
    Class::ALL
        .iter()
        .filter_map(|&c| {
            let s = run.samples.get(&c)?;
            let top = highest_supported_percentile(s.len());
            let p90 = if s.len() >= 100 {
                format!(" p90_us={:.1}", percentile(s, 90.0)?)
            } else {
                String::new()
            };
            Some(format!(
                "class {:<12} samples={:<6} p50_us={:.1}{p90} p{}_us={:.1}",
                c.name(),
                s.len(),
                median(s)?,
                top,
                percentile(s, top)?
            ))
        })
        .collect()
}

/// The final line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
