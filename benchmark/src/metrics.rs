//! The metric catalogue: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` lists the same names; `tests/contract.rs` holds the
//! two together.

use std::collections::BTreeMap;

/// Metric name → value.
pub type Values = BTreeMap<String, f64>;

/// End-to-end metrics of the untraced pass: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("wire_bytes_per_op", "bytes"),
];

/// Spans reported as `<span>_ms`: the median over ops of the span's
/// summed duration within the op.
pub const SPANS: [&str; 32] = [
    "core.session.start",
    "core.session.complete",
    "core.service.handle_register",
    "core.proto.codec",
    "core.net.broadcast",
    "core.net.recv_document",
    "core.net.revoke",
    "core.session.join",
    "core.publisher.broadcast",
    "core.subscriber.decrypt_broadcast",
    "ocbe.receiver_prepare",
    "ocbe.sender_compose",
    "ocbe.receiver_open",
    "group.exp_var",
    "group.exp_fixed",
    "group.schnorr.sign",
    "group.schnorr.verify",
    "commit.commit",
    "gkm.acv.rekey",
    "gkm.acv.derive_key",
    "math.linalg.null_vector",
    "policy.configuration_of",
    "docs.segment",
    "docs.reassemble",
    "docs.container.encode",
    "docs.container.decode",
    "crypto.authenc.encrypt",
    "crypto.authenc.decrypt",
    "net.direct.call",
    "net.client.publish_signed",
    "net.frame.codec",
    "net.store.retain",
];

/// Per-layer metrics that are not span durations: `(name, unit)`.
pub const COUNTS: [(&str, &str); 52] = [
    ("net.direct.self_ms", "ms"),
    ("net.deliver_wait_ms", "ms"),
    ("net.store.recover_ms", "ms"),
    ("core.service.requests_per_op", "count"),
    ("core.service.errors", "count"),
    ("core.service.conditions_cache_hits", "count"),
    ("core.proto.request_bytes", "bytes"),
    ("core.proto.response_bytes", "bytes"),
    ("ocbe.envelope_bytes", "bytes"),
    ("group.exp_per_op", "count"),
    ("group.exp2_per_op", "count"),
    ("gkm.acv.rows", "count"),
    ("gkm.acv.info_bytes", "bytes"),
    ("gkm.acv.nonce_collisions", "count"),
    ("gkm.css.records", "count"),
    ("docs.container_bytes", "bytes"),
    ("crypto.authenc.mb_per_s", "MB/s"),
    ("net.store.log_bytes_per_op", "bytes"),
    ("net.relay.catch_up_ms", "ms"),
    ("net.relay.forwarded_per_op", "count"),
    ("net.relay.suppressed", "count"),
    ("net.broker.deliveries_per_op", "count"),
    ("net.broker.publishes_rejected", "count"),
    ("net.broker.subscribers_dropped", "count"),
    ("net.broker.queue_depth_max", "count"),
    ("proc.threads", "count"),
    ("proc.ctx_switches_per_op", "count"),
    ("proc.sys_cpu_share", "ratio"),
    ("tail.op_p95_ms", "ms"),
    ("tail.op_max_ms", "ms"),
    ("setup.issue_tokens_ms", "ms"),
    ("setup.register_population_ms", "ms"),
    ("setup.broker_start_ms", "ms"),
    ("setup.connect_ms", "ms"),
    ("setup.warmup_ms", "ms"),
    ("host.cores", "count"),
    ("host.loadavg_1m", "load"),
    ("host.steal_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.closure_ratio", "ratio"),
    ("trace.probed_ops", "count"),
    ("trace.share.core", "ratio"),
    ("trace.share.ocbe", "ratio"),
    ("trace.share.group", "ratio"),
    ("trace.share.commit", "ratio"),
    ("trace.share.gkm", "ratio"),
    ("trace.share.math", "ratio"),
    ("trace.share.policy", "ratio"),
    ("trace.share.docs", "ratio"),
    ("trace.share.crypto", "ratio"),
    ("trace.share.net", "ratio"),
    ("trace.spans", "count"),
];

/// Every per-layer metric as `(name, unit)`, spans first.
pub fn per_layer() -> Vec<(String, &'static str)> {
    SPANS
        .iter()
        .map(|s| (format!("{s}_ms"), "ms"))
        .chain(COUNTS.iter().map(|(n, u)| (n.to_string(), *u)))
        .collect()
}
