//! The names, units and directions of everything the benchmark reports —
//! the code's copy of `BENCHMARK.json`. A run can only report a metric
//! that is declared here, and a unit test holds this file and the JSON
//! together.

/// `(name, unit, higher is better, bound)`: how much worse than the
/// parent's median a metric may get before it counts as a regression.
/// At least three times the spread of ten runs on the shared VM this was
/// sized on (see README), never wider than a quarter.
pub const END_TO_END: [(&str, &str, bool, f64); 4] = [
    ("latency_p50_ms", "ms", false, 0.25),
    ("delivered_fps", "1/s", true, 0.2),
    ("peak_rss_mb", "MiB", false, 0.15),
    ("setup_s", "s", false, 0.25),
];

/// `(name, unit, higher is better)`. T = from the traced run's spans,
/// C = a public counter of the program, M = a micro-cell.
pub const PER_LAYER: [(&str, &str, bool); 52] = [
    // media (M)
    ("media.source.capture_us", "us", false),
    ("media.codec.encode_us", "us", false),
    ("media.codec.decode_us", "us", false),
    ("media.codec.encoded_bytes", "B", false),
    // ml / apps::services (T)
    ("ml.pose_detector.busy_us", "us", false),
    ("ml.activity_classifier.busy_us", "us", false),
    ("ml.rep_counter.busy_us", "us", false),
    ("ml.display.busy_us", "us", false),
    ("ml.double.busy_us", "us", false),
    // apps::modules (T)
    ("apps.video_streaming.self_us", "us", false),
    ("apps.pose_detection.self_us", "us", false),
    ("apps.activity_recognition.self_us", "us", false),
    ("apps.rep_counter.self_us", "us", false),
    ("apps.display.self_us", "us", false),
    ("apps.src.self_us", "us", false),
    ("apps.work.self_us", "us", false),
    ("apps.sink.self_us", "us", false),
    ("apps.send_us", "us", false),
    // core.flow (C, T)
    ("core.flow.offered", "count", true),
    ("core.flow.refused_ratio", "ratio", false),
    ("core.flow.generator_lag_ratio", "ratio", true),
    ("core.flow.tick_lag_us", "us", false),
    ("core.flow.admit_wait_us", "us", false),
    // core.service (T, C)
    ("core.service.call_us", "us", false),
    ("core.service.wait_us", "us", false),
    ("core.service.requests_per_frame", "count", false),
    ("core.service.max_queue_depth", "count", false),
    ("core.service.mean_batch", "count", true),
    ("core.service.failed", "count", false),
    // core.reactor (C, T)
    ("core.reactor.tasks_per_frame", "count", false),
    ("core.reactor.unparks_per_frame", "count", false),
    ("core.reactor.steals_per_frame", "count", false),
    ("core.reactor.timer_fires_per_frame", "count", false),
    ("core.reactor.queue_high_water", "count", false),
    ("core.reactor.edge_transit_inproc_us", "us", false),
    // net (M, T, C)
    ("net.inproc.hop_us", "us", false),
    ("net.tcp.edge_transit_us", "us", false),
    ("net.tcp.hop_us", "us", false),
    ("net.tcp.tx_frames_per_frame", "count", false),
    ("net.tcp.frames_per_write", "count", true),
    ("net.wire.rx_payload_copies", "count", false),
    ("net.wire.allocs_per_frame", "count", false),
    ("net.pool.miss_ratio", "ratio", false),
    // trace / env
    ("trace.budget_coverage", "ratio", true),
    ("trace.frames_reconstructed_ratio", "ratio", true),
    ("trace.traced_latency_p50_ms", "ms", false),
    ("trace.traced_latency_p99_ms", "ms", false),
    ("trace.traced_delivered_fps", "1/s", true),
    ("trace.traced_cpu_ms_per_frame", "ms", false),
    ("env.nproc", "count", true),
    ("env.steal_pct", "%", false),
    ("env.windows_discarded", "count", false),
];

/// The unit a declared metric is reported in.
///
/// # Panics
///
/// Panics on an undeclared name: reporting one is a bug in the benchmark.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name:?} is not declared in contract.rs"))
        .1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    const JSON: &str = include_str!("../../BENCHMARK.json");

    fn better(higher: bool) -> &'static str {
        if higher {
            "higher"
        } else {
            "lower"
        }
    }

    #[test]
    fn benchmark_json_declares_what_the_code_reports() {
        for (name, unit, higher, bound) in END_TO_END {
            let entry = format!(
                r#"{{"name": "{name}", "unit": "{unit}", "better": "{}", "bound": {bound}}}"#,
                better(higher)
            );
            assert!(JSON.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, higher) in PER_LAYER {
            let entry = format!(
                r#"{{"name": "{name}", "unit": "{unit}", "better": "{}"}}"#,
                better(higher)
            );
            assert!(JSON.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in &WORKLOADS {
            let entry = format!(r#"{{"name": "{}", "why": "{}"}}"#, w.name, w.why);
            assert!(JSON.contains(&entry), "BENCHMARK.json lacks {entry}");
            assert!(
                w.why.len() <= 200,
                "{} why is {} chars",
                w.name,
                w.why.len()
            );
        }
        // Nothing declared twice, nothing in the JSON that is not here.
        let declared = END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len();
        assert_eq!(JSON.matches(r#"{"name": ""#).count(), declared);
    }

    #[test]
    fn bounds_fit_the_contract() {
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.0 == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.3 <= setup.3));
        assert_eq!(unit_of("setup_s"), "s");
        assert_eq!(unit_of("net.tcp.hop_us"), "us");
    }
}
