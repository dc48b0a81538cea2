//! End-to-end and per-layer benchmark of the Falcon Down reproduction:
//! from captured traces to a verified forgery.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload <oneshot64|campaign16|archive512> --seed <n> --seconds <s>
//! --trace <0|1>` runs one workload and prints every metric of
//! [`metrics::END_TO_END`] (untraced) or [`metrics::PER_LAYER`]
//! (traced), then one JSON result line. See `perfbench/README.md`.

pub mod host;
pub mod metrics;
pub mod trace;
pub mod workload;

pub use workload::{run, Outcome, Scale, Workload, HELDOUT_SEED, REFERENCE_SEED};

/// Renders a string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value": …, "unit": …}` with the value at
/// full precision.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {:?}, \"unit\": {}}}",
                json_str(m.spec.name),
                if m.value.is_finite() { m.value } else { 0.0 },
                json_str(m.spec.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// The human-readable report printed before the result line: the
/// fingerprint, every metric with its unit and base, and (traced) the
/// per-span self-time table.
pub fn report_lines(o: &Outcome) -> Vec<String> {
    let fp: Vec<String> =
        o.fingerprint.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    let mut lines = vec![format!("# fingerprint {{{}}}", fp.join(", "))];
    for m in &o.metrics {
        lines.push(format!(
            "# metric {} = {} {}  [{}]",
            m.spec.name, m.value, m.spec.unit, m.spec.base
        ));
    }
    if !o.self_table.is_empty() {
        lines.push(format!("# {:<20} {:>6} {:>12} {:>12}", "span", "calls", "total_s", "self_s"));
        for (name, calls, total, own) in &o.self_table {
            lines.push(format!("# {name:<20} {calls:>6} {total:>12.6} {own:>12.6}"));
        }
    }
    lines.push(format!(
        "# operations: attempted {}, failed {}, fail_frac {}",
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64
    ));
    lines
}
