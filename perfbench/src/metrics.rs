//! The metric catalogue: every metric the benchmark prints, with its
//! unit and the base of every ratio. `BENCHMARK.json` at the repository
//! root lists the same names; a test keeps the two in step.

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// What is measured and, for a ratio, what it is divided by.
    pub base: &'static str,
}

const fn spec(name: &'static str, unit: &'static str, base: &'static str) -> Spec {
    Spec { name, unit, base }
}

/// Printed by untraced runs (`--trace 0`), measured with no event sink
/// installed.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s", "victim keygen + device construction, median of the run's setups"),
    spec("wall_s", "s", "first capture -> final checked result, median over the run's jobs"),
    spec(
        "coef_per_s",
        "1/s",
        "targeted coefficients / attack-phase s (campaign16: summed evaluation s)",
    ),
    spec(
        "coef_p50_s",
        "s",
        "per-coefficient latency, median (campaign16: first capture -> convergence)",
    ),
    spec("coef_p80_s", "s", "per-coefficient latency, nearest-rank p80 over the same samples"),
    spec(
        "traces_to_key",
        "count",
        "captures requested until every target converged, median over jobs (campaign16; elsewhere the fixed capture size)",
    ),
    spec(
        "captures_per_s",
        "1/s",
        "captures requested / acquire-phase s (capture + screening + recompute), median over the jobs and capture probes",
    ),
    spec("peak_rss_mb", "MiB", "process memory high-water mark (VmHWM)"),
];

/// Printed by traced runs (`--trace 1`). Totals are per job; a layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[Spec] = &[
    spec("falcon.keygen_s", "s", "KeyPair::generate, median over setups"),
    spec("falcon.sign_us", "us", "forgery SigningKey::sign, median call"),
    spec("falcon.verify_us", "us", "forgery VerifyingKey::verify, median call"),
    spec("emsim.capture_us", "us", "device.capture_secs sum / device.captures"),
    spec("acquire.collect_s", "s", "acquire phase: Dataset::collect (campaign16: span.campaign.acquire)"),
    spec("acquire.recompute_us", "us", "(acquire phase - device capture time) / captures requested"),
    spec("screen.gates_s", "s", "span.screen.gates sum"),
    spec("screen.kept_frac", "ratio", "screen.kept / screen.requested"),
    spec("screen.realigned", "count", "screen.realigned counter"),
    spec("screen.winsorized", "count", "screen.winsorized_samples counter"),
    spec("io.write_s", "s", "io::atomic_write + io::write_dataset of the archive"),
    spec("io.write_mb_per_s", "MB/s", "archive bytes (1e6) / io.write_s"),
    spec("stream.fetch_s", "s", "ColumnSource::target_block calls inside recover_all_verified, summed"),
    spec("stream.bytes_read", "bytes", "stream.bytes_read counter"),
    spec("stream.ring_peak_bytes", "bytes", "stream.ring_peak_bytes gauge after the job"),
    spec("attack.recover_s", "s", "span.attack.coefficient sum / count (per recover_coefficient_block)"),
    spec("attack.confidence_s", "s", "(recover_all_verified - fetches - span.attack.coefficient sum) / span.attack.coefficient count"),
    spec("attack.mant_lo_s", "s", "span.attack.mant_lo sum"),
    spec("attack.mant_hi_s", "s", "span.attack.mant_hi sum"),
    spec("attack.sign_exp_s", "s", "span.attack.sign_exp sum"),
    spec("attack.mant_lo_per_coef", "calls/coef", "span.attack.mant_lo count / span.attack.coefficient count"),
    spec("attack.mant_hi_per_coef", "calls/coef", "span.attack.mant_hi count / span.attack.coefficient count"),
    spec("cpa.corr_per_s", "1/s", "attack.correlations / span.attack.coefficient sum (computed)"),
    spec("campaign.evals_per_coef", "calls/coef", "span.attack.coefficient count / targets (attempted / useful)"),
    spec("campaign.batches", "count", "campaign.batches counter"),
    spec("campaign.evaluate_s", "s", "span.campaign.evaluate sum"),
    spec("campaign.acquire_s", "s", "span.campaign.acquire sum"),
    spec("recover.invert_fft_s", "s", "span.recover.invert_fft sum"),
    spec("recover.ntru_solve_s", "s", "span.recover.ntru_solve sum"),
    spec("exec.parallel_eff", "ratio", "t(1 thread) / (threads x t(threads)) on one fixed coefficient"),
    spec("exec.fanout", "count", "exec.fanout counter"),
    spec("obs.trace_overhead_pct", "%", "traced wall_s / untraced wall_s - 1"),
    spec("trace.gap_pct", "%", "(untraced wall_s - summed layer-span self time) / untraced wall_s"),
];

/// A measured value of a catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// The definition.
    pub spec: Spec,
    /// The measured value.
    pub value: f64,
}

/// Looks `name` up in `catalogue` and pairs it with `value`.
///
/// # Panics
///
/// Panics on a name the catalogue does not define (a bug here).
pub fn metric(catalogue: &[Spec], name: &str, value: f64) -> Metric {
    let spec = *catalogue
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("uncatalogued metric {name}"));
    Metric { spec, value }
}
