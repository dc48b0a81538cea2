//! The three workloads and the run that measures them.
//!
//! Every workload is a closed single job driven from this process: the
//! victim is set up, traces are captured, coefficients are recovered
//! and checked bit for bit against the victim's `f_fft()` truth, and
//! (where the whole key is recovered) a forged signature is checked by
//! `verify`. Layers are timed from outside, around calls into the
//! public functions of `falcon-sig`, `falcon-emsim` and `falcon-dema`,
//! and from deltas of the `falcon-obs` registry the program already
//! publishes.

use crate::host::{self, median, percentile};
use crate::metrics::{metric, Metric, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use falcon_bench::setup::PAPER_NOISE_SIGMA;
use falcon_dema::attack::{recover_all_verified, recover_coefficient_block, AttackConfig};
use falcon_dema::cpa::simd;
use falcon_dema::{exec, io, key_from_fft_bits, stream};
use falcon_dema::{
    Campaign, CampaignConfig, ColumnSource, Dataset, RingConfig, StreamedDataset, TargetBlock,
};
use falcon_emsim::{Device, FaultModel, LeakageModel, MeasurementChain, Scope};
use falcon_obs as obs;
use falcon_sig::rng::Prng;
use falcon_sig::{KeyPair, LogN, VerifyingKey};
use std::cell::RefCell;
use std::hint::black_box;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The seed every acceptance claim is first measured on.
pub const REFERENCE_SEED: u64 = 1;
/// The seed a claim is confirmed on after it was made on the reference.
pub const HELDOUT_SEED: u64 = 2;

/// A named workload. The names are the benchmark's public interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// FALCON-64, σ = 2, 700 resident traces of every coefficient, full
    /// recovery, key and verified forgery: the attack hot path.
    Oneshot64,
    /// FALCON-16 at the paper's σ on a faulty bench: an adaptive,
    /// screened campaign to convergence, then key and forgery. The
    /// campaign driver converges on wrong coefficients here, so this
    /// workload reports failures and `BENCHMARK.json` does not register
    /// it (see `README.md`).
    Campaign16,
    /// FALCON-512 at the paper's σ: capture every coefficient, write a
    /// v2 archive, stream a spread of targets back and recover them.
    Archive512,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] =
        [Workload::Oneshot64, Workload::Campaign16, Workload::Archive512];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Oneshot64 => "oneshot64",
            Workload::Campaign16 => "campaign16",
            Workload::Archive512 => "archive512",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn plan(self, scale: Scale) -> Plan {
        let full = scale == Scale::Full;
        match self {
            Workload::Oneshot64 => Plan {
                logn: if full { 6 } else { 3 },
                sigma: 2.0,
                faults: FaultModel::default(),
                traces: if full { 700 } else { 300 },
                batch: 0,
                streamed: Vec::new(),
                setup_reps: 100,
                capture_probes: 16,
                nominal_job_s: if full { 36.0 } else { 1.0 },
            },
            Workload::Campaign16 => Plan {
                logn: if full { 4 } else { 3 },
                sigma: if full { PAPER_NOISE_SIGMA } else { 2.0 },
                faults: FaultModel::noisy_bench(),
                traces: if full { 4000 } else { 2000 },
                batch: if full { 200 } else { 100 },
                streamed: Vec::new(),
                setup_reps: 50,
                capture_probes: 0,
                nominal_job_s: if full { 15.0 } else { 1.0 },
            },
            Workload::Archive512 => Plan {
                logn: if full { 9 } else { 3 },
                sigma: if full { PAPER_NOISE_SIGMA } else { 2.0 },
                faults: FaultModel::default(),
                traces: if full { 6000 } else { 400 },
                batch: 0,
                streamed: if full { vec![0, 1, 128, 256, 384, 511] } else { vec![0, 6] },
                setup_reps: 15,
                capture_probes: 0,
                nominal_job_s: if full { 30.0 } else { 1.0 },
            },
        }
    }
}

/// Input size: the measured workloads, or a FALCON-8 smoke version of
/// each for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// FALCON-8, a few hundred traces.
    Smoke,
}

/// Sizes of one workload at one scale.
#[derive(Debug, Clone)]
struct Plan {
    logn: u32,
    sigma: f64,
    /// Acquisition faults injected by the device.
    faults: FaultModel,
    /// Captures per job, or the campaign's capture budget.
    traces: usize,
    /// Campaign batch size.
    batch: usize,
    /// Targets recovered from the streamed archive (`archive512`).
    streamed: Vec<usize>,
    /// Victim setups per run, each on its own key, half before the jobs
    /// and half after them (the median is reported).
    setup_reps: usize,
    /// Extra timed acquisitions of `traces` captures on a spare victim,
    /// this many before the jobs and as many after them, for a workload
    /// whose own acquisition is too short to time alone.
    capture_probes: usize,
    /// Typical job length, which sets the jobs per `--seconds`.
    nominal_job_s: f64,
}

/// A victim: its device on the bench, public key and ground truth.
struct Victim {
    device: Device,
    vk: VerifyingKey,
    truth: Vec<u64>,
}

fn build_victim(plan: &Plan, seed: &str, tr: &mut Tracer) -> Victim {
    tr.span("setup", |tr| {
        let logn = LogN::new(plan.logn).expect("workload degree is valid");
        let mut rng = Prng::from_seed(format!("{seed}/key").as_bytes());
        let kp = tr.span("falcon.keygen", |_| KeyPair::generate(logn, &mut rng));
        let vk = kp.verifying_key().clone();
        let truth = kp.signing_key().f_fft().iter().map(|x| x.to_bits()).collect();
        let chain = MeasurementChain {
            model: LeakageModel::hamming_weight(1.0, plan.sigma),
            lowpass: 0.0,
            scope: Scope::default(),
            faults: plan.faults,
        };
        let device = tr.span("emsim.device", |_| {
            Device::new(kp.into_parts().0, chain, format!("{seed}/device").as_bytes())
        });
        Victim { device, vk, truth }
    })
}

/// What one job measured and checked.
struct JobOut {
    wall_s: f64,
    attack_s: f64,
    acquire_s: f64,
    fetch_s: f64,
    /// Captures requested: the fixed size, or a campaign's total until
    /// every target converged (`traces_to_key`).
    captures: usize,
    coefs: usize,
    latencies: Vec<f64>,
    attempted: u64,
    failed: u64,
    archive_bytes: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Key recovery from the bits, then a forged signature checked by the
/// victim's `verify`.
fn forge(bits: &[u64], v: &Victim, rng: &mut Prng, tr: &mut Tracer) -> bool {
    let Some(key) = tr.span("recover.key", |_| key_from_fft_bits(bits, &v.vk)) else {
        return false;
    };
    let msg = b"perfbench: a message the victim never signed";
    let sig = tr.span("falcon.sign", |_| key.sk.sign(msg, rng));
    tr.span("falcon.verify", |_| v.vk.verify(msg, &sig))
}

/// A `ColumnSource` view over `targets` of `inner` that timestamps every
/// `target_block` call. `recover_all_verified` fetches each target's
/// block, recovers it and scores it before the next fetch, so a
/// coefficient's latency is the time from its fetch to the next one.
struct FetchClock<'a, S: ?Sized> {
    inner: &'a S,
    targets: Vec<usize>,
    /// `(target, fetch start, fetch seconds)` per call.
    fetches: RefCell<Vec<(usize, Instant, f64)>>,
}

impl<'a, S: ColumnSource + ?Sized> FetchClock<'a, S> {
    fn new(inner: &'a S, targets: Vec<usize>) -> Self {
        FetchClock { inner, targets, fetches: RefCell::new(Vec::new()) }
    }

    /// Seconds per target in first-fetch order, a retried target's
    /// intervals summed; the last interval ends at `end`.
    fn latencies(&self, end: Instant) -> Vec<f64> {
        let fetches = self.fetches.borrow();
        let mut per_target: Vec<(usize, f64)> = Vec::new();
        for (i, &(t, at, _)) in fetches.iter().enumerate() {
            let until = fetches.get(i + 1).map_or(end, |f| f.1);
            let secs = until.duration_since(at).as_secs_f64();
            match per_target.iter_mut().find(|(pt, _)| *pt == t) {
                Some(e) => e.1 += secs,
                None => per_target.push((t, secs)),
            }
        }
        per_target.into_iter().map(|(_, s)| s).collect()
    }

    /// Seconds spent inside the inner source's `target_block`.
    fn fetch_s(&self) -> f64 {
        host::total(self.fetches.borrow().iter().map(|f| f.2))
    }
}

impl<S: ColumnSource + ?Sized> ColumnSource for FetchClock<'_, S> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn targets(&self) -> &[usize] {
        &self.targets
    }

    fn traces(&self) -> usize {
        self.inner.traces()
    }

    fn target_block(&self, target: usize) -> falcon_dema::Result<TargetBlock<'_>> {
        let at = host::now();
        let block = self.inner.target_block(target);
        self.fetches.borrow_mut().push((target, at, host::secs_since(at)));
        block
    }
}

/// Recovers every target of `clock` with the program's whole-key
/// recovery (confidence-guided retry included); returns the bits, the
/// attack seconds and when the attack ended.
fn recover_all<S: ColumnSource + ?Sized>(
    clock: &FetchClock<'_, S>,
    tr: &mut Tracer,
) -> (Vec<u64>, f64, Instant) {
    let t0 = host::now();
    let results =
        tr.span("attack.recover_all", |_| recover_all_verified(clock, &AttackConfig::default()));
    let end = host::now();
    (results.iter().map(|(r, _)| r.bits).collect(), end.duration_since(t0).as_secs_f64(), end)
}

fn count_wrong(targets: &[usize], bits: &[u64], truth: &[u64]) -> u64 {
    targets.iter().zip(bits).filter(|&(&t, &b)| b != truth[t]).count() as u64
}

fn oneshot(plan: &Plan, v: &mut Victim, seed: &str, tr: &mut Tracer) -> JobOut {
    let targets: Vec<usize> = (0..v.truth.len()).collect();
    let mut msgs = Prng::from_seed(format!("{seed}/msgs").as_bytes());
    let t0 = host::now();
    let ds = tr.span("acquire.collect", |_| {
        Dataset::collect(&mut v.device, &targets, plan.traces, &mut msgs)
    });
    let acquire_s = host::secs_since(t0);
    let clock = FetchClock::new(&ds, targets.clone());
    let (bits, attack_s, attack_end) = recover_all(&clock, tr);
    let forged = forge(&bits, v, &mut msgs, tr);
    JobOut {
        wall_s: host::secs_since(t0),
        attack_s,
        acquire_s,
        fetch_s: clock.fetch_s(),
        captures: plan.traces,
        coefs: targets.len(),
        latencies: clock.latencies(attack_end),
        attempted: targets.len() as u64 + 1,
        failed: count_wrong(&targets, &bits, &v.truth) + u64::from(!forged),
        archive_bytes: 0,
    }
}

fn campaign(plan: &Plan, v: &mut Victim, seed: &str, tr: &mut Tracer) -> JobOut {
    let n = v.truth.len();
    let mut msgs = Prng::from_seed(format!("{seed}/msgs").as_bytes());
    let cfg =
        CampaignConfig { batch_size: plan.batch, max_traces: plan.traces, ..Default::default() };
    let mut camp = Campaign::new(n, cfg).expect("workload campaign config is valid");
    let before = obs::metrics().snapshot();
    let t0 = host::now();
    let mut converged_at: Vec<Option<f64>> = vec![None; n];
    while tr.span("campaign.step", |_| camp.step(&mut v.device, &mut msgs)).expect("campaign batch")
    {
        let now = host::secs_since(t0);
        for s in camp.report().statuses.iter().filter(|s| s.is_recovered()) {
            converged_at[s.target()].get_or_insert(now);
        }
    }
    let report = camp.report();
    let wrong = report
        .statuses
        .iter()
        .filter(|s| !s.is_recovered() || s.bits() != v.truth[s.target()])
        .count();
    let forged = report.recovered_bits().is_some_and(|bits| forge(&bits, v, &mut msgs, tr));
    let wall_s = host::secs_since(t0);
    let after = obs::metrics().snapshot();
    JobOut {
        wall_s,
        attack_s: after.histogram_sum_delta(&before, "span.campaign.evaluate"),
        acquire_s: after.histogram_sum_delta(&before, "span.campaign.acquire"),
        fetch_s: 0.0,
        captures: report.traces_requested,
        coefs: n,
        latencies: converged_at.into_iter().flatten().collect(),
        attempted: n as u64 + 1,
        failed: wrong as u64 + u64::from(!forged),
        archive_bytes: 0,
    }
}

fn archive(plan: &Plan, v: &mut Victim, seed: &str, out_dir: &Path, tr: &mut Tracer) -> JobOut {
    let all: Vec<usize> = (0..v.truth.len()).collect();
    let mut msgs = Prng::from_seed(format!("{seed}/msgs").as_bytes());
    let path = out_dir.join(format!("archive512-{}.fdnd", std::process::id()));
    let t0 = host::now();
    let ds = tr
        .span("acquire.collect", |_| Dataset::collect(&mut v.device, &all, plan.traces, &mut msgs));
    let acquire_s = host::secs_since(t0);
    tr.span("io.write", |_| io::atomic_write(&path, |w| io::write_dataset(&ds, w)))
        .expect("archive is writable");
    drop(ds);
    let archive_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    stream::reset_ring_peak();
    let src =
        StreamedDataset::open(&path, RingConfig::default()).expect("archive just written reopens");
    let clock = FetchClock::new(&src, plan.streamed.clone());
    let (bits, attack_s, attack_end) = recover_all(&clock, tr);
    let wall_s = host::secs_since(t0);
    let _ = std::fs::remove_file(&path);
    JobOut {
        wall_s,
        attack_s,
        acquire_s,
        fetch_s: clock.fetch_s(),
        captures: plan.traces,
        coefs: plan.streamed.len(),
        latencies: clock.latencies(attack_end),
        attempted: plan.streamed.len() as u64,
        failed: count_wrong(&plan.streamed, &bits, &v.truth),
        archive_bytes,
    }
}

fn run_job(
    w: Workload,
    plan: &Plan,
    v: &mut Victim,
    seed: &str,
    out_dir: &Path,
    tr: &mut Tracer,
) -> JobOut {
    tr.span("job", |tr| match w {
        Workload::Oneshot64 => oneshot(plan, v, seed, tr),
        Workload::Campaign16 => campaign(plan, v, seed, tr),
        Workload::Archive512 => archive(plan, v, seed, out_dir, tr),
    })
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// True when every attempted operation succeeded.
    pub correct: bool,
    /// Operations attempted: one per targeted coefficient, plus the
    /// forgery where the workload forges.
    pub attempted: u64,
    /// Attempted operations that failed: a coefficient not bit-exact
    /// against the victim's truth, or a forgery `verify` rejects.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Host and run fingerprint, `(key, value)`.
    pub fingerprint: Vec<(&'static str, String)>,
    /// FNV-1a digest of the generated inputs (keys and message seeds).
    pub inputs_digest: u64,
    /// Traced runs: per-span-name `(name, calls, total s, self s)`.
    pub self_table: Vec<(&'static str, usize, f64, f64)>,
    /// Traced runs: every recorded event, one JSON object per line.
    pub trace_lines: Vec<String>,
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Runs `w` for about `seconds` (whole jobs, at least one) from `seed`.
/// With `traced`, the jobs are first run untraced (the reference for
/// the tracing overhead) and then again, identically, under a
/// [`Tracer`] and an installed `MemorySink`. Scratch files go under
/// `out_dir`.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    scale: Scale,
    out_dir: &Path,
) -> Outcome {
    let threads = host::nproc();
    exec::set_threads(threads);
    let plan = w.plan(scale);
    let jobs = ((seconds as f64 / plan.nominal_job_s).round() as usize).max(1);
    let job_seed = |j: usize| format!("perfbench/{}/{seed}/{j}", w.name());

    let timed_setup = |j: usize| {
        let t0 = host::now();
        let v = build_victim(&plan, &job_seed(j), &mut Tracer::off());
        (v, host::secs_since(t0))
    };
    let mut setup_s = Vec::new();
    let mut victims = Vec::new();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for j in 0..jobs {
        let (v, secs) = timed_setup(j);
        setup_s.push(secs);
        digest = fnv1a(digest, job_seed(j).as_bytes());
        for b in &v.truth {
            digest = fnv1a(digest, &b.to_le_bytes());
        }
        victims.push(v);
    }
    // A traced run measures parallel efficiency first: the pass also
    // warms the attack path, so the untraced reference below and the
    // traced pass both start warm and differ only by the tracing.
    let eff = traced.then(|| parallel_eff(&plan, &job_seed(0), threads));
    // Half the timed setups run before the jobs and half after them,
    // interleaved with the capture probes, so both medians span seconds
    // on each side of the jobs rather than one moment of a shared host.
    let probes = if traced { 0 } else { plan.capture_probes };
    let before = jobs..plan.setup_reps.div_ceil(2).max(jobs);
    let after = before.end..before.end + plan.setup_reps / 2;
    let spare = |setups, side: &str| {
        let probe_seed = format!("{}/{side}", job_seed(jobs));
        setups_and_probes(&plan, setups, probes, &probe_seed, |j| timed_setup(j).1)
    };
    let (spare_s, mut probe_rates) = spare(before, "before");
    setup_s.extend(spare_s);
    let outs: Vec<JobOut> = victims
        .iter_mut()
        .enumerate()
        .map(|(j, v)| run_job(w, &plan, v, &job_seed(j), out_dir, &mut Tracer::off()))
        .collect();
    let mut attempted: u64 = outs.iter().map(|o| o.attempted).sum();
    let mut failed: u64 = outs.iter().map(|o| o.failed).sum();
    let walls: Vec<f64> = outs.iter().map(|o| o.wall_s).collect();
    let (spare_s, rates) = spare(after, "after");
    setup_s.extend(spare_s);
    probe_rates.extend(rates);

    let (metrics, self_table, trace_lines) = if let Some(eff) = eff {
        let sink = Arc::new(obs::MemorySink::default());
        obs::set_sink(sink.clone());
        let mut tr = Tracer::on(seed);
        let traced_outs: Vec<JobOut> = (0..jobs)
            .map(|j| {
                let mut v = build_victim(&plan, &job_seed(j), &mut tr);
                run_job(w, &plan, &mut v, &job_seed(j), out_dir, &mut tr)
            })
            .collect();
        obs::clear_sink();
        attempted += traced_outs.iter().map(|o| o.attempted).sum::<u64>();
        failed += traced_outs.iter().map(|o| o.failed).sum::<u64>();
        let m = per_layer(&tr, &traced_outs, &walls, eff);
        (m, tr.self_table(), sink.lines())
    } else {
        (end_to_end(&outs, &setup_s, &probe_rates), Vec::new(), Vec::new())
    };

    let fingerprint = vec![
        ("workload", w.name().to_string()),
        ("seed", seed.to_string()),
        ("nproc", threads.to_string()),
        ("cpu", host::cpu_model()),
        ("cpa.kernel", simd::active_kernel().name().to_string()),
        ("exec.threads", exec::threads().to_string()),
        ("commit", host::git_commit(Path::new("."))),
        ("jobs", jobs.to_string()),
        ("falcon_n", (1usize << plan.logn).to_string()),
        ("sigma", plan.sigma.to_string()),
        ("traces", plan.traces.to_string()),
    ];
    Outcome {
        correct: attempted > 0 && failed == 0,
        attempted,
        failed,
        metrics,
        fingerprint,
        inputs_digest: digest,
        self_table,
        trace_lines,
    }
}

/// Times the victim setups `setups` (each on its own key) interleaved
/// with `probes` capture probes: acquisitions the size of a job's, on a
/// spare victim so the jobs' inputs do not depend on them. Returns the
/// setup seconds and the probes' captures per second.
fn setups_and_probes(
    plan: &Plan,
    mut setups: Range<usize>,
    probes: usize,
    probe_seed: &str,
    mut timed_setup: impl FnMut(usize) -> f64,
) -> (Vec<f64>, Vec<f64>) {
    let per_probe = setups.len().div_ceil(probes.max(1));
    let mut setup_s = Vec::new();
    let mut rates = Vec::new();
    if probes > 0 {
        let mut v = build_victim(plan, probe_seed, &mut Tracer::off());
        let all: Vec<usize> = (0..v.truth.len()).collect();
        let mut msgs = Prng::from_seed(format!("{probe_seed}/probe").as_bytes());
        for _ in 0..probes {
            setup_s.extend(setups.by_ref().take(per_probe).map(&mut timed_setup));
            let t0 = host::now();
            black_box(Dataset::collect(&mut v.device, &all, plan.traces, &mut msgs));
            rates.push(plan.traces as f64 / host::secs_since(t0));
        }
    }
    setup_s.extend(setups.map(timed_setup));
    (setup_s, rates)
}

fn end_to_end(outs: &[JobOut], setup_s: &[f64], probe_rates: &[f64]) -> Vec<Metric> {
    let sum = |f: fn(&JobOut) -> f64| host::total(outs.iter().map(f));
    let latencies: Vec<f64> = outs.iter().flat_map(|o| o.latencies.iter().copied()).collect();
    let walls: Vec<f64> = outs.iter().map(|o| o.wall_s).collect();
    let captures: Vec<f64> = outs.iter().map(|o| o.captures as f64).collect();
    let rates: Vec<f64> = outs
        .iter()
        .map(|o| ratio(o.captures as f64, o.acquire_s))
        .chain(probe_rates.iter().copied())
        .collect();
    let m = |name, value| metric(END_TO_END, name, value);
    vec![
        m("setup_s", median(setup_s)),
        m("wall_s", median(&walls)),
        m("coef_per_s", ratio(sum(|o| o.coefs as f64), sum(|o| o.attack_s))),
        m("coef_p50_s", percentile(&latencies, 0.5)),
        m("coef_p80_s", percentile(&latencies, 0.8)),
        m("traces_to_key", median(&captures)),
        m("captures_per_s", median(&rates)),
        m("peak_rss_mb", host::peak_rss_mb()),
    ]
}

/// Parallel efficiency of one fixed coefficient: recovered at one
/// executor thread, then at `threads`.
fn parallel_eff(plan: &Plan, seed: &str, threads: usize) -> f64 {
    let clean = Plan { faults: FaultModel::default(), ..plan.clone() };
    let mut v = build_victim(&clean, &format!("{seed}/parallel"), &mut Tracer::off());
    let mut msgs = Prng::from_seed(format!("{seed}/parallel/msgs").as_bytes());
    let ds = Dataset::collect(&mut v.device, &[0], plan.traces.min(700), &mut msgs);
    let block = ds.target_block(0).expect("target 0 was captured");
    let cfg = AttackConfig::default();
    let time_at = |t: usize| {
        exec::set_threads(t);
        let t0 = host::now();
        black_box(recover_coefficient_block(&block, &cfg));
        host::secs_since(t0)
    };
    // Alternate the two widths so drift on a shared host hits both.
    let (mut t1, mut tn) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        tn.push(time_at(threads));
        t1.push(time_at(1));
    }
    exec::set_threads(threads);
    ratio(median(&t1), threads as f64 * median(&tn))
}

fn per_layer(tr: &Tracer, outs: &[JobOut], untraced_walls: &[f64], eff: f64) -> Vec<Metric> {
    let jobs = outs.len() as f64;
    let d = tr.delta_of("job");
    let span_total = |name: &str| host::total(tr.durations(name));
    let coef_calls = d.count("span.attack.coefficient") as f64;
    let d_coef_s = d.hist_sum("span.attack.coefficient");
    let captures = host::total(outs.iter().map(|o| o.captures as f64));
    let acquire_s = host::total(outs.iter().map(|o| o.acquire_s));
    let capture_secs = d.hist_sum("device.capture_secs");
    let coefs = host::total(outs.iter().map(|o| o.coefs as f64));
    let bytes = host::total(outs.iter().map(|o| o.archive_bytes as f64));
    let traced_walls: Vec<f64> = outs.iter().map(|o| o.wall_s).collect();
    // Blocking path: every layer span of a job runs on this thread, one
    // after another, so their self times tile the job minus its glue.
    let job_ids: Vec<usize> =
        tr.spans().iter().enumerate().filter(|(_, s)| s.name == "job").map(|(i, _)| i).collect();
    let layer_self = host::total(job_ids.iter().map(|&i| tr.spans()[i].secs() - tr.self_s(i)));
    let untraced_total = host::total(untraced_walls.iter().copied());
    let fetch_s = host::total(outs.iter().map(|o| o.fetch_s));
    // Inside `recover_all_verified` each block is fetched, recovered and
    // then scored; the scoring is what the fetches and the
    // per-coefficient attack spans leave uncovered.
    let recover_all_s = span_total("attack.recover_all");
    let confidence_s = if recover_all_s > 0.0 {
        ratio(recover_all_s - d_coef_s - fetch_s, coef_calls)
    } else {
        0.0
    };
    let m = |name, value| metric(PER_LAYER, name, value);
    let per_job = |v: f64| v / jobs;
    vec![
        m("falcon.keygen_s", median(&tr.durations("falcon.keygen"))),
        m("falcon.sign_us", 1e6 * median(&tr.durations("falcon.sign"))),
        m("falcon.verify_us", 1e6 * median(&tr.durations("falcon.verify"))),
        m("emsim.capture_us", 1e6 * ratio(capture_secs, d.counter("device.captures") as f64)),
        m("acquire.collect_s", per_job(acquire_s)),
        m("acquire.recompute_us", 1e6 * ratio(acquire_s - capture_secs, captures)),
        m("screen.gates_s", per_job(d.hist_sum("span.screen.gates"))),
        m(
            "screen.kept_frac",
            ratio(d.counter("screen.kept") as f64, d.counter("screen.requested") as f64),
        ),
        m("screen.realigned", per_job(d.counter("screen.realigned") as f64)),
        m("screen.winsorized", per_job(d.counter("screen.winsorized_samples") as f64)),
        m("io.write_s", per_job(span_total("io.write"))),
        m("io.write_mb_per_s", ratio(bytes / 1e6, span_total("io.write"))),
        m("stream.fetch_s", per_job(fetch_s)),
        m("stream.bytes_read", per_job(d.counter("stream.bytes_read") as f64)),
        m("stream.ring_peak_bytes", obs::gauge("stream.ring_peak_bytes").get()),
        m("attack.recover_s", ratio(d.hist_sum("span.attack.coefficient"), coef_calls)),
        m("attack.confidence_s", confidence_s),
        m("attack.mant_lo_s", per_job(d.hist_sum("span.attack.mant_lo"))),
        m("attack.mant_hi_s", per_job(d.hist_sum("span.attack.mant_hi"))),
        m("attack.sign_exp_s", per_job(d.hist_sum("span.attack.sign_exp"))),
        m("attack.mant_lo_per_coef", ratio(d.count("span.attack.mant_lo") as f64, coef_calls)),
        m("attack.mant_hi_per_coef", ratio(d.count("span.attack.mant_hi") as f64, coef_calls)),
        m(
            "cpa.corr_per_s",
            ratio(d.counter("attack.correlations") as f64, d.hist_sum("span.attack.coefficient")),
        ),
        m("campaign.evals_per_coef", ratio(coef_calls, coefs)),
        m("campaign.batches", per_job(d.counter("campaign.batches") as f64)),
        m("campaign.evaluate_s", per_job(d.hist_sum("span.campaign.evaluate"))),
        m("campaign.acquire_s", per_job(d.hist_sum("span.campaign.acquire"))),
        m("recover.invert_fft_s", per_job(d.hist_sum("span.recover.invert_fft"))),
        m("recover.ntru_solve_s", per_job(d.hist_sum("span.recover.ntru_solve"))),
        m("exec.parallel_eff", eff),
        m("exec.fanout", per_job(d.counter("exec.fanout") as f64)),
        m(
            "obs.trace_overhead_pct",
            100.0 * (ratio(median(&traced_walls), median(untraced_walls)) - 1.0),
        ),
        m("trace.gap_pct", 100.0 * ratio(untraced_total - layer_self, untraced_total)),
    ]
}
