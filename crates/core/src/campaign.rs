//! Adaptive acquisition campaigns with convergence tracking and
//! checkpoint/resume.
//!
//! The fixed-trace-count experiments elsewhere in this crate answer "how
//! many traces does the attack need"; a real adversary runs the question
//! in reverse: acquire in batches, watch each coefficient's winning
//! guess, and stop spending traces on a coefficient the moment its
//! winner clears the 99.99 % confidence threshold (see
//! [`crate::confidence`]) and stays put. A [`Campaign`] drives exactly
//! that loop on top of the fault-tolerant
//! [`Dataset::collect_screened`](crate::screen) acquisition, hands back
//! a typed [`CampaignReport`] (partial results included when the trace
//! budget runs out), and can checkpoint its complete state — device
//! stream positions, accumulated data, convergence trackers — to disk
//! so a killed campaign resumes bit-for-bit where it stopped.

use crate::acquire::Dataset;
use crate::attack::{coefficient_confidence_block, recover_coefficient_block, AttackConfig};
use crate::confidence;
use crate::error::{Error, Result};
use crate::io;
use crate::obs;
use crate::screen::{AcquisitionStats, ScreenConfig};
use crate::source::ColumnSource;
use falcon_emsim::Device;
use falcon_sig::rng::Prng;
use std::io::{Read, Write};
use std::path::Path;

const CKPT_MAGIC: &[u8; 7] = b"FDNCKPT";
const CKPT_VERSION: u8 = 1;

/// Campaign policy: batching, budget, convergence rule, screening.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Targeted flat `FFT(f)` indices; empty means every index `0..n`.
    pub targets: Vec<usize>,
    /// Captures requested from the device per batch.
    pub batch_size: usize,
    /// Total capture budget (requested captures, not kept traces).
    pub max_traces: usize,
    /// A winner converges when its confidence exceeds `margin` times the
    /// 99.99 % threshold for the accumulated trace count.
    pub margin: f64,
    /// Consecutive batch evaluations the winner must clear the margin
    /// with unchanged bits before the coefficient is declared recovered.
    pub stable_batches: usize,
    /// Extend-and-prune parameters for the per-batch re-attack.
    pub attack: AttackConfig,
    /// Trace screening; `None` keeps every full-length capture
    /// unscreened (the robustness baseline).
    pub screen: Option<ScreenConfig>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            targets: Vec::new(),
            batch_size: 100,
            max_traces: 5000,
            margin: 1.2,
            stable_batches: 2,
            attack: AttackConfig::default(),
            screen: Some(ScreenConfig::default()),
        }
    }
}

/// Final state of one targeted coefficient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoefficientStatus {
    /// The winner cleared the confidence margin with stable bits.
    Recovered {
        /// Targeted flat index.
        target: usize,
        /// Recovered 64-bit coefficient of `FFT(f)`.
        bits: u64,
        /// Exact-model confidence of the winner at convergence.
        confidence: f64,
        /// Kept traces accumulated when the coefficient converged.
        traces: usize,
    },
    /// The budget ran out first; the current best guess is reported.
    Unconverged {
        /// Targeted flat index.
        target: usize,
        /// Best guess so far (`0` when never evaluated).
        best_bits: u64,
        /// Its latest exact-model confidence.
        confidence: f64,
        /// Kept traces accumulated for this coefficient.
        traces: usize,
    },
}

impl CoefficientStatus {
    /// The targeted index.
    pub fn target(&self) -> usize {
        match *self {
            CoefficientStatus::Recovered { target, .. }
            | CoefficientStatus::Unconverged { target, .. } => target,
        }
    }

    /// The (best) recovered bits.
    pub fn bits(&self) -> u64 {
        match *self {
            CoefficientStatus::Recovered { bits, .. } => bits,
            CoefficientStatus::Unconverged { best_bits, .. } => best_bits,
        }
    }

    /// Whether the coefficient converged.
    pub fn is_recovered(&self) -> bool {
        matches!(self, CoefficientStatus::Recovered { .. })
    }
}

/// The (possibly partial) outcome of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Ring degree.
    pub n: usize,
    /// Per-coefficient outcomes, in target order.
    pub statuses: Vec<CoefficientStatus>,
    /// Captures requested from the device over the whole campaign.
    pub traces_requested: usize,
    /// Acquisition accounting across every batch.
    pub stats: AcquisitionStats,
}

impl CampaignReport {
    /// True when every targeted coefficient converged.
    pub fn is_complete(&self) -> bool {
        self.statuses.iter().all(CoefficientStatus::is_recovered)
    }

    /// Number of recovered coefficients.
    pub fn recovered_count(&self) -> usize {
        self.statuses.iter().filter(|s| s.is_recovered()).count()
    }

    /// The full `FFT(f)` bit vector when the campaign targeted all of
    /// `0..n` and every coefficient converged — the input to
    /// [`crate::recover::key_from_fft_bits`]. `None` otherwise.
    pub fn recovered_bits(&self) -> Option<Vec<u64>> {
        if !self.is_complete() || self.statuses.len() != self.n {
            return None;
        }
        let mut bits = vec![0u64; self.n];
        for s in &self.statuses {
            if s.target() >= self.n {
                return None;
            }
            bits[s.target()] = s.bits();
        }
        Some(bits)
    }
}

/// Convergence tracking for one coefficient.
#[derive(Debug, Clone)]
struct TargetState {
    target: usize,
    /// Accumulated single-target dataset.
    data: Dataset,
    /// Winner of the previous evaluation.
    last_bits: Option<u64>,
    /// Latest exact-model confidence of the winner.
    confidence: f64,
    /// Consecutive evaluations the winner cleared the margin unchanged.
    stable: usize,
    /// Set once the coefficient converges: (bits, confidence, traces).
    resolved: Option<(u64, f64, usize)>,
}

/// An adaptive, checkpointable acquisition-and-attack campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    cfg: CampaignConfig,
    n: usize,
    states: Vec<TargetState>,
    traces_requested: usize,
    stats: AcquisitionStats,
}

impl Campaign {
    /// Prepares a campaign against a device of ring degree `n`.
    ///
    /// # Errors
    ///
    /// Returns a typed error when the config is degenerate (zero batch
    /// size, no budget) or a target is out of range.
    pub fn new(n: usize, cfg: CampaignConfig) -> Result<Campaign> {
        if cfg.batch_size == 0 || cfg.max_traces == 0 {
            return Err(Error::Acquisition(
                "campaign needs a nonzero batch size and trace budget".into(),
            ));
        }
        let targets: Vec<usize> =
            if cfg.targets.is_empty() { (0..n).collect() } else { cfg.targets.clone() };
        let states = targets
            .iter()
            .map(|&t| {
                Ok(TargetState {
                    target: t,
                    data: Dataset::empty(n, &[t])?,
                    last_bits: None,
                    confidence: 0.0,
                    stable: 0,
                    resolved: None,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Campaign { cfg, n, states, traces_requested: 0, stats: AcquisitionStats::default() })
    }

    /// Captures requested so far.
    pub fn traces_requested(&self) -> usize {
        self.traces_requested
    }

    /// True when every coefficient converged or the budget is spent.
    pub fn is_done(&self) -> bool {
        self.traces_requested >= self.cfg.max_traces || self.pending().is_empty()
    }

    fn pending(&self) -> Vec<usize> {
        self.states.iter().filter(|s| s.resolved.is_none()).map(|s| s.target).collect()
    }

    /// Runs one batch: acquires traces for the still-unconverged
    /// coefficients only (top-up), re-attacks each and updates its
    /// convergence tracker. Returns `false` without touching the device
    /// when the campaign is already done.
    ///
    /// # Errors
    ///
    /// Propagates acquisition/bookkeeping errors; the campaign is left
    /// in its pre-batch state in that case only if the error occurred
    /// during acquisition (evaluation reads each target's own resident
    /// columns, which cannot fail).
    pub fn step(&mut self, device: &mut Device, msg_rng: &mut Prng) -> Result<bool> {
        if self.is_done() {
            return Ok(false);
        }
        let _batch_span = obs::span("campaign.batch");
        let pending = self.pending();
        let batch = self.cfg.batch_size.min(self.cfg.max_traces - self.traces_requested);
        let (ds, stats) = {
            let _acquire_span = obs::span("campaign.acquire");
            Dataset::collect_screened(device, &pending, batch, msg_rng, self.cfg.screen.as_ref())?
        };
        self.traces_requested += batch;
        self.stats.merge(&stats);
        {
            let _eval_span = obs::span("campaign.evaluate");
            for state in self.states.iter_mut().filter(|s| s.resolved.is_none()) {
                let sub = ds.select_targets(&[state.target])?;
                state.data.append(&sub)?;
                evaluate(state, &self.cfg)?;
            }
        }
        obs::metrics().counter("campaign.batches").incr();
        Ok(true)
    }

    /// Drives [`Campaign::step`] until done and returns the report.
    ///
    /// # Errors
    ///
    /// Propagates the first batch error.
    pub fn run(&mut self, device: &mut Device, msg_rng: &mut Prng) -> Result<CampaignReport> {
        while self.step(device, msg_rng)? {}
        Ok(self.report())
    }

    /// The campaign's current (possibly partial) outcome.
    pub fn report(&self) -> CampaignReport {
        let statuses = self
            .states
            .iter()
            .map(|s| match s.resolved {
                Some((bits, confidence, traces)) => {
                    CoefficientStatus::Recovered { target: s.target, bits, confidence, traces }
                }
                None => CoefficientStatus::Unconverged {
                    target: s.target,
                    best_bits: s.last_bits.unwrap_or(0),
                    confidence: s.confidence,
                    traces: s.data.traces(),
                },
            })
            .collect();
        CampaignReport {
            n: self.n,
            statuses,
            traces_requested: self.traces_requested,
            stats: self.stats,
        }
    }

    /// Serialises the campaign state — progress counters, per-target
    /// accumulated data and convergence trackers, plus the evolving
    /// device and message-generator streams — in the versioned
    /// checkpoint format. The static configuration (key, chain,
    /// [`CampaignConfig`]) is *not* stored: resuming reconstructs those
    /// and restores this state on top.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_checkpoint<W: Write>(
        &self,
        device: &Device,
        msg_rng: &Prng,
        mut w: W,
    ) -> Result<()> {
        w.write_all(CKPT_MAGIC)?;
        w.write_all(&[CKPT_VERSION])?;
        w.write_all(&(self.n as u64).to_le_bytes())?;
        w.write_all(&(self.traces_requested as u64).to_le_bytes())?;
        for v in stats_fields(&self.stats) {
            w.write_all(&(v as u64).to_le_bytes())?;
        }
        let dev_state = device.export_state();
        w.write_all(&(dev_state.len() as u64).to_le_bytes())?;
        w.write_all(&dev_state)?;
        let rng_state = msg_rng.export_state();
        w.write_all(&(rng_state.len() as u64).to_le_bytes())?;
        w.write_all(&rng_state)?;
        w.write_all(&(self.states.len() as u64).to_le_bytes())?;
        for s in &self.states {
            w.write_all(&(s.target as u64).to_le_bytes())?;
            match s.resolved {
                Some((bits, conf, traces)) => {
                    w.write_all(&[1])?;
                    w.write_all(&bits.to_le_bytes())?;
                    w.write_all(&conf.to_le_bytes())?;
                    w.write_all(&(traces as u64).to_le_bytes())?;
                }
                None => w.write_all(&[0])?,
            }
            match s.last_bits {
                Some(b) => {
                    w.write_all(&[1])?;
                    w.write_all(&b.to_le_bytes())?;
                }
                None => w.write_all(&[0])?,
            }
            w.write_all(&s.confidence.to_le_bytes())?;
            w.write_all(&(s.stable as u64).to_le_bytes())?;
            io::write_dataset(&s.data, &mut w)?;
        }
        Ok(())
    }

    /// Checkpoints to `path` atomically *and durably*: the state is
    /// written to a sibling temporary file, fsynced, renamed over the
    /// destination, and the parent directory is fsynced so the rename
    /// itself survives a crash (see [`io::atomic_write`]). A kill at any
    /// instant leaves either the previous checkpoint or the new one,
    /// never a torn or vanishing file.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Persist`] naming the failed persistence step.
    pub fn checkpoint(&self, device: &Device, msg_rng: &Prng, path: &Path) -> Result<()> {
        let ckpt_span = obs::span("campaign.checkpoint");
        io::atomic_write(path, |w| self.write_checkpoint(device, msg_rng, w))?;
        drop(ckpt_span);
        let (requested, pending) = (self.traces_requested, self.pending().len());
        obs::emit(|| {
            obs::Event::new("campaign.checkpoint")
                .with_u64("traces_requested", requested as u64)
                .with_u64("pending_targets", pending as u64)
                .with_str("path", path.display().to_string())
        });
        Ok(())
    }

    /// Rebuilds a campaign from a checkpoint and rewinds `device` and
    /// `msg_rng` to their checkpointed stream positions. The caller
    /// supplies the same [`CampaignConfig`] and a device constructed
    /// with the same key, chain and seed as the original run; the
    /// resumed campaign then reproduces the uninterrupted one
    /// bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnsupportedVersion`] for a future checkpoint
    /// version, [`Error::InvalidData`] for a malformed one, and
    /// [`Error::Io`] on truncation.
    pub fn resume<R: Read>(
        cfg: CampaignConfig,
        device: &mut Device,
        msg_rng: &mut Prng,
        mut r: R,
    ) -> Result<Campaign> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic[..7] != CKPT_MAGIC {
            return Err(io::bad("not a falcon-down campaign checkpoint (bad magic)"));
        }
        if magic[7] != CKPT_VERSION {
            return Err(Error::UnsupportedVersion {
                found: magic[7] as u32,
                supported: CKPT_VERSION as u32,
            });
        }
        let n = io::checked_count(io::read_u64(&mut r)?, "ring degree")?;
        if !n.is_power_of_two() || !(2..=1 << 10).contains(&n) {
            return Err(io::bad("invalid ring degree"));
        }
        let traces_requested = io::checked_count(io::read_u64(&mut r)?, "trace counter")?;
        let mut stats_v = [0usize; 8];
        for v in stats_v.iter_mut() {
            *v = io::checked_count(io::read_u64(&mut r)?, "stats field")?;
        }
        let stats = stats_from_fields(&stats_v);

        let dev_len = io::checked_count(io::read_u64(&mut r)?, "device state length")?;
        if dev_len != Device::STATE_LEN {
            return Err(io::bad("device state length mismatch"));
        }
        let mut dev_state = [0u8; Device::STATE_LEN];
        r.read_exact(&mut dev_state)?;
        let rng_len = io::checked_count(io::read_u64(&mut r)?, "rng state length")?;
        if rng_len != Prng::STATE_LEN {
            return Err(io::bad("message-rng state length mismatch"));
        }
        let mut rng_state = [0u8; Prng::STATE_LEN];
        r.read_exact(&mut rng_state)?;

        let count = io::checked_count(io::read_u64(&mut r)?, "target count")?;
        if count > n {
            return Err(io::bad("implausible target count"));
        }
        let mut states = Vec::with_capacity(count);
        for _ in 0..count {
            let target = io::checked_count(io::read_u64(&mut r)?, "target index")?;
            if target >= n {
                return Err(io::bad("target index out of range"));
            }
            let resolved = match read_u8(&mut r)? {
                0 => None,
                1 => {
                    let bits = io::read_u64(&mut r)?;
                    let conf = f64::from_bits(io::read_u64(&mut r)?);
                    let traces = io::checked_count(io::read_u64(&mut r)?, "trace count")?;
                    Some((bits, conf, traces))
                }
                _ => return Err(io::bad("malformed resolution flag")),
            };
            let last_bits = match read_u8(&mut r)? {
                0 => None,
                1 => Some(io::read_u64(&mut r)?),
                _ => return Err(io::bad("malformed winner flag")),
            };
            let confidence = f64::from_bits(io::read_u64(&mut r)?);
            let stable = io::checked_count(io::read_u64(&mut r)?, "stability counter")?;
            let data = io::read_dataset(&mut r)?;
            if data.n() != n || data.targets() != [target] {
                return Err(io::bad("embedded dataset does not match its target"));
            }
            states.push(TargetState { target, data, last_bits, confidence, stable, resolved });
        }

        // Only rewind the live streams once the whole checkpoint parsed.
        if !device.restore_state(&dev_state) {
            return Err(io::bad("malformed device state"));
        }
        *msg_rng =
            Prng::import_state(&rng_state).ok_or_else(|| io::bad("malformed message-rng state"))?;
        let campaign = Campaign { cfg, n, states, traces_requested, stats };
        obs::metrics().counter("campaign.resumes").incr();
        let pending = campaign.pending().len();
        obs::emit(|| {
            obs::Event::new("campaign.resume")
                .with_u64("traces_requested", traces_requested as u64)
                .with_u64("pending_targets", pending as u64)
        });
        Ok(campaign)
    }

    /// [`Campaign::resume`] from a checkpoint file.
    ///
    /// # Errors
    ///
    /// See [`Campaign::resume`].
    pub fn resume_from_path(
        cfg: CampaignConfig,
        device: &mut Device,
        msg_rng: &mut Prng,
        path: &Path,
    ) -> Result<Campaign> {
        let f = std::fs::File::open(path)?;
        Campaign::resume(cfg, device, msg_rng, std::io::BufReader::new(f))
    }
}

/// Re-attacks one coefficient on its accumulated data and advances its
/// convergence tracker.
fn evaluate(state: &mut TargetState, cfg: &CampaignConfig) -> Result<()> {
    let traces = state.data.traces();
    // tanh thresholds need d > 3; a handful of traces cannot clear a
    // 99.99 % bar anyway, so skip the (expensive) re-attack entirely.
    if traces < 8 {
        return Ok(());
    }
    let block = state.data.target_block(state.target)?;
    let r = recover_coefficient_block(&block, &cfg.attack);
    let conf = coefficient_confidence_block(&block, r.bits);
    state.confidence = conf;
    let cleared = conf >= cfg.margin * confidence::threshold_9999(traces as u64);
    if cleared && state.last_bits == Some(r.bits) {
        state.stable += 1;
    } else if cleared {
        state.stable = 1;
    } else {
        state.stable = 0;
    }
    state.last_bits = Some(r.bits);
    if state.stable >= cfg.stable_batches {
        state.resolved = Some((r.bits, conf, traces));
        obs::metrics().counter("campaign.converged").incr();
        let (target, bits) = (state.target, r.bits);
        obs::emit(|| {
            obs::Event::new("campaign.converged")
                .with_u64("target", target as u64)
                .with_u64("bits", bits)
                .with_f64("confidence", conf)
                .with_u64("traces", traces as u64)
        });
    }
    Ok(())
}

const OCKPT_MAGIC: &[u8; 7] = b"FDNOCKP";
const OCKPT_VERSION: u8 = 1;

/// An offline campaign: the same adaptive convergence loop as
/// [`Campaign`], replayed over a fixed trace archive instead of a live
/// device. Batches "acquire" by revealing the next `batch_size` traces
/// of the archive's stable trace order, so the convergence decisions —
/// margin, stability, early stop — behave exactly as they would have
/// live, and any [`ColumnSource`] (resident or streamed) drives the
/// full campaign → key → forgery pipeline.
///
/// Targets are processed **sequentially**: one target's columns are
/// fetched (and kept) at a time, so the resident footprint over a
/// multi-gigabyte streamed archive is one target block plus the ring —
/// never the whole file. Per target, consumption stops at
/// `min(source traces, cfg.max_traces)`; `traces_requested` sums the
/// traces revealed across all targets.
///
/// Checkpoints (`FDNOCKP\x01`) record only *logical* progress — cursor,
/// per-target consumption and convergence trackers — never trace data
/// or anything source-dependent, so a campaign checkpointed against a
/// resident dataset and one checkpointed against the same file streamed
/// are byte-identical.
#[derive(Debug, Clone)]
pub struct OfflineCampaign {
    cfg: CampaignConfig,
    n: usize,
    states: Vec<TargetState>,
    /// Traces revealed so far, per target (parallel to `states`).
    consumed: Vec<usize>,
    /// Index into `states` of the target currently being evaluated;
    /// `states.len()` once every target finished.
    cursor: usize,
    traces_requested: usize,
    /// The cursor target's full single-target dataset, fetched once per
    /// target and truncated per batch. Dropped when the target
    /// finishes.
    cache: Option<Dataset>,
}

impl OfflineCampaign {
    /// Prepares an offline campaign over `src`. With empty
    /// `cfg.targets` every target of the source is attacked, in the
    /// source's order; otherwise `cfg.targets` must be a subset of the
    /// source's directory.
    ///
    /// # Errors
    ///
    /// Returns a typed error for a degenerate config (zero batch size
    /// or budget), a target absent from the source, or an empty
    /// archive.
    pub fn new<S: ColumnSource + ?Sized>(src: &S, cfg: CampaignConfig) -> Result<OfflineCampaign> {
        if cfg.batch_size == 0 || cfg.max_traces == 0 {
            return Err(Error::Acquisition(
                "campaign needs a nonzero batch size and trace budget".into(),
            ));
        }
        if src.traces() == 0 {
            return Err(Error::Acquisition("archive holds no traces".into()));
        }
        let n = src.n();
        let targets: Vec<usize> =
            if cfg.targets.is_empty() { src.targets().to_vec() } else { cfg.targets.clone() };
        let states = targets
            .iter()
            .map(|&t| {
                if !src.targets().contains(&t) {
                    return Err(Error::TargetNotInDataset { target: t });
                }
                Ok(TargetState {
                    target: t,
                    data: Dataset::empty(n, &[t])?,
                    last_bits: None,
                    confidence: 0.0,
                    stable: 0,
                    resolved: None,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let consumed = vec![0; states.len()];
        Ok(OfflineCampaign {
            cfg,
            n,
            states,
            consumed,
            cursor: 0,
            traces_requested: 0,
            cache: None,
        })
    }

    /// Traces revealed from the archive so far, summed over targets.
    pub fn traces_requested(&self) -> usize {
        self.traces_requested
    }

    /// True when every target converged or exhausted its share of the
    /// archive.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.states.len()
    }

    /// Reveals one batch of the cursor target's traces and re-evaluates
    /// its convergence tracker; advances to the next target when this
    /// one resolves or runs out of traces/budget. Returns `false` when
    /// the campaign is already done.
    ///
    /// # Errors
    ///
    /// Propagates source failures (I/O on a streamed archive) and
    /// bookkeeping errors; the campaign state is unchanged in that
    /// case.
    pub fn step<S: ColumnSource + ?Sized>(&mut self, src: &S) -> Result<bool> {
        if self.is_done() {
            return Ok(false);
        }
        let _batch_span = obs::span("campaign.batch");
        let target = self.states[self.cursor].target;
        if self.cache.is_none() {
            let _fetch_span = obs::span("campaign.fetch_block");
            self.cache = Some(src.target_block(target)?.to_dataset(self.n)?);
        }
        let budget = src.traces().min(self.cfg.max_traces);
        let batch = self.cfg.batch_size.min(budget - self.consumed[self.cursor]);
        self.consumed[self.cursor] += batch;
        self.traces_requested += batch;
        let state = &mut self.states[self.cursor];
        {
            let _eval_span = obs::span("campaign.evaluate");
            // The prefix is rebuilt from the cached block, so an
            // evaluation sees byte-identical data no matter which
            // source produced the block.
            state.data = self
                .cache
                .as_ref()
                .expect("cache populated above")
                .truncated(self.consumed[self.cursor]);
            evaluate(state, &self.cfg)?;
        }
        if state.resolved.is_some() || self.consumed[self.cursor] >= budget {
            // Target finished: drop its trace data (the report reads
            // `consumed`), free the cache, move on.
            state.data = Dataset::empty(self.n, &[target])?;
            self.cache = None;
            self.cursor += 1;
        }
        obs::metrics().counter("campaign.batches").incr();
        Ok(true)
    }

    /// Drives [`OfflineCampaign::step`] until done and returns the
    /// report.
    ///
    /// # Errors
    ///
    /// Propagates the first step error.
    pub fn run<S: ColumnSource + ?Sized>(&mut self, src: &S) -> Result<CampaignReport> {
        while self.step(src)? {}
        Ok(self.report())
    }

    /// The campaign's current (possibly partial) outcome. Acquisition
    /// stats are all zero: the archive's screening happened (if ever)
    /// before it was written.
    pub fn report(&self) -> CampaignReport {
        let statuses = self
            .states
            .iter()
            .zip(&self.consumed)
            .map(|(s, &consumed)| match s.resolved {
                Some((bits, confidence, traces)) => {
                    CoefficientStatus::Recovered { target: s.target, bits, confidence, traces }
                }
                None => CoefficientStatus::Unconverged {
                    target: s.target,
                    best_bits: s.last_bits.unwrap_or(0),
                    confidence: s.confidence,
                    traces: consumed,
                },
            })
            .collect();
        CampaignReport {
            n: self.n,
            statuses,
            traces_requested: self.traces_requested,
            stats: AcquisitionStats::default(),
        }
    }

    /// Serialises the logical progress (`FDNOCKP\x01`): cursor,
    /// per-target consumption and convergence trackers. No trace data,
    /// no source identity — resuming requires the same archive and
    /// config, and the checkpoint bytes are identical whether the
    /// archive was resident or streamed.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_checkpoint<W: Write>(&self, mut w: W) -> Result<()> {
        w.write_all(OCKPT_MAGIC)?;
        w.write_all(&[OCKPT_VERSION])?;
        w.write_all(&(self.n as u64).to_le_bytes())?;
        w.write_all(&(self.cursor as u64).to_le_bytes())?;
        w.write_all(&(self.traces_requested as u64).to_le_bytes())?;
        w.write_all(&(self.states.len() as u64).to_le_bytes())?;
        for (s, &consumed) in self.states.iter().zip(&self.consumed) {
            w.write_all(&(s.target as u64).to_le_bytes())?;
            w.write_all(&(consumed as u64).to_le_bytes())?;
            match s.resolved {
                Some((bits, conf, traces)) => {
                    w.write_all(&[1])?;
                    w.write_all(&bits.to_le_bytes())?;
                    w.write_all(&conf.to_le_bytes())?;
                    w.write_all(&(traces as u64).to_le_bytes())?;
                }
                None => w.write_all(&[0])?,
            }
            match s.last_bits {
                Some(b) => {
                    w.write_all(&[1])?;
                    w.write_all(&b.to_le_bytes())?;
                }
                None => w.write_all(&[0])?,
            }
            w.write_all(&s.confidence.to_le_bytes())?;
            w.write_all(&(s.stable as u64).to_le_bytes())?;
        }
        Ok(())
    }

    /// Checkpoints to `path` atomically and durably (see
    /// [`io::atomic_write`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Persist`] naming the failed persistence step.
    pub fn checkpoint(&self, path: &Path) -> Result<()> {
        let ckpt_span = obs::span("campaign.checkpoint");
        io::atomic_write(path, |w| self.write_checkpoint(w))?;
        drop(ckpt_span);
        let (requested, cursor) = (self.traces_requested, self.cursor);
        obs::emit(|| {
            obs::Event::new("campaign.offline_checkpoint")
                .with_u64("traces_requested", requested as u64)
                .with_u64("cursor", cursor as u64)
                .with_str("path", path.display().to_string())
        });
        Ok(())
    }

    /// Rebuilds an offline campaign from a checkpoint. The caller
    /// supplies the same source (or a byte-identical copy — resident
    /// vs streamed does not matter) and config as the original run;
    /// the resumed campaign reproduces the uninterrupted one bit for
    /// bit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnsupportedVersion`] for a future version,
    /// [`Error::InvalidData`] for a malformed checkpoint or one that
    /// disagrees with the source/config, and [`Error::Io`] on
    /// truncation.
    pub fn resume<S: ColumnSource + ?Sized, R: Read>(
        src: &S,
        cfg: CampaignConfig,
        mut r: R,
    ) -> Result<OfflineCampaign> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic[..7] != OCKPT_MAGIC {
            return Err(io::bad("not a falcon-down offline-campaign checkpoint (bad magic)"));
        }
        if magic[7] != OCKPT_VERSION {
            return Err(Error::UnsupportedVersion {
                found: magic[7] as u32,
                supported: OCKPT_VERSION as u32,
            });
        }
        let mut fresh = OfflineCampaign::new(src, cfg)?;
        let n = io::checked_count(io::read_u64(&mut r)?, "ring degree")?;
        if n != fresh.n {
            return Err(io::bad("checkpoint ring degree disagrees with the source"));
        }
        let cursor = io::checked_count(io::read_u64(&mut r)?, "cursor")?;
        let traces_requested = io::checked_count(io::read_u64(&mut r)?, "trace counter")?;
        let count = io::checked_count(io::read_u64(&mut r)?, "target count")?;
        if count != fresh.states.len() || cursor > count {
            return Err(io::bad("checkpoint target list disagrees with the config"));
        }
        for (s, consumed) in fresh.states.iter_mut().zip(fresh.consumed.iter_mut()) {
            let target = io::checked_count(io::read_u64(&mut r)?, "target index")?;
            if target != s.target {
                return Err(io::bad("checkpoint target order disagrees with the config"));
            }
            *consumed = io::checked_count(io::read_u64(&mut r)?, "consumed traces")?;
            s.resolved = match read_u8(&mut r)? {
                0 => None,
                1 => {
                    let bits = io::read_u64(&mut r)?;
                    let conf = f64::from_bits(io::read_u64(&mut r)?);
                    let traces = io::checked_count(io::read_u64(&mut r)?, "trace count")?;
                    Some((bits, conf, traces))
                }
                _ => return Err(io::bad("malformed resolution flag")),
            };
            s.last_bits = match read_u8(&mut r)? {
                0 => None,
                1 => Some(io::read_u64(&mut r)?),
                _ => return Err(io::bad("malformed winner flag")),
            };
            s.confidence = f64::from_bits(io::read_u64(&mut r)?);
            s.stable = io::checked_count(io::read_u64(&mut r)?, "stability counter")?;
        }
        fresh.cursor = cursor;
        fresh.traces_requested = traces_requested;
        obs::metrics().counter("campaign.resumes").incr();
        Ok(fresh)
    }

    /// [`OfflineCampaign::resume`] from a checkpoint file.
    ///
    /// # Errors
    ///
    /// See [`OfflineCampaign::resume`].
    pub fn resume_from_path<S: ColumnSource + ?Sized>(
        src: &S,
        cfg: CampaignConfig,
        path: &Path,
    ) -> Result<OfflineCampaign> {
        let f = std::fs::File::open(path)?;
        OfflineCampaign::resume(src, cfg, std::io::BufReader::new(f))
    }
}

fn read_u8<R: Read>(r: &mut R) -> Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn stats_fields(s: &AcquisitionStats) -> [usize; 8] {
    [
        s.requested,
        s.kept,
        s.dropped_trigger,
        s.discarded_saturated,
        s.discarded_dead,
        s.discarded_misaligned,
        s.realigned,
        s.winsorized,
    ]
}

fn stats_from_fields(v: &[usize; 8]) -> AcquisitionStats {
    AcquisitionStats {
        requested: v[0],
        kept: v[1],
        dropped_trigger: v[2],
        discarded_saturated: v[3],
        discarded_dead: v[4],
        discarded_misaligned: v[5],
        realigned: v[6],
        winsorized: v[7],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_emsim::{FaultModel, LeakageModel, MeasurementChain, Scope};
    use falcon_sig::{KeyPair, LogN};

    fn bench(noise: f64, fm: FaultModel, seed: &[u8]) -> (Device, Vec<u64>) {
        let mut rng = Prng::from_seed(seed);
        let kp = KeyPair::generate(LogN::new(3).unwrap(), &mut rng);
        let truth: Vec<u64> = kp.signing_key().f_fft().iter().map(|x| x.to_bits()).collect();
        let chain = MeasurementChain {
            model: LeakageModel::hamming_weight(1.0, noise),
            lowpass: 0.0,
            scope: Scope { enabled: false, ..Default::default() },
            faults: fm,
        };
        (Device::new(kp.into_parts().0, chain, b"campaign bench"), truth)
    }

    fn small_cfg() -> CampaignConfig {
        CampaignConfig { batch_size: 60, max_traces: 600, ..Default::default() }
    }

    #[test]
    fn clean_campaign_recovers_all_and_stops_early() {
        let (mut dev, truth) = bench(1.0, FaultModel::default(), b"clean campaign");
        let mut msgs = Prng::from_seed(b"clean campaign msgs");
        let mut c = Campaign::new(8, small_cfg()).unwrap();
        let report = c.run(&mut dev, &mut msgs).unwrap();
        assert!(report.is_complete(), "unconverged: {report:?}");
        assert_eq!(report.recovered_bits().unwrap(), truth);
        // Early stop: this regime converges in a few batches, well
        // before the budget.
        assert!(
            report.traces_requested < 600,
            "campaign should stop before the budget: {}",
            report.traces_requested
        );
        for s in &report.statuses {
            let CoefficientStatus::Recovered { traces, .. } = s else { unreachable!() };
            assert!(*traces <= report.stats.kept);
        }
    }

    #[test]
    fn budget_exhaustion_yields_partial_report() {
        // Heavy noise and a tiny budget: nothing can converge.
        let (mut dev, _) = bench(30.0, FaultModel::default(), b"partial campaign");
        let mut msgs = Prng::from_seed(b"partial msgs");
        let cfg = CampaignConfig {
            batch_size: 20,
            max_traces: 40,
            targets: vec![0, 5],
            ..Default::default()
        };
        let mut c = Campaign::new(8, cfg).unwrap();
        let report = c.run(&mut dev, &mut msgs).unwrap();
        assert!(!report.is_complete());
        assert_eq!(report.recovered_bits(), None);
        assert_eq!(report.traces_requested, 40);
        assert_eq!(report.statuses.len(), 2);
        for s in &report.statuses {
            assert!(!s.is_recovered());
        }
    }

    #[test]
    fn degenerate_config_is_rejected() {
        assert!(Campaign::new(8, CampaignConfig { batch_size: 0, ..Default::default() }).is_err());
        assert!(Campaign::new(8, CampaignConfig { max_traces: 0, ..Default::default() }).is_err());
    }

    #[test]
    fn checkpoint_roundtrips_in_memory() {
        let (mut dev, _) = bench(2.0, FaultModel::noisy_bench(), b"ckpt campaign");
        let mut msgs = Prng::from_seed(b"ckpt msgs");
        let mut c = Campaign::new(8, small_cfg()).unwrap();
        c.step(&mut dev, &mut msgs).unwrap();
        c.step(&mut dev, &mut msgs).unwrap();
        let mut buf = Vec::new();
        c.write_checkpoint(&dev, &msgs, &mut buf).unwrap();

        let (mut dev2, _) = bench(2.0, FaultModel::noisy_bench(), b"ckpt campaign");
        let mut msgs2 = Prng::from_seed(b"unrelated, will be rewound");
        let mut resumed = Campaign::resume(small_cfg(), &mut dev2, &mut msgs2, &buf[..]).unwrap();
        assert_eq!(resumed.traces_requested(), c.traces_requested());

        // Both campaigns continue identically.
        let a = c.run(&mut dev, &mut msgs).unwrap();
        let b = resumed.run(&mut dev2, &mut msgs2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn offline_campaign_recovers_from_an_archive() {
        let (mut dev, truth) = bench(1.0, FaultModel::default(), b"offline campaign");
        let mut msgs = Prng::from_seed(b"offline msgs");
        let targets: Vec<usize> = (0..8).collect();
        let ds = Dataset::collect(&mut dev, &targets, 400, &mut msgs);
        let mut c = OfflineCampaign::new(&ds, small_cfg()).unwrap();
        let report = c.run(&ds).unwrap();
        assert!(report.is_complete(), "unconverged: {report:?}");
        assert_eq!(report.recovered_bits().unwrap(), truth);
        // Early stop per target: nowhere near 8 × 400 traces revealed.
        assert!(report.traces_requested < 8 * 400);
    }

    #[test]
    fn offline_checkpoint_resumes_bit_identically() {
        let (mut dev, _) = bench(1.0, FaultModel::default(), b"offline ckpt");
        let mut msgs = Prng::from_seed(b"offline ckpt msgs");
        let targets: Vec<usize> = (0..8).collect();
        let ds = Dataset::collect(&mut dev, &targets, 400, &mut msgs);
        let mut c = OfflineCampaign::new(&ds, small_cfg()).unwrap();
        for _ in 0..3 {
            assert!(c.step(&ds).unwrap());
        }
        let mut ckpt = Vec::new();
        c.write_checkpoint(&mut ckpt).unwrap();
        let mut resumed = OfflineCampaign::resume(&ds, small_cfg(), &ckpt[..]).unwrap();
        assert_eq!(resumed.traces_requested(), c.traces_requested());
        let a = c.run(&ds).unwrap();
        let b = resumed.run(&ds).unwrap();
        assert_eq!(a, b);
        // Final checkpoints are byte-equal too.
        let (mut fa, mut fb) = (Vec::new(), Vec::new());
        c.write_checkpoint(&mut fa).unwrap();
        resumed.write_checkpoint(&mut fb).unwrap();
        assert_eq!(fa, fb);
    }

    #[test]
    fn offline_campaign_rejects_bad_inputs() {
        let (mut dev, _) = bench(1.0, FaultModel::default(), b"offline bad");
        let mut msgs = Prng::from_seed(b"offline bad msgs");
        let ds = Dataset::collect(&mut dev, &[0, 3], 20, &mut msgs);
        // Target not in the archive.
        let cfg = CampaignConfig { targets: vec![5], ..small_cfg() };
        assert!(matches!(
            OfflineCampaign::new(&ds, cfg),
            Err(Error::TargetNotInDataset { target: 5 })
        ));
        // Degenerate budget.
        assert!(OfflineCampaign::new(&ds, CampaignConfig { max_traces: 0, ..small_cfg() }).is_err());
        // Truncated checkpoint.
        let mut c = OfflineCampaign::new(&ds, small_cfg()).unwrap();
        c.step(&ds).unwrap();
        let mut ckpt = Vec::new();
        c.write_checkpoint(&mut ckpt).unwrap();
        for cut in [0, 7, 8, 20, ckpt.len() / 2, ckpt.len() - 1] {
            assert!(
                OfflineCampaign::resume(&ds, small_cfg(), &ckpt[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        // Future version.
        let mut future = ckpt.clone();
        future[7] = 9;
        assert!(matches!(
            OfflineCampaign::resume(&ds, small_cfg(), &future[..]),
            Err(Error::UnsupportedVersion { found: 9, .. })
        ));
    }

    #[test]
    fn checkpoint_rejects_corruption_and_truncation() {
        let (mut dev, _) = bench(2.0, FaultModel::default(), b"ckpt corrupt");
        let mut msgs = Prng::from_seed(b"ckpt corrupt msgs");
        let mut c = Campaign::new(8, small_cfg()).unwrap();
        c.step(&mut dev, &mut msgs).unwrap();
        let mut buf = Vec::new();
        c.write_checkpoint(&dev, &msgs, &mut buf).unwrap();

        let resume = |bytes: &[u8]| {
            let (mut d, _) = bench(2.0, FaultModel::default(), b"ckpt corrupt");
            let mut m = Prng::from_seed(b"x");
            Campaign::resume(small_cfg(), &mut d, &mut m, bytes)
        };
        // Bad magic and future version.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(resume(&bad).is_err());
        let mut future = buf.clone();
        future[7] = 99;
        assert!(matches!(resume(&future), Err(Error::UnsupportedVersion { found: 99, .. })));
        // Truncation anywhere must error, never panic.
        for cut in [8, 9, 40, 100, buf.len() / 2, buf.len() - 1] {
            assert!(resume(&buf[..cut]).is_err(), "cut at {cut} must fail");
        }
    }
}
