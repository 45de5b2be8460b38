//! The two workloads: what each one attacks, how it is set up, and how
//! one untraced trial runs.

use dram::RfmParams;
use explframe_core::{
    AttackError, AttackReport, ExplFrame, ExplFrameConfig, HammerStrategy, Pipeline, TemplateMemo,
    VictimCipherKind,
};
use machine::{MachineSnapshot, SimMachine};

/// The seed the report goldens were recorded on.
pub const DEFAULT_SEED: u64 = 1;

/// How a workload's trials run the attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Classic driver; every sweep is served by a memo filled at set-up.
    Memo,
    /// Adaptive driver: an empty sweep escalates to many-sided hammering.
    Adaptive,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Trials per pass; trial `t` attacks machine `t % machines` with
    /// attacker seed `seed + t`.
    pub batch: u64,
    /// Machines per run; machine `k` is booted from seed `seed + k`. How
    /// costly a trial is depends mostly on the machine's weak cells, so a
    /// run spreads its trials over several to average that out.
    pub machines: u64,
    /// Untraced trials a run times at least, whatever `--seconds` says.
    /// `trial_ms.tail` is the percentile chosen from this fixed count (see
    /// [`Workload::tail_permille`]), so every build and every host speed
    /// reports the same percentile.
    pub tail_trials: usize,
    pub driver: Driver,
    config: fn(u64) -> ExplFrameConfig,
    /// Digest of one pass's reports on [`DEFAULT_SEED`].
    pub golden: u64,
}

/// The paper's case study: a T-table AES victim steered onto a templated
/// frame. 2048 template pages, because at 512 this victim recovers no key.
fn pfa_ttable(seed: u64) -> ExplFrameConfig {
    ExplFrameConfig::small_demo(seed)
        .with_victim(VictimCipherKind::AesTtable)
        .with_template_pages(2048)
}

/// An S-box AES victim behind DDR5-style refresh management whose 4-row
/// sampler defeats double-sided hammering, so the adaptive driver sweeps
/// twice.
fn sweep_rfm(seed: u64) -> ExplFrameConfig {
    let mut cfg = ExplFrameConfig::small_demo(seed).with_template_pages(512);
    cfg.machine.dram = cfg
        .machine
        .dram
        .with_timing_engine(true)
        .with_rfm(Some(RfmParams {
            raaimt: 2048,
            table_size: 4,
            radius: 2,
        }));
    cfg
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "pfa-ttable",
        batch: 16,
        machines: 4,
        tail_trials: 100,
        driver: Driver::Memo,
        config: pfa_ttable,
        golden: 0x70a6_5776_e9ff_4d88,
    },
    Workload {
        name: "sweep-rfm",
        batch: 8,
        machines: 8,
        tail_trials: 40,
        driver: Driver::Adaptive,
        config: sweep_rfm,
        golden: 0x5aa6_0ef9_7d01_ba4c,
    },
];

impl Workload {
    /// The percentile, in per mille, `trial_ms.tail` reports: the highest
    /// that leaves ten of [`Workload::tail_trials`] beyond it.
    pub fn tail_permille(&self) -> u64 {
        crate::stats::tail_permille(self.tail_trials)
    }
}

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A workload made ready for trials: the booted machines the trials fork,
/// and the memo their sweeps replay from.
pub struct Prepared {
    pub workload: &'static Workload,
    seed: u64,
    warm: Vec<MachineSnapshot>,
    pub memo: TemplateMemo,
}

impl Prepared {
    /// Boots the workload's machines and, for [`Driver::Memo`], fills the
    /// memo with the one sweep per machine that every trial replays.
    pub fn new(workload: &'static Workload, seed: u64) -> Result<Self, AttackError> {
        let mut warm = Vec::new();
        let mut memo = TemplateMemo::new();
        for k in 0..workload.machines {
            let config = (workload.config)(seed.wrapping_add(k));
            let snapshot = SimMachine::new(config.machine.clone()).snapshot();
            if workload.driver == Driver::Memo {
                let mut machine = snapshot.fork();
                Pipeline::new(&mut machine, config).template_memo_at(&snapshot, &mut memo)?;
            }
            warm.push(snapshot);
        }
        Ok(Prepared {
            workload,
            seed,
            warm,
            memo,
        })
    }

    /// The booted machine trial `t` forks, and the memo, borrowed together.
    pub fn warm(&mut self, t: u64) -> (&MachineSnapshot, &mut TemplateMemo) {
        let k = usize::try_from(t % self.workload.machines).expect("machine index fits usize");
        (&self.warm[k], &mut self.memo)
    }

    /// The configuration of trial `t`: machine `t % machines`, attacked
    /// with attacker seed `seed + t`.
    pub fn trial_config(&self, t: u64) -> ExplFrameConfig {
        let machine = self.seed.wrapping_add(t % self.workload.machines);
        (self.workload.config)(machine).with_seed(self.seed.wrapping_add(t))
    }

    /// The strategy an adaptive run escalates to, clamped as the attack
    /// driver clamps it to what one refresh window can feed.
    pub fn escalation(config: &ExplFrameConfig) -> HammerStrategy {
        let dram = &config.machine.dram;
        let mut rows = config.many_sided_rows;
        if dram.timed {
            rows = rows.min(dram.cells.max_feasible_rows(&dram.timing));
        }
        HammerStrategy::ManySided { rows }
    }

    /// Runs trial `t` untraced, through the attack driver.
    pub fn run_trial(&mut self, t: u64) -> Result<AttackReport, AttackError> {
        let attack = ExplFrame::new(self.trial_config(t));
        let driver = self.workload.driver;
        let (warm, memo) = self.warm(t);
        match driver {
            Driver::Memo => attack.run_snapshot_memo(warm, memo),
            Driver::Adaptive => attack.run_adaptive_snapshot(warm),
        }
    }
}

/// FNV-1a of a trial's `Debug` form: any difference in the report or the
/// error changes it.
pub fn digest(result: &Result<AttackReport, AttackError>) -> u64 {
    campaign::fnv1a(format!("{result:?}").as_bytes())
}

/// Digest of a whole pass, from its per-trial digests in trial order.
pub fn pass_digest(digests: &[u64]) -> u64 {
    campaign::fnv1a(format!("{digests:?}").as_bytes())
}
