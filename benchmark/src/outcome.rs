//! What a workload's run hands back, how a run's rounds become the numbers
//! it reports, and the process-level readings (peak memory) every workload
//! shares.

use std::fs;

use crate::stats::Samples;

/// Rounds of a full-length run. A run is cut into rounds, each with a
/// set-up of its own, and reports the median over the rounds of every
/// timing. Interference from outside comes in bursts and only ever slows
/// things down: it spoils a round, and the median over rounds drops it.
const ROUNDS: usize = 5;

/// A round is not made shorter than this; shorter runs make fewer rounds.
const ROUND_SECONDS: f64 = 4.0;

pub fn rounds_in(seconds: f64) -> usize {
    ((seconds / ROUND_SECONDS) as usize).clamp(1, ROUNDS)
}

/// What one round measured.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    /// Operations answered per second in the closed loop.
    pub ops_per_s: f64,
    /// The workload's pinned tail percentile of an operation's latency
    /// (open loop where there is one).
    pub tail_ms: f64,
}

/// Counts and metric values of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations sent plus correctness checks made.
    pub attempted: u64,
    /// Of those, the ones that failed, were refused or answered wrongly.
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Reports the median over `rounds` of each timing.
    pub fn set_round_medians(&mut self, rounds: &[Round]) {
        let median =
            |pick: fn(&Round) -> f64| Samples::new(rounds.iter().map(pick).collect()).median();
        self.set("setup_s", median(|r| r.setup_s));
        self.set("peak_rss_mb", median(|r| r.peak_rss_mb));
        self.set("ops_per_s", median(|r| r.ops_per_s));
        self.set("op_tail_ms", median(|r| r.tail_ms));
    }

    /// Counts one check; logs and counts a failure when it does not hold.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }
}

#[cfg(target_env = "gnu")]
extern "C" {
    /// glibc: gives the free pages of the heap back to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Starts the peak-memory reading afresh, so that it covers the measured
/// phases with everything they need resident and not the benchmark's own
/// checking before them. Where the kernel refuses, the peak covers set-up
/// too, and the log says so.
///
/// What earlier rounds and the checks freed goes back to the kernel first.
/// The allocator would otherwise keep it, the reading would start from
/// that much above what is live, and a round's peak would say how much the
/// rounds before it had left behind: 30 to 80 MB on `mixed-paged`, never
/// twice the same.
pub fn reset_peak_rss() {
    #[cfg(target_env = "gnu")]
    // SAFETY: `malloc_trim` takes no pointer and may be called at any time;
    // it only releases memory the allocator holds free.
    unsafe {
        malloc_trim(0);
    }
    if fs::write("/proc/self/clear_refs", "5").is_err() {
        eprintln!("note: cannot reset VmHWM; peak_rss_mb includes set-up and checks");
    }
}

/// `VmHWM` of this process in MB (10^6 bytes); 0 where `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb * 1024.0 / 1e6)
        })
        .unwrap_or(0.0)
}

/// CPU ticks the hypervisor gave to other guests while this one wanted
/// them, and CPU ticks in all, since boot; `None` where `/proc/stat` is
/// missing.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user.
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// Reads the host's interference over a stretch of time: on a shared host
/// a run's timings are only as good as the CPUs it was given.
pub struct StealWatch(Option<(u64, u64)>);

impl StealWatch {
    pub fn start() -> Self {
        Self(cpu_ticks())
    }

    /// Share of this guest's CPU time since `start` that went to others.
    pub fn share(&self) -> Option<f64> {
        let (steal0, all0) = self.0?;
        let (steal1, all1) = cpu_ticks()?;
        (all1 > all0).then(|| (steal1 - steal0) as f64 / (all1 - all0) as f64)
    }
}
