//! Experiment specifications.

use std::fmt;
use std::str::FromStr;

use cpool::{NodeStoreKind, PolicyKind};
use numa_sim::LatencyModel;
use workload::Workload;

/// Which counting-segment implementation backs the pool.
///
/// The paper measured mutex-protected counters; the CAS variant is an
/// ablation (see `segment::counting`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SegmentKind {
    /// `Mutex<usize>` counter (the paper's representation).
    #[default]
    LockedCounter,
    /// Lock-free CAS counter.
    AtomicCounter,
}

impl fmt::Display for SegmentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentKind::LockedCounter => f.write_str("locked-counter"),
            SegmentKind::AtomicCounter => f.write_str("atomic-counter"),
        }
    }
}

impl FromStr for SegmentKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "locked" | "locked-counter" => Ok(SegmentKind::LockedCounter),
            "atomic" | "atomic-counter" => Ok(SegmentKind::AtomicCounter),
            other => Err(format!("unknown segment kind {other:?}")),
        }
    }
}

/// Execution engine for a trial.
#[derive(Clone, Copy, Debug)]
pub enum Engine {
    /// Deterministic virtual-time simulation under the given latency model.
    Sim(LatencyModel),
    /// Real threads; `Some(model)` spin-injects the modelled access costs
    /// (the paper's delay method), `None` runs at raw machine speed. Both
    /// time operations on the wall clock.
    Threaded(Option<LatencyModel>),
}

impl Engine {
    /// Whether this engine produces bit-reproducible results.
    pub fn is_deterministic(&self) -> bool {
        matches!(self, Engine::Sim(_))
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Engine::Sim(m) => write!(f, "sim(delay={}ns)", m.remote_delay_ns),
            Engine::Threaded(Some(m)) => write!(f, "threaded(delay={}ns)", m.remote_delay_ns),
            Engine::Threaded(None) => f.write_str("threaded(raw)"),
        }
    }
}

/// Everything needed to reproduce one experiment.
///
/// Defaults mirror §3.4 of the paper: 16 processes (one per segment), a
/// pool initialized with 320 elements, 5000 combined operations, 10 trials
/// averaged, virtual-time Butterfly model.
#[derive(Clone, Debug)]
pub struct ExperimentSpec {
    /// Number of processes (= segments).
    pub procs: usize,
    /// Search algorithm under test.
    pub policy: PolicyKind,
    /// Round-counter synchronization for the tree policy.
    pub node_store: NodeStoreKind,
    /// Counting-segment implementation.
    pub segment: SegmentKind,
    /// Elements pre-loaded into the pool, spread evenly.
    pub initial_elements: u64,
    /// Combined operation budget per trial.
    pub total_ops: u64,
    /// The workload every process draws from.
    pub workload: Workload,
    /// Execution engine.
    pub engine: Engine,
    /// Number of trials to average.
    pub trials: u32,
    /// Master seed (trial `t` derives its own).
    pub seed: u64,
    /// Record segment-size traces (Figures 3–6).
    pub record_trace: bool,
    /// Enable the search-hint extension (`cpool::hints`, our answer to the
    /// paper's §5 future work) — off for all paper-reproduction runs.
    pub hints: bool,
    /// Fixed computation charged per add operation (ns). The paper reports
    /// ~70 µs total add time; 60 µs of overhead plus the 10 µs local
    /// segment access reproduces that.
    pub add_overhead_ns: u64,
    /// Fixed computation charged per remove attempt (ns); 100 µs of
    /// overhead plus the access reproduces the paper's ~110 µs removes.
    pub remove_overhead_ns: u64,
}

impl ExperimentSpec {
    /// The paper's baseline configuration with the given policy and
    /// workload.
    pub fn paper(policy: PolicyKind, workload: Workload) -> Self {
        ExperimentSpec {
            procs: 16,
            policy,
            node_store: NodeStoreKind::Locked,
            segment: SegmentKind::LockedCounter,
            initial_elements: 320,
            total_ops: 5000,
            workload,
            engine: Engine::Sim(LatencyModel::butterfly()),
            trials: 10,
            seed: 1989,
            record_trace: false,
            hints: false,
            add_overhead_ns: 60_000,
            remove_overhead_ns: 100_000,
        }
    }

    /// Returns a copy with the hint extension enabled.
    pub fn with_hints(mut self) -> Self {
        self.hints = true;
        self
    }

    /// Scales the experiment down (for fast tests): `procs` processes,
    /// proportional initial fill and budget, fewer trials.
    pub fn scaled(mut self, procs: usize, total_ops: u64, trials: u32) -> Self {
        let fill_per_seg = (self.initial_elements / self.procs as u64).max(1);
        self.procs = procs;
        self.initial_elements = fill_per_seg * procs as u64;
        self.total_ops = total_ops;
        self.trials = trials;
        self
    }

    /// Seed for one trial: mixes the trial index into the master seed.
    pub fn trial_seed(&self, trial: u32) -> u64 {
        self.seed.wrapping_add(u64::from(trial).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

impl fmt::Display for ExperimentSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} x{} procs={} ops={} init={} {} trials={}",
            self.policy,
            self.workload,
            self.procs,
            self.total_ops,
            self.initial_elements,
            self.engine,
            self.trials
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::JobMix;

    fn spec() -> ExperimentSpec {
        ExperimentSpec::paper(
            PolicyKind::Tree,
            Workload::RandomMix { mix: JobMix::from_percent(50) },
        )
    }

    #[test]
    fn paper_defaults() {
        let s = spec();
        assert_eq!(s.procs, 16);
        assert_eq!(s.initial_elements, 320);
        assert_eq!(s.total_ops, 5000);
        assert_eq!(s.trials, 10);
        assert!(s.engine.is_deterministic());
    }

    #[test]
    fn scaled_keeps_fill_per_segment() {
        let s = spec().scaled(4, 500, 2);
        assert_eq!(s.procs, 4);
        assert_eq!(s.initial_elements, 80, "20 per segment, as in the paper");
        assert_eq!(s.total_ops, 500);
        assert_eq!(s.trials, 2);
    }

    #[test]
    fn trial_seeds_differ() {
        let s = spec();
        assert_ne!(s.trial_seed(0), s.trial_seed(1));
        assert_eq!(s.trial_seed(3), s.trial_seed(3));
    }

    #[test]
    fn segment_kind_parses() {
        assert_eq!("locked".parse::<SegmentKind>().unwrap(), SegmentKind::LockedCounter);
        assert_eq!("atomic-counter".parse::<SegmentKind>().unwrap(), SegmentKind::AtomicCounter);
        assert!("x".parse::<SegmentKind>().is_err());
    }

    #[test]
    fn display_is_informative() {
        let text = spec().to_string();
        assert!(text.contains("tree"));
        assert!(text.contains("procs=16"));
    }
}
