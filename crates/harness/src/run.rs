//! Trial execution.
//!
//! A trial (§3.4): initialize the pool with `initial_elements` spread
//! evenly, then let every process draw operations from its workload stream
//! until the *combined* total reaches `total_ops`. Aborted removes count
//! against the budget (they consumed a turn, as in the paper's stressful
//! sparse runs).
//!
//! # Virtual-time discipline
//!
//! Under [`Engine::Sim`] all shared state (pool handles, the budget) is
//! created *before* the process threads start; each thread then runs
//! `scheduler.start(p) … ops … drop(handle); scheduler.finish(p)`, so every
//! shared-memory access — including the handle drop that deposits
//! statistics and deregisters from the livelock gate — happens while the
//! thread holds the virtual-time token. This makes whole trials
//! bit-reproducible.

use std::sync::Arc;
use std::time::Instant;

use cpool::segment::{AtomicCounter, LockedCounter};
use cpool::{DynPolicy, DynTiming, Pool, PoolBuilder, Segment};
use numa_sim::{LatencyModel, RealTiming, SimScheduler, Topology};
use workload::{Op, OpBudget};

use crate::metrics::{ExperimentResult, TrialMetrics};
use crate::spec::{Engine, ExperimentSpec, SegmentKind};

/// Runs all trials of an experiment and aggregates them.
pub fn run_experiment(spec: &ExperimentSpec) -> ExperimentResult {
    let trials: Vec<TrialMetrics> = (0..spec.trials).map(|t| run_single_trial(spec, t)).collect();
    ExperimentResult::new(spec.to_string(), trials)
}

/// Runs one trial of an experiment.
///
/// Under a [`Engine::Sim`] engine the result is a deterministic function of
/// `(spec, trial)`.
pub fn run_single_trial(spec: &ExperimentSpec, trial: u32) -> TrialMetrics {
    match spec.segment {
        SegmentKind::LockedCounter => run_trial_on::<LockedCounter>(spec, trial),
        SegmentKind::AtomicCounter => run_trial_on::<AtomicCounter>(spec, trial),
    }
}

fn run_trial_on<S: Segment<Item = ()>>(spec: &ExperimentSpec, trial: u32) -> TrialMetrics {
    let seed = spec.trial_seed(trial);
    let topology = Topology::identity(spec.procs);

    // The engine is chosen from the spec at runtime, so the pool runs on
    // the `DynTiming` adapter rather than a concrete (monomorphized) model.
    let (timing, scheduler): (DynTiming, Option<Arc<SimScheduler>>) = match spec.engine {
        Engine::Sim(model) => {
            let scheduler = SimScheduler::new(spec.procs, model, topology);
            (Arc::new(scheduler.timing()), Some(scheduler))
        }
        // Raw threads still need a clock for the latency columns: the
        // wall clock with no injected delay (`NullTiming` has no clock).
        Engine::Threaded(model) => {
            let model = model.unwrap_or(LatencyModel::uniform(0));
            (Arc::new(RealTiming::new(model, topology)), None)
        }
    };

    // The builder constructs the runtime-selected policy for `spec.procs`
    // segments itself: the count is stated once.
    let pool: Pool<S, DynPolicy, DynTiming> = PoolBuilder::new(spec.procs)
        .seed(seed)
        .timing(Arc::clone(&timing))
        .node_store(spec.node_store)
        .record_trace(spec.record_trace)
        .hints(spec.hints)
        .op_overhead(spec.add_overhead_ns, spec.remove_overhead_ns)
        .build_policy(spec.policy);
    pool.fill_evenly(spec.initial_elements as usize);

    let budget = OpBudget::new(spec.total_ops);

    // All handles and streams are created before any worker starts: process
    // ids, gate registration, and RNG seeding are then independent of thread
    // scheduling (required for virtual-time determinism).
    let workers: Vec<_> = (0..spec.procs)
        .map(|p| {
            let handle = pool.register();
            let stream = spec.workload.stream_for(p, spec.procs, seed);
            (handle, stream)
        })
        .collect();

    let wall_start = Instant::now();
    std::thread::scope(|scope| {
        for (mut handle, mut stream) in workers {
            let budget = &budget;
            let scheduler = scheduler.as_ref().map(Arc::clone);
            scope.spawn(move || {
                let me = handle.proc_id();
                if let Some(sched) = &scheduler {
                    sched.start(me);
                }
                while budget.take() {
                    match stream.next_op() {
                        Op::Add => handle.add(()),
                        Op::Remove => {
                            // Aborts are recorded in the handle's stats and,
                            // per the paper, simply end the operation.
                            let _ = handle.try_remove();
                        }
                    }
                }
                // Deregister and deposit stats while still holding the
                // virtual-time token (see module docs).
                drop(handle);
                if let Some(sched) = &scheduler {
                    sched.finish(me);
                }
            });
        }
    });

    let makespan_ns = match &scheduler {
        Some(sched) => sched.makespan(),
        None => wall_start.elapsed().as_nanos() as u64,
    };

    // The trial is over: close the pool so its lifecycle ends explicitly —
    // any handle that leaked past the scope would drain the residue and
    // observe `Closed` instead of spinning against a dead experiment.
    // (Final segment sizes are reported below; close does not drain.)
    pool.close();

    let stats = pool.stats();
    let merged = stats.merged();
    debug_assert_eq!(merged.ops(), spec.total_ops, "every budgeted operation is accounted for");
    TrialMetrics {
        merged,
        per_proc: stats.per_proc,
        makespan_ns,
        final_sizes: pool.segment_sizes(),
        traces: pool.trace().map(|t| t.snapshot_sorted()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpool::PolicyKind;
    use workload::{Arrangement, JobMix, Workload};

    fn quick_spec(policy: PolicyKind, workload: Workload) -> ExperimentSpec {
        ExperimentSpec::paper(policy, workload).scaled(4, 400, 2)
    }

    #[test]
    fn sim_trial_accounts_for_every_operation() {
        let spec =
            quick_spec(PolicyKind::Linear, Workload::RandomMix { mix: JobMix::from_percent(50) });
        let t = run_single_trial(&spec, 0);
        assert_eq!(t.merged.ops(), 400);
        assert_eq!(t.per_proc.len(), 4);
        assert!(t.makespan_ns > 0);
    }

    #[test]
    fn sim_trials_are_deterministic() {
        for policy in PolicyKind::ALL {
            let spec = quick_spec(policy, Workload::RandomMix { mix: JobMix::from_percent(30) });
            let a = run_single_trial(&spec, 0);
            let b = run_single_trial(&spec, 0);
            assert_eq!(a.merged.adds, b.merged.adds, "{policy}");
            assert_eq!(a.merged.steals, b.merged.steals, "{policy}");
            assert_eq!(a.merged.segments_examined, b.merged.segments_examined, "{policy}");
            assert_eq!(a.makespan_ns, b.makespan_ns, "{policy}");
            assert_eq!(a.final_sizes, b.final_sizes, "{policy}");
        }
    }

    #[test]
    fn different_trials_differ() {
        let spec =
            quick_spec(PolicyKind::Random, Workload::RandomMix { mix: JobMix::from_percent(40) });
        let a = run_single_trial(&spec, 0);
        let b = run_single_trial(&spec, 1);
        // Streams are reseeded per trial; op mixes drift slightly.
        assert!(
            a.merged.adds != b.merged.adds || a.makespan_ns != b.makespan_ns,
            "independent trials should not be identical"
        );
    }

    #[test]
    fn sufficient_mix_rarely_steals() {
        let spec =
            quick_spec(PolicyKind::Tree, Workload::RandomMix { mix: JobMix::from_percent(80) });
        let t = run_single_trial(&spec, 0);
        let steal_frac = t.merged.steal_fraction().unwrap_or(0.0);
        assert!(steal_frac < 0.05, "80% adds should almost never steal: {steal_frac}");
    }

    #[test]
    fn pure_consumers_drain_and_abort() {
        let spec = quick_spec(
            PolicyKind::Linear,
            Workload::ProducerConsumer { producers: 0, arrangement: Arrangement::Contiguous },
        );
        let t = run_single_trial(&spec, 0);
        assert_eq!(t.merged.adds, 0);
        assert_eq!(t.merged.removes, spec.initial_elements, "exactly the initial fill came out");
        assert!(t.merged.aborted_removes > 0, "the rest of the budget aborted");
        assert!(t.final_sizes.iter().all(|&s| s == 0));
    }

    #[test]
    fn threaded_engine_also_works() {
        let mut spec =
            quick_spec(PolicyKind::Random, Workload::RandomMix { mix: JobMix::from_percent(60) });
        spec.engine = Engine::Threaded(None);
        let result = run_experiment(&spec);
        assert!(result.trials.iter().all(|t| t.merged.ops() == 400));
        // Raw threads keep wall-clock latencies.
        let avg_op_us = result.summary.avg_op_us;
        assert!(avg_op_us.is_defined() && avg_op_us.mean > 0.0, "{avg_op_us:?}");
    }

    #[test]
    fn run_experiment_aggregates_all_trials() {
        let spec = quick_spec(
            PolicyKind::Tree,
            Workload::ProducerConsumer { producers: 2, arrangement: Arrangement::Balanced },
        );
        let result = run_experiment(&spec);
        assert_eq!(result.trials.len(), 2);
        assert!(result.summary.avg_op_us.is_defined());
        assert_eq!(result.summary.makespan_ms.n, 2);
    }

    #[test]
    fn atomic_segments_give_same_shape() {
        let mut spec =
            quick_spec(PolicyKind::Linear, Workload::RandomMix { mix: JobMix::from_percent(30) });
        spec.segment = SegmentKind::AtomicCounter;
        let t = run_single_trial(&spec, 0);
        assert_eq!(t.merged.ops(), 400);
        assert!(t.merged.steals > 0, "sparse mix must steal");
    }

    #[test]
    fn traces_recorded_when_enabled() {
        let mut spec = quick_spec(
            PolicyKind::Linear,
            Workload::ProducerConsumer { producers: 1, arrangement: Arrangement::Contiguous },
        );
        spec.record_trace = true;
        spec.trials = 1;
        let t = run_single_trial(&spec, 0);
        let traces = t.traces.expect("tracing enabled");
        assert!(!traces.is_empty());
        assert!(traces.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }
}
