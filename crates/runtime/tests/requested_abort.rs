//! The checker excuses an operator-requested abort in every executor
//! mode: the commit-set oracle must not expect a task that called
//! `cx.abort_requested()` to commit. The pipelined executor once ran
//! its own copy of the task attempt without this mark and failed with
//! a false `ORACLE DIVERGENCE … missing commits` at one worker; the
//! round executor is the control.
#![cfg(feature = "checker")]

use optpar_core::control::FixedController;
use optpar_runtime::{
    Abort, Executor, ExecutorConfig, LockSpace, Operator, PipelinedConfig, RunStats, SpecStore,
    TaskCtx, WorkSet,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};

const TASKS: usize = 16;

/// Task `i` writes its own slot; task 3 requests an abort once.
struct DeclineOnce<'s> {
    store: &'s SpecStore<u64>,
    armed: AtomicBool,
}

impl Operator for DeclineOnce<'_> {
    type Task = usize;

    fn execute(&self, &i: &usize, cx: &mut TaskCtx<'_>) -> Result<Vec<usize>, Abort> {
        *cx.write(self.store, i)? += 1;
        if i == 3 && self.armed.swap(false, Ordering::AcqRel) {
            return cx.abort_requested();
        }
        Ok(vec![])
    }
}

/// Drain the tasks on one worker through `run`; every task commits
/// exactly once and the declined attempt is rolled back.
fn drain(run: impl FnOnce(&Executor<'_, DeclineOnce<'_>>, &mut WorkSet<usize>) -> RunStats) {
    let mut b = LockSpace::builder();
    let r = b.region(TASKS);
    let space = b.build();
    let mut store = SpecStore::filled(r, TASKS, 0u64);
    let op = DeclineOnce {
        store: &store,
        armed: AtomicBool::new(true),
    };
    let cfg = ExecutorConfig {
        workers: 1,
        ..ExecutorConfig::default()
    };
    let mut ws = WorkSet::from_vec((0..TASKS).collect::<Vec<_>>());
    let stats = run(&Executor::new(&op, &space, cfg), &mut ws);
    assert!(ws.is_empty());
    assert_eq!(stats.total_committed(), TASKS);
    assert_eq!(stats.total_aborted(), 1, "task 3 declined once");
    assert!(store.snapshot().iter().all(|&v| v == 1));
}

#[test]
fn pipelined_excuses_requested_abort() {
    drain(|ex, ws| {
        let mut rng = StdRng::seed_from_u64(3);
        ex.run_pipelined(
            ws,
            &mut FixedController::new(8),
            PipelinedConfig::default(),
            &mut rng,
        )
    });
}

#[test]
fn round_excuses_requested_abort() {
    drain(|ex, ws| {
        let mut rng = StdRng::seed_from_u64(3);
        ex.run_with_controller(ws, &mut FixedController::new(8), 1_000, &mut rng)
    });
}
