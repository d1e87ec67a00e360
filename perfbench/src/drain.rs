//! One drain through a runtime entry point, with or without the trace
//! wrappers. The untraced path hands the application's own operator
//! and controller to the runtime, so end-to-end timings carry no
//! wrapper cost.

use crate::trace::{CtlLog, DrainTrace, TracedCtl, TracedOp, Tracer};
use optpar_core::control::{Controller, HybridController, HybridParams};
use optpar_runtime::{
    Executor, ExecutorConfig, JobCx, JobError, LockSpace, Operator, PipelinedConfig, Placement,
    RunStats, WorkSet,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Where a traced drain hangs in the span tree.
#[derive(Clone, Copy)]
pub struct TraceCx<'t> {
    pub tracer: &'t Arc<Tracer>,
    pub parent: u64,
}

/// What the trace wrappers saw over one drain.
pub struct Traced {
    pub span: u64,
    pub ctl: CtlLog,
}

/// A runtime entry point that drains a work-set with a given operator
/// and controller.
pub trait Runner<T> {
    type Out;
    fn run<O: Operator<Task = T>, C: Controller + Send>(
        &mut self,
        op: &O,
        ctl: &mut C,
    ) -> Self::Out;
}

/// Drain through `runner` under the default hybrid controller. With a
/// trace context the operator and controller are wrapped, and the
/// drain is recorded as a `span` span whose controller steps are
/// `step` spans.
pub fn drain<O: Operator, R: Runner<O::Task>>(
    op: &O,
    runner: &mut R,
    tcx: Option<TraceCx<'_>>,
    workers: usize,
    span: &'static str,
    step: &'static str,
) -> (R::Out, Option<Traced>) {
    let ctl = HybridController::new(HybridParams::default());
    match tcx {
        None => {
            let mut ctl = ctl;
            (runner.run(op, &mut ctl), None)
        }
        Some(t) => {
            let start = t.tracer.now_ns();
            let dt = DrainTrace::new(t.tracer, t.tracer.new_id(), workers, step);
            let top = TracedOp::new(op, &dt);
            let mut tc = TracedCtl::new(ctl, &dt);
            let out = runner.run(&top, &mut tc);
            let ctl = tc.finish();
            t.tracer.close(dt.drain, t.parent, span, start, workers);
            (
                out,
                Some(Traced {
                    span: dt.drain,
                    ctl,
                }),
            )
        }
    }
}

fn executor<'a, O: Operator>(op: &'a O, space: &'a LockSpace, workers: usize) -> Executor<'a, O> {
    Executor::new(
        op,
        space,
        ExecutorConfig {
            workers,
            ..ExecutorConfig::default()
        },
    )
}

/// `Executor::run_pipelined_placed` with the default pipeline
/// settings. Times the executor call only; building the executor (and
/// its pool) and dropping it are outside.
pub struct Pipelined<'a, T> {
    pub space: &'a LockSpace,
    pub ws: &'a mut WorkSet<T>,
    pub workers: usize,
    pub seed: u64,
    pub place: Option<Placement<'a, T>>,
}

impl<T> Runner<T> for Pipelined<'_, T> {
    type Out = (f64, RunStats);
    fn run<O: Operator<Task = T>, C: Controller + Send>(
        &mut self,
        op: &O,
        ctl: &mut C,
    ) -> (f64, RunStats) {
        let ex = executor(op, self.space, self.workers);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let t0 = Instant::now();
        let run = ex.run_pipelined_placed(
            self.ws,
            ctl,
            PipelinedConfig::default(),
            &mut rng,
            self.place,
        );
        (t0.elapsed().as_secs_f64(), run)
    }
}

/// `JobCx::drive`: a service job's drain on the shared pool.
pub struct Drive<'a, 'c, T> {
    pub cx: &'a mut JobCx<'c>,
    pub space: &'a LockSpace,
    pub ws: &'a mut WorkSet<T>,
    pub seed: u64,
}

impl<T> Runner<T> for Drive<'_, '_, T> {
    type Out = Result<(), JobError>;
    fn run<O: Operator<Task = T>, C: Controller + Send>(
        &mut self,
        op: &O,
        ctl: &mut C,
    ) -> Result<(), JobError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.cx.drive(op, self.space, self.ws, ctl, &mut rng)
    }
}
