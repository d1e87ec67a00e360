//! **TAB-CONT** (ablation) — round-synchronous vs barrier-free
//! execution: how much of the measured conflict ratio comes from the
//! model's round co-residency (committed tasks blocking the rest of
//! the round) versus genuine temporal overlap.
//!
//! Round mode realizes the paper's `r̄(m)` exactly. The barrier-free
//! side is the pipelined executor at batch 1: it keeps a budget of `m`
//! tasks in flight and retires each task's locks as soon as it
//! finishes, so its conflict ratio at the same `m` is lower and the
//! adaptive controller consequently sustains a *larger* allocation for
//! the same target ρ — free parallelism the round model leaves on the
//! table.
//!
//! Caveat: barrier-free conflicts require *hardware* overlap. On a
//! host with few CPUs the measured ratio stays near 0 regardless of
//! budget (tasks rarely truly interleave), so the controller opens
//! the budget wide — read the pipelined rows as a lower bound that
//! grows with real core counts.
//!
//! Usage: `cargo run --release -p optpar-bench --bin
//! ablation_continuous [--csv]`

use optpar_apps::ccmirror::CcMirror;
use optpar_bench::{f, pct, Table, SEED};
use optpar_core::control::{Controller, FixedController, HybridController};
use optpar_graph::gen;
use optpar_runtime::{
    ConflictPolicy, Executor, ExecutorConfig, LockSpace, PipelinedConfig, RunStats, WorkSet,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build(n: usize, d: f64, seed: u64) -> (LockSpace, CcMirror) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::random_with_avg_degree(n, d, &mut rng);
    let mut b = LockSpace::builder();
    let layout = CcMirror::layout(&g, &mut b);
    let space = b.build();
    let mirror = layout.finish(&space);
    (space, mirror)
}

/// Which executor drains the work-set.
#[derive(Clone, Copy)]
enum Mode {
    Round,
    /// `run_pipelined` with one task per batch: every task retires
    /// its locks the moment it finishes.
    Pipelined,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Round => "round",
            Mode::Pipelined => "pipelined (batch 1)",
        }
    }
}

/// Drain the CC-mirror work-set once under `ctl`.
fn drain<C: Controller + Send>(
    mode: Mode,
    n: usize,
    workers: usize,
    ctl: &mut C,
    seed: u64,
) -> RunStats {
    let (space, op) = build(n, 12.0, SEED);
    let ex = Executor::new(
        &op,
        &space,
        ExecutorConfig {
            workers,
            policy: ConflictPolicy::FirstWins,
            ..ExecutorConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ws = WorkSet::from_vec((0..n as u32).collect::<Vec<_>>());
    match mode {
        Mode::Round => ex.run_with_controller(&mut ws, ctl, 1_000_000, &mut rng),
        Mode::Pipelined => ex.run_pipelined(
            &mut ws,
            ctl,
            PipelinedConfig {
                window: 128,
                batch: 1,
                max_completions: 10_000_000,
            },
            &mut rng,
        ),
    }
}

fn main() {
    let n = 4000;
    let workers = 4;

    let mut table = Table::new(["mode", "allocation", "steady/overall r", "committed"]);

    // Fixed allocations: drain the whole work-set once.
    for mode in [Mode::Round, Mode::Pipelined] {
        let what = match mode {
            Mode::Round => "fixed",
            Mode::Pipelined => "budget",
        };
        for &m in &[64usize, 256] {
            let run = drain(mode, n, workers, &mut FixedController::new(m), SEED + 1);
            table.row([
                mode.name().to_string(),
                format!("{what} {m}"),
                pct(run.overall_conflict_ratio()),
                run.total_committed().to_string(),
            ]);
        }
    }
    // Adaptive in both modes.
    for mode in [Mode::Round, Mode::Pipelined] {
        let mut ctl = HybridController::with_rho(0.25);
        let run = drain(mode, n, workers, &mut ctl, SEED + 2);
        let tail = run.rounds.len() / 2;
        let steady: f64 = run.rounds[tail..].iter().map(|r| r.m as f64).sum::<f64>()
            / (run.rounds.len() - tail).max(1) as f64;
        table.row([
            mode.name().to_string(),
            format!("hybrid (steady m = {})", f(steady, 0)),
            pct(run.overall_conflict_ratio()),
            run.total_committed().to_string(),
        ]);
    }

    println!(
        "TAB-CONT: round vs barrier-free (pipelined, batch 1) execution, CC-mirror on n = {n}, d = 12, {workers} workers"
    );
    table.print("ablation — what round co-residency costs");
}
