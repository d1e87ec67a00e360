//! Layer probes: each calls one layer's public entry point in a tight
//! loop and reports nanoseconds per call over several batches.

use crate::stats::Summary;
use optpar_core::control::FixedController;
use optpar_runtime::{
    Abort, Executor, ExecutorConfig, LockSpace, Operator, ShardMap, SpecStore, TaskCtx, WorkSet,
    WorkerPool,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Batches per probe: each yields one ns/call sample.
const BATCHES: usize = 9;

/// Slots in the probe store, and slots each probe task touches.
const PROBE_SLOTS: usize = 1 << 15;
const SLOTS_PER_TASK: usize = 8;

/// A bench-owned operator that times batches of `TaskCtx::lock`, then
/// `read` and then `write` (first write per slot, so each records an
/// undo snapshot) over its own disjoint block of slots. Task `b` owns
/// slots `[b·8, b·8 + 8)`, so no attempt conflicts.
struct StoreProbe<'a> {
    store: &'a SpecStore<u64>,
    lock_ns: AtomicU64,
    read_ns: AtomicU64,
    write_ns: AtomicU64,
}

impl Operator for StoreProbe<'_> {
    type Task = u32;

    fn execute(&self, &b: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {
        let slots = b as usize * SLOTS_PER_TASK..(b as usize + 1) * SLOTS_PER_TASK;
        let t0 = Instant::now();
        for i in slots.clone() {
            cx.lock(self.store, i)?;
        }
        let t1 = Instant::now();
        for i in slots.clone() {
            black_box(cx.read(self.store, i)?);
        }
        let t2 = Instant::now();
        for i in slots {
            *cx.write(self.store, i)? += 1;
        }
        let t3 = Instant::now();
        let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
        self.lock_ns.fetch_add(ns(t0, t1), Ordering::Relaxed);
        self.read_ns.fetch_add(ns(t1, t2), Ordering::Relaxed);
        self.write_ns.fetch_add(ns(t2, t3), Ordering::Relaxed);
        Ok(Vec::new())
    }
}

/// ns per call of `TaskCtx::lock`, `read` and `write`, each a summary
/// over batches, and whether every slot ended at the batch count.
pub struct StoreNs {
    pub lock: Summary,
    pub read: Summary,
    pub write_undo: Summary,
    pub correct: bool,
}

/// Run the store probe at one worker (inline, uncontended) over a flat
/// store, or over a store sharded eight ways with slot `i` in shard
/// `i mod 8`, so consecutive slots sit in different slabs.
pub fn store_probe(sharded: bool) -> StoreNs {
    let mut b = LockSpace::builder();
    let mut store = if sharded {
        let parts: Vec<u32> = (0..PROBE_SLOTS as u32).map(|i| i % 8).collect();
        let map = Arc::new(ShardMap::from_parts(&parts, 8));
        let r = b.region_aligned(map.padded_len());
        SpecStore::new_sharded(r, vec![0u64; PROBE_SLOTS], 0, map)
    } else {
        let r = b.region(PROBE_SLOTS);
        SpecStore::filled(r, PROBE_SLOTS, 0u64)
    };
    let space = b.build();
    let tasks = (PROBE_SLOTS / SLOTS_PER_TASK) as u32;
    let (mut lock, mut read, mut write) = (Vec::new(), Vec::new(), Vec::new());
    for batch in 0..BATCHES {
        let op = StoreProbe {
            store: &store,
            lock_ns: AtomicU64::new(0),
            read_ns: AtomicU64::new(0),
            write_ns: AtomicU64::new(0),
        };
        let ex = Executor::new(
            &op,
            &space,
            ExecutorConfig {
                workers: 1,
                ..ExecutorConfig::default()
            },
        );
        let mut ws = WorkSet::from_vec((0..tasks).collect());
        let mut ctl = FixedController::new(tasks as usize);
        let mut rng = StdRng::seed_from_u64(batch as u64);
        ex.run_with_controller(&mut ws, &mut ctl, usize::MAX, &mut rng);
        let per = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 / PROBE_SLOTS as f64;
        lock.push(per(&op.lock_ns));
        read.push(per(&op.read_ns));
        write.push(per(&op.write_ns));
    }
    let correct =
        space.check_all_free().is_ok() && store.snapshot().iter().all(|&v| v == BATCHES as u64);
    StoreNs {
        lock: Summary::of(&lock),
        read: Summary::of(&read),
        write_undo: Summary::of(&write),
        correct,
    }
}

/// ns per drawn task of `WorkSet::sample_drain` at draw size `m`, over
/// a 2^16-task set drained to empty in each batch.
pub fn draw_probe(m: usize) -> Summary {
    const TASKS: u32 = 1 << 16;
    let m = m.max(1);
    let mut rng = StdRng::seed_from_u64(0xD4A3);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut ws = WorkSet::from_vec((0..TASKS).collect());
            let t0 = Instant::now();
            while !ws.is_empty() {
                black_box(ws.sample_drain(m, &mut rng));
            }
            t0.elapsed().as_nanos() as f64 / f64::from(TASKS)
        })
        .collect();
    Summary::of(&samples)
}

/// ns per `WorkerPool::run` of an empty job at `workers` workers: the
/// round rendezvous alone.
pub fn rendezvous_probe(workers: usize) -> Summary {
    const CALLS: usize = 2000;
    let pool = WorkerPool::new(workers);
    let empty = |_: usize| {};
    for _ in 0..CALLS / 10 {
        pool.run(&empty).expect("probe pool is live");
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..CALLS {
                pool.run(&empty).expect("probe pool is live");
            }
            t0.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    Summary::of(&samples)
}
