//! The in-memory span recorder and the wrappers that feed it.
//!
//! Spans are recorded from outside the runtime, around the calls into
//! each layer: [`TracedCtl`] turns every controller step (`current_m`
//! → `observe`) into a round or window span, and [`TracedOp`] times
//! every operator attempt. Attempts are not kept one by one; they are
//! folded per parent span and per worker lane ([`OpFold`]), so a
//! million attempts cost a few thousand records. Everything stays in
//! memory until [`Tracer::finish`], and [`Trace::to_json`] writes it
//! out at the end of the run.

use optpar_core::control::Controller;
use optpar_runtime::{Abort, Operator, TaskCtx};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Id of the implicit root: spans with this parent are top level.
pub const ROOT: u64 = 0;

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Worker count of the drain the span belongs to: folded operator
    /// time under this span is spread over this many lanes when its
    /// self time is computed.
    pub workers: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Operator attempts folded under one parent span on one lane.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpFold {
    pub attempts: u64,
    pub ns: u64,
    pub commits: u64,
    pub aborts_conflict: u64,
    pub aborts_other: u64,
    pub acquires: u64,
    pub undo: u64,
    pub spawned: u64,
}

impl OpFold {
    pub fn add(&mut self, o: &OpFold) {
        self.attempts += o.attempts;
        self.ns += o.ns;
        self.commits += o.commits;
        self.aborts_conflict += o.aborts_conflict;
        self.aborts_other += o.aborts_other;
        self.acquires += o.acquires;
        self.undo += o.undo;
        self.spawned += o.spawned;
    }
}

/// One worker thread's fold buffer: the current parent's running fold
/// plus every earlier parent's total.
#[derive(Default)]
struct Lane {
    parent: u64,
    cur: OpFold,
    done: HashMap<u64, OpFold>,
}

impl Lane {
    fn flush(&mut self) {
        if self.cur.attempts > 0 {
            self.done.entry(self.parent).or_default().add(&self.cur);
        }
        self.cur = OpFold::default();
    }
}

/// Distinguishes tracers, so a thread's cached lane is never reused
/// by a later tracer.
static TRACER_GEN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static LANE: RefCell<Option<(u64, Arc<Mutex<Lane>>)>> = const { RefCell::new(None) };
}

/// The recorder: closed spans, plus one fold lane per thread that ran
/// a traced attempt.
pub struct Tracer {
    epoch: Instant,
    gen: u64,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    lanes: Mutex<Vec<Arc<Mutex<Lane>>>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            gen: TRACER_GEN.fetch_add(1, Ordering::Relaxed),
            next_id: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
            lanes: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Record span `id`, which started at `start_ns` and ends now.
    pub fn close(&self, id: u64, parent: u64, name: &'static str, start_ns: u64, workers: usize) {
        self.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: self.now_ns(),
            workers: workers as u32,
        });
    }

    /// Fold one attempt into the calling thread's lane.
    fn fold(&self, parent: u64, one: &OpFold) {
        LANE.with(|cell| {
            let mut slot = cell.borrow_mut();
            let fresh = !matches!(&*slot, Some((g, _)) if *g == self.gen);
            if fresh {
                let lane = Arc::new(Mutex::new(Lane::default()));
                self.lanes
                    .lock()
                    .expect("lane list poisoned")
                    .push(lane.clone());
                *slot = Some((self.gen, lane));
            }
            let (_, lane) = slot.as_ref().expect("lane installed above");
            let mut l = lane.lock().expect("lane poisoned");
            if l.parent != parent {
                l.flush();
                l.parent = parent;
            }
            l.cur.add(one);
        });
    }

    /// Stop recording and hand the trace over.
    pub fn finish(self) -> Trace {
        let mut folds = Vec::new();
        let lanes = self.lanes.into_inner().expect("lane list poisoned");
        for (i, lane) in lanes.iter().enumerate() {
            let mut l = lane.lock().expect("lane poisoned");
            l.flush();
            let mut done: Vec<(u64, OpFold)> = l.done.drain().collect();
            done.sort_by_key(|&(p, _)| p);
            folds.extend(done.into_iter().map(|(parent, f)| (parent, i as u32, f)));
        }
        Trace {
            spans: self.spans.into_inner().expect("span list poisoned"),
            folds,
        }
    }
}

/// A finished trace: closed spans and operator folds
/// `(parent span, lane, fold)`.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub folds: Vec<(u64, u32, OpFold)>,
}

impl Trace {
    /// Self time of every span: its duration minus the part of it that
    /// its child spans cover (the union of their intervals, clipped to
    /// the span) minus its folded operator time spread over the span's
    /// `workers` lanes. Never negative.
    pub fn self_ns(&self) -> HashMap<u64, u64> {
        let mut kids: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            kids.entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut op_ns: HashMap<u64, u64> = HashMap::new();
        for (p, _, f) in &self.folds {
            *op_ns.entry(*p).or_default() += f.ns;
        }
        self.spans
            .iter()
            .map(|s| {
                let covered = kids
                    .get_mut(&s.id)
                    .map_or(0, |iv| union_len(iv, s.start_ns, s.end_ns));
                let ops = op_ns.get(&s.id).copied().unwrap_or(0) / u64::from(s.workers.max(1));
                (s.id, s.dur_ns().saturating_sub(covered).saturating_sub(ops))
            })
            .collect()
    }

    /// Sum of the folds whose parent span satisfies `keep`.
    pub fn fold_where(&self, keep: impl Fn(u64) -> bool) -> OpFold {
        let mut t = OpFold::default();
        for (p, _, f) in &self.folds {
            if keep(*p) {
                t.add(f);
            }
        }
        t
    }

    /// The trace as JSON: spans with their self time, and folds.
    pub fn to_json(&self) -> String {
        let own = self.self_ns();
        let mut s = String::from("{\"spans\": [");
        for (i, sp) in self.spans.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"workers\": {}, \"self_ns\": {}}}",
                if i == 0 { "" } else { "," },
                sp.id,
                sp.parent,
                sp.name,
                sp.start_ns,
                sp.end_ns,
                sp.workers,
                own.get(&sp.id).copied().unwrap_or(0),
            );
        }
        s.push_str("],\n\"op_folds\": [");
        for (i, (p, lane, f)) in self.folds.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n{{\"parent\": {p}, \"lane\": {lane}, \"attempts\": {}, \"ns\": {}, \
                 \"commits\": {}, \"aborts_conflict\": {}, \"aborts_other\": {}, \
                 \"acquires\": {}, \"undo\": {}, \"spawned\": {}}}",
                if i == 0 { "" } else { "," },
                f.attempts,
                f.ns,
                f.commits,
                f.aborts_conflict,
                f.aborts_other,
                f.acquires,
                f.undo,
                f.spawned,
            );
        }
        s.push_str("]}\n");
        s
    }
}

/// Length of the union of intervals `iv`, clipped to `[lo, hi)`.
fn union_len(iv: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in iv.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Per-drain trace state shared by one drain's operator and controller
/// wrappers: the drain span, and the round or window span that
/// attempts starting now belong to.
pub struct DrainTrace<'t> {
    pub tracer: &'t Tracer,
    pub drain: u64,
    pub workers: usize,
    span_name: &'static str,
    current: AtomicU64,
}

impl<'t> DrainTrace<'t> {
    /// `span_name` names the controller steps: "round" or "window".
    pub fn new(tracer: &'t Tracer, drain: u64, workers: usize, span_name: &'static str) -> Self {
        DrainTrace {
            tracer,
            drain,
            workers,
            span_name,
            current: AtomicU64::new(drain),
        }
    }
}

/// Operator wrapper: times each attempt and folds its outcome.
pub struct TracedOp<'a, O> {
    inner: &'a O,
    dt: &'a DrainTrace<'a>,
}

impl<'a, O> TracedOp<'a, O> {
    pub fn new(inner: &'a O, dt: &'a DrainTrace<'a>) -> Self {
        TracedOp { inner, dt }
    }
}

impl<O: Operator> Operator for TracedOp<'_, O> {
    type Task = O::Task;

    fn execute(&self, task: &O::Task, cx: &mut TaskCtx<'_>) -> Result<Vec<O::Task>, Abort> {
        let parent = self.dt.current.load(Ordering::Relaxed);
        let acquired_before = cx.acquires;
        let t0 = Instant::now();
        let out = self.inner.execute(task, cx);
        let ns = t0.elapsed().as_nanos() as u64;
        let mut one = OpFold {
            attempts: 1,
            ns,
            acquires: (cx.acquires - acquired_before) as u64,
            undo: cx.undo_len() as u64,
            ..OpFold::default()
        };
        match &out {
            Ok(spawned) => {
                one.commits = 1;
                one.spawned = spawned.len() as u64;
            }
            Err(Abort::Conflict { .. }) => one.aborts_conflict = 1,
            Err(_) => one.aborts_other = 1,
        }
        self.dt.tracer.fold(parent, &one);
        out
    }

    fn conflict_seed(&self, task: &O::Task) -> Option<u64> {
        self.inner.conflict_seed(task)
    }
}

/// What a [`TracedCtl`] saw over one drain.
#[derive(Clone, Debug, Default)]
pub struct CtlLog {
    /// `m` returned by the `current_m` that opened each step.
    pub m: Vec<usize>,
    /// `r` passed to each `observe`.
    pub r: Vec<f64>,
    /// Time inside the wrapped controller's `observe`, per call.
    pub observe_ns: Vec<u64>,
    pub rho: Option<f64>,
}

impl CtlLog {
    /// First step whose `r` lies within 0.1 of ρ (the convergence rule
    /// the throughput bench uses); the step count when none does.
    pub fn converge_round(&self) -> usize {
        let rho = self.rho.unwrap_or(0.0);
        self.r
            .iter()
            .position(|r| (r - rho).abs() <= 0.1)
            .unwrap_or(self.r.len())
    }
}

/// Controller wrapper: each `current_m` that finds no step open opens
/// a round/window span, and each `observe` closes it, so the span runs
/// from the allocation decision to the report of its outcome.
pub struct TracedCtl<'a, C> {
    inner: C,
    dt: &'a DrainTrace<'a>,
    open: Cell<Option<(u64, u64)>>,
    log: RefCell<CtlLog>,
}

impl<'a, C: Controller> TracedCtl<'a, C> {
    pub fn new(inner: C, dt: &'a DrainTrace<'a>) -> Self {
        let rho = inner.target_rho();
        TracedCtl {
            inner,
            dt,
            open: Cell::new(None),
            log: RefCell::new(CtlLog {
                rho,
                ..CtlLog::default()
            }),
        }
    }

    /// Close a step left open at the end of the drain and return the
    /// log.
    pub fn finish(self) -> CtlLog {
        if let Some((id, start)) = self.open.take() {
            self.close(id, start);
        }
        self.log.into_inner()
    }

    fn close(&self, id: u64, start: u64) {
        self.dt
            .tracer
            .close(id, self.dt.drain, self.dt.span_name, start, self.dt.workers);
    }
}

impl<C: Controller> Controller for TracedCtl<'_, C> {
    fn current_m(&self) -> usize {
        let m = self.inner.current_m();
        if self.open.get().is_none() {
            let id = self.dt.tracer.new_id();
            self.open.set(Some((id, self.dt.tracer.now_ns())));
            self.dt.current.store(id, Ordering::Relaxed);
            self.log.borrow_mut().m.push(m);
        }
        m
    }

    fn observe(&mut self, r: f64, launched: usize) {
        let t0 = Instant::now();
        self.inner.observe(r, launched);
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some((id, start)) = self.open.take() {
            self.close(id, start);
        }
        let log = self.log.get_mut();
        log.observe_ns.push(ns);
        log.r.push(r);
    }

    fn target_rho(&self) -> Option<f64> {
        self.inner.target_rho()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, a: u64, b: u64, w: u32) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: a,
            end_ns: b,
            workers: w,
        }
    }

    #[test]
    fn self_time_subtracts_child_union_and_spread_op_time() {
        // drain [0, 1000) at w = 2 with three rounds, two overlapping
        // and one poking past the drain's end.
        let t = Trace {
            spans: vec![
                span(1, ROOT, "drain", 0, 1000, 2),
                span(2, 1, "round", 100, 400, 2),
                span(3, 1, "round", 300, 500, 2),
                span(4, 1, "round", 900, 1200, 2),
                span(5, ROOT, "probe", 2000, 2100, 1),
            ],
            folds: vec![
                (
                    2,
                    0,
                    OpFold {
                        attempts: 3,
                        ns: 200,
                        ..OpFold::default()
                    },
                ),
                (
                    2,
                    1,
                    OpFold {
                        attempts: 2,
                        ns: 100,
                        ..OpFold::default()
                    },
                ),
                (
                    4,
                    0,
                    OpFold {
                        attempts: 1,
                        ns: 900,
                        ..OpFold::default()
                    },
                ),
            ],
        };
        let own = t.self_ns();
        // children cover [100, 500) ∪ [900, 1000) = 500 ns
        assert_eq!(own[&1], 500);
        // 300 ns minus (200 + 100) / 2 op ns
        assert_eq!(own[&2], 150);
        assert_eq!(own[&3], 200);
        // op time beyond the span's length clamps at zero
        assert_eq!(own[&4], 0);
        assert_eq!(own[&5], 100);
        let f = t.fold_where(|p| p == 2);
        assert_eq!((f.attempts, f.ns), (5, 300));
    }

    #[test]
    fn union_len_merges_and_clips() {
        let mut iv = vec![(5, 10), (0, 3), (2, 6), (20, 30)];
        assert_eq!(union_len(&mut iv, 0, 25), 10 + 5);
        assert_eq!(union_len(&mut [], 0, 25), 0);
    }

    #[test]
    fn lanes_fold_per_parent_and_thread() {
        let tr = Tracer::default();
        let one = OpFold {
            attempts: 1,
            ns: 10,
            commits: 1,
            ..OpFold::default()
        };
        tr.fold(7, &one);
        tr.fold(7, &one);
        tr.fold(8, &one);
        tr.fold(7, &one);
        std::thread::scope(|s| {
            s.spawn(|| tr.fold(7, &one));
        });
        let t = tr.finish();
        let by = |p, lane| {
            t.folds
                .iter()
                .find(|&&(fp, fl, _)| fp == p && fl == lane)
                .map(|x| x.2.attempts)
        };
        assert_eq!(by(7, 0), Some(3));
        assert_eq!(by(8, 0), Some(1));
        assert_eq!(by(7, 1), Some(1));
        assert_eq!(t.folds.len(), 3);
    }
}
