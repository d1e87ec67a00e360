//! The two workloads: inputs made from the seed, one verified drain
//! per call, and the sequential references the drains are checked
//! against (built in setup, outside every timed region). Also the
//! service mix, whose job batches the traced run probes the service
//! layer with.

use crate::drain::{drain, Drive, Pipelined, TraceCx, Traced};
use crate::trace::Tracer;
use optpar_apps::boruvka::{BoruvkaOp, WeightedGraph};
use optpar_apps::ccmirror::CcMirror;
use optpar_apps::delaunay::{bad_count, DelaunayOp, RefineConfig};
use optpar_apps::geometry::Point;
use optpar_apps::sssp::{SsspInput, SsspOp};
use optpar_apps::triangulation::Mesh;
use optpar_core::partition::bfs_partition;
use optpar_graph::{gen, ConflictGraph, CsrGraph};
use optpar_runtime::{
    serve, JobCx, JobError, JobOutput, JobSpec, LockSpace, Operator, ServiceConfig, ServiceStats,
    WorkSet,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const NAMES: [&str; 2] = ["sssp-rmat", "ccmirror-road"];

/// Parts of the ccmirror road partition, and the partition's balance
/// cap.
pub const PARTS: usize = 8;
pub const IMBALANCE: f64 = 1.25;
/// Jobs per traced service batch, and the distinct inputs per job kind.
pub const JOBS_PER_BATCH: usize = 60;
const MIX_INPUTS: usize = 4;

/// Input sizes of the workloads.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// R-MAT scale of the sssp graph (edge factor 8).
    pub sssp_scale: u32,
    /// Nodes of the ccmirror road graph.
    pub road_nodes: usize,
}

impl Sizes {
    /// The benchmark's sizes: each drain takes a few tenths of a
    /// second on a 2-CPU box, so a run holds enough drains for a
    /// stable median.
    pub const FULL: Sizes = Sizes {
        sssp_scale: 15,
        road_nodes: 1 << 19,
    };
}

/// Wall seconds of each setup step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Input generation, plus building the runtime store where set-up
    /// does (ccmirror-road's sharded layout).
    pub gen_s: f64,
    pub reference_s: f64,
    /// Seconds and cut fraction of the partition build, for workloads
    /// that partition.
    pub partition: Option<(f64, f64)>,
}

/// Time `f`, recording a span under `tcx` when tracing.
fn step<R>(tcx: Option<TraceCx<'_>>, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let start = tcx.map(|t| t.tracer.now_ns());
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    if let (Some(t), Some(start)) = (tcx, start) {
        t.tracer.close(t.tracer.new_id(), t.parent, name, start, 1);
    }
    (out, secs)
}

/// One reported service job.
#[derive(Clone, Debug, Default)]
pub struct JobRec {
    pub latency_ms: f64,
    pub rounds: usize,
    pub committed: usize,
    pub aborted: usize,
    /// Why the job failed verification or errored, if it did.
    pub failure: Option<String>,
}

/// The outcome of one drain (or of one service batch).
#[derive(Default)]
pub struct DrainOut {
    pub secs: f64,
    pub committed: usize,
    pub aborted: usize,
    pub launched: usize,
    /// Units checked: 1 for a drain, the job count for a batch.
    pub attempted: usize,
    /// One line per unit that failed verification, errored or was
    /// shed.
    pub failures: Vec<String>,
    pub traced: Vec<Traced>,
    /// The drain's (or batch's) span, when traced.
    pub span: Option<u64>,
    pub jobs: Vec<JobRec>,
    pub stats: Option<ServiceStats>,
}

impl DrainOut {
    fn single(secs: f64, run: &optpar_runtime::RunStats, why: Option<String>) -> Self {
        DrainOut {
            secs,
            committed: run.total_committed(),
            aborted: run.total_aborted() + run.total_faulted(),
            launched: run.total_launched(),
            attempted: 1,
            failures: why.into_iter().collect(),
            ..DrainOut::default()
        }
    }
}

pub enum Workload {
    Sssp(Sssp),
    CcMirror(CcMirrorRoad),
}

impl Workload {
    /// Build the workload's inputs and references from `seed`.
    pub fn setup(
        name: &str,
        seed: u64,
        sizes: Sizes,
        tcx: Option<TraceCx<'_>>,
    ) -> Option<(Workload, SetupTimes)> {
        Some(match name {
            "sssp-rmat" => {
                let (w, t) = Sssp::setup(seed, sizes.sssp_scale, tcx);
                (Workload::Sssp(w), t)
            }
            "ccmirror-road" => {
                let (w, t) = CcMirrorRoad::setup(seed, sizes.road_nodes, tcx);
                (Workload::CcMirror(w), t)
            }
            _ => return None,
        })
    }

    /// One verified drain at `workers`.
    pub fn drain(&mut self, workers: usize, seed: u64, tcx: Option<TraceCx<'_>>) -> DrainOut {
        match self {
            Workload::Sssp(w) => w.drain(workers, seed, tcx),
            Workload::CcMirror(w) => w.drain(workers, seed, tcx),
        }
    }

    /// The workload's graph.
    pub fn graph(&self) -> &CsrGraph {
        match self {
            Workload::Sssp(w) => &w.input.graph,
            Workload::CcMirror(w) => &w.graph,
        }
    }
}

// ---------------------------------------------------------------------
// sssp-rmat
// ---------------------------------------------------------------------

pub struct Sssp {
    pub input: SsspInput,
    pub reference: Vec<u64>,
}

impl Sssp {
    pub fn setup(seed: u64, scale: u32, tcx: Option<TraceCx<'_>>) -> (Sssp, SetupTimes) {
        let (input, gen_s) = step(tcx, "setup.gen", || {
            let g = gen::rmat(scale, 8, seed);
            SsspInput::random(g, 0, 1000, &mut StdRng::seed_from_u64(seed))
        });
        let (reference, reference_s) = step(tcx, "setup.reference", || input.dijkstra());
        (
            Sssp { input, reference },
            SetupTimes {
                gen_s,
                reference_s,
                partition: None,
            },
        )
    }

    pub fn drain(&self, workers: usize, seed: u64, tcx: Option<TraceCx<'_>>) -> DrainOut {
        let (space, op) = SsspOp::new(self.input.clone());
        let mut ws = WorkSet::from_vec(op.initial_tasks());
        let mut runner = Pipelined {
            space: &space,
            ws: &mut ws,
            workers,
            seed,
            place: None,
        };
        let ((secs, run), traced) = drain(&op, &mut runner, tcx, workers, "drain", "window");
        let mut op = op;
        let why = if !ws.is_empty() {
            Some(format!("{} tasks left", ws.len()))
        } else if let Err(l) = space.check_all_free() {
            Some(format!("lock {l} still held"))
        } else if op.distances() != self.reference {
            Some("distances differ from Dijkstra".into())
        } else {
            None
        };
        let mut out = DrainOut::single(secs, &run, why);
        out.span = traced.as_ref().map(|t| t.span);
        out.traced.extend(traced);
        out
    }
}

// ---------------------------------------------------------------------
// ccmirror-road
// ---------------------------------------------------------------------

pub struct CcMirrorRoad {
    pub graph: CsrGraph,
    pub parts: Vec<u32>,
    reference: Vec<u64>,
    /// The partition-sharded store, built once in setup; each drain
    /// starts from zeroed counters.
    space: LockSpace,
    op: CcMirror,
}

impl CcMirrorRoad {
    pub fn setup(seed: u64, nodes: usize, tcx: Option<TraceCx<'_>>) -> (CcMirrorRoad, SetupTimes) {
        let (graph, gen_s) = step(tcx, "setup.gen", || gen::road_like(nodes, seed));
        let (part, part_s) = step(tcx, "setup.partition", || {
            bfs_partition(&graph, PARTS, IMBALANCE)
        });
        let ((space, op), layout_s) = step(tcx, "setup.layout", || {
            let mut b = LockSpace::builder();
            let lay = CcMirror::layout_sharded(&graph, &mut b, &part.parts, PARTS);
            let space = b.build();
            let op = lay.finish(&space);
            (space, op)
        });
        // Every node's counter must end at exactly 1.
        let (reference, reference_s) =
            step(tcx, "setup.reference", || vec![1u64; graph.node_count()]);
        let cut = part.cut_fraction();
        (
            CcMirrorRoad {
                graph,
                parts: part.parts,
                reference,
                space,
                op,
            },
            SetupTimes {
                gen_s: gen_s + layout_s,
                reference_s,
                partition: Some((part_s, cut)),
            },
        )
    }

    pub fn drain(&mut self, workers: usize, seed: u64, tcx: Option<TraceCx<'_>>) -> DrainOut {
        let n = self.graph.node_count();
        self.op.node_data.iter_mut().for_each(|c| *c = 0);
        self.op.edge_data.iter_mut().for_each(|c| *c = 0);
        let mut ws = WorkSet::from_vec((0..n as u32).collect::<Vec<_>>());
        let parts = &self.parts;
        let place = move |t: &u32| parts[*t as usize] as usize;
        let mut runner = Pipelined {
            space: &self.space,
            ws: &mut ws,
            workers,
            seed,
            place: Some(&place),
        };
        let ((secs, run), traced) = drain(&self.op, &mut runner, tcx, workers, "drain", "window");
        let why = if run.total_committed() != n {
            Some(format!("{} commits for {n} nodes", run.total_committed()))
        } else if let Err(l) = self.space.check_all_free() {
            Some(format!("lock {l} still held"))
        } else if self.op.node_data.snapshot() != self.reference {
            Some("a node counter is not 1".into())
        } else {
            None
        };
        let mut out = DrainOut::single(secs, &run, why);
        out.span = traced.as_ref().map(|t| t.span);
        out.traced.extend(traced);
        out
    }
}

// ---------------------------------------------------------------------
// service mix (the service-layer probe)
// ---------------------------------------------------------------------

/// The unit square's corners plus `n` uniform points inside it.
fn square_points(n: usize, rng: &mut StdRng) -> Vec<Point> {
    let mut pts = vec![
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(1.0, 1.0),
        Point::new(0.0, 1.0),
    ];
    pts.extend((0..n).map(|_| Point::new(rng.random::<f64>(), rng.random::<f64>())));
    pts
}

/// Why a refined mesh is wrong, if it is: it must be a valid
/// triangulation of the unit square with no bad triangle left.
fn check_mesh(mesh: &Mesh, cfg: RefineConfig) -> Option<String> {
    if let Err(e) = mesh.check_valid() {
        return Some(format!("invalid mesh: {e}"));
    }
    let bad = bad_count(mesh, cfg);
    if bad != 0 {
        return Some(format!("{bad} bad triangles left"));
    }
    let area = mesh.total_area();
    if (area - 1.0).abs() > 1e-6 {
        return Some(format!("total area {area} != 1"));
    }
    None
}

/// Input sizes of the service jobs.
#[derive(Clone, Copy, Debug)]
pub struct MixSizes {
    pub sssp_n: usize,
    pub boruvka_n: usize,
    pub delaunay_points: usize,
}

impl MixSizes {
    /// The service-layer probe's jobs.
    pub const PROBE: MixSizes = MixSizes {
        sssp_n: 200,
        boruvka_n: 150,
        delaunay_points: 10,
    };
}

const MIX_AREA: f64 = 1e-3;

/// Inputs and references of the service jobs, built once in setup.
pub struct ServiceMix {
    sssp: Vec<(SsspInput, Vec<u64>)>,
    boruvka: Vec<(WeightedGraph, (u64, usize))>,
    delaunay: Vec<Mesh>,
}

impl ServiceMix {
    pub fn setup(seed: u64, sizes: MixSizes, tcx: Option<TraceCx<'_>>) -> (ServiceMix, SetupTimes) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ((sssp, boruvka, delaunay), gen_s) = step(tcx, "setup.gen", || {
            let sssp: Vec<SsspInput> = (0..MIX_INPUTS)
                .map(|_| {
                    let g = gen::random_with_avg_degree(sizes.sssp_n, 6.0, &mut rng);
                    SsspInput::random(g, 0, 100, &mut rng)
                })
                .collect();
            let boruvka: Vec<WeightedGraph> = (0..MIX_INPUTS)
                .map(|_| {
                    let g = gen::random_with_avg_degree(sizes.boruvka_n, 6.0, &mut rng);
                    WeightedGraph::random(g, &mut rng)
                })
                .collect();
            let delaunay: Vec<Mesh> = (0..MIX_INPUTS)
                .map(|_| Mesh::delaunay(&square_points(sizes.delaunay_points, &mut rng)))
                .collect();
            (sssp, boruvka, delaunay)
        });
        let (mix, reference_s) = step(tcx, "setup.reference", || ServiceMix {
            sssp: sssp
                .into_iter()
                .map(|i| {
                    let d = i.dijkstra();
                    (i, d)
                })
                .collect(),
            boruvka: boruvka
                .into_iter()
                .map(|w| {
                    let k = w.kruskal();
                    (w, k)
                })
                .collect(),
            delaunay,
        });
        (
            mix,
            SetupTimes {
                gen_s,
                reference_s,
                partition: None,
            },
        )
    }

    /// Job `k` of a batch: kinds alternate sssp / boruvka / delaunay,
    /// each checked against its reference inside the job, after its
    /// drive.
    fn job(self: &Arc<Self>, k: usize, seed: u64, mut trace: Option<JobTrace>) -> JobSpec {
        let mix = self.clone();
        let input = (k / 3) % MIX_INPUTS;
        let name = ["sssp", "boruvka", "delaunay"][k % 3];
        JobSpec::new(format!("{name}-{k}"), move |cx| {
            if let Some(t) = trace.as_mut() {
                // The queue span runs from submit to the first closure
                // entry; a retried attempt does not reopen it.
                if let Some(start) = t.submitted.take() {
                    let id = t.tracer.new_id();
                    t.tracer.close(id, t.job, "queue", start, 1);
                }
            }
            let trace = trace.as_ref();
            let seed = seed ^ ((k as u64) << 20) ^ u64::from(cx.attempt());
            let verified = match k % 3 {
                0 => {
                    let (inp, reference) = &mix.sssp[input];
                    let (space, mut op) = SsspOp::new(inp.clone());
                    let mut ws = WorkSet::from_vec(op.initial_tasks());
                    drive_job(cx, &op, &space, &mut ws, seed, trace)?;
                    op.distances() == *reference
                }
                1 => {
                    let (wg, reference) = &mix.boruvka[input];
                    let (space, mut op) = BoruvkaOp::new(wg);
                    let mut ws = WorkSet::from_vec(op.initial_tasks());
                    drive_job(cx, &op, &space, &mut ws, seed, trace)?;
                    op.msf() == *reference
                }
                _ => {
                    let cfg = RefineConfig::area_only(MIX_AREA);
                    let (space, mut op) = DelaunayOp::with_auto_capacity(&mix.delaunay[input], cfg);
                    let mut ws = WorkSet::from_vec(op.initial_tasks());
                    drive_job(cx, &op, &space, &mut ws, seed, trace)?;
                    check_mesh(&op.into_mesh(), cfg).is_none()
                }
            };
            Ok(JobOutput {
                verified,
                committed: 0,
                detail: String::new(),
            })
        })
    }

    /// Run `jobs` jobs through a fresh service at `workers` pool
    /// workers, from a closed loop of one client per CPU: each client
    /// submits its next job only after its last report. `secs` spans
    /// the first submit to the last report.
    pub fn batch(
        self: &Arc<Self>,
        workers: usize,
        jobs: usize,
        seed: u64,
        tcx: Option<TraceCx<'_>>,
    ) -> DrainOut {
        let clients = crate::nproc();
        let cfg = ServiceConfig {
            workers,
            ..ServiceConfig::default()
        };
        let batch_span = tcx.map(|t| (t.tracer.new_id(), t.tracer.now_ns()));
        let next = AtomicUsize::new(0);
        // One entry per job: its record, or why it was shed.
        let recs: Mutex<Vec<Result<JobRec, String>>> = Mutex::new(Vec::new());
        let logs: Arc<Mutex<Vec<Traced>>> = Arc::default();
        let (secs, stats) = serve(cfg, |svc| {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..clients {
                    s.spawn(|| loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= jobs {
                            break;
                        }
                        let trace = tcx.map(|t| JobTrace::new(t, workers, &logs));
                        let job_span = trace.as_ref().map(|j| (j.job, j.submitted));
                        let sent = Instant::now();
                        let rec = svc.submit(self.job(k, seed, trace)).map(|ticket| {
                            let report = ticket.wait();
                            let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                            let failure = match &report.result {
                                Ok(out) if out.verified => None,
                                Ok(_) => Some(format!("job {k} ({}) unverified", report.name)),
                                Err(e) => Some(format!("job {k} ({}) failed: {e}", report.name)),
                            };
                            JobRec {
                                latency_ms,
                                rounds: report.rounds,
                                committed: report.committed,
                                aborted: report.aborted + report.faulted,
                                failure,
                            }
                        });
                        let rec = rec.map_err(|rej| format!("job {k} shed: {rej:?}"));
                        if let (Some(t), Some((id, Some(start))), Some((batch, _))) =
                            (tcx, job_span, batch_span)
                        {
                            t.tracer.close(id, batch, "job", start, workers);
                        }
                        recs.lock().expect("job records poisoned").push(rec);
                    });
                }
            });
            t0.elapsed().as_secs_f64()
        });
        if let (Some(t), Some((id, start))) = (tcx, batch_span) {
            t.tracer.close(id, t.parent, "batch", start, workers);
        }
        let mut out = DrainOut {
            secs,
            attempted: jobs,
            span: batch_span.map(|(id, _)| id),
            stats: Some(stats),
            traced: std::mem::take(&mut *logs.lock().expect("drive logs poisoned")),
            ..DrainOut::default()
        };
        for rec in recs.into_inner().expect("job records poisoned") {
            match rec {
                Ok(mut j) => {
                    out.committed += j.committed;
                    out.aborted += j.aborted;
                    out.launched += j.committed + j.aborted;
                    out.failures.extend(j.failure.take());
                    out.jobs.push(j);
                }
                Err(shed) => out.failures.push(shed),
            }
        }
        out
    }
}

/// Trace state one service job carries into its closure.
pub struct JobTrace {
    tracer: Arc<Tracer>,
    job: u64,
    workers: usize,
    /// Submit time; the first attempt takes it to close the queue span.
    submitted: Option<u64>,
    /// Where the job's drives leave their controller logs.
    logs: Arc<Mutex<Vec<Traced>>>,
}

impl JobTrace {
    fn new(t: TraceCx<'_>, workers: usize, logs: &Arc<Mutex<Vec<Traced>>>) -> JobTrace {
        JobTrace {
            tracer: t.tracer.clone(),
            job: t.tracer.new_id(),
            workers,
            submitted: Some(t.tracer.now_ns()),
            logs: logs.clone(),
        }
    }
}

/// One `JobCx::drive` of a service job, traced under the job's span
/// when the job carries a [`JobTrace`].
fn drive_job<O: Operator>(
    cx: &mut JobCx<'_>,
    op: &O,
    space: &LockSpace,
    ws: &mut WorkSet<O::Task>,
    seed: u64,
    trace: Option<&JobTrace>,
) -> Result<(), JobError> {
    let tcx = trace.map(|t| TraceCx {
        tracer: &t.tracer,
        parent: t.job,
    });
    let workers = trace.map_or(1, |t| t.workers);
    let mut r = Drive {
        cx,
        space,
        ws,
        seed,
    };
    let (res, traced) = drain(op, &mut r, tcx, workers, "drive", "round");
    if let (Some(t), Some(tr)) = (trace, traced) {
        t.logs.lock().expect("drive logs poisoned").push(tr);
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    const SMALL: Sizes = Sizes {
        sssp_scale: 10,
        road_nodes: 3000,
    };

    fn setup(name: &str, seed: u64) -> Workload {
        Workload::setup(name, seed, SMALL, None)
            .expect("known workload")
            .0
    }

    /// A hash of every generated input of the workload.
    fn fingerprint(w: &Workload) -> u64 {
        let text = match w {
            Workload::Sssp(s) => format!("{:?}{:?}", s.input.graph, s.input.weights),
            Workload::CcMirror(c) => format!("{:?}{:?}", c.graph, c.parts),
        };
        hash(&text)
    }

    /// A hash of every generated input of the service mix.
    fn mix_fingerprint(seed: u64) -> u64 {
        let (m, _) = ServiceMix::setup(seed, MixSizes::PROBE, None);
        hash(&format!(
            "{:?}{:?}{:?}",
            m.sssp
                .iter()
                .map(|(i, _)| (&i.graph, &i.weights))
                .collect::<Vec<_>>(),
            m.boruvka.iter().map(|(w, _)| w).collect::<Vec<_>>(),
            m.delaunay.iter().map(|d| &d.points).collect::<Vec<_>>(),
        ))
    }

    fn hash(text: &str) -> u64 {
        let mut h = DefaultHasher::new();
        text.hash(&mut h);
        h.finish()
    }

    #[test]
    fn seed_reaches_every_generator() {
        for name in NAMES {
            let a = fingerprint(&setup(name, 1));
            assert_eq!(
                a,
                fingerprint(&setup(name, 1)),
                "{name}: same seed, other input"
            );
            assert_ne!(a, fingerprint(&setup(name, 2)), "{name}: seed ignored");
        }
        let a = mix_fingerprint(1);
        assert_eq!(a, mix_fingerprint(1), "service mix: same seed, other input");
        assert_ne!(a, mix_fingerprint(2), "service mix: seed ignored");
    }

    #[test]
    fn traced_drain_is_transparent_at_one_worker() {
        for name in NAMES {
            let mut w = setup(name, 7);
            let plain = w.drain(1, 99, None);
            let tracer = Arc::new(Tracer::default());
            let tcx = TraceCx {
                tracer: &tracer,
                parent: crate::trace::ROOT,
            };
            let traced = w.drain(1, 99, Some(tcx));
            assert!(plain.failures.is_empty(), "{name}: {:?}", plain.failures);
            assert!(traced.failures.is_empty(), "{name}: {:?}", traced.failures);
            assert_eq!(plain.committed, traced.committed, "{name}: commits");
            assert_eq!(plain.launched, traced.launched, "{name}: attempts");
            let t = Arc::into_inner(tracer).expect("sole owner").finish();
            let f = t.fold_where(|_| true);
            assert_eq!(
                f.commits as usize, traced.committed,
                "{name}: folded commits"
            );
            assert_eq!(
                f.attempts as usize, traced.launched,
                "{name}: folded attempts"
            );
            assert!(
                t.spans.iter().any(|s| s.name == "window"),
                "{name}: no steps"
            );
        }
    }

    #[test]
    fn traced_runs_verify_at_two_workers() {
        for name in NAMES {
            let mut w = setup(name, 3);
            let tracer = Arc::new(Tracer::default());
            let tcx = TraceCx {
                tracer: &tracer,
                parent: crate::trace::ROOT,
            };
            for t in [None, Some(tcx)] {
                let d = w.drain(2, 5, t);
                assert!(d.failures.is_empty(), "{name}: {:?}", d.failures);
                assert!(d.attempted >= 1 && d.committed >= 1, "{name}: no work");
            }
        }
        let mix = Arc::new(ServiceMix::setup(3, MixSizes::PROBE, None).0);
        let tracer = Arc::new(Tracer::default());
        let tcx = TraceCx {
            tracer: &tracer,
            parent: crate::trace::ROOT,
        };
        for t in [None, Some(tcx)] {
            let d = mix.batch(2, 12, 5, t);
            assert!(d.failures.is_empty(), "service batch: {:?}", d.failures);
            assert_eq!((d.attempted, d.jobs.len()), (12, 12), "service batch");
        }
    }
}
