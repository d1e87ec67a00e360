//! The repository benchmark: verified time-to-drain of two workloads,
//! plus an outside-in layer trace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs untraced and prints the end-to-end metrics;
//! `--trace 1` runs with the trace wrappers and layer probes and prints
//! the per-layer metrics. Either way the run builds its inputs from
//! the seed, verifies every drain against a sequential reference
//! outside the timed region, and prints as its last stdout line one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. The
//! line before it is a ledger record (git rev, nproc, seed, reps, and
//! each metric's median, quartiles and sample count).

mod drain;
mod probes;
mod stats;
mod trace;
mod workloads;

use drain::TraceCx;
use optpar_core::partition::bfs_partition;
use stats::{percentile, tail_percentile, Summary};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{OpFold, Trace, Tracer, ROOT};
use workloads::{DrainOut, MixSizes, ServiceMix, Sizes, Workload, NAMES};

/// End-to-end metrics `(name, unit)`, reported by `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("drain_s", "s"),
    ("drain_s_w1", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by `--trace 1`. The
/// prefix names the layer.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("op.ns_per_attempt", "ns"),
    ("op.ns_per_attempt_w1", "ns"),
    ("op.acquires_per_attempt", "count"),
    ("op.undo_per_attempt", "count"),
    ("op.spawned_per_commit", "count"),
    ("op.aborts_conflict", "count"),
    ("op.aborts_other", "count"),
    ("op.busy_frac", "ratio"),
    ("exec.abort_ratio", "ratio"),
    ("exec.self_us_per_round", "us"),
    ("exec.commits_per_s", "1/s"),
    ("exec.work_inflation", "ratio"),
    ("ctl.observe_ns", "ns"),
    ("ctl.m_mean", "count"),
    ("ctl.r_err", "ratio"),
    ("ctl.converge_round", "count"),
    ("lock.acquire_ns", "ns"),
    ("lock.acquire_sharded_ns", "ns"),
    ("store.read_ns", "ns"),
    ("store.write_undo_ns", "ns"),
    ("workset.draw_ns_per_task", "ns"),
    ("pool.rendezvous_ns", "ns"),
    ("setup.gen_s", "s"),
    ("setup.reference_s", "s"),
    ("partition.bfs_s", "s"),
    ("partition.cut_fraction", "ratio"),
    ("svc.queue_ms_p50", "ms"),
    ("svc.drive_ms_p50", "ms"),
    ("svc.rounds_per_job", "count"),
    ("svc.shed", "count"),
    ("svc.retries", "count"),
    ("svc.job_p50_ms", "ms"),
    ("svc.job_p95_ms", "ms"),
    ("svc.jobs_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
];

/// Set-up repetitions per end-to-end run (`setup_s` is their median).
/// Past the first, a repetition follows a drain pair only while set-up
/// has taken under `SETUP_SHARE` of the run so far, so repetitions are
/// spread over the run like the drains, and sample the same machine
/// conditions.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 15;
const SETUP_SHARE: f64 = 0.1;
/// Fewest drain pairs (`w = nproc` and `w = 1`) a run makes, however
/// short `--seconds` is.
const MIN_PAIRS: usize = 3;
/// Fewest service-probe job latencies behind the p95: the tail rule
/// needs ten beyond it.
const MIN_JOBS: usize = 200;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} out of range (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {NAMES:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The drain seed of pair `pair` at `workers`: derived from the run
/// seed, so a run repeats exactly.
fn drain_seed(seed: u64, pair: usize, workers: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((pair as u64) << 16) ^ workers as u64
}

/// Calls `body(pair)` until `seconds` have passed since `start`, and
/// at least `min` times. Stops early when one more pair at the mean
/// pair time would overrun the budget.
fn repeat(start: Instant, seconds: f64, min: usize, mut body: impl FnMut(usize)) -> usize {
    let budget = Duration::from_secs_f64(seconds);
    let mut pair = 0;
    let t0 = Instant::now();
    loop {
        body(pair);
        pair += 1;
        let per = t0.elapsed() / pair as u32;
        if pair >= min && start.elapsed() + per > budget {
            return pair;
        }
    }
}

/// Stolen and total CPU ticks of the whole machine so far (the `cpu`
/// line of `/proc/stat`); zeros where it cannot be read. Time stolen
/// by the hypervisor slows every drain it overlaps, so the ledger
/// reports the stolen share of each run to explain outliers.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set (`VmHWM`) of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{r}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Metric values and their sample summaries, plus the verification
/// tally.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, &'static str, Summary)>,
    attempted: usize,
    failures: Vec<String>,
    reps: Vec<(&'static str, usize)>,
    /// Share of the machine's CPU time stolen during the run.
    steal_frac: f64,
}

impl Report {
    fn set(&mut self, table: &[(&'static str, &'static str)], name: &str, s: Summary) {
        let &(n, unit) = table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.metrics.push((n, unit, s));
    }

    fn tally(&mut self, what: &str, rep: usize, workers: usize, d: &DrainOut) {
        self.attempted += d.attempted;
        self.failures.extend(
            d.failures
                .iter()
                .map(|f| format!("{what} rep {rep} w{workers}: {f}")),
        );
    }

    /// The ledger line, then the result line.
    fn print(&self, args: &Args, table: &[(&'static str, &'static str)]) {
        for &(name, _) in table {
            assert!(
                self.metrics.iter().any(|m| m.0 == name),
                "metric {name} was not measured"
            );
        }
        let mut ledger = String::new();
        let _ = write!(
            ledger,
            "{{\"ledger\": {{\"bench\": \"perfbench\", \"workload\": \"{}\", \"rev\": \"{}\", \
             \"nproc\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"steal_frac\": {}, \
             \"reps\": {{",
            args.workload,
            git_rev(),
            nproc(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            num(self.steal_frac),
        );
        for (i, (k, v)) in self.reps.iter().enumerate() {
            let _ = write!(ledger, "{}\"{k}\": {v}", if i == 0 { "" } else { ", " });
        }
        ledger.push_str("}, \"metrics\": {");
        for (i, (name, unit, s)) in self.metrics.iter().enumerate() {
            let _ = write!(
                ledger,
                "{}\"{name}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \
                 \"spread\": {}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " },
                num(s.median),
                num(s.q1),
                num(s.q3),
                s.n,
                num(s.spread()),
            );
        }
        ledger.push_str("}, \"failures\": [");
        for (i, f) in self.failures.iter().enumerate() {
            let _ = write!(
                ledger,
                "{}\"{}\"",
                if i == 0 { "" } else { ", " },
                escape(f)
            );
        }
        ledger.push_str("]}}");
        println!("{ledger}");

        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len()
        );
        for (i, (name, unit, s)) in self.metrics.iter().enumerate() {
            let _ = write!(
                line,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " },
                num(s.median)
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}

/// A JSON number; non-finite values (which the benchmark never means
/// to produce) become `null` so the line stays parseable.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn one(x: f64) -> Summary {
    Summary::of(&[x])
}

/// `--trace 0`: set up, then alternate untraced drains at `w = nproc`
/// and `w = 1` for the rest of the budget, setting up again (from the
/// same seed, so the input is the same) between some pairs.
fn end_to_end(args: &Args) -> Report {
    let start = Instant::now();
    let mut r = Report::default();
    let mut setup = Vec::new();
    let mut wl = None;
    let set_up = |wl: &mut Option<Workload>, setup: &mut Vec<f64>| {
        // Drop the old copy first, so memory holds one input at a time.
        drop(wl.take());
        let t0 = Instant::now();
        *wl = Workload::setup(&args.workload, args.seed, Sizes::FULL, None).map(|(w, _)| w);
        setup.push(t0.elapsed().as_secs_f64());
    };
    set_up(&mut wl, &mut setup);
    let w = nproc();
    let (mut par, mut seq) = (Vec::new(), Vec::new());
    let mut peak = None;
    let pairs = repeat(start, args.seconds, MIN_PAIRS, |pair| {
        let run = wl.as_mut().expect("workload name was validated");
        for (workers, out) in [(w, &mut par), (1, &mut seq)] {
            let (stolen, _) = cpu_ticks();
            let d = run.drain(workers, drain_seed(args.seed, pair, workers), None);
            r.tally(&args.workload, pair, workers, &d);
            eprintln!(
                "[perfbench] {} pair {pair} w{workers}: {:.4} s, {} launched, {} ticks stolen",
                args.workload,
                d.secs,
                d.launched,
                cpu_ticks().0 - stolen
            );
            out.push(d.secs);
        }
        // Memory as a user pays it: one set-up and one drain at each
        // worker count. Later set-ups and drains only add allocator
        // retention, which varies between identical runs.
        peak.get_or_insert_with(peak_rss_mb);
        let spent: f64 = setup.iter().sum();
        if setup.len() < SETUP_MAX && spent < SETUP_SHARE * start.elapsed().as_secs_f64() {
            set_up(&mut wl, &mut setup);
        }
    });
    while setup.len() < SETUP_MIN {
        set_up(&mut wl, &mut setup);
    }
    r.reps = vec![("setup", setup.len()), ("pairs", pairs)];
    r.set(&END_TO_END, "drain_s", Summary::of(&par));
    r.set(&END_TO_END, "drain_s_w1", Summary::of(&seq));
    r.set(&END_TO_END, "setup_s", Summary::of(&setup));
    r.set(
        &END_TO_END,
        "peak_rss_mb",
        one(peak.expect("at least one drain pair ran")),
    );
    r
}

/// Drains of one kind in the traced run.
#[derive(Default)]
struct Side {
    outs: Vec<DrainOut>,
}

impl Side {
    fn secs(&self) -> Vec<f64> {
        self.outs.iter().map(|d| d.secs).collect()
    }
    fn sum(&self, f: impl Fn(&DrainOut) -> usize) -> usize {
        self.outs.iter().map(f).sum()
    }
    fn tops(&self) -> HashSet<u64> {
        self.outs.iter().filter_map(|d| d.span).collect()
    }
    fn ctl_logs(&self) -> impl Iterator<Item = &trace::CtlLog> {
        self.outs
            .iter()
            .flat_map(|d| d.traced.iter().map(|t| &t.ctl))
    }
}

/// Which spans descend from (or are) one of `tops`.
fn under(t: &Trace, tops: &HashSet<u64>) -> HashSet<u64> {
    let parent: HashMap<u64, u64> = t.spans.iter().map(|s| (s.id, s.parent)).collect();
    t.spans
        .iter()
        .map(|s| s.id)
        .filter(|&id| {
            let mut cur = id;
            loop {
                if tops.contains(&cur) {
                    return true;
                }
                match parent.get(&cur) {
                    Some(&p) if p != ROOT => cur = p,
                    _ => return false,
                }
            }
        })
        .collect()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The service layer's numbers, from one untraced and one traced side.
struct SvcLayer {
    queue_ms: Vec<f64>,
    drive_ms: Vec<f64>,
    rounds_per_job: f64,
    shed: usize,
    retries: usize,
    latencies: Vec<f64>,
    jobs_per_s: f64,
}

fn svc_layer(t: &Trace, plain: &Side, traced: &Side) -> SvcLayer {
    let inside = under(t, &traced.tops());
    let durs = |name: &str| -> Vec<f64> {
        t.spans
            .iter()
            .filter(|s| s.name == name && inside.contains(&s.id))
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    };
    let all = || plain.outs.iter().chain(&traced.outs);
    let jobs: Vec<_> = plain.outs.iter().flat_map(|d| &d.jobs).collect();
    let stat = |f: fn(&optpar_runtime::ServiceStats) -> u64| -> usize {
        all()
            .filter_map(|d| d.stats.as_ref())
            .map(|s| f(s) as usize)
            .sum()
    };
    SvcLayer {
        queue_ms: durs("queue"),
        drive_ms: durs("drive"),
        rounds_per_job: ratio(
            jobs.iter().map(|j| j.rounds as f64).sum(),
            jobs.len() as f64,
        ),
        shed: stat(|s| s.rejected_backpressure + s.rejected_overload + s.rejected_expired),
        retries: stat(|s| s.job_retries),
        latencies: jobs.iter().map(|j| j.latency_ms).collect(),
        jobs_per_s: ratio(
            plain.sum(|d| d.attempted) as f64,
            plain.secs().iter().sum::<f64>(),
        ),
    }
}

/// `--trace 1`: set up once with each step traced, then alternate an
/// untraced drain at `w = nproc` with traced drains at `w = nproc` and
/// `w = 1`; then run the layer probes, all in one traced process.
fn per_layer(args: &Args) -> Report {
    let start = Instant::now();
    let mut r = Report::default();
    let tracer = Arc::new(Tracer::default());
    let wl_span = tracer.new_id();
    let wl_start = tracer.now_ns();
    let tcx = TraceCx {
        tracer: &tracer,
        parent: wl_span,
    };
    let (mut wl, times) = Workload::setup(&args.workload, args.seed, Sizes::FULL, Some(tcx))
        .expect("workload name was validated");
    let w = nproc();
    let (mut plain, mut par, mut seq) = (Side::default(), Side::default(), Side::default());
    let pairs = repeat(start, args.seconds * 0.8, MIN_PAIRS, |pair| {
        let d = wl.drain(w, drain_seed(args.seed, pair, w), None);
        r.tally(&args.workload, pair, w, &d);
        plain.outs.push(d);
        for (workers, side) in [(w, &mut par), (1, &mut seq)] {
            let d = wl.drain(workers, drain_seed(args.seed, pair, workers), Some(tcx));
            r.tally(&format!("{} traced", args.workload), pair, workers, &d);
            side.outs.push(d);
        }
    });

    // Layer probes.
    let probe = |name: &'static str| {
        let (id, t0) = (tracer.new_id(), tracer.now_ns());
        move |tr: &Tracer| tr.close(id, wl_span, name, t0, 1)
    };
    let done = probe("probe.store");
    let flat = probes::store_probe(false);
    let sharded = probes::store_probe(true);
    done(&tracer);
    for (what, ok) in [("flat", flat.correct), ("sharded", sharded.correct)] {
        r.attempted += 1;
        if !ok {
            r.failures
                .push(format!("{what} store probe: slots or locks wrong"));
        }
    }
    let m_mean = {
        let logs: Vec<_> = par.ctl_logs().collect();
        ratio(
            logs.iter().map(|l| l.m.iter().sum::<usize>() as f64).sum(),
            logs.iter().map(|l| l.m.len() as f64).sum(),
        )
    };
    let done = probe("probe.draw");
    let draw = probes::draw_probe(m_mean.round() as usize);
    done(&tracer);
    let done = probe("probe.rendezvous");
    let rendezvous = probes::rendezvous_probe(w);
    done(&tracer);
    let partition = match times.partition {
        Some(p) => p,
        None => {
            let done = probe("probe.partition");
            let t0 = Instant::now();
            let part = bfs_partition(wl.graph(), workloads::PARTS, workloads::IMBALANCE);
            let secs = t0.elapsed().as_secs_f64();
            done(&tracer);
            (secs, part.cut_fraction())
        }
    };
    // The service layer: an untraced and a traced batch of small jobs.
    let done = probe("probe.service");
    let (mix, _) = ServiceMix::setup(args.seed, MixSizes::PROBE, None);
    let mix = Arc::new(mix);
    let p = mix.batch(w, MIN_JOBS, args.seed, None);
    let t = mix.batch(w, workloads::JOBS_PER_BATCH, args.seed, Some(tcx));
    done(&tracer);
    r.tally("service probe", 0, w, &p);
    r.tally("service probe traced", 0, w, &t);
    let (svc_plain, svc_traced) = (Side { outs: vec![p] }, Side { outs: vec![t] });
    tracer.close(wl_span, ROOT, "workload", wl_start, w);
    let trace = Arc::into_inner(tracer)
        .expect("every trace reference ended with the run")
        .finish();

    // Operator folds at each worker count.
    let fold = |s: &Side| -> OpFold {
        let inside = under(&trace, &s.tops());
        trace.fold_where(|p| inside.contains(&p))
    };
    let (fp, f1) = (fold(&par), fold(&seq));
    let reps = par.outs.len() as f64;
    let attempts = fp.attempts as f64;
    r.set(
        &PER_LAYER,
        "op.ns_per_attempt",
        one(ratio(fp.ns as f64, attempts)),
    );
    r.set(
        &PER_LAYER,
        "op.ns_per_attempt_w1",
        one(ratio(f1.ns as f64, f1.attempts as f64)),
    );
    r.set(
        &PER_LAYER,
        "op.acquires_per_attempt",
        one(ratio(fp.acquires as f64, attempts)),
    );
    r.set(
        &PER_LAYER,
        "op.undo_per_attempt",
        one(ratio(fp.undo as f64, attempts)),
    );
    r.set(
        &PER_LAYER,
        "op.spawned_per_commit",
        one(ratio(fp.spawned as f64, fp.commits as f64)),
    );
    r.set(
        &PER_LAYER,
        "op.aborts_conflict",
        one(fp.aborts_conflict as f64 / reps),
    );
    r.set(
        &PER_LAYER,
        "op.aborts_other",
        one(fp.aborts_other as f64 / reps),
    );
    let par_secs: f64 = par.secs().iter().sum();
    r.set(
        &PER_LAYER,
        "op.busy_frac",
        one(ratio(fp.ns as f64 / 1e9, w as f64 * par_secs)),
    );
    r.set(
        &PER_LAYER,
        "exec.abort_ratio",
        one(ratio(
            par.sum(|d| d.aborted) as f64,
            par.sum(|d| d.launched) as f64,
        )),
    );
    let inside = under(&trace, &par.tops());
    let own = trace.self_ns();
    // Both workloads drain pipelined: their controller steps are
    // windows.
    let self_us: Vec<f64> = trace
        .spans
        .iter()
        .filter(|s| s.name == "window" && inside.contains(&s.id))
        .map(|s| own[&s.id] as f64 / 1e3)
        .collect();
    r.set(
        &PER_LAYER,
        "exec.self_us_per_round",
        one(ratio(self_us.iter().sum(), self_us.len() as f64)),
    );
    r.set(
        &PER_LAYER,
        "exec.commits_per_s",
        one(ratio(
            plain.sum(|d| d.committed) as f64,
            plain.secs().iter().sum(),
        )),
    );
    let commits = |s: &Side| {
        s.outs
            .iter()
            .map(|d| d.committed as f64)
            .collect::<Vec<_>>()
    };
    r.set(
        &PER_LAYER,
        "exec.work_inflation",
        one(ratio(
            stats::median(&commits(&par)),
            stats::median(&commits(&seq)),
        )),
    );
    let logs: Vec<_> = par.ctl_logs().collect();
    let flat_mean = |f: &dyn Fn(&trace::CtlLog) -> Vec<f64>| {
        let all: Vec<f64> = logs.iter().flat_map(|l| f(l)).collect();
        ratio(all.iter().sum(), all.len() as f64)
    };
    r.set(
        &PER_LAYER,
        "ctl.observe_ns",
        one(flat_mean(&|l| {
            l.observe_ns.iter().map(|&n| n as f64).collect()
        })),
    );
    r.set(&PER_LAYER, "ctl.m_mean", one(m_mean));
    let rho = logs.first().and_then(|l| l.rho).unwrap_or(0.0);
    r.set(
        &PER_LAYER,
        "ctl.r_err",
        one(flat_mean(&|l| {
            l.r.iter().map(|x| (x - rho).abs()).collect()
        })),
    );
    let conv: Vec<f64> = logs.iter().map(|l| l.converge_round() as f64).collect();
    r.set(&PER_LAYER, "ctl.converge_round", Summary::of(&conv));
    r.set(&PER_LAYER, "lock.acquire_ns", flat.lock);
    r.set(&PER_LAYER, "lock.acquire_sharded_ns", sharded.lock);
    r.set(&PER_LAYER, "store.read_ns", flat.read);
    r.set(&PER_LAYER, "store.write_undo_ns", flat.write_undo);
    r.set(&PER_LAYER, "workset.draw_ns_per_task", draw);
    r.set(&PER_LAYER, "pool.rendezvous_ns", rendezvous);
    r.set(&PER_LAYER, "setup.gen_s", one(times.gen_s));
    r.set(&PER_LAYER, "setup.reference_s", one(times.reference_s));
    r.set(&PER_LAYER, "partition.bfs_s", one(partition.0));
    r.set(&PER_LAYER, "partition.cut_fraction", one(partition.1));

    let svc = svc_layer(&trace, &svc_plain, &svc_traced);
    r.set(
        &PER_LAYER,
        "svc.queue_ms_p50",
        one(stats::median(&svc.queue_ms)),
    );
    r.set(
        &PER_LAYER,
        "svc.drive_ms_p50",
        one(stats::median(&svc.drive_ms)),
    );
    r.set(&PER_LAYER, "svc.rounds_per_job", one(svc.rounds_per_job));
    r.set(&PER_LAYER, "svc.shed", one(svc.shed as f64));
    r.set(&PER_LAYER, "svc.retries", one(svc.retries as f64));
    let n = svc.latencies.len();
    let p95 = percentile(&svc.latencies, 95.0);
    if !tail_percentile(n).is_some_and(|p| p >= 95.0) {
        r.failures.push(format!(
            "{n} job latencies cannot support a p95 (needs {MIN_JOBS})"
        ));
    }
    r.set(&PER_LAYER, "svc.job_p50_ms", Summary::of(&svc.latencies));
    r.set(
        &PER_LAYER,
        "svc.job_p95_ms",
        Summary {
            median: p95,
            q1: p95,
            q3: p95,
            n,
        },
    );
    r.set(&PER_LAYER, "svc.jobs_per_s", one(svc.jobs_per_s));
    r.set(
        &PER_LAYER,
        "trace.overhead_frac",
        one(stats::median(&par.secs()) / stats::median(&plain.secs()) - 1.0),
    );
    r.reps = vec![("pairs", pairs), ("svc_jobs", n)];
    write_trace(args, &trace);
    r
}

/// Write the trace to `perfbench/out/trace-<workload>.json`, replacing
/// the previous run's; a failed write is reported on stderr and does
/// not fail the run.
fn write_trace(args: &Args, trace: &Trace) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}.json", args.workload));
    let res = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, trace.to_json()));
    match res {
        Ok(()) => eprintln!("[perfbench] trace written to {}", path.display()),
        Err(e) => eprintln!("[perfbench] trace not written to {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (stolen, total) = cpu_ticks();
    let mut report = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    let (stolen_end, total_end) = cpu_ticks();
    report.steal_frac = ratio(
        stolen_end.saturating_sub(stolen) as f64,
        total_end.saturating_sub(total) as f64,
    );
    for f in &report.failures {
        eprintln!("[perfbench] FAILED {f}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    report.print(&args, table);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `(name, unit)` of every metric object, and the name of every
    /// workload object, in `BENCHMARK.json`.
    fn declared() -> (BTreeSet<(String, String)>, BTreeSet<String>) {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let field = |obj: &str, key: &str| {
            let k = format!("\"{key}\": \"");
            obj.find(&k)
                .and_then(|i| obj[i + k.len()..].split('"').next())
                .map(str::to_string)
        };
        let (mut metrics, mut names) = (BTreeSet::new(), BTreeSet::new());
        for obj in text.split('{').filter_map(|c| c.split('}').next()) {
            if let (Some(n), Some(u)) = (field(obj, "name"), field(obj, "unit")) {
                assert!(metrics.insert((n, u)), "metric declared twice");
            } else if let (Some(n), Some(_)) = (field(obj, "name"), field(obj, "why")) {
                names.insert(n);
            }
        }
        (metrics, names)
    }

    #[test]
    fn benchmark_json_declares_what_the_runs_report() {
        let (metrics, names) = declared();
        let ours: BTreeSet<(String, String)> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(metrics, ours);
        assert_eq!(names, NAMES.iter().map(|n| n.to_string()).collect());
    }

    #[test]
    fn args_are_checked_where_they_enter() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let ok = parse("--workload sssp-rmat --seed 4 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("sssp-rmat", 4, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 4 --seconds 10 --trace 0",
            "--workload sssp-rmat --seed -1 --seconds 10 --trace 0",
            "--workload sssp-rmat --seed 4 --seconds 0 --trace 0",
            "--workload sssp-rmat --seed 4 --seconds 10 --trace 2",
            "--workload sssp-rmat --seed 4 --seconds 10",
            "--workload sssp-rmat --seed 4 --seconds 10 --trace 0 --extra 1",
        ] {
            assert!(parse(bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn drain_seeds_differ_by_pair_and_worker_count() {
        let seeds: BTreeSet<u64> = (0..50)
            .flat_map(|p| [1, 2].map(|w| drain_seed(9, p, w)))
            .collect();
        assert_eq!(seeds.len(), 100);
        assert_ne!(drain_seed(9, 0, 1), drain_seed(10, 0, 1));
    }
}
