//! Seeded closed-loop benchmark of the mpisim workspace.
//!
//! ```text
//! perfbench --workload <epoch_mix|wide_faulty|relax_validate> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client on one host thread submits tasks one after another (a
//! closed loop): a task is one simulated job, or one program taken through
//! analyze → rewrite → execute both twins. The timed loop cycles over a
//! fixed list of distinct inputs generated from `--seed` for `--seconds`,
//! rounded up to whole passes over the list, and at least two. Every job
//! leaks memory, so after the first pass the untimed process hands the
//! passes to short-lived worker processes of this same binary, run one at
//! a time. `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! same loop with every task paired with a traced re-run of the same input
//! and prints the per-layer metrics. The last stdout line is one JSON
//! object. See README.md.

mod epoch_mix;
mod job;
mod relax_validate;
mod spans;
mod wide_faulty;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use job::{Counts, TaskResult};
use spans::{ApiKind, Span, TaskTrace};

const USAGE: &str = "usage: perfbench --workload <epoch_mix|wide_faulty|relax_validate> \
                     [--seed <u64>] [--seconds <1..3600>] [--trace <0|1>]";

/// Seed used when `--seed` is absent (README.md also names the held-out
/// seed kept back for re-checking claims).
const DEFAULT_SEED: u64 = 1;

/// How far the traced tasks' wall time may stray from the paired untraced
/// runs before the traced run says its spans do not reconcile.
const TRACE_TOLERANCE: f64 = 0.15;

/// A worker process ends after the pass that grows its `VmRSS` past this
/// (kB), so the leaked memory of a long run is handed back in slices.
const WORKER_RSS_BUDGET_KB: f64 = 512.0 * 1024.0;

/// The traced run, which keeps every task in one process, ends early (at
/// a whole pass) once another pass would take `VmRSS` past this (kB).
const TRACE_RSS_CAP_KB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set only on the worker processes the timed loop starts: run whole
    /// untraced passes for this long and print one line per task.
    worker_ms: Option<u64>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut worker_ms = None;
        while let Some(flag) = it.next() {
            let val = it.next().ok_or(format!("{flag} needs a value"))?;
            let num = || {
                val.parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {val:?}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(val.clone()),
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?),
                "--trace" => trace = Some(num()?),
                "--worker-ms" => worker_ms = Some(num()?),
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !Inputs::NAMES.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        let seconds = seconds.unwrap_or(5);
        if !(1..=3600).contains(&seconds) {
            return Err("--seconds must be in 1..=3600".into());
        }
        let trace = match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        };
        Ok(Args {
            workload,
            seed: seed.unwrap_or(DEFAULT_SEED),
            seconds,
            trace,
            worker_ms,
        })
    }
}

/// A workload's generated inputs.
enum Inputs {
    EpochMix(Vec<epoch_mix::Job>),
    WideFaulty(Vec<wide_faulty::Job>),
    RelaxValidate(Vec<relax_validate::Program>),
}

impl Inputs {
    const NAMES: [&'static str; 3] = ["epoch_mix", "wide_faulty", "relax_validate"];

    fn generate(workload: &str, seed: u64) -> Inputs {
        match workload {
            "epoch_mix" => Inputs::EpochMix(epoch_mix::generate(seed)),
            "wide_faulty" => Inputs::WideFaulty(wide_faulty::generate(seed)),
            "relax_validate" => Inputs::RelaxValidate(relax_validate::generate_programs(seed)),
            _ => unreachable!("workload name validated by the parser"),
        }
    }

    /// Set-ups per untraced run (`setup_s` is their median): a fixed
    /// count, so the work done before `peak_rss_mb` is read is fixed too.
    /// Cheap set-ups repeat more often to steady the median.
    fn setup_reps(&self) -> usize {
        match self {
            Inputs::EpochMix(_) => 15,
            Inputs::WideFaulty(_) => 3,
            Inputs::RelaxValidate(_) => 5,
        }
    }

    fn len(&self) -> usize {
        match self {
            Inputs::EpochMix(v) => v.len(),
            Inputs::WideFaulty(v) => v.len(),
            Inputs::RelaxValidate(v) => v.len(),
        }
    }

    fn run(&self, i: usize, tr: Option<&mut TaskTrace>) -> TaskResult {
        match self {
            Inputs::EpochMix(v) => epoch_mix::run(&v[i], tr),
            Inputs::WideFaulty(v) => wide_faulty::run(&v[i], tr),
            Inputs::RelaxValidate(v) => relax_validate::run(&v[i], tr),
        }
    }

    /// The all-blocking twin of input `i`, for workloads whose task does
    /// not run it itself.
    fn blocking_twin(&self, i: usize) -> Option<TaskResult> {
        match self {
            Inputs::EpochMix(v) => Some(epoch_mix::run_blocking(&v[i])),
            Inputs::WideFaulty(v) => Some(wide_faulty::run_blocking(&v[i])),
            Inputs::RelaxValidate(_) => None,
        }
    }
}

/// Tasks attempted and failed over the whole run; a failure is counted,
/// never fatal.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn record(&mut self, r: &TaskResult) {
        self.attempted += 1;
        if let Some(why) = &r.failure {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: task failed: {why}");
            }
        }
    }
}

fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// `VmRSS` / `VmHWM` of this process, in kB (0 where /proc is absent).
fn proc_status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// The untraced timed loop.
struct Timed {
    /// Host time of every timed task, ms, by input.
    task_ms: Vec<Vec<f64>>,
    /// Virtual completion time of every timed task, µs, by input.
    virtual_us: Vec<Vec<f64>>,
    /// `VmHWM` once set-up and the first pass over every input are done,
    /// MB: a fixed amount of work, so the reading does not depend on how
    /// many tasks the host managed to run.
    peak_rss_mb: f64,
}

impl Timed {
    /// Each input's fastest timed run, ms. Other tenants of the host only
    /// ever add time, so the fastest of many runs of one input is the
    /// steadiest estimate of what the program itself costs.
    fn best_ms(&self) -> Vec<f64> {
        self.task_ms
            .iter()
            .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
            .collect()
    }

    fn all_ms(&self) -> Vec<f64> {
        self.task_ms.iter().flatten().copied().collect()
    }

    /// Each input's median virtual time, µs. It is the same on every run
    /// of an input except on `wide_faulty`, whose virtual time moves from
    /// run to run (README.md, "Repeatability").
    fn virtual_us(&self) -> Vec<f64> {
        self.virtual_us.iter().map(|v| median(v)).collect()
    }

    fn push(&mut self, k: usize, ms: f64, virtual_us: f64) {
        self.task_ms[k].push(ms);
        self.virtual_us[k].push(virtual_us);
    }
}

/// Run input `k` once, untraced; its host time (ms) and result.
fn time_task(w: &Inputs, k: usize, ledger: &mut Ledger) -> (f64, TaskResult) {
    let t0 = Instant::now();
    let r = w.run(k, None);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    ledger.record(&r);
    (ms, r)
}

/// The first timed pass runs here, and its results feed the virtual
/// metrics; worker processes run the rest, one at a time. Whole passes
/// only, since a partial last pass would tilt the task mix; at least two.
fn timed_loop(
    args: &Args,
    w: &Inputs,
    dur: Duration,
    ledger: &mut Ledger,
    first: &mut [Option<TaskResult>],
) -> Result<Timed, String> {
    let n = w.len();
    let start = Instant::now();
    let mut t = Timed {
        task_ms: vec![Vec::new(); n],
        virtual_us: vec![Vec::new(); n],
        peak_rss_mb: 0.0,
    };
    for (k, slot) in first.iter_mut().enumerate() {
        let (ms, r) = time_task(w, k, ledger);
        t.push(k, ms, r.virtual_ns as f64 / 1e3);
        *slot = Some(r);
    }
    t.peak_rss_mb = proc_status_kb("VmHWM:") / 1024.0;
    let mut passes = 1;
    while passes < 2 || start.elapsed() < dur {
        passes += run_worker(args, dur.saturating_sub(start.elapsed()), ledger, &mut t)?;
    }
    Ok(t)
}

/// Start one worker process, wait for it, and fold in its tasks. Returns
/// the number of passes it ran.
fn run_worker(
    args: &Args,
    left: Duration,
    ledger: &mut Ledger,
    t: &mut Timed,
) -> Result<usize, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--worker-ms", &left.as_millis().to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("worker: {e}"))?;
    if !out.status.success() {
        return Err(format!("worker exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let bad = |l: &str| format!("worker printed {l:?}");
    let mut tasks = 0;
    let mut tally = None;
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["task", k, ms, vns] => {
                let k: usize = k.parse().map_err(|_| bad(line))?;
                let ms: f64 = ms.parse().map_err(|_| bad(line))?;
                let vns: u64 = vns.parse().map_err(|_| bad(line))?;
                if k >= t.task_ms.len() {
                    return Err(bad(line));
                }
                t.push(k, ms, vns as f64 / 1e3);
                tasks += 1;
            }
            ["tally", a, f] => {
                tally = Some((
                    a.parse::<u64>().map_err(|_| bad(line))?,
                    f.parse::<u64>().map_err(|_| bad(line))?,
                ));
            }
            _ => return Err(bad(line)),
        }
    }
    let (attempted, failed) = tally.ok_or("worker printed no tally")?;
    let n = t.task_ms.len();
    if tasks == 0 || tasks % n != 0 {
        return Err(format!("worker ran {tasks} tasks, not whole passes of {n}"));
    }
    ledger.attempted += attempted;
    ledger.failed += failed;
    Ok(tasks / n)
}

/// The worker side of [`run_worker`]: one untimed warm-up task, then whole
/// timed passes until `budget` has passed or the leaked memory reaches
/// [`WORKER_RSS_BUDGET_KB`]; at least one pass.
fn worker(w: &Inputs, budget: Duration) {
    let mut ledger = Ledger::default();
    ledger.record(&w.run(0, None));
    let rss0 = proc_status_kb("VmRSS:");
    let start = Instant::now();
    let mut out = String::new();
    loop {
        for k in 0..w.len() {
            let (ms, r) = time_task(w, k, &mut ledger);
            let _ = writeln!(out, "task {k} {ms} {}", r.virtual_ns);
        }
        if start.elapsed() >= budget || proc_status_kb("VmRSS:") - rss0 >= WORKER_RSS_BUDGET_KB {
            break;
        }
    }
    let _ = writeln!(out, "tally {} {}", ledger.attempted, ledger.failed);
    print!("{out}");
}

/// One traced task, reduced to what the per-layer metrics need.
struct TracedTask {
    task_ms: f64,
    /// Summed duration of the spans directly under the task span.
    top_level_ms: f64,
    /// The untraced run of the same input, paired with this one.
    untraced_ms: f64,
    phase_ms: BTreeMap<&'static str, f64>,
    counts: Counts,
}

/// The traced run: every timed task is paired with a traced re-run of
/// the same input; the pair order alternates.
struct Traced {
    tasks: Vec<TracedTask>,
    /// API self times over all traced tasks, by [`ApiKind`].
    api_ns: [Vec<f64>; 4],
    /// API calls of the first traced run of each input.
    api_calls: Vec<Option<u64>>,
    retained_kb: Vec<f64>,
    spans: Vec<Span>,
    /// Whole passes run, and whether [`TRACE_RSS_CAP_KB`] ended the run
    /// before `--seconds` had passed.
    passes: usize,
    capped: bool,
}

fn traced_loop(
    w: &Inputs,
    dur: Duration,
    ledger: &mut Ledger,
    first: &mut [Option<TaskResult>],
) -> Traced {
    let n = w.len();
    let origin = Instant::now();
    let mut tr = Traced {
        tasks: Vec::new(),
        api_ns: Default::default(),
        api_calls: vec![None; n],
        retained_kb: Vec::new(),
        spans: Vec::new(),
        passes: 0,
        capped: false,
    };
    let mut task_id = 0u64;
    let mut pair = 0;
    let mut pass_rss = proc_status_kb("VmRSS:");
    loop {
        if pair % n == 0 && pair > 0 {
            tr.passes += 1;
            if origin.elapsed() >= dur {
                break;
            }
            // Assume the next pass leaks as much as the last one did.
            let rss = proc_status_kb("VmRSS:");
            if 2.0 * rss - pass_rss > TRACE_RSS_CAP_KB {
                tr.capped = true;
                break;
            }
            pass_rss = rss;
        }
        let k = pair % n;
        // Alternate the order within a pair, and for each input from one
        // pass to the next.
        let traced_first = (pair + pair / n) % 2 == 1;
        let mut untraced_ms = 0.0;
        let mut traced: Option<(f64, TaskTrace, TaskResult)> = None;
        for leg in 0..2 {
            task_id += 1;
            if (leg == 0) == traced_first {
                let mut t = TaskTrace::new(task_id, origin);
                let t0 = Instant::now();
                let r = w.run(k, Some(&mut t));
                let t1 = Instant::now();
                t.finish_task(t0, t1);
                ledger.record(&r);
                traced = Some((t1.duration_since(t0).as_secs_f64() * 1e3, t, r));
            } else {
                let rss0 = proc_status_kb("VmRSS:");
                let t0 = Instant::now();
                let r = w.run(k, None);
                untraced_ms = t0.elapsed().as_secs_f64() * 1e3;
                tr.retained_kb.push(proc_status_kb("VmRSS:") - rss0);
                ledger.record(&r);
                if first[k].is_none() {
                    first[k] = Some(r);
                }
            }
        }
        let (task_ms, t, r) = traced.expect("every pair has a traced leg");
        let mut phase_ms = BTreeMap::new();
        let mut top_level_ms = 0.0;
        for s in &t.spans {
            *phase_ms.entry(s.name).or_default() += s.dur_ns as f64 / 1e6;
            if s.parent == "task" {
                top_level_ms += s.dur_ns as f64 / 1e6;
            }
        }
        for (dst, src) in tr.api_ns.iter_mut().zip(&t.api_self_ns) {
            dst.extend(src.iter().map(|&ns| ns as f64));
        }
        tr.api_calls[k].get_or_insert(t.api_calls);
        tr.spans.extend(t.spans);
        tr.tasks.push(TracedTask {
            task_ms,
            top_level_ms,
            untraced_ms,
            phase_ms,
            counts: r.counts,
        });
        pair += 1;
    }
    tr
}

/// Re-run the first input and count what failed to repeat exactly.
struct Probe {
    virtual_repeat: bool,
    counts_differing: usize,
}

fn probe(w: &Inputs, first: &TaskResult, ledger: &mut Ledger) -> Probe {
    let r = w.run(0, None);
    ledger.record(&r);
    let keys: std::collections::BTreeSet<_> = first.counts.keys().chain(r.counts.keys()).collect();
    let counts_differing = keys
        .into_iter()
        .filter(|k| first.counts.get(*k) != r.counts.get(*k))
        .count();
    Probe {
        virtual_repeat: r.virtual_ns == first.virtual_ns,
        counts_differing,
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn per_layer(first: &[TaskResult], tr: &Traced, pr: &Probe) -> Vec<Metric> {
    let n = first.len() as f64;
    let mut tot: Counts = BTreeMap::new();
    for r in first {
        for (k, v) in &r.counts {
            job::add(&mut tot, k, *v);
        }
    }
    let t = |k: &str| tot.get(k).copied().unwrap_or(0.0);
    let per_task = |k: &str| t(k) / n;
    // Medians over traced tasks.
    let med = |f: &dyn Fn(&TracedTask) -> Option<f64>| {
        median(&tr.tasks.iter().filter_map(f).collect::<Vec<_>>())
    };
    let ph = |x: &TracedTask, k: &str| x.phase_ms.get(k).copied().unwrap_or(0.0);
    let job_ns = |x: &TracedTask| {
        (ph(x, "runtime.run_job") + ph(x, "check.exec_ir") + ph(x, "check.exec_ir_relaxed")) * 1e6
    };
    let per_count = |x: &TracedTask, k: &str| {
        let c = x.counts.get(k).copied().unwrap_or(0.0);
        (c > 0.0).then(|| job_ns(x) / c)
    };
    let api_p50 = |k: ApiKind| median(&tr.api_ns[k as usize]);
    let calls: Vec<f64> = tr.api_calls.iter().flatten().map(|&c| c as f64).collect();
    let static_ms = |x: &TracedTask| {
        ph(x, "analyze.analyze") + ph(x, "analyze.slack") + ph(x, "analyze.rewrite")
    };
    let steps_orig = t("check.blocked_steps_orig");
    let mut v = vec![
        m("sim.events", per_task("sim.events"), "count"),
        m("sim.switches", per_task("sim.switches"), "count"),
        m(
            "sim.host_ns_per_event",
            med(&|x| per_count(x, "sim.events")),
            "ns",
        ),
        m(
            "runtime.setup_ms",
            med(&|x| Some(ph(x, "runtime.setup"))),
            "ms",
        ),
        m(
            "runtime.teardown_ms",
            med(&|x| Some(ph(x, "runtime.teardown"))),
            "ms",
        ),
        m(
            "api.calls",
            ratio(calls.iter().sum(), calls.len() as f64),
            "count",
        ),
        m("api.data_ns_p50", api_p50(ApiKind::Data), "ns"),
        m("api.nb_sync_ns_p50", api_p50(ApiKind::NbSync), "ns"),
        m("api.block_ns_p50", api_p50(ApiKind::Block), "ns"),
        m(
            "api.mpi_virtual_frac",
            ratio(t("api.mpi_virtual_frac"), t("jobs")),
            "frac",
        ),
        m("engine.sweeps", per_task("engine.sweeps"), "count"),
    ];
    const STEPS: [&str; 7] = [
        "engine.step1",
        "engine.step2",
        "engine.step3",
        "engine.step4",
        "engine.step5",
        "engine.step6",
        "engine.step7",
    ];
    for k in STEPS {
        v.push(m(k, per_task(k), "count"));
    }
    for k in [
        "engine.ops_issued",
        "engine.issue_scans",
        "engine.completion_checks",
        "engine.activation_scans",
        "engine.epochs_deferred",
        "engine.fifo_packets",
        "engine.notices_batched",
        "engine.grant_pumps",
        "engine.sync_blocked_steps",
    ] {
        v.push(m(k, per_task(k), "count"));
    }
    v.extend([
        m(
            "engine.sync_blocked_virtual_ns",
            per_task("engine.sync_blocked_virtual_ns"),
            "ns",
        ),
        m(
            "engine.completion_yield",
            ratio(t("engine.epochs_completed"), t("engine.completion_checks")),
            "frac",
        ),
        m(
            "engine.issue_yield",
            ratio(t("engine.ops_issued"), t("engine.issue_scans")),
            "frac",
        ),
        m(
            "engine.host_ns_per_sweep",
            med(&|x| per_count(x, "engine.sweeps")),
            "ns",
        ),
        m("net.msgs", per_task("net.msgs"), "count"),
        m("net.bytes", per_task("net.bytes"), "B"),
        m("net.credit_stalls", per_task("net.credit_stalls"), "count"),
        m(
            "net.faults_injected",
            per_task("net.faults_injected"),
            "count",
        ),
        m("rel.frames", per_task("rel.frames"), "count"),
        m("rel.retransmits", per_task("rel.retransmits"), "count"),
        m("rel.acks", per_task("rel.acks"), "count"),
        m(
            "rel.acks_coalesced",
            per_task("rel.acks_coalesced"),
            "count",
        ),
        m(
            "rel.goodput",
            ratio(t("rel.delivered"), t("rel.frames") + t("rel.retransmits")),
            "frac",
        ),
        m("ckpt.commits", per_task("ckpt.commits"), "count"),
        m("ckpt.bytes", per_task("ckpt.bytes"), "B"),
        m(
            "ckpt.bytes_per_commit",
            ratio(t("ckpt.bytes"), t("ckpt.commits")),
            "B",
        ),
        m(
            "analyze.analyze_ms",
            med(&|x| Some(ph(x, "analyze.analyze"))),
            "ms",
        ),
        m(
            "analyze.slack_ms",
            med(&|x| Some(ph(x, "analyze.slack"))),
            "ms",
        ),
        m(
            "analyze.rewrite_ms",
            med(&|x| Some(ph(x, "analyze.rewrite"))),
            "ms",
        ),
        m(
            "analyze.host_share",
            med(&|x| Some(ratio(static_ms(x), x.task_ms))),
            "frac",
        ),
        m("analyze.relaxed", per_task("analyze.relaxed"), "count"),
        m("analyze.skipped", per_task("analyze.skipped"), "count"),
        m("analyze.fire_rate", per_task("analyze.fired"), "frac"),
        m(
            "check.gen_lower_ms",
            med(&|x| Some(ph(x, "check.gen_lower"))),
            "ms",
        ),
        m(
            "check.exec_ir_ms",
            med(&|x| Some(ph(x, "check.exec_ir"))),
            "ms",
        ),
        m(
            "check.exec_ir_relaxed_ms",
            med(&|x| Some(ph(x, "check.exec_ir_relaxed"))),
            "ms",
        ),
        m(
            "check.relaxed_host_ratio",
            med(&|x| {
                let e = ph(x, "check.exec_ir");
                (e > 0.0).then(|| ph(x, "check.exec_ir_relaxed") / e)
            }),
            "ratio",
        ),
        m(
            "check.blocked_steps_cut",
            if steps_orig > 0.0 {
                1.0 - t("check.blocked_steps_relaxed") / steps_orig
            } else {
                0.0
            },
            "frac",
        ),
        m(
            "mem.retained_kb_per_task",
            ratio(tr.retained_kb.iter().sum(), tr.retained_kb.len() as f64),
            "KB",
        ),
        m(
            "trace.overhead_frac",
            med(&|x| Some(ratio(x.task_ms, x.untraced_ms) - 1.0)),
            "frac",
        ),
        m(
            "trace.span_cover_frac",
            med(&|x| Some(ratio(x.top_level_ms, x.task_ms))),
            "frac",
        ),
        m(
            "probe.virtual_repeat",
            pr.virtual_repeat as u8 as f64,
            "bool",
        ),
        m(
            "probe.counts_differing",
            pr.counts_differing as f64,
            "count",
        ),
    ]);
    v
}

fn write_spans(workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<std::path::PathBuf> {
    use std::io::Write;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        writeln!(
            f,
            r#"{{"task":{},"name":"{}","parent":"{}","start_ns":{},"dur_ns":{}}}"#,
            s.task, s.name, s.parent, s.start_ns, s.dur_ns
        )?;
    }
    f.flush()?;
    Ok(path)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(ms) = args.worker_ms {
        worker(
            &Inputs::generate(&args.workload, args.seed),
            Duration::from_millis(ms),
        );
        return;
    }
    let dur = Duration::from_secs(args.seconds);
    let mut ledger = Ledger::default();

    // Set-up: input generation plus one warm-up task, repeated.
    let mut setup_s = Vec::new();
    let w = loop {
        let t0 = Instant::now();
        let inputs = Inputs::generate(&args.workload, args.seed);
        ledger.record(&inputs.run(0, None));
        setup_s.push(t0.elapsed().as_secs_f64());
        if args.trace || setup_s.len() >= inputs.setup_reps() {
            break inputs;
        }
    };
    let n = w.len();
    let mut first: Vec<Option<TaskResult>> = (0..n).map(|_| None).collect();

    let (timed, traced) = if args.trace {
        (None, Some(traced_loop(&w, dur, &mut ledger, &mut first)))
    } else {
        match timed_loop(&args, &w, dur, &mut ledger, &mut first) {
            Ok(t) => (Some(t), None),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
    };
    let mut first: Vec<TaskResult> = first
        .into_iter()
        .map(|r| r.expect("the loop runs every input at least once"))
        .collect();
    let pr = probe(&w, &first[0], &mut ledger);

    let mut out = String::new();
    let metrics = if let Some(tr) = &traced {
        match write_spans(&args.workload, args.seed, &tr.spans) {
            Ok(p) => eprintln!(
                "perfbench: {} spans written to {}",
                tr.spans.len(),
                p.display()
            ),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
        let v = per_layer(&first, tr, &pr);
        let overhead = v
            .iter()
            .find(|x| x.name == "trace.overhead_frac")
            .map_or(0.0, |x| x.value);
        let _ =
            writeln!(
            out,
            "# traced task spans vs paired untraced wall time: {:+.1}% ({} the ±{:.0}% tolerance)",
            overhead * 100.0,
            if overhead.abs() <= TRACE_TOLERANCE { "within" } else { "OUTSIDE" },
            TRACE_TOLERANCE * 100.0
        );
        let _ = writeln!(
            out,
            "# {} traced pass(es) over {n} distinct inputs{}",
            tr.passes,
            if tr.capped {
                ", ended early by the memory cap"
            } else {
                ""
            }
        );
        v
    } else {
        let t = timed.expect("untraced run");
        for (k, r) in first.iter_mut().enumerate() {
            if r.blocking_virtual_ns.is_none() {
                let b = w
                    .blocking_twin(k)
                    .expect("workload runs its twin outside the task");
                ledger.record(&b);
                r.blocking_virtual_ns = Some(b.virtual_ns);
            }
        }
        let virt = t.virtual_us();
        let log_gain: f64 = first
            .iter()
            .zip(&virt)
            .map(|(r, us)| (r.blocking_virtual_ns.unwrap_or(0) as f64 / 1e3 / us).ln())
            .sum::<f64>()
            / n as f64;
        let all_ms = t.all_ms();
        let best_ms = t.best_ms();
        let samples = all_ms.len();
        // A p90 needs at least ten samples beyond it.
        let p90 = if samples >= 100 {
            format!("task_ms_p90 {:.4} ms (n={samples})", quantile(&all_ms, 0.9))
        } else {
            format!("no task_ms_p90 (n={samples} < 100)")
        };
        let _ = writeln!(
            out,
            "# {} seed {}: {samples} timed tasks over {n} distinct inputs; task_ms_p50 {:.4} ms \
             (n={samples}), {p90}; {} set-ups; VmHWM at exit {:.1} MB",
            args.workload,
            args.seed,
            median(&all_ms),
            setup_s.len(),
            proc_status_kb("VmHWM:") / 1024.0,
        );
        vec![
            m("setup_s", median(&setup_s), "s"),
            m(
                "best_rma_ops_per_s",
                first.iter().map(|r| r.rma_ops as f64).sum::<f64>()
                    / (best_ms.iter().sum::<f64>() / 1e3),
                "1/s",
            ),
            m("task_best_ms_p50", median(&best_ms), "ms"),
            m("virtual_us_p50", median(&virt), "us"),
            m("relax_virtual_gain", log_gain.exp(), "x"),
            m("peak_rss_mb", t.peak_rss_mb, "MB"),
        ]
    };
    let _ = writeln!(
        out,
        "# attempted {} failed {} failed_frac {}; probe: virtual time {}, {} count(s) differ",
        ledger.attempted,
        ledger.failed,
        ledger.failed as f64 / ledger.attempted as f64,
        if pr.virtual_repeat {
            "repeats"
        } else {
            "DIFFERS"
        },
        pr.counts_differing
    );
    for x in &metrics {
        let _ = writeln!(out, "# {:<32} {:>16} {}", x.name, x.value, x.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                x.name, x.value, x.unit
            )
        })
        .collect();
    let _ = writeln!(
        out,
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    );
    print!("{out}");
}
