//! What every task reports, and the traced wrapper around `run_job`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mpisim_core::{run_job, JobConfig, JobReport, RankEnv, RmaResult};

use crate::spans::{Api, TaskTrace};

/// Per-task counts the program reports, by per-layer metric name. Every
/// value is deterministic for a given input (the repeatability probe
/// checks that).
pub type Counts = BTreeMap<&'static str, f64>;

/// Outcome of one task.
#[derive(Debug, Default)]
pub struct TaskResult {
    /// Why the task failed its checks, if it did.
    pub failure: Option<String>,
    /// Virtual completion time of the task's subject form (ns).
    pub virtual_ns: u64,
    /// Virtual completion time of the all-blocking twin, when the task
    /// runs it itself (`relax_validate`).
    pub blocking_virtual_ns: Option<u64>,
    /// RMA data operations the task's inputs issue, counted on the input
    /// side.
    pub rma_ops: u64,
    pub counts: Counts,
}

impl TaskResult {
    pub fn fail(&mut self, why: String) {
        self.failure.get_or_insert(why);
    }
}

pub fn add(c: &mut Counts, k: &'static str, v: f64) {
    *c.entry(k).or_default() += v;
}

/// Fold one finished job's counters into `c`.
pub fn add_report(c: &mut Counts, r: &JobReport) {
    let e = &r.engine;
    let n = &r.net;
    add(c, "jobs", 1.0);
    add(c, "sim.events", r.sim.events_executed as f64);
    add(c, "sim.switches", r.sim.context_switches as f64);
    add(c, "api.mpi_virtual_frac", r.mean_comm_fraction());
    add(c, "engine.sweeps", e.sweeps as f64);
    const STEPS: [&str; 7] = [
        "engine.step1",
        "engine.step2",
        "engine.step3",
        "engine.step4",
        "engine.step5",
        "engine.step6",
        "engine.step7",
    ];
    for (name, v) in STEPS.iter().zip(e.step_runs) {
        add(c, name, v as f64);
    }
    for (k, v) in [
        ("engine.ops_issued", e.ops_issued),
        ("engine.issue_scans", e.issue_scans),
        ("engine.completion_checks", e.completion_checks),
        ("engine.epochs_completed", e.epochs_completed),
        ("engine.activation_scans", e.activation_scans),
        ("engine.epochs_deferred", e.epochs_deferred),
        ("engine.fifo_packets", e.fifo_packets),
        ("engine.notices_batched", e.notices_batched),
        ("engine.grant_pumps", e.grant_pumps),
        ("engine.sync_blocked_steps", e.sync_blocked_steps),
        // Virtual time, whatever its doc comment says: it sums `ctx.now()`
        // deltas across parks.
        ("engine.sync_blocked_virtual_ns", e.sync_blocked_ns),
        ("net.msgs", n.msgs_sent),
        ("net.bytes", n.bytes_sent),
        ("net.credit_stalls", n.credit_stalls),
        ("net.faults_injected", n.faults_injected),
        ("rel.frames", e.rel_frames_sent),
        ("rel.retransmits", e.rel_retransmits),
        ("rel.acks", e.rel_acks_sent),
        ("rel.acks_coalesced", e.acks_coalesced),
        ("rel.delivered", e.rel_delivered),
        ("ckpt.commits", e.ckpt_commits),
        ("ckpt.bytes", e.ckpt_bytes),
    ] {
        add(c, k, v as f64);
    }
}

/// A job passes when it recorded no degradation and leaked no request.
pub fn check_report(r: &JobReport) -> Result<(), String> {
    if !r.is_clean() {
        return Err(format!(
            "unclean job: {} degradation(s), first {:?}",
            r.degradations.len(),
            r.degradations[0]
        ));
    }
    if r.live_requests != 0 {
        return Err(format!("{} request(s) leaked", r.live_requests));
    }
    Ok(())
}

pub fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// `run_job` with the body's API errors and panics turned into a failed
/// result instead of an abort, and, when `tr` is set, API and runtime
/// spans recorded into it.
pub fn run_traced<F>(
    cfg: JobConfig,
    tr: &mut Option<&mut TaskTrace>,
    body: F,
) -> Result<JobReport, String>
where
    F: Fn(&mut RankEnv, &Api) -> RmaResult<()> + Send + Sync + 'static,
{
    let api = if tr.is_some() {
        Api::traced()
    } else {
        Api::default()
    };
    let errors = Arc::new(Mutex::new(Vec::<String>::new()));
    let (a2, e2) = (api.clone(), errors.clone());
    let entry = Instant::now();
    let res = catch_unwind(AssertUnwindSafe(|| {
        run_job(cfg, move |env| {
            if let Err(e) = body(env, &a2) {
                e2.lock()
                    .expect("error list poisoned")
                    .push(format!("rank {}: {e}", env.rank().idx()));
            }
            a2.returning();
        })
    }));
    let exit = Instant::now();
    if let Some(t) = tr {
        t.finish_job(&api, entry, exit);
    }
    let errors = errors.lock().expect("error list poisoned");
    match res {
        Ok(Ok(r)) if errors.is_empty() => Ok(r),
        Ok(Ok(_)) => Err(format!("API error: {}", errors[0])),
        Ok(Err(e)) => Err(format!("simulation failed: {e}")),
        Err(p) => Err(format!("rank panicked: {}", panic_message(p))),
    }
}

/// Compare a job's final windows against the expected closed-form
/// contents, as little-endian u64 cells.
pub fn check_cells(mems: &[Vec<u8>], expected: &[Vec<u64>]) -> Result<(), String> {
    for (rank, (mem, want)) in mems.iter().zip(expected).enumerate() {
        for (cell, w) in want.iter().enumerate() {
            let got = mem
                .get(cell * 8..cell * 8 + 8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte cell")));
            if got != Some(*w) {
                return Err(format!("rank {rank} cell {cell}: got {got:?}, want {w}"));
            }
        }
    }
    Ok(())
}

/// splitmix64: the benchmark's only source of seeded randomness.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small seeded stream over [`mix`].
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(mix(seed))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next() % den < num
    }
}
