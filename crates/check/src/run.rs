//! The one executor: run an analyzer [`IrProgram`] through the real
//! runtime under one point of the exploration matrix — strategy × network
//! perturbation × tie-break seed × fault plan × crash point × exec mode.
//!
//! A generated [`Program`] has no executor of its own: [`execute`] lowers
//! it ([`crate::lower::lower`]) and runs the IR, so the program the
//! analyzer certifies is the program that runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use mpisim_analyze::{Close, FetchKind, IrProgram, Stmt};
use mpisim_core::{
    run_job, Datatype, ExecMode, Group, JobConfig, JobReport, LockKind, Rank, RankEnv,
    RecoveryCfg, ReduceOp, Req, RmaResult, SyncStrategy, WinId, WinInfo,
};
use mpisim_net::NetParams;
use mpisim_sim::SimTime;

use crate::lower::lower;
use crate::program::Program;

/// One point of the exploration matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunSpec {
    /// Engine strategy.
    pub strategy: SyncStrategy,
    /// Close every epoch with the `i`-routines and wait at the end. Read
    /// by [`execute`] when it lowers a generated program; an
    /// [`IrProgram`] spells out its closes itself.
    pub nonblocking: bool,
    /// Index into [`NetParams::perturbation_profile`] (latency jitter ×
    /// credit starvation grid).
    pub net_profile: u64,
    /// Kernel tie-break perturbation (`None` = FIFO).
    pub tiebreak_seed: Option<u64>,
    /// Simulation seed.
    pub sim_seed: u64,
    /// Injected engine fault (`None` = none). Always passed explicitly to
    /// the job so the `MPISIM_CHECK_INJECT` env fallback never interferes
    /// with harness runs.
    pub fault: Option<String>,
    /// Named network fault plan ([`mpisim_net::FaultPlan::by_name`],
    /// seeded from `sim_seed`). When set, every rank is placed on its own
    /// node so the plan's internode faults actually strike the traffic.
    pub fault_plan: Option<String>,
    /// Run with the ack/retransmit reliability sublayer and the epoch
    /// stall watchdog on. Required for clean runs under any lossy
    /// `fault_plan`; left off in storm self-tests to prove the harness
    /// detects unprotected fault damage.
    pub reliable: bool,
    /// Arm the stall watchdog and keep walking past failed calls: the
    /// deadlock cross-validation's mode, where statements after a
    /// cancelled epoch may legitimately fail and a deadlocking program
    /// must still terminate — degraded, with one
    /// [`mpisim_core::StallReport`] per cancelled epoch. Off, every call
    /// must succeed, and a failed call panics its rank.
    pub watchdog: bool,
    /// Crash one rank at one epoch-commit point: `(rank, commit)` crashes
    /// the rank's NIC the moment it completes its `commit`-th epoch commit
    /// (1-based, rank-wide ordinal). Setting this arms the full recovery
    /// stack: checkpointing, the reliability sublayer, the watchdog, and
    /// one-rank-per-node placement (a crash must cut real internode
    /// traffic).
    pub crash_at: Option<(usize, u64)>,
    /// Validation backdoor for the `--inject bad-recovery` self-test:
    /// checkpoint only at window allocation and restore the crashed rank
    /// *without* redo-log replay, so the restored window is deliberately
    /// stale and the differential check must observe the divergence.
    pub bad_recovery: bool,
}

impl RunSpec {
    /// The unperturbed baseline point.
    pub fn baseline(strategy: SyncStrategy, nonblocking: bool) -> Self {
        RunSpec {
            strategy,
            nonblocking,
            net_profile: 0,
            tiebreak_seed: None,
            sim_seed: 7,
            fault: None,
            fault_plan: None,
            reliable: false,
            watchdog: false,
            crash_at: None,
            bad_recovery: false,
        }
    }

    /// Render as a Rust expression (for generated reproducer tests).
    pub fn to_rust(&self) -> String {
        let strategy = match self.strategy {
            SyncStrategy::LazyBaseline => "SyncStrategy::LazyBaseline",
            SyncStrategy::Redesigned => "SyncStrategy::Redesigned",
        };
        let fault = match &self.fault {
            Some(f) => format!("Some({f:?}.to_string())"),
            None => "None".into(),
        };
        let fault_plan = match &self.fault_plan {
            Some(p) => format!("Some({p:?}.to_string())"),
            None => "None".into(),
        };
        format!(
            "RunSpec {{\n        strategy: {strategy},\n        nonblocking: {},\n        \
             net_profile: {},\n        tiebreak_seed: {:?},\n        sim_seed: {},\n        \
             fault: {fault},\n        fault_plan: {fault_plan},\n        reliable: {},\n        \
             watchdog: {},\n        crash_at: {:?},\n        bad_recovery: {},\n    }}",
            self.nonblocking,
            self.net_profile,
            self.tiebreak_seed,
            self.sim_seed,
            self.reliable,
            self.watchdog,
            self.crash_at,
            self.bad_recovery
        )
    }
}

/// What a successful run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// Final window bytes per rank (every window, in allocation order).
    pub mems: Vec<Vec<u8>>,
    /// Get results: rank by rank, each rank's in program order.
    pub gets: Vec<Vec<u8>>,
    /// The full job report (traces, stats) for auditing.
    pub report: JobReport,
}

/// How a run failed before producing a result.
#[derive(Clone, Debug)]
pub enum RunFailure {
    /// The simulation deadlocked (or hit the event cap).
    Deadlock(String),
    /// A rank panicked (failed call, engine invariant, …).
    Panic(String),
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunFailure::Deadlock(m) => write!(f, "deadlock: {m}"),
            RunFailure::Panic(m) => write!(f, "panic: {m}"),
        }
    }
}

/// Kernel execution-mode overrides for the determinism cross-check.
/// Orthogonal to [`RunSpec`]: every matrix point can be replayed under any
/// exec mode, and the results must be indistinguishable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecOpts {
    /// How rank processes execute (thread-per-rank vs pooled fibers).
    pub exec: ExecMode,
    /// Plant the kernel's deliberately nondeterministic tie-break
    /// (validation backdoor) — the cross-check must then *fail*.
    pub nondet_tiebreak: bool,
}

fn job_config(n_ranks: usize, spec: &RunSpec, trace: bool, eo: ExecOpts) -> JobConfig {
    let mut cfg = JobConfig::new(n_ranks).with_seed(spec.sim_seed).with_strategy(spec.strategy);
    cfg.net = NetParams::perturbation_profile(spec.net_profile);
    cfg.tiebreak_seed = spec.tiebreak_seed;
    cfg.trace = trace;
    cfg.exec = eo.exec;
    cfg.nondet_tiebreak = eo.nondet_tiebreak;
    // `Some("")` disables the env-var fallback: harness runs are hermetic.
    cfg.fault = Some(spec.fault.clone().unwrap_or_default());
    if let Some(plan) = &spec.fault_plan {
        // One rank per node: the default 16-cores-per-node placement would
        // keep every channel intranode, where the fault model (and the
        // sublayer's framing) never applies.
        cfg.cores_per_node = 1;
        cfg.net.faults = Some(
            mpisim_net::FaultPlan::by_name(plan, spec.sim_seed)
                .unwrap_or_else(|| panic!("unknown fault plan {plan:?}")),
        );
    }
    if spec.reliable {
        cfg = cfg.with_reliability();
    }
    if spec.reliable || spec.watchdog {
        cfg = cfg.with_watchdog(SimTime::from_millis(20));
    }
    if let Some((rank, commit)) = spec.crash_at {
        // A crash must sever real internode traffic, so placement follows
        // the fault-plan rule: one rank per node.
        cfg.cores_per_node = 1;
        // The recovery stack rides on the reliability sublayer (the
        // outage is bridged by retransmission) and needs a watchdog
        // budget comfortably above the restart outage.
        cfg = cfg.with_reliability().with_watchdog(SimTime::from_millis(50));
        cfg.recovery = Some(RecoveryCfg {
            // Healthy mode checkpoints at every commit. The bad-recovery
            // self-test keeps only the win_allocate baseline, so the redo
            // log at crash time is maximal and skipping its replay
            // guarantees a stale window.
            ckpt_every: if spec.bad_recovery { u64::MAX } else { 1 },
            plant_stale: spec.bad_recovery,
            ..RecoveryCfg::default()
        });
        cfg.net
            .faults
            .get_or_insert_with(|| mpisim_net::FaultPlan::none(spec.sim_seed))
            .crash_at_commit
            .push((mpisim_net::Rank(rank), commit));
    }
    cfg
}

/// `run_job` with both failure modes mapped into [`RunFailure`]: a
/// simulated deadlock surfaces as `Err(SimError)`, an engine/rank panic
/// unwinds through `sim.run()`.
fn run_guarded<F>(cfg: JobConfig, f: F) -> Result<JobReport, RunFailure>
where
    F: Fn(&mut RankEnv) + Send + Sync + 'static,
{
    match catch_unwind(AssertUnwindSafe(|| run_job(cfg, f))) {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(e)) => Err(RunFailure::Deadlock(e.to_string())),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(RunFailure::Panic(msg))
        }
    }
}

/// Execute `program` under `spec` with the trace recorder attached.
pub fn execute(program: &Program, spec: &RunSpec) -> Result<RunOutcome, RunFailure> {
    execute_with_trace(program, spec, true)
}

/// Execute `program` under `spec`, choosing whether the trace recorder
/// is attached. `trace: false` is the lean production-shaped path: the
/// engine's tracing hooks must stay behind their branch-free guard and
/// the run must be observably identical (verdict, memories, counters)
/// to the full-trace run — see `tests/lean_trace.rs`.
pub fn execute_with_trace(
    program: &Program,
    spec: &RunSpec,
    trace: bool,
) -> Result<RunOutcome, RunFailure> {
    run_ir(&lower(program, spec.nonblocking), spec, trace, ExecOpts::default())
}

/// Run `p` under `spec` and `eo` as a complete program: after its last
/// statement every rank waits for its outstanding requests, consumes its
/// `Get` results, reads back every window behind a barrier, and frees the
/// windows. Freeing retires dormant trailing fences and rejects a window
/// with an epoch still open, which the trace audit relies on.
pub fn run_ir(
    p: &IrProgram,
    spec: &RunSpec,
    trace: bool,
    eo: ExecOpts,
) -> Result<RunOutcome, RunFailure> {
    exec_ir_inner(p, spec, trace, eo, Finish::CaptureAndFree)
}

/// Execute an analyzer [`IrProgram`] on the calibrated baseline network
/// and return its job report. With `watchdog` set the stall watchdog is
/// armed and the interpreter keeps walking past failed calls (see
/// [`RunSpec::watchdog`]), so even a deadlocking program terminates —
/// which is exactly the property the deadlock cross-validation measures.
pub fn exec_ir(p: &IrProgram, watchdog: bool, sim_seed: u64) -> Result<JobReport, RunFailure> {
    let spec = ir_spec(watchdog, sim_seed, SyncStrategy::Redesigned);
    Ok(exec_ir_inner(p, &spec, true, ExecOpts::default(), Finish::Report)?.report)
}

/// [`exec_ir`] for the rewrite-equivalence validator: runs under an
/// explicit engine `strategy` and additionally captures every rank's
/// final window bytes (via a trailing barrier + local read, so all
/// in-flight operations have landed). The memory capture is what makes
/// the original-vs-rewritten differential comparison possible for IR
/// programs.
pub fn exec_ir_with(
    p: &IrProgram,
    watchdog: bool,
    sim_seed: u64,
    strategy: SyncStrategy,
) -> Result<(Vec<Vec<u8>>, JobReport), RunFailure> {
    let spec = ir_spec(watchdog, sim_seed, strategy);
    let out = exec_ir_inner(p, &spec, true, ExecOpts::default(), Finish::Capture)?;
    Ok((out.mems, out.report))
}

fn ir_spec(watchdog: bool, sim_seed: u64, strategy: SyncStrategy) -> RunSpec {
    RunSpec { sim_seed, watchdog, ..RunSpec::baseline(strategy, false) }
}

/// What every rank does once its statements and the final `wait_all`
/// are done (and its `Get` results are consumed).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Finish {
    /// Nothing more: the job report is the whole result.
    Report,
    /// A barrier, then a local read of every window.
    Capture,
    /// [`Finish::Capture`], then `win_free` on every window.
    CaptureAndFree,
}

/// The result of one call: with `keep_walking` a failure is dropped so
/// the rank walks on; otherwise it panics the rank.
fn ok<T>(keep_walking: bool, r: RmaResult<T>) -> Option<T> {
    match r {
        Ok(v) => Some(v),
        Err(_) if keep_walking => None,
        Err(e) => panic!("call failed: {e:?}"),
    }
}

/// Issue one value-producing read and block for its 8-byte result.
fn fetch_value(
    env: &RankEnv,
    w: WinId,
    target: usize,
    disp: usize,
    kind: FetchKind,
    keep_walking: bool,
) -> Option<u64> {
    let one = 1u64.to_le_bytes();
    let req = match kind {
        FetchKind::Get => env.get(w, Rank(target), disp, 8),
        FetchKind::GetAcc(op) => env.get_accumulate(w, Rank(target), disp, Datatype::U64, op, &one),
        FetchKind::FetchOp(op) => env.fetch_and_op(w, Rank(target), disp, Datatype::U64, op, &one),
    };
    let req = ok(keep_walking, req)?;
    let bytes = ok(keep_walking, env.wait_data(req))?;
    let mut buf = [0u8; 8];
    let n = bytes.len().min(8);
    buf[..n].copy_from_slice(&bytes[..n]);
    Some(u64::from_le_bytes(buf))
}

fn exec_ir_inner(
    p: &IrProgram,
    spec: &RunSpec,
    trace: bool,
    eo: ExecOpts,
    finish: Finish,
) -> Result<RunOutcome, RunFailure> {
    let n_ranks = p.n_ranks;
    let kw = spec.watchdog;
    let mems = Arc::new(Mutex::new(vec![Vec::new(); n_ranks]));
    let gets = Arc::new(Mutex::new(vec![Vec::new(); n_ranks]));
    let (m2, g2) = (mems.clone(), gets.clone());
    let prog = Arc::new(p.clone());
    let report = run_guarded(job_config(n_ranks, spec, trace, eo), move |env| {
        let me = env.rank().idx();
        let info = if prog.reorder { WinInfo::all_reorder() } else { WinInfo::default() };
        let wins: Vec<_> = prog
            .windows
            .iter()
            .map(|bytes| env.win_allocate_with(*bytes, info).expect("window allocation"))
            .collect();
        let mut pending: Vec<Req> = Vec::new();
        let mut get_reqs: Vec<Req> = Vec::new();
        // Value locals: binding provenance (win, target, disp, kind) plus
        // the last value fetched into the local.
        let mut locals: std::collections::BTreeMap<usize, (usize, usize, usize, FetchKind, u64)> =
            std::collections::BTreeMap::new();
        let close = |c: Close,
                     blocking: &dyn Fn() -> RmaResult<()>,
                     nonblocking: &dyn Fn() -> RmaResult<Req>,
                     pending: &mut Vec<Req>| match c {
            Close::Blocking => {
                ok(kw, blocking());
            }
            Close::Nonblocking => pending.extend(ok(kw, nonblocking())),
        };
        let acc = |w: WinId, target: usize, disp: usize, op: ReduceOp, val: u64| {
            ok(kw, env.accumulate(w, Rank(target), disp, Datatype::U64, op, &val.to_le_bytes()));
        };
        for stmt in &prog.ranks[me] {
            match stmt {
                Stmt::Fence { win, close: c } => {
                    let w = wins[*win];
                    close(*c, &|| env.fence(w), &|| env.ifence(w), &mut pending);
                }
                Stmt::Start { win, group } => {
                    ok(kw, env.start(wins[*win], Group::new(group.iter().copied())));
                }
                Stmt::Complete { win, close: c } => {
                    let w = wins[*win];
                    close(*c, &|| env.complete(w), &|| env.icomplete(w), &mut pending);
                }
                Stmt::Post { win, group } => {
                    ok(kw, env.post(wins[*win], Group::new(group.iter().copied())));
                }
                Stmt::WaitEpoch { win, close: c } => {
                    let w = wins[*win];
                    close(*c, &|| env.wait_epoch(w), &|| env.iwait(w), &mut pending);
                }
                Stmt::Lock { win, target, exclusive, nonblocking } => {
                    let kind = if *exclusive { LockKind::Exclusive } else { LockKind::Shared };
                    let (w, t) = (wins[*win], Rank(*target));
                    let c = if *nonblocking { Close::Nonblocking } else { Close::Blocking };
                    close(c, &|| env.lock(w, t, kind), &|| env.ilock(w, t, kind), &mut pending);
                }
                Stmt::Unlock { win, target, close: c } => {
                    let (w, t) = (wins[*win], Rank(*target));
                    close(*c, &|| env.unlock(w, t), &|| env.iunlock(w, t), &mut pending);
                }
                Stmt::LockAll { win } => {
                    ok(kw, env.lock_all(wins[*win]));
                }
                Stmt::UnlockAll { win, close: c } => {
                    let w = wins[*win];
                    close(*c, &|| env.unlock_all(w), &|| env.iunlock_all(w), &mut pending);
                }
                Stmt::Flush { win, target, local_only, close: c } => {
                    let w = wins[*win];
                    match (target.map(Rank), local_only) {
                        (Some(t), false) => {
                            close(*c, &|| env.flush(w, t), &|| env.iflush(w, t), &mut pending)
                        }
                        (Some(t), true) => close(
                            *c,
                            &|| env.flush_local(w, t),
                            &|| env.iflush_local(w, t),
                            &mut pending,
                        ),
                        (None, false) => {
                            close(*c, &|| env.flush_all(w), &|| env.iflush_all(w), &mut pending)
                        }
                        (None, true) => close(
                            *c,
                            &|| env.flush_local_all(w),
                            &|| env.iflush_local_all(w),
                            &mut pending,
                        ),
                    }
                }
                Stmt::Put { win, target, disp, len, val } => {
                    ok(kw, env.put(wins[*win], Rank(*target), *disp, &vec![*val; *len]));
                }
                Stmt::Get { win, target, disp, len } => {
                    get_reqs.extend(ok(kw, env.get(wins[*win], Rank(*target), *disp, *len)));
                }
                // `Acc` models an accumulate whose operand is unknown; it
                // runs with operand 1.
                Stmt::Acc { win, target, disp, op, .. } => acc(wins[*win], *target, *disp, *op, 1),
                Stmt::AccVal { win, target, disp, op, val } => {
                    acc(wins[*win], *target, *disp, *op, *val)
                }
                Stmt::ReadValue { win, target, disp, kind, local } => {
                    let v = fetch_value(env, wins[*win], *target, *disp, *kind, kw).unwrap_or(0);
                    locals.insert(*local, (*win, *target, *disp, *kind, v));
                }
                Stmt::SpinUntil { local, expect } => {
                    // Bounded spin: re-fetch the bound slot until the
                    // expected value appears or the budget runs out. The
                    // budget (800 × 100µs = 80ms virtual) sits comfortably
                    // past twice the 20ms watchdog window, so a doomed
                    // spin stalls its peers hard enough for the watchdog
                    // to act while the run itself still terminates.
                    if let Some((win, target, disp, kind, mut v)) = locals.get(local).copied() {
                        let mut spins = 0u32;
                        while v != *expect && spins < 800 {
                            env.compute(SimTime::from_micros(100));
                            v = fetch_value(env, wins[win], target, disp, kind, kw).unwrap_or(v);
                            spins += 1;
                        }
                        if let Some(slot) = locals.get_mut(local) {
                            slot.4 = v;
                        }
                    }
                }
                Stmt::Compute { ns } => env.compute(SimTime::from_nanos(*ns)),
                Stmt::WaitAll => {
                    ok(kw, env.wait_all(pending.drain(..)));
                }
                Stmt::Barrier => {
                    ok(kw, env.barrier());
                }
            }
        }
        ok(kw, env.wait_all(pending.drain(..)));
        g2.lock().expect("no rank panics holding the results")[me] = get_reqs
            .into_iter()
            .filter_map(|r| ok(kw, env.wait_data(r)))
            .map(|b| b.to_vec())
            .collect();
        if finish == Finish::Report {
            return;
        }
        ok(kw, env.barrier());
        let mut all = Vec::new();
        for (w, bytes) in wins.iter().zip(&prog.windows) {
            all.extend(ok(kw, env.read_local(*w, 0, *bytes)).unwrap_or_default());
        }
        m2.lock().expect("no rank panics holding the results")[me] = all;
        if finish == Finish::CaptureAndFree {
            for w in wins {
                ok(kw, env.win_free(w));
            }
        }
    })?;
    let mems = std::mem::take(&mut *mems.lock().expect("the job is over"));
    let gets = std::mem::take(&mut *gets.lock().expect("the job is over"));
    let gets = gets.into_iter().flatten().collect();
    Ok(RunOutcome { mems, gets, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{generate, oracle, Family};

    #[test]
    fn every_family_matches_its_oracle_in_both_close_modes() {
        for family in Family::ALL {
            for idx in 0..8 {
                let p = generate(family, idx);
                let exp = oracle(&p);
                for nb in [false, true] {
                    let tag = format!("{family:?} #{idx} nb={nb}");
                    let out = execute(&p, &RunSpec::baseline(SyncStrategy::Redesigned, nb))
                        .unwrap_or_else(|f| panic!("{tag}: {f}"));
                    assert_eq!(out.mems, exp.mems, "{tag}");
                    assert_eq!(out.gets, exp.gets, "{tag}");
                    assert_eq!(out.report.live_requests, 0, "{tag}");
                    assert!(!out.report.trace.is_empty(), "{tag}: tracing must be on");
                }
            }
        }
    }

    #[test]
    fn exec_ir_consumes_get_requests() {
        let mut p = IrProgram::new(2, 16);
        p.ranks[0] = vec![
            Stmt::LockAll { win: 0 },
            Stmt::Get { win: 0, target: 1, disp: 0, len: 8 },
            Stmt::UnlockAll { win: 0, close: Close::Blocking },
        ];
        let report = exec_ir(&p, false, 7).unwrap();
        assert_eq!(report.live_requests, 0);

        // A get in an access epoch whose target never posts: the watchdog
        // cancels the epoch, and consuming the get must not hang the run.
        p.ranks[0] = vec![
            Stmt::Start { win: 0, group: vec![1] },
            Stmt::Get { win: 0, target: 1, disp: 0, len: 8 },
            Stmt::Complete { win: 0, close: Close::Blocking },
        ];
        let report = exec_ir(&p, true, 7).expect("the watchdog must terminate the run");
        assert!(!report.degradations.is_empty(), "the stuck epoch must be cancelled");
    }

    #[test]
    fn spec_to_rust_mentions_every_field() {
        let s = RunSpec {
            strategy: SyncStrategy::LazyBaseline,
            nonblocking: true,
            net_profile: 5,
            tiebreak_seed: Some(3),
            sim_seed: 11,
            fault: Some("skip-grant".into()),
            fault_plan: Some("light-loss".into()),
            reliable: true,
            watchdog: true,
            crash_at: Some((2, 4)),
            bad_recovery: true,
        };
        let src = s.to_rust();
        for needle in [
            "LazyBaseline",
            "nonblocking: true",
            "net_profile: 5",
            "Some(3)",
            "skip-grant",
            "light-loss",
            "reliable: true",
            "watchdog: true",
            "crash_at: Some((2, 4))",
            "bad_recovery: true",
        ] {
            assert!(src.contains(needle), "missing {needle} in {src}");
        }
    }
}
