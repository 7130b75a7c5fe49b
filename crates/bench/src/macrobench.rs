//! Macro-benchmarks for the work-list progress engine, and the PR-over-PR
//! perf trajectory file they feed.
//!
//! Unlike the figure harnesses (which report *virtual* time on the
//! calibrated cluster model), these benchmarks measure **host wall-clock
//! per RMA operation** — the cost of the engine itself: sweep dispatch,
//! FIFO drains, epoch matching, request bookkeeping. Three workloads
//! cover the three epoch disciplines the sweep serves:
//!
//! * `halo_fence` — fence-heavy 1-D halo exchange (active target,
//!   collective epochs; stresses step 2/3 issue + completion);
//! * `gats_pipeline` — back-to-back nonblocking GATS epochs toward a
//!   ring neighbour (stresses §VII.A deferral and steps 3/7 activation);
//! * `lock_all_contention` — every rank repeatedly `lock_all`s the same
//!   window and accumulates into shared slots (passive target; stresses
//!   step 5 FIFO drains and step 6 grant pumping).
//!
//! [`trajectory_json`] renders the results, together with the engine's
//! work counters, as `BENCH_<pr>.json` at the repo root so successive
//! PRs accumulate a comparable perf baseline.

use std::time::Instant;

use mpisim_core::{
    run_job, Datatype, EngineStats, Group, JobConfig, LockKind, Rank, ReduceOp,
};
use mpisim_sim::SimTime;

/// One macro-benchmark measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Workload name (JSON key).
    pub name: &'static str,
    /// Ranks in the simulated job.
    pub ranks: usize,
    /// RMA data operations the workload source issues (puts/accumulates).
    pub ops: u64,
    /// Host wall-clock for the whole `run_job`, nanoseconds.
    pub wall_ns: u128,
    /// Final virtual time of the job, nanoseconds.
    pub virt_ns: u64,
    /// Process peak resident set (`VmHWM`) right after the run, KiB;
    /// 0 where `/proc/self/status` is unavailable. The kernel's
    /// high-water mark is monotonic over the process, so within a suite
    /// it is meaningful for the *ascending* ranks sweep (each point's
    /// reading bounds that scale's footprint) and merely an upper bound
    /// elsewhere.
    pub peak_rss_kb: u64,
    /// Engine work counters accumulated over the run.
    pub engine: EngineStats,
}

/// Process peak resident set (`VmHWM`) in KiB from `/proc/self/status`,
/// or 0 when the file or field is unavailable (non-Linux hosts).
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

impl BenchResult {
    /// Host nanoseconds of engine+simulation work per RMA operation.
    pub fn ns_per_op(&self) -> f64 {
        self.wall_ns as f64 / self.ops as f64
    }
}

fn measure<F>(name: &'static str, ranks: usize, ops: u64, body: F) -> BenchResult
where
    F: Fn(&mut mpisim_core::RankEnv) + Send + Sync + 'static,
{
    measure_cfg(name, JobConfig::new(ranks), ranks, ops, body)
}

fn measure_cfg<F>(
    name: &'static str,
    cfg: JobConfig,
    ranks: usize,
    ops: u64,
    body: F,
) -> BenchResult
where
    F: Fn(&mut mpisim_core::RankEnv) + Send + Sync + 'static,
{
    let t0 = Instant::now();
    let report = run_job(cfg, body).expect(name);
    let wall_ns = t0.elapsed().as_nanos();
    assert_eq!(report.live_requests, 0, "{name}: leaked requests");
    assert!(report.is_clean(), "{name}: degradations: {:?}", report.degradations);
    BenchResult {
        name,
        ranks,
        ops,
        wall_ns,
        virt_ns: report.final_time.as_nanos(),
        peak_rss_kb: peak_rss_kb(),
        engine: report.engine,
    }
}

/// The halo-exchange workload body, shared by the three `halo_fence*`
/// placements.
fn halo_body(iters: usize) -> impl Fn(&mut mpisim_core::RankEnv) + Send + Sync + 'static {
    move |env| {
        let win = env.win_allocate(64).unwrap();
        let me = env.rank().idx();
        let n = env.n_ranks();
        let left = Rank((me + n - 1) % n);
        let right = Rank((me + 1) % n);
        env.fence(win).unwrap();
        for i in 0..iters {
            env.put(win, left, 8, &(i as u64).to_le_bytes()).unwrap();
            env.put(win, right, 0, &(i as u64).to_le_bytes()).unwrap();
            env.fence(win).unwrap();
        }
        env.win_free(win).unwrap();
    }
}

/// Fence-heavy 1-D halo exchange: each iteration puts a boundary cell to
/// both ring neighbours and closes with a blocking fence.
pub fn halo_fence(n_ranks: usize, iters: usize) -> BenchResult {
    let ops = (n_ranks * iters * 2) as u64;
    measure("halo_fence", n_ranks, ops, halo_body(iters))
}

/// The same halo exchange with one rank per node: every message crosses
/// the interconnect. Baseline for [`halo_fence_reliable`].
pub fn halo_fence_internode(n_ranks: usize, iters: usize) -> BenchResult {
    let ops = (n_ranks * iters * 2) as u64;
    measure_cfg(
        "halo_fence_internode",
        JobConfig::all_internode(n_ranks),
        n_ranks,
        ops,
        halo_body(iters),
    )
}

/// Degraded-mode overhead probe: the internode halo exchange with the
/// ack/retransmit reliability sublayer armed on a *fault-free* network
/// (and no watchdog). The delta against [`halo_fence_internode`] is the
/// pure cost of framing, acking, and retransmit bookkeeping.
pub fn halo_fence_reliable(n_ranks: usize, iters: usize) -> BenchResult {
    let ops = (n_ranks * iters * 2) as u64;
    measure_cfg(
        "halo_fence_reliable",
        JobConfig::all_internode(n_ranks).with_reliability(),
        n_ranks,
        ops,
        halo_body(iters),
    )
}

/// Checkpointing-overhead probe: the halo exchange with the epoch-aligned
/// crash-recovery store armed at every commit (`ckpt_every = 1`) on a
/// crash-free run. The delta against [`halo_fence`] is the pure cost of
/// cutting window+ω snapshots and journaling every remote write into the
/// redo log — the price a job pays for restartability it never uses. No
/// crash is planned, so the run stays degradation-clean and the
/// `ckpt_commits`/`ckpt_bytes` counters land in the trajectory file.
pub fn halo_fence_checkpointed(n_ranks: usize, iters: usize) -> BenchResult {
    let ops = (n_ranks * iters * 2) as u64;
    measure_cfg(
        "halo_fence_checkpointed",
        JobConfig::new(n_ranks).with_recovery(),
        n_ranks,
        ops,
        halo_body(iters),
    )
}

/// Pipelined GATS ring: every epoch opens, puts, and closes with the
/// nonblocking variants; completion is only collected at the end, so the
/// engine carries a deep deferred-epoch queue (§VII.A).
pub fn gats_pipeline(n_ranks: usize, epochs: usize) -> BenchResult {
    let ops = (n_ranks * epochs) as u64;
    measure("gats_pipeline", n_ranks, ops, move |env| {
        // Every rank runs interleaved exposure and access epochs on the
        // same window; the reorder flags (§VI.B) let them progress
        // concurrently — without them the ring deadlocks on the E_A
        // serialization rule.
        let win = env
            .win_allocate_with(64, mpisim_core::WinInfo::all_reorder())
            .unwrap();
        let me = env.rank().idx();
        let n = env.n_ranks();
        let next = Rank((me + 1) % n);
        let prev = Rank((me + n - 1) % n);
        let mut pending = Vec::new();
        for e in 0..epochs {
            pending.push(env.ipost(win, Group::single(prev)).unwrap());
            pending.push(env.istart(win, Group::single(next)).unwrap());
            env.put(win, next, 0, &(e as u64).to_le_bytes()).unwrap();
            pending.push(env.icomplete(win).unwrap());
            pending.push(env.iwait(win).unwrap());
            env.compute(SimTime::from_nanos(200));
        }
        env.wait_all(pending).unwrap();
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
}

/// `lock_all` contention storm: every rank repeatedly opens a nonblocking
/// shared-all epoch over the same window and Sum-accumulates into slots
/// spread across all ranks.
pub fn lock_all_contention(n_ranks: usize, rounds: usize, accs: usize) -> BenchResult {
    let ops = (n_ranks * rounds * accs) as u64;
    measure("lock_all_contention", n_ranks, ops, move |env| {
        let win = env.win_allocate(256).unwrap();
        env.barrier().unwrap();
        let me = env.rank().idx();
        let n = env.n_ranks();
        let mut pending = Vec::new();
        for r in 0..rounds {
            pending.push(env.ilock_all(win).unwrap());
            for a in 0..accs {
                let target = Rank((me + a + 1) % n);
                let slot = (me + a + r) % (256 / 8);
                env.accumulate(
                    win,
                    target,
                    slot * 8,
                    Datatype::U64,
                    ReduceOp::Sum,
                    &1u64.to_le_bytes(),
                )
                .unwrap();
            }
            pending.push(env.iunlock_all(win).unwrap());
        }
        env.wait_all(pending).unwrap();
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
}

/// Scaling throughput probe: a neighbour lock-epoch workload run at one
/// point of the 8/64/512/4096 ranks sweep. Every rank drives `rounds`
/// fully nonblocking exclusive-lock epochs at its right ring neighbour
/// (ilock → put → iunlock), collecting completion only at the end, so
/// per-rank work is constant and wall-clock measures how the kernel's
/// rank-execution machinery scales with job size. The sweep is what the
/// pooled-fiber executor exists for: at 4096 ranks a thread-per-rank
/// kernel would burn thousands of OS threads and stacks, while pooled
/// execution keeps the footprint in the `peak_rss_kb` column.
pub fn ranks_sweep(n_ranks: usize, rounds: usize) -> BenchResult {
    let name = match n_ranks {
        8 => "ranks_sweep_8",
        64 => "ranks_sweep_64",
        512 => "ranks_sweep_512",
        4096 => "ranks_sweep_4096",
        _ => "ranks_sweep",
    };
    let ops = (n_ranks * rounds) as u64;
    measure_cfg(name, JobConfig::new(n_ranks), n_ranks, ops, move |env| {
        let win = env.win_allocate(64).unwrap();
        env.barrier().unwrap();
        let me = env.rank().idx();
        let n = env.n_ranks();
        let right = Rank((me + 1) % n);
        let mut pending = Vec::new();
        for r in 0..rounds {
            pending.push(env.ilock(win, right, LockKind::Exclusive).unwrap());
            env.put(win, right, 8 * (r % 8), &(r as u64).to_le_bytes()).unwrap();
            pending.push(env.iunlock(win, right).unwrap());
            env.compute(SimTime::from_nanos(120));
        }
        env.wait_all(pending).unwrap();
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
}

/// The full ranks sweep, ascending so each point's `VmHWM` reading
/// bounds that scale's footprint. `short` keeps the small end cheap but
/// still touches the 4096-rank point — the CI scale smoke must prove
/// thousands of ranks fit the budget, not just that 8 do.
pub fn ranks_sweep_suite(short: bool) -> Vec<BenchResult> {
    if short {
        vec![ranks_sweep(8, 8), ranks_sweep(64, 4), ranks_sweep(4096, 2)]
    } else {
        vec![
            ranks_sweep(8, 64),
            ranks_sweep(64, 32),
            ranks_sweep(512, 8),
            ranks_sweep(4096, 2),
        ]
    }
}

/// Static-analyzer throughput probe: generate every conformance family's
/// programs, lower each under both close modes, add the full negative
/// corpus, and run the whole-job deadlock/progress analyzer over every
/// IR program. `ops` counts analyzed programs, so `ns_per_op` is the
/// analyzer's wall-time per generated program; the engine counters stay
/// zero — nothing is simulated.
pub fn analyzer_ir_sweep(programs: u64, corpus_seeds: u64) -> BenchResult {
    use mpisim_analyze::{analyze, generate_negative, NegFamily};
    use mpisim_check::{generate, lower, Family};
    let mut irs = Vec::new();
    for family in Family::ALL {
        for idx in 0..programs {
            let p = generate(family, idx);
            for nonblocking in [false, true] {
                irs.push(lower(&p, nonblocking));
            }
        }
    }
    for family in NegFamily::ALL {
        for seed in 0..corpus_seeds {
            irs.push(generate_negative(family, seed).program);
        }
    }
    let ops = irs.len() as u64;
    let t0 = Instant::now();
    let mut diags = 0u64;
    for ir in &irs {
        diags += analyze(ir).len() as u64;
    }
    let wall_ns = t0.elapsed().as_nanos();
    // Every corpus program carries at least one planted defect.
    assert!(
        diags >= NegFamily::ALL.len() as u64 * corpus_seeds,
        "analyzer_ir_sweep: corpus programs went unflagged"
    );
    BenchResult {
        name: "analyzer_ir_sweep",
        ranks: 0,
        ops,
        wall_ns,
        virt_ns: 0,
        peak_rss_kb: peak_rss_kb(),
        engine: EngineStats::default(),
    }
}

/// Slack-pass throughput probe: generate every conformance family's
/// programs under the blocking lowering (the shape with slack), then run
/// the full classify → rewrite fixpoint loop over each. `ops` counts
/// processed programs, so `ns_per_op` is the analyzer+rewriter wall-time
/// per program; nothing is simulated.
pub fn slack_sweep(programs: u64) -> BenchResult {
    use mpisim_analyze::{analyze_slack, rewrite};
    use mpisim_check::{generate, lower, Family};
    let mut irs = Vec::new();
    for family in Family::ALL {
        for idx in 0..programs {
            irs.push(lower(&generate(family, idx), false));
        }
    }
    let ops = irs.len() as u64;
    let t0 = Instant::now();
    let mut fired = 0u64;
    for ir in &irs {
        let findings = analyze_slack(ir).findings.len();
        let (_, rep) = rewrite(ir);
        if rep.changed() {
            fired += 1;
        }
        assert!(
            findings > 0,
            "slack_sweep: a lowered program with no sync points at all"
        );
    }
    let wall_ns = t0.elapsed().as_nanos();
    // The blocking lowering is the over-synchronized shape by
    // construction; the rewriter must find work in most of it.
    assert!(fired * 2 >= ops, "slack_sweep: rewriter fired on {fired}/{ops}");
    BenchResult {
        name: "slack_sweep",
        ranks: 0,
        ops,
        wall_ns,
        virt_ns: 0,
        peak_rss_kb: peak_rss_kb(),
        engine: EngineStats::default(),
    }
}

/// Build the IR twin of [`halo_fence`]: the same ring halo exchange
/// expressed as an analyzable [`mpisim_analyze::IrProgram`], all-blocking
/// closes.
fn halo_ir(n_ranks: usize, iters: usize) -> mpisim_analyze::IrProgram {
    use mpisim_analyze::Stmt;
    let mut p = mpisim_analyze::IrProgram::new(n_ranks, 64);
    for me in 0..n_ranks {
        let left = (me + n_ranks - 1) % n_ranks;
        let right = (me + 1) % n_ranks;
        let stmts = &mut p.ranks[me];
        stmts.push(Stmt::Fence { win: 0, close: mpisim_analyze::Close::Blocking });
        for i in 0..iters {
            stmts.push(Stmt::Put { win: 0, target: left, disp: 8, len: 8, val: 0xab });
            stmts.push(Stmt::Put { win: 0, target: right, disp: (i % 2) * 24, len: 8, val: 0xab });
            stmts.push(Stmt::Fence { win: 0, close: mpisim_analyze::Close::Blocking });
        }
    }
    p
}

/// Execute an IR program under the engine and wrap the report as a
/// [`BenchResult`]. Deliberately not routed through `measure_cfg`: the
/// rewritten variants run the exact statement list the rewriter
/// produced, so the workload body is the IR interpreter itself.
fn measure_ir(name: &'static str, p: &mpisim_analyze::IrProgram, ops: u64) -> BenchResult {
    let t0 = Instant::now();
    let report = mpisim_check::exec_ir(p, false, 7).expect(name);
    let wall_ns = t0.elapsed().as_nanos();
    assert!(report.is_clean(), "{name}: degradations: {:?}", report.degradations);
    BenchResult {
        name,
        ranks: p.n_ranks,
        ops,
        wall_ns,
        virt_ns: report.final_time.as_nanos(),
        peak_rss_kb: peak_rss_kb(),
        engine: report.engine,
    }
}

/// The fence-halo exchange driven through the IR interpreter, blocking
/// closes throughout. Baseline for [`halo_fence_ir_relaxed`]; the pair's
/// `sync_blocked_steps` delta is the engine-measured payoff of the
/// slack rewriter on a real workload shape.
pub fn halo_fence_ir(n_ranks: usize, iters: usize) -> BenchResult {
    let ops = (n_ranks * iters * 2) as u64;
    measure_ir("halo_fence_ir", &halo_ir(n_ranks, iters), ops)
}

/// [`halo_fence_ir`] after the slack rewriter's sound fixpoint: relaxed
/// closes plus rewriter-planted waits, same data movement.
pub fn halo_fence_ir_relaxed(n_ranks: usize, iters: usize) -> BenchResult {
    let p = halo_ir(n_ranks, iters);
    assert!(mpisim_analyze::analyze(&p).is_empty(), "halo IR must start E-clean");
    let (rw, rep) = mpisim_analyze::rewrite(&p);
    assert!(rep.changed(), "rewriter found no slack in the blocking halo");
    assert!(mpisim_analyze::analyze(&rw).is_empty(), "rewritten halo must stay E-clean");
    let ops = (n_ranks * iters * 2) as u64;
    measure_ir("halo_fence_ir_relaxed", &rw, ops)
}

/// Apply the sound slack rewriter to an application IR twin, asserting
/// it fires and both sides stay E-clean — the shared front half of the
/// `*_ir_relaxed` trajectory points below.
fn rewritten_twin(name: &str, p: &mpisim_analyze::IrProgram) -> mpisim_analyze::IrProgram {
    assert!(mpisim_analyze::analyze(p).is_empty(), "{name}: twin must start E-clean");
    let (rw, rep) = mpisim_analyze::rewrite(p);
    assert!(rep.changed(), "{name}: rewriter found no slack");
    assert!(mpisim_analyze::analyze(&rw).is_empty(), "{name}: rewritten twin must stay E-clean");
    rw
}

/// The LU panel broadcast's IR twin (one GATS access epoch per panel,
/// owner puts toward everyone else), blocking closes. Baseline for
/// [`lu_gats_ir_relaxed`].
pub fn lu_gats_ir(n_ranks: usize, panels: usize) -> BenchResult {
    let ops = (panels * (n_ranks - 1)) as u64;
    measure_ir("lu_gats_ir", &mpisim_apps::ir_models::lu_ir(n_ranks, panels), ops)
}

/// [`lu_gats_ir`] after the sound slack rewrite: nonblocking panel
/// closes pipeline across panels.
pub fn lu_gats_ir_relaxed(n_ranks: usize, panels: usize) -> BenchResult {
    let rw = rewritten_twin("lu_gats_ir", &mpisim_apps::ir_models::lu_ir(n_ranks, panels));
    let ops = (panels * (n_ranks - 1)) as u64;
    measure_ir("lu_gats_ir_relaxed", &rw, ops)
}

/// The bank kernel's IR twin (one `lock_all` epoch per rank, per-transfer
/// balance read + credit + flush), blocking closes. Baseline for
/// [`bank_lockall_ir_relaxed`].
pub fn bank_lockall_ir(n_ranks: usize, transfers: usize) -> BenchResult {
    let ops = (n_ranks * transfers * 2) as u64;
    measure_ir("bank_lockall_ir", &mpisim_apps::ir_models::bank_ir(n_ranks, transfers), ops)
}

/// [`bank_lockall_ir`] after the sound slack rewrite: the rewriter's
/// payoff here is flush *elision* — per-transfer blocking flushes whose
/// guarantee a later flush of the same target already covers.
pub fn bank_lockall_ir_relaxed(n_ranks: usize, transfers: usize) -> BenchResult {
    let rw = rewritten_twin("bank_lockall_ir", &mpisim_apps::ir_models::bank_ir(n_ranks, transfers));
    let ops = (n_ranks * transfers * 2) as u64;
    measure_ir("bank_lockall_ir_relaxed", &rw, ops)
}

/// Run the full trajectory suite. `short` uses reduced scales for CI
/// smoke runs; the numbers are still comparable across PRs as long as
/// the mode matches.
pub fn run_suite(short: bool) -> Vec<BenchResult> {
    let mut results = core_suite(short);
    // Ranks sweep last and ascending: the VmHWM high-water mark is
    // process-monotonic, so the big points must come after everything
    // whose footprint they should dominate.
    results.extend(ranks_sweep_suite(short));
    results
}

/// Every workload except the ranks sweep. Split out so the debug-mode
/// unit tests can exercise the suite without paying for the 4096-rank
/// point (which first-touches the engine's O(ranks²) counter state and
/// belongs to the release-mode CI scale smoke).
fn core_suite(short: bool) -> Vec<BenchResult> {
    if short {
        vec![
            halo_fence(4, 16),
            gats_pipeline(4, 16),
            lock_all_contention(4, 8, 4),
            halo_fence_internode(4, 16),
            halo_fence_reliable(4, 16),
            halo_fence_checkpointed(4, 16),
            analyzer_ir_sweep(4, 16),
            slack_sweep(4),
            halo_fence_ir(4, 8),
            halo_fence_ir_relaxed(4, 8),
            lu_gats_ir(4, 8),
            lu_gats_ir_relaxed(4, 8),
            bank_lockall_ir(4, 8),
            bank_lockall_ir_relaxed(4, 8),
        ]
    } else {
        vec![
            halo_fence(8, 128),
            gats_pipeline(8, 96),
            lock_all_contention(8, 48, 8),
            halo_fence_internode(8, 128),
            halo_fence_reliable(8, 128),
            halo_fence_checkpointed(8, 128),
            analyzer_ir_sweep(16, 64),
            slack_sweep(16),
            halo_fence_ir(8, 32),
            halo_fence_ir_relaxed(8, 32),
            lu_gats_ir(8, 24),
            lu_gats_ir_relaxed(8, 24),
            bank_lockall_ir(8, 16),
            bank_lockall_ir_relaxed(8, 16),
        ]
    }
}

fn json_stats(e: &EngineStats, indent: &str) -> String {
    let steps = e
        .step_runs
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{i}\"sweeps\": {}, \"step_runs\": [{steps}],\n\
         {i}\"notices_drained\": {}, \"issue_scans\": {}, \"ops_issued\": {},\n\
         {i}\"completion_checks\": {}, \"activation_scans\": {},\n\
         {i}\"fifo_packets\": {}, \"fifo_drained\": {}, \"fifo_decode_errors\": {},\n\
         {i}\"notices_batched\": {}, \"acks_coalesced\": {},\n\
         {i}\"unlocks_applied\": {}, \"grant_pumps\": {},\n\
         {i}\"epochs_opened\": {}, \"epochs_deferred\": {}, \"epochs_completed\": {},\n\
         {i}\"rel_frames_sent\": {}, \"rel_delivered\": {}, \"rel_acks_sent\": {},\n\
         {i}\"rel_retransmits\": {}, \"rel_dups_dropped\": {}, \"epochs_cancelled\": {},\n\
         {i}\"ckpt_commits\": {}, \"ckpt_bytes\": {}, \"recoveries\": {},\n\
         {i}\"sync_blocked_steps\": {}, \"sync_blocked_ns\": {}",
        e.sweeps,
        e.notices_drained,
        e.issue_scans,
        e.ops_issued,
        e.completion_checks,
        e.activation_scans,
        e.fifo_packets,
        e.fifo_drained,
        e.fifo_decode_errors,
        e.notices_batched,
        e.acks_coalesced,
        e.unlocks_applied,
        e.grant_pumps,
        e.epochs_opened,
        e.epochs_deferred,
        e.epochs_completed,
        e.rel_frames_sent,
        e.rel_delivered,
        e.rel_acks_sent,
        e.rel_retransmits,
        e.rel_dups_dropped,
        e.epochs_cancelled,
        e.ckpt_commits,
        e.ckpt_bytes,
        e.recoveries,
        e.sync_blocked_steps,
        e.sync_blocked_ns,
        i = indent,
    )
}

/// Render the trajectory file contents (hand-formatted JSON; the
/// workspace is offline and carries no serde).
pub fn trajectory_json(pr: u32, short: bool, results: &[BenchResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"mpisim-bench-trajectory-v1\",\n");
    out.push_str(&format!("  \"pr\": {pr},\n"));
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if short { "short" } else { "full" }
    ));
    out.push_str("  \"benchmarks\": [\n");
    for (k, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        out.push_str(&format!("      \"ranks\": {},\n", r.ranks));
        out.push_str(&format!("      \"ops\": {},\n", r.ops));
        out.push_str(&format!("      \"wall_ns\": {},\n", r.wall_ns));
        out.push_str(&format!("      \"ns_per_op\": {:.1},\n", r.ns_per_op()));
        out.push_str(&format!("      \"virtual_ns\": {},\n", r.virt_ns));
        out.push_str(&format!("      \"peak_rss_kb\": {},\n", r.peak_rss_kb));
        out.push_str("      \"engine\": {\n");
        out.push_str(&json_stats(&r.engine, "        "));
        out.push_str("\n      }\n");
        out.push_str(if k + 1 == results.len() { "    }\n" } else { "    },\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyzer_sweep_counts_programs() {
        let r = analyzer_ir_sweep(1, 2);
        // 5 conformance families x 1 program x 2 close modes
        // + 10 corpus families x 2 seeds.
        assert_eq!(r.ops, 5 * 2 + 10 * 2);
        assert!(r.wall_ns > 0);
    }

    #[test]
    fn suite_runs_and_counters_balance() {
        // `core_suite`, not `run_suite`: the 4096-rank sweep point is a
        // release-mode CI job, not a debug unit test (see `core_suite`).
        let results = core_suite(true);
        // The rewriter's payoff must be visible in the engine's own
        // counter: the relaxed IR halo blocks the host strictly less.
        let blocked = |name: &str| {
            results
                .iter()
                .find(|r| r.name == name)
                .map(|r| r.engine.sync_blocked_steps)
                .unwrap()
        };
        for pair in ["halo_fence_ir", "lu_gats_ir", "bank_lockall_ir"] {
            let relaxed = format!("{pair}_relaxed");
            assert!(
                blocked(&relaxed) < blocked(pair),
                "{relaxed} did not reduce sync_blocked_steps: {} vs {}",
                blocked(&relaxed),
                blocked(pair)
            );
        }
        for r in results {
            assert!(r.ops > 0);
            assert!(r.wall_ns > 0);
            if r.name == "analyzer_ir_sweep" || r.name == "slack_sweep" {
                // Pure static analysis: no simulation, no engine work.
                continue;
            }
            if r.name.ends_with("_ir") || r.name.ends_with("_ir_relaxed") {
                // IR-interpreter runs: ops counts the source program's
                // data operations; the engine-level balance checks
                // below still apply.
                assert_eq!(r.engine.fifo_decode_errors, 0, "{}", r.name);
                continue;
            }
            assert_eq!(
                r.engine.fifo_packets, r.engine.fifo_drained,
                "{}: pushed != drained",
                r.name
            );
            assert_eq!(r.engine.fifo_decode_errors, 0, "{}", r.name);
            // Every workload issues its ops through the engine.
            assert!(r.engine.ops_issued >= r.ops, "{}", r.name);
            if r.name == "halo_fence_checkpointed" {
                // The stable store must actually cut checkpoints at every
                // commit and journal the halo's remote writes — and a
                // crash-free run must never restart anything.
                assert!(r.engine.ckpt_commits > 0, "{}", r.name);
                assert!(r.engine.ckpt_bytes > 0, "{}", r.name);
                assert_eq!(r.engine.recoveries, 0, "{}: spurious restart", r.name);
            }
            if r.name == "halo_fence_reliable" {
                // The sublayer must actually frame the internode traffic
                // and reach channel quiescence on the fault-free network.
                assert!(r.engine.rel_frames_sent > 0, "{}", r.name);
                assert_eq!(
                    r.engine.rel_delivered, r.engine.rel_frames_sent,
                    "{}: sublayer not quiescent",
                    r.name
                );
                assert_eq!(r.engine.rel_retransmits, 0, "{}: spurious retransmits", r.name);
            }
        }
    }

    #[test]
    fn trajectory_json_is_well_formed() {
        let results = vec![halo_fence(4, 4), lock_all_contention(4, 2, 2)];
        let j = trajectory_json(3, true, &results);
        assert!(j.starts_with("{\n"));
        assert!(j.ends_with("}\n"));
        assert_eq!(j.matches("\"name\"").count(), 2);
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"schema\": \"mpisim-bench-trajectory-v1\""));
        assert!(j.contains("\"step_runs\": ["));
        assert!(j.contains("\"ckpt_commits\""));
        assert!(j.contains("\"recoveries\""));
        assert_eq!(j.matches("\"peak_rss_kb\"").count(), 2);
    }

    #[test]
    fn ranks_sweep_reports_footprint_and_balances() {
        let r = ranks_sweep(8, 4);
        assert_eq!(r.ranks, 8);
        assert_eq!(r.ops, 32);
        assert!(r.peak_rss_kb > 0, "VmHWM must be readable on the CI host");
        assert_eq!(r.engine.fifo_packets, r.engine.fifo_drained);
        assert!(r.engine.ops_issued >= r.ops);
    }
}
