//! Closed-loop cross-validation of the static deadlock analyzer against
//! the dynamic stall watchdog.
//!
//! The two layers claim opposite halves of the same property:
//!
//! * **Flagged side** — every program from the deadlock corpus
//!   ([`mpisim_analyze::NegFamily::DEADLOCKS`]) must (a) be rejected by
//!   the analyzer with its family's expected code, and (b) actually
//!   *stall* when executed: the run terminates only because the watchdog
//!   cancels at least one epoch, leaving ≥ 1
//!   [`mpisim_core::StallReport`] on the degradation list. An
//!   analyzer-flagged program that runs to completion cleanly would be a
//!   false positive of the whole-job passes.
//! * **Clean side** — every generated conformance program, lowered to IR,
//!   must be analyzer-clean and execute under the armed watchdog with
//!   **zero** stall degradations. An analyzer-clean program that stalls
//!   would be a false negative.
//!
//! Together the sweeps pin the analyzer's deadlock verdict to ground
//! truth the runtime itself produces, closing the loop the static layer
//! alone cannot: its wait-for graph is an abstraction, the watchdog's
//! cancellation is an observation.

use mpisim_analyze::{
    analyze, generate_negative, generate_value_clean, has_code, rewrite_with, IrProgram,
    NegFamily, RewriteMode,
};
use mpisim_core::{Degradation, ExecMode, SyncStrategy};

use crate::lower::lower;
use crate::program::{generate, Family};
use crate::run::{exec_ir, exec_ir_with, run_ir, ExecOpts, RunOutcome, RunSpec};

/// Outcome of one cross-validation sweep.
#[derive(Clone, Debug, Default)]
pub struct CrossValReport {
    /// Deadlock-corpus programs checked (analyzer + watchdog).
    pub flagged_runs: u64,
    /// Clean conformance programs checked (analyzer + watchdog).
    pub clean_runs: u64,
    /// Human-readable description of every disagreement found.
    pub failures: Vec<String>,
}

fn stall_count(report: &mpisim_core::JobReport) -> usize {
    report
        .degradations
        .iter()
        .filter(|d| matches!(d, Degradation::EpochStall(_)))
        .count()
}

/// Flagged side: `seeds` generated programs per deadlock family must be
/// analyzer-rejected AND watchdog-cancelled at runtime.
pub fn crossval_flagged(seeds: u64, failures: &mut Vec<String>) -> u64 {
    let mut runs = 0;
    for family in NegFamily::DEADLOCKS {
        for seed in 0..seeds {
            runs += 1;
            let case = generate_negative(family, seed);
            let diags = analyze(&case.program);
            if !has_code(&diags, case.expect) {
                failures.push(format!(
                    "{family:?} seed {seed}: analyzer missed {} (got {diags:?})",
                    case.expect
                ));
                continue;
            }
            match exec_ir(&case.program, true, 7 + seed) {
                Ok(report) => {
                    if stall_count(&report) == 0 {
                        failures.push(format!(
                            "{family:?} seed {seed}: analyzer flagged {} but the run \
                             completed with zero stalls (static false positive?)",
                            case.expect
                        ));
                    }
                }
                Err(f) => failures.push(format!(
                    "{family:?} seed {seed}: watchdog failed to terminate the run: {f}"
                )),
            }
        }
    }
    runs
}

/// Clean side: `programs` generated programs per conformance family,
/// lowered under both close modes, must be analyzer-clean and run under
/// the armed watchdog without a single stall. The satisfiable twin of
/// the value-deadlock family (same spin shape, expectation matching the
/// published flag) rides along: the value domain must pass it statically
/// AND the bounded exec-side spin must observe the published value in
/// time, so the run finishes stall-free.
pub fn crossval_clean(programs: u64, failures: &mut Vec<String>) -> u64 {
    let mut runs = 0;
    for idx in 0..programs {
        runs += 1;
        let ir = generate_value_clean(idx);
        let diags = analyze(&ir);
        if !diags.is_empty() {
            failures.push(format!("value-clean #{idx}: satisfiable spin flagged: {diags:?}"));
            continue;
        }
        match exec_ir(&ir, true, 7 + idx) {
            Ok(report) => {
                let stalls = stall_count(&report);
                if stalls > 0 {
                    failures.push(format!(
                        "value-clean #{idx}: satisfiable spin stalled {stalls} time(s) \
                         (spin never saw the published flag?)"
                    ));
                }
            }
            Err(f) => failures.push(format!("value-clean #{idx}: IR run failed: {f}")),
        }
    }
    for family in Family::ALL {
        for idx in 0..programs {
            let program = generate(family, idx);
            for nonblocking in [false, true] {
                runs += 1;
                let ir = lower(&program, nonblocking);
                let diags = analyze(&ir);
                if !diags.is_empty() {
                    failures.push(format!(
                        "{family:?} #{idx} nb={nonblocking}: clean program flagged: {diags:?}"
                    ));
                    continue;
                }
                match exec_ir(&ir, true, 7 + idx) {
                    Ok(report) => {
                        let stalls = stall_count(&report);
                        if stalls > 0 {
                            failures.push(format!(
                                "{family:?} #{idx} nb={nonblocking}: analyzer-clean program \
                                 stalled {stalls} time(s) (static false negative?)"
                            ));
                        }
                    }
                    Err(f) => failures.push(format!(
                        "{family:?} #{idx} nb={nonblocking}: IR run failed: {f}"
                    )),
                }
            }
        }
    }
    runs
}

/// Run both sides: `seeds` programs per deadlock family on the flagged
/// side, and `max(1, seeds / 8)` programs per conformance family on the
/// clean side (the clean programs are bigger and already swept by the
/// main matrix; here they only feed the watchdog oracle).
pub fn crossval_deadlocks(seeds: u64) -> CrossValReport {
    let mut failures = Vec::new();
    let flagged_runs = crossval_flagged(seeds, &mut failures);
    let clean_runs = crossval_clean((seeds / 8).max(1), &mut failures);
    CrossValReport { flagged_runs, clean_runs, failures }
}

/// Outcome of one rewrite-equivalence sweep ([`crossval_rewrites`]).
#[derive(Clone, Debug, Default)]
pub struct RewriteValReport {
    /// Conformance programs examined (blocking-mode lowering).
    pub programs: u64,
    /// Programs where the rewriter fired (changed at least one call).
    pub fired: u64,
    /// Differential (strategy × seed) points compared.
    pub points: u64,
    /// Total `sync_blocked_steps` removed by the rewrites, over all
    /// compared points.
    pub blocked_steps_saved: u64,
    /// Total `sync_blocked_ns` removed, over all compared points.
    pub blocked_ns_saved: u64,
    /// `PlantUnsound` mode: planted rewrites the differential check
    /// caught (must equal the number planted).
    pub planted_detected: u64,
    /// `PlantUnsound` mode: rewrites planted.
    pub planted: u64,
    /// Human-readable description of every violation found.
    pub failures: Vec<String>,
}

/// The differential points every rewritten program is compared at.
const REWRITE_STRATEGIES: [SyncStrategy; 2] =
    [SyncStrategy::LazyBaseline, SyncStrategy::Redesigned];
const REWRITE_SEEDS: [u64; 2] = [7, 23];

/// The closed loop for the slack pass: for `programs` generated
/// conformance programs per family (lowered with blocking closes — the
/// shape that has slack), run the rewriter and require, on every program
/// where it fired:
///
/// * the rewritten program stays **analyzer-clean** (E001–E017);
/// * it is **differentially equivalent**: same final window bytes as the
///   original at every strategy × seed point, with zero watchdog stalls;
/// * it does **strictly less host-blocking work**: per point
///   `sync_blocked_steps` never increases, and summed over the points the
///   rewrite strictly reduces blocked steps (or, on a tie, strictly
///   reduces blocked virtual nanoseconds);
/// * it **never regresses virtual completion time**: per point the
///   rewritten run's `final_time` must not exceed the original's — the
///   end-to-end bound the cost model prices rewrites against.
///
/// With [`RewriteMode::PlantUnsound`] the rewriter additionally deletes
/// one synchronization statement after the sound rewrite; the sweep then
/// *requires* the differential check to catch every planted program (via
/// run failure, watchdog stall, or memory divergence) and reports the
/// catch rate — the exit-inverted self-test that proves the validator has
/// teeth. Static E-checks are deliberately skipped for planted programs:
/// detection must come from the differential side alone.
pub fn crossval_rewrites(programs: u64, mode: RewriteMode) -> RewriteValReport {
    let mut r = RewriteValReport::default();
    for family in Family::ALL {
        for idx in 0..programs {
            let program = generate(family, idx);
            let ir = lower(&program, false);
            if !analyze(&ir).is_empty() {
                r.failures.push(format!(
                    "{family:?} #{idx}: lowered conformance program is not analyzer-clean"
                ));
                continue;
            }
            r.programs += 1;
            let (rw, rep) = rewrite_with(&ir, mode);
            if !rep.changed() {
                continue;
            }
            r.fired += 1;
            let planted = rep.planted.is_some();
            if planted {
                r.planted += 1;
            }
            if !planted {
                let diags = analyze(&rw);
                if !diags.is_empty() {
                    r.failures.push(format!(
                        "{family:?} #{idx}: rewritten program lost E-cleanliness: {diags:?}"
                    ));
                    continue;
                }
            }
            let mut steps_orig = 0u64;
            let mut steps_rw = 0u64;
            let mut ns_orig = 0u64;
            let mut ns_rw = 0u64;
            let mut caught = false;
            let mut point_failure = false;
            for strategy in REWRITE_STRATEGIES {
                for seed in REWRITE_SEEDS {
                    r.points += 1;
                    let (m0, r0) = match exec_ir_with(&ir, true, seed, strategy) {
                        Ok(v) => v,
                        Err(f) => {
                            r.failures.push(format!(
                                "{family:?} #{idx} {strategy:?} seed {seed}: original program \
                                 failed to run: {f}"
                            ));
                            point_failure = true;
                            continue;
                        }
                    };
                    if stall_count(&r0) > 0 {
                        r.failures.push(format!(
                            "{family:?} #{idx} {strategy:?} seed {seed}: original program \
                             stalled"
                        ));
                        point_failure = true;
                        continue;
                    }
                    let (m1, r1) = match exec_ir_with(&rw, true, seed, strategy) {
                        Ok(v) => v,
                        Err(f) => {
                            if planted {
                                caught = true;
                                continue;
                            }
                            r.failures.push(format!(
                                "{family:?} #{idx} {strategy:?} seed {seed}: rewritten \
                                 program failed to run: {f}"
                            ));
                            point_failure = true;
                            continue;
                        }
                    };
                    if stall_count(&r1) > 0 || m0 != m1 {
                        if planted {
                            caught = true;
                            continue;
                        }
                        r.failures.push(format!(
                            "{family:?} #{idx} {strategy:?} seed {seed}: rewritten program \
                             diverged (stalls={}, mems_equal={})",
                            stall_count(&r1),
                            m0 == m1
                        ));
                        point_failure = true;
                        continue;
                    }
                    if planted {
                        continue;
                    }
                    let (s0, s1) =
                        (r0.engine.sync_blocked_steps, r1.engine.sync_blocked_steps);
                    let (n0, n1) = (r0.engine.sync_blocked_ns, r1.engine.sync_blocked_ns);
                    if s1 > s0 {
                        r.failures.push(format!(
                            "{family:?} #{idx} {strategy:?} seed {seed}: rewrite INCREASED \
                             sync_blocked_steps ({s0} -> {s1})"
                        ));
                        point_failure = true;
                        continue;
                    }
                    let (t0, t1) = (r0.final_time, r1.final_time);
                    if t1 > t0 {
                        r.failures.push(format!(
                            "{family:?} #{idx} {strategy:?} seed {seed}: rewrite REGRESSED \
                             virtual completion time ({t0:?} -> {t1:?})"
                        ));
                        point_failure = true;
                        continue;
                    }
                    steps_orig += s0;
                    steps_rw += s1;
                    ns_orig += n0;
                    ns_rw += n1;
                }
            }
            if planted {
                if caught {
                    r.planted_detected += 1;
                } else {
                    r.failures.push(format!(
                        "{family:?} #{idx}: planted unsound rewrite at {:?} was NOT caught \
                         by the differential check",
                        rep.planted
                    ));
                }
                continue;
            }
            if point_failure {
                continue;
            }
            let strictly_less =
                steps_rw < steps_orig || (steps_rw == steps_orig && ns_rw < ns_orig);
            if !strictly_less {
                r.failures.push(format!(
                    "{family:?} #{idx}: rewrite fired ({} relaxed, {} elided, {} localized) \
                     but saved no blocked work (steps {steps_orig} -> {steps_rw}, \
                     ns {ns_orig} -> {ns_rw})",
                    rep.relaxed, rep.elided, rep.localized
                ));
                continue;
            }
            r.blocked_steps_saved += steps_orig - steps_rw;
            r.blocked_ns_saved += ns_orig.saturating_sub(ns_rw);
        }
    }
    r
}

/// Outcome of one execution-mode determinism sweep ([`crossval_exec`]).
#[derive(Clone, Debug, Default)]
pub struct ExecValReport {
    /// Points swept: (program, close-mode) pairs plus the IR twins.
    pub programs: u64,
    /// Total executions (every point runs once per execution mode).
    pub runs: u64,
    /// Points whose pooled run diverged from the thread-per-rank baseline
    /// in any observable (verdict, memories, gets, stats, traces). In
    /// plant mode this is the detection count the exit-inverted self-test
    /// keys on; in clean mode it must be zero.
    pub detected: u64,
    /// Human-readable description of every clean-mode divergence or
    /// run-level error.
    pub failures: Vec<String>,
}

/// Everything two same-seed runs may legally differ in: nothing. Returns
/// the names of the observables that diverged. Stats structs compare via
/// `Eq`; traces and per-rank timings compare via their `Debug` rendering,
/// which covers every field byte for byte.
fn exec_divergences(a: &RunOutcome, b: &RunOutcome) -> Vec<&'static str> {
    let mut d = Vec::new();
    if a.mems != b.mems {
        d.push("mems");
    }
    if a.gets != b.gets {
        d.push("gets");
    }
    if a.report.final_time != b.report.final_time {
        d.push("final-time");
    }
    if a.report.sim != b.report.sim {
        d.push("sim-stats");
    }
    if a.report.engine != b.report.engine {
        d.push("engine-stats");
    }
    if a.report.live_requests != b.report.live_requests {
        d.push("live-requests");
    }
    if format!("{:?}", a.report.ranks) != format!("{:?}", b.report.ranks) {
        d.push("rank-stats");
    }
    if format!("{:?}", a.report.trace) != format!("{:?}", b.report.trace) {
        d.push("trace");
    }
    if format!("{:?}", a.report.sync_trace) != format!("{:?}", b.report.sync_trace) {
        d.push("sync-trace");
    }
    if format!("{:?}", a.report.req_events) != format!("{:?}", b.report.req_events) {
        d.push("req-events");
    }
    d
}

/// The apps crate's IR twins at 8 ranks, one iteration count each: the
/// non-generated programs the determinism cross-check replays.
fn ir_twins() -> [(&'static str, IrProgram); 5] {
    use mpisim_apps::ir_models;
    [
        ("halo", ir_models::halo_ir(8, 4)),
        ("stencil2d", ir_models::stencil2d_ir(8, 4)),
        ("lu", ir_models::lu_ir(8, 4)),
        ("transactions", ir_models::transactions_ir(8, 4)),
        ("bank", ir_models::bank_ir(8, 4)),
    ]
}

/// Execution-mode determinism cross-check: `programs` conformance
/// programs per family, each lowered under both close modes, plus the
/// five apps IR twins at 8 ranks, are executed under thread-per-rank and
/// pooled fibers, and the two runs must be indistinguishable — same
/// verdict, final memories, get results, `SimStats`, `EngineStats`,
/// per-rank timings, and all three trace streams, byte for byte.
///
/// With `plant` set, every run additionally enables the kernel's
/// deliberately nondeterministic tie-break
/// (`Sim::set_nondet_tiebreak`), so same-seed runs genuinely diverge;
/// the sweep then *must* observe divergences (`detected > 0`) — the
/// exit-inverted self-test proving the cross-check would catch a
/// nondeterministic kernel rather than vacuously passing.
pub fn crossval_exec(programs: u64, plant: bool) -> ExecValReport {
    let mut points: Vec<(String, IrProgram, RunSpec)> = Vec::new();
    for family in Family::ALL {
        for idx in 0..programs {
            let program = generate(family, idx);
            for nonblocking in [false, true] {
                let spec = RunSpec {
                    sim_seed: 7 + idx,
                    ..RunSpec::baseline(SyncStrategy::Redesigned, nonblocking)
                };
                points.push((
                    format!("{family:?} #{idx} nb={nonblocking}"),
                    lower(&program, nonblocking),
                    spec,
                ));
            }
        }
    }
    let twin_spec = RunSpec::baseline(SyncStrategy::Redesigned, false);
    for (name, ir) in ir_twins() {
        points.push((format!("{name} twin"), ir, twin_spec.clone()));
    }
    let mut r = ExecValReport::default();
    for (tag, ir, spec) in points {
        r.programs += 1;
        r.runs += 2;
        let run = |exec| run_ir(&ir, &spec, true, ExecOpts { exec, nondet_tiebreak: plant });
        let base = run(ExecMode::ThreadPerRank);
        if let (Err(f), false) = (&base, plant) {
            r.failures.push(format!("{tag}: thread-per-rank run failed: {f}"));
            continue;
        }
        let diverged: Vec<&str> = match (&base, &run(ExecMode::Pooled)) {
            (Ok(a), Ok(b)) => exec_divergences(a, b),
            (Err(a), Err(b)) if a.to_string() == b.to_string() => Vec::new(),
            _ => vec!["verdict"],
        };
        if diverged.is_empty() {
            continue;
        }
        r.detected += 1;
        if !plant {
            r.failures.push(format!(
                "{tag}: pooled diverged from thread-per-rank in [{}]",
                diverged.join(", ")
            ));
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_crossval_sweep_agrees() {
        let r = crossval_deadlocks(3);
        assert_eq!(r.flagged_runs, 18, "6 deadlock families x 3 seeds");
        assert!(r.clean_runs >= 10, "5 families x >=1 program x 2 close modes");
        assert!(r.failures.is_empty(), "{:#?}", r.failures);
    }

    #[test]
    fn flagged_programs_stall_without_exception() {
        // Directly: a PSCW cycle must leave stall reports when executed.
        let case = generate_negative(NegFamily::PscwCycle, 0);
        let report = exec_ir(&case.program, true, 7).expect("watchdog must terminate the run");
        assert!(stall_count(&report) >= 1, "degradations: {:?}", report.degradations);
    }

    #[test]
    fn value_deadlock_stalls_and_satisfiable_twin_does_not() {
        // The doomed spin (expectation no write can produce) must stall
        // its peers hard enough for the watchdog to cancel; the
        // satisfiable twin must finish without a single stall.
        let case = generate_negative(NegFamily::ValueDeadlock, 0);
        let report = exec_ir(&case.program, true, 7).expect("watchdog must terminate the run");
        assert!(stall_count(&report) >= 1, "degradations: {:?}", report.degradations);

        let clean = generate_value_clean(0);
        assert!(analyze(&clean).is_empty());
        let report = exec_ir(&clean, true, 7).expect("satisfiable spin must finish");
        assert_eq!(stall_count(&report), 0, "degradations: {:?}", report.degradations);
    }

    #[test]
    fn rewrite_sweep_is_equivalent_and_cheaper() {
        let r = crossval_rewrites(2, RewriteMode::Sound);
        assert!(r.failures.is_empty(), "{:#?}", r.failures);
        assert!(r.fired >= 1, "rewriter never fired on {} programs", r.programs);
        assert!(
            r.blocked_steps_saved > 0,
            "equivalent rewrites must remove blocked parks (saved {} over {} points)",
            r.blocked_steps_saved,
            r.points
        );
    }

    #[test]
    fn exec_modes_are_indistinguishable_on_a_conformance_slice() {
        let r = crossval_exec(1, false);
        assert_eq!(r.programs, 15, "5 families x 1 program x 2 close modes + 5 twins");
        assert_eq!(r.runs, 30, "each point runs under both execution modes");
        assert!(r.failures.is_empty(), "{:#?}", r.failures);
        assert_eq!(r.detected, 0);
    }

    #[test]
    fn planted_nondeterminism_is_caught_across_exec_modes() {
        // With the nondet tie-break planted, same-seed runs genuinely
        // diverge, and the cross-check must see it — otherwise a clean
        // sweep proves nothing.
        let r = crossval_exec(2, true);
        assert!(
            r.detected > 0,
            "nondet plant produced no observable divergence over {} points",
            r.programs
        );
        assert!(r.failures.is_empty(), "plant mode records no failures: {:#?}", r.failures);
    }

    #[test]
    fn planted_bad_rewrite_is_caught() {
        let r = crossval_rewrites(1, RewriteMode::PlantUnsound);
        assert!(r.failures.is_empty(), "{:#?}", r.failures);
        assert!(r.planted >= 1, "no program accepted a plant");
        assert_eq!(
            r.planted_detected, r.planted,
            "every planted unsound rewrite must be caught differentially"
        );
    }
}
