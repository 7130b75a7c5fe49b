//! `mpisim-check` CLI: sweep the conformance matrix and report.
//!
//! ```text
//! mpisim-check [--seeds N] [--programs N] [--deadlocks N] [--rewrites N]
//!              [--recoveries N] [--inject FAULT] [--faults PLAN]
//!              [--no-race-detect]
//! ```
//!
//! * `--seeds N` — perturbed schedules per (program, matrix point);
//!   default 16.
//! * `--programs N` — generated programs per family; default 4.
//! * `--deadlocks N` — deadlock cross-validation sweep width: N programs
//!   per deadlock-corpus family are checked both ways (analyzer must flag
//!   them AND the stall watchdog must cancel at least one epoch at
//!   runtime), and a slice of the clean families is executed under the
//!   armed watchdog and must produce zero stalls; default 13. `--inject
//!   deadlock` runs only the flagged side as an exit-inverted self-test:
//!   status 0 iff every corpus deadlock was caught by both layers.
//!   `--inject value-deadlock` narrows to the value-dependent family:
//!   status 0 iff every doomed spin is flagged E018 *and* stalls the
//!   watchdog, while the satisfiable twin of every program is
//!   analyzer-clean and runs stall-free.
//! * `--execs N` — execution-mode determinism sweep width: N conformance
//!   programs per family (both close modes) plus the five apps IR twins
//!   are replayed under thread-per-rank and pooled fibers, and the two
//!   runs must be byte-identical in verdicts, memories, stats, and
//!   traces; default 2.
//!   `--inject nondet-exec` plants the kernel's deliberately
//!   nondeterministic tie-break instead and exit-inverts: status 0 iff
//!   the comparison observed the divergence.
//! * `--rewrites N` — rewrite-equivalence sweep width: N conformance
//!   programs per family are lowered with blocking closes, run through
//!   the synchronization-slack rewriter, and every program where it
//!   fires must stay analyzer-clean, reproduce the original's final
//!   memory at every strategy × seed point with zero stalls, and
//!   strictly reduce `sync_blocked_steps`; default 6. `--inject
//!   bad-rewrite` plants one unsound deletion per program instead and
//!   exit-inverts: status 0 iff the differential check caught every
//!   plant.
//! * `--recoveries N` — crash-recovery sweep width: N conformance
//!   programs per family are probed for their per-rank epoch-commit
//!   counts, then crashed at sampled (rank, commit) points — alone and
//!   stacked on the `light-loss` plan — and every run must converge
//!   byte-identically to the oracle with nothing but healthy `recovered`
//!   degradations; default 1. `--inject bad-recovery` plants a stale
//!   checkpoint restore (redo-log replay skipped) instead and
//!   exit-inverts: status 0 iff every planted stale restore was observed
//!   to diverge.
//! * `--inject FAULT` — self-test mode: inject the named fault into every
//!   run, *require* the sweep to catch it, and print the shrunk
//!   reproducer. Exit status inverts: 0 if the bug was caught, 1 if it
//!   slipped through. Engine faults (`skip-grant`, `double-acc`,
//!   `hb-race`) plant a protocol bug; network storms (`drop-storm`,
//!   `dup-storm`, `partition`) batter the interconnect with the
//!   reliability sublayer deliberately OFF — proving the fault plans have
//!   teeth, and that the sublayer is what `--faults` is actually testing.
//! * `--faults PLAN` — clean-sweep mode under an unreliable interconnect:
//!   apply the named fault plan (`light-loss`, `heavy-dup-reorder`,
//!   `transient-partition`) to every run with the reliability sublayer
//!   and the stall watchdog ON. Normal exit semantics: every run must be
//!   conformant *and* degradation-free.
//! * `--no-race-detect` — disable the happens-before race detector. With
//!   `--inject hb-race` this must make the self-test fail loudly: the
//!   planted unsynchronized read is invisible to the oracle and the trace
//!   audit, so only the race detector can catch it.
//!
//! Without `--inject`, exit status 0 means every run of every family
//! passed static analysis, matched its oracle, passed the trace audit,
//! and was race-free.

use std::process::ExitCode;

use mpisim_check::{reproducer, shrink, sweep_family_with, Family, VerifyOpts};

struct Args {
    seeds: u64,
    programs: u64,
    deadlocks: u64,
    rewrites: u64,
    execs: u64,
    recoveries: u64,
    inject: Option<String>,
    faults: Option<String>,
    race_detect: bool,
}

/// Canonical `&'static` name for a network fault plan accepted by the
/// CLI, or `None` for engine-fault names and typos.
fn canonical_plan(name: &str) -> Option<&'static str> {
    match name {
        "light-loss" => Some("light-loss"),
        "heavy-dup-reorder" => Some("heavy-dup-reorder"),
        "partition" | "transient-partition" => Some("transient-partition"),
        "drop-storm" => Some("drop-storm"),
        "dup-storm" => Some("dup-storm"),
        _ => None,
    }
}

fn parse_args() -> Result<Args, String> {
    // Four programs per family is the smallest count whose generated set
    // exercises every epoch kind at least twice per family — enough for
    // both injected-fault self-tests to trip.
    let mut args = Args {
        seeds: 16,
        programs: 4,
        deadlocks: 13,
        rewrites: 6,
        execs: 2,
        recoveries: 1,
        inject: None,
        faults: None,
        race_detect: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--seeds" => {
                args.seeds =
                    value("--seeds")?.parse().map_err(|e| format!("--seeds: {e}"))?;
            }
            "--programs" => {
                args.programs =
                    value("--programs")?.parse().map_err(|e| format!("--programs: {e}"))?;
            }
            "--deadlocks" => {
                args.deadlocks =
                    value("--deadlocks")?.parse().map_err(|e| format!("--deadlocks: {e}"))?;
            }
            "--rewrites" => {
                args.rewrites =
                    value("--rewrites")?.parse().map_err(|e| format!("--rewrites: {e}"))?;
            }
            "--execs" => {
                args.execs = value("--execs")?.parse().map_err(|e| format!("--execs: {e}"))?;
            }
            "--recoveries" => {
                args.recoveries =
                    value("--recoveries")?.parse().map_err(|e| format!("--recoveries: {e}"))?;
            }
            "--inject" => args.inject = Some(value("--inject")?),
            "--faults" => args.faults = Some(value("--faults")?),
            "--no-race-detect" => args.race_detect = false,
            "--help" | "-h" => {
                return Err("usage: mpisim-check [--seeds N] [--programs N] [--deadlocks N] \
                            [--rewrites N] [--execs N] [--recoveries N] [--inject FAULT] \
                            [--faults PLAN] [--no-race-detect]"
                    .to_string());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seeds == 0 || args.programs == 0 {
        return Err("--seeds and --programs must be at least 1".into());
    }
    if let Some(plan) = &args.faults {
        if canonical_plan(plan).is_none() {
            return Err(format!(
                "--faults: unknown plan {plan:?} (try light-loss, heavy-dup-reorder, \
                 transient-partition)"
            ));
        }
        if args.inject.is_some() {
            return Err("--faults and --inject are mutually exclusive".into());
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    // `--inject deadlock` is the analyzer ↔ watchdog self-test: every
    // deadlock-corpus program must be flagged statically AND stall
    // dynamically. Exit status inverts like the other injects: 0 iff the
    // planted deadlocks were all caught.
    if args.inject.as_deref() == Some("deadlock") {
        let mut failures = Vec::new();
        let runs = mpisim_check::crossval_flagged(args.deadlocks, &mut failures);
        println!(
            "mpisim-check: deadlock self-test, {runs} corpus programs ({} per family)",
            args.deadlocks
        );
        return if failures.is_empty() {
            println!(
                "self-test passed: every corpus deadlock was flagged statically and \
                 stalled dynamically"
            );
            ExitCode::SUCCESS
        } else {
            for f in &failures {
                eprintln!("  {f}");
            }
            eprintln!("self-test failed: {} deadlock(s) escaped detection", failures.len());
            ExitCode::FAILURE
        };
    }

    // `--inject value-deadlock` is the value-domain self-test: every
    // corpus program whose spin expectation no reachable write can ever
    // produce must be flagged E018 statically AND stall the watchdog
    // dynamically — and the satisfiable twin of the same shape must be
    // analyzer-clean and run stall-free. Exit status inverts: 0 iff both
    // directions hold for every seed.
    if args.inject.as_deref() == Some("value-deadlock") {
        use mpisim_analyze::{
            analyze, generate_negative, generate_value_clean, has_code, Code, NegFamily,
        };
        let stall_count = |report: &mpisim_core::JobReport| {
            report
                .degradations
                .iter()
                .filter(|d| matches!(d, mpisim_core::Degradation::EpochStall(_)))
                .count()
        };
        let mut failures = Vec::new();
        let seeds = args.deadlocks.max(1);
        for seed in 0..seeds {
            let case = generate_negative(NegFamily::ValueDeadlock, seed);
            let diags = analyze(&case.program);
            if !has_code(&diags, Code::E018) {
                failures.push(format!("seed {seed}: analyzer missed E018 (got {diags:?})"));
            } else {
                match mpisim_check::exec_ir(&case.program, true, 7 + seed) {
                    Ok(report) if stall_count(&report) == 0 => failures.push(format!(
                        "seed {seed}: E018-flagged program ran stall-free (static false \
                         positive?)"
                    )),
                    Ok(_) => {}
                    Err(f) => failures.push(format!(
                        "seed {seed}: watchdog failed to terminate the doomed spin: {f}"
                    )),
                }
            }
            let clean = generate_value_clean(seed);
            let diags = analyze(&clean);
            if !diags.is_empty() {
                failures.push(format!(
                    "seed {seed}: satisfiable twin flagged: {diags:?} (value domain too \
                     coarse?)"
                ));
                continue;
            }
            match mpisim_check::exec_ir(&clean, true, 7 + seed) {
                Ok(report) if stall_count(&report) > 0 => failures.push(format!(
                    "seed {seed}: satisfiable twin stalled {} time(s)",
                    stall_count(&report)
                )),
                Ok(_) => {}
                Err(f) => failures.push(format!("seed {seed}: satisfiable twin failed: {f}")),
            }
        }
        println!(
            "mpisim-check: value-deadlock self-test, {} doomed + {} satisfiable programs",
            seeds, seeds
        );
        return if failures.is_empty() {
            println!(
                "self-test passed: every doomed spin was flagged E018 and stalled; every \
                 satisfiable twin was clean and stall-free"
            );
            ExitCode::SUCCESS
        } else {
            for f in &failures {
                eprintln!("  {f}");
            }
            eprintln!("self-test failed: {} disagreement(s)", failures.len());
            ExitCode::FAILURE
        };
    }

    // `--inject nondet-exec` is the pooled-execution determinism
    // self-test: every run enables the kernel's deliberately
    // nondeterministic tie-break, so the thread-vs-pooled comparison MUST
    // observe divergence. Exit status inverts: 0 iff the planted
    // nondeterminism was detected.
    if args.inject.as_deref() == Some("nondet-exec") {
        let r = mpisim_check::crossval_exec(args.execs.max(1), true);
        println!(
            "mpisim-check: nondet-exec self-test, {} points ({} per family + 5 IR twins), \
             {} runs, {} divergent point(s)",
            r.programs,
            args.execs.max(1),
            r.runs,
            r.detected
        );
        return if r.detected > 0 {
            println!(
                "self-test passed: the planted nondeterministic tie-break was caught by \
                 the execution-mode comparison"
            );
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "self-test failed: planted kernel nondeterminism produced no observable \
                 divergence — the determinism cross-check is blind"
            );
            ExitCode::FAILURE
        };
    }

    // `--inject bad-rewrite` is the slack-rewriter self-test: the sound
    // rewrite is applied, then one synchronization statement is deleted
    // outright; the differential comparison (runs, stalls, final memory)
    // must catch every planted program. Exit status inverts: 0 iff every
    // planted unsound rewrite was detected.
    if args.inject.as_deref() == Some("bad-rewrite") {
        let r = mpisim_check::crossval_rewrites(
            args.rewrites.max(1),
            mpisim_analyze::RewriteMode::PlantUnsound,
        );
        println!(
            "mpisim-check: bad-rewrite self-test, {} programs ({} per family), {} planted, \
             {} caught",
            r.programs,
            args.rewrites.max(1),
            r.planted,
            r.planted_detected
        );
        return if r.failures.is_empty() && r.planted > 0 && r.planted_detected == r.planted {
            println!(
                "self-test passed: every planted unsound relaxation was caught by the \
                 differential check"
            );
            ExitCode::SUCCESS
        } else {
            for f in &r.failures {
                eprintln!("  {f}");
            }
            eprintln!(
                "self-test failed: {}/{} planted rewrites caught, {} other failure(s)",
                r.planted_detected,
                r.planted,
                r.failures.len()
            );
            ExitCode::FAILURE
        };
    }

    // `--inject bad-recovery` is the crash-recovery self-test: every crash
    // run restores the crashed rank from a deliberately stale checkpoint
    // (redo-log replay skipped), and the differential comparison against
    // the oracle must observe the divergence. Exit status inverts: 0 iff
    // every planted stale restore was detected.
    if args.inject.as_deref() == Some("bad-recovery") {
        let r = mpisim_check::crossval_recovery_bad(args.recoveries.max(1));
        println!(
            "mpisim-check: bad-recovery self-test, {} programs ({} per family), {} runs, \
             {} planted stale restore(s) ({} vacuous skipped), {} caught",
            r.programs,
            args.recoveries.max(1),
            r.runs,
            r.planted,
            r.vacuous,
            r.planted_detected
        );
        return if r.failures.is_empty() && r.planted > 0 && r.planted_detected == r.planted {
            println!(
                "self-test passed: every planted stale restore diverged from the oracle \
                 and was caught by the differential check"
            );
            ExitCode::SUCCESS
        } else {
            for f in &r.failures {
                eprintln!("  {f}");
            }
            eprintln!(
                "self-test failed: {}/{} planted stale restores caught, {} other failure(s)",
                r.planted_detected,
                r.planted,
                r.failures.len()
            );
            ExitCode::FAILURE
        };
    }

    println!(
        "mpisim-check: {} programs/family x {} schedules x {} matrix points{}{}",
        args.programs,
        args.seeds,
        mpisim_check::MATRIX.len(),
        match &args.inject {
            Some(f) => format!("  [injecting fault: {f}]"),
            None => String::new(),
        },
        match &args.faults {
            Some(p) => format!("  [fault plan: {p}, reliability sublayer + watchdog ON]"),
            None => String::new(),
        }
    );

    let mut opts = VerifyOpts {
        static_analysis: true,
        races: args.race_detect,
        ..VerifyOpts::default()
    };
    // A storm name under --inject is a *network* self-test: batter the
    // interconnect with the sublayer off and require a detected failure.
    // Everything else under --inject is an engine fault passed through to
    // the job config.
    let mut engine_fault = None;
    if let Some(name) = &args.inject {
        match canonical_plan(name) {
            Some(plan) => opts.fault_plan = Some(plan),
            None => engine_fault = Some(name.clone()),
        }
    }
    if let Some(plan) = &args.faults {
        opts.fault_plan = canonical_plan(plan);
        opts.reliable = true;
    }
    let mut total_runs = 0;
    let mut all_failures = Vec::new();
    for family in Family::ALL {
        let report = sweep_family_with(family, args.programs, args.seeds, &engine_fault, opts);
        println!(
            "  {:<18} {:>4} runs, {:>2} schedules/program: {}",
            family.label(),
            report.runs,
            report.schedules,
            if report.failures.is_empty() {
                "ok".to_string()
            } else {
                format!("{} FAILURE(S)", report.failures.len())
            }
        );
        total_runs += report.runs;
        all_failures.extend(report.failures);
    }
    // Deadlock cross-validation rides along with every clean sweep (it is
    // meaningless under injected faults or lossy plans, which perturb the
    // dynamics the watchdog oracle observes).
    let mut crossval_failures = Vec::new();
    if args.inject.is_none() && args.faults.is_none() && args.deadlocks > 0 {
        let r = mpisim_check::crossval_deadlocks(args.deadlocks);
        println!(
            "  {:<18} {:>4} flagged + {} clean watchdog runs: {}",
            "deadlock-crossval",
            r.flagged_runs,
            r.clean_runs,
            if r.failures.is_empty() {
                "ok".to_string()
            } else {
                format!("{} DISAGREEMENT(S)", r.failures.len())
            }
        );
        total_runs += r.flagged_runs + r.clean_runs;
        crossval_failures = r.failures;
    }
    // The execution-mode determinism sweep rides along with clean sweeps:
    // pooled fiber execution must be indistinguishable from the
    // thread-per-rank baseline on every replayed point.
    if args.inject.is_none() && args.faults.is_none() && args.execs > 0 {
        let r = mpisim_check::crossval_exec(args.execs, false);
        println!(
            "  {:<18} {:>4} points x 2 exec modes ({} runs): {}",
            "exec-crossval",
            r.programs,
            r.runs,
            if r.failures.is_empty() {
                "ok".to_string()
            } else {
                format!("{} DIVERGENCE(S)", r.failures.len())
            }
        );
        total_runs += r.runs;
        crossval_failures.extend(r.failures);
    }
    // The rewrite-equivalence sweep also rides along with clean sweeps:
    // every program the slack rewriter fires on must stay equivalent,
    // E-clean, and strictly cheaper in blocked host work.
    if args.inject.is_none() && args.faults.is_none() && args.rewrites > 0 {
        let r = mpisim_check::crossval_rewrites(
            args.rewrites,
            mpisim_analyze::RewriteMode::Sound,
        );
        println!(
            "  {:<18} {:>4} programs, {} rewritten, {} points, {} blocked steps saved: {}",
            "slack-rewrite",
            r.programs,
            r.fired,
            r.points,
            r.blocked_steps_saved,
            if r.failures.is_empty() {
                "ok".to_string()
            } else {
                format!("{} VIOLATION(S)", r.failures.len())
            }
        );
        total_runs += r.points * 2;
        crossval_failures.extend(r.failures);
    }
    // The crash-recovery sweep rides along with clean sweeps too: sampled
    // (rank, commit) crash points, with and without a lossy plan stacked
    // on top, must all converge to the oracle with healthy recoveries.
    if args.inject.is_none() && args.faults.is_none() && args.recoveries > 0 {
        let r = mpisim_check::crossval_recovery(args.recoveries);
        println!(
            "  {:<18} {:>4} crash points over {} programs ({} runs, {} recovered, \
             {} E012-relaxation checks): {}",
            "crash-recovery",
            r.crash_points,
            r.programs,
            r.runs,
            r.recovered,
            r.e012_checks,
            if r.failures.is_empty() {
                "ok".to_string()
            } else {
                format!("{} FAILURE(S)", r.failures.len())
            }
        );
        total_runs += r.runs;
        crossval_failures.extend(r.failures);
    }
    println!(
        "total: {total_runs} runs, {} failure(s)",
        all_failures.len() + crossval_failures.len()
    );
    for f in &crossval_failures {
        println!("crossval: {f}");
    }

    if let Some(first) = all_failures.first() {
        println!("\nfirst failure ({}):\n{}", first.spec.to_rust(), first.failure);
        println!("\nshrinking…");
        let (p, s) = shrink(&first.program, &first.spec);
        println!("minimized to weight {} — reproducer:\n", p.weight());
        println!("{}", reproducer(&p, &s));
    }

    match (&args.inject, all_failures.is_empty() && crossval_failures.is_empty()) {
        // Clean sweep requested, clean result.
        (None, true) => ExitCode::SUCCESS,
        (None, false) => ExitCode::FAILURE,
        // Self-test: the injected bug MUST be caught.
        (Some(f), true) => {
            eprintln!("self-test failed: injected fault {f:?} was not detected");
            ExitCode::FAILURE
        }
        (Some(f), false) => {
            println!("self-test passed: injected fault {f:?} was detected and shrunk");
            ExitCode::SUCCESS
        }
    }
}
