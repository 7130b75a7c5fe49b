//! `relax_validate`: seeded programs from the apps crate's IR twins at
//! 8–64 ranks plus lowered conformance-family programs, each taken
//! through `analyze` → `analyze_slack` → `rewrite` → `exec_ir_with` on
//! both twins → memory comparison.
//!
//! The program list is stratified so its cost mix is the same for every
//! seed: each of the five twins at each of the four rank counts, plus one
//! program per conformance family. The seed picks the conformance
//! programs and the simulator seeds.

use mpisim_analyze::{analyze, analyze_slack, rewrite, IrProgram, Stmt};
use mpisim_apps::ir_models;
use mpisim_check::{exec_ir_with, generate, lower, Family, SyncStrategy};
use mpisim_core::JobReport;

use crate::job::{add, add_report, mix, Rng, TaskResult};
use crate::spans::{span, TaskTrace};

const RANK_COUNTS: [usize; 4] = [8, 16, 32, 64];
/// Iterations (panels, transactions, transfers) of every twin. Fixed, so
/// the cost mix, and with it `task_ms_p50`, does not move with the seed;
/// program 0, the set-up's warm-up task, is the 64-rank halo twin.
const TWIN_ITERS: usize = 4;

#[derive(Clone, Debug)]
enum Source {
    Twin {
        model: &'static str,
        ranks: usize,
        iters: usize,
    },
    Conformance {
        family: Family,
        index: u64,
    },
}

#[derive(Clone, Debug)]
pub struct Program {
    source: Source,
    sim_seed: u64,
}

pub fn generate_programs(seed: u64) -> Vec<Program> {
    let mut rng = Rng::new(seed ^ 0x5e1a);
    let mut out = Vec::new();
    for ranks in RANK_COUNTS.into_iter().rev() {
        for model in ["halo", "stencil2d", "lu", "transactions", "bank"] {
            out.push(Source::Twin {
                model,
                ranks,
                iters: TWIN_ITERS,
            });
        }
    }
    for family in Family::ALL {
        out.push(Source::Conformance {
            family,
            index: rng.range(0, 1 << 20),
        });
    }
    out.into_iter()
        .map(|source| Program {
            source,
            sim_seed: mix(rng.next()),
        })
        .collect()
}

fn build(src: &Source) -> IrProgram {
    match *src {
        Source::Twin {
            model,
            ranks,
            iters,
        } => match model {
            "halo" => ir_models::halo_ir(ranks, iters),
            "stencil2d" => ir_models::stencil2d_ir(ranks, iters),
            "lu" => ir_models::lu_ir(ranks, iters),
            "transactions" => ir_models::transactions_ir(ranks, iters),
            "bank" => ir_models::bank_ir(ranks, iters),
            _ => unreachable!("model list is fixed above"),
        },
        Source::Conformance { family, index } => lower(&generate(family, index), false),
    }
}

fn count_stmts(p: &IrProgram, f: impl Fn(&Stmt) -> bool) -> u64 {
    p.ranks.iter().flatten().filter(|s| f(s)).count() as u64
}

/// IR data statements: the operations that move or update window bytes.
fn data_stmts(p: &IrProgram) -> u64 {
    count_stmts(p, |s| {
        matches!(
            s,
            Stmt::Put { .. }
                | Stmt::Get { .. }
                | Stmt::Acc { .. }
                | Stmt::ReadValue { .. }
                | Stmt::AccVal { .. }
        )
    })
}

/// A twin's run passes when it recorded no degradation and leaked no
/// request beyond one per `Get` statement: the IR interpreter drops `Get`
/// requests by design (it checks liveness, not fetched values).
fn check_twin(p: &IrProgram, r: &JobReport) -> Result<(), String> {
    if !r.is_clean() {
        return Err(format!("unclean run: {:?}", r.degradations[0]));
    }
    let gets = count_stmts(p, |s| matches!(s, Stmt::Get { .. }));
    if r.live_requests as u64 > gets {
        return Err(format!(
            "{} request(s) leaked beyond {gets} dropped gets",
            r.live_requests
        ));
    }
    Ok(())
}

pub fn run(prog: &Program, mut tr: Option<&mut TaskTrace>) -> TaskResult {
    let mut res = TaskResult::default();
    let p = span(&mut tr, "check.gen_lower", || build(&prog.source));
    let diags = span(&mut tr, "analyze.analyze", || analyze(&p));
    if !diags.is_empty() {
        res.fail(format!(
            "{:?}: original not E-clean: {:?}",
            prog.source, diags[0]
        ));
        return res;
    }
    let _slack = span(&mut tr, "analyze.slack", || analyze_slack(&p));
    let (rw, rep) = span(&mut tr, "analyze.rewrite", || rewrite(&p));
    let diags = span(&mut tr, "analyze.analyze", || analyze(&rw));
    if !diags.is_empty() {
        res.fail(format!(
            "{:?}: rewritten twin not E-clean: {:?}",
            prog.source, diags[0]
        ));
        return res;
    }
    res.rma_ops = data_stmts(&p) + data_stmts(&rw);
    add(&mut res.counts, "analyze.relaxed", rep.relaxed as f64);
    add(&mut res.counts, "analyze.skipped", rep.skipped as f64);
    add(
        &mut res.counts,
        "analyze.fired",
        rep.changed() as u64 as f64,
    );
    let strategy = SyncStrategy::Redesigned;
    let orig = span(&mut tr, "check.exec_ir", || {
        exec_ir_with(&p, false, prog.sim_seed, strategy)
    });
    let relaxed = span(&mut tr, "check.exec_ir_relaxed", || {
        exec_ir_with(&rw, false, prog.sim_seed, strategy)
    });
    let ((m0, r0), (m1, r1)) = match (orig, relaxed) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) => {
            res.fail(format!("{:?}: original failed to run: {e}", prog.source));
            return res;
        }
        (_, Err(e)) => {
            res.fail(format!(
                "{:?}: rewritten twin failed to run: {e}",
                prog.source
            ));
            return res;
        }
    };
    for (ir, r) in [(&p, &r0), (&rw, &r1)] {
        add_report(&mut res.counts, r);
        if let Err(e) = check_twin(ir, r) {
            res.fail(format!("{:?}: {e}", prog.source));
        }
    }
    add(
        &mut res.counts,
        "check.blocked_steps_orig",
        r0.engine.sync_blocked_steps as f64,
    );
    add(
        &mut res.counts,
        "check.blocked_steps_relaxed",
        r1.engine.sync_blocked_steps as f64,
    );
    if m0 != m1 {
        res.fail(format!(
            "{:?}: final memories differ between the twins",
            prog.source
        ));
    }
    res.virtual_ns = r1.final_time.as_nanos();
    res.blocking_virtual_ns = Some(r0.final_time.as_nanos());
    res
}
