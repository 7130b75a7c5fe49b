//! Lower a generated [`Program`] into the analyzer's [`IrProgram`].
//!
//! The lowered IR *is* the executed program: [`crate::run::execute`] runs
//! exactly `lower(program, spec.nonblocking)` through the one IR
//! interpreter ([`crate::run::run_ir`]). Every call each rank makes is a
//! statement here — the blocking vs nonblocking close selection, the
//! targets' cooperating fences and post/wait pairs, the per-rank compute
//! stagger of the multi-origin families, real put fill bytes and
//! accumulate operands, and the trailing `wait_all` + barrier. So a clean
//! verdict from the static analyzer speaks about precisely the program
//! the runtime executes. `mpisim-check` runs [`mpisim_analyze::analyze`]
//! over this IR before executing anything: analyzer-clean is a
//! precondition for every conformance run (analyzer-clean ⇒ oracle-clean
//! ∧ audit-clean is the harness's soundness claim).

use mpisim_analyze::{Close, IrProgram, Stmt};
use mpisim_core::ReduceOp;

use crate::program::{Epoch, Op, Program, MULTI_WIN_BYTES, WIN_BYTES};

fn lower_op(win: usize, op: &Op) -> Stmt {
    match op {
        Op::Put { target, disp, val, len } => {
            Stmt::Put { win, target: *target, disp: *disp, len: *len, val: *val }
        }
        Op::Get { target, disp, len } => {
            Stmt::Get { win, target: *target, disp: *disp, len: *len }
        }
        Op::AccSum { target, slot, operand } => acc_sum(win, *target, *slot, *operand),
    }
}

/// `MPI_ACCUMULATE(SUM)` of the known u64 `operand` at slot `slot`.
fn acc_sum(win: usize, target: usize, slot: usize, operand: u64) -> Stmt {
    Stmt::AccVal { win, target, disp: slot * 8, op: ReduceOp::Sum, val: operand }
}

/// Lower one driven epoch on `win` into rank 0's statement stream:
/// blocking open, `close`-mode close, and — in the multi-window family —
/// a blocking flush before a lock epoch's close.
fn lower_driver(stmts: &mut Vec<Stmt>, win: usize, e: &Epoch, n_ranks: usize, close: Close, flush_locks: bool) {
    match e {
        Epoch::Fence(ops) => {
            stmts.push(Stmt::Fence { win, close: Close::Blocking });
            stmts.extend(ops.iter().map(|op| lower_op(win, op)));
            stmts.push(Stmt::Fence { win, close });
        }
        Epoch::Gats(ops) => {
            stmts.push(Stmt::Start { win, group: (1..n_ranks).collect() });
            stmts.extend(ops.iter().map(|op| lower_op(win, op)));
            stmts.push(Stmt::Complete { win, close });
        }
        Epoch::Lock { target, ops } => {
            stmts.push(Stmt::Lock { win, target: *target, exclusive: true, nonblocking: false });
            stmts.extend(ops.iter().map(|op| lower_op(win, op)));
            if flush_locks {
                stmts.push(Stmt::Flush {
                    win,
                    target: Some(*target),
                    local_only: false,
                    close: Close::Blocking,
                });
            }
            stmts.push(Stmt::Unlock { win, target: *target, close });
        }
        Epoch::LockAll(ops) => {
            stmts.push(Stmt::LockAll { win });
            stmts.extend(ops.iter().map(|op| lower_op(win, op)));
            stmts.push(Stmt::UnlockAll { win, close });
        }
    }
}

/// Lower one cooperating epoch on `win` into a target rank's stream.
fn lower_target(stmts: &mut Vec<Stmt>, win: usize, e: &Epoch) {
    match e {
        Epoch::Fence(_) => {
            stmts.push(Stmt::Fence { win, close: Close::Blocking });
            stmts.push(Stmt::Fence { win, close: Close::Blocking });
        }
        Epoch::Gats(_) => {
            stmts.push(Stmt::Post { win, group: vec![0] });
            stmts.push(Stmt::WaitEpoch { win, close: Close::Blocking });
        }
        _ => {}
    }
}

/// Lower `program` as it would execute with `nonblocking` epoch closes.
pub fn lower(program: &Program, nonblocking: bool) -> IrProgram {
    let close = if nonblocking { Close::Nonblocking } else { Close::Blocking };
    match program {
        Program::SingleOrigin { n_ranks, reorder, epochs } => {
            let mut p = IrProgram::new(*n_ranks, WIN_BYTES);
            // `WinInfo::all_reorder()` sets the four reorder flags but not
            // the unsafe fence-reorder extension.
            p.reorder = *reorder;
            // Rank 0 drives every epoch.
            for e in epochs {
                lower_driver(&mut p.ranks[0], 0, e, *n_ranks, close, false);
            }
            p.ranks[0].push(Stmt::WaitAll);
            p.ranks[0].push(Stmt::Barrier);
            // Targets join every fence phase and expose for every GATS
            // epoch (blocking closes on their side).
            for r in 1..*n_ranks {
                for e in epochs {
                    lower_target(&mut p.ranks[r], 0, e);
                }
                p.ranks[r].push(Stmt::Barrier);
            }
            p
        }
        Program::MultiOrigin { n_ranks, plan } => {
            let mut p = IrProgram::new(*n_ranks, MULTI_WIN_BYTES);
            // Reorder flags on. A lock-only program only ever forms
            // (access, access) epoch pairs, so this is access-after-access
            // reorder.
            p.reorder = true;
            for (r, txs) in plan.iter().enumerate() {
                let stagger = (r as u64 * 97 + 13) % 500;
                for &(target, slot, v) in txs {
                    p.ranks[r].push(Stmt::Lock { win: 0, target, exclusive: true, nonblocking });
                    p.ranks[r].push(acc_sum(0, target, slot, v));
                    p.ranks[r].push(Stmt::Unlock { win: 0, target, close });
                    p.ranks[r].push(Stmt::Compute { ns: stagger });
                }
                p.ranks[r].push(Stmt::WaitAll);
                p.ranks[r].push(Stmt::Barrier);
            }
            p
        }
        Program::LockAllStorm { n_ranks, rounds } => {
            let mut p = IrProgram::new(*n_ranks, MULTI_WIN_BYTES);
            // `WinInfo::default()`: no reorder flags; back-to-back
            // lock_all epochs serialize per rank (§VI.A rule 4).
            p.reorder = false;
            for (r, eps) in rounds.iter().enumerate() {
                let stagger = (r as u64 * 131 + 29) % 400;
                for accs in eps {
                    p.ranks[r].push(Stmt::LockAll { win: 0 });
                    for &(target, slot, v) in accs {
                        p.ranks[r].push(acc_sum(0, target, slot, v));
                    }
                    p.ranks[r].push(Stmt::UnlockAll { win: 0, close });
                    p.ranks[r].push(Stmt::Compute { ns: stagger });
                }
                p.ranks[r].push(Stmt::WaitAll);
                p.ranks[r].push(Stmt::Barrier);
            }
            p
        }
        Program::MultiWindow { n_ranks, n_wins, epochs } => {
            let mut p = IrProgram::new(*n_ranks, WIN_BYTES);
            for _ in 1..*n_wins {
                p.add_window(WIN_BYTES);
            }
            p.reorder = false;
            for (w, e) in epochs {
                lower_driver(&mut p.ranks[0], *w, e, *n_ranks, close, true);
            }
            p.ranks[0].push(Stmt::WaitAll);
            p.ranks[0].push(Stmt::Barrier);
            for r in 1..*n_ranks {
                for (w, e) in epochs {
                    lower_target(&mut p.ranks[r], *w, e);
                }
                p.ranks[r].push(Stmt::Barrier);
            }
            p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{generate, Family};
    use mpisim_analyze::analyze;

    #[test]
    fn lowered_generated_programs_are_analyzer_clean() {
        for family in Family::ALL {
            for idx in 0..16 {
                let program = generate(family, idx);
                for nonblocking in [false, true] {
                    let ir = lower(&program, nonblocking);
                    let diags = analyze(&ir);
                    assert!(
                        diags.is_empty(),
                        "{family:?} #{idx} nb={nonblocking}: {diags:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn lowering_reflects_close_mode() {
        let program = generate(Family::MixedSerial, 0);
        let b = lower(&program, false);
        let nb = lower(&program, true);
        assert!(!b.ranks[0].contains(&Stmt::Fence { win: 0, close: Close::Nonblocking }));
        assert_ne!(b, nb);
    }

    #[test]
    fn multi_window_lowering_spans_windows_and_flushes_locks() {
        let program = generate(Family::MultiWindow, 0);
        let crate::program::Program::MultiWindow { n_wins, epochs, .. } = &program else {
            panic!("wrong variant")
        };
        let ir = lower(&program, false);
        assert_eq!(ir.windows.len(), *n_wins);
        let flushes = ir.ranks[0]
            .iter()
            .filter(|s| matches!(s, Stmt::Flush { .. }))
            .count();
        let locks = epochs.iter().filter(|(_, e)| matches!(e, Epoch::Lock { .. })).count();
        assert_eq!(flushes, locks);
    }
}
