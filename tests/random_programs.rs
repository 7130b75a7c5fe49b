//! Property-based tests: randomly generated RMA programs checked against
//! sequential oracles.
//!
//! The programs are the conformance harness's own [`Program`] shapes, so
//! they run through the same path as every `mpisim-check` sweep: lowered
//! to the analyzer IR and executed by the one IR interpreter
//! ([`execute`]), then compared with [`oracle`].
//!
//! Two families:
//!
//! 1. **Single-origin programs** — one rank issues a random sequence of
//!    epochs (fence / GATS / lock / lock_all) each containing random puts,
//!    accumulates and gets. With reorder flags off, epochs execute in
//!    order, so replaying the operations sequentially on a local model of
//!    every target's memory must match the final window contents byte for
//!    byte.
//! 2. **Multi-origin commutative programs** — every rank fires random
//!    `Sum` accumulates at random targets through nonblocking, out-of-order
//!    lock epochs. Addition commutes, so the final contents must equal the
//!    sum of all operands regardless of completion order.

use mpisim_check::program::WIN_BYTES;
use mpisim_check::{execute, oracle, Epoch, Op, Program, RunSpec, SyncStrategy};
use proptest::prelude::*;

const N_RANKS: usize = 3;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1..N_RANKS, 0..WIN_BYTES - 8, any::<u8>(), 1..8usize).prop_map(
            |(target, disp, val, len)| Op::Put {
                target,
                disp: disp.min(WIN_BYTES - len),
                val,
                len,
            }
        ),
        (1..N_RANKS, 0..WIN_BYTES / 8, any::<u64>())
            .prop_map(|(target, slot, operand)| Op::AccSum { target, slot, operand }),
        (1..N_RANKS, 0..WIN_BYTES - 8, 1..8usize).prop_map(|(target, disp, len)| Op::Get {
            target,
            disp: disp.min(WIN_BYTES - len),
            len,
        }),
    ]
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op_strategy(), 0..5)
}

fn epoch_strategy() -> impl Strategy<Value = Epoch> {
    prop_oneof![
        ops_strategy().prop_map(Epoch::Fence),
        ops_strategy().prop_map(Epoch::Gats),
        (1..N_RANKS, ops_strategy()).prop_map(|(target, ops)| {
            // Lock epochs address a single target: retarget every op.
            let ops = ops
                .into_iter()
                .map(|op| match op {
                    Op::Put { disp, val, len, .. } => Op::Put { target, disp, val, len },
                    Op::AccSum { slot, operand, .. } => Op::AccSum { target, slot, operand },
                    Op::Get { disp, len, .. } => Op::Get { target, disp, len },
                })
                .collect();
            Epoch::Lock { target, ops }
        }),
        ops_strategy().prop_map(Epoch::LockAll),
    ]
}

/// Run `program` under `strategy` with blocking or nonblocking closes and
/// compare memories and get results with the sequential oracle.
fn check(program: &Program, strategy: SyncStrategy, nonblocking: bool) {
    let expected = oracle(program);
    let got = execute(program, &RunSpec::baseline(strategy, nonblocking))
        .unwrap_or_else(|f| panic!("run failed: {f}"));
    for (r, (got, want)) in got.mems.iter().zip(&expected.mems).enumerate() {
        prop_assert_eq!(got, want, "rank {} memory diverged", r);
    }
    prop_assert_eq!(got.gets, expected.gets, "get results diverged");
}

fn single_origin(epochs: Vec<Epoch>) -> Program {
    Program::SingleOrigin { n_ranks: N_RANKS, reorder: false, epochs }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Single-origin random programs match the sequential oracle exactly —
    /// blocking flavour.
    #[test]
    fn single_origin_blocking_matches_oracle(
        epochs in proptest::collection::vec(epoch_strategy(), 1..6)
    ) {
        check(&single_origin(epochs), SyncStrategy::Redesigned, false);
    }

    /// Same, nonblocking flavour: closing every epoch with `i`-routines and
    /// waiting at the end must not change the outcome (epochs are still
    /// activated serially with flags off).
    #[test]
    fn single_origin_nonblocking_matches_oracle(
        epochs in proptest::collection::vec(epoch_strategy(), 1..6)
    ) {
        check(&single_origin(epochs), SyncStrategy::Redesigned, true);
    }

    /// Strategy equivalence: the lazy MVAPICH-like baseline and the
    /// redesigned engine must compute identical memory and get results for
    /// any program — only timing may differ.
    #[test]
    fn lazy_baseline_computes_identical_results(
        epochs in proptest::collection::vec(epoch_strategy(), 1..5)
    ) {
        check(&single_origin(epochs), SyncStrategy::LazyBaseline, false);
    }

    /// Multi-origin commutative accumulates survive out-of-order epochs.
    #[test]
    fn multi_origin_sums_exact_under_aaar(
        plan in proptest::collection::vec(
            proptest::collection::vec((0..4usize, 0..4usize, 0..1000u64), 1..12),
            4..=4
        )
    ) {
        check(&Program::MultiOrigin { n_ranks: 4, plan }, SyncStrategy::Redesigned, true);
    }
}
