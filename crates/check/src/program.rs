//! Generated RMA programs and their sequential oracles.
//!
//! Five program families, each chosen so that a *sequential* replay of the
//! operations is a valid oracle for **every** legal schedule the simulator
//! can produce under perturbation:
//!
//! * [`Family::MixedSerial`] — one origin, mixed epoch kinds, reorder flags
//!   off. The activation predicate then serializes epochs completely, so
//!   program order is the only legal order.
//! * [`Family::DisjointReorder`] — one origin, all four reorder flags on,
//!   but every epoch owns a disjoint 16-byte region of every target window.
//!   Concurrently progressing epochs touch disjoint memory, and within an
//!   epoch per-channel FIFO keeps same-target operations ordered, so the
//!   sequential replay still predicts every byte.
//! * [`Family::MultiOriginSum`] — every rank fires `Sum` accumulates at
//!   random targets, each in its own exclusive-lock epoch, with all four
//!   reorder flags on and a per-rank compute stagger after every unlock.
//!   A lock-only program only ever forms (access, access) epoch pairs, so
//!   the flags amount to out-of-order `A_A_A_R` passive epochs. Addition
//!   commutes, so the final contents are schedule-independent.
//! * [`Family::LockAllStorm`] — every rank opens a sequence of `lock_all`
//!   epochs, each batching `Sum` accumulates at random targets and
//!   followed by a per-rank compute stagger. Shared
//!   locks from all ranks contend at every target simultaneously and
//!   back-to-back `lock_all` epochs exercise the deferral/activation
//!   machinery (§VII.A); commutativity of `Sum` keeps the sequential
//!   replay a valid oracle for every schedule.
//! * [`Family::MultiWindow`] — one origin drives mixed epochs spread over
//!   several windows (reorder flags off), with a blocking flush inside
//!   every lock epoch. Epochs on the *same* window serialize (flags off);
//!   epochs on *different* windows may overlap but touch disjoint memory,
//!   so the sequential replay stays a valid oracle. Every rank joins each
//!   window's fence phases equally, keeping the per-window fence planes
//!   collective.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Window size (bytes) for single-origin programs.
pub const WIN_BYTES: usize = 64;
/// Window size (bytes) for multi-origin programs (8 u64 slots... 4 used).
pub const MULTI_WIN_BYTES: usize = 32;
/// Bytes of window owned by each epoch in the disjoint-region family.
pub const REGION_BYTES: usize = 16;

/// One operation inside an epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `MPI_PUT` of `len` bytes of `val` at `disp`.
    Put {
        /// Target rank.
        target: usize,
        /// Byte displacement in the target window.
        disp: usize,
        /// Fill byte.
        val: u8,
        /// Length in bytes.
        len: usize,
    },
    /// `MPI_ACCUMULATE(SUM)` of one u64 at slot `slot`.
    AccSum {
        /// Target rank.
        target: usize,
        /// u64 slot index (byte displacement `slot * 8`).
        slot: usize,
        /// Operand.
        operand: u64,
    },
    /// `MPI_GET` of `len` bytes at `disp`; the result is checked against
    /// the oracle in program order.
    Get {
        /// Target rank.
        target: usize,
        /// Byte displacement in the target window.
        disp: usize,
        /// Length in bytes.
        len: usize,
    },
}

impl Op {
    /// The rank this operation addresses.
    pub fn target(&self) -> usize {
        match self {
            Op::Put { target, .. } | Op::AccSum { target, .. } | Op::Get { target, .. } => *target,
        }
    }
}

/// One epoch of a single-origin program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Epoch {
    /// Fence-to-fence active epoch.
    Fence(Vec<Op>),
    /// start/complete GATS access epoch over all targets.
    Gats(Vec<Op>),
    /// Exclusive passive-target epoch on a single target.
    Lock {
        /// The locked rank (every op is retargeted to it).
        target: usize,
        /// Operations.
        ops: Vec<Op>,
    },
    /// lock_all passive epoch.
    LockAll(Vec<Op>),
}

impl Epoch {
    /// The operations inside this epoch.
    pub fn ops(&self) -> &[Op] {
        match self {
            Epoch::Fence(o) | Epoch::Gats(o) | Epoch::LockAll(o) => o,
            Epoch::Lock { ops, .. } => ops,
        }
    }

    /// Mutable view of the operations.
    pub fn ops_mut(&mut self) -> &mut Vec<Op> {
        match self {
            Epoch::Fence(o) | Epoch::Gats(o) | Epoch::LockAll(o) => o,
            Epoch::Lock { ops, .. } => ops,
        }
    }
}

/// A generated program family.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Family {
    /// Single origin, mixed epochs, reorder flags off (fully serial).
    MixedSerial,
    /// Single origin, all reorder flags on, per-epoch disjoint regions.
    DisjointReorder,
    /// Every rank accumulates sums through reorderable (`A_A_A_R`) lock
    /// epochs.
    MultiOriginSum,
    /// Every rank accumulates sums through back-to-back `lock_all` epochs.
    LockAllStorm,
    /// Single origin driving mixed epochs over several windows, with
    /// blocking flushes inside lock epochs.
    MultiWindow,
}

impl Family {
    /// All families, in sweep order.
    pub const ALL: [Family; 5] = [
        Family::MixedSerial,
        Family::DisjointReorder,
        Family::MultiOriginSum,
        Family::LockAllStorm,
        Family::MultiWindow,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Family::MixedSerial => "mixed-serial",
            Family::DisjointReorder => "disjoint-reorder",
            Family::MultiOriginSum => "multi-origin-sum",
            Family::LockAllStorm => "lock-all-storm",
            Family::MultiWindow => "multi-window",
        }
    }
}

/// A concrete generated program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Program {
    /// Rank 0 drives `epochs`; other ranks cooperate (fence / post).
    SingleOrigin {
        /// Total ranks in the job.
        n_ranks: usize,
        /// Window info: `false` = flags off, `true` = all four reorder
        /// flags on (the disjoint-region family).
        reorder: bool,
        /// The epoch sequence.
        epochs: Vec<Epoch>,
    },
    /// Every rank `r` runs `plan[r]`: a sequence of `(target, slot, v)`
    /// Sum-accumulates, each in its own exclusive-lock epoch.
    MultiOrigin {
        /// Total ranks in the job.
        n_ranks: usize,
        /// Per-rank accumulate transactions.
        plan: Vec<Vec<(usize, usize, u64)>>,
    },
    /// Every rank `r` runs `rounds[r]`: a sequence of `lock_all` epochs,
    /// each holding a batch of `(target, slot, v)` Sum-accumulates.
    LockAllStorm {
        /// Total ranks in the job.
        n_ranks: usize,
        /// Per-rank, per-epoch accumulate batches.
        rounds: StormRounds,
    },
    /// Rank 0 drives `(window, epoch)` pairs over `n_wins` windows of
    /// `WIN_BYTES` each; other ranks cooperate per window (fence / post).
    MultiWindow {
        /// Total ranks in the job.
        n_ranks: usize,
        /// Number of windows (each `WIN_BYTES`).
        n_wins: usize,
        /// The epoch sequence with its window index.
        epochs: Vec<(usize, Epoch)>,
    },
}

/// `LockAllStorm` schedule: per rank → per `lock_all` epoch → batch of
/// `(target, slot, operand)` Sum-accumulates.
pub type StormRounds = Vec<Vec<Vec<(usize, usize, u64)>>>;

impl Program {
    /// Number of ranks this program needs.
    pub fn n_ranks(&self) -> usize {
        match self {
            Program::SingleOrigin { n_ranks, .. }
            | Program::MultiOrigin { n_ranks, .. }
            | Program::LockAllStorm { n_ranks, .. }
            | Program::MultiWindow { n_ranks, .. } => *n_ranks,
        }
    }

    /// Total number of "shrinkable atoms" (epochs + ops, or transactions):
    /// the minimizer's size metric.
    pub fn weight(&self) -> usize {
        match self {
            Program::SingleOrigin { epochs, .. } => {
                epochs.len() + epochs.iter().map(|e| e.ops().len()).sum::<usize>()
            }
            Program::MultiOrigin { plan, .. } => plan.iter().map(Vec::len).sum(),
            Program::LockAllStorm { rounds, .. } => rounds
                .iter()
                .map(|eps| eps.len() + eps.iter().map(Vec::len).sum::<usize>())
                .sum(),
            Program::MultiWindow { epochs, .. } => {
                epochs.len() + epochs.iter().map(|(_, e)| e.ops().len()).sum::<usize>()
            }
        }
    }

    /// Render the program as a Rust expression that reconstructs it —
    /// pasted verbatim into generated reproducer tests.
    pub fn to_rust(&self) -> String {
        fn ops(v: &[Op]) -> String {
            let items: Vec<String> = v
                .iter()
                .map(|op| match op {
                    Op::Put { target, disp, val, len } => format!(
                        "Op::Put {{ target: {target}, disp: {disp}, val: {val}, len: {len} }}"
                    ),
                    Op::AccSum { target, slot, operand } => format!(
                        "Op::AccSum {{ target: {target}, slot: {slot}, operand: {operand} }}"
                    ),
                    Op::Get { target, disp, len } => {
                        format!("Op::Get {{ target: {target}, disp: {disp}, len: {len} }}")
                    }
                })
                .collect();
            format!("vec![{}]", items.join(", "))
        }
        match self {
            Program::SingleOrigin { n_ranks, reorder, epochs } => {
                let eps: Vec<String> = epochs
                    .iter()
                    .map(|e| match e {
                        Epoch::Fence(o) => format!("Epoch::Fence({})", ops(o)),
                        Epoch::Gats(o) => format!("Epoch::Gats({})", ops(o)),
                        Epoch::Lock { target, ops: o } => {
                            format!("Epoch::Lock {{ target: {target}, ops: {} }}", ops(o))
                        }
                        Epoch::LockAll(o) => format!("Epoch::LockAll({})", ops(o)),
                    })
                    .collect();
                format!(
                    "Program::SingleOrigin {{\n        n_ranks: {n_ranks},\n        reorder: \
                     {reorder},\n        epochs: vec![\n            {}\n        ],\n    }}",
                    eps.join(",\n            ")
                )
            }
            Program::MultiOrigin { n_ranks, plan } => {
                let rows: Vec<String> = plan
                    .iter()
                    .map(|txs| {
                        let items: Vec<String> =
                            txs.iter().map(|(t, s, v)| format!("({t}, {s}, {v})")).collect();
                        format!("vec![{}]", items.join(", "))
                    })
                    .collect();
                format!(
                    "Program::MultiOrigin {{\n        n_ranks: {n_ranks},\n        plan: vec![\n  \
                     \u{20}         {}\n        ],\n    }}",
                    rows.join(",\n            ")
                )
            }
            Program::LockAllStorm { n_ranks, rounds } => {
                let rows: Vec<String> = rounds
                    .iter()
                    .map(|eps| {
                        let inner: Vec<String> = eps
                            .iter()
                            .map(|accs| {
                                let items: Vec<String> = accs
                                    .iter()
                                    .map(|(t, s, v)| format!("({t}, {s}, {v})"))
                                    .collect();
                                format!("vec![{}]", items.join(", "))
                            })
                            .collect();
                        format!("vec![{}]", inner.join(", "))
                    })
                    .collect();
                format!(
                    "Program::LockAllStorm {{\n        n_ranks: {n_ranks},\n        rounds: \
                     vec![\n            {}\n        ],\n    }}",
                    rows.join(",\n            ")
                )
            }
            Program::MultiWindow { n_ranks, n_wins, epochs } => {
                let eps: Vec<String> = epochs
                    .iter()
                    .map(|(w, e)| {
                        let body = match e {
                            Epoch::Fence(o) => format!("Epoch::Fence({})", ops(o)),
                            Epoch::Gats(o) => format!("Epoch::Gats({})", ops(o)),
                            Epoch::Lock { target, ops: o } => {
                                format!("Epoch::Lock {{ target: {target}, ops: {} }}", ops(o))
                            }
                            Epoch::LockAll(o) => format!("Epoch::LockAll({})", ops(o)),
                        };
                        format!("({w}, {body})")
                    })
                    .collect();
                format!(
                    "Program::MultiWindow {{\n        n_ranks: {n_ranks},\n        n_wins: \
                     {n_wins},\n        epochs: vec![\n            {}\n        ],\n    }}",
                    eps.join(",\n            ")
                )
            }
        }
    }
}

/// What the program must compute, independent of schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Final window bytes per rank (`WIN_BYTES` or `MULTI_WIN_BYTES` each).
    pub mems: Vec<Vec<u8>>,
    /// Get results, in program order (single-origin only).
    pub gets: Vec<Vec<u8>>,
}

/// Sequential oracle: replay the program on a local memory model.
pub fn oracle(program: &Program) -> Expected {
    match program {
        Program::SingleOrigin { n_ranks, epochs, .. } => {
            let mut mem = vec![vec![0u8; WIN_BYTES]; *n_ranks];
            let mut gets = Vec::new();
            for e in epochs {
                for op in e.ops() {
                    match op {
                        Op::Put { target, disp, val, len } => {
                            mem[*target][*disp..disp + len].fill(*val);
                        }
                        Op::AccSum { target, slot, operand } => {
                            let d = slot * 8;
                            let cur =
                                u64::from_le_bytes(mem[*target][d..d + 8].try_into().unwrap());
                            mem[*target][d..d + 8]
                                .copy_from_slice(&cur.wrapping_add(*operand).to_le_bytes());
                        }
                        Op::Get { target, disp, len } => {
                            gets.push(mem[*target][*disp..disp + len].to_vec());
                        }
                    }
                }
            }
            Expected { mems: mem, gets }
        }
        Program::MultiOrigin { n_ranks, plan } => {
            let mut mem = vec![vec![0u8; MULTI_WIN_BYTES]; *n_ranks];
            for txs in plan {
                for (target, slot, v) in txs {
                    let d = slot * 8;
                    let cur = u64::from_le_bytes(mem[*target][d..d + 8].try_into().unwrap());
                    mem[*target][d..d + 8].copy_from_slice(&cur.wrapping_add(*v).to_le_bytes());
                }
            }
            Expected { mems: mem, gets: Vec::new() }
        }
        Program::LockAllStorm { n_ranks, rounds } => {
            let mut mem = vec![vec![0u8; MULTI_WIN_BYTES]; *n_ranks];
            for eps in rounds {
                for accs in eps {
                    for (target, slot, v) in accs {
                        let d = slot * 8;
                        let cur = u64::from_le_bytes(mem[*target][d..d + 8].try_into().unwrap());
                        mem[*target][d..d + 8].copy_from_slice(&cur.wrapping_add(*v).to_le_bytes());
                    }
                }
            }
            Expected { mems: mem, gets: Vec::new() }
        }
        Program::MultiWindow { n_ranks, n_wins, epochs } => {
            // Per-rank memory is the concatenation of that rank's windows
            // in allocation order — the interpreter reads them back the
            // same way.
            let mut mem = vec![vec![0u8; WIN_BYTES * n_wins]; *n_ranks];
            let mut gets = Vec::new();
            for (w, e) in epochs {
                let base = w * WIN_BYTES;
                for op in e.ops() {
                    match op {
                        Op::Put { target, disp, val, len } => {
                            mem[*target][base + disp..base + disp + len].fill(*val);
                        }
                        Op::AccSum { target, slot, operand } => {
                            let d = base + slot * 8;
                            let cur =
                                u64::from_le_bytes(mem[*target][d..d + 8].try_into().unwrap());
                            mem[*target][d..d + 8]
                                .copy_from_slice(&cur.wrapping_add(*operand).to_le_bytes());
                        }
                        Op::Get { target, disp, len } => {
                            gets.push(mem[*target][base + disp..base + disp + len].to_vec());
                        }
                    }
                }
            }
            Expected { mems: mem, gets }
        }
    }
}

fn gen_op(rng: &mut SmallRng, n_ranks: usize, region: Option<usize>) -> Op {
    // Region `Some(i)` confines the op to bytes [i*16, (i+1)*16) — the
    // disjoint-region family's safety argument under reorder flags.
    let (lo, hi) = match region {
        Some(i) => (i * REGION_BYTES, (i + 1) * REGION_BYTES),
        None => (0, WIN_BYTES),
    };
    let target = rng.gen_range(1..n_ranks);
    match rng.gen_range(0..3u32) {
        0 => {
            let len = rng.gen_range(1..8usize).min(hi - lo);
            let disp = rng.gen_range(lo..=hi - len);
            Op::Put { target, disp, val: rng.gen::<u8>(), len }
        }
        1 => {
            let slot = rng.gen_range(lo / 8..hi / 8);
            Op::AccSum { target, slot, operand: rng.gen::<u64>() }
        }
        _ => {
            let len = rng.gen_range(1..8usize).min(hi - lo);
            let disp = rng.gen_range(lo..=hi - len);
            Op::Get { target, disp, len }
        }
    }
}

fn gen_epoch(rng: &mut SmallRng, n_ranks: usize, region: Option<usize>) -> Epoch {
    let n_ops = rng.gen_range(0..5usize);
    let mut ops: Vec<Op> = (0..n_ops).map(|_| gen_op(rng, n_ranks, region)).collect();
    match rng.gen_range(0..4u32) {
        0 => Epoch::Fence(ops),
        1 => Epoch::Gats(ops),
        2 => {
            // Lock epochs address a single target: retarget every op.
            let target = rng.gen_range(1..n_ranks);
            for op in ops.iter_mut() {
                match op {
                    Op::Put { target: t, .. }
                    | Op::AccSum { target: t, .. }
                    | Op::Get { target: t, .. } => *t = target,
                }
            }
            Epoch::Lock { target, ops }
        }
        _ => Epoch::LockAll(ops),
    }
}

/// Deterministically generate the `index`-th program of a family.
pub fn generate(family: Family, index: u64) -> Program {
    let mut rng = SmallRng::seed_from_u64(0x51EE_D000 ^ (index.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    match family {
        Family::MixedSerial => {
            let n_ranks = 3;
            let n_epochs = rng.gen_range(1..6usize);
            let epochs = (0..n_epochs).map(|_| gen_epoch(&mut rng, n_ranks, None)).collect();
            Program::SingleOrigin { n_ranks, reorder: false, epochs }
        }
        Family::DisjointReorder => {
            let n_ranks = 3;
            let n_epochs = rng.gen_range(2..=WIN_BYTES / REGION_BYTES);
            let epochs =
                (0..n_epochs).map(|i| gen_epoch(&mut rng, n_ranks, Some(i))).collect();
            Program::SingleOrigin { n_ranks, reorder: true, epochs }
        }
        Family::MultiOriginSum => {
            let n_ranks = 4;
            let plan = (0..n_ranks)
                .map(|_| {
                    let n = rng.gen_range(1..10usize);
                    (0..n)
                        .map(|_| {
                            (
                                rng.gen_range(0..n_ranks),
                                rng.gen_range(0..MULTI_WIN_BYTES / 8),
                                rng.gen_range(0..1000u64),
                            )
                        })
                        .collect()
                })
                .collect();
            Program::MultiOrigin { n_ranks, plan }
        }
        Family::LockAllStorm => {
            let n_ranks = 4;
            let rounds = (0..n_ranks)
                .map(|_| {
                    let n_epochs = rng.gen_range(1..4usize);
                    (0..n_epochs)
                        .map(|_| {
                            let n_accs = rng.gen_range(1..6usize);
                            (0..n_accs)
                                .map(|_| {
                                    (
                                        rng.gen_range(0..n_ranks),
                                        rng.gen_range(0..MULTI_WIN_BYTES / 8),
                                        rng.gen_range(0..1000u64),
                                    )
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect();
            Program::LockAllStorm { n_ranks, rounds }
        }
        Family::MultiWindow => {
            let n_ranks = 3;
            let n_wins = rng.gen_range(2..4usize);
            let n_epochs = rng.gen_range(2..7usize);
            let epochs = (0..n_epochs)
                .map(|_| (rng.gen_range(0..n_wins), gen_epoch(&mut rng, n_ranks, None)))
                .collect();
            Program::MultiWindow { n_ranks, n_wins, epochs }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for f in Family::ALL {
            for i in 0..4 {
                assert_eq!(generate(f, i), generate(f, i), "{f:?} #{i}");
            }
        }
        assert_ne!(generate(Family::MixedSerial, 0), generate(Family::MixedSerial, 1));
    }

    #[test]
    fn disjoint_family_respects_regions() {
        for i in 0..16 {
            let p = generate(Family::DisjointReorder, i);
            let Program::SingleOrigin { reorder, epochs, .. } = &p else {
                panic!("wrong variant")
            };
            assert!(reorder);
            for (e_idx, e) in epochs.iter().enumerate() {
                let (lo, hi) = (e_idx * REGION_BYTES, (e_idx + 1) * REGION_BYTES);
                for op in e.ops() {
                    match op {
                        Op::Put { disp, len, .. } | Op::Get { disp, len, .. } => {
                            assert!(*disp >= lo && disp + len <= hi, "op escapes region");
                        }
                        Op::AccSum { slot, .. } => {
                            assert!(slot * 8 >= lo && (slot + 1) * 8 <= hi, "slot escapes region");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn oracle_applies_ops_in_order() {
        let p = Program::SingleOrigin {
            n_ranks: 2,
            reorder: false,
            epochs: vec![
                Epoch::Fence(vec![
                    Op::Put { target: 1, disp: 0, val: 7, len: 4 },
                    Op::AccSum { target: 1, slot: 0, operand: 1 },
                    Op::Get { target: 1, disp: 0, len: 2 },
                ]),
            ],
        };
        let exp = oracle(&p);
        let word = u64::from_le_bytes(exp.mems[1][0..8].try_into().unwrap());
        assert_eq!(word, u64::from_le_bytes([7, 7, 7, 7, 0, 0, 0, 0]) + 1);
        assert_eq!(exp.gets, vec![exp.mems[1][0..2].to_vec()]);
    }

    #[test]
    fn to_rust_round_trips_textually() {
        let p = generate(Family::MixedSerial, 3);
        let src = p.to_rust();
        assert!(src.starts_with("Program::SingleOrigin"));
        assert!(src.contains("epochs: vec!["));
        let m = generate(Family::MultiOriginSum, 0);
        assert!(m.to_rust().starts_with("Program::MultiOrigin"));
        let s = generate(Family::LockAllStorm, 0);
        assert!(s.to_rust().starts_with("Program::LockAllStorm"));
    }

    #[test]
    fn lock_all_storm_batches_are_bounded() {
        for i in 0..16 {
            let Program::LockAllStorm { n_ranks, rounds } = generate(Family::LockAllStorm, i)
            else {
                panic!("wrong variant")
            };
            assert_eq!(rounds.len(), n_ranks);
            for eps in &rounds {
                assert!(!eps.is_empty());
                for accs in eps {
                    assert!(!accs.is_empty());
                    for &(t, s, _) in accs {
                        assert!(t < n_ranks && s < MULTI_WIN_BYTES / 8);
                    }
                }
            }
        }
    }
}
