//! `epoch_mix`: eight ranks on one node running a seeded sequence of
//! fence, GATS, lock and lock_all epochs, each step in blocking or
//! nonblocking form, with seeded compute skew planting the paper's
//! late-process patterns. No reliability, checkpointing or faults.
//!
//! Window layout (u64 cells, every cell but `ACC` has exactly one writer,
//! so its final value is that writer's last write):
//!
//! | cell      | written by                                        |
//! |-----------|---------------------------------------------------|
//! | `ACC`     | `Sum` accumulates from every epoch kind           |
//! | `FENCE_L` | left neighbour, fence steps                       |
//! | `FENCE_R` | right neighbour, fence steps                      |
//! | `GATS_L`  | left neighbour when it is the GATS accessor       |
//! | `GATS_R`  | right neighbour when it is the GATS accessor      |
//! | `LOCK0+p` | the origin of parity `p` that locks this rank     |
//! | `ALL0+o`  | origin `o`, lock_all steps                        |

use std::sync::{Arc, Mutex};

use mpisim_core::{
    Datatype, Group, JobConfig, LockKind, Rank, RankEnv, ReduceOp, Req, RmaResult, WinId,
};
use mpisim_sim::SimTime;

use crate::job::{add_report, check_cells, check_report, mix, run_traced, Rng, TaskResult};
use crate::spans::{Api, ApiKind, TaskTrace};

pub const RANKS: usize = 8;
const STEPS: usize = 16;
/// Distinct jobs per seed; the timed loop cycles over them.
const JOBS: usize = 32;

const ACC: usize = 0;
const FENCE_L: usize = 1;
const FENCE_R: usize = 2;
const GATS_L: usize = 3;
const GATS_R: usize = 4;
const LOCK0: usize = 5;
const ALL0: usize = 7;
const CELLS: usize = ALL0 + RANKS;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Kind {
    Fence,
    Gats,
    Lock,
    LockAll,
}

/// The late-process pattern a step plants (the paper's names).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Pattern {
    None,
    /// Fence: one rank computes before its puts; the others reach the
    /// closing fence early and wait there.
    EarlyFence,
    /// Fence: one rank computes between its puts and the closing fence.
    WaitAtFence,
    /// GATS: one exposing rank computes before `post`.
    LatePost,
    /// GATS: one accessing rank computes before `complete`.
    LateComplete,
    /// lock / lock_all: the holder computes before `unlock`.
    LateUnlock,
}

#[derive(Clone, Debug)]
struct Step {
    kind: Kind,
    nonblocking: bool,
    /// GATS: ranks of this parity access, the others expose.
    parity: usize,
    late: Pattern,
    late_rank: usize,
    late_ns: u64,
    /// Per-rank compute after the step.
    compute_ns: [u64; RANKS],
}

#[derive(Clone, Debug)]
pub struct Job {
    seed: u64,
    steps: Vec<Step>,
}

fn left(r: usize) -> usize {
    (r + RANKS - 1) % RANKS
}
fn right(r: usize) -> usize {
    (r + 1) % RANKS
}
/// Lock target: ranks `2k` and `2k+1` both lock rank `2k+2`, so every
/// lock step has a contended exclusive lock at each even rank.
fn lock_target(r: usize) -> usize {
    (2 * (r / 2) + 2) % RANKS
}
fn all_targets(r: usize) -> [usize; 2] {
    [(r + 1) % RANKS, (r + RANKS / 2) % RANKS]
}

impl Job {
    /// The value rank `r` writes in step `s` (kept below 2^32 so sums
    /// cannot wrap).
    fn val(&self, s: usize, r: usize) -> u64 {
        mix(self.seed ^ ((s as u64) << 8) ^ r as u64) >> 32
    }

    /// RMA data operations the job issues.
    fn rma_ops(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| match s.kind {
                Kind::Fence => 3 * RANKS,
                Kind::Gats => 4 * (RANKS / 2),
                Kind::Lock => 2 * RANKS,
                Kind::LockAll => 4 * RANKS,
            } as u64)
            .sum()
    }

    /// Closed-form final window contents of every rank.
    fn expected(&self) -> Vec<Vec<u64>> {
        let mut m = vec![vec![0u64; CELLS]; RANKS];
        for (s, st) in self.steps.iter().enumerate() {
            for o in 0..RANKS {
                let v = self.val(s, o);
                let (l, r) = (left(o), right(o));
                match st.kind {
                    Kind::Fence => {
                        m[r][FENCE_L] = v;
                        m[l][FENCE_R] = v;
                        m[r][ACC] += v;
                    }
                    Kind::Gats if o % 2 == st.parity => {
                        m[l][GATS_R] = v;
                        m[r][GATS_L] = v;
                        m[l][ACC] += v;
                        m[r][ACC] += v;
                    }
                    Kind::Gats => {}
                    Kind::Lock => {
                        let t = lock_target(o);
                        m[t][LOCK0 + o % 2] = v;
                        m[t][ACC] += v;
                    }
                    Kind::LockAll => {
                        for t in all_targets(o) {
                            m[t][ALL0 + o] = v;
                            m[t][ACC] += v;
                        }
                    }
                }
            }
        }
        m
    }

    /// The same job with every step in blocking form.
    fn blocking(&self) -> Job {
        let mut j = self.clone();
        for s in &mut j.steps {
            s.nonblocking = false;
        }
        j
    }
}

/// Every job has the same number of steps of each kind, half of them
/// late, in a seeded order, so jobs of different seeds cost about the
/// same in host and in virtual time.
pub fn generate(seed: u64) -> Vec<Job> {
    (0..JOBS as u64)
        .map(|j| {
            let job_seed = mix(seed ^ (j << 32));
            let mut rng = Rng::new(job_seed);
            let mut plan: Vec<(Kind, bool)> = (0..STEPS)
                .map(|i| {
                    (
                        [Kind::Fence, Kind::Gats, Kind::Lock, Kind::LockAll][i % 4],
                        i % 8 < 4,
                    )
                })
                .collect();
            for i in (1..plan.len()).rev() {
                plan.swap(i, rng.range(0, i as u64 + 1) as usize);
            }
            let steps = plan
                .into_iter()
                .map(|(kind, is_late)| {
                    let parity = rng.range(0, 2) as usize;
                    let late = match kind {
                        _ if !is_late => Pattern::None,
                        Kind::Fence if rng.chance(1, 2) => Pattern::EarlyFence,
                        Kind::Fence => Pattern::WaitAtFence,
                        Kind::Gats if rng.chance(1, 2) => Pattern::LatePost,
                        Kind::Gats => Pattern::LateComplete,
                        Kind::Lock | Kind::LockAll => Pattern::LateUnlock,
                    };
                    // LatePost delays an exposer, LateComplete an accessor.
                    let mut late_rank = rng.range(0, RANKS as u64) as usize;
                    let want_parity = match late {
                        Pattern::LatePost => Some(1 - parity),
                        Pattern::LateComplete => Some(parity),
                        _ => None,
                    };
                    if want_parity.is_some_and(|p| late_rank % 2 != p) {
                        late_rank = (late_rank + 1) % RANKS;
                    }
                    Step {
                        kind,
                        nonblocking: rng.chance(1, 2),
                        parity,
                        late,
                        late_rank,
                        late_ns: rng.range(10_000, 30_000),
                        compute_ns: std::array::from_fn(|_| rng.range(0, 2_000)),
                    }
                })
                .collect();
            Job {
                seed: job_seed,
                steps,
            }
        })
        .collect()
}

fn put(env: &RankEnv, api: &Api, win: WinId, t: usize, cell: usize, v: u64) -> RmaResult<()> {
    api.call(ApiKind::Data, || {
        env.put(win, Rank(t), cell * 8, &v.to_le_bytes())
    })
}

fn acc(env: &RankEnv, api: &Api, win: WinId, t: usize, v: u64) -> RmaResult<()> {
    api.call(ApiKind::Data, || {
        env.accumulate(
            win,
            Rank(t),
            ACC * 8,
            Datatype::U64,
            ReduceOp::Sum,
            &v.to_le_bytes(),
        )
    })
}

/// Close (or open) an epoch: blocking call, or nonblocking call whose
/// request joins `pending`.
fn sync(
    api: &Api,
    nonblocking: bool,
    pending: &mut Vec<Req>,
    block: impl FnOnce() -> RmaResult<()>,
    nb: impl FnOnce() -> RmaResult<Req>,
) -> RmaResult<()> {
    if nonblocking {
        pending.push(api.call(ApiKind::NbSync, nb)?);
    } else {
        api.call(ApiKind::Block, block)?;
    }
    Ok(())
}

fn rank_body(job: &Job, env: &RankEnv, api: &Api, mems: &Mutex<Vec<Vec<u8>>>) -> RmaResult<()> {
    let me = env.rank().idx();
    let (l, r) = (left(me), right(me));
    let win = api.call(ApiKind::Other, || env.win_allocate(CELLS * 8))?;
    api.call(ApiKind::Block, || env.barrier())?;
    api.setup_done();
    let mut pending = Vec::new();
    let late = |st: &Step, at: Pattern| {
        if st.late == at && st.late_rank == me {
            api.call(ApiKind::Other, || {
                env.compute(SimTime::from_nanos(st.late_ns))
            });
        }
    };
    for (s, st) in job.steps.iter().enumerate() {
        let v = job.val(s, me);
        let nb = st.nonblocking;
        match st.kind {
            Kind::Fence => {
                api.call(ApiKind::Block, || env.fence(win))?;
                late(st, Pattern::EarlyFence);
                put(env, api, win, r, FENCE_L, v)?;
                put(env, api, win, l, FENCE_R, v)?;
                acc(env, api, win, r, v)?;
                late(st, Pattern::WaitAtFence);
                sync(api, nb, &mut pending, || env.fence(win), || env.ifence(win))?;
            }
            Kind::Gats => {
                let group = Group::new([l.min(r), l.max(r)]);
                if me % 2 == st.parity {
                    sync(
                        api,
                        nb,
                        &mut pending,
                        || env.start(win, group.clone()),
                        || env.istart(win, group.clone()),
                    )?;
                    put(env, api, win, l, GATS_R, v)?;
                    put(env, api, win, r, GATS_L, v)?;
                    acc(env, api, win, l, v)?;
                    acc(env, api, win, r, v)?;
                    late(st, Pattern::LateComplete);
                    sync(
                        api,
                        nb,
                        &mut pending,
                        || env.complete(win),
                        || env.icomplete(win),
                    )?;
                } else {
                    late(st, Pattern::LatePost);
                    sync(
                        api,
                        nb,
                        &mut pending,
                        || env.post(win, group.clone()),
                        || env.ipost(win, group.clone()),
                    )?;
                    sync(
                        api,
                        nb,
                        &mut pending,
                        || env.wait_epoch(win),
                        || env.iwait(win),
                    )?;
                }
            }
            Kind::Lock => {
                let t = Rank(lock_target(me));
                sync(
                    api,
                    nb,
                    &mut pending,
                    || env.lock(win, t, LockKind::Exclusive),
                    || env.ilock(win, t, LockKind::Exclusive),
                )?;
                put(env, api, win, t.idx(), LOCK0 + me % 2, v)?;
                acc(env, api, win, t.idx(), v)?;
                late(st, Pattern::LateUnlock);
                sync(
                    api,
                    nb,
                    &mut pending,
                    || env.unlock(win, t),
                    || env.iunlock(win, t),
                )?;
            }
            Kind::LockAll => {
                sync(
                    api,
                    nb,
                    &mut pending,
                    || env.lock_all(win),
                    || env.ilock_all(win),
                )?;
                for t in all_targets(me) {
                    put(env, api, win, t, ALL0 + me, v)?;
                    acc(env, api, win, t, v)?;
                }
                late(st, Pattern::LateUnlock);
                sync(
                    api,
                    nb,
                    &mut pending,
                    || env.unlock_all(win),
                    || env.iunlock_all(win),
                )?;
            }
        }
        api.call(ApiKind::Other, || {
            env.compute(SimTime::from_nanos(st.compute_ns[me]))
        });
    }
    api.call(ApiKind::Block, || env.wait_all(pending))?;
    api.call(ApiKind::Block, || env.barrier())?;
    let mem = api.call(ApiKind::Other, || env.read_local(win, 0, CELLS * 8))?;
    mems.lock().expect("memory capture poisoned")[me] = mem;
    api.call(ApiKind::Other, || env.win_free(win))
}

pub fn run(job: &Job, mut tr: Option<&mut TaskTrace>) -> TaskResult {
    let mut res = TaskResult {
        rma_ops: job.rma_ops(),
        ..Default::default()
    };
    let mems = Arc::new(Mutex::new(vec![Vec::new(); RANKS]));
    let (j, m) = (Arc::new(job.clone()), mems.clone());
    let cfg = JobConfig::new(RANKS).with_seed(job.seed);
    match run_traced(cfg, &mut tr, move |env, api| rank_body(&j, env, api, &m)) {
        Err(e) => res.fail(e),
        Ok(report) => {
            add_report(&mut res.counts, &report);
            res.virtual_ns = report.final_time.as_nanos();
            if let Err(e) = check_report(&report) {
                res.fail(e);
            }
            let mems = mems.lock().expect("memory capture poisoned");
            if let Err(e) = check_cells(&mems, &job.expected()) {
                res.fail(format!("wrong window contents: {e}"));
            }
        }
    }
    res
}

pub fn run_blocking(job: &Job) -> TaskResult {
    run(&job.blocking(), None)
}
