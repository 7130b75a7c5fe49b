//! `wide_faulty`: 1024 ranks, one per node, with the reliability
//! sublayer, checkpointing (every commit, no crash planned) and a seeded
//! `FaultPlan::light_loss`. Each rank runs a few nonblocking exclusive-lock
//! epochs to its right ring neighbour, with a barrier after each epoch.
//!
//! A job's virtual time is set by its worst loss-recovery chain, a rare
//! event. One barrier per epoch makes it a sum of per-round maxima, so the
//! median over a run's few jobs stays steady from seed to seed (a single
//! round moved it by 13–16% between seeds).
//!
//! Window layout (u64 cells): `ACC` collects the left neighbour's `Sum`
//! accumulates; cell `1 + e` holds the left neighbour's put of epoch `e`.

use std::sync::{Arc, Mutex};

use mpisim_core::{Datatype, JobConfig, LockKind, Rank, RankEnv, ReduceOp, RmaResult};
use mpisim_net::FaultPlan;
use mpisim_sim::SimTime;

use crate::job::{add_report, check_cells, check_report, mix, run_traced, Rng, TaskResult};
use crate::spans::{Api, ApiKind, TaskTrace};

pub const RANKS: usize = 1024;
const EPOCHS: usize = 8;
/// Distinct jobs per seed; the timed loop cycles over them.
const JOBS: usize = 3;

const ACC: usize = 0;
const CELLS: usize = 1 + EPOCHS;

#[derive(Clone, Debug)]
pub struct Job {
    seed: u64,
    nonblocking: bool,
    /// Per (epoch, rank) compute after the epoch, ns.
    compute_ns: Vec<[u16; EPOCHS]>,
}

impl Job {
    fn val(&self, e: usize, r: usize) -> u64 {
        mix(self.seed ^ ((e as u64) << 16) ^ r as u64) >> 32
    }

    fn expected(&self) -> Vec<Vec<u64>> {
        (0..RANKS)
            .map(|me| {
                let l = (me + RANKS - 1) % RANKS;
                let mut cells = vec![0u64; CELLS];
                for e in 0..EPOCHS {
                    cells[1 + e] = self.val(e, l);
                    cells[ACC] += self.val(e, l);
                }
                cells
            })
            .collect()
    }
}

pub fn generate(seed: u64) -> Vec<Job> {
    (0..JOBS as u64)
        .map(|j| {
            let job_seed = mix(seed ^ (j << 32) ^ 0x77fa);
            let mut rng = Rng::new(job_seed);
            let compute_ns = (0..RANKS)
                .map(|_| std::array::from_fn(|_| rng.range(0, 5_000) as u16))
                .collect();
            Job {
                seed: job_seed,
                nonblocking: true,
                compute_ns,
            }
        })
        .collect()
}

fn rank_body(job: &Job, env: &RankEnv, api: &Api, mems: &Mutex<Vec<Vec<u8>>>) -> RmaResult<()> {
    let me = env.rank().idx();
    let right = Rank((me + 1) % RANKS);
    let win = api.call(ApiKind::Other, || env.win_allocate(CELLS * 8))?;
    api.call(ApiKind::Block, || env.barrier())?;
    api.setup_done();
    let mut pending = Vec::new();
    for e in 0..EPOCHS {
        let v = job.val(e, me).to_le_bytes();
        if job.nonblocking {
            pending.push(api.call(ApiKind::NbSync, || {
                env.ilock(win, right, LockKind::Exclusive)
            })?);
        } else {
            api.call(ApiKind::Block, || env.lock(win, right, LockKind::Exclusive))?;
        }
        api.call(ApiKind::Data, || env.put(win, right, (1 + e) * 8, &v))?;
        api.call(ApiKind::Data, || {
            env.accumulate(win, right, ACC * 8, Datatype::U64, ReduceOp::Sum, &v)
        })?;
        if job.nonblocking {
            pending.push(api.call(ApiKind::NbSync, || env.iunlock(win, right))?);
        } else {
            api.call(ApiKind::Block, || env.unlock(win, right))?;
        }
        let c = SimTime::from_nanos(job.compute_ns[me][e] as u64);
        api.call(ApiKind::Other, || env.compute(c));
        api.call(ApiKind::Block, || env.barrier())?;
    }
    api.call(ApiKind::Block, || env.wait_all(pending))?;
    api.call(ApiKind::Block, || env.barrier())?;
    let mem = api.call(ApiKind::Other, || env.read_local(win, 0, CELLS * 8))?;
    mems.lock().expect("memory capture poisoned")[me] = mem;
    api.call(ApiKind::Other, || env.win_free(win))
}

pub fn run(job: &Job, mut tr: Option<&mut TaskTrace>) -> TaskResult {
    let mut res = TaskResult {
        rma_ops: (2 * EPOCHS * RANKS) as u64,
        ..Default::default()
    };
    let mems = Arc::new(Mutex::new(vec![Vec::new(); RANKS]));
    let (j, m) = (Arc::new(job.clone()), mems.clone());
    let mut cfg = JobConfig::all_internode(RANKS)
        .with_seed(job.seed)
        .with_reliability()
        .with_recovery();
    cfg.net.faults = Some(FaultPlan::light_loss(job.seed));
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
    run(
        &Job {
            nonblocking: false,
            ..job.clone()
        },
        None,
    )
}
