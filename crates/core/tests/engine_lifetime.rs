//! A finished job gives its memory back: once `run_job` returns, nothing
//! keeps the job's engine (and with it every window side, request table
//! and reliability channel) alive.

use std::sync::{Arc, Mutex, Weak};

use mpisim_core::{run_job, Engine, JobConfig, LockKind, Rank};
use mpisim_net::FaultPlan;

/// Run a ring of lock epochs under `cfg`, returning a weak handle to the
/// job's engine taken from inside a rank closure.
fn engine_of_finished_job(cfg: JobConfig) -> Weak<Engine> {
    let slot: Arc<Mutex<Option<Weak<Engine>>>> = Arc::default();
    let s2 = slot.clone();
    let report = run_job(cfg, move |env| {
        *s2.lock().unwrap() = Some(Arc::downgrade(env.engine()));
        let win = env.win_allocate(16).unwrap();
        let right = Rank((env.rank().idx() + 1) % env.n_ranks());
        env.lock(win, right, LockKind::Exclusive).unwrap();
        env.put(win, right, 0, &[7; 4]).unwrap();
        env.unlock(win, right).unwrap();
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
    assert!(report.is_clean(), "{:?}", report.degradations);
    let weak = slot.lock().unwrap().take().expect("a rank ran");
    weak
}

#[test]
fn engine_is_dropped_when_run_job_returns() {
    let weak = engine_of_finished_job(JobConfig::new(4));
    assert!(weak.upgrade().is_none(), "the finished job's engine leaked");
}

#[test]
fn engine_is_dropped_after_a_lossy_reliable_job() {
    // Reliability arms retransmit and delayed-ack timers, which the
    // kernel may still hold when the last rank returns.
    let mut cfg = JobConfig::all_internode(4).with_reliability();
    cfg.net.faults = Some(FaultPlan::light_loss(3));
    let weak = engine_of_finished_job(cfg);
    assert!(weak.upgrade().is_none(), "the finished job's engine leaked");
}
