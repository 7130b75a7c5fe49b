//! In-memory tracing for the traced (`--trace 1`) run.
//!
//! Spans are recorded only from the benchmark's own code, around its calls
//! into each layer; nothing inside the simulator is instrumented. Every
//! span carries the id of the task it belongs to.
//!
//! Two kinds of span:
//!
//! * **Phase spans** ([`span`]): one per call into a layer
//!   (`runtime.run_job`, `analyze.slack`, `check.exec_ir`, ...). They are
//!   sequential within a task, so their durations are self times.
//! * **API spans** ([`ApiSpans`]): one per `RankEnv` call inside the rank
//!   closures. All ranks run as fibers on the one host thread, so a rank
//!   that parks inside `wait` leaves its span open while other ranks run
//!   and open spans of their own: the spans interleave instead of nesting.
//!   Self time is therefore charged on the thread's timeline: each
//!   interval between two span boundaries goes to the most recently
//!   opened span that is still open. The self times of all API spans thus
//!   partition the time covered by at least one open span; nothing is
//!   counted twice. A blocking span's self time includes the scheduler and
//!   engine progress that ran while its rank was parked and no newer span
//!   was open.

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Class of a `RankEnv` call, for the `api.*_ns_p50` metrics.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ApiKind {
    /// put / get / accumulate / fetch-and-op.
    Data,
    /// Nonblocking synchronization: `ifence`, `istart`, `ipost`,
    /// `icomplete`, `iwait`, `ilock`, `iunlock`, `ilock_all`,
    /// `iunlock_all`.
    NbSync,
    /// Blocking synchronization, the wait family and `barrier`.
    Block,
    /// Everything else (`win_allocate`, `compute`, `read_local`, ...).
    Other,
}

const KINDS: usize = 4;

struct Open {
    id: u64,
    kind: ApiKind,
    self_ns: u64,
}

struct ApiState {
    last: Instant,
    next_id: u64,
    open: Vec<Open>,
    calls: u64,
    self_ns: [Vec<u64>; KINDS],
}

/// API spans of one simulated job.
struct ApiSpans {
    state: Mutex<ApiState>,
}

impl ApiSpans {
    fn new() -> Arc<Self> {
        Arc::new(ApiSpans {
            state: Mutex::new(ApiState {
                last: Instant::now(),
                next_id: 0,
                open: Vec::new(),
                calls: 0,
                self_ns: Default::default(),
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ApiState> {
        self.state
            .lock()
            .expect("API span state poisoned by a panicking rank")
    }

    /// Charge the interval since the previous boundary to the most
    /// recently opened span that is still open.
    fn charge(st: &mut ApiState, now: Instant) {
        let dt = now.duration_since(st.last).as_nanos() as u64;
        if let Some(top) = st.open.last_mut() {
            top.self_ns += dt;
        }
        st.last = now;
    }

    fn open(&self, kind: ApiKind) -> u64 {
        let mut st = self.lock();
        Self::charge(&mut st, Instant::now());
        let id = st.next_id;
        st.next_id += 1;
        st.calls += 1;
        st.open.push(Open {
            id,
            kind,
            self_ns: 0,
        });
        id
    }

    fn close(&self, id: u64) {
        let mut st = self.lock();
        Self::charge(&mut st, Instant::now());
        let pos = st
            .open
            .iter()
            .rposition(|o| o.id == id)
            .expect("closing an unopened API span");
        let o = st.open.remove(pos);
        st.self_ns[o.kind as usize].push(o.self_ns);
    }

    /// Calls recorded and the self time of each, by [`ApiKind`].
    fn take(&self) -> (u64, [Vec<u64>; KINDS]) {
        let mut st = self.lock();
        (st.calls, std::mem::take(&mut st.self_ns))
    }
}

/// Host instants the rank closures report to the runtime spans.
#[derive(Default)]
struct Marks {
    /// First instant at which a rank got past its `win_allocate` +
    /// `barrier`: by then every rank has allocated its window and entered
    /// the barrier. (The latest such instant would also count epochs that
    /// earlier-resumed ranks ran while the rest were still being woken.)
    setup_done: Option<Instant>,
    /// Latest instant at which a rank closure returned.
    last_return: Option<Instant>,
}

/// What the rank closures carry: a handle that is a no-op when tracing is
/// off, so the untraced run executes the same closure code.
#[derive(Clone, Default)]
pub struct Api {
    spans: Option<Arc<ApiSpans>>,
    marks: Option<Arc<Mutex<Marks>>>,
}

impl Api {
    /// A handle that records spans and runtime marks for one job.
    pub fn traced() -> Api {
        Api {
            spans: Some(ApiSpans::new()),
            marks: Some(Arc::new(Mutex::new(Marks::default()))),
        }
    }

    /// Run one `RankEnv` call, inside a span when tracing.
    #[inline]
    pub fn call<T>(&self, kind: ApiKind, f: impl FnOnce() -> T) -> T {
        match &self.spans {
            None => f(),
            Some(s) => {
                let id = s.open(kind);
                let r = f();
                s.close(id);
                r
            }
        }
    }

    fn mark(&self, set: impl FnOnce(&mut Marks, Instant)) {
        if let Some(m) = &self.marks {
            let now = Instant::now();
            set(
                &mut m
                    .lock()
                    .expect("runtime marks poisoned by a panicking rank"),
                now,
            );
        }
    }

    /// This rank is past its window allocation and first barrier.
    pub fn setup_done(&self) {
        self.mark(|m, now| m.setup_done = Some(m.setup_done.map_or(now, |t| t.min(now))));
    }

    /// This rank's closure is about to return.
    pub fn returning(&self) {
        self.mark(|m, now| m.last_return = Some(m.last_return.map_or(now, |t| t.max(now))));
    }
}

/// One recorded phase span.
#[derive(Clone, Debug)]
pub struct Span {
    pub task: u64,
    pub name: &'static str,
    pub parent: &'static str,
    /// Nanoseconds since the run's trace origin.
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Everything recorded while one traced task ran.
pub struct TaskTrace {
    task: u64,
    origin: Instant,
    pub spans: Vec<Span>,
    pub api_calls: u64,
    pub api_self_ns: [Vec<u64>; KINDS],
}

impl TaskTrace {
    pub fn new(task: u64, origin: Instant) -> Self {
        TaskTrace {
            task,
            origin,
            spans: Vec::new(),
            api_calls: 0,
            api_self_ns: Default::default(),
        }
    }

    fn push(&mut self, name: &'static str, parent: &'static str, t0: Instant, t1: Instant) {
        self.spans.push(Span {
            task: self.task,
            name,
            parent,
            start_ns: t0.duration_since(self.origin).as_nanos() as u64,
            dur_ns: t1.duration_since(t0).as_nanos() as u64,
        });
    }

    /// Record the whole-task span.
    pub fn finish_task(&mut self, t0: Instant, t1: Instant) {
        self.push("task", "", t0, t1);
    }

    /// Record the spans of a finished job traced through `api`: the whole
    /// `run_job` call plus its setup and teardown parts.
    pub fn finish_job(&mut self, api: &Api, entry: Instant, exit: Instant) {
        self.push("runtime.run_job", "task", entry, exit);
        if let Some(m) = &api.marks {
            let m = m
                .lock()
                .expect("runtime marks poisoned by a panicking rank");
            if let Some(t) = m.setup_done {
                self.push("runtime.setup", "runtime.run_job", entry, t.min(exit));
            }
            if let Some(t) = m.last_return {
                self.push("runtime.teardown", "runtime.run_job", t.min(exit), exit);
            }
        }
        if let Some(s) = &api.spans {
            let (calls, samples) = s.take();
            self.api_calls += calls;
            for (dst, src) in self.api_self_ns.iter_mut().zip(samples) {
                dst.extend(src);
            }
        }
    }
}

/// Run `f` inside a phase span of the traced task, if there is one.
pub fn span<T>(tr: &mut Option<&mut TaskTrace>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        None => f(),
        Some(t) => {
            let t0 = Instant::now();
            let r = f();
            t.push(name, "task", t0, Instant::now());
            r
        }
    }
}
