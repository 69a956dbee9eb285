//! The load engine: closed- and open-loop phases over any [`Driver`], run
//! in interleaved rounds, with process CPU read at the edges of every timed
//! window and (in the traced run) one span tree per request kept in memory.

use crate::gen;
use crate::stats::{self, Summary};
use crate::sys;
use std::time::{Duration, Instant};

/// Every phase is measured in this many timed windows, interleaved with the
/// windows of the run's other phases (round 1: sat, lo; round 2: …).
/// A metric is the median of its per-window values: one disturbed window
/// does not move it, and every metric samples the whole length of the run,
/// which matters on a host whose speed drifts over seconds.
pub const ROUNDS: usize = 5;

/// The workload's main operation (a decrypt or a whole session).
pub const MAIN: u8 = 0;
/// The workload's second operation (`period_ss512`: the wire refresh).
pub const SECOND: u8 = 1;

pub fn now_ns(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// One operation as the generator saw it; times are ns from the run origin.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the operation was due (closed loop: when it started).
    pub due: u64,
    /// When the generator could first have issued it: `due`, or the end of
    /// the previous operation of a one-at-a-time client if that came later.
    pub ready: u64,
    pub start: u64,
    pub done: u64,
    pub kind: u8,
    pub ok: bool,
}

/// What an operation reports back to the engine.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub kind: u8,
    pub ok: bool,
}

impl Done {
    pub const FAILED: Done = Done {
        kind: MAIN,
        ok: false,
    };
}

/// A recorded span; `parent` indexes the window's span list (`NO_PARENT`
/// for a request's root).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub req: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

/// Layer-boundary timestamps an operation leaves behind when traced. Each
/// mark ends the child span that began at the previous mark (or at the
/// operation's start), so children are contiguous by construction.
pub struct Marks {
    on: bool,
    origin: Instant,
    at: Vec<(&'static str, u64)>,
}

impl Marks {
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            at: Vec::new(),
        }
    }

    #[inline]
    pub fn mark(&mut self, name: &'static str) {
        if self.on {
            self.at.push((name, now_ns(self.origin)));
        }
    }
}

/// A client that issues one operation at a time and verifies its reply.
pub trait Client: Send {
    fn op(&mut self, marks: &mut Marks) -> Done;
}

#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Every client issues its next operation when the previous completes.
    Closed,
    /// Seeded Poisson arrivals at `rate` per second over all clients; each
    /// operation is timed from the instant it was due.
    Open { rate: f64 },
}

/// Which CPU a generator thread runs on. The servers under test run on the
/// last CPU (see [`sys::server_cpu`]); placement is fixed because the guest
/// scheduler's own choice differs from run to run and the latency with it.
#[derive(Debug, Clone, Copy)]
pub enum Placement {
    /// Generators that do no curve work share CPU 0, away from the server.
    AwayFromServer,
    /// Generators that compute (`P1` owners) take one CPU each.
    Spread,
}

#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub name: &'static str,
    pub shape: Shape,
    /// Untimed warm-up at the same load before every window.
    pub warm: Duration,
    /// Timed length over all rounds.
    pub dur: Duration,
    pub traced: bool,
    pub placement: Placement,
}

/// One timed window of a phase.
pub struct Window {
    /// Per client, in issue order, warm-up included.
    pub samples: Vec<Vec<Sample>>,
    /// `[start, end)` in ns from the origin.
    pub start: u64,
    pub end: u64,
    /// Process CPU (µs) spent inside the window.
    pub cpu_us: u64,
    pub spans: Vec<Span>,
}

pub struct PhaseOut {
    pub phase: Phase,
    pub windows: Vec<Window>,
}

/// Sleep most of the way, spin the last stretch: `thread::sleep` alone
/// overshoots by the timer slack (~60 µs), which is half a TOY round trip.
pub fn wait_until(origin: Instant, due: u64) {
    const SPIN_NS: u64 = 70_000;
    loop {
        let now = now_ns(origin);
        if now >= due {
            return;
        }
        if due - now > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(due - now - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What one generator thread is told about its window.
pub struct Ctx<'a> {
    pub thread: usize,
    /// Due times of an open-loop window; `None` for a closed loop.
    pub schedule: Option<&'a [u64]>,
    /// End of the timed window: a closed loop issues nothing after it.
    pub end: u64,
    pub origin: Instant,
    pub traced: bool,
    /// The CPU this thread, and any helper thread it starts, runs on.
    pub cpu: usize,
}

impl Ctx<'_> {
    pub fn now(&self) -> u64 {
        now_ns(self.origin)
    }

    /// The id shared by the spans of this thread's `n`-th request.
    pub fn request_id(&self, n: usize) -> u64 {
        ((self.thread as u64) << 40) | n as u64
    }
}

/// Whatever runs one generator thread through a window.
pub trait Driver: Send {
    fn drive(&mut self, ctx: &Ctx) -> (Vec<Sample>, Vec<Span>);
}

/// A [`Client`] is driven one operation at a time: an operation due while
/// the previous one is still open waits for it, and is timed from when it
/// was due all the same.
impl<C: Client> Driver for C {
    fn drive(&mut self, ctx: &Ctx) -> (Vec<Sample>, Vec<Span>) {
        let mut samples = Vec::new();
        let mut spans = Vec::new();
        let mut marks = Marks::new(ctx.traced, ctx.origin);
        let mut prev_done = 0u64;
        let mut next = 0usize;
        loop {
            let due = match ctx.schedule {
                Some(s) => match s.get(next) {
                    Some(&due) => {
                        wait_until(ctx.origin, due);
                        due
                    }
                    None => break,
                },
                None => {
                    let now = ctx.now();
                    if now >= ctx.end {
                        break;
                    }
                    now
                }
            };
            next += 1;
            marks.at.clear();
            let start = if ctx.schedule.is_some() {
                ctx.now()
            } else {
                due
            };
            let Done { kind, ok } = self.op(&mut marks);
            let done = ctx.now();
            samples.push(Sample {
                due,
                ready: due.max(prev_done),
                start,
                done,
                kind,
                ok,
            });
            prev_done = done;
            if ctx.traced {
                let name = if kind == MAIN { "req" } else { "req.second" };
                push_request(
                    &mut spans,
                    name,
                    ctx.request_id(next),
                    due,
                    start,
                    &marks.at,
                    done,
                );
            }
            if !ok {
                // A dead peer must not turn the closed loop into a busy loop.
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        (samples, spans)
    }
}

/// Record one request's span tree: the root over `[due, done]`, `gen.wait`
/// from due to start when the generator ran late, then one child per mark.
pub fn push_request(
    spans: &mut Vec<Span>,
    name: &'static str,
    req: u64,
    due: u64,
    start: u64,
    marks: &[(&'static str, u64)],
    done: u64,
) {
    let root = spans.len() as u32;
    spans.push(Span {
        name,
        start: due,
        end: done,
        parent: NO_PARENT,
        req,
    });
    if start > due {
        spans.push(Span {
            name: "gen.wait",
            start: due,
            end: start,
            parent: root,
            req,
        });
    }
    let mut from = start;
    for &(name, at) in marks {
        spans.push(Span {
            name,
            start: from,
            end: at,
            parent: root,
            req,
        });
        from = at;
    }
}

/// Run one window of `phase` on `clients`, one generator thread each.
/// `stream` keys the window's arrival schedule off the run seed.
fn run_window<D: Driver>(
    clients: &mut [D],
    phase: Phase,
    origin: Instant,
    seed: u64,
    stream: u64,
) -> Window {
    let t0 = now_ns(origin) + 2_000_000;
    let start = t0 + phase.warm.as_nanos() as u64;
    let end = start + (phase.dur / ROUNDS as u32).as_nanos() as u64;
    let threads = clients.len();
    let schedules: Vec<Option<Vec<u64>>> = (0..threads)
        .map(|i| match phase.shape {
            Shape::Closed => None,
            Shape::Open { rate } => {
                let mut rng = gen::rng_for(seed, stream * 64 + i as u64);
                let mut due = gen::poisson_schedule(&mut rng, rate / threads as f64, end - t0);
                due.iter_mut().for_each(|d| *d += t0);
                Some(due)
            }
        })
        .collect();

    let mut cpu = [0u64; 2];
    let per_thread: Vec<(Vec<Sample>, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&schedules)
            .enumerate()
            .map(|(i, (client, schedule))| {
                let cpu = match phase.placement {
                    Placement::AwayFromServer => 0,
                    Placement::Spread => i % sys::nproc(),
                };
                let ctx = Ctx {
                    thread: i,
                    schedule: schedule.as_deref(),
                    end,
                    origin,
                    traced: phase.traced,
                    cpu,
                };
                s.spawn(move || {
                    sys::pin_current_thread(ctx.cpu);
                    client.drive(&ctx)
                })
            })
            .collect();
        for (edge, slot) in [start, end].into_iter().zip(&mut cpu) {
            let now = now_ns(origin);
            if edge > now {
                std::thread::sleep(Duration::from_nanos(edge - now));
            }
            *slot = sys::cpu_us();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });

    let mut samples = Vec::with_capacity(threads);
    let mut spans = Vec::new();
    for (s, mut sp) in per_thread {
        let base = spans.len() as u32;
        sp.iter_mut()
            .filter(|x| x.parent != NO_PARENT)
            .for_each(|x| x.parent += base);
        spans.append(&mut sp);
        samples.push(s);
    }
    Window {
        samples,
        start,
        end,
        cpu_us: cpu[1] - cpu[0],
        spans,
    }
}

/// Run `plan` in [`ROUNDS`] interleaved rounds: one window of every phase
/// per round.
pub fn run_rounds<D: Driver>(
    clients: &mut [D],
    plan: &[Phase],
    origin: Instant,
    seed: u64,
) -> Vec<PhaseOut> {
    let mut outs: Vec<PhaseOut> = plan
        .iter()
        .map(|&phase| PhaseOut {
            phase,
            windows: Vec::new(),
        })
        .collect();
    for round in 0..ROUNDS {
        for (i, out) in outs.iter_mut().enumerate() {
            let stream = 100 + (round * plan.len() + i) as u64;
            out.windows
                .push(run_window(clients, out.phase, origin, seed, stream));
        }
    }
    outs
}

impl Window {
    fn contains(&self, t: u64) -> bool {
        t >= self.start && t < self.end
    }

    fn all(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().flatten()
    }

    /// Verified operations of `kind` completed inside the window.
    fn completions(&self, kind: u8) -> u64 {
        self.all()
            .filter(|s| s.ok && s.kind == kind && self.contains(s.done))
            .count() as u64
    }

    /// Latency from due time (ns) of verified `kind` operations due inside
    /// the window, ascending. A failed operation has no latency figure.
    fn latencies(&self, kind: u8) -> Vec<u64> {
        let mut lat: Vec<u64> = self
            .all()
            .filter(|s| s.ok && s.kind == kind && self.contains(s.due))
            .map(|s| s.done - s.due)
            .collect();
        lat.sort_unstable();
        lat
    }
}

impl PhaseOut {
    fn all(&self) -> impl Iterator<Item = &Sample> {
        self.windows.iter().flat_map(Window::all)
    }

    /// Operations issued, warm-ups included.
    pub fn attempted(&self) -> u64 {
        self.all().count() as u64
    }

    pub fn failed(&self) -> u64 {
        self.all().filter(|s| !s.ok).count() as u64
    }

    /// Verified operations of `kind` per second, per window.
    pub fn throughput(&self, kind: u8) -> Summary {
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.completions(kind) as f64 * 1e9 / (w.end - w.start) as f64)
            .collect();
        stats::summarize(&per_window)
    }

    /// Process CPU microseconds per verified operation of `kind`.
    pub fn cpu_us_per_op(&self, kind: u8) -> Summary {
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.cpu_us as f64 / w.completions(kind).max(1) as f64)
            .collect();
        stats::summarize(&per_window)
    }

    /// Percentile `q` of the latency from due time, in µs, per window.
    /// Also returns the sample count over all windows, so the caller can
    /// tell whether the reported median rests on ten samples beyond `q`.
    pub fn latency_us(&self, kind: u8, q: f64) -> (Summary, usize) {
        let lat: Vec<Vec<u64>> = self.windows.iter().map(|w| w.latencies(kind)).collect();
        let values: Vec<f64> = lat
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| stats::percentile(v, q) as f64 / 1e3)
            .collect();
        if values.is_empty() {
            return (
                Summary {
                    min: 0.0,
                    median: 0.0,
                    max: 0.0,
                },
                0,
            );
        }
        (stats::summarize(&values), lat.iter().map(Vec::len).sum())
    }

    /// Latencies of all windows pooled: the highest percentile with ten
    /// samples beyond it, as `(q, µs, samples)`.
    pub fn pooled_tail(&self, kind: u8) -> Option<(f64, f64, usize)> {
        let mut all: Vec<u64> = self
            .windows
            .iter()
            .flat_map(|w| w.latencies(kind))
            .collect();
        all.sort_unstable();
        let q = stats::highest_supported(all.len())?;
        Some((q, stats::percentile(&all, q) as f64 / 1e3, all.len()))
    }

    /// p99 over the timed windows of how late the generator issued an
    /// operation it could have issued (`start − ready`), in µs.
    pub fn lateness_p99_us(&self) -> f64 {
        let mut late: Vec<u64> = self
            .windows
            .iter()
            .flat_map(|w| {
                w.all()
                    .filter(|s| w.contains(s.due))
                    .map(|s| s.start - s.ready)
            })
            .collect();
        if late.is_empty() {
            return 0.0;
        }
        late.sort_unstable();
        stats::percentile(&late, 99.0) as f64 / 1e3
    }

    /// The least-served client's share of the completions (`1 / clients`
    /// is fair), median over the windows.
    pub fn share_min(&self) -> f64 {
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .map(|w| {
                let per_client: Vec<u64> = w
                    .samples
                    .iter()
                    .map(|c| c.iter().filter(|s| s.ok && w.contains(s.done)).count() as u64)
                    .collect();
                let total: u64 = per_client.iter().sum();
                per_client.iter().copied().min().unwrap_or(0) as f64 / total.max(1) as f64
            })
            .collect();
        stats::median(&per_window)
    }

    /// Longest gap between two completions on one client, in ms.
    pub fn stall_max_ms(&self) -> f64 {
        self.windows
            .iter()
            .flat_map(|w| {
                w.samples
                    .iter()
                    .flat_map(|c| c.windows(2))
                    .filter(|p| w.contains(p[1].done))
            })
            .map(|p| p[1].done.saturating_sub(p[0].done))
            .max()
            .unwrap_or(0) as f64
            / 1e6
    }

    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.windows.iter().flat_map(|w| &w.spans)
    }
}

/// Self time of request roots as a share of their total time, and the
/// median duration (µs) of every span name.
pub fn span_books<'a>(spans: impl Iterator<Item = &'a Span>) -> (f64, Vec<(&'static str, f64)>) {
    let mut root_total = 0u64;
    let mut child_total = 0u64;
    let mut by_name: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for s in spans {
        let dur = s.end - s.start;
        if s.parent == NO_PARENT {
            root_total += dur;
        } else {
            child_total += dur;
        }
        match by_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, v)) => v.push(dur as f64 / 1e3),
            None => by_name.push((s.name, vec![dur as f64 / 1e3])),
        }
    }
    let unattributed =
        100.0 * root_total.saturating_sub(child_total) as f64 / root_total.max(1) as f64;
    let medians = by_name
        .into_iter()
        .map(|(n, v)| (n, stats::median(&v)))
        .collect();
    (unattributed, medians)
}
