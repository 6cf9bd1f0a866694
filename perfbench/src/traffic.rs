//! Open-loop load reports: one generator (the calling thread) sends on
//! a seeded Poisson schedule regardless of progress, one observer
//! thread blocks on each far tracker's view until it shows the report.

use crate::cluster::Member;
use crate::stats::{self, MarkerBook, Rng};
use nb_telemetry::now_ns;
use nb_tracing::view::AvailabilityView;
use nb_tracing::TracedEntity;
use nb_wire::trace::LoadInformation;
use std::sync::mpsc;
use std::time::Duration;

/// A report not seen by the far tracker this long after it was due is
/// lost.
const LOSS_NS: u64 = 2_000_000_000;

/// The latency limit a ladder step's median must meet.
///
/// The limit is held at the median, not at p99: on a small shared VM
/// the tail of a one-second step mostly measures whether the host
/// stalled a vCPU during it (stalls of 10-30 ms come and go at any
/// rate), while the median crosses 10 ms only once the offered rate
/// outruns the pipeline and its queues grow.
pub const LIMIT_MS: f64 = 10.0;

/// Ladder grid: 4% per step, finer than any bound the benchmark sets.
const LADDER_STEP: f64 = 1.04;
/// Coarse ladder moves: ten fine steps (x1.48).
const COARSE: i32 = 10;

/// The entities a stream reports through, with the far view of each
/// and the next marker to send. Markers ride in the report's
/// `workload` field and grow by one per report of an entity.
pub struct Stream<'a> {
    entities: Vec<&'a TracedEntity>,
    views: Vec<(AvailabilityView, String)>,
    markers: Vec<u64>,
    /// Reports sent, per entity, over the stream's lifetime.
    pub sent: Vec<u64>,
    /// Keep each call's and each observation's timestamps
    /// ([`RunResult::calls`], [`RunResult::observed`]).
    pub stamp: bool,
}

impl<'a> Stream<'a> {
    pub fn new(members: impl Iterator<Item = &'a Member>) -> Self {
        let mut s = Stream {
            entities: Vec::new(),
            views: Vec::new(),
            markers: Vec::new(),
            sent: Vec::new(),
            stamp: false,
        };
        for m in members {
            s.entities.push(&m.entity);
            s.views.push((m.far().view(), m.id.clone()));
            s.markers.push(marker_of(&m.far().view(), &m.id));
            s.sent.push(0);
        }
        s
    }
}

fn marker_of(view: &AvailabilityView, id: &str) -> u64 {
    view.get(id).and_then(|r| r.load).map_or(0, |l| l.workload)
}

/// What one fixed-rate run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    pub rate: f64,
    /// Due-to-observed latency of every report seen, ms, in the order
    /// they were observed.
    pub latency_ms: Vec<f64>,
    /// How late the generator started each call, µs.
    pub lateness_us: Vec<f64>,
    /// Duration of each `report_load` call, µs.
    pub report_us: Vec<f64>,
    /// With [`Stream::stamp`]: each `report_load` call as (entity index
    /// in the stream, due, start, end), ns on the span timebase
    /// (`nb_telemetry::now_ns`).
    pub calls: Vec<(usize, u64, u64, u64)>,
    /// With [`Stream::stamp`]: each observer wake-up that resolved a
    /// report, as (entity index in the stream, ns on the span timebase).
    pub observed: Vec<(usize, u64)>,
    pub attempted: u64,
    pub errors: u64,
    pub lost: u64,
    pub cpu_s: f64,
    pub wall_s: f64,
    /// Largest internal queue depth sampled at any broker.
    pub queue_depth_max: i64,
}

impl RunResult {
    /// Percentile `q` of the whole run's latencies, ms.
    pub fn p(&self, q: f64) -> f64 {
        stats::percentile(&self.latency_ms, q).unwrap_or(f64::INFINITY)
    }

    /// Median within the limit, nothing lost, and the reports observed
    /// last (the backlog when sending stopped) within it too.
    pub fn passes(&self) -> bool {
        let n = self.latency_ms.len();
        let last = stats::percentile(&self.latency_ms[n - n / 10..], 50.0).unwrap_or(0.0);
        self.lost == 0 && self.errors == 0 && n > 0 && self.p(50.0) <= LIMIT_MS && last <= LIMIT_MS
    }

    /// Concatenates runs of the same rate into one.
    pub fn merge(parts: &[RunResult]) -> RunResult {
        let mut out = RunResult {
            rate: parts.first().map_or(0.0, |p| p.rate),
            ..RunResult::default()
        };
        for p in parts {
            out.latency_ms.extend(&p.latency_ms);
            out.lateness_us.extend(&p.lateness_us);
            out.report_us.extend(&p.report_us);
            out.calls.extend(&p.calls);
            out.observed.extend(&p.observed);
            out.attempted += p.attempted;
            out.errors += p.errors;
            out.lost += p.lost;
            out.cpu_s += p.cpu_s;
            out.wall_s += p.wall_s;
            out.queue_depth_max = out.queue_depth_max.max(p.queue_depth_max);
        }
        out
    }

    pub fn cpu_util(&self) -> f64 {
        self.cpu_s / self.wall_s.max(1e-9)
    }
}

/// Sends reports at `rate` per second for `seconds`, spread round-robin
/// over the stream's entities, and waits until each is seen or lost.
/// `brokers` are sampled for their internal queue depth.
pub fn run(
    stream: &mut Stream,
    rate: f64,
    seconds: f64,
    rng: &mut Rng,
    brokers: &[nb_broker::Broker],
) -> RunResult {
    let n = stream.entities.len();
    let (tx, rx) = mpsc::channel::<(usize, u64, u64)>();
    let mut out = RunResult {
        rate,
        ..RunResult::default()
    };
    let cpu0 = stats::process_cpu_s();
    let start = now_ns();
    let end = start + (seconds * 1e9) as u64;
    let views = &stream.views;
    let stamp = stream.stamp;
    let (latency, observed, lost) = std::thread::scope(|s| {
        let observer = s.spawn(move || observe(views, rx, stamp));
        let mut due = start;
        let mut k = 0usize;
        let mut next_sample = start;
        loop {
            due += rng.exp_gap_ns(rate);
            if due > end {
                break;
            }
            let now = now_ns();
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            let e = k % n;
            k += 1;
            stream.markers[e] += 1;
            let marker = stream.markers[e];
            let started = now_ns();
            let sent = stream.entities[e].report_load(LoadInformation {
                cpu_percent: 0.0,
                memory_used_bytes: 0,
                memory_total_bytes: 0,
                workload: marker,
            });
            let ended = now_ns();
            out.attempted += 1;
            out.report_us.push((ended - started) as f64 / 1e3);
            if stream.stamp {
                out.calls.push((e, due, started, ended));
            }
            out.lateness_us
                .push(stats::lateness_ns(due, started) as f64 / 1e3);
            match sent {
                Ok(()) => {
                    stream.sent[e] += 1;
                    tx.send((e, marker, due))
                        .expect("observer outlives the generator");
                }
                Err(_) => {
                    // The marker was never sent; the next one of this
                    // entity must not resolve it.
                    stream.markers[e] -= 1;
                    out.errors += 1;
                }
            }
            if ended >= next_sample {
                next_sample = ended + 50_000_000;
                for b in brokers {
                    let depth = b
                        .metrics_snapshot()
                        .gauge("broker.queue.internal_depth")
                        .unwrap_or(0);
                    out.queue_depth_max = out.queue_depth_max.max(depth);
                }
            }
        }
        drop(tx);
        observer.join().expect("observer thread")
    });
    out.wall_s = (now_ns() - start) as f64 / 1e9;
    out.cpu_s = stats::process_cpu_s() - cpu0;
    out.latency_ms = latency;
    out.observed = observed;
    out.lost = lost;
    out
}

/// The observer: resolves the oldest outstanding report first, blocking
/// on its entity's far view (no spinning). Returns latencies (ms) in
/// observation order, the wake-ups that resolved them (if `stamp`), and
/// the count of reports lost.
fn observe(
    views: &[(AvailabilityView, String)],
    rx: mpsc::Receiver<(usize, u64, u64)>,
    stamp: bool,
) -> (Vec<f64>, Vec<(usize, u64)>, u64) {
    let mut books: Vec<MarkerBook> = views.iter().map(|_| MarkerBook::default()).collect();
    let mut latency = Vec::new();
    let mut observed = Vec::new();
    let mut lost = 0;
    let mut open = true;
    loop {
        while open {
            match rx.try_recv() {
                Ok((e, m, due)) => books[e].issue(m, due),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => open = false,
            }
        }
        let oldest = books
            .iter()
            .enumerate()
            .filter_map(|(e, b)| b.oldest().map(|(m, due)| (due, e, m)))
            .min();
        let Some((due, e, m)) = oldest else {
            if !open {
                break;
            }
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok((e, m, due)) => books[e].issue(m, due),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => open = false,
            }
            continue;
        };
        let (view, id) = &views[e];
        let timeout = (due + LOSS_NS).saturating_sub(now_ns());
        let seen = view.wait_until(Duration::from_nanos(timeout), |v| marker_of(v, id) >= m);
        let now = now_ns();
        if seen {
            let newest = marker_of(view, id);
            if stamp {
                observed.push((e, now));
            }
            latency.extend(
                books[e]
                    .observe(newest, now)
                    .into_iter()
                    .map(|ns| ns as f64 / 1e6),
            );
        } else {
            books[e].expire_oldest();
            lost += 1;
        }
    }
    (latency, observed, lost)
}

/// The rate ladder: a search over a geometric grid of rates (x1.04 per
/// step, from `base`) for the highest one that passes. It moves ten
/// steps at a time until one step passes and another fails,
/// then bisects between them. A failing step is run once more before
/// it counts: a slow spell of the machine can fail one step far below
/// the knee. The caller runs each step [`Ladder::next_rate`] proposes
/// and hands the outcome to [`Ladder::record`].
#[derive(Debug, Default)]
pub struct Ladder {
    base: f64,
    budget_s: f64,
    spent_s: f64,
    /// (grid index, passed, median latency ms, cpu cores) per step.
    results: Vec<(i32, bool, f64, f64)>,
    lo: Option<i32>,
    hi: Option<i32>,
    /// A step that failed once and is to be run again.
    retry: Option<i32>,
    pub steps: Vec<RunResult>,
}

impl Ladder {
    pub fn new(base: f64, budget_s: f64) -> Self {
        Ladder {
            base,
            budget_s,
            ..Ladder::default()
        }
    }

    fn rate_at(&self, i: i32) -> f64 {
        self.base * LADDER_STEP.powi(i)
    }

    fn next_index(&self) -> Option<i32> {
        if self.spent_s >= self.budget_s {
            return None;
        }
        if self.retry.is_some() {
            return self.retry;
        }
        let next = match (self.lo, self.hi) {
            (None, None) => 0,
            (Some(lo), None) => lo + COARSE,
            (None, Some(hi)) => hi - COARSE,
            (Some(lo), Some(hi)) if hi - lo > 1 => lo + (hi - lo) / 2,
            _ => return None,
        };
        // A hundredfold either way of `base` ends the search.
        (next.abs() <= 120).then_some(next)
    }

    /// The rate of the next step, or `None` when the search is done or
    /// out of budget.
    pub fn next_rate(&self) -> Option<f64> {
        self.next_index().map(|i| self.rate_at(i))
    }

    /// Step length at `rate`: `step_s`, or longer so the step holds at
    /// least 500 reports.
    pub fn step_seconds(rate: f64, step_s: f64) -> f64 {
        step_s.max(500.0 / rate)
    }

    /// Records the outcome of the step [`Ladder::next_rate`] proposed.
    pub fn record(&mut self, r: RunResult) {
        let i = self.next_index().expect("a step was proposed");
        let passed = r.passes();
        self.spent_s += r.wall_s;
        self.results.push((i, passed, r.p(50.0), r.cpu_util()));
        self.steps.push(r);
        if !passed && self.retry != Some(i) {
            self.retry = Some(i);
            return;
        }
        self.retry = None;
        if passed {
            self.lo = Some(self.lo.map_or(i, |lo| lo.max(i)));
        } else {
            self.hi = Some(self.hi.map_or(i, |hi| hi.min(i)));
        }
    }

    /// The highest passing rate, interpolated on the median latency
    /// between the tightest passing and failing steps. 0 when no step
    /// passed.
    pub fn max_rate(&self) -> f64 {
        let Some(lo) = self.lo else { return 0.0 };
        let find = |i: i32| self.results.iter().rev().find(|r| r.0 == i).copied();
        let (Some((_, _, t_lo, _)), Some(hi)) = (find(lo), self.hi) else {
            return self.rate_at(lo);
        };
        let t_hi = find(hi).map_or(f64::INFINITY, |r| r.2);
        // A step that failed on loss or backlog rather than its median
        // gives no slope to interpolate on.
        let frac = if t_hi.is_finite() && t_hi > LIMIT_MS && hi > lo {
            ((LIMIT_MS - t_lo) / (t_hi - t_lo)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let (r_lo, r_hi) = (self.rate_at(lo), self.rate_at(hi.max(lo)));
        r_lo + frac * (r_hi - r_lo)
    }

    /// CPU use (cores busy) at the highest passing step.
    pub fn cpu_util_at_max(&self) -> f64 {
        self.lo
            .and_then(|lo| self.results.iter().rev().find(|r| r.0 == lo))
            .map_or(0.0, |r| r.3)
    }
}
