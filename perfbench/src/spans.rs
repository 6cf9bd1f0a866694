//! Per-stage self-times from the spans the program already records.
//!
//! A publication chain is one sampled trace publication: the engine's
//! `trace_publish` root at broker 0, the auth/route/forward/deliver
//! spans of the three brokers, and the far tracker's `apply`. The
//! entity leg is the load report that caused it: broker 0's spans for
//! the entity's message and the engine's `consume`. A span's self-time
//! is its duration minus the part of it that other spans cover.
//!
//! The driver stamps its own calls on the same process-wide timebase
//! (`nb_telemetry::now_ns`), so the parts of the path no span covers are
//! measured too: the generator's lateness, the `report_load` call up to
//! broker 0's authentication of the report (the call may still be
//! running then: its caller loses the CPU to the brokers once the frame
//! is written), any gap after the call, and from the far tracker's
//! `apply` to the observer waking on the view. Per report, each stage's
//! share is the part of its interval no earlier stage covers, so
//! overlapping spans count once; the shares rebuild the report's
//! latency, and whatever they miss is time no span or driver stamp
//! explains.

use crate::stats::percentile;
use nb_telemetry::{NodeSpans, SpanEvent, Stage};
use std::collections::{BTreeMap, HashMap};

/// Median self-times (µs) per stage, and the per-report totals the
/// traced latency is reconciled against.
#[derive(Debug, Default)]
pub struct Breakdown {
    pub chains: usize,
    pub legs: usize,
    /// Median per span, pooled over hops (per-layer metrics).
    pub per_span_us: BTreeMap<&'static str, f64>,
    /// Median over reports of each stage's share of the path.
    pub path_us: BTreeMap<&'static str, f64>,
    /// Median over reports of the sum of their stages, µs: the latency
    /// the breakdown explains.
    pub rebuilt_us: f64,
    /// Reports whose whole path was captured.
    pub rebuilt: usize,
    /// Median chain wall time, publish start to far apply end, µs.
    pub chain_wall_us: f64,
    pub verdict_us: Option<f64>,
    pub tdn_create_us: Option<f64>,
    pub tdn_discover_us: Option<f64>,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Length of the part of `[start, end)` covered by `others`.
fn covered(start: u64, end: u64, others: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = others
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

fn self_ns(span: &SpanEvent, others: &[(u64, u64)]) -> u64 {
    span.dur_ns()
        .saturating_sub(covered(span.start_ns, span.end_ns, others))
}

fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// One `report_load` call, ns on the span timebase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Call<'a> {
    pub due: u64,
    pub start: u64,
    pub end: u64,
    /// The far tracker's node of the reporting entity.
    pub far: &'a str,
}

/// What the driver timed itself, on the span timebase.
pub struct Driver<'a> {
    /// `report_load` calls in call order.
    pub calls: Vec<Call<'a>>,
    /// Observer wake-ups that resolved a report: (far tracker node, ns).
    pub observed: Vec<(&'a str, u64)>,
}

/// The call a report of the entity tracked at `far`, authenticated at
/// `auth`, came from: that entity's latest call started at or before
/// `auth`, looking back at most 64 calls (calls sorted by start).
fn call_for<'a>(calls: &[Call<'a>], auth: u64, far: &str) -> Option<Call<'a>> {
    let i = calls.partition_point(|c| c.start <= auth);
    calls[..i]
        .iter()
        .rev()
        .take(64)
        .find(|c| c.far == far)
        .copied()
}

/// A named stage of a report's path, as (name, start, end) in ns.
type Interval = (&'static str, u64, u64);

/// Each stage's share of `[from, to)`: the part of its interval that no
/// stage before it in `stages` covers, µs, summed by name. Spans that
/// overlap (a forward still returning while the next broker
/// authenticates) are so counted once, and the shares add up to the
/// time the stages cover.
fn path_parts(stages: &[Interval], from: u64, to: u64) -> BTreeMap<&'static str, f64> {
    let mut parts = BTreeMap::new();
    let mut seen: Vec<(u64, u64)> = Vec::new();
    for &(name, start, end) in stages {
        let (start, end) = (start.max(from), end.min(to));
        let own = if start < end {
            (end - start) - covered(start, end, &seen)
        } else {
            0
        };
        *parts.entry(name).or_default() += us(own);
        seen.push((start, end));
    }
    parts
}

/// A complete publication chain: its stages in path order, and where
/// and when it was applied at the far tracker.
struct Chain<'a> {
    stages: Vec<Interval>,
    far: &'a str,
    apply: SpanEvent,
}

/// Builds the breakdown. `far_prefix` names the far trackers' nodes
/// (their flight recorders are named by tracker id).
pub fn breakdown(nodes: &[NodeSpans], far_prefix: &str, driver: &Driver) -> Breakdown {
    let mut by_trace: HashMap<u128, Vec<(&str, SpanEvent)>> = HashMap::new();
    for n in nodes {
        for s in &n.spans {
            by_trace
                .entry(s.trace_id)
                .or_default()
                .push((n.node.as_str(), *s));
        }
    }
    let engine0 = "tracing-engine@broker-0";
    let mut pooled: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut path: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut walls = Vec::new();
    let mut totals = Vec::new();
    let mut out = Breakdown::default();
    // Engine publish roots by start, to find the one inside a consume,
    // and the complete chains by their root's start.
    let mut publishes: Vec<(u64, u64)> = Vec::new();
    let mut chains: HashMap<u64, Chain> = HashMap::new();

    for spans in by_trace.values() {
        let find = |node: &str, stage: Stage| {
            spans
                .iter()
                .find(|(n, s)| *n == node && s.stage == stage)
                .map(|(_, s)| *s)
        };
        let Some(root) = find(engine0, Stage::TracePublish) else {
            continue;
        };
        publishes.push((root.start_ns, root.end_ns));
        let Some((far, apply)) = spans
            .iter()
            .find(|(n, s)| n.starts_with(far_prefix) && s.stage == Stage::TrackerApply)
            .map(|(n, s)| (*n, *s))
        else {
            continue;
        };
        let hops: Vec<Vec<SpanEvent>> = (0..3)
            .map(|b| {
                let node = format!("broker-{b}");
                spans
                    .iter()
                    .filter(|(n, _)| *n == node)
                    .map(|(_, s)| *s)
                    .collect()
            })
            .collect();
        // Complete chains only: every hop authenticated and routed.
        if hops
            .iter()
            .any(|h| !h.iter().any(|s| s.stage == Stage::AuthCheck))
        {
            continue;
        }
        let intervals: Vec<(u64, u64)> = hops
            .iter()
            .flatten()
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        let mut stages: Vec<Interval> = Vec::new();
        pooled
            .entry("tracing.engine.publish_us")
            .or_default()
            .push(us(self_ns(&root, &intervals)));
        for (h, hop) in hops.iter().enumerate() {
            for s in hop {
                let name = match s.stage {
                    Stage::AuthCheck => "broker.auth_us",
                    Stage::Route => "broker.route_us",
                    Stage::Forward => "broker.forward_us",
                    Stage::Deliver => "broker.deliver_us",
                    Stage::Enqueue => "broker.enqueue_us",
                    _ => continue,
                };
                pooled.entry(name).or_default().push(us(s.dur_ns()));
                stages.push((name, s.start_ns, s.end_ns));
            }
            let fwd = hop.iter().find(|s| s.stage == Stage::Forward);
            let next = hops
                .get(h + 1)
                .and_then(|n| n.iter().find(|s| s.stage == Stage::AuthCheck));
            if let (Some(f), Some(n)) = (fwd, next) {
                let t = n.start_ns.saturating_sub(f.end_ns);
                pooled
                    .entry("transport.transit_us")
                    .or_default()
                    .push(us(t));
                stages.push(("transport.transit_us", f.end_ns, n.start_ns));
            }
        }
        // The publish root's share is its self-time: broker 0's spans
        // inside it come first.
        stages.push(("tracing.engine.publish_us", root.start_ns, root.end_ns));
        if let Some(d) = hops[2].iter().find(|s| s.stage == Stage::Deliver) {
            pooled
                .entry("tracing.tracker.handoff_us")
                .or_default()
                .push(us(apply.start_ns.saturating_sub(d.end_ns)));
            stages.push(("tracing.tracker.handoff_us", d.end_ns, apply.start_ns));
        }
        pooled
            .entry("tracing.tracker.apply_us")
            .or_default()
            .push(us(apply.dur_ns()));
        stages.push(("tracing.tracker.apply_us", apply.start_ns, apply.end_ns));
        walls.push(us(apply.end_ns.saturating_sub(root.start_ns)));
        chains.insert(root.start_ns, Chain { stages, far, apply });
        out.chains += 1;
    }

    // The observer's wake-ups per far tracker: a report's is the first
    // after its apply there began (the view shows the report before the
    // apply span ends, and the observer may see it in between).
    let mut wakes: HashMap<&str, Vec<u64>> = HashMap::new();
    for &(node, t) in &driver.observed {
        wakes.entry(node).or_default().push(t);
    }
    for times in wakes.values_mut() {
        times.sort_unstable();
    }

    // Entity legs: broker 0's spans of the entity's message and the
    // engine's consume, whose self-time excludes the publication it
    // triggers. Pings' responses ride the ping's trace (rooted by a
    // `ping` span) and are skipped. A leg whose publication chain is
    // complete is one report's whole path.
    publishes.sort_unstable();
    for spans in by_trace.values() {
        let find = |node: &str, stage: Stage| {
            spans
                .iter()
                .find(|(n, s)| *n == node && s.stage == stage)
                .map(|(_, s)| *s)
        };
        let Some(consume) = find(engine0, Stage::Consume) else {
            continue;
        };
        if find(engine0, Stage::PingSend).is_some() {
            continue;
        }
        let inner: Vec<(u64, u64)> = publishes
            .iter()
            .copied()
            .filter(|&(s, e)| s >= consume.start_ns && e <= consume.end_ns)
            .collect();
        if inner.is_empty() {
            continue; // a control message, not a load report
        }
        let (Some(auth), Some(route), Some(enqueue)) = (
            find("broker-0", Stage::AuthCheck),
            find("broker-0", Stage::Route),
            find("broker-0", Stage::Enqueue),
        ) else {
            continue;
        };
        for (name, v) in [
            ("tracing.engine.consume_us", self_ns(&consume, &inner)),
            ("broker.enqueue_us", enqueue.dur_ns()),
            (
                "tracing.engine.queue_wait_us",
                consume.start_ns.saturating_sub(enqueue.end_ns),
            ),
        ] {
            pooled.entry(name).or_default().push(us(v));
        }
        out.legs += 1;
        // The whole path, from the report's due time to the observer's
        // wake-up after the far apply: the leg, then the chain of the
        // publication it triggered for that entity's trackers (the
        // engine may publish for others meanwhile). Consume counts up
        // to that publication.
        let Some((root, chain, call)) = inner.iter().find_map(|p| {
            let chain = chains.get(&p.0)?;
            let call = call_for(&driver.calls, auth.start_ns, chain.far)?;
            Some((p.0, chain, call))
        }) else {
            continue;
        };
        let Call {
            due, start, end, ..
        } = call;
        let applied = chain.apply.end_ns;
        let Some(&seen) = wakes
            .get(chain.far)
            .and_then(|times| times.get(times.partition_point(|&t| t < chain.apply.start_ns)))
        else {
            continue;
        };
        pooled
            .entry("transport.entity_transit_us")
            .or_default()
            .push(us(auth.start_ns.saturating_sub(end)));
        pooled
            .entry("tracing.view.wake_us")
            .or_default()
            .push(us(seen.saturating_sub(applied)));
        let mut stages: Vec<Interval> = vec![
            ("driver.lateness_us", due, start),
            (
                "tracing.entity.report_load_us",
                start,
                end.min(auth.start_ns),
            ),
            ("transport.entity_transit_us", end, auth.start_ns),
            ("broker.auth_us", auth.start_ns, auth.end_ns),
            ("broker.route_us", route.start_ns, route.end_ns),
            ("broker.enqueue_us", enqueue.start_ns, enqueue.end_ns),
            (
                "tracing.engine.queue_wait_us",
                enqueue.end_ns,
                consume.start_ns,
            ),
            ("tracing.engine.consume_us", consume.start_ns, root),
        ];
        stages.extend(&chain.stages);
        stages.push(("tracing.view.wake_us", applied, seen));
        let parts = path_parts(&stages, due, seen);
        totals.push(parts.values().sum());
        for (k, v) in parts {
            path.entry(k).or_default().push(v);
        }
        out.rebuilt += 1;
    }

    let all = nodes.iter().flat_map(|n| n.spans.iter());
    let mut verdicts = Vec::new();
    let mut creates = Vec::new();
    let mut discovers = Vec::new();
    for s in all {
        match s.stage {
            Stage::Verdict => verdicts.push(us(s.dur_ns())),
            Stage::TdnCreate => creates.push(us(s.dur_ns())),
            Stage::TdnDiscover => discovers.push(us(s.dur_ns())),
            _ => {}
        }
    }
    out.verdict_us = median(&verdicts);
    out.tdn_create_us = median(&creates);
    out.tdn_discover_us = median(&discovers);
    for (k, v) in pooled {
        if let Some(m) = median(&v) {
            out.per_span_us.insert(k, m);
        }
    }
    for (k, v) in path {
        if let Some(m) = median(&v) {
            out.path_us.insert(k, m);
        }
    }
    out.rebuilt_us = median(&totals).unwrap_or(0.0);
    out.chain_wall_us = median(&walls).unwrap_or(0.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered(0, 100, &[]), 0);
        assert_eq!(covered(0, 100, &[(10, 20), (15, 30), (50, 60)]), 30);
        assert_eq!(covered(0, 100, &[(90, 150), (0, 5)]), 15);
        assert_eq!(covered(10, 20, &[(0, 5), (25, 30)]), 0);
    }

    #[test]
    fn call_for_takes_the_latest_call_started_before() {
        let call = |due, start, end, far| Call {
            due,
            start,
            end,
            far,
        };
        let calls = [
            call(900, 1_000, 3_000, "t2-a"),
            call(4_000, 5_000, 9_000, "t2-a"),
            call(9_500, 9_600, 9_900, "t2-b"),
        ];
        assert_eq!(call_for(&calls, 500, "t2-a"), None);
        assert_eq!(call_for(&calls, 4_000, "t2-a"), Some(calls[0]));
        // Authenticated while the call was still running.
        assert_eq!(call_for(&calls, 7_000, "t2-a"), Some(calls[1]));
        // Another entity's later call is passed over.
        assert_eq!(call_for(&calls, 9_700, "t2-a"), Some(calls[1]));
        assert_eq!(call_for(&calls, 9_700, "t2-b"), Some(calls[2]));
    }

    #[test]
    fn path_parts_count_overlaps_once_and_leave_gaps_out() {
        // In µs; spans are in ns.
        let stages = [
            ("a", 0, 10_000),
            // Overlaps `a` by 5 µs: only its last 10 count.
            ("b", 5_000, 20_000),
            // Entirely inside `b`: counts nothing.
            ("c", 6_000, 9_000),
            // 20..25 µs is covered by no stage; `a` again adds 5.
            ("a", 25_000, 30_000),
            // Clipped to the window's end.
            ("d", 30_000, 50_000),
        ];
        let parts = path_parts(&stages, 0, 40_000);
        assert_eq!(parts["a"], 15.0);
        assert_eq!(parts["b"], 10.0);
        assert_eq!(parts["c"], 0.0);
        assert_eq!(parts["d"], 10.0);
        assert_eq!(parts.values().sum::<f64>(), 35.0);
    }
}
