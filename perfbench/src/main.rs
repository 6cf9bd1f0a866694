//! The repository benchmark: trace, join and failure-detection latency
//! on a live 3-broker TCP deployment, with a traced per-layer
//! breakdown.
//!
//! ```text
//! perfbench --workload <trace_rsa|trace_session|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` repeats the
//! same run followed by a rate ladder, then a run at a third of the
//! rate with every message head-sampled, and prints the per-layer
//! metrics. A human-readable report goes to stderr; the last line of
//! stdout is one JSON object. The exit code is non-zero when any
//! correctness check fails.

mod churn;
mod cluster;
mod spans;
mod stats;
mod traffic;
mod workload;

use cluster::{Cluster, Join};
use nb_metrics::Snapshot;
use nb_telemetry::NodeSpans;
use nb_tracing::view::EntityStatus;
use stats::{percentile, Rng};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workload::Spec;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: u64 = 3;
/// The fixed-rate phase runs in this many parts; its latency
/// percentiles are medians over the parts.
const PARTS: usize = 12;
/// Share of `--seconds` the rate ladder may take (traced invocations).
const LADDER_SHARE: f64 = 0.3;
/// Length of one ladder step, seconds.
const STEP_S: f64 = 0.8;
/// The traced run offers this share of the workload's rate, which the
/// head-sampled pipeline sustains even when the machine runs slow, so
/// its breakdown describes an uncongested path.
const TRACED_RATE_SHARE: f64 = 1.0 / 3.0;

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = workload::find(&name).ok_or(format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be 1..600".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Correctness bookkeeping: every check that failed, and the operations
/// attempted and failed (for `failed_frac`).
#[derive(Default)]
struct Gate {
    violations: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Everything one run measured.
struct Run {
    setup_s: Vec<f64>,
    /// The fixed-rate phase: `parts` as run, `fixed` merged.
    parts: Vec<traffic::RunResult>,
    fixed: traffic::RunResult,
    /// Traced invocations: untraced parts at the traced run's rate, the
    /// reference for `tracing_overhead_pct`.
    reference: Vec<traffic::RunResult>,
    ladder: traffic::Ladder,
    churn: churn::ChurnResult,
    /// Counter snapshots around each part of the fixed-rate phase and
    /// around the churn phase, plus the trackers' own metrics summed.
    fixed_snaps: Snaps,
    fixed_tracker_snaps: Snaps,
    churn_snaps: Snaps,
    threads: u64,
    entities: usize,
    /// Traces live and crashed trackers could not decrypt.
    undecryptable: f64,
    spans: Vec<NodeSpans>,
    /// The far tracker's node per entity of the trace phase, in stream
    /// order (traced run only).
    far_nodes: Vec<String>,
}

impl Run {
    /// Median over the fixed-rate parts of each part's percentile `q`.
    fn part_median(&self, q: f64) -> f64 {
        part_median(&self.parts, q)
    }
}

fn part_median(parts: &[traffic::RunResult], q: f64) -> f64 {
    let per: Vec<f64> = parts.iter().map(|p| p.p(q)).collect();
    percentile(&per, 50.0).unwrap_or(f64::INFINITY)
}

/// Length of the traced run's trace phase, seconds: its share of the
/// run, shortened so that no span ring wraps (about six spans per trace
/// land on broker 0's ring).
fn traced_seconds(spec: &Spec, seconds: f64) -> f64 {
    let capacity = cluster::config(spec, true).telemetry.capacity as f64;
    (seconds * spec.fixed_share).min(0.8 * capacity / (6.0 * spec.rate * TRACED_RATE_SHARE))
}

fn counter(s: &Snapshot, name: &str) -> f64 {
    s.counter(name).unwrap_or(0) as f64
}

/// (before, after) snapshot pairs; a counter's change is summed over
/// the pairs.
type Snaps = Vec<(Snapshot, Snapshot)>;

fn delta(snaps: &Snaps, name: &str) -> f64 {
    snaps
        .iter()
        .map(|(a, b)| counter(b, name) - counter(a, name))
        .sum()
}

/// Sum of a per-broker (or per-engine) counter's change over brokers.
fn delta_brokers(snaps: &Snaps, name: &str) -> f64 {
    (0..3)
        .map(|b| delta(snaps, &format!("broker-{b}.{name}")))
        .sum()
}

/// (count, sum) change of a histogram.
fn delta_hist(snaps: &Snaps, name: &str) -> (f64, f64) {
    let get = |s: &Snapshot| {
        s.histogram(name)
            .map_or((0.0, 0.0), |h| (h.count as f64, h.sum as f64))
    };
    snaps.iter().fold((0.0, 0.0), |(n, sum), (a, b)| {
        let ((c0, s0), (c1, s1)) = (get(a), get(b));
        (n + c1 - c0, sum + s1 - s0)
    })
}

/// Sums every tracker's own metrics into one snapshot.
fn tracker_totals(cluster: &Cluster) -> Snapshot {
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for t in cluster.trackers() {
        for e in t.metrics_snapshot().entries() {
            if let nb_metrics::SnapshotValue::Counter(v) = e.value {
                *totals.entry(e.name.clone()).or_default() += v;
            }
        }
    }
    Snapshot::from_entries(
        totals
            .into_iter()
            .map(|(name, v)| nb_metrics::SnapshotEntry {
                name,
                value: nb_metrics::SnapshotValue::Counter(v),
            })
            .collect(),
    )
}

/// Per tracker, (traces applied, pings its entity answered), read when
/// neither has changed for 20 ms, so no heartbeat is in flight.
fn settled_counts(cluster: &Cluster) -> Vec<(u64, u64)> {
    let read = || -> Vec<(u64, u64)> {
        cluster
            .members
            .iter()
            .flat_map(|m| {
                m.trackers
                    .iter()
                    .map(move |t| (t.traces_applied(), m.entity.pings_answered()))
            })
            .collect()
    };
    let deadline = Instant::now() + Duration::from_secs(3);
    let mut last = read();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = read();
        if now == last || Instant::now() > deadline {
            return now;
        }
        last = now;
    }
}

/// Exact delivery accounting: each tracker applied one trace per load
/// report sent to its entity plus one heartbeat per ping the entity
/// answered. Returns the count of traces missing or extra.
fn account(cluster: &Cluster, before: &[(u64, u64)], sent: &[u64], gate: &mut Gate) -> u64 {
    let expected = |after: &[(u64, u64)]| -> Vec<i64> {
        let mut i = 0;
        let mut out = Vec::new();
        for (e, m) in cluster.members.iter().enumerate() {
            for _ in &m.trackers {
                let (a0, p0) = before[i];
                let (a1, p1) = after[i];
                out.push(a1 as i64 - a0 as i64 - sent[e] as i64 - (p1 as i64 - p0 as i64));
                i += 1;
            }
        }
        out
    };
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        let diffs = expected(&settled_counts(cluster));
        let off: u64 = diffs.iter().map(|d| d.unsigned_abs()).sum();
        if off == 0 || Instant::now() > deadline {
            gate.check(off == 0, || format!("trace accounting off by {diffs:?} (applied - reports - heartbeats, per tracker)"));
            return off;
        }
    }
}

/// Times one set-up in a child process running `--setup-only`.
fn setup_in_child(spec: &Spec, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            spec.name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
            "--trace",
            "0",
            "--setup-only",
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(s) if out.status.success() => Ok(s),
        _ => Err(format!("set-up child failed: {}", out.status)),
    }
}

fn measure(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    with_ladder: bool,
    gate: &mut Gate,
) -> Result<Run, String> {
    let mut rng = Rng::new(seed);
    // Set-up is timed SETUPS times: in fresh child processes first (so
    // no earlier deployment's threads linger in this one), then here.
    let mut setup_s = Vec::new();
    for k in 1..SETUPS {
        setup_s.push(setup_in_child(spec, seed.wrapping_add(k))?);
    }
    let t = Instant::now();
    let (mut cluster, joins) = Cluster::set_up(spec, seed, false)?;
    setup_s.push(t.elapsed().as_secs_f64());
    gate.ops(joins.len() as u64, 0);
    let brokers = cluster.dep.network.brokers.clone();

    // The fixed-rate phase runs in parts; its percentiles are medians
    // over the parts, so a slow spell of the machine moves one part
    // rather than the whole phase.
    let before = settled_counts(&cluster);
    let mut stream = traffic::Stream::new(cluster.members.iter());
    let snap = |c: &Cluster| (c.dep.metrics_snapshot(), tracker_totals(c));
    let part_s = seconds * spec.fixed_share / PARTS as f64;
    let (mut parts, mut fixed_snaps, mut fixed_tracker_snaps) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut threads = 0;
    for _ in 0..PARTS {
        let (d0, t0) = snap(&cluster);
        parts.push(traffic::run(
            &mut stream,
            spec.rate,
            part_s,
            &mut rng,
            &brokers,
        ));
        let (d1, t1) = snap(&cluster);
        fixed_snaps.push((d0, d1));
        fixed_tracker_snaps.push((t0, t1));
        threads = threads.max(stats::thread_count());
    }
    let fixed = traffic::RunResult::merge(&parts);
    let reference: Vec<_> = if with_ladder {
        // Start from an idle pipeline, as the traced run does.
        settled_counts(&cluster);
        let part_s = traced_seconds(spec, seconds) / PARTS as f64;
        let rate = spec.rate * TRACED_RATE_SHARE;
        (0..PARTS)
            .map(|_| traffic::run(&mut stream, rate, part_s, &mut rng, &brokers))
            .collect()
    } else {
        Vec::new()
    };
    let sent = stream.sent.clone();
    drop(stream);
    let missing = account(&cluster, &before, &sent, gate);
    for r in parts.iter().chain(&reference) {
        gate.ops(r.attempted, r.errors + r.lost);
    }
    gate.failed += missing;
    let (lost, errors) = parts
        .iter()
        .chain(&reference)
        .fold((0, 0), |(l, e), r| (l + r.lost, e + r.errors));
    gate.check(lost == 0 && errors == 0, || {
        format!("fixed-rate phases lost {lost} and failed {errors} reports")
    });

    let c0 = cluster.dep.metrics_snapshot();
    let cycles = ((seconds * (1.0 - spec.fixed_share)).round() as usize).max(3);
    let churn = churn::run(&mut cluster, cycles, &mut rng);
    let c1 = cluster.dep.metrics_snapshot();
    let entities = cluster.members.len();

    let undetected = churn.detect.iter().filter(|d| d.is_none()).count() as u64;
    let unjoined =
        churn.joins.iter().filter(|j| j.available.is_none()).count() as u64 + churn.start_errors;
    gate.ops(2 * cycles as u64, undetected + unjoined);
    gate.check(undetected == 0, || {
        format!("{undetected} crashes never reached Failed")
    });
    gate.check(unjoined == 0, || {
        format!("{unjoined} joins never reached Available")
    });
    let churn_snaps = vec![(c0, c1)];
    let failures = delta(&churn_snaps, "broker-0.tracing.detector.failures");
    gate.check(failures == cycles as f64, || {
        format!("engine declared {failures} failures for {cycles} crashes")
    });
    check_clean(&cluster, &churn, gate);
    let undecryptable = counter(&tracker_totals(&cluster), "tracker.traces.undecryptable")
        + churn.undecryptable as f64;
    let stale: Vec<&str> = cluster
        .members
        .iter()
        .filter(|m| m.far().view().status(&m.id) != Some(EntityStatus::Available))
        .map(|m| m.id.as_str())
        .collect();
    gate.check(stale.is_empty(), || {
        format!("live entities not Available at the end: {stale:?}")
    });

    // The rate ladder (traced invocations only) runs last: it drives the
    // pipeline past its knee on purpose, and pings delayed behind that
    // backlog may be declared lost, so nothing after it is checked.
    let mut ladder = traffic::Ladder::new(spec.rate, seconds * LADDER_SHARE);
    if with_ladder {
        let mut stream = traffic::Stream::new(cluster.members.iter());
        while let Some(rate) = ladder.next_rate() {
            let step = traffic::Ladder::step_seconds(rate, STEP_S);
            ladder.record(traffic::run(&mut stream, rate, step, &mut rng, &brokers));
            // Let a failed step's backlog drain before the next one.
            std::thread::sleep(Duration::from_millis(100));
        }
        for r in &ladder.steps {
            gate.ops(r.attempted, r.errors);
        }
        // Let the last steps' backlog drain at the near trackers too, so
        // it does not load the traced run that follows.
        settled_counts(&cluster);
    }

    Ok(Run {
        setup_s,
        parts,
        fixed,
        reference,
        ladder,
        churn,
        fixed_snaps,
        fixed_tracker_snaps,
        churn_snaps,
        threads,
        entities,
        undecryptable,
        spans: Vec::new(),
        far_nodes: Vec::new(),
    })
}

/// Security and routing counters that must stay at zero for the whole
/// run: rejected tokens and session tags (live trackers here, crashed
/// ones in `churn`), engine authentication failures, broker session
/// rejections and drops.
///
/// Undecryptable traces are counted, not gated: a tracker that joins
/// is sent the engine's re-announced JOIN before its trace key, so it
/// cannot decrypt that one trace. Steady-state traces are gated by the
/// exact delivery accounting instead.
fn check_clean(cluster: &Cluster, churn: &churn::ChurnResult, gate: &mut Gate) {
    let s = cluster.dep.metrics_snapshot();
    let t = tracker_totals(cluster);
    let mut bad = vec![(
        "crashed members' trackers: rejected".to_string(),
        churn.rejected as f64,
    )];
    for name in ["tracker.tokens.rejected", "tracker.session.rejected"] {
        bad.push((name.to_string(), counter(&t, name)));
    }
    for b in 0..3 {
        for name in [
            "tracing.auth.failures",
            "broker.session.rejected",
            "broker.drop.ttl_exceeded",
            "broker.drop.spurious_token",
            "broker.reject.constraint",
        ] {
            let full = format!("broker-{b}.{name}");
            bad.push((full.clone(), counter(&s, &full)));
        }
    }
    for (name, v) in bad {
        gate.check(v == 0.0, || format!("{name} = {v}"));
    }
}

/// The traced run: every message head-sampled, at a share of the
/// workload's rate, rings captured before they wrap. Returns the
/// fixed-rate result and the spans.
fn measure_traced(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    gate: &mut Gate,
) -> Result<Run, String> {
    let mut rng = Rng::new(seed ^ 0x7ace);
    let (mut cluster, _) = Cluster::set_up(spec, seed ^ 0x7ace, true)?;
    let brokers = cluster.dep.network.brokers.clone();
    let part_s = traced_seconds(spec, seconds) / PARTS as f64;
    let rate = spec.rate * TRACED_RATE_SHARE;
    let mut stream = traffic::Stream::new(cluster.members.iter());
    stream.stamp = true;
    let parts: Vec<_> = (0..PARTS)
        .map(|_| traffic::run(&mut stream, rate, part_s, &mut rng, &brokers))
        .collect();
    let fixed = traffic::RunResult::merge(&parts);
    drop(stream);
    gate.check(fixed.lost == 0 && fixed.errors == 0, || {
        format!(
            "traced phase lost {} and failed {} reports",
            fixed.lost, fixed.errors
        )
    });
    let mut nodes: Vec<NodeSpans> = cluster
        .trackers()
        .map(|t| NodeSpans::capture(t.flight_recorder()))
        .collect();
    let far_nodes = cluster
        .members
        .iter()
        .map(|m| m.far().flight_recorder().node().to_string())
        .collect();
    let churn = churn::run(&mut cluster, 2, &mut rng);
    nodes.extend(cluster.dep.telemetry_spans());
    for b in &brokers {
        let r = b.flight_recorder();
        if r.recorded() > r.capacity() as u64 {
            eprintln!(
                "warning: {} span ring wrapped ({} spans)",
                r.node(),
                r.recorded()
            );
        }
    }
    check_clean(&cluster, &churn, gate);
    Ok(Run {
        setup_s: Vec::new(),
        parts,
        fixed,
        reference: Vec::new(),
        ladder: traffic::Ladder::default(),
        churn,
        fixed_snaps: Default::default(),
        fixed_tracker_snaps: Default::default(),
        churn_snaps: Default::default(),
        threads: 0,
        entities: cluster.members.len(),
        undecryptable: 0.0,
        spans: nodes,
        far_nodes,
    })
}

type Metrics = BTreeMap<String, (f64, &'static str)>;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median_or_zero(xs: &[f64]) -> f64 {
    percentile(xs, 50.0).unwrap_or(0.0)
}

fn end_to_end(run: &Run) -> Metrics {
    let mut m = Metrics::new();
    let joins: Vec<f64> = run
        .churn
        .joins
        .iter()
        .filter_map(Join::total)
        .map(ms)
        .collect();
    let detect: Vec<f64> = run.churn.detect.iter().flatten().copied().map(ms).collect();
    m.insert("setup_s".into(), (median_or_zero(&run.setup_s), "s"));
    m.insert(
        "join_p50_ms".into(),
        (percentile(&joins, 50.0).unwrap_or(0.0), "ms"),
    );
    m.insert(
        "join_p90_ms".into(),
        (percentile(&joins, 90.0).unwrap_or(0.0), "ms"),
    );
    m.insert(
        "detect_p50_ms".into(),
        (percentile(&detect, 50.0).unwrap_or(0.0), "ms"),
    );
    m.insert(
        "detect_p90_ms".into(),
        (percentile(&detect, 90.0).unwrap_or(0.0), "ms"),
    );
    m.insert("peak_rss_mb".into(), (stats::peak_rss_mb(), "MB"));
    m
}

/// The traced run's breakdown, with the driver's own timings of it.
fn traced_breakdown(traced: &Run) -> spans::Breakdown {
    let f = &traced.fixed;
    let far = |e: usize| traced.far_nodes[e].as_str();
    let driver = spans::Driver {
        calls: f
            .calls
            .iter()
            .map(|&(e, due, start, end)| spans::Call {
                due,
                start,
                end,
                far: far(e),
            })
            .collect(),
        observed: f.observed.iter().map(|&(e, t)| (far(e), t)).collect(),
    };
    spans::breakdown(&traced.spans, "t2-", &driver)
}

fn per_layer(
    run: &Run,
    traced: &Run,
    b: &spans::Breakdown,
    gate: &Gate,
    report: &mut String,
) -> Metrics {
    let mut m = Metrics::new();
    let mut put = |name: &str, v: f64, unit: &'static str| {
        m.insert(name.to_string(), (v, unit));
    };
    let f = &run.fixed_snaps;
    let traces = run.fixed.latency_ms.len().max(1) as f64;
    let joins = run.churn.joins.len().max(1) as f64; // keys and RSA are counted over the churn phase
    let per_trace = |x: f64| x / traces;

    // nb-crypto
    let (sign_n, sign_us) = delta_hist(f, "crypto.rsa.sign_us");
    let (verify_n, verify_us) = delta_hist(f, "crypto.rsa.verify_us");
    put("crypto.rsa_sign_per_trace", per_trace(sign_n), "count");
    put("crypto.rsa_sign_us_mean", sign_us / sign_n.max(1.0), "us");
    put("crypto.rsa_verify_per_trace", per_trace(verify_n), "count");
    put(
        "crypto.rsa_verify_us_mean",
        verify_us / verify_n.max(1.0),
        "us",
    );
    let hmac = delta(f, "crypto.session.tagged")
        + delta(f, "crypto.session.verified")
        + delta(f, "crypto.session.rejected");
    put("crypto.hmac_per_trace", per_trace(hmac), "count");
    let aes: f64 = [
        "crypto.aes.encrypt_us",
        "crypto.aes.decrypt_us",
        "crypto.aes.ctr_us",
    ]
    .iter()
    .map(|h| delta_hist(f, h).1)
    .sum();
    put("crypto.aes_us_per_trace", per_trace(aes), "us");
    let c = &run.churn_snaps;
    let (keygen_n, keygen_ms) = delta_hist(c, "crypto.rsa.keygen_ms");
    put("crypto.rsa_keygen_per_join", keygen_n / joins, "count");
    put("crypto.rsa_keygen_ms_per_join", keygen_ms / joins, "ms");
    put(
        "crypto.rsa_decrypt_per_join",
        delta_hist(c, "crypto.rsa.decrypt_us").0 / joins,
        "count",
    );

    // nb-wire
    put(
        "wire.token_verify_per_trace",
        per_trace(delta(f, "token.verify.ok") + delta(f, "token.verify.rejected")),
        "count",
    );

    // nb-transport
    put(
        "transport.frames_per_trace",
        per_trace(delta(f, "transport.frames.sent")),
        "count",
    );
    put(
        "transport.bytes_per_trace",
        per_trace(delta(f, "transport.bytes.sent")),
        "B",
    );
    put(
        "transport.frames_per_write",
        delta(f, "transport.batch.frames") / delta(f, "transport.batch.writes").max(1.0),
        "ratio",
    );

    // nb-broker
    let fast = delta_brokers(f, "broker.route.fastpath");
    let routes = fast + delta_brokers(f, "broker.route.slowpath");
    put("broker.fastpath_share", fast / routes.max(1.0), "ratio");
    put("broker.routes_per_trace", per_trace(routes), "count");
    let hits = delta_brokers(f, "broker.route.cache_hit");
    put(
        "broker.route_cache_hit_ratio",
        hits / (hits + delta_brokers(f, "broker.route.cache_miss")).max(1.0),
        "ratio",
    );
    put(
        "broker.session_verified_per_trace",
        per_trace(delta_brokers(f, "broker.session.verified")),
        "count",
    );
    put(
        "broker.session_fallbacks",
        delta_brokers(f, "broker.session.fallback"),
        "count",
    );
    put(
        "broker.internal_queue_depth_max",
        run.fixed.queue_depth_max as f64,
        "count",
    );
    let drops = [
        "broker.drop.ttl_exceeded",
        "broker.drop.spurious_token",
        "broker.reject.constraint",
    ]
    .iter()
    .map(|n| delta_brokers(f, n) + delta_brokers(c, n))
    .sum();
    put("broker.drops", drops, "count");

    // nb-tracing
    put(
        "tracing.entity.report_load_us",
        median_or_zero(&run.fixed.report_us),
        "us",
    );
    let join_ms = |f: &dyn Fn(&Join) -> Option<f64>| {
        median_or_zero(&run.churn.joins.iter().filter_map(f).collect::<Vec<_>>())
    };
    put(
        "tracing.entity.start_ms",
        join_ms(&|j| Some(ms(j.timing.entity_start))),
        "ms",
    );
    put(
        "tracing.tracker.start_ms",
        join_ms(&|j| Some(ms(j.timing.tracker_start))),
        "ms",
    );
    put(
        "tracing.tracker.first_trace_ms",
        join_ms(&|j| j.first_trace().map(ms)),
        "ms",
    );
    let (det_n, det_sum) = delta_hist(c, "broker-0.tracing.detection.time_to_detect_ms");
    let engine_detect = det_sum / det_n.max(1.0);
    put("tracing.engine.detect_ms_mean", engine_detect, "ms");
    // The engine times detection from the last answered ping; the
    // benchmark from the crash, which came `since_evidence` later. Means,
    // since the engine's histogram only gives a sum.
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let detect: Vec<f64> = run.churn.detect.iter().flatten().copied().map(ms).collect();
    let lead: Vec<f64> = run.churn.since_evidence.iter().copied().map(ms).collect();
    put(
        "tracing.verdict_propagation_ms",
        mean(&detect) + mean(&lead) - engine_detect,
        "ms",
    );
    put(
        "tracing.engine.pings_per_entity_s",
        delta(f, "broker-0.tracing.pings.sent")
            / (run.entities as f64 * run.fixed.wall_s.max(1e-9)),
        "1/s",
    );
    let suspicions = delta(c, "broker-0.tracing.detector.suspicions");
    put("tracing.engine.suspicions", suspicions, "count");
    put(
        "tracing.engine.failures",
        delta(c, "broker-0.tracing.detector.failures"),
        "count",
    );
    put(
        "false_suspicions",
        (suspicions - run.churn.cycles as f64).max(0.0),
        "count",
    );
    let t = &run.fixed_tracker_snaps;
    let applied = delta(t, "tracker.traces.applied");
    put(
        "tracing.tracker.session_verified_share",
        delta(t, "tracker.session.verified") / applied.max(1.0),
        "ratio",
    );
    let rejected = [
        "tracker.tokens.rejected",
        "tracker.session.rejected",
        "tracker.traces.undecryptable",
    ]
    .iter()
    .map(|n| delta(t, n))
    .sum();
    put("tracing.tracker.rejected", rejected, "count");
    put("tracing.tracker.undecryptable", run.undecryptable, "count");

    // Process-wide
    put("trace_max_rate", run.ladder.max_rate(), "traces/s");
    put("trace_p50_ms", run.part_median(50.0), "ms");
    put(
        "cpu_ms_per_cycle",
        run.churn.cpu_s * 1e3 / run.churn.cycles.max(1) as f64,
        "ms",
    );
    put("cpu_us_per_trace", run.fixed.cpu_s * 1e6 / traces, "us");
    put("proc.cpu_util", run.ladder.cpu_util_at_max(), "cores");
    put("trace_p90_ms", run.part_median(90.0), "ms");
    put("trace_p99_ms", run.part_median(99.0), "ms");
    put("proc.threads", run.threads as f64, "count");
    put(
        "failed_frac",
        gate.failed as f64 / gate.attempted.max(1) as f64,
        "ratio",
    );
    let lateness = percentile(&run.fixed.lateness_us, 99.0).unwrap_or(0.0);
    put("driver.lateness_us_p99", lateness, "us");

    // Traced breakdown, reconciled against the p50 of the same reports.
    let traced_p50_us = traced.fixed.p(50.0) * 1e3;
    for (name, v) in &b.per_span_us {
        put(name, *v, "us");
    }
    for name in [
        "broker.auth_us",
        "broker.route_us",
        "broker.enqueue_us",
        "broker.deliver_us",
        "broker.forward_us",
        "transport.transit_us",
        "transport.entity_transit_us",
        "tracing.view.wake_us",
        "tracing.engine.consume_us",
        "tracing.engine.publish_us",
        "tracing.engine.queue_wait_us",
        "tracing.tracker.apply_us",
        "tracing.tracker.handoff_us",
    ] {
        m.entry(name.to_string()).or_insert((0.0, "us"));
    }
    let mut put = |name: &str, v: f64, unit: &'static str| {
        m.insert(name.to_string(), (v, unit));
    };
    put(
        "tracing.engine.verdict_us",
        b.verdict_us.unwrap_or(0.0),
        "us",
    );
    put("tdn.create_us", b.tdn_create_us.unwrap_or(0.0), "us");
    put("tdn.discover_us", b.tdn_discover_us.unwrap_or(0.0), "us");
    let unattributed = traced_p50_us - b.rebuilt_us;
    put("unattributed_us", unattributed, "us");
    put(
        "tracing_overhead_pct",
        (traced.part_median(50.0) / part_median(&run.reference, 50.0) - 1.0) * 100.0,
        "%",
    );

    let _ = writeln!(
        report,
        "traced breakdown at {:.0}/s ({} publication chains, {} entity legs, {} whole paths); medians per report:",
        traced.fixed.rate, b.chains, b.legs, b.rebuilt
    );
    for (name, v) in &b.path_us {
        let _ = writeln!(report, "  {name:<36} {v:>10.1} us");
    }
    let _ = writeln!(
        report,
        "  {:<36} {:>10.1} us  (sum of the medians above: {:.1} us)",
        "sum of stages",
        b.rebuilt_us,
        b.path_us.values().sum::<f64>()
    );
    let _ = writeln!(
        report,
        "  {:<36} {:>10.1} us",
        "unattributed_us", unattributed
    );
    let _ = writeln!(
        report,
        "  {:<36} {:>10.1} us",
        "traced trace_p50", traced_p50_us
    );
    let _ = writeln!(
        report,
        "  {:<36} {:>10.1} us  (untraced, same rate)",
        "reference trace_p50",
        part_median(&run.reference, 50.0) * 1e3
    );
    let _ = writeln!(
        report,
        "  publication chain wall p50 {:.1} us (publish start to far apply end)",
        b.chain_wall_us
    );
    m
}

/// The traced run's reconciliation: the stages must explain the traced
/// p50, so `unattributed_us` may be neither more (time no span covers)
/// nor less (time counted twice) than 25% of it plus 50 µs.
fn reconcile(
    metrics: &Metrics,
    traced: &Run,
    b: &spans::Breakdown,
    gate: &mut Gate,
    report: &mut String,
) {
    let unattributed = metrics["unattributed_us"].0;
    let p50 = traced.fixed.p(50.0) * 1e3;
    let tolerance = 0.25 * p50 + 50.0;
    let ok = unattributed.abs() <= tolerance;
    gate.check(b.rebuilt > 0, || {
        "traced run captured no report's whole path".into()
    });
    gate.check(ok, || format!("reconciliation: unattributed {unattributed:.1} us of traced p50 {p50:.1} us, beyond +/-{tolerance:.1} us"));
    let _ = writeln!(
        report,
        "  reconciliation: |unattributed| {:.1} us <= 25% of traced p50 + 50 us = {tolerance:.1} us ({})",
        unattributed.abs(),
        if ok { "ok" } else { "FAILED" }
    );
}

fn describe(run: &Run, report: &mut String) {
    let f = &run.fixed;
    let n = f.latency_ms.len();
    let hp = stats::highest_supported_percentile(n);
    let _ = writeln!(
        report,
        "fixed rate {:.0}/s: {} reports; whole phase p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, max {:.3} ms; \
         medians of {PARTS} parts p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms; highest percentile with >=10 samples beyond it: {}",
        f.rate,
        n,
        f.p(50.0),
        f.p(90.0),
        f.p(99.0),
        f.p(100.0),
        run.part_median(50.0),
        run.part_median(90.0),
        run.part_median(99.0),
        hp.map_or("none".to_string(), |p| format!("p{p} = {:.3} ms", f.p(p)))
    );
    let _ = writeln!(
        report,
        "  generator lateness p50 {:.1} us, p99 {:.1} us; report_load p50 {:.1} us; cpu {:.2} cores",
        percentile(&f.lateness_us, 50.0).unwrap_or(0.0),
        percentile(&f.lateness_us, 99.0).unwrap_or(0.0),
        percentile(&f.report_us, 50.0).unwrap_or(0.0),
        f.cpu_util()
    );
    for s in &run.ladder.steps {
        let _ = writeln!(
            report,
            "  ladder {:>8.0}/s: p50 {:>8.3} ms, p99 {:>8.3} ms, lost {}, cpu {:.2} cores -> {}",
            s.rate,
            s.p(50.0),
            s.p(99.0),
            s.lost,
            s.cpu_util(),
            if s.passes() { "pass" } else { "fail" }
        );
    }
    let c = &run.churn;
    let _ = writeln!(
        report,
        "churn: {} cycles, {} joins, {} detections, cpu {:.3} s over {:.1} s",
        c.cycles,
        c.joins.len(),
        c.detect.iter().flatten().count(),
        c.cpu_s,
        c.wall_s
    );
}

fn json(gate: &Gate, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        gate.violations.is_empty(),
        gate.attempted.max(1),
        gate.failed
    );
    for (i, (name, (v, unit))) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    if std::env::args().any(|a| a == "--setup-only") {
        let t = Instant::now();
        match Cluster::set_up(args.workload, args.seed, false) {
            Ok(_) => println!("{}", t.elapsed().as_secs_f64()),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
        std::process::exit(0);
    }
    let started = Instant::now();
    let mut gate = Gate::default();
    let mut report = String::new();
    let spec = args.workload;
    let outcome = measure(spec, args.seed, args.seconds, args.trace, &mut gate).and_then(|run| {
        describe(&run, &mut report);
        if args.trace {
            let traced = measure_traced(spec, args.seed, args.seconds, &mut gate)?;
            let b = traced_breakdown(&traced);
            let metrics = per_layer(&run, &traced, &b, &gate, &mut report);
            reconcile(&metrics, &traced, &b, &mut gate, &mut report);
            Ok(metrics)
        } else {
            Ok(end_to_end(&run))
        }
    });
    let metrics = match outcome {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "== {} seed {} ({:.1} s): {}",
        spec.name,
        args.seed,
        started.elapsed().as_secs_f64(),
        spec.why
    );
    eprint!("{report}");
    for (name, (v, unit)) in &metrics {
        eprintln!("  {name:<40} {v:>14.4} {unit}");
    }
    for v in &gate.violations {
        eprintln!("CORRECTNESS VIOLATION: {v}");
    }
    println!("{}", json(&gate, &metrics));
    // Exit without unwinding the deployment's background threads.
    std::process::exit(if gate.violations.is_empty() { 0 } else { 1 });
}
