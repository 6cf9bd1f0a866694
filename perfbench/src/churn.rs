//! Crash-and-join cycles: once per second the oldest live entity stops
//! answering pings and a fresh one joins. A watcher thread polls the far
//! views for `Failed` (crashes) and `Available` (joins); after `Failed`
//! it stops the crashed member's trackers and drops its handles, so the
//! thread count stays bounded.

use crate::cluster::{poll, Cluster, Join, JoinTiming, Member, Watch};
use crate::stats::{self, Rng};
use nb_tracing::view::EntityStatus;
use std::sync::mpsc;
use std::time::{Duration, Instant};

enum Tag {
    Crash(Box<Member>, Instant),
    Join(JoinTiming),
}

#[derive(Debug, Default)]
pub struct ChurnResult {
    pub cycles: usize,
    /// Crash (`stop()`) to `Failed` in the far view; `None`: missed the
    /// deadline.
    pub detect: Vec<Option<Duration>>,
    pub joins: Vec<Join>,
    pub cpu_s: f64,
    pub wall_s: f64,
    /// Time from the victim's last answered ping to its crash: the
    /// part of the engine's detection time (which starts at that last
    /// evidence) that precedes the crash.
    pub since_evidence: Vec<Duration>,
    /// Joins that failed to start at all.
    pub start_errors: u64,
    /// Rejected and undecryptable traces counted by the crashed
    /// members' trackers before they were dropped.
    pub rejected: u64,
    pub undecryptable: u64,
}

/// Runs `cycles` crash-and-join cycles, one per second. Each crash
/// lands at a seeded phase after the victim's last answered ping; the
/// phases are a permutation of evenly spaced points over one ping
/// interval, so every run samples the detector's phase range alike.
pub fn run(cluster: &mut Cluster, cycles: usize, rng: &mut Rng) -> ChurnResult {
    let ping = cluster.dep.config().ping_interval;
    let phases = rng.permutation(cycles.max(1));
    let (tx, rx) = mpsc::channel::<Watch<Tag>>();
    let cpu0 = stats::process_cpu_s();
    let t0 = Instant::now();
    let mut out = ChurnResult {
        cycles,
        ..ChurnResult::default()
    };
    let (detect, joins, rejected, undecryptable) = std::thread::scope(|s| {
        let watcher = s.spawn(move || watch(rx));
        for (k, &slot) in phases.iter().enumerate().take(cycles) {
            let at = t0 + Duration::from_secs(k as u64);
            if let Some(wait) = at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let Some(victim) = cluster.members.pop_front() else {
                break;
            };
            let answered = victim.entity.pings_answered();
            victim.entity.wait_for_pings(answered + 1, ping * 4);
            let evidence = Instant::now();
            std::thread::sleep(ping.mul_f64((slot as f64 + 0.5) / cycles as f64));
            victim.entity.stop();
            let crashed = Instant::now();
            out.since_evidence.push(crashed - evidence);
            let view = victim.far().view();
            let id = victim.id.clone();
            tx.send(Watch::new(
                view,
                &id,
                EntityStatus::Failed,
                crashed,
                Tag::Crash(Box::new(victim), crashed),
            ))
            .expect("watcher outlives the cycles");
            match cluster.join_one() {
                Ok((member, timing)) => {
                    let watch = Watch::new(
                        member.far().view(),
                        &member.id,
                        EntityStatus::Available,
                        timing.began,
                        Tag::Join(timing),
                    );
                    tx.send(watch).expect("watcher outlives the cycles");
                    cluster.members.push_back(member);
                }
                Err(e) => {
                    eprintln!("join failed: {e}");
                    out.start_errors += 1;
                }
            }
        }
        drop(tx);
        watcher.join().expect("watcher thread")
    });
    out.detect = detect;
    out.joins = joins;
    out.rejected = rejected;
    out.undecryptable = undecryptable;
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu_s = stats::process_cpu_s() - cpu0;
    out
}

type Watched = (Vec<Option<Duration>>, Vec<Join>, u64, u64);

fn watch(rx: mpsc::Receiver<Watch<Tag>>) -> Watched {
    let mut pending = Vec::new();
    let mut detect = Vec::new();
    let mut joins = Vec::new();
    let (mut rejected, mut undecryptable) = (0, 0);
    let mut open = true;
    while open || !pending.is_empty() {
        loop {
            match rx.try_recv() {
                Ok(w) => pending.push(w),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        for (tag, at) in poll(&mut pending) {
            match tag {
                Tag::Crash(member, crashed) => {
                    detect.push(at.map(|t| t - crashed));
                    member.shut_down();
                    for t in &member.trackers {
                        let m = t.metrics_snapshot();
                        let get = |n: &str| m.counter(n).unwrap_or(0);
                        rejected +=
                            get("tracker.tokens.rejected") + get("tracker.session.rejected");
                        undecryptable += get("tracker.traces.undecryptable");
                    }
                }
                Tag::Join(timing) => joins.push(Join {
                    timing,
                    available: at,
                }),
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    (detect, joins, rejected, undecryptable)
}
