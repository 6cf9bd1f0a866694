//! The system under test: a live 3-broker TCP chain with traced
//! entities at broker 0 and their trackers further down the chain,
//! built only through the program's public API.

use crate::stats::Rng;
use crate::workload::Spec;
use nb_broker::network::Medium;
use nb_tracing::harness::{Deployment, Topology};
use nb_tracing::view::{AvailabilityView, EntityStatus};
use nb_tracing::{EntityOptions, TracedEntity, TracingConfig, Tracker, TrackerOptions};
use nb_transport::clock::system_clock;
use nb_wire::payload::DiscoveryRestrictions;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How long a join or a crash may take before it counts as failed.
pub const VERDICT_DEADLINE: Duration = Duration::from_secs(10);

/// One traced entity and its trackers; the last tracker is the far one
/// (broker 2), whose view every latency is read from.
pub struct Member {
    pub id: String,
    pub entity: TracedEntity,
    pub trackers: Vec<Tracker>,
}

impl Member {
    pub fn far(&self) -> &Tracker {
        self.trackers.last().expect("every member has a tracker")
    }

    /// Stops the entity's pump (a crash) and every tracker's pump.
    pub fn shut_down(&self) {
        self.entity.stop();
        for t in &self.trackers {
            t.stop();
        }
    }
}

/// Timings of one join, taken around the public start calls.
#[derive(Debug, Clone, Copy)]
pub struct JoinTiming {
    /// Before the entity's credential was issued.
    pub began: Instant,
    /// `TracedEntity::start` alone.
    pub entity_start: Duration,
    /// Every `Tracker::start` of the member, summed.
    pub tracker_start: Duration,
    /// When the last tracker had started.
    pub trackers_ready: Instant,
}

/// A completed join: its timings and when the far view first read
/// `Available` (`None`: missed the deadline).
#[derive(Debug, Clone, Copy)]
pub struct Join {
    pub timing: JoinTiming,
    pub available: Option<Instant>,
}

impl Join {
    pub fn total(&self) -> Option<Duration> {
        self.available.map(|t| t - self.timing.began)
    }

    pub fn first_trace(&self) -> Option<Duration> {
        self.available
            .map(|t| t.saturating_duration_since(self.timing.trackers_ready))
    }
}

pub struct Cluster {
    pub dep: Deployment,
    pub members: VecDeque<Member>,
    spec: &'static Spec,
    rng: Rng,
    tag: u64,
    joined: u64,
}

/// The scheme configuration a workload runs under. `traced` turns on
/// head sampling of every message, with rings large enough that a
/// traced phase does not wrap them.
pub fn config(spec: &Spec, traced: bool) -> TracingConfig {
    let mut cfg = TracingConfig {
        session_keys: spec.session_keys,
        ..TracingConfig::default()
    };
    if traced {
        cfg.telemetry.sample_ppm = 1_000_000;
        cfg.telemetry.capacity = 1 << 16;
    }
    cfg
}

impl Cluster {
    /// Deployment construction plus the initial population, up to the
    /// moment every far view reads `Available` and every tracker holds
    /// the keys it needs. Returns the cluster and the initial joins.
    pub fn set_up(
        spec: &'static Spec,
        seed: u64,
        traced: bool,
    ) -> Result<(Self, Vec<Join>), String> {
        let dep = Deployment::over(
            Topology::Chain(3),
            Medium::Tcp,
            system_clock(),
            config(spec, traced),
        )
        .map_err(|e| format!("deployment: {e:?}"))?;
        let mut rng = Rng::new(seed);
        let mut cluster = Cluster {
            dep,
            members: VecDeque::new(),
            spec,
            tag: rng.next_u64() & 0xffff_ffff,
            rng,
            joined: 0,
        };
        let mut watches = Vec::new();
        for _ in 0..spec.entities {
            let (member, timing) = cluster.join_one()?;
            watches.push(Watch::new(
                member.far().view(),
                &member.id,
                EntityStatus::Available,
                timing.began,
                timing,
            ));
            cluster.members.push_back(member);
        }
        let mut joins = Vec::new();
        while !watches.is_empty() {
            for (timing, at) in poll(&mut watches) {
                joins.push(Join {
                    timing,
                    available: at,
                });
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        if joins.iter().any(|j| j.available.is_none()) {
            return Err("initial population did not become available".into());
        }
        cluster.await_keys()?;
        Ok((cluster, joins))
    }

    /// Starts one fresh entity at broker 0 and its trackers. The entity
    /// id and the entity's RNG seed come from the workload seed.
    pub fn join_one(&mut self) -> Result<(Member, JoinTiming), String> {
        let id = format!("e{:08x}-{}", self.tag, self.joined);
        self.joined += 1;
        let dep = &self.dep;
        let began = Instant::now();
        let credential = dep
            .issue(&format!("entity:{id}"))
            .map_err(|e| format!("issue: {e:?}"))?;
        let client = dep
            .network
            .attach_client(0, &id)
            .map_err(|e| format!("attach: {e:?}"))?;
        let t = Instant::now();
        let entity = TracedEntity::start(
            client,
            &dep.tdns,
            dep.clock.clone(),
            EntityOptions {
                entity_id: id.clone(),
                credential,
                broker_key: dep.engine(0).public_key(),
                restrictions: DiscoveryRestrictions::Open,
                topic_lifetime_ms: 0,
                signing_mode: self.spec.signing,
                secured: true,
                config: dep.config().clone(),
                seed: self.rng.next_u64(),
            },
        )
        .map_err(|e| format!("entity start: {e:?}"))?;
        let entity_start = t.elapsed();
        let mut tracker_start = Duration::ZERO;
        let mut trackers = Vec::new();
        for &b in self.spec.tracker_brokers {
            let tracker_id = format!("t{b}-{id}");
            let credential = dep
                .issue(&format!("tracker:{tracker_id}"))
                .map_err(|e| format!("issue: {e:?}"))?;
            let client = dep
                .network
                .attach_client(b, &tracker_id)
                .map_err(|e| format!("attach: {e:?}"))?;
            let t = Instant::now();
            let tracker = Tracker::start(
                client,
                &dep.tdns,
                dep.clock.clone(),
                &id,
                TrackerOptions {
                    tracker_id,
                    credential,
                    interests: self.spec.interests.to_vec(),
                    config: dep.config().clone(),
                    data_dir: None,
                    store: nb_store::StoreConfig::default(),
                },
            )
            .map_err(|e| format!("tracker start: {e:?}"))?;
            tracker_start += t.elapsed();
            trackers.push(tracker);
        }
        let timing = JoinTiming {
            began,
            entity_start,
            tracker_start,
            trackers_ready: Instant::now(),
        };
        Ok((
            Member {
                id,
                entity,
                trackers,
            },
            timing,
        ))
    }

    /// Waits until every tracker holds the trace key (all workloads are
    /// secured) and, with session keys on, a session key, so the first
    /// timed trace is not lost to key distribution.
    fn await_keys(&self) -> Result<(), String> {
        let deadline = Instant::now() + VERDICT_DEADLINE;
        let ready =
            |t: &Tracker| t.has_trace_key() && (!self.spec.session_keys || t.has_session_key());
        while !self.members.iter().flat_map(|m| &m.trackers).all(ready) {
            if Instant::now() > deadline {
                return Err("trackers did not receive their keys".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    /// Every tracker of every live member.
    pub fn trackers(&self) -> impl Iterator<Item = &Tracker> {
        self.members.iter().flat_map(|m| &m.trackers)
    }
}

/// Waits for one view to reach a status, polled by [`poll`].
pub struct Watch<T> {
    view: AvailabilityView,
    id: String,
    want: EntityStatus,
    deadline: Instant,
    pub tag: T,
}

impl<T> Watch<T> {
    pub fn new(
        view: AvailabilityView,
        id: &str,
        want: EntityStatus,
        since: Instant,
        tag: T,
    ) -> Self {
        Watch {
            view,
            id: id.to_string(),
            want,
            deadline: since + VERDICT_DEADLINE,
            tag,
        }
    }
}

/// One non-blocking pass over `watches`: removes and returns each one
/// that reached its status (with the instant it was seen) or passed
/// its deadline (`None`).
pub fn poll<T>(watches: &mut Vec<Watch<T>>) -> Vec<(T, Option<Instant>)> {
    let now = Instant::now();
    let mut done = Vec::new();
    let mut i = 0;
    while i < watches.len() {
        let w = &watches[i];
        let outcome = if w.view.status(&w.id) == Some(w.want) {
            Some(Some(now))
        } else if now > w.deadline {
            Some(None)
        } else {
            None
        };
        match outcome {
            Some(at) => done.push((watches.swap_remove(i).tag, at)),
            None => i += 1,
        }
    }
    done
}
