//! Join ordering: a tracker that registers interest after a secured
//! entity has joined must learn it is `Available` from the JOIN the
//! engine re-announces on first contact — not from a later heartbeat.
//!
//! The engine sends the tracker its sealed trace key (and session key,
//! when the session layer is on) before that JOIN, so the JOIN arrives
//! at a tracker that can already open it. Every test runs with the
//! background ticker off and never ticks by hand: no ping (and so no
//! ALLS_WELL heartbeat) is ever sent, and the only trace that can mark
//! the entity `Available` at the tracker is the re-announced JOIN.

use nb_broker::network::Medium;
use nb_tracing::config::{SigningMode, TracingConfig};
use nb_tracing::harness::{Deployment, Topology};
use nb_tracing::view::EntityStatus;
use nb_transport::clock::system_clock;
use nb_transport::sim::LinkConfig;
use nb_wire::payload::DiscoveryRestrictions;
use nb_wire::trace::TraceCategory;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(10);

fn wait_until(timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// Starts a secured entity at broker 0 of a three-broker chain, waits
/// until its hosting engine has processed the whole start-up (JOIN
/// published, keys held), then starts a tracker at broker 2 and checks
/// that the JOIN alone makes the entity `Available` there.
fn late_tracker_sees_join(medium: Medium, signing_mode: SigningMode, session_keys: bool) {
    let mut config = TracingConfig::for_tests();
    config.auto_tick = false;
    config.session_keys = session_keys;
    let dep = Deployment::over(Topology::Chain(3), medium, system_clock(), config).unwrap();
    let entity = dep
        .traced_entity(
            0,
            "late-join",
            DiscoveryRestrictions::Open,
            signing_mode,
            true,
        )
        .unwrap();

    // The entity's start-up messages reach the engine in order: the
    // delegation token (which publishes the original JOIN), the key
    // exchanges, then the READY state report. With no tracker yet the
    // READY transition is interest-gated, so a gated trace means every
    // earlier message has been handled.
    assert!(
        wait_until(WAIT, || {
            let stats = dep.engine(0).stats();
            stats.traces_published >= 1
                && stats.traces_gated >= 1
                && (!session_keys || stats.session_established >= 1)
        }),
        "the hosting engine never finished the entity's start-up"
    );

    let tracker = dep
        .tracker(
            2,
            "late-watch",
            "late-join",
            vec![TraceCategory::ChangeNotifications],
        )
        .unwrap();
    assert!(
        tracker.wait_for_status(EntityStatus::Available, WAIT),
        "the far tracker never saw the re-announced JOIN"
    );
    assert!(tracker.has_trace_key());
    if session_keys {
        assert!(tracker.has_session_key());
    }
    let snapshot = tracker.metrics_snapshot();
    assert_eq!(
        snapshot.counter("tracker.traces.undecryptable"),
        Some(0),
        "the JOIN reached the tracker before its trace key"
    );
    assert_eq!(tracker.rejected_tokens(), 0);
    // No ping was ever answered, so no heartbeat could have carried
    // the `Available` verdict.
    assert_eq!(entity.pings_answered(), 0);
    assert_eq!(dep.engine(0).stats().pings_sent, 0);
}

#[test]
fn rsa_signed_join_reaches_a_late_tracker_decryptable() {
    late_tracker_sees_join(
        Medium::Sim(LinkConfig::instant()),
        SigningMode::RsaSign,
        false,
    );
}

#[test]
fn session_keyed_join_reaches_a_late_tracker_decryptable() {
    late_tracker_sees_join(
        Medium::Sim(LinkConfig::instant()),
        SigningMode::SymmetricKey,
        true,
    );
}

#[test]
fn join_reaches_a_late_tracker_decryptable_over_tcp() {
    late_tracker_sees_join(Medium::Tcp, SigningMode::SymmetricKey, true);
}

#[test]
fn rsa_signed_join_reaches_a_late_tracker_decryptable_over_tcp() {
    late_tracker_sees_join(Medium::Tcp, SigningMode::RsaSign, false);
}
