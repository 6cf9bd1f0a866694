//! The three workloads. Each runs the same phases (set-up, a fixed-rate
//! trace stream, crash-and-join cycles, and in traced invocations a
//! rate ladder) on the same 3-broker TCP chain; they differ in the
//! layer they load.

use nb_tracing::SigningMode;
use nb_wire::trace::TraceCategory;

pub struct Spec {
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
    pub signing: SigningMode,
    pub session_keys: bool,
    /// Live entities at broker 0.
    pub entities: usize,
    /// Brokers that host one tracker per entity; the last is the far
    /// tracker every latency is read from.
    pub tracker_brokers: &'static [usize],
    pub interests: &'static [TraceCategory],
    /// Offered load of the fixed-rate phase, traces per second.
    pub rate: f64,
    /// Share of `--seconds` given to the fixed-rate phase;
    /// crash-and-join cycles (one per second) take the rest.
    pub fixed_share: f64,
}

/// Load reports for the trace stream, change notifications for
/// crashes, and all-updates for the heartbeat that makes a fresh
/// entity `Available`.
const TRACE_INTERESTS: &[TraceCategory] = &[
    TraceCategory::Load,
    TraceCategory::ChangeNotifications,
    TraceCategory::AllUpdates,
];

pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "trace_rsa",
        why: "base scheme: per-trace RSA sign and token verifies dominate, so crypto changes show here",
        signing: SigningMode::RsaSign,
        session_keys: false,
        entities: 4,
        tracker_brokers: &[1, 2],
        interests: TRACE_INTERESTS,
        rate: 600.0,
        fixed_share: 0.5,
    },
    Spec {
        name: "trace_session",
        why: "session-key MACs, no per-trace RSA: transport handoffs, broker routing, engine and tracker dominate",
        signing: SigningMode::SymmetricKey,
        session_keys: true,
        entities: 4,
        tracker_brokers: &[1, 2],
        interests: TRACE_INTERESTS,
        rate: 3000.0,
        fixed_share: 0.5,
    },
    Spec {
        name: "churn",
        why: "control plane: registration, TDN, key generation and distribution, pings and failure detection",
        signing: SigningMode::SymmetricKey,
        session_keys: false,
        entities: 16,
        tracker_brokers: &[2],
        interests: TRACE_INTERESTS,
        rate: 1000.0,
        fixed_share: 0.3,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
