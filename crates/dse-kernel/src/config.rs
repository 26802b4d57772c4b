//! Runtime configuration: software organization, protocol, network, cache.

use dse_net::Protocol;
use dse_sim::SimDuration;

/// Which DSE software organization to model.
///
/// The 1999 paper's contribution is moving from the *separate kernel
/// process* organization (every API call crosses a UNIX IPC boundary) to the
/// *linked library* organization (DSE kernel + parallel API linked into the
/// application's single UNIX process, context-switched by async-I/O
/// signals). Keeping both lets the benches regenerate the improvement claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Organization {
    /// New organization: kernel as a statically linked library (Fig. 2/3).
    LinkedLibrary,
    /// Legacy organization: kernel as a separate UNIX process; each local
    /// API interaction pays an IPC rendezvous plus context switches.
    SeparateProcess,
}

/// Which physical interconnect the cluster uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetworkChoice {
    /// Shared-bus Ethernet (CSMA/CD) at the given bit rate. The paper's LAN
    /// is `SharedBus(10e6)`.
    SharedBus(f64),
    /// Switched full-duplex fabric at the given bit rate and switch latency.
    Switched(f64, SimDuration),
}

/// Coherence protocol of the global-memory cache.
///
/// Only consulted when `DseConfig::gm_cache` is on; without replicas there
/// is nothing to keep coherent and both modes degenerate to the baseline
/// request/response semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GmMode {
    /// Sequentially consistent write-invalidate: every write consults the
    /// home directory and stalls until every sharer has acknowledged an
    /// invalidation.
    #[default]
    WriteInvalidate,
    /// Release consistency: writes go straight to the home (which is always
    /// current) and *defer* invalidations; each node drops its own replicas
    /// at acquire points (barrier exit, lock grant, `gm_acquire`). Correct
    /// for data-race-free programs, and removes the invalidation round
    /// trips from the write path entirely.
    ReleaseConsistency,
}

impl GmMode {
    /// Parse a CLI/TOML spelling (`wi` | `rc`).
    pub fn parse(s: &str) -> Option<GmMode> {
        match s {
            "wi" | "write-invalidate" => Some(GmMode::WriteInvalidate),
            "rc" | "release-consistency" => Some(GmMode::ReleaseConsistency),
            _ => None,
        }
    }

    /// Canonical short spelling (round-trips through [`GmMode::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            GmMode::WriteInvalidate => "wi",
            GmMode::ReleaseConsistency => "rc",
        }
    }
}

/// How many workers the live engine's kernel driver runs.
///
/// The simulator is inherently event-driven (one virtual-time wheel drives
/// every PE), so this axis only matters to the live engine. There one
/// driver polls every PE's [`crate::task::KernelTask`] from a pool of
/// workers, and this chooses the pool's size: a worker with one kernel
/// waits in its transport, a worker with several sweeps them. Program
/// results do not depend on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// One worker per PE: every kernel has its own thread, blocked on its
    /// transport until a message wakes it. Lowest latency; a thread per PE.
    #[default]
    Threads,
    /// One worker per core (at most one per PE), each multiplexing its
    /// share of the kernels, and small app-thread stacks — so one process
    /// can host thousands of PEs.
    Tasks,
}

impl SchedulerKind {
    /// Parse a CLI/TOML spelling (`threads` | `tasks`).
    pub fn parse(s: &str) -> Option<SchedulerKind> {
        match s {
            "threads" | "thread" => Some(SchedulerKind::Threads),
            "tasks" | "task" => Some(SchedulerKind::Tasks),
            _ => None,
        }
    }

    /// Canonical spelling (round-trips through [`SchedulerKind::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Threads => "threads",
            SchedulerKind::Tasks => "tasks",
        }
    }
}

/// Telemetry-plane configuration (see `DseConfig::telemetry`).
///
/// When enabled, every kernel periodically ships its metric deltas in-band
/// (as `Message::Telemetry` traffic) to the aggregating kernel on node 0.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// How often each kernel emits a metric delta.
    pub interval: SimDuration,
}

impl Default for TelemetryConfig {
    /// 200 ms emission interval.
    ///
    /// The interval keeps the telemetry plane's cost (wire bytes plus
    /// per-message protocol CPU on the paper-era platforms) under 3 % of
    /// execution time up to 8 PEs on the 10 Mbps shared bus — measured by
    /// `examples/telemetry_overhead.rs`. Interactive watching can shorten
    /// it (`dse-run --watch-ms`); the cost is paid in virtual time.
    fn default() -> Self {
        TelemetryConfig {
            interval: SimDuration::from_millis(200),
        }
    }
}

impl TelemetryConfig {
    /// Builder-style: set the emission interval.
    pub fn with_interval(mut self, interval: SimDuration) -> Self {
        self.interval = interval;
        self
    }
}

/// Full DSE runtime configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DseConfig {
    /// Software organization (new vs legacy).
    pub organization: Organization,
    /// Protocol stack carrying DSE messages.
    pub protocol: Protocol,
    /// Physical interconnect.
    pub network: NetworkChoice,
    /// Enable the read-replicating, directory-tracked global-memory cache
    /// (an extension beyond the paper's request/response semantics).
    pub gm_cache: bool,
    /// Coherence protocol for the GM cache (ignored when `gm_cache` is
    /// off).
    pub gm_mode: GmMode,
    /// Seed for all model randomness (Ethernet backoff).
    pub seed: u64,
    /// In-band telemetry plane (`None` = off; the default, so telemetry
    /// traffic never perturbs experiments that did not ask for it).
    pub telemetry: Option<TelemetryConfig>,
    /// Maximum split-phase GM requests a PE may have in flight before a
    /// further issue blocks until one completes (the pipelining window).
    pub gm_window: usize,
    /// Record message-level spans and bus activity during the run (the
    /// canonical home of what `DseProgram::with_tracing` used to toggle).
    pub tracing: bool,
    /// Physical machines backing the cluster (`None` = the paper's
    /// machine count; the canonical home of `DseProgram::with_machines`).
    pub machines: Option<usize>,
}

impl Default for DseConfig {
    /// The paper's configuration: linked-library organization, TCP/IP over
    /// 10 Mbps shared-bus Ethernet, no GM cache, telemetry off.
    fn default() -> Self {
        DseConfig {
            organization: Organization::LinkedLibrary,
            protocol: Protocol::TcpIp,
            network: NetworkChoice::SharedBus(10_000_000.0),
            gm_cache: false,
            gm_mode: GmMode::WriteInvalidate,
            seed: 0x05E_1999,
            telemetry: None,
            gm_window: DEFAULT_GM_WINDOW,
            tracing: false,
            machines: None,
        }
    }
}

/// Default bound on in-flight split-phase GM requests per PE. Large enough
/// that the blocking `gm_read`/`gm_write` compatibility path (at most one
/// request per home node in flight) never trips backpressure.
pub const DEFAULT_GM_WINDOW: usize = 32;

impl DseConfig {
    /// The paper's configuration (alias of `Default`).
    pub fn paper() -> DseConfig {
        DseConfig::default()
    }

    /// Same but with the legacy separate-process organization.
    pub fn legacy() -> DseConfig {
        DseConfig {
            organization: Organization::SeparateProcess,
            ..DseConfig::default()
        }
    }

    /// Builder-style: set the protocol.
    pub fn with_protocol(mut self, p: Protocol) -> Self {
        self.protocol = p;
        self
    }

    /// Builder-style: set the network.
    pub fn with_network(mut self, n: NetworkChoice) -> Self {
        self.network = n;
        self
    }

    /// Builder-style: set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: enable/disable the GM cache.
    pub fn with_gm_cache(mut self, on: bool) -> Self {
        self.gm_cache = on;
        self
    }

    /// Builder-style: set the GM cache coherence protocol.
    pub fn with_gm_mode(mut self, mode: GmMode) -> Self {
        self.gm_mode = mode;
        self
    }

    /// Builder-style: enable the in-band telemetry plane.
    pub fn with_telemetry(mut self, t: TelemetryConfig) -> Self {
        self.telemetry = Some(t);
        self
    }

    /// Builder-style: set the split-phase GM pipelining window (minimum 1).
    pub fn with_gm_window(mut self, window: usize) -> Self {
        self.gm_window = window.max(1);
        self
    }

    /// Builder-style: record message spans and bus activity.
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Builder-style: set the physical machine count backing the cluster.
    pub fn with_machines(mut self, machines: usize) -> Self {
        self.machines = Some(machines);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = DseConfig::default();
        assert_eq!(c.organization, Organization::LinkedLibrary);
        assert_eq!(c.protocol, Protocol::TcpIp);
        assert!(matches!(c.network, NetworkChoice::SharedBus(b) if b == 10_000_000.0));
        assert!(!c.gm_cache);
        assert_eq!(c.gm_mode, GmMode::WriteInvalidate);
    }

    #[test]
    fn gm_mode_parses_and_roundtrips() {
        assert_eq!(GmMode::parse("wi"), Some(GmMode::WriteInvalidate));
        assert_eq!(GmMode::parse("rc"), Some(GmMode::ReleaseConsistency));
        assert_eq!(
            GmMode::parse("release-consistency"),
            Some(GmMode::ReleaseConsistency)
        );
        assert_eq!(GmMode::parse("sc"), None);
        for m in [GmMode::WriteInvalidate, GmMode::ReleaseConsistency] {
            assert_eq!(GmMode::parse(m.name()), Some(m));
        }
    }

    #[test]
    fn builders_compose() {
        let c = DseConfig::paper()
            .with_protocol(Protocol::RawEthernet)
            .with_seed(42)
            .with_gm_cache(true)
            .with_gm_mode(GmMode::ReleaseConsistency)
            .with_gm_window(4)
            .with_tracing(true)
            .with_machines(3);
        assert_eq!(c.protocol, Protocol::RawEthernet);
        assert_eq!(c.seed, 42);
        assert!(c.gm_cache);
        assert_eq!(c.gm_mode, GmMode::ReleaseConsistency);
        assert_eq!(c.gm_window, 4);
        assert!(c.tracing);
        assert_eq!(c.machines, Some(3));
    }

    #[test]
    fn gm_window_defaults_and_clamps() {
        assert_eq!(DseConfig::default().gm_window, DEFAULT_GM_WINDOW);
        assert!(!DseConfig::default().tracing);
        assert_eq!(DseConfig::default().machines, None);
        assert_eq!(DseConfig::paper().with_gm_window(0).gm_window, 1);
    }

    #[test]
    fn legacy_differs_only_in_organization() {
        let l = DseConfig::legacy();
        assert_eq!(l.organization, Organization::SeparateProcess);
        assert_eq!(l.protocol, DseConfig::default().protocol);
    }

    #[test]
    fn scheduler_parses_and_roundtrips() {
        assert_eq!(
            SchedulerKind::parse("threads"),
            Some(SchedulerKind::Threads)
        );
        assert_eq!(SchedulerKind::parse("tasks"), Some(SchedulerKind::Tasks));
        assert_eq!(SchedulerKind::parse("fibers"), None);
        for k in [SchedulerKind::Threads, SchedulerKind::Tasks] {
            assert_eq!(SchedulerKind::parse(k.name()), Some(k));
        }
    }

    #[test]
    fn telemetry_defaults_off_and_composes() {
        assert!(DseConfig::default().telemetry.is_none());
        let t = TelemetryConfig::default().with_interval(SimDuration::from_millis(5));
        let c = DseConfig::paper().with_telemetry(t.clone());
        assert_eq!(c.telemetry, Some(t));
        assert_eq!(
            TelemetryConfig::default().interval,
            SimDuration::from_millis(200)
        );
    }
}
