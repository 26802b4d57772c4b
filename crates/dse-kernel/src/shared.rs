//! The shared cluster state every simulated entity holds an `Arc` to.
//!
//! Data-wise this is one address space (we are a simulator); *cost*-wise
//! every access to it is priced and charged to the right machine's CPU by
//! the code that touches it. Only one simulation thread runs at a time, so
//! the internal locks never contend — they exist to satisfy `Sync`.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use dse_msg::{GlobalPid, NodeId};
use dse_net::{Network, ProtocolModel};
use dse_platform::ClusterSpec;
use dse_sim::{ProcId, ResourceId, SimDuration};

use crate::cache::CacheStore;
use crate::config::{DseConfig, NetworkChoice};
use crate::cost::CostModel;
use crate::counters::PeCounters;
use crate::gmem::GlobalStore;
use crate::sync::{BarrierCenter, LockCenter};
use crate::task::Requester;
use crate::telemetry::{self, EpochHook};

/// The installed epoch hook (when it fires: [`crate::telemetry`]). Used by
/// `--watch`-style live views.
pub type TelemetryHook = Arc<EpochHook<'static>>;

/// Shared state of one cluster run.
pub struct ClusterShared {
    /// Cluster composition (platform, machines, processors).
    pub spec: ClusterSpec,
    /// Runtime configuration.
    pub config: DseConfig,
    /// Per-machine cost models (index = machine; one entry reused for all
    /// machines of a homogeneous cluster would also work, but keeping the
    /// vector uniform makes heterogeneous clusters a non-special case).
    costs: Vec<CostModel>,
    /// The global memory.
    pub store: GlobalStore,
    /// The optional read-replicating cache (only consulted when
    /// `config.gm_cache` is set).
    pub cache: CacheStore,
    /// Barrier coordination: the run's one state, served by node 0's
    /// kernel and driven in place by node 0's process.
    pub barriers: BarrierCenter<Requester>,
    /// Lock coordination: the run's one state, like `barriers`.
    pub locks: LockCenter<Requester>,
    /// The interconnect timing model.
    pub network: Mutex<Network>,
    /// Observability: named counters/gauges/latency histograms, the
    /// protocol's `kernel/*` counters among them ([`ClusterShared::counters`]).
    pub metrics: dse_obs::Registry,
    /// Observability: the causal spans of every process and kernel that has
    /// finished (empty unless `config.tracing`).
    pub trace_sink: dse_obs::TraceSink,
    /// Telemetry: the run's one aggregator, fed by node 0's kernel from
    /// in-band `Telemetry` messages and by every kernel's shutdown flush
    /// (empty when telemetry is off).
    pub aggregator: Mutex<dse_obs::ClusterAggregator>,
    /// Telemetry: the epoch hook each kernel's plane fires (harness setup,
    /// before the kernels are built).
    pub epoch_hook: Option<TelemetryHook>,
    /// CPU resource of each physical machine, indexed by machine.
    pub cpus: Vec<ResourceId>,
    /// Node → machine placement (from [`ClusterSpec::place`]).
    placement: Vec<usize>,
    /// Simulation process of each node's kernel.
    kernels: Mutex<Vec<ProcId>>,
    /// Simulation process of each application process, by global pid.
    apps: Mutex<HashMap<GlobalPid, ProcId>>,
    /// The launcher process (receives invoke acks and exit notices).
    launcher: Mutex<Option<ProcId>>,
    /// Pids asked to terminate cooperatively.
    terminated: Mutex<Vec<GlobalPid>>,
    /// Pids whose process body has returned.
    exited: Mutex<Vec<GlobalPid>>,
    /// Cluster-wide name service: symbolic names bound to regions.
    names: Mutex<HashMap<String, dse_msg::RegionId>>,
    /// Measured end-to-end execution time of the parallel application.
    pub elapsed: Mutex<Option<SimDuration>>,
}

impl ClusterShared {
    /// Build the shared state for a run. `cpus` must contain one resource
    /// per *used* machine, in machine order.
    pub fn new(spec: ClusterSpec, config: DseConfig, cpus: Vec<ResourceId>) -> ClusterShared {
        assert_eq!(
            cpus.len(),
            spec.machines_used(),
            "need one CPU resource per used machine"
        );
        let proto = ProtocolModel::of(config.protocol);
        let costs = (0..spec.machines_used())
            .map(|m| {
                CostModel::new(
                    spec.platform_of_machine(m).clone(),
                    proto,
                    config.organization,
                )
            })
            .collect();
        let network = match config.network {
            NetworkChoice::SharedBus(bps) => Network::shared_bus(bps, config.protocol, config.seed),
            NetworkChoice::Switched(bps, latency) => {
                Network::switched(spec.machines_used(), bps, latency, config.protocol)
            }
        };
        let placement = spec.place();
        let shared = ClusterShared {
            store: GlobalStore::new(spec.processors),
            cache: CacheStore::new(spec.processors),
            barriers: BarrierCenter::new(spec.processors),
            locks: LockCenter::new(),
            network: Mutex::new(network),
            metrics: dse_obs::Registry::new(),
            trace_sink: dse_obs::TraceSink::default(),
            aggregator: telemetry::aggregator(spec.processors),
            epoch_hook: None,
            cpus,
            placement,
            kernels: Mutex::new(Vec::new()),
            apps: Mutex::new(HashMap::new()),
            launcher: Mutex::new(None),
            terminated: Mutex::new(Vec::new()),
            exited: Mutex::new(Vec::new()),
            names: Mutex::new(HashMap::new()),
            elapsed: Mutex::new(None),
            costs,
            config,
            spec,
        };
        for n in 0..shared.nnodes() {
            shared.counters(NodeId(n as u16)).register();
        }
        shared
    }

    /// Number of processor elements (== parallel processes).
    pub fn nnodes(&self) -> usize {
        self.spec.processors
    }

    /// Physical machine hosting a node.
    pub fn machine_of(&self, node: NodeId) -> usize {
        self.placement[node.index()]
    }

    /// CPU resource of the machine hosting a node.
    pub fn cpu_of(&self, node: NodeId) -> ResourceId {
        self.cpus[self.machine_of(node)]
    }

    /// Cost model of the machine hosting a node.
    pub fn cost(&self, node: NodeId) -> &CostModel {
        &self.costs[self.machine_of(node)]
    }

    /// The `kernel/*` counters of a node, tagged with its machine.
    pub fn counters(&self, node: NodeId) -> PeCounters<'_> {
        let machine = self.machine_of(node) as u32;
        PeCounters::new(&self.metrics, node.0 as u32, Some(machine))
    }

    /// True if two nodes share a physical machine (loopback path).
    pub fn same_machine(&self, a: NodeId, b: NodeId) -> bool {
        self.machine_of(a) == self.machine_of(b)
    }

    /// Record the kernels' simulation processes (harness setup).
    pub fn set_kernels(&self, ids: Vec<ProcId>) {
        assert_eq!(ids.len(), self.nnodes());
        *self.kernels.lock() = ids;
    }

    /// The simulation process of a node's kernel.
    pub fn kernel_of(&self, node: NodeId) -> ProcId {
        self.kernels.lock()[node.index()]
    }

    /// Record the launcher's simulation process (harness setup).
    pub fn set_launcher(&self, id: ProcId) {
        *self.launcher.lock() = Some(id);
    }

    /// The launcher's simulation process.
    pub fn launcher(&self) -> ProcId {
        // The harness sets it before the simulation runs, and only a
        // process of the run asks.
        self.launcher.lock().expect("launcher not set")
    }

    /// Register a spawned application process.
    pub fn register_app(&self, pid: GlobalPid, proc_id: ProcId) {
        self.apps.lock().insert(pid, proc_id);
    }

    /// Look up an application process by pid.
    pub fn app_proc(&self, pid: GlobalPid) -> Option<ProcId> {
        self.apps.lock().get(&pid).copied()
    }

    /// Mark a pid for cooperative termination.
    pub fn mark_terminated(&self, pid: GlobalPid) {
        self.terminated.lock().push(pid);
    }

    /// True if the pid was asked to terminate.
    pub fn is_terminated(&self, pid: GlobalPid) -> bool {
        self.terminated.lock().contains(&pid)
    }

    /// Record that a process body returned (single-system-image process
    /// table bookkeeping).
    pub fn mark_exited(&self, pid: GlobalPid) {
        self.exited.lock().push(pid);
    }

    /// True if the process body has returned.
    pub fn is_exited(&self, pid: GlobalPid) -> bool {
        self.exited.lock().contains(&pid)
    }

    /// All registered application processes `(pid, sim process)` in pid
    /// order (stable for reporting).
    pub fn all_apps(&self) -> Vec<(GlobalPid, ProcId)> {
        let mut v: Vec<_> = self.apps.lock().iter().map(|(&p, &i)| (p, i)).collect();
        v.sort_by_key(|&(p, _)| p);
        v
    }

    /// Bind a cluster-wide symbolic name to a region. Returns false if the
    /// name was already bound (first binding wins).
    pub fn bind_name(&self, name: &str, region: dse_msg::RegionId) -> bool {
        let mut names = self.names.lock();
        if names.contains_key(name) {
            return false;
        }
        names.insert(name.to_string(), region);
        true
    }

    /// Look up a cluster-wide symbolic name.
    pub fn lookup_name(&self, name: &str) -> Option<dse_msg::RegionId> {
        self.names.lock().get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_platform::Platform;

    fn shared(p: usize) -> ClusterShared {
        let spec = ClusterSpec::paper(Platform::sunos_sparc(), p);
        let cpus = (0..spec.machines_used())
            .map(ResourceId::from_index)
            .collect();
        ClusterShared::new(spec, DseConfig::default(), cpus)
    }

    #[test]
    fn placement_and_loopback() {
        let s = shared(8);
        assert_eq!(s.machine_of(NodeId(0)), 0);
        assert_eq!(s.machine_of(NodeId(6)), 0);
        assert!(s.same_machine(NodeId(0), NodeId(6)));
        assert!(!s.same_machine(NodeId(0), NodeId(1)));
    }

    #[test]
    fn app_registry() {
        let s = shared(2);
        let pid = GlobalPid::new(NodeId(1), 1);
        assert!(s.app_proc(pid).is_none());
        s.register_app(pid, ProcId::from_index(5));
        assert_eq!(s.app_proc(pid), Some(ProcId::from_index(5)));
    }

    #[test]
    fn termination_marking() {
        let s = shared(2);
        let pid = GlobalPid::new(NodeId(0), 1);
        assert!(!s.is_terminated(pid));
        s.mark_terminated(pid);
        assert!(s.is_terminated(pid));
    }
}
