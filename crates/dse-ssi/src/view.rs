//! The single-system-image cluster view: one process table, one resource
//! picture, regardless of which node you ask from.

use dse_kernel::ClusterShared;
use dse_msg::{GlobalPid, NodeId};
use dse_obs::{ClusterAggregator, LogHistogram};

/// Lifecycle state of a DSE process in the cluster-wide table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Invoked and not yet finished.
    Running,
    /// Asked to terminate cooperatively, not yet finished.
    Terminating,
    /// Body returned.
    Exited,
}

/// One row of the cluster-wide `ps` listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessEntry {
    /// Cluster-wide pid (the SSI's flat id space).
    pub pid: GlobalPid,
    /// Node hosting the process.
    pub node: NodeId,
    /// Physical machine hosting that node.
    pub machine: usize,
    /// Lifecycle state.
    pub state: ProcState,
}

/// One row of the cluster-wide node listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// The node.
    pub node: NodeId,
    /// Physical machine hosting it.
    pub machine: usize,
    /// DSE kernels co-resident on that machine (1 on a real cluster, more
    /// on a virtual cluster).
    pub kernels_on_machine: usize,
    /// Application processes currently running on this node.
    pub running: usize,
    /// Runtime messages sent by this node's kernel+API so far.
    pub messages: u64,
    /// Global-memory traffic (bytes read + written) issued by this node.
    pub gm_bytes: u64,
    /// Remote GM operations (reads + writes) issued by this node — the
    /// share of its traffic that crossed node boundaries.
    pub gm_remote_ops: u64,
}

/// A read-only single-system-image view over a cluster.
///
/// ```
/// use dse_api::{DseProgram, Platform};
/// use dse_ssi::ClusterView;
/// use std::sync::Arc;
///
/// DseProgram::new(Platform::sunos_sparc()).run(3, |ctx| {
///     ctx.barrier(); // all ranks registered
///     let shared = Arc::clone(ctx.shared());
///     let view = ClusterView::new(&shared);
///     assert_eq!(view.ps().len(), 3); // one flat pid space
///     ctx.barrier();
/// });
/// ```
pub struct ClusterView<'a> {
    shared: &'a ClusterShared,
}

impl<'a> ClusterView<'a> {
    /// Build the view.
    pub fn new(shared: &'a ClusterShared) -> ClusterView<'a> {
        ClusterView { shared }
    }

    /// Cluster-wide process table (the SSI `ps`).
    pub fn ps(&self) -> Vec<ProcessEntry> {
        self.shared
            .all_apps()
            .into_iter()
            .map(|(pid, _)| {
                let state = if self.shared.is_exited(pid) {
                    ProcState::Exited
                } else if self.shared.is_terminated(pid) {
                    ProcState::Terminating
                } else {
                    ProcState::Running
                };
                ProcessEntry {
                    pid,
                    node: pid.node(),
                    machine: self.shared.machine_of(pid.node()),
                    state,
                }
            })
            .collect()
    }

    /// Find one process.
    pub fn find(&self, pid: GlobalPid) -> Option<ProcessEntry> {
        self.ps().into_iter().find(|e| e.pid == pid)
    }

    /// Cluster-wide node table; its traffic columns are the nodes'
    /// `kernel/*` counters in the run's metrics registry.
    pub fn nodes(&self) -> Vec<NodeInfo> {
        let ps = self.ps();
        (0..self.shared.nnodes())
            .map(|n| {
                let node = NodeId(n as u16);
                let machine = self.shared.machine_of(node);
                let snap = self.shared.metrics.snapshot_pe(n as u32, false);
                let c = |name| snap.counter("kernel", name, Some(n as u32)).unwrap_or(0);
                NodeInfo {
                    node,
                    machine,
                    kernels_on_machine: self.shared.spec.kernels_on(machine),
                    running: ps
                        .iter()
                        .filter(|e| e.node == node && e.state == ProcState::Running)
                        .count(),
                    messages: c("messages"),
                    gm_bytes: c("gm_bytes_read") + c("gm_bytes_written"),
                    gm_remote_ops: c("gm_remote_reads") + c("gm_remote_writes"),
                }
            })
            .collect()
    }

    /// Running processes per physical machine (load picture for placement).
    pub fn machine_loads(&self) -> Vec<usize> {
        let ps = self.ps();
        (0..self.shared.spec.machines_used())
            .map(|m| {
                ps.iter()
                    .filter(|e| e.machine == m && e.state == ProcState::Running)
                    .count()
            })
            .collect()
    }

    /// Render the node table as text (the user-facing SSI load utility):
    /// one row per node with its placement and runtime traffic counters.
    pub fn nodes_text(&self) -> String {
        let mut out = String::from(
            "NODE  MACHINE  KERNELS  RUNNING  MSGS      GM-BYTES    REMOTE-OPS
",
        );
        for n in self.nodes() {
            out.push_str(&format!(
                "{:<5} {:<8} {:<8} {:<8} {:<9} {:<11} {}
",
                n.node.0,
                n.machine,
                n.kernels_on_machine,
                n.running,
                n.messages,
                n.gm_bytes,
                n.gm_remote_ops
            ));
        }
        out
    }

    /// Render the `ps` table as text (the user-facing SSI utility).
    pub fn ps_text(&self) -> String {
        let mut out = String::from("PID        NODE  MACHINE  STATE\n");
        for e in self.ps() {
            let state = match e.state {
                ProcState::Running => "running",
                ProcState::Terminating => "terminating",
                ProcState::Exited => "exited",
            };
            out.push_str(&format!(
                "{:<10} {:<5} {:<8} {}\n",
                e.pid.0, e.node.0, e.machine, state
            ));
        }
        out
    }
}

/// One row of the live cluster-top table, derived purely from the in-band
/// telemetry aggregated at PE0 (no direct access to any remote kernel's
/// registry — exactly what the aggregator heard over the bus).
#[derive(Debug, Clone, PartialEq)]
pub struct TopRow {
    /// The emitting PE (node).
    pub pe: u32,
    /// Physical machine tag carried on that PE's kernel counters, if any
    /// counter has been heard yet.
    pub machine: Option<u32>,
    /// Runtime messages sent by this node so far.
    pub messages: u64,
    /// Global-memory traffic (bytes read + written).
    pub gm_bytes: u64,
    /// GM cache hits on this node.
    pub cache_hits: u64,
    /// GM cache misses on this node.
    pub cache_misses: u64,
    /// Directory lookups served from a read replica at this home kernel.
    pub dir_hits: u64,
    /// Directory lookups that had to fetch from the home copy.
    pub dir_misses: u64,
    /// Invalidations applied on this node (wire-driven under WI, local
    /// purges under RC acquires).
    pub dir_invals: u64,
    /// High-water mark of split-phase GM requests this PE had in flight.
    pub gm_inflight: u64,
    /// GM operations coalesced into an already-staged request on this PE.
    pub gm_coalesced: u64,
    /// GM request retransmissions issued by this PE (live engine's
    /// failure-domain hardening; always 0 on a healthy wire).
    pub gm_retries: u64,
    /// GM requests abandoned after exhausting the retry budget.
    pub gm_deadline_trips: u64,
    /// p50 of remote GM request latency (read/write/fetch-add/batch
    /// merged), `None` until a remote request completed.
    pub p50_ns: Option<u64>,
    /// p99 of the same merged latency distribution.
    pub p99_ns: Option<u64>,
    /// p99.9 of the same merged latency distribution (the SLO tail).
    pub p999_ns: Option<u64>,
    /// p50 of the time this PE's application spent blocked per GM wait
    /// (live engine): what a request's latency leaves over is the
    /// requester's own client code. `None` until a wait was recorded.
    pub blocked_p50_ns: Option<u64>,
    /// Last telemetry sequence number heard from this PE.
    pub last_seq: u32,
    /// Sequence gaps observed (lost telemetry deltas).
    pub gaps: u64,
    /// Nanoseconds since the PE was last heard from; `None` before its
    /// first emission.
    pub age_ns: Option<u64>,
}

impl TopRow {
    /// GM cache hit rate in percent, `None` when no lookups happened yet.
    pub fn hit_pct(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            None
        } else {
            Some(self.cache_hits as f64 * 100.0 / total as f64)
        }
    }

    /// Directory hit rate in percent, `None` when the coherence directory
    /// saw no lookups (cache off, or no remote reads yet).
    pub fn dir_hit_pct(&self) -> Option<f64> {
        let total = self.dir_hits + self.dir_misses;
        if total == 0 {
            None
        } else {
            Some(self.dir_hits as f64 * 100.0 / total as f64)
        }
    }
}

/// Build the live top table from a telemetry aggregator: one row per PE,
/// every column sourced from the aggregator's rollup and node-health
/// records. `now_ns` is the observer's clock (virtual or wall) used for
/// the staleness column.
pub fn top_rows(agg: &ClusterAggregator, now_ns: u64) -> Vec<TopRow> {
    let snap = agg.rollup();
    agg.nodes()
        .iter()
        .map(|ns| {
            let pe = ns.pe;
            let machine = snap
                .counters
                .iter()
                .find(|(k, _)| k.subsystem == "kernel" && k.pe == Some(pe) && k.machine.is_some())
                .and_then(|(k, _)| k.machine);
            let c = |name: &str| snap.counter("kernel", name, Some(pe)).unwrap_or(0);
            let mut lat = LogHistogram::new();
            for name in [
                "remote_read_ns",
                "remote_write_ns",
                "fetch_add_ns",
                "batch_ns",
            ] {
                if let Some(h) = snap.histogram("gm", name, Some(pe)) {
                    lat.merge(h);
                }
            }
            let (p50_ns, p99_ns, p999_ns) = if lat.count() > 0 {
                (Some(lat.p50()), Some(lat.p99()), Some(lat.p999()))
            } else {
                (None, None, None)
            };
            TopRow {
                pe,
                machine,
                messages: c("messages"),
                gm_bytes: c("gm_bytes_read") + c("gm_bytes_written"),
                cache_hits: c("cache_hits"),
                cache_misses: c("cache_misses"),
                dir_hits: c("dir_hits"),
                dir_misses: c("dir_misses"),
                dir_invals: c("dir_invals"),
                gm_inflight: snap.gauge("kernel", "gm_inflight", Some(pe)).unwrap_or(0),
                gm_coalesced: c("gm_coalesced"),
                gm_retries: c("gm_retries"),
                gm_deadline_trips: c("gm_deadline_trips"),
                p50_ns,
                p99_ns,
                p999_ns,
                blocked_p50_ns: snap
                    .histogram("gm", "blocked_ns", Some(pe))
                    .map(LogHistogram::p50),
                last_seq: ns.last_seq,
                gaps: ns.gaps,
                age_ns: ns.last_heard_ns.map(|t| now_ns.saturating_sub(t)),
            }
        })
        .collect()
}

fn fmt_us(v: Option<u64>) -> String {
    match v {
        Some(ns) => format!("{:.1}", ns as f64 / 1e3),
        None => "-".to_string(),
    }
}

/// Render the live top table as text (the `dse-top` view behind
/// `dse-run --watch`): one row per PE with traffic, GM cache hit rate,
/// request-latency percentiles and telemetry health.
pub fn render_top(agg: &ClusterAggregator, now_ns: u64) -> String {
    let mut out = String::from(
        "NODE  MACHINE  MSGS      GM-BYTES    HIT%   DIR%   INVAL  INFLT  COAL   RETRY  TRIPS  P50(us)   P99(us)   P999(us)  BLK50(us)  SEQ    GAPS  AGE(ms)\n",
    );
    for r in top_rows(agg, now_ns) {
        let machine = r
            .machine
            .map(|m| m.to_string())
            .unwrap_or_else(|| "-".to_string());
        let hit = r
            .hit_pct()
            .map(|p| format!("{p:.1}"))
            .unwrap_or_else(|| "-".to_string());
        let dir = r
            .dir_hit_pct()
            .map(|p| format!("{p:.1}"))
            .unwrap_or_else(|| "-".to_string());
        let age = r
            .age_ns
            .map(|a| format!("{:.1}", a as f64 / 1e6))
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            "{:<5} {:<8} {:<9} {:<11} {:<6} {:<6} {:<6} {:<6} {:<6} {:<6} {:<6} {:<9} {:<9} {:<9} {:<10} {:<6} {:<5} {}\n",
            r.pe,
            machine,
            r.messages,
            r.gm_bytes,
            hit,
            dir,
            r.dir_invals,
            r.gm_inflight,
            r.gm_coalesced,
            r.gm_retries,
            r.gm_deadline_trips,
            fmt_us(r.p50_ns),
            fmt_us(r.p99_ns),
            fmt_us(r.p999_ns),
            fmt_us(r.blocked_p50_ns),
            r.last_seq,
            r.gaps,
            age
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_kernel::{DseConfig, KernelCount};
    use dse_platform::{ClusterSpec, Platform};
    use dse_sim::{ProcId, ResourceId};

    fn shared(p: usize) -> ClusterShared {
        let spec = ClusterSpec::paper(Platform::sunos_sparc(), p);
        let cpus = (0..spec.machines_used())
            .map(ResourceId::from_index)
            .collect();
        ClusterShared::new(spec, DseConfig::default(), cpus)
    }

    #[test]
    fn ps_reflects_registration_and_exit() {
        let s = shared(3);
        let a = GlobalPid::new(NodeId(0), 1);
        let b = GlobalPid::new(NodeId(2), 1);
        s.register_app(a, ProcId::from_index(10));
        s.register_app(b, ProcId::from_index(11));
        let view = ClusterView::new(&s);
        let ps = view.ps();
        assert_eq!(ps.len(), 2);
        assert!(ps.iter().all(|e| e.state == ProcState::Running));
        s.mark_exited(a);
        assert_eq!(view.find(a).unwrap().state, ProcState::Exited);
        assert_eq!(view.find(b).unwrap().state, ProcState::Running);
    }

    #[test]
    fn termination_shows_as_terminating() {
        let s = shared(2);
        let a = GlobalPid::new(NodeId(1), 1);
        s.register_app(a, ProcId::from_index(9));
        s.mark_terminated(a);
        let view = ClusterView::new(&s);
        assert_eq!(view.find(a).unwrap().state, ProcState::Terminating);
    }

    #[test]
    fn node_table_counts_virtual_cluster_kernels() {
        let s = shared(8); // 6 machines, nodes 6,7 co-located
        let view = ClusterView::new(&s);
        let nodes = view.nodes();
        assert_eq!(nodes.len(), 8);
        assert_eq!(nodes[0].kernels_on_machine, 2); // machine 0 hosts n0+n6
        assert_eq!(nodes[2].kernels_on_machine, 1);
        assert!(nodes.iter().all(|n| n.messages == 0 && n.gm_bytes == 0));
    }

    #[test]
    fn node_table_reflects_per_pe_traffic() {
        let s = shared(3);
        let pe1 = s.counters(NodeId(1));
        for _ in 0..7 {
            pe1.count(KernelCount::Sent(16));
        }
        pe1.count(KernelCount::RemoteRead(100));
        pe1.count(KernelCount::RemoteWrite(20));
        let view = ClusterView::new(&s);
        let nodes = view.nodes();
        assert_eq!(nodes[1].messages, 7);
        assert_eq!(nodes[1].gm_bytes, 120);
        assert_eq!(nodes[1].gm_remote_ops, 2);
        assert_eq!(nodes[0].messages, 0);
        let text = view.nodes_text();
        assert!(text.contains("GM-BYTES"));
        assert!(text.contains("120"));
    }

    #[test]
    fn machine_loads_track_running() {
        let s = shared(8);
        s.register_app(GlobalPid::new(NodeId(0), 1), ProcId::from_index(1));
        s.register_app(GlobalPid::new(NodeId(6), 1), ProcId::from_index(2));
        s.register_app(GlobalPid::new(NodeId(1), 1), ProcId::from_index(3));
        let view = ClusterView::new(&s);
        let loads = view.machine_loads();
        assert_eq!(loads[0], 2); // nodes 0 and 6 share machine 0
        assert_eq!(loads[1], 1);
        assert_eq!(loads[2], 0);
    }

    #[test]
    fn ps_text_renders_rows() {
        let s = shared(2);
        s.register_app(GlobalPid::new(NodeId(0), 1), ProcId::from_index(1));
        let view = ClusterView::new(&s);
        let text = view.ps_text();
        assert!(text.contains("PID"));
        assert!(text.contains("running"));
    }

    use dse_obs::{DeltaTracker, MetricKey, Registry};

    /// Feed an aggregator exactly the way the kernels do: per-PE registries
    /// sampled through per-PE delta trackers.
    fn aggregated() -> ClusterAggregator {
        let mut agg = ClusterAggregator::new(2);
        let reg0 = Registry::new();
        reg0.add(MetricKey::pe("kernel", "messages", 0).on_machine(0), 12);
        reg0.add(
            MetricKey::pe("kernel", "gm_bytes_read", 0).on_machine(0),
            96,
        );
        reg0.add(
            MetricKey::pe("kernel", "gm_bytes_written", 0).on_machine(0),
            32,
        );
        reg0.add(MetricKey::pe("kernel", "cache_hits", 0).on_machine(0), 3);
        reg0.add(MetricKey::pe("kernel", "cache_misses", 0).on_machine(0), 1);
        reg0.add(MetricKey::pe("kernel", "dir_hits", 0).on_machine(0), 9);
        reg0.add(MetricKey::pe("kernel", "dir_misses", 0).on_machine(0), 1);
        reg0.add(MetricKey::pe("kernel", "dir_invals", 0).on_machine(0), 6);
        reg0.add(MetricKey::pe("kernel", "gm_coalesced", 0).on_machine(0), 7);
        reg0.add(MetricKey::pe("kernel", "gm_retries", 0).on_machine(0), 2);
        reg0.add(
            MetricKey::pe("kernel", "gm_deadline_trips", 0).on_machine(0),
            1,
        );
        reg0.gauge_max(MetricKey::pe("kernel", "gm_inflight", 0).on_machine(0), 4);
        reg0.record(MetricKey::pe("gm", "remote_read_ns", 0), 10_000);
        reg0.record(MetricKey::pe("gm", "remote_write_ns", 0), 30_000);
        reg0.record(MetricKey::pe("gm", "batch_ns", 0), 50_000);
        reg0.record(MetricKey::pe("gm", "blocked_ns", 0), 8_000);
        let mut t0 = DeltaTracker::new(0, true);
        let (seq, d) = t0.delta(&reg0.snapshot(), true).unwrap();
        agg.apply(0, seq, 1_000_000, &d);

        let reg1 = Registry::new();
        reg1.add(MetricKey::pe("kernel", "messages", 1).on_machine(1), 5);
        let mut t1 = DeltaTracker::new(1, false);
        let (seq, d) = t1.delta(&reg1.snapshot(), true).unwrap();
        agg.apply(1, seq, 4_000_000, &d);
        agg
    }

    #[test]
    fn top_rows_source_from_aggregator_only() {
        let agg = aggregated();
        let rows = top_rows(&agg, 5_000_000);
        assert_eq!(rows.len(), 2);
        let r0 = &rows[0];
        assert_eq!(r0.pe, 0);
        assert_eq!(r0.machine, Some(0));
        assert_eq!(r0.messages, 12);
        assert_eq!(r0.gm_bytes, 128);
        assert_eq!(r0.hit_pct(), Some(75.0));
        assert_eq!(r0.dir_hit_pct(), Some(90.0));
        assert_eq!(r0.dir_invals, 6);
        assert_eq!(r0.gm_inflight, 4);
        assert_eq!(r0.gm_coalesced, 7);
        assert_eq!(r0.gm_retries, 2);
        assert_eq!(r0.gm_deadline_trips, 1);
        // Merged latency distribution spans all recorded samples (plain
        // reads/writes and split-phase batches alike).
        assert!(r0.p50_ns.is_some() && r0.p99_ns.is_some() && r0.p999_ns.is_some());
        assert!(r0.p99_ns.unwrap() >= r0.p50_ns.unwrap());
        assert!(r0.p999_ns.unwrap() >= r0.p99_ns.unwrap());
        assert!(r0.p99_ns.unwrap() >= 50_000);
        // Blocked time is a column of its own, not one more latency.
        let blocked = r0.blocked_p50_ns.expect("a wait was recorded");
        assert!((7_000..=8_000).contains(&blocked), "{blocked}");
        assert!(r0.p50_ns.unwrap() > 8_000);
        assert_eq!(r0.age_ns, Some(4_000_000));
        let r1 = &rows[1];
        assert_eq!(r1.machine, Some(1));
        assert_eq!(r1.messages, 5);
        assert_eq!(r1.hit_pct(), None);
        assert_eq!(r1.dir_hit_pct(), None);
        assert_eq!(r1.dir_invals, 0);
        assert_eq!(r1.gm_inflight, 0);
        assert_eq!(r1.gm_coalesced, 0);
        assert_eq!(r1.gm_retries, 0);
        assert_eq!(r1.gm_deadline_trips, 0);
        assert_eq!(r1.p50_ns, None);
        assert_eq!(r1.p999_ns, None);
        assert_eq!(r1.blocked_p50_ns, None);
        assert_eq!(r1.age_ns, Some(1_000_000));
        assert!(rows.iter().all(|r| r.last_seq == 1 && r.gaps == 0));
    }

    #[test]
    fn top_rows_before_first_emission_are_blank() {
        let agg = ClusterAggregator::new(3);
        let rows = top_rows(&agg, 1_000);
        assert_eq!(rows.len(), 3);
        assert!(rows
            .iter()
            .all(|r| r.age_ns.is_none() && r.machine.is_none() && r.messages == 0));
    }

    #[test]
    fn render_top_formats_table() {
        let agg = aggregated();
        let text = render_top(&agg, 5_000_000);
        assert!(text.starts_with("NODE"));
        assert!(text.contains("P999(us)"));
        assert!(text.contains("BLK50(us)"));
        assert!(text.contains("HIT%"));
        assert!(text.contains("DIR%"));
        assert!(text.contains("INVAL"));
        assert!(text.contains("90.0"));
        assert!(text.contains("INFLT"));
        assert!(text.contains("COAL"));
        assert!(text.contains("RETRY"));
        assert!(text.contains("TRIPS"));
        assert!(text.contains("75.0"));
        assert!(text.contains("128"));
        // PE1 never saw a GM request: latency renders as "-".
        let line1 = text.lines().nth(2).unwrap();
        assert!(line1.contains('-'));
        assert_eq!(text.lines().count(), 3);
    }
}
