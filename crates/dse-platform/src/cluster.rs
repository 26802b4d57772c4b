//! Cluster composition and the paper's "virtual cluster" rule (Table 2).
//!
//! The original testbed had **six** physical workstations. To run more than
//! six DSE kernels, the authors started two or more kernels per machine —
//! which time-shares the machine's CPU and is exactly why the speedup curves
//! bend down past six processors. [`ClusterSpec::place`] reproduces that
//! placement rule and the bench harness regenerates Table 2 from it.

use crate::platform::Platform;

/// Default number of physical machines in the paper's laboratory cluster.
pub const PAPER_MACHINES: usize = 6;

/// Describes a concrete cluster: a homogeneous set of physical machines of
/// one [`Platform`], onto which some number of DSE kernels (one per
/// requested processor) are placed.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// The default platform (the paper's clusters are homogeneous per
    /// experiment; heterogeneous clusters override per machine below).
    pub platform: Platform,
    /// Number of physical machines available.
    pub machines: usize,
    /// Number of DSE kernels, i.e. requested processors.
    pub processors: usize,
    /// Per-machine platform overrides for heterogeneous clusters (the
    /// paper's stated future work: "experiments on other UNIX-based
    /// platforms"). `None` = every machine runs `platform`.
    pub machine_platforms: Option<Vec<Platform>>,
}

impl ClusterSpec {
    /// A cluster of `processors` kernels on the paper's 6-machine laboratory.
    pub fn paper(platform: Platform, processors: usize) -> ClusterSpec {
        ClusterSpec {
            platform,
            machines: PAPER_MACHINES,
            processors,
            machine_platforms: None,
        }
    }

    /// A cluster with an explicit machine count.
    pub fn with_machines(platform: Platform, machines: usize, processors: usize) -> ClusterSpec {
        assert!(machines > 0, "cluster needs at least one machine");
        assert!(processors > 0, "cluster needs at least one processor");
        ClusterSpec {
            platform,
            machines,
            processors,
            machine_platforms: None,
        }
    }

    /// A heterogeneous cluster: machine `m` runs `platforms[m % len]`.
    /// The first machine's platform doubles as the default.
    pub fn heterogeneous(platforms: Vec<Platform>, processors: usize) -> ClusterSpec {
        assert!(!platforms.is_empty(), "need at least one platform");
        assert!(processors > 0, "cluster needs at least one processor");
        let machines = platforms.len();
        ClusterSpec {
            platform: platforms[0].clone(),
            machines,
            processors,
            machine_platforms: Some(platforms),
        }
    }

    /// The platform a physical machine runs.
    pub fn platform_of_machine(&self, machine: usize) -> &Platform {
        match &self.machine_platforms {
            Some(ps) => &ps[machine % ps.len()],
            None => &self.platform,
        }
    }

    /// True if any two machines run different platforms.
    pub fn is_heterogeneous(&self) -> bool {
        self.machine_platforms
            .as_ref()
            .is_some_and(|ps| ps.iter().any(|p| p.id != ps[0].id))
    }

    /// Machine hosting each kernel: kernel `k` lands on machine
    /// `k % machines_used()`. With `p ≤ machines` every kernel gets its own
    /// machine; beyond that, kernels wrap around (the virtual cluster).
    pub fn place(&self) -> Vec<usize> {
        let used = self.machines_used();
        (0..self.processors).map(|k| k % used).collect()
    }

    /// Number of distinct physical machines actually used.
    pub fn machines_used(&self) -> usize {
        self.processors.min(self.machines)
    }

    /// Number of kernels resident on the given machine.
    pub fn kernels_on(&self, machine: usize) -> usize {
        self.place().iter().filter(|&&m| m == machine).count()
    }

    /// The largest number of kernels sharing one machine (1 while
    /// `processors ≤ machines`; grows past that).
    pub fn max_colocation(&self) -> usize {
        let used = self.machines_used();
        self.processors.div_ceil(used)
    }

    /// True if two kernels are on the same physical machine (their traffic
    /// takes the own-node/loopback path, not the LAN).
    pub fn colocated(&self, a: usize, b: usize) -> bool {
        let p = self.place();
        p[a] == p[b]
    }

    /// Rows of the paper's Table 2: (processors, machines used,
    /// max kernels per machine) for p in `1..=max_p`.
    pub fn table2_rows(machines: usize, max_p: usize) -> Vec<(usize, usize, usize)> {
        (1..=max_p)
            .map(|p| {
                let spec = ClusterSpec::with_machines(Platform::sunos_sparc(), machines, p);
                (p, spec.machines_used(), spec.max_colocation())
            })
            .collect()
    }
}

/// Table 1 of the paper, as text: the experiment environments.
pub fn table1() -> String {
    let row = |a: &str, b: &str, c: &str| format!("{a:<12} {b:<45} {c:<22}\n");
    let rows = Platform::all()
        .into_iter()
        .map(|p| row(p.id, p.machine, p.os));
    let body: String = rows.collect();
    let head = row("Platform", "Machine", "OS");
    format!("== Table 1: Experiment environments ==\n{head}{body}")
}

/// Table 2 of the paper, as text: machines used vs requested processors
/// (the virtual-cluster rule, [`ClusterSpec::table2_rows`]).
pub fn table2(max_p: usize) -> String {
    let rows = ClusterSpec::table2_rows(PAPER_MACHINES, max_p).into_iter();
    let body: String = rows
        .map(|(p, used, colo)| format!("{p:<12} {used:<16} {colo:<22}\n"))
        .collect();
    let head = format!(
        "{:<12} {:<16} {:<22}\n",
        "processors", "machines used", "max kernels/machine"
    );
    format!("== Table 2: machines vs processors (virtual cluster) ==\n{head}{body}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(p: usize) -> ClusterSpec {
        ClusterSpec::paper(Platform::sunos_sparc(), p)
    }

    #[test]
    fn small_clusters_one_kernel_per_machine() {
        for p in 1..=6 {
            let s = spec(p);
            assert_eq!(s.machines_used(), p);
            assert_eq!(s.max_colocation(), 1);
            let place = s.place();
            assert_eq!(place.len(), p);
            // All distinct machines.
            let mut seen = place.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), p);
        }
    }

    #[test]
    fn virtual_cluster_wraps_round_robin() {
        let s = spec(8);
        assert_eq!(s.machines_used(), 6);
        assert_eq!(s.place(), vec![0, 1, 2, 3, 4, 5, 0, 1]);
        assert_eq!(s.max_colocation(), 2);
        assert_eq!(s.kernels_on(0), 2);
        assert_eq!(s.kernels_on(2), 1);
    }

    #[test]
    fn twelve_processors_two_kernels_everywhere() {
        let s = spec(12);
        assert_eq!(s.max_colocation(), 2);
        for m in 0..6 {
            assert_eq!(s.kernels_on(m), 2);
        }
    }

    #[test]
    fn colocation_matches_placement() {
        let s = spec(8);
        assert!(s.colocated(0, 6)); // both on machine 0
        assert!(!s.colocated(0, 1));
    }

    #[test]
    fn table2_shape() {
        let rows = ClusterSpec::table2_rows(6, 12);
        assert_eq!(rows.len(), 12);
        assert_eq!(rows[5], (6, 6, 1));
        assert_eq!(rows[6], (7, 6, 2));
        assert_eq!(rows[11], (12, 6, 2));
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_machines_rejected() {
        let _ = ClusterSpec::with_machines(Platform::sunos_sparc(), 0, 1);
    }

    #[test]
    fn heterogeneous_platform_mapping() {
        let specs = ClusterSpec::heterogeneous(
            vec![Platform::sunos_sparc(), Platform::linux_pentium2()],
            4,
        );
        assert_eq!(specs.machines, 2);
        assert!(specs.is_heterogeneous());
        assert_eq!(specs.platform_of_machine(0).id, "sunos");
        assert_eq!(specs.platform_of_machine(1).id, "linux");
        // Nodes 2,3 wrap onto machines 0,1.
        assert_eq!(specs.place(), vec![0, 1, 0, 1]);
    }

    #[test]
    fn homogeneous_is_not_heterogeneous() {
        let s = ClusterSpec::paper(Platform::aix_rs6000(), 4);
        assert!(!s.is_heterogeneous());
        assert_eq!(s.platform_of_machine(3).id, "aix");
    }
}
