//! Property tests for the scenario-spec layer: a normalized spec, written
//! out as TOML by the serializer below, parses back exactly; expansion is
//! deterministic with dense indices and a predictable cardinality; and the
//! cell id is a function of every axis except the seed.

use std::collections::BTreeSet;
use std::fmt::Debug;

use proptest::collection::vec;
use proptest::prelude::*;

use dse_sweep::spec::Scenario;
use dse_sweep::{expand, parse_spec, AppKind, SweepSpec};

/// A spec's scenarios as TOML in fully-normalized form: every axis an
/// explicit array and every default written out, so
/// `parse_spec(to_toml(spec)) == *spec` exactly. (Only these tests write
/// specs; people write the real ones. Rust's `Debug` form of strings,
/// numbers, booleans and vectors of them is their TOML form. Figure blocks
/// are parsed by `spec.rs`'s unit tests and the two committed specs.)
fn to_toml(spec: &SweepSpec) -> String {
    let mut out = format!(
        "[sweep]\nname = {:?}\ntimeout_ms = {}\nseeds = {:?}\n",
        spec.name, spec.timeout_ms, spec.seeds
    );
    for sc in &spec.scenarios {
        out.push_str("\n[[scenario]]\n");
        let mut put = |key: &str, value: &dyn Debug| out.push_str(&format!("{key} = {value:?}\n"));
        put("name", &sc.name);
        put("app", &sc.apps);
        put("engine", &sc.engines);
        put("transport", &sc.transports);
        put("scheduler", &sc.schedulers);
        put("platform", &sc.platforms);
        put("procs", &sc.procs);
        put("gm_window", &sc.gm_windows);
        put("cache", &sc.caches);
        put("gm_mode", &sc.gm_modes);
        put("fault_plan", &sc.fault_plans);
        if !sc.seeds.is_empty() {
            put("seeds", &sc.seeds);
        }
        put("machines", &sc.machines);
        put("organization", &sc.organizations);
        put("protocol", &sc.protocols);
        put("network", &sc.networks);
        put("timeout_ms", &sc.timeout_ms);
        put("n", &sc.ns);
        put("block", &sc.blocks);
        put("size", &sc.size);
        put("depth", &sc.depths);
        put("jobs", &sc.jobs);
    }
    out
}

/// Non-empty subset of `items`, chosen by bitmask so the result is
/// duplicate-free and keeps the source order.
fn subset(items: &'static [&'static str]) -> impl Strategy<Value = Vec<String>> {
    let n = items.len();
    (1u64..(1 << n)).prop_map(move |mask| {
        (0..n)
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| items[i].to_string())
            .collect()
    })
}

fn scenario() -> impl Strategy<Value = Scenario> {
    let axes = (
        subset(&[
            "gauss", "gauss-mp", "dct", "othello", "matmul", "knights", "scan",
        ]),
        subset(&["sim", "live"]),
        (subset(&["channel", "tcp"]), subset(&["threads", "tasks"])),
        subset(&["sunos", "aix", "linux", "sunos+linux"]),
        vec(1usize..9, 1..3),
        vec(0usize..8, 1..3),
    );
    let variants = (
        (
            prop_oneof![Just(vec![false]), Just(vec![true]), Just(vec![false, true]),],
            subset(&["wi", "rc"]),
        ),
        prop_oneof![
            Just(vec![String::new()]),
            Just(vec![String::new(), "seed=7,drop=10".to_string()]),
        ],
        prop_oneof![Just(Vec::<u64>::new()), vec(1u64..100, 1..3)],
        vec(1usize..8, 1..3),
        subset(&["linked", "legacy"]),
        (
            subset(&["tcp", "udp", "raw"]),
            subset(&["bus10", "switched100"]),
        ),
    );
    let extras = (
        prop_oneof![Just(0u64), 1u64..5000],
        vec(1usize..300, 1..3),
        vec(1usize..16, 1..3),
        prop_oneof![Just(0usize), 16usize..64],
        vec(1u32..6, 1..3),
        vec(1usize..20, 1..3),
    );
    (axes, variants, extras).prop_map(|(axes, variants, extras)| {
        let (mut apps, engines, (transports, schedulers), platforms, procs, gm_windows) = axes;
        let ((caches, gm_modes), fault_plans, seeds, machines, organizations, wire) = variants;
        let (protocols, networks) = wire;
        let (timeout_ms, ns, blocks, size, depths, jobs) = extras;
        // gauss-mp is sim-only; keep the generated spec valid.
        if engines.iter().any(|e| e == "live") {
            apps.retain(|a| a != "gauss-mp");
            if apps.is_empty() {
                apps.push("gauss".into());
            }
        }
        Scenario {
            name: String::new(),
            apps,
            engines,
            transports,
            schedulers,
            platforms,
            procs,
            gm_windows,
            caches,
            gm_modes,
            fault_plans,
            seeds,
            machines,
            organizations,
            protocols,
            networks,
            timeout_ms,
            ns,
            blocks,
            size,
            depths,
            jobs,
        }
    })
}

fn sweep_spec() -> impl Strategy<Value = SweepSpec> {
    (
        any::<u64>(),
        1u64..120_000,
        vec(1u64..1000, 1..4),
        vec(scenario(), 1..4),
    )
        .prop_map(|(tag, timeout_ms, seeds, mut scenarios)| {
            for (i, sc) in scenarios.iter_mut().enumerate() {
                sc.name = format!("sc{i}");
            }
            SweepSpec {
                name: format!("sweep{}", tag % 100),
                timeout_ms,
                seeds,
                scenarios,
                figures: Vec::new(),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn toml_roundtrip_is_exact(spec in sweep_spec()) {
        let toml = to_toml(&spec);
        let back = parse_spec(&toml).map_err(TestCaseError::fail)?;
        prop_assert_eq!(&back, &spec, "spec did not survive round-trip:\n{}", toml);
        // Re-serialization is a fixpoint: normalized in, normalized out.
        prop_assert_eq!(to_toml(&back), toml);
    }

    #[test]
    fn expansion_is_deterministic_and_dense(spec in sweep_spec()) {
        let runs = expand(&spec);
        prop_assert_eq!(&runs, &expand(&spec));
        // The matrix survives a serialize/parse cycle untouched — this is
        // what lets a child process re-derive its RunSpec from (file, idx).
        let reparsed = parse_spec(&to_toml(&spec)).map_err(TestCaseError::fail)?;
        prop_assert_eq!(&runs, &expand(&reparsed));
        for (i, r) in runs.iter().enumerate() {
            prop_assert_eq!(r.idx, i);
        }
        // Cardinality: per scenario, sim multiplies the simulated cluster's
        // axes (machines only under a single-preset platform) x window while
        // live multiplies transport x scheduler x fault plan; both multiply
        // the cache/mode pairs (mode pinned to wi when the cache is off),
        // each app its own size axis, and then procs x seeds.
        let mut want = 0usize;
        for sc in &spec.scenarios {
            let seeds = if sc.seeds.is_empty() { spec.seeds.len() } else { sc.seeds.len() };
            let cache_modes: usize = sc
                .caches
                .iter()
                .map(|&c| if c { sc.gm_modes.len() } else { 1 })
                .sum();
            let sizes: usize = sc
                .apps
                .iter()
                .map(|app| match AppKind::parse(app).unwrap().size_axis() {
                    Some("n") => sc.ns.len(),
                    Some("block") => sc.blocks.len(),
                    Some("depth") => sc.depths.len(),
                    Some("jobs") => sc.jobs.len(),
                    _ => 1,
                })
                .sum();
            for engine in &sc.engines {
                let variants = if engine == "sim" {
                    let clusters: usize = sc
                        .platforms
                        .iter()
                        .map(|p| if p.contains('+') { 1 } else { sc.machines.len() })
                        .sum();
                    clusters
                        * sc.organizations.len()
                        * sc.protocols.len()
                        * sc.networks.len()
                        * sc.gm_windows.len()
                        * cache_modes
                } else {
                    sc.transports.len() * sc.schedulers.len() * sc.fault_plans.len() * cache_modes
                };
                want += sizes * variants * sc.procs.len() * seeds;
            }
        }
        prop_assert_eq!(runs.len(), want);
        // Every axis is in the id: runs that differ anywhere but in `idx`
        // differ in (cell, seed). (A generated axis may list a value twice.)
        let ids: BTreeSet<_> = runs.iter().map(|r| (r.cell_id(), r.seed)).collect();
        let unindexed = |r: &dse_sweep::RunSpec| format!("{:?}", dse_sweep::RunSpec { idx: 0, ..r.clone() });
        let distinct: BTreeSet<_> = runs.iter().map(unindexed).collect();
        prop_assert_eq!(ids.len(), distinct.len());
    }

    #[test]
    fn cell_id_excludes_exactly_the_seed(spec in sweep_spec()) {
        let runs = expand(&spec);
        for r in &runs {
            let id = r.cell_id();
            let mut reseeded = r.clone();
            reseeded.seed ^= 1;
            prop_assert_eq!(&reseeded.cell_id(), &id);
            prop_assert!(id.ends_with(&format!(".p{}", r.procs)), "{}", id);
            prop_assert!(
                id.starts_with(&format!("{}.{}.{}.", r.scenario, r.app, r.engine)),
                "{}", id
            );
        }
    }
}
