//! Scenario specs: the TOML sweep description, its normalized in-memory
//! form, and the expansion into a flat, deterministic run matrix.
//!
//! A spec is a `[sweep]` header, one or more `[[scenario]]` blocks and,
//! optionally, `[[figure]]` blocks that say how rows become the paper's
//! figures. Every scenario field that names an axis (`app`, `engine`,
//! `transport`, `scheduler`, `platform`, `machines`, `organization`,
//! `protocol`, `network`, `procs`, `gm_window`, `cache`, `gm_mode`,
//! `fault_plan`, and the size parameters `n`, `block`, `depth`, `jobs`)
//! accepts either a scalar or an array; scalars are normalized to
//! one-element arrays.
//! Expansion is the Cartesian product of the axes with the seed list,
//! ordered exactly as written — the run index is stable, which is what
//! lets a subprocess re-derive its own `RunSpec` from `(spec file, index)`.
//!
//! Engine-specific axes: `transport`/`fault_plan`/`scheduler` only vary
//! live runs; `platform`, `machines`, `organization`, `protocol`,
//! `network` and `gm_window` only vary simulated runs; `cache` and
//! `gm_mode` apply to both engines.
//! An axis that does not apply to the run being expanded is pinned to
//! its neutral value rather than multiplied, so a mixed
//! `engine = ["sim", "live"]` scenario produces no meaningless duplicate
//! cells. `gm_mode` is likewise pinned to `wi` whenever the cache is off —
//! the coherence protocol only acts on cached replicas — `machines` is
//! pinned when `platform` is a per-machine list (which brings its own
//! count), and a size parameter only multiplies the apps that read it
//! (`n`: gauss, gauss-mp, matmul; `block` and `size`: dct; `depth`:
//! othello; `jobs`: knights).
//!
//! `dse-run <app> --key value ...` is a one-scenario spec at the paper
//! seed ([`one_cell`]): the same parse, validation and expansion, and a
//! flag whose value expansion pins away is an error.

use crate::build::{self, AppKind, AppParams};
use crate::checks;
use crate::toml::{self, Table, Value};

/// Default per-run hard timeout.
pub const DEFAULT_TIMEOUT_MS: u64 = 60_000;

/// A parsed, normalized sweep spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Sweep name (labels output files and the aggregate table).
    pub name: String,
    /// Per-run hard timeout in milliseconds.
    pub timeout_ms: u64,
    /// Seed list applied to every scenario that has no override.
    pub seeds: Vec<u64>,
    /// Scenario blocks in file order.
    pub scenarios: Vec<Scenario>,
    /// Figure declarations in file order (may be empty).
    pub figures: Vec<FigureSpec>,
}

/// One `[[scenario]]` block, fully normalized (every axis an array, every
/// scalar filled with its default: `gauss` on the simulated paper cluster —
/// four of six SunOS machines, linked library, TCP/IP on the 10 Mb/s bus,
/// no cache — at `dse-run`'s default sizes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Scenario name; the leading component of every cell id.
    pub name: String,
    /// Applications to run (axis).
    pub apps: Vec<String>,
    /// Engines: `sim` and/or `live` (axis).
    pub engines: Vec<String>,
    /// Live-engine wire transports (axis; ignored for sim runs).
    pub transports: Vec<String>,
    /// Live-engine kernel schedulers, `threads` | `tasks` (axis; ignored
    /// for sim runs).
    pub schedulers: Vec<String>,
    /// Simulated platforms: a preset id, or a `+`-joined per-machine list
    /// of them (axis; ignored for live runs).
    pub platforms: Vec<String>,
    /// PE counts (axis).
    pub procs: Vec<usize>,
    /// GM pipeline windows; `0` means the engine default (axis, sim only).
    pub gm_windows: Vec<usize>,
    /// GM cache on/off (axis, both engines).
    pub caches: Vec<bool>,
    /// GM coherence modes, `wi` | `rc` (axis, both engines; pinned to
    /// `wi` when the cache is off).
    pub gm_modes: Vec<String>,
    /// Fault-plan specs; `""` means a clean mesh (axis, live only).
    pub fault_plans: Vec<String>,
    /// Seed override; empty uses the sweep-level list.
    pub seeds: Vec<u64>,
    /// Simulated machine counts (axis, sim only).
    pub machines: Vec<usize>,
    /// Simulated software organizations, `linked` | `legacy` (axis, sim
    /// only).
    pub organizations: Vec<String>,
    /// Simulated protocol stacks, `tcp` | `udp` | `raw` (axis, sim only).
    pub protocols: Vec<String>,
    /// Simulated interconnects, `bus10` | `switched100` (axis, sim only).
    pub networks: Vec<String>,
    /// Per-run timeout override; `0` uses the sweep-level value.
    pub timeout_ms: u64,
    /// Gauss-Seidel / matmul dimensions (axis for those apps).
    pub ns: Vec<usize>,
    /// DCT block sizes (axis for dct).
    pub blocks: Vec<usize>,
    /// DCT image size override (`0` keeps the paper's 512).
    pub size: usize,
    /// Othello search depths (axis for othello).
    pub depths: Vec<u32>,
    /// Knight's-Tour job counts (axis for knights).
    pub jobs: Vec<usize>,
}

/// One `[[figure]]` block: how rows of the sweep become one CSV. The
/// rows of the scenarios in `from` that pass `filter` are grouped into
/// one series per distinct value of the `series` axes, each a curve of
/// execution time (or of `T(1)/T(p)`) over the `x` axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigureSpec {
    /// Figure id: the CSV is `<id>.csv`.
    pub id: String,
    /// Scenarios whose rows the figure reads, in series order.
    pub from: Vec<String>,
    /// `(axis, value)` pairs a row must match (`where = ["n=400"]`).
    pub filter: Vec<(String, String)>,
    /// The x axis.
    pub x: String,
    /// Header of the CSV's x column (defaults to the axis name).
    pub xlabel: String,
    /// The axes whose values name a series.
    pub series: Vec<String>,
    /// Series label template, one `{}` per series axis (`"N={}"`).
    pub label: String,
    /// Explicit series labels in order of appearance; replaces the
    /// template where the axis values are not the published names.
    pub labels: Vec<String>,
    /// Plot `T(x = 1) / T(x)` of each series instead of seconds.
    pub speedup: bool,
    /// Name of the shape check run on the figure (`""`: none).
    pub check: String,
}

/// One fully-resolved run: a single cell instance at a single seed.
/// Fields that do not apply to the run's engine or app hold their type's
/// default.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunSpec {
    /// Index in the expanded matrix (stable across re-parses of the spec).
    pub idx: usize,
    /// Owning scenario name.
    pub scenario: String,
    /// Application name.
    pub app: String,
    /// `sim` or `live`.
    pub engine: String,
    /// Live transport.
    pub transport: String,
    /// Live kernel scheduler, `threads` | `tasks`.
    pub scheduler: String,
    /// Simulated platform id or per-machine list.
    pub platform: String,
    /// PE count.
    pub procs: usize,
    /// Simulated machine count (`0` under a per-machine platform list).
    pub machines: usize,
    /// Simulated software organization.
    pub organization: String,
    /// Simulated protocol stack.
    pub protocol: String,
    /// Simulated interconnect.
    pub network: String,
    /// GM pipeline window (`0` = engine default).
    pub gm_window: usize,
    /// GM cache enabled.
    pub cache: bool,
    /// GM coherence mode (`wi` | `rc`).
    pub gm_mode: String,
    /// Fault-plan spec (`""` = clean mesh; live only).
    pub fault_plan: String,
    /// Seed for this run.
    pub seed: u64,
    /// Application parameters.
    pub params: AppParams,
    /// Cell-id component of the size parameter, when the scenario sweeps
    /// it (`.n400`); empty otherwise, which keeps the keys of committed
    /// baselines (one size per scenario) stable.
    pub swept: String,
    /// Hard wall-clock timeout for this run.
    pub timeout_ms: u64,
}

impl RunSpec {
    /// The cell id: every axis except the seed, joined into a stable
    /// dotted key. Runs of one cell differ only by seed; aggregation and
    /// baseline diffing group by this id. Axes added after the first
    /// baselines suffix the id only at a non-default value, so those
    /// baselines keep their cell keys.
    pub fn cell_id(&self) -> String {
        let mut variant = if self.engine == "sim" {
            let mut v = format!(
                "{}.w{}.c{}",
                self.platform,
                self.gm_window,
                u8::from(self.cache)
            );
            if ![0, dse_platform::PAPER_MACHINES].contains(&self.machines) {
                v.push_str(&format!(".m{}", self.machines));
            }
            for (value, default) in [
                (&self.organization, "linked"),
                (&self.protocol, "tcp"),
                (&self.network, "bus10"),
            ] {
                if value != default {
                    v.push_str(&format!(".{value}"));
                }
            }
            v
        } else {
            // Live ids carry the cache axis only when it is on.
            let mut v = if self.fault_plan.is_empty() {
                self.transport.clone()
            } else {
                format!("{}.f-{}", self.transport, sanitize(&self.fault_plan))
            };
            if self.cache {
                v.push_str(".c1");
            }
            if !self.scheduler.is_empty() && self.scheduler != "threads" {
                v.push_str(&format!(".{}", self.scheduler));
            }
            v
        };
        // Both engines: a non-default coherence mode suffixes the id.
        if self.gm_mode != "wi" {
            variant.push_str(&format!(".{}", self.gm_mode));
        }
        format!(
            "{}.{}.{}.{}{}.p{}",
            self.scenario, self.app, self.engine, variant, self.swept, self.procs
        )
    }

    /// The run's value on the named axis, as text (what a figure's `x`,
    /// `series` and `where` keys read); `None` for an unknown axis.
    pub fn axis(&self, name: &str) -> Option<String> {
        Some(match name {
            "scenario" => self.scenario.clone(),
            "app" => self.app.clone(),
            "engine" => self.engine.clone(),
            "transport" => self.transport.clone(),
            "scheduler" => self.scheduler.clone(),
            "platform" => self.platform.clone(),
            "procs" => self.procs.to_string(),
            "machines" => self.machines.to_string(),
            "organization" => self.organization.clone(),
            "protocol" => self.protocol.clone(),
            "network" => self.network.clone(),
            "gm_window" => self.gm_window.to_string(),
            "cache" => self.cache.to_string(),
            "gm_mode" => self.gm_mode.clone(),
            "fault_plan" => self.fault_plan.clone(),
            "seed" => self.seed.to_string(),
            "n" => self.params.n.to_string(),
            "block" => self.params.block.to_string(),
            "size" => self.params.size.to_string(),
            "depth" => self.params.depth.to_string(),
            "jobs" => self.params.jobs.to_string(),
            _ => return None,
        })
    }
}

/// Fold an arbitrary axis value (e.g. a fault-plan spec) into a cell-id
/// component: alphanumerics pass through, everything else becomes `-`.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

// ---------------------------------------------------------------------------
// parsing

/// The value at `key` as `read` accepts it (`kind` names what it accepts).
fn scalar<T>(
    t: &Table,
    key: &str,
    kind: &str,
    read: impl Fn(&Value) -> Option<T>,
) -> Result<Option<T>, String> {
    let read = |v| read(v).ok_or_else(|| format!("{key}: expected {kind}"));
    t.get(key).map(read).transpose()
}

/// A scalar or an array whose every element `read` accepts.
fn list<T>(
    t: &Table,
    key: &str,
    kind: &str,
    read: impl Fn(&Value) -> Option<T>,
) -> Result<Option<Vec<T>>, String> {
    scalar(t, key, kind, |v| {
        v.as_list().into_iter().map(&read).collect()
    })
}

fn as_string(v: &Value) -> Option<String> {
    v.as_str().map(str::to_string)
}

fn as_nat<T: TryFrom<i64>>(v: &Value) -> Option<T> {
    v.as_int().and_then(|n| T::try_from(n).ok())
}

fn want_str(t: &Table, key: &str) -> Result<Option<String>, String> {
    scalar(t, key, "a string", as_string)
}

fn want_u64(t: &Table, key: &str) -> Result<Option<u64>, String> {
    scalar(t, key, "a non-negative integer", as_nat)
}

/// [`list`], as an axis: present means non-empty.
fn axis<T>(
    t: &Table,
    key: &str,
    kind: &str,
    read: impl Fn(&Value) -> Option<T>,
) -> Result<Option<Vec<T>>, String> {
    match list(t, key, kind, read)? {
        Some(items) if items.is_empty() => Err(format!("{key}: axis must not be empty")),
        items => Ok(items),
    }
}

/// A string axis; absent means the one `default`.
fn strs_or(t: &Table, key: &str, default: &str) -> Result<Vec<String>, String> {
    Ok(axis(t, key, "string(s)", as_string)?.unwrap_or_else(|| vec![default.to_string()]))
}

/// A numeric axis; absent means the one `default`.
fn nats_or<T: TryFrom<i64>>(t: &Table, key: &str, default: T) -> Result<Vec<T>, String> {
    Ok(axis(t, key, "non-negative integer(s)", as_nat)?.unwrap_or_else(|| vec![default]))
}

const SWEEP_KEYS: &str = "name timeout_ms seeds";
const SCENARIO_KEYS: &str = "name app engine transport scheduler platform procs gm_window cache \
    gm_mode fault_plan seeds machines organization protocol network timeout_ms n block size depth jobs";
const FIGURE_KEYS: &str = "id from where x xlabel series label labels value check";

fn reject_unknown(t: &Table, allowed: &str, what: &str) -> Result<(), String> {
    match t
        .keys()
        .find(|key| !allowed.split_whitespace().any(|k| k == *key))
    {
        Some(key) => Err(format!("{what}: unknown key '{key}'")),
        None => Ok(()),
    }
}

/// Parse a sweep spec from TOML source. All fields are validated here —
/// unknown keys, unknown apps/engines/transports/platforms, empty axes,
/// figures that name no scenario or no axis — so expansion cannot fail
/// later.
pub fn parse_spec(src: &str) -> Result<SweepSpec, String> {
    let doc = toml::parse(src)?;
    if let Some(key) = doc.tables.get("").and_then(|root| root.keys().next()) {
        return Err(format!("top-level keys must live under [sweep]: '{key}'"));
    }
    if let Some(name) = doc
        .tables
        .keys()
        .find(|name| !name.is_empty() && *name != "sweep")
    {
        return Err(format!("unknown table [{name}]"));
    }
    if let Some(name) = doc
        .arrays
        .keys()
        .find(|name| *name != "scenario" && *name != "figure")
    {
        return Err(format!("unknown table array [[{name}]]"));
    }
    let sweep = doc.table("sweep");
    reject_unknown(&sweep, SWEEP_KEYS, "[sweep]")?;
    let mut spec = SweepSpec {
        name: want_str(&sweep, "name")?.unwrap_or_else(|| "sweep".into()),
        timeout_ms: want_u64(&sweep, "timeout_ms")?.unwrap_or(DEFAULT_TIMEOUT_MS),
        seeds: nats_or(&sweep, "seeds", 1)?,
        scenarios: Vec::new(),
        figures: Vec::new(),
    };
    if spec.timeout_ms == 0 {
        return Err("[sweep] timeout_ms: must be positive".into());
    }
    let blocks = doc
        .arrays
        .get("scenario")
        .ok_or("spec has no [[scenario]] blocks")?;
    for (i, t) in blocks.iter().enumerate() {
        let what = format!("[[scenario]] #{}", i + 1);
        spec.scenarios
            .push(parse_scenario(t, &what, format!("s{}", i + 1))?);
    }
    for (i, t) in doc.arrays.get("figure").into_iter().flatten().enumerate() {
        let what = format!("[[figure]] #{}", i + 1);
        reject_unknown(t, FIGURE_KEYS, &what)?;
        let fig = parse_figure(t).map_err(|e| format!("{what}: {e}"))?;
        validate_figure(&fig, &spec.scenarios).map_err(|e| format!("{what} ({}): {e}", fig.id))?;
        spec.figures.push(fig);
    }
    Ok(spec)
}

/// The one run a table of scalar `[[scenario]]` keys describes at `seed`:
/// the same parse, validation and expansion as a spec's scenario block,
/// which pins every key that does not apply to the run. This is
/// `dse-run`'s front door, where each flag is one key.
pub fn one_cell(t: &Table, seed: u64) -> Result<RunSpec, String> {
    let spec = SweepSpec {
        name: "dse-run".into(),
        timeout_ms: DEFAULT_TIMEOUT_MS,
        seeds: vec![seed],
        scenarios: vec![parse_scenario(t, "dse-run", "run".into())?],
        figures: Vec::new(),
    };
    match expand(&spec).as_slice() {
        [run] => Ok(run.clone()),
        runs => Err(format!("the keys describe {} runs, not one", runs.len())),
    }
}

/// Parse and validate one `[[scenario]]` table: `what` names it in
/// errors, `name` is its name when it gives none.
fn parse_scenario(t: &Table, what: &str, name: String) -> Result<Scenario, String> {
    reject_unknown(t, SCENARIO_KEYS, what)?;
    let sizes = AppParams::default();
    let sc = Scenario {
        name: want_str(t, "name")?.unwrap_or(name),
        apps: strs_or(t, "app", "gauss")?,
        engines: strs_or(t, "engine", "sim")?,
        transports: strs_or(t, "transport", "channel")?,
        schedulers: strs_or(t, "scheduler", "threads")?,
        platforms: strs_or(t, "platform", "sunos")?,
        procs: nats_or(t, "procs", 4)?,
        gm_windows: nats_or(t, "gm_window", 0)?,
        caches: axis(t, "cache", "boolean(s)", Value::as_bool)?.unwrap_or_else(|| vec![false]),
        gm_modes: strs_or(t, "gm_mode", "wi")?,
        fault_plans: strs_or(t, "fault_plan", "")?,
        seeds: axis(t, "seeds", "non-negative integer(s)", as_nat)?.unwrap_or_default(),
        machines: nats_or(t, "machines", dse_platform::PAPER_MACHINES)?,
        organizations: strs_or(t, "organization", "linked")?,
        protocols: strs_or(t, "protocol", "tcp")?,
        networks: strs_or(t, "network", "bus10")?,
        timeout_ms: want_u64(t, "timeout_ms")?.unwrap_or(0),
        ns: nats_or(t, "n", sizes.n)?,
        blocks: nats_or(t, "block", sizes.block)?,
        size: want_u64(t, "size")?.map_or(sizes.size, |n| n as usize),
        depths: nats_or(t, "depth", sizes.depth)?,
        jobs: nats_or(t, "jobs", sizes.jobs)?,
    };
    if sc.name.is_empty() || sc.name.contains('.') || sc.name.contains(char::is_whitespace) {
        return Err(format!("{what}: bad scenario name '{}'", sc.name));
    }
    validate_scenario(what, &sc)?;
    Ok(sc)
}

fn parse_figure(t: &Table) -> Result<FigureSpec, String> {
    let strings = |key: &str| list(t, key, "string(s)", as_string).map(Option::unwrap_or_default);
    let filter = strings("where")?
        .iter()
        .map(|pair| {
            let (axis, value) = pair.split_once('=')?;
            Some((axis.trim().to_string(), value.trim().to_string()))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("where: expected \"axis=value\" strings")?;
    let x = want_str(t, "x")?.ok_or("x: the figure needs an x axis")?;
    let series = strings("series")?;
    Ok(FigureSpec {
        id: want_str(t, "id")?.ok_or("id: the figure needs an id")?,
        from: strings("from")?,
        filter,
        xlabel: want_str(t, "xlabel")?.unwrap_or_else(|| x.clone()),
        x,
        label: want_str(t, "label")?.unwrap_or_else(|| vec!["{}"; series.len()].join("-")),
        series,
        labels: strings("labels")?,
        speedup: match want_str(t, "value")?.as_deref() {
            None | Some("secs") => false,
            Some("speedup") => true,
            Some(other) => return Err(format!("value '{other}' is not secs or speedup")),
        },
        check: want_str(t, "check")?.unwrap_or_default(),
    })
}

fn validate_figure(fig: &FigureSpec, scenarios: &[Scenario]) -> Result<(), String> {
    if fig.id.is_empty() || fig.id.contains(['/', '\\']) {
        return Err("the id must be a file name".into());
    }
    if fig.from.is_empty() || fig.series.is_empty() {
        return Err("from and series must each name at least one entry".into());
    }
    if let Some(name) = fig
        .from
        .iter()
        .find(|name| !scenarios.iter().any(|sc| sc.name == **name))
    {
        return Err(format!("from: no scenario '{name}'"));
    }
    let axes = std::iter::once(&fig.x)
        .chain(&fig.series)
        .chain(fig.filter.iter().map(|(axis, _)| axis));
    if let Some(axis) = axes
        .into_iter()
        .find(|axis| RunSpec::default().axis(axis).is_none())
    {
        return Err(format!("'{axis}' is not an axis"));
    }
    if fig.labels.is_empty() && fig.label.matches("{}").count() != fig.series.len() {
        return Err(format!(
            "label '{}' needs one {{}} per series axis ({})",
            fig.label,
            fig.series.len()
        ));
    }
    if !fig.check.is_empty() && checks::shape_check(&fig.check).is_none() {
        return Err(format!("check '{}' is not a shape check", fig.check));
    }
    Ok(())
}

fn validate_scenario(what: &str, sc: &Scenario) -> Result<(), String> {
    let at = |e: String| format!("{what}: {e}");
    for app in &sc.apps {
        let kind = AppKind::parse(app).map_err(at)?;
        if sc.engines.iter().any(|e| e == "live") && !kind.live_ok() {
            return Err(format!(
                "{what}: app '{app}' does not run on the live engine"
            ));
        }
    }
    let engine = |e: &str| match e {
        "sim" | "live" => Ok(()),
        _ => Err(format!("engine '{e}' is not sim or live")),
    };
    let plan = |p: &str| match p {
        "" => Ok(()),
        _ => dse_live::FaultPlan::parse(p)
            .map(drop)
            .map_err(|e| format!("fault_plan: {e}")),
    };
    type Check<'a> = &'a dyn Fn(&str) -> Result<(), String>;
    let named: [(&[String], Check); 9] = [
        (&sc.engines, &engine),
        (&sc.transports, &|v| build::transport_kind(v).map(drop)),
        (&sc.schedulers, &|v| build::check_scheduler(v).map(drop)),
        (&sc.platforms, &|v| build::platforms(v).map(drop)),
        (&sc.gm_modes, &|v| build::check_gm_mode(v).map(drop)),
        (&sc.fault_plans, &plan),
        (&sc.organizations, &|v| {
            build::check_organization(v).map(drop)
        }),
        (&sc.protocols, &|v| build::check_protocol(v).map(drop)),
        (&sc.networks, &|v| build::check_network(v).map(drop)),
    ];
    for (values, check) in named {
        values.iter().try_for_each(|v| check(v)).map_err(at)?;
    }
    let zero = [
        ("procs", sc.procs.contains(&0)),
        ("machines", sc.machines.contains(&0)),
        ("n", sc.ns.contains(&0)),
        ("block", sc.blocks.contains(&0)),
        ("depth", sc.depths.contains(&0)),
        ("jobs", sc.jobs.contains(&0)),
    ];
    if let Some((key, _)) = zero.iter().find(|(_, zero)| *zero) {
        return Err(format!("{what}: {key} must be positive"));
    }
    // A PE is a `NodeId`, a u16, on both engines.
    if sc.procs.iter().any(|&p| p > usize::from(u16::MAX)) {
        return Err(format!("{what}: procs must be at most {}", u16::MAX));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// expansion

/// `runs` × one axis, the new axis innermost: each run the axis `applies`
/// to once per value, the others as they are (pinned, not multiplied).
fn cross<T: Clone>(
    runs: Vec<RunSpec>,
    values: &[T],
    applies: impl Fn(&RunSpec) -> bool,
    set: impl Fn(&mut RunSpec, T),
) -> Vec<RunSpec> {
    let mut out = Vec::with_capacity(runs.len() * values.len());
    for run in runs {
        if !applies(&run) {
            out.push(run);
            continue;
        }
        for value in values {
            let mut next = run.clone();
            set(&mut next, value.clone());
            out.push(next);
        }
    }
    out
}

/// Expand a spec into its flat run matrix. The order is deterministic:
/// scenarios in file order, then app, engine, the simulated cluster's
/// axes, the live engine's, cache and coherence mode, the size
/// parameters, procs, and seeds, each innermost-last.
pub fn expand(spec: &SweepSpec) -> Vec<RunSpec> {
    let mut matrix = Vec::new();
    for sc in &spec.scenarios {
        let sim = |r: &RunSpec| r.engine == "sim";
        let live = |r: &RunSpec| r.engine == "live";
        let any = |_: &RunSpec| true;
        let reads = |axis: &'static str| {
            move |r: &RunSpec| AppKind::parse(&r.app).is_ok_and(|a| a.size_axis() == Some(axis))
        };
        // What a run holds on an axis that does not apply to it: `wi`
        // (the coherence mode only acts on cached replicas, so `cache =
        // [false, true]` x `gm_mode = ["wi", "rc"]` is three cells, not
        // four), 0 for a size the app does not read (no size is 0), and
        // the type's default everywhere else.
        let runs = vec![RunSpec {
            scenario: sc.name.clone(),
            gm_mode: "wi".into(),
            params: AppParams {
                n: 0,
                block: 0,
                size: 0,
                depth: 0,
                jobs: 0,
            },
            timeout_ms: match sc.timeout_ms {
                0 => spec.timeout_ms,
                ms => ms,
            },
            ..RunSpec::default()
        }];
        // A size parameter enters the cell id only where the scenario sweeps it.
        let swept = |values: usize, tag: String| if values > 1 { tag } else { String::new() };
        let runs = cross(runs, &sc.apps, any, |r, v| r.app = v);
        let runs = cross(runs, &sc.engines, any, |r, v| r.engine = v);
        let runs = cross(runs, &sc.platforms, sim, |r, v| r.platform = v);
        // A per-machine platform list is its own machine count.
        let counted = |r: &RunSpec| sim(r) && !r.platform.contains('+');
        let runs = cross(runs, &sc.machines, counted, |r, v| r.machines = v);
        let runs = cross(runs, &sc.organizations, sim, |r, v| r.organization = v);
        let runs = cross(runs, &sc.protocols, sim, |r, v| r.protocol = v);
        let runs = cross(runs, &sc.networks, sim, |r, v| r.network = v);
        let runs = cross(runs, &sc.gm_windows, sim, |r, v| r.gm_window = v);
        let runs = cross(runs, &sc.transports, live, |r, v| r.transport = v);
        let runs = cross(runs, &sc.schedulers, live, |r, v| r.scheduler = v);
        let runs = cross(runs, &sc.caches, any, |r, v| r.cache = v);
        let runs = cross(runs, &sc.gm_modes, |r| r.cache, |r, v| r.gm_mode = v);
        let runs = cross(runs, &sc.fault_plans, live, |r, v| r.fault_plan = v);
        let runs = cross(runs, &sc.ns, reads("n"), |r, v| {
            (r.params.n, r.swept) = (v, swept(sc.ns.len(), format!(".n{v}")));
        });
        // The image size is read with the block size, by dct alone.
        let runs = cross(runs, &sc.blocks, reads("block"), |r, v| {
            (r.params.block, r.params.size) = (v, sc.size);
            r.swept = swept(sc.blocks.len(), format!(".b{v}"));
        });
        let runs = cross(runs, &sc.depths, reads("depth"), |r, v| {
            (r.params.depth, r.swept) = (v, swept(sc.depths.len(), format!(".d{v}")));
        });
        let runs = cross(runs, &sc.jobs, reads("jobs"), |r, v| {
            (r.params.jobs, r.swept) = (v, swept(sc.jobs.len(), format!(".j{v}")));
        });
        let runs = cross(runs, &sc.procs, any, |r, v| r.procs = v);
        let seeds = if sc.seeds.is_empty() {
            &spec.seeds
        } else {
            &sc.seeds
        };
        for mut run in cross(runs, seeds, any, |r, v| r.seed = v) {
            run.idx = matrix.len();
            matrix.push(run);
        }
    }
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
[sweep]
name = "demo"
timeout_ms = 5000
seeds = [1, 2]

[[scenario]]
name = "gs"
app = "gauss"
engine = ["sim", "live"]
transport = ["channel", "tcp"]
platform = ["sunos", "linux"]
procs = [2, 4]
n = 64
"#;

    #[test]
    fn parse_fills_defaults_and_normalizes() {
        let spec = parse_spec(SPEC).unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.timeout_ms, 5000);
        assert_eq!(spec.seeds, vec![1, 2]);
        let sc = &spec.scenarios[0];
        assert_eq!(sc.apps, vec!["gauss"]);
        assert_eq!(sc.engines, vec!["sim", "live"]);
        assert_eq!(sc.gm_windows, vec![0]);
        assert_eq!(sc.caches, vec![false]);
        assert_eq!(sc.ns, vec![64]);
        assert_eq!(sc.machines, vec![6]);
        assert_eq!(sc.networks, vec!["bus10"]);
        assert!(spec.figures.is_empty());
    }

    #[test]
    fn expansion_multiplies_only_applicable_axes() {
        let spec = parse_spec(SPEC).unwrap();
        let runs = expand(&spec);
        // sim: 2 platforms x 2 procs x 2 seeds = 8; live: 2 transports x
        // 2 procs x 2 seeds = 8.
        assert_eq!(runs.len(), 16);
        let sim: Vec<_> = runs.iter().filter(|r| r.engine == "sim").collect();
        let live: Vec<_> = runs.iter().filter(|r| r.engine == "live").collect();
        assert_eq!(sim.len(), 8);
        assert_eq!(live.len(), 8);
        assert!(sim
            .iter()
            .all(|r| r.transport.is_empty() && !r.platform.is_empty()));
        assert!(live
            .iter()
            .all(|r| r.platform.is_empty() && !r.transport.is_empty()));
        // Indices are dense and ordered.
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.idx, i);
        }
    }

    #[test]
    fn cell_ids_group_seeds() {
        let spec = parse_spec(SPEC).unwrap();
        let runs = expand(&spec);
        let mut cells: Vec<String> = runs.iter().map(RunSpec::cell_id).collect();
        cells.dedup();
        // 16 runs at 2 seeds each -> 8 distinct cells, adjacent in order.
        assert_eq!(cells.len(), 8);
        assert!(cells.contains(&"gs.gauss.sim.sunos.w0.c0.p2".to_string()));
        assert!(cells.contains(&"gs.gauss.live.tcp.p4".to_string()));
    }

    #[test]
    fn unknown_keys_and_values_rejected() {
        for (src, what) in [
            ("[[scenario]]\nfrobnicate = 1", "unknown key"),
            ("[[scenario]]\napp = \"warp\"", "warp"),
            ("[[scenario]]\nengine = \"warp\"", "not sim or live"),
            ("[[scenario]]\nprocs = [0]", "positive"),
            ("[[scenario]]\nprocs = [4, 70000]", "at most 65535"),
            ("[[scenario]]\nblock = [8, 0]", "block must be positive"),
            ("[sweep]\nseeds = []\n[[scenario]]\n", "empty"),
            ("", "no [[scenario]]"),
            ("[typo]\n[[scenario]]\n", "unknown table"),
        ] {
            let err = parse_spec(src).unwrap_err();
            assert!(err.contains(what), "{src}: {err}");
        }
    }

    #[test]
    fn one_cell_is_one_pinned_run_at_the_given_seed() -> Result<(), String> {
        let keys = |pairs: &[(&str, Value)]| -> Table {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect()
        };
        let dct = one_cell(
            &keys(&[
                ("app", Value::Str("dct".into())),
                ("size", Value::Int(128)),
                ("transport", Value::Str("tcp".into())),
            ]),
            9,
        )?;
        assert_eq!((dct.seed, dct.params.size, dct.procs), (9, 128, 4));
        // Pinned: no wire on the simulator, no N for dct, and gauss reads
        // no image size.
        assert_eq!(dct.axis("transport").as_deref(), Some(""));
        assert_eq!(dct.axis("n").as_deref(), Some("0"));
        let gauss = one_cell(&keys(&[("size", Value::Int(128))]), 9)?;
        assert_eq!(gauss.axis("size").as_deref(), Some("0"));
        // The same validation as a spec's block, and one run only.
        let err = one_cell(&keys(&[("procs", Value::Int(0))]), 9).unwrap_err();
        assert!(err.contains("procs must be positive"), "{err}");
        let two = Value::Array(vec![Value::Int(2), Value::Int(4)]);
        let err = one_cell(&keys(&[("procs", two)]), 9).unwrap_err();
        assert!(err.contains("2 runs, not one"), "{err}");
        Ok(())
    }

    #[test]
    fn gm_mode_axis_validates_pins_and_suffixes() -> Result<(), String> {
        // Unknown modes fail at parse time.
        let err = parse_spec("[[scenario]]\ngm_mode = \"mesi\"").unwrap_err();
        assert!(err.contains("not wi or rc"), "{err}");
        // With the cache off the mode is pinned to wi: 1 (c0, wi) +
        // 2 (c1, wi|rc) = 3 cells, and only non-defaults suffix the id.
        let ids = cells(
            "[[scenario]]\nname = \"m\"\napp = \"matmul\"\nprocs = [2]\nn = 16\n\
             cache = [false, true]\ngm_mode = [\"wi\", \"rc\"]\n",
        )?;
        let want = ["w0.c0", "w0.c1", "w0.c1.rc"];
        assert_eq!(ids, want.map(|v| format!("m.matmul.sim.sunos.{v}.p2")));
        // Live runs carry the axis too, with the same suffix rules.
        let ids = cells(
            "[[scenario]]\nname = \"m\"\napp = \"matmul\"\nengine = \"live\"\nprocs = [2]\n\
             n = 16\ncache = true\ngm_mode = [\"wi\", \"rc\"]\n",
        )?;
        assert_eq!(
            ids,
            ["c1", "c1.rc"].map(|v| format!("m.matmul.live.channel.{v}.p2"))
        );
        Ok(())
    }

    #[test]
    fn scheduler_axis_validates_pins_and_suffixes() -> Result<(), String> {
        // Unknown schedulers fail at parse time.
        let err = parse_spec("[[scenario]]\nscheduler = \"fibers\"").unwrap_err();
        assert!(err.contains("not threads or tasks"), "{err}");
        // The axis only multiplies live runs; sim cells are unchanged and
        // only the non-default value suffixes the id, so pre-scheduler
        // baseline keys survive.
        let runs = expand(&parse_spec(
            "[[scenario]]\nname = \"s\"\napp = \"matmul\"\nengine = [\"sim\", \"live\"]\n\
             procs = [2]\nn = 16\nscheduler = [\"threads\", \"tasks\"]\n",
        )?);
        let ids: Vec<String> = runs.iter().map(RunSpec::cell_id).collect();
        let want = ["sim.sunos.w0.c0", "live.channel", "live.channel.tasks"];
        assert_eq!(ids, want.map(|v| format!("s.matmul.{v}.p2")));
        assert!(runs[0].scheduler.is_empty());
        Ok(())
    }

    #[test]
    fn gauss_mp_with_live_engine_rejected() {
        let err = parse_spec("[[scenario]]\napp = \"gauss-mp\"\nengine = [\"sim\", \"live\"]")
            .unwrap_err();
        assert!(err.contains("does not run on the live engine"), "{err}");
    }

    #[test]
    fn fault_plan_axis_validated_and_in_cell_id() -> Result<(), String> {
        let err =
            parse_spec("[[scenario]]\nengine = \"live\"\nfault_plan = \"frob=1\"").unwrap_err();
        assert!(err.contains("fault_plan"), "{err}");
        let ids = cells(
            "[[scenario]]\nname = \"f\"\nengine = \"live\"\nfault_plan = [\"\", \"seed=7,drop=10\"]",
        )?;
        let want = [
            "f.gauss.live.channel.p4",
            "f.gauss.live.channel.f-seed-7-drop-10.p4",
        ];
        assert_eq!(ids, want);
        Ok(())
    }

    fn cells(src: &str) -> Result<Vec<String>, String> {
        Ok(expand(&parse_spec(src)?)
            .iter()
            .map(RunSpec::cell_id)
            .collect())
    }

    #[test]
    fn size_axes_multiply_the_apps_that_read_them_and_suffix_swept_ids() -> Result<(), String> {
        // `n` varies gauss and matmul, `block` varies dct; neither varies
        // the other's runs, and a one-value axis leaves the id alone.
        let ids = cells(
            "[[scenario]]\nname = \"s\"\napp = [\"gauss\", \"dct\", \"scan\"]\nprocs = 2\n\
             n = [100, 200]\nblock = [4, 8]\ndepth = [3, 4]\njobs = 16\n",
        )?;
        assert_eq!(
            ids,
            vec![
                "s.gauss.sim.sunos.w0.c0.n100.p2",
                "s.gauss.sim.sunos.w0.c0.n200.p2",
                "s.dct.sim.sunos.w0.c0.b4.p2",
                "s.dct.sim.sunos.w0.c0.b8.p2",
                "s.scan.sim.sunos.w0.c0.p2",
            ]
        );
        let ids = cells(
            "[[scenario]]\nname = \"s\"\napp = [\"othello\", \"knights\"]\nengine = \"live\"\n\
             procs = 2\ndepth = [3, 4]\njobs = 8\n",
        )?;
        assert_eq!(
            ids,
            vec![
                "s.othello.live.channel.d3.p2",
                "s.othello.live.channel.d4.p2",
                "s.knights.live.channel.p2",
            ]
        );
        Ok(())
    }

    #[test]
    fn simulated_cluster_axes_validate_multiply_and_suffix() -> Result<(), String> {
        for (line, what) in [
            ("network = \"token-ring\"", "not bus10 or switched100"),
            ("organization = \"flat\"", "not linked or legacy"),
            ("protocol = [\"tcp\", \"ipx\"]", "not tcp, udp or raw"),
            ("machines = [6, 0]", "machines must be positive"),
            ("platform = \"sunos+amiga\"", "unknown platform 'amiga'"),
        ] {
            let err = parse_spec(&format!("[[scenario]]\n{line}")).unwrap_err();
            assert!(err.contains(what), "{err}");
        }
        // Only sim runs multiply, and only non-default values suffix the id.
        let ids = cells(
            "[[scenario]]\nname = \"c\"\nengine = [\"sim\", \"live\"]\nprocs = 2\n\
             machines = [6, 12]\norganization = [\"linked\", \"legacy\"]\n\
             network = \"switched100\"\nprotocol = \"udp\"\n",
        )?;
        assert_eq!(
            ids,
            vec![
                "c.gauss.sim.sunos.w0.c0.udp.switched100.p2",
                "c.gauss.sim.sunos.w0.c0.legacy.udp.switched100.p2",
                "c.gauss.sim.sunos.w0.c0.m12.udp.switched100.p2",
                "c.gauss.sim.sunos.w0.c0.m12.legacy.udp.switched100.p2",
                "c.gauss.live.channel.p2",
            ]
        );
        // A per-machine platform list is its own machine count.
        let ids = cells(
            "[[scenario]]\nname = \"h\"\nplatform = [\"aix\", \"sunos+linux\"]\n\
             machines = [6, 12]\nprocs = 2\n",
        )?;
        let want = ["aix.w0.c0", "aix.w0.c0.m12", "sunos+linux.w0.c0"];
        assert_eq!(ids, want.map(|v| format!("h.gauss.sim.{v}.p2")));
        Ok(())
    }

    #[test]
    fn figure_blocks_parse_with_defaults_and_are_validated() -> Result<(), String> {
        let scenario = "[[scenario]]\nname = \"g\"\nprocs = [1, 2]\nn = [100, 400]\n";
        let figure = |body: &str| parse_spec(&format!("{scenario}[[figure]]\nid = \"f\"\n{body}"));
        let spec = figure(
            "from = \"g\"\nx = \"procs\"\nseries = [\"n\", \"app\"]\nwhere = [\"platform = sunos\"]\n",
        )?;
        let fig = &spec.figures[0];
        assert_eq!(
            (fig.xlabel.as_str(), fig.label.as_str()),
            ("procs", "{}-{}")
        );
        assert_eq!(fig.filter, [("platform".to_string(), "sunos".to_string())]);
        assert!(!fig.speedup && fig.check.is_empty() && fig.labels.is_empty());
        let drawable = "from = \"g\"\nx = \"procs\"\nseries = \"n\"\n";
        for (body, what) in [
            ("from = \"g\"\nseries = \"n\"".into(), "needs an x axis"),
            ("from = \"g\"\nx = \"procs\"".into(), "from and series"),
            (drawable.replace("\"g\"", "\"h\""), "no scenario 'h'"),
            (drawable.replace("procs", "cores"), "'cores' is not an axis"),
            (format!("{drawable}where = \"sunos\""), "axis=value"),
            (format!("{drawable}label = \"N\""), "one {} per series axis"),
            (
                format!("{drawable}value = \"joules\""),
                "not secs or speedup",
            ),
            (format!("{drawable}check = \"vibes\""), "not a shape check"),
            (format!("{drawable}y = 1"), "unknown key 'y'"),
        ] {
            let err = figure(&body).unwrap_err();
            assert!(err.contains(what) && err.contains("[[figure]] #1"), "{err}");
        }
        Ok(())
    }
}
