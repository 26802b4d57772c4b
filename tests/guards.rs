//! The single-source guards: each mechanism this repository defines once
//! (one GM client, one kernel driver, one span model, ...) keeps a
//! source-level check that a second definition has not come back. Each
//! test is one guard; its doc says what it keeps out, and its failure names
//! the lines that broke it.
//!
//! Most guards read "code lines": the lines of a `.rs` file before its
//! first line that starts with `#[cfg(test)]` (the test module runs to the
//! end of a file), without the lines that start with `//`. A guard that
//! searches a whole tree reads every file in it; this file, which spells
//! every pattern, is left out of those searches.
//!
//! Run alone with `cargo test --test guards`.

use std::fs;
use std::path::Path;

/// This file: the one place every pattern is spelled out.
const SELF: &str = "tests/guards.rs";

/// One line of a file: its path relative to the repository root, and its
/// text.
struct Line {
    path: String,
    text: String,
}

impl Line {
    fn at(&self) -> String {
        format!("{}: {}", self.path, self.text)
    }

    fn under(&self, prefix: &str) -> bool {
        self.path.starts_with(prefix)
    }
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &str) -> String {
    let bytes = fs::read(root().join(path)).unwrap_or_default();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Every file under the directory `dir` (relative to the root), depth
/// first, skipping directories named in `skip_dirs`.
fn walk(dir: &str, skip_dirs: &[&str], out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(root().join(dir)) else {
        return;
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    for name in names {
        let path = if dir.is_empty() {
            name.clone()
        } else {
            format!("{dir}/{name}")
        };
        if root().join(&path).is_dir() {
            if !skip_dirs.contains(&name.as_str()) {
                walk(&path, skip_dirs, out);
            }
        } else if path != SELF {
            out.push(path);
        }
    }
}

/// `crates/*/src`, one entry per crate, optionally leaving some crates out.
fn crate_srcs(except: &[&str]) -> Vec<String> {
    let mut crates = Vec::new();
    walk_dirs("crates", &mut crates);
    crates
        .into_iter()
        .filter(|c| !except.iter().any(|e| c == &format!("crates/{e}")))
        .map(|c| format!("{c}/src"))
        .collect()
}

fn walk_dirs(dir: &str, out: &mut Vec<String>) {
    let mut dirs: Vec<String> = fs::read_dir(root().join(dir))
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .map(|e| format!("{dir}/{}", e.file_name().to_string_lossy()))
        .collect();
    dirs.sort();
    out.extend(dirs);
}

/// Every file under `dirs`.
fn files(dirs: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for d in dirs {
        walk(d, &[], &mut out);
    }
    out
}

fn rs_files(dirs: &[String]) -> Vec<String> {
    let mut out = files(dirs);
    out.retain(|f| f.ends_with(".rs"));
    out
}

/// Every line of every file under `dirs`.
fn all_lines(dirs: &[String]) -> Vec<Line> {
    files(dirs)
        .iter()
        .flat_map(|f| lines_of(f, false))
        .collect()
}

/// The lines of `path`; with `code`, only its code lines.
fn lines_of(path: &str, code: bool) -> Vec<Line> {
    let text = read(path);
    let mut out = Vec::new();
    for l in text.lines() {
        if code && l.starts_with("#[cfg(test)]") {
            break;
        }
        if code && l.trim_start().starts_with("//") {
            continue;
        }
        let (path, text) = (path.to_string(), l.to_string());
        out.push(Line { path, text });
    }
    out
}

/// The code lines of every `.rs` file under `dirs`.
fn code(dirs: &[String]) -> Vec<Line> {
    rs_files(dirs)
        .iter()
        .flat_map(|f| lines_of(f, true))
        .collect()
}

/// The lines of every `.rs` file under `dirs` before its test module,
/// comment lines kept.
fn before_tests(dirs: &[String]) -> Vec<Line> {
    let mut out = Vec::new();
    for f in rs_files(dirs) {
        for l in read(&f).lines() {
            if l.starts_with("#[cfg(test)]") {
                break;
            }
            let (path, text) = (f.clone(), l.to_string());
            out.push(Line { path, text });
        }
    }
    out
}

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// `pat` occurs in `s` and ends at a word boundary (`pat\b`).
fn has_word_end(s: &str, pat: &str) -> bool {
    s.match_indices(pat)
        .any(|(i, _)| !s[i + pat.len()..].starts_with(is_word))
}

/// `pat` occurs in `s` as a whole word (`\bpat\b`).
fn has_word(s: &str, pat: &str) -> bool {
    s.match_indices(pat)
        .any(|(i, _)| !s[..i].ends_with(is_word) && !s[i + pat.len()..].starts_with(is_word))
}

/// `impl` (with or without generics) followed by spaces and `rest`:
/// `impl(<[^>]*>)? +rest`.
fn has_impl_of(s: &str, rest: &str) -> bool {
    s.match_indices("impl").any(|(i, _)| {
        let mut tail = &s[i + 4..];
        if tail.starts_with('<') {
            match tail.find('>') {
                Some(end) => tail = &tail[end + 1..],
                None => return false,
            }
        }
        let spaced = tail.trim_start_matches(' ');
        spaced.len() < tail.len() && spaced.starts_with(rest)
    })
}

/// The lines that call `name(` without defining it.
fn calls<'a>(lines: &'a [Line], name: &str) -> Vec<&'a Line> {
    let (call, def) = (format!("{name}("), format!("fn {name}("));
    let hit = |l: &&Line| l.text.contains(&call) && !l.text.contains(&def);
    lines.iter().filter(hit).collect()
}

/// Lines that contain `unwrap()` or `expect(`.
fn panics(lines: &[Line]) -> usize {
    let hit = |l: &&Line| l.text.contains("unwrap()") || l.text.contains("expect(");
    lines.iter().filter(hit).count()
}

fn listing(lines: &[&Line]) -> String {
    lines.iter().map(|l| l.at()).collect::<Vec<_>>().join("\n")
}

/// Fail the guard with every problem found.
fn verdict(problems: Vec<String>) {
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}

fn dirs(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

/// `crates/*/src`, `src`, `tests` and `examples`: where a removed name
/// must not come back.
fn sources_tests_examples() -> Vec<String> {
    let mut d = crate_srcs(&[]);
    d.extend(dirs(&["src", "tests", "examples"]));
    d
}

/// Any line under `dirs` that names one of `names` (`word_end`: followed
/// by a word boundary).
fn named(dirs: &[String], names: &[(&str, bool)]) -> Vec<String> {
    let hit = |l: &Line| {
        names.iter().any(|&(n, word_end)| match word_end {
            true => has_word_end(&l.text, n),
            false => l.text.contains(n),
        })
    };
    all_lines(dirs)
        .iter()
        .filter(|l| hit(l))
        .map(Line::at)
        .collect()
}

/// The split-phase GM machine lives once, in dse-api's gm_client.rs: a
/// second definition of any of its parts is a fork of the requester.
/// (dse-transport is left out: its `Transport::send_batch` batches frames on
/// the wire and only shares the name.)
#[test]
fn one_gm_client() {
    let lines = all_lines(&crate_srcs(&["dse-transport"]));
    let mut problems = Vec::new();
    for item in [
        "fn stage_read",
        "fn stage_write",
        "fn flush_staged",
        "fn send_batch",
        "fn complete_read",
        "fn complete_write",
        "fn process_completion",
        "struct StagedSeg",
        "enum InflightReq",
        "struct ReadCtl",
    ] {
        let defs: Vec<&Line> = lines
            .iter()
            .filter(|l| has_word_end(&l.text, item))
            .collect();
        if defs.len() > 1 {
            let n = defs.len();
            problems.push(format!(
                "'{item}' is defined {n} times:\n{}",
                listing(&defs)
            ));
        }
    }
    verdict(problems);
}

/// The live kernel has one driver, engine/sched.rs: the only place a
/// KernelTask is built and the only place the kernel side waits in a
/// transport. A second site of either is a second driver. (Comment lines
/// count here.)
#[test]
fn one_live_kernel_driver() {
    let lines = before_tests(&dirs(&["crates/dse-live/src"]));
    let mut problems = Vec::new();
    let sites: Vec<&Line> = lines
        .iter()
        .filter(|l| l.text.contains("KernelTask::new("))
        .collect();
    if sites.len() != 1 {
        let n = sites.len();
        problems.push(format!(
            "KernelTask::new has {n} call sites under crates/dse-live/src, expected 1:\n{}",
            listing(&sites)
        ));
    }
    for l in &lines {
        if l.path != "crates/dse-live/src/engine/sched.rs" && l.text.contains("transport.recv(") {
            let at = l.at();
            problems.push(format!(
                "{at}\n  waits in a transport outside engine/sched.rs"
            ));
        }
    }
    verdict(problems);
}

/// The serving side of the kernel lives once, in dse-kernel's protocol.rs:
/// the one caller of `serve_gm`, the one response gate, and the one
/// directory decision (`take_holders` has one caller,
/// `sharers_to_invalidate`, which the home kernel and the client's own-node
/// write both call). A second of any is a second kernel protocol.
#[test]
fn one_kernel_protocol() {
    let lines = code(&crate_srcs(&[]));
    let mut problems = Vec::new();
    let serve = calls(&lines, "serve_gm");
    if serve.len() != 1 {
        let at = listing(&serve);
        problems.push(format!("serve_gm( must have exactly one call site:\n{at}"));
    }
    let gate = |s: &str| {
        s.match_indices("struct ").any(|(i, _)| {
            let tail = &s[i + 7..];
            let end = tail.find(|c: char| !c.is_ascii_alphabetic());
            let (name, after) = tail.split_at(end.unwrap_or(tail.len()));
            name.ends_with("Gate") && !after.starts_with(is_word)
        })
    };
    let gates: Vec<&Line> = lines.iter().filter(|l| gate(&l.text)).collect();
    if gates.len() != 1 {
        let at = listing(&gates);
        problems.push(format!(
            "exactly one struct whose name ends in Gate must exist:\n{at}"
        ));
    }
    let takes = calls(&lines, "take_holders");
    if takes.len() != 1 {
        let at = listing(&takes);
        problems.push(format!(
            "take_holders( must have exactly one call site:\n{at}"
        ));
    }
    verdict(problems);
}

/// The simulated kernel is a passive component (`SimKernel`, spawned with
/// `spawn_component`): no process body may serve as a kernel and no process
/// thread may be spawned under a kernel's name.
#[test]
fn no_kernel_thread_in_the_simulator() {
    let spawns_kernel = |s: &str| {
        s.match_indices(".spawn(").any(|(i, _)| {
            let args = &s[i + 7..];
            let args = &args[..args.find(')').unwrap_or(args.len())];
            args.contains("\"kernel")
        })
    };
    let mut problems = Vec::new();
    for l in code(&crate_srcs(&[])) {
        if l.text.contains("kernel_main") {
            problems.push(format!("{}\n  still names kernel_main", l.at()));
        }
        if spawns_kernel(&l.text) {
            problems.push(format!(
                "{}\n  spawns a process thread for a kernel",
                l.at()
            ));
        }
    }
    verdict(problems);
}

/// There is one message-level span model, `dse_obs::TraceSpanRec`, on both
/// engines: the simulator's older span table and its Chrome exporter are
/// gone and must not come back, spans are built in three files only (the
/// record's own and the two emitters the four ports call), and the
/// observability crate depends on neither engine. Nor is there a second
/// timeline beside it: the simulator scheduler's own event recorder, its
/// analyses and its Chrome tracks are gone (CPU queueing is a `cpu_queue`
/// span and a blame column), and the trace analysis crate does not depend
/// on the simulator.
#[test]
fn one_span_model() {
    let tree = dirs(&["crates", "src", "examples", "tests"]);
    let mut problems = Vec::new();
    let old = [
        "SpanTable",
        "SpanRecord",
        "ChromeTraceInput",
        "chrome_trace_json",
    ];
    let hits = named(&tree, &old.map(|n| (n, false)));
    if !hits.is_empty() {
        let at = hits.join("\n");
        problems.push(format!(
            "{at}\n  the second span model or its exporter is back"
        ));
    }
    let timeline = [
        "TraceEvent",
        "TraceKind",
        "TraceRecords",
        "enable_tracing",
        "EngineTracks",
        "ProcBreakdown",
        "PID_PROCS",
    ];
    let hits = named(&tree, &timeline.map(|n| (n, false)));
    if !hits.is_empty() {
        let at = hits.join("\n");
        problems.push(format!(
            "{at}\n  the simulator scheduler's own trace model is back"
        ));
    }
    let emitters = named(&tree, &[("struct Emitter", true)]);
    if emitters.len() != 1 {
        let at = emitters.join("\n");
        problems.push(format!(
            "exactly one Chrome exporter (struct Emitter) must exist:\n{at}"
        ));
    }
    let emitting = [
        "crates/dse-obs/src/trace.rs",
        "crates/dse-api/src/req_spans.rs",
        "crates/dse-kernel/src/home_spans.rs",
    ];
    let mut srcs = crate_srcs(&[]);
    srcs.push("src".into());
    for l in code(&srcs) {
        if !emitting.contains(&l.path.as_str()) && l.text.contains("TraceSpanRec::new(") {
            problems.push(format!("{}\n  builds a span outside the emitters", l.at()));
        }
    }
    if read("crates/dse-obs/Cargo.toml").contains("dse-sim") {
        problems.push("dse-obs depends on an engine".into());
    }
    if read("crates/dse-trace/Cargo.toml").contains("dse-sim") {
        problems.push("dse-trace depends on the simulator".into());
    }
    verdict(problems);
}

/// Host time is measured in one place, `benchmark/`, on runs long enough
/// and paired often enough to carry a claim. An example or test that reads
/// the clock is a second, weaker instrument, and a percent gate on the
/// sweep is the one this repository already retired.
#[test]
fn wall_clock_assertions_live_in_benchmark_only() {
    let mut problems = Vec::new();
    let hits = named(&dirs(&["examples", "tests"]), &[("Instant::now", false)]);
    if !hits.is_empty() {
        let at = hits.join("\n");
        problems.push(format!("{at}\n  an example or test reads the host clock"));
    }
    for doc in [
        ".github/workflows/ci.yml",
        "README.md",
        "DESIGN.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        if read(doc).contains("--gate") {
            problems.push(format!(
                "{doc} names the percent gate: dse-sweep --baseline compares exact columns"
            ));
        }
    }
    verdict(problems);
}

/// Experiment matrices run through one harness, dse-sweep: the figure
/// crate, its quick switch and its second CSV writer are gone and must not
/// come back, and the sweep's own code turns bad spec or row input into
/// error strings (the unwrap/expect count does not grow).
#[test]
fn one_experiment_harness() {
    let mut problems = Vec::new();
    if root().join("crates/dse-bench").exists() {
        problems.push("crates/dse-bench is back".into());
    }
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
        ".github/workflows/ci.yml",
    ] {
        if read(doc).contains("cargo bench -p dse-bench") {
            problems.push(format!(
                "{doc}: the figures are dse-sweep --spec bench_results/figures.toml"
            ));
        }
    }
    let mut everything = Vec::new();
    walk("", &["target", ".git"], &mut everything);
    for f in everything {
        let name = f.rsplit('/').next().unwrap_or(&f);
        if name != "CHANGES.md" && read(&f).contains("DSE_BENCH_QUICK") {
            problems.push(format!(
                "{f}: the quick switch is gone: cut the spec's axes instead"
            ));
        }
    }
    // (dse-obs's `to_csv` is the metrics exporter, another format)
    let writers: Vec<Line> = all_lines(&dirs(&["crates"]))
        .into_iter()
        .filter(|l| !l.under("crates/dse-obs/") && has_word_end(&l.text, "fn to_csv"))
        .collect();
    if writers.len() != 1 {
        let at: Vec<&Line> = writers.iter().collect();
        problems.push(format!(
            "exactly one figure CSV writer (fn to_csv) must exist:\n{}",
            listing(&at)
        ));
    }
    let top = |f: &String| f.matches('/').count() == 3;
    let sweep: Vec<Line> = rs_files(&dirs(&["crates/dse-sweep/src"]))
        .iter()
        .filter(|f| top(f))
        .flat_map(|f| lines_of(f, false))
        .collect();
    let n = panics(&sweep);
    if n > 42 {
        problems.push(format!(
            "unwrap()/expect( lines under crates/dse-sweep/src grew to {n} (42 allowed)"
        ));
    }
    verdict(problems);
}

/// The Parallel API library is written once: `ApiCtx<P>` in dse-api's
/// ctx.rs is the application context on both engines, so `ParallelApi` has
/// one implementation, neither engine has a context struct of its own, and
/// each coordination or atomic request is built (not matched) in one file
/// outside the codec and the kernel that serves it. The library and the
/// live port turn a caller's bad input into an error, not a bare unwrap:
/// the unwrap/expect counts only fall (ROADMAP item 7), and so do the same
/// counts over code lines, the sites a run can reach (ROADMAP item 11).
#[test]
fn one_parallel_api_context() {
    let lines = code(&crate_srcs(&[]));
    let mut problems = Vec::new();
    let impls: Vec<&Line> = lines
        .iter()
        .filter(|l| has_impl_of(&l.text, "ParallelApi for"))
        .collect();
    if impls.len() != 1 {
        let at = listing(&impls);
        problems.push(format!(
            "ParallelApi must have exactly one implementation:\n{at}"
        ));
    }
    for l in &lines {
        if has_word_end(&l.text, "struct LiveCtx") || has_word_end(&l.text, "struct DseCtx") {
            problems.push(format!(
                "{}\n  a second context struct is back: both contexts are ApiCtx<P>",
                l.at()
            ));
        }
    }
    for msg in ["LockReq", "UnlockReq", "BarrierEnter", "GmFetchAddReq"] {
        let literal = format!("Message::{msg} {{");
        let built: Vec<&Line> = lines
            .iter()
            .filter(|l| !l.under("crates/dse-msg/") && !l.under("crates/dse-kernel/"))
            .filter(|l| l.text.contains(&literal))
            .filter(|l| !l.text.contains("=>") && !l.text.contains(".."))
            .collect();
        let mut in_files: Vec<&str> = built.iter().map(|l| l.path.as_str()).collect();
        in_files.dedup();
        if in_files.len() != 1 {
            problems.push(format!(
                "Message::{msg} must be built in exactly one file outside dse-msg and dse-kernel:\n{}",
                listing(&built)
            ));
        }
    }
    for (krate, max) in [
        ("dse-api", 22),
        ("dse-live", 19),
        ("dse-transport", 91),
        ("dse-kernel", 46),
        ("dse-msg", 43),
        ("dse-obs", 16),
    ] {
        let n = panics(&all_lines(&[format!("crates/{krate}/src")]));
        if n > max {
            problems.push(format!(
                "unwrap()/expect( lines under crates/{krate}/src grew to {n} ({max} allowed)"
            ));
        }
    }
    for (krate, max) in [
        ("dse-api", 18),
        ("dse-apps", 9),
        ("dse-kernel", 2),
        ("dse-live", 2),
        ("dse-msg", 4),
        ("dse-net", 0),
        ("dse-obs", 1),
        ("dse-platform", 0),
        ("dse-sim", 5),
        ("dse-ssi", 0),
        ("dse-sweep", 4),
        ("dse-trace", 1),
        ("dse-transport", 0),
    ] {
        let n = panics(&code(&[format!("crates/{krate}/src")]));
        if n > max {
            problems.push(format!(
                "non-test unwrap()/expect( lines under crates/{krate}/src grew to {n} ({max} allowed)"
            ));
        }
    }
    verdict(problems);
}

/// Each engine has one stall detector: the drained event queue on the
/// simulator (exact, no deadline to set; its telemetry ticks stop once only
/// ticks are queued) and the requester's retry deadline on the live engine.
/// The simulator's watchdog, its in-flight mirror, its flight dump and
/// their settings and metrics are gone for good.
#[test]
fn one_stall_detector() {
    let names = [
        ("StallWatchdog", false),
        ("InFlight", true),
        ("StallReport", false),
        ("flight_dump", false),
        ("watchdog_deadline", false),
        ("escalate_after", false),
        ("watchdog_ms", false),
        ("watchdog-ms", false),
        ("gm_stalls", false),
        ("stall_escalations", false),
    ];
    let hits = named(&sources_tests_examples(), &names);
    let msg = "a second stall detector is back: the simulator's is the drain";
    verdict(hits.into_iter().map(|h| format!("{h}\n  {msg}")).collect());
}

/// A run is one spec on either engine: `dse-run <app> --key value` is a
/// one-cell scenario (spec::one_cell) and every run, CLI or sweep row, goes
/// through build::launch. The CLI's own argument struct and hand-written
/// flag checks, the per-engine builders and run paths are gone for good.
#[test]
fn one_front_door() {
    let names = [
        "SimSettings",
        "build_sim",
        "build_live",
        "run_sim_cli",
        "run_live_cli",
        "validate_engine_combos",
    ];
    let hits = named(&sources_tests_examples(), &names.map(|n| (n, false)));
    let msg = "a second front door is back: a run is a RunSpec and build::launch runs it";
    verdict(hits.into_iter().map(|h| format!("{h}\n  {msg}")).collect());
}

/// Both engines count into the metrics registry through one mapping
/// (dse-kernel's counters.rs), which is also the only code that builds a
/// `kernel/*` key. The simulator's per-PE stats struct, its cells, its
/// end-of-run and per-tick flattenings and the live engine's own count
/// mapping are gone for good.
#[test]
fn one_counter_store() {
    let names = [
        "KernelStats",
        "StatsCell",
        "count_live",
        "synth_counters",
        "per_pe_counter_rollup",
        "per_pe_stats",
    ];
    let hits = named(&sources_tests_examples(), &names.map(|n| (n, false)));
    let msg = "a second counter store is back: count through PeCounters into the registry";
    let mut problems: Vec<String> = hits.into_iter().map(|h| format!("{h}\n  {msg}")).collect();
    let mut srcs = crate_srcs(&[]);
    srcs.extend(dirs(&["src", "examples"]));
    for l in code(&srcs) {
        if l.text.contains("MetricKey::pe(\"kernel\"")
            && l.path != "crates/dse-kernel/src/counters.rs"
        {
            problems.push(format!(
                "{}\n  a kernel/* key built outside counters.rs: count through PeCounters",
                l.at()
            ));
        }
    }
    verdict(problems);
}

/// The requester's counts, samples and gauge are recorded once, in dse-api's
/// shared client code, against the port's clock: a GmPort hands over
/// `now_ns` and its PE's counters and has no observation hooks. The
/// per-engine series and the sweep's sim-only operation count are gone for
/// good.
#[test]
fn one_requester_accounting() {
    let mut srcs = crate_srcs(&[]);
    srcs.push("src".into());
    let lines = code(&srcs);
    let mut problems = Vec::new();
    let hooks = ["fn stamp", "fn handle_done", "fn op_begun", "fn op_done"];
    for l in &lines {
        if l.under("crates/") && hooks.iter().any(|h| has_word_end(&l.text, h)) {
            problems.push(format!(
                "{}\n  a GmPort observation hook is back: the client records it",
                l.at()
            ));
        }
    }
    let series = ["local_read_ns", "local_write_ns", "sim_gm_ops"];
    for h in named(&sources_tests_examples(), &series.map(|n| (n, false))) {
        problems.push(format!("{h}\n  a per-engine requester series is back"));
    }
    let recorded = [
        "MetricKey::pe(\"gm\"",
        "MetricKey::pe(\"sync\"",
        "record(\"gm\"",
        "record(\"sync\"",
    ];
    for l in &lines {
        if !l.under("crates/dse-api/src/") && recorded.iter().any(|r| l.text.contains(r)) {
            problems.push(format!(
                "{}\n  a gm/* or sync/* series is recorded outside dse-api's client code",
                l.at()
            ));
        }
    }
    verdict(problems);
}

/// A request on the wire has one record on either engine: its GmClient
/// in-flight entry (root span, send time, install epoch, retransmission
/// schedule and deadline). The live port's retry table and its machinery,
/// the ports' request_done hook and a port's own map of root spans are gone
/// for good.
#[test]
fn one_request_table() {
    let retry = ["RetryState", "retry_tick", "service_retries", "send_armed"];
    let sent_map = |s: &str| {
        s.match_indices("Map<").any(|(i, _)| {
            let tail = &s[i + 4..];
            tail[..tail.find('>').unwrap_or(tail.len())].contains("SentReq")
        })
    };
    let mut problems = Vec::new();
    for l in code(&crate_srcs(&[])) {
        let t = &l.text;
        if retry.iter().any(|r| t.contains(r)) || has_word_end(t, "fn disarm") {
            problems.push(format!(
                "{}\n  a port's retry machinery is back: the client retransmits",
                l.at()
            ));
        }
        if l.path != "crates/dse-api/src/req_spans.rs" && has_word_end(t, "fn request_done") {
            problems.push(format!(
                "{}\n  a port's request_done hook is back: the client closes the span",
                l.at()
            ));
        }
        if l.path != "crates/dse-api/src/gm_client.rs" && sent_map(t) {
            problems.push(format!(
                "{}\n  a second table of requests on the wire is back",
                l.at()
            ));
        }
    }
    verdict(problems);
}

/// Both transport backends run one frame discipline, dse-transport's
/// FrameMux (mux.rs): it numbers and encodes every frame sent and decodes
/// and sequence-checks every delivery received, and a backend only moves
/// bytes. The socket backend's own sequence counters, decoders, Bye encoding
/// and loopback codec are gone for good.
#[test]
fn one_frame_discipline() {
    let codec = ["FrameDecoder", "encode_frame", "encode_bye"];
    let mut problems = Vec::new();
    for l in code(&crate_srcs(&[])) {
        let exempt = l.under("crates/dse-msg/src/") || l.path == "crates/dse-transport/src/mux.rs";
        if !exempt && codec.iter().any(|c| l.text.contains(c)) {
            problems.push(format!("{}\n  frames messages outside FrameMux", l.at()));
        }
    }
    verdict(problems);
}

/// The socket backend is woken by its fds, not by a timer: its pump blocks
/// in poll(2) until a connection is readable, and a writer that finds the
/// send buffer full waits there until it is writable, so the only sleep left
/// in socket.rs is dial's backoff. poll(2) is called from dse-transport's
/// poll.rs, the one module with unsafe code under crates/*/src. (Test
/// modules and comment lines are not counted for the sleeps; every line is
/// for `unsafe`.)
#[test]
fn the_socket_path_waits_on_readiness() {
    let mut problems = Vec::new();
    let socket = lines_of("crates/dse-transport/src/socket.rs", true);
    let sleeps = socket
        .iter()
        .filter(|l| l.text.contains("thread::sleep"))
        .count();
    if sleeps != 1 {
        problems.push(format!(
            "socket.rs calls thread::sleep {sleeps} times; only dial's backoff may"
        ));
    }
    for f in files(&crate_srcs(&[])) {
        if f != "crates/dse-transport/src/poll.rs"
            && read(&f).lines().any(|l| has_word(l, "unsafe"))
        {
            problems.push(format!(
                "{f}: unsafe code outside dse-transport's poll module"
            ));
        }
    }
    verdict(problems);
}

/// Both kernels build, ingest and flush telemetry through one module,
/// dse-kernel's telemetry.rs, into one aggregator per run. The live
/// harness's final absolute round, PE 0's own aggregator in the live kernel
/// task and the simulator's separate ingest and flush are gone for good:
/// decoding a delta, building an absolute one and building an aggregator
/// happen nowhere else under crates/*/src outside dse-obs.
#[test]
fn one_telemetry_plane() {
    let plane = [
        "TelemetryDelta::decode(",
        ".absolute(",
        "ClusterAggregator::new(",
    ];
    let mut problems = Vec::new();
    for l in code(&crate_srcs(&[])) {
        let exempt =
            l.under("crates/dse-obs/src/") || l.path == "crates/dse-kernel/src/telemetry.rs";
        if !exempt && plane.iter().any(|p| l.text.contains(p)) {
            problems.push(format!(
                "{}\n  runs a second telemetry plane: go through dse-kernel's telemetry.rs",
                l.at()
            ));
        }
    }
    verdict(problems);
}

/// The kernel has one driver, dse-kernel's task.rs, on both engines: the
/// simulator's kernel is a component that holds a KernelTask and plays its
/// outbox back, not a second serve loop, and a coordination call made in
/// place is a step of that driver's port (`task::InPlace`), not a port of
/// the caller's. Only task.rs hands a message to the protocol, runs the
/// protocol's `coordinate` for a caller, or calls the telemetry plane, and
/// the simulator's second reply type is gone.
#[test]
fn one_kernel_driver() {
    let lines = code(&crate_srcs(&[]));
    let mut problems = Vec::new();
    let impls: Vec<&Line> = lines
        .iter()
        .filter(|l| l.under("crates/dse-kernel/src/") && has_impl_of(&l.text, "Component<"))
        .collect();
    if impls.len() != 1 {
        let at = listing(&impls);
        problems.push(format!(
            "dse-kernel must implement Component exactly once:\n{at}"
        ));
    } else {
        let (file, text) = (&impls[0].path, &impls[0].text);
        let after = &text[text.rfind(" for ").map_or(0, |i| i + 5)..];
        let ty: String = after.chars().take_while(|&c| is_word(c)).collect();
        let opening = format!("pub struct {ty}");
        let body: Vec<String> = read(file)
            .lines()
            .skip_while(|l| !(l.starts_with(&opening) && has_word_end(l, &opening)))
            .take_while(|l| !l.starts_with('}'))
            .map(str::to_string)
            .collect();
        if !body.iter().any(|l| l.contains("KernelTask<")) {
            problems.push(format!(
                "the kernel component {ty} must hold the KernelTask it drives"
            ));
        }
    }
    let driver = [
        "crates/dse-kernel/src/task.rs",
        "crates/dse-kernel/src/protocol.rs",
    ];
    // A bare `coordinate(` call or its import: not a method, not a
    // definition.
    let runs_coordinate = |s: &str| {
        let bare = |i: usize| {
            let before = &s[..i];
            !before.ends_with(|c: char| is_word(c) || c == '.') && !before.ends_with("fn ")
        };
        s.match_indices("coordinate(").any(|(i, _)| bare(i))
            || s.contains("protocol::coordinate")
            || (s.contains("protocol::{") && has_word(s, "coordinate"))
    };
    let telemetry = |s: &str| {
        [".ingest(", ".flush(", ".delta("].iter().any(|call| {
            s.match_indices(call)
                .any(|(i, _)| s[i + call.len()..].starts_with(|c: char| c != ')'))
        })
    };
    for l in &lines {
        let in_task = l.path == driver[0];
        if !in_task && l.text.contains(".handle(") {
            problems.push(format!(
                "{}\n  only dse-kernel's task.rs hands a message to KernelProtocol::handle",
                l.at()
            ));
        }
        if !driver.contains(&l.path.as_str()) && runs_coordinate(&l.text) {
            problems.push(format!(
                "{}\n  only dse-kernel's task.rs runs a coordination call: go through task::InPlace",
                l.at()
            ));
        }
        let exempt =
            in_task || l.path == "crates/dse-kernel/src/telemetry.rs" || l.under("crates/dse-obs/");
        if !exempt && telemetry(&l.text) {
            problems.push(format!(
                "{}\n  only dse-kernel's task.rs calls the telemetry plane",
                l.at()
            ));
        }
        if l.text.contains("SimRequester") {
            problems.push(format!(
                "{}\n  SimRequester is gone: a request's answer goes to its Requester",
                l.at()
            ));
        }
    }
    verdict(problems);
}

/// Barrier and lock state is one per run on both engines: the simulator's
/// ClusterShared and the live LiveCluster each build it once, and
/// KernelTask::new keeps a fallback for a task built outside a run — the
/// one place a host gets state of its own (`Centres::Own`); every other
/// host, the in-place step's included, borrows the run's. A constructor
/// anywhere else is a second coordinator state (PE 0's kernel and the
/// callers in place would coordinate apart).
#[test]
fn one_coordinator_state() {
    let owners = [
        "crates/dse-kernel/src/shared.rs",
        "crates/dse-live/src/engine.rs",
        "crates/dse-kernel/src/task.rs",
    ];
    let built = |s: &str| {
        ["BarrierCenter::", "LockCenter::"]
            .iter()
            .any(|ty| s.contains(&format!("{ty}new(")) || s.contains(&format!("{ty}default(")))
    };
    let lines = code(&crate_srcs(&[]));
    let sites: Vec<&Line> = lines.iter().filter(|l| built(&l.text)).collect();
    let mut problems = Vec::new();
    for l in &sites {
        if !owners.contains(&l.path.as_str()) {
            problems.push(format!(
                "{}\n  barrier/lock state is built only by ClusterShared, LiveCluster and KernelTask::new",
                l.at()
            ));
        }
    }
    for owner in owners {
        for ty in ["BarrierCenter::", "LockCenter::"] {
            let n = sites
                .iter()
                .filter(|l| l.path == owner && l.text.contains(ty))
                .count();
            if n > 1 {
                problems.push(format!(
                    "{owner} builds {} {n} times, expected at most once",
                    ty.trim_end_matches(':')
                ));
            }
        }
    }
    let own: Vec<&Line> = lines
        .iter()
        .filter(|l| l.text.contains("Centres::Own("))
        .filter(|l| !l.text.contains("=>"))
        .collect();
    if own.len() > 1 || own.iter().any(|l| l.path != owners[2]) {
        problems.push(format!(
            "only KernelTask::new gives a host state of its own (Centres::Own):\n{}",
            listing(&own)
        ));
    }
    verdict(problems);
}

/// A coordination call made in place is one step of the kernel driver's
/// port on both engines (`task::InPlace`, played by the caller): outside
/// test modules `KernelPort` has one implementation, the driver's `Port` in
/// dse-kernel's task.rs, and the simulator's blocking coordinator port, the
/// live engine's answer buffer and the separate coordinator trait are gone
/// for good.
#[test]
fn one_in_place_step() {
    let mut problems = Vec::new();
    let lines = code(&crate_srcs(&[]));
    let impls: Vec<&Line> = lines
        .iter()
        .filter(|l| has_impl_of(&l.text, "KernelPort for"))
        .collect();
    if impls.len() != 1 || impls[0].path != "crates/dse-kernel/src/task.rs" {
        problems.push(format!(
            "KernelPort must have exactly one implementation, in dse-kernel's task.rs:\n{}",
            listing(&impls)
        ));
    }
    for l in &lines {
        if has_word_end(&l.text, "trait Coordinator") {
            problems.push(format!(
                "{}\n  the coordinator half of KernelPort is back",
                l.at()
            ));
        }
    }
    let gone = [("SimKernelPort", false), ("coord_out", false)];
    for h in named(&sources_tests_examples(), &gone) {
        problems.push(format!(
            "{h}\n  a second in-place port is back: run task::InPlace and play its outbox"
        ));
    }
    verdict(problems);
}

/// The engines differ only in clock, charge and wire: where a leased
/// block's data goes, the order of an own-node write or atomic and how a
/// fetch-add is counted are one rule in the shared client and kernel code.
/// The ports' coherence hooks, the simulator's inline invalidation round,
/// the home-side install and the live engine's per-PE install guards are
/// gone for good: a node's install epoch lives in its `CacheStore`.
#[test]
fn the_engines_differ_only_in_clock_charge_and_wire() {
    let gone = [
        ("fn send_atomic", true),
        ("fn own_node_write", true),
        ("fn own_node_fetch_add", true),
        ("fn install_epoch", true),
        ("fn lease(", false),
        ("fn drop_replicas", true),
        ("coherent_local_write", false),
        ("install_guards", false),
    ];
    let problems = named(&crate_srcs(&[]), &gone)
        .into_iter()
        .map(|h| format!("{h}\n  an engine-specific coherence body is back: it is the client's or the protocol's"))
        .collect();
    verdict(problems);
}
