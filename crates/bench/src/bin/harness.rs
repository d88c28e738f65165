//! Command-line harness printing every registered scenario of the engine —
//! and the trend-tracking subcommands consuming its own exports.
//!
//! ```text
//! cargo run -p polycanary-bench --bin harness -- all
//! cargo run -p polycanary-bench --bin harness -- table1 fig5 table5
//! cargo run -p polycanary-bench --bin harness -- --seed 7 --workers 4 effectiveness
//! cargo run -p polycanary-bench --bin harness -- --format json --out results all
//! cargo run -p polycanary-bench --bin harness -- --quick --timings BENCH_scenarios.json all
//! cargo run -p polycanary-bench --bin harness -- diff old-run/ new-run/ \
//!     --baseline BENCH_scenarios.json --threshold 25
//! cargo run -p polycanary-bench --bin harness -- report new-run/ --out EXPERIMENTS.md
//! ```
//!
//! Everything scenario-specific — the usage text, name validation, dispatch,
//! the export loop and the report sections — derives from the scenario
//! registry (`polycanary_bench::experiments::registry`); this file knows no
//! experiment by name.  Scenarios render as plain text (default), as
//! self-describing JSON envelopes (schema version, scenario name, full
//! context, records) or as bare CSV rows via `--format json|csv`; every
//! JSON payload is re-parsed through the workspace JSON parser before it
//! is emitted, so a malformed export can never leave the process.
//!
//! `harness diff OLD NEW` compares two such exports (directories, single
//! envelopes or `--timings` files) through `polycanary_analysis` and exits
//! 1 when it finds a regression — a verdict flip, a lost scenario, or a
//! wall-time ratio beyond `--threshold` against `--baseline` — so CI can
//! gate on it.  `harness report DIR` renders the Markdown experiment
//! report from an export directory; EXPERIMENTS.md is its generated,
//! drift-checked output.
//!
//! All output goes through [`emit`]: a reader that closes the pipe early
//! (`harness --list | head -1`) has taken what it wanted, so a broken pipe
//! ends the process quietly with exit code 0 instead of a panic.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use polycanary_analysis::diff::{diff_runs, DiffOptions};
use polycanary_analysis::run::Run;
use polycanary_analysis::summary::RunSummary;
use polycanary_bench::experiments::{
    registry, registry_with, report_sections, Experiment, ExperimentCtx, ExportFormat,
};
use polycanary_bench::grammar;
use polycanary_bench::verify::{run_inject, run_verify, InjectedDefect};
use polycanary_compiler::{OptLevel, PassManager};
use polycanary_core::record::{
    export_envelope, records_to_csv, records_to_json, Record, SCHEMA_VERSION,
};

/// Writes `args` to `stream` (a locked stdout or stderr) and flushes it.
/// A broken pipe exits 0: the reader has gone and wants nothing more.  Any
/// other write error exits 1.
fn emit(mut stream: impl Write, args: std::fmt::Arguments<'_>) {
    if let Err(err) = stream.write_fmt(args).and_then(|()| stream.flush()) {
        std::process::exit(i32::from(err.kind() != std::io::ErrorKind::BrokenPipe));
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => { emit(std::io::stdout().lock(), format_args!($($arg)*)) };
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => { out!("{}\n", format_args!($($arg)*)) };
}

/// `eprintln!` through [`emit`].
macro_rules! errln {
    ($($arg:tt)*) => {
        emit(std::io::stderr().lock(), format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn print_usage() {
    errln!(
        "usage: harness [--seed N] [--quick] [--adaptive] [--workers N] [--fleet N] \
         [--opt-level L] [--lattice NAME] [--gen-seed N] [--format text|json|csv] [--out DIR] \
         [--timings FILE] [--list] [--list-passes] <scenario>...\n\
         \x20      harness diff OLD NEW [--baseline FILE] [--threshold PCT] [--format text|json]\n\
         \x20      harness report DIR [--out FILE] [--format md|json]\n\
         \x20      harness verify [--quick] [--inject DEFECT] [--format text|json] [--out FILE]"
    );
    errln!("scenarios (or `all`):");
    for experiment in registry() {
        let aliases = if experiment.aliases().is_empty() {
            String::new()
        } else {
            format!(" (alias: {})", experiment.aliases().join(", "))
        };
        errln!("  {:<14} {}{aliases}", experiment.name(), experiment.description());
    }
    errln!("lattices (scenario grammar, `--lattice NAME` adds their `gen:*` cells):");
    for lattice in grammar::lattices() {
        errln!("  {:<14} {}", lattice.name(), lattice.description());
    }
    errln!(
        "--quick       smaller workloads and campaigns (CI-sized)\n\
         --adaptive    SPRT stop rule: end single-rule campaigns once the\n\
         \x20             sequential test settles their verdict\n\
         --workers N   cap the worker-thread budget (results never change)\n\
         --fleet N     fleet-scale mode: SPRT campaigns over N snapshot-booted\n\
         \x20             victims per cell (population and server-attack scenarios)\n\
         --opt-level L compiler optimization level (O0 or O2; default O2) —\n\
         \x20             overhead scenarios report O0 plus L as a grid\n\
         --lattice NAME  register the named lattice's generated `gen:NAME:*`\n\
         \x20             scenarios alongside the static registry; with no\n\
         \x20             positional scenario, runs exactly those cells\n\
         --gen-seed N  generator seed for `--lattice` victim programs (default 7)\n\
         --list-passes print the pass pipeline for the selected --opt-level and exit\n\
         --format      text (default), json (self-describing envelopes) or csv (bare records)\n\
         --out DIR     write one <scenario>.<ext> file per scenario to DIR\n\
         --timings FILE  also write per-scenario wall times as JSON records\n\
         --list        print `name<TAB>title` per scenario and exit\n\
         \n\
         diff   compare two runs (export dirs, envelope files or --timings files);\n\
         \x20      exits 1 on regression: verdict flip, lost scenario, or wall time\n\
         \x20      beyond --threshold PCT (default 25) vs --baseline (default: OLD)\n\
         report render the Markdown experiment report (EXPERIMENTS.md) from an\n\
         \x20      export directory; --format json emits the same model as records\n\
         verify statically prove canary invariants over every workload x scheme x\n\
         \x20      deployment x opt-level cell; exits 1 on any finding.  --inject DEFECT\n\
         \x20      runs the known-bad battery instead (defects: skipped-prologue,\n\
         \x20      clobbered-canary, dropped-epilogue, dead-check, stale-rewrite,\n\
         \x20      optimizer-dropped-check, self-compared-canary)"
    );
}

/// Invalid command line: report, print usage, exit 2.
fn usage_error(message: &str) -> ! {
    errln!("error: {message}");
    print_usage();
    std::process::exit(2);
}

/// Runtime failure after a valid invocation (e.g. an unwritable `--out`
/// directory): report and exit 1, without the usage spam.
fn runtime_error(message: &str) -> ! {
    errln!("error: {message}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print_usage();
        std::process::exit(2);
    }

    // The trend-tracking subcommands consume prior exports instead of
    // running scenarios; no registry name collides with them.
    match args.first().map(String::as_str) {
        Some("diff") => run_diff_command(&args[1..]),
        Some("report") => run_report_command(&args[1..]),
        Some("verify") => run_verify_command(&args[1..]),
        _ => {}
    }

    let mut ctx = ExperimentCtx::new(0x00DD_5EED);
    let mut out_dir: Option<PathBuf> = None;
    let mut timings_path: Option<PathBuf> = None;
    let mut list_passes = false;
    let mut list = false;
    let mut lattice: Option<String> = None;
    let mut gen_seed: u64 = 7;
    let mut selected = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => {
                let Some(value) = iter.next() else {
                    usage_error("--seed requires a value");
                };
                ctx.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid --seed value `{value}`")));
            }
            "--quick" => ctx = ctx.quick(),
            "--adaptive" => ctx = ctx.adaptive(),
            "--workers" => {
                let Some(value) = iter.next() else {
                    usage_error("--workers requires a value");
                };
                let workers: usize = value
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid --workers value `{value}`")));
                ctx = ctx.with_workers(workers.max(1));
            }
            "--fleet" => {
                let Some(value) = iter.next() else {
                    usage_error("--fleet requires a value");
                };
                let fleet: usize = value.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                    usage_error(&format!(
                        "invalid --fleet value `{value}`: expected a positive victim count"
                    ))
                });
                ctx = ctx.with_fleet(fleet);
            }
            "--format" => {
                let Some(value) = iter.next() else {
                    usage_error("--format requires a value (text, json or csv)");
                };
                ctx.format = match value.as_str() {
                    "text" => ExportFormat::Text,
                    "json" => ExportFormat::Json,
                    "csv" => ExportFormat::Csv,
                    other => usage_error(&format!(
                        "invalid --format value `{other}` (expected text, json or csv)"
                    )),
                };
            }
            "--out" => {
                let Some(value) = iter.next() else {
                    usage_error("--out requires a directory path");
                };
                out_dir = Some(PathBuf::from(value));
            }
            "--timings" => {
                let Some(value) = iter.next() else {
                    usage_error("--timings requires a file path");
                };
                timings_path = Some(PathBuf::from(value));
            }
            "--opt-level" => {
                let Some(value) = iter.next() else {
                    usage_error("--opt-level requires a value (O0 or O2)");
                };
                let opt: OptLevel = value
                    .parse()
                    .unwrap_or_else(|err: String| usage_error(&format!("--opt-level: {err}")));
                ctx = ctx.with_opt_level(opt);
            }
            "--lattice" => {
                let Some(value) = iter.next() else {
                    usage_error("--lattice requires a lattice name");
                };
                lattice = Some(value);
            }
            "--gen-seed" => {
                let Some(value) = iter.next() else {
                    usage_error("--gen-seed requires a value");
                };
                gen_seed = value.parse().unwrap_or_else(|_| {
                    usage_error(&format!("invalid --gen-seed value `{value}`"))
                });
            }
            // Deferred below the flag loop so `--list --lattice smoke`
            // and the reverse order list the same catalogue.
            "--list" => list = true,
            "--list-passes" => list_passes = true,
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other if other.starts_with("--") => {
                usage_error(&format!("unknown flag `{other}`"));
            }
            other => selected.push(other.to_string()),
        }
    }

    // `--list-passes` is a debug aid: show the pipeline the selected
    // `--opt-level` would run, in order, and exit.  Parsed after the flag
    // loop so `--opt-level O2 --list-passes` and the reverse order agree.
    if list_passes {
        outln!("{} pipeline:", ctx.opt_level);
        for name in PassManager::standard(ctx.opt_level).pass_names() {
            outln!("  {name}");
        }
        return;
    }

    // The catalogue: the static registry plus, under `--lattice`, every
    // generated `gen:<lattice>:*` cell — one dynamic registration path,
    // shared by listing, validation, dispatch and export.
    let catalogue = registry_with(lattice.as_deref().map(|name| (name, gen_seed)))
        .unwrap_or_else(|err| usage_error(&err));

    if list {
        for experiment in &catalogue {
            outln!("{}\t{}", experiment.name(), experiment.title());
        }
        return;
    }

    if selected.is_empty() && lattice.is_none() {
        usage_error("no scenario selected");
    }

    // Resolve aliases and reject unknown scenario names outright — a typo
    // must not silently drop one table from an otherwise valid selection.
    let resolve = |name: &str| -> Option<String> {
        catalogue
            .iter()
            .find(|e| e.name() == name || e.aliases().contains(&name))
            .map(|e| e.name().to_string())
    };
    let unknown: Vec<&str> = selected
        .iter()
        .map(String::as_str)
        .filter(|name| *name != "all" && resolve(name).is_none())
        .collect();
    if !unknown.is_empty() {
        usage_error(&format!("unknown scenario(s): {}", unknown.join(", ")));
    }

    let all = selected.iter().any(|e| e == "all");
    // `--lattice NAME` with no positional scenario runs exactly the
    // generated cells; explicit selections behave as always.
    let implicit_lattice = selected.is_empty();
    let wants = |name: &str| {
        all || (implicit_lattice && name.starts_with("gen:"))
            || selected.iter().any(|e| resolve(e).as_deref() == Some(name))
    };

    // A CSV stream is only parseable with one header row, so CSV on stdout
    // is restricted to a single scenario; multi-scenario CSV sweeps go
    // through --out (one file per scenario).
    let selection_count = catalogue.iter().filter(|e| wants(e.name())).count();
    if ctx.format == ExportFormat::Csv && out_dir.is_none() && selection_count > 1 {
        usage_error("--format csv with multiple scenarios requires --out DIR");
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|err| {
            runtime_error(&format!("cannot create --out directory {}: {err}", dir.display()));
        });
    }

    // Run and emit each selected scenario; stdout JSON is collected into
    // one parseable array over the whole selection.
    let mut json_stream: Vec<String> = Vec::new();
    let mut timings: Vec<Record> = Vec::new();
    for experiment in catalogue.iter().filter(|e| wants(e.name())) {
        let started = Instant::now();
        let output = experiment.run(&ctx);
        timings.push(scenario_timing(experiment.as_ref(), &ctx, started, output.records.len()));
        let body = match ctx.format {
            ExportFormat::Text => format!("== {} ==\n{}", experiment.title(), output.text),
            ExportFormat::Json => verified_json(export_envelope(
                experiment.name(),
                experiment.export_ctx(&ctx),
                output.records,
            )),
            ExportFormat::Csv => records_to_csv(&output.records),
        };
        match &out_dir {
            Some(dir) => {
                let path = dir.join(format!("{}.{}", experiment.name(), ctx.format.extension()));
                std::fs::write(&path, body.as_bytes()).unwrap_or_else(|err| {
                    runtime_error(&format!("cannot write {}: {err}", path.display()));
                });
                errln!("wrote {}", path.display());
            }
            None => match ctx.format {
                ExportFormat::Text => outln!("{body}"),
                ExportFormat::Json => json_stream.push(body),
                // Single scenario (enforced above): bare, parseable CSV.
                ExportFormat::Csv => out!("{body}"),
            },
        }
    }
    if out_dir.is_none() && ctx.format == ExportFormat::Json {
        outln!("[{}]", json_stream.join(","));
    }

    if let Some(path) = timings_path {
        let body = records_to_json(&timings);
        std::fs::write(&path, body.as_bytes()).unwrap_or_else(|err| {
            runtime_error(&format!("cannot write {}: {err}", path.display()));
        });
        errln!("wrote {}", path.display());
    }
}

/// Serializes `envelope` and re-parses it through the workspace JSON parser
/// before handing it out — exports are verified, never trusted.
fn verified_json(envelope: Record) -> String {
    let body = envelope.to_json();
    if let Err(err) = Record::from_json(&body) {
        runtime_error(&format!("export failed its own re-parse: {err}"));
    }
    body
}

/// Loads one side of a diff, bailing out with the offending file named.
fn load_run(path: &str) -> Run {
    Run::load(Path::new(path)).unwrap_or_else(|err| runtime_error(&err.to_string()))
}

/// `harness diff OLD NEW [--baseline FILE] [--threshold PCT]
/// [--format text|json]` — never returns.
///
/// Exit code 0 when the runs match (informational findings allowed), 1 on
/// any regression, 2 on a bad command line.
fn run_diff_command(args: &[String]) -> ! {
    let mut positional: Vec<&str> = Vec::new();
    let mut baseline: Option<String> = None;
    let mut options = DiffOptions::default();
    let mut json = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--baseline" => {
                let Some(value) = iter.next() else {
                    usage_error("diff: --baseline requires a file path");
                };
                baseline = Some(value.clone());
            }
            "--threshold" => {
                let Some(value) = iter.next() else {
                    usage_error("diff: --threshold requires a percentage");
                };
                // f64::from_str happily parses "NaN"/"inf", and a NaN
                // threshold silently disables the wall-time gate — only a
                // finite, non-negative percentage is a valid invocation.
                options.threshold_pct = value
                    .parse()
                    .ok()
                    .filter(|pct: &f64| pct.is_finite() && *pct >= 0.0)
                    .unwrap_or_else(|| {
                        usage_error(&format!(
                            "diff: invalid --threshold value `{value}` \
                             (expected a finite percentage >= 0)"
                        ))
                    });
            }
            "--format" => {
                let Some(value) = iter.next() else {
                    usage_error("diff: --format requires a value (text or json)");
                };
                json = match value.as_str() {
                    "text" => false,
                    "json" => true,
                    other => usage_error(&format!(
                        "diff: invalid --format value `{other}` (expected text or json)"
                    )),
                };
            }
            other if other.starts_with("--") => {
                usage_error(&format!("diff: unknown flag `{other}`"))
            }
            other => positional.push(other),
        }
    }
    let [old_path, new_path] = positional[..] else {
        usage_error("diff requires exactly two run paths: harness diff OLD NEW");
    };

    let old = load_run(old_path);
    let new = load_run(new_path);
    let baseline = baseline.map(|path| load_run(&path));
    let report = diff_runs(&old, &new, baseline.as_ref(), &options);
    if json {
        outln!("{}", verified_json(report.to_record()));
    } else {
        out!("{}", report.render_text());
    }
    std::process::exit(i32::from(report.has_regressions()));
}

/// `harness report DIR [--out FILE] [--format md|json]` — never returns.
///
/// Renders the generated experiment report (EXPERIMENTS.md) from the JSON
/// export envelopes in DIR, with section titles, descriptions and paper
/// annotations drawn from the scenario registry.
fn run_report_command(args: &[String]) -> ! {
    let mut positional: Vec<&str> = Vec::new();
    let mut out_path: Option<PathBuf> = None;
    let mut json = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => {
                let Some(value) = iter.next() else {
                    usage_error("report: --out requires a file path");
                };
                out_path = Some(PathBuf::from(value));
            }
            "--format" => {
                let Some(value) = iter.next() else {
                    usage_error("report: --format requires a value (md or json)");
                };
                json = match value.as_str() {
                    "md" => false,
                    "json" => true,
                    other => usage_error(&format!(
                        "report: invalid --format value `{other}` (expected md or json)"
                    )),
                };
            }
            other if other.starts_with("--") => {
                usage_error(&format!("report: unknown flag `{other}`"))
            }
            other => positional.push(other),
        }
    }
    let [dir] = positional[..] else {
        usage_error("report requires exactly one export directory: harness report DIR");
    };

    let run = load_run(dir);
    if run.scenarios.is_empty() {
        runtime_error(&format!("{dir}: contains no scenario envelopes to report on"));
    }
    // Section metadata for generated `gen:<lattice>:<cell>` scenarios is
    // synthesized from their names, so lattice exports report with titles
    // and paper notes just like the static registry.
    let mut sections = report_sections();
    sections.extend(run.scenarios.keys().filter_map(|name| grammar::report_section(name)));
    let summary = RunSummary::new(&run, &sections);
    let body = if json {
        format!("{}\n", verified_json(summary.to_record()))
    } else {
        summary.to_markdown()
    };
    match out_path {
        Some(path) => {
            std::fs::write(&path, body.as_bytes()).unwrap_or_else(|err| {
                runtime_error(&format!("cannot write {}: {err}", path.display()));
            });
            errln!("wrote {}", path.display());
        }
        None => out!("{body}"),
    }
    std::process::exit(0);
}

/// `harness verify [--quick] [--inject DEFECT] [--format text|json]
/// [--out FILE]` — never returns.
///
/// Statically proves the canary invariants over every workload × scheme ×
/// deployment × opt-level cell and exits 1 on any finding, so CI can gate
/// on a clean
/// toolchain.  `--inject DEFECT` verifies a deliberately broken program
/// instead — the negative control that must exit 1.
fn run_verify_command(args: &[String]) -> ! {
    let mut quick = false;
    let mut inject: Option<InjectedDefect> = None;
    let mut json = false;
    let mut out_path: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--inject" => {
                let Some(value) = iter.next() else {
                    usage_error("verify: --inject requires a defect label");
                };
                inject = Some(InjectedDefect::from_label(value).unwrap_or_else(|| {
                    let labels: Vec<_> =
                        InjectedDefect::ALL.iter().map(InjectedDefect::label).collect();
                    usage_error(&format!(
                        "verify: unknown defect `{value}` (expected one of: {})",
                        labels.join(", ")
                    ))
                }));
            }
            "--format" => {
                let Some(value) = iter.next() else {
                    usage_error("verify: --format requires a value (text or json)");
                };
                json = match value.as_str() {
                    "text" => false,
                    "json" => true,
                    other => usage_error(&format!(
                        "verify: invalid --format value `{other}` (expected text or json)"
                    )),
                };
            }
            "--out" => {
                let Some(value) = iter.next() else {
                    usage_error("verify: --out requires a file path");
                };
                out_path = Some(PathBuf::from(value));
            }
            other => usage_error(&format!("verify: unexpected argument `{other}`")),
        }
    }

    let report = match inject {
        Some(defect) => run_inject(defect),
        None => run_verify(quick),
    };
    let body = if json {
        format!("{}\n", verified_json(report.envelope(quick)))
    } else {
        report.render_text()
    };
    match out_path {
        Some(path) => {
            std::fs::write(&path, body.as_bytes()).unwrap_or_else(|err| {
                runtime_error(&format!("cannot write {}: {err}", path.display()));
            });
            errln!("wrote {}", path.display());
        }
        None => out!("{body}"),
    }
    std::process::exit(i32::from(!report.is_clean()));
}

/// One scenario's wall-time record for `--timings` — the perf-trajectory
/// baseline later runs diff against.
fn scenario_timing(
    experiment: &dyn Experiment,
    ctx: &ExperimentCtx,
    started: Instant,
    records: usize,
) -> Record {
    Record::new()
        .field("schema_version", SCHEMA_VERSION)
        .field("scenario", experiment.name())
        .field("wall_ms", started.elapsed().as_secs_f64() * 1_000.0)
        .field("records", records)
        .field("seed", ctx.seed)
        .field("quick", ctx.quick)
}
