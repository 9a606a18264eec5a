//! Seeded benchmark of the SCADA analyzer workspace.
//!
//! ```text
//! perfbench --workload <verify_sweep|fleet_audit|service_mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-verdicts     # re-certify perfbench/verdicts.txt
//! ```
//!
//! Run from the repository root (it reads `BENCHMARK.json` there for the
//! metric names, units and each workload's rationale). Each invocation
//! runs one workload in its own process, checks every output, prints a
//! table of the metrics with their sample counts, and ends with one JSON
//! line: `{"correct","attempted","failed","metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the run also
//! makes a traced pass and reports the per-layer metrics, the share of
//! wall time the named layers cover, and the tracing overhead (traced
//! minus untraced wall time). Spans and a run record (seed, `nproc`,
//! git revision, the workload's rationale) land in `.bench_out/`;
//! scratch files live in `.bench_work/` and are removed on exit.

mod fleet;
mod service;
mod stats;
mod sweep;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use scada_analyzer::service::{parse_json, Json};

use stats::{Metrics, Tally};

/// What one workload run hands back.
pub struct Report {
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    pub tally: Tally,
}

/// Settings shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker count for parallel layers: the machine's parallelism.
    pub nproc: usize,
    /// Scratch directory for this process (removed on exit).
    pub work: PathBuf,
    /// Where spans are written.
    pub out: PathBuf,
}

/// Times `reps` set-ups and keeps the last one; earlier ones are
/// dropped (and so torn down) as soon as the next starts.
pub fn timed_setups<T>(
    reps: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps {
        drop(kept.take());
        let start = std::time::Instant::now();
        kept = Some(setup(rep)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// How many repetitions of a unit of work with nominal duration
/// `unit_s` fill `seconds`: fixed by the arguments alone, so a faster
/// program does the same work in less time rather than more work.
pub fn repeats(seconds: f64, unit_s: f64) -> usize {
    ((seconds / unit_s).round() as usize).max(1)
}

/// The traced pass's summary: self time per span name, the share of the
/// root spans' time that named layers cover (everything but the self
/// time of `carriers`, the spans that only structure the workload), and
/// the tracing overhead (traced minus untraced wall time).
pub fn span_metrics(
    m: &mut Metrics,
    tracer: &trace::Tracer,
    carriers: &[&str],
    root: &str,
    traced_wall_s: f64,
    untraced_wall_s: f64,
) {
    let layers = tracer.layers();
    for (name, t) in &layers {
        m.put(&format!("self.{name}_ms"), t.self_us / 1e3, "ms", t.spans);
    }
    let roots = layers.get(root).copied().unwrap_or_default();
    let unattributed: f64 = carriers
        .iter()
        .filter_map(|c| layers.get(c))
        .map(|t| t.self_us)
        .sum();
    m.put(
        "trace.covered_share",
        1.0 - unattributed / roots.total_us.max(1e-9),
        "ratio",
        roots.spans,
    );
    m.one(
        "trace.overhead_ms",
        (traced_wall_s - untraced_wall_s) * 1e3,
        "ms",
    );
    m.one("trace.spans", tracer.span_count() as f64, "count");
}

/// The end-to-end metric a per-layer metric of `workload` should move.
fn moves(workload: &str, layer: &str) -> Option<&'static str> {
    let prefix = |p: &str| layer.starts_with(p);
    Some(match workload {
        "verify_sweep" if prefix("input.") || prefix("hash.") => "setup_s",
        "verify_sweep" if prefix("analyzer.") || prefix("encode.") => "query_p50_ms",
        "verify_sweep" if prefix("satcore.") || prefix("verify.") => "wall_s",
        "fleet_audit" if !prefix("self.") && !prefix("trace.") => "wall_s",
        "service_mixed" if prefix("engine.write") || prefix("journal.") => "write_p50_ms",
        "service_mixed" if prefix("engine.read") || prefix("protocol.") => "read_p50_ms",
        "service_mixed" if prefix("eventloop.") || prefix("generator.") => "read_p99_ms",
        "service_mixed" if prefix("cache.") || prefix("service.") => "read_p50_ms",
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_verdicts: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        write_verdicts: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-verdicts" {
            args.write_verdicts = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.write_verdicts && args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// A metric declared in BENCHMARK.json.
struct Declared {
    name: String,
    unit: String,
}

struct Manifest {
    why: String,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

fn load_manifest(workload: &str) -> Result<Manifest, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))?;
    let json = parse_json(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Vec<Declared>, String> {
        json.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json has no {key:?} list"))?
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
                Ok(Declared {
                    name: field("name").ok_or(format!("{key}: metric without a name"))?,
                    unit: field("unit").ok_or(format!("{key}: metric without a unit"))?,
                })
            })
            .collect()
    };
    let why = json
        .get("workloads")
        .and_then(Json::as_arr)
        .and_then(|ws| {
            ws.iter()
                .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))
        })
        .and_then(|w| w.get("why").and_then(Json::as_str))
        .ok_or(format!("BENCHMARK.json declares no workload {workload:?}"))?
        .to_string();
    Ok(Manifest {
        why,
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".to_string())
}

/// The git revision of the checkout, when there is a `.git` to read.
fn git_revision() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => read(&Path::new(".git").join(reference))
            .map(|r| r.trim().to_string())
            .or_else(|| {
                read(Path::new(".git/packed-refs"))?
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split(' ').next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

/// Selects the declared metrics from what the workload measured: every
/// declared metric must be present with its declared unit (per-layer
/// metrics of layers this workload never calls read 0 over 0 samples),
/// and nothing undeclared may be reported.
fn select(
    declared: &[Declared],
    measured: &Metrics,
    required: bool,
) -> Result<Vec<(String, stats::Metric)>, String> {
    for name in measured.0.keys() {
        if !declared.iter().any(|d| &d.name == name) {
            return Err(format!("metric {name:?} is not declared in BENCHMARK.json"));
        }
    }
    declared
        .iter()
        .map(|d| {
            let metric = match measured.0.get(&d.name) {
                Some(m) if m.unit != d.unit => {
                    return Err(format!(
                        "metric {:?} is measured in {} but declared in {}",
                        d.name, m.unit, d.unit
                    ))
                }
                Some(m) => m.clone(),
                None if required => return Err(format!("workload did not measure {:?}", d.name)),
                None => stats::Metric {
                    value: 0.0,
                    unit: "",
                    samples: 0,
                },
            };
            Ok((d.name.clone(), metric))
        })
        .collect()
}

fn run(args: &Args) -> Result<(), String> {
    let manifest = load_manifest(&args.workload)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc,
        work: work.clone(),
        out: out.clone(),
    };
    let result = match args.workload.as_str() {
        "verify_sweep" => sweep::run(&ctx),
        "fleet_audit" => fleet::run(&ctx),
        "service_mixed" => service::run(&ctx),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let mut report = result?;
    report.end_to_end.one("peak_rss_mb", peak_rss_mb()?, "MB");

    let (declared, measured) = if args.trace {
        (&manifest.per_layer, &report.per_layer)
    } else {
        (&manifest.end_to_end, &report.end_to_end)
    };
    let selected = select(declared, measured, !args.trace)?;

    let mut table = format!(
        "workload {} seed {} seconds {} trace {} nproc {nproc} rev {}\nwhy: {}\n",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_revision(),
        manifest.why
    );
    let shown: Vec<(String, stats::Metric)> = if args.trace {
        // The traced run shows the end-to-end figures of its untraced
        // pass too, for reading the per-layer ones against.
        select(&manifest.end_to_end, &report.end_to_end, true)?
            .into_iter()
            .chain(selected.iter().cloned())
            .collect()
    } else {
        selected.clone()
    };
    for (name, m) in &shown {
        let layer = args.trace && manifest.per_layer.iter().any(|d| &d.name == name);
        let moves = match moves(&args.workload, name) {
            Some(target) if layer && m.samples > 0 => format!("  -> {target}"),
            _ => String::new(),
        };
        let _ = writeln!(
            table,
            "  {name:<34} {:>14.4} {:<6} n={}{moves}",
            m.value, m.unit, m.samples
        );
    }
    let failed_frac = report.tally.failed as f64 / report.tally.attempted.max(1) as f64;
    let _ = writeln!(
        table,
        "  {:<34} {:>14.4} {:<6} n={}",
        "failed_frac", failed_frac, "ratio", report.tally.attempted
    );
    for note in &report.tally.notes {
        let _ = writeln!(table, "  FAILED: {note}");
    }
    print!("{table}");

    let mut metrics_json = String::new();
    for (i, (name, m)) in selected.iter().enumerate() {
        if i > 0 {
            metrics_json.push(',');
        }
        let unit = declared
            .iter()
            .find(|d| &d.name == name)
            .map_or("", |d| d.unit.as_str());
        let _ = write!(
            metrics_json,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(m.value)
        );
    }
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics_json}}}}}",
        report.tally.failed == 0,
        report.tally.attempted.max(1),
        report.tally.failed
    );
    let record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"rev\":\"{}\",\"why\":{},\"samples\":{{{}}},\"result\":{result}}}\n",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_revision(),
        Json::Str(manifest.why.clone())
            .render()
            .map_err(|e| format!("cannot render the rationale: {e}"))?,
        shown
            .iter()
            .map(|(n, m)| format!("\"{n}\":{}", m.samples))
            .collect::<Vec<_>>()
            .join(",")
    );
    let record_path = out.join(format!(
        "run-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&record_path, record)
        .map_err(|e| format!("cannot write {}: {e}", record_path.display()))?;
    println!("{result}");
    Ok(())
}

/// A finite JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.write_verdicts {
        sweep::write_verdicts()
    } else {
        run(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
