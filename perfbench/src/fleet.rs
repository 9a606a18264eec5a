//! `fleet_audit`: a closed-loop batch audit of a seeded portfolio.
//!
//! Set-up generates about a hundred channel-directory configs — six
//! similarity clusters over IEEE-14/30/57 templates, each a base, an
//! exact duplicate and `set_profile` rotations in seeded order, with a
//! mix of `obs` and `secured` properties, plus malformed configs — and
//! writes them to disk, so the importer reads real files. The run audits the tree with
//! `scan_fleet` → `plan_fleet` → `run_plan` on an in-process `Engine`
//! with certification on, repeating fresh audits for about `--seconds`
//! after one warm-up audit.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use powergrid::securityindex::security_indices;
use scada_analyzer::fleet::{plan_fleet, run_plan, scan_fleet, BatchOutcome, FleetPlan};
use scada_analyzer::ingest::{export_files, from_scada, import_dir};
use scada_analyzer::service::{Engine, ServeOptions};
use scada_analyzer::{model_hash, CertifyOptions};
use scadasim::{generate, CryptoProfile, DeviceId, ScadaConfig, ScadaGenConfig};

use crate::stats::{median, Metrics, Rng, Tally};
use crate::trace::Tracer;
use crate::{timed_setups, Ctx, Report};

/// Grid sizes of the cluster templates. The templates and each
/// cluster's cycle of site edits are the same for every run seed, and
/// the seed picks where each cluster's cycle starts: seed-drawn
/// templates and edits made the audit's figures a property of the draw
/// (1.2–1.65 s wall and 2.4–5.1 ms median config read time over five
/// seeds), and so did a seeded shuffle of the edits, through the patch
/// chains it made (write p95 0.8–1.7 ms over five seeds; 2-core x86-64
/// Linux).
const TEMPLATES: [usize; 6] = [14, 14, 30, 30, 57, 57];
const MEMBERS: usize = 16;
/// Nominal time of one audit: a run makes `--seconds / AUDIT_S` audits,
/// so every run of a given length does the same work.
const AUDIT_S: f64 = 1.6;
/// Jobs of `run_plan`. One: with one job per core on a two-core share,
/// every figure measured the host's scheduler as much as the program
/// (IQR/median of the latency figures 0.15–0.22 over seven seeds,
/// against 0.05–0.10 with one job).
const JOBS: usize = 1;

/// Profile lists a site may rotate a channel pair to.
pub const PROFILES: [&str; 6] = [
    "aes 256",
    "hmac 128 sha2 128",
    "rsa 2048",
    "md5 64",
    "des 56",
    "aes 128 sha2 256",
];

/// Malformed configs and a fragment their error row must carry.
const MALFORMED: [(&str, &str, &str); 2] = [
    (
        "zz-bad-quote",
        "channel,kind,uplink,transport,bandwidth_kbps\n\"mtu001,master,,ethernet,10000\n",
        "channels.csv:2:1",
    ),
    (
        "zz-bad-kind",
        "channel,kind,uplink,transport,bandwidth_kbps\nmtu001,mainframe,,ethernet,10000\n",
        "unknown channel kind",
    ),
];

/// A generated substation on an IEEE-sized grid.
pub fn base_scada(buses: usize, seed: u64) -> ScadaConfig {
    let generated = generate(
        powergrid::synthetic::ieee_sized(buses, 0),
        &ScadaGenConfig {
            measurement_density: 0.7,
            hierarchy_level: 1,
            secure_fraction: 0.8,
            seed,
            ..Default::default()
        },
    );
    ScadaConfig {
        measurements: generated.measurements,
        topology: generated.topology,
        ied_measurements: generated.ied_measurements,
        resilience: (1, 1),
        corrupted: 1,
        link_failures: 0,
    }
}

pub fn parse_profiles(spec: &str) -> Vec<CryptoProfile> {
    let tokens: Vec<&str> = spec.split_whitespace().collect();
    tokens
        .chunks(2)
        .map(|p| {
            format!("{} {}", p[0], p[1])
                .parse()
                .expect("profile menu parses")
        })
        .collect()
}

/// The config's channel pairs that carry an explicit security entry.
pub fn secured_pairs(scada: &ScadaConfig) -> Vec<(DeviceId, DeviceId)> {
    let mut pairs: Vec<_> = scada
        .topology
        .pair_security_entries()
        .map(|(a, b, _)| (a, b))
        .collect();
    pairs.sort_by_key(|&(a, b)| (a.index(), b.index()));
    pairs
}

/// A config as `(name, relative path → text)`.
type Config = (String, BTreeMap<String, String>);

/// The portfolio, malformed configs last.
fn portfolio(seed: u64) -> Result<Vec<Config>, String> {
    let mut rng = Rng::new(seed, 2);
    let mut configs = Vec::new();
    for (cluster, &buses) in TEMPLATES.iter().enumerate() {
        let base = base_scada(buses, cluster as u64);
        let pairs = secured_pairs(&base);
        if pairs.is_empty() {
            return Err(format!("template {buses} has no security entries"));
        }
        // The base and its duplicate ask for secured observability. Each
        // rotation re-profiles one pair; the cluster's cycle of (pair,
        // profile, property) edits is fixed and the seed rotates it,
        // which moves where the planner's patch chain starts and one of
        // its links.
        let rotations = MEMBERS - 2;
        let mut edits: Vec<(usize, &str, &str)> = (0..rotations)
            .map(|r| {
                let property = if r % 3 == 0 { "obs" } else { "secured" };
                (
                    r * pairs.len() / rotations,
                    PROFILES[r % PROFILES.len()],
                    property,
                )
            })
            .collect();
        edits.rotate_left(rng.below(rotations));
        for member in 0..MEMBERS {
            let mut scada = base.clone();
            let property = match member.checked_sub(2).map(|r| edits[r]) {
                None => "secured",
                Some((pair, profiles, property)) => {
                    let (a, b) = pairs[pair];
                    scada
                        .topology
                        .set_pair_security(a, b, parse_profiles(profiles));
                    property
                }
            };
            let name = format!("c{cluster}-ieee{buses}-{member:02}");
            let config = from_scada(&name, &scada, property).map_err(|e| e.to_string())?;
            configs.push((name, export_files(&config)));
        }
    }
    for (name, channels, _) in MALFORMED {
        let files = BTreeMap::from([("channels.csv".to_string(), channels.to_string())]);
        configs.push((name.to_string(), files));
    }
    Ok(configs)
}

/// A portfolio written to disk; removed when dropped.
struct Portfolio {
    dir: PathBuf,
}

impl Drop for Portfolio {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn write_portfolio(configs: Vec<Config>, dir: PathBuf) -> Result<Portfolio, String> {
    let written = Portfolio { dir };
    for (name, files) in configs {
        for (rel, text) in files {
            let path = written.dir.join(&name).join(rel);
            let parent = path.parent().expect("config files sit in a directory");
            std::fs::create_dir_all(parent)
                .and_then(|()| std::fs::write(&path, text))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }
    Ok(written)
}

const OPS: [(&str, &str); 5] = [
    ("load", "service.load"),
    ("patch", "service.patch"),
    ("verify", "service.verify"),
    ("maxres", "service.maxres"),
    ("security_index", "service.security_index"),
];

/// The op of a request line, as its span name.
fn op_span(line: &str) -> &'static str {
    let op = line
        .split("\"op\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .unwrap_or("");
    OPS.iter()
        .find(|(o, _)| *o == op)
        .map_or("service.other", |(_, span)| span)
}

fn is_write(span: &str) -> bool {
    span == "service.load" || span == "service.patch"
}

struct Call {
    span: &'static str,
    ms: f64,
}

struct Audit {
    wall: f64,
    scan_ms: f64,
    plan_ms: f64,
    run_ms: f64,
    plan: FleetPlan,
    outcome: BatchOutcome,
    calls: Vec<Call>,
    cert_ms: f64,
    cert_checks: f64,
    proof_steps: f64,
    hits: f64,
    misses: f64,
}

fn audit(dir: &Path, jobs: usize, tracer: &Tracer, request: u64) -> Result<Audit, String> {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let root = tracer.open("fleet.audit", None, request);
    let start = Instant::now();
    let scan = tracer
        .span("fleet.scan", root, request, |_| scan_fleet(dir))
        .map_err(|e| format!("fleet scan: {e}"))?;
    let scan_ms = ms(start);
    let t = Instant::now();
    let plan = tracer.span("fleet.plan", root, request, |_| plan_fleet(scan));
    let plan_ms = ms(t);
    let t = Instant::now();
    let engine = Engine::new(ServeOptions {
        certify: CertifyOptions::enabled(),
        ..ServeOptions::default()
    });
    let calls = Mutex::new(Vec::new());
    let run_span = tracer.open("fleet.run", root, request);
    let submit = |line: &str| {
        let span = op_span(line);
        let begun = Instant::now();
        let reply = engine.handle_line(line).line;
        let ended = Instant::now();
        tracer.record(span, begun, ended, run_span, request);
        calls.lock().expect("call log poisoned").push(Call {
            span,
            ms: (ended - begun).as_secs_f64() * 1e3,
        });
        reply
    };
    let outcome = run_plan(&plan, jobs, &submit);
    tracer.close(run_span);
    tracer.close(root);
    let run_ms = ms(t);
    let wall = start.elapsed().as_secs_f64();
    let metrics = engine.metrics();
    let audit = Audit {
        wall,
        scan_ms,
        plan_ms,
        run_ms,
        cert_ms: metrics.histogram("cert_us").sum as f64 / 1e3,
        cert_checks: metrics.counter("cert_checks") as f64,
        proof_steps: metrics.histogram("proof_steps").sum as f64,
        hits: metrics.counter("service_cache_hits") as f64,
        misses: metrics.counter("service_cache_misses") as f64,
        plan,
        outcome,
        calls: calls.into_inner().expect("call log poisoned"),
    };
    engine.drain();
    Ok(audit)
}

/// Min-cut security-index histograms per config name (Hendrickx et
/// al.'s exact formulation), computed outside every timed region.
fn mincut_histograms(plan: &FleetPlan) -> BTreeMap<String, Vec<(u64, u64)>> {
    plan.scan
        .members
        .iter()
        .map(|m| {
            let mut hist: BTreeMap<u64, u64> = BTreeMap::new();
            for alpha in security_indices(&m.input.measurements) {
                *hist.entry(alpha as u64).or_insert(0) += 1;
            }
            (m.config.name.clone(), hist.into_iter().collect())
        })
        .collect()
}

fn check(audit: &Audit, mincut: &BTreeMap<String, Vec<(u64, u64)>>, tally: &mut Tally) {
    let rows = &audit.outcome.rows;
    for row in rows {
        let name = &row.config;
        let ok = match (&row.error, MALFORMED.iter().find(|(n, _, _)| n == name)) {
            (Some(error), Some((_, _, fragment))) => error.contains(fragment),
            (Some(_), None) | (None, Some(_)) => false,
            (None, None) => {
                let want = mincut.get(name);
                matches!(row.certificate.as_deref(), Some("proof" | "threat"))
                    && matches!(row.verdict.as_deref(), Some("resilient" | "threat"))
                    // No budget at all keeps the property when even k = 0
                    // fails; the verify verdict must then be a threat.
                    && match row.max {
                        Some(Some(_)) => true,
                        Some(None) => row.verdict.as_deref() == Some("threat"),
                        None => false,
                    }
                    && want == Some(&row.histogram)
                    && row.index_floor == want.and_then(|h| h.first()).map(|&(a, _)| a)
            }
        };
        tally.check(ok, || format!("fleet row {name}: {}", row.render_json()));
    }
    let expected = mincut.len() + MALFORMED.len();
    if rows.len() != expected {
        tally.fail(format!(
            "audit returned {} rows, want {expected}",
            rows.len()
        ));
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    // Set-up is generation plus the canonical export (`export_files`).
    // Writing the tree to disk is done once, untimed: on a shared disk
    // the cost of creating its ~5k directories can vary tenfold between
    // runs, which would drown the program's share of set-up.
    let (configs, mut setup_times) = timed_setups(1, |_| portfolio(ctx.seed))?;
    let tree = write_portfolio(configs, ctx.work.join("portfolio"))?;
    let dir = tree.dir.clone();
    let mut tally = Tally::default();
    let mut mincut = BTreeMap::new();

    let mut audits = |tracer: &Tracer,
                      tally: &mut Tally,
                      mut setups: Option<&mut Vec<f64>>|
     -> Result<Vec<Audit>, String> {
        let mut out = Vec::new();
        // One more audit than the run measures: the first is a warm-up.
        for _ in 0..=crate::repeats(ctx.seconds, AUDIT_S) {
            // Set-up is timed again before each audit, so its reps spread
            // over the run: a host's slow spells last seconds, and reps
            // taken back to back all fell into one of them (medians of 25
            // such reps read 21 or 37 ms from one run to the next).
            if let Some(times) = setups.as_deref_mut() {
                let start = Instant::now();
                let configs = portfolio(ctx.seed)?;
                times.push(start.elapsed().as_secs_f64());
                drop(configs);
            }
            let a = audit(&dir, JOBS, tracer, out.len() as u64)?;
            if mincut.is_empty() {
                mincut = mincut_histograms(&a.plan);
            }
            check(&a, &mincut, tally);
            out.push(a);
        }
        Ok(out)
    };
    let plain = audits(&Tracer::new(false), &mut tally, Some(&mut setup_times))?.split_off(1);

    let mut e2e = Metrics::default();
    e2e.quantile("setup_s", &setup_times, 0.5, "s");
    let walls: Vec<f64> = plain.iter().map(|a| a.wall).collect();
    e2e.quantile("wall_s", &walls, 0.5, "s");
    let audits_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    e2e.quantile("query_p50_ms", &audits_ms, 0.5, "ms");
    // Read and write latencies are those of the single engine calls the
    // audits submit, pooled over the measured audits.
    let calls = |write: bool| -> Vec<f64> {
        plain
            .iter()
            .flat_map(|a| &a.calls)
            .filter(|c| is_write(c.span) == write)
            .map(|c| c.ms)
            .collect()
    };
    let (reads, writes) = (calls(false), calls(true));
    e2e.quantile("read_p50_ms", &reads, 0.5, "ms");
    e2e.quantile("read_p99_ms", &reads, 0.99, "ms");
    e2e.quantile("write_p50_ms", &writes, 0.5, "ms");
    e2e.quantile("write_p95_ms", &writes, 0.95, "ms");

    let mut layers = Metrics::default();
    if ctx.trace {
        let tracer = Tracer::new(true);
        let traced = audits(&tracer, &mut tally, None)?.split_off(1);
        layer_metrics(&mut layers, &dir, &traced)?;
        let traced_walls: Vec<f64> = traced.iter().map(|a| a.wall).collect();
        crate::span_metrics(
            &mut layers,
            &tracer,
            &["fleet.audit", "fleet.run"],
            "fleet.audit",
            median(&traced_walls),
            median(&walls),
        );
        tracer
            .write_jsonl(
                &ctx.out
                    .join(format!("trace-fleet_audit-seed{}.jsonl", ctx.seed)),
            )
            .map_err(|e| format!("cannot write spans: {e}"))?;
    }
    Ok(Report {
        end_to_end: e2e,
        per_layer: layers,
        tally,
    })
}

fn layer_metrics(m: &mut Metrics, dir: &Path, traced: &[Audit]) -> Result<(), String> {
    let n = traced.len();
    let per_audit =
        |f: &dyn Fn(&Audit) -> f64| -> f64 { median(&traced.iter().map(f).collect::<Vec<_>>()) };
    m.put("fleet.scan_ms", per_audit(&|a| a.scan_ms), "ms", n);
    m.put("fleet.plan_ms", per_audit(&|a| a.plan_ms), "ms", n);
    m.put("fleet.run_ms", per_audit(&|a| a.run_ms), "ms", n);
    for (op, span) in OPS {
        let times: Vec<f64> = traced
            .iter()
            .flat_map(|a| &a.calls)
            .filter(|c| c.span == span)
            .map(|c| c.ms)
            .collect();
        let name = |suffix: &str| format!("service.{op}.{suffix}");
        m.put(
            &name("ms"),
            times.iter().sum::<f64>() / n as f64,
            "ms",
            times.len(),
        );
        m.put(&name("count"), times.len() as f64 / n as f64, "count", n);
        m.quantile(&name("p50_ms"), &times, 0.5, "ms");
    }
    let first = &traced[0];
    let (cold, patch, dup) = first.plan.route_counts();
    m.one("fleet.routes.cold", cold as f64, "count");
    m.one("fleet.routes.patch", patch as f64, "count");
    m.one("fleet.routes.dup", dup as f64, "count");
    for provenance in ["cold", "warm", "delta", "cached"] {
        m.one(
            &format!("fleet.provenance.{provenance}"),
            first.outcome.provenance_count(provenance) as f64,
            "count",
        );
    }
    let valid = first.plan.scan.members.len().max(1);
    m.one(
        "fleet.dedup_ratio",
        (patch + dup) as f64 / valid as f64,
        "ratio",
    );
    m.put("certify.ms", per_audit(&|a| a.cert_ms), "ms", n);
    m.put("certify.checks", per_audit(&|a| a.cert_checks), "count", n);
    m.put(
        "certify.proof_steps",
        per_audit(&|a| a.proof_steps),
        "count",
        n,
    );
    m.put(
        "cache.hit_ratio",
        per_audit(&|a| a.hits / (a.hits + a.misses).max(1.0)),
        "ratio",
        n,
    );

    // The importer's layers, replicated config by config outside the
    // audits: `import_dir`, lowering, and the canonical hash.
    let (mut import, mut lower, mut hash) = (0.0, 0.0, 0.0);
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    let mut members = 0;
    for path in &entries {
        let t = Instant::now();
        let imported = import_dir(path);
        import += t.elapsed().as_secs_f64() * 1e3;
        let Ok(config) = imported else { continue };
        let t = Instant::now();
        let input = config.input();
        lower += t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        std::hint::black_box(model_hash(&input));
        hash += t.elapsed().as_secs_f64() * 1e6;
        members += 1;
    }
    m.put("ingest.import_ms", import, "ms", entries.len());
    m.put("ingest.lower_ms", lower, "ms", members);
    m.put("hash.model_us", hash, "us", members);
    Ok(())
}
