//! `verify_sweep`: one serial caller on the CLI cold path.
//!
//! Every query builds a fresh `Analyzer` (no certification) on an
//! IEEE-118-sized grid at full measurement density and hierarchy 2 —
//! the paper's §VII ~400-device system — and asks for observability or
//! secured observability at a total failure budget k.
//!
//! The query list has two parts:
//! * the headline family, `Workload` seeds 0–3, at k = 1, 2, 3. Its
//!   k = 3 queries are search-bound (seed 0, observability k = 3 takes
//!   about 11k conflicts) and their solve times are heavy-tailed across
//!   instances (1.4 s to 18 s per six-query list over 48 seeds on a
//!   2-core x86-64 Linux host), so the
//!   family is the same for every run seed;
//! * four instances derived from the run seed (`Workload` seeds
//!   1000 + 4·seed + j) at k = 1, the encode-bound queries (at most a
//!   few hundred conflicts each).
//!
//! The run seed also shuffles the query order.

use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

use satcore::SolverStats;
use scada_analyzer::bruteforce::DirectEvaluator;
use scada_analyzer::encode::{ModelEncoder, SearchOutcome};
use scada_analyzer::{
    model_hash, AnalysisInput, Analyzer, Certificate, CertifyOptions, Obs, Property,
    ResiliencySpec, Verdict,
};
use scada_bench::Workload;

use crate::stats::{median, Metrics, Rng, Tally};
use crate::trace::{SpanId, Tracer};
use crate::{timed_setups, Ctx, Report};

const HEADLINE: [u64; 4] = [0, 1, 2, 3];
const DERIVED: u64 = 4;
const PROPERTIES: [Property; 2] = [Property::Observability, Property::SecuredObservability];
/// Nominal time of one pass over the query list: a run makes
/// `--seconds / PASS_S` passes (at least one).
const PASS_S: f64 = 22.0;

/// Verdicts of the default seed's queries, each certified once
/// (`--write-verdicts`): `<workload seed> <obs|secured> <k> <verdict>`.
const VERDICTS: &str = include_str!("../verdicts.txt");
const VERDICTS_PATH: &str = "perfbench/verdicts.txt";

fn workload(seed: u64) -> Workload {
    Workload {
        buses: 118,
        density: 1.0,
        hierarchy: 2,
        secure_fraction: 0.9,
        seed,
    }
}

/// `(workload seed, budgets)` of every instance a run seed names.
fn instance_plan(seed: u64) -> Vec<(u64, &'static [usize])> {
    let mut plan: Vec<(u64, &'static [usize])> =
        HEADLINE.iter().map(|&s| (s, &[1, 2, 3][..])).collect();
    for j in 0..DERIVED {
        plan.push((1000 + seed.wrapping_mul(DERIVED).wrapping_add(j), &[1][..]));
    }
    plan
}

fn property_name(p: Property) -> &'static str {
    match p {
        Property::Observability => "obs",
        Property::SecuredObservability => "secured",
        Property::BadDataDetectability => "baddata",
    }
}

struct Instance {
    seed: u64,
    budgets: &'static [usize],
    input: AnalysisInput,
    build: Duration,
    hash: Duration,
}

#[derive(Clone, Copy)]
struct Query {
    instance: usize,
    property: Property,
    k: usize,
}

fn setup(seed: u64) -> Vec<Instance> {
    instance_plan(seed)
        .into_iter()
        .map(|(s, budgets)| {
            let start = Instant::now();
            let input = workload(s).build();
            let build = start.elapsed();
            let start = Instant::now();
            std::hint::black_box(model_hash(&input));
            Instance {
                seed: s,
                budgets,
                input,
                build,
                hash: start.elapsed(),
            }
        })
        .collect()
}

/// Every query of every instance: both properties at each budget.
fn queries(instances: &[Instance]) -> Vec<Query> {
    let mut out = Vec::new();
    for (instance, inst) in instances.iter().enumerate() {
        for &property in &PROPERTIES {
            for &k in inst.budgets {
                out.push(Query {
                    instance,
                    property,
                    k,
                });
            }
        }
    }
    out
}

/// The replica of one query through the encoder's public steps.
struct Replica {
    base: Duration,
    encode: Duration,
    search: Duration,
    variables: usize,
    clauses: usize,
    stats: SolverStats,
    threat: bool,
}

fn replica(input: &AnalysisInput, q: Query) -> Replica {
    let spec = ResiliencySpec::total(q.k);
    let start = Instant::now();
    let mut encoder = ModelEncoder::new(input);
    let base = start.elapsed();
    let start = Instant::now();
    std::hint::black_box(encoder.violation_lit(input, q.property, spec.corrupted));
    std::hint::black_box(encoder.budget_assumptions(spec));
    let encode = start.elapsed();
    let sizes = encoder.stats();
    let before = encoder.solver_stats();
    let start = Instant::now();
    let outcome = encoder.find_violation(input, q.property, spec);
    let search = start.elapsed();
    Replica {
        base,
        encode,
        search,
        variables: sizes.variables,
        clauses: sizes.clauses,
        stats: encoder.solver_stats().delta_since(&before),
        threat: matches!(outcome, SearchOutcome::Violation(_)),
    }
}

struct Record {
    query: Query,
    new: Duration,
    verify: Duration,
    verdict: Verdict,
    replica: Option<Replica>,
}

struct Pass {
    wall: f64,
    records: Vec<Record>,
}

/// One pass over the query list. With `setups`, set-up is timed again
/// before each query (and left out of the pass's wall time), so its
/// reps spread over the run: a host's slow spells last seconds, and 40
/// reps taken back to back all fell into one of them (medians read 7 or
/// 12 ms from one run to the next).
fn pass(
    instances: &[Instance],
    order: &[Query],
    tracer: &Tracer,
    mut setups: Option<(u64, &mut Vec<f64>)>,
) -> Pass {
    let start = Instant::now();
    let mut excluded = Duration::ZERO;
    let mut records = Vec::with_capacity(order.len());
    for (i, &query) in order.iter().enumerate() {
        if let Some((seed, times)) = setups.as_mut() {
            let paused = Instant::now();
            let built = setup(*seed);
            times.push(paused.elapsed().as_secs_f64());
            drop(built);
            excluded += paused.elapsed();
        }
        let request = i as u64;
        let input = &instances[query.instance].input;
        let span = tracer.open("sweep.query", None, request);
        let t0 = Instant::now();
        let mut analyzer = Analyzer::with_options(input, Obs::none(), CertifyOptions::default());
        let t1 = Instant::now();
        let report = analyzer.verify_with_report(query.property, ResiliencySpec::total(query.k));
        let t2 = Instant::now();
        tracer.record("analyzer.new", t0, t1, span, request);
        let verify_span = tracer.record("analyzer.verify", t1, t2, span, request);
        tracer.close(span);
        drop(analyzer);
        let replica = tracer.enabled().then(|| {
            let paused = Instant::now();
            let r = replica(input, query);
            place_replica(tracer, verify_span, t1, &r, request);
            excluded += paused.elapsed();
            r
        });
        records.push(Record {
            query,
            new: t1 - t0,
            verify: t2 - t1,
            verdict: report.verdict,
            replica,
        });
    }
    Pass {
        wall: (start.elapsed() - excluded).as_secs_f64(),
        records,
    }
}

/// Attributes the analyzer query's time to encode and search: the
/// replica's durations become child spans at the start of the query
/// they replicate, so the query's self time is the unattributed rest.
fn place_replica(tracer: &Tracer, parent: SpanId, at: Instant, r: &Replica, request: u64) {
    let encoded = at + r.encode;
    tracer.record("encode", at, encoded, parent, request);
    tracer.record("search", encoded, encoded + r.search, parent, request);
}

fn verdict_table() -> BTreeMap<(u64, &'static str, usize), String> {
    VERDICTS
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let named = *f.get(1)?;
            let property = PROPERTIES
                .iter()
                .map(|&p| property_name(p))
                .find(|&n| n == named)?;
            Some((
                (f.first()?.parse().ok()?, property, f.get(2)?.parse().ok()?),
                f.get(3)?.to_string(),
            ))
        })
        .collect()
}

fn verdict_name(v: &Verdict) -> &'static str {
    match v {
        Verdict::Resilient => "resilient",
        Verdict::Threat(_) => "threat",
        Verdict::Unknown { .. } => "unknown",
    }
}

/// Checks one pass: threat vectors re-checked by the direct evaluator,
/// verdicts against the certified table, monotonicity in k, and the
/// replica's verdict against the analyzer's.
fn check(instances: &[Instance], evaluators: &[DirectEvaluator], pass: &Pass, tally: &mut Tally) {
    let table = verdict_table();
    let mut threat_at: BTreeMap<(usize, &'static str), Vec<(usize, bool)>> = BTreeMap::new();
    for r in &pass.records {
        let q = r.query;
        let inst = &instances[q.instance];
        let pname = property_name(q.property);
        let label = || format!("instance {} {pname} k={}", inst.seed, q.k);
        let mut ok = match &r.verdict {
            Verdict::Unknown { .. } => false,
            Verdict::Resilient => true,
            Verdict::Threat(v) => {
                let failed: HashSet<_> = v.devices().collect();
                v.len() <= q.k && evaluators[q.instance].violates(q.property, 0, &failed)
            }
        };
        let got = verdict_name(&r.verdict);
        if let Some(want) = table.get(&(inst.seed, pname, q.k)) {
            ok &= want == got;
        }
        if let Some(replica) = &r.replica {
            ok &= replica.threat == matches!(r.verdict, Verdict::Threat(_));
        }
        tally.check(ok, || {
            format!("{}: verdict {got} failed its check", label())
        });
        threat_at
            .entry((q.instance, pname))
            .or_default()
            .push((q.k, matches!(r.verdict, Verdict::Threat(_))));
    }
    for ((instance, pname), mut by_k) in threat_at {
        by_k.sort();
        let monotone = by_k.windows(2).all(|w| !w[0].1 || w[1].1);
        if !monotone {
            tally.fail(format!(
                "instance {} {pname}: verdicts not monotone in k: {by_k:?}",
                instances[instance].seed
            ));
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let (instances, mut setup_times) = timed_setups(1, |_| Ok(setup(ctx.seed)))?;
    let evaluators: Vec<DirectEvaluator> = instances
        .iter()
        .map(|i| DirectEvaluator::new(&i.input))
        .collect();
    let mut order = queries(&instances);
    Rng::new(ctx.seed, 1).shuffle(&mut order);

    let mut tally = Tally::default();
    let off = Tracer::new(false);
    let mut passes = Vec::new();
    for _ in 0..crate::repeats(ctx.seconds, PASS_S) {
        let p = pass(&instances, &order, &off, Some((ctx.seed, &mut setup_times)));
        check(&instances, &evaluators, &p, &mut tally);
        passes.push(p);
    }

    let mut e2e = Metrics::default();
    e2e.quantile("setup_s", &setup_times, 0.5, "s");
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    e2e.quantile("wall_s", &walls, 0.5, "s");
    let records = passes.iter().flat_map(|p| &p.records);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let query: Vec<f64> = records.clone().map(|r| ms(r.new + r.verify)).collect();
    let reads: Vec<f64> = records.clone().map(|r| ms(r.verify)).collect();
    let writes: Vec<f64> = records.map(|r| ms(r.new)).collect();
    e2e.quantile("query_p50_ms", &query, 0.5, "ms");
    e2e.quantile("read_p50_ms", &reads, 0.5, "ms");
    e2e.quantile("read_p99_ms", &reads, 0.99, "ms");
    e2e.quantile("write_p50_ms", &writes, 0.5, "ms");
    e2e.quantile("write_p95_ms", &writes, 0.95, "ms");

    let mut layers = Metrics::default();
    if ctx.trace {
        let tracer = Tracer::new(true);
        let traced = pass(&instances, &order, &tracer, None);
        check(&instances, &evaluators, &traced, &mut tally);
        layer_metrics(&mut layers, &instances, &traced, &tracer, median(&walls));
        tracer
            .write_jsonl(
                &ctx.out
                    .join(format!("trace-verify_sweep-seed{}.jsonl", ctx.seed)),
            )
            .map_err(|e| format!("cannot write spans: {e}"))?;
    }
    Ok(Report {
        end_to_end: e2e,
        per_layer: layers,
        tally,
    })
}

fn layer_metrics(
    m: &mut Metrics,
    instances: &[Instance],
    traced: &Pass,
    tracer: &Tracer,
    untraced_wall: f64,
) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let n = traced.records.len();
    let sum = |f: &dyn Fn(&Record, &Replica) -> f64| -> f64 {
        traced
            .records
            .iter()
            .filter_map(|r| r.replica.as_ref().map(|x| f(r, x)))
            .sum()
    };
    let builds: Duration = instances.iter().map(|i| i.build).sum();
    let hashes: Duration = instances.iter().map(|i| i.hash).sum();
    m.put("input.build_ms", ms(builds), "ms", instances.len());
    m.put(
        "hash.model_us",
        hashes.as_secs_f64() * 1e6,
        "us",
        instances.len(),
    );
    m.put("analyzer.new_ms", sum(&|r, _| ms(r.new)), "ms", n);
    m.put("encode.base_ms", sum(&|_, x| ms(x.base)), "ms", n);
    let encode = sum(&|_, x| ms(x.encode));
    let search = sum(&|_, x| ms(x.search));
    let verify = sum(&|r, _| ms(r.verify));
    m.put("encode.ms", encode, "ms", n);
    m.put("encode.vars", sum(&|_, x| x.variables as f64), "count", n);
    m.put("encode.clauses", sum(&|_, x| x.clauses as f64), "count", n);
    m.put("satcore.search_ms", search, "ms", n);
    m.put("verify.unattributed_ms", verify - encode - search, "ms", n);
    let props = sum(&|_, x| x.stats.propagations as f64);
    m.put(
        "satcore.conflicts",
        sum(&|_, x| x.stats.conflicts as f64),
        "count",
        n,
    );
    m.put(
        "satcore.decisions",
        sum(&|_, x| x.stats.decisions as f64),
        "count",
        n,
    );
    m.put("satcore.propagations", props, "count", n);
    m.put(
        "satcore.restarts",
        sum(&|_, x| x.stats.restarts as f64),
        "count",
        n,
    );
    m.put(
        "satcore.reductions",
        sum(&|_, x| x.stats.reductions as f64),
        "count",
        n,
    );
    m.put(
        "satcore.learnt",
        sum(&|_, x| x.stats.learnt_clauses as f64),
        "count",
        n,
    );
    m.put(
        "satcore.props_per_s",
        props / (search / 1e3).max(1e-9),
        "1/s",
        n,
    );
    crate::span_metrics(
        m,
        tracer,
        &["sweep.query", "analyzer.verify"],
        "sweep.query",
        traced.wall,
        untraced_wall,
    );
}

/// Re-certifies the default seed's verdict table: every query of seed 0
/// on a certifying analyzer, each verdict independently checked (DRAT
/// replay for `unsat`, model re-check for `sat`).
pub fn write_verdicts() -> Result<(), String> {
    let instances = setup(0);
    let queries = queries(&instances);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut lines: Vec<(usize, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        let Some(&q) = queries.get(i) else {
                            return out;
                        };
                        let inst = &instances[q.instance];
                        let mut analyzer = Analyzer::with_options(
                            &inst.input,
                            Obs::none(),
                            CertifyOptions::enabled(),
                        );
                        let report =
                            analyzer.verify_with_report(q.property, ResiliencySpec::total(q.k));
                        let certified = matches!(
                            (&report.verdict, &report.certificate),
                            (Verdict::Resilient, Some(Certificate::Proof { .. }))
                                | (Verdict::Threat(_), Some(Certificate::Threat { .. }))
                        );
                        let line = format!(
                            "{} {} {} {}",
                            inst.seed,
                            property_name(q.property),
                            q.k,
                            if certified {
                                verdict_name(&report.verdict)
                            } else {
                                "uncertified"
                            }
                        );
                        eprintln!("{line} ({:.1} s)", report.duration.as_secs_f64());
                        out.push((i, line));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("certifying worker panicked"))
            .collect()
    });
    lines.sort();
    if let Some((_, bad)) = lines.iter().find(|(_, l)| l.ends_with("uncertified")) {
        return Err(format!("certification failed: {bad}"));
    }
    let mut text = String::from(
        "# verify_sweep verdicts for seed 0, each certified by --write-verdicts.\n\
         # <workload seed> <property> <k> <verdict>\n",
    );
    for (_, line) in lines {
        text.push_str(&line);
        text.push('\n');
    }
    std::fs::write(VERDICTS_PATH, text).map_err(|e| format!("cannot write {VERDICTS_PATH}: {e}"))
}
