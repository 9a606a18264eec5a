//! `service_mixed`: an open loop of independent operators against an
//! in-process `scadad`.
//!
//! The server is `serve_event_loop` on loopback TCP, serving a
//! `JournaledEngine` at the production default `strict` durability over
//! a default (one-shard) `ShardedEngine`. Set-up loads seven warm
//! IEEE-14/30/57 models (an eighth session slot is left for scratch
//! loads) and primes their verdict caches. The run seed draws the
//! arrival schedule, the request mix and the scratch configs.
//!
//! Traffic is a fixed seeded Poisson schedule over at most `nproc`
//! connections, one client thread each. About 90 % are reads (cached
//! `verify` over four spec shapes, an occasional `security_index`, and
//! `stats`); the rest are writes: a `set_profile` patch followed by a
//! verify of the patched model, and now and then a cold `load` of a new
//! config that is evicted again half a second later. Every model is
//! pinned to one connection, whose requests the event loop executes in
//! order, and no request naming a model is sent while a load or patch
//! of that model is unanswered, so the schedule never names a hash the
//! server cannot know. Latency is timed from each request's due time;
//! a warm-up phase is excluded, and each percentile is the median of
//! its values over slices of the measured window.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use scada_analyzer::service::{
    advance_model_hash, model_hash, parse_json, parse_request, serve_event_loop, JournalConfig,
    JournaledEngine, Json, LineHandler, ModelHash, ServeOptions, ShardedEngine,
};
use scada_analyzer::{AnalysisInput, ModelPatch};
use scadasim::{parse_config, write_config, DeviceId};

use crate::fleet::{base_scada, parse_profiles, secured_pairs, PROFILES};
use crate::stats::{median, quantile, Metrics, Rng, Tally};
use crate::trace::Tracer;
use crate::{timed_setups, Ctx, Report};

/// Grid sizes of the warm models. They are the same deployment for
/// every run seed: warm sessions grow with every patch by an amount that
/// depends on the model's topology, so seed-drawn models would make
/// `peak_rss_mb` a property of the draw (93–123 MB over three seeds,
/// 2-core x86-64 Linux).
const WARM: [usize; 7] = [14, 14, 14, 30, 30, 57, 57];
/// Scratch loads reuse one of these templates with a fresh seed.
const SCRATCH: [usize; 3] = [14, 30, 57];
/// Requests per second, over all connections.
const RATE: f64 = 1000.0;
const WARMUP_S: f64 = 2.0;
/// Nominal length of the slices the measured window is cut into. Each
/// latency percentile is taken per slice and the run reports the median
/// over the slices, so a burst of noise on a shared host moves one
/// slice rather than the run's figure. A slice holds about 240 writes,
/// so its write p95 has a dozen samples beyond it.
const SLICE_S: f64 = 3.0;
const SETUP_REPS: usize = 5;
/// How long a scratch model lives before its evict is due.
const SCRATCH_LIFE_S: f64 = 0.5;
/// `(property, k1, k2)` of the verify shapes reads ask for.
const SHAPES: [(&str, usize, usize); 4] = [
    ("obs", 1, 0),
    ("obs", 1, 1),
    ("secured", 1, 0),
    ("secured", 1, 1),
];
/// Bound on one run's wait for a reply before the run is abandoned.
const STALL: Duration = Duration::from_secs(60);

fn verify_line(model: ModelHash, shape: usize) -> String {
    let (property, k1, k2) = SHAPES[shape];
    format!(
        "{{\"op\":\"verify\",\"model\":\"{model}\",\"property\":\"{property}\",\
         \"spec\":{{\"k1\":{k1},\"k2\":{k2}}}}}"
    )
}

fn load_line(text: &str) -> String {
    let mut line = String::from("{\"op\":\"load\",\"config\":");
    line.push_str(
        &Json::Str(text.to_string())
            .render()
            .expect("strings render"),
    );
    line.push('}');
    line
}

/// The hash the server will give a loaded config.
fn config_hash(text: &str) -> Result<ModelHash, String> {
    let parsed = parse_config(text).map_err(|e| format!("generated config: {e}"))?;
    Ok(model_hash(&AnalysisInput::from(parsed)))
}

/// One line-oriented connection to the server.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream
            .write_all(&bytes)
            .map_err(|e| format!("send: {e}"))
    }

    /// The next complete reply line, waiting at most `wait`.
    fn poll(&mut self, wait: Duration) -> Result<Option<String>, String> {
        if let Some(line) = self.take_line() {
            return Ok(Some(line));
        }
        self.stream
            .set_read_timeout(Some(wait.max(Duration::from_micros(50))))
            .map_err(|e| format!("read timeout: {e}"))?;
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(self.take_line())
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn take_line(&mut self) -> Option<String> {
        let end = self.buf.iter().position(|&b| b == b'\n')?;
        let line: Vec<u8> = self.buf.drain(..=end).collect();
        Some(String::from_utf8_lossy(&line[..end]).into_owned())
    }

    /// Sends one line and waits for its reply.
    fn call(&mut self, line: &str) -> Result<Json, String> {
        self.send(line)?;
        let deadline = Instant::now() + STALL;
        loop {
            if let Some(reply) = self.poll(Duration::from_millis(50))? {
                return parse_json(&reply).map_err(|e| format!("bad reply {reply:?}: {e}"));
            }
            if Instant::now() > deadline {
                return Err(format!("no reply to {line}"));
            }
        }
    }
}

fn is_ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

/// A model the traffic addresses, with the state the schedule tracks.
struct Slot {
    hash: ModelHash,
    pairs: Vec<(DeviceId, DeviceId)>,
}

/// A running server with its warm models loaded and primed.
struct Server {
    addr: SocketAddr,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    conns: Vec<Conn>,
    slots: Vec<Slot>,
    /// Every line the harness has sent this server.
    sent: u64,
    /// The `load` lines of set-up, for the journal replay.
    loads: Vec<String>,
    journal: PathBuf,
}

impl Server {
    fn call(&mut self, conn: usize, line: &str) -> Result<Json, String> {
        self.sent += 1;
        let reply = self.conns[conn].call(line)?;
        if !is_ok(&reply) {
            return Err(format!(
                "{line:.120} failed: {}",
                reply.render().unwrap_or_default()
            ));
        }
        Ok(reply)
    }

    fn counters(&mut self) -> Result<HashMap<String, f64>, String> {
        let reply = self.call(0, "{\"op\":\"stats\"}")?;
        match reply.get("counters") {
            Some(Json::Obj(fields)) => Ok(fields
                .iter()
                .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(0.0)))
                .collect()),
            _ => Err("stats reply has no counters".to_string()),
        }
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let acked = Conn::open(self.addr).and_then(|mut c| c.call("{\"op\":\"shutdown\"}"));
        let joined = thread.join();
        acked?;
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("event loop: {e}")),
            Err(_) => Err("event loop panicked".to_string()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown();
        let _ = std::fs::remove_dir_all(&self.journal);
    }
}

fn setup(ctx: &Ctx, rep: usize) -> Result<Server, String> {
    let journal = ctx.work.join(format!("journal-{rep}"));
    let inner = Arc::new(ShardedEngine::new(ServeOptions::default(), 1));
    let engine = Arc::new(
        JournaledEngine::open(inner, JournalConfig::new(&journal))
            .map_err(|e| format!("journal: {e}"))?,
    );
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    let thread = std::thread::spawn(move || serve_event_loop(engine, listener, 0));
    let mut server = Server {
        addr,
        thread: Some(thread),
        conns: Vec::new(),
        slots: Vec::new(),
        sent: 0,
        loads: Vec::new(),
        journal,
    };
    for _ in 0..ctx.nproc {
        server.conns.push(Conn::open(addr)?);
    }
    for (i, &buses) in WARM.iter().enumerate() {
        let scada = base_scada(buses, i as u64);
        let text = write_config(&scada);
        let hash = config_hash(&text)?;
        let line = load_line(&text);
        let conn = i % ctx.nproc;
        let reply = server.call(conn, &line)?;
        if reply.get("model").and_then(Json::as_str) != Some(&hash.to_string()) {
            return Err(format!("load of warm model {i} answered another hash"));
        }
        server.loads.push(line);
        for shape in 0..SHAPES.len() {
            server.call(conn, &verify_line(hash, shape))?;
        }
        server.call(
            conn,
            &format!("{{\"op\":\"security_index\",\"model\":\"{hash}\"}}"),
        )?;
        let pairs = secured_pairs(&scada);
        server.slots.push(Slot { hash, pairs });
    }
    Ok(server)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Read,
    Write,
}

/// One scheduled request.
struct Req {
    due: f64,
    line: String,
    class: Class,
    /// The model slot the line names (held while it is being mutated).
    names: Option<usize>,
    /// The slot this line loads, patches or evicts (a journaled write).
    mutates: Option<usize>,
    /// The model hash the reply must carry.
    expect: Option<ModelHash>,
    /// 0 = warm-up, 1 = measured, 2 = traced.
    window: u8,
}

/// Generates the seeded schedule, one request list per connection.
fn schedule(ctx: &Ctx, server: &Server, windows: &[(f64, u8)]) -> Result<Vec<Vec<Req>>, String> {
    let mut rng = Rng::new(ctx.seed, 4);
    let conns = ctx.nproc;
    let warm = server.slots.len();
    let scratch = warm;
    let conn_of = |slot: usize| slot % conns;
    let mut hashes: Vec<ModelHash> = server.slots.iter().map(|s| s.hash).collect();
    let mut out: Vec<Vec<Req>> = (0..conns).map(|_| Vec::new()).collect();
    let mut scratch_free_at = 0.0;
    // Writes visit the models in turn, and each model's patches walk its
    // channel pairs and the profile menu in step, the same for every
    // seed: how much a patch grows a warm session depends on the pair
    // and profile it sets, so seeded choices made peak RSS a property of
    // the draw (114–143 MB over ten seeds, 97–131 MB with a seeded
    // start in the walk; 2-core x86-64 Linux).
    let (mut patches, mut loads) = (0usize, 0usize);
    let mut t = 0.0;
    for &(length, window) in windows {
        let end = t + length;
        loop {
            t += -(1.0 - rng.unit()).ln() / RATE;
            if t >= end {
                t = end;
                break;
            }
            let mut push = |conn: usize, req: Req| out[conn].push(req);
            let roll = rng.unit();
            let slot = rng.below(warm);
            if roll < 0.04 {
                // Write: a profile rotation, then a verify of the result.
                let (slot, round) = (patches % warm, patches / warm);
                patches += 1;
                let pairs = &server.slots[slot].pairs;
                let (a, b) = pairs[round % pairs.len()];
                let profiles = parse_profiles(PROFILES[round % PROFILES.len()]);
                let wire: Vec<String> = profiles.iter().map(|p| format!("\"{p}\"")).collect();
                let patch = ModelPatch::SetProfile { a, b, profiles };
                let next = advance_model_hash(hashes[slot], &patch);
                push(
                    conn_of(slot),
                    Req {
                        due: t,
                        line: format!(
                            "{{\"op\":\"patch\",\"model\":\"{}\",\"patch\":{{\"set_profile\":\
                             {{\"a\":{},\"b\":{},\"profiles\":[{}]}}}}}}",
                            hashes[slot],
                            a.one_based(),
                            b.one_based(),
                            wire.join(",")
                        ),
                        class: Class::Write,
                        names: Some(slot),
                        mutates: Some(slot),
                        expect: Some(next),
                        window,
                    },
                );
                hashes[slot] = next;
                push(
                    conn_of(slot),
                    Req {
                        due: t,
                        line: verify_line(next, rng.below(SHAPES.len())),
                        class: Class::Write,
                        names: Some(slot),
                        mutates: None,
                        expect: Some(next),
                        window,
                    },
                );
            } else if roll < 0.045 && t >= scratch_free_at && t + SCRATCH_LIFE_S < end {
                // Write: a cold load of a new config, evicted later in
                // the same window.
                let buses = SCRATCH[loads % SCRATCH.len()];
                loads += 1;
                let text = write_config(&base_scada(buses, 1_000_000 + rng.next_u64() % 1_000_000));
                let hash = config_hash(&text)?;
                let evict_at = t + SCRATCH_LIFE_S;
                scratch_free_at = evict_at + 0.05;
                push(
                    conn_of(scratch),
                    Req {
                        due: t,
                        line: load_line(&text),
                        class: Class::Write,
                        names: Some(scratch),
                        mutates: Some(scratch),
                        expect: Some(hash),
                        window,
                    },
                );
                push(
                    conn_of(scratch),
                    Req {
                        due: evict_at,
                        line: format!("{{\"op\":\"evict\",\"model\":\"{hash}\"}}"),
                        class: Class::Write,
                        names: Some(scratch),
                        mutates: Some(scratch),
                        expect: Some(hash),
                        window,
                    },
                );
            } else if roll < 0.065 {
                push(
                    conn_of(slot),
                    Req {
                        due: t,
                        line: format!(
                            "{{\"op\":\"security_index\",\"model\":\"{}\"}}",
                            hashes[slot]
                        ),
                        class: Class::Read,
                        names: Some(slot),
                        mutates: None,
                        expect: Some(hashes[slot]),
                        window,
                    },
                );
            } else if roll < 0.095 {
                push(
                    rng.below(conns),
                    Req {
                        due: t,
                        line: "{\"op\":\"stats\"}".to_string(),
                        class: Class::Read,
                        names: None,
                        mutates: None,
                        expect: None,
                        window,
                    },
                );
            } else {
                push(
                    conn_of(slot),
                    Req {
                        due: t,
                        line: verify_line(hashes[slot], rng.below(SHAPES.len())),
                        class: Class::Read,
                        names: Some(slot),
                        mutates: None,
                        expect: Some(hashes[slot]),
                        window,
                    },
                );
            }
        }
    }
    for reqs in &mut out {
        // Evicts are due later than the requests generated after their
        // load; keep every connection's list in due order (the sort is
        // stable, so a patch stays ahead of its verify).
        reqs.sort_by(|a, b| a.due.total_cmp(&b.due));
    }
    Ok(out)
}

/// What the client saw of one request.
struct Sample {
    class: Class,
    window: u8,
    due: Instant,
    sent: Instant,
    recv: Instant,
    /// Server-side time from the reply's `elapsed_us`.
    engine_us: f64,
    /// What went wrong, for a failed request.
    failure: Option<String>,
}

/// Drives one connection's schedule: sends each request when due and
/// reads replies in between. A request naming a model whose load or
/// patch is unanswered is held back (with any later request naming the
/// same model) until that reply arrives; other requests pass it.
fn client(
    mut conn: Conn,
    reqs: &[Req],
    t0: Instant,
    tracer: &Tracer,
) -> Result<(Conn, Vec<Sample>), String> {
    let mut samples = Vec::with_capacity(reqs.len());
    let mut outstanding: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut mutating: HashMap<usize, usize> = HashMap::new();
    let mut held: Vec<usize> = Vec::new();
    let mut next = 0;
    let mut last_progress = Instant::now();
    let at = |due: f64| t0 + Duration::from_secs_f64(due);
    while next < reqs.len() || !held.is_empty() || !outstanding.is_empty() {
        // Due requests join the queue in schedule order; then send every
        // queued request whose model is not being mutated and that no
        // earlier queued request for the same model precedes.
        let now = Instant::now();
        while next < reqs.len() && at(reqs[next].due) <= now {
            held.push(next);
            next += 1;
        }
        let mut blocked: Vec<usize> = Vec::new();
        let mut i = 0;
        while i < held.len() {
            let req = &reqs[held[i]];
            let waits = req.names.is_some_and(|s| {
                mutating.get(&s).copied().unwrap_or(0) > 0 || blocked.contains(&s)
            });
            if waits {
                blocked.extend(req.names);
                i += 1;
                continue;
            }
            conn.send(&req.line)?;
            if let Some(s) = req.mutates {
                *mutating.entry(s).or_insert(0) += 1;
            }
            outstanding.push_back((held.remove(i), Instant::now()));
        }
        let wait = reqs.get(next).map_or(Duration::from_millis(20), |r| {
            at(r.due).saturating_duration_since(Instant::now())
        });
        if outstanding.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        let Some(line) = conn.poll(wait)? else {
            if last_progress.elapsed() > STALL {
                return Err("a reply took longer than a minute".to_string());
            }
            continue;
        };
        let recv = Instant::now();
        last_progress = recv;
        let (index, sent) = outstanding.pop_front().expect("a reply answers a request");
        let req = &reqs[index];
        let reply = parse_json(&line).ok();
        let ok = reply.as_ref().is_some_and(|r| {
            is_ok(r)
                && req
                    .expect
                    .is_none_or(|h| r.get("model").and_then(Json::as_str) == Some(&h.to_string()))
        });
        if let Some(s) = req.mutates {
            *mutating.get_mut(&s).expect("mutation was counted") -= 1;
        }
        let engine_us = reply
            .as_ref()
            .and_then(|r| r.get("elapsed_us").and_then(Json::as_f64))
            .unwrap_or(0.0);
        let due = at(req.due);
        if req.window == 2 {
            let request = index as u64;
            let root = tracer.record("service.request", due, recv, None, request);
            let served = recv
                .checked_sub(Duration::from_secs_f64(engine_us / 1e6))
                .unwrap_or(sent)
                .max(sent);
            tracer.record("generator.late", due, sent, root, request);
            tracer.record("eventloop.wait", sent, served, root, request);
            tracer.record("engine", served, recv, root, request);
        }
        samples.push(Sample {
            class: req.class,
            window: req.window,
            due,
            sent,
            recv,
            engine_us,
            failure: (!ok).then(|| format!("{:.100} -> {line:.200}", req.line)),
        });
    }
    Ok((conn, samples))
}

/// Runs the schedule over every connection at once.
fn traffic(
    server: &mut Server,
    plan: &[Vec<Req>],
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<(Instant, Vec<Sample>), String> {
    let conns = std::mem::take(&mut server.conns);
    let t0 = Instant::now() + Duration::from_millis(20);
    let results: Vec<Result<_, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(plan)
            .map(|(conn, reqs)| scope.spawn(move || client(conn, reqs, t0, tracer)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client panicked".to_string()))
            })
            .collect()
    });
    let mut samples = Vec::new();
    for result in results {
        let (conn, mut s) = result?;
        server.conns.push(conn);
        samples.append(&mut s);
    }
    server.sent += plan.iter().map(|r| r.len() as u64).sum::<u64>();
    for s in &samples {
        tally.check(s.failure.is_none(), || {
            s.failure.clone().unwrap_or_default()
        });
    }
    Ok((t0, samples))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let (mut server, setup_times) = timed_setups(SETUP_REPS, |rep| setup(ctx, rep))?;
    let mut tally = Tally::default();
    let mut windows = vec![(WARMUP_S, 0), (ctx.seconds, 1)];
    if ctx.trace {
        windows.push((ctx.seconds, 2));
    }
    let plan = schedule(ctx, &server, &windows)?;
    let before = server.counters()?;
    let tracer = Tracer::new(ctx.trace);
    let (t0, samples) = traffic(&mut server, &plan, &tracer, &mut tally)?;
    let sent = server.sent;
    let after = server.counters()?;
    let served = after.get("service_requests").copied().unwrap_or(0.0);
    tally.check(served == sent as f64, || {
        format!("stats counts {served} requests, the harness sent {sent}")
    });
    server.shutdown()?;

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let window = |w: u8| {
        samples
            .iter()
            .filter(move |s| s.window == w && s.failure.is_none())
    };
    let wall = |w: u8, start: f64| -> f64 {
        let begin = t0 + Duration::from_secs_f64(start);
        window(w)
            .map(|s| s.recv.saturating_duration_since(begin).as_secs_f64())
            .fold(0.0, f64::max)
    };
    let slices = ((ctx.seconds / SLICE_S).round() as usize).max(1);
    let mut e2e = Metrics::default();
    let mut sliced = |name: &str, class: Option<Class>, q: f64| {
        let mut by_slice = vec![Vec::new(); slices];
        for s in window(1).filter(|s| class.is_none_or(|c| s.class == c)) {
            let at = (s.due - t0).as_secs_f64() - WARMUP_S;
            let slice = (at / ctx.seconds * slices as f64) as usize;
            by_slice[slice.min(slices - 1)].push(ms(s.recv - s.due));
        }
        let per_slice: Vec<f64> = by_slice
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| quantile(v, q))
            .collect();
        let samples = by_slice.iter().map(Vec::len).sum();
        e2e.put(name, median(&per_slice), "ms", samples);
    };
    sliced("query_p50_ms", None, 0.5);
    sliced("read_p50_ms", Some(Class::Read), 0.5);
    sliced("read_p99_ms", Some(Class::Read), 0.99);
    sliced("write_p50_ms", Some(Class::Write), 0.5);
    sliced("write_p95_ms", Some(Class::Write), 0.95);

    e2e.quantile("setup_s", &setup_times, 0.5, "s");
    let untraced_wall = wall(1, WARMUP_S);
    e2e.one("wall_s", untraced_wall, "s");

    let mut layers = Metrics::default();
    if ctx.trace {
        let engine_us = |class: Class| -> Vec<f64> {
            window(2)
                .filter(|s| s.class == class)
                .map(|s| s.engine_us)
                .collect()
        };
        let (r, w) = (engine_us(Class::Read), engine_us(Class::Write));
        layers.quantile("engine.read_us.p50", &r, 0.5, "us");
        layers.quantile("engine.read_us.p99", &r, 0.99, "us");
        layers.quantile("engine.write_us.p50", &w, 0.5, "us");
        layers.quantile("engine.write_us.p99", &w, 0.99, "us");
        let waits: Vec<f64> = window(2)
            .map(|s| ((s.recv - s.sent).as_secs_f64() * 1e6 - s.engine_us).max(0.0))
            .collect();
        layers.quantile("eventloop.wait_us.p50", &waits, 0.5, "us");
        layers.quantile("eventloop.wait_us.p99", &waits, 0.99, "us");
        let late: Vec<f64> = window(2)
            .map(|s| ms(s.sent.saturating_duration_since(s.due)))
            .collect();
        layers.quantile("generator.late_ms.p99", &late, 0.99, "ms");
        layers.quantile("generator.late_ms.max", &late, 1.0, "ms");
        let counter =
            |stats: &HashMap<String, f64>, name: &str| stats.get(name).copied().unwrap_or(0.0);
        let delta = |name: &str| counter(&after, name) - counter(&before, name);
        for (metric, counter) in [
            ("journal.appends", "service_journal_appends"),
            ("journal.fsyncs", "service_journal_fsyncs"),
            ("cache.hits", "service_cache_hits"),
            ("cache.misses", "service_cache_misses"),
            ("service.delta_patches", "service_delta_patches"),
            ("service.busy", "service_busy"),
            ("service.session_rebuilds", "service_session_rebuilds"),
        ] {
            layers.one(metric, delta(counter), "count");
        }
        layers.one("journal.bytes", delta("service_journal_bytes"), "B");
        let (hits, misses) = (delta("service_cache_hits"), delta("service_cache_misses"));
        layers.one("cache.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
        let lines: Vec<&str> = plan.iter().flatten().map(|r| r.line.as_str()).collect();
        let t = Instant::now();
        for line in &lines {
            std::hint::black_box(parse_request(line).is_ok());
        }
        layers.put(
            "protocol.parse_us",
            t.elapsed().as_secs_f64() * 1e6 / lines.len().max(1) as f64,
            "us",
            lines.len(),
        );
        let (overhead, writes) = journal_overhead(ctx, &server, &plan)?;
        layers.put("journal.write_overhead_us", overhead, "us", writes);
        crate::span_metrics(
            &mut layers,
            &tracer,
            &["service.request"],
            "service.request",
            wall(2, WARMUP_S + ctx.seconds),
            untraced_wall,
        );
        tracer
            .write_jsonl(
                &ctx.out
                    .join(format!("trace-service_mixed-seed{}.jsonl", ctx.seed)),
            )
            .map_err(|e| format!("cannot write spans: {e}"))?;
    }
    Ok(Report {
        end_to_end: e2e,
        per_layer: layers,
        tally,
    })
}

/// Replays the set-up loads and every recorded mutation (load, patch,
/// evict) in process, through a fresh `JournaledEngine` and a bare
/// `ShardedEngine`; the per-write difference is the journal's cost.
fn journal_overhead(ctx: &Ctx, server: &Server, plan: &[Vec<Req>]) -> Result<(f64, usize), String> {
    let mut writes: Vec<&Req> = plan
        .iter()
        .flatten()
        .filter(|r| r.mutates.is_some())
        .collect();
    writes.sort_by(|a, b| a.due.total_cmp(&b.due));
    let dir = ctx.work.join("journal-replay");
    let journaled = JournaledEngine::open(
        Arc::new(ShardedEngine::new(ServeOptions::default(), 1)),
        JournalConfig::new(&dir),
    )
    .map_err(|e| format!("replay journal: {e}"))?;
    let bare = ShardedEngine::new(ServeOptions::default(), 1);
    for line in &server.loads {
        journaled.handle_line(line);
        bare.handle_line(line);
    }
    let (mut with, mut without) = (Duration::ZERO, Duration::ZERO);
    for req in &writes {
        let t = Instant::now();
        let a = journaled.handle_line(&req.line);
        with += t.elapsed();
        let t = Instant::now();
        let b = bare.handle_line(&req.line);
        without += t.elapsed();
        if !a.line.starts_with("{\"ok\":true") || !b.line.starts_with("{\"ok\":true") {
            return Err(format!("replayed write failed: {:.100}", req.line));
        }
    }
    LineHandler::drain(&journaled);
    bare.drain();
    let _ = std::fs::remove_dir_all(&dir);
    let n = writes.len().max(1);
    Ok((
        (with.as_secs_f64() - without.as_secs_f64()) * 1e6 / n as f64,
        writes.len(),
    ))
}
