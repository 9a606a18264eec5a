//! Closed-loop load generator for the `scadad` event-loop front-end.
//!
//! Not a criterion bench: latency distributions need percentiles, which
//! the shim's mean/min/max records cannot express, so this target owns
//! its `main` (the manifest already sets `harness = false`) and writes
//! its own `BENCH_GATE_JSON` records with `p50_ns` / `p99_ns` /
//! `throughput_rps` fields alongside the shim-compatible ones.
//!
//! Each measured point starts an in-process sharded engine behind the
//! readiness event loop, primes one hot verdict into the caches (and,
//! when sharded, the cross-shard replica), then drives it closed-loop:
//! `conns` TCP connections each keep `depth` pipelined requests
//! outstanding, replacing every reply with a fresh request for a fixed
//! wall-clock window. Replies arrive in order per connection, so the
//! oldest outstanding send timestamp prices each reply.
//!
//! The sweep covers shards × connections × pipelining depth; two fixed
//! points, `service_load/gate_single` and `service_load/gate_sharded`,
//! feed the CI perf gate (`bench_gate --gate service`), which bounds
//! the sharded p99 against the single-shard baseline.
//!
//! Environment: `BENCH_SMOKE=1` shrinks the sweep and windows for CI;
//! `BENCH_GATE_JSON=path` appends the machine-readable records. A bare
//! CLI argument filters points by label substring; `--test` (from
//! `cargo test --benches`) runs one tiny point for validation.

#[cfg(not(unix))]
fn main() {
    // The event-loop transport is unix-only; there is nothing to
    // measure elsewhere.
    println!("service_load: skipped (event-loop transport is unix-only)");
}

#[cfg(unix)]
fn main() {
    imp::main()
}

#[cfg(unix)]
mod imp {
    use std::collections::VecDeque;
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use scada_analyzer::service::{ServeOptions, ShardedEngine};

    /// One measured configuration.
    #[derive(Clone, Copy)]
    struct Point {
        shards: usize,
        conns: usize,
        depth: usize,
    }

    /// Latency/throughput summary of one run.
    struct Summary {
        p50_ns: f64,
        p99_ns: f64,
        mean_ns: f64,
        min_ns: f64,
        max_ns: f64,
        samples: usize,
        throughput_rps: f64,
    }

    fn percentile(sorted: &[f64], q: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = (q * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Runs one closed-loop point against a fresh engine and returns the
    /// latency distribution over `window`.
    fn run_point(point: Point, window: Duration) -> Summary {
        let engine = Arc::new(ShardedEngine::new(ServeOptions::default(), point.shards));

        // Prime: one model, one hot verify. The second query turns the
        // cold verdict into a primary-cache hit (publishing to the replica
        // when sharded); the third answers from the replica.
        let load = engine.handle_line("{\"op\":\"load\",\"case_study\":true}");
        assert!(
            load.line.contains("\"ok\":true"),
            "prime load: {}",
            load.line
        );
        let model = load
            .line
            .split("\"model\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .expect("model hash")
            .to_string();
        let verify = format!(
            "{{\"op\":\"verify\",\"model\":\"{model}\",\"property\":\"obs\",\
         \"spec\":{{\"k1\":1,\"k2\":1}}}}"
        );
        for _ in 0..3 {
            let r = engine.handle_line(&verify);
            assert!(r.line.contains("\"ok\":true"), "prime verify: {}", r.line);
        }

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                scada_analyzer::service::serve_event_loop(engine, listener, 0).expect("event loop")
            })
        };

        let stop = Arc::new(AtomicBool::new(false));
        let started = Instant::now();
        let mut clients = Vec::with_capacity(point.conns);
        for _ in 0..point.conns {
            // One buffer per request: the line and its newline leave
            // in a single write.
            let frame = format!("{verify}\n");
            let stop = Arc::clone(&stop);
            let depth = point.depth;
            clients.push(std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let mut outstanding: VecDeque<Instant> = VecDeque::with_capacity(depth);
                let mut latencies_ns: Vec<f64> = Vec::new();
                let mut line = String::new();
                for _ in 0..depth {
                    outstanding.push_back(Instant::now());
                    writer.write_all(frame.as_bytes()).expect("send");
                }
                while let Some(sent) = outstanding.pop_front() {
                    line.clear();
                    reader.read_line(&mut line).expect("reply");
                    assert!(line.contains("\"ok\":true"), "reply: {line}");
                    latencies_ns.push(sent.elapsed().as_nanos() as f64);
                    if !stop.load(Ordering::Relaxed) {
                        outstanding.push_back(Instant::now());
                        writer.write_all(frame.as_bytes()).expect("send");
                    }
                }
                latencies_ns
            }));
        }

        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        let mut latencies: Vec<f64> = Vec::new();
        for client in clients {
            latencies.extend(client.join().expect("client thread"));
        }
        let elapsed = started.elapsed();

        // Stop the service and wait out its drain.
        let ctrl = TcpStream::connect(addr).expect("ctrl connect");
        let mut w = ctrl.try_clone().expect("ctrl clone");
        w.write_all(b"{\"op\":\"shutdown\"}\n").expect("shutdown");
        let mut ack = String::new();
        BufReader::new(ctrl).read_line(&mut ack).expect("ack");
        server.join().expect("server thread");

        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let samples = latencies.len();
        let mean_ns = latencies.iter().sum::<f64>() / samples.max(1) as f64;
        Summary {
            p50_ns: percentile(&latencies, 0.50),
            p99_ns: percentile(&latencies, 0.99),
            mean_ns,
            min_ns: latencies.first().copied().unwrap_or(0.0),
            max_ns: latencies.last().copied().unwrap_or(0.0),
            samples,
            throughput_rps: samples as f64 / elapsed.as_secs_f64(),
        }
    }

    fn append_record(label: &str, s: &Summary) {
        let Some(path) = std::env::var_os("BENCH_GATE_JSON").filter(|v| !v.is_empty()) else {
            return;
        };
        let line = format!(
            "{{\"label\":\"{label}\",\"mean_ns\":{:.1},\"min_ns\":{:.1},\"max_ns\":{:.1},\
         \"samples\":{},\"p50_ns\":{:.1},\"p99_ns\":{:.1},\"throughput_rps\":{:.1}}}\n",
            s.mean_ns, s.min_ns, s.max_ns, s.samples, s.p50_ns, s.p99_ns, s.throughput_rps
        );
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = written {
            eprintln!("warning: cannot write {path:?}: {e}");
        }
    }

    pub(super) fn main() {
        let mut filter: Option<String> = None;
        let mut test_mode = false;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => test_mode = true,
                s if s.starts_with("--") => {}
                s => filter = Some(s.to_string()),
            }
        }
        if test_mode {
            let s = run_point(
                Point {
                    shards: 2,
                    conns: 2,
                    depth: 2,
                },
                Duration::from_millis(50),
            );
            assert!(s.samples >= 4, "load generator produced no traffic");
            println!("test service_load ... ok");
            return;
        }

        let smoke = std::env::var_os("BENCH_SMOKE").is_some_and(|v| !v.is_empty());
        let window = if smoke {
            Duration::from_millis(150)
        } else {
            Duration::from_millis(1000)
        };

        // The sweep: shards × connections × pipelining depth.
        let shard_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4] };
        let conn_counts: &[usize] = if smoke { &[4] } else { &[1, 4, 16] };
        let depths: &[usize] = if smoke { &[4] } else { &[1, 8] };

        println!("service_load: closed-loop hot-verify replay over the event loop");
        println!("{:<28} {:>10} {:>10} {:>12}", "point", "p50", "p99", "rps");
        let run_labeled = |label: String, point: Point| {
            if filter.as_ref().is_some_and(|f| !label.contains(f.as_str())) {
                return;
            }
            let s = run_point(point, window);
            println!(
                "{label:<28} {:>8.1} µs {:>8.1} µs {:>12.0}",
                s.p50_ns / 1e3,
                s.p99_ns / 1e3,
                s.throughput_rps
            );
            append_record(&label, &s);
        };

        for &shards in shard_counts {
            for &conns in conn_counts {
                for &depth in depths {
                    run_labeled(
                        format!("service_load/s{shards}_c{conns}_d{depth}"),
                        Point {
                            shards,
                            conns,
                            depth,
                        },
                    );
                }
            }
        }

        // The gate pair: identical traffic (8 connections, depth 4), one
        // shard versus four, for `bench_gate --gate service`.
        run_labeled(
            "service_load/gate_single".to_string(),
            Point {
                shards: 1,
                conns: 8,
                depth: 4,
            },
        );
        run_labeled(
            "service_load/gate_sharded".to_string(),
            Point {
                shards: 4,
                conns: 8,
                depth: 4,
            },
        );
    }
}
