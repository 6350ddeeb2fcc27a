//! `serve_mixed`: an in-process `seg_serve::Server` driven by two
//! closed-loop HTTP clients, each on its own keep-alive connection.

use crate::cycle::{check_rows, closed_loop, job_seed, rows_in, Client, Digest, Fresh, Mix};
use crate::host::{peak_rss_mb, Who};
use crate::http::{bool_field, str_field, Conn};
use crate::report::{end_to_end, Layers, Samples, Tally, Value};
use crate::stats::{median, ratio};
use crate::trace::{check_lines, fill, result_lines, run_traced, Pool, Spans};
use crate::Run;
use seg_engine::{Engine, Observer, StreamingSink, SweepSpec};
use seg_grid::rng::Xoshiro256pp;
use seg_serve::{Json, ServeConfig, Server, SweepRequest};
use std::io::{BufRead, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Load-generating clients (the host's `nproc`), one connection each.
const CLIENTS: u64 = 2;
/// Replicas per fresh job: side 128, w = 2 replicas take a few ms each,
/// so a job runs several times the server's 20 ms row-poll interval.
const REPLICAS: u32 = 64;
/// Each client's cycle: one fresh submit followed to its last row, four
/// cache-hit resubmits and two full re-streams.
const MIX: Mix = Mix {
    resubmits: 4,
    restreams: 2,
};
/// `segsim serve` start-ups measured per run; the figure is their median.
const SETUP_REPS: usize = 9;
/// The longest line read from `segsim serve`'s standard output.
const MAX_LINE: u64 = 4096;
/// Jobs compared byte for byte against an in-process run per client.
const CHECKED_JOBS_PER_CLIENT: usize = 1;
/// Jobs per client re-run in-process and traced in the traced run.
const TRACED_JOBS_PER_CLIENT: usize = 4;

fn body(seed: u64, index: u64) -> String {
    format!(
        "{{\"side\":128,\"horizon\":2,\"tau\":0.45,\"replicas\":{REPLICAS},\"seed\":{}}}",
        job_seed(seed, index)
    )
}

/// The spec the server builds from a request body.
fn spec_of(body: &str) -> Result<SweepSpec, String> {
    let json = Json::parse(body)?;
    Ok(SweepRequest::from_json(&json)?.build_spec())
}

struct Instance {
    addr: String,
    handle: JoinHandle<std::io::Result<()>>,
}

/// Binds and starts a server on `data_dir`; returns it with the seconds
/// from the bind call to its first healthy answer.
fn start(data_dir: &Path) -> Result<(Instance, f64), String> {
    let started = Instant::now();
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: data_dir.to_path_buf(),
        ..Default::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let setup = healthy(&addr, started)?;
    Ok((Instance { addr, handle }, setup))
}

/// Seconds from `started` until the server at `addr` answers `/healthz`
/// with `200`, polled every [`crate::spawn::POLL`].
fn healthy(addr: &str, started: Instant) -> Result<f64, String> {
    let mut conn = Conn::new(addr);
    loop {
        if let Ok(r) = conn.request("GET", "/healthz", "") {
            if r.status == 200 {
                return Ok(started.elapsed().as_secs_f64());
            }
        }
        if started.elapsed() > Duration::from_secs(30) {
            return Err("server never became healthy".into());
        }
        std::thread::sleep(crate::spawn::POLL);
    }
}

/// One start-up of `segsim serve` as a user runs it: the seconds from
/// spawning the process until its first `200` from `/healthz`, taken
/// from outside. The server is then shut down and waited for.
fn setup_once(exe: &Path, data_dir: &Path, tally: &mut Tally) -> Option<f64> {
    let started = Instant::now();
    let mut child = match Command::new(exe)
        .args(["serve", "--addr", "127.0.0.1:0", "--data"])
        .arg(data_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => {
            tally.fail(format!("spawn {}: {e}", exe.display()));
            return None;
        }
    };
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("stdout is piped"));
    let secs = listening_addr(&mut stdout).and_then(|addr| {
        let secs = healthy(&addr, started)?;
        match Conn::new(&addr).request("POST", "/v1/shutdown", "") {
            Ok(r) if r.status == 200 => Ok(secs),
            _ => Err("shutdown refused".into()),
        }
    });
    let stopped = reap(&mut child, secs.is_ok());
    match (secs, stopped) {
        (Ok(secs), Ok(())) => {
            tally.ops(1, 0);
            Some(secs)
        }
        (Err(e), _) | (_, Err(e)) => {
            tally.fail(format!("segsim serve start-up: {e}"));
            None
        }
    }
}

/// The address `segsim serve` prints once it listens. Lines come from
/// the program under test, so each is read to a bounded length.
fn listening_addr(stdout: &mut impl BufRead) -> Result<String, String> {
    let mut line = String::new();
    loop {
        line.clear();
        match stdout.take(MAX_LINE).read_line(&mut line) {
            Ok(0) => return Err("exited before listening".into()),
            Ok(_) => {
                if let Some(addr) = line.trim().strip_prefix("serve: listening on http://") {
                    return Ok(addr.to_string());
                }
            }
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// Waits for `child` to end, killing it first unless it was asked to
/// stop; `Err` unless it stopped cleanly when asked.
fn reap(child: &mut Child, asked: bool) -> Result<(), String> {
    if !asked {
        let _ = child.kill();
    }
    match child.wait() {
        Ok(status) if status.success() || !asked => Ok(()),
        Ok(status) => Err(format!("exited {status}")),
        Err(e) => Err(e.to_string()),
    }
}

fn stop(instance: Instance, tally: &mut Tally) {
    let shut = Conn::new(&instance.addr).request("POST", "/v1/shutdown", "");
    tally.check(shut.is_ok_and(|r| r.status == 200), || {
        "shutdown refused".into()
    });
    match instance.handle.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => tally.fail(format!("server run: {e}")),
        Err(_) => tally.fail("server thread panicked".into()),
    }
}

/// Client-side serve figures, in seconds and bytes.
#[derive(Debug, Default)]
struct Stats {
    submit_s: Vec<f64>,
    first_row_s: Vec<f64>,
    restream_s: Vec<f64>,
    bytes: u64,
    resubmits: u64,
    cached: u64,
    rejected: u64,
    http_errors: u64,
}

impl Stats {
    fn absorb(&mut self, o: Stats) {
        self.submit_s.extend(o.submit_s);
        self.first_row_s.extend(o.first_row_s);
        self.restream_s.extend(o.restream_s);
        self.bytes += o.bytes;
        self.resubmits += o.resubmits;
        self.cached += o.cached;
        self.rejected += o.rejected;
        self.http_errors += o.http_errors;
    }
}

/// A finished job as its client remembers it.
struct Job {
    body: String,
    id: String,
    rows: Digest,
    ttlr: f64,
}

struct HttpClient {
    conn: Conn,
    seed: u64,
    stats: Stats,
}

impl HttpClient {
    /// Sends a request, counting it; `Ok` only for the expected status.
    fn send(
        &mut self,
        what: &str,
        method: &str,
        path: &str,
        body: &str,
        expect: &[u16],
        tally: &mut Tally,
    ) -> Option<crate::http::Response> {
        match self.conn.request(method, path, body) {
            Ok(r) if expect.contains(&r.status) => {
                tally.ops(1, 0);
                Some(r)
            }
            Ok(r) => {
                if r.status == 429 {
                    self.stats.rejected += 1;
                } else {
                    self.stats.http_errors += 1;
                }
                tally.fail(format!(
                    "{what}: {method} {path} answered {}: {}",
                    r.status,
                    String::from_utf8_lossy(&r.body)
                ));
                None
            }
            Err(e) => {
                self.stats.http_errors += 1;
                tally.fail(format!("{what}: {method} {path}: {e}"));
                None
            }
        }
    }
}

impl Client for HttpClient {
    type Job = Job;

    fn fresh(&mut self, index: u64, tally: &mut Tally) -> Option<(Job, Fresh)> {
        let body = body(self.seed, index);
        let spec = spec_of(&body).expect("benchmark request bodies are valid");
        let started = Instant::now();
        let submitted = self.send("fresh submit", "POST", "/v1/sweeps", &body, &[202], tally)?;
        self.stats.submit_s.push(started.elapsed().as_secs_f64());
        let Some(id) = str_field(&submitted.body, "id") else {
            tally.fail("fresh submit: no job id".into());
            return None;
        };
        let rows_path = format!("/v1/jobs/{id}/rows");
        let stream = self.send("live stream", "GET", &rows_path, "", &[200], tally)?;
        let ttlr = started.elapsed().as_secs_f64();
        if let Some(first) = stream.first_byte {
            self.stats
                .first_row_s
                .push(first.duration_since(started).as_secs_f64());
        }
        self.stats.bytes += stream.body.len() as u64;
        let rows = rows_in(&stream.body) as u64;
        tally.ops(
            u64::from(REPLICAS),
            u64::from(REPLICAS).saturating_sub(rows),
        );
        check_rows(&format!("job {id} live stream"), &spec, &stream.body, tally);
        // the job counts as finished once its state says so: resubmits
        // of it must then be answered from the cache
        let status_path = format!("/v1/jobs/{id}");
        let wait = Instant::now();
        loop {
            let r = self.send("status poll", "GET", &status_path, "", &[200], tally)?;
            match str_field(&r.body, "state").as_deref() {
                Some("done") => break,
                Some("failed") | None => {
                    tally.fail(format!(
                        "job {id} did not finish: {}",
                        String::from_utf8_lossy(&r.body)
                    ));
                    return None;
                }
                _ if wait.elapsed() > Duration::from_secs(60) => {
                    tally.fail(format!("job {id} streamed its rows but never finished"));
                    return None;
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        Some((
            Job {
                body,
                id,
                rows: Digest::of(&stream.body),
                ttlr,
            },
            Fresh {
                ttlr,
                replicas: REPLICAS as usize,
                setup: None,
            },
        ))
    }

    fn resubmit(&mut self, job: &Job, tally: &mut Tally) -> Option<f64> {
        let started = Instant::now();
        let r = self.send(
            "resubmit",
            "POST",
            "/v1/sweeps",
            &job.body,
            &[200, 202],
            tally,
        )?;
        let secs = started.elapsed().as_secs_f64();
        self.stats.resubmits += 1;
        let cached = r.status == 200 && bool_field(&r.body, "cached");
        self.stats.cached += u64::from(cached);
        tally
            .check(cached, || {
                format!("resubmit of job {} missed the cache", job.id)
            })
            .then_some(secs)
    }

    fn restream(&mut self, job: &Job, tally: &mut Tally) -> Option<(usize, f64)> {
        let started = Instant::now();
        let path = format!("/v1/jobs/{}/rows", job.id);
        let r = self.send("re-stream", "GET", &path, "", &[200], tally)?;
        let secs = started.elapsed().as_secs_f64();
        self.stats.restream_s.push(secs);
        self.stats.bytes += r.body.len() as u64;
        tally.check(Digest::of(&r.body) == job.rows, || {
            format!("re-stream of job {} differs from its live stream", job.id)
        });
        Some((rows_in(&r.body), secs))
    }
}

/// Runs both clients until `seconds` have passed.
fn drive(
    addr: &str,
    run: &Run,
    seconds: f64,
    samples: &mut Samples,
    tally: &mut Tally,
) -> (Vec<Vec<Job>>, Stats) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let outcomes: Vec<(Vec<Job>, Samples, Tally, Stats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = HttpClient {
                        conn: Conn::new(addr),
                        seed: run.seed,
                        stats: Stats::default(),
                    };
                    let mut rng = Xoshiro256pp::seed_from_u64(run.seed ^ (c + 1));
                    let mut samples = Samples::default();
                    let mut tally = Tally::default();
                    let jobs = closed_loop(
                        &mut client,
                        MIX,
                        (c, CLIENTS),
                        &mut rng,
                        deadline,
                        &mut samples,
                        &mut tally,
                    );
                    (jobs, samples, tally, client.stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut stats = Stats::default();
    let mut jobs = Vec::new();
    for (j, s, t, st) in outcomes {
        jobs.push(j);
        samples.absorb(s);
        tally.absorb(t);
        stats.absorb(st);
    }
    (jobs, stats)
}

/// Re-runs a served job in-process with a journal and a stream, checks
/// the stream is byte-identical to what the server streamed, and
/// returns the result with the run's seconds.
fn in_process(job: &Job, dir: &Path, tally: &mut Tally) -> Option<(seg_engine::SweepResult, f64)> {
    let spec = spec_of(&job.body).expect("benchmark request bodies are valid");
    let rows_path = dir.join("rows.jsonl");
    if let Err(e) = std::fs::create_dir_all(dir) {
        tally.fail(format!("reference dir: {e}"));
        return None;
    }
    let started = Instant::now();
    let outcome = StreamingSink::jsonl(&rows_path, &spec, false)
        .map_err(|e| e.to_string())
        .and_then(|stream| {
            Engine::new()
                .threads(1)
                .run_full(
                    &spec,
                    &[Observer::TerminalStats],
                    Some(&dir.join("ck.jsonl")),
                    Some(&stream),
                )
                .map_err(|e| e.to_string())
        });
    let secs = started.elapsed().as_secs_f64();
    match outcome {
        Ok(result) => {
            let reference = std::fs::read(&rows_path).unwrap_or_default();
            tally.check(Digest::of(&reference) == job.rows, || {
                format!(
                    "job {}: served rows differ from an in-process stream of the same spec",
                    job.id
                )
            });
            Some((result, secs))
        }
        Err(e) => {
            tally.fail(format!("in-process reference of job {}: {e}", job.id));
            None
        }
    }
}

fn setups(run: &Run, samples: &mut Samples, tally: &mut Tally) {
    for i in 0..SETUP_REPS {
        let dir = run.work.join(format!("setup{i}"));
        samples.setup_s.extend(setup_once(&run.segsim, &dir, tally));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The untraced run: end-to-end metrics.
pub fn measure(run: &Run, tally: &mut Tally) -> Vec<Value> {
    let mut samples = Samples::default();
    let (instance, _) = match start(&run.work.join("data")) {
        Ok(x) => x,
        Err(e) => {
            tally.fail(format!("start: {e}"));
            return end_to_end(&samples, f64::NAN, tally);
        }
    };
    let (jobs, _) = drive(&instance.addr, run, run.seconds as f64, &mut samples, tally);
    stop(instance, tally);
    let rss = peak_rss_mb(Who::SelfProcess).unwrap_or(f64::NAN);
    // set-ups are timed after the clients, on a host already running the
    // workload, so an idle CPU's wake-up is not counted as set-up
    setups(run, &mut samples, tally);
    for (c, client_jobs) in jobs.iter().enumerate() {
        for (k, job) in client_jobs.iter().take(CHECKED_JOBS_PER_CLIENT).enumerate() {
            in_process(job, &run.work.join(format!("ref{c}-{k}")), tally);
        }
    }
    end_to_end(&samples, rss, tally)
}

/// The traced run: client-side serve figures over half a run, then a few
/// served jobs re-run in-process (for the serve overhead and the pool
/// figures) and traced through the layer calls.
pub fn traced(run: &Run, tally: &mut Tally) -> Vec<Value> {
    let mut samples = Samples::default();
    let mut layers = Layers::default();
    let (instance, _) = match start(&run.work.join("data")) {
        Ok(x) => x,
        Err(e) => {
            tally.fail(format!("start: {e}"));
            return layers.in_manifest_order();
        }
    };
    let (jobs, stats) = drive(
        &instance.addr,
        run,
        run.seconds as f64 / 2.0,
        &mut samples,
        tally,
    );
    stop(instance, tally);

    let mut pool = Pool::default();
    let mut spans = Spans::default();
    let mut overhead_ms = Vec::new();
    for (c, client_jobs) in jobs.iter().enumerate() {
        for (k, job) in client_jobs.iter().take(TRACED_JOBS_PER_CLIENT).enumerate() {
            let dir = run.work.join(format!("ref{c}-{k}"));
            let Some((result, secs)) = in_process(job, &dir, tally) else {
                continue;
            };
            overhead_ms.push((job.ttlr - secs) * 1e3);
            pool.add(&result);
            let spec = spec_of(&job.body).expect("benchmark request bodies are valid");
            let trace_dir = dir.join("traced");
            match run_traced(&spec, &trace_dir, &mut spans, tally) {
                Ok(lines) => {
                    check_lines(
                        &format!("job {}", job.id),
                        &lines,
                        &result_lines(&result),
                        tally,
                    );
                    let traced_rows =
                        std::fs::read(trace_dir.join("traced_rows.jsonl")).unwrap_or_default();
                    tally.check(Digest::of(&traced_rows) == job.rows, || {
                        format!("job {}: traced rows differ from the served stream", job.id)
                    });
                }
                Err(e) => tally.fail(format!("traced job {}: {e}", job.id)),
            }
        }
    }
    fill(&mut layers, &spans, &pool);
    let ms = |xs: &[f64]| median(xs).map_or(0.0, |s| s * 1e3);
    layers.set("serve.submit_p50_ms", ms(&stats.submit_s));
    layers.set("serve.first_row_p50_ms", ms(&stats.first_row_s));
    layers.set("serve.overhead_p50_ms", median(&overhead_ms).unwrap_or(0.0));
    layers.describe(
        "serve.overhead_p50_ms",
        format!(
            "p50 over {} jobs of time to last row minus an in-process run_full (1 thread, journal + stream) of the same spec",
            overhead_ms.len()
        ),
    );
    layers.set("serve.restream_p50_ms", ms(&stats.restream_s));
    layers.set("serve.bytes_streamed", stats.bytes as f64);
    layers.set(
        "serve.cache_hit_ratio",
        ratio(stats.cached as f64, stats.resubmits as f64),
    );
    layers.describe(
        "serve.cache_hit_ratio",
        format!(
            "{} cached answers / {} resubmits",
            stats.cached, stats.resubmits
        ),
    );
    tally.check(
        stats.resubmits > 0 && stats.cached == stats.resubmits,
        || {
            format!(
                "cache hit ratio {} / {} is not 1",
                stats.cached, stats.resubmits
            )
        },
    );
    layers.set("serve.rejected", stats.rejected as f64);
    layers.set("serve.http_errors", stats.http_errors as f64);
    layers.in_manifest_order()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_listening_line_gives_the_address() {
        let out = "serve: tracing to t.jsonl\nserve: listening on http://127.0.0.1:4242\n";
        assert_eq!(
            listening_addr(&mut out.as_bytes()).as_deref(),
            Ok("127.0.0.1:4242")
        );
        assert!(listening_addr(&mut "serve: bind failed\n".as_bytes()).is_err());
    }
}
