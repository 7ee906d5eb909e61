//! The live-service workload: a `serve` server in this process at its
//! default `ServerConfig`, driven over loopback TCP by an open-loop
//! generator.
//!
//! The generator is one connection and two threads (this one sends on a
//! seeded Poisson schedule, one more receives), so it stays within the two
//! cores of the reference box. Latency runs from each request's
//! *scheduled* send, so a stalled sender or server is charged to the
//! requests it delayed; the generator also reports how late it sent. Every
//! response is checked against the corpus before it counts.
//!
//! Phases, each on a fresh server whose `CoreStats` then cover exactly that
//! phase: light-rate chunks (`p50_us`, `p99_us`) alternate with rate
//! searches (`kops`: the highest offered rate whose p99 meets
//! [`P99_LIMIT_US`] with the achieved rate keeping up).

use std::hint::black_box;
use std::time::{Duration, Instant};

use orchestrator::ThreadPool;
use pagetable::addr::PhysAddr;
use ptguard::correct::G_MAX;
use ptguard::{Line, PtGuardConfig, PteMac};
use rng::SplitMix64;
use serve::client::Client;
use serve::core::{Coalescer, CoreStats, Engine, Job, JobKind};
use serve::corpus::{census_corpus, CorpusEntry};
use serve::load::arrival_schedule;
use serve::proto::{Request, Response, ST_CORRECTED};
use serve::server::{Server, ServerConfig};
use workloads::pte_census::CensusConfig;

use crate::kernels;
use crate::report::{median, peak_rss_mb, quantile, Outcome, Tally};
use crate::sim::sub_seed;
use crate::spans::{SpanId, Tracer};
use crate::Args;

/// The workload's name.
pub const NAME: &str = "serve-correct";
/// Every 50th request (2 %) is a `Correct` on a line with 1–2 seeded bit
/// flips. 2 % sits well clear of the 1 % tail `p99_us` reads, so the
/// percentile lands inside the correction latencies rather than on the
/// boundary between two populations.
const CORRECT_EVERY: usize = 50;
/// The light open-loop rate `p50_us` and `p99_us` are measured at.
pub const LIGHT_RPS: u64 = 10_000;
/// The p99 limit the rate search holds every step to. It sits well above
/// the light-rate p99 (about 1 ms, set by the corrections), so a step fails
/// where the queue starts to grow, not on a host stall.
pub const P99_LIMIT_US: f64 = 5_000.0;
/// Every `EMBED_EVERY`-th request is an embed.
const EMBED_EVERY: usize = 8;
/// Census corpus entries replayed.
const CORPUS: usize = 4096;
/// Set-ups per run; `setup_s` is the median.
const SETUPS: usize = 3;
/// Rate search: first and last offered rate, growth factor, bisection
/// steps, and requests per step.
const SEARCH_START_RPS: f64 = 20_000.0;
const SEARCH_MAX_RPS: f64 = 1_000_000.0;
const SEARCH_GROWTH: f64 = 1.3;
const SEARCH_BISECT: usize = 5;
const SEARCH_STEP_REQUESTS: usize = 10_000;
/// A run alternates this many light-phase chunks with rate searches, so the
/// figures sample the host at several moments; `kops` is the median of
/// the searches.
const CYCLES: usize = 3;
/// Most segments a phase's latency is cut into (see
/// [`Phase::segment_quantile`]).
const SEGMENTS: usize = 20;
/// A search step passes only if the achieved rate keeps up with this share
/// of the offered rate (no growing backlog).
const KEEP_UP: f64 = 0.95;

/// A request and the response it must get.
#[derive(Clone, Copy)]
struct Planned {
    req: Request,
    /// The protected line an embed or a correction must return.
    expect: Line,
}

/// The workload's inputs, all derived from the run seed.
struct Inputs {
    corpus: Vec<CorpusEntry>,
    mac: PteMac,
    fault_seed: u64,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let cfg = CensusConfig {
            seed: sub_seed(seed, 0xce5),
            ..CensusConfig::default()
        };
        let engine = Engine::new(&PtGuardConfig::default());
        let corpus = census_corpus(&cfg, CORPUS, &engine, &ThreadPool::new(1));
        Self {
            corpus,
            mac: engine.mac().clone(),
            fault_seed: sub_seed(seed, 0xfa17),
        }
    }

    /// The traffic mix of one phase, generated per request on demand so
    /// memory does not grow with the offered rate.
    fn mix(&self, first_id: u64, salt: u64) -> Mix<'_> {
        Mix {
            inputs: self,
            first_id,
            salt,
        }
    }
}

/// Request `i` of a phase and the answer it must get, a pure function of
/// the run seed, the phase salt and `i`.
struct Mix<'a> {
    inputs: &'a Inputs,
    first_id: u64,
    salt: u64,
}

impl Mix<'_> {
    fn get(&self, i: usize) -> Planned {
        let e = &self.inputs.corpus[i % self.inputs.corpus.len()];
        let id = self.first_id + i as u64;
        let addr = e.addr.as_u64();
        let req = if i % CORRECT_EVERY == CORRECT_EVERY / 2 {
            let mut rng = SplitMix64::new(sub_seed(self.inputs.fault_seed ^ self.salt, i as u64));
            let line = kernels::fault_line(&e.protected, &self.inputs.mac, &mut rng);
            Request::Correct { id, addr, line }
        } else if i.is_multiple_of(EMBED_EVERY) {
            Request::Embed {
                id,
                addr,
                line: e.raw,
            }
        } else {
            Request::Verify {
                id,
                addr,
                line: e.protected,
            }
        };
        Planned {
            req,
            expect: e.protected,
        }
    }

    fn take(&self, n: usize) -> Vec<Planned> {
        (0..n).map(|i| self.get(i)).collect()
    }
}

/// Whether `resp` is the right answer to `p`.
fn response_ok(p: &Planned, resp: &Response) -> bool {
    match (p.req, *resp) {
        (Request::Embed { id, .. }, Response::Embedded { id: rid, line }) => {
            id == rid && line == p.expect
        }
        (Request::Verify { id, .. }, Response::Verified { id: rid, ok }) => id == rid && ok,
        (
            Request::Correct { id, .. },
            Response::Corrected {
                id: rid,
                status,
                line,
                guesses,
                ..
            },
        ) => id == rid && status == ST_CORRECTED && line == p.expect && guesses <= G_MAX,
        (Request::Correct { id, .. }, Response::Uncorrectable { id: rid, guesses }) => {
            id == rid && guesses <= G_MAX
        }
        _ => false,
    }
}

fn response_id(resp: &Response) -> Option<u64> {
    match *resp {
        Response::Embedded { id, .. }
        | Response::Verified { id, .. }
        | Response::Corrected { id, .. }
        | Response::Uncorrectable { id, .. } => Some(id),
        Response::ShutdownAck { .. } => None,
    }
}

/// What one open-loop phase measured.
#[derive(Default)]
struct Phase {
    /// Latency of each answered request, µs from its scheduled send.
    latency_us: Vec<f64>,
    /// How late the sender put each request on the wire, µs.
    late_us: Vec<f64>,
    achieved_rps: f64,
    stats: CoreStats,
    tally: Tally,
}

impl Phase {
    fn sorted_latency(&self) -> Vec<f64> {
        let mut v = self.latency_us.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    fn p(&self, q: f64) -> f64 {
        let v = self.sorted_latency();
        if v.is_empty() {
            f64::INFINITY
        } else {
            quantile(&v, q)
        }
    }

    /// Percentile `q` of the phase's latency, host-stall resistant: the
    /// requests are cut, in send order, into up to [`SEGMENTS`] segments of
    /// at least 1000 (so 10 or more lie beyond a segment's p99), and the
    /// result is the lower quartile of the segments' percentiles. Stalls of
    /// the shared VM (1–30 ms, seen in random segments) inflate the
    /// segments they hit; a slower service raises every segment.
    fn segment_quantile(&self, q: f64) -> f64 {
        let segments = (self.latency_us.len() / 1000).clamp(1, SEGMENTS);
        let len = self.latency_us.len() / segments;
        if len == 0 {
            return f64::INFINITY;
        }
        let mut per: Vec<f64> = self
            .latency_us
            .chunks_exact(len)
            .map(|c| {
                let mut v = c.to_vec();
                v.sort_by(f64::total_cmp);
                quantile(&v, q)
            })
            .collect();
        per.sort_by(f64::total_cmp);
        quantile(&per, 0.25)
    }
}

/// Waits until `start + at_ns`: sleeps until 30 µs before (precise once
/// [`precise_sleep`] has run on this thread), then spins with yields, so the
/// sender is punctual without taking a core from the server.
fn wait_until(start: Instant, at_ns: u64) {
    let target = start + Duration::from_nanos(at_ns);
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        let left = target - now;
        if left > Duration::from_micros(60) {
            std::thread::sleep(left - Duration::from_micros(30));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Sets the calling thread's timer slack to 1 ns, so a sleep overshoots by
/// microseconds instead of the default 50 µs.
fn precise_sleep() {
    // SAFETY: prctl(PR_SET_TIMERSLACK = 29, 1) takes an integer argument,
    // touches no memory of ours and only affects the calling thread.
    let rc = unsafe { prctl(29, 1, 0, 0, 0) };
    assert_eq!(rc, 0, "prctl(PR_SET_TIMERSLACK) cannot fail");
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Runs one open-loop phase at `rate` on a fresh server.
fn open_loop(
    mix: &Mix,
    n: usize,
    rate: f64,
    seed: u64,
    corrupt: bool,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Phase {
    let server = Server::start("127.0.0.1:0", &ServerConfig::default()).expect("server start");
    let addr = server.local_addr();
    let schedule = arrival_schedule(rate.round() as u64, n, seed);
    let first_id = mix.first_id;
    let mut tally = Tally {
        attempted: n as u64,
        failed: 0,
    };
    let (mut sender, mut receiver) = Client::connect(addr)
        .and_then(Client::split)
        .expect("connect to the server");
    precise_sleep();
    let start = Instant::now();
    let mut late_ns = vec![0u64; n];
    let (done_ns, bad) = std::thread::scope(|s| {
        let recv = s.spawn(|| {
            let mut done_ns = vec![u64::MAX; n];
            let mut bad = 0u64;
            let mut corrupt = corrupt;
            loop {
                let mut resp = match receiver.recv() {
                    Ok(Some(Response::ShutdownAck { .. }) | None) | Err(_) => break,
                    Ok(Some(r)) => r,
                };
                let now = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                if corrupt {
                    // Smoke-test hook: damage one response to prove the gate trips.
                    if let Response::Embedded { line, .. } = &mut resp {
                        line.flip_bit(0);
                        corrupt = false;
                    }
                }
                let idx = response_id(&resp)
                    .and_then(|id| id.checked_sub(first_id))
                    .and_then(|i| usize::try_from(i).ok())
                    .filter(|&i| i < n && done_ns[i] == u64::MAX);
                match idx {
                    Some(i) if response_ok(&mix.get(i), &resp) => done_ns[i] = now,
                    Some(i) => {
                        done_ns[i] = now;
                        bad += 1;
                    }
                    None => bad += 1,
                }
            }
            (done_ns, bad)
        });
        for (i, &at) in schedule.iter().enumerate() {
            let req = mix.get(i).req;
            wait_until(start, at);
            let sent = start.elapsed().as_nanos();
            if sender.send_now(&req).is_err() {
                break;
            }
            late_ns[i] = u64::try_from(sent)
                .unwrap_or(u64::MAX)
                .saturating_sub(schedule[i]);
        }
        // In-band shutdown on the same connection, behind every request:
        // the server answers them all, then acknowledges, which ends the
        // receiver.
        let _ = sender.send_now(&Request::Shutdown);
        recv.join().expect("receiver thread")
    });
    let stats = server.join();
    drop(sender);

    let mut latency_us = Vec::with_capacity(n);
    let mut last_done = 0;
    for (i, &d) in done_ns.iter().enumerate() {
        if d == u64::MAX {
            tally.failed += 1; // unanswered
            continue;
        }
        latency_us.push(d.saturating_sub(schedule[i]).max(1) as f64 / 1e3);
        last_done = last_done.max(d);
        if tracer.enabled() {
            let sched = start + Duration::from_nanos(schedule[i]);
            let req = tracer.record(
                "serve.request",
                sched,
                start + Duration::from_nanos(d),
                parent,
            );
            tracer.record(
                "gen.send_late",
                sched,
                sched + Duration::from_nanos(late_ns[i]),
                req,
            );
        }
    }
    tally.failed += bad;
    let span_ns = last_done
        .saturating_sub(schedule.first().copied().unwrap_or(0))
        .max(1);
    Phase {
        achieved_rps: latency_us.len() as f64 * 1e9 / span_ns as f64,
        latency_us,
        late_us: late_ns.iter().map(|&l| l as f64 / 1e3).collect(),
        stats,
        tally,
    }
}

/// Closed-loop round trips at one outstanding request: median µs.
fn rtt_w1(plan: &[Planned], tally: &mut Tally) -> f64 {
    let server = Server::start("127.0.0.1:0", &ServerConfig::default()).expect("server start");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut rtts = Vec::with_capacity(plan.len());
    for p in plan {
        let t = Instant::now();
        let resp = client.call(&p.req);
        rtts.push(t.elapsed().as_nanos() as f64 / 1e3);
        tally.attempted += 1;
        if !resp.is_ok_and(|r| response_ok(p, &r)) {
            tally.failed += 1;
        }
    }
    let _ = client.call(&Request::Shutdown);
    let _ = server.join();
    median(&rtts)
}

/// One rate search: from `start_rps`, grow the offered rate until a step
/// fails, then bisect between the last pass and the first failure.
/// Returns the highest passing rate (0 if the first step fails). Every
/// step sends [`SEARCH_STEP_REQUESTS`] requests, so memory does not depend
/// on how high the search goes.
fn search(
    inputs: &Inputs,
    seed: u64,
    start_rps: f64,
    tally: &mut Tally,
    stats: &mut Vec<CoreStats>,
) -> f64 {
    let mut k = 0;
    let mut step = |rate: f64, tally: &mut Tally| -> bool {
        k += 1;
        let salt = sub_seed(seed, 0x5e_a4c4 + k);
        let mix = inputs.mix(1 << 40, salt);
        // Per-request spans only for the light phase.
        let phase = open_loop(
            &mix,
            SEARCH_STEP_REQUESTS,
            rate,
            salt,
            false,
            &mut Tracer::new(false),
            0,
        );
        tally.add(phase.tally);
        stats.push(phase.stats.clone());
        let p99 = phase.segment_quantile(0.99);
        let pass =
            phase.tally.failed == 0 && p99 <= P99_LIMIT_US && phase.achieved_rps >= KEEP_UP * rate;
        println!(
            "search rate {rate:>9.0} achieved {:>9.0} p99 {p99:>9.1} us -> {}",
            phase.achieved_rps,
            if pass { "pass" } else { "fail" }
        );
        pass
    };
    let mut lo = 0.0;
    let mut hi = start_rps;
    while hi <= SEARCH_MAX_RPS && step(hi, tally) {
        lo = hi;
        hi *= SEARCH_GROWTH;
    }
    for _ in 0..SEARCH_BISECT {
        if lo == 0.0 || hi > SEARCH_MAX_RPS {
            break;
        }
        let mid = (lo * hi).sqrt();
        if step(mid, tally) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Isolated costs of the service's own layers on the workload's inputs:
/// `(decode ns, encode ns, respond ns per job)`, the last at the batch
/// sizes the run observed.
fn serve_kernels(plan: &[Planned], batch_hist: &[u64]) -> (f64, f64, f64) {
    let reqs: Vec<Vec<u8>> = plan
        .iter()
        .map(|p| {
            let mut body = Vec::new();
            p.req.encode(&mut body);
            body
        })
        .collect();
    let decode = kernels::ns_per_call(15, reqs.len(), || {
        for b in &reqs {
            black_box(Request::decode(black_box(b)).expect("valid body"));
        }
    });
    let resps: Vec<Response> = plan
        .iter()
        .map(|p| match p.req {
            Request::Embed { id, .. } => Response::Embedded { id, line: p.expect },
            Request::Correct { id, .. } => Response::Corrected {
                id,
                status: ST_CORRECTED,
                guesses: 1,
                step: 1,
                line: p.expect,
            },
            _ => Response::Verified {
                id: p.req.id(),
                ok: true,
            },
        })
        .collect();
    let mut body = Vec::with_capacity(128);
    let encode = kernels::ns_per_call(15, resps.len(), || {
        for r in &resps {
            r.encode(&mut body);
            black_box(&body);
        }
    });
    let engine = Engine::new(&PtGuardConfig::default());
    let jobs: Vec<Job> = plan
        .iter()
        .map(|p| {
            let (kind, line) = match p.req {
                Request::Embed { line, .. } => (JobKind::Embed, line),
                Request::Correct { line, .. } => (JobKind::Correct, line),
                Request::Verify { line, .. } => (JobKind::Verify, line),
                Request::Shutdown => unreachable!("plans hold no shutdown"),
            };
            Job {
                kind,
                id: p.req.id(),
                addr: PhysAddr::new(match p.req {
                    Request::Embed { addr, .. }
                    | Request::Verify { addr, .. }
                    | Request::Correct { addr, .. } => addr,
                    Request::Shutdown => 0,
                }),
                line,
            }
        })
        .collect();
    let mut coalescer = Coalescer::new();
    let (mut ns_sum, mut jobs_sum) = (0.0, 0.0);
    for (i, &count) in batch_hist.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let size = i + 1;
        let windows = jobs.len() / size;
        let per_job = kernels::ns_per_call(5, windows * size, || {
            for w in jobs.chunks_exact(size) {
                black_box(coalescer.respond(&engine, w, |_, r| {
                    black_box(r);
                }));
            }
        });
        let n = (count * size as u64) as f64;
        ns_sum += per_job * n;
        jobs_sum += n;
    }
    (decode, encode, ns_sum / jobs_sum.max(1.0))
}

/// One set-up: corpus, server start, warm-up traffic.
fn set_up(seed: u64, tally: &mut Tally) -> (Inputs, f64, f64) {
    let t = Instant::now();
    let inputs = Inputs::new(seed);
    let server = Server::start("127.0.0.1:0", &ServerConfig::default()).expect("server start");
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    // Warm-up: closed-loop calls covering every request kind.
    let plan = inputs.mix(1 << 50, 0x3a).take(400);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for p in &plan {
        tally.attempted += 1;
        if !client.call(&p.req).is_ok_and(|r| response_ok(p, &r)) {
            tally.failed += 1;
        }
    }
    let _ = client.call(&Request::Shutdown);
    let _ = server.join();
    (inputs, build_s, t.elapsed().as_secs_f64())
}

/// Pushes the service layers' metrics: the isolated protocol and
/// coalescer costs at the batch sizes the servers of `stats` drained, the
/// closed-loop round trip, and what of the light-rate `light` phase's p50
/// those leave unexplained.
fn serve_layers(
    inputs: &Inputs,
    light: &Phase,
    stats: &[CoreStats],
    tracer: &mut Tracer,
    parent: SpanId,
    tally: &mut Tally,
    out: &mut Outcome,
) {
    let span = tracer.open("serve.rtt_w1", parent);
    let mix = inputs.mix(1, 0x77);
    let rtt = rtt_w1(&mix.take(2000), tally);
    tracer.close(span);
    let mut hist = [0u64; serve::core::MAX_BATCH];
    let (mut requests, mut batches) = (0u64, 0u64);
    for s in stats {
        for (h, v) in hist.iter_mut().zip(s.batch_hist) {
            *h += v;
        }
        requests += s.requests;
        batches += s.batches;
    }
    let span = tracer.open("serve.kernels", parent);
    let (decode, encode, respond) = serve_kernels(&mix.take(4096), &hist);
    tracer.close(span);
    let mut late = light.late_us.clone();
    late.sort_by(f64::total_cmp);
    let p50 = light.segment_quantile(0.5);
    let n = light.latency_us.len();
    out.push("serve.decode_ns", decode, "ns", 4096);
    out.push("serve.encode_ns", encode, "ns", 4096);
    out.push("serve.respond_ns_per_job", respond, "ns", requests as usize);
    out.push(
        "serve.mean_batch",
        requests as f64 / batches.max(1) as f64,
        "jobs",
        batches as usize,
    );
    out.push("serve.batches", batches as f64, "count", stats.len());
    out.push("serve.rtt_w1_us", rtt, "us", 2000);
    out.push(
        "serve.unattributed_us",
        p50 - (decode + respond + encode) / 1e3,
        "us",
        n,
    );
    out.push("serve.gen_late_p50_us", quantile(&late, 0.5), "us", n);
    out.push("serve.gen_late_p99_us", quantile(&late, 0.99), "us", n);
}

/// The service layers measured for the traced run of a workload that does
/// not drive the service: one set-up, one light-rate chunk on a fresh
/// server, then [`serve_layers`].
pub fn probe(seed: u64, tracer: &mut Tracer, parent: SpanId, out: &mut Outcome) {
    let span = tracer.open("serve.probe", parent);
    let mut tally = Tally::default();
    let (inputs, _, _) = set_up(seed, &mut tally);
    let salt = sub_seed(seed, 0xa221);
    let light = open_loop(
        &inputs.mix(1, salt),
        5000,
        LIGHT_RPS as f64,
        salt,
        false,
        tracer,
        span,
    );
    tally.add(light.tally);
    let stats = [light.stats.clone()];
    serve_layers(&inputs, &light, &stats, tracer, span, &mut tally, out);
    tracer.close(span);
    out.tally.add(tally);
}

/// Runs one service workload.
pub fn run_workload(args: &Args, tracer: &mut Tracer) -> Outcome {
    let root = tracer.open(NAME, 0);
    let mut tally = Tally::default();
    let (mut totals, mut builds, mut warmups) = (Vec::new(), Vec::new(), Vec::new());
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let span = tracer.open("setup", root);
        let (i, b, w) = set_up(args.seed, &mut tally);
        tracer.close(span);
        totals.push(b + w);
        builds.push(b);
        warmups.push(w);
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one set-up");

    // Light-rate chunks (half the time budget in all, half of each chunk
    // traced in a traced run) alternate with rate searches.
    let n_light = ((LIGHT_RPS as f64 * args.seconds * 0.5) as usize / CYCLES).max(1000);
    let n_chunk = if tracer.enabled() {
        n_light / 2
    } else {
        n_light
    };
    let mut light = Phase::default();
    let mut traced = Phase::default();
    let mut stats = Vec::new();
    let mut knees = Vec::new();
    for c in 0..CYCLES {
        let salt = sub_seed(args.seed, 0xa221 + c as u64);
        let mix = inputs.mix(1, salt);
        let span = tracer.open("serve.light", root);
        let chunk = open_loop(
            &mix,
            n_chunk,
            LIGHT_RPS as f64,
            salt,
            args.corrupt_response && c == 0,
            &mut Tracer::new(false),
            0,
        );
        tracer.close(span);
        if chunk.tally.failed > 0 {
            println!(
                "FAIL light phase: {} of {} requests failed the check",
                chunk.tally.failed, chunk.tally.attempted
            );
        }
        tally.add(chunk.tally);
        stats.push(chunk.stats.clone());
        light.latency_us.extend(chunk.latency_us);
        light.late_us.extend(chunk.late_us);
        if tracer.enabled() {
            let span = tracer.open("serve.light_traced", root);
            let chunk = open_loop(&mix, n_chunk, LIGHT_RPS as f64, salt, false, tracer, span);
            tracer.close(span);
            tally.add(chunk.tally);
            stats.push(chunk.stats.clone());
            traced.latency_us.extend(chunk.latency_us);
        }
        // Later searches start at half the previous result.
        let start = knees.last().map_or(SEARCH_START_RPS, |&k: &f64| {
            (k / 2.0).max(SEARCH_START_RPS / 4.0)
        });
        let span = tracer.open("serve.search", root);
        knees.push(search(
            &inputs,
            sub_seed(salt, 0x5e),
            start,
            &mut tally,
            &mut stats,
        ));
        tracer.close(span);
    }
    let max_rps = median(&knees);

    let mut late = light.late_us.clone();
    late.sort_by(f64::total_cmp);
    let mut out = Outcome::default();
    let p50 = light.segment_quantile(0.5);
    if !tracer.enabled() {
        out.push("setup_s", median(&totals), "s", totals.len());
        out.push("rss_mb", peak_rss_mb(), "MB", 1);
        out.push("kops", max_rps / 1e3, "kop/s", knees.len());
        out.push("p50_us", p50, "us", light.latency_us.len());
        out.push(
            "p99_us",
            light.segment_quantile(0.99),
            "us",
            light.latency_us.len(),
        );
    } else {
        let iso = tracer.open("isolated", root);
        serve_layers(&inputs, &light, &stats, tracer, iso, &mut tally, &mut out);
        let items: Vec<(Line, PhysAddr)> = inputs.corpus.iter().map(|e| (e.raw, e.addr)).collect();
        let span = tracer.open("ptguard.mac", iso);
        let mac_ns = kernels::mac_ns_per_line(&inputs.mac, &items);
        tracer.close(span);
        let faulted: Vec<(Line, PhysAddr)> = items.iter().take(64).copied().collect();
        let span = tracer.open("ptguard.correct", iso);
        let fixes = kernels::corrections(
            &PtGuardConfig::default(),
            &faulted,
            64,
            sub_seed(args.seed, 0xfa17),
        );
        tracer.close(span);
        tracer.close(iso);
        tally.add(fixes.tally);
        out.push("ptguard.mac_ns_per_line", mac_ns, "ns", items.len());
        kernels::push_corrections(&mut out, &fixes);
        out.push("setup.build_s", median(&builds), "s", builds.len());
        out.push("setup.warmup_s", median(&warmups), "s", warmups.len());
        let unattributed_us = out
            .metrics
            .iter()
            .find(|m| m.name == "serve.unattributed_us")
            .map_or(0.0, |m| m.value);
        out.push(
            "ladder.attributed_frac",
            1.0 - unattributed_us / p50,
            "ratio",
            light.latency_us.len(),
        );
        out.push(
            "ladder.residual_ns_per_op",
            unattributed_us * 1e3,
            "ns",
            light.latency_us.len(),
        );
        out.push(
            "trace.overhead_frac",
            traced.segment_quantile(0.5) / p50 - 1.0,
            "ratio",
            light.latency_us.len(),
        );
    }
    println!(
        "{}: light {} requests, p50 {:.1} us, p99 {:.1} us (all samples; segment lower quartile p50 {:.1} us, p99 {:.1} us), sender late p50 {:.1} us p99 {:.1} us; max {:.0} req/s",
        NAME,
        light.latency_us.len(),
        light.p(0.5),
        light.p(0.99),
        p50,
        light.segment_quantile(0.99),
        quantile(&late, 0.5),
        quantile(&late, 0.99),
        max_rps
    );
    tracer.close(root);
    out.tally = tally;
    out
}
