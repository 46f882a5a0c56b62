//! The SLADE benchmark's load generator and checker.
//!
//! ```text
//! perfbench --workload <warm-hot|cold-unique|resubmit-journal> --seed <n>
//!           --seconds <s> --trace <0|1> --cli <slade-cli> --work-dir <dir>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics against a `slade-cli serve`
//! process; `--trace 1` runs the same request lists with server tracing on
//! and again in-process, and reports per-layer metrics. The last line of
//! standard output is the result object; see README.md.

mod check;
mod client;
mod gen;
mod inproc;

use client::{Conn, PassLog, ServerProcess};
use gen::{Op, Req, Workload};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest timed rounds per run, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    cli: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut cli, mut work) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--cli" => cli = Some(PathBuf::from(value)),
            "--work-dir" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        cli: cli.ok_or("--cli is required")?,
        work: work.ok_or("--work-dir is required")?,
    })
}

fn main() {
    match parse_args().and_then(|args| run(&args)) {
        Ok(result) => println!("{result}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// A workload made ready to send: request lines per connection.
struct Prepared {
    workload: Workload,
    warmup: [Vec<String>; 2],
    round: [Vec<String>; 2],
    journal: Option<(PathBuf, PathBuf)>,
    server_args: Vec<String>,
}

fn lines(reqs: &[Req], window: usize, trace: bool) -> Vec<String> {
    reqs.iter()
        .enumerate()
        .map(|(i, r)| r.line((window > 1).then_some(i), trace))
        .collect()
}

fn prepare(args: &Args, trace: bool) -> Result<Prepared, String> {
    let workload = gen::build(&args.workload, args.seed).ok_or_else(|| {
        format!(
            "unknown workload `{}`; expected one of {}",
            args.workload,
            gen::WORKLOADS.join(", ")
        )
    })?;
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("creating {}: {e}", args.work.display()))?;
    let mut server_args = Vec::new();
    let journal = if workload.fixture.is_empty() {
        None
    } else {
        let fixture = args.work.join(format!("fixture-{}.jsonl", args.seed));
        inproc::write_fixture(&workload.fixture, &fixture)?;
        let journal = args.work.join("journal.jsonl");
        server_args.extend(["--journal".to_string(), journal.display().to_string()]);
        Some((fixture, journal))
    };
    let w = workload.window;
    Ok(Prepared {
        warmup: [
            lines(&workload.warmup[0], w, false),
            lines(&workload.warmup[1], w, false),
        ],
        round: [
            lines(&workload.round[0], w, trace),
            lines(&workload.round[1], w, trace),
        ],
        workload,
        journal,
        server_args,
    })
}

/// Runs one pass of both connections concurrently, one client thread each.
fn pass_both(
    conns: &mut [Conn; 2],
    reqs: &[Vec<Req>; 2],
    lines: &[Vec<String>; 2],
    window: usize,
    keep: bool,
) -> Result<[PassLog; 2], String> {
    let [c0, c1] = conns;
    std::thread::scope(|s| {
        let h0 = s.spawn(|| client::run_pass(c0, &reqs[0], &lines[0], window, keep));
        let h1 = s.spawn(|| client::run_pass(c1, &reqs[1], &lines[1], window, keep));
        let a = h0
            .join()
            .map_err(|_| "client thread panicked".to_string())??;
        let b = h1
            .join()
            .map_err(|_| "client thread panicked".to_string())??;
        Ok([a, b])
    })
}

/// Boots the server (replaying the fixture journal, if any) and runs the
/// warm-up pass: one set-up.
fn set_up(args: &Args, p: &Prepared) -> Result<(ServerProcess, [Conn; 2]), String> {
    if let Some((fixture, journal)) = &p.journal {
        std::fs::copy(fixture, journal).map_err(|e| format!("copying the fixture: {e}"))?;
    }
    let server = ServerProcess::spawn(&args.cli, &p.server_args)?;
    let mut conns = [server.connect()?, server.connect()?];
    let logs = pass_both(
        &mut conns,
        &p.workload.warmup,
        &p.warmup,
        p.workload.window,
        false,
    )?;
    for log in &logs {
        if let Some((i, why)) = log.failures.first() {
            return Err(format!("warm-up request {i} failed: {why}"));
        }
    }
    Ok((server, conns))
}

/// The timed phase: whole rounds until `seconds` have passed.
struct Timed {
    rounds: Vec<Round>,
    /// Both connections' logs of the first round, lines kept.
    reference: [PassLog; 2],
    attempted: u64,
    /// Rounds whose responses differed from the first round's.
    drifted: u64,
}

struct Round {
    wall: Duration,
    requests: usize,
    cpu_ticks: u64,
    latency_ns: Vec<u64>,
}

fn timed(
    server: &ServerProcess,
    conns: &mut [Conn; 2],
    p: &Prepared,
    seconds: f64,
    compare_lines: bool,
) -> Result<Timed, String> {
    let pid = server.pid();
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut reference: Option<[PassLog; 2]> = None;
    let (mut attempted, mut drifted) = (0, 0);
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let cpu0 = client::cpu_ticks(pid)?;
        let t0 = Instant::now();
        let logs = pass_both(
            conns,
            &p.workload.round,
            &p.round,
            p.workload.window,
            reference.is_none(),
        )?;
        let wall = t0.elapsed();
        let cpu1 = client::cpu_ticks(pid)?;
        let mut latency_ns = Vec::new();
        for (c, log) in logs.iter().enumerate() {
            // Every response must be ok and feasible: one that is not
            // fails the run rather than leaving the round cheaper.
            if let Some((i, why)) = log.failures.first() {
                return Err(format!(
                    "connection {c} request {i} ({}) failed: {why}",
                    p.round[c][*i]
                ));
            }
            latency_ns.extend_from_slice(&log.latency_ns);
            attempted += log.latency_ns.len() as u64;
        }
        rounds.push(Round {
            wall,
            requests: latency_ns.len(),
            cpu_ticks: cpu1 - cpu0,
            latency_ns,
        });
        match &reference {
            None => reference = Some(logs),
            Some(first) => {
                let same = (0..2).all(|c| {
                    if compare_lines {
                        logs[c].hashes == first[c].hashes
                    } else {
                        logs[c]
                            .costs
                            .iter()
                            .zip(&first[c].costs)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                    }
                });
                if !same {
                    drifted += 1;
                }
            }
        }
    }
    Ok(Timed {
        rounds,
        reference: reference.expect("at least one round ran"),
        attempted,
        drifted,
    })
}

/// Checks every response of the reference round against its instance, and
/// returns the round's summed plan cost.
fn check_round(p: &Prepared, reference: &[PassLog; 2]) -> Result<f64, String> {
    let mut total = 0.0;
    for (c, (reqs, log)) in p.workload.round.iter().zip(reference).enumerate() {
        for (i, req) in reqs.iter().enumerate() {
            let line = &log.lines[i];
            let value = check::parse(line).map_err(|e| format!("response {i}: {e}: {line}"))?;
            let checked = if req.want_plan {
                check::check_plan(&value, &req.instance).map(|_| ())
            } else {
                check::check_summary(&value, &req.instance).map(|_| ())
            };
            checked.map_err(|e| format!("connection {c} request {i} ({}): {e}", p.round[c][i]))?;
            if !log.costs[i].is_finite() {
                return Err(format!("connection {c} request {i} has no cost: {line}"));
            }
            total += log.costs[i];
        }
    }
    Ok(total)
}

/// A revision's returned plan must equal, byte for byte, a cold solve of
/// the workload it ends on.
fn check_resubmits(
    conn: &mut Conn,
    p: &Prepared,
    reference: &[PassLog; 2],
) -> Result<usize, String> {
    let mut checked = 0;
    for (c, (reqs, log)) in p.workload.round.iter().zip(reference).enumerate() {
        for (i, req) in reqs.iter().enumerate() {
            if !(req.want_plan && matches!(req.op, Op::Resubmit(_))) {
                continue;
            }
            let cold = Req {
                op: Op::Solve,
                id: None,
                instance: req.instance.clone(),
                want_plan: true,
            };
            let response = conn.roundtrip(&cold.line(None, false))?;
            let revised = check::plan_text(&log.lines[i]);
            if revised.is_none() || revised != check::plan_text(&response) {
                return Err(format!(
                    "resubmit {} on connection {c} differs from a cold solve of its final workload",
                    p.round[c][i]
                ));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// After shutdown, a fresh server replaying the journal must hold every
/// plan id the run landed.
fn check_replay(args: &Args, p: &Prepared) -> Result<(), String> {
    let server = ServerProcess::spawn(&args.cli, &p.server_args)?;
    let mut conn = server.connect()?;
    let mut ids: Vec<&str> = p
        .workload
        .round
        .iter()
        .flatten()
        .filter_map(|r| r.id.as_deref())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    for id in ids {
        let reply = conn.roundtrip(&format!(r#"{{"op":"claim","id":"{id}"}}"#))?;
        if !reply.starts_with(r#"{"ok":true"#) {
            return Err(format!("replayed journal lost plan {id}: {reply}"));
        }
    }
    let stats = conn.roundtrip(r#"{"op":"stats"}"#)?;
    let plans = client::field(&stats, "plans").and_then(|v| v.parse::<usize>().ok());
    if plans != Some(p.workload.fixture.len()) {
        return Err(format!(
            "replayed journal holds {plans:?} plans, expected {}",
            p.workload.fixture.len()
        ));
    }
    drop(conn);
    server.shutdown()
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

fn latency_quantile_ms(round: &Round, q: f64) -> f64 {
    let mut v: Vec<f64> = round.latency_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    quantile(&v, q)
}

fn metric(out: &mut Vec<String>, name: &str, value: f64, unit: &str) {
    out.push(format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
}

/// The result line of a run whose checks all passed: any failed request or
/// check ends the run with an error before it gets here.
fn result(attempted: u64, metrics: &[String]) -> String {
    format!(
        r#"{{"correct":true,"attempted":{attempted},"failed":0,"metrics":{{{}}}}}"#,
        metrics.join(",")
    )
}

fn run(args: &Args) -> Result<String, String> {
    if args.trace {
        return run_traced(args);
    }
    let p = prepare(args, false)?;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let (server, conns) = set_up(args, &p)?;
        setups.push(t0.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            drop(conns);
            server.shutdown()?;
        } else {
            live = Some((server, conns));
        }
    }
    let (server, mut conns) = live.expect("the last set-up stays up");
    let t = timed(&server, &mut conns, &p, args.seconds, true)?;
    let rss_kb = client::status_value(server.pid(), "VmHWM")?;
    let plan_cost = check_round(&p, &t.reference)?;
    let revisions = check_resubmits(&mut conns[0], &p, &t.reference)?;
    drop(conns);
    server.shutdown()?;
    if p.journal.is_some() {
        check_replay(args, &p)?;
    }
    if t.drifted > 0 {
        return Err(format!(
            "{} rounds answered differently from the first",
            t.drifted
        ));
    }
    let rounds = &t.rounds;
    eprintln!(
        "perfbench: {} rounds of {} requests, {revisions} revisions matched cold solves",
        rounds.len(),
        rounds[0].requests
    );
    let tick_ms = 1000.0 / client::TICKS_PER_SECOND;
    let mut m = Vec::new();
    metric(&mut m, "setup_s", median(setups.iter().copied()), "s");
    metric(
        &mut m,
        "rps",
        median(
            rounds
                .iter()
                .map(|r| r.requests as f64 / r.wall.as_secs_f64()),
        ),
        "req/s",
    );
    metric(
        &mut m,
        "lat_p50_ms",
        median(rounds.iter().map(|r| latency_quantile_ms(r, 0.5))),
        "ms",
    );
    metric(
        &mut m,
        "lat_p99_ms",
        median(rounds.iter().map(|r| latency_quantile_ms(r, 0.99))),
        "ms",
    );
    metric(
        &mut m,
        "cpu_ms_per_req",
        median(
            rounds
                .iter()
                .map(|r| r.cpu_ticks as f64 * tick_ms / r.requests as f64),
        ),
        "ms",
    );
    metric(&mut m, "rss_mb", rss_kb as f64 / 1024.0, "MiB");
    metric(&mut m, "plan_cost", plan_cost, "cost");
    Ok(result(t.attempted, &m))
}

/// A number member of a server JSON reply, by path.
fn reply_number(reply: &str, path: &[&str]) -> Result<f64, String> {
    let value = check::parse(reply).map_err(|e| format!("{e}: {reply}"))?;
    let mut at = &value;
    for key in path {
        at = at
            .get(key)
            .ok_or_else(|| format!("no {} in {reply}", path.join(".")))?;
    }
    at.num()
        .ok_or_else(|| format!("{} is not a number", path.join(".")))
}

struct ServerCounters {
    hits: f64,
    misses: f64,
    steals: f64,
    wakes: f64,
    compactions: f64,
    ctx: u64,
}

fn server_counters(conn: &mut Conn, pid: u32) -> Result<ServerCounters, String> {
    let reply = conn.roundtrip(r#"{"op":"metrics"}"#)?;
    Ok(ServerCounters {
        hits: reply_number(&reply, &["cache", "hits"])?,
        misses: reply_number(&reply, &["cache", "misses"])?,
        steals: reply_number(&reply, &["engine", "steals"])?,
        wakes: reply_number(&reply, &["engine", "wakes"])?,
        compactions: reply_number(&reply, &["journal", "compactions"]).unwrap_or(0.0),
        ctx: client::ctx_switches(pid)?,
    })
}

/// The traced run: the server phase with `"trace": true` on every request,
/// then the in-process phase, each for half of `--seconds`.
fn run_traced(args: &Args) -> Result<String, String> {
    let p = prepare(args, true)?;
    let half = args.seconds / 2.0;

    // Server phase.
    let (server, mut conns) = set_up(args, &p)?;
    let pid = server.pid();
    let before = server_counters(&mut conns[0], pid)?;
    let t = timed(&server, &mut conns, &p, half, false)?;
    let after = server_counters(&mut conns[0], pid)?;
    let profile = conns[0].roundtrip(r#"{"op":"profile","limit":256}"#)?;
    let queued_us = reply_number(&profile, &["phases", "queued", "mean_ns"])? / 1e3;
    let threads = client::status_value(pid, "Threads")?;
    check_round(&p, &t.reference)?;
    drop(conns);
    server.shutdown()?;
    let journal_bytes = match &p.journal {
        Some((_, journal)) => {
            let bytes = std::fs::metadata(journal).map_err(|e| e.to_string())?.len();
            check_replay(args, &p)?;
            bytes as f64
        }
        None => 0.0,
    };
    let served: usize = t.rounds.iter().map(|r| r.requests).sum();
    let served_f = served as f64;
    let all_latency: Vec<u64> = t
        .rounds
        .iter()
        .flat_map(|r| r.latency_ns.iter().copied())
        .collect();
    let roundtrip_us = all_latency.iter().sum::<u64>() as f64 / all_latency.len() as f64 / 1e3;
    eprintln!(
        "perfbench: traced server phase: rps {:.1}, lat_p50_ms {:.4}",
        median(
            t.rounds
                .iter()
                .map(|r| r.requests as f64 / r.wall.as_secs_f64())
        ),
        median(t.rounds.iter().map(|r| latency_quantile_ms(r, 0.5)))
    );

    // In-process phase.
    let mut tracer = inproc::Tracer::new();
    let mut stack = inproc::Stack::new();
    if let Some((fixture, _)) = &p.journal {
        stack.load_journal(fixture, &mut tracer)?;
    }
    for warmup in &p.workload.warmup {
        stack.warm(warmup)?;
    }
    let start = Instant::now();
    let misses0 = stack.engine_misses();
    let mut passes = 0u64;
    let mut inproc_requests = 0u64;
    while passes == 0 || start.elapsed().as_secs_f64() < half {
        for reqs in &p.workload.round {
            for req in reqs {
                stack.run(req, &mut tracer)?;
                inproc_requests += 1;
            }
        }
        passes += 1;
    }
    let prepares_per_pass = (stack.engine_misses() - misses0) as f64 / passes as f64;
    stack.shutdown();
    let spans = args
        .work
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    tracer.write(&spans)?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tracer.spans.len(),
        spans.display()
    );

    const ENGINE_CALLS: [&str; 2] = ["engine.submit_wait", "engine.resubmit"];
    let layer_us = tracer.mean_us(&["protocol.parse_request"])
        + tracer.mean_us(&ENGINE_CALLS)
        + tracer.mean_us(&["core.validate"])
        + tracer.mean_us(&["json.render"]);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let per_plan = |name: &str| ratio(tracer.total(name), tracer.calls("codec.encode") as f64);

    let mut m = Vec::new();
    metric(
        &mut m,
        "core.prepare_us.opq-based",
        tracer.mean_us(&["core.prepare.opq-based"]),
        "us",
    );
    for alg in ["opq-based", "greedy", "baseline"] {
        let name = format!("core.solve_with_us.{alg}");
        metric(
            &mut m,
            &name,
            tracer.mean_us(&[&format!("core.solve_with.{alg}")]),
            "us",
        );
    }
    metric(
        &mut m,
        "core.validate_us",
        tracer.mean_us(&["core.validate"]),
        "us",
    );
    metric(&mut m, "core.prepares", prepares_per_pass, "count");
    metric(
        &mut m,
        "engine.submit_wait_us",
        tracer.mean_us(&ENGINE_CALLS),
        "us",
    );
    metric(
        &mut m,
        "engine.self_us",
        ratio(
            tracer.total("engine.self_us_sum"),
            tracer.total("engine.self_n"),
        ),
        "us",
    );
    metric(&mut m, "engine.queued_us", queued_us, "us");
    metric(
        &mut m,
        "engine.cache_hit_ratio",
        ratio(
            after.hits - before.hits,
            after.hits - before.hits + after.misses - before.misses,
        ),
        "ratio",
    );
    metric(
        &mut m,
        "engine.steals_per_req",
        (after.steals - before.steals) / served_f,
        "count",
    );
    metric(
        &mut m,
        "engine.wakes_per_req",
        (after.wakes - before.wakes) / served_f,
        "count",
    );
    metric(
        &mut m,
        "engine.resubmit_us",
        tracer.mean_us(&["engine.resubmit"]),
        "us",
    );
    metric(
        &mut m,
        "engine.reused_shard_ratio",
        ratio(
            tracer.total("engine.reused_shards"),
            tracer.total("engine.resubmit_shards"),
        ),
        "ratio",
    );
    metric(
        &mut m,
        "codec.encode_us",
        tracer.mean_us(&["codec.encode"]),
        "us",
    );
    metric(
        &mut m,
        "codec.decode_us",
        tracer.mean_us(&["codec.decode"]),
        "us",
    );
    metric(
        &mut m,
        "codec.plan_bytes",
        per_plan("codec.plan_bytes"),
        "bytes",
    );
    metric(
        &mut m,
        "journal.compactions",
        (after.compactions - before.compactions) / t.rounds.len() as f64,
        "count",
    );
    metric(&mut m, "journal.file_bytes", journal_bytes, "bytes");
    metric(
        &mut m,
        "json.parse_us",
        tracer.mean_us(&["json.parse"]),
        "us",
    );
    metric(
        &mut m,
        "json.render_us",
        tracer.mean_us(&["json.render"]),
        "us",
    );
    metric(
        &mut m,
        "json.resp_bytes",
        per_plan("json.resp_bytes"),
        "bytes",
    );
    metric(
        &mut m,
        "protocol.parse_request_us",
        tracer.mean_us(&["protocol.parse_request"]),
        "us",
    );
    metric(&mut m, "server.roundtrip_us", roundtrip_us, "us");
    metric(&mut m, "server.overhead_us", roundtrip_us - layer_us, "us");
    metric(&mut m, "server.threads", threads as f64, "count");
    metric(
        &mut m,
        "server.ctx_switches_per_req",
        (after.ctx - before.ctx) as f64 / served_f,
        "count",
    );
    if t.drifted > 0 {
        return Err(format!(
            "{} traced rounds answered differently from the first",
            t.drifted
        ));
    }
    Ok(result(t.attempted + inproc_requests, &m))
}
