//! The in-process side: the resubmit-journal fixture, and the traced run
//! that calls each layer's public functions directly and records a span
//! around every call.

use crate::gen::{FixturePlan, Req, CACHE_CAPACITY, DEFAULT_BASELINE_SEED};
use slade_core::baseline::{Baseline, BaselineConfig};
use slade_core::bin_set::BinSet;
use slade_core::hetero;
use slade_core::opq_based::OpqBased;
use slade_core::reliability;
use slade_core::solver::{Algorithm, PreparedSolver};
use slade_core::task::Workload;
use slade_engine::{codec, Engine, EngineConfig, EngineRequest, ResolvedPlan};
use slade_json::{member, Json};
use slade_server::protocol::{self, Request};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

fn engine() -> Engine {
    Engine::new(EngineConfig {
        threads: 2,
        cache_capacity: CACHE_CAPACITY,
        ..EngineConfig::default()
    })
}

fn paper_bins() -> Arc<BinSet> {
    Arc::new(BinSet::paper_example())
}

fn engine_request(line: &str, bins: &Arc<BinSet>) -> Result<EngineRequest, String> {
    match protocol::parse_request(line, bins)? {
        Request::Solve { request, .. } => Ok(request),
        _ => Err(format!("not a solve: {line}")),
    }
}

/// Solves the fixture's plans in-process and writes them as a plan journal
/// (the `land` records a server writes), for the server to replay at boot.
pub fn write_fixture(fixture: &[FixturePlan], path: &Path) -> Result<(), String> {
    let engine = engine();
    let bins = paper_bins();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(|e| e.to_string())?);
    for plan in fixture {
        let line = format!(
            "{{{},\"seed\":{DEFAULT_BASELINE_SEED}}}",
            plan.instance.solve_members()
        );
        let resolved = engine
            .solve_resolved(engine_request(&line, &bins)?)
            .map_err(|e| format!("fixture plan {}: {e}", plan.id))?;
        let record = Json::Object(vec![
            member("record", Json::string("land")),
            member("id", Json::string(plan.id.as_str())),
            member("plan", codec::encode(&resolved)),
        ]);
        writeln!(out, "{record}").map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;
    engine.shutdown();
    Ok(())
}

/// One recorded span. Every span of a request shares its `req` id; the
/// parent of each layer span is the request's root span.
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans plus per-name sums, kept in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    sums: BTreeMap<&'static str, (f64, u64)>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            sums: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Times `f` as a span named `name` of request `req`.
    fn span<T>(&mut self, req: u64, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        let us = (end - start).as_secs_f64() * 1e6;
        self.spans.push(Span {
            req,
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        });
        let entry = self.sums.entry(name).or_insert((0.0, 0));
        entry.0 += us;
        entry.1 += 1;
        (out, us)
    }

    fn add(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_insert(0.0) += value;
    }

    /// Mean microseconds of the spans with any of `names` (0 when none
    /// ran).
    pub fn mean_us(&self, names: &[&str]) -> f64 {
        let (sum, n) = names
            .iter()
            .filter_map(|name| self.sums.get(name))
            .fold((0.0, 0), |(s, c), &(sum, n)| (s + sum, c + n));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.sums.get(name).map_or(0, |&(_, n)| n)
    }

    pub fn total(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut out =
            std::io::BufWriter::new(std::fs::File::create(path).map_err(|e| e.to_string())?);
        for s in &self.spans {
            let parent = if s.name == "request" {
                "null"
            } else {
                "\"request\""
            };
            writeln!(
                out,
                r#"{{"req":{},"span":"{}","parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.req, s.name, s.start_ns, s.end_ns
            )
            .map_err(|e| e.to_string())?;
        }
        out.flush().map_err(|e| e.to_string())
    }
}

/// Span name of `solve_with` for an algorithm, where the benchmark reports
/// one.
fn solve_with_span(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::Greedy => "core.solve_with.greedy",
        Algorithm::Baseline => "core.solve_with.baseline",
        _ => "core.solve_with.opq-based",
    }
}

/// The in-process stack: one engine and the plans it retains by id.
pub struct Stack {
    engine: Engine,
    bins: Arc<BinSet>,
    plans: HashMap<String, Arc<ResolvedPlan>>,
    next_req: u64,
}

impl Stack {
    pub fn new() -> Stack {
        Stack {
            engine: engine(),
            bins: paper_bins(),
            plans: HashMap::new(),
            next_req: 0,
        }
    }

    /// Loads a plan journal the way a booting server replays one.
    pub fn load_journal(&mut self, path: &Path, tracer: &mut Tracer) -> Result<(), String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        for line in text.lines() {
            let req = self.next_req;
            self.next_req += 1;
            let (decoded, _) = tracer.span(req, "codec.decode", || {
                let record = slade_json::parse(line)?;
                let id = record
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("record without id")?
                    .to_string();
                let plan = codec::decode(record.get("plan").ok_or("record without plan")?)?;
                Ok::<_, String>((id, plan))
            });
            let (id, plan) = decoded?;
            self.plans.insert(id, Arc::new(plan));
        }
        Ok(())
    }

    /// Runs requests through every layer, untimed (set-up).
    pub fn warm(&mut self, reqs: &[Req]) -> Result<(), String> {
        let mut scratch = Tracer::new();
        for req in reqs {
            self.run(req, &mut scratch)?;
        }
        Ok(())
    }

    /// Runs one request through every layer, recording a span around each
    /// call: JSON parse, protocol parse, the core's `prepare` / `solve_with`
    /// called directly, the engine, plan validation, response rendering,
    /// and the plan codec both ways.
    pub fn run(&mut self, req: &Req, tracer: &mut Tracer) -> Result<(), String> {
        let id = self.next_req;
        self.next_req += 1;
        let line = req.line(None, false);
        let started = Instant::now();
        tracer
            .span(id, "json.parse", || slade_json::parse(&line))
            .0?;
        let (request, _) = tracer.span(id, "protocol.parse_request", || {
            protocol::parse_request(&line, &self.bins)
        });
        let misses = self.engine.cache_stats().misses;
        let (resolved, want_plan, wait_us, core) = match request? {
            Request::Solve {
                request, want_plan, ..
            } => {
                let core = self.core(&request, id, tracer)?;
                let (resolved, wait_us) = tracer.span(id, "engine.submit_wait", || {
                    self.engine.submit_resolved(request.clone()).wait()
                });
                (resolved, want_plan, wait_us, core)
            }
            Request::Resubmit {
                id: plan_id,
                delta,
                want_plan,
                ..
            } => {
                let prior = Arc::clone(
                    self.plans
                        .get(&plan_id)
                        .ok_or_else(|| format!("unknown plan {plan_id}"))?,
                );
                let workload = delta.apply(prior.workload()).map_err(|e| e.to_string())?;
                let mut request =
                    EngineRequest::new(prior.algorithm(), workload, Arc::clone(prior.bins()));
                request.seed = DEFAULT_BASELINE_SEED;
                let core = self.core(&request, id, tracer)?;
                let (resolved, wait_us) = tracer.span(id, "engine.resubmit", || {
                    self.engine.resubmit(&prior, &delta)
                });
                if let Ok(resolved) = &resolved {
                    tracer.add("engine.reused_shards", resolved.reused_shards() as f64);
                    tracer.add("engine.resubmit_shards", resolved.shards() as f64);
                }
                (resolved, want_plan, wait_us, core)
            }
            _ => return Err(format!("unexpected verb in {line}")),
        };
        let resolved = resolved.map_err(|e| e.to_string())?;
        // The engine's own time on a single-shard call: its wall time less
        // the core work it ran (none for a reused shard; `prepare` only on
        // a cache miss).
        if resolved.shards() == 1 {
            let missed = self.engine.cache_stats().misses > misses;
            let matched = match resolved.reused_shards() {
                1 => 0.0,
                _ => core.solve_with + if missed { core.prepare } else { 0.0 },
            };
            tracer.add("engine.self_us_sum", wait_us - matched);
            tracer.add("engine.self_n", 1.0);
        }
        let (audit, _) = tracer.span(id, "core.validate", || {
            resolved
                .plan()
                .validate(resolved.workload(), resolved.bins())
        });
        let audit = audit.map_err(|e| e.to_string())?;
        if !audit.feasible {
            return Err(format!("in-process plan is infeasible: {line}"));
        }
        let (body, _) = tracer.span(id, "json.render", || render(&resolved, &audit, want_plan));
        tracer.add("json.resp_bytes", body.len() as f64);
        let (encoded, _) = tracer.span(id, "codec.encode", || codec::encode(&resolved).to_string());
        tracer.add("codec.plan_bytes", encoded.len() as f64);
        let (decoded, _) = tracer.span(id, "codec.decode", || {
            slade_json::parse(&encoded).and_then(|j| codec::decode(&j))
        });
        decoded?;
        let end = Instant::now();
        tracer.spans.push(Span {
            req: id,
            name: "request",
            start_ns: (started - tracer.epoch).as_nanos() as u64,
            end_ns: (end - tracer.epoch).as_nanos() as u64,
        });
        if let Some(plan_id) = &req.id {
            self.plans.insert(plan_id.clone(), Arc::new(resolved));
        }
        Ok(())
    }

    /// Calls the core directly for `request`, shard by shard as the engine
    /// would split it; returns the summed prepare and solve_with time.
    fn core(
        &self,
        request: &EngineRequest,
        id: u64,
        tracer: &mut Tracer,
    ) -> Result<CoreTime, String> {
        let mut time = CoreTime::default();
        let workload = &request.workload;
        let bins = request.bins.as_ref();
        match request.algorithm {
            Algorithm::OpqBased | Algorithm::OpqExtended => {
                let solver = OpqBased::default();
                for bucket in hetero::partition(workload) {
                    let theta = reliability::theta(bucket.confidence);
                    let (artifacts, us) =
                        tracer.span(id, "core.prepare.opq-based", || solver.prepare(bins, theta));
                    time.prepare += us;
                    let artifacts = artifacts.map_err(|e| e.to_string())?;
                    let shard =
                        Workload::homogeneous(bucket.members.len() as u32, bucket.confidence)
                            .map_err(|e| e.to_string())?;
                    let (plan, us) = tracer.span(id, "core.solve_with.opq-based", || {
                        solver.solve_with(artifacts.as_ref(), &shard, bins)
                    });
                    time.solve_with += us;
                    plan.map_err(|e| e.to_string())?;
                }
            }
            algorithm => {
                let solver: Box<dyn PreparedSolver> = match algorithm {
                    Algorithm::Baseline => Box::new(Baseline {
                        config: BaselineConfig {
                            seed: request.seed,
                            ..BaselineConfig::default()
                        },
                    }),
                    other => other.solver(),
                };
                let theta = reliability::theta(workload.max_threshold());
                let start = Instant::now();
                let artifacts = solver.prepare(bins, theta).map_err(|e| e.to_string())?;
                time.prepare += start.elapsed().as_secs_f64() * 1e6;
                let (plan, us) = tracer.span(id, solve_with_span(algorithm), || {
                    solver.solve_with(artifacts.as_ref(), workload, bins)
                });
                time.solve_with += us;
                plan.map_err(|e| e.to_string())?;
            }
        }
        Ok(time)
    }

    /// Prepares the engine actually ran (its cache misses) so far.
    pub fn engine_misses(&self) -> u64 {
        self.engine.cache_stats().misses
    }

    pub fn shutdown(self) {
        self.engine.shutdown();
    }
}

#[derive(Default)]
struct CoreTime {
    prepare: f64,
    solve_with: f64,
}

/// The response a server writes for a solved or resubmitted plan.
fn render(resolved: &ResolvedPlan, audit: &slade_core::plan::PlanAudit, want_plan: bool) -> String {
    let mut members = vec![
        member("ok", Json::Bool(true)),
        member("op", Json::string("solve")),
    ];
    members.extend(protocol::plan_summary_members(
        resolved.algorithm(),
        resolved.workload(),
        audit,
    ));
    members.push(member("shards", Json::number(resolved.shards() as f64)));
    members.push(member(
        "reused_shards",
        Json::number(resolved.reused_shards() as f64),
    ));
    if want_plan {
        members.push(member("plan", protocol::plan_to_json(resolved.plan())));
    }
    Json::Object(members).to_string()
}
