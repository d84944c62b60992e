//! The workloads: set-up, timed phase, output checks and the traced
//! run.

use crate::inputs::{lattice_stream, SplitMix};
use crate::layers::{traced_request, Traced, Tracer, WarmSource};
use crate::stats::{median, quartiles, RunReport};
use crate::target::{ColdEnv, Subset, Target};
use pdat::{
    canonical_env, netlist_fingerprint, run_pdat, CacheEffect, CandidateId, CanonicalEnv,
    PdatConfig, PdatResult, ProofCache, ProveConfig,
};
use pdat_isa::rv32::RvInstr;
use pdat_isa::RvSubset;
use pdat_serve::{OwnedEnvironment, PdatService, Reply, ServeConfig, ServeRequest};
use pdat_workloads::mibench_rv_all;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["m0obf-cold", "ibex-lattice"];
/// Workloads that run by name but are not in `BENCHMARK.json`:
/// `ibex-cold` rounds are about 25 s of 2–7 s requests, too few per run
/// to hold its spread within the bounds on a host whose speed drifts.
pub const REFERENCE_WORKLOADS: [&str; 1] = ["ibex-cold"];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Cold rounds a run can hold at most, each on its own seeded list.
const COLD_MAX_ROUNDS: usize = 8;
/// `ibex-lattice` requests per round (split over the two clients).
const LATTICE_ROUND: usize = 20;
/// `ibex-lattice` rounds a timed run makes at least: 40 requests, enough
/// for a 75th percentile with at least ten samples above it.
const LATTICE_MIN_ROUNDS: usize = 2;
/// `ibex-lattice` rounds a run can hold at most.
const LATTICE_MAX_ROUNDS: usize = 8;
/// `ibex-lattice` client threads (closed loop).
const LATTICE_CLIENTS: usize = 2;
/// `ibex-lattice` replies re-proved cold per run.
const LATTICE_COLD_SAMPLE: usize = 1;
/// `ibex-lattice` stream requests decomposed by the traced run.
const LATTICE_TRACE_SAMPLE: usize = 4;
/// Unissued descendants looked up to time `cache.lookup_s` on a full
/// cache.
const LATTICE_LOOKUP_PROBES: usize = 16;

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase; whole rounds run until it has passed.
    pub seconds: f64,
    /// Make the traced run instead of the timed one.
    pub trace: bool,
    /// Short mode: one set-up and one round of two requests (a nested pair
    /// on the cold workloads, eight descendants on `ibex-lattice`).
    pub short: bool,
    /// Where the traced run writes its spans.
    pub trace_dir: PathBuf,
}

/// Run `workload`.
///
/// # Errors
///
/// Returns a message for an unknown workload name.
pub fn run(workload: &str, o: &Options) -> Result<RunReport, String> {
    match workload {
        "ibex-cold" => Ok(cold(Target::ibex, o, workload)),
        "m0obf-cold" => Ok(cold(Target::m0_obfuscated, o, workload)),
        "ibex-lattice" => Ok(lattice(o, workload)),
        _ => Err(format!("unknown workload `{workload}`")),
    }
}

/// Pipeline settings of the cold workloads: two falsify and two prove
/// threads, no more than the two cores of the reference host.
pub fn cold_config() -> PdatConfig {
    PdatConfig {
        sim_threads: 2,
        prove: ProveConfig {
            threads: 2,
            ..ProveConfig::default()
        },
        ..PdatConfig::default()
    }
}

/// Per-request pipeline settings of the `ibex-lattice` service: one
/// thread each, so two workers use two cores.
pub fn lattice_config() -> PdatConfig {
    PdatConfig {
        sim_threads: 1,
        prove: ProveConfig {
            threads: 1,
            ..ProveConfig::default()
        },
        ..PdatConfig::default()
    }
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Failed checks, attributed to operations.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            correct: true,
            ..Tally::default()
        }
    }

    /// Count one operation and whether all its checks passed.
    fn op(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.correct = false;
            eprintln!("FAILED {what}: {e}");
        }
    }

    fn report(&self) -> RunReport {
        RunReport {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics: Vec::new(),
        }
    }
}

/// Checks every request must pass: no degradation, output no larger
/// than the baseline.
fn request_checks(res: &PdatResult) -> Result<(), String> {
    if !res.degradations.is_empty() {
        return Err(format!("degraded: {:?}", res.degradations));
    }
    if res.optimized.area_um2 > res.baseline.area_um2 {
        return Err(format!(
            "output area {} exceeds baseline {}",
            res.optimized.area_um2, res.baseline.area_um2
        ));
    }
    Ok(())
}

fn proved_ids(res: &PdatResult) -> Vec<CandidateId> {
    let mut ids: Vec<CandidateId> = res
        .proved_invariants
        .iter()
        .map(|c| c.canonical_id())
        .collect();
    ids.sort_unstable();
    ids
}

/// `wide ⊆ narrow` on sorted id lists.
fn contains_all(narrow: &[CandidateId], wide: &[CandidateId]) -> bool {
    wide.iter().all(|id| narrow.binary_search(id).is_ok())
}

/// A cold set-up: generate the core and the round, and answer a first
/// request (untimed, on the seed-independent [`Target::setup_subset`]).
/// Returns the core, the round and the build time.
fn cold_setup(
    build: fn() -> Target,
    o: &Options,
    cfg: &PdatConfig,
    tally: &mut Tally,
) -> (Target, Vec<ColdEnv>, f64) {
    let t = Instant::now();
    let target = build();
    let build_s = secs(t.elapsed());
    let mut envs = target.cold_envs(o.seed);
    if o.short {
        // The first group's nested pair (its narrower member points at 0).
        envs = vec![envs[0].clone(), envs[envs.len() / 2].clone()];
    }
    let first = run_pdat(target.netlist(), &target.env(&target.setup_subset()), cfg);
    tally.op(
        "set-up request",
        first
            .map_err(|e| e.to_string())
            .and_then(|r| request_checks(&r)),
    );
    (target, envs, build_s)
}

fn cold(build: fn() -> Target, o: &Options, name: &str) -> RunReport {
    let cfg = cold_config();
    let mut tally = Tally::new();
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut last = None;
    for _ in 0..if o.short { 1 } else { SETUP_REPS } {
        let t = Instant::now();
        let (target, envs, build_s) = cold_setup(build, o, &cfg, &mut tally);
        setups.push(secs(t.elapsed()));
        builds.push(build_s);
        last = Some((target, envs));
    }
    let (target, envs) = last.expect("at least one set-up");
    if o.trace {
        return cold_trace(&target, &envs, &cfg, o, name, tally, median(&builds));
    }

    // Timed phase: whole rounds until `seconds` have passed. Round 0 is
    // the set-up's environment list and each later round a fresh seeded
    // one, so a run's medians rest on more subsets than one round's six.
    let lists: Vec<Vec<ColdEnv>> = std::iter::once(envs)
        .chain((1..COLD_MAX_ROUNDS).map(|r| target.cold_envs(round_seed(o.seed, r))))
        .collect();
    let sample = SplitMix::new(o.seed, 3).below(lists[0].len());
    let mut sample_netlist = None;
    let mut area = 0.0;
    let mut latencies = Vec::new();
    // Per round: each request's proved set and checks.
    let mut done: Vec<Vec<(Option<Vec<CandidateId>>, Result<(), String>)>> = Vec::new();
    let t0 = Instant::now();
    for (round, envs) in lists.iter().enumerate() {
        let mut out_round = Vec::new();
        for (i, e) in envs.iter().enumerate() {
            let t = Instant::now();
            let out = run_pdat(target.netlist(), &target.env(&e.subset), &cfg);
            latencies.push(secs(t.elapsed()));
            eprintln!("round {round} {}: {:.3}s", e.label, secs(t.elapsed()));
            out_round.push(match out {
                Err(err) => (None, Err(err.to_string())),
                Ok(res) => {
                    if round == 0 {
                        area += res.optimized.area_um2;
                    }
                    let checks = request_checks(&res);
                    let ids = proved_ids(&res);
                    if round == 0 && i == sample {
                        sample_netlist = Some(res.netlist);
                    }
                    (Some(ids), checks)
                }
            });
        }
        done.push(out_round);
        if o.short || t0.elapsed().as_secs_f64() >= o.seconds {
            break;
        }
    }
    let wall = secs(t0.elapsed());
    let rounds = done.len();

    // Output checks, attributed to the environments they concern.
    for (round, (envs, out_round)) in lists.iter().zip(done).enumerate() {
        let mut env_fail: Vec<Option<String>> = vec![None; envs.len()];
        for (i, e) in envs.iter().enumerate() {
            let Some(w) = e.narrows else { continue };
            if let (Some(narrow), Some(wide)) = (&out_round[i].0, &out_round[w].0) {
                if !contains_all(narrow, wide) {
                    env_fail[i] = Some(format!(
                        "{} proved set does not contain that of {}",
                        e.label, envs[w].label
                    ));
                }
            }
        }
        if round == 0 {
            match &sample_netlist {
                Some(nl) => match target.kernel_check(nl, envs[sample].group) {
                    Ok(n) => eprintln!(
                        "kernel check: {n} {} kernels match the ISS",
                        envs[sample].label
                    ),
                    Err(e) => env_fail[sample] = Some(format!("kernel check: {e}")),
                },
                None => env_fail[sample] = Some("no trimmed core to check".to_string()),
            }
        }
        for (i, (_, outcome)) in out_round.into_iter().enumerate() {
            let outcome = outcome.and_then(|()| env_fail[i].clone().map_or(Ok(()), Err));
            tally.op(
                &format!("{name} round {round} request {}", envs[i].label),
                outcome,
            );
        }
    }

    let mut r = tally.report();
    push_end_to_end(&mut r, wall / rounds as f64, &latencies, &setups, area);
    r
}

/// Input seed of round `round` of a cold run.
fn round_seed(seed: u64, round: usize) -> u64 {
    SplitMix::new(seed, 100 + round as u64).next_u64()
}

fn push_end_to_end(r: &mut RunReport, wall: f64, lat: &[f64], setups: &[f64], area: f64) {
    r.push("wall_s", "s", wall);
    r.push("request_p50_s", "s", median(lat));
    r.push("request_p75_s", "s", quartiles(lat)[2]);
    r.push("setup_s", "s", median(setups));
    r.push("peak_rss_mb", "MB", peak_rss_mb());
    r.push("area_out_um2", "um2", area);
}

/// Per-layer sums over the traced requests.
#[derive(Debug, Default)]
struct LayerSums {
    n: f64,
    span: std::collections::BTreeMap<&'static str, f64>,
    ands: f64,
    candidates: f64,
    survivors: f64,
    proved: f64,
    kills: f64,
    sim_cycles: f64,
    rounds: f64,
    shards: f64,
    warm_assumed: f64,
    encode: f64,
    preprocess: f64,
    solve: f64,
    solves: f64,
    conflicts: f64,
    propagations: f64,
    clauses_pre: f64,
    clauses_post: f64,
    gates_out: f64,
    unattributed: f64,
}

impl LayerSums {
    fn add(&mut self, t: &Traced, tr: &Tracer, request: u64) {
        self.n += 1.0;
        for s in tr
            .spans
            .iter()
            .filter(|s| s.request == request && s.parent.is_some())
        {
            *self.span.entry(s.name).or_default() += s.seconds();
        }
        self.ands += t.ands as f64;
        self.candidates += t.candidates as f64;
        self.survivors += t.survivors as f64;
        self.proved += t.proved.len() as f64;
        self.kills += t.sim.kills as f64;
        self.sim_cycles += t.sim.cycles as f64;
        self.rounds += t.houdini.rounds as f64;
        self.shards += t.houdini.shard_stats.len() as f64;
        self.warm_assumed += t.houdini.warm_assumed as f64;
        for s in &t.houdini.shard_stats {
            self.encode += s.encode_seconds;
            self.preprocess += s.preprocess_seconds;
            self.solve += s.solve_seconds;
            self.solves += s.solves as f64;
            self.conflicts += s.conflicts as f64;
            self.propagations += s.propagations as f64;
            self.clauses_pre += s.clauses_pre as f64;
            self.clauses_post += s.clauses_post as f64;
        }
        self.gates_out += t.gates_out as f64;
        self.unattributed += t.unattributed;
    }

    /// Layer metrics, each a mean per traced request (ratios excepted).
    fn push(&self, r: &mut RunReport) {
        let n = self.n.max(1.0);
        let span = |name: &str| self.span.get(name).copied().unwrap_or(0.0) / n;
        r.push("netlist.validate_s", "s", span("netlist.validate"));
        r.push("synth.baseline_s", "s", span("synth.baseline"));
        r.push("aig.build_s", "s", span("aig.build"));
        r.push("aig.ands", "count", self.ands / n);
        r.push("mc.candidates_s", "s", span("mc.candidates"));
        r.push("mc.candidates", "count", self.candidates / n);
        r.push("pdat.constraint_s", "s", span("pdat.constraint"));
        r.push("mc.falsify_s", "s", span("mc.falsify"));
        r.push("mc.sim_cycles", "count", self.sim_cycles / n);
        r.push("mc.kills", "count", self.kills / n);
        r.push("mc.survivors", "count", self.survivors / n);
        r.push("mc.sim_precision", "ratio", self.proved / self.survivors);
        r.push("mc.prove_s", "s", span("mc.prove"));
        r.push("mc.proved", "count", self.proved / n);
        r.push("mc.rounds", "count", self.rounds / n);
        r.push("mc.shards", "count", self.shards / n);
        r.push("mc.warm_assumed", "count", self.warm_assumed / n);
        r.push("sat.encode_s", "s", self.encode / n);
        r.push("sat.preprocess_s", "s", self.preprocess / n);
        r.push("sat.solve_s", "s", self.solve / n);
        r.push("sat.solves", "count", self.solves / n);
        r.push("sat.conflicts", "count", self.conflicts / n);
        r.push("sat.propagations", "count", self.propagations / n);
        r.push(
            "sat.props_per_solve",
            "count",
            self.propagations / self.solves,
        );
        r.push("sat.clauses_pre", "count", self.clauses_pre / n);
        r.push("sat.clauses_post", "count", self.clauses_post / n);
        r.push("synth.final_s", "s", span("synth.final"));
        r.push("synth.gates_out", "count", self.gates_out / n);
        r.push("trace.unattributed_s", "s", self.unattributed / n);
    }
}

/// Outcome of the traced cross-check of one request against the
/// pipeline's own answer.
fn cross_check(t: &Traced, ids: &[CandidateId], area: f64) -> Result<(), String> {
    if t.proved != ids {
        return Err(format!(
            "traced layers proved {} invariants, the pipeline {}",
            t.proved.len(),
            ids.len()
        ));
    }
    if t.area_out != area {
        return Err(format!(
            "traced output area {} != pipeline {}",
            t.area_out, area
        ));
    }
    if t.degradations > 0 || t.area_out > t.area_baseline {
        return Err("traced request degraded or grew".to_string());
    }
    Ok(())
}

fn write_spans(tr: &Tracer, o: &Options, name: &str) {
    let path = o.trace_dir.join(format!("{name}-seed{}.jsonl", o.seed));
    let written = std::fs::create_dir_all(&o.trace_dir)
        .and_then(|()| std::fs::write(&path, tr.to_json_lines()));
    match written {
        Ok(()) => eprintln!("spans: {} written to {}", tr.spans.len(), path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}

fn cold_trace(
    target: &Target,
    envs: &[ColdEnv],
    cfg: &PdatConfig,
    o: &Options,
    name: &str,
    mut tally: Tally,
    build_s: f64,
) -> RunReport {
    // Untraced pass through the production entry point.
    let mut untraced = Vec::new();
    let mut latencies = Vec::new();
    let mut unattributed_by_pipeline = 0.0;
    for e in envs {
        let t = Instant::now();
        let out = run_pdat(target.netlist(), &target.env(&e.subset), cfg);
        let wall = secs(t.elapsed());
        latencies.push(wall);
        match out {
            Ok(res) => {
                let (a, b, c) = res.stage_times;
                unattributed_by_pipeline += wall - secs(a + b + c);
                tally.op(
                    &format!("{name} untraced {}", e.label),
                    request_checks(&res),
                );
                untraced.push(Some((proved_ids(&res), res.optimized.area_um2, wall)));
            }
            Err(err) => {
                tally.op(
                    &format!("{name} untraced {}", e.label),
                    Err(err.to_string()),
                );
                untraced.push(None);
            }
        }
    }

    // Traced pass through the public layer functions.
    let mut tr = Tracer::default();
    let mut sums = LayerSums::default();
    let mut overhead = 0.0;
    let mut submit = 0.0;
    let mut lookup = 0.0;
    let empty = ProofCache::new();
    let nfp = netlist_fingerprint(target.netlist());
    for (i, e) in envs.iter().enumerate() {
        let t = Instant::now();
        let env = target.env(&e.subset);
        submit += secs(t.elapsed());
        let t = Instant::now();
        let _ = empty.lookup(nfp, &canonical_env(&env, &[]));
        lookup += secs(t.elapsed());
        let out = traced_request(
            &mut tr,
            i as u64,
            target.netlist(),
            &env,
            target.cut_nets(),
            cfg,
            None,
        );
        let outcome = match (out, &untraced[i]) {
            (Ok(t), Some((ids, area, wall))) => {
                eprintln!(
                    "request {i} {}: traced {:.3}s, unattributed {:.6}s, untraced {:.3}s",
                    e.label, t.wall, t.unattributed, wall
                );
                overhead += t.wall - wall;
                sums.add(&t, &tr, i as u64);
                cross_check(&t, ids, *area)
            }
            (Err(err), _) => Err(err),
            (Ok(_), None) => Err("no untraced answer to compare".to_string()),
        };
        tally.op(&format!("{name} traced {}", e.label), outcome);
    }
    write_spans(&tr, o, name);

    let n = envs.len() as f64;
    let mut r = tally.report();
    r.push("cores.build_s", "s", build_s);
    sums.push(&mut r);
    r.push("trace.overhead_s", "s", overhead / n);
    r.push("cache.lattice_hits", "count", 0.0);
    r.push("cache.exact_hits", "count", 0.0);
    r.push("cache.misses", "count", 0.0);
    r.push("cache.warm_invariants", "count", 0.0);
    r.push("cache.lookup_s", "s", lookup / n);
    r.push("serve.submit_s", "s", submit / n);
    r.push("serve.latency_p50_s", "s", median(&latencies));
    r.push("serve.unattributed_s", "s", unattributed_by_pipeline / n);
    r.push("serve.retries", "count", 0.0);
    r
}

/// The `ibex-lattice` roots (RV32I and MiBench All) and a seeded stream
/// of `count` descendants that is an antichain below them, judged by the
/// proof cache's own lattice order on canonical environments (and by
/// plain set inclusion).
pub fn lattice_inputs(target: &Target, seed: u64, count: usize) -> (Vec<RvSubset>, Vec<RvSubset>) {
    let roots = vec![RvSubset::rv32i(), mibench_rv_all()];
    let canon = |forms: &BTreeSet<RvInstr>| {
        let s = Subset::Rv(RvSubset::new("", forms.iter().copied()));
        canonical_env(&target.env(&s), &[])
    };
    let root_sets: Vec<BTreeSet<RvInstr>> = roots.iter().map(|r| r.instrs.clone()).collect();
    let root_envs: Vec<CanonicalEnv> = root_sets.iter().map(canon).collect();
    let mut kept: Vec<(BTreeSet<RvInstr>, CanonicalEnv)> = Vec::new();
    let mut accept = |c: &BTreeSet<RvInstr>| {
        let env = canon(c);
        let below_root = root_envs.iter().any(|r| r.is_superset_of(&env));
        let comparable = kept.iter().any(|(s, e)| {
            s.is_subset(c) || c.is_subset(s) || e.is_superset_of(&env) || env.is_superset_of(e)
        });
        if below_root && !comparable {
            kept.push((c.clone(), env));
            true
        } else {
            false
        }
    };
    let stream = lattice_stream(seed, &root_sets, count, &mut accept)
        .into_iter()
        .enumerate()
        .map(|(i, s)| RvSubset::new(format!("descendant {i}"), s))
        .collect();
    (roots, stream)
}

fn serve_request(target: &Target, subset: &RvSubset) -> ServeRequest {
    let Target::Ibex { cut, .. } = target else {
        unreachable!("ibex-lattice runs on the Ibex core")
    };
    ServeRequest {
        env: OwnedEnvironment::Rv {
            subset: subset.clone(),
            ports: vec![cut.clone()],
            mode: pdat::ConstraintMode::CutpointBased,
        },
        extras: Vec::new(),
    }
}

/// What the stream keeps of one reply (the trimmed netlist is dropped).
#[derive(Debug, Clone)]
struct StreamReply {
    index: usize,
    submit: f64,
    latency: f64,
    outcome: Result<ReplySummary, String>,
}

#[derive(Debug, Clone)]
struct ReplySummary {
    proved: Vec<CandidateId>,
    warm: usize,
    area_out: f64,
    stage_sum: f64,
}

fn summarize(reply: Reply) -> Result<ReplySummary, String> {
    let report = match reply {
        Reply::Done(report) => report,
        other => return Err(format!("reply {other:?}")),
    };
    let CacheEffect::LatticeHit { warm } = report.cache else {
        return Err(format!(
            "cache answered {:?}, not a lattice hit",
            report.cache
        ));
    };
    let res = report
        .result
        .as_ref()
        .ok_or("lattice hit without a result")?;
    request_checks(res)?;
    let (a, b, c) = res.stage_times;
    Ok(ReplySummary {
        proved: report.proved.clone(),
        warm,
        area_out: report.summary.optimized.area_um2,
        stage_sum: secs(a + b + c),
    })
}

/// One `ibex-lattice` set-up: generate the core, boot the service and
/// prove the roots cold.
fn lattice_setup(tally: &mut Tally) -> (Target, PdatService, f64) {
    let t = Instant::now();
    let target = Target::ibex();
    let build_s = secs(t.elapsed());
    let cfg = ServeConfig {
        workers: 2,
        pdat: lattice_config(),
        ..ServeConfig::default()
    };
    let service =
        PdatService::start(target.netlist().clone(), cfg).expect("the generated core is valid");
    let tickets: Vec<_> = [RvSubset::rv32i(), mibench_rv_all()]
        .iter()
        .map(|s| service.submit(serve_request(&target, s)))
        .collect();
    for ticket in tickets {
        let outcome = match ticket {
            Err(e) => Err(e.to_string()),
            Ok(t) => match t.wait() {
                Reply::Done(report) if report.cache == CacheEffect::Miss => report
                    .result
                    .as_ref()
                    .map_or(Err("no result".to_string()), request_checks),
                other => Err(format!("root answered {other:?}")),
            },
        };
        tally.op("lattice root", outcome);
    }
    (target, service, build_s)
}

/// The closed-loop stream: rounds of `LATTICE_ROUND` requests served by
/// `LATTICE_CLIENTS` clients, until `seconds` have passed.
fn lattice_stream_phase(
    target: &Target,
    service: &PdatService,
    stream: &[RvSubset],
    o: &Options,
) -> (Vec<StreamReply>, f64, usize) {
    let replies = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let mut rounds = 0usize;
    let round = LATTICE_ROUND.min(stream.len());
    while (rounds + 1) * round <= stream.len() {
        let next = AtomicUsize::new(rounds * round);
        let end = (rounds + 1) * round;
        std::thread::scope(|s| {
            for _ in 0..LATTICE_CLIENTS {
                s.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= end {
                        break;
                    }
                    let req = serve_request(target, &stream[index]);
                    let t = Instant::now();
                    let ticket = service.submit(req);
                    let submit = secs(t.elapsed());
                    let outcome = match ticket {
                        Err(e) => Err(e.to_string()),
                        Ok(ticket) => summarize(ticket.wait()),
                    };
                    let latency = secs(t.elapsed());
                    replies.lock().expect("no client panics").push(StreamReply {
                        index,
                        submit,
                        latency,
                        outcome,
                    });
                });
            }
        });
        rounds += 1;
        if o.short || (rounds >= LATTICE_MIN_ROUNDS && t0.elapsed().as_secs_f64() >= o.seconds) {
            break;
        }
    }
    let wall = secs(t0.elapsed());
    let mut replies = replies.into_inner().expect("no client panics");
    replies.sort_by_key(|r| r.index);
    (replies, wall, rounds)
}

fn lattice(o: &Options, name: &str) -> RunReport {
    let mut tally = Tally::new();
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut last = None;
    for _ in 0..if o.short { 1 } else { SETUP_REPS } {
        let t = Instant::now();
        let (target, service, build_s) = lattice_setup(&mut tally);
        setups.push(secs(t.elapsed()));
        builds.push(build_s);
        if let Some((_, old)) = last.replace((target, service)) {
            PdatService::shutdown(old);
        }
    }
    let (target, service) = last.expect("at least one set-up");
    // Enough descendants for the longest run, plus unissued lookup probes.
    let max_requests = if o.short {
        8
    } else {
        LATTICE_MAX_ROUNDS * LATTICE_ROUND
    };
    let (_, stream) = lattice_inputs(&target, o.seed, max_requests + LATTICE_LOOKUP_PROBES);
    let (stream, probes) = stream.split_at(max_requests);
    let roots = service.cache().snapshot();
    let stats0 = service.cache().stats();

    let (replies, wall, rounds) = lattice_stream_phase(&target, &service, stream, o);

    // Warm-versus-cold sample (the traced run cross-checks instead).
    let done: Vec<&StreamReply> = replies.iter().filter(|r| r.outcome.is_ok()).collect();
    let mut fail_at: Vec<Option<String>> = vec![None; replies.len()];
    if !o.trace {
        let all: Vec<usize> = (0..done.len()).collect();
        for k in SplitMix::new(o.seed, 4).pick(&all, LATTICE_COLD_SAMPLE) {
            let r = done[k];
            let s = Subset::Rv(stream[r.index].clone());
            let cold = run_pdat(target.netlist(), &target.env(&s), &cold_config());
            fail_at[r.index] = match (cold, &r.outcome) {
                (Ok(res), Ok(sum)) if proved_ids(&res) == sum.proved => None,
                (Ok(_), _) => Some("warm proved set differs from a cold run".to_string()),
                (Err(e), _) => Some(e.to_string()),
            };
        }
    }
    for r in &replies {
        let outcome = match (&r.outcome, &fail_at[r.index]) {
            (Err(e), _) | (Ok(_), Some(e)) => Err(e.clone()),
            (Ok(_), None) => Ok(()),
        };
        tally.op(&format!("{name} request {}", r.index), outcome);
    }
    let latencies: Vec<f64> = replies.iter().map(|r| r.latency).collect();

    if !o.trace {
        PdatService::shutdown(service);
        let mut r = tally.report();
        let area: f64 = replies
            .iter()
            .filter(|r| r.index < LATTICE_ROUND)
            .filter_map(|r| r.outcome.as_ref().ok())
            .map(|s| s.area_out)
            .sum();
        let wall = wall / rounds.max(1) as f64;
        push_end_to_end(&mut r, wall, &latencies, &setups, area);
        return r;
    }

    // Traced run: stream-level cache and serve metrics, then the layers.
    let stats1 = service.cache().stats();
    let retries = service.stats().retries;
    let nfp = netlist_fingerprint(target.netlist());
    let t = Instant::now();
    for p in probes {
        let env = canonical_env(&target.env(&Subset::Rv(p.clone())), &[]);
        let _ = service.cache().lookup(nfp, &env);
    }
    let lookup_s = secs(t.elapsed()) / probes.len().max(1) as f64;
    PdatService::shutdown(service);

    let mut r = lattice_trace(&target, stream, &done, &roots, o, name, &mut tally);
    let served: Vec<(&StreamReply, &ReplySummary)> = done
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok().map(|s| (*r, s)))
        .collect();
    let mean = |f: &dyn Fn(&StreamReply, &ReplySummary) -> f64| {
        served.iter().map(|(r, s)| f(r, s)).sum::<f64>() / served.len().max(1) as f64
    };
    let count = |a: u64, b: u64| (a - b) as f64;
    r.push("cores.build_s", "s", median(&builds));
    r.push(
        "cache.lattice_hits",
        "count",
        count(stats1.lattice_hits, stats0.lattice_hits),
    );
    r.push(
        "cache.exact_hits",
        "count",
        count(stats1.exact_hits, stats0.exact_hits),
    );
    r.push("cache.misses", "count", count(stats1.misses, stats0.misses));
    r.push(
        "cache.warm_invariants",
        "count",
        mean(&|_, s| s.warm as f64),
    );
    r.push("cache.lookup_s", "s", lookup_s);
    r.push("serve.submit_s", "s", mean(&|r, _| r.submit));
    r.push("serve.latency_p50_s", "s", median(&latencies));
    r.push(
        "serve.unattributed_s",
        "s",
        mean(&|r, s| r.latency - s.stage_sum),
    );
    r.push("serve.retries", "count", retries as f64);
    RunReport {
        correct: tally.correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: r.metrics,
    }
}

/// The traced part of an `ibex-lattice` run: a seeded sample of served
/// requests, each answered once untraced through the cache entry point
/// and once through the public layer functions, both warm-started from a
/// cache holding only the set-up's roots.
fn lattice_trace(
    target: &Target,
    stream: &[RvSubset],
    done: &[&StreamReply],
    roots: &[(u64, std::sync::Arc<pdat::CachedRun>)],
    o: &Options,
    name: &str,
    tally: &mut Tally,
) -> RunReport {
    let roots_only = || {
        let cache = ProofCache::new();
        for (nfp, run) in roots {
            cache.insert(*nfp, (**run).clone());
        }
        cache
    };
    let (traced_cache, untraced_cache) = (roots_only(), roots_only());
    let cfg = lattice_config();
    let nfp = netlist_fingerprint(target.netlist());
    let mut rng = SplitMix::new(o.seed, 5);
    let sample = rng.pick(&(0..done.len()).collect::<Vec<_>>(), LATTICE_TRACE_SAMPLE);
    let mut tr = Tracer::default();
    let mut sums = LayerSums::default();
    let mut overhead = 0.0;
    for &k in &sample {
        let reply = done[k];
        let Ok(served) = &reply.outcome else { continue };
        let s = Subset::Rv(stream[reply.index].clone());
        let env = target.env(&s);
        let t = Instant::now();
        let untraced = pdat::run_pdat_cached(target.netlist(), &env, &[], &cfg, &untraced_cache);
        let w_u = secs(t.elapsed());
        let warm = WarmSource {
            cache: &traced_cache,
            netlist_fp: nfp,
            env: canonical_env(&env, &[]),
        };
        let traced = traced_request(
            &mut tr,
            reply.index as u64,
            target.netlist(),
            &env,
            target.cut_nets(),
            &cfg,
            Some(warm),
        );
        let outcome = match (traced, untraced) {
            (Ok(t), Ok(u)) => {
                eprintln!(
                    "request {}: traced {:.3}s, unattributed {:.6}s, untraced {:.3}s",
                    reply.index, t.wall, t.unattributed, w_u
                );
                overhead += t.wall - w_u;
                sums.add(&t, &tr, reply.index as u64);
                if u.proved != served.proved {
                    Err("untraced warm answer differs from the service's".to_string())
                } else {
                    cross_check(&t, &served.proved, served.area_out)
                }
            }
            (Err(e), _) => Err(e),
            (_, Err(e)) => Err(e.to_string()),
        };
        tally.op(&format!("{name} traced {}", reply.index), outcome);
    }
    write_spans(&tr, o, name);
    let mut r = RunReport::default();
    sums.push(&mut r);
    r.push("trace.overhead_s", "s", overhead / sums.n.max(1.0));
    r
}
