//! The traced run: one request decomposed into calls to the public layer
//! functions, in pipeline order, each wrapped in a span recorded from
//! outside the program.

use pdat::{rv_constraint, thumb_constraint, Environment, InstrConstraint, PdatConfig};
use pdat_aig::{netlist_to_aig, AigLit, NetlistAig};
use pdat_cache::{CacheLookup, CanonicalEnv, ProofCache};
use pdat_governor::Governor;
use pdat_mc::{
    candidates_for_netlist, houdini_prove_warm_governed, simulate_filter_governed, Candidate,
    CandidateId, CandidateKind, HoudiniConfig, HoudiniStats, SimFilterConfig, SimFilterStats,
};
use pdat_netlist::{Driver, NetId, Netlist};
use pdat_synth::resynthesize;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (matches the per-layer metric prefix).
    pub name: &'static str,
    /// Request the span belongs to.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the tracer was created.
    pub start: f64,
    /// End, seconds since the tracer was created.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span recorder; spans are written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Every span, in start order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            request,
            parent,
            start,
            end: f64::NAN,
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Run `f` inside a span that is a child of `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, request, Some(parent));
        let out = f();
        self.end(id);
        out
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut s = String::new();
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_s\": {:?}, \"end_s\": {:?}}}",
                sp.name, sp.request, sp.start, sp.end
            );
        }
        s
    }
}

/// Counts and outputs of one traced request.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Canonical ids of the proved invariants, sorted.
    pub proved: Vec<CandidateId>,
    /// Output area of the trimmed core.
    pub area_out: f64,
    /// Output gate count.
    pub gates_out: usize,
    /// Area of the baseline resynthesis of the input.
    pub area_baseline: f64,
    /// AND nodes of the analysis AIG.
    pub ands: usize,
    /// Candidates generated.
    pub candidates: usize,
    /// Candidates entering the prover (survivors plus warm).
    pub survivors: usize,
    /// Falsification counters.
    pub sim: SimFilterStats,
    /// Prover counters.
    pub houdini: HoudiniStats,
    /// Degradation events raised by any layer.
    pub degradations: usize,
    /// Wall time of the whole request.
    pub wall: f64,
    /// Request wall time not covered by a direct child span.
    pub unattributed: f64,
}

/// Where a traced request's warm start comes from.
pub struct WarmSource<'a> {
    /// Cache to look the request up in.
    pub cache: &'a ProofCache,
    /// Netlist fingerprint of the cache key.
    pub netlist_fp: u64,
    /// Canonical environment of the request.
    pub env: CanonicalEnv,
}

/// Run one request through the public layer functions in pipeline order
/// (validate, baseline resynthesis, cache lookup, AIG build, candidates,
/// constraint, falsify, prove, rewire plus resynthesis), recording one
/// span per layer under a `request` root span.
///
/// # Errors
///
/// Returns a message if the netlist is invalid or a constraint net is
/// not an analysis input.
pub fn traced_request(
    tr: &mut Tracer,
    request: u64,
    netlist: &Netlist,
    env: &Environment<'_>,
    cut: &[NetId],
    config: &PdatConfig,
    warm_source: Option<WarmSource<'_>>,
) -> Result<Traced, String> {
    let t0 = Instant::now();
    let root = tr.begin("request", request, None);
    let first_child = tr.spans.len();
    let governor = Governor::unlimited();

    tr.span("netlist.validate", request, root, || netlist.validate())
        .map_err(|e| e.to_string())?;
    let baseline = tr.span("synth.baseline", request, root, || resynthesize(netlist).0);
    let baseline_area = baseline.stats().area_um2;
    let warm: Vec<CandidateId> = match &warm_source {
        None => Vec::new(),
        Some(w) => tr.span("cache.lookup", request, root, || {
            match w.cache.lookup(w.netlist_fp, &w.env) {
                CacheLookup::Exact(run) | CacheLookup::Lattice(run) => run.proved.clone(),
                CacheLookup::Miss => Vec::new(),
            }
        }),
    };
    let mut na = tr.span("aig.build", request, root, || netlist_to_aig(netlist, cut));
    let ands = na.aig.num_ands();
    let candidates = tr.span("mc.candidates", request, root, || {
        candidates_for_netlist(netlist, &na)
    });
    let (constraint, instr) = tr.span("pdat.constraint", request, root, || {
        build_constraint(&mut na, env)
    })?;

    let warm_ids: HashSet<CandidateId> = warm.iter().copied().collect();
    let degr_sim;
    let (survivors, sim) = {
        let instr_ref = &instr;
        let stim = move |rng: &mut StdRng, words: &mut [u64]| {
            for w in words.iter_mut() {
                *w = rng.gen();
            }
            for c in instr_ref {
                c.drive(rng, words);
            }
        };
        let sim_input: Vec<Candidate> = candidates
            .iter()
            .filter(|c| !warm_ids.contains(&c.canonical_id()))
            .copied()
            .collect();
        let (alive, sim, events) = tr.span("mc.falsify", request, root, || {
            simulate_filter_governed(
                &na,
                constraint,
                &sim_input,
                &SimFilterConfig {
                    cycles: config.sim_cycles,
                    lane_blocks: config.lane_blocks,
                    threads: config.sim_threads,
                    restart_threshold: config.restart_threshold,
                },
                &stim,
                config.seed,
                &governor,
            )
        });
        degr_sim = events.len();
        // Warm invariants rejoin in candidate order, as the pipeline does.
        let alive: HashSet<Candidate> = alive.into_iter().collect();
        let survivors: Vec<Candidate> = candidates
            .iter()
            .filter(|c| warm_ids.contains(&c.canonical_id()) || alive.contains(c))
            .copied()
            .collect();
        (survivors, sim)
    };
    let (proved, houdini, prove_events) = tr.span("mc.prove", request, root, || {
        houdini_prove_warm_governed(
            &na.aig,
            constraint,
            &na,
            &survivors,
            &warm,
            &HoudiniConfig {
                conflict_budget: config.conflict_budget,
                max_iterations: config.max_iterations,
                prove: config.prove.clone(),
            },
            &governor,
        )
    });
    let trimmed = tr.span("synth.final", request, root, || {
        let mut rewired = netlist.clone();
        rewire(&mut rewired, &proved);
        resynthesize(&rewired).0
    });
    let stats = trimmed.stats();
    tr.end(root);
    let wall = t0.elapsed().as_secs_f64();
    let covered: f64 = tr.spans[first_child..]
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(Span::seconds)
        .sum();
    let mut ids: Vec<CandidateId> = proved.iter().map(|c| c.canonical_id()).collect();
    ids.sort_unstable();
    Ok(Traced {
        proved: ids,
        area_out: stats.area_um2,
        gates_out: stats.gate_count,
        area_baseline: baseline_area,
        ands,
        candidates: candidates.len(),
        survivors: survivors.len(),
        sim,
        houdini,
        degradations: degr_sim + prove_events.len(),
        wall,
        unattributed: tr.spans[root].seconds() - covered,
    })
}

/// The environment's recognizer over the analysis inputs.
fn build_constraint(
    na: &mut NetlistAig,
    env: &Environment<'_>,
) -> Result<(AigLit, Vec<InstrConstraint>), String> {
    let lits_and_indices = |na: &NetlistAig, nets: &[NetId]| {
        let lits: Vec<AigLit> = nets
            .iter()
            .map(|n| {
                na.input_lit
                    .get(n)
                    .copied()
                    .ok_or("constraint net is not an input")
            })
            .collect::<Result<_, _>>()?;
        let indices: Vec<usize> = lits
            .iter()
            .map(|l| {
                na.aig
                    .inputs()
                    .iter()
                    .position(|&n| AigLit::of(n) == *l)
                    .ok_or("constraint net is not an input")
            })
            .collect::<Result<_, _>>()?;
        Ok::<_, String>((lits, indices))
    };
    match env {
        Environment::Unconstrained => Ok((AigLit::TRUE, Vec::new())),
        Environment::Rv { subset, ports, .. } => {
            let mut lit = AigLit::TRUE;
            let mut all = Vec::new();
            for port in ports {
                let (lits, idx) = lits_and_indices(na, port)?;
                let (l, c) = rv_constraint(&mut na.aig, &lits, idx, subset);
                lit = na.aig.and(lit, l);
                all.push(c);
            }
            Ok((lit, all))
        }
        Environment::Thumb { subset, port, .. } => {
            let (lits, idx) = lits_and_indices(na, port)?;
            let (l, c) = thumb_constraint(&mut na.aig, &lits, idx, subset);
            Ok((l, vec![c]))
        }
    }
}

/// Apply proved invariants as rewirings, constants first, then aliases
/// that close no alias cycle: the rewiring rule of the paper (§IV-B),
/// restated here over the netlist's public API so that the traced run
/// can time it as its own layer. Its output area is checked against the
/// pipeline's.
fn rewire(nl: &mut Netlist, proved: &[Candidate]) {
    let mut done: HashSet<NetId> = HashSet::new();
    for c in proved {
        let value = match c.kind {
            CandidateKind::ConstFalse => false,
            CandidateKind::ConstTrue => true,
            CandidateKind::EqualNet(_) => continue,
        };
        if done.insert(c.net) {
            nl.assign_const(c.net, value);
        }
    }
    for c in proved {
        let CandidateKind::EqualNet(src) = c.kind else {
            continue;
        };
        if done.contains(&c.net) {
            continue;
        }
        let mut cur = src;
        let mut hops = 0;
        let cycle = loop {
            if cur == c.net {
                break true;
            }
            match nl.driver(cur) {
                Driver::Alias(next) if hops <= nl.num_nets() => {
                    cur = next;
                    hops += 1;
                }
                Driver::Alias(_) => break true,
                _ => break false,
            }
        };
        if !cycle {
            done.insert(c.net);
            nl.assign_alias(c.net, src);
        }
    }
}
