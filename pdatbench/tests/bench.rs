//! Tests of the benchmark itself: seeded inputs, their structure, and a
//! short end-to-end pass over every workload that checks the printed
//! metrics against `BENCHMARK.json`.

use pdat::canonical_env;
use pdat_workloads::{rv_group_usage, thumb_group_usage};
use pdatbench::target::{Subset, Target};
use pdatbench::workloads::{lattice_inputs, run, Options, REFERENCE_WORKLOADS, WORKLOADS};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn forms(s: &Subset) -> Vec<String> {
    match s {
        Subset::Rv(s) => s.instrs.iter().map(|f| format!("{f:?}")).collect(),
        Subset::Thumb(s) => s.instrs.iter().map(|f| format!("{f:?}")).collect(),
    }
}

fn cold_inputs(target: &Target, seed: u64) -> Vec<Vec<String>> {
    target
        .cold_envs(seed)
        .iter()
        .map(|e| forms(&e.subset))
        .collect()
}

#[test]
fn one_seed_gives_the_same_inputs_and_different_seeds_different_ones() {
    for target in [Target::ibex(), Target::m0_obfuscated()] {
        assert_eq!(cold_inputs(&target, 7), cold_inputs(&target, 7));
        assert_ne!(cold_inputs(&target, 7), cold_inputs(&target, 8));
    }
    let ibex = Target::ibex();
    let names = |seed| -> Vec<BTreeSet<String>> {
        lattice_inputs(&ibex, seed, 24)
            .1
            .iter()
            .map(|s| s.instrs.iter().map(|f| format!("{f:?}")).collect())
            .collect()
    };
    assert_eq!(names(7), names(7));
    assert_ne!(names(7), names(8));
}

#[test]
fn every_subset_contains_its_group_usage_and_pairs_nest() {
    for seed in 1..=5 {
        for target in [Target::ibex(), Target::m0_obfuscated()] {
            let envs = target.cold_envs(seed);
            assert_eq!(envs.len(), 6, "one nested pair per MiBench group");
            for e in &envs {
                let covers = match &e.subset {
                    Subset::Rv(s) => rv_group_usage(e.group).is_subset(&s.instrs),
                    Subset::Thumb(s) => thumb_group_usage(e.group).is_subset(&s.instrs),
                };
                assert!(covers, "seed {seed}: {} lacks its group's usage", e.label);
                if let Some(w) = e.narrows {
                    let (narrow, wide) = (forms(&e.subset), forms(&envs[w].subset));
                    assert!(
                        narrow.len() < wide.len(),
                        "seed {seed}: pair does not shrink"
                    );
                    assert!(
                        narrow.iter().all(|f| wide.contains(f)),
                        "seed {seed}: not nested"
                    );
                }
            }
        }
    }
}

#[test]
fn lattice_stream_is_an_antichain_below_its_roots() {
    let ibex = Target::ibex();
    let canon = |s: &pdat_isa::RvSubset| canonical_env(&ibex.env(&Subset::Rv(s.clone())), &[]);
    for seed in 1..=3 {
        let (roots, stream) = lattice_inputs(&ibex, seed, 40);
        assert_eq!(stream.len(), 40);
        let root_envs: Vec<_> = roots.iter().map(canon).collect();
        let envs: Vec<_> = stream.iter().map(canon).collect();
        for (i, s) in stream.iter().enumerate() {
            assert!(
                roots
                    .iter()
                    .any(|r| s.instrs.is_subset(&r.instrs) && s.instrs != r.instrs),
                "seed {seed}: item {i} is not strictly below a root"
            );
            assert!(
                root_envs.iter().any(|r| r.is_superset_of(&envs[i])),
                "seed {seed}: the cache would not find a root above item {i}"
            );
            for (j, t) in stream.iter().enumerate().skip(i + 1) {
                assert!(
                    !s.instrs.is_subset(&t.instrs) && !t.instrs.is_subset(&s.instrs),
                    "seed {seed}: items {i} and {j} are nested"
                );
                assert!(
                    !envs[i].is_superset_of(&envs[j]) && !envs[j].is_superset_of(&envs[i]),
                    "seed {seed}: items {i} and {j} are nested in the cache's order"
                );
            }
        }
    }
}

/// Metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn short_run(workload: &str, trace: bool) -> pdatbench::stats::RunReport {
    let o = Options {
        seed: 3,
        seconds: 0.0,
        trace,
        short: true,
        trace_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    };
    run(workload, &o).expect("known workload")
}

#[test]
fn short_mode_runs_every_workload_end_to_end() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for w in WORKLOADS.iter().chain(&REFERENCE_WORKLOADS) {
        let r = short_run(w, false);
        assert!(r.correct, "{w}: outputs failed their checks");
        assert_eq!(r.failed, 0, "{w}");
        assert!(r.attempted >= 3, "{w}");
        let printed: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(printed.len(), end_to_end.len(), "{w}: {printed:?}");
        for name in &end_to_end {
            let v = r.get(name).unwrap_or_else(|| panic!("{w}: {name} missing"));
            assert!(v.is_finite() && v > 0.0, "{w}: {name} = {v}");
        }
        let t = short_run(w, true);
        assert!(
            t.correct && t.failed == 0,
            "{w}: traced run failed its checks"
        );
        for name in &per_layer {
            let v = t.get(name).unwrap_or_else(|| panic!("{w}: {name} missing"));
            assert!(v.is_finite(), "{w}: {name} = {v}");
        }
        assert_eq!(
            t.metrics.len(),
            per_layer.len(),
            "{w}: undeclared per-layer metric"
        );
    }
    assert!(run(
        "no-such-workload",
        &Options {
            seed: 1,
            seconds: 0.0,
            trace: false,
            short: true,
            trace_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
        }
    )
    .is_err());
}
