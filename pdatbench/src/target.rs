//! The cores under test, their environments, and the kernel-versus-ISS
//! check on trimmed cores.

use crate::inputs::{cold_envs, EnvSpec, GroupForms};
use pdat::{ConstraintMode, Environment};
use pdat_cores::{
    build_cortexm0, build_ibex, obfuscate, rebind_cortexm0, rebind_ibex, CoreHarness,
    ObfuscateConfig, ThumbHarness,
};
use pdat_isa::armv6m::ThumbInstr;
use pdat_isa::rv32::RvInstr;
use pdat_isa::{RvSubset, ThumbSubset};
use pdat_netlist::{NetId, Netlist};
use pdat_workloads::{
    run_rv_kernel, run_thumb_kernel, rv_group_usage, thumb_group_usage, BenchGroup,
};
use std::collections::BTreeSet;

/// Thumb kernels that already diverge from the ISS on the unmodified
/// Cortex-M0-class core (clean or obfuscated), so they cannot judge a
/// trimmed one: `t_sort` ends with r0 = 0x8, r1 = 0 on gates where the
/// ISS (checked against a Rust reference) has 0x59 and 0x20.
const THUMB_KERNELS_UNMODIFIED_CORE_FAILS: [&str; 1] = ["t_sort"];

/// One request of a cold workload's round.
#[derive(Debug, Clone)]
pub struct ColdEnv {
    /// Group whose kernels must run on the trimmed core.
    pub group: BenchGroup,
    /// Readable label.
    pub label: String,
    /// For the narrower member of a nested pair: index of the wider one.
    pub narrows: Option<usize>,
    /// The allowed forms.
    pub subset: Subset,
}

/// An ISA subset of either core.
#[derive(Debug, Clone)]
pub enum Subset {
    /// RV32 forms (Ibex).
    Rv(RvSubset),
    /// Thumb forms (Cortex-M0).
    Thumb(ThumbSubset),
}

/// A generated core with the nets its environments attach to.
pub enum Target {
    /// The Ibex-class core, constrained at the fetch cutpoint.
    Ibex {
        /// Generated netlist.
        netlist: Netlist,
        /// Fetch→decode cutpoint nets.
        cut: Vec<NetId>,
    },
    /// The obfuscated Cortex-M0-class core, constrained at its
    /// instruction port.
    M0Obf {
        /// Obfuscated netlist.
        netlist: Netlist,
        /// Instruction port nets of the obfuscated netlist.
        port: Vec<NetId>,
    },
}

impl Target {
    /// Generate the Ibex-class core.
    pub fn ibex() -> Target {
        let core = build_ibex();
        Target::Ibex {
            cut: core.cut_fetch.clone(),
            netlist: core.netlist,
        }
    }

    /// Generate and obfuscate the Cortex-M0-class core.
    pub fn m0_obfuscated() -> Target {
        let core = build_cortexm0();
        let (netlist, map) = obfuscate(&core.netlist, &ObfuscateConfig::default());
        let port = core.instr_in.iter().map(|n| map[n]).collect();
        Target::M0Obf { netlist, port }
    }

    /// The netlist PDAT trims.
    pub fn netlist(&self) -> &Netlist {
        match self {
            Target::Ibex { netlist, .. } | Target::M0Obf { netlist, .. } => netlist,
        }
    }

    /// Nets cut from their drivers in the analysis model.
    pub fn cut_nets(&self) -> &[NetId] {
        match self {
            Target::Ibex { cut, .. } => cut,
            Target::M0Obf { .. } => &[],
        }
    }

    /// The environment restricting this core to `subset`.
    ///
    /// # Panics
    ///
    /// Panics if the subset's ISA does not match the core.
    pub fn env<'a>(&self, subset: &'a Subset) -> Environment<'a> {
        match (self, subset) {
            (Target::Ibex { cut, .. }, Subset::Rv(s)) => Environment::Rv {
                subset: s,
                ports: vec![cut.clone()],
                mode: ConstraintMode::CutpointBased,
            },
            (Target::M0Obf { port, .. }, Subset::Thumb(s)) => Environment::Thumb {
                subset: s,
                port: port.clone(),
                mode: ConstraintMode::PortBased,
            },
            _ => panic!("subset ISA does not match the core"),
        }
    }

    /// The cold-workload environments of one round for `seed` (see
    /// [`crate::inputs::cold_envs`]). Ibex extras come from the RV32
    /// extensions the group already uses, so a request never gains a whole
    /// new extension: adding one M form to the Security group, which uses
    /// none, halves its prove work (the divider becomes live), and a seed
    /// that drew one would make the round's cost bimodal. The M0's Thumb
    /// forms have no extensions; its extras come from all of ARMv6-M.
    pub fn cold_envs(&self, seed: u64) -> Vec<ColdEnv> {
        fn wrap<F: Ord + Copy>(
            specs: Vec<EnvSpec<F>>,
            make: impl Fn(&EnvSpec<F>) -> Subset,
        ) -> Vec<ColdEnv> {
            specs
                .iter()
                .map(|e| ColdEnv {
                    group: e.group,
                    label: e.label.clone(),
                    narrows: e.narrows,
                    subset: make(e),
                })
                .collect()
        }
        match self {
            Target::Ibex { .. } => {
                let groups: Vec<GroupForms<RvInstr>> = BenchGroup::ALL
                    .iter()
                    .map(|&group| {
                        let usage = rv_group_usage(group);
                        let exts: BTreeSet<_> = usage.iter().map(|f| f.extension()).collect();
                        let pool = RvSubset::rv32imcz()
                            .instrs
                            .into_iter()
                            .filter(|f| exts.contains(&f.extension()))
                            .collect();
                        GroupForms { group, usage, pool }
                    })
                    .collect();
                wrap(cold_envs(seed, &groups), |e| {
                    Subset::Rv(RvSubset::new(e.label.clone(), e.forms.iter().copied()))
                })
            }
            Target::M0Obf { .. } => {
                let pool: Vec<ThumbInstr> = ThumbSubset::armv6m().instrs.into_iter().collect();
                let groups: Vec<GroupForms<ThumbInstr>> = BenchGroup::ALL
                    .iter()
                    .map(|&group| GroupForms {
                        group,
                        usage: thumb_group_usage(group),
                        pool: pool.clone(),
                    })
                    .collect();
                wrap(cold_envs(seed, &groups), |e| {
                    Subset::Thumb(ThumbSubset::new(e.label.clone(), e.forms.iter().copied()))
                })
            }
        }
    }

    /// The seed-independent environment of the set-up request: the
    /// Automotive group's usage alone (the cheapest group on both cores).
    pub fn setup_subset(&self) -> Subset {
        let g = BenchGroup::Automotive;
        match self {
            Target::Ibex { .. } => Subset::Rv(RvSubset::new(g.name(), rv_group_usage(g))),
            Target::M0Obf { .. } => Subset::Thumb(ThumbSubset::new(g.name(), thumb_group_usage(g))),
        }
    }

    /// Run every kernel of `group` on the trimmed netlist at gate level
    /// and compare the architectural registers with the ISS. Returns the
    /// number of kernels checked.
    pub fn kernel_check(&self, trimmed: &Netlist, group: BenchGroup) -> Result<usize, String> {
        match self {
            Target::Ibex { .. } => {
                let core = rebind_ibex(trimmed.clone());
                let kernels = group.rv_kernels();
                for k in &kernels {
                    let iss = run_rv_kernel(k);
                    let mut h = CoreHarness::new(&core, &k.image, 4096);
                    let want = iss.retired as usize; // the ISS counts the ecall
                    let got = h.run_until_retires(want, k.fuel * 40);
                    if got != want {
                        return Err(format!("{}: stalled at {got} of {want} retires", k.name));
                    }
                    for r in 1..32 {
                        if h.reg(r) != iss.regs[r] {
                            return Err(format!(
                                "{}: x{r} = {:#x} on gates, {:#x} on the ISS",
                                k.name,
                                h.reg(r),
                                iss.regs[r]
                            ));
                        }
                    }
                }
                Ok(kernels.len())
            }
            Target::M0Obf { .. } => {
                let core = rebind_cortexm0(trimmed.clone());
                let kernels: Vec<_> = group
                    .thumb_kernels()
                    .into_iter()
                    .filter(|k| !THUMB_KERNELS_UNMODIFIED_CORE_FAILS.contains(&k.name))
                    .collect();
                for k in &kernels {
                    let iss = run_thumb_kernel(k);
                    let mut h = ThumbHarness::new(&core, &k.image, 4096);
                    let want = iss.retired as usize;
                    let got = h.run_until_retires(want, k.fuel * 40);
                    if got != want {
                        return Err(format!("{}: stalled at {got} of {want} retires", k.name));
                    }
                    for r in 0..13 {
                        if h.reg(r) != iss.regs[r] {
                            return Err(format!(
                                "{}: r{r} = {:#x} on gates, {:#x} on the ISS",
                                k.name,
                                h.reg(r),
                                iss.regs[r]
                            ));
                        }
                    }
                }
                Ok(kernels.len())
            }
        }
    }
}
