//! Seeded input generation. The program under test only ever sees the
//! environments generated here; the same seed always yields the same
//! environments.

use pdat_workloads::BenchGroup;
use std::collections::BTreeSet;

/// Extra forms added to a group's usage for the wider environment of a
/// nested pair.
pub const EXTRA_WIDE: usize = 2;
/// Extra forms kept for the narrower environment (a prefix of the wider
/// one's extras, so narrow ⊆ wide).
pub const EXTRA_NARROW: usize = 1;
/// Forms removed from a root to make one `ibex-lattice` descendant.
pub const LATTICE_DROP: usize = 4;

/// SplitMix64: a tiny, seedable generator that is independent of the
/// program's own RNG.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Generator for `seed` and a stream label, so that different uses of
    /// one seed draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct elements of `pool`, in draw order.
    pub fn pick<T: Copy>(&mut self, pool: &[T], k: usize) -> Vec<T> {
        let mut rest = pool.to_vec();
        let mut out = Vec::with_capacity(k);
        while out.len() < k && !rest.is_empty() {
            let i = self.below(rest.len());
            out.push(rest.swap_remove(i));
        }
        out
    }
}

/// One generated environment of a cold workload: a MiBench group's
/// instruction usage plus seeded extra forms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvSpec<F: Ord> {
    /// Group whose usage the subset contains (and whose kernels must run
    /// on the trimmed core).
    pub group: BenchGroup,
    /// Readable label for reports.
    pub label: String,
    /// The allowed instruction forms.
    pub forms: BTreeSet<F>,
    /// For the narrower member of a nested pair: index of the wider one.
    pub narrows: Option<usize>,
}

/// One MiBench group's input to [`cold_envs`]: its instruction usage and
/// the forms its extras may be drawn from.
#[derive(Debug, Clone)]
pub struct GroupForms<F> {
    /// The group.
    pub group: BenchGroup,
    /// Forms the group's kernels use.
    pub usage: BTreeSet<F>,
    /// Candidate extra forms (the usage is excluded when drawing).
    pub pool: Vec<F>,
}

/// The request list of one round of a cold workload: for every group, a
/// wider environment (usage + `EXTRA_WIDE` seeded extras from the group's
/// pool) and a narrower one (usage + the first `EXTRA_NARROW` of those
/// extras), so the list holds one nested pair per group. All wider
/// environments come first, then the narrower ones in the same group
/// order: a group's two requests run far apart in time, so one burst of
/// host contention rarely slows both.
pub fn cold_envs<F: Ord + Copy>(seed: u64, groups: &[GroupForms<F>]) -> Vec<EnvSpec<F>> {
    let mut rng = SplitMix::new(seed, 1);
    let mut wide = Vec::new();
    let mut narrow = Vec::new();
    for (i, g) in groups.iter().enumerate() {
        let free: Vec<F> = g
            .pool
            .iter()
            .copied()
            .filter(|f| !g.usage.contains(f))
            .collect();
        let extras = rng.pick(&free, EXTRA_WIDE);
        let spec = |k: usize, narrows: Option<usize>| EnvSpec {
            group: g.group,
            label: format!("{}+{k}", g.group.name()),
            forms: g
                .usage
                .iter()
                .chain(extras.iter().take(k))
                .copied()
                .collect(),
            narrows,
        };
        wide.push(spec(EXTRA_WIDE, None));
        narrow.push(spec(EXTRA_NARROW, Some(i)));
    }
    wide.extend(narrow);
    wide
}

/// A descendant stream below `roots`: each candidate is a root (taken in
/// turn) minus `LATTICE_DROP` seeded forms. Candidates equal to a root or
/// to an earlier item are skipped; `accept` sees every other candidate in
/// draw order and decides whether it joins the stream (the caller uses
/// it to keep the stream an antichain below the roots).
pub fn lattice_stream<F: Ord + Copy>(
    seed: u64,
    roots: &[BTreeSet<F>],
    count: usize,
    accept: &mut dyn FnMut(&BTreeSet<F>) -> bool,
) -> Vec<BTreeSet<F>> {
    let mut rng = SplitMix::new(seed, 2);
    let mut out: Vec<BTreeSet<F>> = Vec::with_capacity(count);
    let mut tries = 0usize;
    while out.len() < count && tries < count * 100 {
        let root = &roots[tries % roots.len()];
        tries += 1;
        let forms: Vec<F> = root.iter().copied().collect();
        let drop: BTreeSet<F> = rng.pick(&forms, LATTICE_DROP).into_iter().collect();
        let cand: BTreeSet<F> = root.difference(&drop).copied().collect();
        if roots.contains(&cand) || out.contains(&cand) || !accept(&cand) {
            continue;
        }
        out.push(cand);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_is_distinct_and_seeded() {
        let pool: Vec<u32> = (0..50).collect();
        let a = SplitMix::new(7, 1).pick(&pool, 10);
        let b = SplitMix::new(7, 1).pick(&pool, 10);
        let c = SplitMix::new(8, 1).pick(&pool, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let set: BTreeSet<u32> = a.iter().copied().collect();
        assert_eq!(set.len(), 10);
    }
}
