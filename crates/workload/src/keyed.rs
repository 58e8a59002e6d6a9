//! The keyed command generator of every B⁺-tree client: the paper's
//! three workload shapes (§4.4.2), uniform or Zipf-skewed keys, and the
//! cross-partition query rule of §4.4.5.

use rand::rngs::SmallRng;
use rand::Rng;

use btree::service::QUERY_SPAN;
use btree::{Partitioning, TreeCommand};

/// Which workload a client generates (§4.4.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkloadKind {
    /// Range queries over intervals of 1000 keys, uniform keys.
    Queries,
    /// One insert-or-delete per command.
    InsDelSingle,
    /// Seven updates per command (the coordinator batches packets).
    InsDelBatch,
}

impl WorkloadKind {
    /// Command size on the wire (256 bytes in the paper).
    pub fn command_bytes(self) -> u32 {
        256
    }

    /// Reply size: 8 KB for range results, 256 B for update acks.
    pub fn reply_bytes(self) -> u32 {
        match self {
            WorkloadKind::Queries => 8192,
            _ => 256,
        }
    }

    /// Tree operations executed per command.
    pub fn ops_per_command(self) -> u32 {
        match self {
            WorkloadKind::Queries => 1,
            WorkloadKind::InsDelSingle => 1,
            WorkloadKind::InsDelBatch => 7,
        }
    }
}

/// Zipfian rank sampler by rejection inversion (Hörmann & Derflinger's
/// method, as used by Apache Commons and `rand_distr`): exact for any
/// exponent `s ≥ 0` and any `n`, O(1) per sample with an expected
/// rejection rate below 1.1. Rank `r ∈ [0, n)` is drawn with
/// probability proportional to `1 / (r + 1)^s`; rank 0 is the hottest.
#[derive(Clone, Copy, Debug)]
pub struct ZipfSampler {
    n: u64,
    s: f64,
    /// `H(n + ½)` — the lower end of the inversion range.
    h_n: f64,
    /// `H(1½) − h(1)` — the upper end.
    h_x1: f64,
    /// Acceptance threshold for the left-tail shortcut.
    threshold: f64,
}

/// `H(x) = ∫ t^(−s) dt`, i.e. `(x^(1−s) − 1)/(1−s)`, via the stable
/// form `helper((1−s)·ln x)·ln x` that survives `s → 1`.
fn h_integral(x: f64, s: f64) -> f64 {
    let log_x = x.ln();
    helper((1.0 - s) * log_x) * log_x
}

/// `h(x) = x^(−s)`.
fn h(x: f64, s: f64) -> f64 {
    (-s * x.ln()).exp()
}

/// Inverse of [`h_integral`].
fn h_integral_inv(x: f64, s: f64) -> f64 {
    let t = (x * (1.0 - s)).max(-1.0);
    (helper_inv(t) * x).exp()
}

/// `(e^x − 1)/x`, stable near 0.
fn helper(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x / 2.0 * (1.0 + x / 3.0 * (1.0 + x / 4.0))
    }
}

/// `ln(1 + x)/x`, stable near 0.
fn helper_inv(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - x / 4.0))
    }
}

impl ZipfSampler {
    /// A sampler over `n` ranks with exponent `s` (`s = 0` is uniform;
    /// the paper-adjacent benchmarks use `s = 0.99`).
    ///
    /// # Panics
    /// Panics if `n` is zero or `s` is negative or not finite.
    pub fn new(n: u64, s: f64) -> ZipfSampler {
        assert!(n > 0, "zipf needs a non-empty rank space");
        assert!(s >= 0.0 && s.is_finite(), "zipf exponent must be finite and >= 0");
        ZipfSampler {
            n,
            s,
            h_n: h_integral(n as f64 + 0.5, s),
            h_x1: h_integral(1.5, s) - 1.0,
            threshold: 2.0 - h_integral_inv(h_integral(2.5, s) - h(2.0, s), s),
        }
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The skew exponent.
    pub fn s(&self) -> f64 {
        self.s
    }

    /// Draws a rank in `[0, n)`; rank 0 is the hottest.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        loop {
            let u = self.h_n + rng.gen::<f64>() * (self.h_x1 - self.h_n);
            let x = h_integral_inv(u, self.s);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            if k - x <= self.threshold || u >= h_integral(k + 0.5, self.s) - h(k, self.s) {
                return k as u64 - 1;
            }
        }
    }
}

/// Scatters a Zipf rank across the key space with a fixed Fibonacci
/// hash, so hot keys land in different partitions instead of packing
/// the low key range (partition 0). Injective when `key_space` exceeds
/// the rank range is not guaranteed, but collisions merely merge two
/// ranks' heat — harmless for load generation.
fn scatter(rank: u64, key_space: u64) -> u64 {
    rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % key_space
}

/// Generates the commands of one client: alternating inserts and
/// deletes (one or seven per command) or 1000-key range queries, keys
/// drawn uniformly or by Zipfian rank popularity.
#[derive(Clone, Debug)]
pub struct KeyedWorkload {
    kind: WorkloadKind,
    key_space: u64,
    zipf: Option<ZipfSampler>,
    /// The partitioning queries are laid over, and the percentage
    /// (0–100) of them that straddle a partition boundary (§4.4.5).
    partitions: Option<(Partitioning, u32)>,
    flip: bool,
}

impl KeyedWorkload {
    /// Uniform key selection over `key_space`.
    pub fn uniform(kind: WorkloadKind, key_space: u64) -> KeyedWorkload {
        assert!(key_space > QUERY_SPAN, "key space must exceed one query span");
        KeyedWorkload { kind, key_space, zipf: None, partitions: None, flip: false }
    }

    /// Zipf(`s`)-skewed key selection: ranks over the whole key space,
    /// scattered so the hot set spreads across partitions.
    pub fn zipfian(kind: WorkloadKind, key_space: u64, s: f64) -> KeyedWorkload {
        assert!(key_space > QUERY_SPAN, "key space must exceed one query span");
        let zipf = Some(ZipfSampler::new(key_space, s));
        KeyedWorkload { kind, key_space, zipf, partitions: None, flip: false }
    }

    /// Lays queries over partitioning `p`: `cross_pct`% of them straddle
    /// a random partition boundary (they touch exactly two partitions,
    /// as in the paper's Figs. 4.8/4.9), the rest fall inside one
    /// partition drawn uniformly.
    pub fn with_partitions(mut self, p: Partitioning, cross_pct: u32) -> KeyedWorkload {
        self.partitions = Some((p, cross_pct.min(100)));
        self
    }

    /// The workload kind.
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    fn next_key(&mut self, rng: &mut SmallRng) -> u64 {
        match &self.zipf {
            Some(z) => scatter(z.sample(rng), self.key_space),
            None => rng.gen_range(0..self.key_space),
        }
    }

    /// Draws the operations of the next command. `InsDelBatch` yields 7
    /// updates; the others one operation.
    pub fn next_command(&mut self, rng: &mut SmallRng) -> Vec<TreeCommand> {
        match self.kind {
            WorkloadKind::Queries => vec![self.next_query(rng)],
            WorkloadKind::InsDelSingle => vec![self.next_update(rng)],
            WorkloadKind::InsDelBatch => (0..7).map(|_| self.next_update(rng)).collect(),
        }
    }

    fn next_update(&mut self, rng: &mut SmallRng) -> TreeCommand {
        // Alternate inserts and deletes so the tree size stays constant
        // over time (§4.4.2).
        let key = self.next_key(rng);
        self.flip = !self.flip;
        if self.flip {
            TreeCommand::Insert { key, value: rng.gen() }
        } else {
            TreeCommand::Delete { key }
        }
    }

    fn next_query(&mut self, rng: &mut SmallRng) -> TreeCommand {
        let lo = match self.partitions {
            Some((p, cross_pct)) => {
                if rng.gen_range(0..100) < cross_pct && p.n > 1 {
                    // A query straddling a random partition boundary.
                    p.span * rng.gen_range(1..p.n) as u64 - QUERY_SPAN / 2
                } else {
                    // Kept inside one partition.
                    rng.gen_range(0..p.n) as u64 * p.span + rng.gen_range(0..p.span - QUERY_SPAN)
                }
            }
            None => self.next_key(rng).min(self.key_space - QUERY_SPAN),
        };
        TreeCommand::Query { lo, hi: lo + QUERY_SPAN - 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn batch_workload_yields_seven_updates() {
        let mut g = KeyedWorkload::uniform(WorkloadKind::InsDelBatch, 2000);
        let mut rng = SmallRng::seed_from_u64(1);
        let cmds = g.next_command(&mut rng);
        assert_eq!(cmds.len(), 7);
        assert!(cmds.iter().all(|c| c.is_update()));
    }

    #[test]
    fn updates_alternate_insert_delete() {
        let mut g = KeyedWorkload::uniform(WorkloadKind::InsDelSingle, 2000);
        let mut rng = SmallRng::seed_from_u64(2);
        let a = g.next_command(&mut rng)[0];
        let b = g.next_command(&mut rng)[0];
        assert!(matches!(a, TreeCommand::Insert { .. }));
        assert!(matches!(b, TreeCommand::Delete { .. }));
    }

    #[test]
    fn cross_partition_fraction_is_respected() {
        let p = Partitioning::new(2);
        let mut g =
            KeyedWorkload::uniform(WorkloadKind::Queries, 2 * p.span).with_partitions(p, 50);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut cross = 0;
        for _ in 0..1000 {
            let c = g.next_command(&mut rng)[0];
            if p.mask_of(c).count_ones() == 2 {
                cross += 1;
            }
        }
        assert!((400..600).contains(&cross), "cross-partition count {cross}");
    }

    #[test]
    fn zero_cross_means_single_partition_queries() {
        let p = Partitioning::new(4);
        let mut g = KeyedWorkload::uniform(WorkloadKind::Queries, 4 * p.span).with_partitions(p, 0);
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..500 {
            let c = g.next_command(&mut rng)[0];
            assert_eq!(p.mask_of(c).count_ones(), 1);
        }
    }

    #[test]
    fn queries_span_1000_keys() {
        let mut g = KeyedWorkload::uniform(WorkloadKind::Queries, 1_000_000);
        let mut rng = SmallRng::seed_from_u64(5);
        let TreeCommand::Query { lo, hi } = g.next_command(&mut rng)[0] else { panic!() };
        assert_eq!(hi - lo + 1, QUERY_SPAN);
    }

    /// Empirical rank frequencies against the exact Zipf pmf: the top
    /// ranks must each land within 10% relative error, and the sampler
    /// must stay in range.
    fn assert_zipf_fit(s: f64, seed: u64) {
        const N: u64 = 1000;
        const SAMPLES: usize = 400_000;
        let z = ZipfSampler::new(N, s);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut counts = vec![0u64; N as usize];
        for _ in 0..SAMPLES {
            let r = z.sample(&mut rng);
            assert!(r < N, "rank {r} out of range");
            counts[r as usize] += 1;
        }
        let norm: f64 = (1..=N).map(|k| (k as f64).powf(-s)).sum();
        for rank in 0..8usize {
            let expect = (rank as f64 + 1.0).powf(-s) / norm * SAMPLES as f64;
            let got = counts[rank] as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.10, "s={s} rank {rank}: got {got}, expect {expect:.0} (rel {rel:.3})");
        }
        // Frequencies decrease with rank overall: compare decile sums.
        let head: u64 = counts[..100].iter().sum();
        let tail: u64 = counts[900..].iter().sum();
        assert!(head > tail, "head {head} <= tail {tail} at s={s}");
    }

    #[test]
    fn zipf_frequency_rank_fit_heavy_skew() {
        assert_zipf_fit(0.99, 0x21bf);
    }

    #[test]
    fn zipf_frequency_rank_fit_mild_skew() {
        assert_zipf_fit(0.5, 0x21c0);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = ZipfSampler::new(100, 0.0);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut counts = [0u64; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*min > 800 && *max < 1200, "uniform spread, got {min}..{max}");
    }

    #[test]
    fn keyed_zipf_commands_stay_in_key_space() {
        let mut w = KeyedWorkload::zipfian(WorkloadKind::InsDelSingle, 50_000, 0.99);
        let mut rng = SmallRng::seed_from_u64(10);
        for _ in 0..2000 {
            match w.next_command(&mut rng)[0] {
                TreeCommand::Insert { key, .. } | TreeCommand::Delete { key } => {
                    assert!(key < 50_000);
                }
                TreeCommand::Query { .. } => panic!("update workload"),
            }
        }
    }

    #[test]
    fn keyed_queries_fit_the_key_space() {
        let mut w = KeyedWorkload::zipfian(WorkloadKind::Queries, 10_000, 0.99);
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..500 {
            let TreeCommand::Query { lo, hi } = w.next_command(&mut rng)[0] else { panic!() };
            assert!(hi < 10_000 && hi - lo + 1 == QUERY_SPAN);
        }
    }

    #[test]
    fn scatter_spreads_hot_ranks() {
        let key_space = 1_000_000u64;
        let quarters: Vec<u64> = (0..4).map(|r| scatter(r, key_space) / (key_space / 4)).collect();
        // The four hottest ranks do not all land in one quarter.
        assert!(quarters.iter().any(|&q| q != quarters[0]), "{quarters:?}");
    }
}
