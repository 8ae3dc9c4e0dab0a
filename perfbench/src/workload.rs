//! Seeded workload generation. The seed decides every input; the program
//! under test receives only what is generated here.

use indigo_graph::gen::{SuiteGraph, SUITE_GRAPHS};
use indigo_styles::{enumerate, Algorithm, Model, StyleConfig};

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Every (algorithm, model) group in a fixed order.
pub fn groups() -> Vec<(Algorithm, Model)> {
    Algorithm::ALL
        .iter()
        .flat_map(|&a| Model::ALL.iter().map(move |&m| (a, m)))
        .collect()
}

/// The style dimensions that decide how much work and memory a cell takes:
/// every dimension but the GPU atomic kind. Variants that share them differ
/// only in which atomic instruction they use.
fn cost_key(c: &StyleConfig) -> String {
    format!(
        "{:?}/{:?}/{:?}/{:?}/{:?}/{:?}/{:?}/{:?}/{:?}/{:?}/{:?}",
        c.direction,
        c.drive,
        c.flow,
        c.update,
        c.determinism,
        c.gpu_reduction,
        c.cpu_reduction,
        c.persistence,
        c.granularity,
        c.omp_schedule,
        c.cpp_schedule
    )
}

/// The sweep's variants for suite graph number `graph` of `graphs`: one
/// variant of every (algorithm, model) group.
///
/// A cell's cost spans three orders of magnitude, set by the dimensions in
/// [`cost_key`] (block-granularity topology-driven CUDA cells on the road
/// map take seconds, most cells milliseconds), so a uniform draw makes a
/// seed's throughput depend on which few slow styles it drew. Instead each
/// group's cost strata are spread evenly over the graphs, the same for
/// every seed, and `seed` picks the variant inside each stratum.
pub fn sweep_sample(seed: u64, graph: usize, graphs: usize) -> Vec<StyleConfig> {
    let mut rng = Rng::new(seed ^ 0x0053_5745_4550 ^ ((graph as u64) << 56));
    let mut out = Vec::new();
    for (a, m) in groups() {
        let mut all = enumerate::variants(a, m);
        all.sort_by_key(|c| (cost_key(c), c.name()));
        let mut keys: Vec<String> = all.iter().map(cost_key).collect();
        keys.dedup();
        let key = &keys[(2 * graph + 1) * keys.len() / (2 * graphs)];
        let stratum: Vec<&StyleConfig> = all.iter().filter(|c| &cost_key(c) == key).collect();
        out.push(*stratum[rng.below(stratum.len())]);
    }
    out
}

/// Variants per `/sweep` target (the `limit` parameter).
pub const SWEEP_LIMIT: usize = 3;

/// The `/sweep` slices serve-hot primes, each the first [`SWEEP_LIMIT`]
/// variants of its group. A slice leaves the seed no choice that keeps its
/// cost, so they are the same for every seed: one per model, each a few
/// milliseconds at Tiny scale, so that no single slow slice's wall-clock
/// time sets the priming cost.
pub const HOT_SWEEPS: [(Algorithm, Model, SuiteGraph); 3] = [
    (Algorithm::Bfs, Model::Cuda, SuiteGraph::Rmat),
    (Algorithm::Cc, Model::Omp, SuiteGraph::SocialNetwork),
    (Algorithm::Tc, Model::Cpp, SuiteGraph::RoadMap),
];

/// The serve-hot targets: `runs` `/run` cells and then the
/// [`HOT_SWEEPS`] slices, all at Tiny scale. They are primed before
/// measuring, so every measured answer is a cache hit.
///
/// Priming executes every target once, and its cost is the workload's
/// set-up time, so it must not depend on the seed. Each `/run` slot
/// therefore has a fixed group, graph and cost stratum: slot `k` takes the
/// variant [`sweep_sample`] draws for its group on graph `k mod 5`, so the
/// seed picks only the variant inside a stratum, its atomic kind.
pub fn hot_targets(seed: u64, runs: usize) -> Vec<String> {
    let graphs = SUITE_GRAPHS.len();
    let mut samples: Vec<Option<Vec<StyleConfig>>> = vec![None; graphs];
    let mut out: Vec<String> = Vec::with_capacity(runs + HOT_SWEEPS.len());
    for slot in 0..runs {
        let g = slot % graphs;
        let sample = samples[g].get_or_insert_with(|| sweep_sample(seed, g, graphs));
        // seven is prime to the 18 groups, so consecutive slots take every
        // algorithm and model in turn
        let c = sample[7 * slot % sample.len()];
        out.push(format!(
            "/run?algo={}&model={}&graph={}&variant={}&scale=tiny",
            c.algorithm.label(),
            c.model.label(),
            SUITE_GRAPHS[g].label(),
            c.name()
        ));
    }
    for (a, m, g) in HOT_SWEEPS {
        out.push(format!(
            "/sweep?algo={}&model={}&graph={}&scale=tiny&limit={SWEEP_LIMIT}",
            a.label(),
            m.label(),
            g.label()
        ));
    }
    out
}

/// `n` requests drawn by `seed`, as indices into a list of `targets`;
/// `stream` tells apart the lists one seed needs.
pub fn hot_requests(seed: u64, stream: u64, targets: usize, n: usize) -> Vec<u16> {
    let mut rng = Rng::new(seed ^ 0x0048_4954 ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..n).map(|_| rng.below(targets) as u16).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every Tiny (variant, graph) cell a `/run` can ask for: 1098 variants on
    /// five graphs.
    fn all_cells() -> Vec<(StyleConfig, SuiteGraph)> {
        let variants: Vec<StyleConfig> = groups()
            .into_iter()
            .flat_map(|(a, m)| enumerate::variants(a, m))
            .collect();
        SUITE_GRAPHS
            .iter()
            .flat_map(|&g| variants.iter().map(move |&c| (c, g)))
            .collect()
    }

    fn names(v: &[StyleConfig]) -> Vec<String> {
        v.iter().map(|c| c.name()).collect()
    }

    #[test]
    fn there_are_5490_tiny_cells() {
        assert_eq!(all_cells().len(), 5490);
    }

    #[test]
    fn sweep_sample_is_seeded_and_covers_every_group() {
        let a = sweep_sample(1, 0, 5);
        assert_eq!(names(&a), names(&sweep_sample(1, 0, 5)));
        assert_ne!(names(&a), names(&sweep_sample(2, 0, 5)));
        assert_ne!(names(&a), names(&sweep_sample(1, 1, 5)));
        assert_eq!(a.len(), 18);
        for (algo, model) in groups() {
            let n = a
                .iter()
                .filter(|c| c.algorithm == algo && c.model == model)
                .count();
            assert_eq!(n, 1, "{algo:?}/{model:?}");
        }
    }

    #[test]
    fn request_lists_are_seeded() {
        let hot = hot_targets(7, 12);
        assert_eq!(hot.len(), 15);
        assert_eq!(hot, hot_targets(7, 12));
        assert_ne!(hot, hot_targets(8, 12));
        let distinct: std::collections::HashSet<&String> = hot.iter().collect();
        assert_eq!(distinct.len(), hot.len());
        let reqs = hot_requests(7, 0, hot.len(), 50);
        assert_eq!(reqs, hot_requests(7, 0, hot.len(), 50));
        assert_ne!(reqs, hot_requests(8, 0, hot.len(), 50));
        assert_ne!(reqs, hot_requests(7, 1, hot.len(), 50));
        assert!(reqs.iter().all(|&r| usize::from(r) < hot.len()));
    }

    /// The seed changes only the atomic kind of a `/run` target, so the
    /// priming work, and with it serve-hot's set-up time, stays the same.
    #[test]
    fn hot_targets_keep_their_cost_strata_across_seeds() {
        let strip = |t: &str| {
            let v = t
                .split("variant=")
                .nth(1)
                .map(|v| v.split('&').next().unwrap());
            let cfg = v.and_then(|v| {
                all_cells()
                    .into_iter()
                    .find(|(c, _)| c.name() == v)
                    .map(|(c, _)| cost_key(&c))
            });
            (t.split("&variant=").next().unwrap().to_string(), cfg)
        };
        let a: Vec<_> = hot_targets(1, 12).iter().map(|t| strip(t)).collect();
        for seed in 2..6 {
            let b: Vec<_> = hot_targets(seed, 12).iter().map(|t| strip(t)).collect();
            assert_eq!(a, b, "seed {seed}");
        }
    }
}
