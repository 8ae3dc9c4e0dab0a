//! Variant enumeration — the analog of the paper's code generator (§4.1).
//!
//! The full cartesian product over every dimension is generated and filtered
//! through [`StyleConfig::check`]; whatever survives *is* the suite. The
//! per-(algorithm, model) counts are our analog of the paper's Table 3.
//!
//! Like the paper's generator, the style space is fixed: each
//! `(algorithm, model)` group is generated once per process into an
//! immutable [`Catalogue`] (configs in stable order plus their names), and
//! every later lookup — [`variants`], by name, by config — reads that table
//! instead of re-walking the product.

use crate::config::{uses_reduction, StyleConfig};
use crate::dims::*;
use std::collections::HashMap;
use std::sync::OnceLock;

/// One `(algorithm, model)` group of the suite: its valid variants in
/// stable order, their names, and both lookup directions.
pub struct Catalogue {
    configs: Vec<StyleConfig>,
    names: Vec<Box<str>>,
    /// Indices into `configs`, sorted by name (binary-searched by [`Self::find`]).
    by_name: Vec<usize>,
    by_config: HashMap<StyleConfig, usize>,
}

impl Catalogue {
    fn build(algorithm: Algorithm, model: Model) -> Catalogue {
        let configs = generate(algorithm, model);
        let names: Vec<Box<str>> = configs.iter().map(|c| c.name().into()).collect();
        let mut by_name: Vec<usize> = (0..configs.len()).collect();
        by_name.sort_by(|&a, &b| names[a].cmp(&names[b]));
        let by_config = configs.iter().enumerate().map(|(i, c)| (*c, i)).collect();
        Catalogue {
            configs,
            names,
            by_name,
            by_config,
        }
    }

    /// The group's valid variants, in [`variants`] order.
    pub fn configs(&self) -> &[StyleConfig] {
        &self.configs
    }

    /// The variant named `name` ([`StyleConfig::name`]), if the group has
    /// one. Formats nothing.
    pub fn find(&self, name: &str) -> Option<&StyleConfig> {
        self.by_name
            .binary_search_by(|&i| (*self.names[i]).cmp(name))
            .ok()
            .map(|k| &self.configs[self.by_name[k]])
    }

    /// The name of `cfg` without formatting it, if `cfg` is in the group.
    pub fn name_of(&self, cfg: &StyleConfig) -> Option<&str> {
        self.by_config.get(cfg).map(|&i| &*self.names[i])
    }
}

/// The process-wide catalogue of one `(algorithm, model)` group, built on
/// first use.
pub fn catalogue(algorithm: Algorithm, model: Model) -> &'static Catalogue {
    const MODELS: usize = Model::ALL.len();
    static TABLE: [OnceLock<Catalogue>; Algorithm::ALL.len() * MODELS] =
        [const { OnceLock::new() }; Algorithm::ALL.len() * MODELS];
    // fieldless enums: discriminants are 0..ALL.len()
    TABLE[algorithm as usize * MODELS + model as usize]
        .get_or_init(|| Catalogue::build(algorithm, model))
}

/// The catalogued name of a valid variant (`None` only for a config that
/// fails [`StyleConfig::check`]). Formats nothing.
pub fn name_of(cfg: &StyleConfig) -> Option<&'static str> {
    catalogue(cfg.algorithm, cfg.model).name_of(cfg)
}

/// All valid variants for one `(algorithm, model)` pair, in a stable order.
pub fn variants(algorithm: Algorithm, model: Model) -> Vec<StyleConfig> {
    catalogue(algorithm, model).configs().to_vec()
}

/// Walks the cartesian product for one group and keeps what passes
/// [`StyleConfig::check`] — run once per group by [`catalogue`].
fn generate(algorithm: Algorithm, model: Model) -> Vec<StyleConfig> {
    let gpu = model == Model::Cuda;
    let red = uses_reduction(algorithm);

    let flows: Vec<Option<Flow>> = if algorithm == Algorithm::Tc {
        vec![None]
    } else {
        Flow::ALL.iter().copied().map(Some).collect()
    };
    let persistences: Vec<Option<Persistence>> = optional_axis(gpu, &Persistence::ALL);
    let granularities: Vec<Option<Granularity>> = optional_axis(gpu, &Granularity::ALL);
    let atomics: Vec<Option<AtomicKind>> = optional_axis(gpu, &AtomicKind::ALL);
    let gpu_reds: Vec<Option<GpuReduction>> = optional_axis(gpu && red, &GpuReduction::ALL);
    let cpu_reds: Vec<Option<CpuReduction>> =
        optional_axis(model.is_cpu() && red, &CpuReduction::ALL);
    let omp_scheds: Vec<Option<OmpSchedule>> =
        optional_axis(model == Model::Omp, &OmpSchedule::ALL);
    let cpp_scheds: Vec<Option<CppSchedule>> =
        optional_axis(model == Model::Cpp, &CppSchedule::ALL);

    let mut out = Vec::new();
    for direction in Direction::ALL {
        for drive in Drive::ALL {
            for &flow in &flows {
                for update in Update::ALL {
                    for determinism in Determinism::ALL {
                        for &persistence in &persistences {
                            for &granularity in &granularities {
                                for &atomic in &atomics {
                                    for &gpu_reduction in &gpu_reds {
                                        for &cpu_reduction in &cpu_reds {
                                            for &omp_schedule in &omp_scheds {
                                                for &cpp_schedule in &cpp_scheds {
                                                    let cfg = StyleConfig {
                                                        algorithm,
                                                        model,
                                                        direction,
                                                        drive,
                                                        flow,
                                                        update,
                                                        determinism,
                                                        persistence,
                                                        granularity,
                                                        atomic,
                                                        gpu_reduction,
                                                        cpu_reduction,
                                                        omp_schedule,
                                                        cpp_schedule,
                                                    };
                                                    if cfg.check().is_ok() {
                                                        out.push(cfg);
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// All valid variants for every algorithm under one model (a Table 3 row).
pub fn model_suite(model: Model) -> Vec<StyleConfig> {
    Algorithm::ALL
        .iter()
        .flat_map(|&a| variants(a, model))
        .collect()
}

/// The complete suite across all models — "the N programs" of the title.
pub fn full_suite() -> Vec<StyleConfig> {
    Model::ALL.iter().flat_map(|&m| model_suite(m)).collect()
}

/// One `count_table` row: the model, its per-algorithm variant counts, and
/// the row total.
pub type CountRow = (Model, Vec<(Algorithm, usize)>, usize);

/// Table 3 analog: counts per (model, algorithm) plus row totals.
pub fn count_table() -> Vec<CountRow> {
    Model::ALL
        .iter()
        .map(|&m| {
            let counts: Vec<(Algorithm, usize)> = Algorithm::ALL
                .iter()
                .map(|&a| (a, variants(a, m).len()))
                .collect();
            let total = counts.iter().map(|(_, c)| c).sum();
            (m, counts, total)
        })
        .collect()
}

fn optional_axis<T: Copy>(applies: bool, all: &[T]) -> Vec<Option<T>> {
    if applies {
        all.iter().copied().map(Some).collect()
    } else {
        vec![None]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_variant_is_valid() {
        for cfg in full_suite() {
            assert!(cfg.check().is_ok(), "{}: {:?}", cfg.name(), cfg.check());
        }
    }

    #[test]
    fn names_are_unique() {
        let suite = full_suite();
        let names: HashSet<String> = suite.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), suite.len());
    }

    #[test]
    fn suite_is_paper_scale() {
        // The paper evaluates 1106 programs (754 CUDA + 176 OpenMP + 176
        // C++). Our validity predicate — reconstructed from Table 2 plus the
        // §5 footnotes — lands at 1098 (734 + 182 + 182). The count is
        // pinned so that any rule change to the predicate is a conscious,
        // test-visible decision.
        assert_eq!(full_suite().len(), 1098);
        assert_eq!(model_suite(Model::Cuda).len(), 734);
        assert_eq!(model_suite(Model::Omp).len(), 182);
        assert_eq!(model_suite(Model::Cpp).len(), 182);
    }

    #[test]
    fn pr_cuda_count_matches_paper_exactly() {
        // PR's applicability column is fully pinned down by the paper
        // (vertex-only, topo-only, RMW, push⇒det, no CudaAtomic), so our
        // count must equal Table 3's 54.
        assert_eq!(variants(Algorithm::Pr, Model::Cuda).len(), 54);
    }

    #[test]
    fn tc_cuda_count_matches_paper_exactly() {
        // TC: fixed drive/flow/update/det, both directions with full
        // granularity (the intersection loop), 2 persistence × 2 atomic ×
        // 3 reductions = 72, matching Table 3.
        assert_eq!(variants(Algorithm::Tc, Model::Cuda).len(), 72);
    }

    #[test]
    fn pr_and_tc_cpu_counts_match_paper() {
        assert_eq!(variants(Algorithm::Pr, Model::Omp).len(), 18);
        assert_eq!(variants(Algorithm::Tc, Model::Omp).len(), 12);
        assert_eq!(variants(Algorithm::Pr, Model::Cpp).len(), 18);
        assert_eq!(variants(Algorithm::Tc, Model::Cpp).len(), 12);
    }

    #[test]
    fn omp_and_cpp_counts_are_symmetric() {
        for a in Algorithm::ALL {
            assert_eq!(
                variants(a, Model::Omp).len(),
                variants(a, Model::Cpp).len(),
                "{a:?}"
            );
        }
    }

    #[test]
    fn count_table_consistent_with_model_suite() {
        for (m, counts, total) in count_table() {
            assert_eq!(total, model_suite(m).len());
            assert_eq!(counts.len(), 6);
        }
    }

    #[test]
    fn catalogue_matches_a_fresh_generation_in_order() {
        for a in Algorithm::ALL {
            for m in Model::ALL {
                assert_eq!(variants(a, m), generate(a, m), "{a:?}/{m:?}");
                assert_eq!(catalogue(a, m).configs(), &generate(a, m)[..]);
            }
        }
    }

    #[test]
    fn name_lookups_agree_with_a_linear_scan() {
        let mut looked_up = 0;
        for a in Algorithm::ALL {
            for m in Model::ALL {
                let cat = catalogue(a, m);
                let fresh = generate(a, m);
                for cfg in &fresh {
                    let name = cfg.name();
                    let scanned = fresh.iter().find(|c| c.name() == name);
                    assert_eq!(cat.find(&name), scanned, "{name}");
                    assert_eq!(cat.name_of(cfg), Some(name.as_str()));
                    assert_eq!(name_of(cfg), Some(name.as_str()));
                    looked_up += 1;
                }
                assert!(cat.find("no-such-variant").is_none());
                assert!(cat.find("").is_none());
            }
        }
        assert_eq!(looked_up, 1098);
        // a name from another group is not in this one
        let bfs = catalogue(Algorithm::Bfs, Model::Cuda);
        let pr_name = StyleConfig::baseline(Algorithm::Pr, Model::Cuda).name();
        assert!(bfs.find(&pr_name).is_none());
    }

    #[test]
    fn no_cuda_only_dims_leak_into_cpu_rows() {
        for cfg in model_suite(Model::Omp)
            .iter()
            .chain(model_suite(Model::Cpp).iter())
        {
            assert!(cfg.granularity.is_none());
            assert!(cfg.persistence.is_none());
            assert!(cfg.atomic.is_none());
            assert!(cfg.gpu_reduction.is_none());
        }
    }
}
