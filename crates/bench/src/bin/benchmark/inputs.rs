//! Seeded workload inputs. Everything a workload feeds the program is
//! generated here from `--seed` and handed over as instance text, so the
//! program under test only ever sees what a user would send it.

use std::time::Duration;

use match_graph::gen::InstanceGenerator;
use match_graph::io::to_text;
use match_rngutil::derive_seed_str;
use match_rngutil::perm::shuffle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One instance as the two text files a user would supply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceText {
    /// Task interaction graph.
    pub tig: String,
    /// Platform (resource) graph.
    pub platform: String,
}

/// Instance family of a workload.
#[derive(Debug, Clone, Copy)]
pub enum Family {
    /// The paper's §5.2 family.
    Paper,
    /// The sparse large-n family.
    Large,
}

/// Master seed of the inputs that stay the same under every `--seed`:
/// the served workloads' templates, `serve-mixed`'s request list, and
/// `large-remap`'s instance and epoch batches.
///
/// A run affords only a few epochs at n = 4096, and one large job's time
/// differs from the next by up to 3× (instance and solver stream).
/// Which requests `serve-mixed` drew (solver seeds, new structures) moved
/// its median by ±25% (8.8–15.9 ms over ten seeds). Eight seed-drawn
/// `serve-hot` templates moved its `et_vs_lb` by 3%. So these inputs are
/// fixed, and `--seed` draws the rest: the order of each fixed list,
/// arrival times, and `serve-hot`'s combo seeds and picks.
pub const FIXED_SEED: u64 = 2005;

/// An RNG for one named purpose, derived from the run's seed.
pub fn rng(seed: u64, purpose: &str) -> StdRng {
    StdRng::seed_from_u64(derive_seed_str(seed, purpose))
}

/// Instance `index` of `family` at size `n`, independent of every other
/// index.
pub fn instance(seed: u64, purpose: &str, index: usize, family: Family, n: usize) -> InstanceText {
    let mut rng = rng(seed, &format!("{purpose}/{index}"));
    let pair = match family {
        Family::Paper => InstanceGenerator::paper_family(n),
        Family::Large => InstanceGenerator::large_family(n),
    }
    .generate(&mut rng);
    InstanceText {
        tig: to_text(pair.tig.graph()),
        platform: to_text(pair.resources.graph()),
    }
}

/// The order a run takes a list of `len` jobs in, drawn from the seed.
pub fn order(seed: u64, purpose: &str, len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    shuffle(&mut order, &mut rng(seed, purpose));
    order
}

/// Open-loop Poisson arrivals, `count` of them over `span`: offsets from
/// the start of the phase, in order. Given its count, a Poisson process
/// places its arrivals as independent uniform instants; fixing the count
/// gives every run exactly the offered load.
pub fn poisson_schedule(rng: &mut StdRng, count: usize, span: Duration) -> Vec<Duration> {
    let mut due: Vec<Duration> = (0..count)
        .map(|_| span.mul_f64(rng.random::<f64>()))
        .collect();
    due.sort_unstable();
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        for family in [Family::Paper, Family::Large] {
            let a = instance(7, "w", 3, family, 64);
            let b = instance(7, "w", 3, family, 64);
            assert_eq!(a, b);
            assert_ne!(a, instance(8, "w", 3, family, 64));
            assert_ne!(a, instance(7, "w", 4, family, 64));
        }
    }

    #[test]
    fn same_seed_gives_identical_order() {
        let a = order(5, "jobs", 40);
        assert_eq!(a, order(5, "jobs", 40));
        assert_ne!(a, order(6, "jobs", 40));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn same_seed_gives_identical_schedule() {
        let span = Duration::from_secs(2);
        let a = poisson_schedule(&mut rng(11, "arrivals"), 1000, span);
        let b = poisson_schedule(&mut rng(11, "arrivals"), 1000, span);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(&mut rng(12, "arrivals"), 1000, span));
        // Sorted, inside the span, and spread over all of it.
        assert_eq!(a.len(), 1000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().is_some_and(|&t| t < span));
        let first_half = a.iter().filter(|&&t| t < span / 2).count();
        assert!(
            (430..570).contains(&first_half),
            "{first_half} in the first half"
        );
    }
}
