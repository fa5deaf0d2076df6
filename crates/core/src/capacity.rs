//! Optional capacity term on the Eq. 1 objective.
//!
//! Wilhelm et al. (*Modeling Task Mapping for Data-intensive
//! Applications in Heterogeneous Systems*) extend the mapping objective
//! with per-resource memory and bandwidth capacities: a mapping that
//! overflows a resource's capacity is penalised in proportion to the
//! overflow. The paper's own Eq. 1/Eq. 2 model stays untouched — the
//! penalty is a strictly additive term, zero whenever every resource
//! fits (and exactly `0.0` when `gamma == 0`), so capacity-free solves
//! are bit-identical with or without this module in the loop.

use crate::problem::MappingInstance;
use match_graph::gen::topology::CapacitySpec;

/// Per-task demands, per-resource capacities, and the penalty weight γ.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityModel {
    /// Memory demand per task.
    pub mem_demand: Vec<f64>,
    /// Memory capacity per resource.
    pub mem_capacity: Vec<f64>,
    /// Bandwidth demand per task.
    pub bw_demand: Vec<f64>,
    /// Bandwidth capacity per resource.
    pub bw_capacity: Vec<f64>,
    /// Penalty weight: the objective becomes `Exec + γ · overflow`.
    pub gamma: f64,
}

impl CapacityModel {
    /// Build from a generated [`CapacitySpec`] with penalty weight `gamma`.
    pub fn from_spec(spec: &CapacitySpec, gamma: f64) -> Self {
        CapacityModel {
            mem_demand: spec.mem_demand.clone(),
            mem_capacity: spec.mem_capacity.clone(),
            bw_demand: spec.bw_demand.clone(),
            bw_capacity: spec.bw_capacity.clone(),
            gamma,
        }
    }

    /// Panic on shape mismatch against `inst`, or on a penalty weight
    /// that is not a finite, non-negative number: `γ = ∞` would turn the
    /// zero overflow of every fitting sample into `∞ · 0 = NaN`.
    pub fn validate(&self, inst: &MappingInstance) {
        assert_eq!(self.mem_demand.len(), inst.n_tasks(), "mem demand per task");
        assert_eq!(self.bw_demand.len(), inst.n_tasks(), "bw demand per task");
        assert_eq!(
            self.mem_capacity.len(),
            inst.n_resources(),
            "mem capacity per resource"
        );
        assert_eq!(
            self.bw_capacity.len(),
            inst.n_resources(),
            "bw capacity per resource"
        );
        assert!(
            self.gamma.is_finite() && self.gamma >= 0.0,
            "gamma must be finite and non-negative"
        );
    }

    /// Total capacity overflow of `assign`: `Σ_s max(0, load_s − cap_s)`
    /// summed over both the memory and bandwidth dimensions.
    pub fn overflow(&self, assign: &[usize]) -> f64 {
        let nr = self.mem_capacity.len();
        let mut mem = vec![0.0f64; nr];
        let mut bw = vec![0.0f64; nr];
        for (t, &s) in assign.iter().enumerate() {
            mem[s] += self.mem_demand[t];
            bw[s] += self.bw_demand[t];
        }
        let mut over = 0.0;
        for s in 0..nr {
            over += (mem[s] - self.mem_capacity[s]).max(0.0);
            over += (bw[s] - self.bw_capacity[s]).max(0.0);
        }
        over
    }

    /// The additive penalty `γ · overflow(assign)`; exactly `0.0` when
    /// `γ == 0`, so the capacitated objective degrades to plain Eq. 2
    /// bit-for-bit.
    pub fn penalty(&self, assign: &[usize]) -> f64 {
        if self.gamma == 0.0 {
            return 0.0;
        }
        self.gamma * self.overflow(assign)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use match_graph::gen::topology::{TopologyConfig, TopologyKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(n: usize, gamma: f64) -> CapacityModel {
        let cfg = TopologyConfig::new(TopologyKind::Grid, n);
        let spec = cfg.generate_caps(&mut StdRng::seed_from_u64(9));
        CapacityModel::from_spec(&spec, gamma)
    }

    #[test]
    fn zero_gamma_is_exactly_free() {
        let m = model(8, 0.0);
        let assign = vec![0usize; 8]; // pile everything on resource 0
        assert!(m.overflow(&assign) > 0.0, "pile-up should overflow");
        assert_eq!(m.penalty(&assign).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn spread_mapping_fits_pileup_does_not() {
        let m = model(8, 1.0);
        let spread: Vec<usize> = (0..8).collect();
        let pile = vec![0usize; 8];
        assert!(m.penalty(&spread) <= m.penalty(&pile));
        assert!(m.penalty(&pile) > 0.0);
    }

    #[test]
    #[should_panic(expected = "gamma must be finite and non-negative")]
    fn infinite_gamma_is_rejected() {
        let m = model(8, f64::INFINITY);
        let pair =
            TopologyConfig::new(TopologyKind::Grid, 8).generate(&mut StdRng::seed_from_u64(9));
        m.validate(&MappingInstance::from_pair(&pair));
    }

    #[test]
    fn penalty_scales_linearly_with_gamma() {
        let base = model(8, 1.0);
        let double = CapacityModel {
            gamma: 2.0,
            ..base.clone()
        };
        let pile = vec![0usize; 8];
        assert_eq!(
            (2.0 * base.penalty(&pile)).to_bits(),
            double.penalty(&pile).to_bits()
        );
    }
}
