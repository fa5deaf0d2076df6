//! Dynamic workloads: task arrival/departure streams driving
//! incremental re-mapping.
//!
//! The paper maps one static TIG once. Real applications churn: tasks
//! arrive and depart over time, and re-solving each epoch from scratch
//! both wastes the previous solution and ignores migration cost. This
//! module makes time a first-class axis:
//!
//! * [`DynamicWorkload`] holds a fixed task universe (`n` tasks on `n`
//!   resources, so mappings stay bijective across epochs) with an
//!   *active set*. A departed task's computation weight drops to a
//!   negligible epsilon and its interactions vanish; an arriving task
//!   gets its original weight and edges back.
//! * [`TaskEvent`] batches ([`DynamicWorkload::generate_events`])
//!   perturb the active set per epoch.
//! * [`run_dynamic`] drives epochs through
//!   [`match_core::remap_incremental`]: a cold solve at epoch 0, then
//!   warm incremental re-maps restricted to the changed subgraph (the
//!   event-touched tasks plus their TIG neighbours), with the
//!   migration-cost term `μ·Σ moved` reported separately.
//!
//! An epoch with an **empty** event batch is short-circuited: the prior
//! mapping and a fresh Eq. 2 evaluation are returned bit-identically to
//! not remapping at all — the metamorphic contract `match-verify` pins.

use match_core::{
    exec_time, remap_incremental, MappingInstance, RemapConfig, RemapOutcome, StopToken,
};
use match_telemetry::{NullRecorder, Recorder};
use rand::rngs::StdRng;
use rand::Rng;

/// Computation weight of a departed task. `MappingInstance` requires
/// strictly positive weights; this is small enough to never influence a
/// mapping decision at paper weight scales.
pub const DEPARTED_EPS: f64 = 1e-6;

/// One arrival or departure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskEvent {
    /// Task re-enters the active set with its original weight and edges.
    Arrive(usize),
    /// Task leaves the active set.
    Depart(usize),
}

impl TaskEvent {
    /// The task this event touches.
    pub fn task(self) -> usize {
        match self {
            TaskEvent::Arrive(t) | TaskEvent::Depart(t) => t,
        }
    }
}

/// A fixed task universe with an active set that events toggle.
///
/// Every epoch's instance is the base instance's platform with a new
/// task half ([`MappingInstance::with_tasks`]), so all epochs share the
/// base's link-cost matrix.
#[derive(Debug, Clone)]
pub struct DynamicWorkload {
    base: MappingInstance,
    edges: Vec<(u32, u32, f64)>,
    active: Vec<bool>,
}

impl DynamicWorkload {
    /// Capture a base instance; every task starts active.
    pub fn new(inst: &MappingInstance) -> Self {
        let n = inst.n_tasks();
        let mut edges = Vec::new();
        for t in 0..n {
            for (a, c) in inst.interactions(t) {
                if t < a {
                    edges.push((t as u32, a as u32, c));
                }
            }
        }
        DynamicWorkload {
            base: inst.clone(),
            edges,
            active: vec![true; n],
        }
    }

    /// Task-universe size.
    pub fn n(&self) -> usize {
        self.base.n_tasks()
    }

    /// The current active set.
    pub fn active(&self) -> &[bool] {
        &self.active
    }

    /// Number of currently active tasks.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Apply an event batch and return the **changed subgraph**: every
    /// touched task plus its TIG neighbours, deduplicated and sorted.
    /// Events that do not change state (arriving an active task,
    /// departing an inactive one, out-of-range ids) are ignored.
    pub fn apply(&mut self, events: &[TaskEvent]) -> Vec<usize> {
        let n = self.n();
        let mut touched = Vec::new();
        for &ev in events {
            let t = ev.task();
            if t >= n {
                continue;
            }
            match ev {
                TaskEvent::Arrive(_) if !self.active[t] => {
                    self.active[t] = true;
                    touched.push(t);
                }
                TaskEvent::Depart(_) if self.active[t] => {
                    self.active[t] = false;
                    touched.push(t);
                }
                _ => {}
            }
        }
        let mut changed = touched.clone();
        for &(u, v, _) in &self.edges {
            let (u, v) = (u as usize, v as usize);
            if touched.contains(&u) {
                changed.push(v);
            }
            if touched.contains(&v) {
                changed.push(u);
            }
        }
        changed.sort_unstable();
        changed.dedup();
        changed
    }

    /// The current epoch's instance: departed tasks keep a negligible
    /// [`DEPARTED_EPS`] computation weight (the flattened instance
    /// requires positive weights) and lose their interactions. The
    /// platform, link-cost matrix included, is the base's, shared.
    pub fn instance(&self) -> MappingInstance {
        let comp: Vec<f64> = self
            .active
            .iter()
            .enumerate()
            .map(|(t, &a)| {
                if a {
                    self.base.computation(t)
                } else {
                    DEPARTED_EPS
                }
            })
            .collect();
        let edges: Vec<(u32, u32, f64)> = self
            .edges
            .iter()
            .copied()
            .filter(|&(u, v, _)| self.active[u as usize] && self.active[v as usize])
            .collect();
        self.base.with_tasks(comp, &edges)
    }

    /// Draw up to `k` events: a uniformly-chosen task departs if active
    /// (never draining the active set below two) or arrives if not.
    /// Each task is touched at most once per batch.
    pub fn generate_events<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> Vec<TaskEvent> {
        let n = self.n();
        if n == 0 {
            return Vec::new();
        }
        let mut live = self.active_count();
        let mut seen = vec![false; n];
        let mut events = Vec::new();
        for _ in 0..k {
            let t = rng.random_range(0..n);
            if seen[t] {
                continue;
            }
            seen[t] = true;
            if self.active[t] {
                if live > 2 {
                    events.push(TaskEvent::Depart(t));
                    live -= 1;
                }
            } else {
                events.push(TaskEvent::Arrive(t));
                live += 1;
            }
        }
        events
    }
}

/// Tunables for [`run_dynamic`].
#[derive(Debug, Clone)]
pub struct DynamicConfig {
    /// Epochs to simulate (epoch 0 is the cold solve).
    pub epochs: usize,
    /// Events drawn per epoch after the first.
    pub events_per_epoch: usize,
    /// Incremental re-mapping configuration (strategy, α, μ, passes).
    pub remap: RemapConfig,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            epochs: 5,
            events_per_epoch: 3,
            remap: RemapConfig::default(),
        }
    }
}

/// One epoch's result.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Epoch index.
    pub epoch: usize,
    /// Events applied this epoch.
    pub events: usize,
    /// Size of the changed subgraph handed to refinement.
    pub changed: usize,
    /// Active tasks after the batch.
    pub active: usize,
    /// The re-mapping outcome (cost, migrations, timings).
    pub outcome: RemapOutcome,
}

/// A full dynamic run.
#[derive(Debug, Clone)]
pub struct DynamicReport {
    /// Per-epoch results, in order.
    pub epochs: Vec<EpochReport>,
}

impl DynamicReport {
    /// Total migrations across all epochs.
    pub fn total_migrations(&self) -> usize {
        self.epochs.iter().map(|e| e.outcome.migrated).sum()
    }
}

/// Drive `cfg.epochs` epochs of arrivals/departures over `base`,
/// re-mapping incrementally after each batch.
pub fn run_dynamic(
    base: &MappingInstance,
    cfg: &DynamicConfig,
    rng: &mut StdRng,
    recorder: &mut dyn Recorder,
) -> DynamicReport {
    let mut wl = DynamicWorkload::new(base);
    let mut prior: Option<Vec<usize>> = None;
    let mut epochs = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let events = if epoch == 0 {
            Vec::new()
        } else {
            wl.generate_events(cfg.events_per_epoch, rng)
        };
        let changed = wl.apply(&events);
        let outcome = match (&prior, events.is_empty() && epoch > 0) {
            (Some(p), true) => {
                // Nothing changed: bit-identical to not remapping.
                let inst = wl.instance();
                let cost = exec_time(&inst, p);
                RemapOutcome {
                    mapping: match_core::Mapping::new(p.clone()),
                    cost,
                    migrated: 0,
                    migration_cost: 0.0,
                    total: cost,
                    warm: true,
                    iterations: 0,
                    evaluations: 0,
                    elapsed: std::time::Duration::ZERO,
                }
            }
            _ => {
                let inst = wl.instance();
                remap_incremental(
                    &inst,
                    prior.as_deref(),
                    &changed,
                    &cfg.remap,
                    rng,
                    recorder,
                    &StopToken::never(),
                )
            }
        };
        prior = Some(outcome.mapping.as_slice().to_vec());
        epochs.push(EpochReport {
            epoch,
            events: events.len(),
            changed: changed.len(),
            active: wl.active_count(),
            outcome,
        });
    }
    DynamicReport { epochs }
}

/// [`run_dynamic`] without telemetry.
pub fn run_dynamic_untraced(
    base: &MappingInstance,
    cfg: &DynamicConfig,
    rng: &mut StdRng,
) -> DynamicReport {
    run_dynamic(base, cfg, rng, &mut NullRecorder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use match_core::{MatchConfig, RemapStrategy};
    use match_graph::gen::InstanceGenerator;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn base(n: usize, seed: u64) -> MappingInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        MappingInstance::from_pair(&InstanceGenerator::paper_family(n).generate(&mut rng))
    }

    fn quick_cfg() -> DynamicConfig {
        DynamicConfig {
            epochs: 4,
            events_per_epoch: 3,
            remap: RemapConfig {
                match_config: MatchConfig {
                    threads: 1,
                    max_iters: 20,
                    ..MatchConfig::default()
                },
                strategy: RemapStrategy::RefineOnly,
                mu: 1.0,
                ..RemapConfig::default()
            },
        }
    }

    /// An epoch instance built the way epochs were built before they
    /// shared the base platform: every part copied out of `base`, the
    /// link matrix element by element, then cloned into `from_parts`.
    fn copied_epoch_instance(base: &MappingInstance, active: &[bool]) -> MappingInstance {
        let n = base.n_tasks();
        let nr = base.n_resources();
        let mut edges = Vec::new();
        for t in 0..n {
            for (a, c) in base.interactions(t) {
                if t < a && active[t] && active[a] {
                    edges.push((t as u32, a as u32, c));
                }
            }
        }
        let comp = (0..n)
            .map(|t| {
                if active[t] {
                    base.computation(t)
                } else {
                    DEPARTED_EPS
                }
            })
            .collect();
        let proc: Vec<f64> = (0..nr).map(|s| base.processing_cost(s)).collect();
        let mut link = Vec::with_capacity(nr * nr);
        for s in 0..nr {
            for b in 0..nr {
                link.push(base.link_cost(s, b));
            }
        }
        MappingInstance::from_parts(comp, &edges, proc.clone(), link.clone().into())
    }

    #[test]
    fn shared_epochs_match_copied_epochs() {
        let n = 64;
        let base = MappingInstance::from_pair(
            &InstanceGenerator::large_family(n).generate(&mut StdRng::seed_from_u64(12)),
        );
        let cfg = RemapConfig {
            strategy: RemapStrategy::RefineOnly,
            mu: 0.5,
            ..RemapConfig::default()
        };
        let mut wl = DynamicWorkload::new(&base);
        let mut events_rng = StdRng::seed_from_u64(13);
        let mut prior: Vec<usize> = (0..n).collect();
        for epoch in 0..20u64 {
            let events = wl.generate_events(8, &mut events_rng);
            let changed = wl.apply(&events);
            let shared = wl.instance();
            let copied = copied_epoch_instance(&base, wl.active());
            assert_eq!(shared, copied, "epoch {epoch}");
            assert!(Arc::ptr_eq(
                shared.link_cost_matrix(),
                base.link_cost_matrix()
            ));
            let remap = |inst: &MappingInstance| {
                let mut rng = StdRng::seed_from_u64(100 + epoch);
                let never = StopToken::never();
                remap_incremental(
                    inst,
                    Some(&prior),
                    &changed,
                    &cfg,
                    &mut rng,
                    &mut NullRecorder,
                    &never,
                )
            };
            let (a, b) = (remap(&shared), remap(&copied));
            assert_eq!(a.mapping, b.mapping, "epoch {epoch}");
            assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "epoch {epoch}");
            assert_eq!(a.migrated, b.migrated, "epoch {epoch}");
            assert_eq!(a.evaluations, b.evaluations, "epoch {epoch}");
            prior = a.mapping.as_slice().to_vec();
        }
    }

    #[test]
    fn departed_tasks_lose_their_edges() {
        let inst = base(8, 1);
        let mut wl = DynamicWorkload::new(&inst);
        let before = wl.instance();
        let changed = wl.apply(&[TaskEvent::Depart(3)]);
        assert!(changed.contains(&3));
        let after = wl.instance();
        assert_eq!(after.computation(3), DEPARTED_EPS);
        assert_eq!(after.interactions(3).count(), 0);
        assert!(before.interactions(3).count() > 0 || inst.degree(3) == 0);
        // Arrive restores the original weight and edges.
        wl.apply(&[TaskEvent::Arrive(3)]);
        let restored = wl.instance();
        assert_eq!(restored.computation(3), inst.computation(3));
        assert_eq!(
            restored.interactions(3).count(),
            inst.interactions(3).count()
        );
    }

    #[test]
    fn changed_set_includes_neighbours() {
        let inst = base(10, 2);
        let mut wl = DynamicWorkload::new(&inst);
        let neighbours: Vec<usize> = inst.interactions(0).map(|(a, _)| a).collect();
        let changed = wl.apply(&[TaskEvent::Depart(0)]);
        for a in neighbours {
            assert!(
                changed.contains(&a),
                "neighbour {a} missing from {changed:?}"
            );
        }
    }

    #[test]
    fn noop_events_are_ignored() {
        let inst = base(6, 3);
        let mut wl = DynamicWorkload::new(&inst);
        assert!(wl.apply(&[TaskEvent::Arrive(2)]).is_empty()); // already active
        wl.apply(&[TaskEvent::Depart(2)]);
        assert!(wl.apply(&[TaskEvent::Depart(2)]).is_empty()); // already gone
        assert!(wl.apply(&[TaskEvent::Depart(99)]).is_empty()); // out of range
    }

    #[test]
    fn generate_events_never_drains_the_active_set() {
        let inst = base(6, 4);
        let mut wl = DynamicWorkload::new(&inst);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let evs = wl.generate_events(6, &mut rng);
            wl.apply(&evs);
            assert!(wl.active_count() >= 2);
        }
    }

    #[test]
    fn dynamic_run_produces_valid_epochs() {
        let inst = base(10, 6);
        let report = run_dynamic_untraced(&inst, &quick_cfg(), &mut StdRng::seed_from_u64(7));
        assert_eq!(report.epochs.len(), 4);
        // Epoch 0 is the cold solve.
        assert!(!report.epochs[0].outcome.warm);
        assert_eq!(report.epochs[0].outcome.migrated, 0);
        for e in &report.epochs {
            assert!(e.outcome.mapping.is_permutation());
            assert!(e.outcome.cost.is_finite());
            assert_eq!(
                e.outcome.total.to_bits(),
                (e.outcome.cost + e.outcome.migration_cost).to_bits()
            );
        }
        // Epochs after the first reuse the prior.
        assert!(report.epochs[1..].iter().all(|e| e.outcome.warm));
    }

    #[test]
    fn empty_batch_epoch_is_bit_identical_to_prior() {
        let inst = base(9, 8);
        let cfg = DynamicConfig {
            epochs: 3,
            events_per_epoch: 0, // every post-cold epoch is an empty batch
            ..quick_cfg()
        };
        let report = run_dynamic_untraced(&inst, &cfg, &mut StdRng::seed_from_u64(9));
        let first = &report.epochs[0].outcome;
        for e in &report.epochs[1..] {
            assert_eq!(e.outcome.mapping, first.mapping);
            assert_eq!(e.outcome.cost.to_bits(), first.cost.to_bits());
            assert_eq!(e.outcome.migrated, 0);
            assert_eq!(e.outcome.evaluations, 0);
        }
    }

    #[test]
    fn dynamic_run_is_deterministic_per_seed() {
        let inst = base(8, 10);
        let a = run_dynamic_untraced(&inst, &quick_cfg(), &mut StdRng::seed_from_u64(11));
        let b = run_dynamic_untraced(&inst, &quick_cfg(), &mut StdRng::seed_from_u64(11));
        assert_eq!(a.epochs.len(), b.epochs.len());
        for (x, y) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(x.outcome.mapping, y.outcome.mapping);
            assert_eq!(x.outcome.cost.to_bits(), y.outcome.cost.to_bits());
            assert_eq!(x.outcome.migrated, y.outcome.migrated);
        }
    }
}
