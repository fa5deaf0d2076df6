//! The two Eq. 1 / Eq. 2 kernels: the reference row-at-a-time scalar
//! loop and the [`LANES`]-wide lane kernel over a transposed
//! (structure-of-arrays) assignment buffer.

use crate::backend::EvalBackend;
use crate::plan::InstancePlan;

/// Samples evaluated per lane-kernel pass. Eight `f64` accumulators
/// fill one AVX-512 register or two AVX2 registers, and — just as
/// importantly on any target — give the out-of-order core eight
/// independent add chains where the scalar loop has one.
pub const LANES: usize = 8;

/// Reusable buffers for batch evaluation: the transposed assignment
/// block (`n_tasks × LANES`, lane-minor so one task's eight
/// assignments are contiguous) and the per-resource load lanes
/// (`n_resources × LANES`). Grown on demand, so one scratch serves any
/// plan; per-thread ownership composes with `match-par` row chunking.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    soa: Vec<u32>,
    lane_loads: Vec<f64>,
    row_loads: Vec<f64>,
}

impl EvalScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        EvalScratch::default()
    }

    fn ensure(&mut self, n_tasks: usize, n_resources: usize) {
        self.soa.resize(n_tasks * LANES, 0);
        self.lane_loads.resize(n_resources * LANES, 0.0);
        self.row_loads.resize(n_resources, 0.0);
    }
}

impl InstancePlan {
    /// A scratch sized for this plan (sizing is lazy anyway; this just
    /// front-loads the allocation).
    pub fn new_scratch(&self) -> EvalScratch {
        let mut scratch = EvalScratch::new();
        scratch.ensure(self.n_tasks(), self.n_resources());
        scratch
    }

    /// The reference scalar kernel: Eq. 1 loads for one assignment row
    /// into `loads` (length `n_resources`), returning the Eq. 2 max.
    ///
    /// Bit-identical to `match_core::exec_per_resource_into` followed
    /// by the max fold: same task order, same CSR order, same skip of
    /// co-located neighbours, same `f64::max` fold in resource order.
    pub fn eval_row(&self, row: &[usize], loads: &mut [f64]) -> f64 {
        debug_assert_eq!(row.len(), self.n_tasks());
        debug_assert_eq!(loads.len(), self.n_resources());
        loads.fill(0.0);
        for (t, &s) in row.iter().enumerate() {
            let mut acc = self.proc_term(t, s);
            for k in self.csr_range(t) {
                let b = row[self.csr_target(k)];
                if b != s {
                    acc += self.csr_volume(k) * self.link_cost(s, b);
                }
            }
            loads[s] += acc;
        }
        loads.iter().copied().fold(0.0, f64::max)
    }

    /// Evaluate a flat batch of assignment rows (`costs.len()` rows of
    /// `n_tasks` entries each) with the chosen backend, writing the
    /// Eq. 2 cost per row and, when `loads` is given, the Eq. 1
    /// per-resource loads (`n_resources` per row, row-major).
    ///
    /// `Auto` resolves on the batch width. The `Simd` backend runs full
    /// [`LANES`]-row groups through the lane kernel and the remainder
    /// through the scalar kernel — both bit-identical, so the split
    /// point (and therefore any upstream thread-chunking of the batch)
    /// never shows in the results.
    pub fn eval_batch(
        &self,
        backend: EvalBackend,
        rows: &[usize],
        costs: &mut [f64],
        mut loads: Option<&mut [f64]>,
        scratch: &mut EvalScratch,
    ) {
        let n = self.n_tasks();
        let n_r = self.n_resources();
        let n_rows = costs.len();
        assert_eq!(
            rows.len(),
            n_rows * n,
            "rows buffer must be n_rows × n_tasks"
        );
        if let Some(out) = loads.as_deref() {
            assert_eq!(
                out.len(),
                n_rows * n_r,
                "loads buffer must be n_rows × n_resources"
            );
        }
        scratch.ensure(n, n_r);
        let mut done = 0;
        if backend.resolved_for(n_rows) == EvalBackend::Simd && n > 0 && n_r > 0 {
            // One up-front range check over the whole batch licenses the
            // lane kernel's unchecked gathers (see the SAFETY notes
            // there); the scalar kernel would catch the same bad input
            // row by row via its slice indexing.
            assert!(
                rows.iter().all(|&s| s < n_r),
                "assignment targets a resource >= {n_r}"
            );
            while done + LANES <= n_rows {
                let group = &rows[done * n..(done + LANES) * n];
                let group_loads = loads
                    .as_deref_mut()
                    .map(|out| &mut out[done * n_r..(done + LANES) * n_r]);
                let group_costs = &mut costs[done..done + LANES];
                if self.diag_zero() {
                    self.eval_lane_group::<true>(group, group_costs, group_loads, scratch);
                } else {
                    self.eval_lane_group::<false>(group, group_costs, group_loads, scratch);
                }
                done += LANES;
            }
        }
        for r in done..n_rows {
            let row = &rows[r * n..(r + 1) * n];
            costs[r] = match loads.as_deref_mut() {
                Some(out) => self.eval_row(row, &mut out[r * n_r..(r + 1) * n_r]),
                None => {
                    let mut row_loads = std::mem::take(&mut scratch.row_loads);
                    let c = self.eval_row(row, &mut row_loads);
                    scratch.row_loads = row_loads;
                    c
                }
            };
        }
    }

    /// One [`LANES`]-row pass. `DIAG_ZERO` selects the mask-free
    /// variant: with an all-`+0.0` link diagonal, a co-located
    /// neighbour gathers `c_{s,s} = +0.0` and the multiply-accumulate
    /// adds `c·0.0 = +0.0` — bit-neutral on the strictly-positive
    /// accumulator (see the crate docs). With a non-zero diagonal
    /// (coarse multilevel matrices) the select injects the `+0.0`
    /// explicitly; either way there is no branch in the hot loop.
    fn eval_lane_group<const DIAG_ZERO: bool>(
        &self,
        rows: &[usize],
        costs: &mut [f64],
        loads_out: Option<&mut [f64]>,
        scratch: &mut EvalScratch,
    ) {
        let n = self.n_tasks();
        let n_r = self.n_resources();
        debug_assert_eq!(rows.len(), LANES * n);
        debug_assert_eq!(costs.len(), LANES);
        let soa = &mut scratch.soa[..n * LANES];
        // Transpose the group: soa[t·LANES + l] = rows[l][t], so one
        // task's eight assignments sit in one cache line.
        for (l, row) in rows.chunks_exact(n).enumerate() {
            for (t, &s) in row.iter().enumerate() {
                soa[t * LANES + l] = s as u32;
            }
        }
        let lane_loads = &mut scratch.lane_loads[..n_r * LANES];
        lane_loads.fill(0.0);
        // The accumulate loop is the whole backend; dispatch to the
        // AVX2 gather kernel when the host has it (and the link matrix
        // is addressable by the gather's signed 32-bit indices), else
        // the portable chunked-scalar lane loop. Both run the exact
        // same per-lane IEEE multiply/add sequence, so the dispatch is
        // invisible in the results.
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY (both arms): the vector unit was just detected;
            // the kernels' in-bounds argument is the same up-front
            // batch and CSR validation the portable path relies on
            // (see below).
            if n_r * n_r <= i32::MAX as usize
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vl")
            {
                unsafe { x86::accumulate_lanes_avx512::<DIAG_ZERO>(self, soa, lane_loads) };
            } else if n_r * n_r <= i32::MAX as usize && std::arch::is_x86_feature_detected!("avx2")
            {
                unsafe { x86::accumulate_lanes_avx2::<DIAG_ZERO>(self, soa, lane_loads) };
            } else {
                self.accumulate_lanes_portable::<DIAG_ZERO>(soa, lane_loads);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        self.accumulate_lanes_portable::<DIAG_ZERO>(soa, lane_loads);
        for (l, cost) in costs.iter_mut().enumerate() {
            let mut m = 0.0f64;
            for sr in 0..n_r {
                m = f64::max(m, lane_loads[sr * LANES + l]);
            }
            *cost = m;
        }
        if let Some(out) = loads_out {
            debug_assert_eq!(out.len(), LANES * n_r);
            for (l, row) in out.chunks_exact_mut(n_r).enumerate() {
                for (sr, slot) in row.iter_mut().enumerate() {
                    *slot = lane_loads[sr * LANES + l];
                }
            }
        }
    }

    /// The portable chunked-scalar lane accumulator: Eq. 1 terms for
    /// one transposed [`LANES`]-row group, summed into the per-resource
    /// load lanes.
    fn accumulate_lanes_portable<const DIAG_ZERO: bool>(
        &self,
        soa: &[u32],
        lane_loads: &mut [f64],
    ) {
        let n = self.n_tasks();
        let n_r = self.n_resources();
        let (offsets, targets, volumes) = self.csr_parts();
        let link = self.link_flat();
        // The edge loop is the whole backend: per (task, edge) it issues
        // eight independent gather + multiply-accumulate chains. Checked
        // indexing there costs a compare-and-branch per gather — enough
        // to halve throughput — so the gathers are unchecked, licensed
        // by `eval_batch`'s single up-front validation of the batch
        // (every assignment `< n_r`) and the plan constructor's CSR
        // validation (every target `< n_tasks`).
        for t in 0..n {
            let s: [u32; LANES] = soa[t * LANES..(t + 1) * LANES].try_into().expect("LANES");
            let mut acc = [0.0f64; LANES];
            // `s` is fixed for the whole adjacency walk, so each lane's
            // link-matrix row base is resolved once per task.
            let mut base = [0usize; LANES];
            for l in 0..LANES {
                acc[l] = self.proc_term(t, s[l] as usize);
                base[l] = s[l] as usize * n_r;
            }
            let range = offsets[t] as usize..offsets[t + 1] as usize;
            for (&a, &c) in targets[range.clone()].iter().zip(&volumes[range]) {
                let off = a as usize * LANES;
                for l in 0..LANES {
                    // SAFETY: `a < n_tasks` (checked by the plan
                    // constructor), so `off + l < n_tasks·LANES`, the
                    // exact length of `soa`.
                    let nbl = unsafe { *soa.get_unchecked(off + l) };
                    // SAFETY: `s[l] < n_r` and `nbl < n_r` (both are
                    // batch assignments validated by `eval_batch`), so
                    // `base[l] + nbl ≤ (n_r-1)·n_r + (n_r-1) < n_r²`,
                    // the exact length of `link`.
                    let gathered = unsafe { *link.get_unchecked(base[l] + nbl as usize) };
                    let term = if DIAG_ZERO || nbl != s[l] {
                        gathered
                    } else {
                        0.0
                    };
                    acc[l] += c * term;
                }
            }
            for l in 0..LANES {
                lane_loads[s[l] as usize * LANES + l] += acc[l];
            }
        }
    }
}

/// The x86-64 gather kernels: the same per-lane accumulate sequence as
/// the portable loop, four lanes per `ymm` register (AVX2) or eight per
/// `zmm` (AVX-512).
///
/// Bit-exactness relies on `vmulpd`/`vaddpd` being per-lane IEEE-754
/// double multiply/add — the identical operations the scalar kernel
/// issues, in the identical (CSR) order, one serial add chain per lane.
/// Vectorising across *lanes* (independent samples) rather than within
/// one sample's sum is what keeps the backend bit-exact: nothing is
/// ever reassociated. The non-`DIAG_ZERO` variants mask co-located
/// pairs by zeroing the gathered link cost to `+0.0` before the
/// multiply — `acc + c·(+0.0)` is the same bits as the scalar skip on a
/// non-negative accumulator.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{InstancePlan, LANES};
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_add_pd, _mm256_andnot_pd, _mm256_castsi256_pd,
        _mm256_castsi256_si128, _mm256_cmpeq_epi32, _mm256_cmpneq_epi32_mask,
        _mm256_cvtepi32_epi64, _mm256_extracti128_si256, _mm256_i32gather_pd, _mm256_loadu_pd,
        _mm256_loadu_si256, _mm256_mul_pd, _mm256_mullo_epi32, _mm256_set1_epi32, _mm256_set1_pd,
        _mm256_storeu_pd, _mm512_add_pd, _mm512_i32gather_pd, _mm512_loadu_pd, _mm512_maskz_mov_pd,
        _mm512_mul_pd, _mm512_set1_pd, _mm512_storeu_pd,
    };

    /// # Safety
    ///
    /// Caller must have verified AVX-512F + AVX-512VL support,
    /// `soa.len() == n_tasks · LANES` with every entry `<
    /// n_resources`, `lane_loads.len() == n_resources · LANES`, and
    /// `n_resources² ≤ i32::MAX` (gather indices are signed 32-bit).
    #[target_feature(enable = "avx512f,avx512vl")]
    pub(super) unsafe fn accumulate_lanes_avx512<const DIAG_ZERO: bool>(
        plan: &InstancePlan,
        soa: &[u32],
        lane_loads: &mut [f64],
    ) {
        debug_assert_eq!(LANES, 8, "kernel is written for one 8-lane register");
        let n = plan.n_tasks();
        let n_r = plan.n_resources();
        let (offsets, targets, volumes) = plan.csr_parts();
        let link = plan.link_flat().as_ptr();
        let nr_vec = _mm256_set1_epi32(n_r as i32);
        let mut accbuf = [0.0f64; LANES];
        for t in 0..n {
            // SAFETY: `t·LANES + 8 ≤ n·LANES`, the length of `soa`;
            // `loadu` has no alignment requirement.
            let s_vec =
                unsafe { _mm256_loadu_si256(soa.as_ptr().add(t * LANES) as *const __m256i) };
            // Row bases `s[l]·n_r` fit i32 because `n_r² ≤ i32::MAX`.
            let row_base = _mm256_mullo_epi32(s_vec, nr_vec);
            for (l, slot) in accbuf.iter_mut().enumerate() {
                *slot = plan.proc_term(t, soa[t * LANES + l] as usize);
            }
            let mut acc = unsafe { _mm512_loadu_pd(accbuf.as_ptr()) };
            let range = offsets[t] as usize..offsets[t + 1] as usize;
            for (&a, &c) in targets[range.clone()].iter().zip(&volumes[range]) {
                // SAFETY: `a < n_tasks` (plan constructor), so the
                // eight neighbour assignments are in bounds.
                let nb = unsafe {
                    _mm256_loadu_si256(soa.as_ptr().add(a as usize * LANES) as *const __m256i)
                };
                let idx = _mm256_add_epi32(row_base, nb);
                // SAFETY: every index is `s[l]·n_r + nb[l] < n_r²`, the
                // length of `link` (assignments validated up front by
                // `eval_batch`), and fits the gather's signed i32.
                let mut g = unsafe { _mm512_i32gather_pd::<8>(idx, link) };
                if !DIAG_ZERO {
                    // Keep only the lanes whose neighbour sits on a
                    // different resource; co-located lanes become +0.0.
                    g = _mm512_maskz_mov_pd(_mm256_cmpneq_epi32_mask(nb, s_vec), g);
                }
                acc = _mm512_add_pd(acc, _mm512_mul_pd(_mm512_set1_pd(c), g));
            }
            unsafe { _mm512_storeu_pd(accbuf.as_mut_ptr(), acc) };
            for (l, &v) in accbuf.iter().enumerate() {
                lane_loads[soa[t * LANES + l] as usize * LANES + l] += v;
            }
        }
    }

    /// # Safety
    ///
    /// Caller must have verified AVX2 support, `soa.len() == n_tasks ·
    /// LANES` with every entry `< n_resources`, `lane_loads.len() ==
    /// n_resources · LANES`, and `n_resources² ≤ i32::MAX` (gather
    /// indices are signed 32-bit).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate_lanes_avx2<const DIAG_ZERO: bool>(
        plan: &InstancePlan,
        soa: &[u32],
        lane_loads: &mut [f64],
    ) {
        debug_assert_eq!(LANES, 8, "kernel is written for two 4-lane registers");
        let n = plan.n_tasks();
        let n_r = plan.n_resources();
        let (offsets, targets, volumes) = plan.csr_parts();
        let link = plan.link_flat().as_ptr();
        let nr_vec = _mm256_set1_epi32(n_r as i32);
        let mut accbuf = [0.0f64; LANES];
        for t in 0..n {
            // SAFETY: `t·LANES + 8 ≤ n·LANES`, the length of `soa`;
            // `loadu` has no alignment requirement.
            let s_vec =
                unsafe { _mm256_loadu_si256(soa.as_ptr().add(t * LANES) as *const __m256i) };
            // Row bases `s[l]·n_r` fit i32 because `n_r² ≤ i32::MAX`.
            let row_base = _mm256_mullo_epi32(s_vec, nr_vec);
            for (l, slot) in accbuf.iter_mut().enumerate() {
                *slot = plan.proc_term(t, soa[t * LANES + l] as usize);
            }
            let mut acc0 = unsafe { _mm256_loadu_pd(accbuf.as_ptr()) };
            let mut acc1 = unsafe { _mm256_loadu_pd(accbuf.as_ptr().add(4)) };
            let range = offsets[t] as usize..offsets[t + 1] as usize;
            for (&a, &c) in targets[range.clone()].iter().zip(&volumes[range]) {
                // SAFETY: `a < n_tasks` (plan constructor), so the
                // eight neighbour assignments are in bounds.
                let nb = unsafe {
                    _mm256_loadu_si256(soa.as_ptr().add(a as usize * LANES) as *const __m256i)
                };
                let idx = _mm256_add_epi32(row_base, nb);
                // SAFETY: every index is `s[l]·n_r + nb[l] < n_r²`, the
                // length of `link` (assignments validated up front by
                // `eval_batch`), and fits the gather's signed i32.
                let mut g0 = unsafe { _mm256_i32gather_pd::<8>(link, _mm256_castsi256_si128(idx)) };
                let mut g1 =
                    unsafe { _mm256_i32gather_pd::<8>(link, _mm256_extracti128_si256::<1>(idx)) };
                if !DIAG_ZERO {
                    // Co-located lanes: force the gathered cost to +0.0
                    // (cmpeq gives all-ones 32-bit masks; sign-extend
                    // to 64-bit, then clear those lanes).
                    let eq = _mm256_cmpeq_epi32(nb, s_vec);
                    let m0 = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(eq));
                    let m1 = _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(eq));
                    g0 = _mm256_andnot_pd(_mm256_castsi256_pd(m0), g0);
                    g1 = _mm256_andnot_pd(_mm256_castsi256_pd(m1), g1);
                }
                let cv = _mm256_set1_pd(c);
                acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(cv, g0));
                acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(cv, g1));
            }
            unsafe {
                _mm256_storeu_pd(accbuf.as_mut_ptr(), acc0);
                _mm256_storeu_pd(accbuf.as_mut_ptr().add(4), acc1);
            }
            for (l, &v) in accbuf.iter().enumerate() {
                lane_loads[soa[t * LANES + l] as usize * LANES + l] += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic xorshift so the tests need no external RNG
    /// plumbing.
    struct Xs(u64);
    impl Xs {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A random connected-ish instance: ring + random chords.
    fn random_plan(n_tasks: usize, n_resources: usize, seed: u64, diag: f64) -> InstancePlan {
        let mut rng = Xs(seed | 1);
        let task_comp: Vec<f64> = (0..n_tasks).map(|_| 1.0 + 9.0 * rng.unit()).collect();
        let proc_cost: Vec<f64> = (0..n_resources).map(|_| 0.5 + 2.0 * rng.unit()).collect();
        let mut link = vec![0.0; n_resources * n_resources];
        for s in 0..n_resources {
            for b in 0..s {
                let c = 10.0 * rng.unit();
                link[s * n_resources + b] = c;
                link[b * n_resources + s] = c;
            }
            link[s * n_resources + s] = diag;
        }
        // Undirected edges, mirrored into CSR by hand (zero volumes
        // included: they must be inert but still walked).
        let mut edges = Vec::new();
        for t in 1..n_tasks {
            let vol = if t % 5 == 0 { 0.0 } else { 50.0 * rng.unit() };
            edges.push((t - 1, t, vol));
        }
        for _ in 0..n_tasks {
            let (u, v) = (rng.below(n_tasks), rng.below(n_tasks));
            if u != v {
                edges.push((u.min(v), u.max(v), 50.0 * rng.unit()));
            }
        }
        let mut per_task: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_tasks];
        for &(u, v, c) in &edges {
            per_task[u].push((v as u32, c));
            per_task[v].push((u as u32, c));
        }
        let mut offsets = vec![0u32];
        let mut targets = Vec::new();
        let mut volumes = Vec::new();
        for adj in &per_task {
            for &(a, c) in adj {
                targets.push(a);
                volumes.push(c);
            }
            offsets.push(targets.len() as u32);
        }
        InstancePlan::new(task_comp, offsets, targets, volumes, proc_cost, link.into())
    }

    fn random_rows(plan: &InstancePlan, n_rows: usize, seed: u64) -> Vec<usize> {
        let mut rng = Xs(seed | 1);
        (0..n_rows * plan.n_tasks())
            .map(|_| rng.below(plan.n_resources()))
            .collect()
    }

    /// Simd and Scalar must agree bit-for-bit on costs and loads.
    fn assert_backends_bit_equal(plan: &InstancePlan, n_rows: usize, seed: u64) {
        let rows = random_rows(plan, n_rows, seed);
        let n_r = plan.n_resources();
        let mut scratch = plan.new_scratch();
        let mut costs_scalar = vec![0.0; n_rows];
        let mut loads_scalar = vec![0.0; n_rows * n_r];
        plan.eval_batch(
            EvalBackend::Scalar,
            &rows,
            &mut costs_scalar,
            Some(&mut loads_scalar),
            &mut scratch,
        );
        let mut costs_simd = vec![0.0; n_rows];
        let mut loads_simd = vec![0.0; n_rows * n_r];
        plan.eval_batch(
            EvalBackend::Simd,
            &rows,
            &mut costs_simd,
            Some(&mut loads_simd),
            &mut scratch,
        );
        for r in 0..n_rows {
            assert_eq!(
                costs_scalar[r].to_bits(),
                costs_simd[r].to_bits(),
                "row {r}: cost bits diverge"
            );
            for s in 0..n_r {
                assert_eq!(
                    loads_scalar[r * n_r + s].to_bits(),
                    loads_simd[r * n_r + s].to_bits(),
                    "row {r} resource {s}: load bits diverge"
                );
            }
        }
    }

    #[test]
    fn hand_computed_tiny_instance() {
        // The 3-task path instance from match-core's cost tests: the
        // lane kernel must reproduce its pinned loads exactly.
        let plan = InstancePlan::new(
            vec![1.0, 2.0, 3.0],
            vec![0, 1, 3, 4],
            vec![1, 0, 2, 1],
            vec![10.0, 10.0, 20.0, 20.0],
            vec![1.0, 2.0, 4.0],
            vec![0.0, 5.0, 7.0, 5.0, 0.0, 5.0, 7.0, 5.0, 0.0].into(),
        );
        let mut loads = vec![0.0; 3];
        assert_eq!(plan.eval_row(&[0, 1, 2], &mut loads), 154.0);
        assert_eq!(loads, vec![51.0, 154.0, 112.0]);
        assert_eq!(plan.eval_row(&[2, 0, 1], &mut loads), 172.0);
        assert_eq!(loads, vec![172.0, 106.0, 74.0]);
        assert_eq!(plan.eval_row(&[0, 0, 0], &mut loads), 6.0);
        assert_eq!(loads, vec![6.0, 0.0, 0.0]);

        // Batch the three mappings through the lane kernel (padded to a
        // full group with copies).
        let mappings = [[0, 1, 2], [2, 0, 1], [0, 0, 0]];
        let rows: Vec<usize> = (0..LANES).flat_map(|r| mappings[r % 3]).collect();
        let mut costs = vec![0.0; LANES];
        let mut scratch = plan.new_scratch();
        plan.eval_batch(EvalBackend::Simd, &rows, &mut costs, None, &mut scratch);
        let want = [154.0, 172.0, 6.0];
        for (r, &c) in costs.iter().enumerate() {
            assert_eq!(c, want[r % 3], "row {r}");
        }
    }

    #[test]
    fn backends_bit_equal_square() {
        for (n, seed) in [(8, 1u64), (33, 2), (64, 3)] {
            let plan = random_plan(n, n, seed, 0.0);
            assert!(plan.diag_zero());
            assert_backends_bit_equal(&plan, 3 * LANES + 5, seed ^ 0xabc);
        }
    }

    #[test]
    fn backends_bit_equal_rectangular() {
        // Few resources force heavy co-location: the mask path is hot.
        for (n_t, n_r, seed) in [(40, 3, 4u64), (17, 5, 5), (64, 16, 6)] {
            let plan = random_plan(n_t, n_r, seed, 0.0);
            assert_backends_bit_equal(&plan, 2 * LANES + 3, seed ^ 0xdef);
        }
    }

    #[test]
    fn backends_bit_equal_nonzero_diagonal() {
        // Coarse multilevel link matrices carry intra-cluster diagonal
        // costs: the masked select, not the gathered diagonal, must
        // supply the co-location zero.
        let plan = random_plan(24, 6, 7, 3.5);
        assert!(!plan.diag_zero());
        assert_backends_bit_equal(&plan, 4 * LANES, 0x77);
    }

    #[test]
    fn narrow_batches_and_tails_use_the_scalar_kernel() {
        let plan = random_plan(12, 12, 9, 0.0);
        // Auto on a narrow batch resolves scalar; results must still be
        // bit-equal to the pinned backends.
        let rows = random_rows(&plan, 3, 0x99);
        let mut scratch = plan.new_scratch();
        let mut auto = vec![0.0; 3];
        plan.eval_batch(EvalBackend::Auto, &rows, &mut auto, None, &mut scratch);
        let mut pinned = vec![0.0; 3];
        plan.eval_batch(EvalBackend::Simd, &rows, &mut pinned, None, &mut scratch);
        for r in 0..3 {
            assert_eq!(auto[r].to_bits(), pinned[r].to_bits());
        }
    }

    #[test]
    fn loads_output_is_optional_and_consistent() {
        let plan = random_plan(20, 20, 10, 0.0);
        let rows = random_rows(&plan, LANES + 2, 0x31);
        let mut scratch = plan.new_scratch();
        let mut with = vec![0.0; LANES + 2];
        let mut loads = vec![0.0; (LANES + 2) * 20];
        plan.eval_batch(
            EvalBackend::Simd,
            &rows,
            &mut with,
            Some(&mut loads),
            &mut scratch,
        );
        let mut without = vec![0.0; LANES + 2];
        plan.eval_batch(EvalBackend::Simd, &rows, &mut without, None, &mut scratch);
        assert_eq!(with, without);
        // Each row's loads must max out to its cost.
        for (r, &c) in with.iter().enumerate() {
            let m = loads[r * 20..(r + 1) * 20]
                .iter()
                .copied()
                .fold(0.0, f64::max);
            assert_eq!(m.to_bits(), c.to_bits());
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let plan = random_plan(5, 5, 11, 0.0);
        let mut scratch = plan.new_scratch();
        plan.eval_batch(EvalBackend::Auto, &[], &mut [], None, &mut scratch);
    }
}
