//! Precompiled execution programs for schedule plans.
//!
//! The straight-line executor recomputes a lot of invariant work on every
//! run: which couplings a layer drives, which residual factor each
//! suppressed coupling picks up (an `O(ops)` scan per coupling), the gate
//! matrices (allocated per application), the per-layer durations, and —
//! worst of all — one full `O(2^n)` amplitude sweep *per coupling per
//! layer* for the ZZ phases. A [`PlanProgram`] resolves all of that once
//! per `(SchedulePlan, Topology, ZzErrorModel, GateDurations)` tuple:
//!
//! * every layer's undriven-coupling ZZ phases and the adjacent virtual
//!   rotations are **fused into a single diagonal** — one `O(2^n)` pass
//!   per layer. The fused phase is a quadratic form over the amplitude
//!   bits, so compilation keeps only a few recurrence factors per bit;
//!   a run builds each `2^n` table just before applying it, with one
//!   complex multiply per entry whatever the number of terms, into one
//!   scratch buffer the run owns and reuses for every layer,
//! * gate matrices are resolved to branch-free statevector kernels with
//!   precomputed bit masks,
//! * the [`TrajectoryProgram`] variant additionally precomputes per-layer
//!   decoherence probabilities and samples Kraus jumps with analytic
//!   renormalization (no separate norm pass), and fans trajectories out
//!   over a scoped-thread pool with **deterministic per-trajectory
//!   seeds**, so Monte-Carlo results are bit-identical regardless of the
//!   thread count.
//!
//! The legacy entry points in [`crate::executor`] are thin wrappers over
//! these programs; compile a program directly whenever one plan is run
//! more than once (disorder averages, trajectory fans, parameter sweeps).
//!
//! # Example
//!
//! ```
//! use zz_circuit::{bench, native::compile_to_native, route};
//! use zz_sched::{par_schedule, GateDurations};
//! use zz_sim::executor::ZzErrorModel;
//! use zz_sim::program::PlanProgram;
//! use zz_topology::Topology;
//!
//! let topo = Topology::grid(2, 2);
//! let circuit = bench::generate(bench::BenchmarkKind::Qft, 4, 1);
//! let native = compile_to_native(&route(&circuit, &topo));
//! let plan = par_schedule(&topo, &native);
//!
//! let ideal = PlanProgram::ideal(&plan).run();
//! let model = ZzErrorModel::uniform(&topo, zz_sim::khz(200.0));
//! let noisy = PlanProgram::compile(&plan, &topo, &model, &GateDurations::standard());
//! // The program is reusable: every `run()` replays the precompiled steps.
//! let f = ideal.fidelity(&noisy.run());
//! assert!(f > 0.0 && f <= 1.0 + 1e-9);
//! ```

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use zz_circuit::native::NativeOp;
use zz_linalg::{c64, Matrix, Vector};
use zz_sched::{GateDurations, Layer, SchedulePlan};
use zz_topology::Topology;

use crate::batch::BatchedState;
use crate::density::Decoherence;
use crate::executor::{coupling_residual, driven_couplings, ZzErrorModel};
use crate::{metrics, StateVector};
use zz_pool::parallel_map;

/// Default trajectory-batch width for [`TrajectoryProgram::mean_fidelity`]:
/// sixteen lanes is two cache lines of `f64` per amplitude plane — wide
/// enough to keep 4-lane AVX2 FMA pipes saturated with independent
/// vectors across the strided chunk boundaries, small enough that a
/// 9-qubit batch (2 × 16 × 512 doubles = 128 KiB) still fits in L2
/// alongside the run's one 8 KiB diagonal scratch table. Measured on
/// the 9-qubit QAOA Monte-Carlo workload, throughput improves steadily
/// up to 16 lanes and is flat beyond.
pub const DEFAULT_BATCH_LANES: usize = 16;

/// One resolved gate application: matrix entries unpacked into a fixed
/// array and qubit indices pre-translated to amplitude bit masks.
/// Virtual rotations never appear here — [`resolve_gates`] returns them
/// as diagonal phase terms, fused into the layer's pre-gate diagonal.
#[derive(Clone, Debug)]
enum GateApp {
    /// A single-qubit pulse.
    Single { mask: usize, m: [c64; 4] },
    /// A two-qubit pulse; `ba` is the gate's most significant factor.
    Two { ba: usize, bb: usize, m: [c64; 16] },
}

impl GateApp {
    #[inline]
    fn apply(&self, sv: &mut StateVector) {
        match self {
            GateApp::Single { mask, m } => sv.kernel_single(m, *mask),
            GateApp::Two { ba, bb, m } => sv.kernel_two(m, *ba, *bb),
        }
    }

    #[inline]
    fn apply_batched(&self, batch: &mut BatchedState) {
        match self {
            GateApp::Single { mask, m } => batch.kernel_single(m, *mask),
            GateApp::Two { ba, bb, m } => batch.kernel_two(m, *ba, *bb),
        }
    }
}

/// A fused diagonal: the sum of a set of commuting Rz and ZZ phases,
/// applied in one amplitude sweep.
///
/// Every such phase is a quadratic form over the amplitude-index bits,
/// `c + Σ a_p·b_p + Σ J_pq·b_p·b_q`, so the diagonal is stored as the
/// factors of a bit-by-bit recurrence (see [`fill`](Self::fill)) — a few
/// complex numbers per bit, never a `2^n` table. The table is built at
/// run time, into a scratch buffer the caller owns.
#[derive(Clone, Debug)]
struct Diag {
    /// `e^{i·c}`: the entry of basis state `0`, every bit clear.
    origin: c64,
    /// Per bit, lowest first: how many lower bits share a ZZ term with it.
    degree: Vec<usize>,
    /// Bit after bit: the positions of those lower bits, ascending.
    lower: Vec<usize>,
    /// Bit after bit: the `2^degree` factors `f_p[k] = e^{i(a_p + Σ_j
    /// k_j·J_{p,q_j})}`, where bit `j` of `k` is the index bit `q_j`, the
    /// `j`-th of `p`'s lower neighbours.
    factors: Vec<c64>,
}

impl Diag {
    /// Builds a fused diagonal, or `None` when there is nothing to apply.
    ///
    /// `rz` terms are `(mask, θ/2)`: `+θ/2` where the bit is set, `−θ/2`
    /// where it is clear (the `diag(e^{−iθ/2}, e^{iθ/2})` convention of
    /// [`StateVector::apply_rz`]). `zz` terms are `(mask_u, mask_v, φ)`:
    /// `−φ` where the two bits agree, `+φ` where they differ
    /// ([`StateVector::apply_zz_phase`]). Written over bits, `±θ/2` is
    /// `−θ/2 + θ·b` and `∓φ` is `−φ + 2φ·(b_u + b_v) − 4φ·b_u·b_v`.
    fn build(n: usize, rz: Vec<(usize, f64)>, zz: Vec<(usize, usize, f64)>) -> Option<Diag> {
        if rz.is_empty() && zz.is_empty() {
            return None;
        }
        let bit = |mask: usize| mask.trailing_zeros() as usize;
        let mut c = 0.0;
        let mut linear = vec![0.0; n];
        for &(mask, half) in &rz {
            c -= half;
            linear[bit(mask)] += 2.0 * half;
        }
        // `(p, q, J_pq)` with `q < p`, sorted by bit and merged.
        let mut pairs: Vec<(usize, usize, f64)> = Vec::with_capacity(zz.len());
        for &(mu, mv, phi) in &zz {
            let (p, q) = (bit(mu.max(mv)), bit(mu.min(mv)));
            c -= phi;
            linear[p] += 2.0 * phi;
            linear[q] += 2.0 * phi;
            pairs.push((p, q, -4.0 * phi));
        }
        pairs.sort_by_key(|&(p, q, _)| (p, q));
        pairs.dedup_by(|later, kept| {
            let same = (later.0, later.1) == (kept.0, kept.1);
            if same {
                kept.2 += later.2;
            }
            same
        });
        pairs.retain(|&(_, _, j)| j != 0.0);

        let mut degree = Vec::with_capacity(n);
        let mut lower = Vec::with_capacity(pairs.len());
        let mut factors = Vec::new();
        let mut rest = &pairs[..];
        for (p, &a) in linear.iter().enumerate() {
            let k = rest.iter().take_while(|&&(bp, _, _)| bp == p).count();
            let (mine, tail) = rest.split_at(k);
            rest = tail;
            degree.push(k);
            lower.extend(mine.iter().map(|&(_, q, _)| q));
            // Doubling: `f[k | 1<<j] = f[k] · e^{i·J_j}` for `k < 2^j`.
            let start = factors.len();
            factors.push(c64::cis(a));
            for &(_, _, j) in mine {
                let w = c64::cis(j);
                for idx in start..factors.len() {
                    let f = factors[idx] * w;
                    factors.push(f);
                }
            }
        }
        Some(Diag {
            origin: c64::cis(c),
            degree,
            lower,
            factors,
        })
    }

    /// Writes the diagonal's `2^n` entries `e^{i·phase(i)}` into `table`
    /// with one complex multiply per entry, however many terms it fuses:
    /// `t[0] = e^{i·c}`, then bit by bit `t[i | 1<<p] = t[i] · f_p[k]`,
    /// `k` being `i`'s bits on `p`'s lower neighbours. Bits below the
    /// lowest neighbour never change `k`, so the entries run in blocks
    /// that share one factor.
    fn fill(&self, table: &mut [c64]) {
        debug_assert_eq!(table.len(), 1 << self.degree.len());
        table[0] = self.origin;
        let (mut lower, mut factors) = (&self.lower[..], &self.factors[..]);
        for (p, &k) in self.degree.iter().enumerate() {
            let (nbrs, rest) = lower.split_at(k);
            lower = rest;
            let (f_p, rest) = factors.split_at(1 << k);
            factors = rest;
            let half = 1usize << p;
            let (lo, hi) = table[..2 * half].split_at_mut(half);
            let run = nbrs.first().map_or(half, |&q| 1usize << q);
            for start in (0..half).step_by(run) {
                let idx = nbrs
                    .iter()
                    .enumerate()
                    .fold(0, |idx, (j, &q)| idx | (((start >> q) & 1) << j));
                let f = f_p[idx];
                let block = start..start + run;
                for (h, &l) in hi[block.clone()].iter_mut().zip(&lo[block]) {
                    *h = l * f;
                }
            }
        }
    }

    /// Total phase the terms give basis state `i` — the reference
    /// semantics the recurrence is pinned against in tests.
    #[cfg(test)]
    fn phase_at(rz: &[(usize, f64)], zz: &[(usize, usize, f64)], i: usize) -> f64 {
        let mut phase = 0.0;
        for &(mask, half) in rz {
            phase += if i & mask != 0 { half } else { -half };
        }
        for &(mu, mv, phi) in zz {
            let same = (i & mu == 0) == (i & mv == 0);
            phase += if same { -phi } else { phi };
        }
        phase
    }

    /// Applies the diagonal, building it into `table` first.
    fn apply(&self, sv: &mut StateVector, table: &mut [c64]) {
        self.fill(table);
        sv.apply_diagonal(table);
    }

    /// Batched twin of [`apply`](Self::apply).
    fn apply_batched(&self, batch: &mut BatchedState, table: &mut [c64]) {
        self.fill(table);
        batch.apply_diagonal(table);
    }
}

#[inline]
fn mask_of(n: usize, q: usize) -> usize {
    1usize << (n - 1 - q)
}

fn mat4(m: &Matrix) -> [c64; 4] {
    let s = m.as_slice();
    [s[0], s[1], s[2], s[3]]
}

fn mat16(m: &Matrix) -> [c64; 16] {
    let mut out = [c64::ZERO; 16];
    out.copy_from_slice(m.as_slice());
    out
}

/// Resolves a layer's physical ops to kernels (identity pulses vanish —
/// they only matter for suppression bookkeeping, already folded into the
/// layer's metrics). Virtual rotations come back as `(mask, θ/2)` phase
/// terms: a layer's ops act on disjoint qubits, so an inline Rz commutes
/// with every pulse of its own layer and fuses exactly into the layer's
/// pre-gate diagonal instead of costing a sweep of its own.
fn resolve_gates(
    n: usize,
    layer: &Layer,
    x90: &[c64; 4],
    zx90: &[c64; 16],
) -> (Vec<GateApp>, Vec<(usize, f64)>) {
    let mut gates = Vec::with_capacity(layer.ops.len());
    let mut rz = Vec::new();
    for op in &layer.ops {
        match *op {
            NativeOp::Rz { qubit, theta } => {
                if theta != 0.0 {
                    rz.push((mask_of(n, qubit), theta / 2.0));
                }
            }
            NativeOp::X90 { qubit } => gates.push(GateApp::Single {
                mask: mask_of(n, qubit),
                m: *x90,
            }),
            NativeOp::Zx90 { control, target } => gates.push(GateApp::Two {
                ba: mask_of(n, control),
                bb: mask_of(n, target),
                m: *zx90,
            }),
            NativeOp::Id { .. } => {}
        }
    }
    (gates, rz)
}

/// Converts `(qubit, θ)` rotations to `(mask, θ/2)` phase terms, dropping
/// exact zeros (which the executor's `apply_rz` applies as exactly 1).
fn rz_terms(n: usize, rz: &[(usize, f64)]) -> Vec<(usize, f64)> {
    rz.iter()
        .filter(|&&(_, theta)| theta != 0.0)
        .map(|&(q, theta)| (mask_of(n, q), theta / 2.0))
        .collect()
}

/// The layer's undriven-coupling ZZ phase terms: residual factors are
/// resolved here, once per program, instead of once per coupling per run.
fn zz_terms(
    n: usize,
    layer: &Layer,
    topo: &Topology,
    model: &ZzErrorModel,
    duration: f64,
) -> Vec<(usize, usize, f64)> {
    let driven = driven_couplings(layer, topo);
    let mut terms = Vec::new();
    for (e, &(u, v)) in topo.couplings().iter().enumerate() {
        if driven[e] {
            continue;
        }
        let factor = if layer.metrics.suppressed[e] {
            coupling_residual(layer, u, v, &model.residuals)
        } else {
            1.0
        };
        let phi = model.lambdas[e] * factor * duration;
        if phi != 0.0 {
            terms.push((mask_of(n, u), mask_of(n, v), phi));
        }
    }
    terms
}

/// One precompiled layer of a [`PlanProgram`]: the fused pre-gate diagonal
/// (this layer's virtual rotations plus the *previous* layer's ZZ phases,
/// which are adjacent commuting diagonals in the deterministic run) and
/// the layer's resolved gate kernels.
#[derive(Clone, Debug)]
pub struct LayerProgram {
    pre: Option<Diag>,
    gates: Vec<GateApp>,
}

/// A deterministic execution program: the whole plan resolved to a flat
/// sequence of fused diagonals and gate kernels. Compile once, [`run`]
/// many times.
///
/// [`run`]: PlanProgram::run
#[derive(Clone, Debug)]
pub struct PlanProgram {
    n: usize,
    layers: Vec<LayerProgram>,
    /// Trailing diagonal: the last layer's ZZ phases plus the plan's
    /// final virtual rotations.
    tail: Option<Diag>,
}

impl PlanProgram {
    /// Precompiles the error-free reference program (no ZZ phases at all).
    pub fn ideal(plan: &SchedulePlan) -> Self {
        Self::build(plan, None)
    }

    /// Precompiles the plan under the given ZZ-crosstalk model: driven
    /// couplings, residual factors, layer durations and fused phase
    /// diagonals are all resolved here, never during [`run`](Self::run).
    pub fn compile(
        plan: &SchedulePlan,
        topo: &Topology,
        model: &ZzErrorModel,
        durations: &GateDurations,
    ) -> Self {
        Self::build(plan, Some((topo, model, durations)))
    }

    fn build(
        plan: &SchedulePlan,
        noise: Option<(&Topology, &ZzErrorModel, &GateDurations)>,
    ) -> Self {
        let n = plan.qubit_count();
        let x90 = mat4(&zz_quantum::gates::x90());
        let zx90 = mat16(&zz_quantum::gates::zx90());
        let mut layers = Vec::with_capacity(plan.layers.len());
        // Diagonal terms carried forward into the next emitted layer's
        // pre-gate diagonal: the previous layers' ZZ phases, inline Rz
        // ops, and everything from fully-diagonal (gateless) layers —
        // all commuting diagonals, so fusing across layer boundaries is
        // exact. In the deterministic program nothing ever forces a
        // diagonal to run at its original position; only a gate kernel
        // cuts the carry.
        let mut carry_rz: Vec<(usize, f64)> = Vec::new();
        let mut carry_zz: Vec<(usize, usize, f64)> = Vec::new();
        // Diagonal sweeps a fusion-free compilation would have emitted,
        // vs the number actually emitted — the difference feeds the
        // `engine.diag.fused` counter.
        let mut naive = 0u64;
        let mut emitted = 0u64;
        for layer in &plan.layers {
            let (gates, inline_rz) = resolve_gates(n, layer, &x90, &zx90);
            let before = rz_terms(n, &layer.rz_before);
            naive += !before.is_empty() as u64 + !inline_rz.is_empty() as u64;
            carry_rz.extend(before);
            carry_rz.extend(inline_rz);
            let zz = if let Some((topo, model, durations)) = noise {
                zz_terms(n, layer, topo, model, layer.duration(durations))
            } else {
                Vec::new()
            };
            naive += !zz.is_empty() as u64;
            if gates.is_empty() {
                // Fully-diagonal layer: collapses into the carry.
                carry_zz.extend(zz);
                continue;
            }
            let pre = Diag::build(
                n,
                std::mem::take(&mut carry_rz),
                std::mem::take(&mut carry_zz),
            );
            emitted += pre.is_some() as u64;
            carry_zz = zz;
            layers.push(LayerProgram { pre, gates });
        }
        let final_rz = rz_terms(n, &plan.final_rz);
        naive += !final_rz.is_empty() as u64;
        carry_rz.extend(final_rz);
        let tail = Diag::build(n, carry_rz, carry_zz);
        emitted += tail.is_some() as u64;
        metrics::record_fused(naive.saturating_sub(emitted));
        PlanProgram { n, layers, tail }
    }

    /// Number of qubits.
    pub fn qubit_count(&self) -> usize {
        self.n
    }

    /// The precompiled layers.
    pub fn layers(&self) -> &[LayerProgram] {
        &self.layers
    }

    /// Executes the program from `|0…0⟩`.
    ///
    /// Every fused diagonal is built just before it is applied, into one
    /// `2^n` scratch table that the whole run reuses.
    pub fn run(&self) -> StateVector {
        let mut sv = StateVector::zero(self.n);
        let mut table = vec![c64::ZERO; 1 << self.n];
        for layer in &self.layers {
            if let Some(diag) = &layer.pre {
                diag.apply(&mut sv, &mut table);
            }
            for gate in &layer.gates {
                gate.apply(&mut sv);
            }
        }
        if let Some(diag) = &self.tail {
            diag.apply(&mut sv, &mut table);
        }
        sv
    }
}

/// One precompiled Monte-Carlo layer. Unlike the deterministic layout,
/// an amplitude-damping **jump** is a fusion barrier: the jump moves
/// amplitude between basis states, so a diagonal deferred past it would
/// apply the wrong per-state phase. Whether a jump fires is only known
/// at run time, so compilation treats any layer with `gamma > 0` as a
/// barrier and keeps its ZZ diagonal in place (`zz`). When `gamma == 0`
/// no jump can occur — dephasing draws never read amplitudes, and `Z`
/// commutes with every diagonal — so the layer's ZZ phases slide across
/// the noise pass into the next layer's `pre` instead.
#[derive(Clone, Debug)]
struct TrajLayer {
    /// Fused pre-gate diagonal: this layer's virtual rotations (both
    /// `rz_before` and inline ops) plus any ZZ phases carried over from
    /// preceding jump-free layers.
    pre: Option<Diag>,
    gates: Vec<GateApp>,
    /// This layer's ZZ phases, present only when `gamma > 0` pins them
    /// before the noise pass.
    zz: Option<Diag>,
    /// Amplitude-damping probability over this layer's duration.
    gamma: f64,
    /// `√(1−γ)` — the no-jump Kraus factor on excited amplitudes.
    sqrt_keep: f64,
    /// Phase-flip probability over this layer's duration.
    p_flip: f64,
}

/// A Monte-Carlo trajectory program: the plan resolved as in
/// [`PlanProgram`], plus per-layer decoherence probabilities. One compiled
/// program serves every trajectory — and is `Sync`, so trajectories fan
/// out over threads against shared precompiled state.
#[derive(Clone, Debug)]
pub struct TrajectoryProgram {
    n: usize,
    layers: Vec<TrajLayer>,
    /// The plan's final virtual rotations.
    tail: Option<Diag>,
}

impl TrajectoryProgram {
    /// Precompiles the plan under ZZ crosstalk and decoherence.
    pub fn compile(
        plan: &SchedulePlan,
        topo: &Topology,
        model: &ZzErrorModel,
        deco: &Decoherence,
        durations: &GateDurations,
    ) -> Self {
        let n = plan.qubit_count();
        let x90 = mat4(&zz_quantum::gates::x90());
        let zx90 = mat16(&zz_quantum::gates::zx90());
        let mut layers: Vec<TrajLayer> = Vec::with_capacity(plan.layers.len());
        let mut carry_rz: Vec<(usize, f64)> = Vec::new();
        let mut carry_zz: Vec<(usize, usize, f64)> = Vec::new();
        let mut naive = 0u64;
        let mut emitted = 0u64;
        for layer in &plan.layers {
            let dt = layer.duration(durations);
            let gamma = deco.gamma(dt);
            let p_flip = deco.phase_flip(dt);
            let (gates, inline_rz) = resolve_gates(n, layer, &x90, &zx90);
            let before = rz_terms(n, &layer.rz_before);
            naive += !before.is_empty() as u64 + !inline_rz.is_empty() as u64;
            carry_rz.extend(before);
            carry_rz.extend(inline_rz);
            let zz = zz_terms(n, layer, topo, model, dt);
            naive += !zz.is_empty() as u64;
            if gates.is_empty() && gamma == 0.0 && p_flip == 0.0 {
                // No kernels, no noise draws: the layer is pure commuting
                // diagonal and collapses into the carry.
                carry_zz.extend(zz);
                continue;
            }
            let pre = Diag::build(
                n,
                std::mem::take(&mut carry_rz),
                std::mem::take(&mut carry_zz),
            );
            emitted += pre.is_some() as u64;
            let zz_diag = if gamma == 0.0 {
                // Jump-free layer: ZZ phases slide past the noise pass.
                carry_zz = zz;
                None
            } else {
                let d = Diag::build(n, Vec::new(), zz);
                emitted += d.is_some() as u64;
                d
            };
            layers.push(TrajLayer {
                pre,
                gates,
                zz: zz_diag,
                gamma,
                sqrt_keep: (1.0 - gamma).sqrt(),
                p_flip,
            });
        }
        let final_rz = rz_terms(n, &plan.final_rz);
        naive += !final_rz.is_empty() as u64;
        carry_rz.extend(final_rz);
        let tail = Diag::build(n, carry_rz, carry_zz);
        emitted += tail.is_some() as u64;
        metrics::record_fused(naive.saturating_sub(emitted));
        TrajectoryProgram { n, layers, tail }
    }

    /// Number of qubits.
    pub fn qubit_count(&self) -> usize {
        self.n
    }

    /// Runs one trajectory: ZZ phases exactly, decoherence by sampling
    /// Kraus operators per qubit per layer. Delegates to the batched
    /// engine with a single lane, so the scalar and batched paths share
    /// one semantics by construction.
    pub fn run(&self, rng: &mut StdRng) -> StateVector {
        let mut batch = BatchedState::zero(self.n, 1);
        self.evolve(&mut batch, std::slice::from_mut(rng));
        StateVector::from_vector(Vector::from_vec(batch.lane_amplitudes(0)))
    }

    /// The shared evolution core: applies every layer's diagonals, gates
    /// and fused noise pass to `batch`, lane `t` drawing from `rngs[t]`.
    /// Returns the number of kernel sweeps performed. Each fused
    /// diagonal is built just before it is applied, into one `2^n`
    /// scratch table this call owns and reuses for every layer.
    ///
    /// Per noisy layer the decoherence channel costs **three** sweeps
    /// regardless of the qubit count: one read pass collects every
    /// qubit's excited population, the per-qubit Kraus draws happen in
    /// coefficient space, and one factored pass applies all damping
    /// normalizations, dephasing signs and jump permutations at once
    /// (see [`BatchedState::apply_factored_noise`]). Jump probabilities
    /// and normalizations both read the layer-entry populations, so the
    /// probability of each sampled Kraus branch still cancels its
    /// normalization exactly — the fidelity estimator stays unbiased.
    ///
    /// Every per-lane arithmetic sequence — draws, coefficients, factor
    /// products, amplitude updates — depends only on that lane's own
    /// stream and is independent of the batch width, which is what makes
    /// [`mean_fidelity_batched`] bit-identical across widths.
    ///
    /// [`mean_fidelity_batched`]: Self::mean_fidelity_batched
    fn evolve(&self, batch: &mut BatchedState, rngs: &mut [StdRng]) -> u64 {
        let n = self.n;
        let width = batch.lanes();
        debug_assert_eq!(rngs.len(), width);
        let mut sweeps = 0u64;
        let mut table = vec![c64::ZERO; batch.dim()];
        let mut pops = vec![0.0; n * width];
        let mut probs = Vec::new();
        let mut coeffs = vec![1.0; n * 2 * width];
        let mut jumps = vec![0usize; width];
        let (mut factors, mut tmp) = (Vec::new(), Vec::new());
        let (mut scratch_re, mut scratch_im) = (Vec::new(), Vec::new());
        for layer in &self.layers {
            if let Some(diag) = &layer.pre {
                diag.apply_batched(batch, &mut table);
                sweeps += 1;
            }
            for gate in &layer.gates {
                gate.apply_batched(batch);
                sweeps += 1;
            }
            if let Some(diag) = &layer.zz {
                diag.apply_batched(batch, &mut table);
                sweeps += 1;
            }
            if layer.gamma == 0.0 && layer.p_flip == 0.0 {
                continue;
            }
            if layer.gamma > 0.0 {
                batch.excited_populations(&mut pops, &mut probs);
                sweeps += 1;
            }
            jumps.fill(0);
            for q in 0..n {
                let mask = mask_of(n, q);
                let pair = &mut coeffs[q * 2 * width..(q + 1) * 2 * width];
                let (c_lo, c_hi) = pair.split_at_mut(width);
                if layer.gamma > 0.0 {
                    let p_row = &pops[q * width..(q + 1) * width];
                    for t in 0..width {
                        let p_exc = p_row[t];
                        if rngs[t].gen_range(0.0..1.0) < layer.gamma * p_exc {
                            jumps[t] |= mask;
                            c_lo[t] = 1.0 / p_exc.sqrt();
                            c_hi[t] = 0.0;
                        } else {
                            let inv_norm = 1.0 / (1.0 - layer.gamma * p_exc).sqrt();
                            c_lo[t] = inv_norm;
                            c_hi[t] = layer.sqrt_keep * inv_norm;
                        }
                    }
                } else {
                    c_lo.fill(1.0);
                    c_hi.fill(1.0);
                }
                if layer.p_flip > 0.0 {
                    for t in 0..width {
                        if rngs[t].gen_range(0.0..1.0) < layer.p_flip {
                            c_hi[t] = -c_hi[t];
                        }
                    }
                }
            }
            BatchedState::expand_factors(n, width, &coeffs, &mut factors, &mut tmp);
            batch.apply_factored_noise(&factors, &jumps, &mut scratch_re, &mut scratch_im);
            sweeps += 1;
        }
        if let Some(diag) = &self.tail {
            diag.apply_batched(batch, &mut table);
            sweeps += 1;
        }
        sweeps
    }

    /// Runs trajectories `first..first + width` in one batched sweep and
    /// returns their fidelities against `ideal`, in trajectory order.
    ///
    /// Lane `t` draws from its own generator seeded by
    /// [`trajectory_seed`]`(seed, first + t)`, exactly as the scalar fan
    /// does.
    fn run_batch(&self, ideal: &[c64], seed: u64, first: usize, width: usize) -> Vec<f64> {
        let started = Instant::now();
        let mut batch = BatchedState::zero(self.n, width);
        let mut rngs: Vec<StdRng> = (0..width)
            .map(|t| StdRng::seed_from_u64(trajectory_seed(seed, first + t)))
            .collect();
        let sweeps = self.evolve(&mut batch, &mut rngs) + 1;
        let mut fidelities = vec![0.0; width];
        batch.fidelity_against(ideal, &mut fidelities);
        metrics::record_batch(width as u64, sweeps, started.elapsed());
        fidelities
    }

    /// Mean fidelity against `ideal` over `trajectories` Monte-Carlo runs,
    /// batched [`DEFAULT_BATCH_LANES`] trajectories per kernel sweep and
    /// fanned out over up to `threads` OS threads.
    ///
    /// Trajectory `i` draws from its own generator seeded by
    /// [`trajectory_seed`]`(seed, i)`, and per-trajectory fidelities are
    /// reduced in trajectory order — the result is **bit-identical for any
    /// thread count and any batch width**.
    ///
    /// # Panics
    ///
    /// Panics if `trajectories` is zero.
    pub fn mean_fidelity(
        &self,
        ideal: &StateVector,
        trajectories: usize,
        seed: u64,
        threads: usize,
    ) -> f64 {
        self.mean_fidelity_batched(ideal, trajectories, seed, threads, DEFAULT_BATCH_LANES)
    }

    /// [`mean_fidelity`](Self::mean_fidelity) with an explicit batch
    /// width: trajectories run in batches of `lanes`, whole batches fan
    /// out over the thread pool, and the ordered per-trajectory reduction
    /// is unchanged — so the result is bit-identical for any `threads`
    /// *and* any `lanes` (each lane's arithmetic never mixes with its
    /// neighbours; see [`crate::batch`]).
    ///
    /// # Panics
    ///
    /// Panics if `trajectories` or `lanes` is zero.
    pub fn mean_fidelity_batched(
        &self,
        ideal: &StateVector,
        trajectories: usize,
        seed: u64,
        threads: usize,
        lanes: usize,
    ) -> f64 {
        assert!(trajectories > 0, "at least one trajectory is required");
        assert!(lanes > 0, "at least one batch lane is required");
        let ideal_amps = ideal.amplitudes();
        let batches = trajectories.div_ceil(lanes);
        let per_batch = parallel_map(batches, threads, |b| {
            let first = b * lanes;
            let width = lanes.min(trajectories - first);
            self.run_batch(ideal_amps, seed, first, width)
        });
        let mut sum = 0.0;
        for batch in &per_batch {
            for f in batch {
                sum += f;
            }
        }
        sum / trajectories as f64
    }
}

/// Derives the RNG seed of trajectory `index` from the fan's base seed —
/// a SplitMix64-style mix, so per-trajectory streams are decorrelated and
/// independent of how trajectories are distributed over threads.
pub fn trajectory_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zz_circuit::native::compile_to_native;
    use zz_circuit::{bench, route};
    use zz_sched::{zzx::ZzxConfig, zzx_schedule};

    fn qaoa_plan(topo: &Topology) -> SchedulePlan {
        let c = bench::generate(bench::BenchmarkKind::Qaoa, topo.qubit_count(), 9);
        let native = compile_to_native(&route(&c, topo));
        zzx_schedule(topo, &native, &ZzxConfig::paper_default(topo))
    }

    #[test]
    fn empty_diag_is_elided() {
        assert!(Diag::build(3, Vec::new(), Vec::new()).is_none());
        assert!(Diag::build(3, vec![(1, 0.1)], Vec::new()).is_some());
    }

    #[test]
    fn ideal_program_matches_plan_unitary() {
        let topo = Topology::grid(2, 2);
        let plan = qaoa_plan(&topo);
        let sv = PlanProgram::ideal(&plan).run();
        let direct = plan
            .unitary()
            .mul_vec(&zz_quantum::states::zero_state(plan.qubit_count()));
        let f = sv.to_vector().fidelity(&direct.normalized());
        assert!(f > 1.0 - 1e-10, "fidelity {f}");
    }

    #[test]
    fn trajectory_with_no_decoherence_matches_deterministic_run() {
        let topo = Topology::grid(2, 3);
        let plan = qaoa_plan(&topo);
        let model = ZzErrorModel::uniform(&topo, crate::khz(200.0)).with_residual(0.05);
        let d = GateDurations::standard();
        // Huge T1/T2 ⇒ γ and p are numerically 0 ⇒ no random draws at all.
        let deco = Decoherence::new(f64::INFINITY, f64::INFINITY);
        let det = PlanProgram::compile(&plan, &topo, &model, &d).run();
        let mut rng = StdRng::seed_from_u64(3);
        let traj = TrajectoryProgram::compile(&plan, &topo, &model, &deco, &d).run(&mut rng);
        assert!(det.fidelity(&traj) > 1.0 - 1e-12);
    }

    #[test]
    fn mean_fidelity_is_thread_count_invariant() {
        let topo = Topology::grid(2, 2);
        let plan = qaoa_plan(&topo);
        let model = ZzErrorModel::uniform(&topo, crate::khz(200.0));
        let deco = Decoherence::equal_us(50.0);
        let program =
            TrajectoryProgram::compile(&plan, &topo, &model, &deco, &GateDurations::standard());
        let ideal = PlanProgram::ideal(&plan).run();
        let f1 = program.mean_fidelity(&ideal, 16, 7, 1);
        let f2 = program.mean_fidelity(&ideal, 16, 7, 2);
        let f8 = program.mean_fidelity(&ideal, 16, 7, 8);
        assert_eq!(f1.to_bits(), f2.to_bits());
        assert_eq!(f1.to_bits(), f8.to_bits());
    }

    /// Random term sets for every register size from 1 to 17 qubits:
    /// the recurrence-built table must match `e^{i·phase_at}` entry for
    /// entry. Each set repeats an Rz mask and a ZZ pair (the second time
    /// with its masks swapped), couples non-adjacent qubits, includes
    /// zero and negative phases, and from 5 qubits gives the top bit 4+
    /// lower neighbours.
    #[test]
    fn recurrence_table_matches_phase_at_for_every_size() {
        let mut rng = StdRng::seed_from_u64(0x2a);
        for n in 1..=17usize {
            let mut rz: Vec<(usize, f64)> = (0..2 * n)
                .map(|_| (1 << rng.gen_range(0..n), rng.gen_range(-1.0..1.0)))
                .collect();
            rz.push((rz[0].0, -0.3));
            rz.push((1 << (n - 1), 0.0));
            let mut zz: Vec<(usize, usize, f64)> = Vec::new();
            if n >= 2 {
                for _ in 0..2 * n {
                    let u = rng.gen_range(0..n);
                    let v = (u + rng.gen_range(1..n)) % n;
                    zz.push((1 << u, 1 << v, rng.gen_range(-0.5..0.5)));
                }
                let (mu, mv, _) = zz[0];
                zz.push((mv, mu, -0.2));
                zz.push((1, 1 << (n - 1), 0.0));
            }
            if n >= 5 {
                for q in 0..4 {
                    zz.push((1 << (n - 1), 1 << q, 0.05 * (q as f64 + 1.0)));
                }
            }
            let diag = Diag::build(n, rz.clone(), zz.clone()).unwrap();
            if n >= 5 {
                assert!(diag.degree[n - 1] >= 4);
            }
            let mut table = vec![c64::ZERO; 1 << n];
            diag.fill(&mut table);
            let diff = table
                .iter()
                .enumerate()
                .map(|(i, &t)| (t - c64::cis(Diag::phase_at(&rz, &zz, i))).abs())
                .fold(0.0, f64::max);
            assert!(
                diff <= 1e-12,
                "n={n}: recurrence vs phase_at diverged by {diff}"
            );
        }
    }

    #[test]
    fn mean_fidelity_is_batch_width_and_thread_invariant() {
        let topo = Topology::grid(2, 2);
        let plan = qaoa_plan(&topo);
        let model = ZzErrorModel::uniform(&topo, crate::khz(200.0)).with_residual(0.05);
        let deco = Decoherence::equal_us(50.0);
        let program =
            TrajectoryProgram::compile(&plan, &topo, &model, &deco, &GateDurations::standard());
        let ideal = PlanProgram::ideal(&plan).run();
        let reference = program.mean_fidelity_batched(&ideal, 16, 7, 1, 8);
        for lanes in [1, 3, 8, 16] {
            for threads in [1, 2, 8] {
                let f = program.mean_fidelity_batched(&ideal, 16, 7, threads, lanes);
                assert_eq!(
                    reference.to_bits(),
                    f.to_bits(),
                    "lanes={lanes} threads={threads}"
                );
            }
        }
        // The default entry point is the same computation at width 8.
        let default = program.mean_fidelity(&ideal, 16, 7, 2);
        assert_eq!(reference.to_bits(), default.to_bits());
    }

    /// The batched fan replays exactly the scalar per-trajectory draws, so
    /// its mean matches a hand-rolled scalar fan to fp accumulation noise.
    #[test]
    fn batched_fan_matches_scalar_trajectory_fan() {
        let topo = Topology::grid(2, 3);
        let plan = qaoa_plan(&topo);
        let model = ZzErrorModel::uniform(&topo, crate::khz(200.0)).with_residual(0.05);
        let deco = Decoherence::equal_us(100.0);
        let program =
            TrajectoryProgram::compile(&plan, &topo, &model, &deco, &GateDurations::standard());
        let ideal = PlanProgram::ideal(&plan).run();
        let trajectories = 5;
        let batched = program.mean_fidelity_batched(&ideal, trajectories, 11, 1, 3);
        let mut scalar_sum = 0.0;
        for i in 0..trajectories {
            let mut rng = StdRng::seed_from_u64(trajectory_seed(11, i));
            scalar_sum += ideal.fidelity(&program.run(&mut rng));
        }
        let scalar = scalar_sum / trajectories as f64;
        assert!(
            (batched - scalar).abs() < 1e-12,
            "batched {batched} vs scalar {scalar}"
        );
    }

    #[test]
    fn trajectory_seeds_are_decorrelated() {
        let a = trajectory_seed(7, 0);
        let b = trajectory_seed(7, 1);
        let c = trajectory_seed(8, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, trajectory_seed(7, 0));
    }
}
