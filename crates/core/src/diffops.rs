//! Differential operators in physical space: gradient, curl, weak
//! divergence, and dealiased advection.
//!
//! All operators act on element-local storage and use the chain rule
//! through the inverse-map metrics of [`GeomFactors`]. The advection
//! operator implements the paper's "dealiasing (overintegration) according
//! to the 3/2-rule" (§6): velocities and gradients are interpolated to a
//! finer GLL grid, the nonlinear product is formed there, and the result is
//! L²-projected back through the diagonal coarse mass.

use rbx_basis::fused::{tensor3_rect, Tensor3Scratch};
use rbx_basis::simd;
use rbx_basis::tensor::{deriv_x, deriv_y, deriv_z};
use rbx_basis::{dealias_nodes, gll, interp_matrix, DMat};
use rbx_device::{loop_chunk, tuning, RangePtr, WorkerPool};
use rbx_mesh::GeomFactors;
use std::cell::RefCell;

/// Element-local scratch for the gradient, divergence and advection
/// kernels; `resize` is a no-op once warm, so a reused scratch makes the
/// kernels allocation-free.
#[derive(Debug, Default)]
pub struct DiffScratch {
    /// Reference-space derivatives (or metric-weighted fluxes) of one element.
    r: [Vec<f64>; 3],
    /// Physical gradient of the advected field on one element.
    g: [Vec<f64>; 3],
    /// Advecting velocity on the fine grid.
    fine_a: [Vec<f64>; 3],
    fine_g: Vec<f64>,
    prod: Vec<f64>,
    ts: Tensor3Scratch,
}

impl DiffScratch {
    fn prepare_coarse(&mut self, nn: usize) {
        for r in &mut self.r {
            r.resize(nn, 0.0);
        }
    }
}

thread_local! {
    /// Per-worker scratch for the pooled kernels; lives in a thread-local
    /// so repeated dispatches reuse the same buffers (the zero-allocation
    /// dispatch contract of the pool runtime).
    static POOL_SCRATCH: RefCell<DiffScratch> = RefCell::new(DiffScratch::default());
}

/// Physical gradient of one element: reference derivatives of `ue`, then
/// the chain rule through the inverse-map metrics at node offset `base`.
/// Each `r` buffer must hold `n³` nodes.
fn grad_element(
    geom: &GeomFactors,
    base: usize,
    ue: &[f64],
    [gx, gy, gz]: [&mut [f64]; 3],
    [ur, us, ut]: &mut [Vec<f64>; 3],
) {
    let n = geom.nx1;
    let nn = n * n * n;
    deriv_x(&geom.d, ue, ur, n);
    deriv_y(&geom.d, ue, us, n);
    deriv_z(&geom.d, ue, ut, n);
    let (ur, us, ut) = (&ur[..nn], &us[..nn], &ut[..nn]);
    let m = |k: usize| &geom.dr[k][base..base + nn];
    simd::combine3(gx, m(0), ur, m(3), us, m(6), ut);
    simd::combine3(gy, m(1), ur, m(4), us, m(7), ut);
    simd::combine3(gz, m(2), ur, m(5), us, m(8), ut);
}

/// Weak divergence of one element at node offset `base` into `oe`.
/// Each `r` buffer must hold `n³` nodes.
fn weak_divergence_element(
    geom: &GeomFactors,
    base: usize,
    v: [&[f64]; 3],
    oe: &mut [f64],
    [wr, ws, wt]: &mut [Vec<f64>; 3],
) {
    use rbx_basis::tensor::{deriv_x_t_add, deriv_y_t_add, deriv_z_t_add};
    let n = geom.nx1;
    let nn = n * n * n;
    let bj = &geom.mass[base..base + nn];
    let m = |k: usize| &geom.dr[k][base..base + nn];
    let [vx, vy, vz] = v.map(|c| &c[base..base + nn]);
    simd::wcombine3(&mut wr[..nn], bj, m(0), vx, m(1), vy, m(2), vz);
    simd::wcombine3(&mut ws[..nn], bj, m(3), vx, m(4), vy, m(5), vz);
    simd::wcombine3(&mut wt[..nn], bj, m(6), vx, m(7), vy, m(8), vz);
    oe.fill(0.0);
    deriv_x_t_add(&geom.d, wr, oe, n);
    deriv_y_t_add(&geom.d, ws, oe, n);
    deriv_z_t_add(&geom.d, wt, oe, n);
}

/// Pointwise physical gradient `(∂u/∂x, ∂u/∂y, ∂u/∂z)` of a scalar field.
pub fn phys_grad(
    geom: &GeomFactors,
    u: &[f64],
    gx: &mut [f64],
    gy: &mut [f64],
    gz: &mut [f64],
    scratch: &mut DiffScratch,
) {
    let n = geom.nx1;
    let nn = n * n * n;
    debug_assert_eq!(u.len(), geom.total_nodes());
    scratch.prepare_coarse(nn);
    for e in 0..geom.nelv {
        let base = e * nn;
        let g = [
            &mut gx[base..base + nn],
            &mut gy[base..base + nn],
            &mut gz[base..base + nn],
        ];
        grad_element(geom, base, &u[base..base + nn], g, &mut scratch.r);
    }
}

/// Pooled [`phys_grad`]: element chunks self-schedule across the pool's
/// workers, each writing its own elements' gradient nodes. Bitwise
/// identical to the serial kernel for every thread count.
pub fn phys_grad_with(
    geom: &GeomFactors,
    u: &[f64],
    gx: &mut [f64],
    gy: &mut [f64],
    gz: &mut [f64],
    pool: &WorkerPool,
) {
    let n = geom.nx1;
    let nn = n * n * n;
    let nelv = geom.nelv;
    debug_assert_eq!(u.len(), geom.total_nodes());
    let gp = [RangePtr::new(gx), RangePtr::new(gy), RangePtr::new(gz)];
    let chunk = loop_chunk(nelv, pool.threads());
    pool.for_each_range_min(nelv, chunk, tuning().grad_elems, |e0, e1| {
        POOL_SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            s.prepare_coarse(nn);
            for e in e0..e1 {
                let base = e * nn;
                let g = gp.each_ref().map(|p| {
                    // SAFETY: element ranges of distinct chunks are disjoint.
                    unsafe { p.range_mut(base, base + nn) }
                });
                grad_element(geom, base, &u[base..base + nn], g, &mut s.r);
            }
        });
    });
}

/// Pointwise curl `ω = ∇ × u` of a vector field.
// audit:allow(hot-alloc): field-sized scratch per call; a shared scratch arena is the planned fix (ROADMAP), and each allocation is amortized by the O(N) kernel work that follows
pub fn curl(geom: &GeomFactors, u: [&[f64]; 3], w: [&mut [f64]; 3], scratch: &mut DiffScratch) {
    let ntot = geom.total_nodes();
    let mut g = [vec![0.0; ntot], vec![0.0; ntot], vec![0.0; ntot]];
    let [wx, wy, wz] = w;
    // ∇u_z → contributes to wx (+∂uz/∂y) and wy (−∂uz/∂x)
    {
        let [gx, gy, _gz] = &mut g;
        phys_grad(geom, u[2], gx, gy, &mut vec![0.0; ntot], scratch);
        for i in 0..ntot {
            wx[i] = gy[i];
            wy[i] = -gx[i];
        }
    }
    // ∇u_y → wx −= ∂uy/∂z ; wz += ∂uy/∂x
    {
        let [gx, _gy, gz] = &mut g;
        phys_grad(geom, u[1], gx, &mut vec![0.0; ntot], gz, scratch);
        for i in 0..ntot {
            wx[i] -= gz[i];
        }
        wz.copy_from_slice(gx);
    }
    // ∇u_x → wy += ∂ux/∂z ; wz −= ∂ux/∂y
    {
        let [_gx, gy, gz] = &mut g;
        phys_grad(geom, u[0], &mut vec![0.0; ntot], gy, gz, scratch);
        for i in 0..ntot {
            wy[i] += gz[i];
            wz[i] -= gy[i];
        }
    }
}

/// Weak divergence ("cdtp"): `out_i = (∇φ_i, v)` element-locally:
///
/// `out = Drᵀ(BJ·(r·v)) + Dsᵀ(BJ·(s·v)) + Dtᵀ(BJ·(t·v))`
///
/// where `BJ = w³·J` is the diagonal mass. The caller gather-scatters the
/// result to assemble it. This builds the pressure-Poisson right-hand side.
pub fn weak_divergence(
    geom: &GeomFactors,
    v: [&[f64]; 3],
    out: &mut [f64],
    scratch: &mut DiffScratch,
) {
    let n = geom.nx1;
    let nn = n * n * n;
    scratch.prepare_coarse(nn);
    for e in 0..geom.nelv {
        let base = e * nn;
        weak_divergence_element(geom, base, v, &mut out[base..base + nn], &mut scratch.r);
    }
}

/// Pooled [`weak_divergence`]; bitwise identical to the serial kernel for
/// every thread count (per-element writes are disjoint across chunks).
pub fn weak_divergence_with(
    geom: &GeomFactors,
    v: [&[f64]; 3],
    out: &mut [f64],
    pool: &WorkerPool,
) {
    let n = geom.nx1;
    let nn = n * n * n;
    let nelv = geom.nelv;
    let op = RangePtr::new(out);
    let chunk = loop_chunk(nelv, pool.threads());
    pool.for_each_range_min(nelv, chunk, tuning().grad_elems, |e0, e1| {
        POOL_SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            s.prepare_coarse(nn);
            for e in e0..e1 {
                let base = e * nn;
                // SAFETY: element ranges of distinct chunks are disjoint.
                let oe = unsafe { op.range_mut(base, base + nn) };
                weak_divergence_element(geom, base, v, oe, &mut s.r);
            }
        });
    });
}

/// Pointwise divergence `∇·v` (collocation), for diagnostics.
pub fn pointwise_divergence(
    geom: &GeomFactors,
    v: [&[f64]; 3],
    out: &mut [f64],
    scratch: &mut DiffScratch,
) {
    let ntot = geom.total_nodes();
    let mut gx = vec![0.0; ntot];
    let mut gy = vec![0.0; ntot];
    let mut gz = vec![0.0; ntot];
    phys_grad(geom, v[0], &mut gx, &mut gy, &mut gz, scratch);
    out.copy_from_slice(&gx);
    phys_grad(geom, v[1], &mut gx, &mut gy, &mut gz, scratch);
    for i in 0..ntot {
        out[i] += gy[i];
    }
    phys_grad(geom, v[2], &mut gx, &mut gy, &mut gz, scratch);
    for i in 0..ntot {
        out[i] += gz[i];
    }
}

/// 3/2-rule dealiasing apparatus for the advection operator.
pub struct Dealias {
    /// Fine 1-D node count `⌈3(p+1)/2⌉`.
    pub mf: usize,
    /// Coarse→fine interpolation matrix (per dimension, `mf × n`).
    jmat: DMat,
    /// Its transpose, the fine→coarse projection (`n × mf`).
    jt: DMat,
    /// Fine-grid diagonal mass per element node (`w_f³ · J_f`).
    bf: Vec<f64>,
    enabled: bool,
}

impl Dealias {
    /// Build the fine-grid quadrature for `geom`. With `enabled = false`
    /// the advection product is formed on the collocation grid instead
    /// (the ablation case).
    pub fn new(geom: &GeomFactors, enabled: bool) -> Self {
        let n = geom.nx1;
        let mf = dealias_nodes(geom.p);
        let fine = gll(mf);
        let jmat = interp_matrix(&geom.points, &fine.points);
        // Fine Jacobian by interpolation of the coarse Jacobian (exact for
        // trilinear elements; spectrally accurate for curved ones).
        let nn = n * n * n;
        let mmf = mf * mf * mf;
        let mut bf = vec![0.0; geom.nelv * mmf];
        let mut ts = Tensor3Scratch::new();
        for e in 0..geom.nelv {
            let jf = &mut bf[e * mmf..(e + 1) * mmf];
            tensor3_rect(
                &jmat,
                &jmat,
                &jmat,
                &geom.jac[e * nn..(e + 1) * nn],
                jf,
                &mut ts,
            );
            for k in 0..mf {
                for j in 0..mf {
                    for i in 0..mf {
                        let w3 = fine.weights[i] * fine.weights[j] * fine.weights[k];
                        jf[i + mf * (j + mf * k)] *= w3;
                    }
                }
            }
        }
        Self {
            mf,
            jt: jmat.transpose(),
            jmat,
            bf,
            enabled,
        }
    }

    /// Dealiased advection: `out = (a·∇)v` as a pointwise field.
    ///
    /// The physical gradient of `v` is formed on the collocation grid;
    /// gradient and advecting velocity are interpolated to the fine grid,
    /// multiplied there, and projected back through the coarse mass.
    pub fn advect(
        &self,
        geom: &GeomFactors,
        a: [&[f64]; 3],
        v: &[f64],
        out: &mut [f64],
        scratch: &mut DiffScratch,
    ) {
        self.advect_fields(geom, a, [v], [out], scratch);
    }

    /// Pooled one-field [`Dealias::advect`]. Bitwise identical to the
    /// serial operator for every thread count.
    pub fn advect_with(
        &self,
        geom: &GeomFactors,
        a: [&[f64]; 3],
        v: &[f64],
        out: &mut [f64],
        pool: &WorkerPool,
    ) {
        self.advect_fields_with(geom, a, [v], [out], pool);
    }

    /// `outs[f] = (a·∇)vs[f]` for every field in one element sweep: the
    /// advecting velocity is interpolated to the fine grid once per
    /// element and reused by every field. Each output is bitwise what a
    /// one-field [`Dealias::advect`] of that field gives.
    pub fn advect_fields<const K: usize>(
        &self,
        geom: &GeomFactors,
        a: [&[f64]; 3],
        vs: [&[f64]; K],
        outs: [&mut [f64]; K],
        scratch: &mut DiffScratch,
    ) {
        let outs = outs.map(RangePtr::new);
        // SAFETY: one sweep over every element, on this thread only.
        unsafe { self.sweep(geom, a, &vs, &outs, 0, geom.nelv, scratch) };
    }

    /// Pooled [`Dealias::advect_fields`]: element chunks self-schedule
    /// across the pool, each worker on its own thread-local scratch.
    /// Bitwise identical to the serial sweep for every thread count.
    pub fn advect_fields_with<const K: usize>(
        &self,
        geom: &GeomFactors,
        a: [&[f64]; 3],
        vs: [&[f64]; K],
        outs: [&mut [f64]; K],
        pool: &WorkerPool,
    ) {
        let nelv = geom.nelv;
        let outs = outs.map(RangePtr::new);
        let chunk = loop_chunk(nelv, pool.threads());
        pool.for_each_range_min(nelv, chunk, tuning().grad_elems, |e0, e1| {
            POOL_SCRATCH.with(|cell| {
                // SAFETY: element ranges of distinct chunks are disjoint.
                unsafe { self.sweep(geom, a, &vs, &outs, e0, e1, &mut cell.borrow_mut()) };
            });
        });
    }

    /// The element body every advection entry point runs, over elements
    /// `e0..e1`. Per element: the advecting velocity goes to the fine
    /// grid once (3 interpolations); then per field the element-local
    /// gradient is interpolated (3), multiplied with the velocity and the
    /// fine mass, and projected back (1) — `3 + 4K` tensor applies.
    ///
    /// # Safety
    /// Each `outs` pointer must span the whole field, and no other thread
    /// may touch its nodes of elements `e0..e1` during the call.
    #[allow(clippy::too_many_arguments)]
    // SAFETY: the obligations above are discharged by the two callers,
    // `advect_fields` (one thread, all elements) and `advect_fields_with`
    // (disjoint element chunks).
    unsafe fn sweep(
        &self,
        geom: &GeomFactors,
        a: [&[f64]; 3],
        vs: &[&[f64]],
        outs: &[RangePtr<f64>],
        e0: usize,
        e1: usize,
        s: &mut DiffScratch,
    ) {
        let n = geom.nx1;
        let nn = n * n * n;
        let mmf = self.mf * self.mf * self.mf;
        s.prepare_coarse(nn);
        for g in &mut s.g {
            g.resize(nn, 0.0);
        }
        if self.enabled {
            for f in &mut s.fine_a {
                f.resize(mmf, 0.0);
            }
            s.fine_g.resize(mmf, 0.0);
            s.prod.resize(mmf, 0.0);
        }
        let j = &self.jmat;
        for e in e0..e1 {
            let base = e * nn;
            let ae = a.map(|c| &c[base..base + nn]);
            if self.enabled {
                for (ad, fa) in ae.iter().zip(&mut s.fine_a) {
                    tensor3_rect(j, j, j, ad, fa, &mut s.ts);
                }
            }
            for (v, out) in vs.iter().zip(outs) {
                let g = s.g.each_mut().map(Vec::as_mut_slice);
                grad_element(geom, base, &v[base..base + nn], g, &mut s.r);
                // SAFETY: `e` is in `e0..e1`, exclusively ours (fn contract).
                let oe = unsafe { out.range_mut(base, base + nn) };
                if !self.enabled {
                    let [gx, gy, gz] = &s.g;
                    simd::combine3(oe, ae[0], gx, ae[1], gy, ae[2], gz);
                    continue;
                }
                s.prod.fill(0.0);
                for (g, fa) in s.g.iter().zip(&s.fine_a) {
                    tensor3_rect(j, j, j, g, &mut s.fine_g, &mut s.ts);
                    simd::fma_acc(fa, &s.fine_g, &mut s.prod);
                }
                // Weight by the fine mass and project back: B_c·out = Jᵀ(B_f·prod).
                simd::hadamard(&self.bf[e * mmf..(e + 1) * mmf], &mut s.prod);
                let jt = &self.jt;
                tensor3_rect(jt, jt, jt, &s.prod, oe, &mut s.ts);
                for (o, m) in oe.iter_mut().zip(&geom.mass[base..base + nn]) {
                    *o /= m;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbx_mesh::cylinder::{cylinder_mesh, CylinderParams};
    use rbx_mesh::generators::box_mesh;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn gradient_exact_on_polynomial_box() {
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 2.], [0., 1.], false, false);
        let geom = GeomFactors::new(&mesh, 5);
        let ntot = geom.total_nodes();
        let u: Vec<f64> = (0..ntot)
            .map(|i| {
                let (x, y, z) = (geom.coords[0][i], geom.coords[1][i], geom.coords[2][i]);
                x * x * y + z * z * z - 2.0 * x * z
            })
            .collect();
        let mut gx = vec![0.0; ntot];
        let mut gy = vec![0.0; ntot];
        let mut gz = vec![0.0; ntot];
        let mut s = DiffScratch::default();
        phys_grad(&geom, &u, &mut gx, &mut gy, &mut gz, &mut s);
        for i in 0..ntot {
            let (x, y, z) = (geom.coords[0][i], geom.coords[1][i], geom.coords[2][i]);
            assert_close(gx[i], 2.0 * x * y - 2.0 * z, 1e-9);
            assert_close(gy[i], x * x, 1e-9);
            assert_close(gz[i], 3.0 * z * z - 2.0 * x, 1e-9);
        }
    }

    #[test]
    fn gradient_spectral_on_cylinder() {
        // Curved metrics: trig field converges spectrally; at degree 8 the
        // gradient should be accurate to ~1e-8 on a coarse o-grid.
        let mesh = cylinder_mesh(CylinderParams::default());
        let geom = GeomFactors::new(&mesh, 8);
        let ntot = geom.total_nodes();
        let u: Vec<f64> = (0..ntot)
            .map(|i| {
                let (x, y) = (geom.coords[0][i], geom.coords[1][i]);
                (2.0 * x).sin() * (1.5 * y).cos()
            })
            .collect();
        let mut gx = vec![0.0; ntot];
        let mut gy = vec![0.0; ntot];
        let mut gz = vec![0.0; ntot];
        let mut s = DiffScratch::default();
        phys_grad(&geom, &u, &mut gx, &mut gy, &mut gz, &mut s);
        let mut max_err = 0.0f64;
        for i in 0..ntot {
            let (x, y) = (geom.coords[0][i], geom.coords[1][i]);
            let ex = 2.0 * (2.0 * x).cos() * (1.5 * y).cos();
            let ey = -1.5 * (2.0 * x).sin() * (1.5 * y).sin();
            max_err = max_err.max((gx[i] - ex).abs()).max((gy[i] - ey).abs());
            max_err = max_err.max(gz[i].abs());
        }
        assert!(max_err < 1e-5, "max gradient error {max_err}");
    }

    #[test]
    fn curl_of_gradient_vanishes() {
        let mesh = box_mesh(2, 1, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let geom = GeomFactors::new(&mesh, 6);
        let ntot = geom.total_nodes();
        let phi: Vec<f64> = (0..ntot)
            .map(|i| {
                let (x, y, z) = (geom.coords[0][i], geom.coords[1][i], geom.coords[2][i]);
                x * x * y * z + y * y
            })
            .collect();
        let mut gx = vec![0.0; ntot];
        let mut gy = vec![0.0; ntot];
        let mut gz = vec![0.0; ntot];
        let mut s = DiffScratch::default();
        phys_grad(&geom, &phi, &mut gx, &mut gy, &mut gz, &mut s);
        let mut wx = vec![0.0; ntot];
        let mut wy = vec![0.0; ntot];
        let mut wz = vec![0.0; ntot];
        curl(&geom, [&gx, &gy, &gz], [&mut wx, &mut wy, &mut wz], &mut s);
        let max = wx
            .iter()
            .chain(&wy)
            .chain(&wz)
            .fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(max < 1e-8, "curl grad = {max}");
    }

    #[test]
    fn curl_of_rigid_rotation() {
        // u = (−y, x, 0) ⇒ ∇×u = (0, 0, 2).
        let mesh = box_mesh(1, 1, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let geom = GeomFactors::new(&mesh, 3);
        let ntot = geom.total_nodes();
        let ux: Vec<f64> = (0..ntot).map(|i| -geom.coords[1][i]).collect();
        let uy: Vec<f64> = (0..ntot).map(|i| geom.coords[0][i]).collect();
        let uz = vec![0.0; ntot];
        let mut wx = vec![0.0; ntot];
        let mut wy = vec![0.0; ntot];
        let mut wz = vec![0.0; ntot];
        let mut s = DiffScratch::default();
        curl(&geom, [&ux, &uy, &uz], [&mut wx, &mut wy, &mut wz], &mut s);
        for i in 0..ntot {
            assert_close(wx[i], 0.0, 1e-11);
            assert_close(wy[i], 0.0, 1e-11);
            assert_close(wz[i], 2.0, 1e-11);
        }
    }

    #[test]
    fn weak_divergence_pairs_with_gradient() {
        // uᵀ·cdtp(v) = ∫ ∇u·v for continuous u: check with u = x,
        // v = (y, 0, 0): ∫ y over the unit cube = 1/2.
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let geom = GeomFactors::new(&mesh, 4);
        let ntot = geom.total_nodes();
        let u: Vec<f64> = geom.coords[0].clone();
        let vx: Vec<f64> = geom.coords[1].clone();
        let zero = vec![0.0; ntot];
        let mut out = vec![0.0; ntot];
        let mut s = DiffScratch::default();
        weak_divergence(&geom, [&vx, &zero, &zero], &mut out, &mut s);
        let pair: f64 = u.iter().zip(&out).map(|(a, b)| a * b).sum();
        assert_close(pair, 0.5, 1e-10);
    }

    #[test]
    fn pointwise_divergence_of_solenoidal_field() {
        // v = (y·z, x·z, x·y) is divergence free.
        let mesh = box_mesh(2, 2, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let geom = GeomFactors::new(&mesh, 4);
        let ntot = geom.total_nodes();
        let vx: Vec<f64> = (0..ntot)
            .map(|i| geom.coords[1][i] * geom.coords[2][i])
            .collect();
        let vy: Vec<f64> = (0..ntot)
            .map(|i| geom.coords[0][i] * geom.coords[2][i])
            .collect();
        let vz: Vec<f64> = (0..ntot)
            .map(|i| geom.coords[0][i] * geom.coords[1][i])
            .collect();
        let mut div = vec![0.0; ntot];
        let mut s = DiffScratch::default();
        pointwise_divergence(&geom, [&vx, &vy, &vz], &mut div, &mut s);
        let max = div.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(max < 1e-10, "divergence {max}");
    }

    #[test]
    fn advection_exact_on_low_degree_fields() {
        // (a·∇)v with polynomial data of low enough total degree must be
        // identical with and without dealiasing (both quadratures exact).
        let p = 4;
        let mesh = box_mesh(2, 1, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let geom = GeomFactors::new(&mesh, p);
        let ntot = geom.total_nodes();
        let ax: Vec<f64> = (0..ntot).map(|i| geom.coords[1][i]).collect(); // a = (y, 1, 0)
        let ones = vec![1.0; ntot];
        let zero = vec![0.0; ntot];
        let v: Vec<f64> = (0..ntot)
            .map(|i| geom.coords[0][i] * geom.coords[0][i]) // v = x²
            .collect();
        let mut s = DiffScratch::default();
        let dealias_on = Dealias::new(&geom, true);
        let dealias_off = Dealias::new(&geom, false);
        let mut out_on = vec![0.0; ntot];
        let mut out_off = vec![0.0; ntot];
        dealias_on.advect(&geom, [&ax, &ones, &zero], &v, &mut out_on, &mut s);
        dealias_off.advect(&geom, [&ax, &ones, &zero], &v, &mut out_off, &mut s);
        for i in 0..ntot {
            // (a·∇)v = y·2x.
            let expect = 2.0 * geom.coords[0][i] * geom.coords[1][i];
            assert_close(out_on[i], expect, 1e-9);
            assert_close(out_off[i], expect, 1e-9);
        }
    }

    #[test]
    fn pooled_kernels_match_serial_bitwise_across_thread_counts() {
        let p = 4;
        let mesh = box_mesh(3, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let geom = GeomFactors::new(&mesh, p);
        let ntot = geom.total_nodes();
        let u: Vec<f64> = (0..ntot)
            .map(|i| ((i * 29 % 83) as f64) * 0.02 - 0.8)
            .collect();
        let ax: Vec<f64> = (0..ntot).map(|i| geom.coords[1][i] - 0.3).collect();
        let ay: Vec<f64> = (0..ntot).map(|i| geom.coords[0][i] * 0.5).collect();
        let az: Vec<f64> = (0..ntot).map(|i| geom.coords[2][i] - 0.1).collect();
        let mut s = DiffScratch::default();

        let mut gx = vec![0.0; ntot];
        let mut gy = vec![0.0; ntot];
        let mut gz = vec![0.0; ntot];
        phys_grad(&geom, &u, &mut gx, &mut gy, &mut gz, &mut s);

        let mut wd = vec![0.0; ntot];
        weak_divergence(&geom, [&ax, &ay, &az], &mut wd, &mut s);

        let mut adv = [vec![0.0; ntot], vec![0.0; ntot]];
        let dealias = [Dealias::new(&geom, true), Dealias::new(&geom, false)];
        for (d, o) in dealias.iter().zip(adv.iter_mut()) {
            d.advect(&geom, [&ax, &ay, &az], &u, o, &mut s);
        }

        for threads in [1usize, 4, 7] {
            let pool = rbx_device::WorkerPool::new(threads);
            let (mut px, mut py, mut pz) = (vec![0.0; ntot], vec![0.0; ntot], vec![0.0; ntot]);
            phys_grad_with(&geom, &u, &mut px, &mut py, &mut pz, &pool);
            assert_eq!(gx, px, "grad x threads={threads}");
            assert_eq!(gy, py, "grad y threads={threads}");
            assert_eq!(gz, pz, "grad z threads={threads}");

            let mut pwd = vec![0.0; ntot];
            weak_divergence_with(&geom, [&ax, &ay, &az], &mut pwd, &pool);
            assert_eq!(wd, pwd, "weak divergence threads={threads}");

            for (d, o) in dealias.iter().zip(adv.iter()) {
                let mut padv = vec![0.0; ntot];
                d.advect_with(&geom, [&ax, &ay, &az], &u, &mut padv, &pool);
                assert_eq!(o, &padv, "advect threads={threads}");
            }
        }
    }

    #[test]
    fn four_field_sweep_matches_one_field_calls_bitwise() {
        // Box and curved cylinder at p = 5 and 7: the pooled four-field
        // sweep must give the same bits at every thread count, and the
        // same bits as one-field calls of the serial and pooled operator.
        let cyl = CylinderParams {
            n_z: 1,
            ..CylinderParams::default()
        };
        let meshes = [
            box_mesh(3, 2, 2, [0., 2.], [0., 1.], [0., 1.], false, false),
            cylinder_mesh(cyl),
        ];
        for (mi, mesh) in meshes.iter().enumerate() {
            for p in [5usize, 7] {
                let geom = GeomFactors::new(mesh, p);
                let ntot = geom.total_nodes();
                let field = |seed: usize| -> Vec<f64> {
                    (0..ntot)
                        .map(|i| {
                            let (x, y, z) =
                                (geom.coords[0][i], geom.coords[1][i], geom.coords[2][i]);
                            let k = (seed + 1) as f64;
                            (k * x + 0.3).sin() * (1.7 * y - 0.2 * k).cos() + 0.1 * k * z * z
                        })
                        .collect()
                };
                let u = [field(0), field(1), field(2)];
                let t = field(3);
                let a = [&u[0][..], &u[1][..], &u[2][..]];
                let vs = [a[0], a[1], a[2], &t[..]];
                let dealias = Dealias::new(&geom, true);

                let mut s = DiffScratch::default();
                let mut serial = [vec![0.0; ntot], vec![0.0; ntot], vec![0.0; ntot]];
                let mut serial_t = vec![0.0; ntot];
                {
                    let [o0, o1, o2] = &mut serial;
                    let outs = [&mut o0[..], &mut o1[..], &mut o2[..], &mut serial_t[..]];
                    dealias.advect_fields(&geom, a, vs, outs, &mut s);
                }
                let serial = [&serial[0], &serial[1], &serial[2], &serial_t];
                for (f, v) in vs.iter().enumerate() {
                    let mut one = vec![0.0; ntot];
                    dealias.advect(&geom, a, v, &mut one, &mut s);
                    assert_eq!(&one, serial[f], "mesh {mi} p={p} field {f}: advect");
                }

                for threads in [1usize, 2, 3] {
                    let pool = rbx_device::WorkerPool::new(threads);
                    let mut pooled = [
                        vec![0.0; ntot],
                        vec![0.0; ntot],
                        vec![0.0; ntot],
                        vec![0.0; ntot],
                    ];
                    let [o0, o1, o2, o3] = &mut pooled;
                    let outs = [&mut o0[..], &mut o1[..], &mut o2[..], &mut o3[..]];
                    dealias.advect_fields_with(&geom, a, vs, outs, &pool);
                    for (f, v) in vs.iter().enumerate() {
                        let label = format!("mesh {mi} p={p} threads={threads} field {f}");
                        assert_eq!(&pooled[f], serial[f], "{label}: four-field sweep");
                        let mut one = vec![0.0; ntot];
                        dealias.advect_with(&geom, a, v, &mut one, &pool);
                        assert_eq!(&one, serial[f], "{label}: advect_with");
                    }
                }
            }
        }
    }

    #[test]
    fn fine_mass_integrates_volume() {
        let mesh = box_mesh(2, 2, 2, [0., 2.], [0., 1.], [0., 1.], false, false);
        let geom = GeomFactors::new(&mesh, 3);
        let dealias = Dealias::new(&geom, true);
        let total: f64 = dealias.bf.iter().sum();
        assert_close(total, 2.0, 1e-10);
    }
}
