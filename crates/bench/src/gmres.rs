//! Restarted complex GMRES — the long-recurrence baseline.
//!
//! The paper motivates block COCG by noting that GMRES "becomes
//! computationally expensive as the iteration count grows due to lacking a
//! short-term recurrence" (§III-B): each iteration orthogonalizes against
//! the entire Krylov basis (`O(n·m)` work and memory at inner step `m`).
//! This implementation is the comparison baseline of
//! `solver_convergence_curves`, its one caller.

use mbrpa_linalg::{exactly_zero, vecops, Mat, C64};
use mbrpa_solver::{LinearOperator, SolveReport};

/// Options for [`gmres`].
#[derive(Clone, Copy, Debug)]
pub struct GmresOptions {
    /// Relative residual tolerance.
    pub tol: f64,
    /// Restart length `m`.
    pub restart: usize,
    /// Cap on total operator applications.
    pub max_matvecs: usize,
    /// Record the (inner-recurrence) relative residual after every
    /// iteration (convergence studies only).
    pub track_residuals: bool,
}

impl Default for GmresOptions {
    fn default() -> Self {
        Self {
            tol: 1e-2,
            restart: 50,
            max_matvecs: 5000,
            track_residuals: false,
        }
    }
}

/// Solve `A x = b` with restarted GMRES(m). Works for any (non-symmetric,
/// non-Hermitian) operator.
pub fn gmres(
    op: &dyn LinearOperator<C64>,
    b: &[C64],
    x0: Option<&[C64]>,
    opts: &GmresOptions,
) -> (Vec<C64>, SolveReport) {
    let n = op.dim();
    assert_eq!(b.len(), n);
    let mut report = SolveReport::new();
    let b_norm = vecops::norm2(b);
    let mut x: Vec<C64> = match x0 {
        Some(g) => g.to_vec(),
        None => vec![C64::new(0.0, 0.0); n],
    };
    if exactly_zero(b_norm) {
        report.converged = true;
        report.relative_residual = 0.0;
        return (vec![C64::new(0.0, 0.0); n], report);
    }

    let m = opts.restart.max(1);
    let mut r = vec![C64::new(0.0, 0.0); n];

    'outer: loop {
        // r = b − A x
        op.apply(&x, &mut r);
        report.matvecs += 1;
        for (ri, &bi) in r.iter_mut().zip(b.iter()) {
            *ri = bi - *ri;
        }
        let beta = vecops::norm2(&r);
        report.relative_residual = beta / b_norm;
        if report.relative_residual <= opts.tol {
            report.converged = true;
            break;
        }
        if report.matvecs >= opts.max_matvecs {
            break;
        }

        // Arnoldi with modified Gram–Schmidt + Givens rotations.
        let mut v = Mat::<C64>::zeros(n, m + 1);
        {
            let inv = C64::new(1.0 / beta, 0.0);
            let col = v.col_mut(0);
            for (c, &ri) in col.iter_mut().zip(r.iter()) {
                *c = ri * inv;
            }
        }
        let mut h = Mat::<C64>::zeros(m + 1, m);
        let mut cs = vec![C64::new(0.0, 0.0); m];
        let mut sn = vec![C64::new(0.0, 0.0); m];
        let mut g = vec![C64::new(0.0, 0.0); m + 1];
        g[0] = C64::new(beta, 0.0);

        let mut k_used = 0;
        for k in 0..m {
            // w = A v_k
            let mut w = vec![C64::new(0.0, 0.0); n];
            op.apply(v.col(k), &mut w);
            report.matvecs += 1;
            // orthogonalize
            for i in 0..=k {
                let hik = vecops::dot_h(v.col(i), &w);
                h[(i, k)] = hik;
                vecops::axpy(-hik, v.col(i), &mut w);
            }
            let wnorm = vecops::norm2(&w);
            h[(k + 1, k)] = C64::new(wnorm, 0.0);
            if wnorm > 1e-300 {
                let inv = C64::new(1.0 / wnorm, 0.0);
                let col = v.col_mut(k + 1);
                for (c, &wi) in col.iter_mut().zip(w.iter()) {
                    *c = wi * inv;
                }
            }

            // apply previous Givens rotations to the new column
            for i in 0..k {
                let t = cs[i] * h[(i, k)] + sn[i] * h[(i + 1, k)];
                h[(i + 1, k)] = -sn[i].conj() * h[(i, k)] + cs[i].conj() * h[(i + 1, k)];
                h[(i, k)] = t;
            }
            // new rotation annihilating h[k+1, k]
            let (a, bb) = (h[(k, k)], h[(k + 1, k)]);
            let denom = (a.norm_sqr() + bb.norm_sqr()).sqrt();
            if denom > 0.0 {
                // complex Givens: c real, s complex
                let c = C64::new(a.norm() / denom, 0.0);
                let s = if a.norm() > 0.0 {
                    (a / C64::new(a.norm(), 0.0)) * bb.conj() / C64::new(denom, 0.0)
                } else {
                    C64::new(1.0, 0.0)
                };
                cs[k] = c;
                sn[k] = s;
                h[(k, k)] = c * a + s * bb;
                h[(k + 1, k)] = C64::new(0.0, 0.0);
                let t = cs[k] * g[k];
                g[k + 1] = -sn[k].conj() * g[k];
                g[k] = t;
            }
            k_used = k + 1;
            report.iterations += 1;
            let inner_res = g[k + 1].norm() / b_norm;
            if opts.track_residuals {
                report.residual_history.push(inner_res);
            }
            if inner_res <= opts.tol || report.matvecs >= opts.max_matvecs {
                break;
            }
        }

        // back-substitute y from the triangular system H y = g
        let mut y = vec![C64::new(0.0, 0.0); k_used];
        for i in (0..k_used).rev() {
            let mut acc = g[i];
            for j in i + 1..k_used {
                acc -= h[(i, j)] * y[j];
            }
            y[i] = acc / h[(i, i)];
        }
        // x += V y
        for (j, &yj) in y.iter().enumerate() {
            vecops::axpy(yj, v.col(j), &mut x);
        }

        if report.matvecs >= opts.max_matvecs {
            // final residual evaluation
            op.apply(&x, &mut r);
            report.matvecs += 1;
            for (ri, &bi) in r.iter_mut().zip(b.iter()) {
                *ri = bi - *ri;
            }
            report.relative_residual = vecops::norm2(&r) / b_norm;
            report.converged = report.relative_residual <= opts.tol;
            break 'outer;
        }
    }

    (x, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{rand_c, test_operator};
    use mbrpa_solver::{block_cocg, true_relative_residual, CocgOptions};

    #[test]
    fn solves_complex_symmetric_system() {
        let op = test_operator(40, 3.0, 0.8, 1);
        let b = rand_c(40, 2);
        let opts = GmresOptions {
            tol: 1e-10,
            ..GmresOptions::default()
        };
        let (x, report) = gmres(&op, &b, None, &opts);
        assert!(report.converged, "{report:?}");
        let bm = Mat::col_vector(b);
        let xm = Mat::col_vector(x);
        assert!(true_relative_residual(&op, &bm, &xm) < 1e-8);
    }

    #[test]
    fn handles_restart_cycles() {
        let op = test_operator(60, 1.0, 0.2, 3);
        let b = rand_c(60, 4);
        let opts = GmresOptions {
            tol: 1e-8,
            restart: 10, // force several outer cycles
            max_matvecs: 5000,
            track_residuals: false,
        };
        let (x, report) = gmres(&op, &b, None, &opts);
        assert!(report.converged, "{report:?}");
        let bm = Mat::col_vector(b);
        let xm = Mat::col_vector(x);
        assert!(true_relative_residual(&op, &bm, &xm) < 1e-6);
    }

    #[test]
    fn agrees_with_cocg_solution() {
        let op = test_operator(35, 4.0, 0.6, 5);
        let b = rand_c(35, 6);
        let (xg, rg) = gmres(
            &op,
            &b,
            None,
            &GmresOptions {
                tol: 1e-11,
                ..GmresOptions::default()
            },
        );
        let bm = Mat::col_vector(b);
        let (xc, rc) = block_cocg(&op, &bm, None, &CocgOptions::with_tol(1e-11));
        assert!(rg.converged && rc.converged);
        for (a, c) in xg.iter().zip(xc.col(0)) {
            assert!((*a - *c).norm() < 1e-8, "{a} vs {c}");
        }
    }

    #[test]
    fn zero_rhs() {
        let op = test_operator(10, 2.0, 0.2, 7);
        let b = vec![C64::new(0.0, 0.0); 10];
        let (x, report) = gmres(&op, &b, None, &GmresOptions::default());
        assert!(report.converged);
        assert!(x.iter().all(|z| z.norm() == 0.0));
    }

    #[test]
    fn matvec_cap_terminates() {
        let op = test_operator(50, 0.0, 0.01, 11);
        let b = rand_c(50, 12);
        let opts = GmresOptions {
            tol: 1e-14,
            restart: 5,
            max_matvecs: 12,
            track_residuals: false,
        };
        let (_, report) = gmres(&op, &b, None, &opts);
        assert!(report.matvecs <= 14);
        assert!(!report.converged);
    }
}
