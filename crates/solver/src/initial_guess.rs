//! Galerkin-projection initial guess for the Sternheimer systems
//! (Eq. 13 of the paper).
//!
//! The occupied eigenpairs `(λ_m, Ψ_m)` of `H` are known from the prior
//! Kohn–Sham calculation, and the Sternheimer matrix `A = H − λ_j I + iω I`
//! shares those eigenvectors with shifted eigenvalues. Projecting the
//! right-hand side onto the known eigenspace,
//!
//! ```text
//! Y₀ = Ψ (E − λ_j I + iω I)⁻¹ ΨᵀB
//! ```
//!
//! deflates the most problematic (most negative real part) eigendirections
//! from the initial residual, taming the hard `(j≈n_s, k=ℓ)` index pairs.

use crate::workspace::with_thread_workspace;
use mbrpa_linalg::{exactly_zero, matmul_into, matmul_tn_rowsum_into, Mat, C64};

/// Build the Galerkin initial guess `Y₀` for `A Y = B` with
/// `A = H − λ I + iω I`, given the known eigenpairs `(energies, psi)`.
/// `Y₀` is linear in `B`: it is [`galerkin_guess_real`] of `Re B` plus
/// `i·` that of `Im B`, and the second term is skipped when `Im B` is
/// zero, so a real-valued `B` gets the real guess's bits.
pub fn galerkin_guess(
    psi: &Mat<f64>,
    energies: &[f64],
    lambda: f64,
    omega: f64,
    b: &Mat<C64>,
) -> Mat<C64> {
    let (n, w) = b.shape();
    with_thread_workspace(|ws| {
        let mut part = ws.take_scratch(n, w);
        let mut g = ws.take_scratch(n, 2 * w);
        let mut has_im = false;
        for (p, z) in part.as_mut_slice().iter_mut().zip(b.as_slice()) {
            *p = z.re;
            has_im |= !exactly_zero(z.im);
        }
        galerkin_guess_real(psi, energies, lambda, omega, &part, &mut g);
        let (re, im) = g.as_slice().split_at(n * w);
        let y = re.iter().zip(im).map(|(&r, &i)| C64::new(r, i)).collect();
        let mut y = Mat::from_col_major(n, w, y);
        if has_im {
            for (p, z) in part.as_mut_slice().iter_mut().zip(b.as_slice()) {
                *p = z.im;
            }
            galerkin_guess_real(psi, energies, lambda, omega, &part, &mut g);
            // i·(p + iq) = −q + ip
            let (re, im) = g.as_slice().split_at(n * w);
            for ((v, &r), &i) in y.as_mut_slice().iter_mut().zip(re).zip(im) {
                *v += C64::new(-i, r);
            }
        }
        ws.give(g);
        ws.give(part);
        y
    })
}

/// [`galerkin_guess`] for real right-hand sides, in real arithmetic and
/// without allocating once the thread's pool is warm: `guess` is
/// `n × 2w` and receives `[Re Y₀ | Im Y₀]`. `ΨᵀB` sums each entry in row
/// order ([`matmul_tn_rowsum_into`]), the order the guess has always
/// summed in, so the pinned energies keep their bits.
pub fn galerkin_guess_real(
    psi: &Mat<f64>,
    energies: &[f64],
    lambda: f64,
    omega: f64,
    b: &Mat<f64>,
    guess: &mut Mat<f64>,
) {
    let (n_s, w) = (energies.len(), b.cols());
    assert_eq!(psi.cols(), n_s, "eigenpair count mismatch");
    assert_eq!(psi.rows(), b.rows(), "grid dimension mismatch");
    assert_eq!(guess.shape(), (b.rows(), 2 * w), "guess is not [Re | Im]");
    with_thread_workspace(|ws| {
        // C = ΨᵀB, then each row over (λ_m − λ + iω): [Re C | Im C]
        let mut c = ws.take_scratch(n_s, w);
        matmul_tn_rowsum_into(psi, b, &mut c);
        let mut scaled = ws.take_scratch(n_s, 2 * w);
        for j in 0..w {
            for m in 0..n_s {
                let z = C64::new(c[(m, j)], 0.0) / C64::new(energies[m] - lambda, omega);
                scaled[(m, j)] = z.re;
                scaled[(m, w + j)] = z.im;
            }
        }
        matmul_into(1.0, psi, &scaled, 0.0, guess);
        ws.give(scaled);
        ws.give(c);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::rand_rhs;
    use mbrpa_linalg::{matmul, matmul_tn, symmetric_eig};

    fn random_symmetric(n: usize, seed: u64) -> Mat<f64> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let g = Mat::from_fn(n, n, |_, _| next());
        Mat::from_fn(n, n, |i, j| 0.5 * (g[(i, j)] + g[(j, i)]))
    }

    /// residual ‖B − A·Y‖_F with A = H − λ + iω built densely
    fn residual(h: &Mat<f64>, lambda: f64, omega: f64, b: &Mat<C64>, y: &Mat<C64>) -> f64 {
        let n = h.rows();
        let a = Mat::from_fn(n, n, |i, j| {
            let mut z = C64::new(h[(i, j)], 0.0);
            if i == j {
                z += C64::new(-lambda, omega);
            }
            z
        });
        let mut r = matmul(&a, y);
        r.axpy(-C64::new(1.0, 0.0), b);
        r.fro_norm()
    }

    #[test]
    fn full_basis_gives_exact_solution() {
        let n = 14;
        let h = random_symmetric(n, 3);
        let eig = symmetric_eig(&h).unwrap();
        let b = rand_rhs(n, 2, 4);
        let (lam, om) = (eig.values[2], 0.3);
        let y0 = galerkin_guess(&eig.vectors, &eig.values, lam, om, &b);
        let r = residual(&h, lam, om, &b, &y0);
        assert!(r < 1e-10, "full-basis Galerkin must be exact, r = {r}");
    }

    #[test]
    fn partial_basis_reduces_residual() {
        let n = 30;
        let h = random_symmetric(n, 7);
        let eig = symmetric_eig(&h).unwrap();
        let n_s = 8;
        let psi = eig.vectors.columns(0, n_s);
        let b = rand_rhs(n, 3, 8);
        let (lam, om) = (eig.values[n_s - 1], 0.05);
        let y0 = galerkin_guess(&psi, &eig.values[..n_s], lam, om, &b);
        let r_guess = residual(&h, lam, om, &b, &y0);
        let r_zero = b.fro_norm();
        assert!(
            r_guess < r_zero,
            "Galerkin guess must beat zero: {r_guess} vs {r_zero}"
        );
    }

    #[test]
    fn guess_deflates_projected_directions() {
        // the residual of the guess is orthogonal to the known eigenvectors
        let n = 20;
        let h = random_symmetric(n, 11);
        let eig = symmetric_eig(&h).unwrap();
        let n_s = 5;
        let psi = eig.vectors.columns(0, n_s);
        let b = rand_rhs(n, 2, 12);
        let (lam, om) = (eig.values[1], 0.2);
        let y0 = galerkin_guess(&psi, &eig.values[..n_s], lam, om, &b);
        // r = B − A·Y₀ ; check Ψᵀ r ≈ 0
        let a = Mat::from_fn(n, n, |i, j| {
            let mut z = C64::new(h[(i, j)], 0.0);
            if i == j {
                z += C64::new(-lam, om);
            }
            z
        });
        let mut r = matmul(&a, &y0);
        r.axpy(-C64::new(1.0, 0.0), &b);
        r.scale_assign(C64::new(-1.0, 0.0));
        for part in [r.map(|z| z.re), r.map(|z| z.im)] {
            let proj = matmul_tn(&psi, &part);
            assert!(
                proj.max_abs() < 1e-10,
                "residual must be deflated: {}",
                proj.max_abs()
            );
        }
    }

    #[test]
    fn guess_dimensions() {
        let psi = Mat::<f64>::zeros(10, 3);
        let b = Mat::<C64>::zeros(10, 4);
        let y0 = galerkin_guess(&psi, &[0.0; 3], 0.1, 0.2, &b);
        assert_eq!(y0.shape(), (10, 4));
        assert_eq!(y0.fro_norm(), 0.0);
    }
}
