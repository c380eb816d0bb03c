//! Three-dimensional finite-difference grid descriptor.

/// Boundary condition of the computational domain.
///
/// The paper's real-space formulation highlights that finite differences
/// handle both periodic (crystals, Γ-point) and Dirichlet (molecules, wires,
/// surfaces) boundary conditions naturally; both are supported throughout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Boundary {
    /// Wrap-around topology (Γ-point crystal calculations).
    Periodic,
    /// Zero-value boundary (isolated systems).
    Dirichlet,
}

/// A uniform 3-D grid of `nx × ny × nz` points with spacings `hx, hy, hz`
/// (in Bohr) and a single boundary condition on all faces.
///
/// Linearization is x-fastest: `index = i + nx·(j + ny·k)`, so x-lines are
/// contiguous — the stencil kernels and Kronecker contractions rely on this.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Grid3 {
    /// Points along x.
    pub nx: usize,
    /// Points along y.
    pub ny: usize,
    /// Points along z.
    pub nz: usize,
    /// Spacing along x (Bohr).
    pub hx: f64,
    /// Spacing along y (Bohr).
    pub hy: f64,
    /// Spacing along z (Bohr).
    pub hz: f64,
    /// Boundary condition.
    pub bc: Boundary,
}

impl Grid3 {
    /// Cubic grid with uniform spacing.
    // lint: allow(unreached_pub) — builds the grids of the benches, examples and tests
    pub fn cubic(n: usize, h: f64, bc: Boundary) -> Self {
        Self {
            nx: n,
            ny: n,
            nz: n,
            hx: h,
            hy: h,
            hz: h,
            bc,
        }
    }

    /// General anisotropic grid.
    pub fn new(dims: (usize, usize, usize), h: (f64, f64, f64), bc: Boundary) -> Self {
        Self {
            nx: dims.0,
            ny: dims.1,
            nz: dims.2,
            hx: h.0,
            hy: h.1,
            hz: h.2,
            bc,
        }
    }

    /// Total number of grid points `n_d`.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// True when the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear index of point `(i, j, k)`.
    #[inline(always)]
    pub fn index(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        i + self.nx * (j + self.ny * k)
    }

    /// Inverse of [`Grid3::index`].
    #[inline(always)]
    pub fn coords(&self, idx: usize) -> (usize, usize, usize) {
        let i = idx % self.nx;
        let j = (idx / self.nx) % self.ny;
        let k = idx / (self.nx * self.ny);
        (i, j, k)
    }

    /// Physical position (Bohr) of point `(i, j, k)` with the origin at the
    /// domain corner.
    #[inline]
    pub fn position(&self, i: usize, j: usize, k: usize) -> (f64, f64, f64) {
        (i as f64 * self.hx, j as f64 * self.hy, k as f64 * self.hz)
    }

    /// Domain edge lengths (Bohr). For periodic grids the cell length is
    /// `n·h`; for Dirichlet the points span `(n+1)` intervals with the
    /// boundary values pinned to zero just outside.
    pub fn lengths(&self) -> (f64, f64, f64) {
        match self.bc {
            Boundary::Periodic => (
                self.nx as f64 * self.hx,
                self.ny as f64 * self.hy,
                self.nz as f64 * self.hz,
            ),
            Boundary::Dirichlet => (
                (self.nx + 1) as f64 * self.hx,
                (self.ny + 1) as f64 * self.hy,
                (self.nz + 1) as f64 * self.hz,
            ),
        }
    }

    /// Minimum image displacement along one axis for periodic grids.
    #[inline]
    pub fn min_image(&self, d: f64, axis_len: f64) -> f64 {
        match self.bc {
            Boundary::Periodic => {
                let mut x = d % axis_len;
                if x > 0.5 * axis_len {
                    x -= axis_len;
                } else if x < -0.5 * axis_len {
                    x += axis_len;
                }
                x
            }
            Boundary::Dirichlet => d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        let g = Grid3::new((3, 4, 5), (0.5, 0.5, 0.5), Boundary::Periodic);
        assert_eq!(g.len(), 60);
        for idx in 0..g.len() {
            let (i, j, k) = g.coords(idx);
            assert_eq!(g.index(i, j, k), idx);
        }
    }

    #[test]
    fn x_is_fastest() {
        let g = Grid3::cubic(4, 1.0, Boundary::Periodic);
        assert_eq!(g.index(1, 0, 0), g.index(0, 0, 0) + 1);
        assert_eq!(g.index(0, 1, 0), g.index(0, 0, 0) + 4);
        assert_eq!(g.index(0, 0, 1), g.index(0, 0, 0) + 16);
    }

    #[test]
    fn lengths_and_volume() {
        let g = Grid3::cubic(10, 0.69, Boundary::Periodic);
        let (lx, _, _) = g.lengths();
        assert!((lx - 6.9).abs() < 1e-12);
        let gd = Grid3::cubic(9, 0.5, Boundary::Dirichlet);
        assert!((gd.lengths().0 - 5.0).abs() < 1e-12);
    }

    #[test]
    fn min_image_wraps_periodic_only() {
        let g = Grid3::cubic(10, 1.0, Boundary::Periodic);
        assert!((g.min_image(9.0, 10.0) + 1.0).abs() < 1e-12);
        assert!((g.min_image(-7.0, 10.0) - 3.0).abs() < 1e-12);
        let gd = Grid3::cubic(10, 1.0, Boundary::Dirichlet);
        assert_eq!(gd.min_image(9.0, 10.0), 9.0);
    }
}
