//! Chemical system builder: silicon-like crystals on real-space grids.
//!
//! The paper's experimental systems (Table III) are 8-atom diamond-cubic
//! silicon cells replicated 1–5× along one axis, with all atom positions
//! randomly perturbed as a fraction of the lattice constant, plus a vacancy
//! variant (Si₇) for the chemical-accuracy experiment of §IV-A. This module
//! reproduces that geometry on a configurable grid. The electron count
//! follows silicon: 4 valence electrons per atom, i.e. `n_s = 2·atoms`
//! doubly-occupied orbitals.

use mbrpa_grid::{Boundary, Grid3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fractional coordinates of the 8 atoms of a diamond-cubic conventional
/// cell.
pub const DIAMOND_CUBIC_FRACTIONS: [(f64, f64, f64); 8] = [
    (0.00, 0.00, 0.00),
    (0.50, 0.50, 0.00),
    (0.50, 0.00, 0.50),
    (0.00, 0.50, 0.50),
    (0.25, 0.25, 0.25),
    (0.75, 0.75, 0.25),
    (0.75, 0.25, 0.75),
    (0.25, 0.75, 0.75),
];

/// An atom at a position (Bohr) with a valence electron count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Atom {
    /// Position in Bohr.
    pub position: (f64, f64, f64),
    /// Valence electrons contributed (4 for the silicon-like species).
    pub valence: usize,
}

/// A crystal: a periodic grid plus atom sites.
#[derive(Clone, Debug)]
pub struct Crystal {
    /// The computational grid.
    pub grid: Grid3,
    /// Atom sites.
    pub atoms: Vec<Atom>,
    /// Human-readable label (e.g. `Si8`, `Si16`).
    pub label: String,
}

impl Crystal {
    /// Number of doubly-occupied Kohn–Sham orbitals, `n_s = electrons / 2`.
    pub fn n_occupied(&self) -> usize {
        let electrons: usize = self.atoms.iter().map(|a| a.valence).sum();
        assert!(
            electrons.is_multiple_of(2),
            "odd electron counts are not supported"
        );
        electrons / 2
    }

    /// Total grid points `n_d`.
    pub fn n_grid(&self) -> usize {
        self.grid.len()
    }
}

/// Parameters describing a silicon-like replicated-cell system.
///
/// ```
/// use mbrpa_dft::SiliconSpec;
/// // Table III's Si24: three replicated 8-atom cells
/// let crystal = SiliconSpec::paper_scale(3).build();
/// assert_eq!(crystal.atoms.len(), 24);
/// assert_eq!(crystal.n_occupied(), 48);
/// assert_eq!(crystal.n_grid(), 10125);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SiliconSpec {
    /// Grid points per conventional cell edge (the paper uses 15).
    pub points_per_cell: usize,
    /// Mesh spacing in Bohr (the paper uses 0.69).
    pub mesh: f64,
    /// Number of cells replicated along z (1–5 in the paper).
    pub cells_z: usize,
    /// Uniform random perturbation of atom positions as a fraction of the
    /// lattice constant (the paper perturbs all positions).
    pub perturbation: f64,
    /// RNG seed for the perturbation.
    pub seed: u64,
    /// Grid boundary condition: [`Boundary::Periodic`] for the paper's
    /// bulk crystals, [`Boundary::Dirichlet`] for isolated (hard-wall)
    /// clusters — the same atoms in a box instead of a lattice.
    pub boundary: Boundary,
}

impl Default for SiliconSpec {
    fn default() -> Self {
        Self {
            points_per_cell: 9,
            mesh: 0.69,
            cells_z: 1,
            perturbation: 0.02,
            seed: 7,
            boundary: Boundary::Periodic,
        }
    }
}

impl SiliconSpec {
    /// The paper's full-scale configuration (15³ points per cell).
    // lint: allow(unreached_pub) — the bench harnesses' `--paper-scale` shape and paper_scale_smoke
    pub fn paper_scale(cells_z: usize) -> Self {
        Self {
            points_per_cell: 15,
            cells_z,
            ..Self::default()
        }
    }

    /// Lattice constant implied by the grid (`points · mesh`).
    pub fn lattice_constant(&self) -> f64 {
        self.points_per_cell as f64 * self.mesh
    }

    /// Build the perturbed crystal (`Si_{8·cells_z}` analog).
    pub fn build(&self) -> Crystal {
        self.build_inner(None)
    }

    /// Build the vacancy crystal: same cell and perturbation but with atom
    /// `vacancy_index` removed (the paper's Si₇-from-Si₈ experiment).
    pub fn build_with_vacancy(&self, vacancy_index: usize) -> Crystal {
        self.build_inner(Some(vacancy_index))
    }

    fn build_inner(&self, vacancy: Option<usize>) -> Crystal {
        assert!(self.cells_z >= 1, "need at least one cell");
        assert!(self.points_per_cell >= 5, "grid too coarse");
        let a = self.lattice_constant();
        let n = self.points_per_cell;
        let grid = Grid3::new(
            (n, n, n * self.cells_z),
            (self.mesh, self.mesh, self.mesh),
            self.boundary,
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut atoms = Vec::with_capacity(8 * self.cells_z);
        let mut site_index = 0usize;
        for cell in 0..self.cells_z {
            for &(fx, fy, fz) in DIAMOND_CUBIC_FRACTIONS.iter() {
                // draw perturbations unconditionally so the vacancy system
                // shares the exact geometry of the pristine one
                let dx = rng.random_range(-1.0..1.0) * self.perturbation * a;
                let dy = rng.random_range(-1.0..1.0) * self.perturbation * a;
                let dz = rng.random_range(-1.0..1.0) * self.perturbation * a;
                if Some(site_index) != vacancy {
                    atoms.push(Atom {
                        position: (fx * a + dx, fy * a + dy, (fz + cell as f64) * a + dz),
                        valence: 4,
                    });
                }
                site_index += 1;
            }
        }
        let label = format!("Si{}", atoms.len());
        Crystal { grid, atoms, label }
    }
}

/// The Table III ladder: `Si8, Si16, …` with `cells_z = 1..=max_cells`.
// lint: allow(unreached_pub) — the Table III ladder of `table3_systems`
pub fn silicon_ladder(base: SiliconSpec, max_cells: usize) -> Vec<Crystal> {
    (1..=max_cells)
        .map(|c| SiliconSpec { cells_z: c, ..base }.build())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cell_counts() {
        let c = SiliconSpec::default().build();
        assert_eq!(c.atoms.len(), 8);
        assert_eq!(c.n_occupied(), 16);
        assert_eq!(c.n_grid(), 9 * 9 * 9);
        assert_eq!(c.label, "Si8");
    }

    #[test]
    fn replication_scales_everything() {
        let spec = SiliconSpec {
            cells_z: 3,
            ..SiliconSpec::default()
        };
        let c = spec.build();
        assert_eq!(c.atoms.len(), 24);
        assert_eq!(c.n_occupied(), 48);
        assert_eq!(c.grid.nz, 27);
        assert_eq!(c.label, "Si24");
    }

    #[test]
    fn paper_scale_matches_table_iii() {
        // Table III: Si8 has n_d = 3375 = 15³ and n_s = 16
        let c = SiliconSpec::paper_scale(1).build();
        assert_eq!(c.n_grid(), 3375);
        assert_eq!(c.n_occupied(), 16);
        let c5 = SiliconSpec::paper_scale(5).build();
        assert_eq!(c5.n_grid(), 16875);
        assert_eq!(c5.n_occupied(), 80);
    }

    #[test]
    fn perturbation_is_deterministic_and_bounded() {
        let spec = SiliconSpec {
            perturbation: 0.05,
            seed: 42,
            ..SiliconSpec::default()
        };
        let a = spec.lattice_constant();
        let c1 = spec.build();
        let c2 = spec.build();
        assert_eq!(c1.atoms, c2.atoms);
        for (atom, &(fx, fy, fz)) in c1.atoms.iter().zip(DIAMOND_CUBIC_FRACTIONS.iter()) {
            let (x, y, z) = atom.position;
            assert!((x - fx * a).abs() <= 0.05 * a + 1e-12);
            assert!((y - fy * a).abs() <= 0.05 * a + 1e-12);
            assert!((z - fz * a).abs() <= 0.05 * a + 1e-12);
        }
    }

    #[test]
    fn vacancy_removes_one_atom_keeps_geometry() {
        let spec = SiliconSpec {
            seed: 5,
            ..SiliconSpec::default()
        };
        let full = spec.build();
        let vac = spec.build_with_vacancy(3);
        assert_eq!(vac.atoms.len(), 7);
        assert_eq!(vac.label, "Si7");
        assert_eq!(vac.n_occupied(), 14);
        // every vacancy atom matches a pristine atom exactly
        for atom in &vac.atoms {
            assert!(full.atoms.contains(atom));
        }
        // and the removed one is the fourth site
        assert!(!vac.atoms.contains(&full.atoms[3]));
    }

    #[test]
    fn dirichlet_spec_builds_a_cluster() {
        let spec = SiliconSpec {
            boundary: Boundary::Dirichlet,
            ..SiliconSpec::default()
        };
        let c = spec.build();
        assert_eq!(c.grid.bc, Boundary::Dirichlet);
        // same atoms as the periodic system with the same seed
        let periodic = SiliconSpec::default().build();
        assert_eq!(c.atoms, periodic.atoms);
    }

    #[test]
    fn ladder_labels() {
        let ladder = silicon_ladder(SiliconSpec::default(), 3);
        let labels: Vec<_> = ladder.iter().map(|c| c.label.clone()).collect();
        assert_eq!(labels, vec!["Si8", "Si16", "Si24"]);
    }
}
