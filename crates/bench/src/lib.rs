//! Shared infrastructure for the figure/table regeneration harnesses.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §3 for the index). All harnesses default to a
//! laptop-scale system ladder (6³ grid points per 8-atom cell, 8
//! `νχ⁰`-eigenvalues per atom) and accept:
//!
//! * `--paper-scale` — the paper's 15³ points/cell and 96 eigs/atom
//!   (hours of runtime; intended for cluster-class machines),
//! * `--cells N` — ladder depth (default varies per harness),
//! * `--threads N` — rayon worker threads (defaults to all cores).
//!
//! The global pool is sized once per process, so a harness that sweeps
//! thread counts runs each point in a child process of its own binary
//! ([`HarnessOptions::sweep_point`] / [`HarnessOptions::answer_sweep_point`]).

#![warn(missing_docs)]

pub mod qmr;
pub mod rpa_lanczos;
pub mod seed;

use mbrpa_core::{KsSolver, RpaConfig, RpaSetup};
use mbrpa_dft::{ChefsiOptions, PotentialParams, SiliconSpec};
use std::process::{Command, Stdio};

/// The options every harness that parses its command line takes.
pub const USAGE: &str = "\
usage: <harness> [--paper-scale] [--cells N] [--threads N]
  --paper-scale  the paper's 15^3 points/cell and 96 eigs/atom (hours)
  --cells N      ladder depth (default varies per harness)
  --threads N    rayon worker threads (default: all cores)";

/// Parsed common command-line options.
#[derive(Clone, Copy, Debug)]
pub struct HarnessOptions {
    /// Use the paper's full-scale parameters.
    pub paper_scale: bool,
    /// Override the cell count.
    pub cells: Option<usize>,
    /// Override the rayon thread count.
    pub threads: Option<usize>,
    /// This process is one point of a thread sweep (`--child`).
    pub child: bool,
}

impl HarnessOptions {
    /// Parse the process's command line through [`mbrpa::cli`]; a bad
    /// flag exits 1 with its message and [`USAGE`].
    pub fn from_args() -> Self {
        let mut opts = Self {
            paper_scale: false,
            cells: None,
            threads: None,
            child: false,
        };
        mbrpa::cli::parse_args(USAGE, |flag, args| {
            match flag {
                "-paper-scale" => opts.paper_scale = true,
                "-cells" => opts.cells = Some(args.count()?),
                "-threads" => opts.threads = Some(args.count()?),
                "-child" => opts.child = true,
                _ => return Err(args.unknown()),
            }
            Ok(())
        });
        opts
    }

    /// Worker threads for this run: `--threads`, else every core the
    /// machine offers (4 when it cannot say).
    pub fn max_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
    }

    /// The doubling thread sweep `1, 2, 4, …` up to [`Self::max_threads`].
    pub fn thread_counts(&self) -> Vec<usize> {
        let max = self.max_threads();
        std::iter::successors(Some(1), |t| Some(t * 2))
            .take_while(|&t| t <= max)
            .collect()
    }

    /// Grid points per cell for this run.
    pub fn points_per_cell(&self) -> usize {
        if self.paper_scale {
            15
        } else {
            6
        }
    }

    /// `νχ⁰` eigenvalues per atom for this run.
    pub fn eig_per_atom(&self) -> usize {
        if self.paper_scale {
            96
        } else {
            8
        }
    }

    /// Runs one point of a thread sweep, `cells` cells on `threads`
    /// threads, in a child process of this binary and returns the numbers
    /// its [`HarnessOptions::answer_sweep_point`] printed.
    pub fn sweep_point(&self, threads: usize, cells: usize) -> Vec<f64> {
        let exe = std::env::current_exe().expect("own executable path");
        let mut child = Command::new(exe);
        child.args(["--child", "--threads", &threads.to_string()]);
        child.args(["--cells", &cells.to_string()]);
        if self.paper_scale {
            child.arg("--paper-scale");
        }
        let out = child
            .stderr(Stdio::inherit())
            .output()
            .expect("spawn sweep child");
        assert!(out.status.success(), "sweep child failed: {}", out.status);
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text.lines().last().unwrap_or_default();
        line.split_whitespace()
            .map(|v| v.parse().expect("sweep child prints numbers"))
            .collect()
    }

    /// In a sweep child (`--child`): sizes the global pool from
    /// `--threads`, prepares the ladder system of `--cells`, prints what
    /// `point` returns for it as one line, and returns true. Otherwise
    /// returns false and runs nothing.
    pub fn answer_sweep_point(
        &self,
        point: impl FnOnce(&RpaSetup, &RpaConfig) -> Vec<f64>,
    ) -> bool {
        if !self.child {
            return false;
        }
        let threads = self.threads.unwrap_or(1);
        mbrpa::init_runtime(Some(threads)).expect("runtime start-up");
        let setup = prepare_ladder_system(self.cells.unwrap_or(1), self.points_per_cell());
        let config = ladder_config(setup.crystal.atoms.len(), self.eig_per_atom(), threads);
        let values: Vec<String> = point(&setup, &config).iter().map(f64::to_string).collect();
        println!("{}", values.join(" "));
        true
    }
}

/// The crystal spec of the scaled Table III ladder entry with `cells`
/// replicated cells.
pub fn ladder_spec(cells: usize, points_per_cell: usize) -> SiliconSpec {
    SiliconSpec {
        points_per_cell,
        cells_z: cells,
        perturbation: 0.02,
        seed: 7,
        ..SiliconSpec::default()
    }
}

/// Prepare the full RPA setup (KS stage included) for a ladder entry.
/// Small systems use the dense KS path (exact); larger ones CheFSI.
pub fn prepare_ladder_system(cells: usize, points_per_cell: usize) -> RpaSetup {
    let crystal = ladder_spec(cells, points_per_cell).build();
    let n_d = crystal.n_grid();
    let solver = if n_d <= 1000 {
        KsSolver::Dense { extra: 4 }
    } else {
        KsSolver::Chefsi(ChefsiOptions {
            tol: 1e-8,
            ..ChefsiOptions::default()
        })
    };
    RpaSetup::prepare(crystal, &PotentialParams::default(), 2, solver)
        .expect("KS preparation failed")
}

/// Table-I-style configuration for a ladder system.
pub fn ladder_config(atoms: usize, eig_per_atom: usize, workers: usize) -> RpaConfig {
    RpaConfig {
        n_eig: atoms * eig_per_atom,
        n_workers: workers.max(1).min(atoms * eig_per_atom),
        ..RpaConfig::default()
    }
}

/// Least-squares slope of `ln y` vs `ln x` (complexity exponent fits).
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (sx, sy, sxx, sxy) = points.iter().fold((0.0, 0.0, 0.0, 0.0), |acc, &(x, y)| {
        let (lx, ly) = (x.ln(), y.ln());
        (acc.0 + lx, acc.1 + ly, acc.2 + lx * lx, acc.3 + lx * ly)
    });
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Markdown-ish table printer used by all harnesses.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(widths.iter())
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loglog_slope_recovers_cubic() {
        let pts: Vec<(f64, f64)> = (1..6)
            .map(|i| {
                let x = i as f64 * 100.0;
                (x, 2.5 * x.powi(3))
            })
            .collect();
        let slope = loglog_slope(&pts);
        assert!((slope - 3.0).abs() < 1e-10);
    }

    #[test]
    fn ladder_spec_scales() {
        let s = ladder_spec(3, 6);
        let c = s.build();
        assert_eq!(c.atoms.len(), 24);
        assert_eq!(c.n_grid(), 6 * 6 * 18);
    }

    #[test]
    fn harness_defaults() {
        let o = HarnessOptions {
            paper_scale: false,
            cells: None,
            threads: None,
            child: false,
        };
        assert_eq!(o.points_per_cell(), 6);
        assert_eq!(o.eig_per_atom(), 8);
        let p = HarnessOptions {
            paper_scale: true,
            ..o
        };
        assert_eq!(p.points_per_cell(), 15);
        assert_eq!(p.eig_per_atom(), 96);
        let six = HarnessOptions {
            threads: Some(6),
            ..o
        };
        assert_eq!((six.max_threads(), six.thread_counts()), (6, vec![1, 2, 4]));
    }
}
