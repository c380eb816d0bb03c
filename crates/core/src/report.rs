//! Human-readable reports mirroring the paper's artifact output files
//! (`Si8.out`): a parallelization preamble, per-frequency iteration tables,
//! per-frequency energy terms, and the final energy and walltime.

use crate::config::RpaConfig;
use crate::rpa::{PartialRun, RpaResult};
use crate::subspace::{positive_ritz, POSITIVE_RITZ_FLOOR};
use mbrpa_dft::Hamiltonian;
use std::fmt::Write as _;

const RULE: &str =
    "***************************************************************************************";

/// What the `SYSTEM:` line states about the non-local term: the form its
/// projectors are held in (which kernel every apply runs) and their
/// support points per grid point, or `none`.
pub fn projector_note(ham: &Hamiltonian) -> String {
    ham.nonlocal().map_or_else(
        || "none".to_string(),
        |nl| format!("{} (nnz/n_d = {:.2})", nl.form().name(), nl.nnz_per_point()),
    )
}

/// The preamble block echoing the run parameters (the paper's output files
/// begin with the same information); `projectors` is [`projector_note`].
pub fn preamble(
    config: &RpaConfig,
    n_d: usize,
    n_s: usize,
    n_atoms: usize,
    projectors: &str,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{RULE}");
    let _ = writeln!(s, "                    RPA Parallelization");
    let _ = writeln!(s, "{RULE}");
    let _ = writeln!(s, "NP_NUCHI_EIGS_PARAL_RPA: {}", config.n_workers);
    let _ = writeln!(s, "N_NUCHI_EIGS: {}", config.n_eig);
    let _ = writeln!(s, "N_OMEGA: {}", config.n_omega);
    let tols: Vec<String> = (0..config.n_omega)
        .map(|k| format!("{:.0e}", config.tol_eig_at(k)))
        .collect();
    let _ = writeln!(s, "TOL_EIG: {}", tols.join(" "));
    let _ = writeln!(s, "TOL_STERN_RES: {:.0e}", config.tol_sternheimer);
    let _ = writeln!(s, "MAXIT_FILTERING: {}", config.max_filter_iters);
    let _ = writeln!(s, "CHEB_DEGREE_RPA: {}", config.cheb_degree);
    let _ = writeln!(
        s,
        "FLAG_COCGINITIAL: {}",
        u8::from(config.use_galerkin_guess)
    );
    let _ = writeln!(
        s,
        "SYSTEM: n_d = {n_d}, n_s = {n_s}, atoms = {n_atoms}, projectors = {projectors}"
    );
    s
}

/// Full per-frequency report (the `ncheb | ErpaTerm | eigs | error |
/// timing` tables of the sample output). Under a table whose last error
/// missed `TOL_EIG` stands a `not converged` line, and under one with
/// Ritz values above the noise floor of [`positive_ritz`] a line naming
/// what `ErpaTerm` clamped to zero.
pub fn omega_tables(config: &RpaConfig, result: &RpaResult) -> String {
    let mut s = String::new();
    for (k, rep) in result.per_omega.iter().enumerate() {
        let _ = writeln!(s, "{RULE}");
        let _ = writeln!(
            s,
            "omega {} (value {:.3}, 0~1 value {:.3}, weight {:.3})",
            k + 1,
            rep.omega,
            rep.unit_node,
            rep.weight / (2.0 * std::f64::consts::PI),
        );
        let _ = writeln!(
            s,
            "ncheb | ErpaTerm (Ha/atom) | First 2 eigs & Last 2 eigs of nu chi0 | eig Error | Timing (s)"
        );
        for row in &rep.history {
            let _ = writeln!(
                s,
                "  {:>2}    {:>10.3E}    {:>9.5} {:>9.5} ; {:>9.5} {:>9.5}  {:>9.3E}  {:>8.2}",
                row.ncheb,
                row.energy_term / result.n_atoms as f64,
                row.edge_eigs[0],
                row.edge_eigs[1],
                row.edge_eigs[2],
                row.edge_eigs[3],
                row.error,
                row.elapsed.as_secs_f64(),
            );
        }
        if !rep.converged {
            let _ = writeln!(
                s,
                "  not converged: eig Error {:.3E} above TOL_EIG {:.0e} after {} filter rounds",
                rep.error,
                config.tol_eig_at(k),
                rep.filter_rounds,
            );
        }
        if let Some((count, largest)) = positive_ritz(&rep.eigenvalues) {
            let _ = writeln!(
                s,
                "  positive Ritz values: {count} above the noise floor {POSITIVE_RITZ_FLOOR:.0e}·|mu_min|, \
                 largest {largest:.5}, taken as 0 in ErpaTerm",
            );
        }
    }
    s
}

/// The closing energy summary.
pub fn energy_summary(result: &RpaResult) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{RULE}");
    let _ = writeln!(s, "Energy terms in every omega (Ha)");
    for (k, rep) in result.per_omega.iter().enumerate() {
        let _ = writeln!(s, "omega {}: {:.5E},", k + 1, rep.contribution);
    }
    let _ = writeln!(
        s,
        "Total RPA correlation energy: {:.5E} (Ha), {:.5E} (Ha/atom)",
        result.total_energy, result.energy_per_atom
    );
    let missed = result.per_omega.iter().filter(|rep| !rep.converged).count();
    if missed > 0 {
        let _ = writeln!(
            s,
            "Not converged: {missed} of {} frequencies missed TOL_EIG, so the energy is not converged",
            result.per_omega.len()
        );
    }
    if result.n_restored > 0 {
        let _ = writeln!(
            s,
            "Checkpoint restart: {} of {} frequencies restored, {} computed this run",
            result.n_restored,
            result.per_omega.len(),
            result.per_omega.len() - result.n_restored
        );
    }
    let _ = writeln!(s, "{RULE}");
    let _ = writeln!(s, "                        Timing info");
    let _ = writeln!(s, "{RULE}");
    let t = &result.timings;
    let _ = writeln!(s, "nu chi0 nu      : {:>10.3} sec", t.apply.as_secs_f64());
    let _ = writeln!(s, "matmult         : {:>10.3} sec", t.matmult.as_secs_f64());
    let _ = writeln!(
        s,
        "eigensolve      : {:>10.3} sec",
        t.eigensolve.as_secs_f64()
    );
    let _ = writeln!(
        s,
        "eval error      : {:>10.3} sec",
        t.eval_error.as_secs_f64()
    );
    let _ = writeln!(
        s,
        "Total walltime  : {:>10.3} sec",
        result.wall_time.as_secs_f64()
    );
    s
}

/// Dynamic block-size frequency table (Table IV shape).
pub fn block_size_table(result: &RpaResult) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Block size | Count | Fraction");
    let hist = &result.solver_stats.block_sizes;
    for (size, count) in hist.iter() {
        let _ = writeln!(
            s,
            "{size:>10} | {count:>6} | {:>7.3}%",
            100.0 * hist.fraction(size)
        );
    }
    s
}

/// Per-worker Sternheimer load profile (the §III-D imbalance view). A
/// worker is a column range: its orbitals run on whichever thread is
/// free, so a row is the solve time of the range, not of a thread.
pub fn worker_load_table(result: &RpaResult) -> String {
    let mut s = String::new();
    if result.worker_load.len() <= 1 {
        return s;
    }
    let loads: Vec<f64> = result.worker_load.iter().map(|d| d.as_secs_f64()).collect();
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    let max = loads.iter().cloned().fold(0.0, f64::max);
    let _ = writeln!(
        s,
        "Worker | Sternheimer time (s) per column range, its orbitals on any thread"
    );
    for (w, t) in loads.iter().enumerate() {
        let _ = writeln!(s, "{w:>6} | {t:>10.3}");
    }
    let _ = writeln!(
        s,
        "load imbalance (max/mean): {:.3}",
        if mean > 0.0 { max / mean } else { 1.0 }
    );
    s
}

/// The complete output document.
pub fn full_report(config: &RpaConfig, result: &RpaResult) -> String {
    let mut s = preamble(
        config,
        result.n_d,
        result.n_s,
        result.n_atoms,
        &result.projectors,
    );
    s.push_str(&omega_tables(config, result));
    s.push_str(&energy_summary(result));
    s.push_str(&block_size_table(result));
    s.push_str(&worker_load_table(result));
    s
}

/// Summary document for a cancelled run: the completed frequencies and
/// the running (not final) energy accumulator, clearly marked as partial
/// so the file is never mistaken for a finished `.out`.
pub fn partial_report(
    config: &RpaConfig,
    partial: &PartialRun,
    n_d: usize,
    n_s: usize,
    n_atoms: usize,
    projectors: &str,
) -> String {
    let mut s = preamble(config, n_d, n_s, n_atoms, projectors);
    let _ = writeln!(s, "{RULE}");
    let _ = writeln!(
        s,
        "RUN CANCELLED after {} of {} quadrature frequencies",
        partial.completed, partial.n_omega
    );
    let _ = writeln!(s, "Energy terms in every completed omega (Ha)");
    for (k, rep) in partial.per_omega.iter().enumerate() {
        let _ = writeln!(s, "omega {}: {:.5E},", k + 1, rep.contribution);
    }
    let _ = writeln!(
        s,
        "Accumulated (PARTIAL, not the final energy): {:.5E} (Ha), {:.5E} (Ha/atom)",
        partial.accumulated_energy,
        partial.accumulated_energy / n_atoms as f64
    );
    let _ = writeln!(s, "{RULE}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subspace::{SubspaceIterRecord, SubspaceTimings};
    use mbrpa_solver::WorkerStats;
    use std::time::Duration;

    fn fake_result() -> RpaResult {
        let mut stats = WorkerStats::new();
        stats.block_sizes.record(1, 3);
        stats.block_sizes.record(2, 9);
        RpaResult {
            total_energy: -1.70447,
            energy_per_atom: -0.213059,
            per_omega: vec![crate::rpa::OmegaReport {
                omega: 49.365,
                weight: 128.4,
                unit_node: 0.020,
                energy_term: -0.00373,
                contribution: -5.93784e-4,
                filter_rounds: 1,
                error: 3.7e-4,
                converged: true,
                eigenvalues: vec![-0.0119, -0.0112, -0.0030, -0.0025],
                timings: SubspaceTimings::default(),
                history: vec![SubspaceIterRecord {
                    ncheb: 0,
                    energy_term: -0.0037,
                    error: 3.7e-4,
                    edge_eigs: [-0.0119, -0.0112, -0.0030, -0.0025],
                    elapsed: Duration::from_millis(5140),
                }],
            }],
            timings: SubspaceTimings::default(),
            solver_stats: stats,
            worker_load: vec![Duration::from_secs(30), Duration::from_secs(40)],
            wall_time: Duration::from_secs_f64(73.856),
            n_d: 3375,
            n_s: 16,
            n_eig: 768,
            n_atoms: 8,
            projectors: "dense (nnz/n_d = 5.55)".to_string(),
            n_restored: 0,
        }
    }

    #[test]
    fn preamble_echoes_parameters() {
        let config = crate::config::RpaConfig::for_system(8, 96);
        let s = preamble(&config, 3375, 16, 8, "sparse (nnz/n_d = 4.53)");
        assert!(s.contains("SYSTEM: n_d = 3375, n_s = 16, atoms = 8, projectors = sparse"));
        assert!(s.contains("N_NUCHI_EIGS: 768"));
        assert!(s.contains("N_OMEGA: 8"));
        assert!(s.contains("TOL_STERN_RES: 1e-2"));
        assert!(s.contains("CHEB_DEGREE_RPA: 2"));
        assert!(s.contains("FLAG_COCGINITIAL: 1"));
    }

    #[test]
    fn tables_and_summary_render() {
        let r = fake_result();
        let t = omega_tables(&crate::config::RpaConfig::for_system(8, 96), &r);
        assert!(t.contains("omega 1"));
        assert!(t.contains("ncheb"));
        let e = energy_summary(&r);
        assert!(e.contains("Total RPA correlation energy"));
        assert!(e.contains("-1.70447E0"));
        let b = block_size_table(&r);
        assert!(b.contains("Block size"));
        assert!(b.contains("75.000%"));
    }

    #[test]
    fn energy_summary_mentions_restart_only_when_resumed() {
        let mut r = fake_result();
        assert!(!energy_summary(&r).contains("Checkpoint restart"));
        r.n_restored = 1;
        let e = energy_summary(&r);
        assert!(
            e.contains("Checkpoint restart: 1 of 1 frequencies restored, 0 computed this run"),
            "{e}"
        );
    }

    #[test]
    fn worker_load_table_renders_imbalance() {
        let r = fake_result();
        let t = worker_load_table(&r);
        assert!(t.contains("Worker"));
        // loads 30 s and 40 s → mean 35, max 40 → 1.143
        assert!(t.contains("1.143"), "{t}");
        // single-worker runs render nothing
        let mut single = fake_result();
        single.worker_load = vec![Duration::from_secs(30)];
        assert!(worker_load_table(&single).is_empty());
    }

    #[test]
    fn partial_report_marks_cancellation() {
        let config = crate::config::RpaConfig::for_system(8, 96);
        let r = fake_result();
        let partial = PartialRun {
            completed: 1,
            n_omega: 8,
            warm_start: mbrpa_linalg::Mat::zeros(0, 0),
            accumulated_energy: -5.93784e-4,
            per_omega: r.per_omega.clone(),
        };
        let doc = partial_report(&config, &partial, 3375, 16, 8, "none");
        assert!(doc.contains("RUN CANCELLED after 1 of 8"));
        assert!(doc.contains("PARTIAL, not the final energy"));
        assert!(doc.contains("omega 1: -5.93784E-4,"));
        assert!(!doc.contains("Total RPA correlation energy"));
    }

    #[test]
    fn full_report_concatenates_sections() {
        let config = crate::config::RpaConfig::for_system(8, 96);
        let r = fake_result();
        let doc = full_report(&config, &r);
        assert!(doc.contains("RPA Parallelization"));
        assert!(doc.contains("Timing info"));
        assert!(doc.contains("Block size"));
    }
}
