//! Residual convergence curves: block COCG (s = 1, 2, 4) vs restarted
//! GMRES on an easy and a hard Sternheimer system — the per-iteration view
//! behind the §III-B discussion (COCG's non-monotone residuals with no
//! optimality property vs GMRES's monotone but increasingly expensive
//! iterations). Prints CSV series suitable for plotting.

use mbrpa_bench::gmres::{gmres, GmresOptions};
use mbrpa_bench::prepare_ladder_system;
use mbrpa_bench::qmr::{qmr_sym, QmrOptions};
use mbrpa_core::frequency_quadrature;
use mbrpa_dft::{SternheimerLinOp, SternheimerOperator};
use mbrpa_linalg::{Mat, C64};
use mbrpa_solver::{block_cocg, CocgOptions};

fn rhs(n: usize, s: usize, seed: u64) -> Mat<C64> {
    let mut state = seed | 1;
    Mat::from_fn(n, s, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let re = (state as f64 / u64::MAX as f64) - 0.5;
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        C64::new(re, (state as f64 / u64::MAX as f64) - 0.5)
    })
}

fn main() {
    let setup = prepare_ladder_system(1, 6);
    let n = setup.ham.dim();
    let n_s = setup.ks.n_occupied;
    let quad = frequency_quadrature(8);

    for (label, lambda, omega) in [
        ("easy_1_1", setup.ks.energies[0], quad[0].omega),
        ("hard_ns_l", setup.ks.energies[n_s - 1], quad[7].omega),
    ] {
        let op = SternheimerLinOp::new(SternheimerOperator::new(&setup.ham, lambda, omega));
        let mut series: Vec<(String, Vec<f64>)> = Vec::new();
        for s in [1usize, 2, 4] {
            let b = rhs(n, s, 5);
            let opts = CocgOptions {
                tol: 1e-8,
                max_iters: 3000,
                track_residuals: true,
            };
            let (_, rep) = block_cocg(&op, &b, None, &opts);
            series.push((format!("cocg_s{s}"), rep.residual_history));
        }
        let b1 = rhs(n, 1, 5);
        let (_, rep) = gmres(
            &op,
            b1.col(0),
            None,
            &GmresOptions {
                tol: 1e-8,
                restart: 100,
                max_matvecs: 20_000,
                track_residuals: true,
            },
        );
        series.push(("gmres_r100".into(), rep.residual_history));
        let (_, rep) = qmr_sym(
            &op,
            b1.col(0),
            None,
            &QmrOptions {
                tol: 1e-8,
                max_iters: 3000,
                track_residuals: true,
                ..QmrOptions::default()
            },
        );
        series.push(("qmr_sym".into(), rep.residual_history));

        println!("# {label}: omega = {omega:.4}, lambda_shift = {lambda:.4}");
        let longest = series.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
        print!("iter");
        for (name, _) in &series {
            print!(",{name}");
        }
        println!();
        for i in 0..longest {
            print!("{i}");
            for (_, v) in &series {
                match v.get(i) {
                    Some(r) => print!(",{r:.3e}"),
                    None => print!(","),
                }
            }
            println!();
        }
        println!();
        // headline: iterations to 1e-6
        eprint!("{label}: iterations to 1e-6 →");
        for (name, v) in &series {
            let k = v.iter().position(|&r| r < 1e-6);
            match k {
                Some(k) => eprint!("  {name}: {k}"),
                None => eprint!("  {name}: >{}", v.len()),
            }
        }
        eprintln!();
    }
}
