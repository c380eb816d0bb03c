//! One-shot artifact driver: runs every table/figure harness in sequence
//! and writes their outputs under `results/`.
//!
//! ```text
//! cargo run --release -p mbrpa-bench --bin reproduce_all [-- --cells N --threads N --paper-scale]
//! ```
//!
//! Each harness is an independent binary; this driver simply shells out to
//! the already-built siblings so a single command regenerates the full
//! evaluation (EXPERIMENTS.md documents the expected shapes).

use std::path::Path;
use std::process::Command;

const HARNESSES: &[(&str, &[&str])] = &[
    ("table2_quadrature", &[]),
    ("table3_systems", &[]),
    ("fig1_spectrum", &[]),
    ("fig2_warmstart_overlap", &[]),
    ("fig3_tolerance_sweep", &[]),
    ("table4_block_sizes", &["--cells", "2"]),
    ("fig4_strong_scaling", &["--cells", "2"]),
    ("fig5_kernel_breakdown", &["--cells", "2"]),
    ("fig6_complexity", &["--cells", "3"]),
    ("direct_vs_iterative", &["--cells", "2"]),
    ("quadrature_convergence", &[]),
    ("mesh_convergence", &[]),
    ("solver_convergence_curves", &[]),
    ("future_work", &[]),
];

fn main() {
    // checked once here, then forwarded to every harness (the ones that
    // parse no flags ignore them)
    let mut extra: Vec<String> = Vec::new();
    mbrpa::cli::parse_args(mbrpa_bench::USAGE, |flag, args| {
        extra.push(format!("-{flag}"));
        match flag {
            "-paper-scale" => {}
            "-cells" | "-threads" => extra.push(args.count::<usize>()?.to_string()),
            _ => return Err(args.unknown()),
        }
        Ok(())
    });
    std::fs::create_dir_all("results").expect("create results dir");
    let self_path = std::env::current_exe().expect("own path");
    let bin_dir = self_path.parent().expect("bin dir");

    let mut failures = Vec::new();
    for (name, default_args) in HARNESSES {
        let exe = bin_dir.join(name);
        if !Path::new(&exe).exists() {
            eprintln!("skipping {name}: binary not built (run `cargo build --release -p mbrpa-bench --bins`)");
            failures.push(*name);
            continue;
        }
        println!("==> {name}");
        let out_path = format!("results/{name}.txt");
        let log_path = format!("results/{name}.log");
        let output = Command::new(&exe)
            .args(default_args.iter())
            .args(extra.iter())
            .output();
        match output {
            Ok(out) => {
                std::fs::write(&out_path, &out.stdout).expect("write stdout");
                std::fs::write(&log_path, &out.stderr).expect("write stderr");
                if out.status.success() {
                    println!("    wrote {out_path}");
                } else {
                    eprintln!(
                        "    FAILED (status {:?}); see {log_path}",
                        out.status.code()
                    );
                    failures.push(*name);
                }
            }
            Err(e) => {
                eprintln!("    FAILED to launch: {e}");
                failures.push(*name);
            }
        }
    }

    println!();
    if failures.is_empty() {
        println!("all harnesses completed; outputs in results/");
    } else {
        println!("completed with failures: {failures:?}");
        std::process::exit(1);
    }
}
