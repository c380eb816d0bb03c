//! `.rpa` input-file parser, mirroring the paper's artifact input format.
//!
//! The artifact drives its `rpacalc` binary with files like `Si8.rpa`:
//!
//! ```text
//! N_NUCHI_EIGS: 768
//! N_OMEGA: 8
//! TOL_EIG: 4e-3 2e-3 5e-4 5e-4 5e-4 5e-4 5e-4 5e-4
//! TOL_STERN_RES: 1e-2
//! MAXIT_FILTERING: 10
//! CHEB_DEGREE_RPA: 2
//! FLAG_PQ_OPERATOR: 0
//! FLAG_COCGINITIAL: 1
//! ```
//!
//! The same keys are accepted here, plus system-definition keys our
//! substitution needs (the artifact reads precomputed SPARC outputs
//! instead; see DESIGN.md): `CELLS_Z`, `POINTS_PER_CELL`, `MESH`,
//! `PERTURBATION`, `SEED`, `NP`, `BLOCK_POLICY`, `VACANCY`, `BOUNDARY`.

use crate::chi0::WorkDistribution;
use crate::config::RpaConfig;
use mbrpa_dft::SiliconSpec;
use mbrpa_grid::Boundary;
use mbrpa_solver::BlockPolicy;
use std::fmt;

/// A parsed `.rpa` input: solver configuration plus system definition.
#[derive(Clone, Debug)]
pub struct RpaInput {
    /// RPA driver configuration.
    pub config: RpaConfig,
    /// System specification.
    pub system: SiliconSpec,
    /// Optional vacancy site index (the Si₇ experiments).
    pub vacancy: Option<usize>,
    /// Keys that were recognized but intentionally ignored (artifact
    /// compatibility, e.g. `FLAG_PQ_OPERATOR`).
    pub ignored_keys: Vec<String>,
}

impl RpaInput {
    /// Can this input run? What a front end asks right after the parse, so
    /// an unsatisfiable input costs nothing and panics nowhere: the system
    /// rules, [`RpaConfig::check`] against the grid it asks for, and the
    /// vacancy site.
    pub fn check(&self) -> Result<(), String> {
        let spec = &self.system;
        if spec.cells_z < 1 {
            return Err("CELLS_Z must be at least 1".to_string());
        }
        if spec.points_per_cell < 5 {
            return Err("POINTS_PER_CELL must be at least 5".to_string());
        }
        if !(spec.mesh.is_finite() && spec.mesh > 0.0) {
            return Err("MESH must be a positive number".to_string());
        }
        self.config
            .check(spec.points_per_cell.pow(3) * spec.cells_z)?;
        match self.vacancy {
            Some(site) if site >= 8 * spec.cells_z => Err(format!(
                "VACANCY site {site} is out of range (the system has {} sites)",
                8 * spec.cells_z
            )),
            _ => Ok(()),
        }
    }
}

/// Parse error with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parse `.rpa` file contents. Lines are `KEY: value [value …]`; `#`
/// starts a comment; unknown keys are an error (catching typos beats
/// silently running the wrong experiment).
pub fn parse_rpa_input(text: &str) -> Result<RpaInput, ParseError> {
    let mut config = RpaConfig::default();
    let mut system = SiliconSpec::default();
    let mut vacancy = None;
    let mut ignored = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once(':')
            .ok_or_else(|| err(lineno, format!("expected `KEY: value`, got `{line}`")))?;
        let key = key.trim().to_ascii_uppercase();
        let value = value.trim();
        let parse_usize = |v: &str| -> Result<usize, ParseError> {
            v.parse()
                .map_err(|_| err(lineno, format!("`{key}` expects an integer, got `{v}`")))
        };
        let parse_f64 = |v: &str| -> Result<f64, ParseError> {
            v.parse()
                .map_err(|_| err(lineno, format!("`{key}` expects a number, got `{v}`")))
        };

        match key.as_str() {
            "N_NUCHI_EIGS" => config.n_eig = parse_usize(value)?,
            "N_OMEGA" => config.n_omega = parse_usize(value)?,
            "TOL_EIG" => {
                let tols: Result<Vec<f64>, _> = value.split_whitespace().map(parse_f64).collect();
                config.tol_eig = tols?;
                if config.tol_eig.is_empty() {
                    return Err(err(lineno, "`TOL_EIG` needs at least one value"));
                }
            }
            "TOL_STERN_RES" => config.tol_sternheimer = parse_f64(value)?,
            "MAXIT_FILTERING" => config.max_filter_iters = parse_usize(value)?,
            "CHEB_DEGREE_RPA" => config.cheb_degree = parse_usize(value)?,
            "FLAG_COCGINITIAL" => config.use_galerkin_guess = parse_usize(value)? != 0,
            "FLAG_WARM_START" => config.warm_start = parse_usize(value)? != 0,
            "NP" | "NP_NUCHI_EIGS_PARAL_RPA" => config.n_workers = parse_usize(value)?,
            "SEED" => config.seed = parse_usize(value)? as u64,
            "BLOCK_POLICY" => {
                config.block_policy = match value.to_ascii_lowercase().as_str() {
                    "dynamic" | "dynamic_timed" => BlockPolicy::DynamicTimed,
                    "cost_model" | "dynamic_cost_model" => BlockPolicy::DynamicCostModel,
                    other => {
                        let s = other
                            .strip_prefix("fixed")
                            .and_then(|s| s.trim_start_matches(['_', ' ']).parse::<usize>().ok());
                        match s {
                            Some(n) if n >= 1 => BlockPolicy::Fixed(n),
                            _ => {
                                return Err(err(
                                    lineno,
                                    format!(
                                        "`BLOCK_POLICY` expects dynamic | cost_model | \
                                         fixed_<n>, got `{value}`"
                                    ),
                                ))
                            }
                        }
                    }
                }
            }
            "DISTRIBUTION" => {
                config.distribution = match value.to_ascii_lowercase().as_str() {
                    "static" | "static_columns" => WorkDistribution::StaticColumns,
                    other => {
                        let w = other
                            .strip_prefix("work_stealing")
                            .map(|s| s.trim_start_matches(['_', ' ']))
                            .and_then(|s| {
                                if s.is_empty() {
                                    Some(4)
                                } else {
                                    s.parse().ok()
                                }
                            });
                        match w {
                            Some(width) if width >= 1 => {
                                WorkDistribution::WorkStealing { chunk_width: width }
                            }
                            _ => {
                                return Err(err(
                                    lineno,
                                    format!(
                                        "`DISTRIBUTION` expects static | work_stealing[_<w>],                                          got `{value}`"
                                    ),
                                ))
                            }
                        }
                    }
                }
            }
            "CELLS_Z" => system.cells_z = parse_usize(value)?,
            "POINTS_PER_CELL" => system.points_per_cell = parse_usize(value)?,
            "MESH" => system.mesh = parse_f64(value)?,
            "PERTURBATION" => system.perturbation = parse_f64(value)?,
            "SYSTEM_SEED" => system.seed = parse_usize(value)? as u64,
            "BOUNDARY" => {
                system.boundary = match value.to_ascii_uppercase().as_str() {
                    "PERIODIC" => Boundary::Periodic,
                    "DIRICHLET" => Boundary::Dirichlet,
                    other => {
                        return Err(err(
                            lineno,
                            format!("`BOUNDARY` expects PERIODIC | DIRICHLET, got `{other}`"),
                        ))
                    }
                }
            }
            "VACANCY" => vacancy = Some(parse_usize(value)?),
            // artifact keys our formulation does not need
            "FLAG_PQ_OPERATOR" => ignored.push(key),
            other => {
                return Err(err(lineno, format!("unknown key `{other}`")));
            }
        }
    }

    Ok(RpaInput {
        config,
        system,
        vacancy,
        ignored_keys: ignored,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const ARTIFACT_SAMPLE: &str = "\
N_NUCHI_EIGS: 768
N_OMEGA: 8
TOL_EIG: 4e-3 2e-3 5e-4 5e-4 5e-4 5e-4 5e-4 5e-4
TOL_STERN_RES: 1e-2
MAXIT_FILTERING: 10
CHEB_DEGREE_RPA: 2
FLAG_PQ_OPERATOR: 0
FLAG_COCGINITIAL: 1
";

    #[test]
    fn parses_the_artifact_sample() {
        let input = parse_rpa_input(ARTIFACT_SAMPLE).unwrap();
        assert_eq!(input.config.n_eig, 768);
        assert_eq!(input.config.n_omega, 8);
        assert_eq!(input.config.tol_eig.len(), 8);
        assert_eq!(input.config.tol_eig[0], 4e-3);
        assert_eq!(input.config.tol_eig[7], 5e-4);
        assert_eq!(input.config.tol_sternheimer, 1e-2);
        assert_eq!(input.config.max_filter_iters, 10);
        assert_eq!(input.config.cheb_degree, 2);
        assert!(input.config.use_galerkin_guess);
        assert_eq!(input.ignored_keys, vec!["FLAG_PQ_OPERATOR"]);
        assert!(input.vacancy.is_none());
    }

    #[test]
    fn parses_system_extension_keys() {
        let text = "\
N_NUCHI_EIGS: 64
CELLS_Z: 2
POINTS_PER_CELL: 7
MESH: 0.75
PERTURBATION: 0.05
SYSTEM_SEED: 99
VACANCY: 3
NP: 4
BLOCK_POLICY: fixed_2
";
        let input = parse_rpa_input(text).unwrap();
        assert_eq!(input.system.cells_z, 2);
        assert_eq!(input.system.points_per_cell, 7);
        assert_eq!(input.system.mesh, 0.75);
        assert_eq!(input.system.perturbation, 0.05);
        assert_eq!(input.system.seed, 99);
        assert_eq!(input.vacancy, Some(3));
        assert_eq!(input.config.n_workers, 4);
        assert_eq!(input.config.block_policy, BlockPolicy::Fixed(2));
    }

    #[test]
    fn block_policy_variants() {
        for (text, expect) in [
            ("BLOCK_POLICY: dynamic", BlockPolicy::DynamicTimed),
            ("BLOCK_POLICY: cost_model", BlockPolicy::DynamicCostModel),
            ("BLOCK_POLICY: fixed_8", BlockPolicy::Fixed(8)),
        ] {
            let input = parse_rpa_input(text).unwrap();
            assert_eq!(input.config.block_policy, expect, "{text}");
        }
    }

    #[test]
    fn distribution_key_variants() {
        let input = parse_rpa_input("DISTRIBUTION: work_stealing_8\n").unwrap();
        assert_eq!(
            input.config.distribution,
            WorkDistribution::WorkStealing { chunk_width: 8 }
        );
        let input = parse_rpa_input("DISTRIBUTION: static\n").unwrap();
        assert_eq!(input.config.distribution, WorkDistribution::StaticColumns);
        assert!(parse_rpa_input("DISTRIBUTION: chaotic").is_err());
    }

    #[test]
    fn boundary_key_selects_the_grid_topology() {
        let input = parse_rpa_input("BOUNDARY: dirichlet\n").unwrap();
        assert_eq!(input.system.boundary, Boundary::Dirichlet);
        let input = parse_rpa_input("BOUNDARY: PERIODIC\n").unwrap();
        assert_eq!(input.system.boundary, Boundary::Periodic);
        let e = parse_rpa_input("BOUNDARY: open\n").unwrap_err();
        assert!(e.message.contains("BOUNDARY"));
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "\
# a comment line
N_OMEGA: 4   # trailing comment

TOL_STERN_RES: 5e-3
";
        let input = parse_rpa_input(text).unwrap();
        assert_eq!(input.config.n_omega, 4);
        assert_eq!(input.config.tol_sternheimer, 5e-3);
    }

    #[test]
    fn unknown_key_is_an_error_with_line_number() {
        // a retired key (`PRECOND`) is a typo like any other
        for (text, key) in [
            ("N_OMEGA: 8\nTYPO_KEY: 3\n", "TYPO_KEY"),
            ("N_OMEGA: 8\nPRECOND: hard\n", "PRECOND"),
        ] {
            let e = parse_rpa_input(text).unwrap_err();
            assert_eq!(e.line, 2);
            assert!(e.message.contains("unknown key") && e.message.contains(key));
        }
    }

    #[test]
    fn malformed_values_error() {
        assert!(parse_rpa_input("N_OMEGA: eight").is_err());
        assert!(parse_rpa_input("TOL_EIG:").is_err());
        assert!(parse_rpa_input("BLOCK_POLICY: sometimes").is_err());
        assert!(parse_rpa_input("just a line").is_err());
    }
}
