//! Reader for the `.out` report `rpacalc` writes (`mbrpa_core::report`):
//! the only channel through which a timed run's results reach the bench.

/// What the benchmark needs from one finished report.
#[derive(Debug, Clone, PartialEq)]
pub struct OutReport {
    /// The "Total walltime" line, seconds (`RpaResult::wall_time`).
    pub solve_s: f64,
    /// The total energy exactly as printed (e.g. `-3.20316E-1`).
    pub energy_text: String,
    /// The same, parsed.
    pub energy: f64,
    /// Filter rounds (last `ncheb`) per frequency, in solve order.
    pub filter_rounds: Vec<usize>,
    /// Frequencies whose last printed error is above their `TOL_EIG`.
    pub unconverged: usize,
}

fn value_after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.strip_prefix(key).map(str::trim)
}

/// Parse a complete report; `Err` names the first thing that is missing.
pub fn parse_out(text: &str) -> Result<OutReport, String> {
    if text.contains("RUN CANCELLED") {
        return Err("the report is a partial (cancelled) run".to_string());
    }
    let mut tols: Vec<f64> = Vec::new();
    let mut n_omega: Option<usize> = None;
    let mut solve_s = None;
    let mut energy = None;
    // (last ncheb, last error) of each omega table
    let mut tables: Vec<Option<(usize, f64)>> = Vec::new();
    for line in text.lines() {
        if let Some(v) = value_after(line, "N_OMEGA:") {
            n_omega = v.parse().ok();
        } else if let Some(v) = value_after(line, "TOL_EIG:") {
            tols = v
                .split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect();
        } else if line.starts_with("omega ") && line.contains("(value") {
            tables.push(None);
        } else if let Some(v) = value_after(line, "Total RPA correlation energy:") {
            let token = v.split_whitespace().next().unwrap_or("");
            let value: f64 = token
                .parse()
                .map_err(|_| format!("cannot parse the energy `{token}`"))?;
            energy = Some((token.to_string(), value));
        } else if let Some(v) = value_after(line, "Total walltime") {
            let token = v.trim_start_matches(':').split_whitespace().next();
            solve_s = token.and_then(|t| t.parse::<f64>().ok());
        } else if let Some(slot) = tables.last_mut() {
            // table rows: `ncheb term e1 e2 ; e3 e4 error timing`
            let cols: Vec<&str> = line.split_whitespace().collect();
            if cols.len() == 9 && cols[4] == ";" {
                if let (Ok(ncheb), Ok(error)) = (cols[0].parse(), cols[7].parse()) {
                    *slot = Some((ncheb, error));
                }
            }
        }
    }
    let solve_s = solve_s.ok_or("no `Total walltime` line")?;
    let (energy_text, energy) = energy.ok_or("no `Total RPA correlation energy` line")?;
    let n_omega = n_omega.ok_or("no `N_OMEGA` line")?;
    if tables.len() != n_omega {
        return Err(format!(
            "{} frequency tables for N_OMEGA = {n_omega}",
            tables.len()
        ));
    }
    if tols.is_empty() {
        return Err("no `TOL_EIG` line".to_string());
    }
    let mut filter_rounds = Vec::with_capacity(n_omega);
    let mut unconverged = 0;
    for (k, table) in tables.iter().enumerate() {
        let (ncheb, error) = table.ok_or_else(|| format!("frequency {} has no rows", k + 1))?;
        filter_rounds.push(ncheb);
        // the preamble prints one tolerance per frequency
        let tol = tols[k.min(tols.len() - 1)];
        if error > tol {
            unconverged += 1;
        }
    }
    Ok(OutReport {
        solve_s,
        energy_text,
        energy,
        filter_rounds,
        unconverged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured verbatim from `rpacalc` on a 2-frequency input (named `.txt`
    /// because the repository ignores `*.out`).
    const FIXTURE: &str = include_str!("../workloads/fixture_out.txt");

    #[test]
    fn parses_the_captured_report() {
        let r = parse_out(FIXTURE).unwrap();
        assert_eq!(r.solve_s, 4.148);
        assert_eq!(r.energy_text, "-1.95499E-1");
        assert!((r.energy + 0.195499).abs() < 1e-12);
        assert_eq!(r.filter_rounds, vec![6, 4]);
        assert_eq!(r.unconverged, 0);
    }

    #[test]
    fn flags_an_unconverged_frequency_and_truncated_reports() {
        let loose = FIXTURE.replace("1.463E-3", "2.463E-3");
        assert_eq!(parse_out(&loose).unwrap().unconverged, 1);
        let cut = FIXTURE.split("Total walltime").next().unwrap();
        assert!(parse_out(cut).unwrap_err().contains("walltime"));
        let missing_table = FIXTURE.replace("N_OMEGA: 2", "N_OMEGA: 3");
        assert!(parse_out(&missing_table).unwrap_err().contains("tables"));
        assert!(parse_out("RUN CANCELLED after 1 of 2").is_err());
    }
}
