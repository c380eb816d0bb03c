//! The four workloads: templates, shapes, and inputs generated from `--seed`.
//!
//! The programs under test only ever see the generated `.rpa` text. Every
//! solve workload pins `BLOCK_POLICY` to `cost_model` or `fixed_<n>`:
//! `dynamic` sizes blocks from wall-clock timings (Alg. 4), so its iteration
//! counts would not repeat from run to run.

use mbrpa_serve::json::{self, JsonValue};

pub const DEFAULT_SEED: u64 = 2024;

/// The knobs a workload's size is tuned with (and the smoke shape shrinks).
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub n_eig: usize,
    pub n_omega: usize,
    /// Only the `finegrid_solve` template reads this.
    pub points_per_cell: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `rpacalc` child processes. `single_thread` pins `-threads 1` (else
    /// `min(2, nproc)`); `checkpoint` adds `-checkpoint <dir> -checkpoint-every 1`;
    /// `scaling_probes` makes the traced run also time a 1-thread and a
    /// `-profile` child (`core.thread_eff`, `obs.on_overhead_frac`).
    Solve {
        single_thread: bool,
        checkpoint: bool,
        scaling_probes: bool,
    },
    /// `rparouter` → `rpaserved` over loopback HTTP.
    Serve,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    template: &'static str,
    pub full: Shape,
    pub smoke: Shape,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "si8_solve",
        why: "Si8.rpa shape: small grid in L1/L2, most eigenpairs, 8-frequency warm-start chain; COCG self time and Rayleigh-Ritz have their largest share",
        kind: Kind::Solve { single_thread: false, checkpoint: false, scaling_probes: true },
        template: include_str!("../workloads/si8_solve.rpa.tmpl"),
        full: Shape { n_eig: 96, n_omega: 8, points_per_cell: 7 },
        smoke: Shape { n_eig: 16, n_omega: 3, points_per_cell: 7 },
    },
    Workload {
        name: "finegrid_solve",
        why: "8x the grid, a quarter of the eigenpairs: Sternheimer operator applies and bytes moved carry the run, dense algebra is noise; CheFSI KS set-up",
        kind: Kind::Solve { single_thread: false, checkpoint: false, scaling_probes: false },
        template: include_str!("../workloads/finegrid_solve.rpa.tmpl"),
        full: Shape { n_eig: 16, n_omega: 2, points_per_cell: 14 },
        smoke: Shape { n_eig: 8, n_omega: 2, points_per_cell: 11 },
    },
    Workload {
        name: "cluster_ckpt_solve",
        why: "same layers used differently: Dirichlet halo, fixed block size 4, checkpointing driver, one thread; taxes changes tuned to s<=2, periodic grids or 2 threads",
        kind: Kind::Solve { single_thread: true, checkpoint: true, scaling_probes: false },
        template: include_str!("../workloads/cluster_ckpt_solve.rpa.tmpl"),
        full: Shape { n_eig: 32, n_omega: 8, points_per_cell: 8 },
        smoke: Shape { n_eig: 20, n_omega: 3, points_per_cell: 8 },
    },
    Workload {
        name: "serve_mix",
        why: "tiny jobs, 1:1 misses and cache hits through router and worker: HTTP, JSON, fingerprint, cache, job store and checkpoint fsyncs do the work, the solver almost none",
        kind: Kind::Serve,
        template: include_str!("../workloads/serve_mix.rpa.tmpl"),
        full: Shape { n_eig: 4, n_omega: 1, points_per_cell: 5 },
        smoke: Shape { n_eig: 4, n_omega: 1, points_per_cell: 5 },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn shape(&self, smoke: bool) -> Shape {
        if smoke {
            self.smoke
        } else {
            self.full
        }
    }

    /// The `.rpa` text for one run. `seed` draws the starting eigenvector
    /// block. `system_seed` perturbs the atom positions; only `serve_mix`
    /// reads it (a fresh geometry is what makes a submission a cache miss).
    /// The solve templates pin the geometry: across geometries the solve
    /// time of one shape moves by ~30 %, more than any regression bound.
    pub fn render(&self, shape: Shape, system_seed: u64, seed: u64) -> String {
        let text = self
            .template
            .replace("{{N_NUCHI_EIGS}}", &shape.n_eig.to_string())
            .replace("{{N_OMEGA}}", &shape.n_omega.to_string())
            .replace("{{POINTS_PER_CELL}}", &shape.points_per_cell.to_string())
            .replace("{{SYSTEM_SEED}}", &system_seed.to_string())
            .replace("{{SEED}}", &seed.to_string());
        assert!(
            !text.contains("{{"),
            "unfilled placeholder in {}",
            self.name
        );
        text
    }
}

/// Energy pinned for `(workload, smoke)` at [`DEFAULT_SEED`], as printed by
/// `rpacalc`, from `workloads/reference.json`.
pub fn reference_energy(workload: &str, smoke: bool) -> Option<f64> {
    let doc = json::parse(include_str!("../workloads/reference.json")).ok()?;
    let shape = if smoke { "smoke" } else { "full" };
    doc.get(shape)?
        .get(workload)
        .and_then(JsonValue::as_str)?
        .parse()
        .ok()
}

/// Largest relative distance from the pinned energy a default-seed solve may
/// print (the paper's Fig. 3 plateau is 1.4e-5; chemical accuracy is 350x looser).
pub const ENERGY_RTOL: f64 = 2e-5;

/// The benchmark's own generator (SplitMix64): op order and fresh
/// `SYSTEM_SEED`s of `serve_mix` are drawn from it, never from the clock.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbrpa_core::parse_rpa_input;
    use mbrpa_solver::BlockPolicy;

    #[test]
    fn every_template_renders_to_a_parsable_deterministic_input() {
        for w in &WORKLOADS {
            for smoke in [false, true] {
                let text = w.render(w.shape(smoke), 11, 12);
                let input = parse_rpa_input(&text).unwrap_or_else(|e| panic!("{}: {e}", w.name));
                let pinned = w.kind != Kind::Serve;
                assert_eq!(input.system.seed, if pinned { 7 } else { 11 });
                assert_eq!(input.config.seed, 12);
                assert_eq!(input.config.n_eig, w.shape(smoke).n_eig);
                // wall-clock-timed block sizing would make counts unrepeatable
                assert_ne!(input.config.block_policy, BlockPolicy::DynamicTimed);
                assert_eq!(text, w.render(w.shape(smoke), 11, 12));
                assert_ne!(text, w.render(w.shape(smoke), 11, 13));
            }
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }

    #[test]
    fn every_solve_workload_has_pinned_energies() {
        for w in WORKLOADS.iter().filter(|w| w.kind != Kind::Serve) {
            for smoke in [false, true] {
                let e = reference_energy(w.name, smoke);
                assert!(e.is_some_and(|e| e < 0.0), "{} smoke={smoke}", w.name);
            }
        }
    }

    #[test]
    fn generator_repeats_per_seed() {
        let draw = |seed| {
            let mut g = SplitMix64::new(seed);
            (0..16).map(|_| g.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert!(draw(7).iter().all(|&x| x < 1000));
    }
}
