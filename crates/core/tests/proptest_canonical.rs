//! Property tests of the canonical input fingerprint.
//!
//! The contract under test (DESIGN.md §12): any two `.rpa` renderings of
//! the same calculation — reordered keys, different key case, aliases,
//! float respellings, comments, defaults spelled out vs omitted — must
//! canonicalize to the same fingerprint, while any *semantic* change
//! (different tolerance, different seed, a vacancy) must move it. The
//! exact result cache in `mbrpa-serve` is only sound if both directions
//! hold.

// Test code: panics are failures (DESIGN.md §9).
#![allow(clippy::unwrap_used)]

use mbrpa_core::io::parse_rpa_input;
use mbrpa_core::{fingerprint_hex, input_fingerprint};
use proptest::prelude::*;

/// The semantic content of an input, independent of any rendering.
#[derive(Clone, Debug)]
struct Semantic {
    n_eig: usize,
    n_omega: usize,
    tol_eig: Vec<f64>,
    tol_stern: f64,
    maxit: usize,
    cheb: usize,
    galerkin: bool,
    block: u8,
    fixed_n: usize,
    np: usize,
    seed: u64,
    cells_z: usize,
    ppc: usize,
    mesh: f64,
    pert: f64,
    system_seed: u64,
    dirichlet: bool,
    vacancy: Option<usize>,
    dist: u8,
}

/// Small pool of floats whose decimal and scientific renderings both
/// round-trip exactly (Rust's shortest formatting guarantees this for
/// every f64; the pool just keeps the inputs physical).
const FLOATS: [f64; 6] = [5e-4, 2e-3, 4e-3, 1e-2, 0.25, 0.69];

fn semantic() -> impl Strategy<Value = Semantic> {
    (
        (
            1usize..=16,                                            // n_eig (≤ n_d for ppc 5)
            1usize..=6,                                             // n_omega
            proptest::collection::vec(0usize..FLOATS.len(), 1..=3), // tol_eig picks
            0usize..FLOATS.len(),                                   // tol_stern pick
            1usize..=10,                                            // maxit
            1usize..=4,                                             // cheb
            any::<bool>(),                                          // galerkin
            0u8..=2,                                                // block policy
            1usize..=4,                                             // fixed block size
            1usize..=4,                                             // np
        ),
        (
            0u64..=6,                        // seed
            1usize..=2,                      // cells_z
            5usize..=6,                      // points per cell
            0usize..FLOATS.len(),            // mesh pick (offset below)
            0usize..FLOATS.len(),            // perturbation pick
            0u64..=6,                        // system seed
            any::<bool>(),                   // dirichlet
            proptest::option::of(0usize..8), // vacancy
            0u8..=2,                         // distribution
        ),
    )
        .prop_map(
            |(
                (n_eig, n_omega, tols, stern, maxit, cheb, galerkin, block, fixed_n, np),
                (seed, cells_z, ppc, mesh, pert, system_seed, dirichlet, vacancy, dist),
            )| Semantic {
                n_eig,
                n_omega,
                tol_eig: tols.into_iter().map(|i| FLOATS[i]).collect(),
                tol_stern: FLOATS[stern],
                maxit,
                cheb,
                galerkin,
                block,
                fixed_n,
                np,
                seed,
                cells_z,
                ppc,
                mesh: FLOATS[mesh] + 0.5, // keep MESH physical (positive, O(1))
                pert: FLOATS[pert],
                system_seed,
                dirichlet,
                vacancy,
                dist,
            },
        )
}

/// Style bytes drive every cosmetic decision; cycling through them makes
/// two different byte vectors produce two genuinely different renderings
/// of the same [`Semantic`].
struct Style {
    bytes: Vec<u8>,
    at: usize,
}

impl Style {
    fn new(bytes: &[u8]) -> Self {
        Self {
            bytes: bytes.to_vec(),
            at: 0,
        }
    }
    fn next(&mut self) -> u8 {
        let b = self.bytes.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        b
    }
    fn float(&mut self, v: f64) -> String {
        match self.next() % 3 {
            0 => format!("{v}"),
            1 => format!("{v:e}"),
            // fixed precision only pads zeros, which never changes the
            // parsed f64
            _ => format!("{v:.6}"),
        }
    }
    fn key(&mut self, k: &str) -> String {
        match self.next() % 3 {
            0 => k.to_string(),
            1 => k.to_ascii_lowercase(),
            _ => format!("  {k}  "),
        }
    }
    fn int(&mut self, v: usize) -> String {
        if self.next().is_multiple_of(3) {
            format!("0{v}") // leading zero, same integer
        } else {
            format!("{v}")
        }
    }
    fn line(&mut self, key: &str, value: &str) -> String {
        let key = self.key(key);
        match self.next() % 3 {
            0 => format!("{key}: {value}"),
            1 => format!("{key}:{value}   # trailing comment"),
            _ => format!("{key}  :   {value}"),
        }
    }
}

/// Render a [`Semantic`] as `.rpa` text. `style` controls cosmetics,
/// `order` (a permutation of `0..32`) the key order. Defaults may be
/// omitted or spelled out — also style-driven.
fn render(s: &Semantic, style_bytes: &[u8], order: &[usize]) -> String {
    let mut style = Style::new(style_bytes);
    let mut lines: Vec<String> = Vec::new();

    let v = style.int(s.n_eig);
    lines.push(style.line("N_NUCHI_EIGS", &v));
    let v = style.int(s.n_omega);
    lines.push(style.line("N_OMEGA", &v));
    let tols = s
        .tol_eig
        .iter()
        .map(|&t| style.float(t))
        .collect::<Vec<_>>()
        .join(" ");
    lines.push(style.line("TOL_EIG", &tols));
    let v = style.float(s.tol_stern);
    lines.push(style.line("TOL_STERN_RES", &v));
    let v = style.int(s.maxit);
    lines.push(style.line("MAXIT_FILTERING", &v));
    let v = style.int(s.cheb);
    lines.push(style.line("CHEB_DEGREE_RPA", &v));
    // galerkin defaults to on: spelling `1` out is optional
    if !s.galerkin || style.next().is_multiple_of(2) {
        let v = if s.galerkin { "1" } else { "0" };
        lines.push(style.line("FLAG_COCGINITIAL", v));
    }
    let block = match (s.block, style.next() % 2) {
        (0, 0) => "dynamic".to_string(),
        (0, _) => "dynamic_timed".to_string(),
        (1, 0) => "cost_model".to_string(),
        (1, _) => "dynamic_cost_model".to_string(),
        (_, 0) => format!("fixed_{}", s.fixed_n),
        (_, _) => format!("fixed {}", s.fixed_n),
    };
    lines.push(style.line("BLOCK_POLICY", &block));
    let np_key = if style.next().is_multiple_of(2) {
        "NP"
    } else {
        "NP_NUCHI_EIGS_PARAL_RPA"
    };
    let v = style.int(s.np);
    lines.push(style.line(np_key, &v));
    let v = style.int(s.seed as usize);
    lines.push(style.line("SEED", &v));
    let dist = match (s.dist, style.next() % 2) {
        (0, 0) => "static".to_string(),
        (0, _) => "static_columns".to_string(),
        // work_stealing's default chunk width is 4: both spellings mean
        // the same distribution
        (1, 0) => "work_stealing".to_string(),
        (1, _) => "work_stealing_4".to_string(),
        (_, _) => "work_stealing_8".to_string(),
    };
    lines.push(style.line("DISTRIBUTION", &dist));
    let v = style.int(s.cells_z);
    lines.push(style.line("CELLS_Z", &v));
    let v = style.int(s.ppc);
    lines.push(style.line("POINTS_PER_CELL", &v));
    let v = style.float(s.mesh);
    lines.push(style.line("MESH", &v));
    let v = style.float(s.pert);
    lines.push(style.line("PERTURBATION", &v));
    let v = style.int(s.system_seed as usize);
    lines.push(style.line("SYSTEM_SEED", &v));
    let boundary = match (s.dirichlet, style.next() % 2) {
        (true, 0) => "DIRICHLET",
        (true, _) => "dirichlet",
        (false, 0) => "PERIODIC",
        (false, _) => "periodic",
    };
    lines.push(style.line("BOUNDARY", boundary));
    if let Some(site) = s.vacancy {
        let v = style.int(site);
        lines.push(style.line("VACANCY", &v));
    }
    // a recognized-but-ignored artifact key must not move the fingerprint
    if style.next().is_multiple_of(2) {
        lines.push("FLAG_PQ_OPERATOR: 0".to_string());
    }

    // shuffle by the permutation's ranks (line order is free in `.rpa`)
    let mut indexed: Vec<(usize, String)> = lines.into_iter().enumerate().collect();
    indexed.sort_by_key(|(i, _)| order.get(*i).copied().unwrap_or(*i));

    let mut text = String::new();
    let mut style = Style::new(style_bytes);
    for (_, line) in indexed {
        if style.next().is_multiple_of(4) {
            text.push_str("# interleaved comment\n");
        }
        if style.next().is_multiple_of(4) {
            text.push('\n');
        }
        text.push_str(&line);
        text.push('\n');
    }
    text
}

fn order() -> impl Strategy<Value = Vec<usize>> {
    Just((0..32).collect::<Vec<usize>>()).prop_shuffle()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Soundness: every rendering of the same calculation has the same
    /// fingerprint, so a cache hit can never serve the wrong physics.
    #[test]
    fn all_renderings_of_one_input_collide(
        s in semantic(),
        style_a in proptest::collection::vec(any::<u8>(), 96),
        style_b in proptest::collection::vec(any::<u8>(), 96),
        order_a in order(),
        order_b in order(),
    ) {
        let text_a = render(&s, &style_a, &order_a);
        let text_b = render(&s, &style_b, &order_b);
        let a = parse_rpa_input(&text_a)
            .unwrap_or_else(|e| panic!("rendering A failed to parse: {e}\n{text_a}"));
        let b = parse_rpa_input(&text_b)
            .unwrap_or_else(|e| panic!("rendering B failed to parse: {e}\n{text_b}"));
        prop_assert_eq!(
            fingerprint_hex(&a),
            fingerprint_hex(&b),
            "renderings of one calculation diverged:\n--- A ---\n{}\n--- B ---\n{}",
            text_a,
            text_b
        );
    }

    /// Precision: a semantic change must move the fingerprint — a cache
    /// that conflates different calculations is worse than no cache.
    #[test]
    fn semantic_changes_move_the_fingerprint(
        s in semantic(),
        style in proptest::collection::vec(any::<u8>(), 96),
        ord in order(),
        which in 0usize..10,
    ) {
        let mut t = s.clone();
        match which {
            0 => t.n_eig = if t.n_eig == 16 { 1 } else { t.n_eig + 1 },
            1 => t.n_omega += 1,
            2 => t.tol_eig.push(FLOATS[0]),
            3 => t.maxit += 1,
            4 => t.galerkin = !t.galerkin,
            5 => t.np += 1,
            6 => t.seed += 1,
            7 => t.system_seed += 1,
            8 => t.dirichlet = !t.dirichlet,
            _ => {
                t.vacancy = match t.vacancy {
                    None => Some(0),
                    Some(site) => Some(site + 1),
                }
            }
        }
        let a = parse_rpa_input(&render(&s, &style, &ord)).unwrap();
        let b = parse_rpa_input(&render(&t, &style, &ord)).unwrap();
        prop_assert_ne!(
            input_fingerprint(&a),
            input_fingerprint(&b),
            "perturbation {} did not move the fingerprint",
            which
        );
    }
}
