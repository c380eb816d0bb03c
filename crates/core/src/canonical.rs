//! Canonical encoding and content fingerprint of a parsed `.rpa` input.
//!
//! Two `.rpa` files that *mean* the same calculation — same system, same
//! solver configuration — can differ wildly as bytes: key order,
//! whitespace, comments, float spellings (`1e-2` vs `0.01`), key aliases
//! (`NP` vs `NP_NUCHI_EIGS_PARAL_RPA`), or keys spelled out at their
//! default values vs omitted. Because the RPA energy is deterministic
//! given the discretized system and configuration (the bit-for-bit
//! contract of `core::checkpoint` and `mbrpa-serve`), all those spellings
//! produce the *identical* `f64` energy, so an exact result cache must
//! key on the meaning, not the bytes.
//!
//! [`canonical_bytes`] normalizes a parsed [`RpaInput`] into a stable,
//! versioned byte encoding: every semantic field in a fixed order, tagged,
//! integers little-endian, floats as normalized IEEE-754 bits (`-0.0`
//! collapses to `+0.0`, NaN to one canonical pattern). Keys the parser
//! recognizes but ignores ([`RpaInput::ignored_keys`], artifact
//! compatibility) are deliberately excluded. [`input_fingerprint`] is the
//! 128-bit FNV-1a hash of that encoding — the v2, input-level extension
//! of the 64-bit run-compatibility fingerprint
//! [`crate::checkpoint::config_fingerprint`] (which guards checkpoint
//! *resume* and hashes only the config + grid dimension). 128 bits make
//! accidental collisions negligible for a content-addressed store serving
//! heavy traffic.
//!
//! The encoding embeds [`CANONICAL_VERSION`]; bumping it changes every
//! fingerprint, so cache entries written under an older encoding are
//! cleanly invalidated instead of aliased. A golden test pins the
//! fingerprints of the example inputs under `inputs/` so an accidental
//! encoding change fails loudly.

use crate::config::RpaConfig;
use crate::io::RpaInput;
use mbrpa_linalg::fcmp::exactly_zero;
use mbrpa_solver::BlockPolicy;

/// Version of the canonical encoding (and therefore of every
/// fingerprint). Bump whenever the field set, ordering, tags, or value
/// normalization changes — stale cache entries must be invalidated, never
/// misread or aliased.
pub const CANONICAL_VERSION: u32 = 2;

/// Magic prefix of the canonical encoding.
const MAGIC: &[u8] = b"mbrpa-canonical";

// Field tags. Values are part of the encoding contract: renumbering is a
// version bump.
const TAG_CELLS_Z: u8 = 0x01;
const TAG_POINTS_PER_CELL: u8 = 0x02;
const TAG_MESH: u8 = 0x03;
const TAG_PERTURBATION: u8 = 0x04;
const TAG_SYSTEM_SEED: u8 = 0x05;
const TAG_BOUNDARY: u8 = 0x06;
const TAG_VACANCY: u8 = 0x07;
const TAG_N_EIG: u8 = 0x10;
const TAG_N_OMEGA: u8 = 0x11;
const TAG_TOL_EIG: u8 = 0x12;
const TAG_TOL_STERNHEIMER: u8 = 0x13;
const TAG_MAX_FILTER_ITERS: u8 = 0x14;
const TAG_CHEB_DEGREE: u8 = 0x15;
const TAG_GALERKIN_GUESS: u8 = 0x16;
const TAG_WARM_START: u8 = 0x17;
const TAG_BLOCK_POLICY: u8 = 0x18;
const TAG_N_WORKERS: u8 = 0x19;
const TAG_COCG_MAX_ITERS: u8 = 0x1A;
const TAG_PRECONDITION: u8 = 0x1B;
const TAG_DISTRIBUTION: u8 = 0x1C;
const TAG_SEED: u8 = 0x1D;

/// Normalize a float for encoding: `-0.0` and `+0.0` are the same value
/// to every consumer in the pipeline, and any NaN spelling collapses to
/// one canonical pattern (the parser cannot produce NaN today, but the
/// encoding must stay total).
fn norm_bits(v: f64) -> u64 {
    if v.is_nan() {
        return f64::NAN.to_bits();
    }
    if exactly_zero(v) {
        return 0.0f64.to_bits();
    }
    v.to_bits()
}

struct Encoder(Vec<u8>);

impl Encoder {
    fn uint(&mut self, tag: u8, v: u64) {
        self.0.push(tag);
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn float(&mut self, tag: u8, v: f64) {
        self.uint(tag, norm_bits(v));
    }
    fn flag(&mut self, tag: u8, v: bool) {
        self.uint(tag, u64::from(v));
    }
}

/// The canonical byte encoding of a parsed input. Equal iff the two
/// inputs describe the same calculation; see the module docs for what is
/// normalized away.
pub fn canonical_bytes(input: &RpaInput) -> Vec<u8> {
    let mut e = Encoder(Vec::with_capacity(256));
    e.0.extend_from_slice(MAGIC);
    e.0.extend_from_slice(&CANONICAL_VERSION.to_le_bytes());
    let spec = &input.system;
    e.uint(TAG_CELLS_Z, spec.cells_z as u64);
    e.uint(TAG_POINTS_PER_CELL, spec.points_per_cell as u64);
    e.float(TAG_MESH, spec.mesh);
    e.float(TAG_PERTURBATION, spec.perturbation);
    e.uint(TAG_SYSTEM_SEED, spec.seed);
    e.uint(
        TAG_BOUNDARY,
        match spec.boundary {
            mbrpa_grid::Boundary::Periodic => 1,
            mbrpa_grid::Boundary::Dirichlet => 2,
        },
    );
    match input.vacancy {
        // presence flag first so `VACANCY: 0` cannot alias "no vacancy"
        None => e.uint(TAG_VACANCY, 0),
        Some(site) => {
            e.uint(TAG_VACANCY, 1);
            e.0.extend_from_slice(&(site as u64).to_le_bytes());
        }
    }
    encode_config(&input.config, &mut e);
    e.0
}

/// The configuration half of the canonical encoding on its own: the one
/// list of [`RpaConfig`] fields, shared with the run-compatibility
/// fingerprint [`crate::checkpoint::config_fingerprint`].
pub(crate) fn config_bytes(config: &RpaConfig) -> Vec<u8> {
    let mut e = Encoder(Vec::with_capacity(192));
    encode_config(config, &mut e);
    e.0
}

/// Every [`RpaConfig`] field, tagged, in a fixed order. A field added to
/// the struct is added here and nowhere else.
fn encode_config(config: &RpaConfig, e: &mut Encoder) {
    e.uint(TAG_N_EIG, config.n_eig as u64);
    e.uint(TAG_N_OMEGA, config.n_omega as u64);
    // length-prefixed so list boundaries cannot shift between fields
    e.uint(TAG_TOL_EIG, config.tol_eig.len() as u64);
    for &tol in &config.tol_eig {
        e.0.extend_from_slice(&norm_bits(tol).to_le_bytes());
    }
    e.float(TAG_TOL_STERNHEIMER, config.tol_sternheimer);
    e.uint(TAG_MAX_FILTER_ITERS, config.max_filter_iters as u64);
    e.uint(TAG_CHEB_DEGREE, config.cheb_degree as u64);
    e.flag(TAG_GALERKIN_GUESS, config.use_galerkin_guess);
    e.flag(TAG_WARM_START, config.warm_start);
    match config.block_policy {
        BlockPolicy::Fixed(s) => {
            e.uint(TAG_BLOCK_POLICY, 1);
            e.0.extend_from_slice(&(s as u64).to_le_bytes());
        }
        BlockPolicy::DynamicTimed => e.uint(TAG_BLOCK_POLICY, 2),
        BlockPolicy::DynamicCostModel => e.uint(TAG_BLOCK_POLICY, 3),
    }
    e.uint(TAG_N_WORKERS, config.n_workers as u64);
    e.uint(TAG_COCG_MAX_ITERS, config.cocg_max_iters as u64);
    // the retired `PRECOND: never` byte: kept so every fingerprint, cache
    // entry and checkpoint made before the key left keeps its value
    e.uint(TAG_PRECONDITION, 1);
    match config.distribution {
        crate::chi0::WorkDistribution::StaticColumns => e.uint(TAG_DISTRIBUTION, 1),
        crate::chi0::WorkDistribution::WorkStealing { chunk_width } => {
            e.uint(TAG_DISTRIBUTION, 2);
            e.0.extend_from_slice(&(chunk_width as u64).to_le_bytes());
        }
    }
    e.uint(TAG_SEED, config.seed);
}

/// 128-bit FNV-1a offset basis.
const FNV128_OFFSET: u128 = 0x6C62_272E_07BB_0142_62B8_2175_6295_C58D;
/// 128-bit FNV-1a prime.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// 128-bit FNV-1a over a byte slice.
fn fnv128(bytes: &[u8]) -> u128 {
    let mut h = FNV128_OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// 64-bit FNV-1a over a byte slice — the workspace's one 64-bit hash.
/// Stable across platforms and releases: the checkpoint run-compatibility
/// fingerprint and the router's rendezvous scores are both persisted and
/// must not move between builds.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The 128-bit fingerprint of a parsed input: FNV-1a over
/// [`canonical_bytes`]. Equal for every spelling of the same calculation;
/// different whenever any semantic field differs (up to hash collision,
/// negligible at 128 bits).
pub fn input_fingerprint(input: &RpaInput) -> u128 {
    fnv128(&canonical_bytes(input))
}

/// [`input_fingerprint`] rendered as 32 lowercase hex digits — the form
/// stored in cache entry filenames and wire documents.
pub fn fingerprint_hex(input: &RpaInput) -> String {
    format!("{:032x}", input_fingerprint(input))
}

/// True iff `text` is a well-formed fingerprint rendering (exactly 32
/// lowercase hex digits).
pub fn is_fingerprint_hex(text: &str) -> bool {
    text.len() == 32
        && text
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::parse_rpa_input;

    const BASE: &str = "\
N_NUCHI_EIGS: 8
N_OMEGA: 3
TOL_EIG: 4e-3 2e-3 1e-3
TOL_STERN_RES: 1e-2
BOUNDARY: DIRICHLET
POINTS_PER_CELL: 5
MESH: 0.69
SYSTEM_SEED: 7
NP: 2
";

    #[test]
    fn byte_different_spellings_collide() {
        let a = parse_rpa_input(BASE).unwrap();
        // reordered keys, comments, whitespace, float respellings, the
        // NP alias, and an ignored artifact key
        let b = parse_rpa_input(
            "# reformatted but semantically identical\n\
             MESH:    0.6900   # trailing comment\n\
             NP_NUCHI_EIGS_PARAL_RPA: 2\n\
             TOL_STERN_RES: 0.01\n\
             boundary: dirichlet\n\
             N_OMEGA: 3\n\n\
             TOL_EIG: 0.004 0.002 0.001\n\
             SYSTEM_SEED: 7\n\
             POINTS_PER_CELL: 5\n\
             FLAG_PQ_OPERATOR: 0\n\
             N_NUCHI_EIGS: 8\n",
        )
        .unwrap();
        assert_eq!(canonical_bytes(&a), canonical_bytes(&b));
        assert_eq!(fingerprint_hex(&a), fingerprint_hex(&b));
    }

    #[test]
    fn explicit_defaults_collide_with_omission() {
        let a = parse_rpa_input("N_OMEGA: 3\n").unwrap();
        // SEED's default is 2024; spelling it out changes nothing
        let b = parse_rpa_input("N_OMEGA: 3\nSEED: 2024\n").unwrap();
        assert_eq!(input_fingerprint(&a), input_fingerprint(&b));
    }

    #[test]
    fn system_changes_do_not_collide() {
        let base = parse_rpa_input(BASE).unwrap();
        let reference = input_fingerprint(&base);
        for (label, text) in [
            ("boundary", BASE.replace("DIRICHLET", "PERIODIC")),
            ("mesh", BASE.replace("MESH: 0.69", "MESH: 0.7")),
            ("seed", BASE.replace("SYSTEM_SEED: 7", "SYSTEM_SEED: 8")),
            ("vacancy", format!("{BASE}VACANCY: 1\n")),
        ] {
            let variant = parse_rpa_input(&text).unwrap();
            assert_ne!(
                input_fingerprint(&variant),
                reference,
                "{label} change did not move the fingerprint"
            );
        }
    }

    /// One row per [`RpaConfig`] field: changing it moves the cache key
    /// and the checkpoint fingerprint alike (they share `encode_config`).
    #[test]
    fn every_config_field_moves_both_fingerprints() {
        use crate::checkpoint::config_fingerprint;
        use crate::chi0::WorkDistribution;
        let base = parse_rpa_input(BASE).unwrap();
        let with = |config: RpaConfig| RpaInput {
            config,
            ..base.clone()
        };
        let c = || base.config.clone();
        #[rustfmt::skip]
        let variants: Vec<(&str, RpaConfig)> = vec![
            ("n_eig", RpaConfig { n_eig: 9, ..c() }),
            ("n_omega", RpaConfig { n_omega: 5, ..c() }),
            ("tol_eig", RpaConfig { tol_eig: vec![1e-3], ..c() }),
            ("tol_sternheimer", RpaConfig { tol_sternheimer: 1e-5, ..c() }),
            ("max_filter_iters", RpaConfig { max_filter_iters: 11, ..c() }),
            ("cheb_degree", RpaConfig { cheb_degree: 3, ..c() }),
            ("use_galerkin_guess", RpaConfig { use_galerkin_guess: !base.config.use_galerkin_guess, ..c() }),
            ("warm_start", RpaConfig { warm_start: !base.config.warm_start, ..c() }),
            ("block_policy", RpaConfig { block_policy: BlockPolicy::Fixed(2), ..c() }),
            ("n_workers", RpaConfig { n_workers: 3, ..c() }),
            ("cocg_max_iters", RpaConfig { cocg_max_iters: 601, ..c() }),
            ("distribution", RpaConfig { distribution: WorkDistribution::WorkStealing { chunk_width: 4 }, ..c() }),
            ("seed", RpaConfig { seed: 2025, ..c() }),
        ];
        for (label, config) in variants {
            assert_ne!(
                config_fingerprint(&config, 125),
                config_fingerprint(&base.config, 125),
                "{label} change did not move the checkpoint fingerprint"
            );
            assert_ne!(
                input_fingerprint(&with(config)),
                input_fingerprint(&base),
                "{label} change did not move the input fingerprint"
            );
        }
    }

    #[test]
    fn vacancy_zero_does_not_alias_no_vacancy() {
        let without = parse_rpa_input("N_OMEGA: 3\n").unwrap();
        let with = parse_rpa_input("N_OMEGA: 3\nVACANCY: 0\n").unwrap();
        assert_ne!(input_fingerprint(&without), input_fingerprint(&with));
    }

    #[test]
    fn tol_list_boundaries_cannot_shift() {
        let a = parse_rpa_input("TOL_EIG: 1e-3 2e-3\n").unwrap();
        let b = parse_rpa_input("TOL_EIG: 1e-3\n").unwrap();
        assert_ne!(input_fingerprint(&a), input_fingerprint(&b));
    }

    #[test]
    fn negative_zero_mesh_is_normalized() {
        assert_eq!(norm_bits(-0.0), norm_bits(0.0));
        assert_eq!(norm_bits(f64::NAN), norm_bits(-f64::NAN));
        assert_ne!(norm_bits(1.0), norm_bits(-1.0));
    }

    #[test]
    fn hex_rendering_is_well_formed() {
        let fp = fingerprint_hex(&parse_rpa_input(BASE).unwrap());
        assert!(is_fingerprint_hex(&fp), "{fp}");
        assert!(!is_fingerprint_hex("ABC"));
        assert!(!is_fingerprint_hex(&fp[..31]));
        assert!(!is_fingerprint_hex(&fp.to_uppercase()));
    }

    #[test]
    fn encoding_embeds_the_version() {
        let bytes = canonical_bytes(&parse_rpa_input(BASE).unwrap());
        assert_eq!(&bytes[..MAGIC.len()], MAGIC);
        let mut version = [0u8; 4];
        version.copy_from_slice(&bytes[MAGIC.len()..MAGIC.len() + 4]);
        assert_eq!(u32::from_le_bytes(version), CANONICAL_VERSION);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // standard FNV-1a test vectors
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
