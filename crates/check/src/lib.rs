//! Seeded property loops for the workspace's test suites.
//!
//! [`check`] runs a property's body on freshly seeded `rand` generators
//! until the required number of cases pass. Each seed comes from the
//! property's name and the case index, so every run draws the same cases.
//! There is no shrinking: a failing case prints the seed that replays it
//! alone, `PROPERTY_SEED=<seed> cargo test <name>`. [`fnv1a64`] is the
//! hash the bit pins compare.

use rand::SeedableRng;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

pub use rand::rngs::StdRng;
pub use rand::Rng;

/// What [`assume`] unwinds with.
struct Rejected;

/// Runs `case` until `cases` draws pass. A draw [`assume`] rejects is
/// redrawn and does not count; more than 1024 of them fail the property.
pub fn check(cases: u32, mut case: impl FnMut(&mut StdRng)) {
    // `<suite>::<property>::{{closure}}`: one name per property
    let name = std::any::type_name_of_val(&case);
    let replay = std::env::var("PROPERTY_SEED").ok().map(|s| {
        let hex = s.strip_prefix("0x").map(|h| u64::from_str_radix(h, 16));
        hex.unwrap_or_else(|| s.parse())
            .expect("PROPERTY_SEED is a u64")
    });
    let name_hash = name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    let (mut passed, mut rejected) = (0, 0);
    for index in 0u64.. {
        if passed == cases || (replay.is_some() && index == 1) {
            return;
        }
        let seed = replay.unwrap_or(name_hash ^ index);
        match catch_unwind(AssertUnwindSafe(|| case(&mut StdRng::seed_from_u64(seed)))) {
            Ok(()) => passed += 1,
            Err(payload) if payload.is::<Rejected>() => rejected += 1,
            Err(payload) => {
                eprintln!("{name}: case {index} failed; replay it with PROPERTY_SEED={seed:#x}");
                resume_unwind(payload)
            }
        }
        assert!(rejected <= 1024, "{name}: assume rejected {rejected} cases");
    }
}

/// Rejects the running case unless `holds`; [`check`] draws another.
pub fn assume(holds: bool) {
    if !holds {
        resume_unwind(Box::new(Rejected));
    }
}

/// 64-bit FNV-1a over the little-endian bytes of each value's bits.
pub fn fnv1a64(values: impl Iterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
