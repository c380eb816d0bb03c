//! Shared lane-state folding — the single place partial lane sums become
//! final reduction results.
//!
//! Every reduction in this crate (real and complex dots, squared norms,
//! Gram tiles, the Gram products of the real Lanczos sweeps) accumulates
//! into a fixed number of independent *lanes*:
//! element `i` of the input always lands in lane `i mod LANES`, and each
//! lane is a pure sequential fused-multiply-add chain. A vector backend
//! realizes the lanes as SIMD register lanes; the scalar backend keeps
//! them in a small array. Both then call the fold/combine functions in
//! this module on the extracted lane state, so the reduction tree — and
//! therefore the result bits — are identical across dispatch paths *by
//! construction*, not by testing alone (the proptests in
//! `tests/bitwise_identity.rs` check the construction anyway).

/// Number of independent f64 accumulation lanes in every real reduction
/// (`dot`, `nrm2_sq`). On AVX2 these are two 4-wide registers; the
/// scalar oracle keeps an `[f64; 8]`.
pub const F64_LANES: usize = 8;

/// Number of complex accumulation lanes in the complex reduction
/// (`dot_t_c64`). Each complex lane spans two adjacent f64
/// lanes (re, im), so the f64 lane state is `2 * C64_LANES` wide.
pub const C64_LANES: usize = 4;

/// f64 lanes per pair accumulator in the real Gram tile (`gram2x4_f64`):
/// depth step `p` lands in lane `p mod GRAM_F64_LANES`.
pub const GRAM_F64_LANES: usize = 4;

/// Canonical lane fold: plain sequential sum in lane order.
#[inline]
pub fn fold(lanes: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &l in lanes {
        acc += l;
    }
    acc
}

/// Combine the component-product lane states of an **unconjugated**
/// complex dot `xᵀy`.
///
/// `p[2l] / p[2l+1]` hold Σ xr·yr / Σ xi·yi partials for complex lane
/// `l`; `q[2l] / q[2l+1]` hold Σ xr·yi / Σ xi·yr (the "swapped-y"
/// stream a vector backend gets from one in-lane permute). Then
/// `re = Σp_even − Σp_odd`, `im = Σq_even + Σq_odd`, with each partial
/// sum folded sequentially in lane order.
#[inline]
pub fn combine_t(p: &[f64], q: &[f64]) -> (f64, f64) {
    let (mut pr, mut pi, mut qr, mut qi) = (0.0_f64, 0.0_f64, 0.0_f64, 0.0_f64);
    let mut l = 0;
    while l < p.len() {
        pr += p[l];
        pi += p[l + 1];
        qr += q[l];
        qi += q[l + 1];
        l += 2;
    }
    (pr - pi, qr + qi)
}

/// f64 lanes of the paired-Lanczos reductions (`lanczos_pair_project`,
/// `lanczos_pair_advance`): component `p` of a lane-interleaved vector
/// lands in lane `p mod PAIR_LANES`, so the even lanes belong to the
/// right-hand side riding in the `re` slots and the odd lanes to the one
/// in the `im` slots.
pub(crate) const PAIR_LANES: usize = 8;

/// The two sums of a paired reduction: even lanes, odd lanes, each folded
/// sequentially in lane order.
#[inline]
pub(crate) fn fold_pair(state: &[f64; PAIR_LANES]) -> [f64; 2] {
    let mut out = [0.0; 2];
    for (l, &v) in state.iter().enumerate() {
        out[l % 2] += v;
    }
    out
}

/// Lane state of one pair `(p, q)` of a pair-packed Gram product `LᵀY`
/// (`block_lanczos_project`, `block_lanczos_orthogonalize`): `[0]` sums
/// `l_{2p+σ}·y_{2q+σ}`, `[1]` sums `l_{2p+σ}·y_{2q+1−σ}`, row `i` of slot
/// `σ` in lane `2·(i mod 2) + σ` — the lanes of one vector of two rows.
pub(crate) type BlockPairState = [[f64; 4]; 2];

/// Write the entries of pair `(p, q)` that fall inside the `s × s` Gram
/// `out` (column-major): each is its two row lanes summed. With `sym` the
/// product is `YᵀY`, of which only `p ≤ q` was accumulated, and every
/// entry is mirrored; inside a diagonal pair the two off-diagonal entries
/// are the same products in the same order, so `out` is exactly symmetric.
pub(crate) fn finish_block_pair(
    s: usize,
    p: usize,
    q: usize,
    sym: bool,
    st: &BlockPairState,
    out: &mut [f64],
) {
    for sigma in 0..2 {
        let a = 2 * p + sigma;
        for (k, b) in [(0, 2 * q + sigma), (1, 2 * q + 1 - sigma)] {
            if a < s && b < s {
                let v = st[k][sigma] + st[k][2 + sigma];
                out[a + s * b] = v;
                if sym {
                    out[b + s * a] = v;
                }
            }
        }
    }
}
