#!/usr/bin/env bash
# Tier-1 verification: build, test, format, lint. Run from the repo root.
set -euo pipefail

# One line per leg in target/ci_legs.tsv, `leg<TAB>ran|skipped<TAB>reason`,
# printed last: a skipped sanitizer leg is a row a script can read, not
# only a line somewhere in the log.
LEGS=target/ci_legs.tsv
mkdir -p target
: >"$LEGS"
leg() { printf '%s\t%s\t%s\n' "$1" "$2" "$3" >>"$LEGS"; }

# One dependency graph: the numeric stand-ins under crates/e2e/stubs and the
# seeded property loops of crates/check are the whole graph, so every cargo
# call builds offline as written. Outside crates/e2e a dependency is a path crate or a
# `workspace = true` reference to one; the criterion benches and the
# per-call pool helper they needed stay deleted (kernels_bench is the
# kernel bench, and a pool is sized once per process).
BAD_DEPS="$(find . -name Cargo.toml -not -path './target/*' -not -path './crates/e2e/*' \
    -exec awk '/^\[/ { deps = /dependencies\]$/ }
        /^\[.*dependencies\./ { print FILENAME ": " $0 }
        deps && !/^\[/ && NF && !/^#/ && !/path *=|workspace *= *true/ { print FILENAME ": " $0 }' {} +)"
if [ -n "$BAD_DEPS" ]; then
    echo "ci: a dependency that is not an in-tree path crate is back:"
    echo "$BAD_DEPS"
    exit 1
fi
if [ -e crates/bench/benches ] \
    || grep -rnw --include=Cargo.toml --exclude-dir=target --exclude-dir=e2e criterion . \
    || grep -rnw --include='*.rs' with_threads crates src tests examples | grep -v '^crates/e2e/'; then
    echo "ci: criterion, crates/bench/benches/ or with_threads is back"
    exit 1
fi
leg one-dependency-graph ran "in-tree path dependencies only; no criterion, benches or with_threads"

cargo build --release --workspace
leg build ran "release build of the workspace"
cargo test -q --workspace
cargo test -q --workspace --doc
leg test ran "unit, integration and doc tests of the workspace"
cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
leg fmt-clippy ran "rustfmt check, clippy -D warnings"

# In-tree invariant linter: rules the compiler can't see (SAFETY comments,
# unjustified unwraps, float ==, HashMap iteration order, stray prints,
# narrowing index casts) plus the structure-aware concurrency/unsafety
# rules (atomic_ordering, unsafe_wrapper, nested_par, lock_hold,
# schema_tag) and the workspace-level unreached_pub. --deny makes any
# finding fail CI; the JSON findings report is schema-validated by the
# same binary; --timing surfaces the cost of the shared lex + scope-tree
# pass in the CI log.
cargo run --release -p mbrpa-lint -- --deny --timing --json target/lint_findings.json
cargo run --release -p mbrpa-lint -- --validate target/lint_findings.json
# The library items kept without a shipped caller, each with its reason,
# may only become fewer: lower the ceiling when one goes.
UNREACHED_ALLOWS=27
n="$(grep -rhF -- '// lint: allow(unreached_pub)' \
    crates/{simd,linalg,grid,dft,solver,core,ckpt,obs,schema,serve}/src | wc -l)"
if [ "$n" -gt "$UNREACHED_ALLOWS" ]; then
    echo "ci: $n allow(unreached_pub) suppressions, ceiling $UNREACHED_ALLOWS — give the new item a shipped caller"
    exit 1
fi
leg lint ran "mbrpa-lint --deny, findings report validated, $n of $UNREACHED_ALLOWS unreached_pub allows"

# One JSON toolkit: the string escaper and the `\uXXXX` reader exist once,
# in crates/schema (crates/e2e measures the program from outside and is
# exempt). A second copy anywhere else is how four private parsers grew.
if grep -rnE --include='*.rs' 'u\{:04x\}|fn (hex4|unicode_escape)' crates src tests examples \
    | grep -vE '^crates/(schema|e2e)/'; then
    echo "ci: JSON escape writer or \\u reader outside crates/schema — use mbrpa_schema::json"
    exit 1
fi

# One run path: `RpaSetup::run_with` is the only way into the frequency
# loop and `RpaSetup::from_input` the only place that picks the KS solver
# by grid size (crates/e2e rebuilds the rule from outside, crates/bench has
# its own ladder set-up; both are exempt). A `*_cancellable` twin or a
# second copy of the size rule is how four entry points grew.
if grep -rnE --include='*.rs' 'fn \w*_(cancellable|resumable_cancellable)\b' crates/core/src; then
    echo "ci: a *_cancellable entry point is back under crates/core/src — extend RunOptions instead"
    exit 1
fi
if grep -rnF --include='*.rs' 'n_grid() <= 1000' crates src tests examples \
    | grep -vE '^crates/(e2e|bench)/' \
    | grep -v '^crates/core/src/rpa.rs:'; then
    echo "ci: dense-vs-CheFSI size rule outside RpaSetup::from_input — call from_input"
    exit 1
fi
[ "$(grep -cF 'n_grid() <= 1000' crates/core/src/rpa.rs)" = 1 ] \
    || { echo "ci: the size rule must appear exactly once, in RpaSetup::from_input"; exit 1; }

# One Sternheimer solve path: Alg. 3 has no column-narrowing layer (it
# would move every pinned energy and count; switching it on is a bench
# argument of its own), the column split of a block apply lives once in
# crates/grid/src/par.rs, and both fingerprints hash one field list.
if grep -rnw --include='*.rs' 'deflate' crates/solver/src; then
    echo "ci: \`deflate\` is back under crates/solver/src — Alg. 3 iterates on the block it was given"
    exit 1
fi
if grep -nF 'into_par_iter' crates/dft/src/hamiltonian.rs crates/grid/src/stencil.rs; then
    echo "ci: a block apply splits its own columns — call mbrpa_grid::par::apply_columns"
    exit 1
fi
if grep -nE 'FINGERPRINT_SCHEMA: u64 = 1;' crates/core/src/checkpoint.rs; then
    echo "ci: FINGERPRINT_SCHEMA is 1 again — schema-1 snapshots hashed a hand-kept field list"
    exit 1
fi

# Region gates read a function's body, or what follows a call in it, by
# balancing braces or parentheses — never by indentation, which rustfmt
# changes when a line grows — and fail when the anchor is missing, never
# closes, or leaves nothing to check: a gate that reads an empty region
# checks nothing and must not pass.
# fn_body FILE ANCHOR: the lines from the first match of the ERE ANCHOR
# through the one that balances its braces, signature and body included.
fn_body() {
    awk -v a="$2" '
        !on && $0 ~ a { on = 1 }
        on {
            print; lines++
            n = split($0, ch, "")
            for (i = 1; i <= n; i++) {
                if (ch[i] == "{") { depth++; opened = 1 }
                else if (ch[i] == "}") depth--
            }
            if (opened && depth == 0) { closed = 1; exit }
        }
        END { exit !(closed && lines > 2) }' "$1"
}
# after_call TEXT CALL: the lines of TEXT after the call that starts on the
# first line matching the ERE CALL, from the line that balances its
# parentheses on.
after_call() {
    awk -v c="$2" '
        closed { print; lines++; next }
        !on && $0 ~ c { on = 1 }
        on {
            n = split($0, ch, "")
            for (i = 1; i <= n; i++) {
                if (ch[i] == "(") depth++
                else if (ch[i] == ")") depth--
            }
            if (depth == 0) closed = 1
        }
        END { exit !(closed && lines > 0) }' <<<"$1"
}

# An apply that costs its grid points: one projector path — the plain
# projector-by-projector loops survive under crates/dft/src only as the
# `#[cfg(test)]` oracle the kernel is compared with — and nothing about an
# apply that does not depend on the vector is rebuilt per call: the halo
# plan (the old per-call `wrap_tab` tables) belongs to `Laplacian::new`.
# The count that proves it, crates/dft/tests/apply_alloc.rs, ran in the
# `cargo test --workspace` leg above; it must stay one `#[test]` there.
for f in crates/dft/src/*.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nF '.indices.iter().zip('; then
        echo "ci: a plain projector loop outside #[cfg(test)] in $f — call NonlocalProjectors::apply_add"
        exit 1
    fi
done
STENCIL_APPLY="$(fn_body crates/grid/src/stencil.rs 'pub fn apply<')" \
    || { echo "ci: no \`pub fn apply<\` body in crates/grid/src/stencil.rs — the halo-table gate reads nothing"; exit 1; }
if grep -nE 'wrap_tab|\.collect\(|vec!|Vec::' <<<"$STENCIL_APPLY"; then
    echo "ci: Laplacian::apply builds a table per call — it belongs to the SweepPlan of Laplacian::new"
    exit 1
fi
[ "$(grep -c '^#\[test\]' crates/dft/tests/apply_alloc.rs)" = 1 ] \
    || { echo "ci: crates/dft/tests/apply_alloc.rs must hold its one #[test] (the warm-apply allocation count)"; exit 1; }

# Wake-driven serve path: nothing between a connection arriving and its
# reply, or between `queue.submit` and `queue.claim`, waits on a clock. The
# listener blocks in accept(), idle executors wait on the queue's condvar,
# and the router's poller waits out its interval on one a drain notifies.
if grep -n 'set_nonblocking' crates/serve/src/http.rs; then
    echo "ci: a non-blocking accept poll is back in serve/http.rs — the handler threads block in accept()"
    exit 1
fi
if grep -n 'thread::sleep' crates/serve/src/executor.rs; then
    echo "ci: serve/executor.rs sleeps — an idle executor waits on ServeShared::wake"
    exit 1
fi
if grep -n 'from_millis(25)' crates/serve/src/router.rs; then
    echo "ci: a 25 ms slice is back in serve/router.rs — the poller waits on drain_wake"
    exit 1
fi

# Derive, don't store twice: nothing on the serve path rewrites a whole
# collection per request. Cache recency is the entry files' mtime, a route
# is one record beside its body, job ids come from a counter seeded by the
# one listing JobStore::open does.
for f in crates/serve/src/*.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'persist_lru|route-table\.json'; then
        echo "ci: a recency journal or a route-table.json is back in $f — recency is the entry mtime, a route is jobs/<rid>.route.json"
        exit 1
    fi
done
if sed -n '/pub fn allocate/,/^    }$/p' crates/serve/src/store.rs | grep -n 'read_dir'; then
    echo "ci: JobStore::allocate lists the jobs directory — ids come from the counter JobStore::open seeds"
    exit 1
fi

# One Sternheimer solve, unpreconditioned: the §V inverse-Laplacian path
# lost on every solve workload (EXPERIMENTS.md) and is gone — no trait, no
# `Z = M·W` branch in block COCG, no complex Kronecker kernel, no `.rpa` key.
if grep -rnE --include='*.rs' 'Preconditioner|refresh_z|apply_function_complex|"PRECOND" =>' \
    crates/solver/src crates/dft/src crates/grid/src crates/core/src; then
    echo "ci: a preconditioned Sternheimer path is back — every system is R + iω with real R, solved as is"
    exit 1
fi

# One χ⁰ apply: the paper's §III-D static column partition, closed shell.
# The §V manager-worker distribution lost on every solve workload
# (EXPERIMENTS.md) and no input could reach a spin-channel axis; both are
# gone, with their `.rpa` key.
if grep -rnE --include='*.rs' 'WorkStealing|SpinChannel|with_channels|"DISTRIBUTION" =>' \
    crates/core/src crates/bench/src; then
    echo "ci: a second χ⁰ work layout or a spin-channel axis is back — one task per (column range, orbital), folded in orbital order"
    exit 1
fi
# One `ν½` kernel: the Kronecker transform in `grid/kron.rs`, no slice
# GEMMs behind it. Algorithm 7's line 7 runs inside each χ⁰ task on the
# worker's own columns: `partitioned_apply` makes one `map_tasks` call and
# no `ν½` call after it.
if grep -rnE --include='*.rs' 'gemm_(nn|tn)_slices' crates/*/src; then
    echo "ci: slice GEMMs are back — the Kronecker transform is kron.rs's own kernel"
    exit 1
fi
PARTITIONED="$(fn_body crates/core/src/chi0.rs 'fn partitioned_apply')" \
    || { echo "ci: no partitioned_apply body in crates/core/src/chi0.rs — the ν½ gate reads nothing"; exit 1; }
AFTER_TASKS="$(after_call "$PARTITIONED" 'map_tasks\(')" \
    || { echo "ci: no closed map_tasks call in partitioned_apply — the ν½ gate reads nothing"; exit 1; }
if [ "$(grep -c 'map_tasks(' <<<"$PARTITIONED")" != 1 ] \
    || grep -nE 'apply_nu_sqrt|map_tasks' <<<"$AFTER_TASKS"; then
    echo "ci: partitioned_apply must be one map_tasks call with ν½ inside each task"
    exit 1
fi
# The region gates, fed copies they must read the same way and copies they
# must refuse: every line indented four more spaces (what a longer line
# that rustfmt wraps, or a move into a module, does to a closing brace)
# gives the same regions, indentation aside; a copy whose anchor is
# renamed, and one cut off before the body closes, fail.
GATE_DIR=target/gate_selftest
rm -rf "$GATE_DIR"
mkdir -p "$GATE_DIR"
for f in crates/grid/src/stencil.rs crates/core/src/chi0.rs; do
    sed 's/^/    /' "$f" >"$GATE_DIR/indented_$(basename "$f")"
done
unindent() { sed 's/^    //'; }
[ "$(fn_body "$GATE_DIR/indented_stencil.rs" 'pub fn apply<' | unindent)" = "$STENCIL_APPLY" ] \
    || { echo "ci: gate self-test: the halo-table region moved under re-indentation"; exit 1; }
INDENTED="$(fn_body "$GATE_DIR/indented_chi0.rs" 'fn partitioned_apply')"
[ "$(unindent <<<"$INDENTED")" = "$PARTITIONED" ] \
    && [ "$(after_call "$INDENTED" 'map_tasks\(' | unindent)" = "$AFTER_TASKS" ] \
    || { echo "ci: gate self-test: the partitioned_apply regions moved under re-indentation"; exit 1; }
sed 's/pub fn apply</pub fn apply_renamed</' crates/grid/src/stencil.rs >"$GATE_DIR/renamed_stencil.rs"
grep -m1 -B200 'map_tasks(' crates/core/src/chi0.rs >"$GATE_DIR/cut_chi0.rs"
if fn_body "$GATE_DIR/renamed_stencil.rs" 'pub fn apply<' >/dev/null \
    || fn_body "$GATE_DIR/cut_chi0.rs" 'fn partitioned_apply' >/dev/null \
    || after_call "$(sed 's/map_tasks(/map_all(/' <<<"$PARTITIONED")" 'map_tasks\(' >/dev/null; then
    echo "ci: gate self-test: a region gate read a missing or unclosed region"
    exit 1
fi
# One Gaussian elimination: block COCG's `s × s` solves run `Lu`'s
# in-place form, so a partial-pivot elimination (its pivot search or a
# permutation swap) lives in `crates/linalg/src/lu.rs` alone.
if grep -rlE --include='*.rs' 'perm\.swap\(|best_abs' crates/*/src | grep -v '^crates/linalg/src/lu\.rs$'; then
    echo "ci: a second partial-pivot elimination is back — factor with mbrpa_linalg::Lu"
    exit 1
fi
# One frequency loop in mbrpa-core: `rpa.rs`'s. The §V Lanczos-quadrature
# driver lives in mbrpa-bench beside its one caller.
while IFS= read -r f; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -vE '^\s*//|fn frequency_quadrature\(' \
        | grep -nF 'frequency_quadrature('; then
        echo "ci: $f walks the frequency quadrature outside #[cfg(test)] — the RPA driver in rpa.rs is core's one frequency loop"
        exit 1
    fi
done < <(find crates/core/src -name '*.rs' ! -name rpa.rs)
# No orbital files: the KS stage runs in-process on every run, so rpacalc
# has no flag that writes or reads a `.orb` file.
if grep -rnE -- '-save-ks|-load-ks' src/bin; then
    echo "ci: an orbital-file flag is back in src/bin — the KS stage runs in-process every run"
    exit 1
fi
# One ledger of solver work: the solvers fill `WorkerStats`, and
# `RpaSetup::run_with` publishes the `solver.cocg.*` / `solver.lanczos.*`
# counters from the χ⁰ operator's ledger once per frequency. A solver that
# writes them itself counts the same work twice.
if grep -rnE --include='*.rs' '"solver\.(cocg|lanczos)\.' crates/solver/src; then
    echo "ci: a solve counter is written under crates/solver/src — fill WorkerStats; run_with publishes it"
    exit 1
fi
# One Rayleigh–Ritz round: CheFSI and Algorithm 5 project with
# mbrpa_solver::rayleigh_ritz, beside the filter they share, so neither
# crate calls the generalized eigensolve outside #[cfg(test)].
while IFS= read -r f; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -vE '^\s*//' | grep -nF 'generalized_sym_eig('; then
        echo "ci: $f calls generalized_sym_eig — project with mbrpa_solver::rayleigh_ritz"
        exit 1
    fi
done < <(find crates/core/src crates/dft/src -name '*.rs')
# One Eq. 10 stop test: the Sternheimer solvers write their residual
# history through SolveReport's helpers in stats.rs, which keep its
# `iterations + 1` entries.
if grep -rnE --include='*.rs' 'residual_history\.(push|pop|extend)' crates/solver/src \
    | grep -v '^crates/solver/src/stats\.rs:'; then
    echo "ci: a solver edits its residual history itself — call SolveReport::test_iteration and its helpers"
    exit 1
fi
# One real solver family on the shipped Sternheimer path: a real block
# solve that breaks down restarts its columns as Lanczos pairs, so the
# real-arithmetic solvers never call complex block COCG.
if sed '/^#\[cfg(test)\]/,$d' crates/solver/src/shifted_lanczos.rs | grep -nw 'block_cocg_ws'; then
    echo "ci: shifted_lanczos.rs calls block_cocg_ws — a broken-down block restarts as Lanczos pairs"
    exit 1
fi
leg grep-gates ran "one-copy and removed-path source gates"

# Less library: the deleted files stay deleted, and so do the non-`pub`
# items below (private and `pub(crate)` helpers, a module, a counter). A
# deleted `pub` item of a library crate is mbrpa-lint's `unreached_pub`
# and clippy's dead-code business: without a shipped caller it fails the
# `lint` leg. The paper's χ⁰ is closed-shell (Eq. 5); a new caller writes
# what it needs, with its reason, in its place.
if [ -e crates/dft/src/occupations.rs ] || [ -e crates/linalg/src/svd.rs ] \
    || [ -e crates/core/src/rpa_lanczos.rs ] || [ -e crates/dft/src/orbital_io.rs ] \
    || grep -rnwE --include='*.rs' 'GaussScratch|orbital_io|count_solve|absorb_column|ThinPairs|finish_thin_gram|finish_cocg_gram|gemm_c64_4x4|gram2_c64|carried_dropped|HELD|struct Carried|enum Breakdown' \
        crates/*/src src; then
    echo "ci: a deleted library item is back — nothing outside its own tests called it"
    exit 1
fi
# One SIMD selector: MBRPA_SIMD. The `-simd` flag of rpacalc/rpaserved and
# the `force` override it called are gone.
if grep -rnwE --include='*.rs' 'force' crates/simd/src src/bin \
    || grep -rnE --include='*.rs' -- '(^|[^[:alnum:]_-])-simd([^[:alnum:]_-]|$)' crates/simd/src src/bin; then
    echo "ci: a second SIMD selector is back — MBRPA_SIMD is the one"
    exit 1
fi
leg uncalled-items ran "deleted library items stay deleted"

# One vector backend: AVX2 on x86-64, the bit-identical scalar twins on every
# other target. A backend that CI cannot build or test (the NEON one was
# never compiled) stays out, `neon` is an unknown dispatch name outside the
# tests that check so, and one macro routes every `*_on` call.
if [ -e crates/simd/src/neon.rs ] \
    || grep -rnE --include='*.rs' 'mod neon|Dispatch::Neon|target_arch = "aarch64"' crates/*/src src; then
    echo "ci: a NEON backend is back — aarch64 runs the scalar twins"
    exit 1
fi
while IFS= read -r f; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nF '"neon"'; then
        echo "ci: \"neon\" is spelled outside #[cfg(test)] in $f — Dispatch::parse is the one list of names"
        exit 1
    fi
done < <(find crates/*/src src -name '*.rs')
[ "$(grep -c 'macro_rules!' crates/simd/src/lib.rs)" = 1 ] \
    || { echo "ci: crates/simd/src/lib.rs must define one dispatch macro"; exit 1; }
leg one-backend ran "no NEON backend or dispatch name, one dispatch macro"

# One command-line reader: the shipped binaries, the bench harnesses and
# rpaclient take their arguments through mbrpa::cli, so `env::args` is read
# in src/cli.rs alone. crates/e2e (frozen with the benchmark) and
# crates/lint (which does not depend on mbrpa) keep their own loops.
if grep -rn --include='*.rs' 'env::args' src crates/bench/src crates/bench/examples examples | grep -v '^src/cli\.rs:'; then
    echo "ci: a front end reads std::env::args itself — parse through mbrpa::cli"
    exit 1
fi
leg one-flag-reader ran "std::env::args only in mbrpa::cli (src/bin, crates/bench/src, examples)"

# Sanitizer legs: Miri (UB in the unsafe SIMD/linalg kernels) and
# ThreadSanitizer (data races in the serve executor pool). Both need a
# nightly toolchain with specific components; when unavailable the legs
# SKIP loudly — a silent skip would let CI go green without the check
# anyone reading this script expects to have run.
NIGHTLY_OK=0
if command -v rustup >/dev/null 2>&1 && rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
    NIGHTLY_OK=1
fi
if [ "$NIGHTLY_OK" = 1 ] \
    && rustup component list --toolchain nightly 2>/dev/null | grep -q 'miri.*(installed)'; then
    # Miri cannot execute AVX2 intrinsics; MBRPA_SIMD=scalar pins the
    # dispatch to the path Miri can interpret, which is also the path
    # whose results every other path must match bit-for-bit.
    MBRPA_SIMD=scalar cargo +nightly miri test -p mbrpa-simd --lib
    MBRPA_SIMD=scalar cargo +nightly miri test -p mbrpa-linalg --lib par:: fcmp::
    leg miri ran "mbrpa-simd and mbrpa-linalg kernels under Miri, scalar dispatch"
else
    echo "ci: SKIP miri leg — nightly toolchain with the miri component is not installed" \
         "(rustup toolchain install nightly && rustup component add miri --toolchain nightly)"
    leg miri skipped "nightly toolchain with the miri component is not installed"
fi
if [ "$NIGHTLY_OK" = 1 ] \
    && rustup component list --toolchain nightly 2>/dev/null | grep -q 'rust-src.*(installed)'; then
    # TSan needs -Zbuild-std so std itself is instrumented; target the
    # concurrency-heavy serve suites (executor pool, HTTP workers).
    TSAN_TARGET="$(rustc -vV | sed -n 's/^host: //p')"
    RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -Zbuild-std \
        --target "$TSAN_TARGET" -p mbrpa-serve --test http_api
    leg tsan ran "mbrpa-serve http_api under ThreadSanitizer"
else
    echo "ci: SKIP thread-sanitizer leg — nightly toolchain with rust-src is not installed" \
         "(rustup component add rust-src --toolchain nightly)"
    leg tsan skipped "nightly toolchain with rust-src is not installed"
fi

# Daemon smoke test: serve the tiny Dirichlet-cluster job end-to-end
# through the HTTP API on an ephemeral port, schema-validate the stored
# result and profile documents with the daemon's own --validate mode,
# then drain gracefully and check the exit status.
cargo build --release --example rpaclient
SERVE_ROOT="target/serve_smoke"
rm -rf "$SERVE_ROOT"
mkdir -p "$SERVE_ROOT"
target/release/rpaserved -root "$SERVE_ROOT/store" -addr 127.0.0.1:0 \
    -port-file "$SERVE_ROOT/addr.txt" -executors 1 -profile &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 200); do
    [ -s "$SERVE_ROOT/addr.txt" ] && break
    sleep 0.1
done
SERVE_ADDR="$(cat "$SERVE_ROOT/addr.txt")"
RPACLIENT=target/release/examples/rpaclient
"$RPACLIENT" -addr "$SERVE_ADDR" submit inputs/cluster_smoke.rpa -name ci-smoke
"$RPACLIENT" -addr "$SERVE_ADDR" wait job-000001
# nobody interrupted this 3-frequency job: it must not call itself a restart
grep -q '"n_restored":0' "$SERVE_ROOT/store/jobs/job-000001/result.json" \
    || { echo "ci: an uninterrupted served job reports restored frequencies"; exit 1; }
"$RPACLIENT" -addr "$SERVE_ADDR" health
target/release/rpaserved -validate result "$SERVE_ROOT/store/jobs/job-000001/result.json"
target/release/rpaserved -validate profile "$SERVE_ROOT/store/jobs/job-000001/profile.json"
# Result-cache leg: resubmitting the same calculation must be served
# from the cache (200 + "cached":true) with the exact f64 bit pattern of
# the stored result, a flush must empty it, and the next submission must
# queue a real job again (201 miss). The cache entry on disk is
# schema-validated like every other stored document.
HIT_BODY="$("$RPACLIENT" -addr "$SERVE_ADDR" submit inputs/cluster_smoke.rpa -name ci-cache-hit)"
echo "$HIT_BODY" | grep -q '"cached":true' \
    || { echo "ci: resubmission was not served from the cache: $HIT_BODY"; exit 1; }
STORED_BITS="$(grep -o '"total_energy_bits":"[0-9a-f]\{16\}"' \
    "$SERVE_ROOT/store/jobs/job-000001/result.json")"
echo "$HIT_BODY" | grep -qF "$STORED_BITS" \
    || { echo "ci: cached bits differ from the stored result: $HIT_BODY"; exit 1; }
CACHE_ENTRY="$(ls "$SERVE_ROOT"/store/cache/*.json)"
target/release/rpaserved -validate cache-entry "$CACHE_ENTRY"
"$RPACLIENT" -addr "$SERVE_ADDR" cache
"$RPACLIENT" -addr "$SERVE_ADDR" cache-flush
"$RPACLIENT" -addr "$SERVE_ADDR" submit inputs/cluster_smoke.rpa -name ci-cache-miss \
    | grep -q '"state":"queued"' \
    || { echo "ci: submission after a flush should queue a real job"; exit 1; }
"$RPACLIENT" -addr "$SERVE_ADDR" wait job-000002
"$RPACLIENT" -addr "$SERVE_ADDR" shutdown
wait "$SERVE_PID"
trap - EXIT
leg daemon-smoke ran "served job, stored documents validated, cache hit/flush/miss"

# Forced-dispatch matrix: the SIMD layer's contract is that every
# dispatch path returns bit-identical results. Re-run the golden
# pinned-energy test and a full daemon round-trip under the canonical
# scalar path and the best native vector path, and require the stored
# `total_energy_bits` of each shipped input to equal its pinned value on
# every path. The three inputs' projectors take the dense form, so this is
# also the end-to-end gate of the dense kernel against the sparse one it
# replaced; Si8.rpa and Si7_vacancy.rpa run real block Lanczos chunks and
# odd-width Lanczos pairs end to end.
DISPATCH_MATRIX="scalar"
grep -q avx2 /proc/cpuinfo 2>/dev/null && DISPATCH_MATRIX="$DISPATCH_MATRIX avx2"
PINNED_INPUTS="cluster_smoke:bfc6a7a1a856899e Si8:bfd480a981dc5d2d Si7_vacancy:bfd1ac3fa64ae1f8"
for SIMD in $DISPATCH_MATRIX; do
    MBRPA_SIMD="$SIMD" cargo test -q --release --test golden_energy
    ROOT="target/serve_dispatch_$SIMD"
    rm -rf "$ROOT"
    mkdir -p "$ROOT"
    MBRPA_SIMD="$SIMD" target/release/rpaserved -root "$ROOT/store" -addr 127.0.0.1:0 \
        -port-file "$ROOT/addr.txt" -executors 1 &
    SERVE_PID=$!
    trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
    for _ in $(seq 1 200); do
        [ -s "$ROOT/addr.txt" ] && break
        sleep 0.1
    done
    ADDR="$(cat "$ROOT/addr.txt")"
    "$RPACLIENT" -addr "$ADDR" health | grep -q "\"simd\":\"$SIMD\"" \
        || { echo "ci: daemon health does not report dispatch '$SIMD'"; exit 1; }
    JOB=0
    for PINNED_INPUT in $PINNED_INPUTS; do
        INPUT="${PINNED_INPUT%%:*}"
        PINNED="${PINNED_INPUT#*:}"
        JOB=$((JOB + 1))
        JOB_ID="$(printf 'job-%06d' "$JOB")"
        "$RPACLIENT" -addr "$ADDR" submit "inputs/$INPUT.rpa" -name "ci-dispatch-$SIMD-$INPUT"
        "$RPACLIENT" -addr "$ADDR" wait "$JOB_ID"
        BITS="$(grep -o '"total_energy_bits":"[0-9a-f]\{16\}"' \
            "$ROOT/store/jobs/$JOB_ID/result.json")"
        [ -n "$BITS" ] || { echo "ci: no total_energy_bits in the $SIMD result of $INPUT.rpa"; exit 1; }
        if [ "\"total_energy_bits\":\"$PINNED\"" != "$BITS" ]; then
            echo "ci: served $INPUT.rpa energy under $SIMD is $BITS, pinned $PINNED"
            exit 1
        fi
    done
    "$RPACLIENT" -addr "$ADDR" shutdown
    wait "$SERVE_PID"
    trap - EXIT
done
leg dispatch-matrix ran "golden energy and pinned served bits of cluster_smoke, Si8 and Si7_vacancy on: $DISPATCH_MATRIX"

# Dense eigensolver bits: the pin test of `symmetric_eig` and
# `generalized_sym_eig` under every path of the dispatch matrix above and
# on one and two pool threads. The eigensolvers call no dispatched kernel,
# but the Kohn–Sham matrices they are pinned on come from the dispatched
# Hamiltonian apply, and a split of their work over the pool must not move
# a bit either.
for SIMD in $DISPATCH_MATRIX; do
    for THREADS in 1 2; do
        MBRPA_SIMD="$SIMD" RAYON_NUM_THREADS="$THREADS" \
            cargo test -q --release -p mbrpa-dft --test dense_eig_bits \
            || { echo "ci: dense eigensolver bits moved under $SIMD on $THREADS threads"; exit 1; }
    done
done
leg dense-eig-bits ran "dense_eig_bits on: $DISPATCH_MATRIX x 1 and 2 threads"

# Block Lanczos bits: the pin test of `shifted_block_lanczos` (its `s × s`
# recurrence, the Galerkin start and the restart as Lanczos pairs) under
# every path of the dispatch matrix and on one and two pool threads. The
# sweeps are dispatched kernels, and the Sternheimer operators come from
# the dispatched Hamiltonian apply.
for SIMD in $DISPATCH_MATRIX; do
    for THREADS in 1 2; do
        MBRPA_SIMD="$SIMD" RAYON_NUM_THREADS="$THREADS" \
            cargo test -q --release -p mbrpa-solver --test block_lanczos_bits \
            || { echo "ci: block Lanczos bits moved under $SIMD on $THREADS threads"; exit 1; }
    done
done
leg block-step-bits ran "block_lanczos_bits on: $DISPATCH_MATRIX x 1 and 2 threads"

# Multi-worker smoke test: two workers on one shared checkpoint root
# behind an rparouter. One job is routed by rendezvous hash and served
# through the router; then the job's owner is SIGKILLed mid-fleet and
# the router must hand a fresh submission to the survivor (worker loss
# handling, exercised at full depth by tests/router_failover.rs). The
# persisted route records are schema-validated by the router's own
# --validate mode.
FLEET_ROOT="target/router_smoke"
rm -rf "$FLEET_ROOT"
mkdir -p "$FLEET_ROOT"
target/release/rpaserved -root "$FLEET_ROOT/store-a" -ckpt-root "$FLEET_ROOT/ckpt" \
    -addr 127.0.0.1:0 -port-file "$FLEET_ROOT/a.txt" -executors 1 &
WORKER_A=$!
target/release/rpaserved -root "$FLEET_ROOT/store-b" -ckpt-root "$FLEET_ROOT/ckpt" \
    -addr 127.0.0.1:0 -port-file "$FLEET_ROOT/b.txt" -executors 1 &
WORKER_B=$!
trap 'kill "$WORKER_A" "$WORKER_B" "${ROUTER_PID:-}" 2>/dev/null || true' EXIT
for _ in $(seq 1 200); do
    [ -s "$FLEET_ROOT/a.txt" ] && [ -s "$FLEET_ROOT/b.txt" ] && break
    sleep 0.1
done
target/release/rparouter -root "$FLEET_ROOT/router" \
    -worker "$(cat "$FLEET_ROOT/a.txt")" -worker "$(cat "$FLEET_ROOT/b.txt")" \
    -addr 127.0.0.1:0 -port-file "$FLEET_ROOT/r.txt" \
    -poll-ms 150 -fail-threshold 2 &
ROUTER_PID=$!
for _ in $(seq 1 200); do
    [ -s "$FLEET_ROOT/r.txt" ] && break
    sleep 0.1
done
ROUTER_ADDR="$(cat "$FLEET_ROOT/r.txt")"
# the client speaks to the router exactly as it would to a single worker
"$RPACLIENT" -addr "$ROUTER_ADDR" submit inputs/cluster_smoke.rpa -name ci-fleet
"$RPACLIENT" -addr "$ROUTER_ADDR" wait rjob-000001
"$RPACLIENT" -addr "$ROUTER_ADDR" health | grep -q '"router":' \
    || { echo "ci: router health lacks the router block"; exit 1; }
ROUTE_RECORD="$FLEET_ROOT/router/jobs/rjob-000001.route.json"
target/release/rparouter -validate route-table "$ROUTE_RECORD"
# worker loss: kill the job's owner, submit a *different* job, and the
# router must route it to the survivor
OWNER_ADDR="$(grep -o '"worker":"[^"]*"' "$ROUTE_RECORD" | head -n1 | cut -d'"' -f4)"
if [ "$OWNER_ADDR" = "$(cat "$FLEET_ROOT/a.txt")" ]; then
    kill -9 "$WORKER_A"
else
    kill -9 "$WORKER_B"
fi
sed 's/^SYSTEM_SEED: 7$/SYSTEM_SEED: 11/' inputs/cluster_smoke.rpa > "$FLEET_ROOT/variant.rpa"
grep -q 'SYSTEM_SEED: 11' "$FLEET_ROOT/variant.rpa" \
    || { echo "ci: variant input was not rewritten"; exit 1; }
"$RPACLIENT" -addr "$ROUTER_ADDR" submit "$FLEET_ROOT/variant.rpa" -name ci-fleet-failover
"$RPACLIENT" -addr "$ROUTER_ADDR" wait rjob-000002
target/release/rparouter -validate route-table "$FLEET_ROOT/router/jobs/rjob-000002.route.json"
"$RPACLIENT" -addr "$ROUTER_ADDR" shutdown
wait "$ROUTER_PID"
kill "$WORKER_A" "$WORKER_B" 2>/dev/null || true
wait "$WORKER_A" 2>/dev/null || true
wait "$WORKER_B" 2>/dev/null || true
trap - EXIT
leg router-smoke ran "two workers behind rparouter, owner killed, failover served"

# Kernel micro-benchmarks: smoke shapes keep this fast; the run times
# the live kernels only and the emitted JSON is schema-validated. The
# artifact lives under target/ so it can never be committed by accident.
# A second run on two rayon threads exercises the multi-vector parallel
# paths.
cargo run --release -p mbrpa-bench --bin kernels_bench -- --smoke --out target/BENCH_kernels_smoke.json
cargo run --release -p mbrpa-bench --bin kernels_bench -- --validate target/BENCH_kernels_smoke.json
cargo run --release -p mbrpa-bench --bin kernels_bench -- --smoke --threads 2 --out target/BENCH_kernels_smoke_mt.json
cargo run --release -p mbrpa-bench --bin kernels_bench -- --validate target/BENCH_kernels_smoke_mt.json
leg kernels-bench ran "smoke kernels on 1 and 2 threads, reports validated"

# The committed BENCH_kernels.json is the baseline a later run is read
# against, so it must hold a row for every case a full run emits: one
# full single-thread run (its timings are thrown away), then its case
# names against the committed ones.
RAYON_NUM_THREADS=1 cargo run --release -p mbrpa-bench --bin kernels_bench -- \
    --threads 1 --out target/BENCH_kernels_full.json
case_names() { grep -o '"name":"[^"]*"' "$1" | sort -u; }
MISSING_ROWS="$(comm -13 <(case_names BENCH_kernels.json) <(case_names target/BENCH_kernels_full.json))"
if [ -n "$MISSING_ROWS" ]; then
    echo "ci: BENCH_kernels.json lacks cases a full kernels_bench run emits:"
    echo "$MISSING_ROWS"
    exit 1
fi
leg kernels-bench-rows ran "committed BENCH_kernels.json holds every case of a full run"

# End-to-end smoke: the four BENCHMARK.json workloads at seconds-long
# shapes through the benchmark's own entry point. The exit code gates
# correctness only — energies against the pinned smoke references,
# convergence, cache-hit bits equal to miss bits; the timings it prints
# are for the log, not a gate (this machine is not the one the numbers
# were committed on). run.sh builds the same graph as the build above, so
# it reuses target/ and rebuilds nothing.
for WORKLOAD in si8_solve finegrid_solve cluster_ckpt_solve serve_mix; do
    bash crates/e2e/run.sh --workload "$WORKLOAD" --smoke \
        || { echo "ci: e2e smoke failed on $WORKLOAD"; exit 1; }
done
leg e2e-smoke ran "four BENCHMARK.json workloads at smoke shapes"

# Work counters of the three solve workloads (ROADMAP 5(b)): wall time
# cannot gate on this machine, these repeat exactly. A traced smoke run
# (seed 2024) must read the committed counts — `solver.solves`,
# `solver.cocg_iterations`, `solver.matvecs`, `core.filter_rounds`, recorded
# at the parent of ISSUE 23 and unchanged by it. A change that moves one
# changed the iterates: say so and re-record, or find the bug.
mkdir -p target/e2e_smoke
while read -r WORKLOAD SOLVES ITERATIONS MATVECS ROUNDS; do
    bash crates/e2e/run.sh --workload "$WORKLOAD" --smoke \
        --trace 1 --seed 2024 --out "target/e2e_smoke/$WORKLOAD.counters.json" \
        >"target/e2e_smoke/$WORKLOAD.counters.txt" \
        || { echo "ci: traced e2e smoke failed on $WORKLOAD"; exit 1; }
    GOT=$(awk '$1 == "solver.solves" || $1 == "solver.cocg_iterations" || $1 == "solver.matvecs" \
        || $1 == "core.filter_rounds" { printf "%s=%d ", $1, $2 }' "target/e2e_smoke/$WORKLOAD.counters.txt")
    WANT="core.filter_rounds=$ROUNDS solver.solves=$SOLVES solver.cocg_iterations=$ITERATIONS solver.matvecs=$MATVECS "
    [ "$GOT" = "$WANT" ] \
        || { echo "ci: $WORKLOAD work counters moved: got $GOT, committed $WANT"; exit 1; }
done <<'COUNTERS'
si8_solve 12288 93887 125884 15
finegrid_solve 4096 29471 43350 10
cluster_ckpt_solve 11520 23461 105364 11
COUNTERS
leg work-counters ran "traced smoke counters of the three solve workloads"

# No lone Lanczos solve under Alg. 4 on Si8.rpa: the `s = 1` probe solves
# each block's last column in its idle slot, and Alg. 4 schedules the other
# columns only, so no column is solved twice. A profiled Si8.rpa run must
# count no Lanczos call with an idle slot, and its block-size table (Table
# IV) must read as committed: the chunks of the columns before the last
# one, with the last column among the width-1 solves. It must count no
# breakdown either: a real block solve that breaks down drops its steps
# and restarts its columns as Lanczos pairs, so a shipped input that
# reached it would redo work. Si7_vacancy.rpa, the other shipped solve
# input (odd worker width, so it keeps lone Lanczos calls), must not
# reach it either.
CARRY_DIR="target/ci_carry"
rm -rf "$CARRY_DIR"
mkdir -p "$CARRY_DIR"
cp inputs/Si8.rpa "$CARRY_DIR/"
(cd "$CARRY_DIR" && ../release/rpacalc -name Si8 -profile profile.json >run.log)
LONE="$(grep -o '"solver.lanczos.lone_solves":[0-9]*' "$CARRY_DIR/profile.json" | cut -d: -f2)"
[ "$LONE" = 0 ] \
    || { echo "ci: Si8.rpa ran ${LONE:-an uncounted number of} lone Lanczos solves, want 0"; exit 1; }
grep -qE '"solver\.cocg\.breakdowns":0[,}]' "$CARRY_DIR/profile.json" \
    || { echo "ci: a Si8.rpa block broke down and restarted as pairs (solver.cocg.breakdowns is not 0)"; exit 1; }
cp inputs/Si7_vacancy.rpa "$CARRY_DIR/"
(cd "$CARRY_DIR" && ../release/rpacalc -name Si7_vacancy -profile vacancy.json >>run.log)
grep -qE '"solver\.cocg\.breakdowns":0[,}]' "$CARRY_DIR/vacancy.json" \
    || { echo "ci: a Si7_vacancy.rpa block broke down and restarted as pairs (solver.cocg.breakdowns is not 0)"; exit 1; }
GOT_TABLE="$(sed -n '/^Block size | Count | Fraction$/,/^Worker /p' "$CARRY_DIR/Si8.out" | sed '$d')"
WANT_TABLE="$(cat <<'TABLE'
Block size | Count | Fraction
         1 |  70428 |  81.878%
         2 |  13568 |  15.774%
         4 |   1740 |   2.023%
         8 |    280 |   0.326%
TABLE
)"
[ "$GOT_TABLE" = "$WANT_TABLE" ] \
    || { echo "ci: Si8.rpa block-size table moved:"; echo "$GOT_TABLE"; exit 1; }
leg lanczos-carry ran "Si8.rpa: no lone Lanczos solve, block-size table as committed; Si8.rpa and Si7_vacancy.rpa: no block broke down and restarted as pairs"

# One χ⁰ result on any thread count: the apply runs one task per (column
# range, orbital) on whichever thread is free and folds each range's
# orbitals in orbital order, so Si8.rpa (NP 4) on one thread and on two
# prints the same energy and error lines and the same block-size table,
# and profiles to the same traces and solver counters (busy times and
# workspace growth, which follow the threads, aside).
INV_DIR="target/ci_threads"
rm -rf "$INV_DIR"
for t in 1 2; do
    mkdir -p "$INV_DIR/t$t"
    cp inputs/Si8.rpa "$INV_DIR/t$t/"
    (cd "$INV_DIR/t$t" && ../../release/rpacalc -name Si8 -threads "$t" -profile profile.json >run.log)
done
# the ω tables without their timing column, the energy lines, Table IV
out_lines() {
    awk '$5 == ";" { $NF = ""; print; next } /^omega [0-9]|^Total RPA/ { print }' "$1/Si8.out"
    sed -n '/^Block size | Count | Fraction$/,/^Worker /p' "$1/Si8.out" | sed '$d'
}
profile_lines() {
    grep -oE '"(solver\.(cocg|lanczos)\.[a-z_]+|solver\.width\.s[0-9]+\.(columns|steps)|chi0\.applications|omega\[[0-9]+\]/[a-z_.]+)":[0-9]+' \
        "$1/profile.json" | sort
    grep -oE '\{"name":"omega\[[0-9]+\]/sternheimer\.orbital_iterations"[^}]*\}' "$1/profile.json"
    sed -E 's/.*"traces":(.*),"dropped_traces".*/\1/' "$1/profile.json"
}
for what in out_lines profile_lines; do
    ONE="$("$what" "$INV_DIR/t1")"
    TWO="$("$what" "$INV_DIR/t2")"
    [ -n "$ONE" ] && [ "$(grep -c . <<<"$ONE")" -gt 8 ] \
        || { echo "ci: thread-invariance: $what read nothing from the one-thread run"; exit 1; }
    [ "$ONE" = "$TWO" ] \
        || { echo "ci: Si8.rpa $what differ between -threads 1 and -threads 2:"; diff <(echo "$ONE") <(echo "$TWO"); exit 1; }
done
leg thread-invariance ran "Si8.rpa: same energies, errors, Table IV, traces and solver counters on 1 and 2 threads"

cat "$LEGS"
