//! The metric registry: every name the benchmark can print, with its unit
//! and direction. `BENCHMARK.json` lists exactly these (a self-test checks).

use mbrpa_serve::json::{obj, s, JsonValue};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}
const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Measured with tracing off, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    lo("setup_s", "s"),
    lo("solve_s", "s"),
    lo("peak_rss_mb", "MiB"),
    lo("miss_ms_p25", "ms"),
    hi("jobs_per_s", "1/s"),
];

/// Measured by the traced run. A metric that does not exist on a workload
/// (the HTTP phases on a solve workload, say) is printed as 0 and listed
/// under `not_applicable` in the `--out` document.
pub const PER_LAYER: &[MetricDef] = &[
    // core
    lo("core.run_s", "s"),
    lo("core.chi0_apply_s", "s"),
    lo("core.rr_matmult_s", "s"),
    lo("core.rr_eigensolve_s", "s"),
    lo("core.eval_error_s", "s"),
    lo("core.unattributed_s", "s"),
    lo("core.filter_rounds", "count"),
    lo("core.unconverged_omegas", "count"),
    lo("core.omega_hi_s", "s"),
    lo("core.omega_lo_s", "s"),
    lo("core.chi0_apply_replay_s", "s"),
    hi("core.thread_eff", "ratio"),
    lo("core.parse_us", "us"),
    lo("core.fingerprint_us", "us"),
    lo("core.ckpt_overhead_frac", "ratio"),
    // solver
    lo("solver.solves", "count"),
    lo("solver.cocg_iterations", "count"),
    lo("solver.matvecs", "count"),
    lo("solver.iters_per_solve", "count"),
    lo("solver.unconverged", "count"),
    hi("solver.block_s1_share", "ratio"),
    hi("solver.block_s2_share", "ratio"),
    lo("solver.solve_s", "s"),
    lo("solver.worker_imbalance", "ratio"),
    lo("solver.replay_hard_s", "s"),
    lo("solver.replay_hard_iters", "count"),
    hi("solver.replay_hard_op_share", "ratio"),
    lo("solver.replay_easy_s", "s"),
    lo("solver.replay_easy_iters", "count"),
    lo("solver.galerkin_guess_us", "us"),
    lo("solver.cheb_filter_s", "s"),
    // dft
    lo("dft.build_ms", "ms"),
    lo("dft.prepare_s", "s"),
    lo("dft.stern_apply_ns_pt.s1", "ns"),
    lo("dft.stern_apply_ns_pt.s2", "ns"),
    lo("dft.stern_apply_ns_pt.s4", "ns"),
    hi("dft.stern_apply_gflops", "GF/s"),
    hi("dft.stern_apply_ai", "flop/B"),
    hi("dft.stern_apply_bw_frac", "ratio"),
    lo("dft.ham_apply_f64_ns_pt", "ns"),
    // grid
    lo("grid.laplacian_ns_pt", "ns"),
    lo("grid.nu_sqrt_ns_pt", "ns"),
    // linalg
    hi("linalg.matmul_tn_gflops", "GF/s"),
    hi("linalg.matmul_nn_gflops", "GF/s"),
    lo("linalg.gen_sym_eig_ms", "ms"),
    // simd / machine
    lo("simd.dot_c64_ns_elem", "ns"),
    lo("simd.axpy_c64_ns_elem", "ns"),
    hi("machine.triad_gbs", "GB/s"),
    // ckpt
    lo("ckpt.save_ms_p50", "ms"),
    lo("ckpt.load_ms", "ms"),
    lo("ckpt.snapshot_bytes", "B"),
    // obs
    lo("obs.on_overhead_frac", "ratio"),
    // serve: over HTTP (serve_mix only)
    lo("hit_ms_p50", "ms"),
    lo("hit_ms_p90", "ms"),
    lo("miss_ms_p90", "ms"),
    lo("serve.http_floor_ms_p50", "ms"),
    lo("serve.direct_hit_ms_p50", "ms"),
    lo("serve.router_overhead_ms", "ms"),
    lo("serve.submit_ack_ms_p50", "ms"),
    lo("serve.queue_wait_ms_p50", "ms"),
    lo("serve.execute_ms_p50", "ms"),
    lo("serve.result_wall_ms_p50", "ms"),
    lo("serve.polls_per_miss", "count"),
    lo("serve.rejected_429", "count"),
    hi("serve.cache_hits", "count"),
    lo("serve.cache_misses", "count"),
    // serve: direct library calls (every workload)
    lo("serve.cache_lookup_us", "us"),
    lo("serve.cache_insert_ms", "ms"),
    lo("serve.store_allocate_ms", "ms"),
    lo("serve.json_parse_us", "us"),
    // bench
    lo("bench.trace_overhead_frac", "ratio"),
];

/// Counts that must repeat exactly between two runs of one commit on one
/// seed (fixed block policy, fixed reduction order); `--compare` fails on
/// any difference.
pub const EXACT_REPEAT: &[&str] = &[
    "solver.matvecs",
    "solver.cocg_iterations",
    "core.filter_rounds",
    "solver.solves",
];

/// Values measured by one run, keyed by registry name.
#[derive(Default)]
pub struct Values {
    entries: Vec<(&'static str, f64)>,
}

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric `{name}` is not in the registry"
        );
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        match self.entries.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 = value,
            None => self.entries.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Take every value of `other` that this set has not measured itself.
    pub fn fill_from(&mut self, other: Values) {
        for (name, value) in other.entries {
            if self.get(name).is_none() {
                self.entries.push((name, value));
            }
        }
    }

    /// Registry names in `defs` this run did not measure.
    pub fn missing<'a>(&self, defs: &'a [MetricDef]) -> Vec<&'a str> {
        defs.iter()
            .map(|d| d.name)
            .filter(|n| self.get(n).is_none())
            .collect()
    }

    /// `{name: {"value": v, "unit": u}}` over all of `defs`, 0 where unmeasured.
    pub fn to_json(&self, defs: &[MetricDef]) -> JsonValue {
        JsonValue::Obj(
            defs.iter()
                .map(|d| {
                    let value = self.get(d.name).unwrap_or(0.0);
                    (
                        d.name.to_string(),
                        obj(vec![("value", JsonValue::Num(value)), ("unit", s(d.unit))]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbrpa_serve::json;

    /// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Units: at most 16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_registry_name_and_unit_is_well_formed_and_unique() {
        let mut seen: Vec<&str> = Vec::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name `{}`", d.name);
            assert!(valid_unit(d.unit), "bad unit `{}` on `{}`", d.unit, d.name);
            assert!(!seen.contains(&d.name), "duplicate metric `{}`", d.name);
            seen.push(d.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(EXACT_REPEAT.iter().all(|n| seen.contains(n)));
        for bad in ["", ".x", "a b", "µs", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "`{bad}` accepted");
        }
        assert!(valid_unit("1/s") && valid_unit("GF/s") && !valid_unit("flop per byte"));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let text = include_str!("../../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json is valid JSON");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(JsonValue::as_arr).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key}: count differs");
            for (entry, def) in listed.iter().zip(defs) {
                let field = |k: &str| entry.get(k).and_then(JsonValue::as_str);
                assert_eq!(field("name"), Some(def.name));
                assert_eq!(field("unit"), Some(def.unit), "{}", def.name);
                assert_eq!(field("better"), Some(def.better.as_str()), "{}", def.name);
                let bound = entry.get("bound").and_then(JsonValue::as_f64);
                if key == "end_to_end" {
                    assert!(bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", def.name);
                } else {
                    assert!(
                        bound.is_none(),
                        "{}: per-layer metrics carry no bound",
                        def.name
                    );
                }
            }
        }
        let setup = doc.get("end_to_end").and_then(JsonValue::as_arr).unwrap();
        assert!(setup
            .iter()
            .any(|e| e.get("name").and_then(JsonValue::as_str) == Some("setup_s")));
    }

    #[test]
    fn emitted_metrics_reparse_with_the_serve_json_parser() {
        let mut v = Values::default();
        v.set("setup_s", 0.1234567890123);
        v.set("jobs_per_s", 3.5);
        let text = v.to_json(END_TO_END).to_json();
        let back = json::parse(&text).unwrap();
        let setup = back.get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.1234567890123));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        // unmeasured metrics are present, as 0
        assert_eq!(
            back.get("solve_s").unwrap().get("value").unwrap().as_f64(),
            Some(0.0)
        );
        assert_eq!(
            v.missing(END_TO_END),
            vec!["solve_s", "peak_rss_mb", "miss_ms_p25"]
        );
    }
}
