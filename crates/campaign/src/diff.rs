//! `rcb diff` — compare two schema-versioned artifacts.
//!
//! The regression gate for perf trajectories (ROADMAP item): load two
//! campaign or bench artifacts, walk their JSON trees in parallel, and
//! report every numeric leaf whose relative delta exceeds a threshold.
//! Artifacts of different `kind` or `schema_version` are an error, not a
//! diff.
//!
//! A leaf present in only **one** artifact (a dropped cell, a renamed key,
//! a shrunken scenario list) is *not* skipped: it is reported as a
//! [`DiffRow`] with an **infinite** relative delta, so any `--threshold`
//! gate fails. A report that silently lost cells can therefore never pass
//! the CI bench gate.
//!
//! Host-dependent leaves (`wall_s`, `slots_per_sec`, `speedup`, …) can be
//! excluded by key with `ignore`, which is how CI gates deterministic slot
//! totals tightly while letting wall-clock noise through.

use crate::json::Json;

/// Keys `rcb diff` ignores by default: the build stamp and every
/// wall-clock-derived leaf (schema v3 `perf` timing, bench cell timing).
/// These are host- and run-dependent by construction, so comparing them
/// across artifacts is noise; the deterministic counters around them stay
/// tightly gated. Pass `--no-default-ignore` to compare everything.
pub const DEFAULT_IGNORES: &[&str] = &[
    "code_version",
    "wall_s",
    "ref_wall_s",
    "slots_per_sec",
    "ref_slots_per_sec",
    "speedup",
    "repeats",
    "ref_repeats",
    "setup_s",
    "slot_loop_s",
    "fast_forward_s",
    "finalize_s",
];

/// How a reported leaf relates the two artifacts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffKind {
    /// Present in both with different numeric values.
    Changed,
    /// Present only in the first artifact (`b` is NaN).
    MissingInB,
    /// Present only in the second artifact (`a` is NaN).
    ExtraInB,
}

/// One difference between the two artifacts.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// Dotted path of the leaf, e.g. `cells[3].metrics.completion_slots.mean`.
    pub path: String,
    /// Leaf value in the first artifact; NaN when absent there (or when a
    /// one-sided leaf is non-numeric).
    pub a: f64,
    /// Leaf value in the second artifact; NaN when absent there.
    pub b: f64,
    /// `(b − a) / |a|`; infinite when `a == 0 ≠ b` and for one-sided
    /// leaves, so missing/extra leaves always violate any threshold.
    pub rel: f64,
    pub kind: DiffKind,
}

/// Outcome of a structural diff.
#[derive(Clone, Debug, Default)]
pub struct DiffOutput {
    /// Leaves that differ — changed values plus leaves present in only one
    /// artifact — in document order.
    pub rows: Vec<DiffRow>,
    /// Number of numeric leaves compared.
    pub compared: usize,
    /// Leaves skipped via the ignore list.
    pub ignored: usize,
}

impl DiffOutput {
    /// Largest absolute relative delta across all differing leaves.
    pub fn max_rel(&self) -> f64 {
        self.rows.iter().map(|r| r.rel.abs()).fold(0.0, f64::max)
    }

    /// Rows whose |relative delta| exceeds `threshold`.
    pub fn violations(&self, threshold: f64) -> Vec<&DiffRow> {
        self.rows
            .iter()
            .filter(|r| r.rel.abs() > threshold)
            .collect()
    }
}

/// Structurally compare two parsed artifacts.
///
/// `ignore` lists object keys whose subtrees are skipped entirely. Leaves
/// present in only one artifact are reported as rows with infinite
/// relative delta (see the module docs). Returns an error only when the
/// documents are fundamentally incomparable: different `kind`/
/// `schema_version`, a value-shape conflict at the same path (object vs
/// array vs leaf), or a non-numeric leaf mismatch.
pub fn diff(a: &Json, b: &Json, ignore: &[String]) -> Result<DiffOutput, String> {
    // Kind and schema version must agree before any cell comparison makes
    // sense — unless the caller explicitly ignores one (e.g.
    // `--ignore schema_version` for an acceptance diff across a bump).
    for key in ["kind", "schema_version"] {
        if ignore.iter().any(|i| i == key) {
            continue;
        }
        let (va, vb) = (lookup(a, key), lookup(b, key));
        if va != vb {
            return Err(format!(
                "artifacts are not comparable: `{key}` differs ({} vs {})",
                render(va),
                render(vb)
            ));
        }
    }
    let mut out = DiffOutput::default();
    walk(a, b, "", ignore, &mut out)?;
    Ok(out)
}

fn lookup<'j>(v: &'j Json, key: &str) -> Option<&'j Json> {
    match v {
        Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn render(v: Option<&Json>) -> String {
    v.map(Json::to_compact).unwrap_or_else(|| "absent".into())
}

fn numeric(v: &Json) -> Option<f64> {
    match v {
        Json::Int(i) => Some(*i as f64),
        Json::Float(x) => Some(*x),
        _ => None,
    }
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// Report every leaf of a subtree that exists in only one artifact, one
/// `DiffRow` per leaf with an infinite relative delta. Non-numeric leaves
/// are reported too (value NaN) — a dropped cell must surface even if its
/// only fields are strings.
fn report_one_sided(v: &Json, path: &str, kind: DiffKind, ignore: &[String], out: &mut DiffOutput) {
    match v {
        Json::Object(fields) => {
            for (k, vv) in fields {
                if ignore.iter().any(|i| i == k) {
                    out.ignored += 1;
                    continue;
                }
                report_one_sided(vv, &join(path, k), kind, ignore, out);
            }
        }
        Json::Array(items) => {
            for (i, vv) in items.iter().enumerate() {
                report_one_sided(vv, &format!("{path}[{i}]"), kind, ignore, out);
            }
        }
        leaf => {
            let value = numeric(leaf).unwrap_or(f64::NAN);
            let (a, b) = match kind {
                DiffKind::MissingInB => (value, f64::NAN),
                DiffKind::ExtraInB => (f64::NAN, value),
                DiffKind::Changed => unreachable!("one-sided leaves are never Changed"),
            };
            out.rows.push(DiffRow {
                path: path.to_string(),
                a,
                b,
                rel: f64::INFINITY,
                kind,
            });
        }
    }
}

fn walk(
    a: &Json,
    b: &Json,
    path: &str,
    ignore: &[String],
    out: &mut DiffOutput,
) -> Result<(), String> {
    if let (Some(x), Some(y)) = (numeric(a), numeric(b)) {
        out.compared += 1;
        if x != y {
            let rel = if x == 0.0 {
                f64::INFINITY
            } else {
                (y - x) / x.abs()
            };
            out.rows.push(DiffRow {
                path: path.to_string(),
                a: x,
                b: y,
                rel,
                kind: DiffKind::Changed,
            });
        }
        return Ok(());
    }
    match (a, b) {
        (Json::Object(fa), Json::Object(fb)) => {
            // Match fields by key, not position: keys present in both are
            // compared, keys present in only one are reported as deltas.
            for (ka, va) in fa {
                if ignore.iter().any(|i| i == ka) {
                    out.ignored += 1;
                    continue;
                }
                let sub = join(path, ka);
                match fb.iter().find(|(kb, _)| kb == ka) {
                    Some((_, vb)) => walk(va, vb, &sub, ignore, out)?,
                    None => report_one_sided(va, &sub, DiffKind::MissingInB, ignore, out),
                }
            }
            for (kb, vb) in fb {
                if fa.iter().any(|(ka, _)| ka == kb) {
                    continue;
                }
                if ignore.iter().any(|i| i == kb) {
                    out.ignored += 1;
                    continue;
                }
                report_one_sided(vb, &join(path, kb), DiffKind::ExtraInB, ignore, out);
            }
            Ok(())
        }
        (Json::Array(xa), Json::Array(xb)) => {
            let common = xa.len().min(xb.len());
            for (i, (va, vb)) in xa.iter().zip(xb).take(common).enumerate() {
                walk(va, vb, &format!("{path}[{i}]"), ignore, out)?;
            }
            for (i, va) in xa.iter().enumerate().skip(common) {
                report_one_sided(
                    va,
                    &format!("{path}[{i}]"),
                    DiffKind::MissingInB,
                    ignore,
                    out,
                );
            }
            for (i, vb) in xb.iter().enumerate().skip(common) {
                report_one_sided(vb, &format!("{path}[{i}]"), DiffKind::ExtraInB, ignore, out);
            }
            Ok(())
        }
        _ => {
            if a == b {
                Ok(())
            } else {
                Err(format!(
                    "non-numeric mismatch at `{path}`: {} vs {}",
                    a.to_compact(),
                    b.to_compact()
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonin::parse;

    fn artifact(mean: f64, wall: f64) -> Json {
        parse(&format!(
            r#"{{"schema_version": 1, "kind": "rcb-bench-report",
                 "cells": [{{"trials": 3, "mean": {mean}, "wall_s": {wall}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_artifacts_have_no_rows() {
        let a = artifact(100.0, 1.5);
        let out = diff(&a, &a, &[]).unwrap();
        assert!(out.rows.is_empty());
        assert!(out.compared >= 4);
        assert_eq!(out.max_rel(), 0.0);
    }

    #[test]
    fn relative_deltas_and_paths() {
        let a = artifact(100.0, 1.0);
        let b = artifact(130.0, 9.0);
        let out = diff(&a, &b, &[]).unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].path, "cells[0].mean");
        assert!((out.rows[0].rel - 0.3).abs() < 1e-12);
        assert_eq!(out.violations(0.5).len(), 1, "only wall_s exceeds 50%");
        assert!(out.max_rel() > 7.9);
    }

    #[test]
    fn ignore_list_skips_host_dependent_fields() {
        let a = artifact(100.0, 1.0);
        let b = artifact(100.0, 9.0);
        let out = diff(&a, &b, &["wall_s".to_string()]).unwrap();
        assert!(out.rows.is_empty());
        assert_eq!(out.ignored, 1);
    }

    #[test]
    fn ignoring_schema_version_allows_cross_version_diff() {
        let a = parse(r#"{"schema_version": 2, "kind": "k", "x": 1}"#).unwrap();
        let b = parse(r#"{"schema_version": 3, "kind": "k", "x": 1}"#).unwrap();
        assert!(diff(&a, &b, &[]).is_err());
        let out = diff(&a, &b, &["schema_version".to_string()]).unwrap();
        assert!(out.rows.is_empty());
        assert_eq!(out.ignored, 1, "the version leaf itself is skipped too");
    }

    #[test]
    fn default_ignores_cover_every_wall_clock_leaf() {
        for key in ["wall_s", "slots_per_sec", "slot_loop_s", "code_version"] {
            assert!(DEFAULT_IGNORES.contains(&key));
        }
        // But never the deterministic counters.
        for key in ["slots_total", "ff_skip_ratio", "rng_engine_draws"] {
            assert!(!DEFAULT_IGNORES.contains(&key));
        }
    }

    #[test]
    fn mismatched_kinds_are_errors() {
        let a = artifact(1.0, 1.0);
        let mut b = artifact(1.0, 1.0);
        if let Json::Object(fields) = &mut b {
            fields[1].1 = "rcb-campaign-report".into();
        }
        assert!(diff(&a, &b, &[]).unwrap_err().contains("kind"));
    }

    /// The CI-gate regression this guards: a report that silently *lost*
    /// cells must fail any threshold, not pass with fewer comparisons.
    #[test]
    fn shrunken_report_fails_every_threshold() {
        let a = artifact(100.0, 1.5);
        let shrunk =
            parse(r#"{"schema_version": 1, "kind": "rcb-bench-report", "cells": []}"#).unwrap();
        let out = diff(&a, &shrunk, &[]).unwrap();
        // All three leaves of the dropped cell are reported as missing.
        assert_eq!(out.rows.len(), 3);
        assert!(out
            .rows
            .iter()
            .all(|r| r.kind == DiffKind::MissingInB && r.rel.is_infinite() && r.b.is_nan()));
        assert_eq!(out.rows[0].path, "cells[0].trials");
        assert_eq!(
            out.violations(1e18).len(),
            3,
            "missing leaves violate any threshold"
        );
        // The reverse direction reports the same leaves as extra.
        let out = diff(&shrunk, &a, &[]).unwrap();
        assert!(out.rows.iter().all(|r| r.kind == DiffKind::ExtraInB));
        assert_eq!(out.violations(0.5).len(), 3);
    }

    #[test]
    fn renamed_key_reports_both_sides() {
        let a = parse(r#"{"schema_version": 1, "kind": "k", "old_name": 7}"#).unwrap();
        let b = parse(r#"{"schema_version": 1, "kind": "k", "new_name": 7}"#).unwrap();
        let out = diff(&a, &b, &[]).unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].path, "old_name");
        assert_eq!(out.rows[0].kind, DiffKind::MissingInB);
        assert_eq!(out.rows[1].path, "new_name");
        assert_eq!(out.rows[1].kind, DiffKind::ExtraInB);
    }

    #[test]
    fn ignored_keys_are_skipped_even_when_one_sided() {
        let a = parse(r#"{"schema_version": 1, "kind": "k", "cells": [{"x": 1, "wall_s": 2.0}]}"#)
            .unwrap();
        let b = parse(r#"{"schema_version": 1, "kind": "k", "cells": []}"#).unwrap();
        let out = diff(&a, &b, &["wall_s".to_string()]).unwrap();
        assert_eq!(out.rows.len(), 1, "only the non-ignored leaf is reported");
        assert_eq!(out.rows[0].path, "cells[0].x");
        assert_eq!(out.ignored, 1);
    }

    #[test]
    fn non_numeric_one_sided_leaves_still_surface() {
        let a =
            parse(r#"{"schema_version": 1, "kind": "k", "cells": [{"protocol": "MultiCast"}]}"#)
                .unwrap();
        let b = parse(r#"{"schema_version": 1, "kind": "k", "cells": []}"#).unwrap();
        let out = diff(&a, &b, &[]).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert!(out.rows[0].a.is_nan() && out.rows[0].b.is_nan());
        assert!(out.rows[0].rel.is_infinite());
    }

    #[test]
    fn shape_conflicts_at_the_same_path_stay_errors() {
        let a = parse(r#"{"schema_version": 1, "kind": "k", "cells": [1]}"#).unwrap();
        let b = parse(r#"{"schema_version": 1, "kind": "k", "cells": "oops"}"#).unwrap();
        assert!(diff(&a, &b, &[]).is_err());
    }

    #[test]
    fn zero_to_nonzero_is_infinite_delta() {
        let a = artifact(0.0, 1.0);
        let b = artifact(5.0, 1.0);
        let out = diff(&a, &b, &[]).unwrap();
        assert!(out.rows[0].rel.is_infinite());
        assert_eq!(out.violations(1e12).len(), 1);
    }
}
