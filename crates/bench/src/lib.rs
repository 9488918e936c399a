//! Shared helpers for the benchmark suite and the experiment/figure
//! regeneration binaries (see the repository `README.md` for the
//! experiment index).

#![warn(missing_docs)]

use asym_dag_rider::prelude::*;

/// A labelled measurement row for plain-text experiment tables.
#[derive(Clone, Debug)]
pub struct Row {
    /// Row label (configuration).
    pub label: String,
    /// `(column name, value)` pairs.
    pub values: Vec<(String, f64)>,
}

/// Renders rows as an aligned plain-text table.
pub fn render_table(title: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    if rows.is_empty() {
        out.push_str("(no data)\n");
        return out;
    }
    let label_w = rows.iter().map(|r| r.label.len()).max().unwrap().max(12);
    out.push_str(&format!("{:label_w$}", "config"));
    for (name, _) in &rows[0].values {
        out.push_str(&format!("  {name:>14}"));
    }
    out.push('\n');
    out.push_str(&"-".repeat(label_w + rows[0].values.len() * 16));
    out.push('\n');
    for r in rows {
        out.push_str(&format!("{:label_w$}", r.label));
        for (_, v) in &r.values {
            if v.fract() == 0.0 && v.abs() < 1e12 {
                out.push_str(&format!("  {:>14}", *v as i64));
            } else {
                out.push_str(&format!("  {v:>14.3}"));
            }
        }
        out.push('\n');
    }
    out
}

/// The standard topology sweep used by several experiments.
pub fn standard_topologies() -> Vec<TopologySpec> {
    vec![
        TopologySpec::UniformThreshold { n: 4, f: 1 },
        TopologySpec::UniformThreshold { n: 7, f: 2 },
        TopologySpec::UniformThreshold { n: 10, f: 3 },
        TopologySpec::RippleUnl { n: 10, unl: 8, f: 1 },
        TopologySpec::StellarTiers { n: 10, core: 4, f_core: 1 },
        TopologySpec::Figure1,
    ]
}

/// Runs one fault-free checked cell (one block per process, random 1–20
/// unit link latency) and returns `(waves per commit, sent messages,
/// simulated time)` — the observables of Lemma 4.4 and the latency claims.
///
/// # Panics
///
/// Panics with the reproduction tuple if an invariant checker fails.
pub fn measure(
    topology: TopologySpec,
    protocol: ProtocolSpec,
    waves: u64,
    seed: u64,
) -> (f64, u64, u64) {
    let scenario = Scenario::new(
        topology,
        FaultPlan::none(),
        SchedulerSpec::RandomLatency { min: 1, max: 20 },
        seed,
    )
    .waves(waves)
    .protocol(protocol);
    let outcome = checks::run_and_check_all(&scenario).unwrap_or_else(|e| panic!("{e}"));
    (outcome.waves_per_commit().unwrap_or(f64::INFINITY), outcome.net.sent, outcome.time)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders() {
        let rows = vec![
            Row { label: "a".into(), values: vec![("x".into(), 1.0), ("y".into(), 2.5)] },
            Row { label: "long-label".into(), values: vec![("x".into(), 3.0), ("y".into(), 4.0)] },
        ];
        let t = render_table("demo", &rows);
        assert!(t.contains("demo"));
        assert!(t.contains("long-label"));
        assert!(t.contains("2.500"));
    }

    #[test]
    fn standard_topologies_are_valid() {
        for spec in standard_topologies() {
            let t = spec.build().expect("closed-form families");
            assert!(t.fail_prone.satisfies_b3(), "{}", t.name);
        }
    }

    #[test]
    fn measurement_smoke() {
        let t = TopologySpec::UniformThreshold { n: 4, f: 1 };
        let (wpc, sent, time) = measure(t, ProtocolSpec::AsymDagRider, 3, 1);
        assert!(wpc >= 1.0);
        assert!(sent > 0);
        assert!(time > 0);
        let (wpc, _, _) = measure(t, ProtocolSpec::DagRider, 3, 1);
        assert!(wpc >= 1.0);
    }
}
