//! Two `results.json` files, metric by metric: did the second get better,
//! stay within the metric's bound, get worse, or is the run-to-run spread
//! too wide to tell. Every ratio is printed with its base.

use crate::metrics::{self, Better, Metric};
use crate::sut::json::Value as Json;

/// What the two sides of one metric on one workload say.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    /// The spread of either side's repetitions is wider than the bound and
    /// the two sides' ranges overlap: not "unchanged", just not decidable.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the reported median and, for a sampled
/// metric, the range and quartiles of its repetitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    pub value: f64,
    pub min: f64,
    pub q1: f64,
    pub q3: f64,
    pub max: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }

    fn from_json(metric: &Json) -> Option<Side> {
        let value = metric.get("value")?.as_f64()?;
        let field = |key: &str| metric.get(key).and_then(Json::as_f64).unwrap_or(value);
        Some(Side {
            value,
            min: field("min"),
            q1: field("q1"),
            q3: field("q3"),
            max: field("max"),
        })
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when it
/// is better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Higher => a - b,
        Better::Lower => b - a,
    };
    if delta == 0.0 {
        0.0
    } else if a == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / a.abs()
    }
}

/// The verdict on one end-to-end metric. A bound of zero marks a simulated
/// outcome: any difference at equal seed is a change of behaviour.
pub fn judge(better: Better, bound: f64, a: &Side, b: &Side) -> Verdict {
    let worse = worse_by(better, a.value, b.value);
    if a.spread().max(b.spread()) > bound && bound > 0.0 {
        // Decidable all the same when every repetition of one side beats
        // every repetition of the other.
        let (b_all_better, b_all_worse) = match better {
            Better::Higher => (b.min > a.max, b.max < a.min),
            Better::Lower => (b.max < a.min, b.min > a.max),
        };
        return match (b_all_better, b_all_worse) {
            (true, _) => Verdict::Improved,
            (_, true) => Verdict::Regressed,
            _ => Verdict::Unresolved,
        };
    }
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// One compared end-to-end metric.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static Metric,
    pub a: Side,
    pub b: Side,
    pub verdict: Verdict,
}

fn metric_of<'a>(results: &'a Json, workload: &str, mode: &str, name: &str) -> Option<&'a Json> {
    results
        .get("workloads")?
        .get(workload)?
        .get(mode)?
        .get("metrics")?
        .get(name)
}

/// Every end-to-end metric on every workload both files hold.
pub fn rows(a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in &metrics::WORKLOADS {
        for metric in metrics::END_TO_END.iter().filter(|m| m.applies_to(w.name)) {
            let side = |r| metric_of(r, w.name, "untraced", metric.name).and_then(Side::from_json);
            let (Some(sa), Some(sb)) = (side(a), side(b)) else {
                continue;
            };
            rows.push(Row {
                workload: w.name.to_string(),
                metric,
                a: sa,
                b: sb,
                verdict: judge(metric.better, metric.bound.unwrap_or(0.0), &sa, &sb),
            });
        }
    }
    rows
}

fn ratio(a: f64, b: f64) -> String {
    if a == 0.0 {
        "    n/a".into()
    } else {
        format!("{:7.4}", b / a)
    }
}

/// Prints the comparison: per workload, every end-to-end metric with its
/// verdict, then every per-layer metric with its ratio alone (layers have
/// no bound). Returns the end-to-end rows.
pub fn print(a: &Json, b: &Json) -> Vec<Row> {
    let rows = rows(a, b);
    for w in &metrics::WORKLOADS {
        let digest = |r: &Json| {
            r.get("workloads")
                .and_then(|ws| ws.get(w.name))
                .and_then(|x| x.get("untraced"))
                .and_then(|u| u.get("outputs_digest"))
                .and_then(Json::as_str)
                .unwrap_or("-")
                .to_string()
        };
        let (da, db) = (digest(a), digest(b));
        let same = if da == db {
            "same outputs"
        } else {
            "OUTPUTS DIFFER"
        };
        println!("== {}  digest a {da}  b {db}  ({same})", w.name);
        println!(
            "  {:<40} {:>14} {:>14} {:>8}  bound  verdict",
            "metric", "a (base)", "b", "b/a"
        );
        for row in rows.iter().filter(|r| r.workload == w.name) {
            println!(
                "  {:<40} {:>14.4} {:>14.4} {:>8}  {:<6} {}  ({} is better; spread a {:.3} b {:.3})",
                row.metric.name,
                row.a.value,
                row.b.value,
                ratio(row.a.value, row.b.value),
                row.metric.bound.unwrap_or(0.0),
                row.verdict.as_str(),
                row.metric.better.as_str(),
                row.a.spread(),
                row.b.spread(),
            );
        }
        for metric in metrics::PER_LAYER.iter().filter(|m| m.applies_to(w.name)) {
            let side = |r| metric_of(r, w.name, "traced", metric.name).and_then(Side::from_json);
            if let (Some(sa), Some(sb)) = (side(a), side(b)) {
                println!(
                    "  {:<40} {:>14.4} {:>14.4} {:>8}  {}",
                    metric.name,
                    sa.value,
                    sb.value,
                    ratio(sa.value, sb.value),
                    metric.unit
                );
            }
        }
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "summary: {} improved, {} within bound, {} regressed, {} unresolved (of {} end-to-end rows; base = a)",
        count(Verdict::Improved),
        count(Verdict::WithinBound),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        rows.len()
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(value: f64) -> Side {
        sampled(value, 0.0, 0.0)
    }

    fn sampled(value: f64, half_iqr: f64, half_range: f64) -> Side {
        Side {
            value,
            min: value - half_range,
            q1: value - half_iqr,
            q3: value + half_iqr,
            max: value + half_range,
        }
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(Better::Higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 110.0) + 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert_eq!(worse_by(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 0.5), f64::INFINITY);
    }

    #[test]
    fn tight_samples_are_judged_by_the_bound() {
        let a = sampled(100.0, 1.0, 2.0);
        assert_eq!(
            judge(Better::Higher, 0.1, &a, &sampled(95.0, 1.0, 2.0)),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(Better::Higher, 0.1, &a, &sampled(85.0, 1.0, 2.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Higher, 0.1, &a, &sampled(115.0, 1.0, 2.0)),
            Verdict::Improved
        );
        assert_eq!(
            judge(Better::Lower, 0.1, &a, &sampled(115.0, 1.0, 2.0)),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_samples_are_unresolved_unless_the_ranges_separate() {
        let a = sampled(100.0, 10.0, 15.0);
        assert_eq!(
            judge(Better::Higher, 0.1, &a, &sampled(80.0, 10.0, 15.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Higher, 0.1, &a, &sampled(140.0, 10.0, 15.0)),
            Verdict::Improved
        );
        assert_eq!(
            judge(Better::Higher, 0.1, &a, &sampled(60.0, 10.0, 15.0)),
            Verdict::Regressed
        );
    }

    #[test]
    fn simulated_outcomes_must_repeat_exactly() {
        let a = exact(2.5);
        assert_eq!(judge(Better::Higher, 0.0, &a, &a), Verdict::WithinBound);
        assert_eq!(
            judge(Better::Higher, 0.0, &a, &exact(2.4999)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Lower, 0.0, &a, &exact(2.4999)),
            Verdict::Improved
        );
        let zero = exact(0.0);
        assert_eq!(
            judge(Better::Lower, 0.0, &zero, &zero),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(Better::Lower, 0.0, &zero, &exact(0.1)),
            Verdict::Regressed
        );
    }
}
