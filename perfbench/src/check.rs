//! Reference checks. Every rendered report is compared against a
//! reference that does not come from the analyzer under test: a pinned
//! golden file, or the ground-truth labels the workload generators
//! plant in their inputs.

use cafa_model::eval::Score;
use cafa_model::{ExpectedRow, FpType, GroundTruth, Label, TrueClass};
use cafa_trace::VarId;

/// One race line of a rendered JSON report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceLine {
    /// The racing variable.
    pub var: VarId,
    /// The class string (`intra-thread`, `both`, `predictive-only`, ...).
    pub class: String,
}

/// The races of a report rendered by `cafa_core::json::render_json`:
/// the HB section and, when the predictive backend ran, its section.
#[derive(Clone, Debug, Default)]
pub struct ParsedReport {
    /// Races of the top-level (happens-before) `races` array.
    pub hb: Vec<RaceLine>,
    /// Races of the `predictive` object's `races` array.
    pub predictive: Vec<RaceLine>,
}

impl ParsedReport {
    /// Variables of the predictive backend's `predictive-only` reports.
    pub fn predictive_only(&self) -> Vec<VarId> {
        self.predictive
            .iter()
            .filter(|r| r.class == "predictive-only")
            .map(|r| r.var)
            .collect()
    }
}

/// Reads the race lines out of a rendered report. The renderer writes
/// one race per line, HB races at an indent of four and predictive
/// races at six; filtered candidates carry a `reason` instead of a
/// `class` and are skipped.
pub fn parse_report(json: &str) -> Result<ParsedReport, String> {
    let mut out = ParsedReport::default();
    for line in json.lines() {
        let trimmed = line.trim_start();
        if !trimmed.starts_with("{\"var\": \"v") || !trimmed.contains("\"class\": \"") {
            continue;
        }
        let var = field(trimmed, "\"var\": \"v")
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| format!("unreadable race line `{line}`"))?;
        let class = field(trimmed, "\"class\": \"")
            .ok_or_else(|| format!("unreadable race line `{line}`"))?
            .to_owned();
        let race = RaceLine {
            var: VarId::from_usize(var),
            class,
        };
        match line.len() - trimmed.len() {
            4 => out.hb.push(race),
            6 => out.predictive.push(race),
            n => return Err(format!("race line at unexpected indent {n}: `{line}`")),
        }
    }
    Ok(out)
}

/// The text after `key` up to the next `"`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(&rest[..rest.find('"')?])
}

fn class_name(class: TrueClass) -> &'static str {
    match class {
        TrueClass::IntraThread => "intra-thread",
        TrueClass::InterThread => "inter-thread",
        TrueClass::Conventional => "conventional",
    }
}

/// Table 1 row of the HB races, joined against the planted labels. A
/// race on a variable with no harmful or benign label, or a harmful
/// race reported in the wrong class, is an error.
pub fn table1_row(races: &[RaceLine], truth: &GroundTruth) -> Result<ExpectedRow, String> {
    let mut row = ExpectedRow {
        events: 0,
        reported: races.len(),
        a: 0,
        b: 0,
        c: 0,
        fp1: 0,
        fp2: 0,
        fp3: 0,
    };
    for race in races {
        match truth.get(race.var) {
            Some(Label::Harmful { class, .. }) => {
                if race.class != class_name(class) {
                    return Err(format!(
                        "{} reported as {}, labeled {}",
                        race.var,
                        race.class,
                        class_name(class)
                    ));
                }
                match class {
                    TrueClass::IntraThread => row.a += 1,
                    TrueClass::InterThread => row.b += 1,
                    TrueClass::Conventional => row.c += 1,
                }
            }
            Some(Label::Benign { fp }) => match fp {
                FpType::MissingListener => row.fp1 += 1,
                FpType::ImpreciseCommutativity => row.fp2 += 1,
                FpType::DerefMismatch => row.fp3 += 1,
            },
            other => return Err(format!("{} reported, label {other:?}", race.var)),
        }
    }
    Ok(row)
}

/// Checks a catalog or generated app's report: its Table 1 row must
/// equal the row the model derives from its planted labels.
pub fn check_row(
    report: &ParsedReport,
    truth: &GroundTruth,
    expected: &ExpectedRow,
) -> Result<(), String> {
    let row = table1_row(&report.hb, truth)?;
    let got = (row.reported, row.a, row.b, row.c, row.fp1, row.fp2, row.fp3);
    let want = (
        expected.reported,
        expected.a,
        expected.b,
        expected.c,
        expected.fp1,
        expected.fp2,
        expected.fp3,
    );
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "row (reported, a, b, c, fp1, fp2, fp3) {got:?}, labels imply {want:?}"
        ))
    }
}

/// Label-exact check of a fleet-scale report: every harmful and benign
/// label reported in its class, nothing filtered, ordered or
/// predictive-only leaking in, and no unlabeled race.
pub fn check_label_exact(report: &ParsedReport, truth: &GroundTruth) -> Result<(), String> {
    table1_row(&report.hb, truth)?;
    let mut score = Score::new();
    score.tally_app(truth, report.hb.iter().map(|r| r.var));
    let expected_all = [score.a, score.b, score.c, score.fp1, score.fp2, score.fp3];
    let suppressed = [score.filtered, score.ordered, score.predictive];
    if score.unlabeled == 0
        && expected_all.iter().all(|t| t.reported == t.planted)
        && suppressed.iter().all(|t| t.reported == 0)
    {
        Ok(())
    } else {
        Err(format!("not label-exact: {}", score.counts_line("report")))
    }
}

/// Checks the predictive backend's extra reports and their replay
/// verdicts: each `predictive-only` variable must carry a
/// `Predictive` label whose `confirmable` flag matches the verdict,
/// and the tallies must equal the planted counts. `verdicts` pairs each
/// adjudicated variable with whether replay confirmed it.
pub fn check_predictive(
    report: &ParsedReport,
    truth: &GroundTruth,
    verdicts: &[(VarId, bool)],
) -> Result<(), String> {
    let extras = report.predictive_only();
    let mut confirmed = 0;
    for &var in &extras {
        let Some(&(_, ok)) = verdicts.iter().find(|(v, _)| *v == var) else {
            return Err(format!("{var} was not adjudicated"));
        };
        match truth.get(var) {
            Some(Label::Predictive { confirmable }) if confirmable == ok => {}
            label => {
                return Err(format!(
                    "{var} adjudicated {}, label {label:?}",
                    if ok { "confirmed" } else { "false positive" }
                ))
            }
        }
        confirmed += usize::from(ok);
    }
    let got = (extras.len(), confirmed, extras.len() - confirmed);
    let want = (
        truth.predictive_count(None),
        truth.predictive_count(Some(true)),
        truth.predictive_count(Some(false)),
    );
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "predictive (extra, confirmed, fp) {got:?}, labels imply {want:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const JSON: &str = "{\n  \"app\": \"x\",\n  \"races\": [\n    \
        {\"var\": \"v3\", \"class\": \"intra-thread\", \"use\": {}},\n  ],\n  \
        \"filtered\": [\n    {\"var\": \"v4\", \"reason\": \"if-guard\"}\n  ],\n  \
        \"predictive\": {\n    \"races\": [\n      \
        {\"var\": \"v3\", \"class\": \"both\", \"use\": {}},\n      \
        {\"var\": \"v9\", \"class\": \"predictive-only\", \"use\": {}}\n    ],\n  }\n}\n";

    #[test]
    fn parses_hb_and_predictive_sections() {
        let r = parse_report(JSON).unwrap();
        assert_eq!(r.hb.len(), 1);
        assert_eq!(r.hb[0].var, VarId::new(3));
        assert_eq!(r.predictive.len(), 2);
        assert_eq!(r.predictive_only(), vec![VarId::new(9)]);
    }

    #[test]
    fn wrong_class_and_unlabeled_races_fail() {
        let r = parse_report(JSON).unwrap();
        let mut truth = GroundTruth::new();
        assert!(table1_row(&r.hb, &truth).is_err(), "unlabeled");
        truth.insert(
            VarId::new(3),
            Label::Harmful {
                class: TrueClass::InterThread,
                known: false,
            },
        );
        assert!(table1_row(&r.hb, &truth).is_err(), "misclassified");
    }

    #[test]
    fn predictive_verdict_must_match_label() {
        let r = parse_report(JSON).unwrap();
        let mut truth = GroundTruth::new();
        truth.insert(VarId::new(9), Label::Predictive { confirmable: true });
        assert!(check_predictive(&r, &truth, &[(VarId::new(9), true)]).is_ok());
        assert!(check_predictive(&r, &truth, &[(VarId::new(9), false)]).is_err());
        assert!(check_predictive(&r, &truth, &[]).is_err());
    }
}
