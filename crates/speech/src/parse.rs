//! Parsing rendered speech text back into the AST.
//!
//! The inverse of [`Renderer`](crate::render::Renderer): given the body
//! text of a speech ("90 K is the average mid-career salary. Values
//! increase by 5 percent for graduates from the North East."), recover the
//! [`Speech`] structure against the schema and query that produced it.
//!
//! Two uses: (a) round-trip property tests pin the renderer and grammar to
//! each other, and (b) the simulated-listener studies can operate on the
//! *text* a user actually hears instead of the planner's internal AST —
//! exactly the information boundary a real listener has.

use voxolap_data::schema::{MeasureUnit, Schema};
use voxolap_engine::query::Query;

use crate::ast::{Baseline, Change, Direction, Predicate, Refinement, Speech};
use crate::render::render_unit;

/// Parse failure, with the offending fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpeechParseError {
    /// What went wrong.
    pub message: String,
    /// The sentence (or fragment) that failed to parse.
    pub fragment: String,
}

impl std::fmt::Display for SpeechParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} in {:?}", self.message, self.fragment)
    }
}

impl std::error::Error for SpeechParseError {}

fn err(message: &str, fragment: &str) -> SpeechParseError {
    SpeechParseError { message: message.to_string(), fragment: fragment.to_string() }
}

/// Parse a spoken number word back to a value ("two" → 2.0,
/// "one point five" → 1.5, "a quarter" → 0.25, "35" → 35.0).
fn parse_spoken_number(text: &str) -> Option<f64> {
    const SMALL: [&str; 21] = [
        "zero",
        "one",
        "two",
        "three",
        "four",
        "five",
        "six",
        "seven",
        "eight",
        "nine",
        "ten",
        "eleven",
        "twelve",
        "thirteen",
        "fourteen",
        "fifteen",
        "sixteen",
        "seventeen",
        "eighteen",
        "nineteen",
        "twenty",
    ];
    const TENS: [(&str, f64); 8] = [
        ("thirty", 30.0),
        ("forty", 40.0),
        ("fifty", 50.0),
        ("sixty", 60.0),
        ("seventy", 70.0),
        ("eighty", 80.0),
        ("ninety", 90.0),
        ("one hundred", 100.0),
    ];
    let text = text.trim();
    if text == "a quarter" {
        return Some(0.25);
    }
    if text == "half a" || text == "half" {
        return Some(0.5);
    }
    if let Some((int_part, frac_part)) = text.split_once(" point ") {
        let int = parse_spoken_number(int_part)?;
        let frac = parse_spoken_number(frac_part)?;
        return Some(int + frac / 10.0);
    }
    if let Some(i) = SMALL.iter().position(|&w| w == text) {
        return Some(i as f64);
    }
    for (w, v) in TENS {
        if w == text {
            return Some(v);
        }
    }
    text.parse().ok()
}

/// Parse a baseline value phrase for the given render unit:
/// "around two percent", "five to ten percent", "90 K", "80 to 90 K",
/// "150000 to 200000", "300".
fn parse_value_phrase(phrase: &str, unit: MeasureUnit) -> Option<Baseline> {
    let phrase = phrase.trim();
    match unit {
        MeasureUnit::Fraction => {
            let body = phrase.strip_prefix("around ").unwrap_or(phrase);
            let body = body.strip_suffix(" percent")?;
            if let Some((lo, hi)) = body.split_once(" to ") {
                let lo = parse_spoken_number(lo)? / 100.0;
                let hi = parse_spoken_number(hi)? / 100.0;
                Some(Baseline::range(lo, hi))
            } else {
                Some(Baseline::point(parse_spoken_number(body)? / 100.0))
            }
        }
        MeasureUnit::DollarsK => {
            let body = phrase.strip_suffix(" K")?;
            if let Some((lo, hi)) = body.split_once(" to ") {
                Some(Baseline::range(lo.trim().parse().ok()?, hi.trim().parse().ok()?))
            } else {
                Some(Baseline::point(body.trim().parse().ok()?))
            }
        }
        MeasureUnit::Plain => {
            if let Some((lo, hi)) = phrase.split_once(" to ") {
                Some(Baseline::range(lo.trim().parse().ok()?, hi.trim().parse().ok()?))
            } else {
                Some(Baseline::point(phrase.trim().parse().ok()?))
            }
        }
    }
}

/// Resolve a predicate phrase ("graduates from the North East") against
/// the schema by matching each dimension's context prefix and member
/// phrases.
fn parse_predicate(phrase: &str, schema: &Schema) -> Option<Predicate> {
    let phrase = phrase.trim();
    for (dim_id, d) in schema.dims() {
        let Some(rest) = phrase.strip_prefix(d.context()) else { continue };
        let rest = rest.trim();
        if let Ok(m) = d.member_by_phrase(rest) {
            return Some(Predicate { dim: dim_id, member: m });
        }
    }
    None
}

/// Parse a refinement sentence
/// ("Values increase by 5 percent for graduates from the North East").
fn parse_refinement(sentence: &str, schema: &Schema) -> Result<Refinement, SpeechParseError> {
    let body = sentence
        .strip_prefix("Values ")
        .ok_or_else(|| err("refinement must start with \"Values\"", sentence))?;
    let (direction, rest) = if let Some(r) = body.strip_prefix("increase by ") {
        (Direction::Increase, r)
    } else if let Some(r) = body.strip_prefix("decrease by ") {
        (Direction::Decrease, r)
    } else {
        return Err(err("expected increase/decrease", sentence));
    };
    let (quant, scope) = rest
        .split_once(" percent for ")
        .ok_or_else(|| err("expected \"<Q> percent for <P>\"", sentence))?;
    let percent: u32 = quant.trim().parse().map_err(|_| err("bad quantifier", quant))?;
    let predicates: Vec<Predicate> = scope
        .split(" and ")
        .map(|p| parse_predicate(p, schema).ok_or_else(|| err("unknown predicate", p)))
        .collect::<Result<_, _>>()?;
    if predicates.is_empty() {
        return Err(err("refinement without predicates", sentence));
    }
    Ok(Refinement { predicates, change: Change { direction, percent } })
}

/// Parse a speech body (baseline sentence + refinement sentences, no
/// preamble) back into a [`Speech`].
pub fn parse_body(body: &str, schema: &Schema, query: &Query) -> Result<Speech, SpeechParseError> {
    // Sentences end at ". Values " boundaries, and only the body's final
    // period is a terminator: member phrases may end in a period of their
    // own ("…Inc.." at the end, "…Inc.. Values …" in the middle).
    let body = body.trim();
    let body = body.strip_suffix('.').unwrap_or(body);
    if body.is_empty() {
        return Err(err("empty speech body", body));
    }
    let mut sentences = body.split(". Values ");
    let first = sentences.next().unwrap_or_default().trim();
    if let Some((_, extra)) = first.split_once(". ") {
        return Err(err("refinement must start with \"Values\"", extra));
    }

    // Baseline: "<V> is the <A>" with the first letter capitalized.
    let (value_phrase, _agg) = first
        .split_once(" is the ")
        .ok_or_else(|| err("baseline must contain \"is the\"", first))?;
    // Undo sentence capitalization: spoken-word values capitalize their
    // first word ("Around two percent", "Five to ten percent"), so retry
    // lowercased when the direct parse fails. Numeric values ("90 K") are
    // unaffected by lowercasing.
    let unit = render_unit(query.fct(), schema.measure(query.measure()).unit);
    let baseline = parse_value_phrase(value_phrase, unit)
        .or_else(|| parse_value_phrase(&value_phrase.to_lowercase(), unit))
        .ok_or_else(|| err("unparseable baseline value", value_phrase))?;

    let refinements = sentences
        .map(|s| parse_refinement(&format!("Values {}", s.trim()), schema))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Speech { baseline, refinements })
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxolap_data::dimension::LevelId;
    use voxolap_data::flights::FlightsConfig;
    use voxolap_data::salary::SalaryConfig;
    use voxolap_data::DimId;
    use voxolap_engine::query::AggFct;

    use crate::render::Renderer;

    fn salary_setup() -> (voxolap_data::Table, Query) {
        let table = SalaryConfig::paper_scale().generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .group_by(DimId(1), LevelId(1))
            .build(table.schema())
            .unwrap();
        (table, q)
    }

    #[test]
    fn round_trips_example_3_1() {
        let (table, q) = salary_setup();
        let schema = table.schema();
        let ne = schema.dimension(DimId(0)).member_by_phrase("the North East").unwrap();
        let hi = schema.dimension(DimId(1)).member_by_phrase("at least 50 K").unwrap();
        let speech = Speech {
            baseline: Baseline::point(90.0),
            refinements: vec![
                Refinement {
                    predicates: vec![Predicate { dim: DimId(0), member: ne }],
                    change: Change { direction: Direction::Increase, percent: 5 },
                },
                Refinement {
                    predicates: vec![Predicate { dim: DimId(1), member: hi }],
                    change: Change { direction: Direction::Increase, percent: 20 },
                },
            ],
        };
        let renderer = Renderer::new(schema, &q);
        let body = renderer.body_text(&speech);
        let parsed = parse_body(&body, schema, &q).unwrap();
        assert_eq!(parsed, speech);
    }

    #[test]
    fn round_trips_fraction_baselines() {
        let table = FlightsConfig { rows: 200, seed: 1 }.generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(1), LevelId(1))
            .build(table.schema())
            .unwrap();
        let renderer = Renderer::new(table.schema(), &q);
        for value in [0.02, 0.015, 0.0025] {
            let speech = Speech::baseline_only(value);
            let body = renderer.body_text(&speech);
            let parsed = parse_body(&body, table.schema(), &q).unwrap();
            assert!(
                (parsed.baseline.value - value).abs() < 1e-9,
                "{body}: {} vs {value}",
                parsed.baseline.value
            );
        }
    }

    #[test]
    fn round_trips_range_baselines() {
        let (table, q) = salary_setup();
        let renderer = Renderer::new(table.schema(), &q);
        let speech = Speech { baseline: Baseline::range(80.0, 90.0), refinements: Vec::new() };
        let body = renderer.body_text(&speech);
        assert!(body.starts_with("80 to 90 K"));
        let parsed = parse_body(&body, table.schema(), &q).unwrap();
        assert_eq!(parsed.baseline.spoken_range, Some((80.0, 90.0)));
        assert!((parsed.baseline.value - 85.0).abs() < 1e-9);
    }

    #[test]
    fn fraction_range_baselines_round_trip() {
        // "Five to ten percent is the Average cancellation probability."
        // (paper Table 13's optimal speech) — the capitalized first word
        // must not break parsing.
        let table = FlightsConfig { rows: 200, seed: 1 }.generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(1), LevelId(1))
            .build(table.schema())
            .unwrap();
        let renderer = Renderer::new(table.schema(), &q);
        let speech = Speech { baseline: Baseline::range(0.05, 0.10), refinements: Vec::new() };
        let body = renderer.body_text(&speech);
        assert!(body.starts_with("Five to ten percent"), "{body}");
        let parsed = parse_body(&body, table.schema(), &q).unwrap();
        assert_eq!(parsed.baseline.spoken_range, Some((0.05, 0.10)));
    }

    #[test]
    fn multi_predicate_refinements_round_trip() {
        let (table, q) = salary_setup();
        let schema = table.schema();
        let ne = schema.dimension(DimId(0)).member_by_phrase("the North East").unwrap();
        let hi = schema.dimension(DimId(1)).member_by_phrase("at least 50 K").unwrap();
        let speech = Speech {
            baseline: Baseline::point(80.0),
            refinements: vec![Refinement {
                predicates: vec![
                    Predicate { dim: DimId(0), member: ne },
                    Predicate { dim: DimId(1), member: hi },
                ],
                change: Change { direction: Direction::Decrease, percent: 25 },
            }],
        };
        let renderer = Renderer::new(schema, &q);
        let parsed = parse_body(&renderer.body_text(&speech), schema, &q).unwrap();
        assert_eq!(parsed, speech);
    }

    #[test]
    fn garbage_is_rejected_with_context() {
        let (table, q) = salary_setup();
        let schema = table.schema();
        let e = parse_body("The weather is nice.", schema, &q).unwrap_err();
        assert!(e.to_string().contains("is the"), "{e}");
        let e = parse_body(
            "90 K is the average mid-career salary. Values teleport by 5 percent for x.",
            schema,
            &q,
        )
        .unwrap_err();
        assert!(e.message.contains("increase/decrease"));
        let e = parse_body(
            "90 K is the average mid-career salary. \
             Values increase by 5 percent for citizens of Atlantis.",
            schema,
            &q,
        )
        .unwrap_err();
        assert!(e.message.contains("unknown predicate"));
    }

    #[test]
    fn spoken_numbers_parse() {
        assert_eq!(parse_spoken_number("two"), Some(2.0));
        assert_eq!(parse_spoken_number("one point five"), Some(1.5));
        assert_eq!(parse_spoken_number("a quarter"), Some(0.25));
        assert_eq!(parse_spoken_number("half a"), Some(0.5));
        assert_eq!(parse_spoken_number("ninety"), Some(90.0));
        assert_eq!(parse_spoken_number("35"), Some(35.0));
        assert_eq!(parse_spoken_number("gibberish"), None);
    }

    #[test]
    fn count_bodies_round_trip() {
        let table = SalaryConfig::paper_scale().generate();
        let q = Query::builder(AggFct::Count)
            .group_by(DimId(0), LevelId(1))
            .build(table.schema())
            .unwrap();
        let renderer = Renderer::new(table.schema(), &q);
        let speech = Speech::baseline_only(80.0);
        let body = renderer.body_text(&speech);
        assert_eq!(body, "80 is the number of rows.");
        let parsed = parse_body(&body, table.schema(), &q).unwrap();
        assert_eq!(parsed.baseline.value, 80.0);
    }
}
