//! A small line-based text format for persisting ontologies.
//!
//! ```text
//! ONTO v1
//! I FDA
//! I MoH
//! C - -\tcontinuant drug
//! C 0 0,1\tdiltiazem hydrochloride\tcartia\ttiazac
//! ```
//!
//! * `I <label>` registers an interpretation.
//! * `C <parent|-> <interps|->\t<label>[\t<synonym>...]` adds a concept;
//!   concept ids are implicit (0-based, in file order), so a parent always
//!   refers to an earlier line, which preserves the forest invariant.
//! * Blank lines and lines starting with `#` are ignored.

use crate::builder::OntologyBuilder;
use crate::concept::{InterpretationId, SenseId};
use crate::error::OntologyError;
use crate::ontology::Ontology;

const HEADER: &str = "ONTO v1";

/// Serializes an ontology to the text format.
pub fn write_ontology(onto: &Ontology) -> String {
    let mut out = String::from(HEADER);
    out.push('\n');
    for label in onto.interpretation_labels() {
        out.push_str("I ");
        out.push_str(label);
        out.push('\n');
    }
    for c in onto.concepts() {
        out.push_str("C ");
        match c.parent() {
            Some(p) => out.push_str(&p.index().to_string()),
            None => out.push('-'),
        }
        out.push(' ');
        if c.interpretations().is_empty() {
            out.push('-');
        } else {
            let interps: Vec<String> = c
                .interpretations()
                .iter()
                .map(|i| i.index().to_string())
                .collect();
            out.push_str(&interps.join(","));
        }
        out.push('\t');
        out.push_str(c.label());
        for s in c.synonyms() {
            out.push('\t');
            out.push_str(s);
        }
        out.push('\n');
    }
    out
}

fn parse_err(line: usize, message: impl Into<String>) -> OntologyError {
    OntologyError::Parse {
        line,
        message: message.into(),
    }
}

/// Parses the text format produced by [`write_ontology`].
pub fn parse_ontology(text: &str) -> Result<Ontology, OntologyError> {
    let mut lines = text.lines().enumerate();
    let header = lines
        .by_ref()
        .map(|(i, l)| (i, l.trim_end()))
        .find(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .ok_or_else(|| parse_err(1, "empty input"))?;
    if header.1 != HEADER {
        return Err(parse_err(header.0 + 1, format!("expected {HEADER:?} header")));
    }

    let mut b = OntologyBuilder::new();
    for (i, raw) in lines {
        let lineno = i + 1;
        let line = raw.trim_end_matches(['\r', '\n']);
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("I ") {
            let label = rest.trim();
            if label.is_empty() {
                return Err(parse_err(lineno, "empty interpretation label"));
            }
            if b.try_interpretation(label).is_none() {
                return Err(parse_err(lineno, "more than 65,536 interpretation labels"));
            }
        } else if let Some(rest) = line.strip_prefix("C ") {
            let mut fields = rest.split('\t');
            let head = fields
                .next()
                .ok_or_else(|| parse_err(lineno, "missing concept head"))?;
            let mut head_it = head.split_whitespace();
            let parent_tok = head_it
                .next()
                .ok_or_else(|| parse_err(lineno, "missing parent field"))?;
            let interp_tok = head_it
                .next()
                .ok_or_else(|| parse_err(lineno, "missing interpretations field"))?;
            if head_it.next().is_some() {
                return Err(parse_err(lineno, "trailing tokens in concept head"));
            }
            let parent = if parent_tok == "-" {
                None
            } else {
                let idx: usize = parent_tok
                    .parse()
                    .map_err(|_| parse_err(lineno, format!("bad parent {parent_tok:?}")))?;
                // Range-check before `from_index`, which panics past u32.
                if u32::try_from(idx).is_err() {
                    return Err(parse_err(lineno, format!("parent id {idx} out of range")));
                }
                Some(SenseId::from_index(idx))
            };
            let mut interps = Vec::new();
            if interp_tok != "-" {
                for part in interp_tok.split(',') {
                    let idx: usize = part.parse().map_err(|_| {
                        parse_err(lineno, format!("bad interpretation {part:?}"))
                    })?;
                    if u16::try_from(idx).is_err() {
                        return Err(parse_err(
                            lineno,
                            format!("interpretation id {idx} out of range"),
                        ));
                    }
                    interps.push(InterpretationId::from_index(idx));
                }
            }
            let label = fields
                .next()
                .ok_or_else(|| parse_err(lineno, "missing concept label"))?;
            let synonyms: Vec<&str> = fields.collect();
            let mut cb = b.concept(label).synonyms(synonyms).interpretations(interps);
            if let Some(p) = parent {
                cb = cb.parent(p);
            }
            cb.build()
                .map_err(|e| parse_err(lineno, e.to_string()))?;
        } else {
            return Err(parse_err(lineno, format!("unrecognized line {line:?}")));
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;

    #[test]
    fn round_trips_the_medical_ontology() {
        let o = samples::medical_drug_ontology();
        let text = write_ontology(&o);
        let o2 = parse_ontology(&text).unwrap();
        assert_eq!(o.len(), o2.len());
        assert_eq!(o.interpretation_labels(), o2.interpretation_labels());
        for (a, b) in o.concepts().zip(o2.concepts()) {
            assert_eq!(a.label(), b.label());
            assert_eq!(a.parent(), b.parent());
            assert_eq!(a.synonyms(), b.synonyms());
            assert_eq!(a.interpretations(), b.interpretations());
        }
        // Index behaves identically.
        for v in o.values() {
            assert_eq!(o.names(v), o2.names(v));
        }
    }

    #[test]
    fn ignores_comments_and_blank_lines() {
        let text = "# a comment\n\nONTO v1\n# more\nI ISO\nC - 0\tcountry\tUSA\tAmerica\n\n";
        let o = parse_ontology(text).unwrap();
        assert_eq!(o.len(), 1);
        assert_eq!(o.names("USA"), o.names("America"));
    }

    #[test]
    fn rejects_bad_header() {
        let err = parse_ontology("ONTO v999\n").unwrap_err();
        assert!(matches!(err, OntologyError::Parse { .. }));
    }

    #[test]
    fn rejects_forward_parent_reference() {
        let text = "ONTO v1\nC 1 -\tchild\nC - -\troot\n";
        let err = parse_ontology(text).unwrap_err();
        assert!(matches!(err, OntologyError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn rejects_unknown_line_kind() {
        let err = parse_ontology("ONTO v1\nX nonsense\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unrecognized"), "{msg}");
    }

    #[test]
    fn rejects_bad_interpretation_ref() {
        let text = "ONTO v1\nC - 5\troot\n";
        assert!(parse_ontology(text).is_err());
    }

    #[test]
    fn rejects_out_of_range_ids_without_panicking() {
        // Ids that parse as usize but exceed the id types' width must be
        // a typed parse error, not a panic.
        let big_parent = format!("ONTO v1\nC - -\troot\nC {} -\tchild\n", u64::from(u32::MAX) + 1);
        let err = parse_ontology(&big_parent).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        let big_interp = format!("ONTO v1\nC - {}\troot\n", u32::from(u16::MAX) + 1);
        let err = parse_ontology(&big_interp).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn rejects_more_interpretation_labels_than_u16_ids() {
        // 65,536 labels fit in a u16 id; a 65,537th distinct label is a
        // typed error naming its line, not a panic.
        let mut text = String::from("ONTO v1\n");
        for i in 0..=u32::from(u16::MAX) {
            text.push_str(&format!("I L{i}\n"));
        }
        let full = parse_ontology(&text).expect("65,536 labels fit");
        assert_eq!(full.interpretation_labels().len(), 65_536);
        text.push_str("I L0\n");
        assert!(
            parse_ontology(&text).is_ok(),
            "a repeated label takes no new id"
        );
        text.push_str("I one-too-many\n");
        let err = parse_ontology(&text).unwrap_err();
        assert!(
            matches!(err, OntologyError::Parse { line: 65_539, .. }),
            "{err}"
        );
    }

    mod properties {
        use super::*;
        use crate::builder::OntologyBuilder;
        use proptest::prelude::*;

        fn arb_ontology() -> impl Strategy<Value = crate::Ontology> {
            // Random forest: per concept an optional parent among earlier
            // ids, 0-3 synonyms from a small vocabulary, 0-2 interpretations.
            let concept = (
                proptest::option::of(0usize..8),
                prop::collection::vec(0u8..20, 0..4),
                prop::collection::vec(0usize..3, 0..3),
            );
            prop::collection::vec(concept, 0..10).prop_map(|specs| {
                let mut b = OntologyBuilder::new();
                for i in 0..3 {
                    b.interpretation(format!("I{i}"));
                }
                for (ci, (parent, syns, interps)) in specs.iter().enumerate() {
                    let mut cb = b.concept(format!("c{ci}"));
                    if let Some(p) = parent {
                        if *p < ci {
                            cb = cb.parent(crate::SenseId::from_index(*p));
                        }
                    }
                    let mut values: Vec<String> =
                        syns.iter().map(|v| format!("w{v}")).collect();
                    values.sort();
                    values.dedup();
                    cb = cb.synonyms(values);
                    let mut labels: Vec<_> = interps
                        .iter()
                        .map(|&i| crate::InterpretationId::from_index(i))
                        .collect();
                    labels.sort();
                    labels.dedup();
                    cb.interpretations(labels).build().expect("valid concept");
                }
                b.finish().expect("valid ontology")
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// write ∘ parse is the identity on structure and index.
            #[test]
            fn text_round_trip(onto in arb_ontology()) {
                let text = write_ontology(&onto);
                let back = parse_ontology(&text).expect("parses");
                prop_assert_eq!(onto.len(), back.len());
                for (a, b) in onto.concepts().zip(back.concepts()) {
                    prop_assert_eq!(a.label(), b.label());
                    prop_assert_eq!(a.parent(), b.parent());
                    prop_assert_eq!(a.synonyms(), b.synonyms());
                    prop_assert_eq!(a.interpretations(), b.interpretations());
                }
                for v in onto.values() {
                    prop_assert_eq!(onto.names(v), back.names(v));
                }
            }

            /// The parser never panics — it returns a structured error or a
            /// valid ontology — on arbitrary input, and on mutated bytes of
            /// well-formed text: each edit replaces, inserts or deletes one
            /// byte of `write_ontology` output, read back as lossy UTF-8.
            #[test]
            fn parser_is_total(
                input in ".{0,400}",
                onto in arb_ontology(),
                edits in prop::collection::vec((0usize..4096, 0u8..3, 0u8..=255), 1..6),
            ) {
                let mut bytes = write_ontology(&onto).into_bytes();
                for (at, op, byte) in edits {
                    let at = at % (bytes.len() + 1);
                    match op {
                        0 if at < bytes.len() => bytes[at] = byte,
                        1 => bytes.insert(at, byte),
                        _ if at < bytes.len() => {
                            bytes.remove(at);
                        }
                        _ => bytes.push(byte),
                    }
                }
                for text in [input, String::from_utf8_lossy(&bytes).into_owned()] {
                    match parse_ontology(&text) {
                        Ok(onto) => {
                            // Whatever parsed must re-serialize and re-parse.
                            let again = parse_ontology(&write_ontology(&onto));
                            prop_assert!(again.is_ok());
                        }
                        Err(OntologyError::Parse { line, .. }) => prop_assert!(line >= 1),
                        Err(_) => {}
                    }
                }
            }

            /// θ-expansion is monotone in θ and the identity at θ = 0.
            #[test]
            fn expansion_monotone(onto in arb_ontology(), theta in 0usize..4) {
                let e0 = onto.inheritance_expansion(0);
                for (a, b) in onto.concepts().zip(e0.concepts()) {
                    prop_assert_eq!(a.synonyms(), b.synonyms());
                }
                let et = onto.inheritance_expansion(theta);
                let et1 = onto.inheritance_expansion(theta + 1);
                for v in onto.values() {
                    let small = et.names(v);
                    let big = et1.names(v);
                    for s in small {
                        prop_assert!(big.contains(s), "expansion must grow");
                    }
                }
            }
        }
    }

    #[test]
    fn values_with_spaces_survive() {
        let text = "ONTO v1\nC - -\tUnited States of America\tUnited States\tUSA\n";
        let o = parse_ontology(text).unwrap();
        assert!(o.contains_value("United States"));
        let back = write_ontology(&o);
        let o2 = parse_ontology(&back).unwrap();
        assert!(o2.contains_value("United States"));
    }
}
