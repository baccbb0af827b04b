//! Output formats for lint findings: human diagnostics, plain JSON, and
//! SARIF 2.1.0 (the static-analysis interchange format GitHub code
//! scanning ingests).
//!
//! The JSON layout is written by hand so the pretty-printed output stays
//! stable; every string inside it is escaped by [`dml_obs::json`].

use dml_obs::json::Json;
use dml_syntax::span::line_col;
use dml_syntax::Severity;

use crate::{Finding, LINTS};

/// Renders findings as compiler-style diagnostics against the source,
/// ending with a one-line summary.
pub fn human(findings: &[Finding], src: &str) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.diagnostic().render(src));
        out.push('\n');
    }
    let (e, w) = count(findings);
    out.push_str(&format!("{} finding(s): {} error(s), {} warning(s)\n", findings.len(), e, w));
    out
}

fn count(findings: &[Finding]) -> (usize, usize) {
    let e = findings.iter().filter(|f| f.severity == Severity::Error).count();
    let w = findings.iter().filter(|f| f.severity == Severity::Warning).count();
    (e, w)
}

/// A string as a quoted, escaped JSON string literal.
fn quoted(s: &str) -> String {
    Json::Str(s.to_string()).render()
}

fn severity_str(s: Severity) -> &'static str {
    match s {
        Severity::Error => "error",
        Severity::Warning => "warning",
        Severity::Note => "note",
    }
}

/// Renders findings as a JSON array with 1-based line/column positions.
pub fn json(findings: &[Finding], src: &str) -> String {
    let mut items = Vec::with_capacity(findings.len());
    for f in findings {
        let start = line_col(src, f.span.start);
        let end = line_col(src, f.span.end);
        let notes: Vec<String> = f.notes.iter().map(|n| quoted(n)).collect();
        let fix = match &f.fix {
            None => "null".to_string(),
            Some(fix) => format!(
                "{{ \"description\": {}, \"insertAt\": {}, \"text\": {} }}",
                quoted(&fix.description),
                fix.insert_at,
                quoted(&fix.text),
            ),
        };
        items.push(format!(
            concat!(
                "  {{\n",
                "    \"code\": \"{code}\",\n",
                "    \"name\": \"{name}\",\n",
                "    \"severity\": \"{sev}\",\n",
                "    \"message\": {msg},\n",
                "    \"span\": {{ \"start\": {s}, \"end\": {e} }},\n",
                "    \"start\": {{ \"line\": {sl}, \"column\": {sc} }},\n",
                "    \"end\": {{ \"line\": {el}, \"column\": {ec} }},\n",
                "    \"notes\": [{notes}],\n",
                "    \"fix\": {fix}\n",
                "  }}"
            ),
            code = f.code,
            name = f.name,
            sev = severity_str(f.severity),
            msg = quoted(&f.message),
            s = f.span.start,
            e = f.span.end,
            sl = start.line,
            sc = start.col,
            el = end.line,
            ec = end.col,
            notes = notes.join(", "),
            fix = fix,
        ));
    }
    format!("[\n{}\n]\n", items.join(",\n"))
}

/// Renders findings as a SARIF 2.1.0 log with one run. Every registered
/// lint appears as a rule; results reference rules by id and index.
pub fn sarif(findings: &[Finding], src: &str, artifact_uri: &str) -> String {
    let rules: Vec<String> = LINTS
        .iter()
        .map(|l| {
            format!(
                concat!(
                    "          {{\n",
                    "            \"id\": \"{id}\",\n",
                    "            \"name\": \"{name}\",\n",
                    "            \"shortDescription\": {{ \"text\": {desc} }},\n",
                    "            \"defaultConfiguration\": {{ \"level\": \"{level}\" }}\n",
                    "          }}"
                ),
                id = l.code,
                name = l.name,
                desc = quoted(l.summary),
                level = severity_str(l.default_severity),
            )
        })
        .collect();
    let results: Vec<String> = findings
        .iter()
        .map(|f| {
            let start = line_col(src, f.span.start);
            let end = line_col(src, f.span.end);
            let rule_index =
                LINTS.iter().position(|l| l.code == f.code).expect("registered lint");
            let mut text = f.message.clone();
            for n in &f.notes {
                text.push_str("; ");
                text.push_str(n);
            }
            // A machine-applicable fix becomes a SARIF `fixes` object: one
            // artifact change whose single replacement deletes a
            // zero-length region at the insertion offset — the SARIF
            // encoding of a pure insertion.
            let fixes = match &f.fix {
                None => String::new(),
                Some(fix) => format!(
                    concat!(
                        ",\n",
                        "          \"fixes\": [\n",
                        "            {{\n",
                        "              \"description\": {{ \"text\": {desc} }},\n",
                        "              \"artifactChanges\": [\n",
                        "                {{\n",
                        "                  \"artifactLocation\": {{ \"uri\": {uri} }},\n",
                        "                  \"replacements\": [\n",
                        "                    {{\n",
                        "                      \"deletedRegion\": {{ \"charOffset\": {at}, \"charLength\": 0 }},\n",
                        "                      \"insertedContent\": {{ \"text\": {ins} }}\n",
                        "                    }}\n",
                        "                  ]\n",
                        "                }}\n",
                        "              ]\n",
                        "            }}\n",
                        "          ]"
                    ),
                    desc = quoted(&fix.description),
                    uri = quoted(artifact_uri),
                    at = fix.insert_at,
                    ins = quoted(&fix.text),
                ),
            };
            format!(
                concat!(
                    "        {{\n",
                    "          \"ruleId\": \"{id}\",\n",
                    "          \"ruleIndex\": {idx},\n",
                    "          \"level\": \"{level}\",\n",
                    "          \"message\": {{ \"text\": {msg} }},\n",
                    "          \"locations\": [\n",
                    "            {{\n",
                    "              \"physicalLocation\": {{\n",
                    "                \"artifactLocation\": {{ \"uri\": {uri} }},\n",
                    "                \"region\": {{ \"startLine\": {sl}, \"startColumn\": {sc}, \"endLine\": {el}, \"endColumn\": {ec} }}\n",
                    "              }}\n",
                    "            }}\n",
                    "          ]{fixes}\n",
                    "        }}"
                ),
                id = f.code,
                idx = rule_index,
                level = severity_str(f.severity),
                msg = quoted(&text),
                uri = quoted(artifact_uri),
                sl = start.line,
                sc = start.col,
                el = end.line,
                ec = end.col,
                fixes = fixes,
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n",
            "  \"version\": \"2.1.0\",\n",
            "  \"runs\": [\n",
            "    {{\n",
            "      \"tool\": {{\n",
            "        \"driver\": {{\n",
            "          \"name\": \"dmlc\",\n",
            "          \"informationUri\": \"https://doi.org/10.1145/277650.277732\",\n",
            "          \"rules\": [\n{rules}\n          ]\n",
            "        }}\n",
            "      }},\n",
            "      \"results\": [\n{results}\n      ]\n",
            "    }}\n",
            "  ]\n",
            "}}\n"
        ),
        rules = rules.join(",\n"),
        results = results.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dml_syntax::Span;

    fn sample() -> (Vec<Finding>, &'static str) {
        let src = "fun f(x) = x\nwhere f <| {n:nat} int -> int\n";
        let findings = vec![Finding {
            code: "DML003",
            name: "unused-index-variable",
            severity: Severity::Warning,
            message: "index variable `n` is never used \"here\"".into(),
            span: Span::new(24, 25),
            notes: vec!["remove the binder".into()],
            fix: None,
        }];
        (findings, src)
    }

    fn fix_sample() -> (Vec<Finding>, &'static str) {
        let src = "fun f(v) = sub(v, 0)\n";
        let findings = vec![Finding {
            code: "DML007",
            name: "inferable-annotation",
            severity: Severity::Note,
            message: "`f` has no annotation, but a solver-verified one is inferable".into(),
            span: Span::new(4, 5),
            notes: vec![],
            fix: Some(crate::Fix {
                description: "insert `where f <| {n:nat | n > 0} int array(n) -> int`".into(),
                insert_at: 20,
                text: "\nwhere f <| {n:nat | n > 0} int array(n) -> int".into(),
            }),
        }];
        (findings, src)
    }

    #[test]
    fn human_has_summary_line() {
        let (f, src) = sample();
        let out = human(&f, src);
        assert!(out.contains("warning[DML003]"), "{out}");
        assert!(out.contains("1 finding(s): 0 error(s), 1 warning(s)"), "{out}");
    }

    #[test]
    fn json_positions_are_one_based_and_escaped() {
        let (f, src) = sample();
        let out = json(&f, src);
        assert!(out.contains("\"code\": \"DML003\""), "{out}");
        assert!(out.contains("\"line\": 2"), "{out}");
        assert!(out.contains("never used \\\"here\\\""), "escaped quotes: {out}");
    }

    #[test]
    fn sarif_declares_all_rules_and_references_by_index() {
        let (f, src) = sample();
        let out = sarif(&f, src, "test.dml");
        assert!(out.contains("\"version\": \"2.1.0\""), "{out}");
        for l in LINTS {
            assert!(out.contains(&format!("\"id\": \"{}\"", l.code)), "{out}");
        }
        assert!(out.contains("\"ruleId\": \"DML003\""), "{out}");
        assert!(out.contains("\"ruleIndex\": 2"), "{out}");
        assert!(out.contains("\"startLine\": 2"), "{out}");
        assert!(out.contains("\"uri\": \"test.dml\""), "{out}");
    }

    #[test]
    fn json_renders_fix_object_and_null() {
        let (f, src) = sample();
        assert!(json(&f, src).contains("\"fix\": null"), "{}", json(&f, src));
        let (f, src) = fix_sample();
        let out = json(&f, src);
        assert!(out.contains("\"insertAt\": 20"), "{out}");
        assert!(out.contains("\\nwhere f <| {n:nat | n > 0}"), "{out}");
    }

    #[test]
    fn sarif_renders_fix_as_insertion_replacement() {
        let (f, src) = fix_sample();
        let out = sarif(&f, src, "f.dml");
        assert!(out.contains("\"fixes\": ["), "{out}");
        assert!(out.contains("\"artifactChanges\": ["), "{out}");
        assert!(
            out.contains("\"deletedRegion\": { \"charOffset\": 20, \"charLength\": 0 }"),
            "{out}"
        );
        assert!(out.contains("\"insertedContent\""), "{out}");
        // Findings without a fix stay fix-free.
        let (plain, src2) = sample();
        assert!(!sarif(&plain, src2, "f.dml").contains("\"fixes\""));
    }

    #[test]
    fn empty_findings_render_in_every_format() {
        let out = human(&[], "x");
        assert!(out.contains("0 finding(s)"), "{out}");
        assert_eq!(json(&[], "x"), "[\n\n]\n");
        let s = sarif(&[], "x", "a.dml");
        assert!(s.contains("\"results\": ["), "{s}");
    }
}
