//! Wire-contract drift checker.
//!
//! `docs/WIRE.md` is the normative specification of the JSONL campaign wire
//! format and `crates/core/src/wire.rs` is its only implementation. This
//! analyzer extracts the set of JSON member keys from both sides and
//! cross-checks them **bidirectionally**, so an encoder key the doc never
//! mentions — or a documented key the encoder dropped — fails the build
//! instead of drifting silently.
//!
//! * From the **source**, keys are string literals in key position: the
//!   `("key", …)` rows of the field tables that derive both the encoder
//!   and the decoder of each wire type (the `type` tag of fabric messages
//!   is written the same way), plus any `.require("key")` / `.get("key")`
//!   lookup (test modules are skipped).
//! * From the **doc**, keys are `"key":` members inside fenced ```json
//!   blocks, `"key":` members inside inline code spans that contain an
//!   object brace, and backticked identifiers in the *first cell* of
//!   markdown table rows. Prose mentions (like the hypothetical `"v"`
//!   version member) are deliberately not key positions.

use crate::scanner::{is_ident_char, scan};
use crate::Finding;
use std::collections::BTreeMap;

/// Rule id for wire-contract drift findings.
pub const WIRE_DRIFT: &str = "wire-drift";

/// Extract `key → first line` from the wire implementation source.
pub fn keys_from_source(source: &str) -> BTreeMap<String, usize> {
    let mut keys = BTreeMap::new();
    let lines = scan(source);
    for (li, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let text = &line.literals;
        let bytes = text.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            if b != b'"' {
                continue;
            }
            // A candidate literal `"ident"` …
            let Some(end) = text[i + 1..].find('"').map(|e| i + 1 + e) else {
                continue;
            };
            let lit = &text[i + 1..end];
            if lit.is_empty()
                || !lit
                    .chars()
                    .all(|c| is_ident_char(c) && !c.is_ascii_uppercase())
            {
                continue;
            }
            // … in key position: tuple `("key",` or lookup `("key")`. A
            // tuple pair broken across lines (`obj.push((\n    "key",`)
            // resolves the opening paren from the previous code line.
            let before = text[..i].trim_end();
            let after = text[end + 1..].trim_start();
            let opens_tuple = before.ends_with('(')
                || (before.is_empty()
                    && lines[..li]
                        .iter()
                        .rev()
                        .find(|p| !p.literals.trim().is_empty())
                        .is_some_and(|p| p.literals.trim_end().ends_with('(')));
            let tuple_key = opens_tuple && after.starts_with(',');
            let lookup_key = (before.ends_with(".require(") || before.ends_with(".get("))
                && after.starts_with(')');
            if tuple_key || lookup_key {
                keys.entry(lit.to_string()).or_insert(line.number);
            }
        }
    }
    keys
}

/// Extract `key → first line` from the markdown specification.
pub fn keys_from_doc(doc: &str) -> BTreeMap<String, usize> {
    let mut keys = BTreeMap::new();
    let mut in_json_block = false;
    for (i, raw) in doc.lines().enumerate() {
        let number = i + 1;
        let trimmed = raw.trim();
        if trimmed.starts_with("```") {
            in_json_block = !in_json_block && trimmed.starts_with("```json");
            continue;
        }
        if in_json_block {
            collect_colon_keys(raw, number, &mut keys);
            continue;
        }
        // Inline code spans containing an object brace.
        for span in inline_spans(raw) {
            if span.contains('{') {
                collect_colon_keys(span, number, &mut keys);
            }
        }
        // First cell of table rows: `| `key` | … |` (separator rows have no
        // backticks and header cells no backticked identifiers).
        if let Some(rest) = trimmed.strip_prefix('|') {
            if let Some(cell) = rest.split('|').next() {
                for span in inline_spans(cell) {
                    let ident = span.trim().trim_matches('`');
                    if !ident.is_empty()
                        && ident
                            .chars()
                            .all(|c| is_ident_char(c) && !c.is_ascii_uppercase())
                    {
                        keys.entry(ident.to_string()).or_insert(number);
                    }
                }
            }
        }
    }
    keys
}

/// The backtick-delimited code spans of one markdown line.
fn inline_spans(line: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('`') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('`') else { break };
        spans.push(&after[..close]);
        rest = &after[close + 1..];
    }
    spans
}

/// Collect `"ident":` members of `text` into `keys`.
fn collect_colon_keys(text: &str, number: usize, keys: &mut BTreeMap<String, usize>) {
    let bytes = text.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'"' {
            continue;
        }
        let Some(end) = text[i + 1..].find('"').map(|e| i + 1 + e) else {
            continue;
        };
        let lit = &text[i + 1..end];
        if lit.is_empty()
            || !lit
                .chars()
                .all(|c| is_ident_char(c) && !c.is_ascii_uppercase())
        {
            continue;
        }
        if text[end + 1..].trim_start().starts_with(':') {
            keys.entry(lit.to_string()).or_insert(number);
        }
    }
}

/// Cross-check implementation and specification; `source_path` / `doc_path`
/// only label the findings.
pub fn check_wire_contract(
    source_path: &str,
    source: &str,
    doc_path: &str,
    doc: &str,
) -> Vec<Finding> {
    let code = keys_from_source(source);
    let documented = keys_from_doc(doc);
    let mut findings = Vec::new();
    for (key, line) in &code {
        if !documented.contains_key(key) {
            findings.push(Finding::new(
                source_path,
                *line,
                WIRE_DRIFT,
                format!("wire key \"{key}\" is encoded here but not documented in {doc_path}"),
            ));
        }
    }
    for (key, line) in &documented {
        if !code.contains_key(key) {
            findings.push(Finding::new(
                doc_path,
                *line,
                WIRE_DRIFT,
                format!("documented wire key \"{key}\" does not appear in {source_path}"),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_keys_need_key_position() {
        let src = r#"
            let v = obj(vec![("name", JsonValue::Str(x)), ("digest", JsonValue::UInt(d))]);
            let n = v.require("count")?;
            let o = v.get("faults");
            let msg = format!("not a key: {}", "nor_this");
            let label = b.as_str("also_not");
        "#;
        let keys = keys_from_source(src);
        assert!(keys.contains_key("name"));
        assert!(keys.contains_key("digest"));
        assert!(keys.contains_key("count"));
        assert!(keys.contains_key("faults"));
        assert!(!keys.contains_key("nor_this"));
        assert!(!keys.contains_key("also_not"));
    }

    #[test]
    fn doc_keys_from_blocks_spans_and_tables() {
        let doc = "\n\
            ```json\n{\"index\": 3, \"result\": {}}\n```\n\
            A *percentiles* object is `{\"count\": <unsigned>, \"p50\": <number>}`.\n\
            | key | type |\n|---|---|\n| `name` | string |\n\
            | `queue_p50` / `queue_p95` | unsigned |\n\
            Future: add a `\"v\"` member. The label `\"fluid\"` is a value.\n";
        let keys = keys_from_doc(doc);
        for k in [
            "index",
            "result",
            "count",
            "p50",
            "name",
            "queue_p50",
            "queue_p95",
        ] {
            assert!(keys.contains_key(k), "missing {k}");
        }
        assert!(!keys.contains_key("v"));
        assert!(!keys.contains_key("fluid"));
        assert!(!keys.contains_key("key"));
    }

    #[test]
    fn drift_is_bidirectional() {
        let src = r#"obj(vec![("a", x), ("b", y)]);"#;
        let doc = "| `a` | u | |\n| `c` | u | |\n";
        let findings = check_wire_contract("wire.rs", src, "WIRE.md", doc);
        let rendered: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
        assert_eq!(findings.len(), 2, "{rendered:?}");
        assert!(rendered.iter().any(|f| f.contains("\"b\"")));
        assert!(rendered.iter().any(|f| f.contains("\"c\"")));
    }
}
