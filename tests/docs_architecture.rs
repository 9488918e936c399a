//! Keeps `docs/ARCHITECTURE.md` honest: the `DagEvent` table there must
//! list exactly the variants of the real enum, the emitters it names must
//! exist, and the checkers it cites must exist in the standard suite. Fails
//! CI on drift instead of letting the persistence documentation rot.

use std::collections::BTreeSet;
use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The `DagEvent` variant names, parsed from the enum source. Variants are
/// either `Name(..)` or `Name { .. }` at one indent level inside the enum.
fn enum_variants() -> BTreeSet<String> {
    let src = read("crates/storage/src/event.rs");
    let body_start = src.find("pub enum DagEvent<B> {").expect("DagEvent enum present");
    let body = &src[body_start..];
    let mut depth = 0usize;
    let mut end = 0usize;
    for (i, c) in body.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    end = i;
                    break;
                }
            }
            _ => {}
        }
    }
    let body = &body[..end];
    let mut variants = BTreeSet::new();
    for line in body.lines() {
        let trimmed = line.trim_start();
        if line.starts_with("    ")
            && !line.starts_with("        ")
            && trimmed.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        {
            let name: String = trimmed.chars().take_while(|c| c.is_ascii_alphanumeric()).collect();
            if !name.is_empty() {
                variants.insert(name);
            }
        }
    }
    variants
}

/// The variants the ARCHITECTURE.md table documents: rows of the form
/// ``| `Name` | ... |`` in the event-vocabulary table.
fn documented_variants(doc: &str) -> BTreeSet<String> {
    doc.lines()
        .filter_map(|l| {
            let l = l.trim();
            let rest = l.strip_prefix("| `")?;
            let name = rest.split('`').next()?;
            name.chars().all(|c| c.is_ascii_alphanumeric()).then(|| name.to_string())
        })
        .filter(|n| n.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
        .filter(|n| n != "DagEvent") // the table's header row
        .collect()
}

#[test]
fn dag_event_table_matches_the_enum() {
    let doc = read("docs/ARCHITECTURE.md");
    let from_enum = enum_variants();
    let from_doc = documented_variants(&doc);
    assert!(
        from_enum.len() >= 6,
        "parser self-check: expected ≥6 DagEvent variants, found {from_enum:?}"
    );
    let undocumented: Vec<_> = from_enum.difference(&from_doc).collect();
    assert!(
        undocumented.is_empty(),
        "DagEvent variants missing from docs/ARCHITECTURE.md's table: {undocumented:?}"
    );
    let stale: Vec<_> = from_doc.difference(&from_enum).collect();
    assert!(
        stale.is_empty(),
        "docs/ARCHITECTURE.md documents DagEvent variants that no longer exist: {stale:?}"
    );
}

#[test]
fn cited_checkers_exist_in_the_standard_suite() {
    let doc = read("docs/ARCHITECTURE.md");
    let checks = read("crates/scenarios/src/checks.rs");
    // Every `snake_case` backtick token in the guarded-by column must be a
    // registered checker name.
    for line in doc.lines().filter(|l| l.trim_start().starts_with("| `")) {
        let Some(guarded) = line.rsplit('|').nth(1) else { continue };
        for token in guarded.split('`').skip(1).step_by(2) {
            if token.contains('_') && token.chars().all(|c| c.is_ascii_lowercase() || c == '_') {
                assert!(
                    checks.contains(&format!("(\"{token}\"")),
                    "docs cite checker `{token}` which is not registered in standard_checks()"
                );
            }
        }
    }
}

/// Every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("readable source tree") {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(std::fs::read_to_string(&path).expect("readable source"));
        }
    }
}

#[test]
fn named_emitters_are_functions_of_their_types() {
    let doc = read("docs/ARCHITECTURE.md");
    let variants = enum_variants();
    let mut sources = Vec::new();
    rust_sources(&Path::new(env!("CARGO_MANIFEST_DIR")).join("crates"), &mut sources);
    let mut emitters = 0;
    for line in doc.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let [_, variant, emitted_by, ..] = cells[..] else { continue };
        let variant = variant.trim_matches('`');
        if !variants.contains(variant) {
            continue;
        }
        // Every backticked `Type::method` in the "emitted by" column must be
        // a `fn method` in a source file that implements `Type`.
        for token in emitted_by.split('`').skip(1).step_by(2) {
            let Some((ty, method)) = token.split_once("::") else { continue };
            let defines = |src: &String| {
                (src.contains(&format!("impl {ty} ")) || src.contains(&format!("for {ty} ")))
                    && (src.contains(&format!("fn {method}("))
                        || src.contains(&format!("fn {method}<")))
            };
            assert!(
                sources.iter().any(defines),
                "docs/ARCHITECTURE.md names emitter `{token}` of `{variant}`, but no file under crates/ defines it"
            );
            emitters += 1;
        }
    }
    assert!(emitters >= 6, "parser self-check: expected ≥6 named emitters, found {emitters}");
}

#[test]
fn architecture_doc_is_linked_from_readme() {
    let readme = read("README.md");
    assert!(
        readme.contains("docs/ARCHITECTURE.md"),
        "README must link the persistence architecture document"
    );
}
