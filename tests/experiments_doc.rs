//! EXPERIMENTS.md cannot drift from the data: `figs all` writes the summary
//! line of every experiment to `results/measured.json` (a tracked, pure
//! function of the code — the `figs` CI stage regenerates it byte for byte),
//! and each line must appear verbatim in the "Measured here" cell of the row
//! whose ID cell names the experiment. CHANGES.md is held to its own
//! convention the same way: each entry is a line plus a few short bullets.

use serde_json::Value;
use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn every_measured_line_is_quoted_verbatim_in_its_experiments_row() {
    let measured: Value = serde_json::from_str(&read("results/measured.json")).unwrap();
    let Value::Map(measured) = measured else { panic!("measured.json is not an object") };
    assert!(measured.len() >= 18, "measured.json covers {} experiments", measured.len());
    let doc = read("EXPERIMENTS.md");
    for (name, line) in &measured {
        let line = line.as_str().expect("a summary line is a string");
        assert!(!line.contains('|'), "{name}: a `|` would split the table cell: {line}");
        // The row: a table line whose first (ID) cell carries `name`.
        let id = format!("`{name}`");
        let mut rows = doc.lines().filter(|l| {
            l.starts_with('|') && l.split('|').nth(1).is_some_and(|cell| cell.contains(&id))
        });
        let row = rows.next().unwrap_or_else(|| panic!("EXPERIMENTS.md has no row for {id}"));
        assert!(rows.next().is_none(), "EXPERIMENTS.md has two rows for {id}");
        // ID | Paper result (or Question) | Measured here (or Result) | …
        let cell = row.split('|').nth(3).unwrap_or_else(|| panic!("{id}: row has no third cell"));
        assert!(
            cell.contains(line),
            "{id}: \"Measured here\" does not quote what `figs {name}` prints.\n  \
             measured.json: {line}\n  EXPERIMENTS.md: {}",
            cell.trim()
        );
    }
}

/// CHANGES.md's convention (its preamble): one `- PR <n> (<date>): …` line
/// per PR plus at most five indented bullets, each at most 600 characters.
/// Tables go to `docs/pairs/`, the rest to `git log`.
#[test]
fn every_changes_entry_is_one_line_and_at_most_five_short_bullets() {
    const MAX_CHARS: usize = 600;
    const MAX_BULLETS: usize = 5;
    let doc = read("CHANGES.md");
    let mut entry: Option<&str> = None;
    let mut bullets = 0;
    let mut entries = 0;
    for line in doc.lines() {
        let chars = line.chars().count();
        if line.starts_with("- PR ") {
            let name = line[2..].split(':').next().unwrap_or(line);
            assert!(
                chars <= MAX_CHARS,
                "CHANGES.md {name}: entry line is {chars} characters, over {MAX_CHARS}"
            );
            entry = Some(name);
            bullets = 0;
            entries += 1;
        } else if let Some(name) = entry {
            if line.is_empty() {
                continue;
            }
            assert!(
                line.starts_with("  - "),
                "CHANGES.md {name}: a line that is neither an entry nor a bullet: {line}"
            );
            bullets += 1;
            assert!(
                bullets <= MAX_BULLETS,
                "CHANGES.md {name}: {bullets} bullets, over {MAX_BULLETS}"
            );
            assert!(
                chars <= MAX_CHARS,
                "CHANGES.md {name}: bullet {bullets} is {chars} characters, over {MAX_CHARS}"
            );
        }
    }
    assert!(entries >= 20, "CHANGES.md has {entries} entries");
}
