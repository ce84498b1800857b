//! The baseline gate behind `mochy-exp perf --check` and
//! `mochy-exp loadtest --check`.
//!
//! Each gated document (`BENCH.json`, `LOADTEST.json`) is described by a
//! [`Document`] table: its configuration keys, its nested blocks, its row
//! arrays with their id keys, and the [`Class`] of every gated field.
//! [`check`] compares a current run against a committed baseline through that
//! table, so the policy is written once:
//!
//! - the configuration keys are exact: counts are only comparable under one
//!   configuration;
//! - every field the table names must be present on each side it is read
//!   from, and is compared by its [`Class`];
//! - a baseline row missing from the current run fails, and so does a current
//!   row missing from the baseline, which nothing would gate;
//! - a block the baseline holds must be in the current run;
//! - a baseline that yields no innermost row to compare fails: the gate
//!   would pass vacuously.
//!
//! With today's baselines the gates catch every drift of an exact field, but
//! a timing only beyond the document's tolerance (6× for perf, 5× for
//! loadtest) and only when its baseline is at least [`MIN_MS`]. perfbench, not
//! this gate, is the benchmark for speed.

use crate::json::{self, JsonValue};

/// Baseline timings below this many milliseconds are not compared: at that
/// size scheduler noise dominates.
pub const MIN_MS: f64 = 20.0;

/// How the gate compares one field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Class {
    /// Deterministic: the two documents must hold the same JSON value.
    Exact,
    /// A wall-clock time in milliseconds, where higher is worse: fails when
    /// the current value exceeds the baseline by more than the tolerance;
    /// skipped when the baseline is below [`MIN_MS`].
    Timing,
    /// A rate, where lower is worse: fails when the current value falls
    /// below `baseline / (1 + tolerance)`.
    Throughput,
    /// A bound on the current run alone: fails below the given value. The
    /// baseline's value is not read.
    Floor(f64),
}

/// One JSON object of a gated document.
#[derive(Debug)]
pub struct Block {
    /// Gated scalar fields and how each is compared. Keys the table does not
    /// name are not compared.
    pub fields: &'static [(&'static str, Class)],
    /// Object-valued fields, compared as blocks of their own.
    pub blocks: &'static [Nested],
    /// Arrays of rows, matched between the two documents by an id key.
    pub rows: &'static [Rows],
}

/// An object-valued field of a [`Block`].
#[derive(Debug)]
pub struct Nested {
    /// The field's key.
    pub key: &'static str,
    /// Whether the baseline may leave the block out or set it to `null`, in
    /// which case it is not compared.
    pub optional: bool,
    /// The block's own fields.
    pub block: Block,
}

/// An array of rows of a [`Block`].
#[derive(Debug)]
pub struct Rows {
    /// The array's key.
    pub key: &'static str,
    /// What one row is called in messages, such as `dataset`.
    pub kind: &'static str,
    /// The key whose string value identifies a row in both documents.
    pub id: &'static str,
    /// The fields of every row.
    pub row: Block,
}

/// The gate's description of one document.
#[derive(Debug)]
pub struct Document {
    /// The `mochy-exp` subcommand that writes the document.
    pub name: &'static str,
    /// Keys of the run configuration, compared as exact fields.
    pub config: &'static [&'static str],
    /// Largest tolerated change of a [`Class::Timing`] or
    /// [`Class::Throughput`] field, in percent.
    pub tolerance_pct: f64,
    /// The top-level object.
    pub top: Block,
}

/// Compares a `current` document against a `baseline` through `document`'s
/// table. Returns a one-line summary, or every violation, one per line.
pub fn check(document: &Document, baseline: &str, current: &str) -> Result<String, String> {
    let baseline = json::parse(baseline).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let current =
        json::parse(current).map_err(|e| format!("current run is not valid JSON: {e}"))?;
    let mut gate = Gate {
        tolerance_pct: document.tolerance_pct,
        ..Gate::default()
    };
    for &key in document.config {
        gate.field(key, Class::Exact, "configuration", &baseline, &current);
    }
    gate.block(&document.top, "", &baseline, &current);
    if gate.compared == 0 {
        let message = "the baseline holds no row to compare; the gate would pass vacuously \
                       (is it truncated, or one of its arrays empty?)";
        gate.fail("", message);
    }
    if !gate.violations.is_empty() {
        return Err(gate.violations.join("\n"));
    }
    Ok(format!(
        "{} gate passed: {} row(s) compared; exact fields identical; {} timing(s) under the \
         {MIN_MS:.0} ms floor skipped; tolerance {:.0}%",
        document.name, gate.compared, gate.skipped, document.tolerance_pct
    ))
}

/// The state of one comparison.
#[derive(Default)]
struct Gate {
    tolerance_pct: f64,
    violations: Vec<String>,
    /// Innermost rows (rows without row arrays of their own) compared.
    compared: usize,
    /// Timings not compared because their baseline is under [`MIN_MS`].
    skipped: usize,
}

impl Gate {
    fn block(&mut self, block: &Block, context: &str, base: &JsonValue, now: &JsonValue) {
        for &(key, class) in block.fields {
            self.field(key, class, context, base, now);
        }
        for nested in block.blocks {
            let context = join(context, &format!("`{}`", nested.key));
            let base_block = base.get(nested.key).filter(|value| !value.is_null());
            let now_block = now.get(nested.key).filter(|value| !value.is_null());
            match (base_block, now_block) {
                (Some(b), Some(c)) => self.block(&nested.block, &context, b, c),
                (None, _) if nested.optional => {}
                (None, _) => self.fail(&context, "missing from the baseline"),
                (Some(_), None) => self.fail(&context, "missing from current run"),
            }
        }
        for rows in block.rows {
            self.rows(rows, context, base, now);
        }
    }

    fn rows(&mut self, rows: &Rows, context: &str, base: &JsonValue, now: &JsonValue) {
        let base_rows = self.rows_by_id("baseline", rows, context, base);
        let now_rows = self.rows_by_id("current", rows, context, now);
        for &(name, row) in &base_rows {
            let row_context = join(context, &format!("{} `{name}`", rows.kind));
            match now_rows.iter().find(|(id, _)| *id == name) {
                Some(&(_, current)) => {
                    self.compared += usize::from(rows.row.rows.is_empty());
                    self.block(&rows.row, &row_context, row, current);
                }
                None => self.fail(&row_context, "missing from current run"),
            }
        }
        for &(name, _) in &now_rows {
            if !base_rows.iter().any(|(id, _)| *id == name) {
                let row_context = join(context, &format!("{} `{name}`", rows.kind));
                self.fail(&row_context, "not in the baseline, so nothing gates it");
            }
        }
    }

    /// The rows of `rows` in `document` with their ids; a row without a
    /// string id is a violation.
    fn rows_by_id<'a>(
        &mut self,
        side: &str,
        rows: &Rows,
        context: &str,
        document: &'a JsonValue,
    ) -> Vec<(&'a str, &'a JsonValue)> {
        let list = document.get(rows.key).and_then(JsonValue::as_array);
        let mut found = Vec::new();
        for row in list.unwrap_or_default() {
            match row.get(rows.id).and_then(JsonValue::as_str) {
                Some(id) => found.push((id, row)),
                None => self.fail(
                    context,
                    format!("a {side} {} row has no string `{}`", rows.kind, rows.id),
                ),
            }
        }
        found
    }

    fn field(&mut self, key: &str, class: Class, context: &str, base: &JsonValue, now: &JsonValue) {
        let current = self.read("current run", now, key, context);
        if let Class::Floor(floor) = class {
            if let Some(c) = current.and_then(|c| self.number("current", c, key, context)) {
                if c < floor {
                    self.fail(
                        context,
                        format!("`{key}` {c:.2} is below the {floor:.2} floor"),
                    );
                }
            }
            return;
        }
        let baseline = self.read("baseline", base, key, context);
        let (Some(b), Some(c)) = (baseline, current) else {
            return;
        };
        if class == Class::Exact {
            if b != c {
                let message = format!(
                    "`{key}` changed: baseline {} vs current {}",
                    b.render(),
                    c.render()
                );
                self.fail(context, message);
            }
            return;
        }
        let b = self.number("baseline", b, key, context);
        let c = self.number("current", c, key, context);
        let (Some(b), Some(c)) = (b, c) else {
            return;
        };
        let factor = 1.0 + self.tolerance_pct / 100.0;
        let regressed = match class {
            Class::Timing if b < MIN_MS => {
                self.skipped += 1;
                false
            }
            Class::Timing => c > b * factor,
            _ => c < b / factor,
        };
        if regressed {
            let message = format!(
                "`{key}` regression: baseline {b:.3} vs current {c:.3} (tolerance {:.0}%)",
                self.tolerance_pct
            );
            self.fail(context, message);
        }
    }

    /// The value of `key`, or a violation naming the `side` that lacks it.
    fn read<'a>(
        &mut self,
        side: &str,
        object: &'a JsonValue,
        key: &str,
        context: &str,
    ) -> Option<&'a JsonValue> {
        let value = object.get(key);
        if value.is_none() {
            self.fail(context, format!("{side} is missing key `{key}`"));
        }
        value
    }

    fn number(&mut self, side: &str, value: &JsonValue, key: &str, context: &str) -> Option<f64> {
        let number = value.as_f64();
        if number.is_none() {
            self.fail(context, format!("{side} key `{key}` is not a number"));
        }
        number
    }

    fn fail(&mut self, context: &str, message: impl Into<String>) {
        let message = message.into();
        self.violations.push(if context.is_empty() {
            message
        } else {
            format!("{context}: {message}")
        });
    }
}

/// `parent, label`, or `label` at the top level.
fn join(parent: &str, label: &str) -> String {
    if parent.is_empty() {
        label.to_string()
    } else {
        format!("{parent}, {label}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{loadtest, perf};

    /// A fixture value: exact fields hold 7, timings and throughputs 100,
    /// floors their bound.
    fn fixture_value(class: Class) -> f64 {
        match class {
            Class::Exact => 7.0,
            Class::Timing | Class::Throughput => 100.0,
            Class::Floor(floor) => floor,
        }
    }

    /// The members of a fixture shaped by `block`, one row per array, each
    /// row with the id `r`.
    fn fixture(block: &Block) -> Vec<(String, JsonValue)> {
        let number = |&(key, class): &(&str, Class)| {
            (key.to_string(), JsonValue::Number(fixture_value(class)))
        };
        let mut object: Vec<_> = block.fields.iter().map(number).collect();
        for nested in block.blocks {
            let value = JsonValue::Object(fixture(&nested.block));
            object.push((nested.key.to_string(), value));
        }
        for rows in block.rows {
            let mut row = vec![(rows.id.to_string(), JsonValue::string("r"))];
            row.extend(fixture(&rows.row));
            let value = JsonValue::Array(vec![JsonValue::Object(row)]);
            object.push((rows.key.to_string(), value));
        }
        object
    }

    /// Every field of `block` as `(key, enclosing key, class)`.
    fn fields(block: &Block, parent: &'static str, out: &mut Vec<(&str, &str, Class)>) {
        for &(key, class) in block.fields {
            out.push((key, parent, class));
        }
        for nested in block.blocks {
            fields(&nested.block, nested.key, out);
        }
        for rows in block.rows {
            fields(&rows.row, rows.key, out);
        }
    }

    /// Walks both tables and perturbs every field of a fixture built from
    /// the table. The class a field must behave as is read from its unit,
    /// not from the table: a key ending in `_ms` or inside a `_ms` block is a
    /// timing, one ending in `_rps` a throughput, and every other key exact
    /// unless the table makes it a floor. So a field added to a table is
    /// tested, and a field given the wrong class fails here.
    #[test]
    fn every_table_field_is_gated_by_its_class() {
        for document in [&perf::GATE, &loadtest::GATE] {
            let mut members: Vec<_> = document
                .config
                .iter()
                .map(|key| (key.to_string(), JsonValue::Number(7.0)))
                .collect();
            members.extend(fixture(&document.top));
            let pristine = JsonValue::Object(members).render();
            check(document, &pristine, &pristine).expect("an unperturbed fixture passes");
            let mut all: Vec<_> = document
                .config
                .iter()
                .map(|&key| (key, "", Class::Exact))
                .collect();
            fields(&document.top, "", &mut all);
            let factor = 1.0 + document.tolerance_pct / 100.0;
            for (key, parent, class) in all {
                let field = format!("{}: `{key}`", document.name);
                // Every key occurs once in the fixture, so one textual
                // replacement sets one field.
                let pattern =
                    |value: f64| format!("\"{key}\":{}", JsonValue::Number(value).render());
                let original = pattern(fixture_value(class));
                assert_eq!(pristine.matches(&original).count(), 1, "{field}");
                let set = |value: f64| pristine.replace(&original, &pattern(value));
                let fails = |base: f64, now: f64| check(document, &set(base), &set(now)).is_err();
                let expected = if key.ends_with("_ms") || parent.ends_with("_ms") {
                    Class::Timing
                } else if key.ends_with("_rps") {
                    Class::Throughput
                } else if let Class::Floor(_) = class {
                    class
                } else {
                    Class::Exact
                };
                match expected {
                    Class::Exact => {
                        // Any drift fails: within the tolerance, and far
                        // below the timing floor.
                        assert!(fails(7.0, 7.5), "{field}: exact drift must fail");
                        assert!(fails(7.0, 6.5), "{field}: exact drift must fail");
                    }
                    Class::Timing => {
                        let base = 2.0 * MIN_MS;
                        assert!(!fails(base, base * factor * 0.99), "{field}: within");
                        assert!(fails(base, base * factor * 1.01), "{field}: beyond");
                        let fast = 0.5 * MIN_MS;
                        assert!(
                            !fails(fast, fast * factor * 10.0),
                            "{field}: under the floor"
                        );
                    }
                    Class::Throughput => {
                        let base = 2.0 * MIN_MS;
                        assert!(!fails(base, base / factor * 1.01), "{field}: within");
                        assert!(fails(base, base / factor * 0.99), "{field}: beyond");
                        let slow = 0.5 * MIN_MS;
                        assert!(fails(slow, slow / factor * 0.99), "{field}: no floor");
                    }
                    Class::Floor(floor) => {
                        assert!(fails(floor, floor * 0.99), "{field}: under the floor");
                        assert!(!fails(0.0, floor), "{field}: the baseline is not read");
                    }
                }
            }
        }
    }
}
