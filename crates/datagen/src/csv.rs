//! CSV serialization for [`Relation`]s (RFC-4180 quoting).
//!
//! The reader accepts this grammar, in one pass over the text:
//!
//! - A record ends at `\n` or `\r\n` outside quotes, or at the end of the
//!   text. Cells are separated by `,` outside quotes.
//! - A `"` opens a quoted section anywhere in a cell. Inside it, `""` is
//!   one literal `"` and a lone `"` closes the section. Commas, CR and LF
//!   inside a quoted section are data, so a cell may span lines.
//! - An empty line is skipped, before the header too. The writer therefore
//!   writes a record of one empty cell as `""`.
//! - The first record is the header; every other record is a row with as
//!   many cells.
//!
//! Cells are borrowed from the text: only a cell whose quotes are not just
//! its first and last character (an escaped `""`, or a quoted section
//! inside it) is copied. Values are interned row by row, in first-occurrence
//! order, so [`ofd_core::ValueId`] order follows the text.

use std::borrow::Cow;

use ofd_core::{CoreError, Relation, Schema};

/// Serializes a relation to CSV with a header row.
pub fn write_csv(rel: &Relation) -> String {
    let schema = rel.schema();
    let lone = schema.len() == 1;
    let mut out = String::new();
    write_record(&mut out, lone, schema.attrs().map(|a| schema.name(a)));
    for row in 0..rel.n_rows() {
        write_record(&mut out, lone, schema.attrs().map(|a| rel.text(row, a)));
    }
    out
}

/// Appends one record and its `\n`, quoting the cells that need it. When
/// the record is `lone` (one cell), an empty cell is quoted too: written
/// bare, it would be an empty line, which the reader skips.
fn write_record<'a>(out: &mut String, lone: bool, cells: impl Iterator<Item = &'a str>) {
    for (i, cell) in cells.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if cell.contains([',', '"', '\n', '\r']) || (lone && cell.is_empty()) {
            out.push('"');
            for (j, part) in cell.split('"').enumerate() {
                if j > 0 {
                    out.push_str("\"\"");
                }
                out.push_str(part);
            }
            out.push('"');
        } else {
            out.push_str(cell);
        }
    }
    out.push('\n');
}

/// Parses CSV with a header row into a relation.
///
/// Malformed input is a typed [`CoreError`], never a panic: an empty file
/// is [`CoreError::MalformedInput`], a ragged row is
/// [`CoreError::ArityMismatch`] (with its row index), and a quoted section
/// that never closes is [`CoreError::MalformedInput`], naming the line its
/// record starts on.
pub fn read_csv(text: &str) -> Result<Relation, CoreError> {
    let mut records = Records {
        text,
        pos: 0,
        line: 1,
    };
    let mut cells = Vec::new();
    match records.next_into(&mut cells) {
        Ok(Some(_)) => {}
        Ok(None) => return Err(CoreError::MalformedInput("empty csv".into())),
        Err(Unterminated(_)) => {
            return Err(CoreError::MalformedInput(
                "unterminated quote in header".into(),
            ))
        }
    }
    let schema = Schema::new(cells.iter().map(|c| c.as_ref()))?;
    let mut b = Relation::builder(schema);
    while records
        .next_into(&mut cells)
        .map_err(|Unterminated(line)| {
            CoreError::MalformedInput(format!("unterminated quote on line {line}"))
        })?
        .is_some()
    {
        b.push_row(cells.iter().map(|c| c.as_ref()))?;
    }
    Ok(b.finish())
}

/// Parses raw bytes as CSV, rejecting invalid UTF-8 with a typed error
/// instead of panicking — the entry point for untrusted files.
pub fn read_csv_bytes(bytes: &[u8]) -> Result<Relation, CoreError> {
    let text = std::str::from_utf8(bytes).map_err(|e| {
        CoreError::MalformedInput(format!("invalid utf-8 at byte {}", e.valid_up_to()))
    })?;
    read_csv(text)
}

/// The records of a CSV text, read front to back.
struct Records<'a> {
    text: &'a str,
    /// Byte offset of the next record.
    pos: usize,
    /// The 1-based line `pos` is on.
    line: usize,
}

/// A quoted section that never closes, in the record starting on this
/// 1-based line.
struct Unterminated(usize);

impl<'a> Records<'a> {
    /// Replaces `cells` with the next record's cells, skipping empty lines.
    /// Returns the line the record starts on, or `None` at the end of the
    /// text. Every delimiter is ASCII, so every slice boundary is a `char`
    /// boundary.
    fn next_into(&mut self, cells: &mut Vec<Cow<'a, str>>) -> Result<Option<usize>, Unterminated> {
        let bytes = self.text.as_bytes();
        loop {
            match &bytes[self.pos..] {
                [] => return Ok(None),
                [b'\n', ..] => self.pos += 1,
                [b'\r', b'\n', ..] => self.pos += 2,
                _ => break,
            }
            self.line += 1;
        }
        let first_line = self.line;
        cells.clear();
        loop {
            let start = self.pos;
            let (mut i, mut quotes, mut quoted) = (start, 0usize, false);
            // The cell's end, and whether it also ends the record.
            let (end, last) = loop {
                match bytes.get(i) {
                    None if quoted => return Err(Unterminated(first_line)),
                    None => break (i, true),
                    Some(b'"') if quoted && bytes.get(i + 1) == Some(&b'"') => {
                        quotes += 2;
                        i += 2;
                    }
                    Some(b'"') => {
                        quoted = !quoted;
                        quotes += 1;
                        i += 1;
                    }
                    Some(b',') if !quoted => break (i, false),
                    Some(b'\n') => {
                        self.line += 1;
                        if !quoted {
                            // The CR of a CRLF outside quotes is part of the
                            // terminator, not of the cell.
                            let cr = i > start && bytes[i - 1] == b'\r';
                            break (i - usize::from(cr), true);
                        }
                        i += 1;
                    }
                    Some(_) => i += 1,
                }
            };
            cells.push(unquote(&self.text[start..end], quotes));
            self.pos = (i + 1).min(bytes.len());
            if last {
                return Ok(Some(first_line));
            }
        }
    }
}

/// The value of one raw cell holding `quotes` quote characters: the cell
/// itself, the inside of a cell quoted exactly at its ends, or a copy with
/// each quoted section's quotes removed and its `""` turned into `"`.
fn unquote(raw: &str, quotes: usize) -> Cow<'_, str> {
    if quotes == 0 {
        return Cow::Borrowed(raw);
    }
    if quotes == 2 && raw.len() >= 2 && raw.starts_with('"') && raw.ends_with('"') {
        return Cow::Borrowed(&raw[1..raw.len() - 1]);
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    let mut quoted = false;
    while let Some(q) = rest.find('"') {
        out.push_str(&rest[..q]);
        rest = &rest[q + 1..];
        if quoted && rest.starts_with('"') {
            out.push('"');
            rest = &rest[1..];
        } else {
            quoted = !quoted;
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofd_core::table1;

    #[test]
    fn round_trips_table1() {
        let rel = table1();
        let csv = write_csv(&rel);
        let back = read_csv(&csv).unwrap();
        assert_eq!(back.n_rows(), rel.n_rows());
        assert_eq!(back.schema(), rel.schema());
        for row in 0..rel.n_rows() {
            assert_eq!(back.row_texts(row), rel.row_texts(row));
        }
    }

    #[test]
    fn quoting_handles_commas_and_quotes() {
        let rel = Relation::from_rows(
            ["A", "B"],
            [&["hello, world", "say \"hi\""] as &[&str]],
        )
        .unwrap();
        let csv = write_csv(&rel);
        let back = read_csv(&csv).unwrap();
        assert_eq!(back.text(0, back.schema().attr("A").unwrap()), "hello, world");
        assert_eq!(back.text(0, back.schema().attr("B").unwrap()), "say \"hi\"");
    }

    #[test]
    fn quoted_newlines_carriage_returns_and_lone_empty_cells_round_trip() {
        // Each of these failed before the reader became one record pass: a
        // quoted newline was an unterminated quote, a lone empty cell was a
        // skipped blank line, and a trailing CR went with the line's CRLF.
        for (names, rows) in [
            (&["A", "B"][..], vec![vec!["two\nlines", "x"], vec!["y", "crlf\r\nin"]]),
            (&["A"][..], vec![vec!["a"], vec![""], vec!["b"]]),
            (&["A", "B"][..], vec![vec!["x", "ends in cr\r"], vec!["\r", ""]]),
        ] {
            let mut b = Relation::builder(Schema::new(names.iter().copied()).unwrap());
            for row in &rows {
                b.push_row(row.iter().copied()).unwrap();
            }
            let rel = b.finish();
            let back = read_csv(&write_csv(&rel)).unwrap();
            assert_eq!(back.n_rows(), rel.n_rows(), "{rows:?}");
            for r in 0..rel.n_rows() {
                assert_eq!(back.row_texts(r), rel.row_texts(r));
            }
        }
    }

    #[test]
    fn reader_grammar() {
        let rows = |text: &str| -> Vec<Vec<String>> {
            let rel = read_csv(text).unwrap();
            (0..rel.n_rows())
                .map(|r| rel.row_texts(r).into_iter().map(str::to_owned).collect())
                .collect()
        };
        // CRLF records, empty lines skipped (before the header too), a
        // quoted section inside a cell, and a bare CR kept as data.
        assert_eq!(
            rows("\r\n\nA,B\r\n\r\nx,\"y\"\r\na\"b,c\"d,e\rf\n"),
            vec![vec!["x", "y"], vec!["ab,cd", "e\rf"]]
        );
        // A record of one quoted empty cell is a row; the last record needs
        // no terminator.
        assert_eq!(rows("A\n\"\"\nz"), vec![vec![""], vec!["z"]]);
        // Escaped quotes, and a quoted cell spanning lines.
        assert_eq!(rows("A,B\n\"q\"\"d\",\"l1\nl2\"\n"), vec![vec!["q\"d", "l1\nl2"]]);
    }

    #[test]
    fn values_intern_in_row_major_first_occurrence_order() {
        let rel = read_csv("A,B\n\"y\",x\n\"q\"\"\",y\nx,\"q\"\"\"\n").unwrap();
        let order: Vec<&str> = rel.pool().iter().map(|(_, s)| s).collect();
        assert_eq!(order, ["y", "x", "q\""]);
    }

    mod properties {
        use super::*;
        use ofd_core::Schema;
        use proptest::prelude::*;

        /// Cells with commas, quotes, unicode, LF, CR and CRLF, and empty
        /// cells: one in three is empty, one in three is drawn from the
        /// delimiters alone.
        fn cell() -> impl Strategy<Value = String> {
            (0u8..3, "[ -~αβγ\r\n]{0,12}", "[\r\n,\"x]{1,4}").prop_map(|(pick, wide, narrow)| {
                match pick {
                    0 => String::new(),
                    1 => wide,
                    _ => narrow,
                }
            })
        }

        /// Random cells round-trip exactly, at one to three columns (one
        /// column makes rows of one empty cell).
        #[test]
        fn random_cells_round_trip() {
            proptest!(ProptestConfig::with_cases(96), |(
                width in 1usize..=3,
                rows in prop::collection::vec(prop::collection::vec(cell(), 3), 1..12),
            )| {
                let names = ["A", "B", "C"];
                let mut b = Relation::builder(Schema::new(names[..width].iter().copied()).unwrap());
                for row in &rows {
                    b.push_row(row[..width].iter().map(String::as_str)).unwrap();
                }
                let rel = b.finish();
                let back = read_csv(&write_csv(&rel)).unwrap();
                prop_assert_eq!(back.n_rows(), rel.n_rows());
                for r in 0..rel.n_rows() {
                    prop_assert_eq!(back.row_texts(r), rel.row_texts(r));
                }
            });
        }

        /// Bytes with the delimiters `,`, `"`, CR and LF drawn one time in
        /// five.
        fn csv_byte() -> impl Strategy<Value = u8> {
            (0u16..320).prop_map(|x| match x {
                0..=255 => x as u8,
                _ => b",\"\r\n"[usize::from(x % 4)],
            })
        }

        /// `base` with byte flips, inserts and deletes, picked by `ops`.
        fn mutate(base: &[u8], ops: &[(u8, usize, u8)]) -> Vec<u8> {
            let mut out = base.to_vec();
            for &(op, at, byte) in ops {
                let at = at % (out.len() + 1);
                match op {
                    0 if at < out.len() => out[at] = byte,
                    1 => out.insert(at, byte),
                    _ if at < out.len() => {
                        out.remove(at);
                    }
                    _ => {}
                }
            }
            out
        }

        /// What the reader accepts re-serializes to a text it reads back
        /// to the same schema and rows.
        fn assert_reads_back(rel: &Relation) {
            let back = read_csv(&write_csv(rel)).expect("the writer's output parses");
            prop_assert_eq!(back.schema(), rel.schema());
            prop_assert_eq!(back.n_rows(), rel.n_rows());
            for r in 0..rel.n_rows() {
                prop_assert_eq!(back.row_texts(r), rel.row_texts(r));
            }
        }

        /// `read_csv_bytes` is total on arbitrary bytes and on mutations
        /// of valid CSV: a typed error or a relation, never a panic.
        #[test]
        fn read_csv_bytes_never_panics() {
            let valid = write_csv(&ofd_core::table1()).into_bytes();
            proptest!(ProptestConfig::with_cases(256), |(
                raw in prop::collection::vec(csv_byte(), 0..200),
                ops in prop::collection::vec((0u8..3, 0usize..1024, csv_byte()), 1..6),
            )| {
                for bytes in [raw.clone(), mutate(&valid, &ops)] {
                    if let Ok(rel) = read_csv_bytes(&bytes) {
                        assert_reads_back(&rel);
                    }
                }
            });
        }
    }

    #[test]
    fn csv_parser_is_total() {
        use proptest::prelude::*;
        proptest!(ProptestConfig::with_cases(128), |(input in ".{0,300}")| {
            // Never panics: structured error or a relation that re-serializes.
            if let Ok(rel) = read_csv(&input) {
                let _ = write_csv(&rel);
            }
        });
    }

    #[test]
    fn rejects_empty_input_and_ragged_rows() {
        assert!(matches!(read_csv(""), Err(CoreError::MalformedInput(_))));
        assert!(matches!(
            read_csv("\n\n"),
            Err(CoreError::MalformedInput(_)),
        ));
        assert!(matches!(
            read_csv("A,B\nonly-one\n"),
            Err(CoreError::ArityMismatch { row: 0, expected: 2, got: 1 }),
        ));
        assert!(matches!(
            read_csv("A,B\na,b\nx,y,z\n"),
            Err(CoreError::ArityMismatch { row: 1, expected: 2, got: 3 }),
        ));
    }

    #[test]
    fn rejects_unterminated_quotes() {
        assert!(matches!(
            read_csv("A,B\n\"open,b\n"),
            Err(CoreError::MalformedInput(_)),
        ));
        assert!(matches!(
            read_csv("\"A,B\n"),
            Err(CoreError::MalformedInput(_)),
        ));
        // The error names the line its record starts on.
        let err = read_csv("A,B\nx,y\n\n\"open,\nb\nc\n").unwrap_err();
        assert_eq!(err.to_string(), "malformed input: unterminated quote on line 4");
    }

    #[test]
    fn rejects_invalid_utf8_bytes() {
        let err = read_csv_bytes(b"A,B\n\xff\xfe,x\n").unwrap_err();
        assert!(matches!(err, CoreError::MalformedInput(_)));
        assert!(err.to_string().contains("utf-8"));
        // Valid bytes parse identically to the &str path.
        let rel = read_csv_bytes(b"A,B\nx,y\n").unwrap();
        assert_eq!(rel.n_rows(), 1);
    }

    #[test]
    fn duplicate_header_names_are_typed_errors() {
        assert!(matches!(
            read_csv("A,A\nx,y\n"),
            Err(CoreError::DuplicateAttribute(_)),
        ));
    }
}
