//! A minimal, deterministic CSV tokenizer — the file-format sibling of
//! [`crate::json`].
//!
//! The at-scale cluster ingests the Azure Functions 2019 invocation traces
//! (*Serverless in the Wild*), which ship as plain CSV: a header row plus one
//! row per function with 1440 per-minute invocation counts. This module
//! provides just the record layer that ingestion needs — RFC-4180-style
//! field splitting (double-quoted fields, `""` escapes) and the matching
//! deterministic renderer — with typed, line-addressed errors instead of
//! panics. Parsing is line-oriented so callers can stream arbitrarily large
//! trace files through [`split_record`] without buffering the whole file.
//! `cluster::ingest` calls [`split_record`] only for lines that contain a
//! `"`: a quote-free line splits at its commas, which its own byte-level
//! splitter does without an owned `String` per field.

use std::fmt;

/// A malformed CSV record, addressed by its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// 1-based line the error was found on.
    pub line: usize,
    /// What was wrong with the record.
    pub message: String,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CSV line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CsvError {}

/// Splits one CSV record into its fields.
///
/// Handles the RFC-4180 core: fields are separated by commas; a field may be
/// double-quoted, in which case it can contain commas and embedded `""`
/// escapes for literal quotes. A trailing `\r` (CRLF input read line-wise)
/// is stripped. Returns a [`CsvError`] addressed to `line` on an
/// unterminated quote or on text trailing a closing quote.
pub fn split_record(record: &str, line: usize) -> Result<Vec<String>, CsvError> {
    let record = record.strip_suffix('\r').unwrap_or(record);
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = record.chars().peekable();
    loop {
        match chars.peek() {
            Some('"') => {
                chars.next();
                // Quoted field: runs to the closing quote, with "" escapes.
                let mut closed = false;
                while let Some(c) = chars.next() {
                    if c == '"' {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            field.push('"');
                        } else {
                            closed = true;
                            break;
                        }
                    } else {
                        field.push(c);
                    }
                }
                if !closed {
                    return Err(CsvError {
                        line,
                        message: "unterminated quoted field".into(),
                    });
                }
                match chars.next() {
                    None => {
                        fields.push(std::mem::take(&mut field));
                        return Ok(fields);
                    }
                    Some(',') => fields.push(std::mem::take(&mut field)),
                    Some(c) => {
                        return Err(CsvError {
                            line,
                            message: format!("unexpected '{c}' after a closing quote"),
                        })
                    }
                }
            }
            _ => {
                // Unquoted field: runs to the next comma or end of record.
                loop {
                    match chars.next() {
                        None => {
                            fields.push(std::mem::take(&mut field));
                            return Ok(fields);
                        }
                        Some(',') => {
                            fields.push(std::mem::take(&mut field));
                            break;
                        }
                        Some(c) => field.push(c),
                    }
                }
            }
        }
    }
}

/// Renders one record as a CSV line (no trailing newline), quoting exactly
/// the fields that need it — the deterministic inverse of [`split_record`]:
/// `split_record(&render_record(fields), n) == fields` for any field
/// contents, and re-rendering a parsed record reproduces the input bytes as
/// long as the input itself only quoted fields that needed quoting.
pub fn render_record(fields: &[String]) -> String {
    let mut out = String::new();
    for (i, field) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if field.contains(['"', ',', '\n', '\r']) {
            out.push('"');
            for c in field.chars() {
                if c == '"' {
                    out.push('"');
                }
                out.push(c);
            }
            out.push('"');
        } else {
            out.push_str(field);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn splits_plain_records() {
        assert_eq!(
            split_record("a,b,c", 1).expect("valid"),
            fields(&["a", "b", "c"])
        );
        assert_eq!(split_record("", 1).expect("valid"), fields(&[""]));
        assert_eq!(
            split_record("a,,c", 1).expect("valid"),
            fields(&["a", "", "c"])
        );
        assert_eq!(
            split_record("a,b,", 1).expect("valid"),
            fields(&["a", "b", ""])
        );
    }

    #[test]
    fn splits_quoted_records_with_escapes() {
        assert_eq!(
            split_record("\"a,b\",c", 1).expect("valid"),
            fields(&["a,b", "c"])
        );
        assert_eq!(
            split_record("\"say \"\"hi\"\"\",x", 1).expect("valid"),
            fields(&["say \"hi\"", "x"])
        );
        assert_eq!(split_record("\"\"", 1).expect("valid"), fields(&[""]));
    }

    #[test]
    fn strips_a_trailing_carriage_return() {
        assert_eq!(
            split_record("a,b\r", 3).expect("valid"),
            fields(&["a", "b"])
        );
    }

    #[test]
    fn malformed_records_are_typed_errors_with_line_numbers() {
        let err = split_record("\"open", 7).expect_err("unterminated");
        assert_eq!(err.line, 7);
        assert!(err.to_string().contains("line 7"));
        assert!(err.to_string().contains("unterminated"));
        let err = split_record("\"a\"b", 2).expect_err("trailing text");
        assert_eq!(err.line, 2);
        assert!(err.message.contains("after a closing quote"));
    }

    #[test]
    fn render_round_trips_any_fields() {
        let cases = [
            fields(&["a", "b", "c"]),
            fields(&["", "", ""]),
            fields(&["plain", "with,comma", "with\"quote", "both,\"x\""]),
            fields(&["multi\nline"]),
        ];
        for case in cases {
            let line = render_record(&case);
            assert_eq!(split_record(&line, 1).expect("round trip"), case, "{line}");
        }
        // Plain fields render without quotes, so parse -> render is identity
        // on the emitter's own output.
        assert_eq!(render_record(&fields(&["a", "1", "2"])), "a,1,2");
    }
}
