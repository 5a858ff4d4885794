//! Minimal CSV I/O for performance series.
//!
//! Two-column format `time,value` with an optional header line. This is
//! the escape hatch for users who have the real BLS payroll data (or any
//! other resilience curve): load it here and run the identical pipeline.

use crate::series::PerformanceSeries;
use crate::DataError;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Reads a `time,value` series from a reader.
///
/// * Blank lines are skipped.
/// * The first non-blank line is a header, and is skipped, when neither
///   of its fields parses as a number. No other line may be a header.
///
/// Note that a `&mut` reference can be passed as the reader.
///
/// # Errors
///
/// * [`DataError::Parse`] for any other row that is not two numbers,
///   with its 1-based line number.
/// * [`DataError::InvalidSeries`] when the parsed data violates series
///   invariants (see [`PerformanceSeries::new`]).
/// * [`DataError::Io`] for underlying read failures.
///
/// # Examples
///
/// ```
/// use resilience_data::csv::read_series;
/// let csv = "t,performance\n0,1.0\n1,0.98\n2,0.99\n";
/// let s = read_series(csv.as_bytes(), "demo")?;
/// assert_eq!(s.len(), 3);
/// # Ok::<(), resilience_data::DataError>(())
/// ```
pub fn read_series<R: Read>(reader: R, name: &str) -> Result<PerformanceSeries, DataError> {
    let buf = BufReader::new(reader);
    let mut times = Vec::new();
    let mut values = Vec::new();
    let mut first_row = true;
    for (idx, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let may_be_header = std::mem::replace(&mut first_row, false);
        let mut fields = trimmed.split(',').map(str::trim);
        let (a, b) = match (fields.next(), fields.next()) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(DataError::Parse {
                    line: idx + 1,
                    detail: "expected two comma-separated fields".into(),
                })
            }
        };
        if fields.next().is_some() {
            return Err(DataError::Parse {
                line: idx + 1,
                detail: "expected exactly two fields".into(),
            });
        }
        match (a.parse::<f64>(), b.parse::<f64>()) {
            (Ok(t), Ok(v)) => {
                times.push(t);
                values.push(v);
            }
            (Err(_), Err(_)) if may_be_header => {}
            _ => {
                return Err(DataError::Parse {
                    line: idx + 1,
                    detail: format!("could not parse '{trimmed}' as numbers"),
                })
            }
        }
    }
    PerformanceSeries::new(name, times, values)
}

/// Reads a series from a file path, using the file stem as the name.
///
/// # Errors
///
/// Same conditions as [`read_series`] plus file-open failures.
pub fn read_series_file<P: AsRef<Path>>(path: P) -> Result<PerformanceSeries, DataError> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("series")
        .to_owned();
    let file = std::fs::File::open(path)?;
    read_series(file, &name)
}

/// Writes a series as `time,value` CSV with a header.
///
/// Note that a `&mut` reference can be passed as the writer.
///
/// # Errors
///
/// Returns [`DataError::Io`] on write failure.
///
/// # Examples
///
/// ```
/// use resilience_data::csv::{read_series, write_series};
/// use resilience_data::PerformanceSeries;
/// let s = PerformanceSeries::monthly("x", vec![1.0, 0.9, 1.05])?;
/// let mut out = Vec::new();
/// write_series(&mut out, &s)?;
/// let back = read_series(out.as_slice(), "x")?;
/// assert_eq!(back.values(), s.values());
/// # Ok::<(), resilience_data::DataError>(())
/// ```
pub fn write_series<W: Write>(mut writer: W, series: &PerformanceSeries) -> Result<(), DataError> {
    writeln!(writer, "time,value")?;
    for (t, v) in series.iter() {
        writeln!(writer, "{t},{v}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let s = PerformanceSeries::monthly("r", vec![1.0, 0.95, 0.97, 1.01]).unwrap();
        let mut buf = Vec::new();
        write_series(&mut buf, &s).unwrap();
        let back = read_series(buf.as_slice(), "r").unwrap();
        assert_eq!(back.times(), s.times());
        assert_eq!(back.values(), s.values());
    }

    #[test]
    fn header_is_optional() {
        let with = read_series("t,v\n0,1\n1,2\n".as_bytes(), "a").unwrap();
        let without = read_series("0,1\n1,2\n".as_bytes(), "a").unwrap();
        assert_eq!(with.values(), without.values());
    }

    #[test]
    fn blank_lines_skipped() {
        let s = read_series("\n0,1\n\n1,2\n\n".as_bytes(), "b").unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn malformed_rows_error_with_line_numbers() {
        let err = read_series("0,1\nbad,row\n".as_bytes(), "c").unwrap_err();
        match err {
            DataError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn malformed_first_data_row_is_an_error_not_a_header() {
        // A typo in the first data row (letter O for zero) must not be
        // mistaken for a header: that row holds the nominal performance
        // every metric normalises by.
        for (doc, bad_line) in [
            ("t,value\n0,1.O\n1,0.98\n2,0.99\n", 2),
            ("0,1.O\n1,0.98\n2,0.99\n", 1),
            ("\nt,value\nt,value\n0,1\n1,2\n", 3),
        ] {
            match read_series(doc.as_bytes(), "typo").unwrap_err() {
                DataError::Parse { line, .. } => assert_eq!(line, bad_line, "{doc:?}"),
                other => panic!("{doc:?}: expected a parse error, got {other}"),
            }
        }
        // A blank line before the header is fine.
        let s = read_series("\n\nt,value\n0,1\n1,2\n".as_bytes(), "g").unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn wrong_field_count_errors() {
        assert!(read_series("0,1,2\n".as_bytes(), "d").is_err());
        assert!(read_series("0\n1\n".as_bytes(), "e").is_err());
    }

    #[test]
    fn invariants_still_enforced() {
        // Non-increasing times are a series error, not a parse error.
        let err = read_series("1,1\n0,2\n".as_bytes(), "f").unwrap_err();
        assert!(matches!(err, DataError::InvalidSeries { .. }));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join("resilience_data_csv_test.csv");
        let s = PerformanceSeries::monthly("disk", vec![1.0, 0.9]).unwrap();
        {
            let f = std::fs::File::create(&path).unwrap();
            write_series(f, &s).unwrap();
        }
        let back = read_series_file(&path).unwrap();
        assert_eq!(back.values(), s.values());
        assert_eq!(back.name(), "resilience_data_csv_test");
        std::fs::remove_file(&path).ok();
    }
}
