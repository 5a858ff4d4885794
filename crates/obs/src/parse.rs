//! Parsing JSONL event logs back into [`Event`] values.
//!
//! The encoder emits flat, single-line JSON objects with a fixed key order,
//! but the parser is a small general JSON-object reader: it tolerates
//! reordered keys and extra whitespace so hand-edited or externally produced
//! logs still load. String-typed event fields (`family`, `scope`) are
//! interned into `&'static str` so parsed events are the same `Copy` type
//! the pipeline emits.
//!
//! One pass over a line does all the work. Keys and string values are
//! slices borrowed from the line; only a string holding a `\` escape is
//! decoded into an owned `String`. [`parse_log`] reuses one field buffer
//! for the whole log, so once the first line has sized it, a line without
//! escapes allocates nothing (DESIGN.md §15, "Reading logs").

use crate::event::{
    ChaosKind, CounterId, Event, ExitReason, FailureCode, HistogramId, SolverKind, StopKind,
};
use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

/// A parse failure, with the 1-based line number when known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the log, or 0 for a standalone line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for ParseError {}

#[cold]
fn err<T>(message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line: 0,
        message: message.into(),
    })
}

/// Interns `s`, returning a `&'static str` that lives for the process.
///
/// Event logs contain a handful of distinct family/scope names, so the
/// leaked set stays tiny; interning keeps parsed [`Event`]s `Copy` and
/// comparable by pointer-free equality with pipeline-emitted events.
pub fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashSet::new()));
    let mut guard = pool.lock().expect("intern pool poisoned");
    if let Some(existing) = guard.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    guard.insert(leaked);
    leaked
}

/// One decoded JSON scalar, borrowing from the line it was read from.
#[derive(Debug, Clone, PartialEq)]
enum Val<'a> {
    Str(Cow<'a, str>),
    /// A token of digits alone that fits a `u64`, read exactly: through
    /// `f64` every integer above 2^53 would round.
    Int(u64),
    /// Any other number.
    Num(f64),
    Bool(bool),
}

struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

// The hot helpers are `#[inline]` so that every codegen unit can inline
// them into `parse_object`; on a 2-vCPU x86-64 VM that took about a
// tenth off the parse time.
impl<'a> Cursor<'a> {
    #[inline]
    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.bytes()[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// Moves to the next `"` or `\` and returns the text passed over, or
    /// `None` when the line ends first.
    #[inline]
    fn plain_run(&mut self) -> Option<&'a str> {
        let start = self.pos;
        let len = self.bytes()[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')?;
        self.pos = start + len;
        // Both ends are char boundaries: `pos` sits on an ASCII byte, and
        // `start` follows the opening quote or a fully decoded escape.
        Some(&self.src[start..self.pos])
    }

    /// Reads a JSON string literal. Without escapes it is a slice of the
    /// line; the first `\` switches to decoding into an owned string.
    #[inline]
    fn parse_string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let Some(plain) = self.plain_run() else {
            return err("unterminated string");
        };
        if self.bytes()[self.pos] == b'"' {
            self.pos += 1;
            return Ok(Cow::Borrowed(plain));
        }
        let mut out = String::from(plain);
        // Each turn starts on the `"` or `\` that ended the last run.
        while self.bytes()[self.pos] == b'\\' {
            self.pos += 1;
            self.parse_escape(&mut out)?;
            let Some(run) = self.plain_run() else {
                return err("unterminated string");
            };
            out.push_str(run);
        }
        self.pos += 1;
        Ok(Cow::Owned(out))
    }

    /// Decodes the escape after a `\` into `out`.
    fn parse_escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let Some(esc) = self.peek() else {
            return err("unterminated escape");
        };
        self.pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                if self.pos + 4 > self.src.len() {
                    return err("truncated \\u escape");
                }
                let hex =
                    std::str::from_utf8(&self.bytes()[self.pos..self.pos + 4]).map_err(|_| {
                        ParseError {
                            line: 0,
                            message: "non-utf8 \\u escape".into(),
                        }
                    })?;
                let code = u32::from_str_radix(hex, 16).map_err(|_| ParseError {
                    line: 0,
                    message: format!("bad \\u escape {hex:?}"),
                })?;
                self.pos += 4;
                match char::from_u32(code) {
                    Some(c) => out.push(c),
                    None => return err("invalid \\u code point"),
                }
            }
            other => return err(format!("unknown escape '\\{}'", other as char)),
        }
        Ok(())
    }

    #[inline]
    fn parse_value(&mut self) -> Result<Val<'a>, ParseError> {
        self.skip_ws();
        let rest = &self.bytes()[self.pos..];
        match rest.first() {
            Some(b'"') => Ok(Val::Str(self.parse_string()?)),
            Some(b't') if rest.starts_with(b"true") => {
                self.pos += 4;
                Ok(Val::Bool(true))
            }
            Some(b'f') if rest.starts_with(b"false") => {
                self.pos += 5;
                Ok(Val::Bool(false))
            }
            Some(b't' | b'f') => err("bad literal"),
            Some(&b) if b == b'-' || b.is_ascii_digit() => {
                let start = self.pos;
                let mut digits = true;
                while let Some(b) = self.peek() {
                    if b.is_ascii_digit() {
                        self.pos += 1;
                    } else if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                        digits = false;
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                let token = &self.src[start..self.pos];
                if digits {
                    if let Ok(n) = token.parse::<u64>() {
                        return Ok(Val::Int(n));
                    }
                }
                match token.parse::<f64>() {
                    Ok(x) => Ok(Val::Num(x)),
                    Err(_) => err(format!("bad number {token:?}")),
                }
            }
            _ => err("expected a string, number, or bool"),
        }
    }

    /// Parses a flat JSON object, appending its key/value pairs to `fields`.
    fn parse_object(
        &mut self,
        fields: &mut Vec<(Cow<'a, str>, Val<'a>)>,
    ) -> Result<(), ParseError> {
        self.skip_ws();
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return err("expected ',' or '}'"),
            }
        }
    }
}

/// The key/value pairs of one line, borrowing from the text it came from.
/// A lookup takes the first pair with the key.
#[derive(Default)]
struct Fields<'a>(Vec<(Cow<'a, str>, Val<'a>)>);

impl<'a> Fields<'a> {
    /// Parses `line`, which must hold exactly one object, into an
    /// [`Event`], replacing the buffer's contents with its fields.
    fn parse(&mut self, line: &'a str) -> Result<Event, ParseError> {
        self.0.clear();
        let mut cursor = Cursor { src: line, pos: 0 };
        cursor.parse_object(&mut self.0)?;
        cursor.skip_ws();
        if cursor.pos != line.len() {
            return err("trailing bytes after object");
        }
        self.event()
    }

    #[inline]
    fn get(&self, key: &str) -> Result<&Val<'a>, ParseError> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| ParseError {
                line: 0,
                message: format!("missing field {key:?}"),
            })
    }

    fn str(&self, key: &str) -> Result<&str, ParseError> {
        match self.get(key)? {
            Val::Str(s) => Ok(s),
            _ => err(format!("field {key:?} is not a string")),
        }
    }

    fn interned(&self, key: &str) -> Result<&'static str, ParseError> {
        Ok(intern(self.str(key)?))
    }

    /// Reads the string field `key` as one of a closed set of tags.
    fn tag<T>(&self, key: &str, what: &str, parse: fn(&str) -> Option<T>) -> Result<T, ParseError> {
        let s = self.str(key)?;
        parse(s).ok_or_else(|| ParseError {
            line: 0,
            message: format!("unknown {what} {s:?}"),
        })
    }

    fn solver(&self) -> Result<SolverKind, ParseError> {
        self.tag("solver", "solver", SolverKind::parse)
    }

    fn f64(&self, key: &str) -> Result<f64, ParseError> {
        match self.get(key)? {
            // Rounds as parsing the token as `f64` does: to nearest, ties
            // to even.
            Val::Int(n) => Ok(*n as f64),
            Val::Num(x) => Ok(*x),
            // Non-finite floats are encoded as strings.
            Val::Str(s) => match s.as_ref() {
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                "nan" => Ok(f64::NAN),
                _ => err(format!("field {key:?} is not a number")),
            },
            _ => err(format!("field {key:?} is not a number")),
        }
    }

    fn u64(&self, key: &str) -> Result<u64, ParseError> {
        match self.get(key)? {
            Val::Int(n) => Ok(*n),
            // A number written otherwise (`1e3`, `2.0`) is an integer when
            // it is one in `f64`. The upper bound rejects values ≥ 2^64
            // (including overflow artifacts like `1e300`), which a plain
            // `as u64` cast would silently saturate to `u64::MAX`.
            Val::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < u64::MAX as f64 => Ok(*x as u64),
            _ => err(format!("field {key:?} is not a non-negative integer")),
        }
    }

    fn u32(&self, key: &str) -> Result<u32, ParseError> {
        let v = self.u64(key)?;
        u32::try_from(v).map_err(|_| ParseError {
            line: 0,
            message: format!("field {key:?} overflows u32"),
        })
    }

    fn bool(&self, key: &str) -> Result<bool, ParseError> {
        match self.get(key)? {
            Val::Bool(b) => Ok(*b),
            _ => err(format!("field {key:?} is not a bool")),
        }
    }

    /// Builds the event the `ev` tag names from the parsed fields.
    fn event(&self) -> Result<Event, ParseError> {
        let tag = self.str("ev")?;
        let event = match tag {
            "job" => Event::JobStarted {
                cell: self.u32("cell")?,
                family: self.interned("family")?,
            },
            "fit_started" => Event::FitStarted {
                family: self.interned("family")?,
                starts: self.u32("starts")?,
            },
            "fit_finished" => Event::FitFinished {
                family: self.interned("family")?,
                sse: self.f64("sse")?,
                evaluations: self.u64("evals")?,
                converged: self.bool("converged")?,
            },
            "fit_failed" => Event::FitFailed {
                family: self.interned("family")?,
                kind: self.tag("kind", "failure kind", FailureCode::parse)?,
            },
            "start" => Event::StartBegan {
                index: self.u32("index")?,
            },
            "converged" => Event::Converged {
                solver: self.solver()?,
                iterations: self.u64("iters")?,
                evaluations: self.u64("evals")?,
                value: self.f64("value")?,
                reason: self.tag("reason", "exit reason", ExitReason::parse)?,
            },
            "retry_scheduled" => Event::RetryScheduled {
                family: self.interned("family")?,
                attempt: self.u32("attempt")?,
            },
            "deadline_exceeded" | "cancelled" => Event::Stop {
                scope: self.interned("scope")?,
                kind: StopKind::parse(tag).expect("tag matched above"),
                evaluations: self.u64("evals")?,
            },
            "worker_panic" => Event::WorkerPanic {
                scope: self.interned("scope")?,
                index: self.u32("index")?,
            },
            "chaos_injected" => Event::ChaosInjected {
                kind: self.tag("kind", "chaos kind", ChaosKind::parse)?,
                family: self.interned("family")?,
            },
            "breaker_opened" => Event::BreakerOpened {
                family: self.interned("family")?,
                consecutive: self.u32("consecutive")?,
                clock: self.u64("clock")?,
            },
            "breaker_half_open" => Event::BreakerHalfOpen {
                family: self.interned("family")?,
                clock: self.u64("clock")?,
            },
            "breaker_closed" => Event::BreakerClosed {
                family: self.interned("family")?,
                clock: self.u64("clock")?,
            },
            "cell_quarantined" => Event::CellQuarantined {
                cell: self.u32("cell")?,
                failures: self.u32("failures")?,
            },
            "counter" => Event::Counter {
                id: self.tag("id", "counter id", CounterId::parse)?,
                delta: self.u64("n")?,
            },
            "hist" => Event::Hist {
                id: self.tag("id", "histogram id", HistogramId::parse)?,
                value: self.u64("value")?,
            },
            other => return err(format!("unknown event tag {other:?}")),
        };
        Ok(event)
    }
}

/// Parses one JSONL line into an [`Event`].
pub fn parse_line(line: &str) -> Result<Event, ParseError> {
    Fields::default().parse(line)
}

/// Parses a whole JSONL log. Blank lines are skipped; any malformed line
/// aborts with its 1-based line number.
pub fn parse_log(text: &str) -> Result<Vec<Event>, ParseError> {
    let mut events = Vec::new();
    let mut fields = Fields::default();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match fields.parse(line) {
            Ok(e) => events.push(e),
            Err(mut e) => {
                e.line = i + 1;
                return Err(e);
            }
        }
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_returns_identical_pointers() {
        let a = intern("Quadratic");
        let b = intern("Quadratic");
        assert!(std::ptr::eq(a, b));
    }

    fn round_trip(e: Event) {
        let json = e.to_json();
        let parsed = parse_line(&json).unwrap_or_else(|err| panic!("{json}: {err}"));
        // NaN != NaN, so compare re-encodings for float-carrying events.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn every_variant_round_trips() {
        round_trip(Event::FitStarted {
            family: intern("Quadratic"),
            starts: 4,
        });
        round_trip(Event::FitFinished {
            family: intern("CompetingRisks"),
            sse: 0.012345678901234567,
            evaluations: 987,
            converged: true,
        });
        round_trip(Event::FitFailed {
            family: intern("Glacial"),
            kind: FailureCode::TimedOut,
        });
        round_trip(Event::StartBegan { index: 3 });
        round_trip(Event::Converged {
            solver: SolverKind::NelderMead,
            iterations: 17,
            evaluations: 120,
            value: -1.5e-7,
            reason: ExitReason::MaxIterations,
        });
        round_trip(Event::Converged {
            solver: SolverKind::NelderMead,
            iterations: 2,
            evaluations: 60,
            value: f64::INFINITY,
            reason: ExitReason::Stalled,
        });
        round_trip(Event::Converged {
            solver: SolverKind::LevenbergMarquardt,
            iterations: 9,
            evaluations: 40,
            value: 2.0,
            reason: ExitReason::Converged,
        });
        round_trip(Event::RetryScheduled {
            family: intern("Buggy"),
            attempt: 2,
        });
        round_trip(Event::Stop {
            scope: intern("nelder_mead"),
            kind: StopKind::Deadline,
            evaluations: 55,
        });
        round_trip(Event::Stop {
            scope: intern("fit"),
            kind: StopKind::Cancelled,
            evaluations: 0,
        });
        round_trip(Event::WorkerPanic {
            scope: intern("ranking"),
            index: 1,
        });
        round_trip(Event::JobStarted {
            cell: 17,
            family: intern("Hjorth"),
        });
        round_trip(Event::ChaosInjected {
            kind: ChaosKind::Deadline,
            family: intern("Hjorth"),
        });
        round_trip(Event::BreakerOpened {
            family: intern("Hjorth"),
            consecutive: 3,
            clock: 42,
        });
        round_trip(Event::BreakerHalfOpen {
            family: intern("Hjorth"),
            clock: 57,
        });
        round_trip(Event::BreakerClosed {
            family: intern("Hjorth"),
            clock: 61,
        });
        round_trip(Event::CellQuarantined {
            cell: 12,
            failures: 4,
        });
        round_trip(Event::Counter {
            id: CounterId::LmDampingUp,
            delta: 6,
        });
        round_trip(Event::Hist {
            id: HistogramId::EvalsPerStart,
            value: 231,
        });
    }

    #[test]
    fn parse_log_reports_line_numbers() {
        let text = "{\"ev\":\"start\",\"index\":0}\n\nnot json\n";
        let err = parse_log(text).unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn parser_tolerates_reordered_keys_and_whitespace() {
        let e = parse_line(" { \"starts\" : 2 , \"family\" : \"Q\" , \"ev\" : \"fit_started\" } ")
            .unwrap();
        assert_eq!(
            e,
            Event::FitStarted {
                family: intern("Q"),
                starts: 2
            }
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_line("{}").is_err());
        assert!(parse_line("{\"ev\":\"nope\"}").is_err());
        // Solvers write no per-iteration lines, and no multi-start solver.
        let old = parse_line("{\"ev\":\"iteration\",\"solver\":\"nm\",\"iter\":1,\"evals\":3}");
        assert_eq!(old.unwrap_err().message, "unknown event tag \"iteration\"");
        // A band's replicates are its two counters; it writes no progress line.
        let old =
            parse_line("{\"ev\":\"bootstrap_chunk_done\",\"done\":2,\"total\":2,\"failed\":0}");
        assert_eq!(
            old.unwrap_err().message,
            "unknown event tag \"bootstrap_chunk_done\""
        );
        assert!(parse_line(
            "{\"ev\":\"converged\",\"solver\":\"ms\",\"iters\":1,\"evals\":2,\
             \"value\":0.5,\"reason\":\"converged\"}"
        )
        .is_err());
        assert!(parse_line("{\"ev\":\"start\",\"index\":-1}").is_err());
        assert!(parse_line("{\"ev\":\"start\",\"index\":0}x").is_err());
    }

    #[test]
    fn rejects_integer_fields_that_overflow_u64() {
        // `1e300` has a zero fraction, so before the range guard it cast
        // (saturating) to u64::MAX and poisoned downstream aggregation.
        assert!(parse_line("{\"ev\":\"hist\",\"id\":\"evals_per_fit\",\"value\":1e300}").is_err());
        assert!(parse_line(
            "{\"ev\":\"counter\",\"id\":\"objective_evals\",\"n\":18446744073709551616}"
        )
        .is_err());
        // Negative and fractional integers are still errors.
        for n in ["-1", "1.5", "-0.5"] {
            let line = format!("{{\"ev\":\"counter\",\"id\":\"objective_evals\",\"n\":{n}}}");
            assert!(parse_line(&line).is_err(), "{n}");
        }
        // Large in-range integers parse exactly, not through `f64`: 2^53,
        // 2^53 + 1, 12345678901234567 and the largest two `u64`s, which
        // the encoder writes.
        for value in [
            1 << 53,
            (1 << 53) + 1,
            12_345_678_901_234_567,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let event = Event::Hist {
                id: HistogramId::EvalsPerFit,
                value,
            };
            assert_eq!(parse_line(&event.to_json()).unwrap(), event, "{value}");
            let event = Event::Counter {
                id: CounterId::ObjectiveEvals,
                delta: value,
            };
            assert_eq!(parse_line(&event.to_json()).unwrap(), event, "{value}");
        }
    }
}
