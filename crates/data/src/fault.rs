//! Deterministic fault injection for pipeline robustness testing.
//!
//! The ROADMAP north star is serving degraded, adversarial real-world
//! traffic; this module gives the test suite a single vocabulary of
//! corruptions to feed through every public entry point. Each
//! [`Fault`] can render itself as a hostile CSV document
//! ([`Fault::to_csv`]) and — for the numeric faults — corrupt a clean
//! `(times, values)` pair in place ([`Fault::inject`]). The top-level
//! `tests/fault_injection.rs` harness drives both representations
//! through parsing, series construction, fitting, and evaluation, and
//! asserts graceful degradation: a structured error or a documented
//! fallback, never a panic or a silent NaN.
//!
//! # Examples
//!
//! ```
//! use resilience_data::csv::read_series;
//! use resilience_data::fault::Fault;
//!
//! // Every injected fault is rejected with a typed error.
//! for fault in Fault::ALL {
//!     let doc = fault.to_csv();
//!     assert!(read_series(doc.as_bytes(), fault.label()).is_err(), "{fault:?}");
//! }
//! ```

/// A fault-injection request that cannot be carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultError {
    /// The series is shorter than the corruption window: every numeric
    /// fault needs at least three points (a `mid` with a predecessor and
    /// a successor) to corrupt meaningfully.
    SeriesTooShort {
        /// Points in the series.
        len: usize,
        /// Minimum points the corruption window needs.
        min: usize,
    },
    /// `times` and `values` have different lengths.
    LengthMismatch {
        /// Length of the time grid.
        times: usize,
        /// Length of the value column.
        values: usize,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::SeriesTooShort { len, min } => {
                write!(f, "series too short to corrupt: {len} points, need {min}")
            }
            FaultError::LengthMismatch { times, values } => {
                write!(f, "times/values length mismatch: {times} vs {values}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// A deliberate input corruption for robustness testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Fault {
    /// A CSV row whose value field is not a number.
    CorruptRow,
    /// A literal `nan` in the value column.
    NanValue,
    /// A value overflowing `f64` parsing to infinity.
    InfValue,
    /// A time grid that steps backwards mid-series.
    NonMonotoneTime,
    /// Two rows sharing the same time stamp.
    DuplicateTime,
    /// A record truncated before its value field.
    TruncatedRow,
}

impl Fault {
    /// Every fault, for exhaustive sweeps.
    pub const ALL: [Fault; 6] = [
        Fault::CorruptRow,
        Fault::NanValue,
        Fault::InfValue,
        Fault::NonMonotoneTime,
        Fault::DuplicateTime,
        Fault::TruncatedRow,
    ];

    /// Short label for test diagnostics.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Fault::CorruptRow => "corrupt-row",
            Fault::NanValue => "nan-value",
            Fault::InfValue => "inf-value",
            Fault::NonMonotoneTime => "non-monotone-time",
            Fault::DuplicateTime => "duplicate-time",
            Fault::TruncatedRow => "truncated-row",
        }
    }

    /// Renders a small CSV document carrying this fault amid valid rows.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let bad_row = match self {
            Fault::CorruptRow => "2,not-a-number",
            Fault::NanValue => "2,nan",
            Fault::InfValue => "2,1e309",
            Fault::NonMonotoneTime => "1,0.97",
            Fault::DuplicateTime => "1,0.97",
            Fault::TruncatedRow => "2",
        };
        format!("time,value\n0,1.0\n1,0.98\n{bad_row}\n3,0.99\n")
    }

    /// Corrupts a clean `(times, values)` pair in place. For the
    /// CSV-shape faults ([`Fault::CorruptRow`], [`Fault::TruncatedRow`])
    /// the numeric stand-in is a NaN value — the closest in-memory
    /// analogue of an unparseable field.
    ///
    /// # Errors
    ///
    /// * [`FaultError::SeriesTooShort`] when the pair has fewer than
    ///   three points (the corruption window needs a `mid` with both
    ///   neighbors) — a typed refusal, never a silent no-op that would
    ///   let a robustness test "pass" on uncorrupted data.
    /// * [`FaultError::LengthMismatch`] when the slices disagree.
    pub fn inject(&self, times: &mut [f64], values: &mut [f64]) -> Result<(), FaultError> {
        if times.len() != values.len() {
            return Err(FaultError::LengthMismatch {
                times: times.len(),
                values: values.len(),
            });
        }
        if times.len() < 3 {
            return Err(FaultError::SeriesTooShort {
                len: times.len(),
                min: 3,
            });
        }
        let mid = times.len() / 2;
        match self {
            Fault::CorruptRow | Fault::TruncatedRow | Fault::NanValue => {
                values[mid] = f64::NAN;
            }
            Fault::InfValue => values[mid] = f64::INFINITY,
            Fault::NonMonotoneTime => times[mid] = times[mid - 1] - 1.0,
            Fault::DuplicateTime => times[mid] = times[mid - 1],
        }
        Ok(())
    }

    /// Returns a corrupted copy of any clean series' `(times, values)`
    /// pair — the bridge between the scenario engine and the fault
    /// matrix: any [`crate::scenario::ScenarioSpec`]-generated series can
    /// be fed through the corruption vocabulary without hand-unpacking.
    ///
    /// # Errors
    ///
    /// [`FaultError::SeriesTooShort`] when the series is shorter than the
    /// corruption window (see [`Fault::inject`]).
    pub fn corrupt_series(
        &self,
        series: &crate::PerformanceSeries,
    ) -> Result<(Vec<f64>, Vec<f64>), FaultError> {
        let mut times = series.times().to_vec();
        let mut values = series.values().to_vec();
        self.inject(&mut times, &mut values)?;
        Ok((times, values))
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::read_series;
    use crate::PerformanceSeries;

    #[test]
    fn labels_unique() {
        let labels: std::collections::HashSet<_> = Fault::ALL.iter().map(Fault::label).collect();
        assert_eq!(labels.len(), Fault::ALL.len());
    }

    #[test]
    fn every_csv_fault_is_rejected_by_the_parser() {
        for fault in Fault::ALL {
            let doc = fault.to_csv();
            let r = read_series(doc.as_bytes(), fault.label());
            assert!(r.is_err(), "{fault}: parser accepted {doc:?}");
            // The error renders a useful message.
            assert!(r.unwrap_err().to_string().len() > 10, "{fault}");
        }
    }

    #[test]
    fn every_numeric_fault_is_rejected_at_series_construction() {
        for fault in Fault::ALL {
            let mut times: Vec<f64> = (0..6).map(|i| i as f64).collect();
            let mut values = vec![1.0, 0.98, 0.96, 0.95, 0.97, 0.99];
            fault.inject(&mut times, &mut values).unwrap();
            assert!(
                PerformanceSeries::new(fault.label(), times, values).is_err(),
                "{fault}: constructor accepted corrupt data"
            );
        }
    }

    #[test]
    fn corrupt_series_breaks_scenario_output() {
        let spec = crate::scenario::catalog::step_outage(7);
        let clean = spec.generate("step").unwrap();
        for fault in Fault::ALL {
            let (times, values) = fault.corrupt_series(&clean).unwrap();
            assert!(
                PerformanceSeries::new(fault.label(), times, values).is_err(),
                "{fault}: constructor accepted corrupted scenario series"
            );
        }
    }

    #[test]
    fn clean_control_passes_both_paths() {
        // The harness only proves something if the un-faulted versions
        // of the same inputs are accepted.
        let doc = "time,value\n0,1.0\n1,0.98\n2,0.96\n3,0.99\n";
        assert!(read_series(doc.as_bytes(), "clean").is_ok());
        let times: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let values = vec![1.0, 0.98, 0.96, 0.95, 0.97, 0.99];
        assert!(PerformanceSeries::new("clean", times, values).is_ok());
    }

    #[test]
    fn short_series_is_a_typed_refusal_not_a_silent_no_op() {
        for fault in Fault::ALL {
            let mut times = vec![0.0, 1.0];
            let mut values = vec![1.0, 0.98];
            assert_eq!(
                fault.inject(&mut times, &mut values),
                Err(FaultError::SeriesTooShort { len: 2, min: 3 }),
                "{fault}"
            );
            // ... and the data is untouched.
            assert_eq!(times, vec![0.0, 1.0]);
            assert_eq!(values, vec![1.0, 0.98]);
        }
        let mut times = vec![0.0, 1.0, 2.0];
        let mut values = vec![1.0];
        assert_eq!(
            Fault::NanValue.inject(&mut times, &mut values),
            Err(FaultError::LengthMismatch {
                times: 3,
                values: 1
            })
        );
    }
}
