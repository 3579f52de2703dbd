//! Error types for the ELP2IM core.

use crate::primitive::RowRef;
use crate::validate::Violation;
use elp2im_dram::error::DramError;
use std::error::Error;
use std::fmt;

/// Errors produced by the functional engine and device layers.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A data-row index exceeded the subarray size.
    RowOutOfRange {
        /// Offending reference.
        row: RowRef,
        /// Data rows available.
        rows: usize,
        /// Reserved DCC rows available.
        dcc_rows: usize,
    },
    /// A row whose restore was truncated (tAPP/otAPP) was read before being
    /// rewritten.
    DestroyedRowRead(RowRef),
    /// A row was read before ever being written.
    UninitializedRow(RowRef),
    /// A row value had the wrong bit width for this subarray.
    WidthMismatch {
        /// Subarray row width.
        expected: usize,
        /// Provided width.
        got: usize,
    },
    /// An overlapped double activation named two rows of the same decoder
    /// domain (§2.2.1: overlap requires separate decoders).
    DualDecoderViolation {
        /// First row.
        a: RowRef,
        /// Second row.
        b: RowRef,
    },
    /// A device handle did not name a live row.
    InvalidHandle(usize),
    /// The subarray has no free data rows left.
    CapacityExceeded {
        /// Data rows in the subarray.
        rows: usize,
    },
    /// The compiler was asked for a sequence needing more reserved rows
    /// than the configuration provides.
    NotEnoughReservedRows {
        /// Rows required.
        needed: usize,
        /// Rows available.
        available: usize,
    },
    /// The in-place mode only supports `dst := dst OP src` for AND/OR.
    UnsupportedInPlace {
        /// Operation name.
        op: &'static str,
    },
    /// In-place compilation requires the second operand to be the
    /// destination row.
    InPlaceOperandMismatch {
        /// Second operand row.
        b: usize,
        /// Destination row.
        dst: usize,
    },
    /// The requested XOR sequence needs a scratch data row that was not
    /// provided (Fig. 8 sequence 1).
    ScratchRowRequired,
    /// The static analyzer rejected the program before execution (the §5.1
    /// memory-controller check a buffered sequence must pass).
    StaticViolation(Violation),
    /// The logic-synthesis pipeline could not produce (or could not prove)
    /// a program for the requested network; callers fall back to greedy
    /// lowering.
    SynthesisFailed(String),
    /// The plan-level static verifier rejected a batch plan before
    /// execution; the string is the first diagnostic's rendered text (the
    /// concrete counterexample).
    PlanRejected(String),
    /// The batch scheduler rejected an operation's command streams (e.g. a
    /// corrupt stream path).
    SchedulingFailed(DramError),
    /// A query named a column the table does not have.
    UnknownColumn(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::RowOutOfRange { row, rows, dcc_rows } => write!(
                f,
                "row {row} out of range (subarray has {rows} data rows, {dcc_rows} reserved rows)"
            ),
            CoreError::DestroyedRowRead(r) => {
                write!(f, "row {r} was destroyed by a trimmed restore and not rewritten")
            }
            CoreError::UninitializedRow(r) => write!(f, "row {r} read before being written"),
            CoreError::WidthMismatch { expected, got } => {
                write!(f, "row width mismatch: subarray rows are {expected} bits, got {got}")
            }
            CoreError::DualDecoderViolation { a, b } => {
                write!(f, "overlapped activation of {a} and {b} requires different decoder domains")
            }
            CoreError::InvalidHandle(h) => write!(f, "invalid row handle {h}"),
            CoreError::CapacityExceeded { rows } => {
                write!(f, "no free rows (subarray capacity {rows})")
            }
            CoreError::NotEnoughReservedRows { needed, available } => {
                write!(f, "sequence needs {needed} reserved rows, only {available} configured")
            }
            CoreError::UnsupportedInPlace { op } => {
                write!(f, "in-place mode supports only AND/OR, not {op}")
            }
            CoreError::InPlaceOperandMismatch { b, dst } => {
                write!(f, "in-place mode computes dst := dst OP src, but b = r{b} ≠ dst = r{dst}")
            }
            CoreError::ScratchRowRequired => {
                f.write_str("this sequence needs a scratch data row (none provided)")
            }
            CoreError::StaticViolation(v) => write!(f, "statically invalid program: {v}"),
            CoreError::SynthesisFailed(reason) => write!(f, "logic synthesis failed: {reason}"),
            CoreError::PlanRejected(reason) => {
                write!(f, "statically invalid plan: {reason}")
            }
            CoreError::SchedulingFailed(e) => write!(f, "batch scheduling failed: {e}"),
            CoreError::UnknownColumn(name) => write!(f, "unknown column '{name}'"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::SchedulingFailed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<Violation> for CoreError {
    fn from(v: Violation) -> Self {
        CoreError::StaticViolation(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = CoreError::DestroyedRowRead(RowRef::Data(3));
        assert!(format!("{e}").contains("destroyed"));
        let e = CoreError::DualDecoderViolation { a: RowRef::Data(0), b: RowRef::Data(1) };
        assert!(format!("{e}").contains("decoder"));
        let e = CoreError::WidthMismatch { expected: 64, got: 32 };
        assert!(format!("{e}").contains("64"));
        let e = CoreError::UnknownColumn("age".into());
        assert_eq!(format!("{e}"), "unknown column 'age'");
    }

    #[test]
    fn scheduling_failure_wraps_the_dram_error() {
        let dram = DramError::CommandExceedsPumpBudget { cost: 9.0, budget: 4.0 };
        let e = CoreError::SchedulingFailed(dram.clone());
        assert!(format!("{e}").contains("exceeds the whole window budget"));
        assert_eq!(e.source().map(ToString::to_string), Some(dram.to_string()));
    }

    #[test]
    fn implements_std_error_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<CoreError>();
    }
}
