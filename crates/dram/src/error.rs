//! Error types for the DRAM substrate.

use crate::geometry::TopoPath;
use crate::units::Ps;
use std::error::Error;
use std::fmt;

/// Errors produced by the DRAM substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum DramError {
    /// A bank index was out of range.
    BankOutOfRange {
        /// Requested bank.
        bank: usize,
        /// Number of banks in the module.
        banks: usize,
    },
    /// A topology path was outside the configured topology.
    PathOutOfRange {
        /// Requested path.
        path: TopoPath,
        /// Channels in the topology.
        channels: usize,
        /// Ranks per channel.
        ranks: usize,
        /// Banks per rank.
        banks: usize,
    },
    /// A refresh blackout `(interval, duration)` that leaves no time to
    /// issue in: a zero interval, or a blackout at least as long as it.
    InvalidRefresh {
        /// Refresh interval (tREFI).
        interval: Ps,
        /// Blackout opening at the start of every interval (tRFC).
        duration: Ps,
    },
    /// The charge-pump budget can never admit this command (its cost exceeds
    /// the entire window budget).
    CommandExceedsPumpBudget {
        /// Pump cost of the offending command.
        cost: f64,
        /// Total budget per window.
        budget: f64,
    },
}

impl fmt::Display for DramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramError::BankOutOfRange { bank, banks } => {
                write!(f, "bank {bank} out of range (module has {banks} banks)")
            }
            DramError::PathOutOfRange { path, channels, ranks, banks } => {
                write!(
                    f,
                    "path {path} outside topology ({channels} channels × {ranks} ranks × {banks} banks)"
                )
            }
            DramError::InvalidRefresh { interval, duration } => write!(
                f,
                "refresh blackout of {} ps every {} ps leaves no issue time \
                 (need 0 < duration < interval)",
                duration.0, interval.0
            ),
            DramError::CommandExceedsPumpBudget { cost, budget } => {
                write!(f, "command pump cost {cost:.2} exceeds the whole window budget {budget:.2}")
            }
        }
    }
}

impl Error for DramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = DramError::BankOutOfRange { bank: 9, banks: 8 };
        assert_eq!(format!("{e}"), "bank 9 out of range (module has 8 banks)");
        let e = DramError::InvalidRefresh { interval: Ps::ZERO, duration: Ps(350_000) };
        assert!(format!("{e}").contains("refresh"));
        let e = DramError::CommandExceedsPumpBudget { cost: 9.0, budget: 4.0 };
        assert!(format!("{e}").contains("pump"));
        let e = DramError::PathOutOfRange {
            path: TopoPath::new(4, 0, 0),
            channels: 4,
            ranks: 2,
            banks: 8,
        };
        assert!(format!("{e}").contains("c4.r0.b0"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<DramError>();
    }
}
