//! The user-facing bulk bitwise device.
//!
//! [`Elp2imDevice`] is one functional subarray: `store` bit vectors,
//! combine them with `and`/`or`/`xor`/…, `load` results, and read the
//! accumulated substrate statistics (commands, latency, energy, wordline
//! activations). It is a view of a [`DeviceArray`] with a 1 × 1 × 1
//! topology (one channel, rank, bank and subarray) and no pump budget, so
//! every operation runs through the batch executor's compile, allocate,
//! execute and fault-injection path.

use crate::batch::{BatchConfig, BatchHandle, DeviceArray};
use crate::bitvec::BitVec;
use crate::compile::{CompileMode, LogicOp};
use crate::error::CoreError;
use crate::faulty::{ColumnFaultModel, FaultPolicy};
use elp2im_dram::constraint::PumpBudget;
use elp2im_dram::geometry::{Geometry, Topology};
use elp2im_dram::stats::RunStats;
use elp2im_dram::telemetry::MetricsRegistry;

/// Configuration of an [`Elp2imDevice`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Row width in bits (stored vectors may be shorter; they are padded).
    pub width: usize,
    /// Number of data rows in the subarray.
    pub data_rows: usize,
    /// Reserved dual-contact rows (1 = the paper's base design,
    /// 2 = the accelerator configuration of §6.3.3).
    pub reserved_rows: usize,
    /// Compilation strategy for operations.
    pub mode: CompileMode,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            width: 8192,
            data_rows: 512,
            reserved_rows: 1,
            mode: CompileMode::LowLatency,
        }
    }
}

/// Handle to a stored row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowHandle(BatchHandle);

/// A bulk bitwise processing-in-memory device.
///
/// ```
/// use elp2im_core::device::{DeviceConfig, Elp2imDevice};
/// use elp2im_core::bitvec::BitVec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut dev = Elp2imDevice::new(DeviceConfig::default());
/// let a = dev.store(&BitVec::from_bools(&[true, false]))?;
/// let n = dev.not(a)?;
/// assert_eq!(dev.load(n)?.to_bools(), vec![false, true]);
/// // Substrate accounting is live: a NOT is two oAAP commands.
/// assert_eq!(dev.stats().total_commands(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Elp2imDevice {
    config: DeviceConfig,
    array: DeviceArray,
}

/// The outcome of a fault-aware checked operation
/// ([`Elp2imDevice::binary_checked`]).
#[derive(Debug, Clone, Copy)]
pub struct CheckedOp {
    /// Handle of the delivered result.
    pub handle: RowHandle,
    /// Verify rounds spent (1 = first try agreed, or verification was
    /// skipped).
    pub attempts: u32,
    /// Whether an agreeing recompute confirmed the result.
    pub verified: bool,
}

impl Elp2imDevice {
    /// Creates a device. One data row is held back, so `data_rows - 1`
    /// rows are usable.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero width or fewer than two data
    /// rows.
    pub fn new(config: DeviceConfig) -> Self {
        assert!(config.width > 0, "row width must be positive");
        assert!(config.data_rows >= 2, "need at least two data rows");
        let geometry = Geometry {
            banks: 1,
            subarrays_per_bank: 1,
            rows_per_subarray: config.data_rows - 1,
            row_bytes: config.width.div_ceil(8),
        };
        let array = DeviceArray::new(BatchConfig {
            topology: Topology::module(geometry),
            reserved_rows: config.reserved_rows,
            mode: config.mode,
            budget: PumpBudget::unconstrained(),
        });
        Elp2imDevice { config, array }
    }

    /// Installs (or clears) a per-column fault model: computed result rows
    /// pick up bit flips per the model from now on (see [`crate::faulty`]).
    pub fn set_fault_model(&mut self, model: Option<ColumnFaultModel>) {
        self.array.set_fault_models(vec![model]);
    }

    /// The installed fault model, if any.
    pub fn fault_model(&self) -> Option<&ColumnFaultModel> {
        self.array.fault_model(0)
    }

    /// Bits flipped by fault injection so far.
    pub fn injected_flips(&self) -> u64 {
        self.array.injected_flips()
    }

    /// Retry/verify counters of [`Elp2imDevice::binary_checked`]:
    /// `checked_ops`, `verify_recomputes`, `verify_mismatches`, `retries`,
    /// `retries_exhausted`.
    pub fn reliability_metrics(&self) -> &MetricsRegistry {
        self.array.reliability_metrics()
    }

    /// Fault-aware `op(a, b)`: like [`Elp2imDevice::binary`], but when a
    /// nontrivial fault model is installed and `policy.verify` is set, the
    /// result is verified by recomputing and comparing, retrying up to
    /// `policy.max_retries` rounds on mismatch (see
    /// [`DeviceArray::binary_checked`]). With a clean engine the
    /// verification is skipped — the selective half of the fault-aware
    /// policy. Recompute/retry time accrues in [`Elp2imDevice::stats`].
    ///
    /// # Errors
    ///
    /// Handle, width, capacity, and compilation errors.
    pub fn binary_checked(
        &mut self,
        op: LogicOp,
        a: RowHandle,
        b: RowHandle,
        policy: &FaultPolicy,
    ) -> Result<CheckedOp, CoreError> {
        let run = self.array.binary_checked(op, a.0, b.0, policy)?;
        Ok(CheckedOp {
            handle: RowHandle(run.handle),
            attempts: run.attempts,
            verified: run.verified,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Accumulated substrate statistics (PIM commands only; host stores and
    /// loads are free). One subarray executes serially, so the makespan
    /// equals the busy time.
    pub fn stats(&self) -> &RunStats {
        self.array.stats()
    }

    /// Clears the statistics counters.
    pub fn reset_stats(&mut self) {
        self.array.reset_stats();
    }

    /// Number of live rows.
    pub fn live_rows(&self) -> usize {
        self.array.live_rows()
    }

    /// Stores a bit vector into a fresh row.
    ///
    /// # Errors
    ///
    /// [`CoreError::WidthMismatch`] if the vector is wider than a row;
    /// [`CoreError::CapacityExceeded`] if no rows are free.
    pub fn store(&mut self, value: &BitVec) -> Result<RowHandle, CoreError> {
        if value.len() > self.config.width {
            return Err(CoreError::WidthMismatch { expected: self.config.width, got: value.len() });
        }
        self.array.store(value).map(RowHandle)
    }

    /// Logical bit length of a stored row.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidHandle`] for a dead handle.
    pub fn length(&self, h: RowHandle) -> Result<usize, CoreError> {
        self.array.length(h.0)
    }

    /// Loads a row back, trimmed to its original length.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidHandle`] for a dead handle.
    pub fn load(&self, h: RowHandle) -> Result<BitVec, CoreError> {
        self.array.load(h.0)
    }

    /// Frees a row.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidHandle`] for a dead handle.
    pub fn release(&mut self, h: RowHandle) -> Result<(), CoreError> {
        self.array.release(h.0)
    }

    /// Executes `op` over `a` and `b` into a fresh destination row.
    ///
    /// # Errors
    ///
    /// Handle, capacity, and compilation errors propagate.
    pub fn binary(
        &mut self,
        op: LogicOp,
        a: RowHandle,
        b: RowHandle,
    ) -> Result<RowHandle, CoreError> {
        self.array.binary(op, a.0, b.0).map(|(h, _)| RowHandle(h))
    }

    /// Bulk AND into a fresh row.
    ///
    /// # Errors
    ///
    /// See [`Elp2imDevice::binary`].
    pub fn and(&mut self, a: RowHandle, b: RowHandle) -> Result<RowHandle, CoreError> {
        self.binary(LogicOp::And, a, b)
    }

    /// Bulk OR into a fresh row.
    ///
    /// # Errors
    ///
    /// See [`Elp2imDevice::binary`].
    pub fn or(&mut self, a: RowHandle, b: RowHandle) -> Result<RowHandle, CoreError> {
        self.binary(LogicOp::Or, a, b)
    }

    /// Bulk XOR into a fresh row.
    ///
    /// # Errors
    ///
    /// See [`Elp2imDevice::binary`].
    pub fn xor(&mut self, a: RowHandle, b: RowHandle) -> Result<RowHandle, CoreError> {
        self.binary(LogicOp::Xor, a, b)
    }

    /// Bulk NAND into a fresh row.
    ///
    /// # Errors
    ///
    /// See [`Elp2imDevice::binary`].
    pub fn nand(&mut self, a: RowHandle, b: RowHandle) -> Result<RowHandle, CoreError> {
        self.binary(LogicOp::Nand, a, b)
    }

    /// Bulk NOR into a fresh row.
    ///
    /// # Errors
    ///
    /// See [`Elp2imDevice::binary`].
    pub fn nor(&mut self, a: RowHandle, b: RowHandle) -> Result<RowHandle, CoreError> {
        self.binary(LogicOp::Nor, a, b)
    }

    /// Bulk XNOR into a fresh row.
    ///
    /// # Errors
    ///
    /// See [`Elp2imDevice::binary`].
    pub fn xnor(&mut self, a: RowHandle, b: RowHandle) -> Result<RowHandle, CoreError> {
        self.binary(LogicOp::Xnor, a, b)
    }

    /// Failure injection: flips one bit of a stored row (see
    /// [`DeviceArray::inject_bit_error`]).
    ///
    /// # Errors
    ///
    /// Invalid handles and out-of-range columns are errors.
    pub fn inject_bit_error(&mut self, h: RowHandle, column: usize) -> Result<(), CoreError> {
        self.array.inject_bit_error(h.0, column).map(drop)
    }

    /// Bulk NOT into a fresh row.
    ///
    /// # Errors
    ///
    /// Handle and capacity errors propagate.
    pub fn not(&mut self, a: RowHandle) -> Result<RowHandle, CoreError> {
        self.array.not(a.0).map(|(h, _)| RowHandle(h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Elp2imDevice {
        Elp2imDevice::new(DeviceConfig {
            width: 64,
            data_rows: 16,
            reserved_rows: 1,
            mode: CompileMode::LowLatency,
        })
    }

    fn bools(n: u64, len: usize) -> BitVec {
        BitVec::from_words(&[n], len)
    }

    #[test]
    fn store_load_roundtrip() {
        let mut d = dev();
        let v = bools(0b1011, 4);
        let h = d.store(&v).unwrap();
        assert_eq!(d.load(h).unwrap(), v);
        assert_eq!(d.live_rows(), 1);
    }

    #[test]
    fn all_binary_ops_match_software() {
        let a_val = 0b1100u64;
        let b_val = 0b1010u64;
        for op in
            [LogicOp::And, LogicOp::Or, LogicOp::Nand, LogicOp::Nor, LogicOp::Xor, LogicOp::Xnor]
        {
            let mut d = dev();
            let a = d.store(&bools(a_val, 4)).unwrap();
            let b = d.store(&bools(b_val, 4)).unwrap();
            let c = d.binary(op, a, b).unwrap();
            let got = d.load(c).unwrap();
            let want: BitVec =
                (0..4).map(|i| op.eval((a_val >> i) & 1 == 1, (b_val >> i) & 1 == 1)).collect();
            assert_eq!(got, want, "{op}");
            // Operands must survive the operation.
            assert_eq!(d.load(a).unwrap(), bools(a_val, 4), "{op} clobbered a");
            assert_eq!(d.load(b).unwrap(), bools(b_val, 4), "{op} clobbered b");
        }
    }

    #[test]
    fn not_inverts() {
        let mut d = dev();
        let a = d.store(&bools(0b10, 2)).unwrap();
        let n = d.not(a).unwrap();
        assert_eq!(d.load(n).unwrap(), bools(0b01, 2));
    }

    #[test]
    fn release_recycles_rows() {
        let mut d = dev();
        let before = d.live_rows();
        let h = d.store(&bools(1, 1)).unwrap();
        d.release(h).unwrap();
        assert_eq!(d.live_rows(), before);
        assert!(matches!(d.load(h), Err(CoreError::InvalidHandle(_))));
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let mut d = dev();
        let a = d.store(&bools(1, 3)).unwrap();
        let b = d.store(&bools(1, 4)).unwrap();
        assert!(matches!(d.and(a, b), Err(CoreError::WidthMismatch { .. })));
    }

    #[test]
    fn too_wide_vector_rejected() {
        let mut d = dev();
        let wide = BitVec::ones(65);
        assert!(matches!(d.store(&wide), Err(CoreError::WidthMismatch { .. })));
    }

    #[test]
    fn capacity_exhaustion_reported() {
        let mut d = Elp2imDevice::new(DeviceConfig {
            width: 8,
            data_rows: 3, // minus scratch = 2 usable
            reserved_rows: 1,
            mode: CompileMode::LowLatency,
        });
        let _ = d.store(&bools(1, 1)).unwrap();
        let _ = d.store(&bools(1, 1)).unwrap();
        assert!(matches!(d.store(&bools(1, 1)), Err(CoreError::CapacityExceeded { .. })));
    }

    #[test]
    fn failed_op_frees_destination_row() {
        // High-throughput XOR with zero reserved rows fails to compile; the
        // speculatively allocated dst must be released.
        let mut d = Elp2imDevice::new(DeviceConfig {
            width: 8,
            data_rows: 8,
            reserved_rows: 0,
            mode: CompileMode::LowLatency,
        });
        let a = d.store(&bools(1, 2)).unwrap();
        let b = d.store(&bools(2, 2)).unwrap();
        let live = d.live_rows();
        assert!(d.xor(a, b).is_err());
        assert_eq!(d.live_rows(), live);
    }

    #[test]
    fn stats_track_command_mix() {
        let mut d = dev();
        let a = d.store(&bools(0b01, 2)).unwrap();
        let b = d.store(&bools(0b11, 2)).unwrap();
        let _ = d.and(a, b).unwrap();
        let s = d.stats();
        // LowLatency AND = oAAP, oAPP, oAAP.
        assert_eq!(s.total_commands(), 3);
        assert_eq!(s.commands.get("oAAP"), Some(&2));
        assert_eq!(s.commands.get("oAPP"), Some(&1));
        assert!(s.busy_time.as_f64() > 150.0);
    }

    #[test]
    fn checked_op_on_clean_device_skips_verification() {
        let mut d = dev();
        let a = d.store(&bools(0b0011, 4)).unwrap();
        let b = d.store(&bools(0b0101, 4)).unwrap();
        let checked = d.binary_checked(LogicOp::Xor, a, b, &FaultPolicy::default()).unwrap();
        assert!(!checked.verified);
        assert_eq!(checked.attempts, 1);
        assert_eq!(d.load(checked.handle).unwrap(), bools(0b0110, 4));
        assert_eq!(d.reliability_metrics().counter("checked_ops"), 1);
        assert_eq!(d.reliability_metrics().counter("verify_recomputes"), 0);
    }

    #[test]
    fn checked_op_recovers_intermittent_device_fault() {
        let mut d = dev();
        // Intermittent single-column fault: recompute-verify should converge
        // on the clean answer within the retry budget.
        d.set_fault_model(Some(ColumnFaultModel::new(0xFA17, 0, vec![0.0, 0.0, 0.0, 0.15])));
        let a = d.store(&bools(0b0011, 4)).unwrap();
        let b = d.store(&bools(0b0101, 4)).unwrap();
        let policy = FaultPolicy { verify: true, max_retries: 16 };
        let mut clean = 0;
        for _ in 0..10 {
            let checked = d.binary_checked(LogicOp::Xor, a, b, &policy).unwrap();
            if checked.verified && d.load(checked.handle).unwrap() == bools(0b0110, 4) {
                clean += 1;
            }
            d.release(checked.handle).unwrap();
        }
        assert!(clean >= 8, "only {clean}/10 verified clean");
        assert!(d.reliability_metrics().counter("verify_recomputes") >= 10);
        assert!(d.injected_flips() > 0, "fault model never fired");
    }

    #[test]
    fn two_buffer_device_uses_seq6_for_xor() {
        let mut d = Elp2imDevice::new(DeviceConfig {
            width: 16,
            data_rows: 8,
            reserved_rows: 2,
            mode: CompileMode::LowLatency,
        });
        let a = d.store(&bools(0b0011, 4)).unwrap();
        let b = d.store(&bools(0b0101, 4)).unwrap();
        let x = d.xor(a, b).unwrap();
        assert_eq!(d.load(x).unwrap(), bools(0b0110, 4));
        // seq6 = 6 primitives.
        assert_eq!(d.stats().total_commands(), 6);
    }
}
