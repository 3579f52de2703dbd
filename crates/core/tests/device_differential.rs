//! Differential property test of the user-facing device.
//!
//! Random store / binary / not / release / `binary_checked` sequences run
//! through an [`Elp2imDevice`] and, in lockstep, through a bare
//! [`SubarrayEngine`] that allocates rows the same way and executes the
//! same compiled programs. Loads, live-row counts, per-class command
//! counts and wordline activations must match exactly; busy time,
//! makespan, dynamic and background energy within 1e-9 relative, and the
//! device's makespan must equal its busy time (one subarray is serial).

use elp2im_core::bitvec::BitVec;
use elp2im_core::compile::{compile, CompileMode, LogicOp, Operands};
use elp2im_core::device::{DeviceConfig, Elp2imDevice, RowHandle};
use elp2im_core::engine::SubarrayEngine;
use elp2im_core::error::CoreError;
use elp2im_core::faulty::FaultPolicy;
use elp2im_core::rowmap::RowAllocator;
use elp2im_dram::stats::RunStats;
use proptest::prelude::*;
use std::mem::discriminant;

const BINARY_OPS: [LogicOp; 6] =
    [LogicOp::And, LogicOp::Or, LogicOp::Nand, LogicOp::Nor, LogicOp::Xor, LogicOp::Xnor];

/// The oracle: one engine, one LIFO allocator over every data row but the
/// last, and the compiler called directly.
struct Reference {
    engine: SubarrayEngine,
    alloc: RowAllocator,
    mode: CompileMode,
    reserved_rows: usize,
}

impl Reference {
    fn new(config: &DeviceConfig) -> Self {
        Reference {
            engine: SubarrayEngine::new(config.width, config.data_rows, config.reserved_rows),
            alloc: RowAllocator::new(config.data_rows - 1),
            mode: config.mode,
            reserved_rows: config.reserved_rows,
        }
    }

    fn store(&mut self, value: &BitVec) -> Result<usize, CoreError> {
        let row = self.alloc.alloc()?;
        self.engine.write_row_from(row, value, 0)?;
        Ok(row)
    }

    fn op(&mut self, op: LogicOp, a: usize, b: usize) -> Result<usize, CoreError> {
        let dst = self.alloc.alloc()?;
        let rows = Operands { a, b, dst, scratch: None };
        let run = compile(op, self.mode, rows, self.reserved_rows)
            .and_then(|prog| self.engine.run_verified(&prog));
        match run {
            Ok(()) => Ok(dst),
            Err(e) => {
                self.alloc.free(dst).expect("dst was just allocated");
                Err(e)
            }
        }
    }

    fn load(&self, row: usize, len: usize) -> BitVec {
        let mut out = BitVec::zeros(len);
        self.engine.read_row_into(row, &mut out, 0).expect("reference row is live");
        out
    }
}

fn close(what: &str, got: f64, want: f64) -> Result<(), TestCaseError> {
    let tol = 1e-9 * got.abs().max(want.abs());
    prop_assert!((got - want).abs() <= tol, "{what}: device {got} vs reference {want}");
    Ok(())
}

fn assert_stats_match(dev: &RunStats, reference: &RunStats) -> Result<(), TestCaseError> {
    prop_assert_eq!(&dev.commands, &reference.commands);
    prop_assert_eq!(dev.wordline_activations, reference.wordline_activations);
    close("busy_time", dev.busy_time.as_f64(), reference.busy_time.as_f64())?;
    close("makespan", dev.makespan.as_f64(), reference.makespan.as_f64())?;
    close("makespan vs busy_time", dev.makespan.as_f64(), dev.busy_time.as_f64())?;
    close("energy", dev.energy.as_f64(), reference.energy.as_f64())?;
    close(
        "background_energy",
        dev.background_energy.as_f64(),
        reference.background_energy.as_f64(),
    )?;
    Ok(())
}

/// One live vector: device handle, reference row, logical length.
type Live = (RowHandle, usize, usize);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn device_matches_bare_engine(
        width_idx in 0usize..4,
        data_rows in 3usize..10,
        reserved_rows in 0usize..3,
        high_throughput in any::<bool>(),
        len_seed in any::<u64>(),
        steps in proptest::collection::vec(
            (0usize..10, 0usize..6, any::<u64>(), any::<u64>()),
            1..40,
        ),
    ) {
        let width = [8usize, 64, 100, 130][width_idx];
        let len = 1 + (len_seed as usize) % width;
        let config = DeviceConfig {
            width,
            data_rows,
            reserved_rows,
            mode: if high_throughput { CompileMode::HighThroughput } else { CompileMode::LowLatency },
        };
        let mut dev = Elp2imDevice::new(config.clone());
        let mut reference = Reference::new(&config);
        let mut live: Vec<Live> = Vec::new();
        let mut checked_ops = 0u64;

        for &(kind, op_idx, x, y) in &steps {
            let pick = |k: u64| (k as usize) % live.len().max(1);
            match kind {
                0..=2 => {
                    let value = BitVec::from_words(&[x, y, x ^ y], len);
                    let got = dev.store(&value);
                    let want = reference.store(&value);
                    match (got, want) {
                        (Ok(h), Ok(row)) => live.push((h, row, len)),
                        (Err(g), Err(w)) => prop_assert_eq!(discriminant(&g), discriminant(&w)),
                        (g, w) => prop_assert!(false, "store diverged: {g:?} vs {w:?}"),
                    }
                }
                3..=6 | 8 if !live.is_empty() => {
                    let (ha, ra, _) = live[pick(x)];
                    let (hb, rb, _) = live[pick(y)];
                    let (got, want) = match kind {
                        6 => (dev.not(ha), reference.op(LogicOp::Not, ra, ra)),
                        8 => {
                            checked_ops += 1;
                            let op = BINARY_OPS[op_idx];
                            let got = dev
                                .binary_checked(op, ha, hb, &FaultPolicy::default())
                                .map(|c| {
                                    assert!(!c.verified && c.attempts == 1, "clean device");
                                    c.handle
                                });
                            (got, reference.op(op, ra, rb))
                        }
                        _ => {
                            let op = BINARY_OPS[op_idx];
                            (dev.binary(op, ha, hb), reference.op(op, ra, rb))
                        }
                    };
                    match (got, want) {
                        (Ok(h), Ok(row)) => {
                            prop_assert_eq!(dev.load(h).unwrap(), reference.load(row, len));
                            prop_assert_eq!(dev.length(h).unwrap(), len);
                            live.push((h, row, len));
                        }
                        (Err(g), Err(w)) => prop_assert_eq!(discriminant(&g), discriminant(&w)),
                        (g, w) => prop_assert!(false, "op {kind} diverged: {g:?} vs {w:?}"),
                    }
                }
                7 if !live.is_empty() => {
                    let (h, row, _) = live.swap_remove(pick(x));
                    dev.release(h).unwrap();
                    reference.alloc.free(row).unwrap();
                    prop_assert!(matches!(dev.load(h), Err(CoreError::InvalidHandle(_))));
                }
                9 if op_idx == 0 => {
                    dev.reset_stats();
                    reference.engine.reset_stats();
                }
                _ => {}
            }
            prop_assert_eq!(dev.live_rows(), reference.alloc.live());
        }

        for &(h, row, len) in &live {
            prop_assert_eq!(dev.load(h).unwrap(), reference.load(row, len));
        }
        assert_stats_match(dev.stats(), reference.engine.stats())?;
        prop_assert_eq!(dev.reliability_metrics().counter("checked_ops"), checked_ops);
        prop_assert_eq!(dev.reliability_metrics().counter("verify_recomputes"), 0);
    }
}
