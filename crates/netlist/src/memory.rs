//! The synchronous-read ROM that holds the leakage component's S-Box.
//!
//! The paper stores the AES S-Box "in memory"; on an FPGA that is a block RAM
//! with a registered read port, which [`SyncRom`] models: the addressed word
//! appears on the output one cycle later, and the output register contributes
//! its own switching activity — the dominant, non-linear leakage the
//! watermark verification exploits.

use crate::bits::BitVec;
use crate::component::{check_arity, Component};
use crate::error::NetlistError;

fn validate_table(table: &[u64], data_width: u16) -> Result<u16, NetlistError> {
    if table.is_empty() {
        return Err(NetlistError::InvalidMemory {
            reason: "table is empty".to_owned(),
        });
    }
    if !table.len().is_power_of_two() {
        return Err(NetlistError::InvalidMemory {
            reason: format!("table length {} is not a power of two", table.len()),
        });
    }
    let addr_width = table.len().trailing_zeros() as u16;
    if addr_width == 0 {
        return Err(NetlistError::InvalidMemory {
            reason: "table must have at least two entries".to_owned(),
        });
    }
    for (i, &word) in table.iter().enumerate() {
        if BitVec::new(word, data_width).is_err() {
            return Err(NetlistError::InvalidMemory {
                reason: format!("word {i} ({word:#x}) does not fit in {data_width} bits"),
            });
        }
    }
    Ok(addr_width)
}

/// A synchronous-read ROM: block-RAM style lookup with a registered output.
///
/// `q` presents the word addressed on the *previous* cycle. The output
/// register is the component's state for activity accounting — in the
/// paper's leakage component this register (`H` in Fig. 3) is the element
/// whose transitions dominate the exploitable power signature.
#[derive(Debug, Clone)]
pub struct SyncRom {
    table: Vec<u64>,
    addr_width: u16,
    data_width: u16,
    init: u64,
    out_reg: u64,
}

impl SyncRom {
    /// Creates a synchronous ROM from `table` with `data_width`-bit words and
    /// output register powered on at `init`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidMemory`] when the table is empty, not a
    /// power of two in length, or contains a word wider than `data_width`,
    /// and a bit-vector error when `init` does not fit in `data_width` bits.
    pub fn new(table: Vec<u64>, data_width: u16, init: u64) -> Result<Self, NetlistError> {
        let addr_width = validate_table(&table, data_width)?;
        BitVec::new(init, data_width)?;
        Ok(Self {
            table,
            addr_width,
            data_width,
            init,
            out_reg: init,
        })
    }

    /// The current registered output word.
    pub fn registered(&self) -> u64 {
        self.out_reg
    }

    /// Address width in bits.
    pub fn addr_width(&self) -> u16 {
        self.addr_width
    }

    /// Data width in bits.
    pub fn data_width(&self) -> u16 {
        self.data_width
    }
}

impl Component for SyncRom {
    fn type_name(&self) -> &'static str {
        "sync-rom"
    }

    fn input_widths(&self) -> Vec<u16> {
        vec![self.addr_width]
    }

    fn output_widths(&self) -> Vec<u16> {
        vec![self.data_width]
    }

    fn eval(&self, inputs: &[BitVec], outputs: &mut Vec<BitVec>) -> Result<(), NetlistError> {
        check_arity(self.type_name(), inputs, 1)?;
        outputs.push(BitVec::truncated(self.out_reg, self.data_width));
        Ok(())
    }

    fn clock(&mut self, inputs: &[BitVec]) -> Result<(), NetlistError> {
        check_arity(self.type_name(), inputs, 1)?;
        let addr = inputs[0].value() as usize;
        self.out_reg = self.table[addr];
        Ok(())
    }

    fn state(&self) -> Option<BitVec> {
        Some(BitVec::truncated(self.out_reg, self.data_width))
    }

    fn is_sequential(&self) -> bool {
        true
    }

    fn reset(&mut self) {
        self.out_reg = self.init;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_rom_rejects_bad_tables() {
        assert!(SyncRom::new(vec![], 8, 0).is_err());
        assert!(SyncRom::new(vec![0, 1, 2], 8, 0).is_err()); // not a power of two
        assert!(SyncRom::new(vec![0x100, 0], 8, 0).is_err()); // word too wide
        assert!(SyncRom::new(vec![1], 8, 0).is_err()); // single entry: zero addr width
    }

    #[test]
    fn sync_rom_registers_output() {
        let mut rom = SyncRom::new(vec![10, 20, 30, 40], 8, 0).unwrap();
        let mut out = Vec::new();
        rom.eval(&[BitVec::truncated(1, 2)], &mut out).unwrap();
        assert_eq!(
            out[0].value(),
            0,
            "output is the init value before clocking"
        );
        rom.clock(&[BitVec::truncated(1, 2)]).unwrap();
        out.clear();
        rom.eval(&[BitVec::truncated(3, 2)], &mut out).unwrap();
        assert_eq!(
            out[0].value(),
            20,
            "previous address appears after the edge"
        );
    }

    #[test]
    fn sync_rom_reset_restores_init() {
        let mut rom = SyncRom::new(vec![10, 20], 8, 7).unwrap();
        rom.clock(&[BitVec::truncated(1, 1)]).unwrap();
        assert_eq!(rom.registered(), 20);
        rom.reset();
        assert_eq!(rom.registered(), 7);
    }

    #[test]
    fn sync_rom_rejects_bad_init() {
        assert!(SyncRom::new(vec![0, 1], 1, 2).is_err());
    }

    #[test]
    fn sync_rom_is_sequential_with_state() {
        let rom = SyncRom::new(vec![0, 1], 1, 1).unwrap();
        assert!(rom.is_sequential());
        assert_eq!(rom.state().unwrap().value(), 1);
    }
}
