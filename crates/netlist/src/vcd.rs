//! VCD (Value Change Dump) export of circuit simulations.
//!
//! Dumps the exposed outputs of a [`Circuit`] cycle by
//! cycle into the IEEE-1364 VCD text format, so a simulated watermarked IP
//! can be inspected in GTKWave or any other waveform viewer exactly like a
//! real RTL simulation.

use std::io::{self, Write};
use std::num::NonZeroUsize;

use crate::bits::BitVec;
use crate::circuit::Circuit;
use crate::error::NetlistError;

/// Records the exposed outputs of `circuit` for `cycles` cycles and writes
/// a VCD document to `writer`. A mutable reference may be passed as the
/// writer.
///
/// The circuit is reset first so the dump always starts from the power-on
/// state. One VCD time unit = one clock cycle. `cycles` is non-zero
/// because the dump learns each output's width from the first cycle.
///
/// # Errors
///
/// Returns [`NetlistError`] for simulation failures; I/O errors are
/// returned through the `io::Result` layer.
pub fn dump_vcd<W: Write>(
    circuit: &mut Circuit,
    cycles: NonZeroUsize,
    module_name: &str,
    writer: W,
) -> io::Result<Result<(), NetlistError>> {
    let mut w = io::BufWriter::new(writer);
    let names: Vec<String> = circuit
        .output_names()
        .iter()
        .map(|s| (*s).to_owned())
        .collect();

    writeln!(w, "$date ipmark simulation $end")?;
    writeln!(w, "$version ipmark-netlist VCD dumper $end")?;
    writeln!(w, "$timescale 1 ns $end")?;
    writeln!(w, "$scope module {module_name} $end")?;

    circuit.reset();
    // Peek at the first cycle to learn output widths.
    let first = match circuit.step() {
        Ok(s) => s,
        Err(e) => return Ok(Err(e)),
    };
    // Printable-ASCII identifier codes; multi-character beyond 94 outputs.
    let ids: Vec<String> = (0..names.len())
        .map(|mut i| {
            let mut id = String::new();
            loop {
                id.push(char::from(b'!' + (i % 94) as u8));
                i /= 94;
                if i == 0 {
                    break;
                }
                i -= 1;
            }
            id
        })
        .collect();
    for (i, name) in names.iter().enumerate() {
        writeln!(
            w,
            "$var wire {} {} {} $end",
            first.outputs[i].width(),
            ids[i],
            sanitize(name)
        )?;
    }
    writeln!(w, "$upscope $end")?;
    writeln!(w, "$enddefinitions $end")?;

    let mut prev: Vec<Option<BitVec>> = vec![None; names.len()];
    let emit =
        |w: &mut io::BufWriter<W>, t: usize, outs: &[BitVec], prev: &mut Vec<Option<BitVec>>| {
            let changed: Vec<usize> = (0..outs.len())
                .filter(|&i| prev[i] != Some(outs[i]))
                .collect();
            if changed.is_empty() {
                return io::Result::Ok(());
            }
            writeln!(w, "#{t}")?;
            for i in changed {
                writeln!(w, "b{} {}", outs[i], ids[i])?;
                prev[i] = Some(outs[i]);
            }
            Ok(())
        };

    emit(&mut w, 0, &first.outputs, &mut prev)?;
    for t in 1..cycles.get() {
        let step = match circuit.step() {
            Ok(s) => s,
            Err(e) => return Ok(Err(e)),
        };
        emit(&mut w, t, &step.outputs, &mut prev)?;
    }
    writeln!(w, "#{cycles}")?;
    w.flush()?;
    Ok(Ok(()))
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::BinaryCounter;
    use crate::CircuitBuilder;

    fn dump(circuit: &mut Circuit, cycles: usize) -> String {
        let mut buf = Vec::new();
        let cycles = NonZeroUsize::new(cycles).unwrap();
        dump_vcd(circuit, cycles, "top", &mut buf).unwrap().unwrap();
        String::from_utf8(buf).unwrap()
    }

    fn counter_circuit() -> Circuit {
        let mut b = CircuitBuilder::new();
        let cnt = b.add("cnt", BinaryCounter::new(4, 0).unwrap());
        b.expose(cnt, 0, "count").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn vcd_has_header_vars_and_changes() {
        let mut circuit = counter_circuit();
        let text = dump(&mut circuit, 8);
        assert!(text.contains("$timescale"));
        assert!(text.contains("$scope module top $end"));
        assert!(text.contains("$var wire 4 ! count $end"));
        assert!(text.contains("$enddefinitions $end"));
        // The counter changes every cycle: timestamps 0..7 all present.
        for t in 0..8 {
            assert!(text.contains(&format!("#{t}\n")), "missing #{t}");
        }
        assert!(text.contains("b0011 !"), "value dump missing:\n{text}");
    }

    #[test]
    fn vcd_skips_unchanged_values() {
        // A constant circuit output should be dumped once, at t = 0.
        let mut b = CircuitBuilder::new();
        let c = b.add("k", crate::comb::Constant::new(BitVec::truncated(5, 4)));
        b.expose(c, 0, "k").unwrap();
        let mut circuit = b.build().unwrap();
        let text = dump(&mut circuit, 6);
        assert_eq!(text.matches("b0101").count(), 1);
        assert!(!text.contains("#3\n"), "no change should be dumped at t=3");
    }

    #[test]
    fn sanitize_replaces_odd_characters() {
        assert_eq!(sanitize("a b/c"), "a_b_c");
        assert_eq!(sanitize("ok_name1"), "ok_name1");
    }

    #[test]
    fn vcd_restarts_from_reset() {
        let mut circuit = counter_circuit();
        // Advance the circuit, then dump: the dump must start at count 0.
        circuit.step().unwrap();
        circuit.step().unwrap();
        let text = dump(&mut circuit, 2);
        let first_change = text.split("#0\n").nth(1).expect("has t=0 section");
        assert!(first_change.starts_with("b0000"), "dump: {text}");
    }
}
