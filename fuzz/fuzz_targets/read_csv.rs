//! Fuzzes the CSV trace reader: arbitrary bytes (including invalid UTF-8)
//! must decode cleanly or fail with a structured `Format`/`Trace` error.
//!
//! Successful decodes round-trip through `write_csv` and must re-read to
//! the same shape (values may legitimately re-render, e.g. `1.50` → `1.5`,
//! but row/column counts are preserved).

#![no_main]

use libfuzzer_sys::fuzz_target;

use ipmark_traces::io::{read_csv, write_csv, IoError};

fuzz_target!(|data: &[u8]| {
    match read_csv("fuzz", data) {
        Ok(block) => {
            let mut out = Vec::new();
            write_csv(&block, &mut out).expect("in-memory write cannot fail");
            let back = read_csv("fuzz", out.as_slice()).expect("own output re-reads");
            assert_eq!(back.len(), block.len(), "row count must survive a round trip");
            assert_eq!(back.trace_len(), block.trace_len(), "column count must survive too");
        }
        Err(IoError::Format(_) | IoError::Trace(_)) => {}
        Err(IoError::Io(e)) => panic!("reader leaked a transport error for in-memory input: {e}"),
    }
});
