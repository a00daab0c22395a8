//! The log-compression story: per-benchmark bytes/instruction through the
//! VPC-style engine, and what each predictor family contributes.
//!
//! ```sh
//! cargo run --release --example compression_stats
//! ```

use lba::experiment;
use lba::SystemConfig;
use lba_cache::{MemSystem, MemSystemConfig};
use lba_compress::{BitWriter, LogCompressor};
use lba_cpu::{Machine, MachineConfig};
use lba_record::RAW_RECORD_BYTES;
use lba_workloads::Benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The paper-level table for all nine benchmarks.
    let rows = experiment::compression_table(&SystemConfig::default(), 1)?;
    println!("benchmark   bytes/inst   ratio vs {RAW_RECORD_BYTES}-byte raw records");
    for row in &rows {
        println!(
            "{:10}  {:10.3}  {:6.1}x",
            row.benchmark.name(),
            row.bytes_per_instruction,
            row.ratio_vs_raw
        );
    }
    let avg: f64 = rows.iter().map(|r| r.bytes_per_instruction).sum::<f64>() / rows.len() as f64;
    println!("average     {avg:10.3}  (paper target: < 1 byte/instruction)");
    assert!(avg < 1.0);

    // 2. A direct feed of one benchmark's trace through the compressor,
    //    showing the running ratio as predictors warm up.
    println!("\ngzip trace, running compression ratio:");
    let program = Benchmark::Gzip.build();
    let mut machine = Machine::new(&program, MachineConfig::default());
    let mut mem = MemSystem::new(MemSystemConfig::single_core());
    let mut compressor = LogCompressor::new();
    let mut writer = BitWriter::new();
    let mut records = 0u64;
    let mut next_report = 10_000u64;
    // The writer's length is the stream's exact bit count.
    let bytes_per_record =
        |writer: &BitWriter, records: u64| writer.len_bits() as f64 / 8.0 / records as f64;
    machine.run(&mut mem, |r| {
        compressor.encode(&r.record, &mut writer);
        records += 1;
        if records == next_report {
            let raw_bytes = records * RAW_RECORD_BYTES as u64;
            println!(
                "  after {:>7} records: {:.3} B/record ({:.1}x)",
                records,
                bytes_per_record(&writer, records),
                raw_bytes as f64 / writer.len_bits().div_ceil(8) as f64
            );
            next_report *= 2;
        }
    })?;
    println!(
        "  final: {} records at {:.3} B/record",
        records,
        bytes_per_record(&writer, records)
    );
    Ok(())
}
