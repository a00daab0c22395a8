//! Workload characterisation probe: prints each benchmark's instruction
//! count, memory-reference fraction, CPI and L1D miss ratio — the knobs
//! the generators were tuned against.
//!
//! ```sh
//! cargo run --release -p lba-workloads --example probe
//! ```

use lba_cache::{MemSystem, MemSystemConfig};
use lba_cpu::{Machine, MachineConfig};
use lba_record::TraceStats;
use lba_workloads::Benchmark;

fn main() {
    println!("benchmark    instructions   mem%    cpi  l1d-miss%");
    for benchmark in Benchmark::ALL {
        let program = benchmark.build();
        let mut machine = Machine::new(&program, MachineConfig::default());
        let mut mem = MemSystem::new(MemSystemConfig::single_core());
        let mut stats = TraceStats::new();
        let cycles = machine
            .run(&mut mem, |r| stats.observe(&r.record))
            .unwrap_or_else(|e| panic!("{} failed: {e}", benchmark.name()));
        println!(
            "{:10} {:12} {:6.1} {:6.2} {:10.1}",
            benchmark.name(),
            stats.instructions(),
            stats.memory_ref_fraction() * 100.0,
            cycles as f64 / stats.instructions() as f64,
            mem.core_stats(0).l1d.miss_ratio() * 100.0
        );
    }
}
