//! Rendering helpers shared by the `figures` binary and the Criterion
//! benches: each function turns one experiment's rows into the text table
//! the paper reports. The [`pipeline`] module adds the host-throughput
//! measurements behind `BENCH_pipeline.json`.

pub mod pipeline;

use lba::experiment::{
    BufferRow, CompressionAblationRow, CompressionRow, DecouplingRow, Fig2Row, FilterRow,
    ParallelRow, SummaryRow, WorkloadRow,
};
use lba::table::TextTable;
use lba::MonitorSpec;

/// Renders `monitor`'s Figure 2 panel (normalised execution times, `v` =
/// the Valgrind-style DBI baseline, `l` = LBA).
#[must_use]
pub fn render_fig2(monitor: &MonitorSpec, rows: &[Fig2Row]) -> String {
    let mut t = TextTable::new(["benchmark", "valgrind (v)", "lba (l)", "lba speedup"]);
    for row in rows {
        t.row([
            row.benchmark.name().to_string(),
            format!("{:.1}x", row.valgrind),
            format!("{:.1}x", row.lba),
            format!("{:.1}x", row.speedup()),
        ]);
    }
    format!(
        "Figure 2 ({}): slowdown vs unmonitored execution\n{t}",
        monitor.name
    )
}

/// Renders the §3 workload-characterisation table.
#[must_use]
pub fn render_workloads(rows: &[WorkloadRow]) -> String {
    let mut t = TextTable::new(["benchmark", "instructions", "memory refs", "cpi"]);
    let mut insts = 0u64;
    let mut frac = 0.0;
    for row in rows {
        insts += row.instructions;
        frac += row.memory_fraction;
        t.row([
            row.benchmark.name().to_string(),
            row.instructions.to_string(),
            format!("{:.1}%", row.memory_fraction * 100.0),
            format!("{:.2}", row.cpi),
        ]);
    }
    let n = rows.len() as u64;
    t.row([
        "average".to_string(),
        (insts / n.max(1)).to_string(),
        format!("{:.1}%", frac / n.max(1) as f64 * 100.0),
        String::new(),
    ]);
    format!("Workload characterisation (§3: paper avg 209M insts, 51% memory refs)\n{t}")
}

/// Renders the compression table (§2 claim: < 1 byte/instruction).
#[must_use]
pub fn render_compression(rows: &[CompressionRow]) -> String {
    let mut t = TextTable::new(["benchmark", "records", "bytes/inst", "ratio vs raw"]);
    for row in rows {
        t.row([
            row.benchmark.name().to_string(),
            row.records.to_string(),
            format!("{:.3}", row.bytes_per_instruction),
            format!("{:.1}x", row.ratio_vs_raw),
        ]);
    }
    format!("Log compression (§2: VPC-based, target < 1 byte/instruction)\n{t}")
}

/// Renders the §3 summary rows (averages and speedup ranges).
#[must_use]
pub fn render_summary(rows: &[SummaryRow]) -> String {
    let mut t = TextTable::new([
        "lifeguard",
        "lba avg",
        "paper lba avg",
        "valgrind avg",
        "speedup range",
    ]);
    for row in rows {
        t.row([
            row.monitor.name.to_string(),
            format!("{:.1}x", row.lba_avg),
            format!("{:.1}x", row.paper_lba_avg),
            format!("{:.1}x", row.valgrind_avg),
            format!("{:.1}-{:.1}x", row.speedup_min, row.speedup_max),
        ]);
    }
    format!("Summary (§3: LBA avgs 3.9/4.8/9.7x; LBA 4-19x faster than Valgrind)\n{t}")
}

/// Renders ablation A (decoupled vs lock-step cores).
#[must_use]
pub fn render_decoupling(rows: &[DecouplingRow]) -> String {
    let mut t = TextTable::new(["benchmark", "decoupled", "lock-step"]);
    for row in rows {
        t.row([
            row.benchmark.name().to_string(),
            format!("{:.1}x", row.decoupled),
            format!("{:.1}x", row.lockstep),
        ]);
    }
    format!("Ablation A: decoupling (§2: async cores vs per-record sync), AddrCheck\n{t}")
}

/// Renders ablation B (log-buffer size sweep).
#[must_use]
pub fn render_buffer(rows: &[BufferRow]) -> String {
    let mut t = TextTable::new(["buffer", "slowdown", "back-pressure stall cycles"]);
    for row in rows {
        t.row([
            format!("{} KiB", row.buffer_bytes >> 10),
            format!("{:.2}x", row.slowdown),
            row.buffer_stall_cycles.to_string(),
        ]);
    }
    format!("Ablation B: log buffer size (TaintCheck on gzip)\n{t}")
}

/// Renders ablation C (compression on/off).
#[must_use]
pub fn render_compression_ablation(rows: &[CompressionAblationRow]) -> String {
    let mut t = TextTable::new(["benchmark", "compressed", "raw 25B records", "bytes/inst"]);
    for row in rows {
        t.row([
            row.benchmark.name().to_string(),
            format!("{:.2}x", row.compressed),
            format!("{:.2}x", row.raw),
            format!("{:.3}", row.compressed_bytes_per_inst),
        ]);
    }
    format!("Ablation C: VPC compression on/off (TaintCheck)\n{t}")
}

/// Renders the filtering extension table.
#[must_use]
pub fn render_filtering(rows: &[FilterRow]) -> String {
    let mut t = TextTable::new([
        "benchmark",
        "unfiltered",
        "heap-filtered",
        "records dropped",
    ]);
    for row in rows {
        t.row([
            row.benchmark.name().to_string(),
            format!("{:.2}x", row.unfiltered),
            format!("{:.2}x", row.filtered),
            format!("{:.0}%", row.dropped_fraction * 100.0),
        ]);
    }
    format!("Extension: address-range filtering (§3 future work), AddrCheck\n{t}")
}

/// Renders the parallel-lifeguard extension table.
#[must_use]
pub fn render_parallel(rows: &[ParallelRow]) -> String {
    let mut t = TextTable::new(["lifeguard cores", "slowdown"]);
    for row in rows {
        t.row([row.shards.to_string(), format!("{:.2}x", row.slowdown)]);
    }
    format!("Extension: parallel lifeguards (§1/§3 future work), LockSet on zchaff\n{t}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lba::experiment;
    use lba::{SystemConfig, LOCKSET};

    #[test]
    fn lockset_panel_renders() {
        let rows = experiment::figure2(&LOCKSET, &SystemConfig::default(), 1).expect("panel runs");
        let s = render_fig2(&LOCKSET, &rows);
        assert!(s.contains("water"));
        assert!(s.contains("zchaff"));
        assert!(s.contains("lba speedup"));
    }
}
